"""Structural KG embedding baselines: TransE, DistMult, ComplEx, RotatE.

All four families share one convention: higher score = more plausible triple
(TransE/RotatE return negated distances). Training is minibatch SGD: each step
takes ``batch_size`` shuffled positives and ``negatives`` corruptions of each,
takes the gradient of the batch loss (margin-ranking or logistic), summed over
the batch rather than averaged so a learning rate moves each triple's rows as
far as per-triple SGD would, and applies it with ``np.add.at``. Everything
is float64 and deterministic under a seed.

Gradients for the complex-valued families are stored in the "encoded" form
``d/dRe + i * d/dIm``, so a plain ``param -= lr * grad`` update moves real and
imaginary parts independently, as finite differences expect.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, written_beside

FAMILIES = ("transe", "distmult", "complex", "rotate")
LOSSES = ("margin", "logistic")

_MAGIC = b"FKGE0001"
_HEADER_KEYS = ("dim", "entity_complex", "family", "margin", "n_entities",
                "n_relations", "relation_complex", "seed", "transe_norm")
#: entity rows per scoring block; a block's temporaries stay cache-sized
SCORE_BLOCK = 256


class TrainingError(Exception):
    """Training diverged or was misconfigured."""


@dataclass
class TrainConfig:
    family: str = "transe"
    dim: int = 32
    epochs: int = 100
    lr: float = 0.01
    batch_size: int = 128
    negatives: int = 1
    margin: float = 1.0
    loss: str = "margin"
    l2: float = 0.0
    seed: int = 0
    transe_norm: int = 1  # 1 or 2

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family: {self.family!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss: {self.loss!r}")
        if (self.dim < 1 or self.negatives < 1 or self.epochs < 0
                or self.batch_size < 1 or not self.l2 >= 0):
            raise ValueError("dim >= 1, negatives >= 1, epochs >= 0, "
                             "batch_size >= 1, l2 >= 0 required")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        if self.transe_norm not in (1, 2):
            raise ValueError("transe_norm must be 1 or 2")


class EmbeddingModel:
    """Parameter tensors for one family plus the uniform scoring contract.

    ``entity`` is (N_e, d) float64, or complex128 for ComplEx/RotatE.
    ``relation`` is (N_r, d): float64 for TransE/DistMult, complex128 for
    ComplEx, and real phases in [-pi, pi) for RotatE.
    """

    def __init__(self, family: str, entity: np.ndarray, relation: np.ndarray,
                 margin: float = 1.0, seed: int = 0, transe_norm: int = 1):
        if family not in FAMILIES:
            raise ValueError(f"unknown family: {family!r}")
        self.family = family
        self.entity = entity
        self.relation = relation
        self.margin = float(margin)
        self.seed = int(seed)
        self.transe_norm = int(transe_norm)

    @property
    def dim(self) -> int:
        return self.entity.shape[1]

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[0]

    # -- scoring ---------------------------------------------------------

    def score(self, h: int, r: int, t: int) -> float:
        return float(_forward(self, self.entity[h], self.relation[r],
                              self.entity[t])[0])

    def score_tails(self, h: int, r: int,
                    tails: np.ndarray | None = None) -> np.ndarray:
        """Score of (h, r, t') for every t' in ``tails``, or every entity."""
        eh, er = self.entity[h], self.relation[r]
        return self._score_blocks(lambda et: _forward(self, eh, er, et)[0],
                                  tails)

    def score_heads(self, r: int, t: int,
                    heads: np.ndarray | None = None) -> np.ndarray:
        """Score of (h', r, t) for every h' in ``heads``, or every entity."""
        er, et = self.relation[r], self.entity[t]
        return self._score_blocks(lambda eh: _forward(self, eh, er, et)[0],
                                  heads)

    def _score_blocks(self, score, rows) -> np.ndarray:
        """``score`` over the entity rows ``rows`` (all when None), one block
        of ``SCORE_BLOCK`` rows at a time; all entities are scored through
        views of ``entity``, so no row is copied."""
        n = self.n_entities if rows is None else len(rows)
        out = np.empty(n)
        for s in range(0, n, SCORE_BLOCK):
            e = min(s + SCORE_BLOCK, n)
            out[s:e] = score(self.entity[s:e] if rows is None
                             else self.entity[rows[s:e]])
        return out

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the checkpoint: magic, JSON header, little-endian float64 blocks."""
        header = {
            "family": self.family, "dim": self.dim, "margin": self.margin,
            "n_entities": self.n_entities, "n_relations": self.n_relations,
            "seed": self.seed, "transe_norm": self.transe_norm,
            "entity_complex": bool(np.iscomplexobj(self.entity)),
            "relation_complex": bool(np.iscomplexobj(self.relation)),
        }
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        with written_beside(path) as tmp, open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            for block in (_param_blocks(self.entity)
                          + _param_blocks(self.relation)):
                # a real table goes out from its own buffer; a complex
                # table's strided part costs one part-sized copy
                fh.write(np.ascontiguousarray(block, dtype="<f8").data)

    @classmethod
    def load(cls, path) -> "EmbeddingModel":
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"not a fichad checkpoint: {path}")

            def expect(got, n):
                # a save interrupted mid-write leaves a short file
                if got != n:
                    raise ValueError(f"truncated checkpoint: {path}")

            def read(n):
                # fh.read stops at the end of the file, so a corrupt header
                # length touches no more memory than the file holds
                raw = fh.read(n)
                expect(len(raw), n)
                return raw

            def fill(arr):
                expect(fh.readinto(arr.data), arr.nbytes)
                return arr

            (hlen,) = struct.unpack("<I", read(4))
            header = _header(read(hlen), path)
            ne, nr, d = header["n_entities"], header["n_relations"], header["dim"]

            def read_table(rows, complex_):
                # each part is read straight into an array; a complex table
                # fills its real and then its imaginary part through one
                # part-sized buffer, so every stored bit comes back
                part = np.empty((rows, d), dtype="<f8")
                fill(part)
                if not complex_:
                    return part.astype(np.float64, copy=False)
                out = np.empty((rows, d), dtype=np.complex128)
                out.real = part
                out.imag = fill(part)
                return out

            entity = read_table(ne, header["entity_complex"])
            relation = read_table(nr, header["relation_complex"])
        return cls(header["family"], entity, relation, margin=header["margin"],
                   seed=header["seed"], transe_norm=header["transe_norm"])


def _header(raw: bytes, path) -> dict:
    """The checkpoint's JSON header, checked to hold every key ``load`` reads."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint header is not a JSON object: {path}")
    missing = sorted(set(_HEADER_KEYS) - header.keys())
    if missing:
        raise ValueError(
            f"checkpoint header lacks {', '.join(missing)}: {path}")
    return header


def _param_blocks(arr: np.ndarray) -> list[np.ndarray]:
    if np.iscomplexobj(arr):
        return [np.real(arr), np.imag(arr)]
    return [arr]


def init_model(family: str, n_entities: int, n_relations: int, dim: int,
               margin: float = 1.0, seed: int = 0,
               transe_norm: int = 1) -> EmbeddingModel:
    """Seeded uniform(-6/sqrt(d), 6/sqrt(d)) init; RotatE phases uniform(-pi, pi)."""
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    def table(rows):
        if family in ("transe", "distmult"):
            return rng.uniform(-bound, bound, size=(rows, dim))
        # filled in place, one part-sized draw at a time; all real parts are
        # drawn before all imaginary parts, which fixes a seed's tables
        out = np.empty((rows, dim), dtype=np.complex128)
        out.real = rng.uniform(-bound, bound, size=(rows, dim))
        out.imag = rng.uniform(-bound, bound, size=(rows, dim))
        return out

    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    entity = table(n_entities)
    relation = (rng.uniform(-np.pi, np.pi, size=(n_relations, dim))
                if family == "rotate" else table(n_relations))
    return EmbeddingModel(family, entity, relation, margin=margin, seed=seed,
                          transe_norm=transe_norm)


# -- the forward pass ----------------------------------------------------

def _forward(model: EmbeddingModel, eh, er, et):
    """(scores, gradients) of ``model``'s family on the rows ``eh``, ``er``,
    ``et``, which broadcast over a leading candidate axis. ``gradients()``
    derives (d_score/d_eh, d_score/d_er, d_score/d_et) from the same
    intermediates; scoring alone never calls it. The TransE L1 subgradient
    at 0 is 0 per coordinate, and a zero distance has a zero gradient."""
    if model.family == "transe":
        d = eh + er - et
        if model.transe_norm == 1:
            return -np.sum(np.abs(d), axis=-1), lambda: _tied(-np.sign(d))
        norm = np.sqrt(np.sum(d * d, axis=-1))
        return -norm, lambda: _tied(-_unit(d, norm))
    if model.family == "distmult":
        return (np.sum(eh * er * et, axis=-1),
                lambda: (er * et, eh * et, eh * er))
    if model.family == "complex":
        return (np.real(np.sum(eh * er * np.conj(et), axis=-1)),
                lambda: (np.conj(er) * et, np.conj(eh) * et, eh * er))
    # rotate: relation holds phases
    rot = np.exp(1j * er)
    eh_rot = eh * rot
    d = eh_rot - et
    norm = np.sqrt(np.sum(np.abs(d) ** 2, axis=-1))

    def gradients():
        gt = _unit(d, norm)
        return -np.conj(rot) * gt, np.imag(np.conj(gt) * eh_rot), gt
    return model.margin - norm, gradients


def _tied(g: np.ndarray):
    """TransE's gradients: ``g`` for head and relation, -g for the tail."""
    return g, g, -g


def _unit(d: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """``d / norm`` row by row, and 0 in rows whose norm is 0."""
    return np.divide(d, norm[..., None], out=np.zeros_like(d),
                     where=norm[..., None] > 0)


def loss_gradients(model: EmbeddingModel, pos: np.ndarray, neg: np.ndarray,
                   config: TrainConfig):
    """(loss, d_eh, d_er, d_et) of one batch: the batch loss and its gradient.

    ``pos`` holds B (head, relation, tail) rows and ``neg`` their
    corruptions, laid out as :func:`negative_sample` returns them. Gradient
    row i belongs to row i of ``np.concatenate((pos, neg))``; summed over the
    rows that share an embedding row, they give the gradient of ``loss``.
    Training updates through these gradients, and the finite-difference tests
    differentiate this loss.

    Margin-ranking sums the pair hinges max(0, margin - s(pos) + s(neg)) of
    each positive with each of its negatives. Logistic sums softplus(-y*s),
    y = +1 for positives and -1 for negatives, plus L2 on each triple's three
    embedding rows (RotatE phases excluded from L2: they are angles,
    shrinking them toward 0 is meaningless).
    """
    b = len(pos)
    rows = np.concatenate((pos, neg))
    eh, er, et = (model.entity[rows[:, 0]], model.relation[rows[:, 1]],
                  model.entity[rows[:, 2]])
    s, gradients = _forward(model, eh, er, et)
    gh, gr, gt = gradients()
    if config.loss == "margin":
        hinge = config.margin - np.repeat(s[:b], len(neg) // b) + s[b:]
        active = hinge > 0
        loss = float(np.sum(hinge[active]))
        # d loss/d s: -1 per active pair of a positive, +1 per active negative
        coef = np.concatenate((-active.reshape(b, -1).sum(axis=1), active))
    else:
        y = np.where(np.arange(len(rows)) < b, 1.0, -1.0)
        loss = float(np.sum(np.logaddexp(0.0, -y * s)))
        # d/ds softplus(-y*s) = -y * sigmoid(-y*s)
        coef = -y / (1.0 + np.exp(y * s))
    coef = coef[:, None]
    dh, dr, dt = coef * gh, coef * gr, coef * gt
    if config.loss == "logistic" and config.l2 > 0:
        sq = np.sum(np.abs(eh) ** 2) + np.sum(np.abs(et) ** 2)
        dh = dh + 2.0 * config.l2 * eh
        dt = dt + 2.0 * config.l2 * et
        if model.family != "rotate":
            sq += np.sum(np.abs(er) ** 2)
            dr = dr + 2.0 * config.l2 * er
        loss += config.l2 * float(sq)
    return loss, dh, dr, dt


# -- negative sampling and training --------------------------------------

def negative_sample(positives: np.ndarray, graph: KnowledgeGraph,
                    rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` corruptions of each (head, relation, tail) row of ``positives``.

    Returns (k·n, 3) rows; the corruptions of row i are rows [i·n, (i+1)·n).
    Each replaces the head or the tail (fair coin) with a uniform entity.
    Corruptions colliding with the train split redraw their entity, keeping
    their coin, all in one draw per round; after 100 rounds a corruption is
    accepted anyway (tiny pathological graphs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    negs = np.repeat(positives, n, axis=0)
    column = np.where(rng.random(len(negs)) < 0.5, 0, 2)
    todo = np.arange(len(negs))
    for _round in range(100):
        negs[todo, column[todo]] = rng.integers(graph.n_entities,
                                                size=len(todo))
        todo = todo[graph.in_train_rows(negs[todo])]
        if not len(todo):
            break
    return negs


def train(config: TrainConfig, graph: KnowledgeGraph,
          log=None) -> EmbeddingModel:
    """Minibatch SGD training loop; returns the final model.

    Per-epoch mean loss (per negative) is passed to ``log`` (a callable
    taking epoch, loss) when given. NaN/Inf in the parameters aborts with the
    offending step named.
    """
    config.validate()
    positives = graph.splits["train"]
    if not len(positives):
        raise TrainingError("train split is empty")

    model = init_model(config.family, graph.n_entities, graph.n_relations,
                       config.dim, margin=config.margin, seed=config.seed,
                       transe_norm=config.transe_norm)
    rng = np.random.default_rng(config.seed + 1)

    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(positives))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            pos = positives[order[start:start + config.batch_size]]
            neg = negative_sample(pos, graph, rng, config.negatives)
            loss, finite = _sgd_step(model, pos, neg, config)
            epoch_loss += loss
            step += 1
            if not finite:
                raise TrainingError(
                    f"non-finite parameters after step {step} (epoch {epoch})")
        if model.family == "rotate":
            # keep phases in [-pi, pi)
            model.relation = np.mod(model.relation + np.pi, 2 * np.pi) - np.pi
        if log is not None:
            log(epoch, epoch_loss / (len(positives) * config.negatives))
    return model


def _sgd_step(model: EmbeddingModel, pos: np.ndarray, neg: np.ndarray,
              config: TrainConfig) -> tuple[float, bool]:
    """One update from the positives ``pos`` and their negatives ``neg``.

    The gradient of the batch loss (:func:`loss_gradients`) is summed over
    the batch, not averaged, and applied with ``np.add.at``. Returns the
    batch loss and whether every parameter row the update touched is still
    finite (no other row changed).
    """
    rows = np.concatenate((pos, neg))
    loss, dh, dr, dt = loss_gradients(model, pos, neg, config)
    d = model.dim
    blocks = ((model.entity, rows[:, 0], dh), (model.entity, rows[:, 2], dt),
              (model.relation, rows[:, 1], dr))
    for table, index, grad in blocks:
        # flat: with a one-dimensional table view (the tables are
        # C-contiguous), index and values, np.add.at takes numpy's fast path
        # (numpy >= 1.25); row indices into the 2-D table are ~3x slower
        flat = (index[:, None] * d + np.arange(d)).ravel()
        np.add.at(table.reshape(-1), flat, (-config.lr * grad).ravel())
    return loss, all(bool(np.isfinite(table[index]).all())
                     for table, index, _ in blocks)
