"""Structural KG embedding baselines: TransE, DistMult, ComplEx, RotatE.

All four families share one convention: higher score = more plausible triple
(TransE/RotatE return negated distances). Training is per-triple SGD: each
shuffled positive and its ``n`` corrupted negatives update the parameters at
once (margin-ranking or logistic loss); ``batch_size`` only sets how often
NaN/Inf is checked. Everything is float64 and deterministic under a seed.

Gradients for the complex-valued families are stored in the "encoded" form
``d/dRe + i * d/dIm``, so a plain ``param -= lr * grad`` update moves real and
imaginary parts independently, as finite differences expect.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, Triple

FAMILIES = ("transe", "distmult", "complex", "rotate")
LOSSES = ("margin", "logistic")

_MAGIC = b"FKGE0001"
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
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")
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
        return float(self._score_vec(self.entity[h], self.relation[r],
                                     self.entity[t]))

    def score_tails(self, h: int, r: int,
                    tails: np.ndarray | None = None) -> np.ndarray:
        """Score of (h, r, t') for every t' in ``tails``, or every entity."""
        eh, er = self.entity[h], self.relation[r]
        return self._score_blocks(lambda et: self._score_vec(eh, er, et),
                                  tails)

    def score_heads(self, r: int, t: int,
                    heads: np.ndarray | None = None) -> np.ndarray:
        """Score of (h', r, t) for every h' in ``heads``, or every entity."""
        er, et = self.relation[r], self.entity[t]
        return self._score_blocks(lambda eh: self._score_vec(eh, er, et),
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

    def _score_vec(self, eh, er, et):
        # all arguments broadcast over a leading candidate axis
        if self.family == "transe":
            d = eh + er - et
            if self.transe_norm == 1:
                return -np.sum(np.abs(d), axis=-1)
            return -np.sqrt(np.sum(d * d, axis=-1))
        if self.family == "distmult":
            return np.sum(eh * er * et, axis=-1)
        if self.family == "complex":
            return np.real(np.sum(eh * er * np.conj(et), axis=-1))
        # rotate: relation holds phases
        d = eh * np.exp(1j * er) - et
        return self.margin - np.sqrt(np.sum(np.abs(d) ** 2, axis=-1))

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
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            for block in _param_blocks(self.entity) + _param_blocks(self.relation):
                fh.write(block.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "EmbeddingModel":
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"not a fichad checkpoint: {path}")

            def read(n):
                # a save interrupted mid-write leaves a short file
                raw = fh.read(n)
                if len(raw) != n:
                    raise ValueError(f"truncated checkpoint: {path}")
                return raw

            (hlen,) = struct.unpack("<I", read(4))
            header = json.loads(read(hlen).decode("utf-8"))
            ne, nr, d = header["n_entities"], header["n_relations"], header["dim"]

            def read_matrix(rows, complex_):
                n = rows * d
                re = np.frombuffer(read(8 * n), dtype="<f8").reshape(rows, d)
                if not complex_:
                    return re.astype(np.float64)
                im = np.frombuffer(read(8 * n), dtype="<f8").reshape(rows, d)
                return re + 1j * im

            entity = read_matrix(ne, header["entity_complex"])
            relation = read_matrix(nr, header["relation_complex"])
        return cls(header["family"], entity, relation, margin=header["margin"],
                   seed=header["seed"], transe_norm=header["transe_norm"])


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

    def uniform(shape):
        return rng.uniform(-bound, bound, size=shape)

    if family in ("transe", "distmult"):
        entity = uniform((n_entities, dim))
        relation = uniform((n_relations, dim))
    elif family == "complex":
        entity = uniform((n_entities, dim)) + 1j * uniform((n_entities, dim))
        relation = uniform((n_relations, dim)) + 1j * uniform((n_relations, dim))
    elif family == "rotate":
        entity = uniform((n_entities, dim)) + 1j * uniform((n_entities, dim))
        relation = rng.uniform(-np.pi, np.pi, size=(n_relations, dim))
    else:
        raise ValueError(f"unknown family: {family!r}")
    return EmbeddingModel(family, entity, relation, margin=margin, seed=seed,
                          transe_norm=transe_norm)


# -- gradients -----------------------------------------------------------

def score_gradients(model: EmbeddingModel, triple: Triple):
    """(score, d_score/d_eh, d_score/d_er, d_score/d_et) for one triple.

    Complex gradients use the encoded d/dRe + i*d/dIm form; the TransE L1
    subgradient at 0 is 0 per coordinate.
    """
    eh = model.entity[triple.head]
    er = model.relation[triple.relation]
    et = model.entity[triple.tail]

    if model.family == "transe":
        d = eh + er - et
        if model.transe_norm == 1:
            s = -np.sum(np.abs(d))
            g = -np.sign(d)
        else:
            norm = np.sqrt(np.sum(d * d))
            s = -norm
            g = -d / norm if norm > 0 else np.zeros_like(d)
        return s, g, g.copy(), -g

    if model.family == "distmult":
        s = np.sum(eh * er * et)
        return s, er * et, eh * et, eh * er

    if model.family == "complex":
        s = np.real(np.sum(eh * er * np.conj(et)))
        return s, np.conj(er) * et, np.conj(eh) * et, eh * er

    # rotate
    rot = np.exp(1j * er)
    d = eh * rot - et
    norm = np.sqrt(np.sum(np.abs(d) ** 2))
    s = model.margin - norm
    if norm == 0:
        zc = np.zeros_like(d)
        return s, zc, np.zeros_like(er), zc.copy()
    gh = -np.conj(rot) * d / norm
    gt = d / norm
    gr = np.imag(np.conj(d) * eh * rot) / norm
    return s, gh, gr, gt


def loss_gradients(model: EmbeddingModel, triple: Triple, positive: bool,
                   config: TrainConfig):
    """(loss, d_eh, d_er, d_et) of one triple's loss term.

    Training updates through these gradients, and the finite-difference tests
    differentiate this loss. Margin-ranking contributes the linear term -s
    (positive) or +s (negative); the hinge is applied pairwise in
    :func:`_sgd_step`. Logistic is softplus(-y*s) plus L2 on the three
    embedding rows (RotatE phases excluded from L2: they are angles, shrinking
    them toward 0 is meaningless).
    """
    s, gh, gr, gt = score_gradients(model, triple)
    if config.loss == "margin":
        return (-s, -gh, -gr, -gt) if positive else (s, gh, gr, gt)
    y = 1.0 if positive else -1.0
    loss = float(np.logaddexp(0.0, -y * s))
    # d/ds softplus(-y*s) = -y * sigmoid(-y*s)
    coef = -y / (1.0 + np.exp(y * s))
    dh, dr, dt = coef * gh, coef * gr, coef * gt
    if config.l2 > 0:
        eh, et = model.entity[triple.head], model.entity[triple.tail]
        sq = np.sum(np.abs(eh) ** 2) + np.sum(np.abs(et) ** 2)
        dh = dh + 2.0 * config.l2 * eh
        dt = dt + 2.0 * config.l2 * et
        if model.family != "rotate":
            er = model.relation[triple.relation]
            sq += np.sum(np.abs(er) ** 2)
            dr = dr + 2.0 * config.l2 * er
        loss += config.l2 * float(sq)
    return loss, dh, dr, dt


# -- negative sampling and training --------------------------------------

def negative_sample(triple: Triple, graph: KnowledgeGraph,
                    rng: np.random.Generator, n: int) -> list[Triple]:
    """``n`` corruptions of ``triple``: fair-coin head/tail, uniform entity.

    Corruptions colliding with the train split are resampled; after 100
    attempts the corruption is accepted anyway (tiny pathological graphs).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    n_ent = graph.n_entities
    for _ in range(n):
        corrupt_head = rng.random() < 0.5
        for _attempt in range(100):
            e = int(rng.integers(n_ent))
            cand = (Triple(e, triple.relation, triple.tail) if corrupt_head
                    else Triple(triple.head, triple.relation, e))
            if not graph.contains(cand, split="train"):
                break
        out.append(cand)
    return out


def train(config: TrainConfig, graph: KnowledgeGraph,
          log=None) -> EmbeddingModel:
    """SGD training loop; returns the final model.

    Per-epoch mean loss is passed to ``log`` (a callable taking epoch, loss)
    when given. NaN/Inf in the parameters aborts with the offending step named.
    """
    config.validate()
    if not graph.splits["train"]:
        raise TrainingError("train split is empty")

    model = init_model(config.family, graph.n_entities, graph.n_relations,
                       config.dim, margin=config.margin, seed=config.seed,
                       transe_norm=config.transe_norm)
    rng = np.random.default_rng(config.seed + 1)
    positives = list(graph.splits["train"])

    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(positives))
        epoch_loss = 0.0
        n_terms = 0
        for start in range(0, len(order), config.batch_size):
            batch = [positives[i] for i in order[start:start + config.batch_size]]
            for pos in batch:
                negs = negative_sample(pos, graph, rng, config.negatives)
                epoch_loss += _sgd_step(model, pos, negs, config)
                n_terms += len(negs)
            step += 1
            if not (np.all(np.isfinite(_real_view(model.entity)))
                    and np.all(np.isfinite(_real_view(model.relation)))):
                raise TrainingError(
                    f"non-finite parameters after step {step} (epoch {epoch})")
        if model.family == "rotate":
            # keep phases in [-pi, pi)
            model.relation = np.mod(model.relation + np.pi, 2 * np.pi) - np.pi
        if log is not None:
            log(epoch, epoch_loss / max(n_terms, 1))
    return model


def _real_view(arr: np.ndarray) -> np.ndarray:
    return arr.view(np.float64) if np.iscomplexobj(arr) else arr


def _sgd_step(model: EmbeddingModel, pos: Triple, negs: list[Triple],
              config: TrainConfig) -> float:
    """One positive with its negatives; returns the summed losses (for margin,
    the summed pair hinges)."""
    total = 0.0
    if config.loss == "logistic":
        for triple, positive in [(pos, True)] + [(n, False) for n in negs]:
            loss, *grads = loss_gradients(model, triple, positive, config)
            total += loss
            _descend(model, triple, config.lr, *grads)
        return total
    loss_pos, *grads_pos = loss_gradients(model, pos, True, config)
    for neg in negs:
        loss_neg, *grads_neg = loss_gradients(model, neg, False, config)
        hinge = config.margin + loss_pos + loss_neg
        if hinge <= 0:
            continue
        total += hinge
        _descend(model, pos, config.lr, *grads_pos)
        _descend(model, neg, config.lr, *grads_neg)
    return total


def _descend(model: EmbeddingModel, triple: Triple, lr: float,
             dh, dr, dt) -> None:
    model.entity[triple.head] -= lr * dh
    model.relation[triple.relation] -= lr * dr
    model.entity[triple.tail] -= lr * dt
