"""Knowledge graph data model and benchmark file loaders.

Entities and relations are interned to dense 0-based handles in first-appearance
order, so loading the same files always produces the same handle assignment.
Triple files are UTF-8 TSV (``head<TAB>relation<TAB>tail``); image manifests,
description files and display-name tables are two-column TSV keyed by entity
label. Every file is read through ``_rows``, so a line with the wrong number of
fields is a :class:`ParseError` in all of them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

SPLITS = ("train", "valid", "test")

#: neighbor edge directions; outgoing sorts before incoming
OUT, IN = "out", "in"
_DIRECTIONS = (OUT, IN)


class DatasetError(Exception):
    """Malformed or inconsistent dataset input."""


class ParseError(DatasetError):
    """A line of a dataset file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class VocabError(DatasetError):
    """A label the vocabulary does not hold."""


class Vocab:
    """Bijective label <-> dense-handle table with optional display names."""

    def __init__(self):
        self.labels: list[str] = []
        self._index: dict[str, int] = {}
        self._display: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def intern(self, label: str) -> int:
        """Return the handle for ``label``, assigning the next one if new."""
        handle = self._index.get(label)
        if handle is None:
            handle = len(self.labels)
            self._index[label] = handle
            self.labels.append(label)
        return handle

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise VocabError(f"unknown label: {label!r}") from None

    def label_of(self, handle: int) -> str:
        return self.labels[handle]

    def set_display_name(self, handle: int, name: str) -> None:
        self._display[handle] = name

    def display_name(self, handle: int) -> str:
        """Human-readable name; falls back to the raw label."""
        return self._display.get(handle, self.labels[handle])


class Triple(NamedTuple):
    """One (head, relation, tail) row of a split, as handles."""

    head: int
    relation: int
    tail: int


def _rows(path, n_fields: int):
    """Fields of each non-blank line of a UTF-8 TSV file.

    A line with any other number of tab-separated fields raises
    :class:`ParseError` naming the file and line.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ParseError(path, line_no,
                                 f"expected {n_fields} tab-separated fields, "
                                 f"got {len(fields)}")
            yield fields


@contextmanager
def written_beside(path):
    """A temporary path beside ``path``, renamed over it if the block succeeds
    and removed if it fails: a failed write leaves the old file, or none."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_triples(path, entities: Vocab, relations: Vocab) -> np.ndarray:
    """Parse a triple TSV into an (n, 3) int64 array of handle rows.

    Unseen labels are interned, head before relation before tail. Rows come
    back in file order with duplicates preserved.
    """
    ent, rel = entities.intern, relations.intern
    return np.fromiter(
        chain.from_iterable((ent(h), rel(r), ent(t)) for h, r, t in _rows(path, 3)),
        dtype=np.int64).reshape(-1, 3)


class KnowledgeGraph:
    """Triples per split plus the query-time indices derived from them.

    ``splits[name]`` is the (n, 3) int64 array of (head, relation, tail)
    rows in file order that the constructor was given (rows of ints, such as
    :class:`Triple` lists, are converted). Every index is built from these
    arrays once; do not modify them. A triple is keyed by the integer
    ``(h·R + r)·E + t`` (R relations, E entities), so sorting keys sorts
    triples by (head, relation, tail):

    - ``in_train_rows``: the sorted unique keys of the train split, searched
      with ``searchsorted``;
    - ``known_tails``/``known_heads``: the sorted unique keys of all splits
      (the filtered-evaluation universe) in (h, r, t) order and again in
      (t, r, h) order; the answers to (h, r) are the key range
      ``[(h·R + r)·E, (h·R + r + 1)·E)``, found by binary search;
    - ``neighbors``: the incident edges of the union sorted by (entity,
      relation, neighbor, out before in), with per-entity offsets;
    - ``triples_with_relation``: the train rows sorted by (relation, head,
      tail), with per-relation offsets.

    ``in_train_rows`` and ``triples_with_relation`` answer with arrays, the
    latter a read-only view of the sorted rows; the other answers are plain
    Python ``int``, ``set`` and ``list`` values.
    A triple whose handles lie outside the vocabularies, or a vocabulary so
    large that ``E²·R`` does not fit in int64, raises :class:`DatasetError`.
    """

    def __init__(self, entities: Vocab, relations: Vocab,
                 splits: dict[str, np.ndarray]):
        self.entities = entities
        self.relations = relations

        n_ent, n_rel = self._n_ent, self._n_rel = len(entities), len(relations)
        if n_ent * n_ent * n_rel > np.iinfo(np.int64).max:
            raise DatasetError(
                f"{n_ent} entities and {n_rel} relations overflow the int64 "
                "triple key")
        self.splits = {name: _checked_rows(splits.get(name, ()), n_ent, n_rel,
                                           name)
                       for name in SPLITS}
        train, *others = (self._key(a[:, 0], a[:, 1], a[:, 2])
                          for a in self.splits.values())

        self._train_keys = _sorted_unique(train)
        self._hrt = _sorted_unique(np.concatenate((self._train_keys, *others)))
        head_rel, tail = np.divmod(self._hrt, n_ent)
        head, rel = np.divmod(head_rel, n_rel)
        self._trh = np.sort(self._key(tail, rel, head))

        # out-edges of the union, then in-edges; the stable sort keeps an
        # out-edge before the in-edge with the same (entity, relation, neighbor)
        entity = np.concatenate((head, tail))
        edges = np.stack((np.concatenate((rel, rel)),
                          np.concatenate((tail, head)),
                          np.repeat(np.array([0, 1]), len(head))), axis=1)
        order = np.argsort(self._key(entity, edges[:, 0], edges[:, 1]),
                           kind="stable")
        self._edges = edges[order]
        self._edge_offsets = _offsets(entity, n_ent)

        a = self.splits["train"]
        order = np.argsort((a[:, 1] * n_ent + a[:, 0]) * n_ent + a[:, 2],
                           kind="stable")
        self._by_relation = a[order]
        self._by_relation.flags.writeable = False
        self._relation_offsets = _offsets(a[:, 1], n_rel).tolist()

    def _key(self, first, relation, last):
        return (first * self._n_rel + relation) * self._n_ent + last

    def _pair_ok(self, entity, relation) -> bool:
        return 0 <= entity < self._n_ent and 0 <= relation < self._n_rel

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def triples(self, split: str) -> Iterator[Triple]:
        """The rows of ``split`` in file order, as :class:`Triple`."""
        return map(Triple._make, self.splits[split].tolist())

    def in_train_rows(self, rows: np.ndarray) -> np.ndarray:
        """Whether the train split holds each (head, relation, tail) row of
        ``rows``, as a bool array; rows with a handle out of range are not
        held."""
        h, r, t = rows[:, 0], rows[:, 1], rows[:, 2]
        ok = ((0 <= h) & (h < self._n_ent) & (0 <= r) & (r < self._n_rel)
              & (0 <= t) & (t < self._n_ent))
        keys = self._train_keys
        if not len(keys):
            return np.zeros(len(rows), dtype=bool)
        # out-of-range rows are keyed as (0, 0, 0) so no key overflows
        key = self._key(h * ok, r * ok, t * ok)
        i = np.minimum(keys.searchsorted(key), len(keys) - 1)
        return ok & (keys[i] == key)

    def _answers(self, keys, entity: int, relation: int) -> set[int]:
        if not self._pair_ok(entity, relation):
            return set()
        base = self._key(entity, relation, 0)
        lo, hi = keys.searchsorted((base, base + self._n_ent)).tolist()
        return set((keys[lo:hi] - base).tolist())

    def known_tails(self, head: int, relation: int) -> set[int]:
        return self._answers(self._hrt, head, relation)

    def known_heads(self, tail: int, relation: int) -> set[int]:
        return self._answers(self._trh, tail, relation)

    def neighbors(self, entity: int, k: int) -> list[tuple[int, int, str]]:
        """First ``k`` incident edges of ``entity`` as (relation, neighbor, direction).

        Edges are sorted by (relation handle, neighbor handle, out-before-in),
        so the selection is deterministic and ``neighbors(e, k)`` is a prefix of
        ``neighbors(e, k+1)``.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if not 0 <= entity < self._n_ent:
            return []
        lo, hi = self._edge_offsets[entity:entity + 2].tolist()
        return [(r, n, _DIRECTIONS[d])
                for r, n, d in self._edges[lo:min(hi, lo + k)].tolist()]

    def triples_with_relation(self, relation: int) -> np.ndarray:
        """The (k, 3) train rows carrying ``relation``, sorted by handles;
        a read-only view, empty for a relation out of range."""
        if not 0 <= relation < self._n_rel:
            return self._by_relation[:0]
        offsets = self._relation_offsets
        return self._by_relation[offsets[relation]:offsets[relation + 1]]


def _checked_rows(rows, n_ent: int, n_rel: int, split: str) -> np.ndarray:
    """``rows`` as an (n, 3) int64 array, each handle checked in range."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    bad = ((rows < 0) | (rows >= (n_ent, n_rel, n_ent))).any(axis=1)
    if bad.any():
        raise DatasetError(
            f"{split} triple {Triple._make(rows[bad.argmax()].tolist())} has a "
            f"handle outside {n_ent} entities / {n_rel} relations")
    return rows


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` imports ``numpy.ma`` on numpy 2)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _offsets(group: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets: rows of group ``g`` lie at ``[off[g], off[g + 1])`` once sorted."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n), out=off[1:])
    return off


@dataclass
class MultimodalAssets:
    """Per-entity image references and human-annotated descriptions.

    Image lists are already truncated to ``image_cap``. ``description`` returns
    ``None`` when an entity has no entry, never the empty string.
    """

    image_cap: int
    images: dict[int, list[str]] = field(default_factory=dict)
    descriptions: dict[int, str] = field(default_factory=dict)
    skipped_image_lines: int = 0
    duplicate_description_lines: int = 0

    def images_of(self, entity: int) -> list[str]:
        return list(self.images.get(entity, ()))

    def description(self, entity: int) -> str | None:
        return self.descriptions.get(entity)

    def entities_with_images(self) -> set[int]:
        return {e for e, refs in self.images.items() if refs}


def load_image_manifest(path, entities: Vocab, cap: int) -> MultimodalAssets:
    """Load an ``entity<TAB>image_ref`` manifest, keeping the first ``cap`` images.

    Lines naming entities outside the vocabulary are skipped and counted
    (benchmark manifests legitimately cover only part of the entity set).
    """
    if cap < 1:
        raise ValueError("image cap must be >= 1")
    assets = MultimodalAssets(image_cap=cap)
    for label, ref in _rows(path, 2):
        if label not in entities:
            assets.skipped_image_lines += 1
            continue
        refs = assets.images.setdefault(entities.id_of(label), [])
        if len(refs) < cap:
            refs.append(ref)
    return assets


def load_descriptions(path, entities: Vocab,
                      assets: MultimodalAssets) -> MultimodalAssets:
    """Load ``entity<TAB>description`` text; duplicate entities are last-wins."""
    for label, text in _rows(path, 2):
        if label not in entities:
            continue
        handle = entities.id_of(label)
        if handle in assets.descriptions:
            assets.duplicate_description_lines += 1
        assets.descriptions[handle] = text
    return assets


def first_sentence(text: str) -> str:
    """Text up to the first ``". "`` or ``".\\n"`` boundary (inclusive of the period)."""
    best = None
    for sep in (". ", ".\n"):
        idx = text.find(sep)
        if idx != -1 and (best is None or idx < best):
            best = idx
    if best is None:
        return text
    return text[:best + 1]


@dataclass
class Dataset:
    """A loaded benchmark: graph, config id, and assets parsed on first use."""

    dataset_id: str
    graph: KnowledgeGraph
    image_cap: int
    images: Path | None = None
    descriptions: Path | None = None

    @cached_property
    def assets(self) -> MultimodalAssets:
        """The image manifest and the descriptions, parsed on first access."""
        entities = self.graph.entities
        assets = (load_image_manifest(self.images, entities, self.image_cap)
                  if self.images else MultimodalAssets(image_cap=self.image_cap))
        if self.descriptions:
            load_descriptions(self.descriptions, entities, assets)
        return assets


def load_dataset(config_path) -> Dataset:
    """Load a benchmark from a ``dataset.json`` config.

    The config names the data files (paths relative to the config), the
    per-entity image cap, and a dataset id::

        {"id": "fb15k-237-img", "train": "train.tsv", "valid": "valid.tsv",
         "test": "test.tsv", "images": "images.tsv",
         "descriptions": "descriptions.tsv", "image_cap": 10}

    Each file entry is a string; ``images``, ``descriptions`` and ``names``
    may also be null, absent or "". The image
    manifest and the descriptions are parsed on the first read of
    ``Dataset.assets``; here they only have to exist.
    """
    config_path = Path(config_path)
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DatasetError(f"{config_path}: dataset config must be a JSON "
                           f"object, got {cfg!r}")
    files = {}  # the path of each file the config names
    for key in (*SPLITS, "images", "descriptions", "names"):
        name = cfg.get(key)
        if not isinstance(name, (str, type(None))):
            raise DatasetError(f"{config_path}: {key} must be a file name "
                               f"or null, got {name!r}")
        if name:
            files[key] = config_path.parent / name

    entities, relations = Vocab(), Vocab()
    splits = {}
    for split in SPLITS:
        if split not in files:
            raise DatasetError(f"{config_path}: {split} file missing")
        splits[split] = load_triples(files.pop(split), entities, relations)

    cap = cfg.get("image_cap", 10)
    # bool is an int subclass; a float or string cap is a config mistake
    if type(cap) is not int or cap < 1:
        raise DatasetError(f"{config_path}: image_cap must be an integer "
                           f">= 1, got {cap!r}")
    for path in files.values():
        path.stat()  # a missing file fails every subcommand, not only some
    if "names" in files:
        # optional entity<TAB>display-name table; an empty name keeps the label
        for label, name in _rows(files.pop("names"), 2):
            if name and label in entities:
                entities.set_display_name(entities.id_of(label), name)

    graph = KnowledgeGraph(entities, relations, splits)
    return Dataset(dataset_id=str(cfg.get("id", config_path.stem)),
                   graph=graph, image_cap=cap, **files)
