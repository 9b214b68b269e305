"""Knowledge graph data model and benchmark file loaders.

Entities and relations are interned to dense 0-based handles in first-appearance
order, so loading the same files always produces the same handle assignment.
Triple files are UTF-8 TSV (``head<TAB>relation<TAB>tail``); image manifests,
description files and display-name tables are two-column TSV keyed by entity
label. Every file is read through ``_rows``, so a line with the wrong number of
fields is a :class:`ParseError` in all of them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import snapshot

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
      ``[(h·R + r)·E, (h·R + r + 1)·E)``, found by binary search and
      returned as sorted int64 handles;
    - ``neighbors``: the incident edges of the union sorted by (entity,
      relation, neighbor, out before in), with per-entity offsets;
    - ``triples_with_relation``: the train rows sorted by (relation, head,
      tail), with per-relation offsets.

    ``neighbors`` answers with a list of plain Python values, the others with
    arrays; ``triples_with_relation`` with a read-only view of sorted rows.
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

    def _answers(self, keys, entity: int, relation: int) -> np.ndarray:
        if not (0 <= entity < self._n_ent and 0 <= relation < self._n_rel):
            return keys[:0]
        base = self._key(entity, relation, 0)
        lo, hi = keys.searchsorted((base, base + self._n_ent)).tolist()
        return keys[lo:hi] - base

    def known_tails(self, head: int, relation: int) -> np.ndarray:
        return self._answers(self._hrt, head, relation)

    def known_heads(self, tail: int, relation: int) -> np.ndarray:
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
    skipped_description_lines: int = 0

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
    """Load ``entity<TAB>description`` text; duplicate entities are last-wins.

    Lines naming entities outside the vocabulary are skipped and counted.
    """
    for label, text in _rows(path, 2):
        if label not in entities:
            assets.skipped_description_lines += 1
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
    """A loaded benchmark: graph, config id, and assets read on first use.

    ``skipped_name_lines`` counts the ``names.tsv`` lines naming no entity.
    ``snapshot`` is the :class:`Snapshot` beside the config.
    """

    dataset_id: str
    graph: KnowledgeGraph
    image_cap: int
    images: Path | None = None
    descriptions: Path | None = None
    skipped_name_lines: int = 0
    snapshot: Snapshot | None = field(default=None, repr=False)

    @cached_property
    def assets(self) -> MultimodalAssets:
        """The image manifest and the descriptions, read on first access:
        from the snapshot when it matches them, else parsed."""
        if self.snapshot is not None:
            assets = self.snapshot.assets(self.graph.entities,
                                          self.image_cap)
            if assets is not None:
                return assets
        entities = self.graph.entities
        assets = (load_image_manifest(self.images, entities, self.image_cap)
                  if self.images else MultimodalAssets(image_cap=self.image_cap))
        if self.descriptions:
            load_descriptions(self.descriptions, entities, assets)
        return assets

    def write_snapshot(self) -> None:
        """Write the snapshot of a dataset :func:`load_dataset` returned
        beside its config, unless both sections were read from it; one
        stderr line when it cannot be written."""
        assets = self.assets
        if self.snapshot.served != _SOURCES.keys():
            self.snapshot.write(self.graph, assets, self.skipped_name_lines)


#: each snapshot section: the config keys of the files it is built from
_SOURCES = {"graph": (*SPLITS, "names"), "assets": ("images", "descriptions")}
_LAYOUT = snapshot.Layout("dataset", {
    "graph": ({"sources": str, "skipped_name_lines": int},
              {**dict.fromkeys(SPLITS, "(3,)<i8"), "entities": snapshot.TEXT,
               "relations": snapshot.TEXT, "names": snapshot.TEXT}),
    "assets": ({"sources": str, "skipped_image_lines": int,
                "duplicate_description_lines": int,
                "skipped_description_lines": int},
               {"image_counts": "<i8", "described": "<i8",
                "images": snapshot.TEXT, "descriptions": snapshot.TEXT}),
})


class Snapshot:
    """What parsing a dataset gives, kept beside its config as
    ``<config>.idx`` so that a load need not parse the TSV files again; a
    snapshot in the format of :mod:`fichad.snapshot`.

    The graph section holds the train, valid and test rows, the entity
    labels and the relation labels in handle order, and each entity's
    display name ("" for none). The assets section holds each entity's image
    count and number of descriptions (0 or 1), the capped image refs, and
    the descriptions. Each section's fields are its counters and the sha256
    of its sources: the config bytes, then each file the section is built
    from, as its config key, length and bytes. A section is used only when
    the format's checks pass and its sources still hash to that digest;
    otherwise the caller parses. The assets section holds handles of the
    graph section's vocabulary, so it is used only when the graph section
    was. The sources are hashed before a section is read or parsed, so a
    snapshot written from a load describes the bytes that load saw. No path
    is stored: a dataset directory keeps its snapshot when it moves.
    """

    def __init__(self, config_path: Path, config: bytes,
                 files: dict[str, Path]):
        self.path = config_path.with_name(config_path.name + ".idx")
        self._config, self._files = config, files
        #: the sha256 of each loaded section's sources
        self.sources: dict[str, str | None] = {}
        #: the sections read from the snapshot rather than parsed
        self.served: set[str] = set()
        self._sections = _LAYOUT.read(self.path) or {}

    def _load(self, name: str, build, usable: bool = True):
        """``build(fields, *tables)`` over section ``name`` when it is
        ``usable`` and it and its sources check out, else None. The sources'
        digest is kept for :meth:`write` either way."""
        sources = self.sources[name] = _sources_digest(
            self._config, self._files, _SOURCES[name])
        section = self._sections.get(name)
        if not usable or section is None or section.fields["sources"] != sources:
            return None
        value = section.read(build)
        if value is not None:
            self.served.add(name)
        return value

    def graph(self):
        """(entities, relations, splits, skipped name lines) from the graph
        section, or None when the caller must parse."""
        return self._load("graph", _read_graph)

    def assets(self, entities: Vocab, cap: int) -> MultimodalAssets | None:
        """The assets section over the graph section's ``entities``, or None
        when the caller must parse."""
        return self._load("assets", lambda *tables: _read_assets(
            entities, cap, *tables), usable="graph" in self.served)

    def write(self, graph: KnowledgeGraph, assets: MultimodalAssets,
              skipped_name_lines: int) -> None:
        """Write the snapshot of these parse results. Both sections must
        have been loaded, so their sources are hashed."""
        entities = graph.entities
        handles = range(len(entities))
        refs = [assets.images.get(handle, ()) for handle in handles]
        described = [handle in assets.descriptions for handle in handles]
        _LAYOUT.write(self.path, {
            "graph": (
                {"sources": self.sources["graph"],
                 "skipped_name_lines": skipped_name_lines},
                {**graph.splits, "entities": entities.labels,
                 "relations": graph.relations.labels,
                 "names": (entities._display.get(handle, "")
                           for handle in handles)}),
            "assets": (
                {"sources": self.sources["assets"],
                 "skipped_image_lines": assets.skipped_image_lines,
                 "duplicate_description_lines":
                     assets.duplicate_description_lines,
                 "skipped_description_lines":
                     assets.skipped_description_lines},
                {"image_counts": list(map(len, refs)), "described": described,
                 "images": chain.from_iterable(refs),
                 "descriptions": map(assets.descriptions.get,
                                     compress(handles, described))}),
        })


def _sources_digest(config: bytes, files: dict[str, Path],
                    keys) -> str | None:
    """The sha256 of the config bytes and, for each of ``keys`` the config
    names a file for, the key, the file's length and its bytes; None when a
    file cannot be read, or changes length while it is read."""
    digest = hashlib.sha256(b"%d\n" % len(config) + config)
    try:
        for key in keys:
            if key not in files:
                continue
            with open(files[key], "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                digest.update(b"\n%s %d\n" % (key.encode(), size))
                if not snapshot.hash_next(fh, size, digest) or fh.read(1):
                    return None
    except OSError:
        return None
    return digest.hexdigest()


def _read_graph(fields: dict, train, valid, test, labels, relation_labels,
                names):
    entities, relations = Vocab(), Vocab()
    for label in labels:
        entities.intern(label)
    for label in relation_labels:
        relations.intern(label)
    # the vocabulary's own handle objects, as a parse keys its names by
    for handle, name in zip(entities._index.values(), names, strict=True):
        if name:
            entities.set_display_name(handle, name)
    return (entities, relations, dict(zip(SPLITS, (train, valid, test))),
            fields["skipped_name_lines"])


def _read_assets(entities: Vocab, cap: int, fields: dict, counts, described,
                 refs, texts) -> MultimodalAssets:
    handles = entities._index.values()
    return MultimodalAssets(
        image_cap=cap,
        images={handle: list(islice(refs, n))
                for handle, n in zip(handles, counts.tolist(), strict=True)
                if n},
        descriptions=dict(zip(compress(handles, described.tolist()), texts,
                              strict=True)),
        skipped_image_lines=fields["skipped_image_lines"],
        duplicate_description_lines=fields["duplicate_description_lines"],
        skipped_description_lines=fields["skipped_description_lines"])


def load_dataset(config_path) -> Dataset:
    """Load a benchmark from a ``dataset.json`` config.

    The config names the data files (paths relative to the config), the
    per-entity image cap, and a dataset id::

        {"id": "fb15k-237-img", "train": "train.tsv", "valid": "valid.tsv",
         "test": "test.tsv", "images": "images.tsv",
         "descriptions": "descriptions.tsv", "image_cap": 10}

    Each file entry is a string; ``images``, ``descriptions`` and ``names``
    may also be null, absent or "". The image manifest and the descriptions
    are read on the first read of ``Dataset.assets``; here they only have to
    exist.

    ``fichad ingest`` writes a :class:`Snapshot` of the parse results beside
    the config, ``<config>.idx``. A load reads the graph (triples and names)
    from it when the config and those files hash to what the snapshot
    recorded, and ``Dataset.assets`` reads the assets likewise; each section
    is otherwise parsed, so a stale or damaged snapshot changes nothing but
    the time taken, and the snapshot is safe to delete. Only
    :meth:`Dataset.write_snapshot` writes it, which ``ingest`` calls; a load
    never does, and in a read-only directory ``ingest`` reports the failed
    write and goes on. ``ingest`` still checks the whole dataset: it hashes
    every byte of every file and matches the digests a full parse of those
    bytes recorded. Every file the config names is ``stat``-ed on every load.
    """
    config_path = Path(config_path)
    with open(config_path, "rb") as fh:
        config = fh.read()
    cfg = json.loads(config.decode("utf-8"))
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

    snap = Snapshot(config_path, config, files)
    # a config that lacks a split or has a bad cap never matches a snapshot,
    # which only a successful load writes
    loaded = snap.graph()
    if loaded is None:
        entities, relations = Vocab(), Vocab()
        splits, skipped_names = {}, 0
        for split in SPLITS:
            if split not in files:
                raise DatasetError(f"{config_path}: {split} file missing")
            splits[split] = load_triples(files[split], entities, relations)
    else:
        entities, relations, splits, skipped_names = loaded

    cap = cfg.get("image_cap", 10)
    # bool is an int subclass; a float or string cap is a config mistake
    if type(cap) is not int or cap < 1:
        raise DatasetError(f"{config_path}: image_cap must be an integer "
                           f">= 1, got {cap!r}")
    for path in files.values():
        path.stat()  # a missing file fails every subcommand, not only some
    if loaded is None and "names" in files:
        # optional entity<TAB>display-name table; an empty name keeps the label
        for label, name in _rows(files["names"], 2):
            if label not in entities:
                skipped_names += 1
            elif name:
                entities.set_display_name(entities.id_of(label), name)

    graph = KnowledgeGraph(entities, relations, splits)
    return Dataset(dataset_id=str(cfg.get("id", config_path.stem)),
                   graph=graph, image_cap=cap, images=files.get("images"),
                   descriptions=files.get("descriptions"),
                   skipped_name_lines=skipped_names, snapshot=snap)
