"""Output files and verified snapshots.

Every output file reaches the disk through :func:`written_beside`. A
snapshot is a binary file derived from other files and kept beside them, so
that a load need not parse those files again. It is one JSON header line,
then each section's tables in order. The header holds the format
:data:`VERSION` and, under each section's name, its fields, its tables'
byte sizes and ``digest``: the sha256 of the section's other entries, as
``json.dumps`` writes them, then of its tables. An array table is a
little-endian numpy array. A text table holds each text as its
``json.dumps(text, ensure_ascii=False)`` literal on a line of its own, in
UTF-8 with ``surrogatepass``, so newlines, NUL and lone surrogates keep. A
:class:`Layout` names the sections of one kind of snapshot, so one kind is
never read as another.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: format of every snapshot
VERSION = 2
#: bytes read at a time from a snapshot or from what it is built from;
#: below glibc's 128 KB mmap threshold, so no block raises it for the
#: allocations that follow
BLOCK = 1 << 16
#: longest header line read
HEADER_LIMIT = 4096
#: the kind of a text table; any other kind is the dtype of an array table
TEXT = "text"


@contextmanager
def written_beside(path, mode: str = "w"):
    """A file open at ``.<name>.<pid>.tmp`` beside ``path``, as UTF-8 text
    with ``"\\n"`` line ends, or as bytes with ``mode="wb"``. It is renamed
    over ``path`` if the block succeeds and removed if it raises, so a
    failed run leaves the previous file, or none; a killed one may leave it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def hash_next(fh, size: int, digest) -> bool:
    """Hash the next ``size`` bytes of ``fh`` into ``digest``; whether the
    file held that many."""
    for block in _blocks(fh, size, digest):
        size -= len(block)
    return not size


def _blocks(fh, size: int, digest):
    """The next ``size`` bytes of ``fh`` up to its end, each block hashed
    into ``digest`` and yielded in one reused buffer."""
    block = memoryview(bytearray(min(size, BLOCK)))
    while size and (got := fh.readinto(block[:min(size, BLOCK)])):
        digest.update(block[:got])
        size -= got
        yield block[:got]


class Section(NamedTuple):
    """One section of a snapshot whose header checked out."""

    path: Path
    #: the section's header entries: its fields, table sizes and digest
    fields: dict
    #: where its first table starts in the file
    offset: int
    #: the kind of each of its tables, in file order
    tables: dict

    def read(self, build):
        """``build(fields, *tables)``, or None when the tables cannot be read
        or do not match the digest. Array tables come as numpy arrays, text
        tables as iterators of str, which ``build`` reads in file order, each
        to its end. It sees the tables before the digest is checked, so from
        damaged ones it may raise ValueError, and its result is dropped."""
        entries = {key: v for key, v in self.fields.items() if key != "digest"}
        digest = hashlib.sha256(json.dumps(entries).encode("ascii"))
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                # the arrays come first, so each is read where it lies; a
                # text table is read as ``build`` reads it
                tables = [chain.from_iterable(_texts(fh, entries[name], digest))
                          if kind == TEXT
                          else _array(fh, entries[name], np.dtype(kind), digest)
                          for name, kind in self.tables.items()]
                value = build(self.fields, *tables)
                for kind, table in zip(self.tables.values(), tables):
                    if kind == TEXT and next(table, None) is not None:
                        raise ValueError("snapshot texts left unread")
        except (OSError, ValueError, RecursionError):
            return None
        return value if digest.hexdigest() == self.fields["digest"] else None


class Layout(NamedTuple):
    """A kind of snapshot: for each section, its fields with their types
    and its tables with their kinds in file order, array tables first."""

    #: what the snapshot indexes, as a failed write names it
    role: str
    sections: dict[str, tuple[dict[str, type], dict[str, str]]]

    def read(self, path) -> dict[str, Section] | None:
        """Each section of the snapshot at ``path``, or None unless its
        header has exactly this layout's sections and fields, with their
        types and every int non-negative, each array table holds whole
        items, and the sizes add up to the file's."""
        try:
            with open(path, "rb") as fh:
                line = fh.readline(HEADER_LIMIT)
                size = os.fstat(fh.fileno()).st_size
            header = json.loads(line)
        except (OSError, ValueError, RecursionError):
            return None
        if (type(header) is not dict
                or header.keys() != {"version", *self.sections}
                or type(header["version"]) is not int
                or header["version"] != VERSION):
            return None
        found, at = {}, len(line)
        for name, (fields, tables) in self.sections.items():
            got = header[name]
            kinds = {**fields, **dict.fromkeys(tables, int), "digest": str}
            if (type(got) is not dict or got.keys() != kinds.keys()
                    or any(type(got[key]) is not kind
                           or kind is int and got[key] < 0
                           for key, kind in kinds.items())
                    or any(got[table] % np.dtype(kind).itemsize
                           for table, kind in tables.items() if kind != TEXT)):
                return None
            found[name] = Section(Path(path), got, at, tables)
            at += sum(got[table] for table in tables)
        return found if at == size else None

    def write(self, path, sections: dict[str, tuple[dict, dict]]) -> None:
        """Write each section's (fields, tables) to ``path``, renamed into
        place; a table is an array or an iterable of str. An ``OSError``
        costs one stderr line naming the role, and the run goes on."""
        header, data = {"version": VERSION}, []
        for name, (_, kinds) in self.sections.items():
            fields, tables = sections[name]
            blobs = [_encoded(tables[table]) if kind == TEXT
                     else np.ascontiguousarray(tables[table], np.dtype(kind).base)
                     for table, kind in kinds.items()]
            entries = {**fields, **{table: memoryview(blob).nbytes
                                    for table, blob in zip(kinds, blobs)}}
            digest = hashlib.sha256(json.dumps(entries).encode("ascii"))
            for blob in blobs:
                digest.update(blob)
            header[name] = {**entries, "digest": digest.hexdigest()}
            data += blobs
        try:
            with written_beside(path, "wb") as fh:
                fh.write(json.dumps(header).encode("ascii") + b"\n")
                fh.writelines(data)
        except OSError as exc:
            print(f"{self.role} index not written: {exc}", file=sys.stderr)


def _array(fh, size: int, dtype: np.dtype, digest) -> np.ndarray:
    """The array table in the next ``size`` bytes of ``fh``, hashed into
    ``digest``."""
    table = np.empty((size // dtype.itemsize, *dtype.shape), dtype.base)
    if fh.readinto(table) != size:
        raise ValueError("snapshot ends inside a table")
    digest.update(table)
    return table


def _texts(fh, size: int, digest):
    """The texts of the text table in the next ``size`` bytes of ``fh``,
    hashed into ``digest``, as a list for each block's whole lines;
    ValueError when they are not a text table."""
    tail = b""
    for block in _blocks(fh, size, digest):
        size -= len(block)
        lines = tail + block
        cut = lines.rfind(b"\n") + 1
        lines, tail = lines[:cut - 1], lines[cut:]
        if cut:
            # one JSON array, which json.loads decodes with surrogatepass
            texts = json.loads(b"[%s]" % lines.replace(b"\n", b","))
            try:
                "".join(texts)  # a damaged line may hold another JSON value
            except TypeError:
                raise ValueError("snapshot text table holds a non-text") from None
            yield texts
    if tail or size:
        raise ValueError("snapshot text table ends inside a line")


def _encoded(texts) -> bytes:
    """``texts`` as a text table. One ``json.dumps`` of the list writes each
    literal as a lone ``json.dumps`` would, and no literal holds a newline."""
    lines = json.dumps(list(texts), ensure_ascii=False, separators=("\n", ":"))
    return (lines[1:-1] + "\n" if len(lines) > 2 else "").encode(
        "utf-8", "surrogatepass")
