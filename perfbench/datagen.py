"""Seeded synthetic multimodal knowledge graphs for the benchmark.

Stdlib only; the same spec and seed always give byte-identical files. A graph
is written as the ``dataset.json`` layout the ``fichad`` CLI reads: three
triple TSVs, display names, descriptions for part of the entities, and an
image manifest. Image references are relative paths (``img/...``), so they
resolve only from the dataset directory, which is the working directory the
benchmark runs every subcommand in. When ``image_files`` is set, each
reference is a real PNG of a few KB filled with seeded noise.
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

_SYLLABLES = ("ka", "lo", "mi", "ren", "sa", "tor", "vel", "un", "dri", "ola",
              "pe", "zan", "qui", "mar", "es", "bo", "lin", "thu", "ga", "ri")
_WORDS = ("river", "city", "painter", "bridge", "festival", "museum", "valley",
          "novel", "harbour", "castle", "garden", "album", "league", "station")
#: images per entity, as in FB15K-237-IMG
IMAGE_CAP = 10
#: a PNG is IMAGE_SIDE x IMAGE_SIDE RGB noise, about 4 KB
IMAGE_SIDE = 36
#: share of entities with a human-written description
DESCRIPTION_SHARE = 0.6
#: share of the uniform triples that add a tail to an existing (head,
#: relation) or a head to an existing (relation, tail), so that filtered
#: evaluation has known answers to remove and prompts have 1-to-N neighbours
SHARED_SHARE = 0.5


@dataclass(frozen=True)
class GraphSpec:
    """Sizes of one synthetic graph."""

    entities: int
    relations: int
    train: int
    valid: int
    test: int
    image_files: bool = False


def _name(rng: random.Random, idx: int) -> str:
    first = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
    return f"{first.capitalize()} {rng.choice(_WORDS).capitalize()} {idx}"


def _description(rng: random.Random, name: str) -> str:
    sentences = [f"{name} is a {rng.choice(_WORDS)} known for its "
                 f"{rng.choice(_WORDS)}s."]
    for _ in range(rng.randint(1, 3)):
        sentences.append(f"It is linked to the {rng.choice(_WORDS)} of "
                         f"{rng.choice(_SYLLABLES).capitalize()}"
                         f"{rng.choice(_SYLLABLES)}.")
    return " ".join(sentences)


def _triples(rng: random.Random, spec: GraphSpec) -> list[tuple[int, int, int]]:
    """Distinct (h, r, t) with h != t; every entity and relation occurs.

    The first ``ceil(entities / 2)`` triples pair entities up so that the
    vocabulary interned from the files has exactly ``spec.entities`` entries.
    They come first, so they land in train, and their relations cycle through
    all relation ids, so every relation has training triples when there are
    enough of them. The rest are uniform, or share a head and relation or a
    relation and tail with an earlier triple (``SHARED_SHARE``), and are
    shuffled.
    """
    n_e, n_r = spec.entities, spec.relations
    total = spec.train + spec.valid + spec.test
    if total < (n_e + 1) // 2 or total < n_r:
        raise ValueError("too few triples to cover every entity and relation")
    order = list(range(n_e))
    rng.shuffle(order)
    seen: set[tuple[int, int, int]] = set()
    out = []
    for i in range(0, n_e, 2):
        h = order[i]
        t = order[i + 1] if i + 1 < n_e else order[0]
        tr = (h, (i // 2) % n_r, t)
        seen.add(tr)
        out.append(tr)
    while len(out) < total:
        h, r, t = rng.randrange(n_e), rng.randrange(n_r), rng.randrange(n_e)
        if rng.random() < SHARED_SHARE:
            h0, r, t0 = out[rng.randrange(len(out))]
            if rng.random() < 0.5:
                h = h0
            else:
                t = t0
        if h == t:
            continue
        tr = (h, r, t)
        if tr in seen:
            continue
        seen.add(tr)
        out.append(tr)
    head, rest = out[:(n_e + 1) // 2], out[(n_e + 1) // 2:]
    rng.shuffle(rest)
    return head + rest


def _png(rng: random.Random, side: int) -> bytes:
    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    rows = b"".join(b"\x00" + rng.randbytes(side * 3) for _ in range(side))
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", side, side, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(rows, 1))
            + chunk(b"IEND", b""))


def generate(spec: GraphSpec, seed: int, out_dir: Path) -> Path:
    """Write the dataset for ``spec`` under ``out_dir``; return ``dataset.json``."""
    rng = random.Random(f"fichad-bench:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    ents = [f"/m/e{i:05d}" for i in range(spec.entities)]
    rels = [f"/rel/r{i:03d}" for i in range(spec.relations)]
    names = [_name(rng, i) for i in range(spec.entities)]

    triples = _triples(rng, spec)
    cuts = {"train": triples[:spec.train],
            "valid": triples[spec.train:spec.train + spec.valid],
            "test": triples[spec.train + spec.valid:]}
    for split, rows in cuts.items():
        with open(out_dir / f"{split}.tsv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.writelines(f"{ents[h]}\t{rels[r]}\t{ents[t]}\n"
                          for h, r, t in rows)

    with open(out_dir / "names.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{e}\t{n}\n" for e, n in zip(ents, names))
    with open(out_dir / "descriptions.tsv", "w", encoding="utf-8",
              newline="\n") as fh:
        for e, n in zip(ents, names):
            if rng.random() < DESCRIPTION_SHARE:
                fh.write(f"{e}\t{_description(rng, n)}\n")

    if spec.image_files:
        (out_dir / "img").mkdir(exist_ok=True)
    with open(out_dir / "images.tsv", "w", encoding="utf-8",
              newline="\n") as fh:
        for i, e in enumerate(ents):
            for j in range(IMAGE_CAP):
                ref = f"img/e{i:05d}_{j}.png"
                fh.write(f"{e}\t{ref}\n")
                if spec.image_files:
                    (out_dir / ref).write_bytes(_png(rng, IMAGE_SIDE))

    config = {"id": f"synthetic-{seed}", "train": "train.tsv",
              "valid": "valid.tsv", "test": "test.tsv",
              "images": "images.tsv", "descriptions": "descriptions.tsv",
              "names": "names.tsv", "image_cap": IMAGE_CAP}
    path = out_dir / "dataset.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
