import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fichad
from fichad.kg import (SPLITS, DatasetError, KnowledgeGraph, MultimodalAssets,
                       ParseError, Triple, Vocab, first_sentence,
                       load_descriptions, load_image_manifest, load_triples,
                       load_dataset)
from conftest import ARLES_CONFIG, make_vocab, random_graph


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadTriples:
    def test_three_line_file(self, tmp_path):
        p = write(tmp_path, "t.tsv", "a\tr\tb\nb\tr\tc\nc\tr\ta\n")
        ents, rels = make_vocab([]), make_vocab([])
        rows = load_triples(p, ents, rels)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0, 0, 1], [1, 0, 2], [2, 0, 0]]
        assert len(ents) == 3 and len(rels) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "t.tsv", "a\tr\tb\na\tr\n")
        with pytest.raises(ParseError) as exc:
            load_triples(p, make_vocab([]), make_vocab([]))
        assert ":2:" in str(exc.value)

    def test_duplicates_preserved_in_list(self, tmp_path):
        p = write(tmp_path, "t.tsv", "a\tr\tb\na\tr\tb\n")
        triples = load_triples(p, make_vocab([]), make_vocab([]))
        assert len(triples) == 2

    def test_first_appearance_interning_is_stable(self, tmp_path):
        p = write(tmp_path, "t.tsv", "x\tr\ty\na\ts\tx\n")
        e1, r1 = make_vocab([]), make_vocab([])
        load_triples(p, e1, r1)
        e2, r2 = make_vocab([]), make_vocab([])
        load_triples(p, e2, r2)
        assert e1.labels == e2.labels == ["x", "y", "a"]


def save_rows(path, rows, entities, relations):
    """Write handle rows back as label TSV."""
    path.write_text("".join(
        f"{entities.label_of(h)}\t{relations.label_of(r)}\t"
        f"{entities.label_of(t)}\n" for h, r, t in rows.tolist()),
        encoding="utf-8")


def test_round_trip_preserves_triples_and_handles(tmp_path):
    rng = random.Random(7)
    g = random_graph(rng)
    out = tmp_path / "train.tsv"
    save_rows(out, g.splits["train"], g.entities, g.relations)
    ents, rels = make_vocab([]), make_vocab([])
    reloaded = load_triples(out, ents, rels)
    relabel = [(g.entities.label_of(t.head), g.relations.label_of(t.relation),
                g.entities.label_of(t.tail)) for t in g.triples("train")]
    reloaded_labels = [(ents.label_of(h), rels.label_of(r), ents.label_of(t))
                       for h, r, t in reloaded.tolist()]
    assert sorted(relabel) == sorted(reloaded_labels)
    # second save/load reproduces the same handle assignment
    out2 = tmp_path / "again.tsv"
    save_rows(out2, reloaded, ents, rels)
    ents2, rels2 = make_vocab([]), make_vocab([])
    load_triples(out2, ents2, rels2)
    assert ents2.labels == ents.labels and rels2.labels == rels.labels


def test_splits_are_the_given_arrays():
    """The graph indexes the caller's rows and keeps no copy of them."""
    rows = np.array([[0, 0, 1], [1, 0, 0]], dtype=np.int64)
    g = KnowledgeGraph(make_vocab(["a", "b"]), make_vocab(["r"]),
                       {"train": rows})
    assert np.shares_memory(g.splits["train"], rows)
    assert g.splits["test"].shape == (0, 3)
    assert list(g.triples("train")) == [Triple(0, 0, 1), Triple(1, 0, 0)]


def test_indices_consistent_with_triples():
    g = random_graph(random.Random(3))
    for split in ("train", "valid", "test"):
        for t in g.triples(split):
            assert t.tail in g.known_tails(t.head, t.relation)
            assert t.head in g.known_heads(t.tail, t.relation)


class TestNeighbors:
    def test_star_graph_order(self):
        ents = make_vocab([f"e{i}" for i in range(9)])
        rels = make_vocab(["r"])
        train = [Triple(0, 0, i) for i in range(1, 9)]
        g = KnowledgeGraph(ents, rels, {"train": train, "valid": [], "test": []})
        got = g.neighbors(0, 5)
        assert got == [(0, i, "out") for i in range(1, 6)]

    def test_isolated_entity(self):
        g = random_graph(random.Random(1))
        ents = make_vocab(["a", "b", "lonely"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        assert g.neighbors(2, 5) == []

    def test_degree_smaller_than_k(self):
        ents = make_vocab(["a", "b", "c", "d"])
        rels = make_vocab(["r"])
        train = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(3, 0, 0)]
        g = KnowledgeGraph(ents, rels, {"train": train, "valid": [], "test": []})
        assert len(g.neighbors(0, 8)) == 3

    @given(seed=st.integers(0, 1000), k=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_prefix_property(self, seed, k):
        g = random_graph(random.Random(seed), max_entities=15, max_triples=60)
        for e in range(g.n_entities):
            assert g.neighbors(e, k) == g.neighbors(e, k + 1)[:k]


@st.composite
def oracle_graphs(draw):
    """Small graphs with duplicates, self-loops, triples repeated across
    splits, isolated entities, empty splits and relations without train
    triples."""
    n_ent = draw(st.integers(1, 9))
    n_rel = draw(st.integers(1, 4))
    linked = draw(st.integers(1, n_ent))      # handles >= linked are isolated
    train_rels = draw(st.integers(1, n_rel))  # relations >= train_rels: no train
    ent = st.integers(0, linked - 1)
    train = draw(st.lists(st.builds(Triple, ent, st.integers(0, train_rels - 1),
                                    ent), max_size=25))
    other = st.lists(st.builds(Triple, ent, st.integers(0, n_rel - 1), ent),
                     max_size=10)
    valid, test = draw(other), draw(other)
    if train:
        again = st.lists(st.sampled_from(train), max_size=4)
        train, valid, test = (train + draw(again), valid + draw(again),
                              test + draw(again))
    return KnowledgeGraph(make_vocab([f"e{i}" for i in range(n_ent)]),
                          make_vocab([f"r{i}" for i in range(n_rel)]),
                          {"train": train, "valid": valid, "test": test})


def _plain_ints(values):
    return all(type(v) is int for v in values)


class TestIndexOracle:
    """Every index answer against a brute-force reading of the split rows.

    Handles one past either end of the vocabularies are probed too; they
    are in no split and have no answers or neighbors.
    """

    @given(g=oracle_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_answer_matches_the_split_lists(self, g):
        n_ent, n_rel = g.n_entities, g.n_relations
        train = set(g.triples("train"))
        union = train.union(*(g.triples(s) for s in SPLITS))
        ents, rels = range(-1, n_ent + 1), range(-1, n_rel + 1)

        probes = [Triple(h, r, t) for h in ents for r in rels for t in ents]
        got = g.in_train_rows(np.array(probes, dtype=np.int64))
        assert got.dtype == bool
        assert got.tolist() == [tr in train for tr in probes]

        for h in ents:
            for r in rels:
                tails = g.known_tails(h, r)
                assert type(tails) is set and _plain_ints(tails)
                assert tails == {x.tail for x in union
                                 if (x.head, x.relation) == (h, r)}
                heads = g.known_heads(h, r)
                assert type(heads) is set and _plain_ints(heads)
                assert heads == {x.head for x in union
                                 if (x.tail, x.relation) == (h, r)}

        for e in ents:
            edges = sorted({(x.relation, x.tail, 0) for x in union if x.head == e}
                           | {(x.relation, x.head, 1) for x in union
                              if x.tail == e})
            want = [(r, n, ("out", "in")[d]) for r, n, d in edges]
            for k in range(len(want) + 2):
                got = g.neighbors(e, k)
                assert type(got) is list and got == want[:k]
                assert all(type(edge) is tuple and _plain_ints(edge[:2])
                           for edge in got)

        for r in rels:
            got = g.triples_with_relation(r)
            assert got.dtype == np.int64 and got.shape[1:] == (3,)
            assert not got.flags.writeable
            assert got.tolist() == sorted(list(x) for x in g.triples("train")
                                          if x.relation == r)


class TestHandleValidation:
    @pytest.mark.parametrize("triple", [Triple(2, 0, 0), Triple(0, 1, 0),
                                        Triple(0, 0, 2), Triple(-1, 0, 0)],
                             ids=["head", "relation", "tail", "negative"])
    def test_handle_outside_vocab_is_dataset_error(self, triple):
        splits = {"train": [Triple(0, 0, 1)], "valid": [],
                  "test": [Triple(1, 0, 0), triple]}
        with pytest.raises(DatasetError, match="test triple"):
            KnowledgeGraph(make_vocab(["a", "b"]), make_vocab(["r"]), splits)

    def test_key_overflow_is_dataset_error(self):
        class Huge(Vocab):
            def __len__(self):
                return 2 ** 32

        # 2^32 entities squared times one relation is 2^64 > int64 max
        with pytest.raises(DatasetError, match="int64"):
            KnowledgeGraph(Huge(), make_vocab(["r"]), {})


def test_graph_load_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on numpy 2; the index sorts instead.

    numpy 1.x imports ``numpy.ma`` with numpy itself, so the load must only
    leave it as it found it.
    """
    src = str(Path(fichad.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys\n"
              "from fichad import kg\n"
              "before = 'numpy.ma' in sys.modules\n"
              f"kg.load_dataset({str(ARLES_CONFIG)!r})\n"
              "print(before, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


class TestAssets:
    def test_cap_truncates(self, tmp_path):
        lines = "".join(f"a\timg{i}.jpg\n" for i in range(12))
        p = write(tmp_path, "img.tsv", lines)
        assets = load_image_manifest(p, make_vocab(["a"]), cap=10)
        assert assets.images_of(0) == [f"img{i}.jpg" for i in range(10)]

    def test_entity_without_images(self, tmp_path):
        p = write(tmp_path, "img.tsv", "a\timg.jpg\n")
        assets = load_image_manifest(p, make_vocab(["a", "b"]), cap=3)
        assert assets.images_of(1) == []

    def test_unknown_entity_skipped_and_counted(self, tmp_path):
        p = write(tmp_path, "img.tsv", "a\tx.jpg\nghost\ty.jpg\n")
        assets = load_image_manifest(p, make_vocab(["a"]), cap=3)
        assert assets.skipped_image_lines == 1
        assert assets.images_of(0) == ["x.jpg"]

    def test_cap_invariant(self, tmp_path):
        rng = random.Random(5)
        labels = [f"e{i}" for i in range(10)]
        lines = "".join(f"{rng.choice(labels)}\timg{i}.jpg\n" for i in range(80))
        p = write(tmp_path, "img.tsv", lines)
        assets = load_image_manifest(p, make_vocab(labels), cap=4)
        assert all(len(assets.images_of(e)) <= 4 for e in range(10))

    def test_descriptions_absent_vs_present(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\thello world. more text\n")
        assets = MultimodalAssets(image_cap=1)
        load_descriptions(p, make_vocab(["a", "b"]), assets)
        assert assets.description(0) == "hello world. more text"
        assert assets.description(1) is None

    def test_duplicate_descriptions_last_wins(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\tfirst\na\tsecond\n")
        assets = MultimodalAssets(image_cap=1)
        load_descriptions(p, make_vocab(["a"]), assets)
        assert assets.description(0) == "second"
        assert assets.duplicate_description_lines == 1


class TestFirstSentence:
    def test_period_space(self):
        text = "Arles is a city. It lies on the Rhone."
        assert first_sentence(text) == "Arles is a city."

    def test_no_period(self):
        assert first_sentence("no boundary here") == "no boundary here"

    def test_period_newline(self):
        assert first_sentence("One.\nTwo.") == "One."

    def test_trailing_period_only(self):
        assert first_sentence("Just one sentence.") == "Just one sentence."


def test_load_dataset_fixture():
    ds = load_dataset(ARLES_CONFIG)
    g = ds.graph
    assert g.n_entities == 8
    assert g.n_relations == 4
    assert len(g.splits["train"]) == 7
    assert ds.assets.image_cap == 3
    assert ds.assets.images_of(0) == ["img/voa_1.jpg", "img/voa_2.jpg",
                                      "img/voa_3.jpg"]
    assert ds.graph.entities.display_name(0) == "View of Arles"
    # display name falls back to the label when absent
    v = make_vocab(["plain"])
    assert v.display_name(0) == "plain"
