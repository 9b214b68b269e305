import copy
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fichad import context as cg
from fichad.backend import MockBackend
from fichad.kg import MultimodalAssets
from fichad.linkpred import Query
from fichad.prompt import (DESC_HEADER, NEIGHBOR_HEADER, BuildError,
                           ContextIndex, TokenBudget, TruncationError,
                           build_kgc_input, export_prompts, query_line,
                           whitespace_words)
from conftest import (ARLES_CONFIG, check_cut, random_sections,
                      write_synthetic_dataset)


@pytest.fixture(scope="module")
def pipeline():
    """Arles fixture contexts + templates under the seed-7 mock backend."""
    from fichad.kg import load_dataset
    ds = load_dataset(ARLES_CONFIG)
    g = ds.graph
    bk = MockBackend(7)
    gen = cg.ContextGenerator(g, ds.assets, bk, seed=7)
    ctxs = gen.generate_for_splits(cg.V1, splits=("train", "valid", "test"))
    ctxs += gen.generate_for_splits(cg.V2)
    index = ContextIndex(ctxs, g)
    # the golden templates were asked for without images
    imageless = cg.ContextGenerator(g, MultimodalAssets(image_cap=1), bk,
                                    seed=7)
    templates = dict(zip(map(g.relations.label_of, range(g.n_relations)),
                         imageless.relation_templates()))
    t = next(g.triples("test"))
    query = Query("tail", t.head, t.relation, t.tail)
    return ds, index, templates, query


GOLDEN = __file__.rsplit("/", 1)[0] + "/data/kgc_input_golden.txt"


def neighbor_entries(text: str) -> list[tuple[str, str]]:
    """The (label, context text) entries of a rendered input whose context
    texts are one line each."""
    [block] = [p for p in text.split("\n\n") if p.startswith(NEIGHBOR_HEADER)]
    lines = block.split("\n")[2:]  # after the header and the variant marker
    return list(zip(lines[::2], lines[1::2], strict=True))


class TestBuild:
    def test_golden_file_byte_exact(self, pipeline):
        ds, index, templates, query = pipeline
        inp = build_kgc_input(query, index, ds.graph, k=2, variant=cg.V1,
                              relation_templates=templates)
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = fh.read()
        assert inp.text == golden

    def test_section_headers_and_order(self, pipeline):
        ds, index, templates, query = pipeline
        text = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates).text
        headers = ["Entity:", "# Generated Entity Description:",
                   "# Neighbor Contexts:", "Relation:",
                   "# Relation Template:", "Query:"]
        positions = [text.index(h) for h in headers]
        assert positions == sorted(positions)
        assert text.count("Query:") == 1

    def test_k_zero_keeps_all_sections(self, pipeline):
        ds, index, templates, query = pipeline
        inp = build_kgc_input(query, index, ds.graph, k=0,
                              relation_templates=templates)
        assert "# Neighbor Contexts:" in inp.text
        assert neighbor_entries(inp.text) == []
        assert "Relation: depict" in inp.text

    def test_neighbor_count_bounded_by_k(self, pipeline):
        ds, index, templates, query = pipeline
        for k in (1, 2, 5):
            inp = build_kgc_input(query, index, ds.graph, k=k,
                                  relation_templates=templates)
            assert len(neighbor_entries(inp.text)) <= k

    def test_pure_function_same_bytes(self, pipeline):
        ds, index, templates, query = pipeline
        a = build_kgc_input(query, index, ds.graph, k=3,
                            relation_templates=templates)
        b = build_kgc_input(query, index, ds.graph, k=3,
                            relation_templates=templates)
        assert a.text == b.text

    def test_no_context_is_build_error(self, pipeline):
        ds, _, templates, query = pipeline
        empty = ContextIndex([], ds.graph)
        with pytest.raises(BuildError, match="View of Arles"):
            build_kgc_input(query, empty, ds.graph, k=2,
                            relation_templates=templates)

    def test_query_line_formats(self, pipeline):
        ds, _, _, query = pipeline
        assert query_line(query, ds.graph) == "Query: (View of Arles, depict, ?)"
        head_q = Query("head", query.known, query.relation, query.answer)
        assert query_line(head_q, ds.graph) == "Query: (?, depict, View of Arles)"

    def test_missing_template_falls_back_to_literal(self, pipeline):
        ds, index, _, query = pipeline
        inp = build_kgc_input(query, index, ds.graph, k=1)
        assert "[A] depict [B]" in inp.text

    def test_description_falls_back_to_first_touching_context(self, pipeline):
        ds, _, _, query = pipeline
        g = ds.graph
        head, tail = (g.entities.label_of(e) for e in (query.known,
                                                       query.answer))
        rel = g.relations.label_of(query.relation)
        ctxs = [cg.GeneratedContext(
            variant=v, subject={"kind": "triple", "head": head,
                                "relation": rel, "tail": tail},
            text=f"{v} text") for v in (cg.V1X, cg.V1)]
        idx = ContextIndex(ctxs, g)
        first = f"{cg.V1X} text"
        assert idx.touching == {query.known: first, query.answer: first}
        assert idx.entity_description(query.known) == f"{cg.V1X} text"

    def test_query_like_description_survives_budget(self, pipeline):
        """Neighbor entries go before a description that starts with Query:."""
        ds, index, templates, query = pipeline
        g = ds.graph
        description = ("Query: which town does this painting show?\n"
                       "It shows Arles in summer light.")
        idx = copy.copy(index)
        idx.by_entity = {**index.by_entity, query.known: description}
        full = build_kgc_input(query, idx, g, k=2, relation_templates=templates)
        n = whitespace_words(full.text)
        cut = build_kgc_input(query, idx, g, k=2, relation_templates=templates,
                              budget=TokenBudget(n - 3))
        assert cut.truncated
        assert whitespace_words(cut.text) <= n - 3
        assert description in cut.text
        entries = neighbor_entries(full.text)
        assert entries[-1][1] not in cut.text
        assert entries[0][1] in cut.text


class TestTruncate:
    def test_under_budget_unchanged(self, pipeline):
        ds, index, templates, query = pipeline
        full = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates)
        cut = build_kgc_input(query, index, ds.graph, k=2,
                              relation_templates=templates,
                              budget=TokenBudget(500))
        assert cut.text == full.text
        assert not cut.truncated

    def test_neighbors_dropped_last_first(self, pipeline):
        ds, index, templates, query = pipeline
        full = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates)
        n = whitespace_words(full.text)
        # budget just below full: last neighbor entry must go first
        cut = build_kgc_input(query, index, ds.graph, k=2,
                              relation_templates=templates,
                              budget=TokenBudget(n - 2)).text
        entries = neighbor_entries(full.text)
        assert entries[-1][1] not in cut
        assert entries[0][1] in cut
        assert "Query: (View of Arles, depict, ?)" in cut

    def test_description_loses_only_its_word_tail(self, pipeline):
        ds, index, templates, query = pipeline
        full = build_kgc_input(query, index, ds.graph, k=0,
                               relation_templates=templates)
        n = whitespace_words(full.text)
        cut = build_kgc_input(query, index, ds.graph, k=0,
                              relation_templates=templates,
                              budget=TokenBudget(n - 2)).text
        words = index.entity_description(query.known).split()
        assert whitespace_words(cut) == n - 2
        assert f"{DESC_HEADER}\n{' '.join(words[:-2])}\n" in cut

    def test_query_always_survives(self, pipeline):
        ds, index, templates, query = pipeline
        qline = "Query: (View of Arles, depict, ?)"
        cut = build_kgc_input(query, index, ds.graph, k=2,
                              relation_templates=templates,
                              budget=TokenBudget(whitespace_words(qline)))
        assert cut.text == qline
        assert cut.truncated

    def test_budget_below_query_line_errors(self, pipeline):
        ds, index, templates, query = pipeline
        with pytest.raises(TruncationError):
            build_kgc_input(query, index, ds.graph, k=1,
                            relation_templates=templates,
                            budget=TokenBudget(2))

    def test_cut_property_over_random_sections(self):
        """Fits, reports the cut, and a re-cut changes nothing, x1000."""
        rng = random.Random(0)
        for _ in range(1000):
            check_cut(random_sections(rng), rng.randint(1, 60))

    @given(limit=st.integers(8, 200))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_on_structured_input(self, limit):
        from fichad.kg import load_dataset
        ds = load_dataset(ARLES_CONFIG)
        g = ds.graph
        bk = MockBackend(7)
        gen = cg.ContextGenerator(g, ds.assets, bk, seed=7)
        ctxs = gen.generate_for_splits(cg.V1, splits=("train",))
        ctxs += gen.generate_for_splits(cg.V2)
        index = ContextIndex(ctxs, g)
        t = next(g.triples("test"))
        q = Query("tail", t.head, t.relation, t.tail)
        text = build_kgc_input(q, index, g, k=3).text
        cut = build_kgc_input(q, index, g, k=3, budget=TokenBudget(limit)).text
        assert whitespace_words(cut) <= limit
        # surviving lines keep their original relative order
        orig_lines = [ln for ln in text.split("\n") if ln.strip()]
        cut_lines = [ln for ln in cut.split("\n")
                     if ln.strip() and ln in orig_lines]
        idx = [orig_lines.index(ln) for ln in cut_lines]
        assert idx == sorted(idx)


def _traced(call):
    """``call()``'s traced bytes held after it returns, and its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_store_read_memory_bound(tmp_path):
    """The store is streamed: building the index peaks near what the index
    holds, and stats near nothing, not at one held context per line."""
    from fichad.kg import load_dataset
    ds = load_dataset(write_synthetic_dataset(tmp_path / "ds",
                                              n_entities=200))
    rng = random.Random(3)
    keys = rng.sample(range(200 * 8 * 200), 20_000)  # distinct (h, r, t)
    words = ["in", "a", "scene", "with", "light", "river"]
    store = tmp_path / "s.jsonl"
    with open(store, "w", encoding="utf-8") as fh:
        for key in keys:
            h, r, t = (f"ent_{key // 1600:04d}", f"rel_{key // 200 % 8}",
                       f"ent_{key % 200:04d}")
            fh.write(json.dumps({
                "variant": cg.V1, "fallback": False,
                "subject": {"kind": "triple", "head": h, "relation": r,
                            "tail": t},
                "text": " ".join([h, "and", t, *rng.choices(words, k=20)]),
                "images": [{"ref": f"img/{h}_{j}.jpg", "score": rng.random()}
                           for j in range(rng.randrange(5))]}) + "\n")
    index, held, peak = _traced(
        lambda: ContextIndex(cg.read_context_store(store), ds.graph))
    assert len(index.by_triple) == 20_000
    assert peak <= 1.25 * held
    stats, _, stats_peak = _traced(lambda: cg.corpus_stats(
        cg.read_context_store(store), ds.graph, ds.assets))
    assert stats.triples_with_fichad1 == 20_000
    assert stats_peak <= 0.1 * held


def test_export_prompts_jsonl(pipeline, tmp_path):
    import json
    ds, index, templates, query = pipeline
    inp = build_kgc_input(query, index, ds.graph, k=2,
                          relation_templates=templates,
                          budget=TokenBudget(30))
    out = tmp_path / "prompts.jsonl"
    export_prompts([inp], out)
    rec = json.loads(out.read_text().strip())
    assert rec["n_tokens"] <= 30
    assert rec["truncated"] is True
    assert rec["query"]["direction"] == "tail"
