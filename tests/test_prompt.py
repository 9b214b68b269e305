import random

import pytest
from hypothesis import given, settings, strategies as st

from fichad import context as cg
from fichad.backend import MockBackend
from fichad.linkpred import Query
from fichad.prompt import (BuildError, ContextIndex, KgcInput, TokenBudget,
                           TruncationError, build_kgc_input, export_prompts,
                           query_line, truncate, whitespace_words)
from conftest import ARLES_CONFIG


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
    templates = {g.relations.label_of(r): cg.relation_template(g, r, bk, seed=7)
                 for r in range(g.n_relations)}
    t = g.splits["test"][0]
    query = Query("tail", t.head, t.relation, t.tail)
    return ds, index, templates, query


GOLDEN = __file__.rsplit("/", 1)[0] + "/data/kgc_input_golden.txt"


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
        assert inp.neighbor_lines == []
        assert "Relation: depict" in inp.text

    def test_neighbor_count_bounded_by_k(self, pipeline):
        ds, index, templates, query = pipeline
        for k in (1, 2, 5):
            inp = build_kgc_input(query, index, ds.graph, k=k,
                                  relation_templates=templates)
            assert len(inp.neighbor_lines) <= k

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

    def test_query_like_description_survives_budget(self, pipeline):
        """Neighbor entries go before a description that starts with Query:."""
        ds, index, templates, query = pipeline
        g = ds.graph
        description = ("Query: which town does this painting show?\n"
                       "It shows Arles in summer light.")
        own = cg.GeneratedContext(
            variant=cg.V2, subject={"kind": "entity",
                                    "entity": g.entities.label_of(query.known)},
            text=description)
        idx = ContextIndex([own, *index.by_entity.values(),
                            *index.by_triple.values()], g)
        full = build_kgc_input(query, idx, g, k=2, relation_templates=templates)
        n = whitespace_words(full.text)
        cut = build_kgc_input(query, idx, g, k=2, relation_templates=templates,
                              budget=TokenBudget(n - 3))
        assert cut.truncated
        assert whitespace_words(cut.text) <= n - 3
        assert description in cut.text
        assert full.neighbor_lines[-1][1] not in cut.text
        assert full.neighbor_lines[0][1] in cut.text


class TestTruncate:
    def test_under_budget_unchanged(self, pipeline):
        ds, index, templates, query = pipeline
        text = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates).text
        assert truncate(text, TokenBudget(500)) == text

    def test_neighbors_dropped_last_first(self, pipeline):
        ds, index, templates, query = pipeline
        full = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates)
        n = whitespace_words(full.text)
        # budget just below full: last neighbor entry must go first
        cut = truncate(full.text, TokenBudget(n - 2))
        assert full.neighbor_lines[-1][1] not in cut
        assert full.neighbor_lines[0][1] in cut
        assert "Query: (View of Arles, depict, ?)" in cut

    def test_query_always_survives(self, pipeline):
        ds, index, templates, query = pipeline
        text = build_kgc_input(query, index, ds.graph, k=2,
                               relation_templates=templates).text
        qline = "Query: (View of Arles, depict, ?)"
        cut = truncate(text, TokenBudget(whitespace_words(qline)))
        assert cut == qline

    def test_budget_below_query_line_errors(self, pipeline):
        ds, index, templates, query = pipeline
        text = build_kgc_input(query, index, ds.graph, k=1,
                               relation_templates=templates).text
        with pytest.raises(TruncationError):
            truncate(text, TokenBudget(2))

    def test_unstructured_text_word_trim(self):
        text = "one two three four five"
        assert truncate(text, TokenBudget(3)) == "one two three"
        assert truncate(text, TokenBudget(10)) == text

    def test_idempotence_over_random_texts(self):
        """truncate(truncate(x,b),b) == truncate(x,b) on 1000 random inputs."""
        rng = random.Random(0)
        words = ["alpha", "beta", "gamma", "Query:", "(a,", "r,", "?)",
                 "Entity:", "# Neighbor Contexts:", "x|y:", "text"]
        for _ in range(1000):
            n = rng.randint(1, 60)
            lines = []
            while n > 0:
                ln = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
                lines.append(ln)
                n -= 1
            text = "\n".join(lines)
            budget = TokenBudget(rng.randint(1, 40))
            try:
                once = truncate(text, budget)
            except TruncationError:
                with pytest.raises(TruncationError):
                    truncate(text, budget)
                continue
            assert whitespace_words(once) <= budget.limit
            assert truncate(once, budget) == once

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
        t = g.splits["test"][0]
        q = Query("tail", t.head, t.relation, t.tail)
        text = build_kgc_input(q, index, g, k=3).text
        cut = truncate(text, TokenBudget(limit))
        assert whitespace_words(cut) <= limit
        built = build_kgc_input(q, index, g, k=3, budget=TokenBudget(limit))
        assert built.text == cut
        # surviving lines keep their original relative order
        orig_lines = [ln for ln in text.split("\n") if ln.strip()]
        cut_lines = [ln for ln in cut.split("\n")
                     if ln.strip() and ln in orig_lines]
        idx = [orig_lines.index(ln) for ln in cut_lines]
        assert idx == sorted(idx)


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
