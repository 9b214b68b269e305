import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fichad.kg import KnowledgeGraph, Triple
from fichad.linkpred import (EvalError, Query, evaluate, other_answers,
                             queries_for_split, rank, report_from_ranks)
from conftest import (brute_force_candidates, brute_force_report, make_vocab,
                      random_graph)


def make_random_scorer(seed):
    rng = random.Random(seed)
    table = {}

    def score(h, r, t):
        key = (h, r, t)
        if key not in table:
            table[key] = rng.random()
        return table[key]

    return score


def entity_scorer(score, graph, f=lambda s: s):
    """``scorer(query)`` scoring each entity of ``graph`` as ``f(score)``."""

    def scorer(q):
        if q.direction == "tail":
            return np.array([f(score(q.known, q.relation, e))
                             for e in range(graph.n_entities)])
        return np.array([f(score(e, q.relation, q.known))
                         for e in range(graph.n_entities)])

    return scorer


class TestFilteredCandidates:
    """The filtered candidates are all entities minus ``other_answers``."""

    def test_known_answer_filtered(self):
        ents = make_vocab(["a", "b", "c"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1), Triple(0, 0, 2)],
                            "valid": [], "test": []})
        assert other_answers(g, Query("tail", 0, 0, 1)) == {2}
        assert other_answers(g, Query("head", 2, 0, 0)) == set()

    def test_no_other_answers_keeps_all(self):
        ents = make_vocab(["a", "b", "c"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        assert other_answers(g, Query("tail", 0, 0, 1)) == set()

    def test_matches_brute_force_on_random_graph(self):
        g = random_graph(random.Random(99))
        for q in queries_for_split(g, "test"):
            got = set(range(g.n_entities)) - other_answers(g, q)
            want = brute_force_candidates(g, q.direction, q.known,
                                          q.relation, q.answer)
            assert got == want


class TestRank:
    def test_mean_tie_example(self):
        # A:0.9  B(true):0.5  C:0.5  D:0.1
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        assert rank(scores, 1, set()) == pytest.approx(2.5)
        assert 1.0 / rank(scores, 1, set()) == pytest.approx(0.4)
        # two other known answers, one above and one tied, are not counted
        with_known = np.append(scores, [0.99, 0.5])
        assert rank(with_known, 1, {4, 5}) == pytest.approx(2.5)

    def test_unique_maximum(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert rank(scores, 1, set()) == 1.0

    def test_full_tie(self):
        m = 7
        scores = np.full(m, 0.5)
        assert rank(scores, 3, set()) == pytest.approx((m + 1) / 2)


class TestMetrics:
    def test_rank_multiset_arithmetic(self):
        rep = report_from_ranks([1.0, 2.0], [4.0])
        assert rep.mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-9)
        assert rep.hits1 == pytest.approx(1 / 3)
        assert rep.hits3 == pytest.approx(2 / 3)
        assert rep.hits10 == pytest.approx(1.0)

    def test_hits_monotone_and_bounds(self):
        g = random_graph(random.Random(17))
        score = make_random_scorer(3)
        rep = evaluate(entity_scorer(score, g), g)
        assert rep.hits1 <= rep.hits3 <= rep.hits10
        assert 0.0 < rep.mrr <= 1.0
        assert rep.mrr >= rep.hits1

    def test_constant_scorer_full_tie_rank(self):
        ents = make_vocab([f"e{i}" for i in range(20)])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [], "valid": [],
                            "test": [Triple(0, 0, 1)]})
        rep = evaluate(lambda q: np.zeros(g.n_entities), g)
        # 20 candidates, full tie -> rank 10.5 for both queries
        assert rep.mrr == pytest.approx(1 / 10.5)

    def test_empty_split_errors(self):
        ents = make_vocab(["a"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels, {"train": [], "valid": [], "test": []})
        with pytest.raises(EvalError):
            evaluate(lambda q: np.zeros(g.n_entities), g)

    def test_non_finite_score_is_error(self):
        ents = make_vocab([f"e{i}" for i in range(5)])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [], "valid": [],
                            "test": [Triple(0, 0, 1)]})

        def scorer(q):
            scores = np.zeros(g.n_entities)
            scores[q.answer] = np.nan
            return scores

        with pytest.raises(EvalError, match="non-finite"):
            evaluate(scorer, g)

    def test_wrong_shaped_scores_is_error(self):
        ents = make_vocab([f"e{i}" for i in range(5)])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [], "valid": [],
                            "test": [Triple(0, 0, 1)]})
        with pytest.raises(EvalError, match="shape"):
            evaluate(lambda q: np.zeros(g.n_entities - 1), g)

    def test_report_serialization(self):
        rep = report_from_ranks([1.0, 4.0], [2.0])
        d = rep.to_dict()
        assert set(d) == {"mrr", "hits1", "hits3", "hits10", "head", "tail",
                          "n_queries"}
        assert d["head"] == {"mrr": 0.625, "hits1": 0.5, "hits3": 0.5,
                             "hits10": 1.0, "n_queries": 2}
        assert d["tail"]["n_queries"] == 1 and d["n_queries"] == 3
        assert json.loads(rep.to_json()) == d
        assert "MRR" in rep.to_table()


class TestOracleEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_report_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        score = make_random_scorer(seed + 1)
        rep = evaluate(entity_scorer(score, g), g)
        mrr, h1, h3, h10 = brute_force_report(score, g)
        assert rep.mrr == pytest.approx(mrr, abs=1e-12)
        assert rep.hits1 == pytest.approx(h1, abs=1e-12)
        assert rep.hits3 == pytest.approx(h3, abs=1e-12)
        assert rep.hits10 == pytest.approx(h10, abs=1e-12)

    def test_monotone_transform_invariance(self):
        g = random_graph(random.Random(5))
        score = make_random_scorer(2)
        base = evaluate(entity_scorer(score, g), g)
        warped = evaluate(entity_scorer(score, g, lambda s: np.exp(3 * s) + 1),
                          g)
        assert base.to_dict() == warped.to_dict()
