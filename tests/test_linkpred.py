import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fichad
from fichad.embed import init_model
from fichad.kg import KnowledgeGraph, Triple, load_dataset, SPLITS
from fichad.linkpred import (EvalError, Query, evaluate, model_scorer,
                             queries_for_split, rank, report_from_ranks)
from conftest import (ARLES_CONFIG, brute_force_candidates,
                      brute_force_report, make_vocab, random_graph,
                      two_cluster_graph)


def make_random_scorer(seed):
    """A random score per triple, drawn on first use and kept; the draw is
    locked, as ``evaluate`` scores queries on several threads at once and
    two threads drawing for one triple would see different scores."""
    rng = random.Random(seed)
    table = {}
    lock = threading.Lock()

    def score(h, r, t):
        key = (h, r, t)
        with lock:
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


def known_answers(graph, q):
    """Every known answer to ``q`` in any split, its own answer included."""
    if q.direction == "tail":
        return graph.known_tails(q.known, q.relation)
    return graph.known_heads(q.known, q.relation)


def filtered_candidates(graph, q) -> set[int]:
    """All entities but the known answers to ``q`` other than its own."""
    other = set(known_answers(graph, q).tolist()) - {q.answer}
    return set(range(graph.n_entities)) - other


class TestFilteredCandidates:
    """The filtered candidates are all entities minus the other known
    answers in the graph's sorted answer range."""

    def test_known_answer_filtered(self):
        ents = make_vocab(["a", "b", "c"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1), Triple(0, 0, 2)],
                            "valid": [], "test": []})
        assert filtered_candidates(g, Query("tail", 0, 0, 1)) == {0, 1}
        assert filtered_candidates(g, Query("head", 2, 0, 0)) == {0, 1, 2}

    def test_no_other_answers_keeps_all(self):
        ents = make_vocab(["a", "b", "c"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        assert filtered_candidates(g, Query("tail", 0, 0, 1)) == {0, 1, 2}

    def test_matches_brute_force_on_random_graph(self):
        g = random_graph(random.Random(99))
        for q in queries_for_split(g, "test"):
            got = filtered_candidates(g, q)
            want = brute_force_candidates(g, q.direction, q.known,
                                          q.relation, q.answer)
            assert got == want


class TestRank:
    def test_mean_tie_example(self):
        # A:0.9  B(true):0.5  C:0.5  D:0.1
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        assert rank(scores, 1, np.array([1])) == pytest.approx(2.5)
        assert 1.0 / rank(scores, 1, np.array([1])) == pytest.approx(0.4)
        # two other known answers, one above and one tied, are not counted
        with_known = np.append(scores, [0.99, 0.5])
        assert rank(with_known, 1, np.array([1, 4, 5])) == pytest.approx(2.5)

    def test_unique_maximum(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert rank(scores, 1, np.array([1])) == 1.0

    def test_full_tie(self):
        m = 7
        scores = np.full(m, 0.5)
        assert rank(scores, 3, np.array([3])) == pytest.approx((m + 1) / 2)


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


def _cpus() -> int:
    """The CPUs this process may use, counted as ``evaluate`` counts them."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def serial_evaluate(scorer, graph, split="test"):
    """The reference: one query after another on the calling thread."""
    ranks = {"tail": [], "head": []}
    for q in queries_for_split(graph, split):
        scores = np.asarray(scorer(q), dtype=np.float64)
        if scores.shape != (graph.n_entities,):
            raise EvalError(f"scorer returned scores of shape {scores.shape}, "
                            f"expected ({graph.n_entities},)")
        if not np.all(np.isfinite(scores)):
            raise EvalError("scorer returned non-finite scores")
        ranks[q.direction].append(rank(scores, q.answer,
                                       known_answers(graph, q)))
    return report_from_ranks(ranks["head"], ranks["tail"])


def arles_reports(evaluate_fn, threads: list | None = None) -> dict:
    """Report dicts of ``evaluate_fn`` on every arles split for every family,
    TransE-L2 and a constant scorer; ``threads`` gets one set per evaluation,
    of the idents of the threads that scored its queries."""
    graph = load_dataset(ARLES_CONFIG).graph
    scorers = {"constant": lambda q: np.zeros(graph.n_entities)}
    for family, norm in (("transe", 1), ("transe", 2), ("distmult", 1),
                         ("complex", 1), ("rotate", 1)):
        model = init_model(family, graph.n_entities, graph.n_relations, 6,
                           seed=5, transe_norm=norm)
        scorers[f"{family}-l{norm}"] = model_scorer(model)

    def recorded(scorer):
        idents = set()
        if threads is not None:
            threads.append(idents)

        def wrapped(q):
            idents.add(threading.get_ident())
            return scorer(q)
        return wrapped

    return {f"{name}/{split}": evaluate_fn(recorded(scorer), graph,
                                           split).to_dict()
            for name, scorer in scorers.items() for split in SPLITS}


class TestThreadPool:
    """``evaluate`` scores queries on a pool of one thread per usable CPU."""

    def test_report_equals_the_serial_loop(self):
        got = arles_reports(evaluate)
        assert got == arles_reports(serial_evaluate)
        assert all(r["hits1"] == 0.0 for name, r in got.items()
                   if name.startswith("constant/")), "not a full tie"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_report_on_one_cpu_equals_the_serial_loop(self):
        """Pinned to one CPU, the pool has one worker, and the report is
        still the serial loop's."""
        src = str(Path(fichad.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]))
        script = ("import json, os\n"
                  "os.sched_setaffinity(os.getpid(), "
                  "{min(os.sched_getaffinity(0))})\n"
                  "from fichad.linkpred import evaluate\n"
                  "from test_linkpred import arles_reports\n"
                  "threads = []\n"
                  "reports = arles_reports(evaluate, threads)\n"
                  "print(json.dumps([max(map(len, threads)), reports]))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        n_threads, reports = json.loads(proc.stdout)
        assert n_threads == 1
        assert reports == arles_reports(serial_evaluate)

    @pytest.mark.skipif(_cpus() < 2, reason="the process may use one CPU")
    def test_two_queries_are_scored_at_once(self):
        """The first two calls each wait for the other: a serial loop breaks
        the barrier after 5 s."""
        g = two_cluster_graph()
        barrier = threading.Barrier(2, timeout=5)
        calls = itertools.count()

        def scorer(q):
            if next(calls) < 2:
                barrier.wait()
            return np.zeros(g.n_entities)

        assert evaluate(scorer, g).to_dict() == serial_evaluate(
            lambda q: np.zeros(g.n_entities), g).to_dict()

    @pytest.mark.parametrize("k", [0, 9])
    def test_first_failing_query_raises_and_the_rest_are_cancelled(self, k):
        """Query k fails after query k+1 has failed otherwise; the error is
        query k's, as in the serial loop, and the queued queries are not
        scored."""
        g = two_cluster_graph()
        index = {q: i for i, q in enumerate(queries_for_split(g, "test"))}
        assert len(index) == 2 * len(g.splits["test"])
        calls = []

        def scorer(q):
            i = index[q]
            calls.append(i)
            time.sleep(0.01 if i == k + 1 else 0.02)
            if i == k:
                return np.zeros(g.n_entities - 1)
            if i == k + 1:
                return np.full(g.n_entities, np.nan)
            return np.zeros(g.n_entities)

        with pytest.raises(EvalError) as serial:
            serial_evaluate(lambda q: scorer(q) if index[q] <= k
                            else pytest.fail("scored past the failure"), g)
        calls.clear()
        with pytest.raises(EvalError) as pooled:
            evaluate(scorer, g)
        assert str(pooled.value) == str(serial.value)
        assert "shape" in str(pooled.value)
        assert len(calls) <= k + 1 + 2 * _cpus()
