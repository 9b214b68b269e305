"""Filtered link-prediction protocol: ranking and metrics.

Every test triple yields two queries (tail prediction and head prediction).
The scorer scores every entity; the rank counts all entities except the other
known answers across train ∪ valid ∪ test; ties get the real-valued mean rank,
so a constant scorer cannot game Hits@K.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .kg import KnowledgeGraph

TAIL, HEAD = "tail", "head"


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class Query:
    """One link-prediction query: (known, r, ?) or (?, r, known)."""

    direction: str  # TAIL predicts the tail, HEAD predicts the head
    known: int
    relation: int
    answer: int


@dataclass
class DirectionReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    n_queries: int


@dataclass
class EvalReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    head: DirectionReport
    tail: DirectionReport
    n_queries: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_table(self) -> str:
        rows = [("all", self), ("head", self.head), ("tail", self.tail)]
        lines = [f"{'':>6}  {'MRR':>8}  {'H@1':>8}  {'H@3':>8}  {'H@10':>8}  {'#q':>7}"]
        for name, r in rows:
            lines.append(f"{name:>6}  {r.mrr:8.4f}  {r.hits1:8.4f}  "
                         f"{r.hits3:8.4f}  {r.hits10:8.4f}  {r.n_queries:7d}")
        return "\n".join(lines)


def rank(scores: np.ndarray, answer: int, known: np.ndarray) -> float:
    """Mean-tie real-valued rank of ``answer`` among entities that are not
    other known answers; ``known`` holds each known answer once, ``answer``
    too, so it ties itself once in each tie count below and they cancel.

    rank = 1 + #{strictly greater} + #{ties} / 2, each count taken over all
    scores minus the same count over ``known``."""
    s_true = scores[answer]
    known_scores = scores[known]
    greater = (np.count_nonzero(scores > s_true)
               - np.count_nonzero(known_scores > s_true))
    ties = (np.count_nonzero(scores == s_true)
            - np.count_nonzero(known_scores == s_true))
    return 1.0 + int(greater) + int(ties) / 2.0


def queries_for_split(graph: KnowledgeGraph, split: str) -> list[Query]:
    out = []
    for head, relation, tail in graph.splits[split].tolist():
        out.append(Query(TAIL, head, relation, tail))
        out.append(Query(HEAD, tail, relation, head))
    return out


def evaluate(scorer, graph: KnowledgeGraph, split: str = "test") -> EvalReport:
    """Run the filtered protocol over ``split``.

    ``scorer(query)`` must return one finite score per entity handle, shape
    ``(n_entities,)``; higher = more plausible. The other known answers are
    left out of the rank, not out of the scoring.

    Queries are scored and ranked on a thread pool with one worker per CPU
    the process may use, so ``scorer`` may be called from several threads
    at once and must be safe to call concurrently (``model_scorer`` only
    reads the model). numpy releases the interpreter lock inside its array
    loops, so the scoring of different queries overlaps. Ranks are collected
    in query order, so the report does not depend on the worker count. The
    first failing query in that order raises; queries not yet started are
    then cancelled, not awaited.
    """
    from concurrent.futures import ThreadPoolExecutor

    queries = queries_for_split(graph, split)
    if not queries:
        raise EvalError(f"split {split!r} is empty")

    def query_rank(q: Query) -> float:
        scores = np.asarray(scorer(q), dtype=np.float64)
        if scores.shape != (graph.n_entities,):
            raise EvalError(f"scorer returned scores of shape {scores.shape}, "
                            f"expected ({graph.n_entities},)")
        if not np.all(np.isfinite(scores)):
            raise EvalError("scorer returned non-finite scores")
        known = (graph.known_tails(q.known, q.relation) if q.direction == TAIL
                 else graph.known_heads(q.known, q.relation))
        return rank(scores, q.answer, known)

    ranks = {TAIL: [], HEAD: []}
    workers = (len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for q, r in zip(queries, pool.map(query_rank, queries)):
            ranks[q.direction].append(r)
    finally:
        pool.shutdown(cancel_futures=True)
    return report_from_ranks(ranks[HEAD], ranks[TAIL])


def _metrics(ranks) -> tuple[float, float, float, float]:
    """MRR and Hits@1/3/10 of a rank list; zeros for an empty list."""
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (float(np.mean(1.0 / r)), float(np.mean(r <= 1)),
            float(np.mean(r <= 3)), float(np.mean(r <= 10)))


def report_from_ranks(head_ranks: list[float],
                      tail_ranks: list[float]) -> EvalReport:
    """Aggregate per-direction rank lists into the full report."""
    all_ranks = list(head_ranks) + list(tail_ranks)
    if not all_ranks:
        raise EvalError("no ranks to aggregate")
    return EvalReport(*_metrics(all_ranks),
                      head=DirectionReport(*_metrics(head_ranks),
                                           n_queries=len(head_ranks)),
                      tail=DirectionReport(*_metrics(tail_ranks),
                                           n_queries=len(tail_ranks)),
                      n_queries=len(all_ranks))


def model_scorer(model):
    """Adapt an :class:`~fichad.embed.EmbeddingModel` to the scorer contract."""

    def scorer(query: Query) -> np.ndarray:
        if query.direction == TAIL:
            return model.score_tails(query.known, query.relation)
        return model.score_heads(query.relation, query.known)

    return scorer
