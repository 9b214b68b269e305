"""Filtered link-prediction protocol: ranking and metrics.

Every test triple yields two queries (tail prediction and head prediction).
The scorer scores every entity; the rank counts all entities except the other
known answers across train ∪ valid ∪ test; ties get the real-valued mean rank,
so a constant scorer cannot game Hits@K.
"""

from __future__ import annotations

import json
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


def other_answers(graph: KnowledgeGraph, query: Query) -> set[int]:
    """Known answers to ``query`` in any split, other than its own answer."""
    if query.direction == TAIL:
        known = graph.known_tails(query.known, query.relation)
    else:
        known = graph.known_heads(query.known, query.relation)
    known.discard(query.answer)
    return known


def rank(scores: np.ndarray, answer: int, excluded: set[int]) -> float:
    """Mean-tie real-valued rank of ``answer`` among entities not ``excluded``.

    rank = 1 + #{strictly greater} + #{ties excluding the answer} / 2, each
    count taken over all scores minus the same count over the excluded ones.
    """
    s_true = scores[answer]
    other = scores[np.fromiter(excluded, dtype=np.intp, count=len(excluded))]
    greater = (np.count_nonzero(scores > s_true)
               - np.count_nonzero(other > s_true))
    ties = (np.count_nonzero(scores == s_true)
            - np.count_nonzero(other == s_true) - 1)
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
    """
    queries = queries_for_split(graph, split)
    if not queries:
        raise EvalError(f"split {split!r} is empty")
    ranks = {TAIL: [], HEAD: []}
    for q in queries:
        scores = np.asarray(scorer(q), dtype=np.float64)
        if scores.shape != (graph.n_entities,):
            raise EvalError(f"scorer returned scores of shape {scores.shape}, "
                            f"expected ({graph.n_entities},)")
        if not np.all(np.isfinite(scores)):
            raise EvalError("scorer returned non-finite scores")
        ranks[q.direction].append(rank(scores, q.answer,
                                       other_answers(graph, q)))
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
