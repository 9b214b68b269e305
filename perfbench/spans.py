"""Span recorder that wraps fichad's layer boundaries from outside.

The program has no tracing of its own; ``Recorder.install`` replaces chosen
module functions and class methods with timing wrappers and ``restore`` puts
the originals back. A span is ``[id, name, start, end, parent]``; the parent
is the innermost open span of the same thread, or the current root span (one
per CLI subcommand). Spans and counts stay in memory until ``write_jsonl``.

``layer_metrics`` turns one traced chain into the per-layer table. A span's
self time is its duration minus the union of its child spans.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("kg", "embed", "linkpred", "backend", "context", "prompt")


def _count_filter_images(counts, bound, result):
    counts["context.images_scored"] += (len(bound.arguments["images_head"])
                                        + len(bound.arguments["images_tail"]))
    counts["context.images_kept"] += len(result[0]) + len(result[1])


def _count_contexts(counts, bound, result):
    counts["context.contexts"] += len(result)
    counts["context.fallbacks"] += sum(bool(c.fallback) for c in result)


def _count_prompt(counts, bound, result):
    counts["prompt.built"] += 1
    counts["prompt.truncated"] += bool(result.truncated)
    counts["prompt.skipped_neighbors"] += result.skipped_neighbors


#: (module, attribute path, span name, result hook). Targets a later version
#: of the program no longer has are skipped and listed in ``missing``.
TARGETS = (
    ("kg", "load_dataset", "kg.load_dataset", None),
    ("kg", "KnowledgeGraph.__init__", "kg.graph_index", None),
    ("kg", "KnowledgeGraph.triples_with_relation", "kg.triples_with_relation",
     None),
    ("embed", "train", "embed.train", None),
    ("embed", "init_model", "embed.init_model", None),
    ("embed", "negative_sample", "embed.negative_sample", None),
    ("embed", "_sgd_step", "embed.sgd_step", None),
    ("embed", "EmbeddingModel.save", "embed.save", None),
    ("embed", "EmbeddingModel.load", "embed.load", None),
    ("linkpred", "evaluate", "linkpred.evaluate", None),
    ("linkpred", "queries_for_split", "linkpred.queries_for_split", None),
    ("linkpred", "filtered_candidates", "linkpred.filtered_candidates", None),
    ("linkpred", "rank", "linkpred.rank", None),
    ("linkpred", "report_from_ranks", "linkpred.report", None),
    ("backend", "ResponseCache.__init__", "backend.cache_load", None),
    ("backend", "ResponseCache.put", "backend.cache_put", None),
    ("backend", "CachedBackend.generate", "backend.cached", None),
    ("backend", "CachedBackend.relevance", "backend.cached", None),
    ("backend", "MockBackend.generate", "backend.inner", None),
    ("backend", "MockBackend.relevance", "backend.inner", None),
    ("backend", "HttpBackend.generate", "backend.inner", None),
    ("backend", "HttpBackend.relevance", "backend.inner", None),
    ("backend", "HttpBackend._post", "backend.wire_call", None),
    ("context", "ContextGenerator.generate_for_splits", "context.generate",
     _count_contexts),
    ("context", "ContextGenerator.triple_context", "context.triple", None),
    ("context", "ContextGenerator.entity_context", "context.entity", None),
    ("context", "filter_images", "context.filter_images",
     _count_filter_images),
    ("context", "lamm_context", "context.lamm", None),
    ("context", "entity_summary", "context.entity_summary", None),
    ("context", "conceptual_hint", "context.hint", None),
    ("context", "relation_template", "context.relation_template", None),
    ("context", "sample_relation_triples", "context.sample_triples", None),
    ("context", "read_context_store", "context.store_read", None),
    ("context", "write_context_store", "context.store_write", None),
    ("prompt", "ContextIndex.__init__", "prompt.index_build", None),
    ("prompt", "build_kgc_input", "prompt.build", _count_prompt),
    ("prompt", "truncate", "prompt.truncate", None),
    ("prompt", "export_prompts", "prompt.export", None),
)
#: functions whose returned callable is itself traced under the given name
RETURNS_TRACED = (("linkpred", "model_scorer", "linkpred.score"),)


class Recorder:
    """In-memory spans and counts for one traced chain."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str):
        """One top-level span; spans of threads without an open span hang here."""
        sid = next(self._ids)
        entry = [sid, name, perf_counter(), 0.0, None]
        self._root = sid
        try:
            yield
        finally:
            entry[3] = perf_counter()
            self._root = None
            self.spans.append(entry)

    def wrap(self, fn, name: str, hook=None):
        signature = inspect.signature(fn) if hook is not None else None
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            entry = [sid, name, perf_counter(), 0.0,
                     stack[-1] if stack else recorder._root]
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.counts[name + ".errors"] += 1
                raise
            finally:
                entry[3] = perf_counter()
                stack.pop()
                recorder.spans.append(entry)
            if hook is not None:
                hook(recorder.counts, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_returning(self, fn, name: str):
        def factory(*args, **kwargs):
            return self.wrap(fn(*args, **kwargs), name)
        return factory

    def install(self, modules: dict) -> None:
        """Patch every target in ``modules`` (short name -> fichad module)."""
        for mod_name, path, span, hook in TARGETS:
            self._patch(modules, mod_name, path,
                        lambda fn, span=span, hook=hook: self.wrap(fn, span, hook))
        for mod_name, path, span in RETURNS_TRACED:
            self._patch(modules, mod_name, path,
                        lambda fn, span=span: self._wrap_returning(fn, span))

    def _patch(self, modules: dict, mod_name: str, path: str, make) -> None:
        owner = modules[mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{mod_name}.{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, attr, type(raw)(make(raw.__func__)))
            return
        new = make(raw)
        self._set(owner, attr, new)
        if not cls_path:
            # modules that imported the function by name hold their own binding
            for other in modules.values():
                if other is not owner and other.__dict__.get(attr) is raw:
                    self._set(other, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for sid, name, start, end, parent in sorted(self.spans,
                                                        key=lambda s: s[0]):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "missing_targets": self.missing}) + "\n")


# -- per-layer metrics ------------------------------------------------------

def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(rec: Recorder, stub_counts: dict | None, latency_s: float,
                  cache_bytes: int) -> dict[str, float]:
    """Per-layer table for one traced chain (see the benchmark README)."""
    by_id = {s[0]: s for s in rec.spans}
    children: dict[int, list[list]] = defaultdict(list)
    for s in rec.spans:
        if s[4] is not None:
            children[s[4]].append(s)
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in rec.spans:
        by_name[s[1]].append(s)

    def dur(s):
        return s[3] - s[2]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_time(s):
        return dur(s) - _union((c[2], c[3]) for c in children[s[0]])

    def ms(name):
        return [1e3 * dur(s) for s in by_name[name]]

    def ratio(num, den):
        return num / den if den else 0.0

    counts = rec.counts
    m: dict[str, float] = {}

    m["kg.load_dataset_s"] = total("kg.load_dataset")
    m["kg.graph_index_s"] = total("kg.graph_index")
    m["kg.triples_with_relation_ms_p50"] = _pct(ms("kg.triples_with_relation"),
                                                0.5)
    m["kg.triples_with_relation_calls"] = len(by_name["kg.triples_with_relation"])

    m["embed.train_s"] = total("embed.train")
    m["embed.negative_sample_s"] = total("embed.negative_sample")
    m["embed.sgd_self_s"] = sum(self_time(s) for s in by_name["embed.sgd_step"])
    m["embed.load_s"] = total("embed.load")

    m["linkpred.evaluate_s"] = total("linkpred.evaluate")
    m["linkpred.filtered_candidates_s"] = total("linkpred.filtered_candidates")
    m["linkpred.score_s"] = total("linkpred.score")
    m["linkpred.rank_s"] = total("linkpred.rank")
    # a query runs from the previous query's rank (or the evaluate start)
    # to its own rank
    query_ms = []
    for ev in by_name["linkpred.evaluate"]:
        ranks = sorted(c[3] for c in by_name["linkpred.rank"]
                       if _under(c, ev[0], by_id))
        prev = next((c[3] for c in children[ev[0]]
                     if c[1] == "linkpred.queries_for_split"), ev[2])
        for end in ranks:
            query_ms.append(1e3 * (end - prev))
            prev = end
    m["linkpred.query_ms_p50"] = _pct(query_ms, 0.5)
    m["linkpred.query_ms_p99"] = _pct(query_ms, 0.99)

    wire = by_name["backend.wire_call"]
    wire_time = sum(dur(s) for s in wire)
    stub = stub_counts or {"requests": 0, "http_5xx": 0, "connections": 0,
                           "body_bytes": 0}
    m["backend.wire_calls"] = len(wire)
    m["backend.wire_call_ms_p50"] = _pct(ms("backend.wire_call"), 0.5)
    m["backend.wire_call_ms_p99"] = _pct(ms("backend.wire_call"), 0.99)
    m["backend.wire_wait_frac"] = ratio(stub["requests"] * latency_s, wire_time)
    m["backend.retries"] = max(stub["requests"] - len(wire), 0)
    m["backend.http_5xx"] = stub["http_5xx"]
    m["backend.connections_opened"] = stub["connections"]
    m["backend.request_kb_mean"] = ratio(stub["body_bytes"] / 1024.0,
                                         stub["requests"])

    lookups = by_name["backend.cached"]
    cached_ids = {s[0] for s in lookups}
    misses = sum(1 for s in by_name["backend.inner"] if s[4] in cached_ids)
    m["backend.cache_load_s"] = total("backend.cache_load")
    m["backend.cache_lookups"] = len(lookups)
    m["backend.cache_hit_ratio"] = ratio(len(lookups) - misses, len(lookups))
    m["backend.cache_put_s"] = total("backend.cache_put")
    m["backend.cache_bytes"] = cache_bytes

    m["context.triple_ms_p50"] = _pct(ms("context.triple"), 0.5)
    m["context.triple_ms_p99"] = _pct(ms("context.triple"), 0.99)
    m["context.self_s"] = sum(self_time(s) for s in rec.spans
                              if s[1].startswith("context."))
    m["context.filter_images_self_s"] = sum(
        self_time(s) for s in by_name["context.filter_images"])
    m["context.relation_template_s"] = total("context.relation_template")
    m["context.fallback_frac"] = ratio(counts["context.fallbacks"],
                                       counts["context.contexts"])
    m["context.images_kept_ratio"] = ratio(counts["context.images_kept"],
                                           counts["context.images_scored"])
    m["context.store_write_s"] = total("context.store_write")
    m["context.store_read_s"] = total("context.store_read")

    m["prompt.index_build_s"] = total("prompt.index_build")
    m["prompt.build_ms_p50"] = _pct(ms("prompt.build"), 0.5)
    m["prompt.build_ms_p99"] = _pct(ms("prompt.build"), 0.99)
    m["prompt.truncate_s"] = total("prompt.truncate")
    m["prompt.truncated_frac"] = ratio(counts["prompt.truncated"],
                                       counts["prompt.built"])
    m["prompt.skipped_neighbors"] = counts["prompt.skipped_neighbors"]
    m["prompt.export_s"] = total("prompt.export")

    roots = [s for s in rec.spans if s[4] is None]
    traced_wall = sum(dur(s) for s in roots)
    covered = sum(_union((c[2], c[3]) for c in children[r[0]]
                         if c[1].split(".", 1)[0] in LAYERS) for r in roots)
    m["trace.uncovered_frac"] = ratio(traced_wall - covered, traced_wall)
    return m


def _under(span, ancestor: int, by_id: dict) -> bool:
    parent = span[4]
    while parent is not None:
        if parent == ancestor:
            return True
        parent = by_id[parent][4]
    return False
