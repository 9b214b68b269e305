"""The benchmark's span recorder still finds the functions it times."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
#: targets the program no longer has; their spans read 0
STALE = {"linkpred.filtered_candidates",
         # one request entry point per layer: ``answer_many`` for backends,
         # the ContextGenerator batch methods for context
         "backend.CachedBackend.generate", "backend.CachedBackend.relevance",
         "backend.MockBackend.generate", "backend.MockBackend.relevance",
         "backend.HttpBackend.generate", "backend.HttpBackend.relevance",
         "context.ContextGenerator.triple_context",
         "context.ContextGenerator.entity_context", "context.filter_images",
         "context.lamm_context", "context.entity_summary",
         "context.conceptual_hint", "context.relation_template"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(mod_name: str, path: str) -> bool:
    owner = importlib.import_module(f"fichad.{mod_name}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    return owner is not None and attr in vars(owner)


def test_every_span_target_resolves():
    spans = load_spans()
    targets = [(mod, path) for mod, path, _, _ in spans.TARGETS]
    targets += [(mod, path) for mod, path, _ in spans.RETURNS_TRACED]
    missing = {f"{mod}.{path}" for mod, path in targets
               if not resolves(mod, path)}
    assert missing <= STALE

