"""Operator CLI: ingest, train, evaluate, generate context, build prompts.

Each subcommand writes its artifacts under ``--out`` and prints a single JSON
summary line. Exit codes: 0 success, 1 input error, 2 backend error, 64 usage.
Runs are offline-first (mock backend) unless an endpoint is configured, and
resumable through the response cache: re-running against an existing cache
performs no duplicate backend calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import backend as be
from . import context as cg
from . import embed, kg, linkpred, prompt

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BACKEND = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _summary(payload: dict, args) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:12]
    payload = dict(payload, config_hash=digest)
    print(json.dumps(payload, sort_keys=True))


def _split_list(text: str) -> str:
    """``--splits`` value: comma-separated names from :data:`kg.SPLITS`."""
    for name in text.split(","):
        if name not in kg.SPLITS:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {name!r} (choose from "
                f"{', '.join(map(repr, kg.SPLITS))})")
    return text


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(args):
    """Dataset, cached backend, prompt templates and out dir for generation."""
    if args.backend == "http":
        for flag, value in (("--endpoint", args.endpoint),
                            ("--model-id", args.model_id)):
            if not value:
                raise be.RequestError(f"--backend http requires {flag}")
        inner = be.HttpBackend(args.endpoint, args.model_id)
    else:
        inner = be.MockBackend(seed=args.seed)
    ds = kg.load_dataset(args.dataset)
    cache = be.ResponseCache(args.cache or Path(args.out) / "cache.jsonl")
    templates = (cg.PromptTemplateSet.load_dir(args.prompts) if args.prompts
                 else cg.PromptTemplateSet())
    return ds, be.CachedBackend(inner, cache), templates, _out_dir(args)


# -- subcommands ---------------------------------------------------------

def cmd_ingest(args) -> int:
    ds = kg.load_dataset(args.dataset)
    g = ds.graph
    _summary({
        "dataset": ds.dataset_id, "entities": g.n_entities,
        "relations": g.n_relations,
        "train": len(g.splits["train"]), "valid": len(g.splits["valid"]),
        "test": len(g.splits["test"]),
        "entities_with_images": len(ds.assets.entities_with_images()),
        "skipped_image_lines": ds.assets.skipped_image_lines,
        "duplicate_description_lines": ds.assets.duplicate_description_lines,
    }, args)
    return EXIT_OK


def cmd_train_embed(args) -> int:
    ds = kg.load_dataset(args.dataset)
    cfg = embed.TrainConfig(family=args.family, dim=args.dim,
                            epochs=args.epochs, lr=args.lr,
                            batch_size=args.batch_size,
                            negatives=args.negatives, margin=args.margin,
                            loss=args.loss, l2=args.l2, seed=args.seed)
    losses = []
    model = embed.train(cfg, ds.graph, log=lambda e, l: losses.append(l))
    out = _out_dir(args)
    ckpt = out / "model.ckpt"
    model.save(ckpt)
    _summary({"checkpoint": str(ckpt), "family": cfg.family,
              "final_loss": losses[-1] if losses else None,
              "epochs": cfg.epochs}, args)
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = kg.load_dataset(args.dataset)
    model = embed.EmbeddingModel.load(args.model)
    report = linkpred.evaluate(linkpred.model_scorer(model), ds.graph,
                               split=args.split)
    if args.out:
        out = _out_dir(args)
        (out / "report.json").write_text(report.to_json() + "\n",
                                         encoding="utf-8")
        print(report.to_table(), file=sys.stderr)
    _summary(report.to_dict(), args)
    return EXIT_OK


def cmd_filter_images(args) -> int:
    ds, bk, templates, out = _setup(args)
    g, assets = ds.graph, ds.assets
    n_retained = n_skipped = 0
    with open(out / "filtered_images.jsonl", "w", encoding="utf-8",
              newline="\n") as fh:
        for t in g.splits[args.split]:
            head = g.entities.display_name(t.head)
            tail = g.entities.display_name(t.tail)
            fhd, ftl, skipped = cg.filter_images(
                head, tail, assets.images_of(t.head), assets.images_of(t.tail),
                args.tau, bk, templates)
            n_retained += len(fhd) + len(ftl)
            n_skipped += skipped
            rec = {"head": g.entities.label_of(t.head),
                   "relation": g.relations.label_of(t.relation),
                   "tail": g.entities.label_of(t.tail),
                   "head_images": [[s.ref, s.score] for s in fhd],
                   "tail_images": [[s.ref, s.score] for s in ftl]}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _summary({"triples": len(g.splits[args.split]), "retained": n_retained,
              "skipped_images": n_skipped, **bk.counts()}, args)
    return EXIT_OK


def cmd_gen_context(args) -> int:
    ds, bk, templates, out = _setup(args)
    gen = cg.ContextGenerator(ds.graph, ds.assets, bk, templates=templates,
                              tau=args.tau, seed=args.seed)
    contexts = gen.generate_for_splits(args.variant,
                                       splits=tuple(args.splits.split(",")))
    cg.write_context_store(out / "contexts.jsonl", contexts)
    _summary({"contexts": len(contexts),
              "fallbacks": sum(c.fallback for c in contexts),
              "skipped_images": gen.skipped_images,
              "degraded_compositions": gen.degraded_compositions,
              **bk.counts(),
              "store": str(out / "contexts.jsonl")}, args)
    return EXIT_OK


def cmd_hints(args) -> int:
    ds, bk, templates, out = _setup(args)
    g, assets = ds.graph, ds.assets
    seen = set()
    n = 0
    with open(out / "hints.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for t in g.splits[args.split]:
            key = (t.head, t.relation)
            if key in seen:
                continue
            seen.add(key)
            name = g.entities.display_name(t.head)
            summary, _ = cg.entity_summary(name, assets.images_of(t.head), bk,
                                           templates)
            text, flagged = cg.conceptual_hint(g, t.head, t.relation, summary,
                                               bk, templates, seed=args.seed)
            fh.write(json.dumps({"entity": g.entities.label_of(t.head),
                                 "relation": g.relations.label_of(t.relation),
                                 "text": text, "flagged": flagged},
                                sort_keys=True, ensure_ascii=False) + "\n")
            n += 1
    _summary({"hints": n, **bk.counts()}, args)
    return EXIT_OK


def cmd_templates(args) -> int:
    ds, bk, templates, out = _setup(args)
    g = ds.graph
    result = {}
    for r in range(g.n_relations):
        result[g.relations.label_of(r)] = cg.relation_template(
            g, r, bk, templates, assets=ds.assets, seed=args.seed)
    (out / "templates.json").write_text(
        json.dumps(result, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8")
    _summary({"relations": len(result), **bk.counts()}, args)
    return EXIT_OK


def cmd_build_prompts(args) -> int:
    ds = kg.load_dataset(args.dataset)
    g = ds.graph
    contexts = cg.read_context_store(args.store)
    index = prompt.ContextIndex(contexts, g)
    rel_templates = {}
    if args.templates:
        rel_templates = json.loads(Path(args.templates).read_text("utf-8"))
    budget = (prompt.TokenBudget(args.budget) if args.budget is not None
              else None)
    inputs = []
    build_errors = 0
    for q in linkpred.queries_for_split(g, args.split):
        try:
            inputs.append(prompt.build_kgc_input(
                q, index, g, k=args.k, variant=args.variant, budget=budget,
                relation_templates=rel_templates))
        except prompt.BuildError:
            build_errors += 1
    out = _out_dir(args)
    prompt.export_prompts(inputs, out / "prompts.jsonl")
    if args.preview and inputs:
        print(inputs[0].text, file=sys.stderr)
    _summary({"prompts": len(inputs), "build_errors": build_errors,
              "truncated": sum(i.truncated for i in inputs),
              "skipped_neighbors": sum(i.skipped_neighbors for i in inputs),
              "out": str(out / "prompts.jsonl")}, args)
    return EXIT_OK


def _stats(args) -> cg.CoverageStats:
    ds = kg.load_dataset(args.dataset)
    contexts = cg.read_context_store(args.store)
    return cg.corpus_stats(contexts, ds.graph, ds.assets,
                           dataset_id=ds.dataset_id)


def cmd_stats(args) -> int:
    stats = _stats(args)
    print(stats.to_table(), file=sys.stderr)
    if args.out:
        out = _out_dir(args)
        (out / "stats.json").write_text(
            json.dumps(stats.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    _summary(stats.to_dict(), args)
    return EXIT_OK


def cmd_coverage(args) -> int:
    stats = _stats(args)
    payload = {"dataset": stats.dataset_id,
               "single_entity_coverage": stats.single_entity_coverage,
               "both_entity_coverage": stats.both_entity_coverage,
               "fichad2_entity_coverage": stats.fichad2_entity_coverage}
    print(stats.to_table(), file=sys.stderr)
    _summary(payload, args)
    return EXIT_OK


# -- argument wiring -----------------------------------------------------

def _add_backend_args(p):
    p.add_argument("--backend", choices=["mock", "http"], default="mock")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--endpoint", default="")
    p.add_argument("--model-id", dest="model_id", default="")
    p.add_argument("--cache", default=None,
                   help="response cache path (default: <out>/cache.jsonl)")
    p.add_argument("--prompts", default=None,
                   help="directory of prompt template .txt files")
    p.add_argument("--tau", type=float, default=cg.DEFAULT_TAU)


def build_parser() -> _Parser:
    parser = _Parser(prog="fichad")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset and report statistics")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-embed", help="train a structural baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=list(embed.FAMILIES), default="transe")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=128,
                   help="positives between NaN/Inf checks; every positive "
                        "updates the parameters at once")
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--loss", choices=list(embed.LOSSES), default="margin")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_embed)

    p = sub.add_parser("eval", help="filtered link-prediction evaluation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter-images", help="link-aware image filtering")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    _add_backend_args(p)
    p.set_defaults(func=cmd_filter_images)

    p = sub.add_parser("gen-context", help="generate a context store")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=list(cg.VARIANTS), default=cg.V1)
    p.add_argument("--splits", type=_split_list, default="train,valid,test")
    _add_backend_args(p)
    p.set_defaults(func=cmd_gen_context)

    p = sub.add_parser("hints", help="conceptual hints for query relations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    _add_backend_args(p)
    p.set_defaults(func=cmd_hints)

    p = sub.add_parser("templates", help="relation templates with [A]/[B] slots")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_backend_args(p)
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("build-prompts", help="assemble KGC model inputs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--templates", default=None,
                   help="templates.json from the templates subcommand")
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    p.add_argument("--variant", choices=list(cg.VARIANTS), default=cg.V1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--preview", action="store_true")
    p.set_defaults(func=cmd_build_prompts)

    p = sub.add_parser("stats", help="context-corpus statistics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("coverage", help="entity coverage of generated context")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except be.BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (kg.DatasetError, embed.TrainingError, linkpred.EvalError,
            prompt.BuildError, prompt.TruncationError, cg.CompositionError,
            cg.TemplateError, be.RequestError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
