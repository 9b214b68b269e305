"""Operator CLI: ingest, train, evaluate, generate context, build prompts.

Each subcommand writes its artifacts under ``--out`` and prints a single JSON
summary line. Exit codes: 0 success, 1 input error, 2 backend error, 64 usage,
130 interrupted (Ctrl-C; requests still in flight are abandoned, not awaited).
Runs are offline-first (mock backend) unless an endpoint is configured, and
resumable through the response cache: re-running against an existing cache
performs no duplicate backend calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

from . import backend as be
from . import context as cg
from . import embed, kg, linkpred, prompt

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BACKEND = 2
EXIT_USAGE = 64
EXIT_INTERRUPTED = 130


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


def _setup(args, ds, tau: float = cg.DEFAULT_TAU):
    """A ContextGenerator over the cached backend, and the out dir."""
    if args.backend == "http":
        for flag, value in (("--endpoint", args.endpoint),
                            ("--model-id", args.model_id)):
            if not value:
                raise be.RequestError(f"--backend http requires {flag}")
        inner = be.HttpBackend(args.endpoint, args.model_id)
    else:
        inner = be.MockBackend(seed=args.seed)
    cache = be.ResponseCache(args.cache or Path(args.out) / "cache.jsonl")
    templates = (cg.load_templates(args.prompts) if args.prompts
                 else cg.DEFAULT_TEMPLATES)
    gen = cg.ContextGenerator(ds.graph, ds.assets,
                              be.CachedBackend(inner, cache),
                              templates=templates, tau=tau, seed=args.seed)
    return gen, _out_dir(args)


# -- subcommands ---------------------------------------------------------

def cmd_ingest(args, ds) -> int:
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


#: glibc ``mallopt`` parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _retain_freed_heap() -> None:
    """Keep up to 64 MB of freed heap for reuse, where the C library is glibc.

    ``train-embed`` and ``eval`` set it before any embedding work. A training
    step allocates and frees about 12 MB of temporaries (TransE, d = 200,
    128 positives with 4 negatives each). By default glibc returns free
    memory at the top of the heap to the kernel once it exceeds a trim
    threshold of twice the largest block freed so far, a few MB here, so
    every step faulted its temporaries in again: about 3,200 page faults per
    step, half of the training time of a one-epoch run. Scoring is the same
    case: each 256-row block's temporaries (400 KB at d = 200) sit above
    glibc's default 128 KB mmap threshold, so without the policy every block
    maps and faults them in afresh, about three times the time per query.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cmd_train_embed(args, ds) -> int:
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


def cmd_eval(args, ds) -> int:
    model = embed.EmbeddingModel.load(args.model)
    g = ds.graph
    if (model.n_entities, model.n_relations) != (g.n_entities, g.n_relations):
        raise linkpred.EvalError(
            f"checkpoint {args.model} holds {model.n_entities} entities / "
            f"{model.n_relations} relations, dataset {ds.dataset_id} "
            f"{g.n_entities} / {g.n_relations}")
    report = linkpred.evaluate(linkpred.model_scorer(model), g,
                               split=args.split)
    if args.out:
        out = _out_dir(args)
        (out / "report.json").write_text(report.to_json() + "\n",
                                         encoding="utf-8")
        print(report.to_table(), file=sys.stderr)
    _summary(report.to_dict(), args)
    return EXIT_OK


def cmd_filter_images(args, ds) -> int:
    gen, out = _setup(args, ds, args.tau)
    g = ds.graph
    n_retained = 0
    with open(out / "filtered_images.jsonl", "w", encoding="utf-8",
              newline="\n") as fh:
        for t, (fhd, ftl) in zip(g.triples(args.split),
                                 gen.filtered_images(g.triples(args.split))):
            n_retained += len(fhd) + len(ftl)
            rec = {"head": g.entities.label_of(t.head),
                   "relation": g.relations.label_of(t.relation),
                   "tail": g.entities.label_of(t.tail),
                   "head_images": [[s.ref, s.score] for s in fhd],
                   "tail_images": [[s.ref, s.score] for s in ftl]}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _summary({"triples": len(g.splits[args.split]), "retained": n_retained,
              "skipped_images": gen.skipped_images, **gen.backend.counts()},
             args)
    return EXIT_OK


def cmd_gen_context(args, ds) -> int:
    gen, out = _setup(args, ds, args.tau)
    contexts = gen.generate_for_splits(args.variant,
                                       splits=tuple(args.splits.split(",")))
    cg.write_context_store(out / "contexts.jsonl", contexts)
    _summary({"contexts": len(contexts),
              "fallbacks": sum(c.fallback for c in contexts),
              "skipped_images": gen.skipped_images,
              "degraded_compositions": gen.degraded_compositions,
              **gen.backend.counts(),
              "store": str(out / "contexts.jsonl")}, args)
    return EXIT_OK


def cmd_hints(args, ds) -> int:
    gen, out = _setup(args, ds)
    g = ds.graph
    pairs = dict.fromkeys((head, relation) for head, relation, _
                          in g.splits[args.split].tolist())
    n_flagged = 0
    with open(out / "hints.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for (head, relation), (text, flagged) in zip(pairs, gen.hints(pairs)):
            n_flagged += flagged
            fh.write(json.dumps({"entity": g.entities.label_of(head),
                                 "relation": g.relations.label_of(relation),
                                 "text": text, "flagged": flagged},
                                sort_keys=True, ensure_ascii=False) + "\n")
    _summary({"hints": len(pairs), "flagged": n_flagged,
              **gen.backend.counts()}, args)
    return EXIT_OK


def cmd_templates(args, ds) -> int:
    gen, out = _setup(args, ds)
    rel = ds.graph.relations
    result = dict(zip(map(rel.label_of, range(len(rel))),
                      gen.relation_templates()))
    (out / "templates.json").write_text(
        json.dumps(result, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8")
    _summary({"relations": len(result), **gen.backend.counts()}, args)
    return EXIT_OK


def cmd_build_prompts(args, ds) -> int:
    g = ds.graph
    with closing(cg.read_context_store(args.store)) as contexts:
        index = prompt.ContextIndex(contexts, g)
    rel_templates = {}
    if args.templates:
        try:
            rel_templates = json.loads(Path(args.templates).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.templates}: {exc}") from None
        if not (isinstance(rel_templates, dict) and all(
                isinstance(v, str) for v in rel_templates.values())):
            raise ValueError(f"{args.templates}: not a JSON object mapping "
                             "relation labels to template strings")
    budget = (prompt.TokenBudget(args.budget) if args.budget is not None
              else None)
    counts = Counter(prompts=0, build_errors=0, truncated=0,
                     skipped_neighbors=0)

    def inputs():
        for q in linkpred.queries_for_split(g, args.split):
            try:
                item = prompt.build_kgc_input(
                    q, index, g, k=args.k, variant=args.variant,
                    budget=budget, relation_templates=rel_templates)
            except prompt.BuildError:
                counts["build_errors"] += 1
                continue
            counts.update(prompts=1, truncated=item.truncated,
                          skipped_neighbors=item.skipped_neighbors)
            if args.preview and counts["prompts"] == 1:
                print(item.text, file=sys.stderr)
            yield item

    out = _out_dir(args)
    prompt.export_prompts(inputs(), out / "prompts.jsonl")
    _summary({**counts, "out": str(out / "prompts.jsonl")}, args)
    return EXIT_OK


def cmd_stats(args, ds) -> int:
    with closing(cg.read_context_store(args.store)) as contexts:
        stats = cg.corpus_stats(contexts, ds.graph, ds.assets,
                                dataset_id=ds.dataset_id)
    print(stats.to_table(), file=sys.stderr)
    if args.out:
        out = _out_dir(args)
        (out / "stats.json").write_text(
            json.dumps(stats.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    _summary(stats.to_dict(), args)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="fichad")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--dataset", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    command("ingest", cmd_ingest, "load a dataset and report statistics")

    p = command("train-embed", cmd_train_embed, "train a structural baseline")
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=list(embed.FAMILIES), default="transe")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=128,
                   help="positives per minibatch step; their gradients are "
                        "summed, not averaged")
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--loss", choices=list(embed.LOSSES), default="margin")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = command("eval", cmd_eval, "filtered link-prediction evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    p.add_argument("--out", default=None)

    p = command("filter-images", cmd_filter_images, "link-aware image filtering")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    _add_backend_args(p)
    p.add_argument("--tau", type=float, default=cg.DEFAULT_TAU)

    p = command("gen-context", cmd_gen_context, "generate a context store")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=list(cg.VARIANTS), default=cg.V1)
    p.add_argument("--splits", type=_split_list, default="train,valid,test")
    _add_backend_args(p)
    p.add_argument("--tau", type=float, default=cg.DEFAULT_TAU)

    p = command("hints", cmd_hints, "conceptual hints for query relations")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    _add_backend_args(p)

    p = command("templates", cmd_templates,
                "relation templates with [A]/[B] slots")
    p.add_argument("--out", required=True)
    _add_backend_args(p)

    p = command("build-prompts", cmd_build_prompts, "assemble KGC model inputs")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--templates", default=None,
                   help="templates.json from the templates subcommand")
    p.add_argument("--split", choices=kg.SPLITS, default="test")
    p.add_argument("--variant", choices=list(cg.VARIANTS), default=cg.V1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--preview", action="store_true")

    p = command("stats", cmd_stats, "context-corpus statistics and coverage")
    p.add_argument("--store", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ds = kg.load_dataset(args.dataset)
        if args.func in (cmd_train_embed, cmd_eval):
            _retain_freed_heap()
        return args.func(args, ds)
    except be.BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (kg.DatasetError, embed.TrainingError, linkpred.EvalError,
            prompt.BuildError, prompt.TruncationError, cg.TemplateError,
            be.RequestError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        # a normal exit joins the wire pool's threads, each waiting out its
        # request (up to TIMEOUT_S); leave without joining them
        print("interrupted", file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(EXIT_INTERRUPTED)


if __name__ == "__main__":
    sys.exit(main())
