#!/usr/bin/env python3
"""Benchmark of the fichad CLI on seeded synthetic graphs.

Run from the repository root (Python 3.10+, numpy and requests):

    python3 perfbench/run.py --workload embed-eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop: one subcommand at a time, each a
``python -m fichad.cli`` subprocess on the checkout's ``src/``, the next one
started when the previous has exited. ``--trace 0`` repeats the timed chain
for ``--seconds`` and reports end-to-end metrics; ``--trace 1`` instead runs
the chain in-process, alternately plain and under the span wrappers of
``spans.py``, and reports per-layer metrics. Both check the program's outputs.
The last stdout line is one JSON object; the exit code is non-zero when any
operation or output check failed. Workloads, metrics and the first measured
numbers are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import importlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import datagen
import spans
from stub import StubServer, image_key

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: the program's own --seed; the workload seed only shapes the inputs
PROGRAM_SEED = "0"
SETUP_SAMPLES = 5
#: timed chains per untraced run, and plain/traced pairs per traced run, at least
MIN_CHAINS = 3
MIN_PAIRS = 1
PROGRAM_MODULES = ("kg", "embed", "linkpred", "backend", "context", "prompt",
                   "cli")

#: end-to-end metrics printed per workload, in table order
E2E = (("setup_s", "s"), ("chain_wall_s", "s"), ("peak_rss_mb", "MB"),
       ("train_triples_per_s", "1/s"), ("eval_queries_per_s", "1/s"),
       ("contexts_per_s", "1/s"), ("templates_s", "s"),
       ("prompts_per_s", "1/s"), ("wire_requests_per_context", "count"),
       ("failed_op_frac", "ratio"))
#: the subset that every workload has; these gate a change (BENCHMARK.json)
GATED = ("setup_s", "chain_wall_s", "peak_rss_mb")


def layer_unit(name: str) -> str:
    if name.endswith(("_ms_p50", "_ms_p99")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_kb_mean"):
        return "KB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- running subcommands ---------------------------------------------------

@dataclass
class Step:
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    summary: dict
    stderr: str


def _summary_line(stdout: str) -> dict:
    for line in reversed(stdout.strip().splitlines()):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    return {}


class Subprocesses:
    """Each subcommand a child process, spawned and timed by ``launcher.py``.

    Create it before allocating anything: the children's peak RSS includes
    the launcher's, which includes this process's at the time it started.
    """

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.out = WORK / f"child-{os.getpid()}.out"
        self.err = WORK / f"child-{os.getpid()}.err"
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)

    def run(self, argv: list[str], cwd: Path) -> Step:
        request = {"argv": [sys.executable, "-m", "fichad.cli", *argv],
                   "cwd": str(cwd), "env": self.env,
                   "stdout": str(self.out), "stderr": str(self.err)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        reply = json.loads(reply)
        return Step(argv, reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                    reply["code"],
                    _summary_line(self.out.read_text("utf-8", "replace")),
                    self.err.read_text("utf-8", "replace")[-2000:])


class InProcess:
    """Each subcommand as ``fichad.cli.main(argv)`` in this process."""

    def __init__(self, main, recorder: spans.Recorder | None = None):
        self.main = main
        self.recorder = recorder

    def run(self, argv: list[str], cwd: Path) -> Step:
        out, err = io.StringIO(), io.StringIO()
        old = os.getcwd()
        os.chdir(cwd)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.recorder is None:
                    code = self.main(argv)
                else:
                    with self.recorder.root(f"cli.{argv[0]}"):
                        code = self.main(argv)
        except Exception:  # a crash is one failed operation, not the end
            err.write(traceback.format_exc())
            code = 70
        finally:
            wall = perf_counter() - t0
            os.chdir(old)
        return Step(argv, wall, 0.0, code, _summary_line(out.getvalue()),
                    err.getvalue()[-2000:])


def import_program() -> dict:
    """The checkout's fichad modules, refusing an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"fichad.{m}")
               for m in PROGRAM_MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"imported fichad from {where}, not from {SRC}")
    return modules


# -- bookkeeping -----------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed: subcommands, prompts, output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def step(self, step: Step) -> bool:
        self.attempted += 1
        if step.code != 0:
            self.failed += 1
            self.problems.append(f"{step.argv[0]} exited "
                                 f"{step.code}: {step.stderr.strip()[-500:]}")
        return step.code == 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {what}")
        return ok

    def prompts(self, built: int, errors: int) -> None:
        self.attempted += built + errors
        if errors:
            self.failed += errors
            self.problems.append(f"build-prompts: {errors} build errors")


@dataclass
class Rep:
    out: str
    steps: list[Step]
    wall_s: float
    stub: dict | None

    def step(self, command: str) -> list[Step]:
        return [s for s in self.steps if s.argv[0] == command]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Ctx:
    seed: int
    data: Path
    tally: Tally
    stub: StubServer | None = None
    reference: dict = field(default_factory=dict)  # digests a rerun must repeat


# -- workloads -------------------------------------------------------------

class Workload:
    name = ""
    spec: datagen.GraphSpec
    stub_latency_s: float | None = None

    def make_stub(self, ctx: Ctx) -> StubServer | None:
        return None

    def prepare(self, ctx: Ctx, runner: Subprocesses) -> bool:
        """Untimed work before the measured chain; False when it failed."""
        return True

    def chain(self, ctx: Ctx, out: str) -> list[list[str]]:
        raise NotImplementedError

    def check(self, ctx: Ctx, rep: Rep) -> None:
        raise NotImplementedError

    def cache_bytes(self, ctx: Ctx, out: str) -> int:
        return 0

    def stage_metrics(self, ctx: Ctx, reps: list[Rep]) -> dict[str, float]:
        raise NotImplementedError


def _check_prompts(ctx: Ctx, rep: Rep, path: Path, budget: int) -> None:
    summary = rep.step("build-prompts")[0].summary
    ctx.tally.prompts(summary.get("prompts", 0), summary.get("build_errors", 0))
    lines = path.read_text("utf-8").splitlines()
    ctx.tally.check(len(lines) == summary.get("prompts"),
                    f"{path} has one line per prompt")
    over = [rec["n_tokens"] for rec in map(json.loads, lines)
            if rec["n_tokens"] > budget]
    ctx.tally.check(not over, f"{len(over)} prompts exceed the budget {budget}")


def _stage_rate(reps: list[Rep], command: str, count) -> float:
    """Median over reps of items per second of the command's summed wall."""
    return statistics.median(
        sum(count(s) for s in rep.step(command))
        / sum(s.wall_s for s in rep.step(command)) for rep in reps)


class EmbedEval(Workload):
    name = "embed-eval"
    spec = datagen.GraphSpec(entities=14541, relations=237, train=8000,
                             valid=200, test=40)
    model_args = ["--family", "transe", "--dim", "200", "--negatives", "4",
                  "--epochs", "1"]

    def chain(self, ctx, out):
        return [["train-embed", "--dataset", "dataset.json", "--out", out,
                 *self.model_args, "--seed", PROGRAM_SEED],
                ["eval", "--dataset", "dataset.json",
                 "--model", f"{out}/model.ckpt"]]

    def check(self, ctx, rep):
        report = rep.step("eval")[0].summary
        report = {k: v for k, v in report.items() if k != "config_hash"}
        if "oracle" not in ctx.reference:
            ctx.reference["oracle"] = oracle_report(ctx.data,
                                                    ctx.data / rep.out / "model.ckpt")
            ctx.reference["eval"] = report
        ctx.tally.check(report == ctx.reference["eval"],
                        "eval report repeats across reruns")
        ctx.tally.check(_reports_agree(report, ctx.reference["oracle"]),
                        f"eval report {report} matches the oracle "
                        f"{ctx.reference['oracle']}")

    def stage_metrics(self, ctx, reps):
        n_test = self.spec.test
        return {"train_triples_per_s": _stage_rate(
                    reps, "train-embed", lambda s: self.spec.train),
                "eval_queries_per_s": _stage_rate(
                    reps, "eval", lambda s: 2 * n_test)}


def oracle_report(data: Path, checkpoint: Path) -> dict:
    """Filtered ranks from the benchmark's own reading of the TSVs.

    Handles are interned in file order (train, valid, test; head, relation,
    tail), which is the order the program's loader documents. Every entity is
    scored through the public ``EmbeddingModel.score_tails``/``score_heads``.
    """
    import numpy as np

    embed = import_program()["embed"]
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}
    splits: dict[str, list[tuple[int, int, int]]] = {}
    for split in ("train", "valid", "test"):
        rows = []
        for line in (data / f"{split}.tsv").read_text("utf-8").splitlines():
            if line:
                h, r, t = line.split("\t")
                h_id = ents.setdefault(h, len(ents))
                r_id = rels.setdefault(r, len(rels))
                rows.append((h_id, r_id, ents.setdefault(t, len(ents))))
        splits[split] = rows
    tails: dict[tuple[int, int], set[int]] = {}
    heads: dict[tuple[int, int], set[int]] = {}
    for rows in splits.values():
        for h, r, t in rows:
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((t, r), set()).add(h)

    model = embed.EmbeddingModel.load(checkpoint)
    everyone = np.arange(len(ents))

    def filtered_rank(scores, answer, known):
        keep = np.ones(len(ents), dtype=bool)
        keep[list(known - {answer})] = False
        s = scores[keep]
        true = scores[answer]
        return 1.0 + np.sum(s > true) + (np.sum(s == true) - 1) / 2.0

    ranks = {"head": [], "tail": []}
    for h, r, t in splits["test"]:
        ranks["tail"].append(filtered_rank(model.score_tails(h, r, everyone),
                                           t, tails[(h, r)]))
        ranks["head"].append(filtered_rank(model.score_heads(r, t, everyone),
                                           h, heads[(t, r)]))

    def metrics(values):
        v = np.asarray(values, dtype=np.float64)
        return {"mrr": float(np.mean(1.0 / v)), "hits1": float(np.mean(v <= 1)),
                "hits3": float(np.mean(v <= 3)),
                "hits10": float(np.mean(v <= 10)), "n_queries": len(values)}

    return dict(metrics(ranks["head"] + ranks["tail"]),
                head=metrics(ranks["head"]), tail=metrics(ranks["tail"]))


def _reports_agree(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() >= want.keys()
                and all(_reports_agree(got[k], v) for k, v in want.items()))
    return isinstance(got, (int, float)) and abs(got - want) <= 1e-9


class WireCold(Workload):
    name = "wire-cold"
    spec = datagen.GraphSpec(entities=16, relations=4, train=5, valid=1,
                             test=2, image_files=True)
    stub_latency_s = 0.020
    #: first attempts answered 503, one relevance request each
    n_failed_first = 2

    def make_stub(self, ctx):
        degree: dict[str, int] = {}
        for split in ("train", "valid", "test"):
            for line in (ctx.data / f"{split}.tsv").read_text("utf-8").splitlines():
                h, _, t = line.split("\t")
                degree[h] = degree.get(h, 0) + 1
                degree[t] = degree.get(t, 0) + 1
        first_image: dict[str, str] = {}
        for line in (ctx.data / "images.tsv").read_text("utf-8").splitlines():
            label, ref = line.split("\t")
            first_image.setdefault(label, ref)
        # an entity in one triple has each image scored in exactly one request
        once = sorted(e for e, d in degree.items() if d == 1)
        chosen = random.Random(ctx.seed).sample(once, self.n_failed_first)
        keys = frozenset(image_key(base64.b64encode(
            (ctx.data / first_image[e]).read_bytes()).decode("ascii"))
            for e in chosen)
        return StubServer(self.stub_latency_s, keys)

    def _backend(self, ctx, out):
        return ["--out", out, "--backend", "http", "--endpoint",
                ctx.stub.endpoint, "--model-id", "stub-vlm",
                "--seed", PROGRAM_SEED]

    def chain(self, ctx, out):
        return [["gen-context", "--dataset", "dataset.json",
                 "--variant", "fichad-1", *self._backend(ctx, out)],
                ["templates", "--dataset", "dataset.json",
                 *self._backend(ctx, out)],
                ["build-prompts", "--dataset", "dataset.json",
                 "--store", f"{out}/contexts.jsonl",
                 "--templates", f"{out}/templates.json", "--out", out,
                 "--budget", "512"]]

    def check(self, ctx, rep):
        out = ctx.data / rep.out
        n_triples = self.spec.train + self.spec.valid + self.spec.test
        ctx.tally.check(rep.step("gen-context")[0].summary.get("contexts")
                        == n_triples, f"one context per triple ({n_triples})")
        digest = sha256(out / "contexts.jsonl")
        first = ctx.reference.setdefault("contexts", digest)
        ctx.tally.check(digest == first, "contexts.jsonl digest repeats")
        templates = json.loads((out / "templates.json").read_text("utf-8"))
        ctx.tally.check(len(templates) == self.spec.relations and all(
            t.count("[A]") == 1 and t.count("[B]") == 1
            for t in templates.values()), "one [A]/[B] template per relation")
        ctx.tally.check(rep.stub["http_5xx"] == self.n_failed_first,
                        f"stub served {self.n_failed_first} planned 503s, "
                        f"got {rep.stub['http_5xx']}")
        _check_prompts(ctx, rep, out / "prompts.jsonl", 512)

    def cache_bytes(self, ctx, out):
        path = ctx.data / out / "cache.jsonl"
        return path.stat().st_size if path.exists() else 0

    def stage_metrics(self, ctx, reps):
        def contexts(s):
            return s.summary.get("contexts", 0)
        return {"contexts_per_s": _stage_rate(reps, "gen-context", contexts),
                "templates_s": statistics.median(
                    r.step("templates")[0].wall_s for r in reps),
                "prompts_per_s": _stage_rate(
                    reps, "build-prompts", lambda s: s.summary.get("prompts", 0)),
                "wire_requests_per_context": statistics.median(
                    r.stub["requests"] / contexts(r.step("gen-context")[0])
                    for r in reps)}


class MockWarm(Workload):
    name = "mock-warm"
    spec = datagen.GraphSpec(entities=1818, relations=237, train=34014,
                             valid=2192, test=2558)
    budget = 60
    outputs = ("f1/contexts.jsonl", "f2/contexts.jsonl", "t/templates.json",
               "p/prompts.jsonl")

    def chain(self, ctx, out):
        cache = ["--cache", "cache.jsonl", "--seed", PROGRAM_SEED]
        return [["gen-context", "--dataset", "dataset.json", "--variant",
                 "fichad-1", "--splits", "test", "--out", f"{out}/f1", *cache],
                ["gen-context", "--dataset", "dataset.json", "--variant",
                 "fichad-2", "--out", f"{out}/f2", *cache],
                ["templates", "--dataset", "dataset.json", "--out", f"{out}/t",
                 *cache],
                ["build-prompts", "--dataset", "dataset.json", "--variant",
                 "fichad-2", "--store", f"{out}/f2/contexts.jsonl",
                 "--templates", f"{out}/t/templates.json", "--out", f"{out}/p",
                 "--k", "5", "--budget", str(self.budget)]]

    def prepare(self, ctx, runner):
        """The same chain once against an empty cache fills it."""
        for argv in self.chain(ctx, "cold"):
            if not ctx.tally.step(runner.run(argv, ctx.data)):
                return False
        ctx.reference = {name: sha256(ctx.data / "cold" / name)
                         for name in self.outputs}
        ctx.reference["cache.jsonl"] = sha256(ctx.data / "cache.jsonl")
        return True

    def check(self, ctx, rep):
        out = ctx.data / rep.out
        for name in self.outputs:
            ctx.tally.check(sha256(out / name) == ctx.reference[name],
                            f"warm {name} is byte-identical to the cold one")
        calls = [s.summary.get("backend_calls") for s in rep.steps
                 if s.argv[0] in ("gen-context", "templates")]
        ctx.tally.check(calls == [0, 0, 0], f"no backend calls, got {calls}")
        ctx.tally.check(sha256(ctx.data / "cache.jsonl")
                        == ctx.reference["cache.jsonl"], "cache unchanged")
        _check_prompts(ctx, rep, out / "p/prompts.jsonl", self.budget)

    def cache_bytes(self, ctx, out):
        return (ctx.data / "cache.jsonl").stat().st_size

    def stage_metrics(self, ctx, reps):
        return {"contexts_per_s": _stage_rate(
                    reps, "gen-context", lambda s: s.summary.get("contexts", 0)),
                "templates_s": statistics.median(
                    r.step("templates")[0].wall_s for r in reps),
                "prompts_per_s": _stage_rate(
                    reps, "build-prompts", lambda s: s.summary.get("prompts", 0))}


WORKLOADS = {w.name: w for w in (EmbedEval(), WireCold(), MockWarm())}


# -- measurement -----------------------------------------------------------

def run_chain(wl: Workload, ctx: Ctx, runner, out: str,
              recorder: spans.Recorder | None = None,
              modules: dict | None = None) -> Rep | None:
    """One timed chain, then its output checks; None when a step failed."""
    if ctx.stub is not None:
        ctx.stub.reset()
    steps = []
    if recorder is not None:
        recorder.install(modules)
    gc.collect()
    try:
        t0 = perf_counter()
        for argv in wl.chain(ctx, out):
            steps.append(runner.run(argv, ctx.data))
            if not ctx.tally.step(steps[-1]):
                return None
        wall = perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.restore()
    rep = Rep(out, steps, wall, ctx.stub.counts() if ctx.stub else None)
    wl.check(ctx, rep)
    return rep


def _keep_going(walls: list[float], deadline: float, minimum: int) -> bool:
    """Another chain while fewer than ``minimum`` ran or it ends in time."""
    return (len(walls) < minimum
            or perf_counter() + statistics.median(walls) <= deadline)


def measure_end_to_end(wl: Workload, ctx: Ctx, runner: Subprocesses,
                       seconds: float) -> dict[str, float]:
    setup: list[float] = []

    def ingest():
        step = runner.run(["ingest", "--dataset", "dataset.json"], ctx.data)
        ctx.tally.step(step)
        setup.append(step.wall_s)

    # one set-up sample before each chain, so both span the whole window
    reps: list[Rep] = []
    walls: list[float] = []
    deadline = perf_counter() + seconds
    while _keep_going(walls, deadline, MIN_CHAINS):
        ingest()
        rep = run_chain(wl, ctx, runner, f"runs/r{len(walls)}")
        if rep is None:
            return {}
        reps.append(rep)
        walls.append(rep.wall_s)
    while len(setup) < SETUP_SAMPLES:
        ingest()
    metrics = {"setup_s": statistics.median(setup),
               "chain_wall_s": statistics.median(walls),
               "peak_rss_mb": max(s.rss_mb for r in reps for s in r.steps)}
    metrics.update(wl.stage_metrics(ctx, reps))
    return metrics


def measure_layers(wl: Workload, ctx: Ctx, seconds: float,
                   trace_path: Path) -> dict[str, float]:
    modules = import_program()
    with contextlib.suppress(ImportError):
        import requests  # noqa: F401 - the wire client imports it lazily
    main = modules["cli"].main
    plain_walls, traced_walls, tables = [], [], []
    deadline = perf_counter() + seconds
    recorder = None
    while _keep_going([u + t for u, t in zip(plain_walls, traced_walls)],
                      deadline, MIN_PAIRS):
        i = len(tables)
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            rec = spans.Recorder() if traced else None
            rep = run_chain(wl, ctx, InProcess(main, rec),
                            f"runs/{'t' if traced else 'u'}{i}", rec, modules)
            if rep is None:
                return {}
            if traced:
                traced_walls.append(rep.wall_s)
                tables.append(spans.layer_metrics(
                    rec, rep.stub, wl.stub_latency_s or 0.0,
                    wl.cache_bytes(ctx, rep.out)))
                recorder = rec
            else:
                plain_walls.append(rep.wall_s)
    recorder.write_jsonl(trace_path)
    metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0)
    return metrics


def run_workload(wl: Workload, runner: Subprocesses, seed: int,
                 seconds: float, trace: bool) -> tuple[Tally, dict[str, float]]:
    work = WORK / f"{wl.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(seed=seed, data=work / "data", tally=Tally())
    datagen.generate(wl.spec, seed, ctx.data)
    ctx.stub = wl.make_stub(ctx)
    if ctx.stub is not None:
        ctx.stub.start()
    try:
        if not wl.prepare(ctx, runner):
            metrics = {}
        elif trace:
            metrics = measure_layers(wl, ctx, seconds,
                                     WORK / f"trace-{wl.name}-{seed}.jsonl")
        else:
            metrics = measure_end_to_end(wl, ctx, runner, seconds)
    finally:
        if ctx.stub is not None:
            ctx.stub.stop()
        shutil.rmtree(work, ignore_errors=True)
    if metrics and not trace:
        metrics["failed_op_frac"] = ctx.tally.failed / max(ctx.tally.attempted, 1)
    return ctx.tally, metrics


# -- reporting -------------------------------------------------------------

def print_table(rows: list[tuple[str, dict]]) -> None:
    head = ["workload"] + [f"{n}[{u}]" for n, u in E2E]
    lines = [head] + [[name] + [f"{m[n]:.6g}" if n in m else "-"
                                for n, _ in E2E] for name, m in rows]
    widths = [max(len(r[i]) for r in lines) for i in range(len(head))]
    for r in lines:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def print_layers(name: str, metrics: dict) -> None:
    print(f"per-layer metrics, {name}:")
    for key in sorted(metrics):
        print(f"  {key:<38} {metrics[key]:>14.6g} {layer_unit(key)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fichad" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'fichad' / 'cli.py'} is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    WORK.mkdir(exist_ok=True)
    runner = Subprocesses()
    try:
        for name in names:
            tally, metrics = run_workload(WORKLOADS[name], runner, args.seed,
                                          args.seconds, bool(args.trace))
            for problem in tally.problems:
                print(f"{name}: {problem}", file=sys.stderr)
            results.append((name, tally, metrics))
    finally:
        runner.close()
    ok = all(t.failed == 0 and m for _, t, m in results)

    if args.trace:
        for name, _, metrics in results:
            print_layers(name, metrics)
    else:
        print_table([(name, m) for name, _, m in results])
    if args.workload != "all":
        _, tally, metrics = results[0]
        keys = (sorted(metrics) if args.trace else
                [k for k in GATED if k in metrics])
        units = dict(E2E)
        print(json.dumps({
            "correct": ok, "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k],
                            "unit": layer_unit(k) if args.trace else units[k]}
                        for k in keys}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
