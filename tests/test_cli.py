import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fichad
from fichad.cli import main, EXIT_OK, EXIT_INPUT, EXIT_BACKEND, EXIT_USAGE
from fichad.kg import SPLITS, load_dataset
from conftest import ARLES_CONFIG, StubHandler, write_synthetic_dataset

ARLES = str(ARLES_CONFIG)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_dataset_is_input_error(capsys):
    assert main(["ingest", "--dataset", "/nope/ds.json"]) == EXIT_INPUT


def test_ingest_summary(capsys):
    code, summary = run(capsys, "ingest", "--dataset", ARLES)
    assert code == EXIT_OK
    assert summary["entities"] == 8
    assert summary["relations"] == 4
    assert summary["skipped_image_lines"] == 0
    assert summary["duplicate_description_lines"] == 0
    assert "config_hash" in summary


def test_mock_runs_never_import_requests(tmp_path):
    """The wire client's dependency is loaded only for ``--backend http``."""
    src = str(Path(fichad.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys\n"
              "from fichad.cli import main\n"
              f"assert main(['ingest', '--dataset', {ARLES!r}]) == 0\n"
              f"assert main(['gen-context', '--dataset', {ARLES!r}, "
              f"'--out', {str(tmp_path)!r}, '--splits', 'test']) == 0\n"
              "print('requests' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_gen_context_http_without_endpoint_is_input_error(capsys, tmp_path):
    code = main(["gen-context", "--dataset", ARLES, "--out", str(tmp_path),
                 "--backend", "http", "--model-id", "m"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--endpoint" in err and "--model-id" not in err


def test_train_then_eval(capsys, tmp_path):
    out = str(tmp_path / "run")
    code, summary = run(capsys, "train-embed", "--dataset", ARLES,
                        "--out", out, "--family", "transe", "--dim", "8",
                        "--epochs", "5", "--seed", "3")
    assert code == EXIT_OK
    ckpt = summary["checkpoint"]
    code, report = run(capsys, "eval", "--dataset", ARLES, "--model", ckpt)
    assert code == EXIT_OK
    assert 0.0 < report["mrr"] <= 1.0
    assert report["n_queries"] == 2


@pytest.mark.parametrize("flag,value", [("--batch-size", "-1"),
                                        ("--batch-size", "0"),
                                        ("--l2", "-5"), ("--l2", "nan")])
def test_train_embed_rejects_bad_config(capsys, tmp_path, flag, value):
    code = main(["train-embed", "--dataset", ARLES, "--out",
                 str(tmp_path / "run"), "--epochs", "1", flag, value])
    assert code == EXIT_INPUT
    assert "batch_size >= 1, l2 >= 0 required" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_eval_truncated_checkpoint_is_input_error(capsys, tmp_path):
    code, summary = run(capsys, "train-embed", "--dataset", ARLES,
                        "--out", str(tmp_path), "--dim", "4", "--epochs", "1")
    assert code == EXIT_OK
    ckpt = Path(summary["checkpoint"])
    ckpt.write_bytes(ckpt.read_bytes()[:8])
    assert main(["eval", "--dataset", ARLES, "--model", str(ckpt)]) == EXIT_INPUT
    assert f"input error: truncated checkpoint: {ckpt}" in capsys.readouterr().err


def test_filter_images_writes_jsonl(capsys, tmp_path):
    out = tmp_path / "f"
    code, summary = run(capsys, "filter-images", "--dataset", ARLES,
                        "--out", str(out), "--split", "train", "--seed", "1")
    assert code == EXIT_OK
    lines = (out / "filtered_images.jsonl").read_text().splitlines()
    assert len(lines) == summary["triples"] == 7
    # every image lookup is either a backend call or a cache hit
    ds = load_dataset(ARLES_CONFIG)
    scored = sum(len(ds.assets.images_of(t.head))
                 + len(ds.assets.images_of(t.tail))
                 for t in ds.graph.splits["train"])
    assert summary["backend_calls"] + summary["cache_hits"] == scored > 0
    assert summary["wire_retries"] == 0


def test_filter_images_without_logprobs_is_backend_error(
        capsys, tmp_path, monkeypatch, stub_server):
    """An endpoint that cannot score relevance fails the run (exit 2)."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1)
    monkeypatch.chdir(config.parent)  # image refs are relative paths
    (config.parent / "img").mkdir()
    for i in range(4):
        for j in range(2):
            (config.parent / f"img/ent_{i:04d}_{j}.jpg").write_bytes(b"\xff")
    code = main(["filter-images", "--dataset", str(config),
                 "--out", str(tmp_path / "f"), "--backend", "http",
                 "--endpoint", stub_server, "--model-id", "m"])
    assert code == EXIT_BACKEND
    assert "logprobs" in capsys.readouterr().err


def test_filter_images_reports_skipped_images(capsys, tmp_path, monkeypatch,
                                              stub_server):
    """Images whose relevance call fails are counted, not silently zeroed."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1, images_per_entity=1)
    monkeypatch.chdir(config.parent)  # image refs are relative paths
    (config.parent / "img").mkdir()
    for i in range(4):
        (config.parent / f"img/ent_{i:04d}_0.jpg").write_bytes(b"\xff")
    StubHandler.script = [(503, {}, {"Retry-After": "0"})] * 100
    code, summary = run(capsys, "filter-images", "--dataset", str(config),
                        "--out", str(tmp_path / "f"), "--backend", "http",
                        "--endpoint", stub_server, "--model-id", "m")
    assert code == EXIT_OK
    ds = load_dataset(config)
    scored = sum(len(ds.assets.images_of(t.head))
                 + len(ds.assets.images_of(t.tail))
                 for t in ds.graph.splits["test"])
    assert summary["skipped_images"] == scored > 0
    assert summary["retained"] == 0
    assert len(StubHandler.requests_seen) == 3 * scored


def test_templates_wire_failure_is_backend_error(capsys, tmp_path,
                                                 stub_server):
    """A dead endpoint fails the run instead of yielding literal templates."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1, images_per_entity=0)
    StubHandler.script = [(503, {}, {"Retry-After": "0"})] * 100
    code = main(["templates", "--dataset", str(config),
                 "--out", str(tmp_path / "t"), "--backend", "http",
                 "--endpoint", stub_server, "--model-id", "m"])
    assert code == EXIT_BACKEND
    assert "503" in capsys.readouterr().err
    assert not (tmp_path / "t" / "templates.json").exists()
    assert len(StubHandler.requests_seen) == 3


def test_templates_report_wire_retries(capsys, tmp_path, stub_server):
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1, images_per_entity=0)
    StubHandler.script = [
        (503, {}, {"Retry-After": "0"}),
        (200, {"choices": [{"message": {"content": "[A] meets [B]."}}]}),
    ]
    code, summary = run(capsys, "templates", "--dataset", str(config),
                        "--out", str(tmp_path / "t"), "--backend", "http",
                        "--endpoint", stub_server, "--model-id", "m")
    assert code == EXIT_OK
    assert (summary["backend_calls"], summary["wire_retries"],
            summary["cache_hits"]) == (1, 1, 0)
    assert len(StubHandler.requests_seen) == 2


def test_templates_and_hints(capsys, tmp_path):
    out = tmp_path / "t"
    code, summary = run(capsys, "templates", "--dataset", ARLES,
                        "--out", str(out), "--seed", "1")
    assert code == EXIT_OK
    templates = json.loads((out / "templates.json").read_text())
    assert set(templates) == {"creator", "inspiredBy", "located_in", "depict"}
    assert all("[A]" in t and "[B]" in t for t in templates.values())

    code, summary = run(capsys, "hints", "--dataset", ARLES,
                        "--out", str(out), "--split", "test", "--seed", "1")
    assert code == EXIT_OK
    assert summary["hints"] == 1
    assert {"backend_calls", "cache_hits", "wire_retries",
            "cache_corrupt_lines"} <= summary.keys()


def test_full_pipeline_determinism_and_cache(capsys, tmp_path):
    """Two identical mock runs: byte-identical artifacts, second run cache-only."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=30,
                                     n_train=60, n_valid=5, n_test=5)
    out = tmp_path / "out"

    def pipeline():
        code, gen = run(capsys, "gen-context", "--dataset", str(config),
                        "--out", str(out), "--variant", "fichad-1",
                        "--seed", "7")
        assert code == EXIT_OK
        code, built = run(capsys, "build-prompts", "--dataset", str(config),
                          "--store", str(out / "contexts.jsonl"),
                          "--out", str(out), "--k", "3", "--budget", "120")
        assert code == EXIT_OK
        return gen, built, (out / "contexts.jsonl").read_bytes(), \
            (out / "prompts.jsonl").read_bytes()

    gen1, built1, ctx1, prompts1 = pipeline()
    gen2, built2, ctx2, prompts2 = pipeline()
    assert ctx1 == ctx2
    assert prompts1 == prompts2
    assert gen1["backend_calls"] > 0
    assert gen2["backend_calls"] == 0  # resumable: all cache hits
    assert gen2["cache_hits"] > 0
    assert gen1["wire_retries"] == gen2["wire_retries"] == 0
    assert gen1["skipped_images"] == gen1["degraded_compositions"] == 0
    assert built1["skipped_neighbors"] == 0


def test_build_prompts_zero_budget_is_input_error(capsys, tmp_path):
    """``--budget 0`` is a budget of zero tokens, not "no budget"."""
    code, _ = run(capsys, "gen-context", "--dataset", ARLES, "--out",
                  str(tmp_path), "--splits", "test")
    assert code == EXIT_OK
    code = main(["build-prompts", "--dataset", ARLES, "--store",
                 str(tmp_path / "contexts.jsonl"), "--out", str(tmp_path / "p"),
                 "--budget", "0"])
    assert code == EXIT_INPUT
    assert "token budget must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "p" / "prompts.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "model.ckpt", "--split", "bogus"],
    ["filter-images", "--out", "o", "--split", "bogus"],
    ["hints", "--out", "o", "--split", "bogus"],
    ["build-prompts", "--store", "s.jsonl", "--out", "o", "--split", "bogus"],
    ["gen-context", "--out", "o", "--splits", "train,bogus"],
], ids=lambda argv: argv[0])
def test_unknown_split_is_usage_error(capsys, tmp_path, argv):
    argv = [argv[0], "--dataset", ARLES,
            *(str(tmp_path / a) if a in ("o", "s.jsonl", "model.ckpt") else a
              for a in argv[1:])]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    # argparse quotes the choices on some Python versions only
    assert "bogus" in err and all(split in err for split in SPLITS)
    assert not (tmp_path / "o").exists()


def test_stats_and_coverage(capsys, tmp_path):
    out = tmp_path / "s"
    code, _ = run(capsys, "gen-context", "--dataset", ARLES, "--out", str(out),
                  "--variant", "fichad-2", "--seed", "7")
    assert code == EXIT_OK
    code, stats = run(capsys, "stats", "--dataset", ARLES,
                      "--store", str(out / "contexts.jsonl"),
                      "--out", str(out))
    assert code == EXIT_OK
    assert stats["n_entities"] == 8
    assert stats["with_fichad2"] <= 8
    assert (out / "stats.json").exists()

    code, cov = run(capsys, "coverage", "--dataset", ARLES,
                    "--store", str(out / "contexts.jsonl"))
    assert code == EXIT_OK
    assert 0.0 <= cov["fichad2_entity_coverage"] <= 1.0


def test_gen_context_variant_1x_uses_descriptions(capsys, tmp_path):
    out = tmp_path / "x"
    code, summary = run(capsys, "gen-context", "--dataset", ARLES,
                        "--out", str(out), "--variant", "fichad-1+x",
                        "--splits", "test", "--seed", "7")
    assert code == EXIT_OK
    line = (out / "contexts.jsonl").read_text().splitlines()[0]
    rec = json.loads(line)
    assert rec["variant"] == "fichad-1+x"
