import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fichad
import fichad.backend as be
from fichad.cli import (build_parser, main, EXIT_OK, EXIT_INPUT,
                        EXIT_BACKEND, EXIT_USAGE, EXIT_INTERRUPTED)
from fichad.context import DEFAULT_TEMPLATES, instantiate
from fichad.kg import SPLITS, load_dataset
from conftest import (ARLES_CONFIG, StubHandler, copy_arles,
                      write_image_files, write_synthetic_dataset)

ARLES = str(ARLES_CONFIG)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_readme_lists_every_subcommand():
    """The README's ``## CLI`` block and the parser name the same commands."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    listed = [line.split()[1] for line in block.split("```", 1)[0].splitlines()
              if line.startswith("fichad ")]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


@pytest.mark.parametrize("argv", [
    ["ingest"],
    ["train-embed", "--out", "o"],
    ["eval", "--model", "model.ckpt"],
    ["filter-images", "--out", "o"],
    ["gen-context", "--out", "o"],
    ["hints", "--out", "o"],
    ["templates", "--out", "o"],
    ["build-prompts", "--store", "s.jsonl", "--out", "o"],
    ["stats", "--store", "s.jsonl"],
], ids=lambda argv: argv[0])
def test_subcommand_without_dataset_is_usage_error(capsys, tmp_path, argv):
    argv = [str(tmp_path / a) if a in ("o", "s.jsonl", "model.ckpt") else a
            for a in argv]
    assert main(argv) == EXIT_USAGE
    assert "--dataset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["hints", "templates"])
def test_tau_only_on_filtering_subcommands(capsys, tmp_path, command):
    """Neither hints nor templates filters images, so neither takes --tau."""
    assert main([command, "--dataset", ARLES, "--out", str(tmp_path / "o"),
                 "--tau", "0.5"]) == EXIT_USAGE
    assert "--tau" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def arles_copy(tmp_path, name: str, line: str) -> str:
    """A copy of the arles fixture with ``line`` appended to file ``name``."""
    config = copy_arles(tmp_path)
    with open(tmp_path / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return str(config)


@pytest.mark.parametrize("line,fields", [("lonely_label", 1),
                                         ("arles\tArles\tcity", 3)])
def test_malformed_names_line_is_input_error(capsys, tmp_path, line, fields):
    """names.tsv is checked like every other TSV, not skipped or mangled."""
    arles_copy(tmp_path, "names.tsv", line)
    assert main(["ingest", "--dataset", str(tmp_path / "dataset.json")]) \
        == EXIT_INPUT
    assert (f"names.tsv:9: expected 2 tab-separated fields, got {fields}"
            in capsys.readouterr().err)


def test_structural_commands_never_parse_the_image_manifest(capsys, tmp_path):
    """train-embed, eval and build-prompts use no images or descriptions, so
    a malformed images.tsv does not stop them, whether the graph is parsed or
    read from the snapshot ``ingest`` wrote before the manifest broke;
    gen-context reads the manifest and names its malformed line."""
    for indexed in (False, True):
        config = copy_arles(tmp_path / str(indexed))
        out = str(tmp_path / str(indexed) / "o")
        assert main(["gen-context", "--dataset", str(config), "--out", out,
                     "--splits", "test"]) == EXIT_OK
        if indexed:
            assert main(["ingest", "--dataset", str(config)]) == EXIT_OK
        assert config.with_name("dataset.json.idx").exists() == indexed
        with open(config.with_name("images.tsv"), "a", encoding="utf-8") as fh:
            fh.write("lonely_label\n")
        assert main(["train-embed", "--dataset", str(config), "--out", out,
                     "--epochs", "1"]) == EXIT_OK
        assert main(["eval", "--dataset", str(config), "--model",
                     f"{out}/model.ckpt"]) == EXIT_OK
        assert main(["build-prompts", "--dataset", str(config), "--store",
                     f"{out}/contexts.jsonl", "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["gen-context", "--dataset", str(config), "--out", out,
                     "--splits", "test"]) == EXIT_INPUT
        assert ("images.tsv:9: expected 2 tab-separated fields, got 1"
                in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["ingest", "gen-context"])
def test_image_manifest_readers_report_its_malformed_line(capsys, tmp_path,
                                                          command):
    config = arles_copy(tmp_path, "images.tsv", "lonely_label")
    argv = [command, "--dataset", config]
    if command != "ingest":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_INPUT
    assert ("images.tsv:9: expected 2 tab-separated fields, got 1"
            in capsys.readouterr().err)


def test_missing_image_manifest_fails_structural_commands(capsys, tmp_path):
    config = arles_copy(tmp_path, "names.tsv", "")
    (tmp_path / "images.tsv").unlink()
    assert main(["train-embed", "--dataset", config, "--out",
                 str(tmp_path / "o"), "--epochs", "1"]) == EXIT_INPUT
    assert "images.tsv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cap", ["2.7", "0", '"x"', "true", "null"])
def test_bad_image_cap_is_input_error(capsys, tmp_path, cap):
    """image_cap must be an integer >= 1; the error names file and key."""
    config = copy_arles(tmp_path)
    config.write_text(config.read_text(encoding="utf-8").replace(
        '"image_cap": 3', f'"image_cap": {cap}'), encoding="utf-8")
    assert main(["ingest", "--dataset", str(config)]) == EXIT_INPUT
    assert (f"input error: {config}: image_cap must be an integer >= 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("config,key", [
    ("5", "JSON object"), ({"train": 5}, "train"), ({"valid": None}, "valid"),
    ({"images": ["a"]}, "images"), ({"names": 7}, "names")],
    ids=["not-an-object", "numeric-train", "null-valid", "list-images",
         "numeric-names"])
def test_malformed_dataset_config_is_input_error(capsys, tmp_path, config,
                                                 key):
    """A config of the wrong shape is an input error naming file and key."""
    path = copy_arles(tmp_path)
    if isinstance(config, dict):
        config = json.dumps({**json.loads(path.read_text(encoding="utf-8")),
                             **config})
    path.write_text(config, encoding="utf-8")
    assert main(["ingest", "--dataset", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: ") and key in err
    assert "Traceback" not in err


def test_missing_dataset_is_input_error(capsys):
    assert main(["ingest", "--dataset", "/nope/ds.json"]) == EXIT_INPUT


def test_ingest_summary(capsys, tmp_path):
    code, summary = run(capsys, "ingest", "--dataset",
                        str(copy_arles(tmp_path)))
    assert code == EXIT_OK
    assert summary["entities"] == 8
    assert summary["relations"] == 4
    assert summary["skipped_image_lines"] == 0
    assert summary["duplicate_description_lines"] == 0
    assert summary["skipped_description_lines"] == 0
    assert summary["skipped_name_lines"] == 0
    assert "config_hash" in summary


def test_ingest_reports_a_snapshot_it_cannot_write(capsys, tmp_path):
    """A snapshot that cannot be renamed into place costs one stderr line;
    the dataset is still checked and summarised, and no file is left."""
    config = copy_arles(tmp_path)
    config.with_name("dataset.json.idx").mkdir()  # os.replace onto it fails
    assert main(["ingest", "--dataset", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["entities"] == 8
    assert err.startswith("dataset index not written: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_ingest_counts_lines_naming_no_entity(capsys, tmp_path):
    """Description and name lines for an entity no triple names are
    dropped, and counted as image lines are."""
    config = arles_copy(tmp_path, "descriptions.tsv", "atlantis\tA lost city.")
    with open(tmp_path / "names.tsv", "a", encoding="utf-8") as fh:
        fh.write("atlantis\tAtlantis\n")
    code, summary = run(capsys, "ingest", "--dataset", config)
    assert code == EXIT_OK
    assert summary["skipped_description_lines"] == 1
    assert summary["skipped_name_lines"] == 1
    assert summary["duplicate_description_lines"] == 0


def _subprocess_env() -> dict:
    src = str(Path(fichad.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_mock_runs_never_import_requests(tmp_path):
    """The wire client's dependency and its worker pool's module are
    loaded only for ``--backend http``."""
    env = _subprocess_env()
    config = str(copy_arles(tmp_path / "data"))
    script = ("import sys\n"
              "from fichad.cli import main\n"
              f"assert main(['ingest', '--dataset', {config!r}]) == 0\n"
              f"assert main(['gen-context', '--dataset', {config!r}, "
              f"'--out', {str(tmp_path)!r}, '--splits', 'test']) == 0\n"
              "print('requests' in sys.modules,\n"
              "      'concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


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
                                        ("--l2", "-5"), ("--l2", "nan"),
                                        ("--lr", "nan"), ("--lr", "inf"),
                                        ("--lr", "0"), ("--margin", "nan"),
                                        ("--margin", "inf")])
def test_train_embed_rejects_bad_config(capsys, tmp_path, flag, value):
    code = main(["train-embed", "--dataset", ARLES, "--out",
                 str(tmp_path / "run"), "--epochs", "1", flag, value])
    assert code == EXIT_INPUT
    assert {"--lr": "lr must be a finite number > 0",
            "--margin": "margin must be finite"}.get(
                flag, "batch_size >= 1, l2 >= 0 required") \
        in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_embed_subcommands_set_heap_policy(capsys, tmp_path, monkeypatch):
    """train-embed and eval each set the freed-heap policy once: training's
    step temporaries and scoring's block temporaries both rely on it."""
    calls = []
    monkeypatch.setattr("fichad.cli._retain_freed_heap",
                        lambda: calls.append(1))
    config = str(copy_arles(tmp_path / "data"))
    code, summary = run(capsys, "train-embed", "--dataset", config,
                        "--out", str(tmp_path), "--dim", "4", "--epochs", "1")
    assert code == EXIT_OK and len(calls) == 1
    assert main(["eval", "--dataset", config,
                 "--model", summary["checkpoint"]]) == EXIT_OK
    assert len(calls) == 2
    assert main(["ingest", "--dataset", config]) == EXIT_OK
    assert len(calls) == 2


def test_eval_truncated_checkpoint_is_input_error(capsys, tmp_path):
    code, summary = run(capsys, "train-embed", "--dataset", ARLES,
                        "--out", str(tmp_path), "--dim", "4", "--epochs", "1")
    assert code == EXIT_OK
    ckpt = Path(summary["checkpoint"])
    ckpt.write_bytes(ckpt.read_bytes()[:8])
    assert main(["eval", "--dataset", ARLES, "--model", str(ckpt)]) == EXIT_INPUT
    assert f"input error: truncated checkpoint: {ckpt}" in capsys.readouterr().err


def edited_checkpoint(capsys, tmp_path, edit) -> Path:
    """A checkpoint trained on arles whose JSON header went through ``edit``."""
    code, summary = run(capsys, "train-embed", "--dataset", ARLES,
                        "--out", str(tmp_path), "--dim", "4", "--epochs", "1")
    assert code == EXIT_OK
    ckpt = Path(summary["checkpoint"])
    raw = ckpt.read_bytes()
    end = 12 + int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:end])
    edit(header)
    new = json.dumps(header).encode()
    ckpt.write_bytes(raw[:8] + len(new).to_bytes(4, "little") + new
                     + raw[end:])
    return ckpt


def test_eval_checkpoint_header_without_key_is_input_error(capsys, tmp_path):
    ckpt = edited_checkpoint(capsys, tmp_path, lambda h: h.pop("seed"))
    assert main(["eval", "--dataset", ARLES, "--model", str(ckpt)]) == EXIT_INPUT
    assert (f"input error: checkpoint header lacks seed: {ckpt}"
            in capsys.readouterr().err)


WRONG_HEADER_TYPES = [
    ("dim", "4"), ("n_entities", 8.0), ("n_relations", None), ("seed", True),
    ("transe_norm", 1.0), ("entity_complex", 0), ("relation_complex", "no"),
    ("family", ["transe"]), ("margin", "1.0"), ("margin", False)]


@pytest.mark.parametrize("key, value", WRONG_HEADER_TYPES,
                         ids=[f"{k}-{type(v).__name__}"
                              for k, v in WRONG_HEADER_TYPES])
def test_eval_checkpoint_header_of_wrong_type_is_input_error(
        capsys, tmp_path, key, value):
    """Each header value must have its JSON type (an int is not a bool);
    any other fails the run with one input-error line, not a traceback."""
    ckpt = edited_checkpoint(capsys, tmp_path,
                             lambda h: h.__setitem__(key, value))
    assert main(["eval", "--dataset", ARLES, "--model", str(ckpt)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"input error: checkpoint header {key} is not of its type: {ckpt}\n"


def test_eval_checkpoint_of_other_dataset_is_input_error(capsys, tmp_path):
    """A checkpoint sized for another vocabulary is refused before scoring."""
    code, summary = run(capsys, "train-embed", "--dataset", ARLES,
                        "--out", str(tmp_path / "run"), "--dim", "4",
                        "--epochs", "1")
    assert code == EXIT_OK
    other = tmp_path / "other"
    copy_arles(other)
    extra = "".join(f"view_of_arles\textra{i}\tvan_gogh\n" for i in range(5))
    train = other / "train.tsv"
    train.write_text(extra + train.read_text(encoding="utf-8"),
                     encoding="utf-8")
    code = main(["eval", "--dataset", str(other / "dataset.json"),
                 "--model", summary["checkpoint"]])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: checkpoint ")
    assert "8 entities / 4 relations" in err and "8 / 9" in err


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
                 for t in ds.graph.triples("train"))
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
                 for t in ds.graph.triples("test"))
    assert summary["skipped_images"] == scored > 0
    assert summary["retained"] == 0
    assert len(StubHandler.requests_seen) == 3 * scored


def _http_dataset(tmp_path, monkeypatch) -> Path:
    """Eight entities with two distinct image files each; two test triples
    over four distinct entities, and a train self-loop."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=8,
                                     n_relations=2, n_train=6, n_valid=1,
                                     n_test=2)
    write_image_files(config)
    monkeypatch.chdir(config.parent)  # image refs are relative paths
    return config


def _http(stub, out):
    return ["--out", str(out), "--backend", "http", "--endpoint",
            stub.endpoint, "--model-id", "m"]


def test_filter_images_sends_a_triples_requests_concurrently(
        capsys, tmp_path, monkeypatch, wire_stub):
    """The stub answers a request only once four are in flight together; a
    serial client breaks its barrier and every image is skipped."""
    config = _http_dataset(tmp_path, monkeypatch)
    wire_stub.barrier = threading.Barrier(4, timeout=5)
    code, summary = run(capsys, "filter-images", "--dataset", str(config),
                        *_http(wire_stub, tmp_path / "f"))
    assert code == EXIT_OK
    assert summary["skipped_images"] == 0
    assert summary["backend_calls"] == wire_stub.requests == 2 * 4


def test_gen_context_over_http_is_byte_identical_for_any_worker_count(
        capsys, tmp_path, monkeypatch, wire_stub):
    """Contexts and cache of the default pool match a serial run, one
    worker taking the requests in order; a warm rerun of either makes no
    backend call and changes nothing."""
    config = _http_dataset(tmp_path, monkeypatch)

    def outputs(out, *patches):
        with monkeypatch.context() as m:
            for owner, name, value in patches:
                m.setattr(owner, name, value)
            code, summary = run(capsys, "gen-context", "--dataset",
                                str(config), "--variant", "fichad-1",
                                *_http(wire_stub, out))
        assert code == EXIT_OK
        return ([(out / name).read_bytes()
                 for name in ("contexts.jsonl", "cache.jsonl")], summary)

    serial, cold = outputs(tmp_path / "one", (be, "WIRE_WORKERS", 1))
    assert cold["backend_calls"] > 0 and cold["skipped_images"] == 0
    assert cold["cache_hits"] > 0  # the train self-loop repeats its images
    got, summary = outputs(tmp_path / "pool")
    assert got == serial
    assert summary["backend_calls"] == cold["backend_calls"]
    assert summary["cache_hits"] == cold["cache_hits"]
    for out in (tmp_path / "one", tmp_path / "pool"):
        rerun, warm = outputs(out)
        assert rerun == serial
        assert warm["backend_calls"] == 0


def test_capability_error_mid_batch_keeps_earlier_results(
        capsys, tmp_path, monkeypatch, wire_stub):
    """A reply without logprobs at the third image of a four-image batch
    exits 2; the two results before it are cached, nothing after it."""
    config = _http_dataset(tmp_path, monkeypatch)
    ds = load_dataset(config)
    first = next(ds.graph.triples("test"))
    images = ds.assets.images_of(first.head) + ds.assets.images_of(first.tail)
    assert len(images) == 4
    wire_stub.no_logprobs = frozenset({images[2].encode()})
    code = main(["filter-images", "--dataset", str(config),
                 *_http(wire_stub, tmp_path / "f")])
    assert code == EXIT_BACKEND
    assert "logprobs" in capsys.readouterr().err
    records = (tmp_path / "f" / "cache.jsonl").read_text().splitlines()
    assert [json.loads(r)["kind"] for r in records] == ["relevance"] * 2


def test_unreadable_image_in_a_batch_is_input_error(
        capsys, tmp_path, monkeypatch, wire_stub):
    config = _http_dataset(tmp_path, monkeypatch)
    ds = load_dataset(config)
    first = next(ds.graph.triples("test"))
    missing = ds.assets.images_of(first.tail)[0]
    (config.parent / missing).unlink()
    code = main(["filter-images", "--dataset", str(config),
                 *_http(wire_stub, tmp_path / "f")])
    assert code == EXIT_INPUT
    assert missing in capsys.readouterr().err
    records = (tmp_path / "f" / "cache.jsonl").read_text().splitlines()
    assert len(records) == 2


def _describe_argv(config, stub, out) -> list[str]:
    """fichad-1 over the test split with every image kept, so each triple
    asks for both entity descriptions."""
    return ["gen-context", "--dataset", str(config), "--variant", "fichad-1",
            "--splits", "test", "--tau", "0", *_http(stub, out)]


def test_gen_context_sends_both_descriptions_at_once(
        capsys, tmp_path, monkeypatch, wire_stub):
    """The stub answers a description only once two are in flight together;
    a serial client breaks its barrier and the run fails."""
    config = _http_dataset(tmp_path, monkeypatch)
    wire_stub.barrier = threading.Barrier(2, timeout=5)
    wire_stub.barrier_on = "Describe "
    code, summary = run(capsys, *_describe_argv(config, wire_stub,
                                                tmp_path / "g"))
    assert code == EXIT_OK
    assert summary["fallbacks"] == 0
    # per triple: four relevance requests, two descriptions, one summary
    assert summary["backend_calls"] == wire_stub.requests == 2 * 7


def test_gen_context_scores_a_windows_images_in_one_wave(
        capsys, tmp_path, monkeypatch, wire_stub):
    """The stub answers a relevance request only once eight are in flight
    together: the 4 + 4 of both test triples. Per-triple batches of four
    break its barrier, and every image is skipped."""
    config = _http_dataset(tmp_path, monkeypatch)
    wire_stub.barrier = threading.Barrier(8, timeout=5)
    wire_stub.barrier_on = "Do these images depict"
    code, summary = run(capsys, "gen-context", "--dataset", str(config),
                        "--variant", "fichad-1", "--splits", "test",
                        *_http(wire_stub, tmp_path / "g"))
    assert code == EXIT_OK
    assert summary["skipped_images"] == 0
    assert summary["backend_calls"] == wire_stub.requests


def test_templates_send_every_relations_attempt_in_one_wave(
        capsys, tmp_path, monkeypatch, wire_stub):
    """The stub answers a template request only once both relations' are in
    flight together, first attempts and retries alike; serial calls break
    its barrier and the run fails."""
    config = _http_dataset(tmp_path, monkeypatch)
    wire_stub.barrier = threading.Barrier(2, timeout=5)
    wire_stub.barrier_on = "Example triples for the relation"
    code, summary = run(capsys, "templates", "--dataset", str(config),
                        *_http(wire_stub, tmp_path / "t"))
    assert code == EXIT_OK
    # the stub's sentences have no [A]/[B]: two attempts per relation
    assert summary["relations"] == 2
    assert summary["backend_calls"] == wire_stub.requests == 2 * 2


def test_failed_head_description_caches_no_tail_description(
        capsys, tmp_path, monkeypatch, wire_stub):
    """A head description answered 400 exits 2, and the descriptions sent
    with it leave no record; the relevance wave of both test triples that
    came before it is cached."""
    config = _http_dataset(tmp_path, monkeypatch)
    ds = load_dataset(config)
    head = ds.graph.entities.display_name(next(ds.graph.triples("test")).head)
    wire_stub.barrier = threading.Barrier(2, timeout=5)
    wire_stub.barrier_on = "Describe "  # the tail's reply exists, too
    wire_stub.reject = instantiate(DEFAULT_TEMPLATES["entity_description"],
                                   entity=head)
    code = main(_describe_argv(config, wire_stub, tmp_path / "g"))
    assert code == EXIT_BACKEND
    assert "400" in capsys.readouterr().err
    records = (tmp_path / "g" / "cache.jsonl").read_text().splitlines()
    assert [json.loads(r)["kind"] for r in records] == ["relevance"] * 8


def test_ctrl_c_abandons_requests_in_flight(tmp_path, monkeypatch):
    """A first SIGINT ends an HTTP run at once, with exit 130, while its
    requests wait on a server that accepts connections and never replies."""
    config = _http_dataset(tmp_path, monkeypatch)
    script = ("import signal, sys\n"
              "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
              "from fichad.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(30)
        endpoint = f"http://127.0.0.1:{server.getsockname()[1]}"
        out = tmp_path / "f"
        argv = ["filter-images", "--dataset", str(config), "--out", str(out),
                "--backend", "http", "--endpoint", endpoint, "--model-id", "m"]
        with subprocess.Popen([sys.executable, "-c", script, *argv],
                              cwd=config.parent, env=_subprocess_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            conn = None
            try:
                conn, _ = server.accept()
                proc.send_signal(signal.SIGINT)
                try:
                    _, err = proc.communicate(timeout=5)
                except subprocess.TimeoutExpired:
                    pytest.fail("the run was still going 5 s after SIGINT")
                assert proc.returncode == EXIT_INTERRUPTED
                assert err.strip().endswith("interrupted")
                assert not list(out.glob(".*.tmp"))
            finally:
                proc.kill()
                proc.communicate()
                if conn is not None:
                    conn.close()


def test_ctrl_c_abandons_queued_eval_queries(capsys, tmp_path):
    """A first SIGINT ends an eval with exit 130 while its queries are being
    scored; the queries still queued on the scoring pool are not scored."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=50,
                                     n_relations=2, n_train=60, n_valid=5,
                                     n_test=40, images_per_entity=0)
    code, summary = run(capsys, "train-embed", "--dataset", str(config),
                        "--out", str(tmp_path / "run"), "--dim", "4",
                        "--epochs", "1")
    assert code == EXIT_OK
    script = ("import signal, sys, time\n"
              "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
              "from fichad import linkpred\n"
              "from fichad.cli import main\n"
              "model_scorer = linkpred.model_scorer\n"
              "def slow_scorer(model):\n"
              "    score = model_scorer(model)\n"
              "    def scorer(q):\n"
              # one write per line: print writes the text and its newline
              # apart, so lines from two scoring threads could interleave
              "        sys.stdout.write('scoring\\n')\n"
              "        sys.stdout.flush()\n"
              "        time.sleep(0.2)\n"
              "        return score(q)\n"
              "    return scorer\n"
              "linkpred.model_scorer = slow_scorer\n"
              "sys.exit(main(sys.argv[1:]))\n")
    argv = ["eval", "--dataset", str(config), "--model", summary["checkpoint"]]
    with subprocess.Popen([sys.executable, "-c", script, *argv],
                          env=_subprocess_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            # the third call starts after a first query was scored, when
            # every query has long been queued
            for _ in range(3):
                assert proc.stdout.readline() == "scoring\n"
            proc.send_signal(signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                pytest.fail("the eval was still going 5 s after SIGINT")
            assert proc.returncode == EXIT_INTERRUPTED
            assert err.strip().endswith("interrupted")
            assert 3 + out.count("scoring\n") < 80
        finally:
            proc.kill()
            proc.communicate()


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


def test_unreachable_endpoint_is_backend_error(capsys, tmp_path, monkeypatch,
                                               dead_endpoint):
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1, images_per_entity=0)
    policy = be._retry_policy
    monkeypatch.setattr(be, "_retry_policy", lambda backoff: policy(0.01))
    code = main(["templates", "--dataset", str(config),
                 "--out", str(tmp_path / "t"), "--backend", "http",
                 "--endpoint", dead_endpoint, "--model-id", "m"])
    assert code == EXIT_BACKEND
    assert "backend unavailable" in capsys.readouterr().err


def test_non_json_reply_is_backend_error(capsys, tmp_path, monkeypatch,
                                         stub_server):
    """A 200 reply that is not JSON fails a generation request (exit 2) and
    skips a relevance request's image, as a 5xx reply after retries does."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=4,
                                     n_relations=1, n_train=3, n_valid=1,
                                     n_test=1, images_per_entity=1)
    write_image_files(config)
    monkeypatch.chdir(config.parent)  # image refs are relative paths
    StubHandler.script = [(200, b"<html>gateway</html>")] * 100
    code = main(["templates", "--dataset", str(config),
                 "--out", str(tmp_path / "t"), "--backend", "http",
                 "--endpoint", stub_server, "--model-id", "m"])
    assert code == EXIT_BACKEND
    assert "not JSON" in capsys.readouterr().err
    code, summary = run(capsys, "filter-images", "--dataset", str(config),
                        "--out", str(tmp_path / "f"), "--backend", "http",
                        "--endpoint", stub_server, "--model-id", "m")
    assert code == EXIT_OK
    assert summary["skipped_images"] == summary["backend_calls"] == 2


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


def test_hints_report_flagged(capsys, tmp_path):
    """Hints built from the relation label alone are counted."""
    config = write_synthetic_dataset(tmp_path / "ds", n_entities=10,
                                     n_relations=8, n_train=4, n_valid=1,
                                     n_test=10)
    code, summary = run(capsys, "hints", "--dataset", str(config),
                        "--out", str(tmp_path / "h"))
    assert code == EXIT_OK
    records = [json.loads(line) for line in
               (tmp_path / "h" / "hints.jsonl").read_text().splitlines()]
    ds = load_dataset(config)
    trained = {ds.graph.relations.label_of(t.relation)
               for t in ds.graph.triples("train")}
    expected = sum(r["relation"] not in trained for r in records)
    assert summary["flagged"] == sum(r["flagged"] for r in records) \
        == expected > 0
    assert summary["hints"] == len(records) > expected


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


def test_record_of_the_other_kind_is_sent_again(capsys, tmp_path):
    """A relevance record edited into a well-formed free-text record is not
    served to its relevance request: the request is sent again, and the
    store equals a clean run's."""
    def gen(out):
        code, summary = run(capsys, "gen-context", "--dataset", ARLES,
                            "--out", str(out))
        assert code == EXIT_OK
        return summary, (out / "contexts.jsonl").read_bytes()

    _, clean_store = gen(tmp_path / "clean")
    lines = (tmp_path / "clean" / "cache.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines)
                 if json.loads(line)["kind"] == be.RELEVANCE)
    record = dict(json.loads(lines[first]), kind=be.FREE_TEXT, v="yes")
    lines[first] = json.dumps(record, sort_keys=True) + "\n"
    (tmp_path / "edited").mkdir()
    (tmp_path / "edited" / "cache.jsonl").write_text("".join(lines),
                                                     encoding="utf-8")
    summary, store = gen(tmp_path / "edited")
    assert store == clean_store
    assert (summary["backend_calls"], summary["cache_corrupt_lines"]) == (1, 0)


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


def test_build_prompts_failing_on_a_later_query_leaves_no_file(capsys,
                                                               tmp_path):
    """The first query line (6 words) fits a budget of 7 and is written; the
    second (9 words) raises. The out dir then holds no prompts.jsonl and no
    temporary file."""
    config = arles_copy(tmp_path, "names.tsv",
                        "orchard\tThe Big Old Orchard Of Arles")
    code, _ = run(capsys, "gen-context", "--dataset", config, "--out",
                  str(tmp_path / "g"), "--splits", "test")
    assert code == EXIT_OK
    out = tmp_path / "p"
    code = main(["build-prompts", "--dataset", config, "--store",
                 str(tmp_path / "g" / "contexts.jsonl"), "--out", str(out),
                 "--budget", "7"])
    assert code == EXIT_INPUT
    assert "budget 7 cannot hold the query line" in capsys.readouterr().err
    assert (list(out.iterdir()) if out.exists() else []) == []


#: (subcommand, its output, its extra arguments, the stub's script for the
#: failing rerun, or None for a rerun with a budget of 7 words, and the
#: exit code and stderr of that rerun)
FAILED_RERUNS = [
    ("filter-images", "filtered_images.jsonl", [], [], EXIT_BACKEND,
     "logprobs"),
    ("hints", "hints.jsonl", [], "503", EXIT_BACKEND, "503"),
    ("gen-context", "contexts.jsonl", ["--splits", "test"], "503",
     EXIT_BACKEND, "503"),
    ("templates", "templates.json", [], "503", EXIT_BACKEND, "503"),
    ("build-prompts", "prompts.jsonl", [], None, EXIT_INPUT,
     "budget 7 cannot hold the query line"),
]


@pytest.mark.parametrize("command, output, extra, script, exit_code, error",
                         FAILED_RERUNS, ids=[c[0] for c in FAILED_RERUNS])
def test_failed_rerun_keeps_the_previous_output(
        capsys, tmp_path, monkeypatch, stub_server, command, output, extra,
        script, exit_code, error):
    """A rerun into the same out dir that fails mid-run leaves the previous
    run's output byte for byte and no temporary file. The HTTP reruns fail
    on a reply without logprobs (filter-images) or on 503s after retries;
    build-prompts fails on its second query, which a budget of 7 words
    cannot hold."""
    config = arles_copy(tmp_path / "ds", "names.tsv",
                        "orchard\tThe Big Old Orchard Of Arles")
    write_image_files(Path(config))
    monkeypatch.chdir(Path(config).parent)  # image refs are relative paths
    out = tmp_path / "out"
    argv = [command, "--dataset", config, "--out", str(out), *extra]
    if command == "build-prompts":
        code, _ = run(capsys, "gen-context", "--dataset", config, "--out",
                      str(tmp_path / "g"), "--splits", "test")
        assert code == EXIT_OK
        argv += ["--store", str(tmp_path / "g" / "contexts.jsonl")]
    code, _ = run(capsys, *argv)
    assert code == EXIT_OK
    before = (out / output).read_bytes()
    assert before
    if script is None:
        argv += ["--budget", "7"]
    else:
        argv += ["--backend", "http", "--endpoint", stub_server,
                 "--model-id", "m"]
        StubHandler.script = ([(503, {}, {"Retry-After": "0"})] * 1000
                              if script == "503" else script)
    assert main(argv) == exit_code
    assert error in capsys.readouterr().err
    assert (out / output).read_bytes() == before
    assert not list(out.glob(".*.tmp"))


def test_build_prompts_preview_prints_the_first_input(capsys, tmp_path):
    """``--preview`` prints the first built input's text to stderr, and
    nothing when every query is a build error."""
    code, _ = run(capsys, "gen-context", "--dataset", ARLES, "--out",
                  str(tmp_path), "--splits", "test")
    assert code == EXIT_OK
    (tmp_path / "empty.jsonl").write_text("")
    for store, prompts in (("contexts.jsonl", 2), ("empty.jsonl", 0)):
        code = main(["build-prompts", "--dataset", ARLES, "--store",
                     str(tmp_path / store), "--out", str(tmp_path / store[0]),
                     "--preview"])
        assert code == EXIT_OK
        std = capsys.readouterr()
        assert json.loads(std.out)["prompts"] == prompts
        lines = (tmp_path / store[0] / "prompts.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert std.err == "".join(json.loads(line)["text"] + "\n"
                                  for line in lines[:1])


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
    """``stats`` reports the coverage rates; there is no ``coverage``."""
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
    assert 0.0 <= stats["fichad2_entity_coverage"] <= 1.0
    assert {"single_entity_coverage", "both_entity_coverage"} <= stats.keys()
    written = json.loads((out / "stats.json").read_text())
    assert written == {k: v for k, v in stats.items() if k != "config_hash"}

    assert main(["coverage", "--dataset", ARLES,
                 "--store", str(out / "contexts.jsonl")]) == EXIT_USAGE


def test_gen_context_fichad2_honours_splits(capsys, tmp_path):
    """fichad-2 summarizes the entities of the chosen splits, no others."""
    out = tmp_path / "t"
    code, summary = run(capsys, "gen-context", "--dataset", ARLES,
                        "--out", str(out), "--variant", "fichad-2",
                        "--splits", "test")
    assert code == EXIT_OK
    ds = load_dataset(ARLES_CONFIG)
    ent = ds.graph.entities
    want = sorted({e for t in ds.graph.triples("test")
                   for e in (t.head, t.tail)})
    got = [json.loads(line)["subject"]["entity"] for line in
           (out / "contexts.jsonl").read_text().splitlines()]
    assert got == [ent.label_of(e) for e in want]
    assert summary["contexts"] == len(want) < ds.graph.n_entities


def test_gen_context_variant_1x_uses_descriptions(capsys, tmp_path):
    out = tmp_path / "x"
    code, summary = run(capsys, "gen-context", "--dataset", ARLES,
                        "--out", str(out), "--variant", "fichad-1+x",
                        "--splits", "test", "--seed", "7")
    assert code == EXIT_OK
    line = (out / "contexts.jsonl").read_text().splitlines()[0]
    rec = json.loads(line)
    assert rec["variant"] == "fichad-1+x"


@pytest.mark.parametrize("argv", [
    ["gen-context", "--variant", "fichad-1"],
    ["gen-context", "--variant", "fichad-2"],
    ["filter-images"],
], ids=["fichad-1", "fichad-2", "filter-images"])
def test_out_of_range_tau_is_input_error(capsys, tmp_path, argv):
    """--tau is checked once, before any generation, for every variant."""
    code = main([argv[0], "--dataset", ARLES, "--out", str(tmp_path / "o"),
                 *argv[1:], "--tau", "1.5"])
    assert code == EXIT_INPUT
    assert "tau must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_prompts_dir_is_input_error(capsys, tmp_path):
    missing = tmp_path / "no-such-prompts"
    code = main(["templates", "--dataset", ARLES, "--out", str(tmp_path / "o"),
                 "--prompts", str(missing)])
    assert code == EXIT_INPUT
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_prompt_template_file_is_input_error(capsys, tmp_path):
    """A misnamed override is reported, not loaded and then never used."""
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "relevanse.txt").write_text("Is {head} with {tail}?\n")
    code = main(["gen-context", "--dataset", ARLES,
                 "--out", str(tmp_path / "o"), "--prompts", str(prompts)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "relevanse.txt" in err and "relevance" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,reason", [
    ("Describe {entity} and {mood}.", "unknown template slots ['mood']"),
    ("Describe {entity.", "malformed template"),
    ("", "empty prompt template"),
    (" \t", "empty prompt template"),
], ids=["unknown-slot", "malformed", "empty", "blank"])
def test_unfillable_prompt_template_is_input_error(capsys, tmp_path, text,
                                                   reason):
    """An override is checked at load, even when this variant never uses it."""
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "entity_summary.txt").write_text(text + "\n")
    code = main(["gen-context", "--dataset", ARLES, "--variant", "fichad-1",
                 "--out", str(tmp_path / "o"), "--prompts", str(prompts)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(prompts / "entity_summary.txt") in err and reason in err
    assert not (tmp_path / "o").exists()


def test_prompt_override_changes_fichad2_store(capsys, tmp_path):
    """entity_summary.txt replaces that wording and no other."""
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "entity_summary.txt").write_text(
        "Summarize what the attached images show of {entity}.\n")

    def store(out, *extra):
        code, _ = run(capsys, "gen-context", "--dataset", ARLES,
                      "--out", str(out), "--variant", "fichad-2", *extra)
        assert code == EXIT_OK
        return [json.loads(line) for line in
                (out / "contexts.jsonl").read_text().splitlines()]

    default = store(tmp_path / "d")
    custom = store(tmp_path / "c", "--prompts", str(prompts))
    pairs = list(zip(default, custom, strict=True))
    assert all(d["text"] == c["text"] for d, c in pairs if d["fallback"])
    assert any(d["text"] != c["text"] for d, c in pairs if not d["fallback"])


TRIPLE = {"kind": "triple", "head": "view_of_arles", "relation": "creator",
          "tail": "van_gogh"}

#: store lines naming a label arles lacks, by test id suffix
UNKNOWN_LABEL_LINES = {
    "": ({"variant": "fichad-2",
          "subject": {"kind": "entity", "entity": "atlantis"},
          "text": "Atlantis is shown.", "images": [], "fallback": False},
         "atlantis"),
    "-relation": ({"variant": "fichad-1",
                   "subject": dict(TRIPLE, relation="painted_by"),
                   "text": "x"}, "painted_by"),
    "-fallback-head": ({"variant": "fichad-1",
                        "subject": dict(TRIPLE, head="atlantis"),
                        "text": "x", "fallback": True}, "atlantis"),
}


@pytest.mark.parametrize("command,record,label", [
    pytest.param(command, record, label, id=command + case)
    for case, (record, label) in UNKNOWN_LABEL_LINES.items()
    for command in ("build-prompts", "stats")])
def test_store_with_unknown_entity_is_input_error(capsys, tmp_path, command,
                                                  record, label):
    """Both commands resolve every line's labels, the relation and fallback
    lines included, so they reject the same stores."""
    store = tmp_path / "s.jsonl"
    store.write_text(json.dumps(record) + "\n")
    code = main([command, "--dataset", ARLES, "--store", str(store),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert f"unknown label: {label!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,line", [
    (["build-prompts", "--out", "o"], "[1]"),
    (["stats"], '{"variant": "fichad-1"}'),
    (["stats"], '{"variant": "fichad-2", "subject": {"kind": "entity"}, '
                '"text": "x"}'),
], ids=["build-prompts-list", "stats-no-subject", "stats-no-label"])
def test_store_line_that_is_not_a_context_is_input_error(capsys, tmp_path,
                                                         argv, line):
    """A JSON line that is not a context is named by file and line."""
    store = tmp_path / "s.jsonl"
    store.write_text(json.dumps(
        {"variant": "fichad-2", "subject": {"kind": "entity",
                                             "entity": "arles"},
         "text": "Arles is shown.", "images": [], "fallback": False})
        + "\n" + line + "\n")
    argv = [argv[0], "--dataset", ARLES, "--store", str(store),
            *(str(tmp_path / a) if a == "o" else a for a in argv[1:])]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{store}:2:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["build-prompts", "stats"])
@pytest.mark.parametrize("variant,subject,reason", [
    ("fichad-3", TRIPLE, "unknown context variant 'fichad-3'"),
    ("fichad-1", {k: v for k, v in TRIPLE.items() if k != "kind"},
     "a fichad-1 subject has kind 'triple'"),
    ("fichad-1", {"kind": "entity", "entity": "arles"},
     "a fichad-1 subject has kind 'triple'"),
    ("fichad-2", TRIPLE, "a fichad-2 subject has kind 'entity'"),
], ids=["unknown-variant", "no-kind", "entity-for-fichad-1",
        "triple-for-fichad-2"])
def test_subject_not_of_its_variant_is_input_error(capsys, tmp_path, command,
                                                   variant, subject, reason):
    """The variant fixes the subject kind; a line that breaks the rule is
    named by file and line, not read and then dropped or misfiled."""
    store = tmp_path / "s.jsonl"
    store.write_text(
        json.dumps({"variant": "fichad-1", "subject": TRIPLE, "text": "x"})
        + "\n" + json.dumps({"variant": variant, "subject": subject,
                             "text": "y"}) + "\n")
    code = main([command, "--dataset", ARLES, "--store", str(store),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{store}:2: {reason}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("table", ['["x"]', '{"inspiredBy": 5}'],
                         ids=["list", "number"])
def test_relation_templates_not_strings_is_input_error(capsys, tmp_path,
                                                       table):
    """``--templates`` takes a JSON object of template strings, no other."""
    code, _ = run(capsys, "gen-context", "--dataset", ARLES, "--out",
                  str(tmp_path), "--splits", "test")
    assert code == EXIT_OK
    templates = tmp_path / "t.json"
    templates.write_text(table + "\n")
    code = main(["build-prompts", "--dataset", ARLES, "--store",
                 str(tmp_path / "contexts.jsonl"), "--out", str(tmp_path / "p"),
                 "--templates", str(templates)])
    assert code == EXIT_INPUT
    assert str(templates) in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
