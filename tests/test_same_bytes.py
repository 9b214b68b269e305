"""Pinned sha256 digests of the CLI's text outputs.

The matrix runs every generating subcommand on the arles fixture and on a
small graph from the benchmark's generator, over the mock backend, and hashes
each output file and each summary line (without the fields that name paths,
and without ``config_hash``). The outputs are pure Python over the mock
backend's sha256, so their bytes do not depend on the numpy version.

A digest may change only in a change whose purpose is to change those bytes.
Checkpoints and eval reports are float results and are not pinned here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from fichad.cli import EXIT_OK, main
from conftest import ARLES_CONFIG

DATAGEN = Path(__file__).resolve().parents[1] / "perfbench" / "datagen.py"
#: summary fields that hold a path, or a digest of the arguments (paths too)
UNPINNED = {"config_hash", "store", "out"}


def load_datagen():
    spec = importlib.util.spec_from_file_location("perfbench_datagen", DATAGEN)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(capsys, config: Path, work: Path) -> dict[str, str]:
    digests = {}
    common = ["--dataset", str(config), "--seed", "7",
              "--cache", str(work / "cache.jsonl")]

    def step(name, argv, *outputs):
        assert main(argv) == EXIT_OK, name
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        pinned = {k: v for k, v in summary.items() if k not in UNPINNED}
        digests[f"{name} summary"] = sha(
            json.dumps(pinned, sort_keys=True).encode())
        for out in outputs:
            digests[f"{name} {out.name}"] = sha(out.read_bytes())

    for variant in ("fichad-1", "fichad-2", "fichad-1+x", "fichad-1+y"):
        out = work / variant
        step(f"gen-context {variant}",
             ["gen-context", *common, "--out", str(out), "--variant", variant],
             out / "contexts.jsonl")
    step("filter-images", ["filter-images", *common, "--out", str(work / "fi")],
         work / "fi" / "filtered_images.jsonl")
    step("hints", ["hints", *common, "--out", str(work / "h")],
         work / "h" / "hints.jsonl")
    step("templates", ["templates", *common, "--out", str(work / "t")],
         work / "t" / "templates.json")
    for variant in ("fichad-1", "fichad-2", "fichad-1+x", "fichad-1+y"):
        out = work / f"p-{variant}"
        step(f"build-prompts {variant}",
             ["build-prompts", "--dataset", str(config), "--variant", variant,
              "--store", str(work / variant / "contexts.jsonl"),
              "--templates", str(work / "t" / "templates.json"),
              "--out", str(out), "--k", "3", "--budget", "80"],
             out / "prompts.jsonl")
    store = work / "all.jsonl"
    store.write_bytes(b"".join((work / v / "contexts.jsonl").read_bytes()
                               for v in ("fichad-1", "fichad-2")))
    step("stats", ["stats", "--dataset", str(config), "--store", str(store),
                   "--out", str(work / "s")], work / "s" / "stats.json")
    store = work / "all4.jsonl"
    store.write_bytes(b"".join((work / v / "contexts.jsonl").read_bytes()
                               for v in ("fichad-1", "fichad-2", "fichad-1+x",
                                         "fichad-1+y")))
    step("stats four-variant", ["stats", "--dataset", str(config), "--store",
                                str(store), "--out", str(work / "s4")],
         work / "s4" / "stats.json")
    digests["cache.jsonl"] = sha((work / "cache.jsonl").read_bytes())
    return digests


ARLES_DIGESTS = {
    "build-prompts fichad-1 prompts.jsonl":
        "08ea5094d5180d7eae4231195fbf2554fa68c7fd7d27db7fae67e712e41d26e2",
    "build-prompts fichad-1 summary":
        "26b2d0f837cb2da5993d2917625b96facc77e4a91b888fdf9848b59e56585b26",
    "build-prompts fichad-1+x prompts.jsonl":
        "60d9108a4c01af2f14db6e454f60d284c0959eaa99add0c59cf5caf036abff22",
    "build-prompts fichad-1+x summary":
        "af986951e3d660a30951dc1c0639136dfe18b69ad5a51544c28a425fe496f979",
    "build-prompts fichad-1+y prompts.jsonl":
        "1b6f9310e39801f5f6582f3174cfebdfed9e622e63ef637a58153db78e164f89",
    "build-prompts fichad-1+y summary":
        "06a0fdfbf8663a930177d0165aa6d85ffdaaff599c229d37e22b7f46e295b5a5",
    "build-prompts fichad-2 prompts.jsonl":
        "a43fc669959afdeacfe4d6aea9778e219e8406f5e9c9d16418dc123fd9dd6bf8",
    "build-prompts fichad-2 summary":
        "26b2d0f837cb2da5993d2917625b96facc77e4a91b888fdf9848b59e56585b26",
    "cache.jsonl":
        "f86de04cf128ed653f77d1287faa14cc2d38f715f0aa403622249d97358d59b1",
    "filter-images filtered_images.jsonl":
        "5a3276bd70bc97170f216b819bb67fd150deab4417cfecc714f0a1aaffc9da18",
    "filter-images summary":
        "259908e21bde7c09accf8ff539d658b7f83e4d65c74a1db587580cd75de5d923",
    "gen-context fichad-1 contexts.jsonl":
        "c6d9d224031ef2b6439d9f03cf2c64ebc99004b0e05e609a3a2367b223382d3d",
    "gen-context fichad-1 summary":
        "c8d2a923dd704fe7e899cb08fc90fbef728ea5535ca2717bc2499b3079a1b2fc",
    "gen-context fichad-1+x contexts.jsonl":
        "5e0d449ec4f943bdecf9697e2c678502dfb5c0ee8645dcb3bc8d09bafc7068fc",
    "gen-context fichad-1+x summary":
        "757dd479ae9d041e27e4229a897a6b42fadbf94ac760b566c768dd8972d5c08a",
    "gen-context fichad-1+y contexts.jsonl":
        "b790b0b7297f253d736401e7cf721dea51d1d85de09252628ca3d9727a8f7901",
    "gen-context fichad-1+y summary":
        "a6770253e6af87cedb688787f176a03ee8f27946c0c07f18edb9f7b0b412aecc",
    "gen-context fichad-2 contexts.jsonl":
        "18a5668eddbf505520409603beae59661c90d989945854517dbbd12f6e94ca57",
    "gen-context fichad-2 summary":
        "38636f3ec265a1587c0c1963ba43a33abf9e224d6754b76efbe0dfff33ad2532",
    "hints hints.jsonl":
        "41d415a2be113ae28b39937e90dadfab1e9ad714e60dc51f758020e8902afd2a",
    "hints summary":
        "72f7ff066f27e1d9e8ef6398d03f145d2b4ad8faade4cbb6084e0ee1cf478b5f",
    "stats four-variant stats.json":
        "c07c94bce46e2a186561c32dcc6fd29fa8d8233ea49151b6d9e71e3ff603f504",
    "stats four-variant summary":
        "67c601669f8f33526221e5d5fb390f75d6e6dff27d72b9501c7f1b9960e9e36e",
    "stats stats.json":
        "f0cc551b3264e4323b36be1e865993606d002be837926417b4e379701d622b87",
    "stats summary":
        "8d71deaab6e7419cdabd83086a5698018e2bed395c9248631e7bc668fe536d6f",
    "templates summary":
        "d51f748b40b5a165e9b6ff5c4323e0841720bff127a9e801b16deca68a660ab3",
    "templates templates.json":
        "e6f29f11b86d92c8e70a062cf879281912c77939df0d781a428824809183e47f",
}

SYNTHETIC_DIGESTS = {
    "build-prompts fichad-1 prompts.jsonl":
        "4aba3c8e6c16a302997e6778f40863635ab9c33c6d911be9d135873f3c47bd72",
    "build-prompts fichad-1 summary":
        "295556c977950752b90e9c62556b3f97e2e74893f680c61425a0e13fbb953d8d",
    "build-prompts fichad-1+x prompts.jsonl":
        "7bc647caa75553cd0f8f64a2831530ff0f722483bfbf8820da0ca93f667fbe15",
    "build-prompts fichad-1+x summary":
        "3840290cb4cb0dabb5c8bd461cea4178c8fd3fc822254b8f891b0c342a8dcbc7",
    "build-prompts fichad-1+y prompts.jsonl":
        "b6eb210fc0574f147052f61582482bbfa831d85841e156fb5d8e8545620dd598",
    "build-prompts fichad-1+y summary":
        "3840290cb4cb0dabb5c8bd461cea4178c8fd3fc822254b8f891b0c342a8dcbc7",
    "build-prompts fichad-2 prompts.jsonl":
        "7fb9e3ed63bdda163fec710f945b408719bb67b481e5710aef5251fa4f69f883",
    "build-prompts fichad-2 summary":
        "295556c977950752b90e9c62556b3f97e2e74893f680c61425a0e13fbb953d8d",
    "cache.jsonl":
        "5aa4d95643c7dea18dcb892ae5f371839b026a6a4dedac7440a0a23563189f41",
    "filter-images filtered_images.jsonl":
        "127bd3e80c8a9cd747d4007b301dc3235bdb6cbcd704f37621c7dd1c098fdfc4",
    "filter-images summary":
        "570f347ce24d0f7108d4ec39c97848ced58c05f6c571da72785c9f0b6f08578c",
    "gen-context fichad-1 contexts.jsonl":
        "83ae6b96012da9d74d169afa6cf25d438ce8f0cca9c7cd23c70b33280f8ad3fa",
    "gen-context fichad-1 summary":
        "c4fd9834b63b235e774a62e48dbe0492a4eb7e76ff8f446804eba87a10bb9442",
    "gen-context fichad-1+x contexts.jsonl":
        "9a496fad4cb8ebc010f0abe1b896942fe708329d0518173f04a9cd4525b6478c",
    "gen-context fichad-1+x summary":
        "a5a6a799a74fa6bc700f027f8ff3b1b1e8497db8db1e0a6cf6668f83bccc3b20",
    "gen-context fichad-1+y contexts.jsonl":
        "2dcced9758aea18b210514f03a57b40e4e2d17c0ffe8afc95539d812b739a571",
    "gen-context fichad-1+y summary":
        "a674b88dcd7961c8951385abd07d1beea417ee2d1e36d05b96f3f3aa3e860fcb",
    "gen-context fichad-2 contexts.jsonl":
        "e1916506549f0ca99ba51d9ac3174541b6bce1a5c7c470aa68f52725dca1f8d7",
    "gen-context fichad-2 summary":
        "bc6f07b8e2ecd92f1b7362e006467217d846febb1da44bd8ac8878070d932319",
    "hints hints.jsonl":
        "f2289525ed85754fb1ed18ddc0922fda3c965638404bc0ebdf90954d50878431",
    "hints summary":
        "4114d0d452f89e91b77f8af0f5a11f46c101fd5538b258e38be5e1a1f64eb3b2",
    "stats four-variant stats.json":
        "c5bab4af7977353808cef3a945627bbde13f6fdec3ac79ca39a0ca25ca91fcd1",
    "stats four-variant summary":
        "1ef86523152aafeb3ee40480d3a07491ae45316b4488afd2c3b6f12b54c99edf",
    "stats stats.json":
        "5c8423ca08bac0f51d2cbb80a19d668ccb42181fcdd66f9d84baa6273fc67a3d",
    "stats summary":
        "80c8669312a71e99720a286744c8ad936f3a4f7f25cfb34dc4c970f87c5f2a10",
    "templates summary":
        "af0aa1194dc96f317612e181e489bf008c400e0d5befa03f22342d4282457ef0",
    "templates templates.json":
        "23412505ca43e64f8784311cf3da5b07c62c43cde576e4a4903ea66902cdca60",
}


def test_arles_outputs_are_pinned(capsys, tmp_path):
    assert run_matrix(capsys, ARLES_CONFIG, tmp_path) == ARLES_DIGESTS


def test_synthetic_outputs_are_pinned(capsys, tmp_path):
    datagen = load_datagen()
    spec = datagen.GraphSpec(entities=40, relations=6, train=60, valid=8,
                             test=8)
    config = datagen.generate(spec, 3, tmp_path / "data")
    assert run_matrix(capsys, config, tmp_path / "run") == SYNTHETIC_DIGESTS
