"""Golden output hashes: the exact bytes of report.json, totals.csv and the paradox JSON are pinned.

Every config below was run once and the SHA-256 of both files recorded. Any
change to the sampler, the statistics, the verdicts or the serialization
that alters a single output byte fails here, at one worker and at two.
"""

import hashlib

import pytest

from spinstat import cli
from spinstat.harness import ExperimentConfig, run_experiment

TILTED_12 = {
    "name": "tilted-12",
    "components": [
        {"axis": {"theta": 0.9, "phi": 0.3}, "sign": 1, "count": 5},
        {"axis": "y", "sign": -1, "count": 4},
        {"axis": {"theta": 2.0, "phi": 1.3}, "sign": 1, "count": 3},
    ],
}

# Three tilted components, 75000 particles: each is cut into full pieces of
# 1024 particles and a remainder, 75 pieces per trial.
TILTED_75K = {
    "name": "tilted-75k",
    "components": [
        {"axis": {"theta": 0.4, "phi": 2.2}, "sign": 1, "count": 30_000},
        {"axis": "x", "sign": -1, "count": 25_000},
        {"axis": {"theta": 2.5, "phi": 0.9}, "sign": -1, "count": 20_000},
    ],
}


def _configs():
    configs = {}
    for preset in ("A", "B"):
        for axis in ("x", "y", "z"):
            configs[f"{preset}-{axis}-n40"] = ({"preset": preset, "n": 40}, axis, 2000, 11)
            configs[f"{preset}-{axis}-n1000"] = ({"preset": preset, "n": 1000}, axis, 500, 11)
    configs["tilted-12"] = (TILTED_12, {"theta": 0.8, "phi": 0.7}, 50_000, 2026)
    configs["tilted-75k"] = (TILTED_75K, {"theta": 1.1, "phi": 0.4}, 16, 2**64 - 3)
    return configs


CONFIGS = _configs()

# name -> (sha256 of report.json, sha256 of totals.csv)
GOLDEN = {
    "A-x-n1000": (
        "e071bbcde24529e6723415da008e96cf950ca6a26e80a008cd8a2077ec888435",
        "e4805400006f7b477c127ef50b73de69229e4d711bc55c0bbfcfd004ac6f9f54",
    ),
    "A-x-n40": (
        "6457a08447519c482c7b3ed6dfa210deeaf7f631948ffd7c6220b4d4efca236a",
        "ffe8148497afb0d30f3d2f5d61d7eaff8e8d158a743bc4264190e4f59fa84a86",
    ),
    "A-y-n1000": (
        "82c683d3c371f86284a9da7fa84dcd441ba69283813088f67c16b0dd60d6fc93",
        "865415e69e8fdb241ebef56c7744df4a78ae1444ef66afc525a337e89b8b174b",
    ),
    "A-y-n40": (
        "b246fa8099494c60a6585b9e76b1cc9c7836f7294003b9eb6b399b6ec0596da6",
        "50c03b77a4ae19d4fe5189885df50dc833a042817563accc52bff9be24ef4444",
    ),
    "A-z-n1000": (
        "a3ea8aa0ecc5f10123309348073c9a857f52941ecdef50c2a49896c4a981d536",
        "865415e69e8fdb241ebef56c7744df4a78ae1444ef66afc525a337e89b8b174b",
    ),
    "A-z-n40": (
        "10643e1e6e69746f8fd570cac1d0396503edd197774d4d1cbcf68efcb2523481",
        "50c03b77a4ae19d4fe5189885df50dc833a042817563accc52bff9be24ef4444",
    ),
    "B-x-n1000": (
        "3fcf83c984f585cecffd47ea1b730e54876bdfa146fa3d8c2c214b8d7e66dac8",
        "865415e69e8fdb241ebef56c7744df4a78ae1444ef66afc525a337e89b8b174b",
    ),
    "B-x-n40": (
        "f2f0ceb4941f00fd0aa279b5aa9d3618e1c72c369db0557eef10e2850d1afe56",
        "50c03b77a4ae19d4fe5189885df50dc833a042817563accc52bff9be24ef4444",
    ),
    "B-y-n1000": (
        "4f9690fff6bf0d2463d47509810b84513208d201496a8a2242f83082c1e376c5",
        "865415e69e8fdb241ebef56c7744df4a78ae1444ef66afc525a337e89b8b174b",
    ),
    "B-y-n40": (
        "7015b484a441f24d1acf72d86cdc899a3952d272cb99415835fe47a38a74e0de",
        "50c03b77a4ae19d4fe5189885df50dc833a042817563accc52bff9be24ef4444",
    ),
    "B-z-n1000": (
        "a385a612dfe953580207fcb212c851315f057651a6cffafe37e8b8069b7d42de",
        "e4805400006f7b477c127ef50b73de69229e4d711bc55c0bbfcfd004ac6f9f54",
    ),
    "B-z-n40": (
        "4cad552caffb508eb054b9e4c20189d7336c3b9e572c91792ed4a659e806d04d",
        "ffe8148497afb0d30f3d2f5d61d7eaff8e8d158a743bc4264190e4f59fa84a86",
    ),
    "tilted-12": (
        "d9a07f0a27040d44523d4d5d7051a67e602a6ea9e7d70dbb3159885ecbc18de4",
        "9a19e8406405a34e39f117207b6a43a437e03f3094177da1fc8fa09b5e664090",
    ),
    "tilted-75k": (
        "96c2020d9cb7ef70f72b6f5086d5c507fa497bf3b8ca55a1b77d0971b7938f04",
        "69bd928f57f7e1592eb4764a733bf1598791002e35e55234807e471e716986b5",
    ),
}


def run_hashes(tmp_path, name, workers):
    ensemble, axis, trials, seed = CONFIGS[name]
    report, totals = tmp_path / "report.json", tmp_path / "totals.csv"
    cfg = ExperimentConfig.from_json_dict({
        "ensemble": ensemble,
        "axis": axis,
        "trials": trials,
        "seed": seed,
        "workers": workers,
        "outputs": {"report": str(report), "totals": str(totals)},
    })
    run_experiment(cfg)
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, totals))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_are_pinned(tmp_path, name, workers):
    assert run_hashes(tmp_path, name, workers) == GOLDEN[name]


# SHA-256 of what `spinstat paradox --samples 1000 --seed 0` prints.
PARADOX_GOLDEN = "c5f67797e18bead703eec45d596ec220ebc883e85988dfda403930ff4f1d112f"


def test_paradox_json_is_pinned(capsys):
    assert cli.main(["paradox", "--samples", "1000", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == PARADOX_GOLDEN
