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

# Three tilted components, 75000 particles: more than one 2**16-draw block
# per trial, with a block edge inside the second component.
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
        "5c9b89edba29ec03a1b1057b63cfc1ca503c8d085d7a4245a942c73421d0f432",
        "5f8731e01ef0e1fdad1ae7211f5738131c8630325f3f619a64722bcf810e59a5",
    ),
    "A-y-n40": (
        "909cd891a3a21fa9baac46a440752129ae02f14832c9877a20d4c9192a2c21b9",
        "8794cbe70c543cd09957b29f374378629af2a33b83757cc2c5e55f22026e3e12",
    ),
    "A-z-n1000": (
        "25ff21878127009e87561e049e39bdabfdcc5b95729f01e5ff70e196c3ff68d0",
        "5f8731e01ef0e1fdad1ae7211f5738131c8630325f3f619a64722bcf810e59a5",
    ),
    "A-z-n40": (
        "5324d5f9b44f53458557d097b130ea167e1cb2947d4d8b9cb14175da11742e29",
        "8794cbe70c543cd09957b29f374378629af2a33b83757cc2c5e55f22026e3e12",
    ),
    "B-x-n1000": (
        "8c5a8891e00d5caff6f42a5dd6a7ff25a0d1afa0a6750fd274a2000a46d5e2ec",
        "5f8731e01ef0e1fdad1ae7211f5738131c8630325f3f619a64722bcf810e59a5",
    ),
    "B-x-n40": (
        "7fdb25d7fec099be8ff4ae68fda3da3ae5e8f05a06d443bf2430fd31fb8522ea",
        "8794cbe70c543cd09957b29f374378629af2a33b83757cc2c5e55f22026e3e12",
    ),
    "B-y-n1000": (
        "3f8443351fef98c3ad74d204d124a0d27bda8fa15f96e7c89c4e9e22968e1a37",
        "5f8731e01ef0e1fdad1ae7211f5738131c8630325f3f619a64722bcf810e59a5",
    ),
    "B-y-n40": (
        "ed70300b6299a1b7f04747cffd0c9ed784840919a684b2a22ffef6242338632b",
        "8794cbe70c543cd09957b29f374378629af2a33b83757cc2c5e55f22026e3e12",
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
        "655cda6cb1e794568779d408a7cab3719a29761abdc047aeab252811112dcc51",
        "82c5dc1b6142b742389101d1b2087c294de46c97348b2e72f23d5ca966e2b677",
    ),
    "tilted-75k": (
        "6ac97f3ba282fb0e6c1fe6657ca002407cae4d967333f387388c735b7b786e62",
        "a1861873eab5cdf2813e99dbfa7cbcfa3253b4b299abfc2f64ef0829444b1506",
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
