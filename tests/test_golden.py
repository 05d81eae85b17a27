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

# Three tilted components, 75000 particles: cut every 1024 particles across
# the components, 74 pieces per trial, two of which mix two components.
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
        "52c8f45c73aa0f637f9337aa0363642d5b75f6bed96ac9d518ad723cf56ecd2b",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "A-y-n40": (
        "409eeece2da9a618234afad29e37a07342c5938c257d58797ac5bfdb589a1d18",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "A-z-n1000": (
        "c6dab66b450bf9ede2b4b64006b4eddf00bc1fa4acec143f3b2f95231b1e4c79",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "A-z-n40": (
        "5836426ce013f81080c41b080dbe3b03e5cdaf0af6227fcee13d5f20a8a9114a",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "B-x-n1000": (
        "20cc44341786b61e4f3f11782c154e360c863262a715032428225d8efe48ae92",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "B-x-n40": (
        "678226c289086466fdaa8b1296b7c1852e23f3241f28f48b675edb5e486e2ede",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
    ),
    "B-y-n1000": (
        "3966a1566d7c321a6e6e9db6b40014731126b142d24df0a10c0c30f85bf2b9fe",
        "3357ca11ff409e3e248b80618e8f4e7df2dc4e96f38868a13ff1a82ed31d2955",
    ),
    "B-y-n40": (
        "fdb4c725df4ac7cdb17b41d4b9b9d51a2300d97e3d655ae24a89a138aa240539",
        "a0b3b87b6ecd73ab1d5ff1ccfd348d422f6852eaa38eaa833a39d619683cbe6c",
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
        "05bb182abb983a6ff5a1d9849d02469592b83c9a2b5685d7bec74bd6a8449df3",
        "33fb2fd773ee40f2d8fa2131a670f6f86c3b482e6dd29f844b4a3b3f0c79edf4",
    ),
    "tilted-75k": (
        "fb283d875ef5ecda2181b9f942fff025676ff33ab0baf9e7c404e4528bcbaff3",
        "09e0c53d64518e934bb38f8d5ba4eb801c9d5b43f38140a74fbe9407aa332c32",
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
PARADOX_GOLDEN = "fe2a76b6b1429882e366913ed13cce779951760e4cd136f6c1c28a77cc16aff0"


def test_paradox_json_is_pinned(capsys):
    assert cli.main(["paradox", "--samples", "1000", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == PARADOX_GOLDEN
