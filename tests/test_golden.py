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
        "3dbc6ea60ee36ea0a4403cfce68d9aede683d685e689c98cf4899f9db440124b",
        "4e218a44e83b8c881b07562fe9c220e2cfa9f3eb301f3ad00b26f68f2d262d02",
    ),
    "A-y-n40": (
        "28d1895d96f89ed9508923d62d393fba9c9b809aff6deef7876a2b227b051560",
        "49b4f021164990ac180df3700e76ae83f0404f5024dccf0dd64075bf24a02e8f",
    ),
    "A-z-n1000": (
        "03adffc3ebbaf2209022fd84d816f40ef42be17e84c43d052f72e193c8f9bf65",
        "4e218a44e83b8c881b07562fe9c220e2cfa9f3eb301f3ad00b26f68f2d262d02",
    ),
    "A-z-n40": (
        "aa4476f19f014d34bc239588a488b4cea704f3984ffe338a358fc7683379e441",
        "49b4f021164990ac180df3700e76ae83f0404f5024dccf0dd64075bf24a02e8f",
    ),
    "B-x-n1000": (
        "d118aefa22fb2c73a6df123f4f5804c06bd281ea8fde7b36b9b290ddab1402bc",
        "4e218a44e83b8c881b07562fe9c220e2cfa9f3eb301f3ad00b26f68f2d262d02",
    ),
    "B-x-n40": (
        "a05e2ef6c076c0956aaa89b228d74c621cac117f2f3396e2f8f7bbcf352e1afe",
        "49b4f021164990ac180df3700e76ae83f0404f5024dccf0dd64075bf24a02e8f",
    ),
    "B-y-n1000": (
        "cb185460ae8beae16fa8e38421b53ce0e1f34df4c09b682fd659522de33dc503",
        "4e218a44e83b8c881b07562fe9c220e2cfa9f3eb301f3ad00b26f68f2d262d02",
    ),
    "B-y-n40": (
        "91216cdfd6573165d529e9678a54d68e08287736409e5115064b448cdce3ac5e",
        "49b4f021164990ac180df3700e76ae83f0404f5024dccf0dd64075bf24a02e8f",
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
        "81e745d5fdb9be532b40fbe22b5a955e96bcdafbc100c6d543aaa2a805bf7c66",
        "ad0b95a790170a27ec165cc0bf60be8e94681d69548302bfdf84659f892c14d6",
    ),
    "tilted-75k": (
        "764bb401843a797129fa712ee7abfeba1ce8d693f9e8a6397ace270d0bd16089",
        "411da78c896c7ca3ddbe16e7384c115c838f59bca6696a606097f9a6ab5b02f5",
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
