"""The bench-file writer in tools/ summarizes runs per workload, side and metric."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(root, seed, op_s):
    metrics = {name: 1.0 for name in bench.METRICS}
    metrics["op_s"] = op_s
    return {"root": root, "workload": "many-small", "seed": seed, "metrics": metrics}


def test_summary_gives_medians_quartiles_and_pair_counts():
    parent = [0.010, 0.012, 0.011, 0.013, 0.020]
    change = [0.009, 0.012, 0.010, 0.014, 0.015]
    runs = [_run("parent", seed, v) for seed, v in enumerate(parent)]
    runs += [_run("change", seed, v) for seed, v in enumerate(change)]
    spread, pairs = bench.summarize(runs)
    assert spread["many-small"]["parent"]["op_s"] == {"median": 0.012, "q1": 0.011, "q3": 0.013, "n": 5}
    assert spread["many-small"]["change"]["op_s"]["median"] == 0.012
    assert pairs["many-small"]["op_s"] == {"lower": 3, "higher": 1, "same": 1}
    assert pairs["many-small"]["setup_s"] == {"lower": 0, "higher": 0, "same": 5}


def test_one_seed_gives_its_value_as_every_quantile():
    spread, pairs = bench.summarize([_run("change", 1, 0.5)])
    assert spread["many-small"]["change"]["op_s"] == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1}
    assert pairs == {}


def test_rejects_a_root_without_the_benchmark_before_any_run(tmp_path):
    with pytest.raises(SystemExit):
        bench.main(["--out", str(tmp_path / "b.json"), "--root", str(tmp_path / "nonexistent-checkout")])
    assert not (tmp_path / "b.json").exists()


def test_src_lines_counts_a_checkout_with_this_checkout_tool(tmp_path):
    package = tmp_path / "src" / "spinstat"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\nx = 1\n\n# comment\ny = 2\n')
    (package / "b.py").write_text("z = 3\n")
    assert bench.src_lines(tmp_path) == 3
