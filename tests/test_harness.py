"""Tests for the experiment harness, report serialization, and the CLI."""

import copy
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spinstat
from conftest import reference_empirical, reference_totals_csv
from spinstat import cli, harness, montecarlo
from spinstat.harness import (
    _CSV_BLOCK,
    ConfigError,
    ExperimentConfig,
    OutputError,
    _empirical,
    _totals_csv,
    demo_paradox,
    render_report,
    run_experiment,
    write_output,
)


def make_config(tmp_path=None, preset="B", n=100, trials=200, seed=5, **overrides):
    data = {
        "ensemble": {"preset": preset, "n": n},
        "axis": "x",
        "trials": trials,
        "seed": seed,
    }
    if tmp_path is not None:
        data["outputs"] = {
            "report": str(tmp_path / "report.json"),
            "totals": str(tmp_path / "totals.csv"),
        }
    data.update(overrides)
    return ExperimentConfig.from_json_dict(data)


class TestExperimentConfig:
    def test_minimal_config(self):
        cfg = make_config()
        assert cfg.config["trials"] == 200
        assert cfg.config["hbar"] == 1.0
        assert cfg.report_path is None

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json_dict(
                {"ensemble": {"preset": "A", "n": 2}, "axis": "x", "trials": 2, "seed": 0, "bogus": 1}
            )

    def test_names_missing_fields(self):
        with pytest.raises(ConfigError, match="'axis'"):
            ExperimentConfig.from_json_dict({"ensemble": {"preset": "A", "n": 2}, "trials": 2, "seed": 0})

    def test_names_bad_ensemble(self):
        with pytest.raises(ConfigError, match="'ensemble'"):
            ExperimentConfig.from_json_dict({"ensemble": 5, "axis": "x", "trials": 2, "seed": 0})

    def test_rejects_bad_trials_and_workers(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="'trials'"):
            make_config(trials=1)
        with pytest.raises(ConfigError, match="'workers'"):
            make_config(workers=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tilted_config()))
        assert cli.main(["run", "--config", str(path), "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "field 'workers' must be at least 1" in err and "Traceback" not in err

    def test_echo_excludes_execution_details(self):
        cfg = make_config(workers=6)
        assert "workers" not in cfg.config
        assert cfg.config["ensemble"] == {"preset": "B", "n": 100}

    @pytest.mark.parametrize("field, given, echoed", [
        ("axis", "X", "x"),
        ("axis", {"theta": 1}, {"theta": 1.0, "phi": 0.0}),
        ("hbar", 2, 2.0),
    ])
    def test_config_block_is_normalized(self, field, given, echoed):
        config = run_experiment(make_config(trials=2, **{field: given}))["config"]
        assert config[field] == echoed and type(config[field]) is type(echoed)

    def test_config_block_keeps_the_ensemble_and_drops_execution_details(self, tmp_path):
        ensemble = {"name": "tilted", "components": [{"axis": "y", "sign": 1, "count": 4}]}
        config = run_experiment(make_config(tmp_path, trials=2, ensemble=ensemble, workers=3))["config"]
        assert config == {"ensemble": ensemble, "axis": "x", "trials": 2, "seed": 5, "hbar": 1.0}

    @pytest.mark.parametrize("overrides, field", [
        ({"trials": 1, "hbar": 0}, "'trials'"),
        ({"ensemble": 5, "trials": 1}, "'ensemble'"),
    ])
    def test_checks_fields_in_order(self, overrides, field):
        with pytest.raises(ConfigError, match=f"^field {field}"):
            make_config(**overrides)


class TestRunExperiment:
    def test_writes_report_and_totals(self, tmp_path):
        cfg = make_config(tmp_path)
        report = run_experiment(cfg)
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved == report
        lines = (tmp_path / "totals.csv").read_text().splitlines()
        assert lines[0] == "trial,total_half_quanta,n_plus,n_minus"
        assert len(lines) == cfg.config["trials"] + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[1]) == int(first[2]) - int(first[3])

    def test_statistics_match_records(self, tmp_path):
        report = run_experiment(make_config(tmp_path, n=50, trials=100, seed=3))
        rows = np.loadtxt(tmp_path / "totals.csv", delimiter=",", skiprows=1, dtype=np.int64)
        totals = rows[:, 1]
        assert rows[:, 0].tolist() == list(range(100))
        assert np.array_equal(totals, rows[:, 2] - rows[:, 3])
        empirical = report["empirical"]
        assert empirical["trials"] == 100
        assert_allclose(empirical["sample_mean"], totals.mean(), atol=1e-12)
        assert_allclose(empirical["sample_variance"], totals.var(ddof=1), atol=1e-9)
        assert empirical["min"] == totals.min()
        assert empirical["max"] == totals.max()

    def test_verdict_pattern_for_preset_b(self):
        verdicts = run_experiment(make_config(trials=2000))["verdicts"]
        assert verdicts["preparation_aware"]["matches_empirical"]
        assert verdicts["density_unnormalized"]["matches_empirical"]
        assert not verdicts["density_normalized"]["matches_empirical"]

    def test_verdict_pattern_for_preset_a(self):
        verdicts = run_experiment(make_config(preset="A", trials=500))["verdicts"]
        assert verdicts["preparation_aware"]["matches_empirical"]
        assert verdicts["preparation_aware"]["exact_zero_prediction"]
        assert not verdicts["density_normalized"]["matches_empirical"]
        assert not verdicts["density_unnormalized"]["matches_empirical"]

    def test_density_check_banner(self):
        check = run_experiment(make_config(trials=50))["density_check"]
        assert check["a_equals_b"]
        assert check["max_abs_diff"] <= 1e-12

    def test_unwritable_output_raises_named_error(self, tmp_path):
        cfg = make_config(trials=10, **{
            "outputs": {"report": str(tmp_path / "missing_dir" / "report.json")}
        })
        with pytest.raises(OutputError):
            run_experiment(cfg)

    def test_unwritable_totals_raises_named_error(self, tmp_path):
        cfg = make_config(trials=10, outputs={"totals": str(tmp_path / "missing_dir" / "totals.csv")})
        with pytest.raises(OutputError, match="missing_dir"):
            run_experiment(cfg)


def _certain_plus_two_along_x(certain, trials):
    """``certain`` particles along +z, certain along z, then 2 along +x, each + along z with p+ = 1/2."""
    components = [{"axis": "z", "sign": 1, "count": certain}, {"axis": "x", "sign": 1, "count": 2}]
    return ExperimentConfig.from_json_dict({
        "ensemble": {"components": components}, "axis": "z", "trials": trials, "seed": 4,
    })


@pytest.mark.parametrize("certain, trials", [(2**53 - 2, 2000), (2**53 - 2, 1000), (2**52, 1000)])
def test_empirical_block_is_exact_at_large_totals(certain, trials):
    """A certain part near 2**53 neither wraps the mean nor swamps the variance.

    Summed in int64, 2000 totals near 2**53 wrapped, so ``sample_mean`` read
    -2.16e14 below a ``min`` of 9.007e15. Taken in float64, the variance of
    1000 such totals read 5.81 where the same draws without the constant give
    2.08, and the true predictor, 2, was rejected.
    """
    cfg = _certain_plus_two_along_x(certain, trials)
    report = run_experiment(cfg)
    n_plus = montecarlo.run_trials(cfg.ensemble, cfg.axis, trials, cfg.config["seed"])
    assert report["empirical"] == reference_empirical(n_plus, certain + 2)
    assert report["empirical"]["min"] <= report["empirical"]["sample_mean"] <= report["empirical"]["max"]
    assert report["predictions"]["preparation_aware"]["variance"] == 2.0
    assert report["verdicts"]["preparation_aware"]["matches_empirical"]


@st.composite
def count_samples(draw):
    """+ counts of ``n`` particles, ``n`` up to 2**53, and as many trials as put T * |total| about 2**63.

    The certain part is all + or all -, so the totals sit near +n or -n. The
    random part spans up to 2**53 values, past what the word budget admits,
    so the sum of squares takes its split path too.
    """
    certain = draw(st.one_of(st.integers(0, 2**53), st.sampled_from([2**53 - 2, 2**52, 2**50, 0])))
    spread = draw(st.one_of(st.integers(0, 3), st.integers(0, 2**53 - certain)))
    spread = min(spread, 2**53 - certain)
    n = certain + spread
    edge = 2**63 // max(n, 1)
    if edge > 5000:
        trials = draw(st.integers(2, 300))
    else:
        trials = max(2, edge + draw(st.integers(-3, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(0, spread, size=trials, endpoint=True, dtype=np.int64)
    if draw(st.booleans()):
        d[draw(st.integers(0, trials - 1))] = spread
    return (d + certain if draw(st.booleans()) else d), n


@settings(max_examples=80, deadline=None)
@given(case=count_samples())
@example(case=(np.array([2**53 - 2, 2**53 - 1, 2**53] * 700, dtype=np.int64), 2**53))
@example(case=(np.array([0, 2**53] * 600, dtype=np.int64), 2**53))
@example(case=(np.array([5, 5], dtype=np.int64), 9))
def test_empirical_matches_the_fraction_reference(case):
    """Every field of the ``empirical`` block is the correctly rounded value of the exact rational."""
    n_plus, n = case
    assert _empirical(n_plus, n) == reference_empirical(n_plus, n)


# Trial counts on both sides of every digit boundary up to 10**5 and of the
# first two block edges.
_TRIAL_COUNTS = sorted(
    {t for k in range(1, 6) for t in (10**k - 1, 10**k, 10**k + 1)}
    | {t for edge in (_CSV_BLOCK, 2 * _CSV_BLOCK) for t in (edge - 1, edge, edge + 1)}
    | {2}
)


class TestTotalsCsv:
    """``_totals_csv`` writes the bytes of the one-string-per-row reference in ``conftest``."""

    @staticmethod
    def _bytes(n_plus, n):
        return b"".join(_totals_csv(n_plus, n))

    @given(
        trials=st.sampled_from(_TRIAL_COUNTS),
        n=st.sampled_from([1, 2, 12, 1000, 2**53]),
        spread=st.sampled_from([1, 5, None]),
        seed=st.integers(0, 2**32 - 1),
        ends=st.tuples(st.integers(0, 10**5), st.integers(0, 10**5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, trials, n, spread, seed, ends):
        """Counts spread over all of [0, n] or over a few values, with 0 and n both present."""
        rng = np.random.default_rng(seed)
        if spread is None:
            n_plus = rng.integers(0, n, trials, dtype=np.int64, endpoint=True)
        else:
            low = int(rng.integers(0, max(n - spread, 0), endpoint=True))
            n_plus = np.minimum(low + rng.integers(0, spread, trials, endpoint=True), n)
        n_plus[ends[0] % trials] = 0
        n_plus[ends[1] % trials] = n
        assert self._bytes(n_plus, n) == reference_totals_csv(n_plus, n)

    def test_matches_reference_past_a_million_trials(self):
        """Trial numbers reach 7 digits, beyond every golden config."""
        n_plus = np.random.default_rng(7).binomial(1000, 0.5, 10**6 + 2)
        assert self._bytes(n_plus, 1000) == reference_totals_csv(n_plus, 1000)

    def test_memory_stays_flat_in_trials(self, tmp_path):
        """Writing 10**6 rows peaks below twice the traced memory of writing 10**5."""
        peaks = []
        for trials in (10**5, 10**6):
            n_plus = np.random.default_rng(trials).binomial(1000, 0.5, trials)
            tracemalloc.start()
            try:
                write_output(str(tmp_path / "totals.csv"), _totals_csv(n_plus, 1000))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @given(
        trials=st.integers(2 * _CSV_BLOCK, 5 * _CSV_BLOCK),
        cuts=st.lists(st.integers(1, 5 * _CSV_BLOCK), min_size=1, max_size=6),
        spread=st.sampled_from([2, _CSV_BLOCK - 1, _CSV_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_dense_and_sparse_blocks_alternate(self, trials, cuts, spread, seed):
        """Runs of rows switch at arbitrary rows between a narrow count range and one of all of [0, n].

        Every 500th narrow row holds the least or the greatest count of its
        range, so a block of narrow rows spans ``spread + 1`` counts: up to a
        block's worth fits the presence table, one more takes ``np.unique``.
        """
        n = 2**53
        rng = np.random.default_rng(seed)
        low = int(rng.integers(0, n - spread, endpoint=True))
        narrow = low + rng.integers(0, spread, trials, endpoint=True)
        narrow[::1000], narrow[500::1000] = low, low + spread
        wide = rng.integers(0, n, trials, endpoint=True)
        n_plus = np.where(np.searchsorted(sorted(cuts), np.arange(trials), side="right") % 2, wide, narrow)
        assert self._bytes(n_plus, n) == reference_totals_csv(n_plus, n)

    def test_narrow_blocks_take_no_sort(self, monkeypatch):
        """Counts that span less than a block are indexed without ``np.sort`` or ``np.unique``."""
        n_plus = np.random.default_rng(3).binomial(1000, 0.5, 3 * _CSV_BLOCK + 5)
        want = reference_totals_csv(n_plus, 1000)

        def refuse(*args, **kwargs):
            raise AssertionError("a narrow block was sorted")

        monkeypatch.setattr(np, "sort", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        assert self._bytes(n_plus, 1000) == want


class TestReportSerialization:
    def test_schema_keys(self):
        data = run_experiment(make_config(trials=16))
        assert set(data) == {"config", "predictions", "empirical", "verdicts", "density_check", "units"}
        assert set(data["predictions"]) == {
            "preparation_aware",
            "density_normalized",
            "density_unnormalized",
        }
        assert data["units"] == {"hbar": 1.0}

    @staticmethod
    def _check_render_scaling(hbar, preparation_aware, density_normalized):
        # In half-quanta, preset B along x has sigma sqrt(1000) and variance
        # 1000, and the normalized density predicts sigma 1 and variance 1;
        # the text shows mean and sigma times hbar/2, variance times hbar²/4.
        report = run_experiment(make_config(preset="B", n=1000, trials=10_000, seed=42, hbar=hbar))
        text = render_report(report)
        assert preparation_aware in text
        assert density_normalized in text
        assert f"{'empirical':<22} {report['empirical']['sample_mean'] * hbar / 2:.4g} ± " in text
        assert "matches empirical" in text and "disagrees" in text

    def test_render_text_scales_to_physical_units(self):
        self._check_render_scaling(
            1.0, "0 ± 15.81   (variance 250 hbar²)", "0 ± 0.5   (variance 0.25 hbar²)"
        )

    def test_render_text_scales_to_physical_units_at_hbar_two(self):
        self._check_render_scaling(
            2.0, "0 ± 31.62   (variance 1000 hbar²)", "0 ± 1   (variance 1 hbar²)"
        )

    def test_largest_ensemble_renders_finite_at_the_hbar_bound(self, monkeypatch):
        # 2**53 particles in z+ along z: certain outcomes, so no stream is
        # opened. The unnormalized density predicts the variance n - n**2,
        # about -2**106, printed times MAX_HBAR**2 / 4.
        monkeypatch.setattr(np.random, "Philox", lambda **kwargs: pytest.fail("drew words for certain outcomes"))
        ensemble = {"components": [{"axis": "z", "sign": 1, "count": 2**53}]}
        config = {"ensemble": ensemble, "axis": "z", "trials": 2, "seed": 0, "hbar": harness.MAX_HBAR}
        text = render_report(run_experiment(ExperimentConfig.from_json_dict(config)))
        assert "inf" not in text and "nan" not in text
        assert "(variance -2.028e+231 hbar²)" in text

    @pytest.mark.parametrize("preset", ["A", "B"])
    def test_saved_report_renders_like_the_fresh_one(self, tmp_path, preset):
        report = run_experiment(make_config(tmp_path, preset=preset, trials=300, hbar=2.0))
        saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert render_report(saved) == render_report(report)

    def test_render_text_definite_ensemble_shows_zero_spread(self):
        report = run_experiment(make_config(preset="A", trials=100))
        text = render_report(report)
        assert "0 ± 0 " in text


class TestDemoParadox:
    def test_payload_contents(self):
        payload = demo_paradox(samples=2000, seed=1)
        assert payload["annihilation"]["x_plus_residual"] < 1e-12
        assert payload["annihilation"]["x_minus_residual"] < 1e-12
        assert payload["annihilation"]["annihilates_sx_eigenstates"]
        assert payload["nonzero_expectation"]["annihilates_sx_eigenstates"]
        assert abs(payload["annihilation"]["expectation_on_source"]) <= 1e-12
        assert_allclose(payload["nonzero_expectation"]["expectation_on_source"], 1.0, atol=1e-12)
        assert_allclose(payload["family_members_max_entry_diff"], 2.0, atol=1e-12)
        fit = payload["fixed_operator_fit"]
        assert fit["samples"] == 2000 and fit["seed"] == 1
        assert 0.2 < fit["rms_residual"] < 0.4

    def test_deterministic(self):
        assert demo_paradox(1000, 9) == demo_paradox(1000, 9)

    def test_annihilation_flag_follows_the_residuals(self, monkeypatch):
        """A member that misses its source shows as false in both blocks, not as a fixed true."""
        monkeypatch.setattr(harness, "annihilation_residual", lambda beta: 1.0)
        payload = demo_paradox(1000, 0)
        assert payload["annihilation"]["annihilates_sx_eigenstates"] is False
        assert payload["nonzero_expectation"]["annihilates_sx_eigenstates"] is False


def run_python(*args, cwd=None):
    # The child imports the same spinstat as this process, installed or not.
    src = str(Path(spinstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "spinstat", *args, cwd=cwd)


class TestCli:
    def test_import_leaves_numpy_random_unloaded(self):
        """``numpy.random`` loads at the first random draw, not at start-up.

        numpy 2 loads it lazily, and importing it takes 10-13 ms; older numpy
        imports it with numpy itself, so the check is against numpy's own import.
        """
        code = (
            "import sys, numpy; before = 'numpy.random' in sys.modules; import spinstat.cli; "
            "print(before, 'numpy.random' in sys.modules)"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before

    def test_demo_writes_expected_files(self, tmp_path):
        report = tmp_path / "report.json"
        totals = tmp_path / "totals.csv"
        proc = run_cli(
            "demo", "--ensemble", "A", "--n", "100", "--trials", "50",
            "--axis", "x", "--seed", "1", "--out", str(report), "--totals", str(totals),
        )
        assert proc.returncode == 0, proc.stderr
        assert "preparation-aware" in proc.stdout
        data = json.loads(report.read_text())
        assert data["empirical"]["sample_variance"] == 0.0
        assert totals.read_text().splitlines()[0] == "trial,total_half_quanta,n_plus,n_minus"

    def test_run_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "ensemble": {"components": [
                {"axis": {"theta": math.pi / 3, "phi": 0.0}, "sign": 1, "count": 10},
                {"axis": {"theta": math.pi / 3, "phi": 0.0}, "sign": -1, "count": 10},
            ]},
            "axis": "x",
            "trials": 40,
            "seed": 2,
            "outputs": {"report": str(tmp_path / "r.json")},
        }))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        saved = json.loads((tmp_path / "r.json").read_text())
        assert saved["config"]["trials"] == 40

    def test_paradox_stdout_deterministic(self):
        first = run_cli("paradox", "--samples", "500", "--seed", "3")
        second = run_cli("paradox", "--samples", "500", "--seed", "3")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["fixed_operator_fit"]["samples"] == 500

    def test_identical_invocations_are_byte_identical_across_workers(self, tmp_path):
        args = ["demo", "--ensemble", "B", "--n", "200", "--trials", "400",
                "--axis", "x", "--seed", "11"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        for out_dir, workers in ((out_a, "1"), (out_b, "5")):
            proc = run_cli(
                *args, "--out", str(out_dir / "report.json"),
                "--totals", str(out_dir / "totals.csv"), "--workers", workers,
            )
            assert proc.returncode == 0, proc.stderr
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "totals.csv").read_bytes() == (out_b / "totals.csv").read_bytes()

    def test_demo_rejects_trials_beyond_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_trials", lambda *args: pytest.fail("ran trials past the bound"))
        assert cli.main(["demo", "--ensemble", "A", "--trials", "10000001"]) == 2
        err = capsys.readouterr().err
        assert "field 'trials' must be at least 2 and at most 10000000" in err and "Traceback" not in err

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ensemble": {"preset": "A", "n": 3}, "axis": "x", "trials": 10, "seed": 0}))
        proc = run_cli("run", "--config", str(bad))
        assert proc.returncode == 2
        assert "invalid-config" in proc.stderr

    def test_missing_config_file_exits_2(self):
        proc = run_cli("run", "--config", "/no/such/file.json")
        assert proc.returncode == 2
        assert "invalid-config" in proc.stderr

    def test_unwritable_output_exits_3(self, tmp_path):
        proc = run_cli(
            "demo", "--ensemble", "A", "--n", "10", "--trials", "10",
            "--axis", "x", "--seed", "0", "--out", str(tmp_path / "nope" / "r.json"),
        )
        assert proc.returncode == 3
        assert "output-error" in proc.stderr

    def test_unwritable_totals_exits_3(self, tmp_path):
        proc = run_cli(
            "demo", "--ensemble", "A", "--n", "10", "--trials", "10",
            "--axis", "x", "--seed", "0", "--totals", str(tmp_path / "nope" / "t.csv"),
        )
        assert proc.returncode == 3
        assert "output-error" in proc.stderr and "Traceback" not in proc.stderr


def _tilted_config(**component_overrides):
    component = {"axis": "y", "sign": 1, "count": 4}
    component.update(component_overrides)
    return {"ensemble": {"components": [component]}, "axis": "x", "trials": 10, "seed": 0}


def _ensemble_config(**ensemble_fields):
    data = _tilted_config()
    data["ensemble"].update(ensemble_fields)
    return data


class TestMalformedConfigs:
    """Each malformed config exits 2, naming the field, with no traceback."""

    def run_config(self, tmp_path, capsys, data):
        path = tmp_path / "cfg.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code = cli.main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "invalid-config" in err and "Traceback" not in err
        return err

    def test_deeply_nested_json(self, tmp_path, capsys):
        err = self.run_config(tmp_path, capsys, "[" * 100_000)
        assert f"config file {str(tmp_path / 'cfg.json')!r} is not valid JSON" in err

    def test_component_without_axis(self, tmp_path, capsys):
        data = _tilted_config()
        del data["ensemble"]["components"][0]["axis"]
        assert "field 'ensemble.components[0].axis' is required" in self.run_config(tmp_path, capsys, data)

    def test_components_not_a_list(self, tmp_path, capsys):
        data = _tilted_config()
        data["ensemble"]["components"] = 5
        assert "field 'ensemble.components' must be a list" in self.run_config(tmp_path, capsys, data)

    def test_component_not_an_object(self, tmp_path, capsys):
        data = _tilted_config()
        data["ensemble"]["components"] = ["y"]
        assert "field 'ensemble.components[0]' must be an object" in self.run_config(tmp_path, capsys, data)

    def test_null_axis_angle(self, tmp_path, capsys):
        err = self.run_config(tmp_path, capsys, _tilted_config(axis={"theta": None}))
        assert "field 'ensemble.components[0].axis.theta'" in err

    def test_fractional_workers(self, tmp_path, capsys):
        data = dict(_tilted_config(), workers=2.7)
        assert "field 'workers'" in self.run_config(tmp_path, capsys, data)

    def test_boolean_workers(self, tmp_path, capsys):
        data = dict(_tilted_config(), workers=True)
        assert "field 'workers'" in self.run_config(tmp_path, capsys, data)

    def test_simulation_budget_is_checked_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # 2**53 particles at p+ = 1/2 take 9007208262 words per trial, one per
        # part of at most 999999 particles.
        data = dict(_tilted_config(axis="z", count=2**53), trials=2)
        monkeypatch.setattr(np.random, "Philox", lambda **kwargs: pytest.fail("opened a stream past the budget"))
        start = time.perf_counter()
        err = self.run_config(tmp_path, capsys, data)
        assert time.perf_counter() - start < 1.0
        assert "field 'trials'" in err and "9007208262 words per trial" in err

    def test_simulation_budget_is_checked_before_any_cdf_is_built(self, tmp_path, capsys, monkeypatch):
        # 2000 components of 2047 particles, each at its own tilt and above
        # PIECE, take one word each, 2000 words per trial, and would build
        # 2000 CDFs before a single draw.
        components = [{"axis": {"theta": 0.5 + i * 1e-4, "phi": 0.0}, "sign": 1, "count": 2047} for i in range(2000)]
        data = {"ensemble": {"components": components}, "axis": "z", "trials": 10**6, "seed": 0}
        monkeypatch.setattr(montecarlo, "_word_cdf", lambda *args: pytest.fail("built a CDF past the budget"))
        err = self.run_config(tmp_path, capsys, data)
        assert "field 'trials'" in err and "2000 words per trial" in err

    def test_boolean_hbar(self, tmp_path, capsys):
        data = dict(_tilted_config(), hbar=True)
        assert "field 'hbar'" in self.run_config(tmp_path, capsys, data)

    @pytest.mark.parametrize("data, fragments", [
        pytest.param(dict(_tilted_config(), hbar=0), ["field 'hbar'"], id="zero-hbar"),
        pytest.param(dict(_tilted_config(), hbar=10**400), ["field 'hbar'"], id="huge-hbar"),
        pytest.param(dict(_tilted_config(), hbar=1e101), ["field 'hbar'", "at most 1e+100"], id="hbar-above-bound"),
        pytest.param(dict(_tilted_config(), hbar=1e-101), ["field 'hbar'", "at least 1e-100"], id="hbar-below-bound"),
        pytest.param(
            _tilted_config(axis={"theta": 10**400}), ["field 'ensemble.components[0].axis.theta'"], id="huge-theta"
        ),
        pytest.param(
            _tilted_config(axis={"theta": 1, "phi": -(10**400)}), ["field 'ensemble.components[0].axis.phi'"],
            id="huge-phi",
        ),
        pytest.param(_tilted_config(sign=True), ["field 'ensemble.components[0].sign'"], id="boolean-sign"),
        pytest.param(_tilted_config(sign=2), ["field 'ensemble.components[0].sign'"], id="sign-out-of-range"),
        pytest.param(
            dict(_tilted_config(), outputs={"report": 5}), ["field 'outputs.report'"], id="output-not-a-path"
        ),
        pytest.param(
            dict(_tilted_config(), outputs={"report": "a\u0000b"}), ["field 'outputs.report'"],
            id="nul-in-output-path",
        ),
        pytest.param(
            dict(_tilted_config(), outputs={"report": "out/../same", "totals": "same"}),
            ["field 'outputs.totals'", "outputs.report"], id="one-path-for-both-outputs",
        ),
        pytest.param(_ensemble_config(foo=1), ["field 'ensemble'", "'foo'"], id="unknown-ensemble-field"),
        pytest.param(
            _tilted_config(weight=3), ["field 'ensemble.components[0]'", "'weight'"], id="unknown-component-field"
        ),
        pytest.param(_ensemble_config(name=5), ["field 'ensemble.name'"], id="name-not-a-string"),
        pytest.param(
            dict(_tilted_config(), ensemble={"preset": "B", "n": 10**400}), ["field 'ensemble.n'", "2**53"],
            id="huge-preset-n",
        ),
        pytest.param(
            _tilted_config(count=10**400), ["field 'ensemble.components[0].count'", "2**53"], id="huge-count"
        ),
        pytest.param(
            _ensemble_config(components=[{"axis": "y", "sign": 1, "count": 2**52 + 1}] * 2),
            ["field 'ensemble.components'", "total particle count", "2**53"], id="huge-total-count",
        ),
        pytest.param(dict(_tilted_config(), trials=10**400), ["field 'trials'"], id="huge-trials"),
        pytest.param(dict(_tilted_config(), trials=2**40), ["field 'trials'"], id="trials-beyond-memory"),
    ])
    def test_rejects(self, tmp_path, capsys, data, fragments):
        err = self.run_config(tmp_path, capsys, data)
        assert all(fragment in err for fragment in fragments), err


# Any JSON value json.load can return, including the non-standard NaN and
# Infinity literals and integers far beyond a float's range.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

VALID_CONFIGS = [
    {
        "ensemble": {"name": "tilted", "components": [
            {"axis": {"theta": 1.0, "phi": 0.5}, "sign": 1, "count": 3},
            {"axis": "z", "sign": -1, "count": 2},
        ]},
        "axis": {"theta": 0.3},
        "trials": 4,
        "seed": 1,
        "hbar": 2.0,
        "outputs": {"report": "r.json", "totals": "t.csv"},
        "workers": 2,
    },
    {"ensemble": {"preset": "B", "n": 4}, "axis": "x", "trials": 2, "seed": 0},
]


def _places(node, path=()):
    """The key path of ``node`` and of everything inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _places(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one field replaced or deleted, or one unknown field added."""
    data = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    *parents, key = draw(st.sampled_from(list(_places(data))[1:]))
    owner = data
    for step in parents:
        owner = owner[step]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        owner[key] = draw(json_values)
    elif action == "delete":
        del owner[key]
    elif isinstance(owner, dict):
        owner[draw(st.text(max_size=8))] = draw(json_values)
    return data


@settings(max_examples=400, deadline=None)
@given(st.one_of(json_values, mutated_configs()))
def test_parser_returns_a_config_or_names_the_field(data):
    """Any JSON value parses to a config or raises ConfigError naming the field; nothing is run."""
    try:
        cfg = ExperimentConfig.from_json_dict(data)
    except ConfigError as exc:
        assert str(exc).startswith(("field '", "config ")), exc
    else:
        assert isinstance(cfg, ExperimentConfig)


def test_valid_configs_parse():
    for data in VALID_CONFIGS:
        assert ExperimentConfig.from_json_dict(data).config["ensemble"] == data["ensemble"]


def _rejected_paradox(monkeypatch, capsys, *flags) -> str:
    """stderr of a ``paradox`` call that must exit 2 before any state is drawn."""
    def no_draw(*args):
        raise AssertionError("drew states for rejected arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code = cli.main(["paradox", *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "invalid-config" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("samples", [99, 10**12, 10**400])
def test_paradox_rejects_samples_beyond_bound(monkeypatch, capsys, samples):
    """Too few or too many samples exit 2 naming the field, before the fit allocates anything."""
    err = _rejected_paradox(monkeypatch, capsys, "--samples", str(samples))
    assert "field 'samples' must be at least 100 and at most 10000000" in err


def test_paradox_rejects_negative_seed(monkeypatch, capsys):
    """A negative seed exits 2 naming the field, not with the random generator's own message."""
    err = _rejected_paradox(monkeypatch, capsys, "--seed", "-1")
    assert "field 'seed' must be at least 0" in err
