"""The CI pin runner in tools/ measures each child alone, and CI runs every one of its cases."""

import importlib.util
import re
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci_pins", _REPO / "tools" / "ci_pins.py")
ci_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_pins)


def test_each_child_reports_its_own_peak_rss(tmp_path):
    # RUSAGE_CHILDREN would give the second child the first one's peak.
    _, large = ci_pins.run_child([sys.executable, "-c", "b = b'x' * (96 << 20)"], tmp_path)
    _, small = ci_pins.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert large >= 96 > small


def test_ci_runs_every_case_once():
    workflow = (_REPO / ".github" / "workflows" / "tests.yml").read_text()
    assert sorted(re.findall(r"python tools/ci_pins\.py (\S+)", workflow)) == sorted(ci_pins.CASES)


def test_rejects_an_unknown_case_before_any_run(capsys):
    assert ci_pins.main(["ci_pins.py", "paradox", "no-such-case"]) == 2
    assert "no-such-case" in capsys.readouterr().err
