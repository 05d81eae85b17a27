#!/usr/bin/env python3
"""Run the benchmark on every workload for seeds 1-10 and write one JSON file of the results.

    python tools/bench.py --out BENCH.json [--seconds 10] [--root PARENT]

This checkout runs its own unchanged ``spinbench/run.py``, so spinstat is
imported from its ``src/``; its runs are named ``change``. With ``--root``,
the checkout at PARENT runs its own ``spinbench/run.py`` too, named
``parent``. For each workload and seed the two run one after the other, in an
order that alternates from one pair to the next, so that drift in the
machine's speed falls on both sides alike. The workloads and end-to-end
metrics are those that ``BENCHMARK.json`` declares.

The file holds every run; per side, workload and end-to-end metric, the median
and quartiles over the seeds; with a parent, how many seeds read lower, higher
or the same on the change; each side's ``src/spinstat`` code lines, counted
by this checkout's ``tools/src_lines.py`` for both; and nproc and the Python
and numpy versions, which are those of the interpreter that runs this script
and every benchmark run. A run that reads ``correct: false`` keeps its
``check failed`` lines, so a flaky check stays visible.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
_DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
METRICS = tuple(m["name"] for m in _DECLARED["end_to_end"])
SEEDS = tuple(range(1, 11))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``spinbench/run.py`` run: its verdict, its metrics and any failed checks."""
    done = subprocess.run(
        [sys.executable, str(root / "spinbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "problems": [line for line in done.stderr.splitlines() if line.startswith("check failed:")],
    }


def src_lines(root: Path) -> int:
    """The total that this checkout's ``tools/src_lines.py`` prints for ``root``'s ``src/spinstat``."""
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "src_lines.py"), str(root / "src" / "spinstat")],
        capture_output=True, text=True, check=True,
    )
    return int(done.stdout.split()[-2])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    """Median and quartiles per workload, side and metric; then the change's lower/higher/same counts against the parent."""
    by = {(r["workload"], r["root"], r["seed"]): r["metrics"] for r in runs}
    sides = list(dict.fromkeys(r["root"] for r in runs))
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    seeds = sorted({r["seed"] for r in runs})
    spread = {
        w: {side: {m: _spread([by[w, side, s][m] for s in seeds]) for m in METRICS} for side in sides}
        for w in workloads
    }
    if "parent" not in sides:
        return spread, {}
    pairs = {
        w: {
            m: {
                "lower": sum(by[w, "change", s][m] < by[w, "parent", s][m] for s in seeds),
                "higher": sum(by[w, "change", s][m] > by[w, "parent", s][m] for s in seeds),
                "same": sum(by[w, "change", s][m] == by[w, "parent", s][m] for s in seeds),
            }
            for m in METRICS
        }
        for w in workloads
    }
    return spread, pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--root", type=Path, metavar="PARENT", help="a checkout to measure against this one")
    args = parser.parse_args(argv)

    roots = {"change": REPO}
    if args.root is not None:
        if not (args.root / "spinbench" / "run.py").is_file():
            parser.error(f"{args.root} is not a checkout holding spinbench/run.py")
        roots = {"parent": args.root.resolve(), "change": REPO}
    names = list(roots)

    runs = []
    for pair, (workload, seed) in enumerate(itertools.product(WORKLOADS, SEEDS)):
        for name in names if pair % 2 == 0 else names[::-1]:
            run = run_once(roots[name], workload, seed, args.seconds)
            runs.append({"root": name, "workload": workload, "seed": seed, **run})
            flag = "" if run["correct"] and not run["failed"] else "  (correct: false or failed ops)"
            print(f"{workload} seed {seed} {name}: op_s {run['metrics']['op_s']:.5f}{flag}", file=sys.stderr)

    spread, pairs = summarize(runs)
    payload = {
        "workloads": list(WORKLOADS),
        "seconds": args.seconds,
        "seeds": list(SEEDS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": {name: src_lines(root) for name, root in roots.items()},
        "summary": spread,
        "change vs parent": pairs,
        "runs": runs,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
