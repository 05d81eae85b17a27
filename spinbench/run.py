#!/usr/bin/env python3
"""Benchmark spinstat's CLI and exact oracles on one named workload.

    python3 spinbench/run.py --workload headline --seed 1 --seconds 25 --trace 0

Run from anywhere; spinstat is imported from ``src/`` next to this directory.
The run measures set-up (fresh interpreters importing ``spinstat.cli``),
runs the first round once untimed as a warm-up and determinism check, then
repeats whole rounds of the workload's operations for ``--seconds`` seconds,
checking each result against ``oracle.py``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones, plus the tracing overhead; it writes the spans of its first traced
round to ``.spinbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".spinbench"

SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 5

# The 2-core sandbox this benchmark was tuned on changed speed by up to 40%
# within a minute, in wall and CPU time alike, as other tenants came and went.
# So the end-to-end times are scaled to a reference speed: multiplied by
# CALIBRATION_REFERENCE_S over the median time of a fixed kernel that runs
# just before and just after every timed call of the run. The kernel takes
# about CALIBRATION_REFERENCE_S on the quiet sandbox, where the factor is 1.
CALIBRATION_REFERENCE_S = 0.010


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class Runner:
    """Runs operations, checks them, and keeps the tallies of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []
        # Allocated once, so the kernel's time does not depend on the state
        # of the allocator that the operations leave behind.
        self._x = np.arange(400_000, dtype=float)
        self._y = np.empty_like(self._x)

    def calibrate(self) -> None:
        """Time a fixed mix of interpreted loop and numpy array work."""
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.multiply(self._x, self._x, out=self._y)
        float(self._y.sum())
        self.calibrations.append(time.perf_counter() - start)

    def timed(self, fn):
        """Run ``fn`` between two calibrations; return (result, wall, cpu) in raw seconds."""
        self.calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.calibrate()
        return result, wall, cpu

    def scale(self) -> float:
        """The factor that takes this run's raw times to the reference speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations)

    def attempt(self, op, call=None):
        """Run ``op`` (or ``call`` in its place), check it, and clean up.

        Returns (wall, cpu, output bytes, output digests), or None if the
        call raised.
        """
        gc.collect()
        self.attempted += 1
        try:
            result, wall, cpu = self.timed(call or op.call)
        except (Exception, SystemExit) as exc:
            self.failed += 1
            print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        for problem in op.check(result):
            self.problems.append(f"{op.label}: {problem}")
        written = sum(p.stat().st_size for p in op.outputs)
        digests = tuple(_digest(p) for p in op.outputs)
        for p in op.outputs:
            p.unlink()
        return wall, cpu, written, digests


def _interpreter(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {done.stderr.strip()[-500:]}")
    return done


def measure_setup(runner: Runner) -> float:
    """Median raw wall time for a fresh interpreter to import spinstat.cli."""
    _interpreter("-c", "import spinstat.cli")  # compiles the bytecode once
    return statistics.median(
        runner.timed(lambda: _interpreter("-c", "import spinstat.cli"))[1] for _ in range(SETUP_REPEATS)
    )


def measure_import_self() -> float:
    """Median over fresh interpreters of spinstat's own modules' import self time."""
    totals = []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = _interpreter("-X", "importtime", "-c", "import spinstat.cli").stderr
        micros = 0
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip().split(".")[0] == "spinstat":
                micros += int(fields[0])
        totals.append(micros / 1e6)
    return statistics.median(totals)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinstat" / "cli.py").is_file():
        print(f"error: no spinstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinstat.cli  # noqa: F401  (binds the submodules the workloads call)
    import spinstat

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    runner = Runner()
    if args.trace:
        import_s = measure_import_self()
    else:
        setup_s = measure_setup(runner)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rounds_of = workloads.WORKLOADS[args.workload](spinstat, args.seed, work)

        # Warm-up: round 0 once, untimed. The first operation of a simulation
        # workload also runs at the other worker count; both, and round 0's
        # timed run below, must write byte-identical files.
        reference = None
        for i, op in enumerate(rounds_of(0)):
            done = runner.attempt(op)
            if i == 0 and op.other_workers is not None and done is not None:
                reference = done[3]
                other = runner.attempt(op, op.other_workers)
                if other is not None and other[3] != reference:
                    runner.problems.append(f"{op.label}: outputs differ between worker counts")

        # Whole rounds until the time is up; a traced run alternates untraced
        # and traced rounds and ends on a traced one.
        tracer = tracing.Tracer(spinstat)
        rounds = []  # (traced, wall, cpu, layer figures); raw times per operation
        first_spans = None
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r < 2 or time.perf_counter() < deadline or (args.trace and r % 2):
            ops = rounds_of(r)
            traced = bool(args.trace and r % 2)
            if traced:
                tracer.install()
            wall = cpu = 0.0
            written = 0
            try:
                for i, op in enumerate(ops):
                    done = runner.attempt(op)
                    if done is None:
                        continue
                    wall += done[0]
                    cpu += done[1]
                    written += done[2]
                    if r == 0 and i == 0 and reference is not None and done[3] != reference:
                        runner.problems.append(f"{op.label}: outputs differ between identical runs")
            finally:
                tracer.restore()
            layers = None
            if traced:
                spans, records = tracer.take()
                layers = tracing.layer_metrics(spans, records)
                layers["harness.bytes_written"] = written
                if first_spans is None:
                    first_spans = spans
            rounds.append((traced, wall / len(ops), cpu / len(ops), layers))
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    scale = runner.scale()
    print(f"{args.workload}: {len(rounds)} rounds, median raw wall per operation "
          f"{statistics.median(row[1] for row in rounds):.4f} s, speed factor {scale:.4f}", file=sys.stderr)

    if args.trace:
        traced_rows = [row[3] for row in rounds if row[0]]
        metrics = {"cli.import_s": (import_s, "s")}
        for name, unit in tracing.LAYER_UNITS.items():
            metrics[name] = (statistics.median(row[name] for row in traced_rows), unit)
        traced_wall = statistics.median(row[1] for row in rounds if row[0])
        plain_wall = statistics.median(row[1] for row in rounds if not row[0])
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end", "work"], "spans": first_spans}, fh)
    else:
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "op_s": (statistics.median(row[1] for row in rounds) * scale, "s"),
            "op_cpu_s": (statistics.median(row[2] for row in rounds) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
