"""Spans around spinstat's layer boundaries, recorded from outside the package.

:class:`Tracer` replaces the names each spinstat module looks up at call time
(``spinstat.cli.run_experiment``, ``spinstat.harness.run_trials``,
``SeededSampler.stream``, ...) with wrappers that record a span: an id, the
id of the span that was open when it started, a name, start and end times,
and one optional work count. Spans stay in memory; :func:`layer_metrics`
turns one round's spans into the per-layer figures, and ``restore`` puts the
original names back.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter


def _uniforms_count(args, kwargs, result):
    return kwargs["count"] if "count" in kwargs else args[2]


def _run_trials_workers(args, kwargs, result):
    return kwargs.get("workers", args[4] if len(args) > 4 else 1)


def _support_size(args, kwargs, result):
    return len(result.support)


def _targets(spinstat):
    """(owner, attribute, span name, note) for every wrapped name.

    Only the names a caller in another layer looks up are wrapped, so a span
    marks a layer boundary. ``note`` extracts the span's work count. An owner
    is None when spinstat no longer has it.
    """
    cli, harness, ensemble, montecarlo = spinstat.cli, spinstat.harness, spinstat.ensemble, spinstat.montecarlo
    config_cls = getattr(harness, "ExperimentConfig", None)
    sampler_cls = getattr(montecarlo, "SeededSampler", None)
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "harness.run_experiment", None),
        (cli, "render_report", "harness.render_report", None),
        (cli, "demo_paradox", "harness.demo_paradox", None),
        (config_cls, "from_json_dict", "harness.config", None),
        (harness, "run_trials", "montecarlo.run_trials", _run_trials_workers),
        (harness, "preparation_aware_prediction", "montecarlo.predict", None),
        (harness, "fixed_operator_infeasibility", "paradox.fit", None),
        (harness, "null_operator_contradiction", "paradox.witness", None),
        (harness, "annihilation_residual", "paradox.witness", None),
        (sampler_cls, "stream", "montecarlo.stream", None),
        (sampler_cls, "uniforms", "montecarlo.uniforms", _uniforms_count),
        # Called by the benchmark itself on the oracles workload.
        (ensemble, "ensemble_from_json", "ensemble", None),
        (montecarlo, "exact_total_distribution", "montecarlo.exact_pmf", _support_size),
    ]
    for name in ("ensemble_from_json", "make_ensemble_A", "make_ensemble_B"):
        targets.append((harness, name, "ensemble", None))
    for name in ("density_operator", "expectation_tr", "variance_tr", "density_equal", "entrywise_difference"):
        targets.append((harness, name, "density", None))
    return targets


class Tracer:
    """Installs span-recording wrappers into spinstat and removes them again.

    A span opened on a thread with no open span of its own (a worker of
    ``run_trials``'s pool) takes the innermost open span of the installing
    thread as parent, which is the ``run_trials`` call waiting on that pool.
    """

    def __init__(self, spinstat):
        self.spans: list[tuple] = []
        self.records = 0
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._spinstat = spinstat

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name, note):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home_stack[-1] if tracer._home_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                work = note(args, kwargs, result) if note is not None and result is not None else 0
                tracer.spans.append((span_id, parent, name, start, end, work))

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a name spinstat dropped reads as 0."""
        for owner, attr, name, note in _targets(self._spinstat):
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, note)))
            else:
                setattr(owner, attr, self._wrap(raw, name, note))
        # TrialRecord objects are built on the thread that called run_trials,
        # so a plain counter suffices.
        record_cls = getattr(self._spinstat.montecarlo, "TrialRecord", None)
        if record_cls is None:
            return
        init = record_cls.__init__
        self._saved.append((record_cls, "__init__", init))

        def counting_init(obj, *args, **kwargs):
            self.records += 1
            init(obj, *args, **kwargs)

        record_cls.__init__ = counting_init

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> tuple[list[tuple], int]:
        """The spans and record count since the last call, and reset both."""
        spans, records = self.spans, self.records
        self.spans, self.records = [], 0
        return spans, records


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# Every figure a traced round reports; harness.bytes_written is measured by
# the benchmark from the output files, the rest by layer_metrics.
LAYER_UNITS = {
    "cli.self_s": "s",
    "harness.config_s": "s",
    "harness.self_s": "s",
    "harness.render_s": "s",
    "harness.bytes_written": "bytes",
    "ensemble.s": "s",
    "density.s": "s",
    "density.calls": "count",
    "montecarlo.run_trials_s": "s",
    "montecarlo.streams": "count",
    "montecarlo.stream_s": "s",
    "montecarlo.uniforms": "count",
    "montecarlo.uniforms_s": "s",
    "montecarlo.count_s": "s",
    "montecarlo.records": "count",
    "montecarlo.thread_busy_ratio": "ratio",
    "montecarlo.predict_s": "s",
    "montecarlo.exact_pmf_s": "s",
    "montecarlo.pmf_support": "count",
    "paradox.fit_s": "s",
    "paradox.witness_s": "s",
}


def layer_metrics(spans: list[tuple], records: int) -> dict[str, float]:
    """Per-layer figures of one round's spans, summed over its operations.

    A span's self time is its duration minus the part of it that its child
    spans cover, whatever thread they ran on.
    """
    children: dict[int, list[tuple]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)

    def self_time(span) -> float:
        _, _, _, start, end, _ = span
        kids = children.get(span[0], ())
        return (end - start) - _covered(start, end, [(k[3], k[4]) for k in kids])

    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    own: dict[str, float] = {}
    busy_capacity = 0.0
    for span in spans:
        name, start, end = span[2], span[3], span[4]
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + span[5]
        own[name] = own.get(name, 0.0) + self_time(span)
        if name == "montecarlo.run_trials":
            busy_capacity += span[5] * (end - start)

    run_trials_s = dur.get("montecarlo.run_trials", 0.0)
    stream_s = dur.get("montecarlo.stream", 0.0)
    uniforms_total = dur.get("montecarlo.uniforms", 0.0)
    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "harness.config_s": own.get("harness.config", 0.0),
        "harness.self_s": own.get("harness.run_experiment", 0.0) + own.get("harness.demo_paradox", 0.0),
        "harness.render_s": dur.get("harness.render_report", 0.0),
        "ensemble.s": dur.get("ensemble", 0.0),
        "density.s": dur.get("density", 0.0),
        "density.calls": calls.get("density", 0),
        "montecarlo.run_trials_s": run_trials_s,
        "montecarlo.streams": calls.get("montecarlo.stream", 0),
        "montecarlo.stream_s": stream_s,
        "montecarlo.uniforms": work.get("montecarlo.uniforms", 0),
        "montecarlo.uniforms_s": uniforms_total - stream_s,
        "montecarlo.count_s": own.get("montecarlo.run_trials", 0.0),
        "montecarlo.records": records,
        "montecarlo.thread_busy_ratio": uniforms_total / busy_capacity if busy_capacity else 0.0,
        "montecarlo.predict_s": dur.get("montecarlo.predict", 0.0),
        "montecarlo.exact_pmf_s": dur.get("montecarlo.exact_pmf", 0.0),
        "montecarlo.pmf_support": work.get("montecarlo.exact_pmf", 0),
        "paradox.fit_s": dur.get("paradox.fit", 0.0),
        "paradox.witness_s": dur.get("paradox.witness", 0.0),
    }
