"""Command-line interface.

Three subcommands:

* ``run``     -- execute an experiment described by a JSON config file
* ``demo``    -- run one of the preset ensembles (A or B) from flags alone
* ``paradox`` -- print the variance-operator contradiction report as JSON

``run`` and ``demo`` print the text of the report; ``--out`` saves it as
``report.json``, which :func:`spinstat.harness.render_report` renders again.
Identical invocations write byte-identical outputs; ``--workers`` must be a
positive integer but has no effect, since every run draws from one stream on
one thread. Failures exit nonzero with a named error category on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    OutputError,
    demo_paradox,
    dump_json,
    render_report,
    run_experiment,
    write_output,
)
from .spin import check_int

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_OUTPUT_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstat",
        description="Spin-1/2 ensemble statistics: predictions vs. simulated measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config file")
    run_p.add_argument("--config", required=True, help="path to the experiment config JSON")
    run_p.add_argument("--workers", type=int, default=None, help="accepted and checked; has no effect")

    demo_p = sub.add_parser("demo", help="run a preset ensemble experiment from flags")
    demo_p.add_argument("--ensemble", required=True, choices=["A", "B"], help="preset preparation")
    demo_p.add_argument("--n", type=int, default=1000, help="particles per trial (even)")
    demo_p.add_argument("--trials", type=int, default=10_000, help="number of repeated runs")
    demo_p.add_argument("--axis", default="x", choices=["x", "y", "z"], help="measurement axis")
    demo_p.add_argument("--seed", type=int, default=0, help="random seed")
    demo_p.add_argument("--hbar", type=float, default=1.0, help="value of hbar for physical units")
    demo_p.add_argument("--out", default=None, metavar="report.json", help="write the JSON report here")
    demo_p.add_argument("--totals", default=None, metavar="totals.csv", help="write per-trial totals here")
    demo_p.add_argument("--workers", type=int, default=1, help="accepted and checked; has no effect")

    paradox_p = sub.add_parser("paradox", help="emit the variance-operator contradiction report")
    paradox_p.add_argument("--samples", type=int, default=100_000, help="random states to measure the residuals over")
    paradox_p.add_argument("--seed", type=int, default=0, help="random seed for the sampled states")
    paradox_p.add_argument("--out", default=None, metavar="paradox.json", help="write JSON here instead of stdout")
    return parser


def _config_from_run_args(args: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig.from_json_dict(data)
    if args.workers is not None:
        check_int(args.workers, "workers", 1)
    return cfg


def _config_from_demo_args(args: argparse.Namespace) -> ExperimentConfig:
    ensemble_json = {"preset": args.ensemble, "n": args.n}
    data = {
        "ensemble": ensemble_json,
        "axis": args.axis,
        "trials": args.trials,
        "seed": args.seed,
        "hbar": args.hbar,
        "outputs": {
            key: value
            for key, value in (("report", args.out), ("totals", args.totals))
            if value is not None
        },
        "workers": args.workers,
    }
    return ExperimentConfig.from_json_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            sys.stdout.write(render_report(run_experiment(_config_from_run_args(args))))
        elif args.command == "demo":
            sys.stdout.write(render_report(run_experiment(_config_from_demo_args(args))))
        elif args.command == "paradox":
            payload = dump_json(demo_paradox(args.samples, args.seed))
            if args.out is None:
                sys.stdout.write(payload)
            else:
                write_output(args.out, [payload.encode()])
    except OutputError as exc:
        print(f"error [output-error]: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    except ValueError as exc:
        print(f"error [invalid-config]: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
