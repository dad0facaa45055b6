"""Command-line experiment runner.

    enttest calibrate|grid|scaling|bayesnet|oracle [--spec FILE] [--check]
            [--workers N] [--seed S] [--out DIR]

Each subcommand runs the corresponding suite with its pinned default grid
unless a JSON spec file overrides it.  ``--check`` turns acceptance
violations into exit code 2; bad specs exit 1.  ``ENTTEST_WORKERS`` sets
the default worker count.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    CalibrationFailed,
    ConfigError,
    ExperimentSpec,
    default_spec,
    run_experiment,
)

_KIND_FOR_COMMAND = {
    "calibrate": "calibrate",
    "grid": "error_grid",
    "scaling": "scaling",
    "bayesnet": "bayesnet",
    "oracle": "oracle_suite",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enttest",
        description="entropy-equivalence testing experiment suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _KIND_FOR_COMMAND:
        p = sub.add_parser(command, help=f"run the {command} suite")
        p.add_argument("--spec", default=None, help="JSON experiment spec file")
        p.add_argument("--check", action="store_true", help="exit 2 on acceptance violations")
        # checked by resolve_workers, so a bad count exits 1 like a bad spec
        p.add_argument("--workers", default=None, help="parallel workers")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--trials", type=int, default=None, help="trials-per-cell override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = _KIND_FOR_COMMAND[args.command]
    try:
        spec = ExperimentSpec.from_json(args.spec) if args.spec else default_spec(kind)
        if spec.kind != kind:
            raise ConfigError(
                f"spec kind {spec.kind!r} does not match the {args.command} subcommand"
            )
        if args.seed is not None:
            spec.seed = args.seed
        if args.out is not None:
            spec.out_dir = args.out
        if args.trials is not None:
            spec.trials = args.trials
        spec.validate()
        code = run_experiment(spec, workers=args.workers, check=args.check)
    except (ConfigError, FileNotFoundError, CalibrationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
