"""Command-line entry point.

Runs one scenario and emits its report.  Exit status: 0 when every
configured criterion passes on the final state, 1 when any fails, 2 on
configuration or usage errors.  Each setting comes from the config file
or its flag, and a flag beats the file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .experiments import FORMATS, SCENARIOS, ConfigError, ExperimentConfig, emit, run


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: main prints one error line and returns 2
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvshape",
        description="Build, shape, and verify continuous-variable cluster states.",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trajectories (0 = analytic only)")
    parser.add_argument("--seed", type=int, metavar="S", help="Monte Carlo seed")
    parser.add_argument("--lossless", action="store_true", help="disable every loss stage")
    parser.add_argument("--output", metavar="PATH", help="report file (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, help="report format (default: csv for a .csv output, else json)")
    parser.add_argument(
        "--timing", action="store_true", help="include wall time in the report (breaks byte determinism)"
    )
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if not (args.config or args.scenario):
        raise ConfigError("give --scenario or --config")
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    flags = {"scenario": args.scenario, "seed": args.seed, "trials": args.trials, "lossless": args.lossless or None}
    flags |= {"output": args.output or None, "format": args.format}
    updates = {name: value for name, value in flags.items() if value is not None}  # a flag beats the file
    return replace(config, **updates) if updates else config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        report = run(config)
        text = emit(report, include_timing=args.timing)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # outside run, which names its stage: reading the config or writing the report
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    if config.output is None:
        sys.stdout.write(text)
    return 0 if report.final_criteria.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
