"""Command-line front end.

    secagg5g run <config.json>            one configuration, fixed dropouts
    secagg5g sweep <config.json>          sweep a dropout axis
    secagg5g compare-modes <config.json>  EVALUATED vs COMPACT bandwidth

Flags override config-file keys. Set SECAGG5G_LOG=DEBUG|INFO|WARNING for
log verbosity. Exit code 0 on success, 1 on a bad spec or unwritable
output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from .experiments import (
    COMPARE_COLUMNS,
    RESULT_COLUMNS,
    ExperimentSpec,
    compare_modes,
    run_experiment,
    write_results,
)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to a JSON experiment config")
    sub.add_argument("-o", "--output", help="output file (overrides config)")
    sub.add_argument("--format", choices=["csv", "json"], help="output format")
    sub.add_argument("--seeds", type=int, nargs="+", help="run seeds")
    sub.add_argument("--iterations", type=int, help="training iterations per run")


def _add_mode_flag(sub: argparse.ArgumentParser) -> None:
    # compare-modes always runs both modes, so only run and sweep take one
    sub.add_argument(
        "--mode", choices=["evaluated", "compact"], dest="mask_share_mode",
        help="mask share mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secagg5g",
        description="Dropout-resilient secure aggregation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single configuration, no sweep")
    _add_common_flags(run_p)
    _add_mode_flag(run_p)
    run_p.add_argument("--ue-dropout", type=int, dest="ue_dropout")
    run_p.add_argument("--bs-dropout", type=int, dest="bs_dropout")

    sweep_p = sub.add_parser("sweep", help="sweep a dropout axis")
    _add_common_flags(sweep_p)
    _add_mode_flag(sweep_p)
    sweep_p.add_argument(
        "--axis", choices=["ue_dropout", "bs_dropout"], dest="sweep_axis"
    )
    sweep_p.add_argument("--sweep-min", type=int, dest="sweep_min")
    sweep_p.add_argument("--sweep-max", type=int, dest="sweep_max")

    cmp_p = sub.add_parser("compare-modes", help="bandwidth: evaluated vs compact")
    _add_common_flags(cmp_p)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SECAGG5G_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec.from_json(args.config, _overrides(args))
        if args.command == "run":
            spec = replace(spec, sweep_axis="none")
            metadata, rows = run_experiment(spec)
            columns = RESULT_COLUMNS
        elif args.command == "sweep":
            if spec.sweep_axis == "none":
                raise ValueError("sweep requires sweep_axis (config key or --axis)")
            metadata, rows = run_experiment(spec)
            columns = RESULT_COLUMNS
        else:
            metadata, rows = compare_modes(spec)
            columns = COMPARE_COLUMNS
        write_results(spec, metadata, rows, columns)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {spec.output}")
    if "bs_payload_ratio" in metadata:
        print(f"per-BS payload ratio (evaluated/compact): {metadata['bs_payload_ratio']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
