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
from pathlib import Path

from .experiments import (
    COMPARE_COLUMNS,
    RESULT_COLUMNS,
    ExperimentSpec,
    compare_modes,
    run_experiment,
    write_results,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secagg5g",
        description="Dropout-resilient secure aggregation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="single configuration, no sweep")
    sweep_p = sub.add_parser("sweep", help="sweep a dropout axis")
    cmp_p = sub.add_parser("compare-modes", help="bandwidth: evaluated vs compact")
    for sub_p in (run_p, sweep_p, cmp_p):
        sub_p.add_argument("config", help="path to a JSON experiment config")
        sub_p.add_argument("-o", "--output", help="output file (overrides config)")
        sub_p.add_argument("--format", choices=["csv", "json"], help="output format")
        sub_p.add_argument("--seeds", type=int, nargs="+", help="run seeds")
        sub_p.add_argument("--iterations", type=int, help="training iterations per run")
    # compare-modes always runs both modes, so only run and sweep take one
    for sub_p in (run_p, sweep_p):
        sub_p.add_argument(
            "--mode", choices=["evaluated", "compact"], dest="mask_share_mode",
            help="mask share mode",
        )

    run_p.add_argument("--ue-dropout", type=int, dest="ue_dropout")
    run_p.add_argument("--bs-dropout", type=int, dest="bs_dropout")

    sweep_p.add_argument(
        "--axis", choices=["ue_dropout", "bs_dropout"], dest="sweep_axis"
    )
    sweep_p.add_argument("--sweep-min", type=int, dest="sweep_min")
    sweep_p.add_argument("--sweep-max", type=int, dest="sweep_max")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SECAGG5G_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    # every other flag overrides its config key; from_json drops the unset ones
    overrides = vars(build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        spec = ExperimentSpec.from_json(config, overrides)
        if command == "run":
            spec = replace(spec, sweep_axis="none")
        elif command == "sweep" and spec.sweep_axis == "none":
            raise ValueError("sweep requires sweep_axis (config key or --axis)")
        # refused before the first simulation, and without touching the file
        out = Path(spec.output)
        if out.is_dir():
            raise ValueError(f"output {out} is a directory")
        if not out.parent.is_dir():
            raise ValueError(f"output directory {out.parent} does not exist")
        compare = command == "compare-modes"
        metadata, rows = (compare_modes if compare else run_experiment)(spec)
        write_results(spec, metadata, rows, COMPARE_COLUMNS if compare else RESULT_COLUMNS)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {spec.output}")
    if "bs_payload_ratio" in metadata:
        print(f"per-BS payload ratio (evaluated/compact): {metadata['bs_payload_ratio']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
