#!/usr/bin/env python3
"""secagg5g benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload wide_model --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``. Each pass of a workload runs in its own fresh single-threaded
process (``worker.py``), one after another, while another fits in ``--seconds``.
Every pass of a run uses the same inputs, made from ``--seed``. After the
measured passes, one more process replays the inputs through a plaintext
FedAvg oracle, and every round of every pass is compared with it.

Host times are wall clock, scaled to a reference host speed: at every
round boundary a pass times a short fixed reference workload
(``calibrate.py``), and the program time between two marks is multiplied by
``REFERENCE_S`` over the mean of the two references. The raw figures are
printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics; the lines before it are the same numbers for a reader, with sample
counts and machine facts. The exit status is non-zero when any round
differs from the oracle, and a failure to start leaves no result line.
``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracle
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide_model", "many_devices", "dropout_sweep")
DEADLINE_S = 170.0

# Printed with their sample counts but left out of the result line.
REPORT_ONLY = {"raw.setup_s", "raw.round_ms_p90", "raw.rounds_per_s",
               "host.reference_ms"}

# BLAS pinned so that each pass, and the oracle's training, is single-threaded
# and bit-identical; COMPACT mode would warn once per simulation otherwise.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SECAGG5G_LOG": "ERROR",
    "PYTHONPATH": str(ROOT / "src"),
}


def child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"worker {' '.join(args)} exited with status {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def machine_facts(numpy_version: str) -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy_version} blas_threads=1")


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Passes while another one fits in the time (at least one, and one traced
    when tracing), then the oracle's expected outputs."""
    plain, traced, durations = [], [], []
    start = time.monotonic()
    while (not plain or (trace and not traced)
           or time.monotonic() - start + statistics.mean(durations) <= seconds):
        began = time.monotonic()
        if trace and len(traced) < len(plain):
            traced.append(child(["pass", workload, str(seed), "1"], deadline))
        else:
            plain.append(child(["pass", workload, str(seed), "0"], deadline))
        durations.append(time.monotonic() - began)
    expected = child(["oracle", workload, str(seed)], deadline)["outputs"]
    return plain, traced, expected


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def check(passes: list[dict], expected: list[str]) -> tuple[int, int, list[str]]:
    """(rounds attempted, rounds wrong or raised, problems) over all passes."""
    attempted = wrong = 0
    problems = []
    for p in passes:
        attempted += len(expected)
        if "error" in p:
            wrong += len(expected)
            problems.append(p["error"])
            continue
        wrong += oracle.wrong_rounds(p["outputs"], expected)
    ok = [p for p in passes if "error" not in p]
    if len({p["wire_bytes_per_round"] for p in ok}) > 1:
        problems.append("wire_bytes_per_round differs between passes of the same inputs")
    return attempted, wrong, problems


def throughput(p: dict, prefix: str = "") -> float:
    return p["rounds"] / p[prefix + "elapsed_s"]


def end_to_end(passes: list[dict], attempted: int, wrong: int) -> list[tuple]:
    """(name, value, unit, sample note) for every end-to-end metric."""

    def timings(prefix: str):
        """Median set-up, and medians over passes of each pass's round-time
        median, 90th percentile and throughput; scaled, or raw with "raw_"."""
        setup = statistics.median(s for p in passes for s in p[prefix + "setups_s"])
        return setup, *(statistics.median(f(p) for p in passes) for f in (
            lambda p: statistics.median(p[prefix + "round_ms"]),
            lambda p: p90(p[prefix + "round_ms"]),
            lambda p: throughput(p, prefix),
        ))

    setup, p50_ms, p90_ms, rps = timings("")
    raw_setup, _, raw_p90_ms, raw_rps = timings("raw_")
    setups = sum(len(p["setups_s"]) for p in passes)
    per_pass = f"median over {len(passes)} passes of {passes[0]['rounds']} rounds each"
    references = [p["reference_ms"] for p in passes]
    return [
        ("setup_s", setup, "s", f"median of {setups} set-ups"),
        ("round_ms_p50", p50_ms, "ms", per_pass),
        ("round_ms_p90", p90_ms, "ms", per_pass),
        ("rounds_per_s", rps, "1/s", f"{per_pass}, set-up included"),
        ("peak_rss_mb", statistics.median(p["peak_rss_mb"] for p in passes), "MB",
         f"median of {len(passes)} processes"),
        ("wire_bytes_per_round", passes[0]["wire_bytes_per_round"], "B",
         f"mean of {passes[0]['rounds']} rounds, all roles"),
        ("exact_round_ratio", 1.0 - wrong / attempted, "ratio",
         f"{attempted - wrong} of {attempted} rounds equal the oracle; "
         f"wrong_round_ratio = {wrong}/{attempted}"),
        ("raw.setup_s", raw_setup, "s", "unscaled"),
        ("raw.round_ms_p90", raw_p90_ms, "ms", "unscaled"),
        ("raw.rounds_per_s", raw_rps, "1/s", "unscaled"),
        ("host.reference_ms", statistics.median(references), "ms",
         f"median over passes of each pass's median, range {min(references):.3f}-"
         f"{max(references):.3f}; scaled to {calibrate.REFERENCE_S * 1e3:g}"),
    ]


def per_layer(plain: list[dict], traced: list[dict]) -> list[tuple]:
    """(name, value, unit, sample note): medians over the traced passes."""
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    note = f"median of {len(traced)} traced passes"
    rows = [(name, statistics.median(p["layers"][name] for p in traced), units[name], note)
            for name, _, _ in LAYER_METRICS if name != "trace.overhead_ratio"]

    def median_throughput(passes):
        return statistics.median(throughput(p, "raw_") for p in passes)

    rows.append(("trace.overhead_ratio", median_throughput(traced) / median_throughput(plain),
                 "ratio", f"traced over untraced raw rounds_per_s, "
                 f"{len(traced)}+{len(plain)} passes"))
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    deadline = time.monotonic() + DEADLINE_S
    plain, traced, expected = measure(workload, seed, seconds, trace, deadline)
    attempted, wrong, problems = check(plain + traced, expected)
    if trace and any(p.get("outputs") != plain[0].get("outputs") for p in traced):
        problems.append("traced models differ from the untraced run's")
    ok = [p for p in plain if "error" not in p]
    ok_traced = [p for p in traced if "error" not in p]
    rows = []
    if ok and (ok_traced or not trace):
        rows = per_layer(ok, ok_traced) if trace else end_to_end(ok, attempted, wrong)
    correct = wrong == 0 and not problems and bool(rows)

    print(f"# secagg5g benchmark workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"# machine: {machine_facts(plain[0]['numpy'])}")
    print(f"# {len(plain)} untraced + {len(traced)} traced passes, each a fresh process; "
          f"{attempted} rounds checked against the oracle, {wrong} wrong")
    for problem in problems:
        print(f"# PROBLEM: {problem.strip()}")
    for name, value, unit, note in rows:
        print(f"{name:42s} {value:14.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name not in REPORT_ONLY},
    }))
    sys.stdout.flush()
    return correct


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "secagg5g").is_dir():
        print(f"error: no src/secagg5g under {ROOT}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
