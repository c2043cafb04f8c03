"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by module and attribute name. A name it cannot find breaks only the traced
benchmark run, so every target is checked here."""

import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from secagg5g import DropoutSchedule, SimConfig, run_simulation
from secagg5g.fltask import generate_data

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
ORACLE = ROOT / "perfbench" / "oracle.py"
SRC = ROOT / "src"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("perfbench_tracing", TRACING)


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in tracing.MODULE_BINDINGS
        if not callable(getattr(importlib.import_module(f"secagg5g.{mod}"), attr, None))
    ]
    for mod, cls, attr, _ in tracing.CLASS_METHODS:
        owner = getattr(importlib.import_module(f"secagg5g.{mod}"), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []


def test_simulation_result_has_what_the_benchmark_reads():
    # perfbench/workloads.py digests every model_history row with the
    # oracle's model_digest and sums each round's bytes_*_sent
    oracle = load("perfbench_oracle", ORACLE)
    cfg = SimConfig(n_ues=4, n_bss=3, bs_threshold=2, model_dim=5, iterations=3)
    task = generate_data(seed=0, n_ues=4, feature_dim=4)
    result = run_simulation(cfg, DropoutSchedule.none(), task)
    assert len(result.model_history) == len(result.rounds) == 3
    for row in result.model_history:
        assert type(row) is list and len(row) == 5
        assert all(type(x) is float for x in row)
        assert len(oracle.model_digest(row)) == 32
    for rm in result.rounds:
        sent = [getattr(rm, f"bytes_{role}_sent") for role in ("ue", "bs", "af")]
        assert all(type(n) is int and n > 0 for n in sent)


# Installs the tracer in a fresh interpreter, so that no wrapper outlives the
# test, runs one CLI experiment and prints every span name's call count.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from secagg5g import cli
status = cli.main(["run", sys.argv[2], "-o", sys.argv[3]])
calls = {name: row["calls"] for name, row in tracing.summarize(tracer.spans()).items()}
print(json.dumps({"status": status, "calls": calls}))
"""

# Bound names a simulation never calls, so their per-layer metrics read 0:
NEVER_CALLED = {
    # masking goes through Fleet.mask, which masks the online rows and
    # encodes them in one field.encode_masked call
    "protocol.ue.masked_update",
    "field.encode_update",
    # set-up precomputes through Fleet.precompute and khprf.precompute_fleet
    "protocol.ue.precompute",
    "khprf.precompute_masks",
    # the server collects a round's masked updates, and each late one, through
    # Aggregator.collect_block, of which collect_update is the one-row case
    "protocol.af.collect_update",
    # set-up splits every key through Fleet.setup and shamir.split_many, and
    # each station stores its block through Stations.receive_shares; split,
    # UserEquipment.setup and receive_share are their one-row cases
    "shamir.split",
    "protocol.ue.setup",
    "protocol.bs.receive_share",
    # the online stations answer each list in one Stations.mask_shares call,
    # of which BaseStation.mask_share is the one-row case
    "protocol.bs.mask_share",
    # the simulator takes a fallback round's model from global_model_message,
    # of which fallback is a second name
    "protocol.af.fallback",
}


def test_names_a_run_never_reaches(tmp_path):
    # seed 0 with this jitter: rounds 0 and 1 aggregate, round 2 falls back
    # below the floor when a device misses the deadline
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        n_ues=4, n_bss=3, bs_threshold=2, min_online_fraction=1.0, iterations=3,
        latency_jitter_ms=40.0, deadline_ms=40.0, feature_dim=4,
        samples_per_shard=10, test_samples=20, seeds=[0])))
    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), str(config), str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC), "SECAGG5G_LOG": "ERROR"},
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["status"] == 0
    rows = csv.DictReader(line for line in out.read_text().splitlines()
                          if not line.startswith("#"))
    assert [row["outcome"] for row in rows] == ["AGGREGATED", "AGGREGATED", "FALLBACK"]
    tracing = load_tracing()
    bound = {name for *_, name in tracing.MODULE_BINDINGS + tracing.CLASS_METHODS}
    assert bound - set(result["calls"]) == NEVER_CALLED
