"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer, self_times, summarize  # noqa: E402


def _flip_bit(model: list[float], index: int) -> list[float]:
    (bits,) = struct.unpack("<Q", struct.pack("<d", model[index]))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ 1))
    return model[:index] + [flipped] + model[index + 1:]


def test_oracle_matches_protocol_and_flags_one_flipped_bit():
    from secagg5g import DropoutSchedule, SimConfig, run_simulation
    from secagg5g.fltask import generate_data

    # round 2 loses two stations and round 4 all but two devices: both fall back
    schedule = DropoutSchedule(
        ue_rounds={1: frozenset({3}), 4: frozenset(range(3, 9))},
        bs_rounds={2: frozenset({1, 4})},
    )
    cfg = SimConfig(n_ues=8, n_bss=4, bs_threshold=3, model_dim=10, iterations=6, rng_seed=5)
    task = generate_data(seed=5, n_ues=8, feature_dim=9)
    result = run_simulation(cfg, schedule, task)
    replay = oracle.fedavg(task, schedule, 8, 4, 3, cfg.min_online_fraction, 6)

    assert [outcome for outcome, _ in replay] == [rm.outcome for rm in result.rounds]
    assert [outcome for outcome, _ in replay].count(oracle.FALLBACK) == 2
    expected = [oracle.model_digest(m) for _, m in replay]
    observed = [oracle.model_digest(m) for m in result.model_history]
    assert oracle.wrong_rounds(observed, expected) == 0

    history = list(result.model_history)
    history[3] = _flip_bit(history[3], 7)
    observed = [oracle.model_digest(m) for m in history]
    assert oracle.wrong_rounds(observed, expected) == 1
    assert oracle.wrong_rounds(observed[:-1], expected) == 2


def test_self_time_on_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),    # overlaps a: the union [1, 4] is subtracted once
        ("a.child", 1.5, 2.0, 1),
        ("c", 8.0, 12.0, 0),   # reaches past its parent: only [8, 10] counts
        ("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 0.5, 4.0, 1.0])
    table = summarize(spans)
    assert table["root"] == pytest.approx({"calls": 1, "ms": 10e3, "self_ms": 5e3})


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: time.sleep(0.002) or x)

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: [inner(1), inner(2)])
    failing = tracer.wrap("failing", fail)
    outer()
    with pytest.raises(ValueError):
        failing()
    spans = tracer.spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0), ("failing", -1)]
    table = summarize(spans)
    assert table["outer"]["self_ms"] < table["outer"]["ms"] - 3.0
    assert tracer.errors == {"failing": 1}


def _traced_layers(workload: str) -> dict:
    result = run.child(["pass", workload, "1", "1"], time.monotonic() + 170)
    assert "error" not in result, result.get("error")
    return result["layers"]


def test_layer_predictions_hold():
    sweep = _traced_layers("dropout_sweep")
    wide = _traced_layers("wide_model")
    # COMPACT mode: the server expands one summed key, never combines vectors
    assert sweep["shamir.combine_linear.calls"] == 0
    assert wide["shamir.combine_linear.calls"] == 100
    # one warm coefficient cache serves all 24 simulations of the sweep
    assert (sweep["khprf.coefficient_vector.hit_ratio"]
            > wide["khprf.coefficient_vector.hit_ratio"])
    # wire_length serializes every delivered message a second time
    assert wide["messages.packs_per_delivery"] == pytest.approx(2.0)
    assert set(wide) == {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_ratio"}


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    fake_pass = {"setups_s": [1.0], "round_ms": [1.0, 2.0], "rounds": 2, "elapsed_s": 1.0,
                 "raw_setups_s": [1.0], "raw_round_ms": [1.0, 2.0], "raw_elapsed_s": 1.0,
                 "reference_ms": 1.0, "peak_rss_mb": 1.0, "wire_bytes_per_round": 1.0}
    printed = [(name, unit) for name, _, unit, _ in run.end_to_end([fake_pass], 2, 0)
               if name not in run.REPORT_ONLY]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == printed


def test_fails_without_result_when_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *json.loads((ROOT / "BENCHMARK.json").read_text())["command"][1:],
         "--workload", "wide_model", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
