"""CLI and experiment-orchestration tests (fast configs, tmp outputs)."""

import csv
import json
from pathlib import Path

import pytest

from secagg5g.cli import main
from secagg5g.experiments import ExperimentSpec, compare_modes, run_experiment

ROOT = Path(__file__).resolve().parent.parent

FAST = {
    "n_ues": 8,
    "n_bss": 4,
    "bs_threshold": 3,
    "iterations": 3,
    "feature_dim": 4,
    "samples_per_shard": 10,
    "test_samples": 40,
    "seeds": [0, 1],
}

# task fields that cannot make a valid run; each must fail when the spec is built
UNRUNNABLE_TASKS = [
    {"test_samples": 0},
    {"samples_per_shard": 0},
    {"local_epochs": -1},
    {"learning_rate": -0.5},
    {"learning_rate": 0},
    {"learning_rate": float("inf")},
    {"learning_rate": float("nan")},
    {"learning_rate": "0.5"},
    {"seeds": [0, 0]},
]


def write_config(tmp_path: Path, **extra) -> Path:
    cfg = dict(FAST)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path: Path):
    metadata, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                metadata.append(line.rstrip("\n"))
            else:
                fh_rest = [line] + fh.readlines()
                reader = csv.DictReader(fh_rest)
                rows = list(reader)
                break
    return metadata, rows


def test_run_subcommand_writes_csv(tmp_path):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, output=str(out))
    assert main(["run", str(cfg)]) == 0
    metadata, rows = read_csv(out)
    assert len(rows) == 3 * 2  # iterations x seeds
    assert rows[0]["outcome"] == "AGGREGATED"
    assert any(m.startswith("# n_ues=8") for m in metadata)
    assert any(m.startswith("# model_dim=5") for m in metadata)
    expected_cols = {"sweep_value", "seed", "iteration", "outcome", "online_ues",
                     "online_bss", "accuracy", "bytes_ue_sent", "bytes_bs_sent",
                     "bytes_af_sent", "time_setup_ms", "time_aggregation_ms", "mode"}
    assert set(rows[0]) == expected_cols


def test_run_single_row(tmp_path):
    out = tmp_path / "one.csv"
    cfg = write_config(tmp_path, output=str(out), iterations=1, seeds=[5])
    assert main(["run", str(cfg)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_run_json_format(tmp_path):
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path, output=str(out), format="json", iterations=1)
    assert main(["run", str(cfg)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["n_ues"] == 8
    assert len(payload["rows"]) == 2


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path, output=str(out))
    assert main(["run", str(cfg), "--seeds", "7", "--iterations", "2"]) == 0
    _, rows = read_csv(out)
    assert {r["seed"] for r in rows} == {"7"}
    assert len(rows) == 2


def test_sweep_bs_dropout_shows_stagnation(tmp_path):
    out = tmp_path / "bs.csv"
    cfg = write_config(tmp_path, output=str(out), sweep_axis="bs_dropout",
                       sweep_max=2, seeds=[0])
    assert main(["sweep", str(cfg)]) == 0
    _, rows = read_csv(out)
    worst = [r for r in rows if r["sweep_value"] == "2"]
    assert worst and all(r["outcome"] == "FALLBACK" for r in worst)
    assert len({r["accuracy"] for r in worst}) == 1  # flat accuracy
    healthy = [r for r in rows if r["sweep_value"] == "0"]
    assert all(r["outcome"] == "AGGREGATED" for r in healthy)


def test_sweep_ue_dropout_rows_per_point(tmp_path):
    out = tmp_path / "ue.csv"
    cfg = write_config(tmp_path, output=str(out), sweep_axis="ue_dropout", seeds=[0])
    assert main(["sweep", str(cfg)]) == 0
    _, rows = read_csv(out)
    assert {r["sweep_value"] for r in rows} == {str(v) for v in range(0, 7)}
    # 6 dropped leaves 2 online, below ceil(8/3): the participation floor kicks in
    for r in rows:
        expected = "FALLBACK" if r["sweep_value"] == "6" else "AGGREGATED"
        assert r["outcome"] == expected


def test_sweep_requires_axis(tmp_path):
    cfg = write_config(tmp_path, output=str(tmp_path / "x.csv"))
    assert main(["sweep", str(cfg)]) == 1


def test_compare_modes_identical_accuracy(tmp_path):
    out = tmp_path / "cmp.csv"
    cfg = write_config(tmp_path, output=str(out), feature_dim=63, seeds=[0])
    assert main(["compare-modes", str(cfg)]) == 0
    metadata, rows = read_csv(out)
    by_mode = {"EVALUATED": {}, "COMPACT": {}}
    for r in rows:
        by_mode[r["mode"]][(r["seed"], r["iteration"])] = r["accuracy"]
    assert by_mode["EVALUATED"] == by_mode["COMPACT"]
    compact = [float(r["bs_payload_bytes"]) for r in rows if r["mode"] == "COMPACT"]
    evaluated = [float(r["bs_payload_bytes"]) for r in rows if r["mode"] == "EVALUATED"]
    assert all(b == 9.0 for b in compact)
    assert all(b == 1 + 4 + 8 * 64 for b in evaluated)
    assert any(m.startswith("# bs_payload_ratio=") for m in metadata)


def test_compare_modes_low_dimension(tmp_path):
    # d=1: the two payloads differ by a handful of bytes only
    out = tmp_path / "d1.csv"
    cfg = write_config(tmp_path, output=str(out), feature_dim=0, seeds=[0],
                       iterations=1)
    assert main(["compare-modes", str(cfg)]) == 0
    _, rows = read_csv(out)
    sizes = {r["mode"]: float(r["bs_payload_bytes"]) for r in rows}
    assert abs(sizes["EVALUATED"] - sizes["COMPACT"]) <= 4


def test_output_deterministic_modulo_timings(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg1 = write_config(tmp_path, output=str(out1))
    assert main(["run", str(cfg1)]) == 0
    cfg2 = write_config(tmp_path, output=str(out2))
    assert main(["run", str(cfg2)]) == 0
    meta1, rows1 = read_csv(out1)
    meta2, rows2 = read_csv(out2)
    drop = lambda r: {k: v for k, v in r.items() if not k.startswith("time_")}
    assert [m for m in meta1 if "output" not in m] == [m for m in meta2 if "output" not in m]
    assert [drop(r) for r in rows1] == [drop(r) for r in rows2]


@pytest.mark.parametrize("name, command", [
    ("bs_sweep", "sweep"), ("ue_sweep", "sweep"), ("bandwidth", "compare-modes"),
])
def test_committed_results_reproduce(tmp_path, name, command):
    # results/*.csv are the reproduced figures: everything but wall-clock
    # timings and the output path must come out the same from the config
    out = tmp_path / f"{name}.csv"
    assert main([command, str(ROOT / "configs" / f"{name}.json"), "-o", str(out)]) == 0
    meta, rows = read_csv(out)
    golden_meta, golden_rows = read_csv(ROOT / "results" / f"{name}.csv")
    drop = lambda r: {k: v for k, v in r.items() if not k.startswith("time_")}
    keep = lambda m: [line for line in m if not line.startswith("# output=")]
    assert keep(meta) == keep(golden_meta)
    assert [drop(r) for r in rows] == [drop(r) for r in golden_rows]


def test_bad_configs_exit_nonzero(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 1

    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"not_a_knob": 1}), encoding="utf-8")
    assert main(["run", str(bad_key)]) == 1

    bad_value = tmp_path / "badv.json"
    bad_value.write_text(json.dumps({"bs_threshold": 9}), encoding="utf-8")
    assert main(["run", str(bad_value)]) == 1

    not_json = tmp_path / "nj.json"
    not_json.write_text("{{{", encoding="utf-8")
    assert main(["run", str(not_json)]) == 1

    # a non-string mode is a bad value; model_dim and rng_seed are not config keys
    for bad in ({"mask_share_mode": 1}, {"model_dim": 12}, {"rng_seed": 1}):
        path = tmp_path / "bad_sim.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["run", str(path)]) == 1

    # task fields that cannot make a valid run are refused before any file is written
    out = tmp_path / "unrunnable.csv"
    for bad in UNRUNNABLE_TASKS:
        path = write_config(tmp_path, **bad)
        assert main(["run", str(path), "-o", str(out)]) == 1, bad
        assert not out.exists(), bad
    # json.loads reads 1e999 as infinity
    path = tmp_path / "huge_lr.json"
    path.write_text('{"learning_rate": 1e999}', encoding="utf-8")
    assert main(["run", str(path), "-o", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"deadline_ms": NaN}', '{"latency_jitter_ms": Infinity}'])
def test_non_finite_timings_exit_nonzero(tmp_path, text):
    # json.loads accepts NaN and Infinity; the simulator must not
    path = tmp_path / "non_finite.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "-o", str(tmp_path / "nf.csv")]) == 1
    assert not (tmp_path / "nf.csv").exists()


def test_log_env_var_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("SECAGG5G_LOG", "DEBUG")
    out = tmp_path / "log.csv"
    cfg = write_config(tmp_path, output=str(out), iterations=1, seeds=[0])
    assert main(["run", str(cfg)]) == 0


def test_spec_validation_direct():
    ExperimentSpec.from_dict(FAST)
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({**FAST, "seeds": []})
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({**FAST, "sweep_axis": "latency"})
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({**FAST, "format": "xml"})
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({**FAST, "sweep_axis": "ue_dropout", "sweep_max": 7})
    for bad in UNRUNNABLE_TASKS:
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({**FAST, **bad})
    # zero epochs is the documented zero update, not an error
    ExperimentSpec.from_dict({**FAST, "local_epochs": 0})


def test_rows_ordered_deterministically():
    spec = ExperimentSpec.from_dict({**FAST, "sweep_axis": "ue_dropout", "sweep_max": 1})
    _, rows = run_experiment(spec)
    keys = [(r["sweep_value"], r["seed"], r["iteration"]) for r in rows]
    assert keys == sorted(keys)


def test_compare_modes_ratio_metadata():
    spec = ExperimentSpec.from_dict({**FAST, "feature_dim": 999, "seeds": [0],
                                     "iterations": 1, "samples_per_shard": 6,
                                     "test_samples": 20})
    meta, _ = compare_modes(spec)
    assert meta["bs_payload_ratio"] >= 400


def test_compare_modes_metadata_records_no_sweep():
    # compare-modes runs the configured dropouts only, whatever the sweep keys say
    spec = ExperimentSpec.from_dict({**FAST, "seeds": [0], "iterations": 1,
                                     "sweep_axis": "bs_dropout", "sweep_max": 2})
    meta, rows = compare_modes(spec)
    assert meta["sweep_axis"] == "none"
    assert "sweep_min" not in meta and "sweep_max" not in meta
    assert {r["sweep_value"] for r in rows} == {0}
    assert "mask_share_mode" not in meta


def test_compare_modes_takes_no_mode(tmp_path):
    # it always runs both modes, so a --mode would be ignored and misrecorded
    argv = ["compare-modes", str(write_config(tmp_path)), "--mode", "compact",
            "-o", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command, absent, present", [
    ("run", {"sweep_min", "sweep_max"}, {"ue_dropout", "bs_dropout"}),
    ("sweep", {"bs_dropout"}, {"sweep_min", "sweep_max", "ue_dropout"}),
], ids=["run", "sweep"])
def test_metadata_records_only_knobs_that_took_effect(tmp_path, command, absent, present):
    # run ignores the sweep bounds; a sweep over bs_dropout overrides its fixed count
    out = tmp_path / "meta.csv"
    argv = [command, str(ROOT / "configs" / "bs_sweep.json"), "-o", str(out),
            "--seeds", "0", "--iterations", "1"]
    assert main(argv) == 0
    meta, _ = read_csv(out)
    keys = {line[2:].split("=", 1)[0] for line in meta}
    assert not keys & absent
    assert present <= keys
