"""CLI and experiment-orchestration tests (fast configs, tmp outputs)."""

import csv
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from secagg5g import experiments, fltask, khprf
from secagg5g.cli import main
from secagg5g.experiments import (
    COMPARE_COLUMNS,
    RESULT_COLUMNS,
    ExperimentSpec,
    compare_modes,
    run_experiment,
    write_results,
)

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
    # float knobs that are not real numbers: a JSON true ran as 1
    {"learning_rate": True},
    {"learning_rate": None},
    {"magnitude_bound": True},
    {"min_online_fraction": True},
    {"latency_base_ms": True},
    {"latency_jitter_ms": "5"},
    {"deadline_ms": None},
    {"seeds": [0, 0]},
    # counts and seeds that are not ints, and negative seeds
    {"seeds": [1.5]},
    {"seeds": [0, "1"]},
    {"seeds": [True]},
    {"seeds": 3},
    {"samples_per_shard": 10.5},
    {"test_samples": 40.0},
    {"local_epochs": 1.5},
    {"ue_dropout": 1.5},
    {"bs_dropout": 0.5},
    {"sweep_min": 0.5},
    {"sweep_max": 1.5},
    {"feature_dim": 4.0},
    {"feature_dim": -1},
    {"data_seed": 7.5},
    {"data_seed": -1},
    {"seeds": [-1]},
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
    assert meta1 == meta2
    assert [drop(r) for r in rows1] == [drop(r) for r in rows2]


@pytest.mark.parametrize("name, command", [
    ("bs_sweep", "sweep"), ("ue_sweep", "sweep"), ("bandwidth", "compare-modes"),
])
def test_committed_results_reproduce(tmp_path, name, command):
    # results/*.csv are the reproduced figures: everything but wall-clock
    # timings must come out the same from the config
    out = tmp_path / f"{name}.csv"
    assert main([command, str(ROOT / "configs" / f"{name}.json"), "-o", str(out)]) == 0
    meta, rows = read_csv(out)
    golden_meta, golden_rows = read_csv(ROOT / "results" / f"{name}.csv")
    drop = lambda r: {k: v for k, v in r.items() if not k.startswith("time_")}
    assert meta == golden_meta
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

    # a non-string mode is a bad value; model_dim and rng_seed are not config
    # keys; frac_bits 2000 died with an OverflowError traceback
    for bad in ({"mask_share_mode": 1}, {"model_dim": 12}, {"rng_seed": 1}, {"frac_bits": 2000}):
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


def test_a_config_that_names_a_key_twice_is_refused(tmp_path, capsys):
    # json.loads keeps the last value: {"n_ues": 8, "n_ues": 5} ran with 5 devices
    path = tmp_path / "twice.json"
    path.write_text('{"n_ues": 8, "iterations": 1, "n_ues": 5}', encoding="utf-8")
    out = tmp_path / "twice.csv"
    assert main(["run", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: config key 'n_ues' is named twice\n"
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
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentSpec.from_dict({**FAST, **bad})
    # zero epochs is the documented zero update, not an error
    ExperimentSpec.from_dict({**FAST, "local_epochs": 0})


def test_rows_ordered_deterministically():
    spec = ExperimentSpec.from_dict({**FAST, "sweep_axis": "ue_dropout", "sweep_max": 1})
    _, rows = run_experiment(spec)
    keys = [(r["sweep_value"], r["seed"], r["iteration"]) for r in rows]
    assert keys == sorted(keys)


def test_a_sweep_derives_its_coefficients_once(monkeypatch):
    # the first simulation's set-up derives every round's coefficients in
    # one pass; the later simulations and all rounds only look them up
    derived = []
    derive = khprf._derive_rows

    def spy(rounds, d):
        derived.append(list(rounds))
        return derive(rounds, d)

    monkeypatch.setattr(khprf, "_derive_rows", spy)
    khprf.coefficient_vector.cache_clear()
    spec = ExperimentSpec.from_dict({**FAST, "sweep_axis": "bs_dropout", "sweep_max": 1})
    _, rows = run_experiment(spec)
    assert len({(r["sweep_value"], r["seed"]) for r in rows}) == 4
    assert derived == [[0, 1, 2]]


# a 3-point sweep and a mode comparison, each over two seeds
COMMANDS = [
    (run_experiment, {"sweep_axis": "bs_dropout", "sweep_max": 2}),
    (compare_modes, {}),
]
COMMAND_IDS = ["sweep", "compare-modes"]


def non_timing(rows):
    return [{k: v for k, v in r.items() if not k.startswith("time_")} for r in rows]


@pytest.mark.parametrize("command, keys", COMMANDS, ids=COMMAND_IDS)
def test_each_seed_draws_one_task_freed_before_the_next(monkeypatch, command, keys):
    # the task depends on the seed alone, and the sweep drew it once per
    # point; each task is freed before the next is drawn, and the last one
    # when the command returns
    drawn, tasks, alive_at_draw = [], [], []
    draw = fltask.generate_data

    def spy(**kwargs):
        drawn.append(kwargs["seed"])
        alive_at_draw.append([ref() is not None for ref in tasks])
        task = draw(**kwargs)
        tasks.append(weakref.ref(task))
        return task

    monkeypatch.setattr(fltask, "generate_data", spy)
    spec = ExperimentSpec.from_dict({**FAST, **keys})
    command(spec)
    assert drawn == [spec.data_seed * 1_000_003 + seed for seed in spec.seeds]
    assert alive_at_draw == [[], [False]]
    assert [ref() for ref in tasks] == [None, None]


def test_every_simulation_gets_a_read_only_task(monkeypatch):
    # the simulations of one seed share its task, so none may change it
    tasks = []
    simulate = experiments.run_simulation

    def spy(cfg, schedule, task):
        tasks.append(task)
        return simulate(cfg, schedule, task)

    monkeypatch.setattr(experiments, "run_simulation", spy)
    run_experiment(ExperimentSpec.from_dict({**FAST, "sweep_axis": "bs_dropout",
                                             "sweep_max": 1}))
    assert len(tasks) == 4
    for task in tasks:
        for array in (task.train_xb, task.train_y, task.test_xb, task.test_y):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("command, keys", COMMANDS, ids=COMMAND_IDS)
def test_a_shared_task_writes_the_rows_a_fresh_one_does(monkeypatch, command, keys):
    spec = ExperimentSpec.from_dict({**FAST, **keys})
    shared_meta, shared = command(spec)
    monkeypatch.setattr(experiments, "generate_data", fltask.generate_data)
    fresh_meta, fresh = command(spec)
    assert shared_meta == fresh_meta
    assert non_timing(shared) == non_timing(fresh)


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
    ("run", {"sweep_min", "sweep_max", "output"}, {"ue_dropout", "bs_dropout"}),
    ("sweep", {"bs_dropout", "output"}, {"sweep_min", "sweep_max", "ue_dropout"}),
], ids=["run", "sweep"])
def test_metadata_records_only_knobs_that_took_effect(tmp_path, command, absent, present):
    # run ignores the sweep bounds; a sweep over bs_dropout overrides its fixed
    # count; the output path shapes no row
    out = tmp_path / "meta.csv"
    argv = [command, str(ROOT / "configs" / "bs_sweep.json"), "-o", str(out),
            "--seeds", "0", "--iterations", "1"]
    assert main(argv) == 0
    meta, _ = read_csv(out)
    keys = {line[2:].split("=", 1)[0] for line in meta}
    assert not keys & absent
    assert present <= keys


@pytest.mark.parametrize("output", ["missing/out.csv", "."], ids=["missing-dir", "a-dir"])
def test_an_unwritable_output_is_refused_before_any_simulation(tmp_path, monkeypatch, output):
    # a sweep into a missing directory ran all its simulations and then
    # failed to open the file; a directory as output failed the same way
    simulations = []
    simulate = experiments.run_simulation

    def counted(*args):
        simulations.append(args)
        return simulate(*args)

    monkeypatch.setattr(experiments, "run_simulation", counted)
    cfg = write_config(tmp_path, sweep_axis="bs_dropout", sweep_max=1)
    before = sorted(tmp_path.rglob("*"))
    assert main(["sweep", str(cfg), "-o", str(tmp_path / output)]) == 1
    assert simulations == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("output", [1, True, 3.5, "", ["a.csv"], None, b"a.csv"])
def test_spec_refuses_an_output_that_is_not_a_path(output):
    with pytest.raises(ValueError, match="^output must be a non-empty path, got "):
        ExperimentSpec.from_dict({**FAST, "output": output})


@pytest.mark.parametrize("output", [1, True])
def test_cli_refuses_an_output_that_is_not_a_path(tmp_path, output):
    # the config's output 1 (or true) was taken for stdout's file descriptor:
    # the CSV went to stdout, which was then closed, and main's last print
    # died with a traceback. No -o, which would override the key
    cfg = write_config(tmp_path, output=output)
    run = "import sys; from secagg5g.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", run, "run", str(cfg)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: output must be a non-empty path, got {output!r}\n"


# every column of both column sets, with a comma, a quote, a non-ASCII
# letter, a float and an empty cell among the values
PINNED_METADATA = {"n_ues": 8, "seeds": [0, 1], "sweep_max": None, "learning_rate": 0.5,
                   "bs_payload_ratio": 56.888888888888886, "mask_share_mode": "compact"}
PINNED_ROWS = [
    {**{c: i for i, c in enumerate(RESULT_COLUMNS + COMPARE_COLUMNS)},
     "outcome": "AGGREGATED", "accuracy": 0.8125, "mode": "COMPACT", "bs_payload_bytes": 9.0},
    {**{c: -i for i, c in enumerate(RESULT_COLUMNS + COMPARE_COLUMNS)},
     "outcome": 'a,"b"', "accuracy": 1 / 3, "mode": "évaluée", "bs_payload_bytes": ""},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("columns", [RESULT_COLUMNS, COMPARE_COLUMNS], ids=["result", "compare"])
def test_the_written_bytes_are_pinned(tmp_path, fmt, columns):
    out = tmp_path / f"pinned.{fmt}"
    spec = ExperimentSpec.from_dict({**FAST, "output": out, "format": fmt})
    write_results(spec, PINNED_METADATA, PINNED_ROWS, columns)
    kept = [{c: row[c] for c in columns} for row in PINNED_ROWS]
    if fmt == "json":
        want = json.dumps({"metadata": PINNED_METADATA, "rows": kept}, indent=2) + "\n"
    else:
        text = io.StringIO()
        text.writelines(f"# {key}={PINNED_METADATA[key]}\n" for key in sorted(PINNED_METADATA))
        writer = csv.DictWriter(text, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(kept)
        want = text.getvalue()
    assert out.read_bytes() == want.encode("utf-8")
