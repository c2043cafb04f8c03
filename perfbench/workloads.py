"""The benchmark's three workloads: inputs made from a seed, and one pass each.

A pass is one simulation (``wide_model``, ``many_devices``) or one CLI sweep
(``dropout_sweep``) in the calling process. It observes the program only
through its public calls: ``run_simulation`` and ``cli.main`` are timed from
outside, and each task the program trains with is a proxy that lays a mark
on the pass's ``calibrate.Timeline`` when it is made (set-up starts), at the
first local update (set-up ends) and at every round close (the ``accuracy``
call). The sweep makes its own tasks, so there the proxy wraps what
``experiments.generate_data`` returns for the length of the call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import shutil
import tempfile
from pathlib import Path
from secagg5g import (DropoutSchedule, MaskShareMode, SimConfig, cli, experiments,
                     run_simulation)
from secagg5g.fltask import generate_data

import oracle
from calibrate import Timeline

N_BSS, BS_THRESHOLD = 4, 3
MIN_ONLINE_FRACTION = 1.0 / 3.0
FRAC_BITS = 16
TASK = dict(samples_per_shard=40, test_samples=200, learning_rate=0.5, local_epochs=2)

# model_dim, devices, rounds and Bernoulli dropout rates per simulation workload
SIMULATIONS = {
    "wide_model": dict(model_dim=2048, n_ues=8, rounds=100, ue_prob=0.0, bs_prob=0.0),
    "many_devices": dict(model_dim=10, n_ues=256, rounds=100, ue_prob=0.2, bs_prob=0.1),
}
SWEEP = dict(n_ues=16, model_dim=1000, rounds=10, seeds=4, max_bs_dropout=2)

NAMES = (*SIMULATIONS, "dropout_sweep")


def model_dim(name: str) -> int:
    return SIMULATIONS[name]["model_dim"] if name in SIMULATIONS else SWEEP["model_dim"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_inputs(name: str, seed: int):
    """(SimConfig, DropoutSchedule, generate_data kwargs) for a simulation workload."""
    spec = SIMULATIONS[name]
    n, d = spec["n_ues"], spec["model_dim"]
    cfg = SimConfig(
        n_ues=n, n_bss=N_BSS, bs_threshold=BS_THRESHOLD,
        min_online_fraction=MIN_ONLINE_FRACTION, model_dim=d,
        iterations=spec["rounds"], rng_seed=seed,
        mask_share_mode=MaskShareMode.EVALUATED, frac_bits=FRAC_BITS,
    )
    schedule = DropoutSchedule(
        ue_prob=spec["ue_prob"], bs_prob=spec["bs_prob"], prob_seed=seed,
        prob_ue_ids=tuple(range(1, n + 1)), prob_bs_ids=tuple(range(1, N_BSS + 1)),
    )
    return cfg, schedule, dict(seed=seed, n_ues=n, feature_dim=d - 1, **TASK)


class TimedTask:
    """Passes every call to the task; marks set-up and round closes."""

    def __init__(self, task, timeline: Timeline):
        self._task = task
        self._timeline = timeline
        # start and end of set-up, then one per round close; kept by the
        # caller without the task, so that the task's data is freed with it
        self.marks: list[int] = [timeline.mark()]

    def __getattr__(self, name):
        return getattr(self._task, name)

    def local_update(self, ue_index, model):
        if len(self.marks) == 1:
            self.marks.append(self._timeline.mark())
        return self._task.local_update(ue_index, model)

    def accuracy(self, model):
        self.marks.append(self._timeline.mark())
        return self._task.accuracy(model)


def _timings(timeline: Timeline, tasks: list[list[int]], rounds: int, first: int, last: int,
             setups_s: list[float] | None = None) -> dict:
    """Set-up, round and whole-pass times, each scaled and raw.

    ``tasks`` holds each task proxy's marks. ``setups_s`` are set-up times
    the program measured itself, one per task; without them a set-up runs
    from the task's first mark to its second.
    """
    if sum(len(marks) - 2 for marks in tasks) != rounds:
        raise RuntimeError("the task proxies saw another number of rounds than the program ran")
    spans = [(a, b) for marks in tasks for a, b in zip(marks[1:], marks[2:])]
    setups = [(marks[0], marks[1]) for marks in tasks]
    if setups_s is None:
        scaled_setups = [timeline.scaled_s(a, b) for a, b in setups]
        raw_setups = [timeline.raw_s(a, b) for a, b in setups]
    else:
        scaled_setups = [s * timeline.scale(a, b) for s, (a, b) in zip(setups_s, setups)]
        raw_setups = setups_s
    return {
        "setups_s": scaled_setups,
        "raw_setups_s": raw_setups,
        "round_ms": [timeline.scaled_s(a, b) * 1e3 for a, b in spans],
        "raw_round_ms": [timeline.raw_s(a, b) * 1e3 for a, b in spans],
        "rounds": rounds,
        "elapsed_s": timeline.scaled_s(first, last),
        "raw_elapsed_s": timeline.raw_s(first, last),
        "reference_ms": timeline.reference_ms(),
    }


def _bytes_sent(rm) -> int:
    return rm.bytes_ue_sent + rm.bytes_bs_sent + rm.bytes_af_sent


def sim_pass(name: str, seed: int, tracer=None) -> dict:
    cfg, schedule, task_kwargs = sim_inputs(name, seed)
    generate, run = generate_data, run_simulation
    if tracer is not None:
        generate = tracer.wrap("fltask.generate_data", generate)
        run = tracer.wrap("simnet.run_simulation", run)
    timeline = Timeline(calibrated=tracer is None)
    task = TimedTask(generate(**task_kwargs), timeline)
    result = run(cfg, schedule, task)
    last = timeline.mark()
    rss = peak_rss_mb()
    return {
        **_timings(timeline, [task.marks], len(result.rounds), task.marks[0], last),
        "peak_rss_mb": rss,
        "wire_bytes_per_round": sum(map(_bytes_sent, result.rounds)) / len(result.rounds),
        "outputs": [oracle.model_digest(m) for m in result.model_history],
    }


def sim_oracle(name: str, seed: int) -> list[str]:
    spec = SIMULATIONS[name]
    _, schedule, task_kwargs = sim_inputs(name, seed)
    replay = oracle.fedavg(
        generate_data(**task_kwargs), schedule, spec["n_ues"], N_BSS, BS_THRESHOLD,
        MIN_ONLINE_FRACTION, spec["rounds"], FRAC_BITS,
    )
    return [oracle.model_digest(model) for _, model in replay]


def sweep_seeds(seed: int) -> list[int]:
    return [seed * SWEEP["seeds"] + i for i in range(SWEEP["seeds"])]


def sweep_config(seed: int, output: Path) -> dict:
    return dict(
        n_ues=SWEEP["n_ues"], n_bss=N_BSS, bs_threshold=BS_THRESHOLD,
        min_online_fraction=MIN_ONLINE_FRACTION, iterations=SWEEP["rounds"],
        mask_share_mode="compact", frac_bits=FRAC_BITS,
        feature_dim=SWEEP["model_dim"] - 1, data_seed=seed, **TASK,
        seeds=sweep_seeds(seed), sweep_axis="bs_dropout",
        sweep_min=0, sweep_max=SWEEP["max_bs_dropout"],
        output=str(output), format="csv",
    )


def _row_output(value, seed, iteration, outcome, accuracy: float) -> str:
    return f"{value},{seed},{iteration},{outcome},{accuracy!r}"


def sweep_pass(seed: int, tracer=None) -> dict:
    """``secagg5g sweep`` on a generated config in a scratch directory under
    the working directory, removed afterwards."""
    timeline = Timeline(calibrated=tracer is None)
    tasks: list[list[int]] = []
    generate = experiments.generate_data

    def timed_generate_data(**kwargs):
        task = TimedTask(generate(**kwargs), timeline)
        tasks.append(task.marks)
        return task

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    try:
        config, output = work / "sweep.json", work / "sweep.csv"
        config.write_text(json.dumps(sweep_config(seed, output)), encoding="utf-8")
        experiments.generate_data = timed_generate_data
        first = timeline.mark()
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["sweep", str(config)])
        last = timeline.mark()
        rss = peak_rss_mb()
        if status != 0:
            raise RuntimeError(f"secagg5g sweep exited with status {status}")
        with open(output, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    finally:
        experiments.generate_data = generate
        shutil.rmtree(work)
    # rows are in run order: sweep value, then seed, then round
    setups = {(r["sweep_value"], r["seed"]): float(r["time_setup_ms"]) / 1e3 for r in rows}
    if len(setups) != len(tasks):
        raise RuntimeError(f"{len(tasks)} tasks made for {len(setups)} simulations")
    return {
        **_timings(timeline, tasks, len(rows), first, last, list(setups.values())),
        "peak_rss_mb": rss,
        "wire_bytes_per_round": sum(
            int(r["bytes_ue_sent"]) + int(r["bytes_bs_sent"]) + int(r["bytes_af_sent"])
            for r in rows) / len(rows),
        "outputs": [
            _row_output(r["sweep_value"], r["seed"], r["iteration"], r["outcome"],
                        float(r["accuracy"]))
            for r in rows
        ],
    }


def sweep_oracle(seed: int) -> list[str]:
    """Outcome and accuracy per CSV row, in the CSV's (value, seed, round) order.

    The stations with the highest ids are offline for the whole run, and
    each run seed s draws its data from seed data_seed * 1_000_003 + s, as
    ``ExperimentSpec.task`` does.
    """
    out = []
    for value in range(SWEEP["max_bs_dropout"] + 1):
        schedule = DropoutSchedule.constant(bs_ids=range(N_BSS - value + 1, N_BSS + 1))
        for s in sweep_seeds(seed):
            task = generate_data(
                seed=seed * 1_000_003 + s, n_ues=SWEEP["n_ues"],
                feature_dim=SWEEP["model_dim"] - 1, **TASK,
            )
            replay = oracle.fedavg(
                task, schedule, SWEEP["n_ues"], N_BSS, BS_THRESHOLD,
                MIN_ONLINE_FRACTION, SWEEP["rounds"], FRAC_BITS,
            )
            out += [_row_output(value, s, t, outcome, task.accuracy(model))
                    for t, (outcome, model) in enumerate(replay)]
    return out


def run_pass(name: str, seed: int, tracer=None) -> dict:
    """One pass; ``tracer``, when given, is already installed in the program."""
    if name in SIMULATIONS:
        return sim_pass(name, seed, tracer)
    return sweep_pass(seed, tracer)


def run_oracle(name: str, seed: int) -> list[str]:
    if name in SIMULATIONS:
        return sim_oracle(name, seed)
    return sweep_oracle(seed)
