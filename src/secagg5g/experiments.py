"""Experiment orchestration: single runs, dropout sweeps, mode comparisons.

An ExperimentSpec is loaded from a flat JSON file (CLI flags override file
keys); the protocol knobs among the keys become its SimConfig. Results come
back as one row per (sweep point, seed, iteration) plus a metadata dict
echoing every knob that took effect, and are written as CSV (.-decimal,
comma-separated, metadata as leading ``# key=value`` lines) or JSON. Row
order is deterministic; only the wall-clock timing columns vary between
identical runs.

A command runs seed-major: for each seed, every point (sweep value or mask
share mode) in turn. A seed's task depends on the seed alone, so it is drawn
once and shared, read-only, by that seed's simulations; it is dropped before
the next seed's is drawn and when the command returns.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from pathlib import Path

from .field import require_int, require_real
from . import fltask
from .fltask import TASK_FLOORS
from .messages import HEADER_LEN, MaskShareMode
from .simnet import DropoutSchedule, SimConfig, SimResult, run_simulation

logger = logging.getLogger(__name__)

SWEEP_AXES = ("none", "ue_dropout", "bs_dropout")

RESULT_COLUMNS = [
    "sweep_value",
    "seed",
    "iteration",
    "outcome",
    "online_ues",
    "online_bss",
    "accuracy",
    "bytes_ue_sent",
    "bytes_bs_sent",
    "bytes_af_sent",
    "time_setup_ms",
    "time_aggregation_ms",
    "mode",
]

COMPARE_COLUMNS = [
    "mode",
    "seed",
    "iteration",
    "outcome",
    "accuracy",
    "bytes_bs_sent",
    "msgs_bs_to_af",
    "bs_payload_bytes",
]

# Protocol knobs a config file sets directly. model_dim follows feature_dim and
# rng_seed is each run's seed, so neither is a config key.
SIM_KEYS = tuple(f.name for f in fields(SimConfig) if f.name not in ("model_dim", "rng_seed"))


# the one task kept, under its arguments; see generate_data
_held: dict[tuple, fltask.FlTask] = {}


def generate_data(**kwargs) -> fltask.FlTask:
    """``fltask.generate_data``, remembering the last task drawn: the same
    arguments again return the same task. Its arrays are read-only, so that
    no simulation changes another's data, and the task held is dropped
    before another is drawn, so that two are never alive at once."""
    key = tuple(sorted(kwargs.items()))
    if key not in _held:
        _held.clear()
        task = fltask.generate_data(**kwargs)
        for array in (task.train_xb, task.train_y, task.test_xb, task.test_y):
            array.flags.writeable = False
        _held[key] = task
    return _held[key]


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key named twice, of which
    ``json.loads`` would keep the last value silently."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ValueError(f"config key {key!r} is named twice")
        raw[key] = value
    return raw


# ExperimentSpec fields that count something or seed a generator, and the
# least value each takes; the task's counts take generate_data's floors
_COUNT_FLOORS = {**TASK_FLOORS, "data_seed": 0, "sweep_min": 0}


@dataclass
class ExperimentSpec:
    """Training task and experiment shape around one protocol config.

    ``sim`` holds every protocol / simulator knob; its ``model_dim`` is always
    ``feature_dim + 1`` and each run replaces its ``rng_seed`` with the seed.
    The spec is validated on construction.
    """

    # training task
    feature_dim: int = 9
    samples_per_shard: int = 40
    test_samples: int = 200
    learning_rate: float = 0.5
    local_epochs: int = 2
    data_seed: int = 7
    # experiment shape
    seeds: list[int] = dc_field(default_factory=lambda: [0])
    sweep_axis: str = "none"
    sweep_min: int = 0
    sweep_max: int | None = None
    ue_dropout: int = 0
    bs_dropout: int = 0
    output: str | os.PathLike = "results.csv"
    format: str = "csv"
    sim: SimConfig = dc_field(default_factory=SimConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        """Build a spec from flat config keys: ``SIM_KEYS`` go to ``sim``."""
        own = {f.name for f in fields(cls)} - {"sim"}
        unknown = set(raw) - own - set(SIM_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sim = {k: v for k, v in raw.items() if k in SIM_KEYS}
        if "mask_share_mode" in sim:
            mode = sim["mask_share_mode"]
            if not isinstance(mode, str) or mode.upper() not in MaskShareMode.__members__:
                raise ValueError("mask_share_mode must be evaluated or compact")
            sim["mask_share_mode"] = MaskShareMode[mode.upper()]
        return cls(**{k: v for k, v in raw.items() if k in own}, sim=SimConfig(**sim))

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentSpec":
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(raw)

    def __post_init__(self):
        # refused here, not halfway through a run (a float seed fails in
        # numpy, a float dropout count in range)
        if not isinstance(self.seeds, list):
            raise ValueError(f"seeds must be a list of ints, got {self.seeds!r}")
        for name, lo in _COUNT_FLOORS.items():
            require_int(name, getattr(self, name), lo)
        for seed in self.seeds:
            require_int("seeds", seed)
        if self.sweep_max is not None:
            require_int("sweep_max", self.sweep_max)
        self.sim = replace(self.sim, model_dim=self.feature_dim + 1)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds repeat: {self.seeds}")
        require_real("learning_rate", self.learning_rate, 0, lo_open=True)
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        # open() would take an int for a file descriptor, and stdout's is 1
        if not isinstance(self.output, (str, os.PathLike)) or not os.fspath(self.output):
            raise ValueError(f"output must be a non-empty path, got {self.output!r}")
        require_int("ue_dropout", self.ue_dropout, 0, self.sim.n_ues + 1)
        require_int("bs_dropout", self.bs_dropout, 0, self.sim.n_bss + 1)
        if self.sweep_axis != "none":
            hi = self.sweep_cap()
            if self.sweep_max is not None:
                require_int("sweep_max", self.sweep_max, 0, hi + 1)
                hi = self.sweep_max
            require_int("sweep_min", self.sweep_min, 0, hi + 1)

    def sweep_cap(self) -> int:
        """Largest dropout count on the active axis, leaving two entities."""
        if self.sweep_axis == "ue_dropout":
            return max(self.sim.n_ues - 2, 0)
        return max(self.sim.n_bss - 2, 0)

    def sweep_values(self) -> list[int]:
        if self.sweep_axis == "none":
            return [0]
        hi = self.sweep_max if self.sweep_max is not None else self.sweep_cap()
        return list(range(self.sweep_min, hi + 1))

    def task(self, seed: int):
        # each run seed draws its own data so per-seed accuracies vary
        return generate_data(
            seed=self.data_seed * 1_000_003 + seed,
            n_ues=self.sim.n_ues,
            feature_dim=self.feature_dim,
            samples_per_shard=self.samples_per_shard,
            test_samples=self.test_samples,
            learning_rate=self.learning_rate,
            local_epochs=self.local_epochs,
            clip_bound=self.sim.magnitude_bound,
        )

    def schedule(self, ue_drop: int, bs_drop: int) -> DropoutSchedule:
        """Drop the highest-indexed entities for the whole run, shrinking the
        active population exactly as a sustained outage would."""
        return DropoutSchedule.constant(
            ue_ids=range(self.sim.n_ues - ue_drop + 1, self.sim.n_ues + 1),
            bs_ids=range(self.sim.n_bss - bs_drop + 1, self.sim.n_bss + 1),
        )

    def metadata(self) -> dict:
        """Flat config keys and values of the knobs that took effect, then
        ``model_dim``: no sweep bounds without a sweep, no fixed count for
        the axis being swept, and no ``output``, which does not shape the
        rows."""
        unused = ("sweep_min", "sweep_max") if self.sweep_axis == "none" else (self.sweep_axis,)
        out = {k: getattr(self.sim, k) for k in SIM_KEYS}
        out["mask_share_mode"] = self.sim.mask_share_mode.name.lower()
        out.update((k, v) for k, v in asdict(self).items() if k not in ("sim", "output", *unused))
        out["model_dim"] = self.sim.model_dim
        return out


def _result_rows(result: SimResult, sweep_value: int, seed: int) -> list[dict]:
    """Every column any command writes; ``write_results`` keeps the command's own."""
    rows = []
    for rm in result.rounds:
        per_msg = rm.bytes_bs_sent / rm.msgs_bs_to_af if rm.msgs_bs_to_af else 0.0
        rows.append(
            {
                "sweep_value": sweep_value,
                "seed": seed,
                "iteration": rm.iteration,
                "outcome": rm.outcome,
                "online_ues": rm.online_ues,
                "online_bss": rm.online_bss,
                "accuracy": rm.accuracy,
                "bytes_ue_sent": rm.bytes_ue_sent,
                "bytes_bs_sent": rm.bytes_bs_sent,
                "bytes_af_sent": rm.bytes_af_sent,
                "time_setup_ms": result.setup.time_setup_ms,
                "time_aggregation_ms": rm.time_ue_ms + rm.time_bs_ms + rm.time_af_ms,
                "mode": result.config.mask_share_mode.name,
                "msgs_bs_to_af": rm.msgs_bs_to_af,
                "bs_payload_bytes": per_msg - HEADER_LEN if per_msg else 0.0,
            }
        )
    return rows


def _simulate(spec: ExperimentSpec, points) -> list[dict]:
    """Rows of one simulation per seed and ``(sweep_value, sim, schedule)``
    point, seeds outer, so that each seed's task is drawn once; it is
    released on return."""
    rows: list[dict] = []
    try:
        for seed in spec.seeds:
            for value, sim, schedule in points:
                logger.info("sweep=%s value=%d seed=%d", spec.sweep_axis, value, seed)
                result = run_simulation(replace(sim, rng_seed=seed), schedule, spec.task(seed))
                rows.extend(_result_rows(result, value, seed))
    finally:
        _held.clear()
    return rows


def run_experiment(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    """One row per (sweep point, seed, iteration), deterministically ordered."""
    points = []
    for value in spec.sweep_values():
        ue_drop = value if spec.sweep_axis == "ue_dropout" else spec.ue_dropout
        bs_drop = value if spec.sweep_axis == "bs_dropout" else spec.bs_dropout
        points.append((value, spec.sim, spec.schedule(ue_drop, bs_drop)))
    rows = _simulate(spec, points)
    rows.sort(key=lambda r: (r["sweep_value"], r["seed"], r["iteration"]))
    return spec.metadata(), rows


def compare_modes(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    """Run identical seeds under both mask-share modes, without a sweep.

    Rows come COMPACT then EVALUATED, each in (seed, iteration) order.
    Accuracies must agree exactly between modes (the recovered masks are
    identical field vectors); a mismatch means the protocol is broken, so it
    raises rather than reporting.
    """
    spec = replace(spec, sweep_axis="none")
    schedule = spec.schedule(spec.ue_dropout, spec.bs_dropout)
    rows = _simulate(spec, [(0, replace(spec.sim, mask_share_mode=mode), schedule)
                            for mode in MaskShareMode])
    rows.sort(key=lambda r: (r["mode"], r["seed"], r["iteration"]))
    runs = {mode.name: [r for r in rows if r["mode"] == mode.name] for mode in MaskShareMode}
    for ev, cp in zip(runs["EVALUATED"], runs["COMPACT"]):
        if ev["accuracy"] != cp["accuracy"]:
            key = (ev["seed"], ev["iteration"])
            raise RuntimeError(f"mode accuracies diverge at (seed, iteration)={key}")
    meta = spec.metadata()
    del meta["mask_share_mode"]  # both modes ran
    evaluated, compact = ([r["bs_payload_bytes"] for r in runs[name] if r["bs_payload_bytes"]]
                          for name in ("EVALUATED", "COMPACT"))
    if evaluated and compact:
        meta["bs_payload_ratio"] = (sum(evaluated) / len(evaluated)) / (
            sum(compact) / len(compact)
        )
    return meta, rows


def write_results(spec: ExperimentSpec, metadata: dict, rows: list[dict], columns) -> None:
    """Write the rows' ``columns`` to ``spec.output`` in ``spec.format``:
    for CSV, one ``# key=value`` line per metadata key in key order, then
    the header and the rows; for JSON, one object of the metadata and the
    rows, indented by 2."""
    rows = [{c: row[c] for c in columns} for row in rows]
    with open(spec.output, "w", encoding="utf-8", newline="") as fh:
        if spec.format == "json":
            json.dump({"metadata": metadata, "rows": rows}, fh, indent=2)
            fh.write("\n")
        else:
            fh.writelines(f"# {key}={metadata[key]}\n" for key in sorted(metadata))
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
