"""Experiment orchestration: single runs, dropout sweeps, mode comparisons.

An ExperimentSpec is loaded from a flat JSON file (CLI flags override file
keys); the protocol knobs among the keys become its SimConfig. Results come
back as one row per (sweep point, seed, iteration) plus a metadata dict
echoing every knob that took effect, and are written as CSV (.-decimal,
comma-separated, metadata as leading ``# key=value`` lines) or JSON. Row
order is deterministic; only the wall-clock timing columns vary between
identical runs.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from pathlib import Path

from .field import require_int, require_real
from .fltask import TASK_FLOORS, generate_data
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
    output: str = "results.csv"
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
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
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


def run_experiment(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    """One row per (sweep point, seed, iteration), deterministically ordered."""
    rows: list[dict] = []
    for value in spec.sweep_values():
        ue_drop = value if spec.sweep_axis == "ue_dropout" else spec.ue_dropout
        bs_drop = value if spec.sweep_axis == "bs_dropout" else spec.bs_dropout
        schedule = spec.schedule(ue_drop, bs_drop)
        for seed in spec.seeds:
            logger.info("sweep=%s value=%d seed=%d", spec.sweep_axis, value, seed)
            result = run_simulation(replace(spec.sim, rng_seed=seed), schedule, spec.task(seed))
            rows.extend(_result_rows(result, value, seed))
    rows.sort(key=lambda r: (r["sweep_value"], r["seed"], r["iteration"]))
    return spec.metadata(), rows


def compare_modes(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    """Run identical seeds under both mask-share modes, without a sweep.

    Accuracies must agree exactly between modes (the recovered masks are
    identical field vectors); a mismatch means the protocol is broken, so it
    raises rather than reporting.
    """
    spec = replace(spec, sweep_axis="none")
    runs = {
        mode.name: run_experiment(replace(spec, sim=replace(spec.sim, mask_share_mode=mode)))[1]
        for mode in MaskShareMode
    }
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
    return meta, sorted(runs["EVALUATED"] + runs["COMPACT"], key=lambda r: r["mode"])


def write_csv(path, metadata: dict, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={metadata[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_json(path, metadata: dict, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metadata": metadata, "rows": rows}, fh, indent=2)
        fh.write("\n")


def write_results(spec: ExperimentSpec, metadata: dict, rows: list[dict], columns) -> None:
    rows = [{c: row[c] for c in columns} for row in rows]
    if spec.format == "csv":
        write_csv(spec.output, metadata, rows, columns)
    else:
        write_json(spec.output, metadata, rows)
