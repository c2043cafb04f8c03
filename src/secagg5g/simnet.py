"""Deterministic discrete-event harness for the aggregation protocol.

Simulated milliseconds govern protocol behavior (delivery order, the
collection deadline); wall-clock time is measured separately and only
reported. Given the same config, schedule, and seed, two runs produce
identical event traces, metrics, and models.

Per round: online devices send one masked update each; at the deadline the
server fixes the online list and sends it to online base stations, which
answer with one mask share each; the server reconstructs the mask sum,
updates the global model (or falls back to the previous one), and
broadcasts it. Dropped entities neither send nor receive that round.

Each send packs its message once, into one frame, however many receivers
it has: the online list goes to the online stations and the model to the
online devices as one frame each. Every receiver still draws its own
latency. A frame is decoded by ``from_bytes`` at its first delivery, and
each later receiver gets that same frozen message, whose arrays are
read-only views of the frame.

Traffic is charged per delivered message, from one table (``_LEDGER``):
one to its link's message count and its exact wire length (``wire_length``,
computed from the message's counts without packing it again) to the
sender's and the receiver's bytes, in ``SetupMetrics`` for setup shares and
in the ``RoundMetrics`` of the round it carries otherwise. Late updates are
delivered, charged, and refused by the server as STALE (a late drop).

Set-up sends every device's key shares to the base stations, then
precomputes every device's masks in one ``protocol.precompute_fleet`` call.
Each round start trains every device in one ``task.local_update`` call
over the stacked shards and models, masks the online devices' rows in one
``protocol.mask_updates`` call, then sends one message per online device.
Local model training is excluded from the per-role compute times; the
timers cover the aggregation protocol's own work only. Each round close
writes the global model into its row of one (iterations, d) float64 array,
the run's trajectory, which the result returns read-only.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .field import FixedPointCodec
from .messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareMsg,
    from_bytes,
    wire_length,
)
from .protocol import (
    Aggregator,
    BaseStation,
    CollectStatus,
    UserEquipment,
    generate_key,
    mask_updates,
    precompute_fleet,
    route_setup_shares,
)
from .shamir import AccessStructure

AGGREGATED = "AGGREGATED"
FALLBACK = "FALLBACK"

# tie-break ranks for events sharing a timestamp: deliveries land before the
# deadline fires (arrival exactly at the deadline still counts), and a new
# round starts only after everything due at that instant was delivered
_KIND_DELIVER = 0
_KIND_DEADLINE = 1
_KIND_ROUND_START = 2


@dataclass(frozen=True)
class DropoutSchedule:
    """Which entities are offline, per whole aggregation round.

    Explicit per-round sets, always-offline sets, and seeded per-round
    Bernoulli dropouts combine by union. ``dropped_*`` are pure functions of
    (schedule, t).
    """

    ue_rounds: dict[int, frozenset[int]] = dc_field(default_factory=dict)
    bs_rounds: dict[int, frozenset[int]] = dc_field(default_factory=dict)
    ue_always: frozenset[int] = frozenset()
    bs_always: frozenset[int] = frozenset()
    ue_prob: float = 0.0
    bs_prob: float = 0.0
    prob_seed: int = 0
    prob_ue_ids: tuple[int, ...] = ()
    prob_bs_ids: tuple[int, ...] = ()

    @classmethod
    def none(cls) -> "DropoutSchedule":
        return cls()

    @classmethod
    def constant(cls, ue_ids=(), bs_ids=()) -> "DropoutSchedule":
        """The given entities are offline for every round."""
        return cls(ue_always=frozenset(ue_ids), bs_always=frozenset(bs_ids))

    def __post_init__(self):
        for role, prob, ids in (("ue", self.ue_prob, self.prob_ue_ids),
                                ("bs", self.bs_prob, self.prob_bs_ids)):
            # NaN fails both comparisons
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{role}_prob must be in [0, 1], got {prob}")
            if prob > 0.0 and not ids:
                raise ValueError(f"{role}_prob={prob} needs prob_{role}_ids to drop from")

    def _sampled(self, prefix: str, prob: float, ids, t: int) -> frozenset[int]:
        if prob == 0.0:
            return frozenset()
        rng = random.Random(f"{prefix}:{self.prob_seed}:{t}")
        return frozenset(i for i in ids if rng.random() < prob)

    def dropped_ues(self, t: int) -> frozenset[int]:
        return (
            self.ue_always
            | self.ue_rounds.get(t, frozenset())
            | self._sampled("ue", self.ue_prob, self.prob_ue_ids, t)
        )

    def dropped_bss(self, t: int) -> frozenset[int]:
        return (
            self.bs_always
            | self.bs_rounds.get(t, frozenset())
            | self._sampled("bs", self.bs_prob, self.prob_bs_ids, t)
        )


def apply_dropout(
    schedule: DropoutSchedule, t: int, ue_ids, bs_ids
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Online entity ids for round t: configured minus scheduled-off."""
    online_ues = tuple(sorted(set(ue_ids) - schedule.dropped_ues(t)))
    online_bss = tuple(sorted(set(bs_ids) - schedule.dropped_bss(t)))
    return online_ues, online_bss


@dataclass
class SimConfig:
    n_ues: int = 8
    n_bss: int = 4
    bs_threshold: int = 3
    min_online_fraction: float = 1.0 / 3.0
    model_dim: int = 10
    iterations: int = 10
    rng_seed: int = 0
    latency_base_ms: float = 5.0
    latency_jitter_ms: float = 5.0
    deadline_ms: float = 50.0
    mask_share_mode: MaskShareMode = MaskShareMode.EVALUATED
    frac_bits: int = 16
    magnitude_bound: float = 1.0

    def __post_init__(self):
        for name in ("n_ues", "n_bss", "bs_threshold", "model_dim", "iterations"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_ues < 1:
            raise ValueError("need at least one UE")
        if self.model_dim < 1:
            raise ValueError("model_dim must be >= 1")
        # the station threshold and the codec are checked by their own types
        self.access_structure()
        self.codec()
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.min_online_fraction <= 1.0:
            raise ValueError("min_online_fraction must be in (0, 1]")
        timings = (self.latency_base_ms, self.latency_jitter_ms, self.deadline_ms)
        if not all(map(math.isfinite, timings)):
            raise ValueError(f"latencies and deadline must be finite, got {timings}")
        if self.latency_base_ms < 0:
            raise ValueError("base latency must be >= 0")
        if self.deadline_ms <= self.latency_base_ms:
            raise ValueError("deadline must exceed the base latency")
        if self.latency_jitter_ms < 0:
            raise ValueError("latency jitter must be >= 0")

    def codec(self) -> FixedPointCodec:
        # the server never decodes a sum of more than every registered device
        return FixedPointCodec(self.frac_bits, self.magnitude_bound, self.n_ues)

    def access_structure(self) -> AccessStructure:
        return AccessStructure(self.bs_threshold, self.n_bss)


@dataclass
class SetupMetrics:
    bytes_ue_sent: int = 0
    bytes_bs_recv: int = 0
    msgs_ue_to_bs: int = 0
    time_setup_ms: float = 0.0


@dataclass
class RoundMetrics:
    iteration: int
    online_ues: int
    online_bss: int
    outcome: str = FALLBACK
    online_list_size: int = 0
    accuracy: float = 0.0
    bytes_ue_sent: int = 0
    bytes_ue_recv: int = 0
    bytes_bs_sent: int = 0
    bytes_bs_recv: int = 0
    bytes_af_sent: int = 0
    bytes_af_recv: int = 0
    msgs_ue_to_af: int = 0
    msgs_af_to_bs: int = 0
    msgs_bs_to_af: int = 0
    msgs_af_to_ue: int = 0
    late_drops: int = 0
    time_ue_ms: float = 0.0
    time_bs_ms: float = 0.0
    time_af_ms: float = 0.0


# per message type: its link's message count, the sender's bytes and the
# receiver's bytes, as SetupMetrics (setup shares) or RoundMetrics fields
_LEDGER = {
    SetupShareMsg: ("msgs_ue_to_bs", "bytes_ue_sent", "bytes_bs_recv"),
    MaskedUpdateMsg: ("msgs_ue_to_af", "bytes_ue_sent", "bytes_af_recv"),
    OnlineListMsg: ("msgs_af_to_bs", "bytes_af_sent", "bytes_bs_recv"),
    MaskShareMsg: ("msgs_bs_to_af", "bytes_bs_sent", "bytes_af_recv"),
    GlobalModelMsg: ("msgs_af_to_ue", "bytes_af_sent", "bytes_ue_recv"),
}


def account_message(metrics, msg) -> None:
    """Count one delivered message on its link and charge its exact wire
    length to the sender and the receiver."""
    nbytes = wire_length(msg)
    count, sent, recv = _LEDGER[type(msg)]
    setattr(metrics, count, getattr(metrics, count) + 1)
    setattr(metrics, sent, getattr(metrics, sent) + nbytes)
    setattr(metrics, recv, getattr(metrics, recv) + nbytes)


# compared by identity: the generated __eq__ would compare the array field
# with ``==``, which has no single truth value
@dataclass(eq=False)
class SimResult:
    config: SimConfig
    setup: SetupMetrics
    rounds: list[RoundMetrics]
    models: np.ndarray  # read-only (iterations, d) float64; row t: model after round t

    @cached_property
    def model_history(self) -> list[list[float]]:
        """``models`` as lists of Python floats, bit for bit; built on first
        read, so a run holds its trajectory as one array until asked."""
        return self.models.tolist()


class _Frame:
    """One packed message in flight to one or more receivers, and the
    message decoded from it once it first lands."""

    __slots__ = ("raw", "msg")

    def __init__(self, raw: bytes):
        self.raw = raw
        self.msg = None


@dataclass
class _RoundState:
    online_ues: tuple[int, ...]
    online_bss: tuple[int, ...]
    metrics: RoundMetrics
    shares: dict[int, MaskShareMsg] = dc_field(default_factory=dict)


class _Timer:
    """Accumulates wall-clock milliseconds onto a metrics attribute."""

    def __init__(self, metrics, attr: str):
        self.metrics = metrics
        self.attr = attr

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = (time.perf_counter() - self._start) * 1e3
        setattr(self.metrics, self.attr, getattr(self.metrics, self.attr) + elapsed)
        return False


class _Simulation:
    def __init__(self, cfg: SimConfig, schedule: DropoutSchedule, task):
        if task.dim != cfg.model_dim:
            raise ValueError(
                f"task dimension {task.dim} != configured model_dim {cfg.model_dim}"
            )
        if task.n_shards < cfg.n_ues:
            raise ValueError("task has fewer shards than configured UEs")
        self.cfg = cfg
        self.schedule = schedule
        self.task = task
        self.ue_ids = tuple(range(1, cfg.n_ues + 1))
        self.bs_ids = tuple(range(1, cfg.n_bss + 1))
        self._check_schedule()

        master = random.Random(cfg.rng_seed)
        self.key_rng = random.Random(master.getrandbits(64))
        self.shamir_rng = random.Random(master.getrandbits(64))
        self.latency_rng = random.Random(master.getrandbits(64))

        codec = cfg.codec()
        # row i - 1 is device i's model, so one call trains the whole fleet
        self.ue_models = np.zeros((cfg.n_ues, cfg.model_dim))
        self.ues = {
            i: UserEquipment(
                ue_id=i,
                key=generate_key(self.key_rng),
                codec=codec,
                dim=cfg.model_dim,
            )
            for i in self.ue_ids
        }
        self.bss = {j: BaseStation(bs_id=j) for j in self.bs_ids}
        self.af = Aggregator(
            registered_n=cfg.n_ues,
            min_online_fraction=cfg.min_online_fraction,
            bs_threshold=cfg.access_structure(),
            codec=codec,
            dim=cfg.model_dim,
        )

        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.setup_metrics = SetupMetrics()
        self.round_state: dict[int, _RoundState] = {}

    def _check_schedule(self):
        """Refuse a schedule that names an id outside the population. Draws
        nothing: each round's dropout is drawn once, by ``apply_dropout``."""
        s = self.schedule
        ues = set(s.ue_always).union(s.prob_ue_ids, *s.ue_rounds.values())
        bss = set(s.bs_always).union(s.prob_bs_ids, *s.bs_rounds.values())
        unknown = (ues - set(self.ue_ids)) | (bss - set(self.bs_ids))
        if unknown:
            raise ValueError(f"dropout schedule references unknown ids {unknown}")

    def _latency(self) -> float:
        return self.cfg.latency_base_ms + self.latency_rng.uniform(
            0.0, self.cfg.latency_jitter_ms
        )

    def _push(self, when: float, kind: int, sender: int, payload) -> None:
        heapq.heappush(self.heap, (when, kind, sender, self.seq, payload))
        self.seq += 1

    def _send(self, msg, dst_ids) -> float:
        """Pack ``msg`` into one frame and deliver that frame to each of
        ``dst_ids``, each after its own latency draw; returns the last
        arrival, or now when there is no one to send to."""
        if not dst_ids:
            return self.now
        frame = _Frame(msg.to_bytes())
        last = self.now
        for dst_id in dst_ids:
            arrival = self.now + self._latency()
            self._push(arrival, _KIND_DELIVER, msg.sender, (frame, dst_id))
            last = max(last, arrival)
        return last

    # -- setup phase ------------------------------------------------------

    def _run_setup(self) -> float:
        """Distribute every UE's shares, then precompute the whole fleet's
        masks in one pass; returns the last delivery time so round 0 starts
        only once every base station is provisioned."""
        acc = self.cfg.access_structure()
        last_arrival = self.now
        with _Timer(self.setup_metrics, "time_setup_ms"):
            for i in self.ue_ids:
                msgs = self.ues[i].setup(acc, self.shamir_rng)
                delivery = route_setup_shares(msgs, set(self.bs_ids))
                for j in sorted(delivery):
                    last_arrival = max(last_arrival, self._send(delivery[j], (j,)))
            # precompute draws no randomness, so the draws above keep their order
            precompute_fleet([self.ues[i] for i in self.ue_ids], self.cfg.iterations)
        return last_arrival

    # -- event handlers ----------------------------------------------------

    def _on_round_start(self, t: int) -> None:
        online_ues, online_bss = apply_dropout(self.schedule, t, self.ue_ids, self.bs_ids)
        state = _RoundState(
            online_ues=online_ues,
            online_bss=online_bss,
            metrics=RoundMetrics(iteration=t, online_ues=len(online_ues),
                                 online_bss=len(online_bss)),
        )
        self.round_state[t] = state
        self.af.begin_round(t)
        # offline devices' rows are trained too and left unread: gathering
        # the online shards would copy them every round
        updates = self.task.local_update(slice(0, self.cfg.n_ues), self.ue_models)
        with _Timer(state.metrics, "time_ue_ms"):
            msgs = mask_updates(
                [self.ues[i] for i in online_ues], updates[[i - 1 for i in online_ues]], t
            )
        for msg in msgs:
            self._send(msg, (0,))
        self._push(self.now + self.cfg.deadline_ms, _KIND_DEADLINE, 0, t)

    def _on_deadline(self, t: int) -> None:
        state = self.round_state[t]
        with _Timer(state.metrics, "time_af_ms"):
            online_list = self.af.finalize_online_list()
        state.metrics.online_list_size = len(self.af.online_ids)
        if online_list is None or not state.online_bss:
            self._close_round(state, FALLBACK)
            return
        self._send(online_list, state.online_bss)

    def _on_deliver(self, frame: _Frame, dst_id: int) -> None:
        msg = frame.msg
        if msg is None:
            # decoded at the first delivery of its frame; every later
            # receiver gets this same frozen message with read-only arrays
            msg = frame.msg = from_bytes(frame.raw)
        setup = isinstance(msg, SetupShareMsg)
        state = None if setup else self.round_state[msg.iteration]
        metrics = self.setup_metrics if setup else state.metrics
        account_message(metrics, msg)
        if setup:
            self.bss[dst_id].receive_share(msg)
        elif isinstance(msg, MaskedUpdateMsg):
            # each device sends one update per round, so nothing is repeated
            # and only an update that missed its deadline is stale
            with _Timer(metrics, "time_af_ms"):
                status = self.af.collect_update(msg)
            if status is CollectStatus.STALE:
                metrics.late_drops += 1
        elif isinstance(msg, OnlineListMsg):
            # set-up gave every station a share of every device's key
            with _Timer(metrics, "time_bs_ms"):
                share = self.bss[dst_id].mask_share(
                    msg, msg.iteration, self.cfg.mask_share_mode, self.cfg.model_dim
                )
            self._send(share, (0,))
        elif isinstance(msg, MaskShareMsg):
            state.shares[msg.sender] = msg
            self._maybe_recover(state)
        else:
            self.ue_models[dst_id - 1] = msg.weights

    def _maybe_recover(self, state: _RoundState) -> None:
        if len(state.shares) < len(state.online_bss):
            return
        with _Timer(state.metrics, "time_af_ms"):
            agg_mask = self.af.recover_mask(state.shares, self.cfg.mask_share_mode)
            if agg_mask is not None:
                self.af.unmask_and_aggregate(agg_mask)
        self._close_round(state, FALLBACK if agg_mask is None else AGGREGATED)

    def _close_round(self, state: _RoundState, outcome: str) -> None:
        """The one way out of a round: record its outcome, send the model
        (the previous one on FALLBACK) to the online devices as one frame,
        decoded once at its first delivery, and start the next round when
        the last copy lands. Only late updates and model deliveries reach a
        closed round, and they touch its metrics alone."""
        state.metrics.outcome = outcome
        fallback = outcome == FALLBACK
        model_msg = self.af.fallback() if fallback else self.af.global_model_message()
        state.shares.clear()
        state.metrics.accuracy = self.task.accuracy(self.af.global_model)
        t = state.metrics.iteration
        self.models[t] = self.af.global_model
        last_arrival = self._send(model_msg, state.online_ues)
        if t + 1 < self.cfg.iterations:
            self._push(last_arrival, _KIND_ROUND_START, 0, t + 1)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        setup_done = self._run_setup()
        # every round closes once, so each row is written exactly once.
        # Allocated after set-up has freed its temporary coefficient table
        # of the same size, so that the allocator can hand the trajectory
        # those resident pages instead of adding 8 * iterations * d bytes
        # to the peak resident set
        self.models = np.empty((self.cfg.iterations, self.cfg.model_dim))
        self._push(setup_done, _KIND_ROUND_START, 0, 0)
        while self.heap:
            when, kind, _sender, _seq, payload = heapq.heappop(self.heap)
            self.now = when
            if kind == _KIND_DELIVER:
                self._on_deliver(*payload)
            elif kind == _KIND_DEADLINE:
                self._on_deadline(payload)
            else:
                self._on_round_start(payload)
        self.models.setflags(write=False)
        return SimResult(
            config=self.cfg,
            setup=self.setup_metrics,
            rounds=[state.metrics for state in self.round_state.values()],
            models=self.models,
        )


def run_simulation(cfg: SimConfig, schedule: DropoutSchedule, task) -> SimResult:
    """Run setup once, then ``cfg.iterations`` aggregation rounds."""
    return _Simulation(cfg, schedule, task).run()
