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

Every fan-out is packed once, draws one latency per receiver and is at
most one event, so traffic moves in four shapes:

- set-up shares are delivered as they are sent, before round 0, which
  starts at the last share's arrival;
- a round's masked updates are packed as one block
  (``MaskedUpdateBlock.to_bytes``) right after masking. The updates that
  arrive by the deadline reach the server as one event at the deadline
  instant, decoded in one ``updates_from_bytes`` call and collected in one
  ``Aggregator.collect_block`` call; the late ones are a second block,
  delivered at the last late arrival, which the server refuses as STALE
  (a late drop), because the list is fixed at the deadline. The server
  reads no update before the deadline, so this changes nothing it sees;
- at the deadline the online list is packed and decoded once, and each
  online station answers it in the order the list reaches them, with a
  share that draws its own latency. The server reads no share before it
  holds them all, so the shares land as one event at the last arrival;
- the model broadcast is one frame, delivered as one event at its last
  receiver's arrival, which decodes it once and writes every receiver's
  model row at once.

The latencies are drawn in the order a per-delivery simulation would draw
them. Traffic is still charged per delivered message, from one table
(``_LEDGER``): one to its link's message count and its exact wire length
(``wire_length``, computed from the message's counts without packing it
again) to the sender's and the receiver's bytes, in ``SetupMetrics`` for
setup shares and in the ``RoundMetrics`` of the round it carries
otherwise; m copies of a message, such as a block of m updates or a model
sent to m devices, are charged as m deliveries in one step.

Set-up sends every device's key shares to the base stations, then
precomputes every device's masks in one ``protocol.precompute_fleet`` call.
Each round start trains every device in one ``task.local_update`` call
over the stacked shards and models, and masks the online devices' rows in
one ``protocol.mask_updates`` call. Local model training is excluded from
the per-role compute times; the timers cover the aggregation protocol's
own work only. Each round close writes the global model into its row of
one (iterations, d) float64 array, the run's trajectory, which the result
returns read-only.
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
    MaskedUpdateBlock,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareMsg,
    from_bytes,
    updates_from_bytes,
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
        for name in ("n_ues", "n_bss", "bs_threshold", "model_dim", "iterations", "frac_bits"):
            value = getattr(self, name)
            # a JSON true is an int to Python, but no count
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.mask_share_mode, MaskShareMode):
            raise ValueError(
                f"mask_share_mode must be a MaskShareMode, got {self.mask_share_mode!r}")
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


def account_message(metrics, msg, copies: int = 1) -> None:
    """Count ``copies`` deliveries of a message of ``msg``'s type and length
    on its link and charge their exact wire length to the sender and the
    receiver."""
    nbytes = copies * wire_length(msg)
    count, sent, recv = _LEDGER[type(msg)]
    setattr(metrics, count, getattr(metrics, count) + copies)
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


@dataclass
class _RoundState:
    online_ues: tuple[int, ...]
    online_bss: tuple[int, ...]
    metrics: RoundMetrics


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

    def _latencies(self, m: int) -> list[float]:
        """m link latencies drawn in order; ``base + jitter * random()`` is
        bit for bit ``base + uniform(0.0, jitter)``, without a call per draw."""
        base, jitter, draw = (
            self.cfg.latency_base_ms, self.cfg.latency_jitter_ms, self.latency_rng.random)
        return [base + jitter * draw() for _ in range(m)]

    def _push(self, when: float, kind: int, handler, *args) -> None:
        """Call ``handler(*args)`` at simulated time ``when``; events at one
        instant run in ``kind`` rank, then in the order they were pushed."""
        heapq.heappush(self.heap, (when, kind, self.seq, handler, args))
        self.seq += 1

    # -- setup phase ------------------------------------------------------

    def _run_setup(self) -> float:
        """Distribute every UE's shares, then precompute the whole fleet's
        masks in one pass; returns the last share's arrival, so that round 0
        starts only once every base station is provisioned. A station only
        stores what it receives, so each share lands in send order."""
        acc = self.cfg.access_structure()
        frames = []
        with _Timer(self.setup_metrics, "time_setup_ms"):
            for i in self.ue_ids:
                delivery = route_setup_shares(
                    self.ues[i].setup(acc, self.shamir_rng), set(self.bs_ids))
                frames += [(j, delivery[j].to_bytes()) for j in sorted(delivery)]
            last_arrival = self.now + max(self._latencies(len(frames)))
            # precompute draws no randomness, so the draws above keep their order
            precompute_fleet([self.ues[i] for i in self.ue_ids], self.cfg.iterations)
        for j, raw in frames:
            msg = from_bytes(raw)
            account_message(self.setup_metrics, msg)
            self.bss[j].receive_share(msg)
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
            block = mask_updates(
                [self.ues[i] for i in online_ues], updates[[i - 1 for i in online_ues]], t
            )
        deadline = self.now + self.cfg.deadline_ms
        if online_ues:
            self._send_updates(block, deadline)
        self._push(deadline, _KIND_DEADLINE, self._on_deadline, t)

    def _send_updates(self, block, deadline: float) -> None:
        """Pack the round's masked updates once and deliver them as at most
        two blocks: the rows that arrive by the deadline at the deadline
        instant, where a delivery still lands before the deadline fires, and
        the late rows at the last arrival. The list is fixed at the
        deadline, so the server refuses every late row whenever it lands."""
        arrivals = [self.now + lat for lat in self._latencies(len(block))]
        on_time = [r for r, when in enumerate(arrivals) if when <= deadline]
        late = [r for r, when in enumerate(arrivals) if when > deadline]
        if late:
            # on-time rows first, so that they are one run of the packed block
            order = on_time + late
            block = MaskedUpdateBlock(
                block.senders[order], block.iterations[order], block.payloads[order])
        raw = memoryview(block.to_bytes())
        split = len(on_time) * (len(raw) // len(block))
        if on_time:
            self._push(deadline, _KIND_DELIVER, self._on_updates, raw[:split], len(on_time))
        if late:
            self._push(max(arrivals), _KIND_DELIVER, self._on_updates, raw[split:], len(late))

    def _on_updates(self, raw, frames: int) -> None:
        block = updates_from_bytes(raw, frames)
        metrics = self.round_state[int(block.iterations[0])].metrics
        account_message(metrics, block[0], frames)
        # each device sends one update per round, so nothing is repeated
        # and only an update that missed its deadline is stale
        with _Timer(metrics, "time_af_ms"):
            statuses = self.af.collect_block(block)
        metrics.late_drops += statuses.count(CollectStatus.STALE)

    def _on_deadline(self, t: int) -> None:
        """Fix the online list and run the stations' phase: the list is one
        frame, decoded once, and each online station answers it in the order
        the list reaches them, ties in station order, with a share of its
        own latency. The server reads no share before it holds them all, so
        they land as one event at the last share's arrival."""
        state = self.round_state[t]
        with _Timer(state.metrics, "time_af_ms"):
            online_list = self.af.finalize_online_list()
        state.metrics.online_list_size = len(self.af.online_ids)
        if online_list is None or not state.online_bss:
            self._close_round(state, FALLBACK)
            return
        k = len(state.online_bss)
        online_list = from_bytes(online_list.to_bytes())
        account_message(state.metrics, online_list, k)
        reached = sorted(zip([self.now + lat for lat in self._latencies(k)], state.online_bss))
        shares, last = {}, self.now
        for (when, j), lat in zip(reached, self._latencies(k)):
            # set-up gave every station a share of every device's key
            with _Timer(state.metrics, "time_bs_ms"):
                share = self.bss[j].mask_share(
                    online_list, t, self.cfg.mask_share_mode, self.cfg.model_dim)
            shares[j] = from_bytes(share.to_bytes())
            account_message(state.metrics, shares[j])
            last = max(last, when + lat)
        self._push(last, _KIND_DELIVER, self._on_shares, state, shares)

    def _on_shares(self, state: _RoundState, shares: dict[int, MaskShareMsg]) -> None:
        with _Timer(state.metrics, "time_af_ms"):
            agg_mask = self.af.recover_mask(shares, self.cfg.mask_share_mode)
            if agg_mask is not None:
                self.af.unmask_and_aggregate(agg_mask)
        self._close_round(state, FALLBACK if agg_mask is None else AGGREGATED)

    def _on_model(self, raw: bytes, rows: list[int]) -> None:
        msg = from_bytes(raw)
        account_message(self.round_state[msg.iteration].metrics, msg, len(rows))
        self.ue_models[rows] = msg.weights

    def _close_round(self, state: _RoundState, outcome: str) -> None:
        """The one way out of a round: record its outcome, send the model
        (the previous one on FALLBACK) to the online devices as one frame,
        each device drawing its latency, delivered to all of them as one
        event at the last arrival, and start the next round then. Only late
        updates and the model delivery reach a closed round, and they touch
        its metrics alone."""
        state.metrics.outcome = outcome
        fallback = outcome == FALLBACK
        model_msg = self.af.fallback() if fallback else self.af.global_model_message()
        state.metrics.accuracy = self.task.accuracy(self.af.global_model)
        t = state.metrics.iteration
        self.models[t] = self.af.global_model
        last_arrival = self.now
        if state.online_ues:
            last_arrival = self.now + max(self._latencies(len(state.online_ues)))
            self._push(last_arrival, _KIND_DELIVER, self._on_model, model_msg.to_bytes(),
                       [i - 1 for i in state.online_ues])
        if t + 1 < self.cfg.iterations:
            self._push(last_arrival, _KIND_ROUND_START, self._on_round_start, t + 1)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        setup_done = self._run_setup()
        # every round closes once, so each row is written exactly once.
        # Allocated after set-up has freed its temporary coefficient table
        # of the same size, so that the allocator can hand the trajectory
        # those resident pages instead of adding 8 * iterations * d bytes
        # to the peak resident set
        self.models = np.empty((self.cfg.iterations, self.cfg.model_dim))
        self._push(setup_done, _KIND_ROUND_START, self._on_round_start, 0)
        while self.heap:
            self.now, _kind, _seq, handler, args = heapq.heappop(self.heap)
            handler(*args)
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
