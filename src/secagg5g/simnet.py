"""Deterministic simulator of the aggregation protocol, one pass per round.

Simulated milliseconds govern protocol behavior (which updates make the
collection deadline, when each round starts); wall-clock time is measured
separately and only reported. Given the same config, schedule, and seed,
two runs produce identical metrics, models and round start instants.

Per round: online devices send one masked update each; at the deadline the
server fixes the online list and sends it to online base stations, which
answer with one mask share each, all from one call; the server reconstructs the mask sum,
updates the global model (or falls back to the previous one), and
broadcasts it. Dropped entities neither send nor receive that round.

Nothing from one round interleaves with the next, so a run is a plain loop:
``_run_round`` runs round t's phases in order from its start instant and
returns the next round's start. Every fan-out is packed once and draws one
latency per receiver:

- set-up runs as blocks before round 0: one ``Fleet.setup`` call splits
  every device's key, each station's shares are one ``SetupShareBlock``
  packed once, decoded in one ``setup_shares_from_bytes`` call and stored
  in its row of the stations' share matrix in one
  ``Stations.receive_shares`` call,
  and one latency is drawn per share; round 0 starts at the last share's
  arrival;
- a round's update latencies are drawn first, so that the online rows are
  masked on-time rows first, as one block packed once
  (``MaskedUpdateBlock.to_bytes``). The rows that arrive by the deadline
  are decoded in one ``updates_from_bytes`` call and collected in one
  ``Aggregator.collect_block`` call; the server reads no update before the
  deadline, so this changes nothing it sees;
- at the deadline the server fixes the online list. The late rows are then
  charged and handed to the server as a second block, which it refuses as
  STALE (a late drop), as it would wherever they landed: the list is fixed,
  and a later round refuses another round's update;
- the online list is packed and decoded once, and the online stations
  answer it in one ``Stations.mask_shares`` call, in the order the list
  reaches them; ``time_bs_ms`` times that one call. Each share is packed
  and decoded once and draws its own latency, and a station that holds no
  share of a listed device abstains and sends nothing. The server reads no
  share before it holds them all, so the round closes at the last share's
  arrival (at the deadline when it falls back before the stations' phase);
- the model is one frame, decoded once, which writes every online device's
  model row at once; the next round starts at its last arrival, or at the
  close when no device is online.

The latencies are drawn in the order a per-delivery simulation would draw
them. Traffic is still charged per delivered message, from one table
(``_LEDGER``): one to its link's message count and its exact wire length
(``wire_length``, computed from the message's counts without packing it
again) to the sender's and the receiver's bytes, in ``SetupMetrics`` for
setup shares and in the ``RoundMetrics`` of the round it carries
otherwise; m copies of a message, such as a station's block of m set-up
shares, a block of m updates or a model sent to m devices, are charged as
m deliveries in one step.

The devices' state is one ``protocol.Fleet`` whose row i - 1 is device
i, and the stations' one ``protocol.Stations`` whose row j - 1 is station
j and whose column i is device i, for the server's registered devices
1..n; the simulator drives these two holders and never a one-row view. Set-up
splits every device's key in one ``Fleet.setup`` call and stores each base
station's block in its row, then precomputes every device's masks in one
``Fleet.precompute`` call; ``SetupMetrics.time_setup_ms`` times the
devices' side alone. Each round trains every device in one
``task.local_update`` call over the stacked shards and models, and masks
the online devices' rows in one ``Fleet.mask`` call; the same array of row
indices later writes their model rows. Local model training is excluded
from the per-role compute times; the timers cover the aggregation
protocol's own work only. Each round writes the global model
into its row of one (iterations, d) float64 array, the run's trajectory,
which the result returns read-only.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .field import FixedPointCodec, require_int, require_real
from .messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareMsg,
    from_bytes,
    require_mode,
    setup_shares_from_bytes,
    updates_from_bytes,
    wire_length,
)
from .protocol import (
    Aggregator,
    CollectStatus,
    Fleet,
    MissingShareError,
    Stations,
    generate_key,
    require_online_fraction,
)
from .shamir import AccessStructure

AGGREGATED = "AGGREGATED"
FALLBACK = "FALLBACK"


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
        # each draw is seeded by the seed's text, where True and 1.0 would
        # draw other dropouts than 1
        require_int("prob_seed", self.prob_seed)
        for role, prob, ids, always, rounds in (
                ("ue", self.ue_prob, self.prob_ue_ids, self.ue_always, self.ue_rounds),
                ("bs", self.bs_prob, self.prob_bs_ids, self.bs_always, self.bs_rounds)):
            require_real(f"{role}_prob", prob, 0, 1)
            if prob > 0.0 and not ids:
                raise ValueError(f"{role}_prob={prob} needs prob_{role}_ids to drop from")
            # a round's dropouts are the union of these sets, which a list
            # or a bare id would break only mid-run
            if not isinstance(rounds, dict):
                raise ValueError(f"{role}_rounds must be a dict, got {rounds!r}")
            groups = [(f"{role}_always", always),
                      *((f"{role}_rounds[{t}]", g) for t, g in rounds.items())]
            for name, group in groups:
                if not isinstance(group, (set, frozenset)):
                    raise ValueError(f"{name} must be a set or frozenset, got {group!r}")
            # the ids are compared as sets, where True and 2.0 would stand
            # for devices 1 and 2, and a round key True for round 1
            for name, group in ((f"prob_{role}_ids", ids), (f"{role}_rounds", rounds), *groups):
                for i in group:
                    require_int(name, i)

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
        # before the codec is built, so that n_ues = 0 is refused as n_ues,
        # not as the codec's summand limit
        for name in ("n_ues", "n_bss", "bs_threshold", "model_dim", "iterations"):
            require_int(name, getattr(self, name), 1)
        # random.Random seeds from the OS for None and takes -1, 1.0 and True as 1
        require_int("rng_seed", self.rng_seed)
        require_online_fraction(self.min_online_fraction)
        require_real("latency_base_ms", self.latency_base_ms, 0)
        require_real("latency_jitter_ms", self.latency_jitter_ms, 0)
        require_real("deadline_ms", self.deadline_ms, self.latency_base_ms, lo_open=True)
        require_mode(self.mask_share_mode)
        # the station threshold and the codec, frac_bits and magnitude_bound
        # included, are checked by their own types
        self.access_structure()
        self.codec()

    def codec(self) -> FixedPointCodec:
        # the server never decodes a sum of more than every registered device
        return FixedPointCodec(self.frac_bits, self.magnitude_bound, self.n_ues)

    def access_structure(self) -> AccessStructure:
        return AccessStructure(self.bs_threshold, self.n_bss)


@dataclass
class SetupMetrics:
    """Set-up traffic, and ``time_setup_ms``: wall time of the devices' side
    of set-up alone (splitting every key, packing each station's block,
    drawing the share latencies and precomputing the masks). The stations'
    decoding and storing of their blocks is not in it."""

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
        # device i is row i - 1 of the fleet, as of the model matrix
        self.fleet = Fleet(
            ids=self.ue_ids,
            keys=[generate_key(self.key_rng) for _ in self.ue_ids],
            codec=codec,
            dim=cfg.model_dim,
        )
        # station j is row j - 1 of the stations' share matrix, and device
        # i its column i, for the server's registered devices 1..n
        self.stations = Stations(self.bs_ids, cfg.n_ues)
        self.af = Aggregator(
            registered_n=cfg.n_ues,
            min_online_fraction=cfg.min_online_fraction,
            bs_threshold=cfg.access_structure(),
            codec=codec,
            dim=cfg.model_dim,
        )

        self.setup_metrics = SetupMetrics()

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

    # -- setup phase ------------------------------------------------------

    def _run_setup(self) -> float:
        """Split every UE's key in one pass and send each base station its
        shares as one block, then precompute the whole fleet's masks in one
        pass; returns the last share's arrival, so that round 0 starts only
        once every base station is provisioned. ``time_setup_ms`` covers the
        devices' work alone: the split, the packing, the latency draws and
        the precompute. Each station decodes, is charged for and stores its
        block after it, in device order."""
        n = len(self.ue_ids)
        with _Timer(self.setup_metrics, "time_setup_ms"):
            blocks = self.fleet.setup(self.cfg.access_structure(), self.shamir_rng)
            frames = [block.to_bytes() for block in blocks]
            # one latency per share, in the order a per-share simulation draws them
            last_arrival = max(self._latencies(n * len(blocks)))
            # precompute draws no randomness, so the draws above keep their order
            self.fleet.precompute(self.cfg.iterations)
        for row, raw in enumerate(frames):
            block = setup_shares_from_bytes(raw, n)
            account_message(self.setup_metrics, block[0], n)
            self.stations.receive_shares(row, block)
        return last_arrival

    # -- rounds ------------------------------------------------------------

    def _collect(self, metrics: RoundMetrics, raw, frames: int) -> None:
        """Decode ``frames`` update rows, charge them to ``metrics`` and
        hand them to the server, which alone decides which rows are late."""
        block = updates_from_bytes(raw, frames)
        account_message(metrics, block[0], frames)
        # each device sends one update per round, so nothing is repeated
        # and only an update that missed its deadline is stale
        with _Timer(metrics, "time_af_ms"):
            statuses = self.af.collect_block(block)
        metrics.late_drops += statuses.count(CollectStatus.STALE)

    def _run_round(self, t: int, start: float) -> tuple[RoundMetrics, float]:
        """Run round t from simulated instant ``start``: mask, collect the
        updates due by the deadline, fix the online list, refuse the late
        rows, run the stations' phase, recover, close and send the model.
        Returns the round's metrics and the next round's start: the model's
        last arrival, or the close when no device is online."""
        online_ues, online_bss = apply_dropout(self.schedule, t, self.ue_ids, self.bs_ids)
        metrics = RoundMetrics(iteration=t, online_ues=len(online_ues),
                               online_bss=len(online_bss))
        self.af.begin_round(t)
        # offline devices' rows are trained too and left unread: gathering
        # the online shards would copy them every round
        updates = self.task.local_update(slice(0, self.cfg.n_ues), self.ue_models)
        rows = np.array(online_ues, dtype=np.intp) - 1  # the online devices' fleet rows
        # the updates are masked and packed once, on-time rows first, so that
        # the rows due by the deadline and the late ones are one run of the
        # block each; masking draws no randomness, so its latencies go first
        deadline = start + self.cfg.deadline_ms
        arrivals = [start + lat for lat in self._latencies(len(rows))]
        on_time = [r for r, when in enumerate(arrivals) if when <= deadline]
        late = [r for r, when in enumerate(arrivals) if when > deadline]
        if late:
            rows = rows[on_time + late]
        with _Timer(metrics, "time_ue_ms"):
            block = self.fleet.mask(rows, updates[rows], t)
        raw, split = b"", 0
        if arrivals:
            raw = memoryview(block.to_bytes())
            split = len(on_time) * (len(raw) // len(block))
        # the training output and the unpacked block are not read again;
        # freed here, they add nothing to the stations' phase's peak memory
        del updates, block
        if on_time:
            self._collect(metrics, raw[:split], len(on_time))
        with _Timer(metrics, "time_af_ms"):
            online_list = self.af.finalize_online_list()
        metrics.online_list_size = len(self.af.online_ids)
        # the list is fixed, so the server refuses a late row whenever it
        # lands: in this round, or in a later one as another round's update
        if late:
            self._collect(metrics, raw[split:], len(late))

        # the list is one frame, decoded once; the online stations answer it
        # in one call, in the order it reaches them, ties in station order,
        # and each share draws its own latency; the server reads no share
        # before it holds them all, so the round closes at the last share's
        # arrival
        close, agg_mask = deadline, None
        if online_list is not None and online_bss:
            k = len(online_bss)
            online_list = from_bytes(online_list.to_bytes())
            account_message(metrics, online_list, k)
            reached = sorted(zip([deadline + lat for lat in self._latencies(k)], online_bss))
            station_rows = [j - 1 for _, j in reached]
            with _Timer(metrics, "time_bs_ms"):
                answers = self.stations.mask_shares(
                    station_rows, online_list, t, self.cfg.mask_share_mode, self.cfg.model_dim)
            shares = {}
            for (when, j), lat, share in zip(reached, self._latencies(k), answers):
                # set-up gives every station a share of every device's key,
                # so a station abstains, sending nothing, only if one is lost
                if isinstance(share, MissingShareError):
                    continue
                shares[j] = from_bytes(share.to_bytes())
                account_message(metrics, shares[j])
                close = max(close, when + lat)
            with _Timer(metrics, "time_af_ms"):
                agg_mask = self.af.recover_mask(shares, self.cfg.mask_share_mode)
                if agg_mask is not None:
                    self.af.unmask_and_aggregate(agg_mask)

        # the model (the previous one on FALLBACK) is one frame, decoded
        # once and written into every online device's row at once
        metrics.outcome = FALLBACK if agg_mask is None else AGGREGATED
        model_msg = self.af.global_model_message()
        metrics.accuracy = self.task.accuracy(self.af.global_model)
        self.models[t] = self.af.global_model
        if not online_ues:
            return metrics, close
        model_arrival = close + max(self._latencies(len(online_ues)))
        msg = from_bytes(model_msg.to_bytes())
        account_message(metrics, msg, len(online_ues))
        self.ue_models[rows] = msg.weights
        return metrics, model_arrival

    def run(self) -> SimResult:
        start = self._run_setup()
        # each round runs once, so each row is written exactly once.
        # Allocated after set-up has freed its temporary coefficient table
        # of the same size, so that the allocator can hand the trajectory
        # those resident pages instead of adding 8 * iterations * d bytes
        # to the peak resident set
        self.models = np.empty((self.cfg.iterations, self.cfg.model_dim))
        rounds = []
        for t in range(self.cfg.iterations):
            metrics, start = self._run_round(t, start)
            rounds.append(metrics)
        self.models.setflags(write=False)
        return SimResult(config=self.cfg, setup=self.setup_metrics, rounds=rounds,
                         models=self.models)


def run_simulation(cfg: SimConfig, schedule: DropoutSchedule, task) -> SimResult:
    """Run setup once, then ``cfg.iterations`` aggregation rounds."""
    return _Simulation(cfg, schedule, task).run()
