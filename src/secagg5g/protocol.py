"""The three aggregation-protocol roles and their single-round message flow.

Roles:
  * ``UserEquipment`` holds a private masking key, splits it into per-base-
    station shares once at setup, and thereafter sends exactly one masked
    update per round. The devices' state lives in one ``Fleet``, as arrays
    with one row per device (ids, keys, mask table, last round masked), and
    a ``UserEquipment`` is a view of one row; ``Fleet.setup`` splits any set
    of rows' keys in one pass, into one share block per station, and
    ``Fleet.mask`` masks any set of rows with one index, as the server's
    (n, d) matrix collects them.
  * ``BaseStation`` stores one key share per registered device and answers
    each round's online list with one aggregated mask share. It is a view
    of one row of the ``Stations`` matrix, one row per station and one
    column per registered device (column i is device i, as row i - 1 of
    the server's matrix is), whose ``receive_shares`` stores a block of
    shares in a row and whose ``mask_shares`` answers a list for any set of
    rows with one gather and one exact share sum per station, each answer
    bit-identical to that station's alone.
  * ``Aggregator`` (the untrusted server) collects masked updates, one or a
    block at a time, fixes the online list, reconstructs the sum of online
    masks from any threshold-many base-station shares, and unmasks only the
    sum.

Entities are passive state machines: a message in causes a state change and
zero or more messages out. The round loop in ``simnet`` drives the holders
and the server, never a view; tests may also drive the views directly.

Field vectors (masked updates, masks) are canonical uint64 arrays
(``field``); the server's model is a float64 array. Each message type checks
its own fields when it is built (``messages``), so the roles check only what
depends on their own state: round, sender and station ids, dimension, mode,
registered devices and one-use masks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from . import field, khprf, shamir
from .field import P, FixedPointCodec
from .messages import (
    GlobalModelMsg,
    MaskedUpdateBlock,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareBlock,
    SetupShareMsg,
    require_mode,
)
from .shamir import AccessStructure, SecretShare

logger = logging.getLogger(__name__)

AF_SENDER_ID = 0  # reserved sender id for the aggregation server


class ProtocolError(Exception):
    """A party attempted a transition its state machine forbids."""


class MissingShareError(ProtocolError):
    """A base station was asked to cover a device it holds no share for."""


class CollectStatus(Enum):
    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    STALE = "stale"


_STATUSES = np.array(
    [CollectStatus.STALE, CollectStatus.DUPLICATE, CollectStatus.ACCEPTED], dtype=object)


def generate_key(rng) -> int:
    """Fresh uniform masking key in Z_p."""
    return field.rand_element(rng)


def require_online_fraction(value) -> None:
    """Refuse a participation floor that is not a real number in (0, 1].

    At 0 or below the floor admits an empty list, whose mean is NaN; above 1
    it exceeds the fleet.
    """
    field.require_real("min_online_fraction", value, 0, 1, lo_open=True)


def _require_ids(name: str, ids: list, parties: str) -> None:
    """Refuse an id that is not an int in [1, 2^64), the sender of every
    message its party sends (0 is the server's sender id and no station's
    share point), or one that two ``parties`` share."""
    for i in ids:
        field.require_int(name, i, 1, 1 << 64)
    if len(set(ids)) < len(ids):
        raise ValueError(f"two {parties} with one {name} are indistinguishable to the server")


class Fleet:
    """Every device's masking state as arrays; row r is device ``ids[r]``.

    Holds the devices' sender ids (uint64), keys (uint64, in [0, p)), their
    one codec and model dimension, the (n, iterations, dim) mask table once
    ``precompute`` has run, and the last round each device masked.
    ``mask`` masks any set of rows in one pass, and ``device(r)`` is row r
    as a ``UserEquipment``.

    Raises ValueError for an id that is not an int in [1, 2^64), two
    devices with one id (the server could not tell them apart), a key that
    is not an int in [0, p), or a ``dim`` that is not an int >= 1.
    """

    def __init__(self, ids, keys, codec: FixedPointCodec, dim: int):
        ids, keys = list(ids), list(keys)
        _require_ids("ue_id", ids, "devices")
        if len(keys) != len(ids):
            raise ValueError(f"{len(keys)} keys for {len(ids)} devices")
        for key in keys:
            khprf.require_key(key)
        field.require_int("dim", dim, 1)
        self.ids = np.array(ids, dtype=np.uint64)
        self.keys = np.array(keys, dtype=np.uint64)
        self.ids.setflags(write=False)
        self.keys.setflags(write=False)
        self.codec = codec
        self.dim = dim
        self.masks: np.ndarray | None = None  # read-only (n, iterations, dim)
        # a round is any uint64, so "never masked" needs its own flag
        self._last = np.zeros(len(ids), dtype=np.uint64)  # last round masked
        self._masked = np.zeros(len(ids), dtype=bool)
        self._setup_done = np.zeros(len(ids), dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    def device(self, row: int) -> UserEquipment:
        """Row ``row``, an int in 0..n-1, as a device; every view of one row shares its state."""
        field.require_int("row", row, end=len(self))
        ue = object.__new__(UserEquipment)
        ue.fleet, ue.row = self, row
        return ue

    def _rows(self, rows, twice: str) -> np.ndarray:
        """``rows`` as an intp array. Raises ValueError unless it is a 1-d
        sequence of ints in 0..n-1, and ProtocolError if a row is listed
        twice, saying that its device would then ``twice``."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError("rows must be a 1-d sequence of ints")
        rows = rows.astype(np.intp, copy=False)  # a uint64 >= 2^63 turns negative
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            # numpy would wrap -1 to the last device
            raise ValueError(f"a row outside 0..{len(self) - 1}")
        # not np.unique: its first call grows the resident set by ~1.5 MB
        listed = np.zeros(len(self), dtype=bool)
        listed[rows] = True
        if np.count_nonzero(listed) < len(rows):
            raise ProtocolError(f"a device listed twice would {twice}")
        return rows

    def setup(self, acc: AccessStructure, rng, rows=None) -> list[SetupShareBlock]:
        """Split the keys of ``rows`` (every device when None) into one share
        per base station, in one ``shamir.split_many`` pass: block j - 1 is
        station j's, with share x = j, and its row r is device ``rows[r]``'s.

        One-shot: a key is shared once; sharing it again would hand out a
        second, inconsistent share set. All or nothing: raises ProtocolError,
        and draws nothing, if a row is listed twice or its device has
        already completed set-up; ValueError for rows as ``mask``.
        """
        rows = np.arange(len(self)) if rows is None else self._rows(rows, "share its key twice")
        done = np.flatnonzero(self._setup_done[rows])
        if len(done):
            raise ProtocolError(f"UE {self.ids[rows[done[0]]]} already completed setup")
        shares = shamir.split_many(self.keys[rows], acc, rng)
        self._setup_done[rows] = True
        senders, rounds = self.ids[rows], np.zeros(len(rows), dtype=np.uint64)
        blocks = []
        for j in range(1, acc.total + 1):
            points = np.full(len(rows), j, dtype=np.uint64)
            blocks.append(SetupShareBlock(senders, rounds, points, points, shares[:, j - 1]))
        return blocks

    def precompute(self, num_iterations: int) -> None:
        """Front-load every device's masks for rounds 0..num_iterations-1 in
        one ``khprf.precompute_fleet`` pass. Raises ValueError, and keeps the
        table it had, unless ``num_iterations`` is an int >= 1."""
        self.masks = khprf.precompute_fleet(self.keys, num_iterations, self.dim)

    def mask(self, rows, updates, t: int) -> MaskedUpdateBlock:
        """Mask row r of the (m, d) ``updates`` with device ``rows[r]``'s
        round-t mask; one block whose row r is that device's masked update.

        The masks are one fancy index into the precomputed table while it
        covers t, and one ``khprf.evaluate`` of the rows' keys past it; one
        ``field.encode_masked`` call encodes the stack, so each row is
        bit-identical to masking that device alone. The block is checked
        once, not row by row, and indexes as a sequence of
        ``MaskedUpdateMsg``s.

        Each round's mask may be used once; reuse would let the server
        cancel masks across rounds and open individual updates. All or
        nothing: raises ProtocolError, and advances no device, if a row is
        listed twice or its device has already masked round t or a later
        one. Raises ValueError if t is not an int in [0, 2^64), a row is not
        an int in 0..n-1, or an update has the wrong dimension or exceeds
        the magnitude bound.
        """
        khprf.require_round(t)
        t = int(t)  # a uint64 compared with an int64 would be a float compare
        rows = self._rows(rows, "use its round mask twice")
        spent = np.flatnonzero(self._masked[rows] & (self._last[rows] >= t))
        if len(spent):
            r = rows[spent[0]]
            raise ProtocolError(
                f"UE {self.ids[r]} already masked round {self._last[r]}; round {t} is not later")
        if self.masks is not None and t < self.masks.shape[1]:
            masks = self.masks[rows, t]
        else:
            masks = khprf.evaluate(self.keys[rows], t, self.dim)
        block = MaskedUpdateBlock(
            senders=self.ids[rows],
            iterations=np.full(len(rows), t, dtype=np.uint64),
            payloads=field.encode_masked(updates, self.codec, masks),
        )
        self._last[rows] = t
        self._masked[rows] = True
        return block


class UserEquipment:
    """A device: one row of a ``Fleet``, which holds its id, key, codec,
    dim, precomputed masks and one-use-mask state.

    ``UserEquipment(ue_id, key, codec, dim)`` builds a standalone device,
    the one row of its own fleet; ``Fleet.device`` gives a row of a larger
    one. Raises ValueError as ``Fleet`` does.
    """

    fleet: Fleet
    row: int

    def __init__(self, ue_id: int, key: int, codec: FixedPointCodec, dim: int):
        self.fleet, self.row = Fleet([ue_id], [key], codec, dim), 0

    @property
    def ue_id(self) -> int:
        return int(self.fleet.ids[self.row])

    @property
    def key(self) -> int:
        return int(self.fleet.keys[self.row])

    @property
    def codec(self) -> FixedPointCodec:
        return self.fleet.codec

    @property
    def dim(self) -> int:
        return self.fleet.dim

    @property
    def precomputed_masks(self) -> np.ndarray | None:
        """This device's read-only (iterations, dim) mask table, if precomputed."""
        masks = self.fleet.masks
        return None if masks is None else masks[self.row]

    @property
    def _setup_done(self) -> bool:
        return bool(self.fleet._setup_done[self.row])

    @property
    def _last_iteration(self) -> int:
        """The highest round masked so far, -1 before the first."""
        return int(self.fleet._last[self.row]) if self.fleet._masked[self.row] else -1

    def setup(self, acc: AccessStructure, rng) -> list[SetupShareMsg]:
        """``Fleet.setup`` of this device's row alone: one share per base
        station (share x = BS index), in station order. One-shot."""
        return [block[0] for block in self.fleet.setup(acc, rng, [self.row])]

    def precompute(self, num_iterations: int) -> None:
        """``Fleet.precompute`` of this device's fleet."""
        self.fleet.precompute(num_iterations)

    def masked_update(self, w, t: int) -> MaskedUpdateMsg:
        """``Fleet.mask`` of this device's row alone: encode the local update
        and add this round's mask. Rounds must strictly increase."""
        return self.fleet.mask([self.row], [w], t)[0]


def route_setup_shares(
    messages: list[SetupShareMsg], region_bs_ids: set[int]
) -> dict[int, SetupShareMsg]:
    """Trusted-router step: map each setup share to its target base station.

    The router forwards without storing; it only checks that the batch is
    well-formed (one message per target, all targets in the region).
    """
    delivery: dict[int, SetupShareMsg] = {}
    for msg in messages:
        if msg.target_bs not in region_bs_ids:
            raise ValueError(f"no base station {msg.target_bs} in region")
        if msg.target_bs in delivery:
            raise ValueError(f"duplicate share for base station {msg.target_bs}")
        delivery[msg.target_bs] = msg
    return delivery


# a share no station holds: outside Z_p, so that one max finds every gap
MISSING = np.uint64((1 << 64) - 1)
_LO32 = np.uint64((1 << 32) - 1)
# the devices a standalone ``BaseStation`` registers, 1..1024: as many as
# the default codec lets the server decode the sum of
ONE_STATION_DEVICES = FixedPointCodec.max_summands


class Stations:
    """Every base station's stored key shares as one uint64 matrix with a
    row per station and a column per registered device: row r is station
    ``ids[r]``, column i is device i's for i in 1..registered_n, and a
    share the station does not hold reads ``MISSING``.

    The registered devices are the server's, 1..n, so a list of ids is its
    own column index; columns 0 and n + 1 never hold a share, so an id
    outside 1..n lands on a ``MISSING`` one. ``mask_shares`` answers an
    online list for any set of rows in one pass, and ``station(r)`` is row
    r as a ``BaseStation``.

    Raises ValueError for a station id that is not an int in [1, 2^64), two
    stations with one id, or a ``registered_n`` that is not an int >= 1.
    """

    def __init__(self, ids, registered_n: int):
        ids = list(ids)
        _require_ids("bs_id", ids, "base stations")
        field.require_int("registered_n", registered_n, 1)
        self.ids = [int(bs_id) for bs_id in ids]
        self.registered_n = registered_n
        self._ys = np.full((len(ids), registered_n + 2), MISSING)

    def __len__(self) -> int:
        return len(self.ids)

    def station(self, row: int) -> BaseStation:
        """Row ``row``, an int in 0..k-1, as a station; every view of one row shares its state."""
        field.require_int("row", row, end=len(self))
        bs = object.__new__(BaseStation)
        bs.stations, bs.row = self, row
        return bs

    def stored_shares(self, row: int) -> dict[int, SecretShare]:
        """Row ``row``'s shares by sender as Python ints, in id order."""
        senders = np.flatnonzero(self._ys[row] != MISSING)
        x, ys = self.ids[row], self._ys[row, senders]
        return {ue: SecretShare(x, y) for ue, y in zip(senders.tolist(), ys.tolist())}

    def receive_shares(self, row: int, block: SetupShareBlock) -> None:
        """Store each of the block's shares in row ``row``, in its sender's column.

        All or nothing: raises ProtocolError, and stores no share, if a row
        of the block is for another station, its share point x is not this
        station's index, or its sender already has a share here, from an
        earlier block or an earlier row of this one; ValueError if a sender
        is outside 1..registered_n.
        """
        bs_id = self.ids[row]
        wrong = np.flatnonzero(block.targets != bs_id)
        if len(wrong):
            raise ProtocolError(f"share for BS {block.targets[wrong[0]]} delivered to BS {bs_id}")
        wrong = np.flatnonzero(block.xs != bs_id)
        if len(wrong):
            raise ProtocolError(
                f"share point x={block.xs[wrong[0]]} does not match BS index {bs_id}")
        senders = block.senders
        if len(senders) and (senders - 1).max() >= self.registered_n:  # 0 wraps to 2^64 - 1
            raise ValueError(f"share from a sender outside 1..{self.registered_n}")
        stored = self._ys[row, senders] != MISSING
        # set-up only, so Python's set: numpy's first sort in a process
        # grows the resident set by about 0.3 MB
        listed = senders.tolist()
        if stored.any() or len(set(listed)) < len(listed):
            ue = next(ue for r, ue in enumerate(listed) if stored[r] or ue in listed[:r])
            raise ProtocolError(f"BS {bs_id} already stores a share for UE {ue}")
        self._ys[row, senders] = block.ys

    def mask_shares(
        self, rows, online: OnlineListMsg, t: int, mode: MaskShareMode, d: int
    ) -> list[MaskShareMsg | MissingShareError]:
        """Each listed station's answer to the online list, in ``rows``
        order: one aggregated mask share, or the ``MissingShareError`` of a
        station that holds no share for some listed device and so abstains
        rather than emit a wrong share; the other stations still answer.

        One gather takes every listed share of every station. A station's
        share sum is exact, as the Python int made from the sums of the low
        and high 32 bits of its shares, then reduced mod p, so each answer
        is bit-identical to summing that station's shares alone. EVALUATED
        ships the mask vector for the summed share, every station's from
        one ``khprf.evaluate`` of the sums; COMPACT ships the summed share
        itself, leaving expansion to the server. Both carry the same
        information by key-homomorphism.

        Raises ProtocolError if the list is stamped for a round other than
        t (its devices masked for that round, not this one) or a row is
        listed twice, and ValueError if ``mode`` is not a ``MaskShareMode``
        or a row is not an int in 0..k-1. The list's ids are strictly
        increasing, because ``OnlineListMsg`` refuses any other.
        """
        if online.iteration != t:
            raise ProtocolError(
                f"online list for round {online.iteration} asked to answer round {t}"
            )
        require_mode(mode)
        k = len(self.ids)
        for r in rows:
            field.require_int("station row", r, end=k)
        if len(set(rows)) < len(rows):
            raise ProtocolError("a station listed twice would answer twice")
        ids = online.ue_ids
        # a list is its own column index: its ids lie in 1..2^32 - 1, and
        # one past the columns clips onto column n + 1, which holds no share
        ys = self._ys.take(ids, axis=1, mode="clip")  # every row's listed shares
        tops = ys.max(axis=1, initial=0).tolist()
        lo = (ys & _LO32).sum(axis=1).tolist()
        hi = (ys >> 32).sum(axis=1).tolist()
        # each row's exact share sum, None if it lacks one
        totals = [(hi[r] << 32) + lo[r] if tops[r] < P else None for r in rows]
        if mode is MaskShareMode.EVALUATED:
            keys = [total % P for total in totals if total is not None]
            vectors = iter(khprf.evaluate(np.array(keys, dtype=np.uint64), t, d))
        answers = []
        for r, total in zip(rows, totals):
            if total is None:  # a MISSING share: the station abstains
                missing = ids[ys[r] == MISSING].tolist()
                answers.append(MissingShareError(
                    f"BS {self.ids[r]} holds no share for UEs {missing}"))
            elif mode is MaskShareMode.COMPACT:
                answers.append(MaskShareMsg(self.ids[r], t, scalar=total % P))
            else:
                answers.append(MaskShareMsg(self.ids[r], t, vector=next(vectors)))
        return answers


class BaseStation:
    """A regional relay: one row of a ``Stations``, which holds its id and
    its one key share per registered device.

    ``BaseStation(bs_id)`` builds a standalone station, the one row of its
    own holder, whose registered devices are 1..``ONE_STATION_DEVICES``;
    ``Stations.station`` gives a row of a larger one. Raises ValueError as
    ``Stations`` does.
    """

    stations: Stations
    row: int

    def __init__(self, bs_id: int):
        self.stations, self.row = Stations([bs_id], ONE_STATION_DEVICES), 0

    @property
    def bs_id(self) -> int:
        return self.stations.ids[self.row]

    @property
    def stored_shares(self) -> dict[int, SecretShare]:
        """A fresh copy of this station's shares by sender, as Python ints, in id order."""
        return self.stations.stored_shares(self.row)

    def receive_share(self, msg: SetupShareMsg) -> None:
        """``Stations.receive_shares`` of the one-row block ``msg`` in this row."""
        self.stations.receive_shares(self.row, SetupShareBlock.of([msg]))

    def mask_share(
        self, online: OnlineListMsg, t: int, mode: MaskShareMode, d: int
    ) -> MaskShareMsg:
        """``Stations.mask_shares`` of this station's row alone. Raises its
        ProtocolError, and MissingShareError if any listed device never
        registered here: the station abstains rather than emit a wrong share."""
        [answer] = self.stations.mask_shares([self.row], online, t, mode, d)
        if isinstance(answer, MissingShareError):
            raise answer
        return answer


@dataclass
class Aggregator:
    """The aggregation server; sees masked updates and aggregated shares only."""

    registered_n: int
    min_online_fraction: float
    bs_threshold: AccessStructure
    codec: FixedPointCodec
    dim: int
    iteration: int = dc_field(default=0, init=False)
    global_model: np.ndarray = dc_field(init=False)  # float64, zeros until the first update
    online_ids: np.ndarray | None = dc_field(default=None, init=False)  # uint64, sorted
    _rows: np.ndarray = dc_field(init=False, repr=False)  # (registered_n, dim); device i: row i-1
    _arrived: np.ndarray = dc_field(init=False, repr=False)  # bool, this round's accepted rows
    _warned_compact: bool = dc_field(default=False, init=False)

    def __post_init__(self):
        for name in ("registered_n", "dim"):
            field.require_int(name, getattr(self, name), 1)
        require_online_fraction(self.min_online_fraction)
        self.global_model = np.zeros(self.dim)
        self._rows = np.zeros((self.registered_n, self.dim), dtype=np.uint64)
        self._arrived = np.zeros(self.registered_n, dtype=bool)

    @property
    def masked_updates(self) -> dict[int, np.ndarray]:
        """This round's accepted rows by sender, copied: the next round overwrites them."""
        return dict(zip((np.flatnonzero(self._arrived) + 1).tolist(), self._rows[self._arrived]))

    def begin_round(self, t: int) -> None:
        """Open round t; refuse, changing nothing, a t that is not an int in
        [0, 2^64), which ``collect_block`` would confuse with another round."""
        khprf.require_round(t)
        self.iteration = int(t)
        self._arrived[:] = False
        self.online_ids = None

    def collect_update(self, msg: MaskedUpdateMsg) -> CollectStatus:
        """``collect_block`` of the one-row block ``msg``."""
        return self.collect_block(MaskedUpdateBlock.of([msg]))[0]

    def collect_block(self, block: MaskedUpdateBlock) -> list[CollectStatus]:
        """Collect the block's rows in order, as one update each: log the
        sender as online, reject a sender already logged this round (by an
        earlier row too) as DUPLICATE, and refuse as STALE an update
        for another round or one that comes after the list is fixed.
        Returns each row's status; an accepted row is copied into the matrix.

        Raises ValueError, and logs no row, if a row for this round is from a
        sender outside 1..registered_n, or would be accepted but the block's
        dimension is not the model's; its elements are in [0, p), because
        ``MaskedUpdateBlock`` refuses any other.
        """
        codes = np.zeros(len(block), np.intp)  # indexes _STATUSES
        if self.online_ids is None:
            current = np.flatnonzero(block.iterations == self.iteration)
            rows = block.senders[current] - 1  # sender 0 wraps to 2^64 - 1
            if len(rows) and rows.max() >= self.registered_n:
                raise ValueError(f"update from a sender outside 1..{self.registered_n}")
            rows = rows.astype(np.intp)  # intp indexes faster than uint64
            # each sender's first row: every row, unless a sender repeats;
            # not np.unique unless one does: it sorts, and its first call
            # grows the resident set
            listed = np.zeros(self.registered_n, dtype=bool)
            listed[rows] = True
            if np.count_nonzero(listed) == len(rows):
                fresh = np.flatnonzero(~self._arrived[rows])
            else:
                first = np.unique(rows, return_index=True)[1]
                fresh = first[~self._arrived[rows[first]]]
            d = block.payloads.shape[1]
            if len(fresh):
                if d != self.dim:
                    raise ValueError(f"masked update dim {d} != model dim {self.dim}")
                self._rows[rows[fresh]] = block.payloads[current[fresh]]
                self._arrived[rows[fresh]] = True
            codes[current] = 1
            codes[current[fresh]] = 2
        return _STATUSES[codes].tolist()

    def min_online_count(self) -> int:
        return math.ceil(self.min_online_fraction * self.registered_n)

    def finalize_online_list(self) -> OnlineListMsg | None:
        """Fix the online list at the collection deadline.

        Returns the broadcast message, or None when participation fell below
        the configured floor (the caller then halts this round).
        """
        self.online_ids = (np.flatnonzero(self._arrived) + 1).astype(np.uint64)
        if len(self.online_ids) < self.min_online_count():
            return None
        return OnlineListMsg(sender=AF_SENDER_ID, iteration=self.iteration,
                             ue_ids=self.online_ids, registered_n=self.registered_n)

    def recover_mask(
        self, shares: dict[int, MaskShareMsg], mode: MaskShareMode
    ) -> np.ndarray | None:
        """Reconstruct the sum of online devices' masks from BS shares.

        Uses the threshold-many lowest-indexed responding stations, for
        reproducibility. Returns None when fewer than threshold responded;
        below threshold the mask sum is information-theoretically out of
        reach, which is exactly the privacy guarantee.

        Raises ValueError if ``mode`` is not a ``MaskShareMode``, and
        ProtocolError unless every share comes from a known station, under
        that station's key, for this round, in ``mode``, and an EVALUATED
        share has length ``dim``. Payload elements are in [0, p), because
        ``MaskShareMsg`` refuses any other.
        """
        require_mode(mode)
        for j, msg in shares.items():
            self._check_share(j, msg, mode)
        t_needed = self.bs_threshold.threshold
        if len(shares) < t_needed:
            return None
        chosen = sorted(shares)[:t_needed]
        if mode is MaskShareMode.COMPACT:
            if not self._warned_compact:
                logger.warning(
                    "COMPACT mask shares hand the server the key sum of the online "
                    "set; EVALUATED shares reveal the same sum, since the mask "
                    "coefficients are public. Against an honest-but-curious server "
                    "neither mode hides a device's key: two rounds whose online "
                    "lists differ by one device give it (README, Security caveat)."
                )
                self._warned_compact = True
            summed_key = shamir.recover(
                [SecretShare(j, shares[j].scalar) for j in chosen], self.bs_threshold
            )
            return khprf.evaluate(summed_key, self.iteration, self.dim)
        coeffs = shamir.lagrange_coeffs_at_zero(chosen)
        return shamir.combine_linear([shares[j].vector for j in chosen], coeffs)

    def _check_share(self, j: int, msg: MaskShareMsg, mode: MaskShareMode) -> None:
        if msg.sender != j:
            raise ProtocolError(f"share from BS {msg.sender} stored under BS {j}")
        if not 1 <= j <= self.bs_threshold.total:
            raise ProtocolError(f"no base station {j} among {self.bs_threshold.total}")
        if msg.iteration != self.iteration:
            raise ProtocolError(f"BS {j} share is for round {msg.iteration}, not {self.iteration}")
        if msg.mode is not mode:
            raise ProtocolError(f"BS {j} share mode {msg.mode!r}, expected {mode.name}")
        if mode is MaskShareMode.EVALUATED and len(msg.vector) != self.dim:
            raise ProtocolError(f"BS {j} share dim {len(msg.vector)} != {self.dim}")

    def unmask_and_aggregate(self, agg_mask: np.ndarray) -> np.ndarray:
        """Subtract the mask sum, decode, average, and fold into the model.

        Returns the global update (uniform average over the online list).
        Only the sum ever exists in decoded form. Raises ProtocolError, and
        leaves the model unchanged, unless the online list is fixed and
        meets the participation floor.
        """
        if self.online_ids is None:
            raise ProtocolError("online list not finalized")
        floor = self.min_online_count()
        if len(self.online_ids) < floor:
            raise ProtocolError(
                f"{len(self.online_ids)} online devices, below the floor of {floor}"
            )
        encoded_sum = field.vec_sub(field.vec_sum(self._rows[self._arrived]), agg_mask)
        count = len(self.online_ids)
        update = field.decode_sum(encoded_sum, self.codec, count) / count
        self.global_model = self.global_model + update
        return update

    def global_model_message(self) -> GlobalModelMsg:
        """The global model as a message; after a fallback, the previous one."""
        return GlobalModelMsg(
            sender=AF_SENDER_ID,
            iteration=self.iteration,
            weights=self.global_model,
        )

    # the same method under a second name, which perfbench's tracer binds
    # until its rebind (ROADMAP item 1)
    fallback = global_model_message

