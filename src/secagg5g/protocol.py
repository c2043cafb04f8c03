"""The three aggregation-protocol roles and their single-round message flow.

Roles:
  * A device holds a private masking key, splits it into per-base-station
    shares once at setup, and thereafter sends exactly one masked update
    per round. A device is a row of one ``Fleet``, whose arrays hold one
    row per device (ids, keys, mask table, last round masked);
    ``Fleet.setup`` splits every key in one pass, into one share block per
    station, and ``Fleet.mask`` masks any set of rows with one index, as
    the server's (n, d) matrix collects them.
  * A base station stores one key share per registered device and answers
    each round's online list with one aggregated mask share. A station is
    a row of the ``Stations`` matrix, one row per station and one column
    per registered device (column i is device i, as row i - 1 of the
    server's matrix is), whose ``receive_shares`` stores a block of shares
    in a row and whose ``mask_shares`` answers a list for any set of rows
    with one gather and one ``field.vec_sum`` of the stations' shares, each
    answer bit-identical to that station's alone.
  * ``Aggregator`` (the untrusted server) collects masked updates, one or a
    block at a time, fixes the online list, reconstructs the sum of online
    masks from any threshold-many base-station shares, and unmasks only the
    sum.

Entities are passive state machines: a message in causes a state change and
zero or more messages out. The round loop in ``simnet`` drives the holders
and the server. ``UserEquipment`` and ``BaseStation`` are a standalone
device and station, each the one row of its own holder, whose entry points
take and give one message.

Field vectors (masked updates, masks) are canonical uint64 arrays
(``field``); the server's model is a float64 array. Each message type checks
its own fields when it is built (``messages``), so the roles check only what
depends on their own state: round, sender and station ids, dimension, mode,
registered devices, one-use masks and one answered list per round, and
that each message or collaborator is of its type. ``Fleet.mask`` and
``Stations.mask_shares`` take their rows by one rule, ``_rows``.
"""

from __future__ import annotations

import functools
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
    """Fresh uniform masking key in Z_p from a seeded ``random.Random``."""
    return rng.randrange(P)


@functools.cache
def _warn_compact() -> None:
    """Say, once per process, what COMPACT shares give the server."""
    logger.warning(
        "COMPACT mask shares hand the server the key sum of the online "
        "set; EVALUATED shares reveal the same sum, since the mask "
        "coefficients are public. Against an honest-but-curious server "
        "neither mode hides a device's key: two rounds whose online "
        "lists differ by one device give it (README, Security caveat)."
    )


def require_online_fraction(value) -> None:
    """Refuse a participation floor that is not a real number in (0, 1].

    At 0 or below the floor admits an empty list, whose mean is NaN; above 1
    it exceeds the fleet.
    """
    field.require_real("min_online_fraction", value, 0, 1, lo_open=True)


def _require_instance(name: str, value, kind: type) -> None:
    """Refuse, with a ValueError naming ``name``, a collaborator that is not
    a ``kind``, which would otherwise fail at its first use, as an
    AttributeError."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def _require_ids(name: str, ids: list, parties: str) -> None:
    """Refuse an id that is not an int in [1, 2^64), the sender of every
    message its party sends (0 is the server's sender id and no station's
    share point), or one that two ``parties`` share."""
    for i in ids:
        field.require_int(name, i, 1, 1 << 64)
    if len(set(ids)) < len(ids):
        raise ValueError(f"two {parties} with one {name} are indistinguishable to the server")


def _listed_once(rows: np.ndarray, n: int) -> bool:
    """Whether no index of the intp array ``rows``, each in 0..n-1, repeats:
    a scatter into n flags, not ``np.unique``, which sorts and whose first
    call grows the resident set by ~1.5 MB."""
    listed = np.zeros(n, dtype=bool)
    listed[rows] = True
    return np.count_nonzero(listed) == len(rows)


def _rows(rows, n: int, party: str, twice: str) -> np.ndarray:
    """``rows`` as an intp array of row indices into n ``party`` rows.

    Raises ValueError unless ``rows`` is a 1-d int array, or a list, tuple
    or range of ints (``field.require_int``, so never a bool, which numpy
    would take for 1), each in 0..n-1, and ProtocolError if a row is listed
    twice, saying that its ``party`` would then ``twice``.
    """
    if isinstance(rows, (list, tuple, range)):
        for r in rows:
            field.require_int(f"{party} row", r, end=n)
        rows = np.array(rows, dtype=np.intp)
    elif not (isinstance(rows, np.ndarray) and rows.ndim == 1
              and (rows.size == 0 or rows.dtype.kind in "iu")):
        raise ValueError(f"{party} rows must be a 1-d sequence of ints")
    else:
        rows = rows.astype(np.intp, copy=False)  # a uint64 >= 2^63 turns negative
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            # numpy would wrap -1 to the last row
            raise ValueError(f"a {party} row outside 0..{n - 1}")
    if not _listed_once(rows, n):
        raise ProtocolError(f"a {party} listed twice would {twice}")
    return rows


class Fleet:
    """Every device's masking state as arrays; row r is device ``ids[r]``.

    Holds the devices' sender ids (uint64), keys (uint64, in [0, p)), their
    one codec and model dimension, the (n, iterations, dim) mask table once
    ``precompute`` has run, and the last round each device masked.
    ``mask`` masks any set of rows in one pass.

    Raises ValueError for an id that is not an int in [1, 2^64), two
    devices with one id (the server could not tell them apart), a key that
    is not an int in [0, p), a codec that is not a ``FixedPointCodec``, or
    a ``dim`` that is not an int >= 1.
    """

    def __init__(self, ids, keys, codec: FixedPointCodec, dim: int):
        ids, keys = list(ids), list(keys)
        _require_ids("ue_id", ids, "devices")
        if len(keys) != len(ids):
            raise ValueError(f"{len(keys)} keys for {len(ids)} devices")
        for key in keys:
            khprf.require_key(key)
        _require_instance("codec", codec, FixedPointCodec)
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
        self._setup_done = False

    def __len__(self) -> int:
        return len(self.ids)

    def setup(self, acc: AccessStructure, rng) -> list[SetupShareBlock]:
        """Split every device's key into one share per base station, in one
        ``shamir.split_many`` pass: block j - 1 is station j's, with share
        x = j, and its row r is device ``ids[r]``'s.

        One-shot: a key is shared once; sharing it again would hand out a
        second, inconsistent share set. Raises ProtocolError, and draws
        nothing, once the fleet has completed set-up, and ValueError for an
        ``acc`` that is not an ``AccessStructure``.
        """
        _require_instance("acc", acc, AccessStructure)
        if self._setup_done:
            raise ProtocolError("the fleet already completed setup")
        shares = shamir.split_many(self.keys, acc, rng)
        self._setup_done = True
        rounds = np.zeros(len(self), dtype=np.uint64)
        blocks = []
        for j in range(1, acc.total + 1):
            points = np.full(len(self), j, dtype=np.uint64)
            blocks.append(SetupShareBlock(self.ids, rounds, points, points, shares[:, j - 1]))
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
        one. Raises ValueError if t is not an int in [0, 2^64), ``rows`` is
        not a 1-d int array, or a list, tuple or range of ints, never a
        bool, each in 0..n-1, or an update has the wrong dimension or
        exceeds the magnitude bound.
        """
        khprf.require_round(t)
        t = int(t)  # a uint64 compared with an int64 would be a float compare
        rows = _rows(rows, len(self), "device", "use its round mask twice")
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
    """A standalone device: the one row of its own ``Fleet``, which holds
    its id, key, codec, dim, precomputed masks and one-use-mask state.
    Raises ValueError as ``Fleet`` does.
    """

    def __init__(self, ue_id: int, key: int, codec: FixedPointCodec, dim: int):
        self.fleet = Fleet([ue_id], [key], codec, dim)

    def setup(self, acc: AccessStructure, rng) -> list[SetupShareMsg]:
        """``Fleet.setup`` of the one row: one share per base station
        (share x = BS index), in station order. One-shot."""
        return [block[0] for block in self.fleet.setup(acc, rng)]

    def precompute(self, num_iterations: int) -> None:
        """``Fleet.precompute`` of the one row."""
        self.fleet.precompute(num_iterations)

    def masked_update(self, w, t: int) -> MaskedUpdateMsg:
        """``Fleet.mask`` of the one row: encode the local update and add
        this round's mask. Rounds must strictly increase."""
        return self.fleet.mask([0], [w], t)[0]


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
    online list for any set of rows in one pass, one list per round for
    each row.

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
        # row r's last answer: its round and the list's ids, as bytes
        self._answered: dict[int, tuple[int, bytes]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def stored_shares(self, row: int) -> dict[int, SecretShare]:
        """Row ``row``'s shares by sender as Python ints, in id order. Raises
        ValueError for a row that is not an int in 0..k-1."""
        field.require_int("row", row, end=len(self))
        senders = np.flatnonzero(self._ys[row] != MISSING)
        x, ys = self.ids[row], self._ys[row, senders]
        return {ue: SecretShare(x, y) for ue, y in zip(senders.tolist(), ys.tolist())}

    def receive_shares(self, row: int, block: SetupShareBlock) -> None:
        """Store each of the block's shares in row ``row``, in its sender's column.

        All or nothing: raises ProtocolError, and stores no share, if a row
        of the block is for another station, its share point x is not this
        station's index, or its sender already has a share here, from an
        earlier block or an earlier row of this one; ValueError if ``row``
        is not an int in 0..k-1, ``block`` is not a ``SetupShareBlock`` or a
        sender is outside 1..registered_n.
        """
        field.require_int("row", row, end=len(self))
        _require_instance("block", block, SetupShareBlock)
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

        One gather takes every listed share of every listed station. The
        rows that hold a ``MISSING`` share are dropped, and one
        ``field.vec_sum`` takes the exact share sum mod p of each of the
        others, so each answer is bit-identical to summing that station's
        shares alone. EVALUATED ships the mask vector for the summed share,
        every station's from one ``khprf.evaluate`` of the sums; COMPACT
        ships the summed share itself, leaving expansion to the server.
        Both carry the same information by key-homomorphism.

        Each station answers one list per round: the ids of a list it
        answered for round t again, but no other list for t and no list for
        an earlier round. Two mask sums whose lists differ by one device
        would give that device's mask, and when the threshold is more than
        k/2 any two threshold sets share a station, so at most one list per
        round can be opened.
        Only the stations that answer record the list.

        Raises ProtocolError, and answers none, if the list is stamped for
        a round other than t (its devices masked for that round, not this
        one), a row is listed twice, or a row answered another list for t
        or a list for a later round; ValueError if ``online`` is not an
        ``OnlineListMsg``, t is not an int in [0, 2^64), ``mode`` is not a
        ``MaskShareMode`` or ``rows``
        breaks the row rule ``Fleet.mask`` keeps: a 1-d int array, or a
        list, tuple or range of ints, never a bool, each in 0..k-1. The
        list's ids are strictly increasing, because ``OnlineListMsg``
        refuses any other.
        """
        _require_instance("online", online, OnlineListMsg)
        field.require_int("round t", t, end=1 << 64)
        if online.iteration != t:
            raise ProtocolError(
                f"online list for round {online.iteration} asked to answer round {t}"
            )
        require_mode(mode)
        rows = _rows(rows, len(self), "station", "answer twice")
        ids = online.ue_ids
        answer = (t, ids.tobytes())  # the ids as bytes, which no caller can edit
        for r in rows.tolist():
            last, listed = self._answered.get(r, answer)
            if last > t:
                raise ProtocolError(
                    f"BS {self.ids[r]} answered round {last}; round {t} is earlier")
            if last == t and listed != answer[1]:
                raise ProtocolError(f"BS {self.ids[r]} answered another list for round {t}")
        # a list is its own column index: its ids lie in 1..2^32 - 1, and
        # one past the columns clips onto column n + 1, which holds no share
        ys = self._ys.take(ids, axis=1, mode="clip")[rows]  # each row's listed shares
        # a MISSING share lies above p, and its station abstains
        held = ys.max(axis=1, initial=0) < field.P_WORD
        sums = field.vec_sum(ys[held].T)  # each holding row's exact share sum mod p
        compact = mode is MaskShareMode.COMPACT
        payloads = iter(sums.tolist() if compact else khprf.evaluate(sums, t, d))
        answers = []
        for r, holds, listed in zip(rows.tolist(), held.tolist(), ys):
            if not holds:
                missing = ids[listed == MISSING].tolist()
                answers.append(MissingShareError(
                    f"BS {self.ids[r]} holds no share for UEs {missing}"))
                continue
            self._answered[r] = answer
            if compact:
                answers.append(MaskShareMsg(self.ids[r], t, scalar=next(payloads)))
            else:
                answers.append(MaskShareMsg(self.ids[r], t, vector=next(payloads)))
        return answers


class BaseStation:
    """A standalone regional relay: the one row of its own ``Stations``,
    which holds its id and its one key share per registered device, the
    devices 1..``ONE_STATION_DEVICES``. Raises ValueError as ``Stations``
    does.
    """

    def __init__(self, bs_id: int):
        self.stations = Stations([bs_id], ONE_STATION_DEVICES)

    def receive_share(self, msg: SetupShareMsg) -> None:
        """``Stations.receive_shares`` of the one-row block ``msg`` in the
        one row; ValueError if ``msg`` is not a ``SetupShareMsg``."""
        _require_instance("msg", msg, SetupShareMsg)
        self.stations.receive_shares(0, SetupShareBlock.of([msg]))

    def mask_share(
        self, online: OnlineListMsg, t: int, mode: MaskShareMode, d: int
    ) -> MaskShareMsg:
        """``Stations.mask_shares`` of the one row. Raises its
        ProtocolError, and MissingShareError if any listed device never
        registered here: the station abstains rather than emit a wrong share."""
        [answer] = self.stations.mask_shares([0], online, t, mode, d)
        if isinstance(answer, MissingShareError):
            raise answer
        return answer


@dataclass
class Aggregator:
    """The aggregation server; sees masked updates and aggregated shares only.

    Raises ValueError, naming the field, for a ``registered_n`` or ``dim``
    that is not an int >= 1, a participation floor outside (0, 1], a
    ``bs_threshold`` that is not an ``AccessStructure`` or a ``codec`` that
    is not a ``FixedPointCodec``.
    """

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

    def __post_init__(self):
        for name in ("registered_n", "dim"):
            field.require_int(name, getattr(self, name), 1)
        require_online_fraction(self.min_online_fraction)
        _require_instance("bs_threshold", self.bs_threshold, AccessStructure)
        _require_instance("codec", self.codec, FixedPointCodec)
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
        """``collect_block`` of the one-row block ``msg``; ValueError if
        ``msg`` is not a ``MaskedUpdateMsg``."""
        _require_instance("msg", msg, MaskedUpdateMsg)
        return self.collect_block(MaskedUpdateBlock.of([msg]))[0]

    def collect_block(self, block: MaskedUpdateBlock) -> list[CollectStatus]:
        """Collect the block's rows in order, as one update each: log the
        sender as online, reject a sender already logged this round (by an
        earlier row too) as DUPLICATE, and refuse as STALE an update
        for another round or one that comes after the list is fixed.
        Returns each row's status; an accepted row is copied into the matrix.

        Raises ValueError, and logs no row, if ``block`` is not a
        ``MaskedUpdateBlock``, a row for this round is from a sender outside
        1..registered_n, or a row would be accepted but the block's
        dimension is not the model's; its elements are in [0, p), because
        ``MaskedUpdateBlock`` refuses any other.
        """
        _require_instance("block", block, MaskedUpdateBlock)
        codes = np.zeros(len(block), np.intp)  # indexes _STATUSES
        if self.online_ids is None:
            current = np.flatnonzero(block.iterations == self.iteration)
            rows = block.senders[current] - 1  # sender 0 wraps to 2^64 - 1
            if len(rows) and rows.max() >= self.registered_n:
                raise ValueError(f"update from a sender outside 1..{self.registered_n}")
            rows = rows.astype(np.intp)  # intp indexes faster than uint64
            # each sender's first row: every row, unless a sender repeats;
            # np.unique only if one does
            if _listed_once(rows, self.registered_n):
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

        Raises ValueError if ``mode`` is not a ``MaskShareMode`` or
        ``shares`` is not a dict of ``MaskShareMsg``s, and ProtocolError
        unless every share comes from a known station, under that station's
        key, for this round, in ``mode``, and an EVALUATED share has length
        ``dim``. Payload elements are in [0, p), because ``MaskShareMsg``
        refuses any other.
        """
        require_mode(mode)
        _require_instance("shares", shares, dict)
        for j, msg in shares.items():
            _require_instance("share", msg, MaskShareMsg)
            self._check_share(j, msg, mode)
        t_needed = self.bs_threshold.threshold
        if len(shares) < t_needed:
            return None
        chosen = sorted(shares)[:t_needed]
        if mode is MaskShareMode.COMPACT:
            _warn_compact()
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
        Only the sum ever exists in decoded form. Raises ProtocolError unless
        the online list is fixed and meets the participation floor, and
        ValueError unless ``agg_mask`` is a 1-d uint64 array of ``dim``
        elements below p; either leaves the model unchanged.
        """
        if self.online_ids is None:
            raise ProtocolError("online list not finalized")
        floor = self.min_online_count()
        if len(self.online_ids) < floor:
            raise ProtocolError(
                f"{len(self.online_ids)} online devices, below the floor of {floor}"
            )
        field.require_array("mask sum", agg_mask, np.uint64)
        field.require_canonical(agg_mask)  # vec_sub refuses any other length
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

