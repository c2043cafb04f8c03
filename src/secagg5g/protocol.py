"""The three aggregation-protocol roles and their single-round message flow.

Roles:
  * ``UserEquipment`` holds a private masking key, splits it into per-base-
    station shares once at setup, and thereafter sends exactly one masked
    update per round.
  * ``BaseStation`` stores one key share per registered device and answers
    each round's online list with one aggregated mask share.
  * ``Aggregator`` (the untrusted server) collects masked updates, fixes the
    online list, reconstructs the sum of online masks from any threshold-many
    base-station shares, and unmasks only the sum.

Entities are passive state machines: a message in causes a state change and
zero or more messages out. The discrete-event harness in ``simnet`` drives
them; tests may also drive them directly.

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
from .field import FixedPointCodec
from .messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareMsg,
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


def generate_key(rng) -> int:
    """Fresh uniform masking key in Z_p."""
    return field.rand_element(rng)


@dataclass
class UserEquipment:
    """A device: private key, fixed-point codec and model dimension."""

    ue_id: int
    key: int
    codec: FixedPointCodec
    dim: int
    precomputed_masks: np.ndarray | None = dc_field(default=None, init=False)  # (iterations, dim)
    _setup_done: bool = dc_field(default=False, init=False)
    _last_iteration: int = dc_field(default=-1, init=False)  # highest round masked so far

    def setup(self, acc: AccessStructure, rng) -> list[SetupShareMsg]:
        """Split the key into one share per base station (share x = BS index).

        One-shot: the key is shared once; re-running setup without a reset
        would hand out a second, inconsistent share set.
        """
        if self._setup_done:
            raise ProtocolError(f"UE {self.ue_id} already completed setup")
        self._setup_done = True
        return [
            SetupShareMsg(sender=self.ue_id, iteration=0, target_bs=share.x, share=share)
            for share in shamir.split(self.key, acc, rng)
        ]

    def precompute(self, num_iterations: int) -> None:
        """Front-load masks for iterations 0..num_iterations-1."""
        precompute_fleet([self], num_iterations)

    def masked_update(self, w, t: int) -> MaskedUpdateMsg:
        """Encode the local update and add this round's mask.

        Each iteration's mask may be used once; reuse would let the server
        cancel masks across rounds and open individual updates. Rounds must
        therefore strictly increase: any ``t`` at or below the last round
        masked raises ProtocolError. An update outside the codec's magnitude
        bound raises ValueError and spends no round.
        """
        return mask_updates([self], [w], t)[0]

    def _round_mask(self, t: int) -> np.ndarray:
        if self.precomputed_masks is not None and t < len(self.precomputed_masks):
            return self.precomputed_masks[t]
        return khprf.evaluate(self.key, t, self.dim)


def mask_updates(ues: list[UserEquipment], updates, t: int) -> list[MaskedUpdateMsg]:
    """Mask row r of the (m, d) ``updates`` with device ``ues[r]``'s round-t
    mask; one message per row, in the order of ``ues``.

    The masks are gathered into one (m, d) array and one
    ``field.encode_masked`` call encodes the stack, so each row is
    bit-identical to masking that device alone.

    All or nothing: raises ProtocolError, and advances no device, if a
    device is listed twice or has already masked round t or a later one.
    Raises ValueError if t is not an int in [0, 2^64), if the devices do
    not share one codec, or if an update has the wrong dimension or exceeds
    the magnitude bound. An empty fleet gives no messages.
    """
    khprf.require_round(t)
    if not ues:
        return []
    codec = ues[0].codec
    # identity first: a fleet normally shares one codec object
    if any(ue.codec is not codec and ue.codec != codec for ue in ues):
        raise ValueError("devices masked in one call must share one codec")
    if len({id(ue) for ue in ues}) < len(ues):
        raise ProtocolError("a device listed twice would use its round mask twice")
    for ue in ues:
        if t <= ue._last_iteration:
            raise ProtocolError(
                f"UE {ue.ue_id} already masked round {ue._last_iteration}; "
                f"round {t} is not later"
            )
    masks = np.array([ue._round_mask(t) for ue in ues])
    payloads = field.encode_masked(updates, codec, masks)
    for ue in ues:
        ue._last_iteration = t
    return [
        MaskedUpdateMsg(sender=ue.ue_id, iteration=t, payload=row)
        for ue, row in zip(ues, payloads)
    ]


def precompute_fleet(ues: list[UserEquipment], num_iterations: int) -> None:
    """Front-load every device's masks for iterations 0..num_iterations-1 in
    one ``khprf.precompute_fleet`` pass; ``ues[r]`` gets row r of the fleet
    array as its ``precomputed_masks``.

    All or nothing: raises ValueError, and gives no device a table, if the
    devices do not share one ``dim``, a key is not an int in [0, p), or
    ``num_iterations`` is not an int >= 1. An empty fleet is a no-op.
    """
    if not ues:
        return
    dim = ues[0].dim
    if any(ue.dim != dim for ue in ues):
        raise ValueError("devices precomputed in one call must share one dim")
    tables = khprf.precompute_fleet([ue.key for ue in ues], num_iterations, dim)
    for ue, table in zip(ues, tables):
        ue.precomputed_masks = table


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


@dataclass
class BaseStation:
    """Regional relay: holds one key share per registered device."""

    bs_id: int
    stored_shares: dict[int, SecretShare] = dc_field(default_factory=dict, init=False)

    def receive_share(self, msg: SetupShareMsg) -> None:
        if msg.target_bs != self.bs_id:
            raise ProtocolError(
                f"share for BS {msg.target_bs} delivered to BS {self.bs_id}"
            )
        if msg.share.x != self.bs_id:
            raise ProtocolError(
                f"share point x={msg.share.x} does not match BS index {self.bs_id}"
            )
        if msg.sender in self.stored_shares:
            raise ProtocolError(
                f"BS {self.bs_id} already stores a share for UE {msg.sender}"
            )
        # y as a Python int, so that mask_share's plain sum cannot wrap
        self.stored_shares[msg.sender] = SecretShare(msg.share.x, int(msg.share.y))

    def mask_share(
        self, online: OnlineListMsg, t: int, mode: MaskShareMode, d: int
    ) -> MaskShareMsg:
        """Sum the key shares of the online list and answer with one message.

        EVALUATED ships the mask vector for the summed share; COMPACT ships
        the summed share itself, leaving expansion to the server. Both carry
        the same information by key-homomorphism.

        Raises ProtocolError if the list is stamped for a round other than
        t (its devices masked for that round, not this one), and
        MissingShareError if any listed device never registered here; the
        station must abstain rather than emit a wrong share. The list's ids
        are strictly increasing, because ``OnlineListMsg`` refuses any other.
        """
        if online.iteration != t:
            raise ProtocolError(
                f"online list for round {online.iteration} asked to answer round {t}"
            )
        ids = online.ue_ids.tolist()
        missing = [ue for ue in ids if ue not in self.stored_shares]
        if missing:
            raise MissingShareError(
                f"BS {self.bs_id} holds no share for UEs {missing}"
            )
        summed = sum([self.stored_shares[ue].y for ue in ids]) % field.P
        if mode is MaskShareMode.EVALUATED:
            return MaskShareMsg(
                sender=self.bs_id, iteration=t, vector=khprf.evaluate(summed, t, d)
            )
        return MaskShareMsg(sender=self.bs_id, iteration=t, scalar=summed)


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
    masked_updates: dict[int, np.ndarray] = dc_field(default_factory=dict, init=False)
    online_ids: np.ndarray | None = dc_field(default=None, init=False)  # uint64, sorted
    _warned_compact: bool = dc_field(default=False, init=False)

    def __post_init__(self):
        self.global_model = np.zeros(self.dim)

    def begin_round(self, t: int) -> None:
        self.iteration = t
        self.masked_updates = {}
        self.online_ids = None

    def collect_update(self, msg: MaskedUpdateMsg) -> CollectStatus:
        """Log the sender as online; reject duplicates, and refuse as STALE
        an update for another round or one that comes after the list is fixed.

        Raises ValueError for a payload of the wrong dimension; its elements
        are in [0, p), because ``MaskedUpdateMsg`` refuses any other.
        """
        if msg.iteration != self.iteration or self.online_ids is not None:
            return CollectStatus.STALE
        if msg.sender in self.masked_updates:
            return CollectStatus.DUPLICATE
        if len(msg.payload) != self.dim:
            raise ValueError(
                f"masked update dim {len(msg.payload)} != model dim {self.dim}"
            )
        self.masked_updates[msg.sender] = msg.payload
        return CollectStatus.ACCEPTED

    def min_online_count(self) -> int:
        return math.ceil(self.min_online_fraction * self.registered_n)

    def finalize_online_list(self) -> OnlineListMsg | None:
        """Fix the online list at the collection deadline.

        Returns the broadcast message, or None when participation fell below
        the configured floor (the caller then halts this round).
        """
        self.online_ids = np.array(sorted(self.masked_updates), dtype=np.uint64)
        if len(self.online_ids) < self.min_online_count():
            return None
        return OnlineListMsg(
            sender=AF_SENDER_ID, iteration=self.iteration, ue_ids=self.online_ids
        )

    def recover_mask(
        self, shares: dict[int, MaskShareMsg], mode: MaskShareMode
    ) -> np.ndarray | None:
        """Reconstruct the sum of online devices' masks from BS shares.

        Uses the threshold-many lowest-indexed responding stations, for
        reproducibility. Returns None when fewer than threshold responded;
        below threshold the mask sum is information-theoretically out of
        reach, which is exactly the privacy guarantee.

        Raises ProtocolError unless every share comes from a known station,
        under that station's key, for this round, in ``mode``, and an
        EVALUATED share has length ``dim``. Payload elements are in [0, p),
        because ``MaskShareMsg`` refuses any other.
        """
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
        masked = np.stack([self.masked_updates[ue] for ue in self.online_ids.tolist()])
        encoded_sum = field.vec_sub(field.vec_sum(masked), agg_mask)
        count = len(self.online_ids)
        update = field.decode_sum(encoded_sum, self.codec, count) / count
        self.global_model = self.global_model + update
        return update

    def global_model_message(self) -> GlobalModelMsg:
        return GlobalModelMsg(
            sender=AF_SENDER_ID,
            iteration=self.iteration,
            weights=self.global_model,
        )

    def fallback(self) -> GlobalModelMsg:
        """Halt this round: redistribute the previous model unchanged."""
        return self.global_model_message()

