"""Wire format for the five protocol messages.

Everything is little-endian and bit-exact: header = type(1) || sender(8) ||
iteration(8), followed by a type-specific payload. Serialized lengths are
the unit of bandwidth accounting, so nothing here may be approximate.

    SETUP_SHARE   target BS id(8) || share x(8) || share y(8)
    MASKED_UPDATE dim(4) || field elements(8 each)
    ONLINE_LIST   count(4) || strictly increasing UE ids(8 each)
    MASK_SHARE    mode(1) || dim(4) + elements   (EVALUATED)
                  mode(1) || scalar(8)           (COMPACT)
    GLOBAL_MODEL  dim(4) || float64 weights(8 each)

A message holds exactly what ``from_bytes`` gives back. Field vectors and
online ids are 1-d ``<u8`` numpy arrays, model weights a 1-d ``<f8`` one,
each stored as given, uncopied, and put on the wire as its little-endian
bytes; any other value for an array field (a list, a tuple, another dtype
or shape) raises ValueError and is not converted. A mask share carries
exactly one payload, a vector or a scalar, and its ``mode`` is the one that
payload names. Each message type checks its own fields when built, in
process or by ``from_bytes``: every integer it carries is an int in
[0, 2^64), every field element lies in [0, p), online ids strictly
increase and model weights are finite, else ValueError. Decoding adds only
the length rule: a message must have exactly the length its type and count
imply, which ``wire_length`` computes without packing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .field import P, require_canonical
from .shamir import SecretShare

SETUP_SHARE = 1
MASKED_UPDATE = 2
ONLINE_LIST = 3
MASK_SHARE = 4
GLOBAL_MODEL = 5

HEADER_LEN = 17
_HEADER = struct.Struct("<BQQ")
_COUNT = struct.Struct("<I")
_WORD = struct.Struct("<Q")
_SETUP = struct.Struct("<QQQ")

_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")
_WORD_END = 1 << 64
_INTS = (int, np.integer)


class MaskShareMode(IntEnum):
    """How a base station ships its per-round contribution: the evaluated
    mask vector, or just the summed key share for the server to expand."""

    EVALUATED = 0
    COMPACT = 1


def _pack_array(values: np.ndarray) -> bytes:
    return _COUNT.pack(len(values)) + values.tobytes()


class _Message:
    """Exact field-by-field equality; array fields compare element-wise."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if a is None or b is None or not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True


def _require_int(name: str, value, end: int = _WORD_END) -> None:
    """Refuse an integer field that is not an int in [0, end)."""
    if not (isinstance(value, _INTS) and 0 <= value < end):
        bound = "p" if end == P else "2^64"
        raise ValueError(f"{name} = {value!r} is not an int in [0, {bound})")


def _require_header(msg) -> None:
    # ``_require_int`` for both fields, inlined: every message runs this
    s, t = msg.sender, msg.iteration
    if not (isinstance(s, _INTS) and isinstance(t, _INTS)
            and 0 <= s < _WORD_END and 0 <= t < _WORD_END):
        raise ValueError(f"sender {s!r} and iteration {t!r} must be ints in [0, 2^64)")


def _require_array(msg, name: str, dtype: np.dtype) -> None:
    """Refuse an array field that is not a 1-d array of ``dtype``: the wire
    carries one count and a flat run of elements of that type."""
    value = getattr(msg, name)
    if not (isinstance(value, np.ndarray) and value.dtype == dtype and value.ndim == 1):
        raise ValueError(f"{name} must be a 1-d {dtype} array")


@dataclass(frozen=True, eq=False)
class SetupShareMsg(_Message):
    sender: int
    iteration: int
    target_bs: int
    share: SecretShare

    def __post_init__(self):
        _require_header(self)
        _require_int("target_bs", self.target_bs)
        _require_int("share x", self.share.x)
        _require_int("share y", self.share.y, P)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(SETUP_SHARE, self.sender, self.iteration) + _SETUP.pack(
            self.target_bs, self.share.x, self.share.y
        )


@dataclass(frozen=True, eq=False)
class MaskedUpdateMsg(_Message):
    sender: int
    iteration: int
    payload: np.ndarray  # uint64: encoded update + mask, in Z_p

    def __post_init__(self):
        _require_header(self)
        _require_array(self, "payload", _U64)
        require_canonical(self.payload)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(MASKED_UPDATE, self.sender, self.iteration) + _pack_array(
            self.payload
        )


@dataclass(frozen=True, eq=False)
class OnlineListMsg(_Message):
    sender: int
    iteration: int
    ue_ids: np.ndarray  # uint64, strictly increasing

    def __post_init__(self):
        _require_header(self)
        _require_array(self, "ue_ids", _U64)
        # a duplicate id would add that device's key share twice at a station
        if (self.ue_ids[1:] <= self.ue_ids[:-1]).any():
            raise ValueError("online list ids are not strictly increasing")

    def to_bytes(self) -> bytes:
        return _HEADER.pack(ONLINE_LIST, self.sender, self.iteration) + _pack_array(
            self.ue_ids
        )


@dataclass(frozen=True, eq=False)
class MaskShareMsg(_Message):
    sender: int
    iteration: int
    vector: np.ndarray | None = None  # EVALUATED payload, uint64
    scalar: int | None = None  # COMPACT payload

    def __post_init__(self):
        _require_header(self)
        # the wire carries one payload, and its mode byte names which
        if (self.vector is None) == (self.scalar is None):
            raise ValueError("a mask share carries exactly one of a vector and a scalar")
        if self.vector is not None:
            _require_array(self, "vector", _U64)
            require_canonical(self.vector)
        else:
            _require_int("scalar share", self.scalar, P)

    @property
    def mode(self) -> MaskShareMode:
        """The mode the payload names: EVALUATED for a vector, COMPACT for a scalar."""
        return MaskShareMode.EVALUATED if self.scalar is None else MaskShareMode.COMPACT

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(MASK_SHARE, self.sender, self.iteration) + bytes([self.mode])
        if self.scalar is None:
            return head + _pack_array(self.vector)
        return head + _WORD.pack(self.scalar)


@dataclass(frozen=True, eq=False)
class GlobalModelMsg(_Message):
    sender: int
    iteration: int
    weights: np.ndarray  # float64

    def __post_init__(self):
        _require_header(self)
        _require_array(self, "weights", _F64)
        if not np.isfinite(self.weights).all():
            raise ValueError("model weights must be finite")

    def to_bytes(self) -> bytes:
        return _HEADER.pack(GLOBAL_MODEL, self.sender, self.iteration) + _pack_array(
            self.weights
        )


Message = SetupShareMsg | MaskedUpdateMsg | OnlineListMsg | MaskShareMsg | GlobalModelMsg


def _counted(data: bytes, offset: int, dtype: np.dtype) -> np.ndarray:
    """The count-prefixed array at ``offset``, which must end the frame exactly."""
    if len(data) < offset + _COUNT.size:
        raise ValueError("truncated element count")
    (count,) = _COUNT.unpack_from(data, offset)
    start = offset + _COUNT.size
    _expect_length(data, start + count * dtype.itemsize)
    return np.frombuffer(data, dtype=dtype, count=count, offset=start)


def _expect_length(data: bytes, end: int) -> None:
    """The frame must end exactly at ``end``; errors count body bytes."""
    if len(data) < end:
        raise ValueError(
            f"truncated body: {len(data) - HEADER_LEN} bytes, expected {end - HEADER_LEN}")
    if len(data) > end:
        raise ValueError(f"{len(data) - end} trailing bytes after the message")


def from_bytes(data: bytes) -> Message:
    """Decode a serialized message; inverse of ``to_bytes`` bit for bit.

    Raises ValueError for an unknown type or mode, a length other than the
    one the type and count imply, or any field the message type itself
    refuses (an element >= p, online ids not strictly increasing). Every
    field is read at its offset in ``data``, which is never copied: arrays
    in the result are read-only views of the received bytes.
    """
    if len(data) < HEADER_LEN:
        raise ValueError("truncated header")
    msg_type, sender, iteration = _HEADER.unpack_from(data)
    if msg_type == SETUP_SHARE:
        _expect_length(data, HEADER_LEN + _SETUP.size)
        target_bs, x, y = _SETUP.unpack_from(data, HEADER_LEN)
        return SetupShareMsg(sender, iteration, target_bs, SecretShare(x, y))
    if msg_type == MASKED_UPDATE:
        return MaskedUpdateMsg(sender, iteration, _counted(data, HEADER_LEN, _U64))
    if msg_type == ONLINE_LIST:
        return OnlineListMsg(sender, iteration, _counted(data, HEADER_LEN, _U64))
    if msg_type == MASK_SHARE:
        if len(data) == HEADER_LEN:
            raise ValueError("truncated mask share mode")
        if MaskShareMode(data[HEADER_LEN]) is MaskShareMode.EVALUATED:
            return MaskShareMsg(sender, iteration, vector=_counted(data, HEADER_LEN + 1, _U64))
        _expect_length(data, HEADER_LEN + 1 + _WORD.size)
        (scalar,) = _WORD.unpack_from(data, HEADER_LEN + 1)
        return MaskShareMsg(sender, iteration, scalar=scalar)
    if msg_type == GLOBAL_MODEL:
        return GlobalModelMsg(sender, iteration, _counted(data, HEADER_LEN, _F64))
    raise ValueError(f"unknown message type {msg_type}")


def wire_length(msg: Message) -> int:
    """``len(msg.to_bytes())`` from the message's type and counts, packing
    nothing: the length ``from_bytes`` requires of the frame."""
    if isinstance(msg, SetupShareMsg):
        return HEADER_LEN + _SETUP.size
    if isinstance(msg, MaskedUpdateMsg):
        return HEADER_LEN + _COUNT.size + msg.payload.nbytes
    if isinstance(msg, OnlineListMsg):
        return HEADER_LEN + _COUNT.size + msg.ue_ids.nbytes
    if isinstance(msg, MaskShareMsg):
        if msg.scalar is not None:
            return HEADER_LEN + 1 + _WORD.size
        return HEADER_LEN + 1 + _COUNT.size + msg.vector.nbytes
    if isinstance(msg, GlobalModelMsg):
        return HEADER_LEN + _COUNT.size + msg.weights.nbytes
    raise TypeError(f"not a message: {msg!r}")


def payload_length(msg: Message) -> int:
    """Bytes after the fixed 17-byte header."""
    return wire_length(msg) - HEADER_LEN
