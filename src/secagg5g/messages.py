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

Field vectors and model weights are numpy arrays (uint64 and float64) and
go on the wire as their little-endian bytes. Each message type checks its
own fields when built, in process or by ``from_bytes``: every integer it
carries must be an int in [0, 2^64), every field element must lie in
[0, p), array fields must be 1-d, a mask share must carry only its mode's
payload and the ids of an online list must strictly increase, else
ValueError. Decoding adds only the length rule: a message must have
exactly the length its type and count imply.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import repeat

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


def _as_array(msg, name: str, dtype: np.dtype) -> None:
    """Store a frozen message's sequence field as a 1-d array of ``dtype``.
    A 1-d array of ``dtype`` is kept untouched; anything else bound for a
    uint64 field must hold ints in [0, 2^64), else ValueError: nothing is
    wrapped or truncated into range. Any other shape is refused, because the
    wire carries one count and a flat run of elements."""
    value = getattr(msg, name)
    if isinstance(value, np.ndarray) and value.dtype == dtype and value.ndim == 1:
        return
    if dtype == _U64:
        if isinstance(value, np.ndarray):
            ok = value.dtype.kind in "iu" and not (value < 0).any()
        else:
            ok = all(isinstance(v, _INTS) and 0 <= v < _WORD_END for v in value)
        if not ok:
            raise ValueError(f"{name} must hold ints in [0, 2^64)")
    array = np.asarray(value, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {array.shape}")
    object.__setattr__(msg, name, array)


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
        _as_array(self, "payload", _U64)
        require_canonical(self.payload)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(MASKED_UPDATE, self.sender, self.iteration) + _pack_array(
            self.payload
        )


@dataclass(frozen=True, eq=False)
class OnlineListMsg(_Message):
    sender: int
    iteration: int
    ue_ids: tuple[int, ...]

    def __post_init__(self):
        _require_header(self)
        ids = self.ue_ids
        if not all(map(isinstance, ids, repeat(_INTS))):
            raise ValueError("online list ids must be ints")
        # a repeated id would add that device's key share twice at a station
        if any(map(operator.ge, ids, ids[1:])):
            raise ValueError("online list ids are not strictly increasing")
        # increasing, so the ends bound every id
        if ids and not (ids[0] >= 0 and ids[-1] < _WORD_END):
            raise ValueError("online list ids are not in [0, 2^64)")

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(ONLINE_LIST, self.sender, self.iteration)
        return head + _COUNT.pack(len(self.ue_ids)) + struct.pack(
            f"<{len(self.ue_ids)}Q", *self.ue_ids
        )


@dataclass(frozen=True, eq=False)
class MaskShareMsg(_Message):
    sender: int
    iteration: int
    mode: MaskShareMode
    vector: np.ndarray | None = None  # EVALUATED payload, uint64
    scalar: int | None = None  # COMPACT payload

    def __post_init__(self):
        _require_header(self)
        # the wire carries the one payload the mode names and nothing else
        if self.mode is MaskShareMode.EVALUATED and (
            self.vector is None or self.scalar is not None
        ):
            raise ValueError("an EVALUATED mask share carries a vector and no scalar")
        if self.mode is MaskShareMode.COMPACT and (
            self.scalar is None or self.vector is not None
        ):
            raise ValueError("a COMPACT mask share carries a scalar and no vector")
        if self.vector is not None:
            _as_array(self, "vector", _U64)
            require_canonical(self.vector)
        if self.scalar is not None:
            _require_int("scalar share", self.scalar, P)

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(MASK_SHARE, self.sender, self.iteration)
        if self.mode is MaskShareMode.EVALUATED:
            body = _pack_array(self.vector)
        else:
            body = _WORD.pack(self.scalar)
        return head + bytes([self.mode]) + body


@dataclass(frozen=True, eq=False)
class GlobalModelMsg(_Message):
    sender: int
    iteration: int
    weights: np.ndarray  # float64

    def __post_init__(self):
        _require_header(self)
        _as_array(self, "weights", _F64)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(GLOBAL_MODEL, self.sender, self.iteration) + _pack_array(
            self.weights
        )


Message = SetupShareMsg | MaskedUpdateMsg | OnlineListMsg | MaskShareMsg | GlobalModelMsg


def _counted(body: bytes, offset: int, dtype: np.dtype) -> np.ndarray:
    """The count-prefixed array at ``offset``, which must end the body exactly."""
    if len(body) < offset + _COUNT.size:
        raise ValueError("truncated element count")
    (count,) = _COUNT.unpack_from(body, offset)
    start = offset + _COUNT.size
    _expect_length(body, start + count * dtype.itemsize)
    return np.frombuffer(body, dtype=dtype, count=count, offset=start)


def _expect_length(body: bytes, length: int) -> None:
    if len(body) < length:
        raise ValueError(f"truncated body: {len(body)} bytes, expected {length}")
    if len(body) > length:
        raise ValueError(f"{len(body) - length} trailing bytes after the message")


def from_bytes(data: bytes) -> Message:
    """Decode a serialized message; inverse of ``to_bytes`` bit for bit.

    Raises ValueError for an unknown type or mode, a length other than the
    one the type and count imply, or any field the message type itself
    refuses (an element >= p, online ids not strictly increasing). Arrays in
    the result are read-only views of the received bytes.
    """
    if len(data) < HEADER_LEN:
        raise ValueError("truncated header")
    msg_type, sender, iteration = _HEADER.unpack_from(data)
    body = data[HEADER_LEN:]
    if msg_type == SETUP_SHARE:
        _expect_length(body, _SETUP.size)
        target_bs, x, y = _SETUP.unpack(body)
        return SetupShareMsg(sender, iteration, target_bs, SecretShare(x, y))
    if msg_type == MASKED_UPDATE:
        return MaskedUpdateMsg(sender, iteration, _counted(body, 0, _U64))
    if msg_type == ONLINE_LIST:
        return OnlineListMsg(sender, iteration, tuple(_counted(body, 0, _U64).tolist()))
    if msg_type == MASK_SHARE:
        if not body:
            raise ValueError("truncated mask share mode")
        mode = MaskShareMode(body[0])
        if mode is MaskShareMode.EVALUATED:
            return MaskShareMsg(sender, iteration, mode, vector=_counted(body, 1, _U64))
        _expect_length(body, 1 + _WORD.size)
        (scalar,) = _WORD.unpack_from(body, 1)
        return MaskShareMsg(sender, iteration, mode, scalar=scalar)
    if msg_type == GLOBAL_MODEL:
        return GlobalModelMsg(sender, iteration, _counted(body, 0, _F64))
    raise ValueError(f"unknown message type {msg_type}")


def wire_length(msg: Message) -> int:
    return len(msg.to_bytes())


def payload_length(msg: Message) -> int:
    """Bytes after the fixed 17-byte header."""
    return wire_length(msg) - HEADER_LEN
