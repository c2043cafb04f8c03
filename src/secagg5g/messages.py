"""Wire format for the five protocol messages.

Everything is little-endian and bit-exact: header = type(1) || sender(8) ||
iteration(8), followed by a type-specific payload. Serialized lengths are
the unit of bandwidth accounting, so nothing here may be approximate.

    SETUP_SHARE   target BS id(8) || share x(8) || share y(8)
    MASKED_UPDATE dim(4) || field elements(8 each)
    ONLINE_LIST   n(4) || ceil(n/8) bytes, bit (i - 1) set for listed device i
    MASK_SHARE    mode(1) || dim(4) + elements   (EVALUATED)
                  mode(1) || scalar(8)           (COMPACT)
    GLOBAL_MODEL  dim(4) || float64 weights(8 each)

A message holds exactly what ``from_bytes`` gives back. Field vectors and
online ids are 1-d ``<u8`` numpy arrays, model weights a 1-d ``<f8`` one,
each stored as given, uncopied; any other value for an array field (a
list, a tuple, another dtype or shape) raises ValueError and is not
converted. Vectors and weights go on the wire as their little-endian
bytes. The online ids go as a bitmap over the registry 1..n that the
server and the stations share, in little-endian bit order with the
padding bits zero, so a station receives ceil(n/8) bytes however many
devices are listed. A mask share carries exactly one payload, a vector or
a scalar, and its ``mode`` is the one that payload names. Each message
type checks its own fields when built, in process or by ``from_bytes``:
every integer it carries is an int in [0, 2^64), every field element lies
in [0, p), online ids strictly increase within 1..n for a registry of
n < 2^32 devices and model weights are finite, else ValueError. Decoding
adds the length rule, a message must have exactly the length its type and
count imply, which ``wire_length`` computes without packing, and refuses a
set padding bit, so that every message has exactly one frame.

Masked updates and set-up shares have one codec, their block's:
``MaskedUpdateBlock.to_bytes`` writes m frames end to end from one packed
structured array, and ``updates_from_bytes`` views such a join as one,
checking type, count, length and canonical elements once for the block;
``SetupShareBlock`` and ``setup_shares_from_bytes`` do the same for a
station's set-up shares. A single message of either type packs and
decodes as a one-row block, so a block decoder refuses exactly the joins
in which some frame would be refused by ``from_bytes`` or decode to
another message type. The other three types, each packed one frame at a
time, keep a ``struct`` codec: for a single frame it is about ten times
faster than a one-row structured array.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .field import P, require_array, require_canonical, require_int
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

_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")
_WORD_END = 1 << 64
_COUNT_END = 1 << 32


class MaskShareMode(IntEnum):
    """How a base station ships its per-round contribution: the evaluated
    mask vector, or just the summed key share for the server to expand."""

    EVALUATED = 0
    COMPACT = 1


def require_mode(mode) -> None:
    """Refuse a mode that is not a ``MaskShareMode``; its equal int is not one."""
    if not isinstance(mode, MaskShareMode):
        raise ValueError(f"mask_share_mode must be a MaskShareMode, got {mode!r}")


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


def _require_header(msg) -> None:
    # ``field.require_int(name, value, end=2^64)`` for both fields, its type
    # test included, so bools are refused alike; inlined: every message runs
    # it, about a dozen per round, in 0.18 us against two calls' 0.58 us
    s, t = msg.sender, msg.iteration
    if not ((type(s) is int or isinstance(s, np.integer))
            and (type(t) is int or isinstance(t, np.integer))
            and 0 <= s < _WORD_END and 0 <= t < _WORD_END):
        raise ValueError(f"sender = {s!r} and iteration = {t!r} are not ints in [0, 2^64)")


@dataclass(frozen=True, eq=False)
class SetupShareMsg(_Message):
    sender: int
    iteration: int
    target_bs: int
    share: SecretShare

    def __post_init__(self):
        _require_header(self)
        require_int("target_bs", self.target_bs, end=_WORD_END)
        require_int("share x", self.share.x, end=_WORD_END)
        require_int("share y", self.share.y, end=P)

    def to_bytes(self) -> bytes:
        return SetupShareBlock.of([self]).to_bytes()


@dataclass(frozen=True, eq=False)
class MaskedUpdateMsg(_Message):
    sender: int
    iteration: int
    payload: np.ndarray  # uint64: encoded update + mask, in Z_p

    def __post_init__(self):
        _require_header(self)
        require_array("payload", self.payload, _U64)
        require_canonical(self.payload)

    def to_bytes(self) -> bytes:
        return MaskedUpdateBlock.of([self]).to_bytes()


@dataclass(frozen=True, eq=False)
class OnlineListMsg(_Message):
    """The devices online in a round, out of the registry 1..registered_n
    that the server and the stations share; ``registered_n`` None stands
    for the list's largest id (0 for an empty list)."""

    sender: int
    iteration: int
    ue_ids: np.ndarray  # uint64, strictly increasing, each in 1..registered_n
    registered_n: int | None = None

    def __post_init__(self):
        _require_header(self)
        require_array("ue_ids", self.ue_ids, _U64)
        ids = self.ue_ids
        # a duplicate id would add that device's key share twice at a station
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("online list ids are not strictly increasing")
        n = self.registered_n
        if n is None:
            n = int(ids[-1]) if len(ids) else 0
        require_int("registered_n", n, end=_COUNT_END)
        object.__setattr__(self, "registered_n", int(n))  # so wire_length is an int too
        if len(ids) and not (ids[0] >= 1 and ids[-1] <= n):
            raise ValueError(f"online list ids are not all in 1..{n}")

    def to_bytes(self) -> bytes:
        bits = np.zeros(self.registered_n + 1, dtype=bool)  # index i: device i
        bits[self.ue_ids.view(np.int64)] = True  # ids < 2^32 view as themselves
        return (_HEADER.pack(ONLINE_LIST, self.sender, self.iteration)
                + _COUNT.pack(self.registered_n)
                + np.packbits(bits[1:], bitorder="little").tobytes())


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
            require_array("vector", self.vector, _U64)
            require_canonical(self.vector)
        else:
            require_int("scalar share", self.scalar, end=P)

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
        require_array("weights", self.weights, _F64)
        if not np.isfinite(self.weights).all():
            raise ValueError("model weights must be finite")

    def to_bytes(self) -> bytes:
        return _HEADER.pack(GLOBAL_MODEL, self.sender, self.iteration) + _pack_array(
            self.weights
        )


Message = SetupShareMsg | MaskedUpdateMsg | OnlineListMsg | MaskShareMsg | GlobalModelMsg

# bytes of a masked-update frame before its elements, and of an online
# list before its bitmap: header and count
_UPDATE_HEAD = _LIST_HEAD = HEADER_LEN + _COUNT.size


def _update_frame(d: int) -> np.dtype:
    """One masked-update frame of d elements as a packed structured dtype."""
    return np.dtype([("type", "u1"), ("sender", "<u8"), ("iteration", "<u8"),
                     ("count", "<u4"), ("payload", "<u8", (d,))])


class _Block(Sequence):
    """A run of one message type's frames as arrays: a block has one row per
    message, indexes and iterates as those messages, and equals any
    sequence of the same messages."""

    senders: np.ndarray

    def __len__(self) -> int:
        return len(self.senders)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _pack_frames(block, frame: np.dtype, msg_type: int, **body) -> bytes:
    """The block's frames of the structured type ``frame``, end to end: the
    header from ``msg_type`` and the block's senders and iterations, then
    each named body field."""
    rows = np.empty(len(block), frame)
    rows["type"] = msg_type
    rows["sender"] = block.senders
    rows["iteration"] = block.iterations
    for name, values in body.items():
        rows[name] = values
    return rows.tobytes()


def _frames(data, frames: int, frame: np.dtype, msg_type: int, name: str) -> np.ndarray:
    """``data`` viewed as ``frames`` frames of the structured type ``frame``,
    each of which must be of ``msg_type``; the view is read-only when
    ``data`` is bytes, which is never copied."""
    if len(data) != frames * frame.itemsize:
        raise ValueError(f"{len(data)} bytes are not {frames} {name} frames")
    rows = np.frombuffer(data, dtype=frame, count=frames)
    if (rows["type"] != msg_type).any():
        raise ValueError(f"a frame of the block is not a {name}")
    return rows


def _require_words(block, names: dict[str, int]) -> None:
    """Refuse a block whose named fields are not ``<u8`` arrays of the given
    dimensions, one row per message."""
    for name, ndim in names.items():
        require_array(name, getattr(block, name), _U64, ndim)
    if len({len(getattr(block, name)) for name in names}) > 1:
        raise ValueError(f"a block needs one of each of {', '.join(names)} per message")


@dataclass(frozen=True, eq=False)
class MaskedUpdateBlock(_Block):
    """Masked updates of one dimension as arrays: row r is the message
    ``MaskedUpdateMsg(senders[r], iterations[r], payloads[r])``.

    ``senders`` and ``iterations`` are 1-d ``<u8`` arrays and ``payloads``
    an (m, d) ``<u8`` one, stored uncopied; any other value raises
    ValueError, and so does any element >= p, checked once for the block.
    Indexing or iterating gives the rows as ``MaskedUpdateMsg``s, and a
    block equals any sequence of the same messages.
    """

    senders: np.ndarray
    iterations: np.ndarray
    payloads: np.ndarray

    def __post_init__(self):
        _require_words(self, {"senders": 1, "iterations": 1, "payloads": 2})
        require_canonical(self.payloads)

    @classmethod
    def of(cls, msgs) -> "MaskedUpdateBlock":
        """The block whose rows are ``msgs``, masked updates of one dimension."""
        if not msgs:
            return cls(np.empty(0, _U64), np.empty(0, _U64), np.empty((0, 0), _U64))
        return cls(np.array([msg.sender for msg in msgs], dtype=_U64),
                   np.array([msg.iteration for msg in msgs], dtype=_U64),
                   np.array([msg.payload for msg in msgs], dtype=_U64))

    def __getitem__(self, r: int) -> MaskedUpdateMsg:
        return MaskedUpdateMsg(int(self.senders[r]), int(self.iterations[r]), self.payloads[r])

    def to_bytes(self) -> bytes:
        """Every row's frame, end to end, packed in one pass."""
        d = self.payloads.shape[1]
        return _pack_frames(self, _update_frame(d), MASKED_UPDATE, count=d, payload=self.payloads)


# one set-up share frame: header, target station, share x and share y
_SETUP_FRAME = np.dtype([("type", "u1"), ("sender", "<u8"), ("iteration", "<u8"),
                         ("target", "<u8"), ("x", "<u8"), ("y", "<u8")])


@dataclass(frozen=True, eq=False)
class SetupShareBlock(_Block):
    """Set-up shares as arrays: row r is the message
    ``SetupShareMsg(senders[r], iterations[r], targets[r],
    SecretShare(xs[r], ys[r]))``.

    Every field is a 1-d ``<u8`` array, stored uncopied; any other value
    raises ValueError, and so does a share y >= p or a share point x = 0,
    checked once for the block. Indexing or iterating gives the rows as
    ``SetupShareMsg``s, and a block equals any sequence of the same messages.
    """

    senders: np.ndarray
    iterations: np.ndarray
    targets: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        _require_words(self, dict.fromkeys(("senders", "iterations", "targets", "xs", "ys"), 1))
        require_canonical(self.ys)
        if not self.xs.all():
            raise ValueError("share point x = 0 is reserved for the secret")

    @classmethod
    def of(cls, msgs) -> "SetupShareBlock":
        """The block whose rows are the set-up shares ``msgs``."""
        columns = ([m.sender for m in msgs], [m.iteration for m in msgs],
                   [m.target_bs for m in msgs], [m.share.x for m in msgs],
                   [m.share.y for m in msgs])
        return cls(*(np.array(column, dtype=_U64) for column in columns))

    def __getitem__(self, r: int) -> SetupShareMsg:
        return SetupShareMsg(int(self.senders[r]), int(self.iterations[r]), int(self.targets[r]),
                             SecretShare(int(self.xs[r]), int(self.ys[r])))

    def to_bytes(self) -> bytes:
        """Every row's frame, end to end, packed in one pass."""
        return _pack_frames(self, _SETUP_FRAME, SETUP_SHARE, target=self.targets, x=self.xs,
                            y=self.ys)


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
    one the type and count imply, a set padding bit of an online list, or
    any field the message type itself refuses (an element >= p). Every
    field is read at its offset in ``data``, which is never copied: arrays
    in the result are read-only, and views of the received bytes except
    the online ids, which are unpacked from the bitmap.
    """
    if len(data) < HEADER_LEN:
        raise ValueError("truncated header")
    msg_type, sender, iteration = _HEADER.unpack_from(data)
    if msg_type == SETUP_SHARE:
        return setup_shares_from_bytes(data, 1)[0]
    if msg_type == MASKED_UPDATE:
        return updates_from_bytes(data, 1)[0]
    if msg_type == ONLINE_LIST:
        return _online_list(data, sender, iteration)
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


def _online_list(data, sender: int, iteration: int) -> OnlineListMsg:
    """The online list frame ``data``: the registry size n, then its bitmap."""
    if len(data) < _LIST_HEAD:
        raise ValueError("truncated registry size")
    (n,) = _COUNT.unpack_from(data, HEADER_LEN)
    _expect_length(data, _LIST_HEAD + (n + 7) // 8)
    if n % 8 and data[-1] >> n % 8:
        raise ValueError(f"padding bits past device {n} are set")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, offset=_LIST_HEAD), count=n,
                         bitorder="little")
    (at,) = bits.nonzero()  # device i at i - 1
    at += 1
    ids = at.view(_U64)  # ids < 2^32 view as themselves
    ids.flags.writeable = False
    return OnlineListMsg(sender, iteration, ids, n)


def updates_from_bytes(data, frames: int) -> MaskedUpdateBlock:
    """Decode ``frames`` masked-update frames of one dimension joined end to
    end; the inverse of ``MaskedUpdateBlock.to_bytes``.

    Raises ValueError unless ``data`` splits into ``frames`` equal frames,
    each of which ``from_bytes`` decodes to a ``MaskedUpdateMsg``. The
    count is given, not inferred, because a join carries no frame
    boundaries: nine frames whose first count is rewritten to 9d + 21
    can otherwise read as one valid frame. The arrays of the result are
    read-only views of ``data``, which is never copied.
    """
    if frames == 0:
        if len(data):
            raise ValueError(f"{len(data)} trailing bytes after an empty block")
        return MaskedUpdateBlock.of([])
    # the dimension a join of whole frames implies; any other join is refused
    d = max(0, (len(data) // frames - _UPDATE_HEAD) // 8)
    rows = _frames(data, frames, _update_frame(d), MASKED_UPDATE, "masked update")
    if (rows["count"] != d).any():
        raise ValueError(f"an element count of the block is not the {d} its frame length implies")
    return MaskedUpdateBlock(rows["sender"], rows["iteration"], rows["payload"])


def setup_shares_from_bytes(data, frames: int) -> SetupShareBlock:
    """Decode ``frames`` set-up share frames joined end to end; the inverse
    of ``SetupShareBlock.to_bytes``.

    Raises ValueError unless ``data`` is exactly ``frames`` frames, each of
    which ``from_bytes`` decodes to a ``SetupShareMsg``. The arrays of the
    result are read-only views of ``data``, which is never copied.
    """
    rows = _frames(data, frames, _SETUP_FRAME, SETUP_SHARE, "set-up share")
    return SetupShareBlock(rows["sender"], rows["iteration"], rows["target"], rows["x"], rows["y"])


def wire_length(msg: Message) -> int:
    """``len(msg.to_bytes())`` from the message's type and counts, packing
    nothing: the length ``from_bytes`` requires of the frame."""
    if isinstance(msg, SetupShareMsg):
        return _SETUP_FRAME.itemsize
    if isinstance(msg, MaskedUpdateMsg):
        return _UPDATE_HEAD + msg.payload.nbytes
    if isinstance(msg, OnlineListMsg):
        return _LIST_HEAD + (msg.registered_n + 7) // 8
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
