"""Wire-format tests: bit-exact round trips, exact byte lengths, and strict
decoding of malformed, truncated and over-long input."""

import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from secagg5g import messages
from secagg5g.field import P
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateBlock,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareBlock,
    SetupShareMsg,
    from_bytes,
    payload_length,
    setup_shares_from_bytes,
    updates_from_bytes,
    wire_length,
)
from secagg5g.shamir import SecretShare

elements = st.integers(min_value=0, max_value=P - 1)
ids = st.integers(min_value=0, max_value=2**32)


def u64(values):
    return np.array(values, dtype=np.uint64)


def f64(values):
    return np.array(values, dtype=np.float64)


@given(ids, ids, st.integers(min_value=1, max_value=100), elements)
def test_setup_share_round_trip(sender, iteration, x, y):
    msg = SetupShareMsg(sender, iteration, target_bs=x, share=SecretShare(x, y))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 24


@given(ids, ids, st.lists(elements, min_size=1, max_size=50))
def test_masked_update_round_trip(sender, iteration, payload):
    msg = MaskedUpdateMsg(sender, iteration, u64(payload))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(payload)


def test_masked_update_d1000_length():
    msg = MaskedUpdateMsg(1, 0, np.arange(1000, dtype=np.uint64))
    assert wire_length(msg) == 17 + 4 + 8000


# -- online lists: a bitmap of the registered devices 1..n ----------------------


@st.composite
def online_lists(draw):
    """(registered_n, sorted ids): any subset of 1..n, n up to 300."""
    n = draw(st.integers(min_value=0, max_value=300), label="registered_n")
    listed = draw(st.sets(st.integers(min_value=1, max_value=n)) if n else st.just(set()),
                  label="ids")
    return n, sorted(listed)


def online_list_bytes(ue_ids, n, iteration=0):
    """The frame from plain ints: n, then bit i - 1 of the little-endian
    integer the bitmap's bytes spell set for each listed device i."""
    bitmap = sum(1 << (i - 1) for i in ue_ids).to_bytes((n + 7) // 8, "little")
    return bytes([messages.ONLINE_LIST]) + struct.pack("<QQI", 0, iteration, n) + bitmap


@given(ids, online_lists())
def test_online_list_round_trip(iteration, case):
    n, listed = case
    msg = OnlineListMsg(0, iteration, u64(listed), n)
    raw = msg.to_bytes()
    assert raw == online_list_bytes(listed, n, iteration)
    assert from_bytes(raw) == msg
    assert wire_length(msg) == len(raw) == 17 + 4 + (n + 7) // 8


@given(ids, st.integers(min_value=0, max_value=300), st.data())
def test_every_canonical_list_frame_decodes_and_packs_back(iteration, n, data):
    # bytes -> message -> bytes: any bitmap of n bits with its padding zero
    bits = data.draw(st.integers(min_value=0, max_value=2**n - 1), label="bitmap")
    raw = (bytes([messages.ONLINE_LIST]) + struct.pack("<QQI", 0, iteration, n)
           + bits.to_bytes((n + 7) // 8, "little"))
    msg = from_bytes(raw)
    assert msg.registered_n == n
    assert msg.ue_ids.tolist() == [i + 1 for i in range(n) if bits >> i & 1]
    assert msg.to_bytes() == raw
    assert not msg.ue_ids.flags.writeable


def test_online_list_known_answer():
    msg = OnlineListMsg(0, 0, u64([1, 3, 10]), 10)
    assert msg.to_bytes()[17:] == bytes.fromhex("0a000000 0502")
    assert wire_length(msg) == 23
    # without a registry size, the list's largest id stands for it
    assert OnlineListMsg(0, 0, u64([1, 3, 10])) == msg
    assert OnlineListMsg(0, 0, u64([])).registered_n == 0


@pytest.mark.parametrize("forged", [(1, 1, 2, 3), (2, 1, 3)])
def test_repeated_or_unsorted_online_list_rejected(forged):
    # a bitmap can carry neither, so the message refuses them when built
    with pytest.raises(ValueError, match="strictly increasing"):
        OnlineListMsg(0, 0, u64(forged), 8)
    honest = sorted(set(forged))
    assert OnlineListMsg(0, 0, u64(honest), 8).to_bytes() == online_list_bytes(honest, 8)
    assert from_bytes(online_list_bytes(honest, 8)) == OnlineListMsg(0, 0, u64(honest), 8)


@pytest.mark.parametrize("ue_ids, n, match", [
    ([0, 2], 4, r"not all in 1\.\.4"),
    ([2, 5], 4, r"not all in 1\.\.4"),
    ([1], 2**32, r"registered_n = 4294967296 is not an int in \[0, 2\^32\)"),
    ([1, 2**32], None, r"registered_n = 4294967296"),
    ([1, 5, 2**64 - 1], None, "registered_n"),
    ([1], -1, "registered_n"),
    ([1], True, "registered_n"),
    ([1], 4.0, "registered_n"),
], ids=["id_0", "id_above_n", "n_2^32", "id_2^32", "id_2^64-1", "n_negative", "n_bool",
        "n_float"])
def test_list_outside_its_registry_is_refused(ue_ids, n, match):
    with pytest.raises(ValueError, match=match):
        OnlineListMsg(0, 0, u64(ue_ids), n)


@pytest.mark.parametrize("n", [1, 7, 9, 10, 15])
def test_list_frame_with_a_padding_bit_set_is_refused(n):
    raw = bytearray(online_list_bytes(sorted({1, n}), n))
    for bit in range(n % 8, 8):
        raw[-1] |= 1 << bit
        with pytest.raises(ValueError, match=f"padding bits past device {n} are set"):
            from_bytes(bytes(raw))
        raw[-1] &= ~(1 << bit)
    assert from_bytes(bytes(raw)).ue_ids.tolist() == sorted({1, n})


@pytest.mark.parametrize("n", [1, 8, 9, 10, 296])
def test_list_frame_whose_count_is_one_off_is_refused(n):
    # every device listed: one count lower, the last bit falls in the padding
    # or past the frame; one higher, the bitmap is a byte short when its byte
    # count grows, and is otherwise the frame of another list, over n + 1
    raw = online_list_bytes(range(1, n + 1), n)
    with pytest.raises(ValueError, match="trailing bytes|padding bits"):
        from_bytes(raw[:17] + struct.pack("<I", n - 1) + raw[21:])
    up = raw[:17] + struct.pack("<I", n + 1) + raw[21:]
    if n % 8 == 0:
        with pytest.raises(ValueError, match="truncated body"):
            from_bytes(up)
    else:
        assert from_bytes(up) == OnlineListMsg(0, 0, u64(range(1, n + 1)), n + 1)


@given(ids, st.lists(elements, min_size=1, max_size=30))
def test_mask_share_evaluated_round_trip(sender, vector):
    msg = MaskShareMsg(sender, 3, vector=u64(vector))
    assert msg.mode is MaskShareMode.EVALUATED
    assert from_bytes(msg.to_bytes()) == msg
    assert payload_length(msg) == 1 + 4 + 8 * len(vector)


@given(ids, elements)
def test_mask_share_compact_round_trip(sender, scalar):
    msg = MaskShareMsg(sender, 3, scalar=scalar)
    assert msg.mode is MaskShareMode.COMPACT
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 1 + 8
    assert payload_length(msg) == 9


def test_mask_share_payload_required():
    with pytest.raises(ValueError):
        MaskShareMsg(1, 0)


# each would build and pack bytes that do not decode back to it: the wire has
# one count per array and one payload per mask share
@pytest.mark.parametrize("build", [
    lambda: MaskedUpdateMsg(1, 0, np.zeros((2, 2), dtype=np.uint64)),
    lambda: MaskShareMsg(1, 0, vector=np.zeros((2, 2), np.uint64)),
    lambda: GlobalModelMsg(0, 0, np.zeros((2, 2))),
    lambda: MaskShareMsg(1, 0, vector=u64([1, 2]), scalar=5),
    lambda: GlobalModelMsg(0, 0, np.array(["1.5"])),
    lambda: GlobalModelMsg(0, 0, np.array([None])),
    lambda: GlobalModelMsg(0, 0, np.array([1 + 2j])),
    lambda: GlobalModelMsg(0, 0, np.array([1.5], dtype=object)),
], ids=["update_2d", "vector_2d", "weights_2d", "vector_and_scalar", "str_weight",
        "none_weight", "complex_weight", "object_weights"])
def test_message_the_wire_cannot_carry_back_is_refused(build):
    with pytest.raises(ValueError):
        build()


# an array field takes only the array from_bytes gives back; nothing is
# converted, however exactly it would convert
@pytest.mark.parametrize("build", [
    lambda: MaskedUpdateMsg(1, 0, [1, 2]),
    lambda: MaskedUpdateMsg(1, 0, (1, 2)),
    lambda: MaskedUpdateMsg(1, 0, [np.uint64(1), 2]),
    lambda: MaskedUpdateMsg(1, 0, np.array([1, 2])),
    lambda: MaskedUpdateMsg(1, 0, np.array([1, 2], dtype=">u8")),
    lambda: OnlineListMsg(0, 0, (1, 2)),
    lambda: MaskShareMsg(1, 0, vector=[1, 2]),
    lambda: GlobalModelMsg(0, 0, [0.5]),
    lambda: GlobalModelMsg(0, 0, np.array([0.5], dtype=np.float32)),
    lambda: GlobalModelMsg(0, 0, np.array([1, 2])),
], ids=["update_list", "update_tuple", "update_list_of_uint64", "update_int64_array",
        "update_big_endian_array", "ids_tuple", "vector_list", "weights_list",
        "weights_float32_array", "weights_int64_array"])
def test_array_field_in_another_form_is_refused(build):
    with pytest.raises(ValueError, match="must be a 1-d"):
        build()


# a bool is an int to Python, and would go on the wire as 0 or 1
@pytest.mark.parametrize("build, name", [
    (lambda: MaskedUpdateMsg(True, 0, u64([1])), "sender"),
    (lambda: MaskedUpdateMsg(True, False, u64([1])), "sender"),
    (lambda: OnlineListMsg(0, False, u64([1])), "iteration"),
    (lambda: GlobalModelMsg(0, True, f64([0.5])), "iteration"),
    (lambda: SetupShareMsg(1, 0, True, SecretShare(2, 5)), "target_bs"),
    (lambda: SetupShareMsg(1, 0, 2, SecretShare(True, 5)), "share point x"),
    (lambda: SetupShareMsg(1, 0, 2, SecretShare(2, True)), "share y"),
    (lambda: MaskShareMsg(1, 0, scalar=True), "scalar share"),
], ids=["update_sender", "update_sender_and_round", "list_round", "model_round",
        "share_target", "share_x", "share_y", "scalar"])
def test_bool_in_an_int_field_is_refused(build, name):
    with pytest.raises(ValueError, match=f"{name} = (True|False)"):
        build()


def test_unknown_mask_share_mode_is_refused():
    raw = bytearray(MaskShareMsg(1, 0, scalar=3).to_bytes())
    assert raw[messages.HEADER_LEN] == MaskShareMode.COMPACT
    raw[messages.HEADER_LEN] = 7
    with pytest.raises(ValueError):
        from_bytes(bytes(raw))


@given(ids, st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                     min_size=1, max_size=40))
def test_global_model_round_trip(iteration, weights):
    msg = GlobalModelMsg(0, iteration, f64(weights))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_model_weight_is_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        GlobalModelMsg(0, 0, f64([0.5, bad]))
    raw = bytes([messages.GLOBAL_MODEL]) + struct.pack("<QQI2d", 0, 0, 2, 0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        from_bytes(raw)


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        from_bytes(b"\x00" * 5)
    with pytest.raises(ValueError):
        from_bytes(bytes([99]) + b"\x00" * 16)


def test_message_tags_are_fixed():
    assert messages.SETUP_SHARE == 1
    assert messages.MASKED_UPDATE == 2
    assert messages.ONLINE_LIST == 3
    assert messages.MASK_SHARE == 4
    assert messages.GLOBAL_MODEL == 5
    assert messages.HEADER_LEN == 17


# -- strict decoding -----------------------------------------------------------

messages_st = st.one_of(
    st.builds(lambda s, t, x, y: SetupShareMsg(s, t, x, SecretShare(x, y)),
              ids, ids, st.integers(min_value=1, max_value=100), elements),
    st.builds(lambda s, t, v: MaskedUpdateMsg(s, t, u64(v)), ids, ids,
              st.lists(elements, min_size=0, max_size=20)),
    st.builds(lambda t, case: OnlineListMsg(0, t, u64(case[1]), case[0]), ids, online_lists()),
    st.builds(lambda s, v: MaskShareMsg(s, 1, vector=u64(v)), ids,
              st.lists(elements, min_size=0, max_size=20)),
    st.builds(lambda s, k: MaskShareMsg(s, 1, scalar=k), ids, elements),
    st.builds(lambda t, w: GlobalModelMsg(0, t, f64(w)), ids,
              st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False),
                       max_size=20)),
)


@given(messages_st)
@example(MaskedUpdateMsg(1, 0, u64([])))
@example(OnlineListMsg(0, 0, u64([])))
@example(MaskShareMsg(1, 0, vector=u64([])))
@example(MaskShareMsg(1, 0, scalar=0))
@example(GlobalModelMsg(0, 0, f64([])))
def test_wire_length_is_the_packed_length(msg):
    # the simulator charges this arithmetic length and never packs to measure
    assert wire_length(msg) == len(msg.to_bytes())


@given(messages_st)
def test_every_message_round_trips_bit_for_bit(msg):
    raw = msg.to_bytes()
    back = from_bytes(raw)
    assert back == msg
    assert back.to_bytes() == raw


@given(messages_st, st.data())
def test_truncated_message_raises_value_error(msg, data):
    raw = msg.to_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(ValueError):
        from_bytes(raw[:cut])


@given(messages_st, st.binary(min_size=1, max_size=24))
def test_trailing_bytes_raise_value_error(msg, extra):
    with pytest.raises(ValueError):
        from_bytes(msg.to_bytes() + extra)


@given(st.integers(min_value=0, max_value=7), st.binary(max_size=80))
def test_arbitrary_bytes_decode_canonically_or_raise(msg_type, tail):
    # whatever decodes must be the unique encoding of its message
    raw = bytes([msg_type]) + tail
    try:
        msg = from_bytes(raw)
    except ValueError:
        return
    assert msg.to_bytes() == raw


@pytest.mark.parametrize("bad", [P, P + 1, 2**64 - 1])
def test_out_of_field_elements_rejected(bad):
    head = struct.pack("<QQ", 7, 0)
    cases = [
        bytes([messages.SETUP_SHARE]) + head + struct.pack("<QQQ", 2, 2, bad),
        bytes([messages.MASKED_UPDATE]) + head + struct.pack("<I3Q", 3, 1, bad, 2),
        bytes([messages.MASK_SHARE]) + head + bytes([0]) + struct.pack("<I2Q", 2, bad, 0),
        bytes([messages.MASK_SHARE]) + head + bytes([1]) + struct.pack("<Q", bad),
    ]
    for raw in cases:
        with pytest.raises(ValueError):
            from_bytes(raw)


def test_vectors_decode_as_arrays():
    msg = from_bytes(MaskedUpdateMsg(1, 0, u64([P - 1, 0, 5])).to_bytes())
    assert msg.payload.dtype == np.uint64
    assert msg.payload.tolist() == [P - 1, 0, 5]
    model = from_bytes(GlobalModelMsg(0, 0, f64([0.5, -0.0])).to_bytes())
    assert model.weights.dtype == np.float64
    assert model.weights.tobytes() == struct.pack("<2d", 0.5, -0.0)
    online = from_bytes(OnlineListMsg(0, 0, u64([1, 5, 4099])).to_bytes())
    assert online.ue_ids.dtype == np.uint64
    assert online.ue_ids.tolist() == [1, 5, 4099]


def test_array_fields_compare_exactly():
    a = MaskedUpdateMsg(1, 0, u64([1, 2, 3]))
    assert a == MaskedUpdateMsg(1, 0, u64([1, 2, 3]))
    assert a != MaskedUpdateMsg(1, 0, u64([1, 2, 4]))
    assert a != MaskedUpdateMsg(1, 0, u64([1, 2]))
    assert a != MaskedUpdateMsg(2, 0, u64([1, 2, 3]))
    assert MaskShareMsg(1, 0, vector=u64([5])) != MaskShareMsg(1, 0, scalar=5)


# -- masked-update blocks ----------------------------------------------------
# The per-frame codec is the reference: a block is the join of its rows'
# frames, and its decoder refuses exactly what from_bytes refuses.

words = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def update_blocks(draw, min_frames=0):
    """(messages, block) for m updates of one dimension d, m and d >= 0."""
    m = draw(st.integers(min_value=min_frames, max_value=6), label="m")
    d = draw(st.integers(min_value=0, max_value=5), label="d")
    senders = draw(st.lists(words, min_size=m, max_size=m), label="senders")
    rounds = draw(st.lists(words, min_size=m, max_size=m), label="rounds")
    rows = draw(st.lists(st.lists(elements, min_size=d, max_size=d), min_size=m, max_size=m),
                label="payloads")
    block = MaskedUpdateBlock(u64(senders), u64(rounds), u64(rows).reshape(m, d))
    return [MaskedUpdateMsg(s, t, u64(row)) for s, t, row in zip(senders, rounds, rows)], block


@given(update_blocks())
def test_block_codec_matches_the_frame_codec(case):
    msgs, block = case
    raw = block.to_bytes()
    assert raw == b"".join(msg.to_bytes() for msg in msgs)
    back = updates_from_bytes(raw, len(msgs))
    assert back == msgs and block == msgs
    assert back.senders.tolist() == [msg.sender for msg in msgs]
    assert back.iterations.tolist() == [msg.iteration for msg in msgs]
    assert back.payloads.tolist() == [msg.payload.tolist() for msg in msgs]
    assert not msgs or not back.payloads.flags.writeable  # views of the received bytes


def frame_refused(piece: bytes, cls=MaskedUpdateMsg) -> bool:
    """What a block decoder of ``cls`` frames must refuse of one frame: what
    from_bytes refuses, or a frame of another message type."""
    try:
        return not isinstance(from_bytes(piece), cls)
    except ValueError:
        return True


CORRUPTIONS = ["type", "count", "element", "truncate", "trail"]


@settings(max_examples=300)
@given(update_blocks(min_frames=1), st.sampled_from(CORRUPTIONS), st.data())
def test_block_decoder_refuses_exactly_what_the_frame_decoder_refuses(case, kind, data):
    msgs, block = case
    m, d = block.payloads.shape
    size = 21 + 8 * d
    raw = bytearray(block.to_bytes())
    r = data.draw(st.integers(min_value=0, max_value=m - 1), label="frame")
    if kind == "type":
        raw[r * size] = data.draw(st.just(messages.MASKED_UPDATE) | st.integers(0, 255),
                                  label="type")
    elif kind == "count":
        count = data.draw(st.just(d) | st.integers(min_value=0, max_value=2**32 - 1),
                          label="count")
        raw[r * size + 17:r * size + 21] = struct.pack("<I", count)
    elif kind == "element" and d:
        c = data.draw(st.integers(min_value=0, max_value=d - 1), label="element")
        value = data.draw(st.integers(min_value=P, max_value=2**64 - 1) | words, label="value")
        raw[r * size + 21 + 8 * c:r * size + 29 + 8 * c] = struct.pack("<Q", value)
    elif kind == "truncate":
        cut = data.draw(st.just(len(raw)) | st.integers(min_value=0, max_value=len(raw)),
                        label="cut")
        raw = raw[:cut]
    elif kind == "trail":
        raw += data.draw(st.just(b"") | st.binary(max_size=2 * size + 8), label="extra")
    raw = bytes(raw)  # the corruption may leave the block as it was
    # the frames as sent: the last one takes trailing bytes, and one cut off
    # entirely is empty
    pieces = [raw[i * size:(i + 1) * size] for i in range(m - 1)] + [raw[(m - 1) * size:]]
    # anything but ValueError (struct.error, IndexError) fails the test
    try:
        back = updates_from_bytes(raw, m)
    except ValueError:
        event(f"{kind}: refused")
        assert any(frame_refused(piece) for piece in pieces)
    else:
        event(f"{kind}: accepted")
        assert back == [from_bytes(piece) for piece in pieces]


def test_a_block_is_read_with_its_frame_count():
    # a join carries no frame boundaries: nine empty updates whose first
    # count is rewritten to 21 read as one valid frame of 21 elements
    msgs = [MaskedUpdateMsg(i, 0, u64([])) for i in range(1, 10)]
    raw = bytearray(MaskedUpdateBlock.of(msgs).to_bytes())
    raw[17:21] = struct.pack("<I", 21)
    assert isinstance(from_bytes(bytes(raw)), MaskedUpdateMsg)
    with pytest.raises(ValueError, match="element count"):
        updates_from_bytes(bytes(raw), 9)
    with pytest.raises(ValueError, match="trailing"):
        updates_from_bytes(b"\x02", 0)
    assert updates_from_bytes(b"", 0) == []


def test_block_is_a_sequence_of_messages():
    msgs = [MaskedUpdateMsg(4, 7, u64([1, 2])), MaskedUpdateMsg(9, 7, u64([3, P - 1]))]
    block = MaskedUpdateBlock.of(msgs)
    assert len(block) == 2 and block[1] == msgs[1] and block[-1] == msgs[1]
    assert list(block) == msgs and block == msgs and msgs == block
    assert block != msgs[:1] and block != [msgs[1], msgs[0]]
    assert MaskedUpdateBlock.of([]) == [] and len(MaskedUpdateBlock.of([])) == 0
    with pytest.raises(IndexError):
        block[2]


@pytest.mark.parametrize("fields", [
    ([1, 2], u64([0, 0]), u64([[1], [2]])),
    (u64([1, 2]), np.array([0, 0]), u64([[1], [2]])),
    (u64([1, 2]), u64([0, 0]), u64([1, 2])),
    (u64([1, 2]), u64([0]), u64([[1], [2]])),
    (u64([1, 2]), u64([0, 0]), u64([[1], [2], [3]])),
    (u64([1, 2]), u64([0, 0]), u64([[1], [P]])),
], ids=["senders_list", "rounds_int64", "payloads_1d", "rounds_short", "payloads_long",
        "element_p"])
def test_block_the_wire_cannot_carry_back_is_refused(fields):
    with pytest.raises(ValueError):
        MaskedUpdateBlock(*fields)
    with pytest.raises(ValueError):
        MaskedUpdateBlock.of([MaskedUpdateMsg(1, 0, u64([1])), MaskedUpdateMsg(2, 0, u64([1, 2]))])


# -- set-up share blocks -------------------------------------------------------
# The same contract for a station's set-up shares: every frame is 41 bytes.

SETUP_FRAME = 41
points = st.integers(min_value=1, max_value=2**64 - 1)


@st.composite
def setup_blocks(draw, min_frames=0):
    """(messages, block) for m set-up shares, m >= 0."""
    m = draw(st.integers(min_value=min_frames, max_value=6), label="m")
    senders, rounds, targets = (draw(st.lists(words, min_size=m, max_size=m), label=name)
                                for name in ("senders", "rounds", "targets"))
    xs = draw(st.lists(points, min_size=m, max_size=m), label="xs")
    ys = draw(st.lists(elements, min_size=m, max_size=m), label="ys")
    block = SetupShareBlock(u64(senders), u64(rounds), u64(targets), u64(xs), u64(ys))
    msgs = [SetupShareMsg(s, t, j, SecretShare(x, y))
            for s, t, j, x, y in zip(senders, rounds, targets, xs, ys)]
    return msgs, block


@given(setup_blocks())
def test_setup_block_codec_matches_the_frame_codec(case):
    msgs, block = case
    raw = block.to_bytes()
    assert raw == b"".join(msg.to_bytes() for msg in msgs)
    assert len(raw) == SETUP_FRAME * len(msgs) == sum(map(wire_length, msgs))
    back = setup_shares_from_bytes(raw, len(msgs))
    assert back == msgs and block == msgs and SetupShareBlock.of(msgs) == msgs
    assert list(back) == msgs
    for name in ("senders", "iterations", "targets", "xs", "ys"):
        # views of the received bytes
        assert not msgs or not getattr(back, name).flags.writeable


SETUP_CORRUPTIONS = ["type", "x", "y", "truncate", "trail"]


@settings(max_examples=300)
@given(setup_blocks(min_frames=1), st.sampled_from(SETUP_CORRUPTIONS), st.data())
def test_setup_block_decoder_refuses_exactly_what_the_frame_decoder_refuses(case, kind, data):
    msgs, block = case
    m = len(msgs)
    raw = bytearray(block.to_bytes())
    r = data.draw(st.integers(min_value=0, max_value=m - 1), label="frame")
    at = r * SETUP_FRAME
    if kind == "type":
        raw[at] = data.draw(st.just(messages.SETUP_SHARE) | st.integers(0, 255), label="type")
    elif kind == "x":
        x = data.draw(st.just(0) | words, label="x")
        raw[at + 25:at + 33] = struct.pack("<Q", x)
    elif kind == "y":
        y = data.draw(st.integers(min_value=P, max_value=2**64 - 1) | words, label="y")
        raw[at + 33:at + 41] = struct.pack("<Q", y)
    elif kind == "truncate":
        cut = data.draw(st.just(len(raw)) | st.integers(min_value=0, max_value=len(raw)),
                        label="cut")
        raw = raw[:cut]
    elif kind == "trail":
        raw += data.draw(st.just(b"") | st.binary(max_size=2 * SETUP_FRAME + 8), label="extra")
    raw = bytes(raw)  # the corruption may leave the block as it was
    pieces = ([raw[i * SETUP_FRAME:(i + 1) * SETUP_FRAME] for i in range(m - 1)]
              + [raw[(m - 1) * SETUP_FRAME:]])
    # anything but ValueError (struct.error, IndexError) fails the test
    try:
        back = setup_shares_from_bytes(raw, m)
    except ValueError:
        event(f"{kind}: refused")
        assert any(frame_refused(piece, SetupShareMsg) for piece in pieces)
    else:
        event(f"{kind}: accepted")
        assert back == [from_bytes(piece) for piece in pieces]


def test_a_setup_block_is_read_with_its_frame_count():
    msgs = [SetupShareMsg(i, 0, 2, SecretShare(2, i)) for i in range(1, 4)]
    raw = SetupShareBlock.of(msgs).to_bytes()
    assert setup_shares_from_bytes(raw, 3) == msgs
    for frames in (2, 4, 0, -1):
        with pytest.raises(ValueError, match="set-up share frames"):
            setup_shares_from_bytes(raw, frames)
    assert setup_shares_from_bytes(b"", 0) == [] and len(SetupShareBlock.of([])) == 0


@pytest.mark.parametrize("fields", [
    ([1], u64([0]), u64([1]), u64([1]), u64([5])),
    (u64([1]), u64([0]), u64([1]), np.array([1]), u64([5])),
    (u64([1]), u64([0]), u64([[1]]), u64([1]), u64([5])),
    (u64([1, 2]), u64([0, 0]), u64([1, 1]), u64([1]), u64([5, 6])),
    (u64([1]), u64([0]), u64([1]), u64([0]), u64([5])),
    (u64([1]), u64([0]), u64([1]), u64([1]), u64([P])),
], ids=["senders_list", "xs_int64", "targets_2d", "xs_short", "x_zero", "y_p"])
def test_setup_block_the_wire_cannot_carry_back_is_refused(fields):
    with pytest.raises(ValueError):
        SetupShareBlock(*fields)


# -- a struct reference for the two block-framed types -------------------------
# Masked updates and set-up shares have one codec, their block's, so a frame
# built field by field with struct is the reference a wrong field order in
# the block's structured dtype would fail.


def update_frame_bytes(msg: MaskedUpdateMsg) -> bytes:
    return (bytes([messages.MASKED_UPDATE])
            + struct.pack("<QQI", msg.sender, msg.iteration, len(msg.payload))
            + msg.payload.astype("<u8").tobytes())


def setup_frame_bytes(msg: SetupShareMsg) -> bytes:
    return bytes([messages.SETUP_SHARE]) + struct.pack(
        "<QQQQQ", msg.sender, msg.iteration, msg.target_bs, msg.share.x, msg.share.y)


@given(update_blocks())
def test_update_frames_match_a_struct_reference(case):
    msgs, block = case
    raw = b"".join(map(update_frame_bytes, msgs))
    assert block.to_bytes() == raw
    assert updates_from_bytes(raw, len(msgs)) == msgs
    for msg in msgs:
        assert msg.to_bytes() == update_frame_bytes(msg)
        assert from_bytes(update_frame_bytes(msg)) == msg


@given(setup_blocks())
def test_setup_frames_match_a_struct_reference(case):
    msgs, block = case
    raw = b"".join(map(setup_frame_bytes, msgs))
    assert block.to_bytes() == raw
    assert setup_shares_from_bytes(raw, len(msgs)) == msgs
    for msg in msgs:
        assert msg.to_bytes() == setup_frame_bytes(msg)
        assert from_bytes(setup_frame_bytes(msg)) == msg
