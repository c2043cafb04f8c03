"""Wire-format tests: bit-exact round trips, exact byte lengths, and strict
decoding of malformed, truncated and over-long input."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from secagg5g import messages
from secagg5g.field import P
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMsg,
    MaskShareMode,
    OnlineListMsg,
    SetupShareMsg,
    from_bytes,
    payload_length,
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


@given(ids, st.lists(ids, min_size=0, max_size=20, unique=True))
def test_online_list_round_trip(iteration, ue_ids):
    msg = OnlineListMsg(0, iteration, u64(sorted(ue_ids)))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(ue_ids)


def online_list_bytes(ue_ids):
    return bytes([messages.ONLINE_LIST]) + struct.pack(
        f"<QQI{len(ue_ids)}Q", 0, 0, len(ue_ids), *ue_ids)


@pytest.mark.parametrize("forged", [(1, 1, 2, 3), (2, 1, 3)])
def test_repeated_or_unsorted_online_list_rejected(forged):
    with pytest.raises(ValueError, match="strictly increasing"):
        from_bytes(online_list_bytes(forged))
    honest = sorted(set(forged))
    assert OnlineListMsg(0, 0, u64(honest)).to_bytes() == online_list_bytes(honest)
    assert from_bytes(online_list_bytes(honest)) == OnlineListMsg(0, 0, u64(honest))


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
    st.builds(lambda t, v: OnlineListMsg(0, t, u64(sorted(v))), ids,
              st.lists(ids, max_size=10, unique=True)),
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
    online = from_bytes(OnlineListMsg(0, 0, u64([1, 5, 2**64 - 1])).to_bytes())
    assert online.ue_ids.dtype == np.uint64
    assert online.ue_ids.tolist() == [1, 5, 2**64 - 1]


def test_array_fields_compare_exactly():
    a = MaskedUpdateMsg(1, 0, u64([1, 2, 3]))
    assert a == MaskedUpdateMsg(1, 0, u64([1, 2, 3]))
    assert a != MaskedUpdateMsg(1, 0, u64([1, 2, 4]))
    assert a != MaskedUpdateMsg(1, 0, u64([1, 2]))
    assert a != MaskedUpdateMsg(2, 0, u64([1, 2, 3]))
    assert MaskShareMsg(1, 0, vector=u64([5])) != MaskShareMsg(1, 0, scalar=5)
