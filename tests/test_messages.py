"""Wire-format tests: bit-exact round trips, exact byte lengths, and strict
decoding of malformed, truncated and over-long input."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@given(ids, ids, st.integers(min_value=1, max_value=100), elements)
def test_setup_share_round_trip(sender, iteration, x, y):
    msg = SetupShareMsg(sender, iteration, target_bs=x, share=SecretShare(x, y))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 24


@given(ids, ids, st.lists(elements, min_size=1, max_size=50))
def test_masked_update_round_trip(sender, iteration, payload):
    msg = MaskedUpdateMsg(sender, iteration, tuple(payload))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(payload)


def test_masked_update_d1000_length():
    msg = MaskedUpdateMsg(1, 0, tuple(range(1000)))
    assert wire_length(msg) == 17 + 4 + 8000


@given(ids, st.lists(ids, min_size=0, max_size=20, unique=True))
def test_online_list_round_trip(iteration, ue_ids):
    msg = OnlineListMsg(0, iteration, tuple(sorted(ue_ids)))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(ue_ids)


def online_list_bytes(ue_ids):
    return bytes([messages.ONLINE_LIST]) + struct.pack(
        f"<QQI{len(ue_ids)}Q", 0, 0, len(ue_ids), *ue_ids)


@pytest.mark.parametrize("forged", [(1, 1, 2, 3), (2, 1, 3)])
def test_repeated_or_unsorted_online_list_rejected(forged):
    with pytest.raises(ValueError, match="strictly increasing"):
        from_bytes(online_list_bytes(forged))
    honest = tuple(sorted(set(forged)))
    assert OnlineListMsg(0, 0, honest).to_bytes() == online_list_bytes(honest)
    assert from_bytes(online_list_bytes(honest)) == OnlineListMsg(0, 0, honest)


@given(ids, st.lists(elements, min_size=1, max_size=30))
def test_mask_share_evaluated_round_trip(sender, vector):
    msg = MaskShareMsg(sender, 3, MaskShareMode.EVALUATED, vector=tuple(vector))
    assert from_bytes(msg.to_bytes()) == msg
    assert payload_length(msg) == 1 + 4 + 8 * len(vector)


@given(ids, elements)
def test_mask_share_compact_round_trip(sender, scalar):
    msg = MaskShareMsg(sender, 3, MaskShareMode.COMPACT, scalar=scalar)
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 1 + 8
    assert payload_length(msg) == 9


def test_mask_share_payload_required():
    with pytest.raises(ValueError):
        MaskShareMsg(1, 0, MaskShareMode.EVALUATED)
    with pytest.raises(ValueError):
        MaskShareMsg(1, 0, MaskShareMode.COMPACT)


# each would build and pack bytes that do not decode back to it: the wire has
# one count per array and one payload per mode
@pytest.mark.parametrize("build", [
    lambda: MaskedUpdateMsg(1, 0, np.zeros((2, 2), dtype=np.uint64)),
    lambda: MaskShareMsg(1, 0, MaskShareMode.EVALUATED, vector=np.zeros((2, 2), np.uint64)),
    lambda: GlobalModelMsg(0, 0, np.zeros((2, 2))),
    lambda: MaskShareMsg(1, 0, MaskShareMode.EVALUATED, vector=(1, 2), scalar=5),
    lambda: MaskShareMsg(1, 0, MaskShareMode.COMPACT, vector=(1, 2), scalar=5),
], ids=["update_2d", "vector_2d", "weights_2d", "evaluated_with_scalar", "compact_with_vector"])
def test_message_the_wire_cannot_carry_back_is_refused(build):
    with pytest.raises(ValueError):
        build()


@given(ids, st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                     min_size=1, max_size=40))
def test_global_model_round_trip(iteration, weights):
    msg = GlobalModelMsg(0, iteration, tuple(weights))
    assert from_bytes(msg.to_bytes()) == msg
    assert wire_length(msg) == 17 + 4 + 8 * len(weights)


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
    st.builds(lambda s, t, v: MaskedUpdateMsg(s, t, v), ids, ids,
              st.lists(elements, min_size=0, max_size=20)),
    st.builds(lambda t, v: OnlineListMsg(0, t, tuple(sorted(v))), ids,
              st.lists(ids, max_size=10, unique=True)),
    st.builds(lambda s, v: MaskShareMsg(s, 1, MaskShareMode.EVALUATED, vector=v), ids,
              st.lists(elements, min_size=0, max_size=20)),
    st.builds(lambda s, k: MaskShareMsg(s, 1, MaskShareMode.COMPACT, scalar=k), ids, elements),
    st.builds(lambda t, w: GlobalModelMsg(0, t, w), ids,
              st.lists(st.floats(width=64, allow_nan=False), max_size=20)),
)


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
    msg = from_bytes(MaskedUpdateMsg(1, 0, (P - 1, 0, 5)).to_bytes())
    assert msg.payload.dtype == np.uint64
    assert msg.payload.tolist() == [P - 1, 0, 5]
    model = from_bytes(GlobalModelMsg(0, 0, (0.5, -0.0)).to_bytes())
    assert model.weights.dtype == np.float64
    assert model.weights.tobytes() == struct.pack("<2d", 0.5, -0.0)


def test_array_fields_compare_exactly():
    a = MaskedUpdateMsg(1, 0, (1, 2, 3))
    assert a == MaskedUpdateMsg(1, 0, np.array([1, 2, 3], dtype=np.uint64))
    assert a != MaskedUpdateMsg(1, 0, (1, 2, 4))
    assert a != MaskedUpdateMsg(1, 0, (1, 2))
    assert a != MaskedUpdateMsg(2, 0, (1, 2, 3))
    evaluated = MaskShareMsg(1, 0, MaskShareMode.EVALUATED, vector=(5,))
    assert evaluated != MaskShareMsg(1, 0, MaskShareMode.COMPACT, scalar=5)
