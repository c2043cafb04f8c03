"""Field arithmetic and fixed-point codec tests.

The oracle throughout is plain big-integer arithmetic with ``% P`` — Python
ints never overflow, so an independent computation path is one expression.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import EDGE_ELEMENTS
from secagg5g import field
from secagg5g.field import P, FixedPointCodec, decode_sum, encode_update, vec_add, vec_sub

elements = st.integers(min_value=0, max_value=P - 1)
# edge values drawn often enough to meet each other in one vector
kernel_elements = st.sampled_from(EDGE_ELEMENTS) | elements


def test_modulus_value():
    assert P == 2**61 - 1
    assert P == 2305843009213693951


def test_vec_add_identity():
    assert vec_add([1, 2], [0, 0]).tolist() == [1, 2]


def test_vec_add_wraparound():
    assert vec_add([P - 1, 3], [2, 4]).tolist() == [1, 7]


def test_vec_add_matches_bigint_oracle():
    rng = random.Random(101)
    for _ in range(1000):
        a = [rng.randrange(P) for _ in range(5)]
        b = [rng.randrange(P) for _ in range(5)]
        assert vec_add(a, b).tolist() == [(x + y) % P for x, y in zip(a, b)]
        assert vec_sub(a, b).tolist() == [(x - y) % P for x, y in zip(a, b)]


def test_vec_sub_self_is_zero():
    v = [5, P - 2, 123456789]
    assert vec_sub(v, v).tolist() == [0, 0, 0]


def test_vec_sub_wraparound():
    assert vec_sub([0], [1]) == [P - 1]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        vec_add([1], [1, 2])
    with pytest.raises(ValueError):
        vec_sub([1, 2, 3], [1, 2])


@given(st.lists(elements, min_size=1, max_size=8), st.data())
def test_add_then_sub_round_trip(a, data):
    b = data.draw(st.lists(elements, min_size=len(a), max_size=len(a)))
    assert vec_sub(vec_add(a, b), b).tolist() == a


def test_scalar_ops_match_oracle():
    rng = random.Random(77)
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert field.add(a, b) == (a + b) % P
        assert field.sub(a, b) == (a - b) % P
        assert field.mul(a, b) == (a * b) % P


def test_scalar_group_laws_bulk():
    # associativity / identity / inverse on a large random sample
    rng = random.Random(2024)
    for _ in range(10_000):
        a, b, c = rng.randrange(P), rng.randrange(P), rng.randrange(P)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.add(a, 0) == a
        assert field.sub(a, a) == 0
        assert field.mul(a, 1) == a


def test_inverse():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(1, P)
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_rand_element_in_range():
    rng = random.Random(9)
    samples = [field.rand_element(rng) for _ in range(1000)]
    assert all(0 <= s < P for s in samples)
    assert len(set(samples)) > 990  # collisions in Z_p would be astronomical


# -- fixed-point codec ------------------------------------------------------


def test_encode_zero_vector():
    codec = FixedPointCodec()
    assert encode_update([0.0] * 4, codec).tolist() == [0, 0, 0, 0]


def test_encode_definitional_values():
    codec = FixedPointCodec(frac_bits=8)
    assert encode_update([1.0], codec) == [256]
    assert encode_update([-0.5], codec) == [P - 128]


def test_encode_bound_enforced():
    codec = FixedPointCodec(magnitude_bound=1.0)
    with pytest.raises(ValueError):
        encode_update([1.25], codec)


def test_decode_zero_vector():
    codec = FixedPointCodec()
    assert decode_sum([0, 0], codec, 1).tolist() == [0.0, 0.0]


def test_decode_rejects_too_many_summands():
    codec = FixedPointCodec(max_summands=8)
    with pytest.raises(ValueError):
        decode_sum([0], codec, 9)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16))
def test_encode_decode_round_trip(w):
    codec = FixedPointCodec(frac_bits=16)
    decoded = decode_sum(encode_update(w, codec), codec, 1)
    assert max(abs(d - x) for d, x in zip(decoded, w)) <= 2.0**-17


def test_sum_of_eight_encodings_decodes_to_real_sum():
    codec = FixedPointCodec(frac_bits=16)
    rng = random.Random(31)
    vectors = [[rng.uniform(-1, 1) for _ in range(20)] for _ in range(8)]
    total = [0] * 20
    for w in vectors:
        total = vec_add(total, encode_update(w, codec))
    decoded = decode_sum(total, codec, 8)
    oracle = [sum(col) for col in zip(*vectors)]  # plain float sums
    assert max(abs(d - o) for d, o in zip(decoded, oracle)) <= 8 * 2.0**-17


def test_headroom_property_at_limit():
    # max_summands vectors at the magnitude bound still decode unambiguously
    codec = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=64)
    total = [0]
    for _ in range(64):
        total = vec_add(total, encode_update([-1.0], codec))
    assert decode_sum(total, codec, 64) == [-64.0]


def test_codec_headroom_invariant_enforced():
    with pytest.raises(ValueError):
        FixedPointCodec(frac_bits=40, magnitude_bound=1024.0, max_summands=10_000)
    with pytest.raises(ValueError):
        FixedPointCodec(frac_bits=-1)
    with pytest.raises(ValueError):
        FixedPointCodec(magnitude_bound=0.0)
    with pytest.raises(ValueError):
        FixedPointCodec(max_summands=0)


# -- uint64 kernels against the plain-int reference ----------------------------


def u64(values):
    return np.array(values, dtype=np.uint64)


@settings(max_examples=300)
@given(st.lists(st.tuples(kernel_elements, kernel_elements), min_size=1, max_size=40))
def test_vector_kernels_match_plain_ints(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    assert field.mulmod(u64(a), u64(b)).tolist() == [x * y % P for x, y in pairs]
    assert vec_add(u64(a), u64(b)).tolist() == [(x + y) % P for x, y in pairs]
    assert vec_sub(u64(a), u64(b)).tolist() == [(x - y) % P for x, y in pairs]


@given(kernel_elements, st.lists(kernel_elements, min_size=1, max_size=20))
def test_mulmod_broadcasts_a_scalar(k, v):
    assert field.mulmod(k, u64(v)).tolist() == [k * x % P for x in v]


def test_mulmod_every_edge_pair():
    grid = [(x, y) for x in EDGE_ELEMENTS for y in EDGE_ELEMENTS]
    a, b = u64([x for x, _ in grid]), u64([y for _, y in grid])
    assert field.mulmod(a, b).tolist() == [x * y % P for x, y in grid]


@settings(max_examples=200)
@given(st.data())
def test_vec_sum_matches_plain_ints(data):
    m = data.draw(st.integers(min_value=1, max_value=12))
    d = data.draw(st.integers(min_value=1, max_value=16))
    rows = data.draw(st.lists(st.lists(kernel_elements, min_size=d, max_size=d),
                              min_size=m, max_size=m))
    assert field.vec_sum(u64(rows)).tolist() == [sum(col) % P for col in zip(*rows)]


def test_vec_sum_of_many_maximal_rows():
    # 4096 rows of p - 1 would overflow a plain uint64 column sum 2^12 times over
    rows = np.full((4096, 3), P - 1, dtype=np.uint64)
    assert field.vec_sum(rows).tolist() == [4096 * (P - 1) % P] * 3


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
def test_fold_reduces_any_uint64(values):
    assert field.fold(u64(values)).tolist() == [x % P for x in values]


def test_require_canonical():
    field.require_canonical(u64(EDGE_ELEMENTS))
    field.require_canonical(u64([]))
    for bad in (P, P + 1, 2**64 - 1):
        with pytest.raises(ValueError):
            field.require_canonical(u64([0, bad, 1]))


def plain_encode(x: float, frac_bits: int) -> int:
    """The reference codec: Python's round (half to even) in exact ints."""
    return round(x * (1 << frac_bits)) % P


halfway = st.integers(min_value=0, max_value=(1 << 16) - 1).map(lambda k: (k + 0.5) / 2**16)


@settings(max_examples=300)
@given(st.lists(halfway | halfway.map(lambda x: -x)
                | st.floats(min_value=-1.0, max_value=1.0)
                | st.sampled_from([1.0, -1.0, 0.0, -0.0, 2.0**-17, -(2.0**-17)]),
                min_size=1, max_size=32))
def test_encode_matches_plain_round(w):
    codec = FixedPointCodec(frac_bits=16, magnitude_bound=1.0)
    assert encode_update(w, codec).tolist() == [plain_encode(x, 16) for x in w]


def test_encode_exact_ties_round_half_to_even():
    codec = FixedPointCodec(frac_bits=16)
    w = [0.5 / 2**16, 1.5 / 2**16, 2.5 / 2**16, -0.5 / 2**16, -1.5 / 2**16, -2.5 / 2**16]
    assert encode_update(w, codec).tolist() == [0, 2, 2, 0, P - 2, P - 2]


def test_encode_rejects_nan_and_infinities():
    codec = FixedPointCodec()
    for bad in (math.nan, math.inf, -math.inf, -1.0000001):
        with pytest.raises(ValueError):
            encode_update([0.0, bad], codec)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16),
       st.lists(kernel_elements, min_size=16, max_size=16))
def test_encode_masked_is_encode_plus_mask(w, mask):
    codec = FixedPointCodec(frac_bits=16)
    mask = mask[: len(w)]
    got = field.encode_masked(w, codec, u64(mask)).tolist()
    assert got == [(plain_encode(x, 16) + m) % P for x, m in zip(w, mask)]


def test_encode_masked_dimension_mismatch():
    with pytest.raises(ValueError):
        field.encode_masked([0.0], FixedPointCodec(), u64([1, 2]))


def plain_decode(x: int, frac_bits: int) -> float:
    return (x - P if x > P // 2 else x) / (1 << frac_bits)


@given(st.lists(st.integers(min_value=P // 2 - 3, max_value=P // 2 + 3)
                | st.sampled_from(EDGE_ELEMENTS) | elements, min_size=1, max_size=16),
       st.sampled_from([0, 1, 16, 30]))
def test_decode_matches_plain_ints_around_half_p(v, frac_bits):
    codec = FixedPointCodec(frac_bits=frac_bits, magnitude_bound=1.0, max_summands=1)
    got = decode_sum(u64(v), codec, 1)
    assert got.dtype == np.float64
    assert got.tolist() == [plain_decode(x, frac_bits) for x in v]
