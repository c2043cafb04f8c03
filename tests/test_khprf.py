"""Mask-generation tests: determinism, the cross-implementation hash fixture,
exact key-homomorphism, and share-compatibility."""

import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from oracles import EDGE_ELEMENTS, hash_to_field
from secagg5g import khprf
from secagg5g.field import P
from secagg5g.shamir import AccessStructure, lagrange_coeffs_at_zero, split

keys = st.integers(min_value=0, max_value=P - 1)
edge_keys = st.sampled_from(EDGE_ELEMENTS) | keys

# SHAKE-256 over the 45-byte input b"STANDFIRM-H/v2/SHAKE256-CTR64" + two LE64
# zeros (t = 0, block 0), i.e. hex 5354414e444649524d2d482f76322f5348414b45
# 3235362d435452363400000000000000000000000000000000, with 16 output bytes
# (`openssl dgst -shake256 -xoflen 16`) gives 098e9c2b3ddb194c099ccf8d007c0be9;
# read little-endian and reduced mod p:
GOLDEN_H_0_0 = 1474290343466331789


def test_hash_to_field_deterministic():
    a = hash_to_field(khprf.DOMAIN_TAG, 3, 17)
    b = hash_to_field(khprf.DOMAIN_TAG, 3, 17)
    assert a == b


def test_hash_to_field_golden_vector():
    assert hash_to_field(khprf.DOMAIN_TAG, 0, 0) == GOLDEN_H_0_0


def test_hash_to_field_separates_inputs():
    vals = {
        hash_to_field(khprf.DOMAIN_TAG, 0, 0),
        hash_to_field(khprf.DOMAIN_TAG, 0, 1),
        hash_to_field(khprf.DOMAIN_TAG, 1, 0),
        hash_to_field(b"other-tag", 0, 0),
    }
    assert len(vals) == 4


def test_hash_to_field_uniformity():
    # chi-square over 16 equal-width buckets, 10^4 consecutive indices
    samples = [hash_to_field(khprf.DOMAIN_TAG, 7, i) for i in range(10_000)]
    counts = [0] * 16
    for s in samples:
        counts[s * 16 // P] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_evaluate_zero_key_is_zero_mask():
    assert khprf.evaluate(0, 4, 6).tolist() == [0] * 6


def test_evaluate_identity_key_returns_coefficients():
    d = 5
    expected = [hash_to_field(khprf.DOMAIN_TAG, 9, i) for i in range(d)]
    assert khprf.evaluate(1, 9, d).tolist() == expected


def test_evaluate_rejects_empty_dimension():
    with pytest.raises(ValueError):
        khprf.evaluate(1, 0, 0)


@settings(max_examples=100)
@given(st.lists(edge_keys, max_size=9), st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=70))
def test_evaluating_a_column_of_keys_equals_each_key_alone(ks, t, d):
    masks = khprf.evaluate(np.array(ks, dtype=np.uint64), t, d)
    assert masks.shape == (len(ks), d) and masks.dtype == np.uint64
    assert masks.tolist() == [khprf.evaluate(key, t, d).tolist() for key in ks]


@pytest.mark.parametrize("bad", [
    np.array([P], dtype=np.uint64), np.array([[1]], dtype=np.uint64),
    np.array([1], dtype=np.int64), np.array([1.0])])
def test_a_column_of_keys_must_be_canonical_words(bad):
    with pytest.raises(ValueError):
        khprf.evaluate(bad, 0, 4)


@settings(max_examples=200)
@given(keys, keys, st.integers(min_value=0, max_value=1000))
def test_key_homomorphism(k1, k2, t):
    lhs = khprf.evaluate((k1 + k2) % P, t, 8).tolist()
    rhs = [(a + b) % P for a, b in zip(khprf.evaluate(k1, t, 8).tolist(),
                                       khprf.evaluate(k2, t, 8).tolist())]
    assert lhs == rhs


def test_homomorphism_extends_to_eight_key_sums():
    rng = random.Random(40)
    for count in range(2, 9):
        ks = [rng.randrange(P) for _ in range(count)]
        t = rng.randrange(100)
        summed = khprf.evaluate(sum(ks) % P, t, 16).tolist()
        acc = [0] * 16
        for k in ks:
            acc = [(a + b) % P for a, b in zip(acc, khprf.evaluate(k, t, 16).tolist())]
        assert summed == acc


def test_lagrange_compatibility_all_subsets():
    # sum(lambda_j * F(share_j, t)) == F(key, t) for every threshold subset
    acc = AccessStructure(3, 4)
    rng = random.Random(12)
    for _ in range(10):
        key = rng.randrange(P)
        t = rng.randrange(50)
        shares = split(key, acc, rng)
        reference = khprf.evaluate(key, t, 10).tolist()
        for subset in combinations(shares, 3):
            lams = lagrange_coeffs_at_zero([s.x for s in subset])
            acc_vec = [0] * 10
            for lam, s in zip(lams, subset):
                vec = khprf.evaluate(s.y, t, 10).tolist()
                acc_vec = [(a + lam * v) % P for a, v in zip(acc_vec, vec)]
            assert acc_vec == reference


def test_precompute_single_iteration():
    key = 321
    assert khprf.precompute_masks(key, 1, 7).tolist() == [khprf.evaluate(key, 0, 7).tolist()]


def test_precompute_matches_on_the_fly():
    rng = random.Random(61)
    key = rng.randrange(P)
    table = khprf.precompute_masks(key, 20, 9)
    for t in range(20):
        assert table[t].tolist() == khprf.evaluate(key, t, 9).tolist()


def test_precompute_rejects_zero_iterations():
    with pytest.raises(ValueError):
        khprf.precompute_masks(1, 0, 4)


def clear_coefficient_caches():
    khprf.coefficient_vector.cache_clear()


def test_precompute_cost_scales_roughly_linearly():
    # sanity only: 8x the iterations should not cost orders of magnitude more
    clear_coefficient_caches()
    start = time.perf_counter()
    khprf.precompute_masks(123, 5, 64)
    small = time.perf_counter() - start
    clear_coefficient_caches()
    start = time.perf_counter()
    khprf.precompute_masks(123, 40, 64)
    large = time.perf_counter() - start
    assert large < max(small, 1e-4) * 200


# -- uint64 evaluation against the plain-int reference -------------------------


@pytest.mark.parametrize("t,d", [
    (0, 1), (0, 5), (3, 17), (99, 64), (2**40, 3),
    # around the 64-coefficient XOF blocks, with t below and above 2^32
    (0, 63), (0, 64), (0, 65), (5, 128), (5, 129),
    (2**32, 63), (2**32 + 1, 65), (2**63 + 7, 129),
])
def test_coefficient_vector_matches_hash_to_field(t, d):
    want = [hash_to_field(khprf.DOMAIN_TAG, t, i) for i in range(d)]
    assert khprf.coefficient_vector(t, d).tolist() == want


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300))
def test_coefficients_do_not_depend_on_dimension(t, d, d_prefix):
    # H(t, i) is the same for every d > i, so a shorter vector is a prefix
    d_prefix = min(d, d_prefix)
    assert (khprf.coefficient_vector(t, d)[:d_prefix].tolist()
            == khprf.coefficient_vector(t, d_prefix).tolist())


def test_coefficient_vector_keeps_the_golden_value():
    assert khprf.coefficient_vector(0, 1).tolist() == [GOLDEN_H_0_0]


@settings(max_examples=200)
@given(edge_keys, st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=24))
def test_evaluate_matches_plain_ints(key, t, d):
    want = [key * hash_to_field(khprf.DOMAIN_TAG, t, i) % P for i in range(d)]
    assert khprf.evaluate(key, t, d).tolist() == want


@settings(max_examples=50)
@given(edge_keys, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=9))
def test_precompute_rows_equal_evaluate(key, iterations, d):
    table = khprf.precompute_masks(key, iterations, d)
    assert table.shape == (iterations, d)
    assert [row.tolist() for row in table] == [
        khprf.evaluate(key, t, d).tolist() for t in range(iterations)]


def test_cached_coefficients_and_mask_rows_are_read_only():
    # an in-place write would silently corrupt every later mask of that
    # iteration, for every key, since the arrays are shared
    coeffs = khprf.coefficient_vector(4, 6)
    before = coeffs.tolist()
    with pytest.raises(ValueError):
        coeffs += 1
    shared = khprf._coefficient_table(3, 6)
    with pytest.raises(ValueError):
        shared[1] += 1
    table = khprf.precompute_masks(7, 3, 6)
    with pytest.raises(ValueError):
        table[1] += 1
    assert khprf.coefficient_vector(4, 6).tolist() == before
    assert shared[1].tolist() == khprf.coefficient_vector(1, 6).tolist()
    assert table[1].tolist() == khprf.evaluate(7, 1, 6).tolist()


# -- one copy of the coefficients ---------------------------------------------


def test_second_device_reuses_the_coefficient_table():
    clear_coefficient_caches()
    khprf.precompute_masks(5, 12, 9)
    info = khprf.coefficient_vector.cache_info()
    assert info.misses == 12
    khprf.precompute_masks(6, 12, 9)
    again = khprf.coefficient_vector.cache_info()
    # the table is stacked again from the cached rows: hits, no new hashing
    assert again.misses == info.misses and again.hits == info.hits + 12


def test_device_tables_share_no_memory():
    # a device's table is its own: nothing it holds aliases the public
    # coefficients or another device's masks
    first = khprf.precompute_masks(5, 4, 9)
    second = khprf.precompute_masks(6, 4, 9)
    shared = khprf._coefficient_table(4, 9)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, shared)
    assert not np.shares_memory(second, shared)


# -- keys outside the field ----------------------------------------------------


@pytest.mark.parametrize("key", [1.5, -1, P, 2**64 - 1, 2**64, "1", None, True])
def test_keys_outside_the_field_are_refused(key):
    with pytest.raises(ValueError, match=r"key = .* is not an int in \[0, p\)"):
        khprf.evaluate(key, 0, 4)
    with pytest.raises(ValueError, match=r"key = .* is not an int in \[0, p\)"):
        khprf.precompute_masks(key, 2, 4)


# -- rounds outside the hashed range ---------------------------------------------


@pytest.mark.parametrize("t", [-1, 2**64, 1.5, 1.0, "1", None, True])
def test_rounds_outside_the_word_range_are_refused(t):
    # H hashes t as a 64-bit word; struct would trip over anything else
    khprf.coefficient_vector(1, 4)  # a float equal to a cached round still misses
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        khprf.evaluate(1, t, 4)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        khprf.coefficient_vector(t, 4)
    assert len(khprf.evaluate(1, 2**64 - 1, 4)) == 4


# -- counts that are not ints >= 1 -----------------------------------------------


@pytest.mark.parametrize("count", [0, -1, 2.5, 2.0, "2", None, True])
def test_counts_that_are_not_ints_are_refused(count):
    # a float count would reach numpy as a TypeError, or build a table, and
    # True one of a single row or element
    with pytest.raises(ValueError, match="num_iterations = .* is not an int >= 1"):
        khprf.precompute_masks(1, count, 4)
    with pytest.raises(ValueError, match="mask dimension d = .* is not an int >= 1"):
        khprf.precompute_masks(1, 2, count)
    with pytest.raises(ValueError, match="num_iterations = .* is not an int >= 1"):
        khprf.precompute_fleet([1, 2], count, 4)
    with pytest.raises(ValueError, match="mask dimension d = .* is not an int >= 1"):
        khprf.evaluate(1, 0, count)
    with pytest.raises(ValueError, match="mask dimension d = .* is not an int >= 1"):
        khprf.coefficient_vector(0, count)


# -- the fleet in one blocked pass ------------------------------------------------

BLOCK_ELEMENTS = khprf._BLOCK_ELEMENTS


@settings(max_examples=40, deadline=None)
@given(st.lists(edge_keys, min_size=1, max_size=6), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=300))
# a device's table one element short of, exactly at, and one past the block
@example(keys=[3, P - 1], iterations=1, d=BLOCK_ELEMENTS - 1)
@example(keys=[3, P - 1], iterations=2, d=BLOCK_ELEMENTS // 2)
@example(keys=[3, P - 1], iterations=1, d=BLOCK_ELEMENTS + 1)
# two devices per block, so the last block holds the fifth alone
@example(keys=[0, 1, 2, P - 2, P - 1], iterations=3, d=BLOCK_ELEMENTS // 6 - 1)
def test_fleet_rows_equal_each_device_alone(keys, iterations, d):
    fleet = khprf.precompute_fleet(keys, iterations, d)
    assert fleet.shape == (len(keys), iterations, d) and fleet.dtype == np.uint64
    assert not fleet.flags.writeable
    shared = khprf._coefficient_table(iterations, d)
    for r, key in enumerate(keys):
        row = fleet[r]
        assert np.array_equal(row, khprf.precompute_masks(key, iterations, d))
        for t in range(iterations):
            assert np.array_equal(row[t], khprf.evaluate(key, t, d))
        with pytest.raises(ValueError):
            row[0, 0] = 0
        assert not np.shares_memory(row, shared)
        for other in range(r):
            assert not np.shares_memory(row, fleet[other])


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("key", [P, -1, 1.5, None])
def test_a_bad_key_anywhere_refuses_the_fleet(where, key):
    keys = [1, 2, 3, 4, 5]
    keys[where] = key
    with pytest.raises(ValueError, match="not an int in"):
        khprf.precompute_fleet(keys, 3, 4)


def test_fleet_of_no_keys_is_empty():
    assert khprf.precompute_fleet([], 3, 4).shape == (0, 3, 4)


# -- one derivation pass per table -----------------------------------------------


def assert_rows_equal_hash_to_field(table, rounds, d):
    for t in rounds:
        assert table[t].tolist() == [hash_to_field(khprf.DOMAIN_TAG, t, i) for i in range(d)]


@pytest.mark.parametrize("iterations,d", [
    # the table one coefficient short of, exactly at, and one past a chunk,
    # as whole rows and as slices of one row
    (7, 4681), (8, 4096), (3, 10923), (1, BLOCK_ELEMENTS + 1),
    # about the 64-coefficient XOF blocks, over two chunks
    (521, 63), (521, 64), (521, 65),
])
def test_table_rows_equal_hash_to_field(iterations, d):
    clear_coefficient_caches()
    table = khprf._coefficient_table(iterations, d)
    assert table.shape == (iterations, d)
    assert_rows_equal_hash_to_field(table, range(iterations), d)
    assert len(khprf._parked) == 0


def test_a_table_longer_than_the_cache_is_exact():
    clear_coefficient_caches()
    first = khprf._coefficient_table(300, 3)
    assert_rows_equal_hash_to_field(first, range(300), 3)
    again = khprf._coefficient_table(300, 3)  # its first rows were evicted
    assert again.tolist() == first.tolist()
    assert len(khprf._parked) == 0


@pytest.fixture
def derived_rounds(monkeypatch):
    """The rounds each call of the derivation function was asked for."""
    calls = []
    derive = khprf._derive_rows

    def spy(rounds, d):
        calls.append(list(rounds))
        return derive(rounds, d)

    monkeypatch.setattr(khprf, "_derive_rows", spy)
    return calls


def test_a_table_derives_each_row_once_in_one_pass(derived_rounds):
    clear_coefficient_caches()
    khprf._coefficient_table(40, 9)
    assert derived_rounds == [list(range(40))]
    assert khprf.coefficient_vector.cache_info().misses == 40
    # a second table and every round's evaluation derive nothing
    khprf.precompute_fleet([5, 6], 40, 9)
    for t in range(40):
        khprf.evaluate(7, t, 9)
        khprf.evaluate(np.array([1, 2], dtype=np.uint64), t, 9)
    assert derived_rounds == [list(range(40))]
    assert khprf.coefficient_vector.cache_info().misses == 40


def test_a_table_never_derives_a_cached_row(derived_rounds):
    clear_coefficient_caches()
    for t in (3, 4, 7):
        khprf.coefficient_vector(t, 9)
    khprf._coefficient_table(10, 9)
    assert derived_rounds == [[3], [4], [7], [0, 1, 2, 5, 6, 8, 9]]
    assert khprf.coefficient_vector.cache_info().misses == 10


def test_a_refused_table_parks_nothing():
    with pytest.raises(ValueError, match="mask dimension d"):
        khprf._coefficient_table(4, 0)
    assert len(khprf._parked) == 0 and len(khprf._table_ends) == 0


def test_no_two_cached_rows_share_memory():
    clear_coefficient_caches()
    khprf._coefficient_table(30, 7)
    rows = [khprf.coefficient_vector(t, 7) for t in range(30)]
    for r, row in enumerate(rows):
        assert row.base is None and not row.flags.writeable
        for other in rows[:r]:
            assert not np.shares_memory(row, other)


# -- set-up's transient memory ---------------------------------------------------


@pytest.mark.parametrize("n,iterations,d", [(8, 100, 2048), (256, 100, 10)],
                         ids=["wide_model", "many_devices"])
def test_precompute_holds_a_few_blocks_beyond_its_arrays(n, iterations, d):
    # the benchmark's fleet shapes, from a cold cache: besides the output,
    # the stacked table and the cached rows, set-up holds about three blocks
    # (the in-place mulmod's temporaries, or one XOF chunk of 16-byte words)
    rng = random.Random(5)
    keys = [rng.randrange(P) for _ in range(n)]
    clear_coefficient_caches()
    tracemalloc.start()
    try:
        fleet = khprf.precompute_fleet(keys, iterations, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = iterations * d * 8
    surplus = peak - fleet.nbytes - rows - rows
    assert surplus <= 4 * BLOCK_ELEMENTS * 8
