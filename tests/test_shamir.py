"""Secret-sharing tests.

Small-coefficient cases pin the algebra against hand-checkable numbers;
the interpolation oracle used here is written out in the test module so it
shares no code with the implementation under test.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import EDGE_ELEMENTS
from secagg5g import khprf, shamir
from secagg5g.field import P
from secagg5g.shamir import (
    AccessStructure,
    SecretShare,
    combine_linear,
    lagrange_coeffs_at_zero,
    recover,
    split,
    split_many,
)


def interp_at(points, x, prime):
    """Textbook Lagrange evaluation of the interpolating polynomial at x."""
    total = 0
    for j, (xj, yj) in enumerate(points):
        num, den = 1, 1
        for m, (xm, _) in enumerate(points):
            if m == j:
                continue
            num = num * (x - xm) % prime
            den = den * (xj - xm) % prime
        total = (total + yj * num * pow(den, prime - 2, prime)) % prime
    return total


class FixedCoeffRng:
    """Stand-in rng handing out predetermined polynomial coefficients."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, _stop):
        return self.values.pop(0)


def test_share_point_zero_reserved():
    with pytest.raises(ValueError):
        SecretShare(0, 5)


def test_access_structure_validation():
    AccessStructure(1, 1)
    with pytest.raises(ValueError):
        AccessStructure(0, 3)
    with pytest.raises(ValueError):
        AccessStructure(4, 3)
    # 2.5 built a structure that split failed on, as a TypeError
    for threshold in (2.5, True, "3"):
        with pytest.raises(ValueError, match="threshold = "):
            AccessStructure(threshold, 4)
    with pytest.raises(ValueError, match="total = "):
        AccessStructure(1, True)


def test_split_threshold_one_copies_secret():
    shares = split(42, AccessStructure(1, 5), random.Random(0))
    assert [s.x for s in shares] == [1, 2, 3, 4, 5]
    assert all(s.y == 42 for s in shares)


def test_split_known_polynomial():
    # 42 + 7x: hand-evaluated shares
    shares = split(42, AccessStructure(2, 3), FixedCoeffRng([7]))
    assert [(s.x, s.y) for s in shares] == [(1, 49), (2, 56), (3, 63)]


def reference_shares(secret, acc, rng):
    """The plain-int split: t - 1 coefficient draws, then each point x =
    1..total evaluated term by term."""
    coeffs = [secret % P] + [rng.randrange(P) for _ in range(acc.threshold - 1)]
    return [sum(c * x**i for i, c in enumerate(coeffs)) % P for x in range(1, acc.total + 1)]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(EDGE_ELEMENTS) | st.integers(0, P - 1), max_size=6),
       st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32),
       st.data())
def test_split_many_draws_and_evaluates_as_the_plain_split(secrets, total, seed, data):
    # each row is the split of its secret with the draws in secret order, so
    # a fleet's shares are bit-identical to splitting device after device
    acc = AccessStructure(data.draw(st.integers(min_value=1, max_value=total)), total)
    rng, ref_rng, one_rng = (random.Random(seed) for _ in range(3))
    shares = split_many(np.array(secrets, dtype=np.uint64), acc, rng)
    expected = [reference_shares(secret, acc, ref_rng) for secret in secrets]
    assert shares.dtype == np.uint64 and shares.shape == (len(secrets), total)
    assert shares.tolist() == expected
    # split is its one-secret case, and every path draws nothing else
    assert [[s.y for s in split(secret, acc, one_rng)] for secret in secrets] == expected
    assert rng.random() == ref_rng.random() == one_rng.random()


def test_split_many_refuses_a_secret_outside_the_field():
    for bad in ([P], [1, 2**64 - 1]):
        with pytest.raises(ValueError, match="not below p"):
            split_many(np.array(bad, dtype=np.uint64), AccessStructure(2, 3), random.Random(0))
    # split reduces any int first, as before
    assert [s.y for s in split(P + 42, AccessStructure(1, 2), random.Random(0))] == [42, 42]


def test_recover_known_shares():
    acc = AccessStructure(2, 3)
    assert recover([SecretShare(1, 49), SecretShare(3, 63)], acc) == 42


def test_lagrange_known_values():
    assert lagrange_coeffs_at_zero([1, 2]) == [2, P - 1]
    # 3/2 and -1/2 mod p
    assert lagrange_coeffs_at_zero([1, 3]) == [(P + 3) // 2, (P - 1) // 2]


def test_lagrange_rejects_bad_points():
    with pytest.raises(ValueError):
        lagrange_coeffs_at_zero([1, 1])
    with pytest.raises(ValueError):
        lagrange_coeffs_at_zero([0, 2])


def lagrange_fresh(xs):
    """The coefficients computed from scratch, as the cache's first call does."""
    return list(shamir._lagrange_coeffs_at_zero.__wrapped__(tuple(xs)))


@pytest.mark.parametrize("xs", [[1, 2, 3], [3, 1, 4], [2, 4], [1], [5, 7, 9, 11, 13, 15, 17]])
def test_cached_lagrange_coefficients_equal_a_fresh_computation(xs):
    first = lagrange_coeffs_at_zero(xs)
    assert first == lagrange_fresh(xs)
    # the caller owns the list it is given; editing it leaves the cache intact
    first[0] = 0
    first.append(1)
    again = lagrange_coeffs_at_zero(xs)
    assert again == lagrange_fresh(xs) and again is not first
    assert lagrange_coeffs_at_zero(np.array(xs, dtype=np.uint64)) == again


@pytest.mark.parametrize("bad", [[1.0, 2], [True, 2], [1, "2"], [1, None], [-1, 2]])
def test_lagrange_points_must_be_ints_even_when_an_equal_int_is_cached(bad):
    lagrange_coeffs_at_zero([1, 2])
    with pytest.raises(ValueError, match="share point x = .* is not an int"):
        lagrange_coeffs_at_zero(bad)


def test_lagrange_interpolates_constant_term():
    rng = random.Random(11)
    for _ in range(50):
        t = rng.randint(2, 6)
        coeffs = [rng.randrange(P) for _ in range(t)]
        xs = rng.sample(range(1, 50), t)
        ys = [sum(c * pow(x, i, P) for i, c in enumerate(coeffs)) % P for x in xs]
        lams = lagrange_coeffs_at_zero(xs)
        assert sum(lam * y for lam, y in zip(lams, ys)) % P == coeffs[0]


def test_recover_below_threshold_fails():
    acc = AccessStructure(2, 3)
    shares = split(7, acc, random.Random(1))
    assert recover(shares[:1], acc) is None


def test_recover_duplicate_x_rejected():
    acc = AccessStructure(2, 3)
    with pytest.raises(ValueError):
        recover([SecretShare(1, 3), SecretShare(1, 4)], acc)


def test_round_trip_all_threshold_subsets():
    acc = AccessStructure(3, 4)
    rng = random.Random(99)
    for _ in range(100):
        secret = rng.randrange(P)
        shares = split(secret, acc, rng)
        for subset in combinations(shares, 3):
            assert recover(subset, acc) == secret
        for subset in combinations(shares, 2):
            assert recover(subset, acc) is None


def test_default_parameters_three_of_four():
    # t=3, k=4: any 3 of the 4 shares suffice, any 2 do not
    acc = AccessStructure(3, 4)
    shares = split(123456789, acc, random.Random(3))
    assert recover(shares[:3], acc) == 123456789
    assert recover(shares[1:], acc) == 123456789
    assert recover(shares[:2], acc) is None


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=P - 1), st.integers(min_value=0, max_value=2**32))
def test_full_share_set_round_trip(secret, seed):
    acc = AccessStructure(3, 4)
    shares = split(secret, acc, random.Random(seed))
    assert recover(shares, acc) == secret


def test_recover_is_additive():
    # pointwise share addition recovers the sum of secrets
    acc = AccessStructure(3, 4)
    rng = random.Random(8)
    s1, s2 = rng.randrange(P), rng.randrange(P)
    sh1 = split(s1, acc, rng)
    sh2 = split(s2, acc, rng)
    summed = [SecretShare(a.x, (a.y + b.y) % P) for a, b in zip(sh1, sh2)]
    assert recover(summed, acc) == (s1 + s2) % P


def test_below_threshold_consistent_with_any_secret():
    # perfect hiding, algebraic form: t-1 shares extend to a valid share set
    # of every candidate secret
    acc = AccessStructure(3, 4)
    rng = random.Random(55)
    for _ in range(20):
        secret = rng.randrange(P)
        shares = split(secret, acc, rng)
        partial = [(s.x, s.y) for s in shares[:2]]
        for _ in range(5):
            candidate = rng.randrange(P)
            points = [(0, candidate)] + partial
            rebuilt = [
                SecretShare(x, interp_at(points, x, P)) for x in range(1, 5)
            ]
            assert recover(rebuilt, acc) == candidate
            assert (rebuilt[0].y, rebuilt[1].y) == (partial[0][1], partial[1][1])


# -- linear combination over vector payloads --------------------------------


def test_combine_linear_zero_coeffs():
    assert combine_linear([[5, 6], [7, 8]], [0, 0]).tolist() == [0, 0]


def test_combine_linear_identity():
    assert combine_linear([[9, 1, 4]], [1]).tolist() == [9, 1, 4]


def test_combine_linear_shape_errors():
    with pytest.raises(ValueError):
        combine_linear([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        combine_linear([[1, 2], [1]], [1, 1])
    with pytest.raises(ValueError):
        combine_linear([], [])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_combine_linear_matches_bigint_oracle(data):
    t = data.draw(st.integers(min_value=1, max_value=5))
    d = data.draw(st.integers(min_value=1, max_value=64))
    element = st.sampled_from(EDGE_ELEMENTS) | st.integers(min_value=0, max_value=P - 1)
    payloads = data.draw(st.lists(st.lists(element, min_size=d, max_size=d),
                                  min_size=t, max_size=t))
    coeffs = data.draw(st.lists(element, min_size=t, max_size=t))
    expected = [
        sum(c * payloads[j][i] for j, c in enumerate(coeffs)) % P for i in range(d)
    ]
    assert combine_linear(payloads, coeffs).tolist() == expected
    arrays = [np.array(row, dtype=np.uint64) for row in payloads]
    assert combine_linear(arrays, coeffs).tolist() == expected


def test_combine_linear_reconstructs_mask_from_share_masks():
    # the identity the whole protocol rests on: Lagrange-combining mask
    # vectors evaluated on key shares equals the mask of the key itself
    acc = AccessStructure(3, 4)
    rng = random.Random(21)
    key = rng.randrange(P)
    shares = split(key, acc, rng)
    for subset in combinations(shares, 3):
        coeffs = lagrange_coeffs_at_zero([s.x for s in subset])
        payloads = [khprf.evaluate(s.y, 5, 12) for s in subset]
        assert combine_linear(payloads, coeffs).tolist() == khprf.evaluate(key, 5, 12).tolist()
