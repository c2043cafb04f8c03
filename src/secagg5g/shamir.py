"""t-out-of-k Shamir secret sharing over Z_p for scalar keys.

Shares are evaluations of a random degree-(t-1) polynomial at the fixed
points x = 1..k (the base-station index), so reconstruction from any subset
is independent of ordering. ``recover`` returns None below threshold,
mirroring an ideal scheme's failure output rather than raising.

``combine_linear`` is the generic primitive the protocol leans on:
Lagrange coefficients applied to any linear function of the shares
reconstruct the same linear function of the secret.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import field
from .field import P


@dataclass(frozen=True)
class SecretShare:
    """One Shamir evaluation point (x, y); x = 0 is reserved for the secret."""

    x: int
    y: int

    def __post_init__(self):
        field.require_int("share point x", self.x)
        if self.x == 0:
            raise ValueError("share point x = 0 is reserved for the secret")


@dataclass(frozen=True)
class AccessStructure:
    threshold: int
    total: int

    def __post_init__(self):
        field.require_int("total", self.total, 1)
        field.require_int("threshold", self.threshold, 1, self.total + 1)


def split(secret: int, acc: AccessStructure, rng) -> list[SecretShare]:
    """Split a secret into ``acc.total`` shares at x = 1..total.

    The polynomial has constant term ``secret`` and uniformly random higher
    coefficients drawn from the injected rng, so runs are reproducible.
    ``split_many`` of the one secret, reduced mod p. Raises ValueError for
    a secret that is not an int >= 0.
    """
    field.require_int("secret", secret)
    row = split_many(np.array([secret % P], dtype=np.uint64), acc, rng)[0].tolist()
    return [SecretShare(x, y) for x, y in enumerate(row, start=1)]


def split_many(secrets, acc: AccessStructure, rng) -> np.ndarray:
    """Split each of n canonical secrets into ``acc.total`` shares: an
    (n, total) uint64 matrix whose entry (r, j - 1) is secret r's share at
    x = j.

    The rng draws ``threshold - 1`` coefficients per secret, secret after
    secret and nothing else, so that each row is the ``split`` of its
    secret on the same rng. The shares are evaluated by Horner for every
    secret and point at once. Raises ValueError unless ``secrets`` is a 1-d
    uint64 array of elements below p.
    """
    field.require_array("secrets", secrets, np.uint64)
    field.require_canonical(secrets)
    n, t, k = len(secrets), acc.threshold, acc.total
    draws = np.array([rng.randrange(P) for _ in range(n * (t - 1))], dtype=np.uint64)
    coeffs = np.empty((t, n), dtype=np.uint64)  # row c: every secret's coefficient of x^c
    coeffs[0] = secrets
    coeffs[1:] = draws.reshape(n, t - 1).T
    # every operand (n, k): a kernel call costs far more than its elements,
    # and broadcasting costs more again
    coeffs = np.repeat(coeffs[:, :, None], k, axis=2)
    xs = np.tile(np.arange(1, k + 1, dtype=np.uint64), (n, 1))
    shares = coeffs[t - 1]
    for c in range(t - 2, -1, -1):
        shares = field.vec_add(field.mulmod(shares, xs), coeffs[c])
    return shares


def lagrange_coeffs_at_zero(xs: Sequence[int]) -> list[int]:
    """Coefficients lambda_j with sum(lambda_j * f(x_j)) = f(0) for deg f < len(xs).

    Points must be ints, distinct and nonzero mod p; anything else raises
    ValueError. Each tuple of points is computed once and cached, since
    every aggregated round asks again for the same chosen stations; the
    list returned is fresh, so that a caller's edit cannot reach the cache.
    """
    # checked before the lookup: 1.0 or True would hit the entry of 1
    _require_points(xs)
    return list(_lagrange_coeffs_at_zero(tuple(map(int, xs))))


def _require_points(xs) -> None:
    """Refuse a share point that is not an int >= 0, or two equal mod p:
    they are one element of Z_p."""
    for x in xs:
        field.require_int("share point x", x)
    if len({x % P for x in xs}) != len(xs):
        raise ValueError("duplicate share points")


@lru_cache(maxsize=256)
def _lagrange_coeffs_at_zero(xs: tuple[int, ...]) -> tuple[int, ...]:
    if any(x % P == 0 for x in xs):
        raise ValueError("x = 0 is not a valid share point")
    coeffs = []
    for j, xj in enumerate(xs):
        num, den = 1, 1
        for m, xm in enumerate(xs):
            if m == j:
                continue
            num = num * xm % P
            den = den * (xm - xj) % P
        coeffs.append(field.mul(num, field.inv(den)))
    return tuple(coeffs)


def recover(shares: Iterable[SecretShare], acc: AccessStructure) -> int | None:
    """Interpolate the secret at x = 0, or None when below threshold.

    Raises ValueError, also below threshold, for a share point that is not
    an int >= 0 or two points equal mod p.
    """
    shares = list(shares)
    xs = [s.x for s in shares]
    _require_points(xs)
    if len(shares) < acc.threshold:
        return None
    coeffs = lagrange_coeffs_at_zero(xs)
    return sum(lam * s.y for lam, s in zip(coeffs, shares)) % P


def combine_linear(payloads: Sequence, coeffs: Sequence[int]) -> np.ndarray:
    """Componentwise sum(coeffs[j] * payloads[j]) mod P.

    Applied to per-share mask vectors with Lagrange coefficients this
    performs vector-valued reconstruction. Payloads are equal-length
    sequences or uint64 arrays of canonical elements; coefficients are
    canonical ints.
    """
    if len(payloads) != len(coeffs):
        raise ValueError(f"{len(payloads)} payloads vs {len(coeffs)} coefficients")
    if not payloads:
        raise ValueError("nothing to combine")
    dim = len(payloads[0])
    if any(len(p) != dim for p in payloads):
        raise ValueError("payload dimensions differ")
    rows = np.array(payloads, dtype=np.uint64)
    lams = np.array(coeffs, dtype=np.uint64)[:, None]
    return field.vec_sum(field.mulmod(lams, rows))
