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
        if self.x == 0:
            raise ValueError("share point x = 0 is reserved for the secret")


@dataclass(frozen=True)
class AccessStructure:
    threshold: int
    total: int

    def __post_init__(self):
        if not 1 <= self.threshold <= self.total:
            raise ValueError(
                f"need 1 <= threshold <= total, got ({self.threshold}, {self.total})"
            )


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation; coeffs ordered constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


def split(secret: int, acc: AccessStructure, rng) -> list[SecretShare]:
    """Split a secret into ``acc.total`` shares at x = 1..total.

    The polynomial has constant term ``secret`` and uniformly random higher
    coefficients drawn from the injected rng, so runs are reproducible.
    """
    coeffs = [secret % P]
    coeffs += [rng.randrange(P) for _ in range(acc.threshold - 1)]
    return [SecretShare(j, _poly_eval(coeffs, j)) for j in range(1, acc.total + 1)]


def lagrange_coeffs_at_zero(xs: Sequence[int]) -> list[int]:
    """Coefficients lambda_j with sum(lambda_j * f(x_j)) = f(0) for deg f < len(xs).

    Points must be distinct and nonzero.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate evaluation points")
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
    return coeffs


def recover(shares: Iterable[SecretShare], acc: AccessStructure) -> int | None:
    """Interpolate the secret at x = 0, or None when below threshold."""
    shares = list(shares)
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share x values")
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
