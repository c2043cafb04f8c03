"""Arithmetic over Z_p with p = 2^61 - 1, and the fixed-point update codec.

The Mersenne prime keeps reduction to a shift-and-add and leaves ample
headroom for sums of thousands of quantized model updates.

Scalars (keys, Shamir shares, Lagrange coefficients) are plain Python ints
in canonical form [0, p); ``add``/``sub``/``mul``/``reduce``/``inv`` work on
them and are the reference the vector kernels are tested against.

Vectors are ``np.ndarray`` of dtype uint64 in canonical form [0, p). A sum
of two canonical values stays below 2^62, so ``vec_add``/``vec_sub`` need
one wraparound and a min. A 61x61-bit product needs 122 bits, so
``mulmod`` splits each operand into 32-bit limbs, a = a1*2^32 + a0 with
a1 < 2^29: then a0*b0 < 2^64, each cross term is below 2^61 and
a1*b1 < 2^58, and the pieces fold back into 64 bits with 2^61 = 1 and
2^64 = 8 (mod p) (Crandall & Pomerance, *Prime Numbers: A Computational
Perspective*, 9.2). The kernels assume canonical inputs; values from
outside the program are checked with ``require_canonical`` where they enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

P = (1 << 61) - 1  # fixed protocol modulus, shared by keys, shares and masks

_LO32 = (1 << 32) - 1
_LO29 = (1 << 29) - 1


def reduce(x: int) -> int:
    """Reduce a non-negative x < 2^122 into [0, p)."""
    r = (x >> 61) + (x & P)
    if r >= P:
        r -= P
    return r


def add(a: int, b: int) -> int:
    s = a + b
    return s - P if s >= P else s


def sub(a: int, b: int) -> int:
    s = a - b
    return s + P if s < 0 else s


def mul(a: int, b: int) -> int:
    return reduce(a * b)


def inv(a: int) -> int:
    """Multiplicative inverse via Fermat: a^(p-2) mod p."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in Z_p")
    return pow(a, P - 2, P)


def rand_element(rng) -> int:
    """Uniform element of Z_p from a seeded random.Random."""
    return rng.randrange(P)


def require_canonical(v: np.ndarray) -> None:
    """Raise ValueError unless every element of the uint64 array v is < p."""
    top = v.max(initial=0)
    if top >= P:
        raise ValueError(f"field element {int(top)} is not below p = {P}")


def fold(x: np.ndarray) -> np.ndarray:
    """Reduce any uint64 values into [0, p): x = (x mod 2^61) + (x >> 61)."""
    r = (x & P) + (x >> 61)  # <= p + 7
    return np.minimum(r, r - P)  # r - P wraps past r exactly when r < p


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def vec_add(a, b) -> np.ndarray:
    """Componentwise (a + b) mod p."""
    a, b = _pair(a, b)
    s = a + b
    return np.minimum(s, s - P)


def vec_sub(a, b) -> np.ndarray:
    """Componentwise (a - b) mod p; inverse of vec_add in the second argument."""
    a, b = _pair(a, b)
    s = a - b  # wraps below zero exactly when a < b
    return np.minimum(s, s + P)


def mulmod(a, b) -> np.ndarray:
    """Componentwise a * b mod p of canonical values, with numpy broadcasting."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a0, a1 = a & _LO32, a >> 32
    b0, b1 = b & _LO32, b >> 32
    mid = a1 * b0 + a0 * b1  # < 2^62, weight 2^32
    low = a0 * b0  # < 2^64
    # a1*b1*2^64 = 8*a1*b1; mid*2^32 = (mid >> 29)*2^61 + (mid mod 2^29)*2^32
    s = ((a1 * b1) << 3) + (mid >> 29) + ((mid & _LO29) << 32) + (low & P) + (low >> 61)
    return fold(s)  # s < 2^63


def vec_sum(rows) -> np.ndarray:
    """Column sums mod p of an (m, d) array of canonical values, m < 2^32.

    The low 32 and high 29 bits of each element are summed separately so
    that neither column sum can leave 64 bits.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    lo = (rows & _LO32).sum(axis=0, dtype=np.uint64)  # < m * 2^32
    hi = (rows >> 32).sum(axis=0, dtype=np.uint64)  # < m * 2^29, weight 2^32
    return fold(fold(lo) + (hi >> 29) + ((hi & _LO29) << 32))


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point mapping between real update vectors and Z_p.

    Negative values occupy the upper half of the field. The headroom
    invariant guarantees that the field sum of up to ``max_summands``
    encoded vectors decodes to the signed real sum without ambiguity.
    """

    frac_bits: int = 16
    magnitude_bound: float = 1.0
    max_summands: int = 1024

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be >= 0")
        if self.magnitude_bound <= 0:
            raise ValueError("magnitude_bound must be positive")
        if self.max_summands < 1:
            raise ValueError("max_summands must be >= 1")
        headroom = self.max_summands * (self.magnitude_bound * self.scale + 1)
        if not headroom < P / 2:
            raise ValueError(
                "codec overflows the field: "
                f"{self.max_summands} * ({self.magnitude_bound} * 2^{self.frac_bits} + 1) >= p/2"
            )

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


def _quantize(w, codec: FixedPointCodec) -> np.ndarray:
    """round(w_i * 2^f) as int64, rounding half to even like ``round``.

    Raises ValueError when any |w_i| exceeds the codec's magnitude bound, or
    is NaN; silent wraparound would corrupt aggregated averages undetectably.
    x * 2^f is exact in float64, and the headroom invariant keeps the result
    below p/2 in magnitude.
    """
    w = np.asarray(w, dtype=np.float64)
    bound = codec.magnitude_bound
    if not np.abs(w).max(initial=0.0) <= bound:  # a NaN maximum fails too
        bad = w[~(np.abs(w) <= bound)][0]
        raise ValueError(f"update component {bad} exceeds magnitude bound {bound}")
    return np.rint(w * codec.scale).astype(np.int64)


def encode_update(w, codec: FixedPointCodec) -> np.ndarray:
    """Quantize a real vector into Z_p: round(w_i * 2^f), negatives wrapped."""
    return (_quantize(w, codec) % P).view(np.uint64)


def encode_masked(w, codec: FixedPointCodec, mask: np.ndarray) -> np.ndarray:
    """``vec_add(encode_update(w, codec), mask)`` with a single reduction.

    The signed quantized value plus a canonical mask lies in (-p/2, 3p/2),
    which int64 holds, so one ``% p`` gives the canonical masked update.
    ``w`` and ``mask`` may also be (m, d) stacks, one update per row: every
    step is elementwise, so each row is bit-identical to encoding it alone.
    """
    q = _quantize(w, codec)
    if q.shape != mask.shape:
        raise ValueError(f"dimension mismatch: {q.shape} vs {mask.shape}")
    return ((q + mask.view(np.int64)) % P).view(np.uint64)


def decode_sum(v, codec: FixedPointCodec, num_summands: int) -> np.ndarray:
    """Decode a field sum of encoded vectors back to signed float64 reals.

    Components above p/2 are negative. Valid for sums of at most
    ``codec.max_summands`` encoded vectors (per-component error is then
    bounded by num_summands * 2^-(f+1)). Dividing the signed int64 by 2^f
    rounds once, exactly as Python's int / int does.
    """
    if num_summands > codec.max_summands:
        raise ValueError(
            f"{num_summands} summands exceeds codec limit {codec.max_summands}"
        )
    v = np.asarray(v, dtype=np.uint64)
    signed = v.view(np.int64)
    signed = np.where(v > (P >> 1), signed - P, signed)
    return signed / codec.scale
