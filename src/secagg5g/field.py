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
Perspective*, 9.2). One Mersenne fold, ``fold``, takes any word into [0, p):
``mulmod``, ``vec_sum`` and ``fold_wide``, which reduces the 128-bit words
of the mask coefficients, all end in it. The kernels assume canonical
inputs; values from outside the program are checked with
``require_canonical`` where they enter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

P = (1 << 61) - 1  # fixed protocol modulus, shared by keys, shares and masks


def word(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint64 array, a kernel's constant: numpy
    converts a Python int operand on every ufunc call, which on a small
    array costs as much as the operation (a 40-element ``&`` took 1.6 us
    with an int and 0.8 us with this, warm, on a 2-vCPU Xeon)."""
    constant = np.array(value, dtype=np.uint64)
    constant.setflags(write=False)
    return constant


P_WORD = word(P)
_LO32, _LO29, _3, _29, _32, _61 = map(word, ((1 << 32) - 1, (1 << 29) - 1, 3, 29, 32, 61))
_BOUND_NAMES = {P: "p", 1 << 32: "2^32", 1 << 64: "2^64"}


def require_int(name: str, value, lo: int = 0, end: int | None = None) -> None:
    """Refuse ``value``, with a ValueError naming ``name``, unless it is an
    int in [lo, end), or >= lo when end is None.

    The one int rule of every input check: an int is a Python int or a
    numpy integer, never a bool (a JSON true would run as 1) nor a float,
    even a whole one, which would be truncated. The type is compared with
    ``is``, which refuses a bool, an int subclass, at no cost on the
    message paths, and any other int subclass with it.
    """
    if not ((type(value) is int or isinstance(value, np.integer))
            and lo <= value and (end is None or value < end)):
        span = f">= {lo}" if end is None else f"in [{lo}, {_BOUND_NAMES.get(end, end)})"
        raise ValueError(f"{name} = {value!r} is not an int {span}")


def require_real(name: str, value, lo, hi=math.inf, lo_open: bool = False) -> None:
    """Refuse ``value``, with a ValueError naming ``name``, unless it is a
    real number from ``lo`` to ``hi``.

    The one real rule of every input check: a bool is never a real number,
    and a string or None is refused here, not later as a TypeError. A finite
    bound is closed, except ``lo`` when ``lo_open`` is set; an infinite bound
    is open, so NaN and ±inf never pass (NaN fails every comparison).
    """
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if not (real and -math.inf < value < math.inf
            and (lo < value if lo_open else lo <= value) and value <= hi):
        left = "(" if lo_open or lo == -math.inf else "["
        right = ")" if hi == math.inf else "]"
        raise ValueError(f"{name} = {value!r} is not a real number in {left}{lo}, {hi}{right}")


def require_array(name: str, value, dtype, ndim: int = 1) -> None:
    """Refuse ``value``, with a ValueError naming ``name``, unless it is a
    numpy array of exactly ``dtype`` and ``ndim``: the one array rule of
    every input check, which converts nothing."""
    if not (isinstance(value, np.ndarray) and value.dtype == dtype and value.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-d {np.dtype(dtype)} array")


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


def require_canonical(v: np.ndarray) -> None:
    """Raise ValueError unless every element of the uint64 array v is < p."""
    top = v.max(initial=0)
    if top >= P:
        raise ValueError(f"field element {int(top)} is not below p = {P}")


def fold(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Reduce any uint64 values into [0, p) in place, and return x.

    x = (x mod 2^61) + (x >> 61) <= p + 7, then one min. ``tmp``, a uint64
    scratch array of x's shape, saves the one temporary.
    """
    tmp = np.right_shift(x, _61, out=tmp)
    x &= P_WORD
    x += tmp  # <= p + 7; x - p wraps past x exactly when x < p
    return np.minimum(x, np.subtract(x, P_WORD, out=tmp), out=x)


def fold_wide(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(lo + 2^64 * hi) mod p of uint64 word pairs, as a fresh array.

    2^64 = 8 (mod p), so this is lo + 8 * hi. A partial fold of
    8 * (hi mod 2^61) < 2^64, without the min, keeps the sum of the parts
    below 2^63, and ``fold`` ends it.
    """
    out = hi & P_WORD
    out <<= _3
    tmp = out >> _61
    out &= P_WORD
    out += tmp  # <= p + 7
    out += np.left_shift(np.right_shift(hi, _61, out=tmp), _3, out=tmp)  # 8 * (hi >> 61) <= 56
    out += np.right_shift(lo, _61, out=tmp)
    out += np.bitwise_and(lo, P_WORD, out=tmp)  # < 2^62 + 70
    return fold(out, tmp)


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
    return np.minimum(s, s - P_WORD)


def vec_sub(a, b) -> np.ndarray:
    """Componentwise (a - b) mod p; inverse of vec_add in the second argument."""
    a, b = _pair(a, b)
    s = a - b  # wraps below zero exactly when a < b
    return np.minimum(s, s + P_WORD)


def mulmod(a, b, out=None) -> np.ndarray:
    """Componentwise a * b mod p of canonical values, with numpy broadcasting.

    At least one operand has a dimension. The result is written into
    ``out`` when one is given, a uint64 array of the broadcast shape (a
    strided view will do), and returned. The sum is built in place, with
    ufunc ``out=`` arguments: besides ``out`` and the operands' 32-bit limbs
    it needs two temporaries of the full shape, and it never writes the
    inputs.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a0, a1 = a & _LO32, a >> _32
    b0, b1 = b & _LO32, b >> _32  # taken before out is written, so out may alias b
    # a1*b1*2^64 = 8*a1*b1; mid*2^32 = (mid >> 29)*2^61 + (mid mod 2^29)*2^32
    out = np.multiply(a1, b1, out=out)
    out <<= _3
    tmp = a0 * b1
    del b1
    mid = a1 * b0
    mid += tmp  # < 2^62, weight 2^32
    out += np.right_shift(mid, _29, out=tmp)
    mid &= _LO29
    mid <<= _32
    out += mid
    low = np.multiply(a0, b0, out=mid)  # < 2^64
    out += np.bitwise_and(low, P_WORD, out=tmp)
    low >>= _61
    out += low  # < 2^63
    return fold(out, tmp)


def vec_sum(rows) -> np.ndarray:
    """Column sums mod p of an (m, d) array of canonical values, m < 2^32.

    The low 32 and high 29 bits of each element are summed separately so
    that neither column sum can leave 64 bits.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    lo = (rows & _LO32).sum(axis=0, dtype=np.uint64)  # < m * 2^32
    hi = (rows >> _32).sum(axis=0, dtype=np.uint64)  # < m * 2^29, weight 2^32
    return fold(fold(lo) + (hi >> _29) + ((hi & _LO29) << _32))


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
        # 2^frac_bits must be a finite float: the headroom and _quantize use it
        require_int("frac_bits", self.frac_bits, end=1024)
        require_real("magnitude_bound", self.magnitude_bound, 0, lo_open=True)
        require_int("max_summands", self.max_summands, 1)
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
