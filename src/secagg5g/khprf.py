"""Key-homomorphic pseudorandom masks: F(key, t)[i] = key * H(t, i) mod p.

H derives public per-(iteration, index) coefficients from SHAKE-256 (FIPS
202) in counter mode, so the construction is exactly additive in the key:
F(k1 + k2, t) = F(k1, t) + F(k2, t), componentwise in Z_p, and Lagrange
combinations of evaluations on Shamir shares of a key equal the evaluation
on the key itself. Those two identities are what the aggregation protocol
stands on.

Coefficients come in blocks of BLOCK = 64: H(t, i) is read from the 16
output bytes at offset 16 * (i mod 64) of

    SHAKE-256(DOMAIN_TAG || t_le64 || (i // 64)_le64)

as a little-endian integer lo + 2^64 * hi, reduced mod p. An XOF's shorter
output is a prefix of its longer output, so H(t, i) does not depend on how
many coefficients are asked for.

Precomputation covers a whole fleet in one pass: one temporary
(iterations, d) table of these coefficients, stacked from the cached rows,
is multiplied by every device's key into one preallocated (n, iterations, d)
array, block by block, so the public part of set-up is paid once rather than
once per device and each block's temporaries stay in cache. The rows' cache
is the one copy of the coefficients a process keeps.

SECURITY WARNING: this default backend is NOT a PRF. The coefficients
H(t, i) are public, so a single output component reveals the key by
division, and a masked small update reveals it by a short search. In the
aggregation flow an honest-but-curious server learns every round's online
key sum and, across rounds, individual keys (README, Security caveat). A
lattice-based almost-key-homomorphic PRF can replace it behind the same
three functions.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import numpy as np

from . import field

# protocol constant: keeps H out of other contexts, and names the derivation
DOMAIN_TAG = b"STANDFIRM-H/v2/SHAKE256-CTR64"
BLOCK = 64  # coefficients per XOF call
_COEFF_BYTES = 16

_TAGGED = hashlib.shake_256(DOMAIN_TAG)  # XOF state after the tag, copied per block
_BLOCK_INDEX = struct.Struct("<QQ")
# elements per mulmod block of the fleet precompute, so that the few of
# mulmod's 256 KiB temporaries alive at once stay in a 2 MiB L2. Measured on
# a 2-vCPU Xeon over the benchmark's three fleet shapes: 2^14 to 2^16 within
# 15% of each other, 2^11 up to 3x slower, and one block per device (no
# blocking) 2.2x slower at d = 2048
_BLOCK_ELEMENTS = 1 << 15


def require_round(t) -> None:
    """Refuse a round that is not an int in [0, 2^64), the range H hashes."""
    if not (isinstance(t, (int, np.integer)) and 0 <= t < 1 << 64):
        raise ValueError(f"round t = {t!r} is not an int in [0, 2^64)")


# typed, so that a float round never hits the entry of the int it equals
# and is refused on its own miss
@lru_cache(maxsize=256, typed=True)
def coefficient_vector(t: int, d: int) -> np.ndarray:
    """Public coefficients (H(t, 0), ..., H(t, d-1)) as a read-only uint64 array.

    Cached, since every key evaluated at iteration t shares them; read-only,
    since a write would corrupt every later mask of that iteration. One XOF
    call per block of BLOCK coefficients; the last block asks only for the
    bytes it needs. Each 16-byte word lo + 2^64 * hi is reduced as
    lo + 8 * (hi mod p), since 2^64 = 8 (mod p). Raises ValueError for a
    round that is not an int in [0, 2^64).
    """
    require_round(t)
    stream = bytearray()
    for block, start in enumerate(range(0, d, BLOCK)):
        xof = _TAGGED.copy()
        xof.update(_BLOCK_INDEX.pack(t, block))
        stream += xof.digest(_COEFF_BYTES * min(BLOCK, d - start))
    words = np.frombuffer(stream, dtype="<u8").reshape(d, 2)
    lo, hi = field.fold(words[:, 0]), field.fold(words[:, 1])
    coeffs = field.vec_add(lo, field.fold(hi << 3))
    coeffs.setflags(write=False)
    return coeffs


def _require_key(key) -> None:
    # a float truncates and a word outside [0, p) escapes mulmod's bounds
    if not (isinstance(key, (int, np.integer)) and 0 <= key < field.P):
        raise ValueError(f"key = {key!r} is not an int in [0, p)")


def _require_count(name: str, value) -> None:
    # a float shape would reach numpy as a TypeError, or round silently
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} = {value!r} is not an int >= 1")


def evaluate(key: int, t: int, d: int) -> np.ndarray:
    """Mask vector for (key, iteration t) of dimension d."""
    _require_key(key)
    _require_count("mask dimension d", d)
    return field.mulmod(key, coefficient_vector(t, d))


def _coefficient_table(num_iterations: int, d: int) -> np.ndarray:
    """Read-only (num_iterations, d) table whose row t is coefficient_vector(t, d).

    Stacked on each call from ``coefficient_vector``'s cached rows, so the
    coefficients are held once, in that cache, and the table lives only as
    long as its caller holds it.
    """
    table = np.stack([coefficient_vector(t, d) for t in range(num_iterations)])
    table.setflags(write=False)
    return table


def precompute_fleet(keys, num_iterations: int, d: int) -> np.ndarray:
    """Read-only (len(keys), num_iterations, d) array whose row [r, t] is
    bitwise equal to ``evaluate(keys[r], t, d)``; lets a fleet front-load all
    mask computation in one pass.

    Every key is checked before anything is computed: a key that is not an
    int in [0, p), or a count that is not an int >= 1, raises ValueError.
    The array is fresh; only the public coefficients are shared. It is
    filled in blocks of about ``_BLOCK_ELEMENTS`` elements, a run of whole
    devices over a slice of the flattened coefficient table.
    """
    for key in keys:
        _require_key(key)
    _require_count("num_iterations", num_iterations)
    _require_count("mask dimension d", d)
    coeffs = _coefficient_table(num_iterations, d).reshape(-1)
    key_column = np.array(keys, dtype=np.uint64).reshape(-1, 1)
    cols = min(coeffs.size, _BLOCK_ELEMENTS)
    rows = _BLOCK_ELEMENTS // cols
    out = np.empty((len(key_column), coeffs.size), dtype=np.uint64)
    for i in range(0, len(key_column), rows):
        for j in range(0, coeffs.size, cols):
            out[i:i + rows, j:j + cols] = field.mulmod(
                key_column[i:i + rows], coeffs[j:j + cols])
    out = out.reshape(-1, num_iterations, d)
    out.setflags(write=False)
    return out


def precompute_masks(key: int, num_iterations: int, d: int) -> np.ndarray:
    """Read-only (num_iterations, d) table whose row t is bitwise equal to
    ``evaluate(key, t, d)``: one device's row of ``precompute_fleet``."""
    return precompute_fleet([key], num_iterations, d)[0]
