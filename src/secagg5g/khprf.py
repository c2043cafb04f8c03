"""Key-homomorphic pseudorandom masks: F(key, t)[i] = key * H(t, i) mod p.

H derives public per-(iteration, index) coefficients from SHA-256, so the
construction is exactly additive in the key: F(k1 + k2, t) = F(k1, t) +
F(k2, t), componentwise in Z_p, and Lagrange combinations of evaluations on
Shamir shares of a key equal the evaluation on the key itself. Those two
identities are what the aggregation protocol stands on.

SECURITY WARNING: this default backend is NOT a standalone PRF. The
coefficients H(t, i) are public, so a single output component reveals the
key by division. It is only safe where every evaluation stays secret until
summed with others, as in the aggregation flow here. A lattice-based
almost-key-homomorphic PRF can replace it behind the same three functions.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import numpy as np

from . import field
from .field import P

DOMAIN_TAG = b"STANDFIRM-H"  # protocol constant; keeps H out of other contexts

_TAGGED = hashlib.sha256(DOMAIN_TAG)  # hash state after the tag, copied per index
_INDEX = struct.Struct("<QQ")


def hash_to_field(domain_tag: bytes, t: int, i: int) -> int:
    """SHA-256(tag || t_le64 || i_le64), first 16 digest bytes LE, mod p."""
    digest = hashlib.sha256(domain_tag + struct.pack("<QQ", t, i)).digest()
    return int.from_bytes(digest[:16], "little") % P


@lru_cache(maxsize=256)
def coefficient_vector(t: int, d: int) -> np.ndarray:
    """Public coefficients (H(t, 0), ..., H(t, d-1)) as a read-only uint64 array.

    Cached, since every key evaluated at iteration t shares them; read-only,
    since a write would corrupt every later mask of that iteration. Equal to
    ``hash_to_field(DOMAIN_TAG, t, i)`` for each i: the 16-byte digest prefix
    lo + 2^64 * hi is reduced as lo + 8 * (hi mod p), since 2^64 = 8 (mod p).
    """
    digests = bytearray()
    for i in range(d):
        h = _TAGGED.copy()
        h.update(_INDEX.pack(t, i))
        digests += h.digest()[:16]
    words = np.frombuffer(digests, dtype="<u8").reshape(d, 2)
    lo, hi = field.fold(words[:, 0]), field.fold(words[:, 1])
    coeffs = field.vec_add(lo, field.fold(hi << 3))
    coeffs.setflags(write=False)
    return coeffs


def evaluate(key: int, t: int, d: int) -> np.ndarray:
    """Mask vector for (key, iteration t) of dimension d."""
    if d < 1:
        raise ValueError("mask dimension must be >= 1")
    return field.mulmod(key, coefficient_vector(t, d))


def precompute_masks(key: int, num_iterations: int, d: int) -> np.ndarray:
    """Read-only (num_iterations, d) table whose row t is bitwise equal to
    ``evaluate(key, t, d)``; lets a device front-load all mask computation."""
    if num_iterations < 1:
        raise ValueError("need at least one iteration")
    if d < 1:
        raise ValueError("mask dimension must be >= 1")
    table = field.mulmod(key, np.stack([coefficient_vector(t, d) for t in range(num_iterations)]))
    table.setflags(write=False)
    return table
