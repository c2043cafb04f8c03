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

as a little-endian integer lo + 2^64 * hi, reduced mod p by
``field.fold_wide``. An XOF's shorter output is a prefix of its longer
output, so H(t, i) does not depend on how many coefficients are asked for.

Precomputation covers a whole fleet in one pass: one temporary
(iterations, d) table of these coefficients, stacked from the cached rows,
is multiplied by every device's key into one preallocated (n, iterations, d)
array, block by block, each block written in place into its slice of that
array, so the public part of set-up is paid once rather than once per
device and each block's few temporaries stay in cache. The rows' cache is
the one copy of the coefficients a process keeps. The table derives every
row no live array holds in one pass, reading and reducing the XOF output a
chunk at a time, rather than one row per miss.

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
import weakref
from functools import lru_cache

import numpy as np

from . import field

# protocol constant: keeps H out of other contexts, and names the derivation
DOMAIN_TAG = b"STANDFIRM-H/v2/SHAKE256-CTR64"
BLOCK = 64  # coefficients per XOF call
_COEFF_BYTES = 16

_TAGGED = hashlib.shake_256(DOMAIN_TAG)  # XOF state after the tag, copied per block
_BLOCK_INDEX = struct.Struct("<QQ")
# elements per mulmod block of the fleet precompute, and at most as many
# coefficients per derivation chunk, so that the few 256 KiB temporaries
# alive at once stay in a 2 MiB L2. Measured on a 2-vCPU Xeon at the
# benchmark's three fleet shapes (n = 8, d = 2048; n = 256, d = 10, both 100
# rounds; n = 16, d = 1000, 10 rounds), for 2^13, 2^14, 2^15 and 2^16:
# - warm, best of 5: 22, 18, 14, 16 ms; 4.5, 3.8, 3.8, 3.8 ms; 2.7, 2.1,
#   1.5, 1.3 ms. 2^11 reads 48, 5.1 and 4.9 ms, and one block per device
#   (no blocking) was 2.2x slower at d = 2048 in an earlier layout;
# - the first call in a fresh process, from a cold coefficient cache, as
#   every benchmark pass and CLI run starts (median of 3): 61, 54, 52,
#   45 ms; 8.3, 7.8, 9.7, 10.2 ms; 6.0, 5.5, 5.9, 6.1 ms. 2^11 reads 89,
#   9.7 and 8.8 ms
_BLOCK_ELEMENTS = 1 << 15


def require_round(t) -> None:
    """Refuse a round that is not an int in [0, 2^64), the range H hashes."""
    field.require_int("round t", t, end=1 << 64)


# every derived row still alive, by (t, d); the cached rows are among them,
# so a row the cache holds is never derived again
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# typed, so that a float round or a bool dimension never hits the entry of
# the int it equals, and is refused on its own miss
@lru_cache(maxsize=256, typed=True)
def coefficient_vector(t: int, d: int) -> np.ndarray:
    """Public coefficients (H(t, 0), ..., H(t, d-1)) as a read-only uint64 array.

    Cached, since every key evaluated at iteration t shares them; read-only,
    since a write would corrupt every later mask of that iteration. A miss
    returns the row a live array holds (one a table has just derived), or
    derives that one row with ``_derive_rows``. Raises ValueError for a round
    that is not an int in [0, 2^64) or a d that is not an int >= 1.
    """
    require_round(t)
    field.require_int("mask dimension d", d, 1)
    row = _live.get((t, d))
    if row is None:
        row, = _derive_rows([t], d)
    return row


def _derive_rows(rounds, d: int) -> list[np.ndarray]:
    """Read-only rows coefficient_vector(t, d) for t in ``rounds``, derived in
    one pass, each row its own array.

    One XOF call per block of BLOCK coefficients; a row's last block asks
    only for the bytes it needs. The bytes are gathered and reduced chunk by
    chunk, at most ``_BLOCK_ELEMENTS`` coefficients at a time: whole rows, or
    slices of one row when d is larger.
    """
    span = min(d, _BLOCK_ELEMENTS)  # a multiple of BLOCK, or all of d
    rows = [np.empty(d, dtype=np.uint64) for _ in rounds]
    pieces = [(row, t, start, min(start + span, d))
              for row, t in zip(rows, rounds) for start in range(0, d, span)]
    per_chunk = _BLOCK_ELEMENTS // span
    stream = bytearray(_COEFF_BYTES * span * min(per_chunk, len(pieces)))
    for first in range(0, len(pieces), per_chunk):
        chunk = pieces[first:first + per_chunk]
        size = 0
        for _, t, start, stop in chunk:
            for block in range(start // BLOCK, -(-stop // BLOCK)):
                xof = _TAGGED.copy()
                xof.update(_BLOCK_INDEX.pack(t, block))
                n = _COEFF_BYTES * (min(stop, (block + 1) * BLOCK) - block * BLOCK)
                stream[size:size + n] = xof.digest(n)
                size += n
        words = np.frombuffer(stream, dtype="<u8", count=size // 8).reshape(-1, 2)
        coeffs = field.fold_wide(words[:, 0], words[:, 1])
        at = 0
        for row, _, start, stop in chunk:
            row[start:stop] = coeffs[at:at + stop - start]
            at += stop - start
    for row, t in zip(rows, rounds):
        row.setflags(write=False)
        _live[t, d] = row
    return rows


def require_key(key) -> None:
    """Refuse a key that is not an int in [0, p): a float truncates, and a
    word outside [0, p) escapes mulmod's bounds."""
    field.require_int("key", key, end=field.P)


def evaluate(key, t: int, d: int) -> np.ndarray:
    """Mask vector for (key, iteration t) of dimension d.

    ``key`` may also be a 1-d uint64 array of m keys: then row r of the
    (m, d) result is bitwise ``evaluate(int(key[r]), t, d)``, from one
    ``mulmod``. Raises ValueError for a key outside [0, p) or, for an
    array, one that is not a 1-d uint64 array.
    """
    if isinstance(key, np.ndarray):
        field.require_array("keys", key, np.uint64)
        field.require_canonical(key)
        return field.mulmod(key[:, None], coefficient_vector(t, d))
    require_key(key)
    return field.mulmod(key, coefficient_vector(t, d))


def _coefficient_table(num_iterations: int, d: int) -> np.ndarray:
    """Read-only (num_iterations, d) table whose row t is coefficient_vector(t, d).

    Stacked on each call from ``coefficient_vector``'s cached rows, so the
    coefficients are held once, in that cache, and the table lives only as
    long as its caller holds it. Every row no live array holds is derived
    first, in one ``_derive_rows`` pass. Each row is held here until the
    stack is built, so that a row the stacking evicts from the cache is not
    derived again. Raises ValueError for a d that is not an int >= 1.
    """
    field.require_int("mask dimension d", d, 1)
    held = [_live.get((t, d)) for t in range(num_iterations)]
    missing = [t for t, row in enumerate(held) if row is None]
    held += _derive_rows(missing, d) if missing else []
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
    devices over a slice of the flattened coefficient table, each ``mulmod``
    writing straight into its block.
    """
    for key in keys:
        require_key(key)
    field.require_int("num_iterations", num_iterations, 1)
    coeffs = _coefficient_table(num_iterations, d).reshape(-1)
    key_column = np.array(keys, dtype=np.uint64).reshape(-1, 1)
    cols = min(coeffs.size, _BLOCK_ELEMENTS)
    rows = _BLOCK_ELEMENTS // cols
    out = np.empty((len(key_column), coeffs.size), dtype=np.uint64)
    for i in range(0, len(key_column), rows):
        for j in range(0, coeffs.size, cols):
            field.mulmod(key_column[i:i + rows], coeffs[j:j + cols],
                         out=out[i:i + rows, j:j + cols])
    out = out.reshape(-1, num_iterations, d)
    out.setflags(write=False)
    return out


def precompute_masks(key: int, num_iterations: int, d: int) -> np.ndarray:
    """Read-only (num_iterations, d) table whose row t is bitwise equal to
    ``evaluate(key, t, d)``: one device's row of ``precompute_fleet``."""
    return precompute_fleet([key], num_iterations, d)[0]
