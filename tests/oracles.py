"""Reference computations the library's outputs are checked against.

Python ints never overflow, so each field oracle is ordinary big-integer
arithmetic with ``% P``; nothing here calls the numpy field kernels. The
training reference is the one-device-at-a-time body that the stacked
``fltask.local_train`` must match bit for bit.
"""

import hashlib
import math

import numpy as np

from secagg5g.field import P

# field elements at the limb and reduction boundaries of the uint64 kernels
EDGE_ELEMENTS = (0, 1, 2**32 - 1, 2**32, P - 2, P - 1)


def alpha_summation_oracle(
    partition: list[set[int]],
    updates: dict[int, list[int]],
    alpha: float,
    n: int,
) -> list[list[int] | None]:
    """Ideal summation: per disjoint set, the plaintext field sum if the set
    clears the participation floor ceil(alpha * n), else None.

    The protocol's end-to-end output must match it.
    """
    seen: set[int] = set()
    for group in partition:
        if seen & group:
            raise ValueError("partition sets overlap")
        seen |= group
    floor = math.ceil(alpha * n)
    results: list[list[int] | None] = []
    for group in partition:
        if len(group) < floor:
            results.append(None)
            continue
        members = sorted(group)
        total = [0] * len(updates[members[0]])
        for ue in members:
            total = [(a + int(b)) % P for a, b in zip(total, updates[ue])]
        results.append(total)
    return results


def hash_to_field(domain_tag: bytes, t: int, i: int) -> int:
    """H(t, i) under ``domain_tag``, one index at a time: the plain-int
    reference that ``khprf.coefficient_vector`` is checked against."""
    block, offset = divmod(i, 64)
    xof = hashlib.shake_256(domain_tag + t.to_bytes(8, "little") + block.to_bytes(8, "little"))
    return int.from_bytes(xof.digest(16 * (offset + 1))[-16:], "little") % P


def _sigmoid_masked(v: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |v|
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def local_train_one(
    model, xb: np.ndarray, y: np.ndarray, lr: float, epochs: int, clip_bound: float
) -> np.ndarray:
    """Full-batch logistic-loss gradient descent on one (samples, dim) shard;
    returns the clipped parameter delta."""
    w = np.asarray(model, dtype=np.float64).copy()
    start = w.copy()
    for _ in range(epochs):
        z = xb @ w
        grad = -(xb.T @ (y * _sigmoid_masked(-y * z))) / len(y)
        w -= lr * grad
    return np.clip(w - start, -clip_bound, clip_bound)


def masked_update_plain(domain_tag: bytes, key: int, t: int, w, frac_bits: int) -> list[int]:
    """round(w_i * 2^f) + key * H(t, i) mod p, one Python int per element:
    the reference for a device's round-t masked update."""
    return [
        (round(x * 2**frac_bits) + key * hash_to_field(domain_tag, t, i)) % P
        for i, x in enumerate(w)
    ]
