"""Plaintext FedAvg replay that the secure protocol must match bit for bit.

Independent of ``secagg5g.field``: it encodes with round(x * 2^f) mod p in
plain Python ints, takes the field sum, reads values above p/2 as negative,
divides by the count, and adds the result to the model with the same float
operations in the same order as the protocol's server. It needs only the
training task and the per-round dropout sets.
"""

from __future__ import annotations

import hashlib
import math
import struct

AGGREGATED = "AGGREGATED"
FALLBACK = "FALLBACK"

FIELD_PRIME = (1 << 61) - 1  # the protocol's fixed modulus


def fedavg(task, schedule, n_ues, n_bss, bs_threshold, min_online_fraction,
           rounds, frac_bits=16):
    """Per round: (outcome, global model after the round).

    A round falls back, leaving the model unchanged, when fewer than
    ceil(min_online_fraction * n_ues) devices or fewer than bs_threshold
    stations are online. Every device trains from the last model it was
    sent; only devices online in a round receive that round's model.
    """
    p, half, scale = FIELD_PRIME, FIELD_PRIME >> 1, 1 << frac_bits
    dim = task.dim
    model = [0.0] * dim
    received = {i: [0.0] * dim for i in range(1, n_ues + 1)}
    floor = math.ceil(min_online_fraction * n_ues)
    out = []
    for t in range(rounds):
        ues = [i for i in range(1, n_ues + 1) if i not in schedule.dropped_ues(t)]
        bss = [j for j in range(1, n_bss + 1) if j not in schedule.dropped_bss(t)]
        if len(ues) >= floor and len(bss) >= bs_threshold:
            total = [0] * dim
            for i in ues:
                for c, x in enumerate(task.local_update(i - 1, received[i])):
                    total[c] = (total[c] + round(float(x) * scale) % p) % p
            count = len(ues)
            decoded = [(v - p if v > half else v) / scale for v in total]
            model = [m + v / count for m, v in zip(model, decoded)]
            outcome = AGGREGATED
        else:
            outcome = FALLBACK
        for i in ues:
            received[i] = list(model)
        out.append((outcome, list(model)))
    return out


def model_digest(model) -> str:
    """Bit-exact fingerprint of a float64 model vector."""
    return hashlib.sha256(struct.pack(f"<{len(model)}d", *model)).hexdigest()[:32]


def wrong_rounds(observed: list, expected: list) -> int:
    """Rounds whose observed value differs from the oracle's; a round
    missing on either side counts as wrong."""
    wrong = sum(1 for a, b in zip(observed, expected) if a != b)
    return wrong + abs(len(observed) - len(expected))
