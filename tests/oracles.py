"""Plain-int reference computations the protocol's outputs are checked against.

Python ints never overflow, so each oracle is ordinary big-integer
arithmetic with ``% P``; nothing here calls the numpy field kernels.
"""

import math

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
