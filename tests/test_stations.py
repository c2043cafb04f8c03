"""The base stations as one share matrix (``protocol.Stations``).

The reference is one station at a time in plain Python ints: a station's
answer to an online list is ``sum(ys) % p`` over its shares of the listed
devices, expanded by ``khprf.evaluate`` in EVALUATED mode, or its
abstention when it lacks one of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import hash_to_field
from secagg5g import khprf
from secagg5g.field import P
from secagg5g.messages import MaskShareMode, MaskShareMsg, OnlineListMsg, SetupShareBlock
from secagg5g.protocol import (
    MISSING,
    BaseStation,
    MissingShareError,
    ProtocolError,
    Stations,
)
from secagg5g.shamir import SecretShare


def u64(values):
    return np.array(values, dtype=np.uint64)


def block_for(bs_id, shares):
    """Station ``bs_id``'s set-up block of ``{sender: y}``, in dict order."""
    n = len(shares)
    return SetupShareBlock(u64(list(shares)), u64([0] * n), u64([bs_id] * n), u64([bs_id] * n),
                           u64(list(shares.values())))


def answer_plain(held, ids, bs_id, t, mode, d):
    """One station's answer from plain ints, as the message or the error text."""
    missing = [ue for ue in ids if ue not in held]
    if missing:
        return f"BS {bs_id} holds no share for UEs {missing}"
    summed = sum(held[ue] for ue in ids) % P
    if mode is MaskShareMode.COMPACT:
        return MaskShareMsg(bs_id, t, scalar=summed)
    coeffs = [hash_to_field(khprf.DOMAIN_TAG, t, i) for i in range(d)]
    return MaskShareMsg(bs_id, t, vector=u64([summed * c % P for c in coeffs]))


share_values = st.one_of(st.integers(0, P - 1), st.integers(P - 4, P - 1))


def unregistered(n):
    """Ids a list can carry that no station registered: past n, up to the
    largest registry size, 2^32 - 1."""
    return st.sampled_from([n + 1, 2**32 - 1]) | st.integers(n + 1, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_pass_answers_equal_each_station_alone(data):
    k = data.draw(st.integers(1, 7), label="k")
    bs_ids = data.draw(st.lists(st.integers(1, 2**64 - 1), min_size=k, max_size=k, unique=True),
                       label="station ids")
    n = data.draw(st.integers(1, 40), label="registered_n")
    devices = list(range(1, n + 1))
    stations = Stations(bs_ids, n)
    held = []
    for row, bs_id in enumerate(bs_ids):
        # most stations hold every share; some lack a few, and receive their
        # shares in one or two blocks, in any order
        mine = data.draw(st.permutations(devices), label=f"order {row}")
        if data.draw(st.booleans(), label=f"lacks some {row}"):
            mine = mine[:data.draw(st.integers(0, len(mine)), label=f"keeps {row}")]
        ys = data.draw(st.lists(share_values, min_size=len(mine), max_size=len(mine)),
                       label=f"ys {row}")
        shares = dict(zip(mine, ys))
        cut = data.draw(st.integers(0, len(mine)), label=f"cut {row}")
        for part in (mine[:cut], mine[cut:]):
            stations.receive_shares(row, block_for(bs_id, {ue: shares[ue] for ue in part}))
        held.append(shares)
        stored = stations.stored_shares(row)
        assert stored == {ue: SecretShare(bs_id, y) for ue, y in shares.items()}
        assert list(stored) == sorted(mine)  # in id order
    listed = data.draw(st.lists(st.sampled_from(devices) | unregistered(n), max_size=35,
                                unique=True), label="online list")
    online = OnlineListMsg(0, 5, u64(sorted(listed)))
    rows = data.draw(st.permutations(range(k)), label="rows")
    rows = rows[:data.draw(st.integers(0, k), label="answering")]
    mode = data.draw(st.sampled_from(list(MaskShareMode)), label="mode")
    answers = stations.mask_shares(rows, online, 5, mode, 6)
    assert len(answers) == len(rows)
    for r, answer in zip(rows, answers):
        want = answer_plain(held[r], sorted(listed), bs_ids[r], 5, mode, 6)
        if isinstance(want, str):
            assert isinstance(answer, MissingShareError) and str(answer) == want
        else:
            assert answer == want
            # one station's row alone answers the same
            assert stations.station(r).mask_share(online, 5, mode, 6) == want


def test_a_station_missing_one_share_abstains_alone():
    stations = Stations([1, 2, 3], 8)
    for row in range(3):
        shares = {ue: 100 * row + ue for ue in range(1, 9) if (row, ue) != (1, 6)}
        stations.receive_shares(row, block_for(row + 1, shares))
    online = OnlineListMsg(0, 0, u64([2, 6, 7]))
    for mode in MaskShareMode:
        first, second, third = stations.mask_shares([2, 1, 0], online, 0, mode, 4)
        assert isinstance(second, MissingShareError)
        assert str(second) == "BS 2 holds no share for UEs [6]"
        assert (first.sender, third.sender) == (3, 1)
        summed = (200 + 2) + (200 + 6) + (200 + 7)
        want = summed if mode is MaskShareMode.COMPACT else khprf.evaluate(summed, 0, 4).tolist()
        assert (first.scalar if mode is MaskShareMode.COMPACT else first.vector.tolist()) == want
        with pytest.raises(MissingShareError, match=r"holds no share for UEs \[6\]"):
            stations.station(1).mask_share(online, 0, mode, 4)
    # a list without device 6 is answered by all three
    assert all(isinstance(a, MaskShareMsg) for a in
               stations.mask_shares([0, 1, 2], OnlineListMsg(0, 0, u64([2, 7])), 0,
                                    MaskShareMode.COMPACT, 4))


def state(stations):
    return stations._ys.tobytes(), stations._ys.shape


@pytest.mark.parametrize("case, shares, match", [
    ("misrouted", {7: 1, 8: 2}, "share for BS 3 delivered to BS 2"),
    ("wrong_point", {7: 1, 8: 2}, "share point x=1 does not match BS index 2"),
    ("repeated_in_block", {7: 1, 8: 2}, "already stores a share for UE 7"),
    ("stored_before", {7: 1, 2: 2}, "already stores a share for UE 2"),
    ("stored_before_large", {9: 1}, "already stores a share for UE 9"),
    # a sender outside 1..9 is refused before any share is stored
    ("outside_0", {7: 1, 0: 2}, "share from a sender outside 1..9"),
    ("outside_n_plus_1", {7: 1, 10: 2}, "share from a sender outside 1..9"),
    ("outside_2_63", {7: 1, 2**63: 2}, "share from a sender outside 1..9"),
    ("outside_2_64_minus_1", {7: 1, 2**64 - 1: 2}, "share from a sender outside 1..9"),
])
def test_refused_share_blocks_leave_the_matrix_unchanged(case, shares, match):
    stations = Stations([1, 2, 3], 9)
    stations.receive_shares(1, block_for(2, {1: 10, 2: 20, 9: 30}))
    stations.receive_shares(0, block_for(1, {5: 50}))
    n = len(shares)
    block = block_for(2, shares)
    if case == "misrouted":
        block = SetupShareBlock(block.senders, block.iterations, u64([3] * n), block.xs, block.ys)
    elif case == "wrong_point":
        block = SetupShareBlock(block.senders, block.iterations, block.targets, u64([1] * n),
                                block.ys)
    elif case == "repeated_in_block":
        block = SetupShareBlock(u64([7, 8, 7]), u64([0] * 3), u64([2] * 3), u64([2] * 3),
                                u64([1, 2, 3]))
    before = state(stations)
    with pytest.raises(ValueError if case.startswith("outside") else ProtocolError, match=match):
        stations.receive_shares(1, block)
    assert state(stations) == before
    # station 2 still holds exactly its first block
    assert stations.stored_shares(1) == {1: SecretShare(2, 10), 2: SecretShare(2, 20),
                                         9: SecretShare(2, 30)}


@pytest.mark.parametrize("devices", [[1, 2], [1, 2, 3]])
def test_a_listed_id_past_the_columns_is_missing(devices):
    # an id past n clips onto column n + 1, which no device has; it must
    # never land on device 1 or n. A list's ids lie in 1..2^32 - 1, so none
    # becomes a negative index on its way to numpy
    n = len(devices)
    stations = Stations([1], n)
    stations.receive_shares(0, block_for(1, {ue: 5 + ue for ue in devices}))
    assert stations._ys[0, [0, n + 1]].tolist() == [MISSING, MISSING]
    for far in (n + 1, n + 2, 2**31, 2**32 - 1):
        [answer] = stations.mask_shares([0], OnlineListMsg(0, 0, u64(sorted({1, n, far}))), 0,
                                        MaskShareMode.COMPACT, 1)
        assert str(answer) == f"BS 1 holds no share for UEs [{far}]"


@pytest.mark.parametrize("k, listed", [(4, 24), (4, 25), (3, 33), (7, 205), (1, 96), (1, 97)])
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_small_and_large_gathers_sum_alike(k, listed, mode):
    # every gather, 96 to 1,435 shares in all, is summed as its low and high
    # 32 bits; shares near p make both sums outgrow 32 bits
    rng = np.random.default_rng(listed)
    devices = rng.permutation(np.arange(1, 257, dtype=np.uint64)).tolist()
    stations, held = Stations(range(1, k + 1), 256), []
    for row in range(k):
        shares = dict(zip(devices, (P - 1 - rng.integers(0, 2**40, 256)).tolist()))
        stations.receive_shares(row, block_for(row + 1, shares))
        held.append(shares)
    ids = sorted(devices[:listed])
    answers = stations.mask_shares(list(range(k))[::-1], OnlineListMsg(0, 3, u64(ids)), 3, mode, 5)
    for r, answer in zip(range(k - 1, -1, -1), answers):
        assert answer == answer_plain(held[r], ids, r + 1, 3, mode, 5)


@pytest.mark.parametrize("rows, error", [
    ([0, 0], ProtocolError), ([3], ValueError), ([-1], ValueError), ([1.0], ValueError),
    ([True], ValueError), (["0"], ValueError),
    # each row is checked before the duplicate test, which would otherwise
    # hash a list or a set, or take True for 1 and 0.0 for 0
    ([[0]], ValueError), ([{0}], ValueError), ([True, 1], ValueError),
    ([np.int64(0), 0.0], ValueError)])
def test_answering_rows_must_be_distinct_rows(rows, error):
    stations = Stations([1, 2, 3], 1)
    for row in range(3):
        stations.receive_shares(row, block_for(row + 1, {1: 1}))
    with pytest.raises(error):
        stations.mask_shares(rows, OnlineListMsg(0, 0, u64([1])), 0, MaskShareMode.COMPACT, 1)


@pytest.mark.parametrize("ids", [[1, 1], [0, 2**64], [1.0], [True], [-1], [0], [2, 0]])
def test_stations_refuse_ids_they_cannot_send_under(ids):
    # station j's share point is x = j, and x = 0 is the secret's
    with pytest.raises(ValueError, match="bs_id"):
        Stations(ids, 4)


@pytest.mark.parametrize("registered_n", [0, -1, True, 2.0, None])
def test_stations_register_at_least_one_device(registered_n):
    with pytest.raises(ValueError, match="registered_n"):
        Stations([1, 2], registered_n)


def test_a_station_is_a_view_of_one_row():
    stations = Stations([5, 6], 3)
    view = stations.station(1)
    assert isinstance(view, BaseStation) and view.bs_id == 6
    stations.receive_shares(1, block_for(6, {3: 33}))
    assert stations.stored_shares(1) == {3: SecretShare(6, 33)} == view.stored_shares
    assert stations.stored_shares(0) == {}
    with pytest.raises(AttributeError):
        view.stored_shares = {}
    for row in (2, -1):
        with pytest.raises(ValueError):
            stations.station(row)
