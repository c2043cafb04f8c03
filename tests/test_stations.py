"""The base stations as one share matrix (``protocol.Stations``).

The reference is one station at a time in plain Python ints: a station's
answer to an online list is ``sum(ys) % p`` over its shares of the listed
devices, expanded by ``khprf.evaluate`` in EVALUATED mode, or its
abstention when it lacks one of them.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import hash_to_field
from secagg5g import khprf
from secagg5g.field import P, FixedPointCodec
from secagg5g.messages import MaskShareMode, MaskShareMsg, OnlineListMsg, SetupShareBlock
from secagg5g.protocol import (
    MISSING,
    Fleet,
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
            assert stations.mask_shares([r], online, 5, mode, 6)[0] == want


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
        [alone] = stations.mask_shares([1], online, 0, mode, 4)
        assert isinstance(alone, MissingShareError) and str(alone) == str(second)
    # a list without device 6 is answered by all three; stations 1 and 3
    # answered another list in round 0, so it is round 1's
    assert all(isinstance(a, MaskShareMsg) for a in
               stations.mask_shares([0, 1, 2], OnlineListMsg(0, 1, u64([2, 7])), 1,
                                    MaskShareMode.COMPACT, 4))


def state(stations):
    return stations._ys.tobytes(), stations._ys.shape


def test_each_station_answers_one_list_per_round():
    # stations 1 and 2 hold every share, station 3 lacks device 4's
    stations = Stations([1, 2, 3], 4)
    for row in range(3):
        stations.receive_shares(row, block_for(row + 1, {ue: 10 * row + ue for ue in range(1, 5)
                                                         if (row, ue) != (2, 4)}))
    full = OnlineListMsg(0, 2, u64([1, 2, 3, 4]))
    first = stations.mask_shares([0, 1, 2], full, 2, MaskShareMode.COMPACT, 1)
    assert isinstance(first[2], MissingShareError)
    # the same ids again, through a second message and in either mode
    again = OnlineListMsg(0, 2, u64([1, 2, 3, 4]), registered_n=4)
    assert stations.mask_shares([1, 0], again, 2, MaskShareMode.COMPACT, 1) == first[1::-1]
    stations.mask_shares([0], again, 2, MaskShareMode.EVALUATED, 1)
    # another list for round 2, or a list for round 1: all or nothing
    before = state(stations), dict(stations._answered)
    refused = [
        ([2, 1], OnlineListMsg(0, 2, u64([1, 2, 3])), 2,
         "BS 2 answered another list for round 2"),
        ([2, 0], OnlineListMsg(0, 1, u64([1, 2, 3, 4])), 1,
         "BS 1 answered round 2; round 1 is earlier"),
    ]
    for rows, online, t, match in refused:
        for mode in MaskShareMode:
            with pytest.raises(ProtocolError, match=f"^{match}$"):
                stations.mask_shares(rows, online, t, mode, 1)
        assert (state(stations), dict(stations._answered)) == before
    # station 3 abstained, so it sent nothing and recorded nothing: it
    # answers another list for round 2
    [answer] = stations.mask_shares([2], OnlineListMsg(0, 2, u64([1, 2, 3])), 2,
                                    MaskShareMode.COMPACT, 1)
    assert answer == MaskShareMsg(3, 2, scalar=21 + 22 + 23)
    # a station keeps its own copy of the ids it answered: editing the
    # list's array in place makes another list
    ids = u64([1, 3])
    listed = OnlineListMsg(0, 3, ids)
    stations.mask_shares([0, 1, 2], listed, 3, MaskShareMode.COMPACT, 1)
    ids[1] = 2
    with pytest.raises(ProtocolError, match="another list for round 3"):
        stations.mask_shares([0], listed, 3, MaskShareMode.COMPACT, 1)


@pytest.mark.parametrize("t", [True, 1.0])
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_a_round_that_is_not_an_int_is_refused_before_a_station_records_it(t, mode):
    # a bool or float equals the list's round 1; COMPACT refused it only
    # when the first answer was built, after that row had recorded the list
    stations = Stations([1, 2], 3)
    for row in range(2):
        stations.receive_shares(row, block_for(row + 1, {1: 5, 2: 6, 3: 7}))
    with pytest.raises(ValueError, match=rf"^round t = {t} is not an int in \[0, 2\^64\)$"):
        stations.mask_shares([0, 1], OnlineListMsg(0, 1, u64([1, 2])), t, mode, 2)
    assert stations._answered == {}


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
    # every gather, 96 to 1,435 shares in all, is summed by field.vec_sum;
    # shares near p make both of its limb sums outgrow 32 bits
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
    ([np.int64(0), 0.0], ValueError),
    # numpy would read this list as rows 1 and 0, and a set has no order
    ([True, 0], ValueError), ({0, 1}, ValueError),
    (np.array([True, False]), ValueError), (np.array([[0]]), ValueError),
    (np.array([0.0]), ValueError), (np.array([0, 2**63], dtype=np.uint64), ValueError)])
def test_answering_rows_must_be_distinct_rows(rows, error):
    # the stations' answers and the devices' masking take rows by one rule:
    # each refuses every case alike and changes no state
    stations = Stations([1, 2, 3], 1)
    for row in range(3):
        stations.receive_shares(row, block_for(row + 1, {1: 1}))
    held = stations._ys.copy()
    with pytest.raises(error):
        stations.mask_shares(rows, OnlineListMsg(0, 0, u64([1])), 0, MaskShareMode.COMPACT, 1)
    assert np.array_equal(stations._ys, held)
    fleet = Fleet([1, 2, 3], [4, 5, 6], FixedPointCodec(), 2)
    with pytest.raises(error):
        fleet.mask(rows, np.zeros((len(rows), 2)), 0)
    assert not fleet._masked.any()


@pytest.mark.parametrize("ids", [[1, 1], [0, 2**64], [1.0], [True], [-1], [0], [2, 0]])
def test_stations_refuse_ids_they_cannot_send_under(ids):
    # station j's share point is x = j, and x = 0 is the secret's
    with pytest.raises(ValueError, match="bs_id"):
        Stations(ids, 4)


@pytest.mark.parametrize("registered_n", [0, -1, True, 2.0, None])
def test_stations_register_at_least_one_device(registered_n):
    with pytest.raises(ValueError, match="registered_n"):
        Stations([1, 2], registered_n)


@pytest.mark.parametrize("row", [-1, 3, True, 1.0, np.float64(2.0), "0", None])
def test_storing_and_reading_shares_take_only_a_row_index(row):
    # one int rule for a station's row: -1 stored into the last station's
    # row, and a bool, a float or k raised IndexError or TypeError
    stations = Stations([1, 2, 3], 4)
    stations.receive_shares(2, block_for(3, {1: 10}))
    before = state(stations)
    refused = f"^{re.escape(f'row = {row!r} is not an int in [0, 3)')}$"
    for bs_id in (2, 3):
        with pytest.raises(ValueError, match=refused):
            stations.receive_shares(row, block_for(bs_id, {2: 20}))
    with pytest.raises(ValueError, match=refused):
        stations.stored_shares(row)
    assert state(stations) == before
