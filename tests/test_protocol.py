"""Role state-machine tests, driven directly (no simulator).

The recurring oracle: compute per-device masks straight from the device
keys and sum them in plain big-int arithmetic, then check the protocol's
share-mediated path lands on exactly the same field vectors.
"""

import logging
import math
import random
import re
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secagg5g import field, khprf, protocol
from secagg5g.field import P, FixedPointCodec, decode_sum, encode_update
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateBlock,
    MaskedUpdateMsg,
    MaskShareMode,
    MaskShareMsg,
    OnlineListMsg,
    SetupShareBlock,
    SetupShareMsg,
    from_bytes,
    payload_length,
)
from secagg5g.protocol import (
    Aggregator,
    BaseStation,
    CollectStatus,
    Fleet,
    MissingShareError,
    ONE_STATION_DEVICES,
    ProtocolError,
    Stations,
    UserEquipment,
    generate_key,
    route_setup_shares,
)
from oracles import EDGE_ELEMENTS, alpha_summation_oracle, hash_to_field, masked_update_plain
from secagg5g.shamir import AccessStructure, SecretShare
from secagg5g.simnet import SimConfig

CODEC = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=1024)


def u64(values):
    return np.array(values, dtype=np.uint64)


# the device ids of a make_fleet of the default size
DEVICES = list(range(1, 9))


def make_fleet(seed, n=8, k=4, t=3, d=12, alpha=1.0 / 3.0):
    """Fully set-up population: every BS holds every device's share. The
    devices are the rows of one ``Fleet``; device i is row i - 1."""
    rng = random.Random(seed)
    acc = AccessStructure(t, k)
    fleet = Fleet(range(1, n + 1), [generate_key(rng) for _ in range(n)], CODEC, d)
    bss = {j: BaseStation(bs_id=j) for j in range(1, k + 1)}
    for j, block in enumerate(fleet.setup(acc, rng), start=1):
        bss[j].stations.receive_shares(0, block)
    af = Aggregator(registered_n=n, min_online_fraction=alpha, bs_threshold=acc,
                    codec=CODEC, dim=d)
    return fleet, bss, af, acc, rng


def masked(fleet, i, w, t):
    """Device i's masked update of ``w`` for round t: its row of the fleet alone."""
    return fleet.mask([i - 1], [w], t)[0]


def key(fleet, i):
    """Device i's key as a Python int."""
    return int(fleet.keys[i - 1])


def last_rounds(fleet):
    """Each device's last round masked, -1 before its first."""
    return [t if done else -1 for t, done in zip(fleet._last.tolist(), fleet._masked.tolist())]


def run_round(fleet, bss, af, t, online_ue_ids, online_bs_ids, mode, d, updates):
    """One aggregation round outside the simulator; returns (list, mask)."""
    af.begin_round(t)
    for i in online_ue_ids:
        af.collect_update(masked(fleet, i, updates[i], t))
    online = af.finalize_online_list()
    if online is None:
        return None, None
    shares = {j: bss[j].mask_share(online, t, mode, d) for j in online_bs_ids}
    return online, af.recover_mask(shares, mode)


# -- setup ------------------------------------------------------------------


def test_generate_key_in_range():
    rng = random.Random(9)
    samples = [generate_key(rng) for _ in range(1000)]
    assert all(0 <= s < P for s in samples)
    assert len(set(samples)) > 990  # collisions in Z_p would be astronomical


def test_setup_emits_one_share_per_bs():
    rng = random.Random(0)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    msgs = ue.setup(AccessStructure(3, 4), rng)
    assert len(msgs) == 4
    assert {m.share.x for m in msgs} == {1, 2, 3, 4}
    assert all(m.target_bs == m.share.x for m in msgs)


def test_setup_shares_recover_the_key():
    rng = random.Random(1)
    secret = generate_key(rng)
    msgs = UserEquipment(ue_id=1, key=secret, codec=CODEC, dim=4).setup(AccessStructure(3, 4), rng)
    from secagg5g.shamir import recover

    for subset in combinations([m.share for m in msgs], 3):
        assert recover(subset, AccessStructure(3, 4)) == secret


def test_setup_threshold_equal_to_total():
    rng = random.Random(2)
    secret = generate_key(rng)
    msgs = UserEquipment(ue_id=1, key=secret, codec=CODEC, dim=4).setup(AccessStructure(4, 4), rng)
    from secagg5g.shamir import recover

    shares = [m.share for m in msgs]
    assert recover(shares, AccessStructure(4, 4)) == secret
    assert recover(shares[:3], AccessStructure(4, 4)) is None


def test_setup_is_one_shot():
    rng = random.Random(3)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    ue.setup(AccessStructure(3, 4), rng)
    with pytest.raises(ProtocolError):
        ue.setup(AccessStructure(3, 4), rng)


def test_route_shares_delivers_each_bs_one_share():
    rng = random.Random(4)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    delivery = route_setup_shares(ue.setup(AccessStructure(3, 4), rng), {1, 2, 3, 4})
    assert sorted(delivery) == [1, 2, 3, 4]
    bs = BaseStation(bs_id=2)
    bs.receive_share(delivery[2])
    assert bs.stations.stored_shares(0)[1].x == 2


def test_route_shares_rejects_duplicates_and_unknown_bs():
    rng = random.Random(5)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    msgs = ue.setup(AccessStructure(3, 4), rng)
    with pytest.raises(ValueError):
        route_setup_shares(msgs + [msgs[0]], {1, 2, 3, 4})
    with pytest.raises(ValueError):
        route_setup_shares(msgs, {1, 2, 3})


def test_bs_rejects_misrouted_or_duplicate_shares():
    rng = random.Random(6)
    ue = UserEquipment(ue_id=7, key=generate_key(rng), codec=CODEC, dim=4)
    delivery = route_setup_shares(ue.setup(AccessStructure(3, 4), rng), {1, 2, 3, 4})
    bs = BaseStation(bs_id=1)
    with pytest.raises(ProtocolError):
        bs.receive_share(delivery[2])
    bs.receive_share(delivery[1])
    with pytest.raises(ProtocolError):
        bs.receive_share(delivery[1])


def test_fleet_setup_shares_every_key_as_its_devices_would_one_by_one():
    # one pass over the fleet draws and evaluates what device-by-device
    # set-up does, so every share is bit-identical
    rng = random.Random(8)
    keys = [generate_key(rng) for _ in range(5)]
    acc = AccessStructure(3, 4)
    blocks = Fleet(range(11, 16), keys, CODEC, 4).setup(acc, random.Random(9))
    one_rng = random.Random(9)
    singles = [UserEquipment(11 + r, key, CODEC, 4).setup(acc, one_rng)
               for r, key in enumerate(keys)]
    assert len(blocks) == 4
    for j, block in enumerate(blocks, start=1):
        assert isinstance(block, SetupShareBlock)
        assert block == [msgs[j - 1] for msgs in singles]
        assert block.targets.tolist() == block.xs.tolist() == [j] * 5
        assert block.iterations.tolist() == [0] * 5


def test_fleet_setup_is_all_or_nothing():
    # set-up is one-shot for the whole fleet, and a refused set-up draws nothing
    rng = random.Random(10)
    fleet = Fleet(range(1, 5), [generate_key(rng) for _ in range(4)], CODEC, 4)
    acc = AccessStructure(2, 3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="acc must be a AccessStructure"):
        fleet.setup((2, 3), rng)
    assert rng.getstate() == state and not fleet._setup_done
    assert [len(block) for block in fleet.setup(acc, rng)] == [4, 4, 4]
    assert fleet._setup_done
    state = rng.getstate()
    with pytest.raises(ProtocolError, match="^the fleet already completed setup$"):
        fleet.setup(acc, rng)
    assert rng.getstate() == state


def station_block(bs_id, senders, x=None, target=None):
    n = len(senders)
    return SetupShareBlock(u64(senders), u64([0] * n), u64([target or bs_id] * n),
                           u64([x or bs_id] * n), u64(range(100, 100 + n)))


@pytest.mark.parametrize("block, match", [
    (station_block(2, [1, 2, 3], target=3), "share for BS 3 delivered to BS 2"),
    (station_block(2, [1, 2, 3], x=1), "share point x=1 does not match BS index 2"),
    (station_block(2, [4, 5, 4]), "already stores a share for UE 4"),
    (station_block(2, [4, 1]), "already stores a share for UE 1"),
], ids=["misrouted", "wrong_point", "repeated_in_block", "stored_before"])
def test_station_refuses_a_share_block_all_or_nothing(block, match):
    stations = Stations([2], ONE_STATION_DEVICES)
    stations.receive_shares(0, station_block(2, [1, 2]))
    before = stations.stored_shares(0)
    with pytest.raises(ProtocolError, match=match):
        stations.receive_shares(0, block)
    assert stations.stored_shares(0) == before


def test_station_stores_a_block_as_python_int_shares_in_id_order():
    stations = Stations([3], ONE_STATION_DEVICES)
    stations.receive_shares(0, station_block(3, [7, 2, 9]))
    stations.receive_shares(0, station_block(3, []))
    stored = stations.stored_shares(0)
    assert list(stored) == [2, 7, 9]
    assert stored[2] == SecretShare(3, 101)
    assert all(type(v) is int for share in stored.values() for v in (share.x, share.y))


@pytest.mark.parametrize("senders", [[0], [ONE_STATION_DEVICES + 1], [5, 2**63], [2**64 - 1]])
def test_a_standalone_station_registers_devices_1_to_its_limit(senders):
    # a standalone station keys its shares by the devices 1..1024, the most
    # the default codec decodes the sum of, and refuses any other sender
    assert ONE_STATION_DEVICES == FixedPointCodec(16, 1.0).max_summands == 1024
    bs = BaseStation(bs_id=2)
    bs.stations.receive_shares(0, station_block(2, [1, ONE_STATION_DEVICES]))
    before = bs.stations.stored_shares(0)
    with pytest.raises(ValueError, match=f"share from a sender outside 1..{ONE_STATION_DEVICES}"):
        bs.stations.receive_shares(0, station_block(2, senders))
    with pytest.raises(ValueError, match="outside"):
        bs.receive_share(station_block(2, senders[-1:])[0])
    assert bs.stations.stored_shares(0) == before


# -- masking ----------------------------------------------------------------


def test_zero_update_payload_is_the_mask():
    fleet, *_ = make_fleet(seed=10)
    msg = masked(fleet, 1, [0.0] * 12, t=0)
    assert msg.payload.tolist() == khprf.evaluate(key(fleet, 1), 0, 12).tolist()


def test_unmasking_recovers_the_update():
    fleet, *_ = make_fleet(seed=11)
    rng = random.Random(0)
    w = [rng.uniform(-1, 1) for _ in range(12)]
    msg = masked(fleet, 2, w, t=3)
    bare = field.vec_sub(list(msg.payload), khprf.evaluate(key(fleet, 2), 3, 12))
    decoded = decode_sum(bare, CODEC, 1)
    assert max(abs(a - b) for a, b in zip(decoded, w)) <= 2.0**-17


def test_distinct_keys_give_distinct_masks():
    fleet, *_ = make_fleet(seed=12)
    m1 = masked(fleet, 1, [0.0] * 12, t=0)
    m2 = masked(fleet, 2, [0.0] * 12, t=0)
    assert m1.payload.tolist() != m2.payload.tolist()


def test_mask_reuse_rejected():
    fleet, *_ = make_fleet(seed=13)
    masked(fleet, 1, [0.0] * 12, t=0)
    with pytest.raises(ProtocolError):
        masked(fleet, 1, [0.1] * 12, t=0)


def test_mask_for_an_earlier_round_rejected():
    # masks are used in increasing round order; going back could reuse one
    fleet, *_ = make_fleet(seed=13)
    masked(fleet, 1, [0.0] * 12, t=7)
    with pytest.raises(ProtocolError):
        masked(fleet, 1, [0.1] * 12, t=5)
    assert masked(fleet, 1, [0.1] * 12, t=8).iteration == 8


def test_masking_bound_violation_rejected():
    fleet, *_ = make_fleet(seed=14)
    with pytest.raises(ValueError):
        masked(fleet, 1, [2.0] * 12, t=0)


def test_precomputed_masks_bitwise_equal_on_the_fly():
    fleet, *_ = make_fleet(seed=15)
    w = [0.25] * 12
    spontaneous = masked(fleet, 1, w, t=5)
    twin = UserEquipment(ue_id=1, key=key(fleet, 1), codec=CODEC, dim=12)  # precomputed path
    twin.precompute(10)
    precomputed = twin.masked_update(w, t=5)
    assert spontaneous.payload.tolist() == precomputed.payload.tolist()


# -- the fleet holder ---------------------------------------------------------


@pytest.mark.parametrize("change, match", [
    (dict(ids=[1, 2, -1]), "ue_id"),
    (dict(ids=[1, 2, 2**64]), "ue_id"),
    (dict(ids=[1, 2, 3.0]), "ue_id"),
    (dict(ids=[2, 3, True]), "ue_id"),
    (dict(ids=[1, 2, 1]), "indistinguishable"),
    (dict(ids=[1, 2, np.uint64(2)]), "indistinguishable"),
    (dict(keys=[1, 2, P]), "key"),
    (dict(keys=[1, 2, -1]), "key"),
    (dict(keys=[1, 2, 1.5]), "key"),
    (dict(keys=[1, 2]), "2 keys for 3 devices"),
    (dict(dim=0), "dim"),
    (dict(dim=True), "dim"),
    (dict(dim=4.0), "dim"),
    (dict(codec="x"), "codec must be a FixedPointCodec, got 'x'"),
    (dict(codec=None), "codec must be a FixedPointCodec"),
], ids=["id_negative", "id_2^64", "id_float", "id_bool", "id_repeated", "id_repeated_uint64",
        "key_p", "key_negative", "key_float", "keys_short", "dim_zero", "dim_bool", "dim_float",
        "codec_str", "codec_none"])
def test_fleet_refuses_what_it_cannot_hold(change, match):
    # a repeated id is new: the server could not tell the two devices apart
    args = dict(ids=[1, 2, 3], keys=[1, 2, 3], codec=CODEC, dim=4)
    with pytest.raises(ValueError, match=match):
        Fleet(**{**args, **change})


# -- precomputing a fleet in one call -------------------------------------------


def test_fleet_precompute_gives_each_device_its_row():
    fleet, *_ = make_fleet(seed=40)
    assert fleet.masks is None
    fleet.precompute(5)
    assert fleet.masks.shape == (8, 5, 12) and not fleet.masks.flags.writeable
    for i in DEVICES:
        assert np.array_equal(fleet.masks[i - 1], khprf.precompute_masks(key(fleet, i), 5, 12))
    # a device precomputed alone gets the same table
    twin = UserEquipment(ue_id=3, key=key(fleet, 3), codec=CODEC, dim=12)
    twin.precompute(5)
    assert np.array_equal(twin.fleet.masks[0], fleet.masks[2])


@pytest.mark.parametrize("fault", ["iterations", "iterations_after_a_table"])
def test_fleet_precompute_is_all_or_nothing(fault):
    # keys and dim are checked when the fleet is built, so only the count is left
    fleet, *_ = make_fleet(seed=41)
    table = None
    if fault == "iterations_after_a_table":
        fleet.precompute(3)
        table = fleet.masks
    # True was a table of one round, refused only once computed
    for iterations in (2.5, True):
        with pytest.raises(ValueError, match="num_iterations"):
            fleet.precompute(iterations)
        assert fleet.masks is table


def test_fleet_precompute_of_no_devices_is_a_no_op():
    fleet = Fleet([], [], CODEC, 12)
    assert fleet.precompute(4) is None
    assert fleet.masks.shape == (0, 4, 12)


# -- masking a fleet in one call ----------------------------------------------

keys = st.sampled_from(EDGE_ELEMENTS) | st.integers(min_value=0, max_value=P - 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fleet_masking_matches_each_device_and_plain_ints(data):
    n = data.draw(st.integers(min_value=1, max_value=8), label="n")
    d = data.draw(st.integers(min_value=1, max_value=70), label="d")
    t = data.draw(st.integers(min_value=0, max_value=12), label="t")
    fleet_keys = data.draw(st.lists(keys, min_size=n, max_size=n), label="keys")
    # any subset of the rows, in any order
    rows = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="rows")
    # no table, a table that ends at or before t, or one that covers t
    table = data.draw(st.none() | st.integers(min_value=1, max_value=16), label="table")
    row = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=d, max_size=d)
    w = data.draw(st.lists(row, min_size=len(rows), max_size=len(rows)), label="w")

    def precomputed(holder):
        if table is not None:
            holder.precompute(table)
        return holder

    block = precomputed(Fleet(range(1, n + 1), fleet_keys, CODEC, d)).mask(
        rows, np.array(w).reshape(len(rows), d), t)
    # masks are one-use, so each device alone is a fresh device with its row's key
    alone = [precomputed(UserEquipment(r + 1, fleet_keys[r], CODEC, d)).masked_update(w_r, t)
             for r, w_r in zip(rows, w)]
    assert [(msg.sender, msg.iteration) for msg in block] == [(r + 1, t) for r in rows]
    for msg, own, r, w_r in zip(block, alone, rows, w):
        want = masked_update_plain(khprf.DOMAIN_TAG, fleet_keys[r], t, w_r, CODEC.frac_bits)
        assert msg.payload.tolist() == own.payload.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_one_row_forms_are_the_holders_rows(data):
    # a standalone UserEquipment or BaseStation is the one row of its own
    # holder: each row of a holder's answer is what that row's device or
    # station gives alone, round after round
    n = data.draw(st.integers(1, 8), label="n")
    d = data.draw(st.integers(1, 9), label="d")
    ids = data.draw(st.lists(st.integers(1, 2**64 - 1), min_size=n, max_size=n, unique=True),
                    label="ids")
    fleet_keys = data.draw(st.lists(keys, min_size=n, max_size=n), label="keys")
    fleet = Fleet(ids, fleet_keys, CODEC, d)
    devices = [UserEquipment(i, k, CODEC, d) for i, k in zip(ids, fleet_keys)]
    # stations 1..k over the devices 1..n; some lack a share and abstain
    k = data.draw(st.integers(1, 4), label="k")
    stations, alone = Stations(range(1, k + 1), n), [BaseStation(j) for j in range(1, k + 1)]
    for j in range(1, k + 1):
        held = data.draw(st.just(list(range(1, n + 1))) | st.lists(st.integers(1, n), unique=True),
                         label=f"station {j} holds")
        ys = data.draw(st.lists(keys, min_size=len(held), max_size=len(held)), label=f"ys {j}")
        block = SetupShareBlock(u64(held), u64([0] * len(held)), u64([j] * len(held)),
                                u64([j] * len(held)), u64(ys))
        stations.receive_shares(j - 1, block)
        for msg in block:
            alone[j - 1].receive_share(msg)
    rounds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True),
                       label="rounds")
    for t in sorted(rounds):
        rows = data.draw(st.permutations(range(n)), label=f"order {t}")
        rows = rows[:data.draw(st.integers(0, n), label=f"masking {t}")]
        w = data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
                               min_size=len(rows), max_size=len(rows)), label=f"w {t}")
        block = fleet.mask(rows, np.array(w).reshape(len(rows), d), t)
        assert list(block) == [devices[r].masked_update(w_r, t) for r, w_r in zip(rows, w)]
        listed = data.draw(st.sets(st.integers(1, n), min_size=1), label=f"list {t}")
        online = OnlineListMsg(0, t, u64(sorted(listed)))
        rows = data.draw(st.permutations(range(k)), label=f"answering {t}")
        for mode in MaskShareMode:
            for r, answer in zip(rows, stations.mask_shares(rows, online, t, mode, d)):
                if isinstance(answer, MissingShareError):
                    with pytest.raises(MissingShareError, match=f"^{re.escape(str(answer))}$"):
                        alone[r].mask_share(online, t, mode, d)
                else:
                    assert alone[r].mask_share(online, t, mode, d) == answer


def test_fleet_masking_is_all_or_nothing():
    fleet, *_ = make_fleet(seed=17)
    masked(fleet, 3, [0.0] * 12, t=2)
    with pytest.raises(ProtocolError):
        fleet.mask([0, 1, 2, 3], np.zeros((4, 12)), 2)
    assert last_rounds(fleet) == [-1, -1, 2] + [-1] * 5
    # an update beyond the magnitude bound spends no device's round either
    bad = np.zeros((3, 12))
    bad[2, 5] = 1.5
    with pytest.raises(ValueError):
        fleet.mask([0, 1, 3], bad, 2)
    assert last_rounds(fleet) == [-1, -1, 2] + [-1] * 5
    msgs = fleet.mask([0, 1, 3], np.zeros((3, 12)), 2)
    assert [msg.sender for msg in msgs] == [1, 2, 4]
    assert last_rounds(fleet) == [2, 2, 2, 2] + [-1] * 4


def test_fleet_masking_refuses_a_device_listed_twice():
    # both rows would carry the same round mask, and their difference would
    # open the two updates' difference
    fleet, *_ = make_fleet(seed=18)
    with pytest.raises(ProtocolError):
        fleet.mask([0, 1, 0], np.zeros((3, 12)), 0)
    assert last_rounds(fleet) == [-1] * 8


# each refused call names rows 0 and 1 of an 8-device fleet whose row 2
# masked round 2; round 3 is every call's round unless the case changes it
REFUSED_MASKINGS = {
    "negative_row": (ValueError, dict(rows=[0, -1])),
    "row_n": (ValueError, dict(rows=[0, 8])),
    "row_2^64-1": (ValueError, dict(rows=np.array([0, 2**64 - 1], dtype=np.uint64))),
    "float_rows": (ValueError, dict(rows=[0.0, 1.0])),
    "2-d_rows": (ValueError, dict(rows=[[0, 1]])),
    "row_twice": (ProtocolError, dict(rows=[0, 1, 1], updates=np.zeros((3, 12)))),
    "spent_row": (ProtocolError, dict(rows=[0, 2], t=2)),
    "earlier_round": (ProtocolError, dict(rows=[2, 1], t=1)),
    "over_bound": (ValueError, dict(updates=np.array([[0.0] * 12, [0.0] * 11 + [1.5]]))),
    "nan_update": (ValueError, dict(updates=np.array([[0.0] * 12, [math.nan] * 12]))),
    "wrong_dim": (ValueError, dict(updates=np.zeros((2, 11)))),
    "too_few_updates": (ValueError, dict(updates=np.zeros((1, 12)))),
    "negative_t": (ValueError, dict(t=-1)),
    "float_t": (ValueError, dict(t=3.0)),
}


@pytest.mark.parametrize("precompute", [False, True], ids=["on_the_fly", "precomputed"])
@pytest.mark.parametrize("case", list(REFUSED_MASKINGS))
def test_refused_fleet_masking_advances_no_device(case, precompute):
    error, change = REFUSED_MASKINGS[case]
    fleet, *_ = make_fleet(seed=44)
    if precompute:
        fleet.precompute(4)
    fleet.mask([2], np.zeros((1, 12)), 2)
    before = last_rounds(fleet)
    call = {"rows": [0, 1], "updates": np.zeros((2, 12)), "t": 3, **change}
    with pytest.raises(error):
        fleet.mask(**call)
    assert last_rounds(fleet) == before
    # the refusal spent nothing: the two rows still mask round 3
    assert len(fleet.mask([0, 1], np.zeros((2, 12)), 3)) == 2


def test_fleet_masking_of_no_devices_is_empty():
    fleet, *_ = make_fleet(seed=19)
    assert fleet.mask([], np.zeros((0, 12)), 0) == []
    assert fleet.mask(np.array([], dtype=np.intp), np.zeros((0, 12)), 0) == []


def test_fleet_masking_gives_one_checked_block():
    fleet, *_ = make_fleet(seed=27)
    w = np.linspace(-0.5, 0.5, 36).reshape(3, 12)
    block = fleet.mask([1, 4, 6], w, 4)
    assert type(block) is MaskedUpdateBlock
    assert block.senders.tolist() == [2, 5, 7] and block.iterations.tolist() == [4, 4, 4]
    assert block.payloads.shape == (3, 12)
    assert [msg.payload.tolist() for msg in block] == block.payloads.tolist()


@pytest.mark.parametrize("ue_id", [0, -1, 2**64, 1.5, "1", None])
def test_device_id_must_fit_the_sender_field(ue_id):
    # the id goes on the wire as the sender of the device's masked updates,
    # and 0 is the server's
    with pytest.raises(ValueError, match="ue_id"):
        UserEquipment(ue_id=ue_id, key=1, codec=CODEC, dim=4)


@pytest.mark.parametrize("t", [-1, 2**64, 1.5, 1.0, None, True])
@pytest.mark.parametrize("precompute", [False, True], ids=["on_the_fly", "precomputed"])
def test_round_outside_the_word_range_is_refused(precompute, t):
    # once a ValueError, not struct.error or IndexError, and no device advances
    fleet, *_ = make_fleet(seed=26)
    if precompute:
        fleet.precompute(4)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        fleet.mask([0, 1], np.zeros((2, 12)), t)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        masked(fleet, 3, [0.0] * 12, t)
    assert last_rounds(fleet) == [-1] * 8
    assert masked(fleet, 1, [0.0] * 12, 2**64 - 1).iteration == 2**64 - 1
    # the last round masked is held in full: no round is later
    assert last_rounds(fleet)[0] == 2**64 - 1
    with pytest.raises(ProtocolError):
        fleet.mask([1, 0], np.zeros((2, 12)), 2**64 - 1)


# -- collection and the online list ------------------------------------------


def test_collect_eight_devices():
    fleet, bss, af, acc, _ = make_fleet(seed=20)
    af.begin_round(0)
    for i in range(1, 9):
        assert af.collect_update(masked(fleet, i, [0.0] * 12, 0)) is CollectStatus.ACCEPTED
    online = af.finalize_online_list()
    assert online.ue_ids.tolist() == list(range(1, 9))


def test_duplicate_update_rejected():
    fleet, bss, af, *_ = make_fleet(seed=21)
    af.begin_round(0)
    msg = masked(fleet, 1, [0.0] * 12, 0)
    assert af.collect_update(msg) is CollectStatus.ACCEPTED
    assert af.collect_update(msg) is CollectStatus.DUPLICATE
    assert len(af.masked_updates) == 1


def test_out_of_field_update_rejected():
    # a uint64 >= p would wrap mod 2^64 inside the kernels, not mod p
    fleet, bss, af, *_ = make_fleet(seed=25)
    af.begin_round(0)
    good = masked(fleet, 1, [0.0] * 12, 0).payload.tolist()
    for bad in (P, 2**64 - 1):
        with pytest.raises(ValueError):
            af.collect_update(MaskedUpdateMsg(2, 0, u64(good[:5] + [bad] + good[6:])))
    assert not af.masked_updates


@pytest.mark.parametrize("sender", [0, 4, 999, 2**63, 2**64 - 1])
def test_update_from_an_unregistered_sender_is_refused(sender):
    # registered devices are 1..registered_n; 0 is the server's own id
    fleet, _, af, *_ = make_fleet(seed=27, n=3)
    af.begin_round(0)
    af.collect_update(masked(fleet, 1, [0.0] * 12, 0))
    before = af.masked_updates
    forged = MaskedUpdateMsg(sender, 0, u64([0] * 12))
    with pytest.raises(ValueError, match="outside 1..3"):
        af.collect_update(forged)
    # all or nothing: the registered row in the same block is not logged either
    with pytest.raises(ValueError, match="outside 1..3"):
        af.collect_block(MaskedUpdateBlock.of([masked(fleet, 2, [0.0] * 12, 0), forged]))
    assert af.masked_updates.keys() == before.keys()
    assert np.array_equal(af.masked_updates[1], before[1])
    assert af.finalize_online_list().ue_ids.tolist() == [1]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, 1.5, math.inf, True, False, "0.5", None])
def test_participation_floor_must_be_a_fraction(value):
    # 0 or below fixed an empty list and gave a NaN model, NaN failed in
    # math.ceil, 1.5 set a floor of 5 for 3 devices and True ran as 1.0;
    # the server and the simulator's config refuse with one shared check
    args = dict(registered_n=3, bs_threshold=AccessStructure(3, 4), codec=CODEC, dim=12)
    match = r"min_online_fraction = .* is not (a real number|in \(0, 1\])"
    with pytest.raises(ValueError, match=match):
        Aggregator(**args, min_online_fraction=value)
    with pytest.raises(ValueError, match=match):
        SimConfig(min_online_fraction=value)
    for ok in (1.0, 1.0 / 3.0, 1, np.float64(0.5)):
        assert Aggregator(**args, min_online_fraction=ok).min_online_fraction == ok


@pytest.mark.parametrize("value", [0, -1, True, 2.5, "3", None])
@pytest.mark.parametrize("name", ["registered_n", "dim"])
def test_aggregator_refuses_a_size_that_is_not_a_positive_int(name, value):
    args = dict(registered_n=3, min_online_fraction=1.0, bs_threshold=AccessStructure(3, 4),
                codec=CODEC, dim=12)
    with pytest.raises(ValueError, match=f"{name} = .* is not an int >= 1"):
        Aggregator(**{**args, name: value})


@pytest.mark.parametrize("name, value, kind", [
    ("bs_threshold", 3, "AccessStructure"),
    ("bs_threshold", (3, 4), "AccessStructure"),
    ("codec", "x", "FixedPointCodec"),
    ("codec", None, "FixedPointCodec"),
])
def test_aggregator_refuses_a_collaborator_of_the_wrong_type(name, value, kind):
    # a threshold of 3 was accepted and raised AttributeError at the first
    # recover_mask, a codec "x" at the first unmask_and_aggregate
    args = dict(registered_n=3, min_online_fraction=1.0, bs_threshold=AccessStructure(3, 4),
                codec=CODEC, dim=12)
    with pytest.raises(ValueError, match=f"{name} must be a {kind}, got "):
        Aggregator(**{**args, name: value})


def test_a_device_refuses_a_codec_that_is_not_a_fixed_point_codec():
    # it was accepted and raised AttributeError at the first masked_update
    with pytest.raises(ValueError, match="codec must be a FixedPointCodec"):
        UserEquipment(1, 5, "x", 3)


# each role entry point handed a message or collaborator of the wrong type;
# each raised AttributeError, some after the first check had passed
WRONG_TYPED_CALLS = {
    "collect_block": (lambda w: w.af.collect_block([w.msg]), "block must be a MaskedUpdateBlock"),
    "collect_update": (lambda w: w.af.collect_update(None), "msg must be a MaskedUpdateMsg"),
    "recover_mask_list": (lambda w: w.af.recover_mask([1], w.mode), "shares must be a dict"),
    "recover_mask_int": (lambda w: w.af.recover_mask({1: 5}, w.mode),
                         "share must be a MaskShareMsg"),
    "receive_shares": (lambda w: w.bss[2].stations.receive_shares(0, [1]),
                       "block must be a SetupShareBlock"),
    "receive_share": (lambda w: w.bss[2].receive_share(None), "msg must be a SetupShareMsg"),
    "mask_shares": (lambda w: w.bss[2].stations.mask_shares([0], [1, 2], 0, w.mode, 2),
                    "online must be a OnlineListMsg"),
    "mask_share": (lambda w: w.bss[2].mask_share(None, 0, w.mode, 2),
                   "online must be a OnlineListMsg"),
    "fleet_setup": (lambda w: w.fresh.setup(3, w.rng), "acc must be a AccessStructure"),
    "device_setup": (lambda w: UserEquipment(1, 3, CODEC, 12).setup(3, w.rng),
                     "acc must be a AccessStructure"),
}


def role_state(w):
    """Everything a refused entry point must leave as it was."""
    stations = [bs.stations for bs in w.bss.values()]
    return (w.fleet._last.tolist(), w.fleet._masked.tolist(), w.fresh._setup_done,
            [(s._ys.tolist(), dict(s._answered)) for s in stations],
            w.af.iteration, w.af._arrived.tolist(), w.af._rows.tolist(),
            w.af.online_ids.tolist(), w.rng.getstate())


@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
@pytest.mark.parametrize("case", list(WRONG_TYPED_CALLS))
def test_role_entry_points_refuse_a_wrong_typed_argument(case, mode):
    fleet, bss, af, _, rng = make_fleet(seed=41)
    af.begin_round(0)
    af.collect_block(fleet.mask([0, 1, 2], np.zeros((3, 12)), 0))
    msg = masked(fleet, 4, [0.0] * 12, 0)
    bss[2].mask_share(af.finalize_online_list(), 0, mode, 12)
    w = SimpleNamespace(fleet=fleet, bss=bss, af=af, rng=rng, mode=mode, msg=msg,
                        fresh=Fleet([1, 2], [3, 4], CODEC, 12))
    before = role_state(w)
    call, match = WRONG_TYPED_CALLS[case]
    with pytest.raises(ValueError, match=match):
        call(w)
    assert role_state(w) == before


@pytest.mark.parametrize("t", [2**64, -1, 1.5, True, "3", None])
def test_a_round_that_is_not_a_word_is_refused_before_it_opens(t):
    # a bool or float round once passed for round 1 in collect_block, and
    # 1.5 or "3" refused every update as STALE, with no error
    fleet, _, af, *_ = make_fleet(seed=28)
    af.begin_round(1)
    af.collect_block(fleet.mask([0, 1], np.zeros((2, 12)), 1))
    before = (af.iteration, af.masked_updates.keys(), af.online_ids)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        af.begin_round(t)
    assert (af.iteration, af.masked_updates.keys(), af.online_ids) == before
    af.begin_round(np.uint64(2))
    assert type(af.iteration) is int and af.iteration == 2


def test_masked_updates_is_a_snapshot_of_its_round():
    # the next round overwrites the server's rows, not what was read before
    fleet, _, af, *_ = make_fleet(seed=24)
    af.begin_round(0)
    af.collect_block(fleet.mask([0, 1], np.full((2, 12), 0.25), 0))
    round_0 = af.masked_updates
    kept = {i: row.copy() for i, row in round_0.items()}
    af.begin_round(1)
    af.collect_block(fleet.mask([0, 2], np.full((2, 12), -0.5), 1))
    assert round_0.keys() == kept.keys() == {1, 2}
    assert all(np.array_equal(round_0[i], kept[i]) for i in kept)
    assert af.masked_updates.keys() == {1, 3}
    assert not np.array_equal(af.masked_updates[1], kept[1])
    # an online list's uint64 ids look rows up as well
    assert np.array_equal(af.masked_updates[np.uint64(3)], af.masked_updates[3])


def collect_each(logged: dict, iteration: int, fixed: bool, dim: int, registered: int, msgs):
    """The per-message collection rules, one message at a time: the
    reference a block must match."""
    statuses = []
    for msg in msgs:
        if msg.iteration != iteration or fixed:
            statuses.append(CollectStatus.STALE)
        elif not 1 <= msg.sender <= registered:
            raise ValueError("outside")
        elif msg.sender in logged:
            statuses.append(CollectStatus.DUPLICATE)
        elif len(msg.payload) != dim:
            raise ValueError("dim")
        else:
            logged[msg.sender] = msg.payload
            statuses.append(CollectStatus.ACCEPTED)
    return statuses


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_collection_matches_collecting_each_row(data):
    d = data.draw(st.sampled_from([12, 3]), label="d")  # 12 is the model's
    # 0 and 9 are not among the registered devices 1..8
    senders = st.one_of(st.integers(1, 5), st.sampled_from([0, 9]))
    rows = data.draw(st.lists(st.tuples(senders, st.sampled_from([2, 3])),
                              max_size=8), label="sender, round")
    before = data.draw(st.lists(st.integers(1, 5), unique=True, max_size=3), label="logged")
    fixed = data.draw(st.booleans(), label="list fixed")
    msgs = [MaskedUpdateMsg(s, t, u64([s * 10 + r] * d)) for r, (s, t) in enumerate(rows)]
    _, _, af, *_ = make_fleet(seed=28)
    af.begin_round(2)
    for s in before:
        af.collect_update(MaskedUpdateMsg(s, 2, u64([0] * 12)))
    if fixed:
        af.finalize_online_list()
    logged = dict(af.masked_updates)
    try:
        want = collect_each(logged, 2, fixed, 12, 8, msgs)
    except ValueError:
        with pytest.raises(ValueError, match="dim|outside"):
            af.collect_block(MaskedUpdateBlock.of(msgs))
        # all or nothing: no row of a refused block is logged
        assert sorted(af.masked_updates) == sorted(before)
        return
    assert af.collect_block(MaskedUpdateBlock.of(msgs)) == want
    assert af.masked_updates.keys() == logged.keys()
    assert all(np.array_equal(af.masked_updates[s], logged[s]) for s in logged)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_run_of_blocks_fills_the_matrix_as_rows_one_by_one(data):
    # blocks without a repeated sender take the sort-free path, the others
    # np.unique's; both must keep each sender's first row of the round
    n, d = 16, 3
    af = Aggregator(registered_n=n, min_online_fraction=1 / n, bs_threshold=AccessStructure(1, 1),
                    codec=CODEC, dim=d)
    af.begin_round(2)
    matrix, logged = np.zeros((n, d), dtype=np.uint64), {}
    blocks = data.draw(st.integers(1, 4), label="blocks")
    fixed_after = data.draw(st.integers(0, blocks), label="list fixed after block")
    for b in range(blocks):
        if b == fixed_after:
            af.finalize_online_list()
        unique = data.draw(st.booleans(), label=f"unique {b}")
        senders = data.draw(st.lists(st.integers(1, n), max_size=12, unique=unique),
                            label=f"senders {b}")
        rounds = data.draw(st.lists(st.sampled_from([2, 2, 3]), min_size=len(senders),
                                    max_size=len(senders)), label=f"rounds {b}")
        msgs = [MaskedUpdateMsg(s, t, u64([100 * b + r] * d))
                for r, (s, t) in enumerate(zip(senders, rounds))]
        want = collect_each(logged, 2, b >= fixed_after, d, n, msgs)
        assert af.collect_block(MaskedUpdateBlock.of(msgs)) == want
        for sender, payload in logged.items():
            matrix[sender - 1] = payload
        assert np.array_equal(af._rows, matrix)
        assert (np.flatnonzero(af._arrived) + 1).tolist() == sorted(logged)


def test_one_update_is_the_one_row_case_of_a_block():
    fleet, bss, af, *_ = make_fleet(seed=29)
    af.begin_round(0)
    block = fleet.mask([0, 1, 2], np.zeros((3, 12)), 0)
    assert af.collect_block(block) == [CollectStatus.ACCEPTED] * 3
    assert af.collect_update(block[1]) is CollectStatus.DUPLICATE
    assert af.collect_update(masked(fleet, 4, [0.0] * 12, 0)) is CollectStatus.ACCEPTED
    assert sorted(af.masked_updates) == [1, 2, 3, 4]
    af.finalize_online_list()
    assert af.collect_block(block) == [CollectStatus.STALE] * 3


def test_masked_update_matches_plain_ints():
    fleet, *_ = make_fleet(seed=16)
    rng = random.Random(4)
    w = [rng.uniform(-1, 1) for _ in range(10)] + [1.0, -1.0]
    mask = [key(fleet, 3) * hash_to_field(khprf.DOMAIN_TAG, 6, i) % P for i in range(12)]
    want = [(round(x * 2**16) + m) % P for x, m in zip(w, mask)]
    assert masked(fleet, 3, w, 6).payload.tolist() == want
    # round 6's mask is spent on device 3, so the precomputed path needs a
    # fresh device with the same key
    twin = UserEquipment(ue_id=3, key=key(fleet, 3), codec=CODEC, dim=12)
    twin.precompute(8)
    assert twin.masked_update(w, 6).payload.tolist() == want


def test_stale_update_dropped():
    fleet, bss, af, *_ = make_fleet(seed=22)
    af.begin_round(0)
    old = masked(fleet, 1, [0.0] * 12, 0)
    af.begin_round(1)
    assert af.collect_update(old) is CollectStatus.STALE
    assert not af.masked_updates


def test_update_after_the_list_is_fixed_is_stale():
    # the stations answer the fixed list, so a later update must not join the
    # sum: its unmatched mask would turn the decoded average into noise
    fleet, bss, af, *_ = make_fleet(seed=20)
    af.begin_round(0)
    for i in range(1, 6):
        af.collect_update(masked(fleet, i, [0.25] * 12, 0))
    online = af.finalize_online_list()
    assert af.collect_update(masked(fleet, 6, [0.25] * 12, 0)) is CollectStatus.STALE
    assert sorted(af.masked_updates) == [1, 2, 3, 4, 5]
    assert af.finalize_online_list().ue_ids.tolist() == [1, 2, 3, 4, 5]
    shares = {j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, 12) for j in bss}
    update = af.unmask_and_aggregate(af.recover_mask(shares, MaskShareMode.EVALUATED))
    assert max(abs(u - 0.25) for u in update) <= 2.0**-17


def test_finalize_thresholds():
    # n=8, fraction 1/3: need ceil(8/3) = 3 online
    fleet, bss, af, *_ = make_fleet(seed=23)
    af.begin_round(0)
    for i in (1, 2, 3):
        af.collect_update(masked(fleet, i, [0.0] * 12, 0))
    assert af.finalize_online_list() is not None

    af.begin_round(1)
    for i in (1, 2):
        af.collect_update(masked(fleet, i, [0.0] * 12, 1))
    assert af.finalize_online_list() is None


def test_finalize_all_online():
    fleet, bss, af, *_ = make_fleet(seed=24)
    af.begin_round(0)
    for i in range(1, 9):
        af.collect_update(masked(fleet, i, [0.0] * 12, 0))
    assert af.finalize_online_list() is not None


# -- base-station mask shares -------------------------------------------------


def test_single_ue_list_share_is_plain_evaluation():
    fleet, bss, af, *_ = make_fleet(seed=30)
    online = OnlineListMsg(0, 2, u64([5]))
    share = bss[1].mask_share(online, 2, MaskShareMode.EVALUATED, 12)
    y = bss[1].stations.stored_shares(0)[5].y
    assert share.vector.tolist() == khprf.evaluate(y, 2, 12).tolist()


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_share_sum_is_exact_for_word_typed_shares(mode):
    # shares built in process may carry numpy words; their sum must reduce
    # mod p, not wrap mod 2^64
    bs = BaseStation(bs_id=1)
    ys = [P - 1 - i for i in range(12)]
    for ue, y in enumerate(ys, start=1):
        bs.receive_share(SetupShareMsg(ue, 0, 1, SecretShare(1, np.uint64(y))))
    share = bs.mask_share(OnlineListMsg(0, 0, u64(range(1, 13))), 0, mode, 4)
    summed = sum(ys) % P
    if mode is MaskShareMode.COMPACT:
        assert share.scalar == summed
    else:
        assert share.vector.tolist() == khprf.evaluate(summed, 0, 4).tolist()


def test_evaluated_share_equals_sum_of_per_ue_evaluations():
    fleet, bss, af, *_ = make_fleet(seed=31)
    listed = (1, 3, 4, 7)
    online = OnlineListMsg(0, 1, u64(listed))
    share = bss[2].mask_share(online, 1, MaskShareMode.EVALUATED, 12)
    oracle = [0] * 12
    for i in listed:
        vec = khprf.evaluate(bss[2].stations.stored_shares(0)[i].y, 1, 12)
        oracle = [(a + b) % P for a, b in zip(oracle, vec)]
    assert list(share.vector) == oracle


def test_compact_share_is_nine_payload_bytes():
    fleet, bss, af, *_ = make_fleet(seed=32)
    online = OnlineListMsg(0, 0, u64([1, 2]))
    compact = bss[1].mask_share(online, 0, MaskShareMode.COMPACT, 1000)
    evaluated = bss[1].mask_share(online, 0, MaskShareMode.EVALUATED, 1000)
    assert payload_length(compact) == 9
    assert payload_length(evaluated) == 1 + 4 + 8000


def test_missing_share_forces_abstention():
    fleet, bss, af, *_ = make_fleet(seed=33)
    online = OnlineListMsg(0, 0, u64([1, 99]))
    with pytest.raises(MissingShareError):
        bss[1].mask_share(online, 0, MaskShareMode.EVALUATED, 12)


@pytest.mark.parametrize("forged", [(1, 1, 2, 3), (2, 1, 3)])
@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_repeated_or_unsorted_online_list_is_refused(forged, mode):
    # a repeated id would add that device's key share twice and the round
    # would unmask to garbage; such a list cannot be built, so no station
    # is ever handed one
    fleet, bss, af, *_ = make_fleet(seed=34)
    with pytest.raises(ValueError, match="strictly increasing"):
        bss[1].mask_share(OnlineListMsg(0, 0, u64(forged)), 0, mode, 12)


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_online_list_for_another_round_is_refused(mode):
    # a round-1 share answering a round-0 list would unmask round 1 with the
    # wrong online set; the station refuses instead of abstaining
    fleet, bss, af, *_ = make_fleet(seed=35)
    with pytest.raises(ProtocolError, match="round 0 asked to answer round 1") as err:
        bss[1].mask_share(OnlineListMsg(0, 0, u64([1, 2, 3])), 1, mode, 12)
    assert not isinstance(err.value, MissingShareError)


# -- recovery and unmasking ---------------------------------------------------


def per_ue_mask_sum_oracle(fleet, online_ids, t, d):
    total = [0] * d
    for i in online_ids:
        total = [(a + b) % P for a, b in zip(total, khprf.evaluate(key(fleet, i), t, d))]
    return total


@pytest.mark.parametrize("mode", [MaskShareMode.EVALUATED, MaskShareMode.COMPACT])
def test_recovery_with_all_stations(mode):
    fleet, bss, af, *_ = make_fleet(seed=40)
    rng = random.Random(1)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
    online, mask = run_round(fleet, bss, af, 0, DEVICES, list(bss), mode, 12, updates)
    assert mask.tolist() == per_ue_mask_sum_oracle(fleet, online.ue_ids, 0, 12)


def test_recovery_with_exactly_three_stations_identical():
    fleet, bss, af, *_ = make_fleet(seed=41)
    updates = {i: [0.5] * 12 for i in DEVICES}
    _, mask_all = run_round(fleet, bss, af, 0, DEVICES, [1, 2, 3, 4],
                            MaskShareMode.EVALUATED, 12, updates)
    fleet2, bss2, af2, *_ = make_fleet(seed=41)
    _, mask_three = run_round(fleet2, bss2, af2, 0, DEVICES, [2, 3, 4],
                              MaskShareMode.EVALUATED, 12, updates)
    assert mask_all.tolist() == mask_three.tolist()


def test_recovery_fails_with_two_stations():
    fleet, bss, af, *_ = make_fleet(seed=42)
    updates = {i: [0.0] * 12 for i in DEVICES}
    _, mask = run_round(fleet, bss, af, 0, DEVICES, [1, 4],
                        MaskShareMode.EVALUATED, 12, updates)
    assert mask is None


def round_one_shares(mode, d=12):
    """Honest shares of all four stations for round 1, after a round 0; the
    aggregator has recovered round 1 from them."""
    fleet, bss, af, *_ = make_fleet(seed=44)
    updates = {i: [0.25] * d for i in DEVICES}
    run_round(fleet, bss, af, 0, DEVICES, list(bss), mode, d, updates)
    old = {j: bss[j].mask_share(OnlineListMsg(0, 0, u64(DEVICES)), 0, mode, d) for j in bss}
    online, mask = run_round(fleet, bss, af, 1, DEVICES, list(bss), mode, d, updates)
    assert mask is not None
    shares = {j: bss[j].mask_share(online, 1, mode, d) for j in bss}
    return af, shares, old


def forge(shares, old, case):
    """Replace station 4's share (never among the three used) per case."""
    s4 = shares[4]
    if case == "stale":
        return {**shares, 4: old[4]}
    if case == "other_station_id":
        return {**shares, 4: replace(s4, sender=7)}
    if case == "station_zero":
        return {**shares, 0: replace(s4, sender=0)}
    if case == "station_above_total":
        return {**shares, 5: replace(s4, sender=5)}
    if case == "wrong_mode":
        if s4.mode is MaskShareMode.EVALUATED:
            return {**shares, 4: MaskShareMsg(4, 1, scalar=0)}
        return {**shares, 4: MaskShareMsg(4, 1, vector=u64([0] * 12))}
    if case == "short_vector":
        return {**shares, 4: replace(s4, vector=s4.vector[:-1])}
    if case == "vector_element_p":
        return {**shares, 4: replace(s4, vector=u64([P] + s4.vector[1:].tolist()))}
    if case == "scalar_p":
        return {**shares, 4: replace(s4, scalar=P)}
    raise AssertionError(case)


@pytest.mark.parametrize("mode, case", [
    *[(mode, case) for mode in MaskShareMode
      for case in ("stale", "other_station_id", "station_zero", "station_above_total",
                   "wrong_mode")],
    (MaskShareMode.EVALUATED, "short_vector"),
    (MaskShareMode.EVALUATED, "vector_element_p"),
    (MaskShareMode.COMPACT, "scalar_p"),
], ids=lambda v: getattr(v, "name", v))
def test_recover_mask_rejects_a_bad_share(mode, case):
    # a round-0 share in round 1 or a share stored under another station's id
    # used to be combined silently into a wrong mask sum
    af, shares, old = round_one_shares(mode)
    if case in ("vector_element_p", "scalar_p"):
        # an out-of-field share cannot be built, so it never reaches the server
        with pytest.raises(ValueError):
            forge(shares, old, case)
        return
    with pytest.raises(ProtocolError):
        af.recover_mask(forge(shares, old, case), mode)


def test_the_compact_warning_is_logged_once_per_process(caplog):
    # it was logged once per server, so a COMPACT sweep logged it once per
    # simulation
    protocol._warn_compact.cache_clear()
    with caplog.at_level(logging.WARNING, logger=protocol.__name__):
        for seed in (60, 61):
            fleet, bss, af, *_ = make_fleet(seed=seed)
            updates = {i: [0.25] * 12 for i in DEVICES}
            for mode in (MaskShareMode.COMPACT, MaskShareMode.EVALUATED):
                t = 0 if mode is MaskShareMode.COMPACT else 1
                _, mask = run_round(fleet, bss, af, t, DEVICES, list(bss), mode, 12, updates)
                assert mask is not None
    warned = [r for r in caplog.records if "COMPACT mask shares" in r.getMessage()]
    assert len(warned) == 1 and warned[0].levelno == logging.WARNING


@pytest.mark.parametrize("mode", [1, 0, "compact", None])
def test_a_mode_that_is_not_a_mask_share_mode_is_refused_at_every_entry(mode):
    # 1 and 0 equal COMPACT and EVALUATED but are not modes: the server once
    # raised AttributeError on the mode's name, and a station UnboundLocalError
    match = f"mask_share_mode must be a MaskShareMode, got {mode!r}"
    with pytest.raises(ValueError, match=match):
        SimConfig(mask_share_mode=mode)
    fleet, bss, af, *_ = make_fleet(seed=1)
    af.begin_round(0)
    for i in DEVICES:
        af.collect_update(masked(fleet, i, [0.25] * 12, 0))
    online = af.finalize_online_list()
    with pytest.raises(ValueError, match=match):
        bss[1].mask_share(online, 0, mode, 12)
    with pytest.raises(ValueError, match=match):
        bss[1].stations.mask_shares([0], online, 0, mode, 12)
    shares = {j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, 12) for j in bss}
    for offered in (shares, {}):
        with pytest.raises(ValueError, match=match):
            af.recover_mask(offered, mode)


def test_mode_equivalence_bitwise():
    updates = None
    results = []
    for mode in (MaskShareMode.EVALUATED, MaskShareMode.COMPACT):
        fleet, bss, af, *_ = make_fleet(seed=43)
        rng = random.Random(7)
        updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
        _, mask = run_round(fleet, bss, af, 0, DEVICES, [1, 2, 3], mode, 12, updates)
        results.append(mask)
    assert results[0].tolist() == results[1].tolist()


def test_unmask_average_of_one():
    # participation floor lowered so a single device clears it
    fleet, bss, af, *_ = make_fleet(seed=44, alpha=0.1)
    updates = {i: [0.5] * 12 for i in DEVICES}
    _, mask = run_round(fleet, bss, af, 0, [3], list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - 0.5) for u in update) <= 2.0**-17


def test_unmask_below_the_participation_floor_is_refused():
    # n=8, fraction 1/3: two updates fix a list that halts the round, so its
    # mask sum, though recoverable from a hand-built list, must not open it
    fleet, bss, af, *_ = make_fleet(seed=1)
    af.begin_round(0)
    for i in (1, 2):
        af.collect_update(masked(fleet, i, [0.25] * 12, 0))
    assert af.finalize_online_list() is None
    listed = OnlineListMsg(0, 0, af.online_ids)
    shares = {j: bss[j].mask_share(listed, 0, MaskShareMode.EVALUATED, 12) for j in bss}
    mask = af.recover_mask(shares, MaskShareMode.EVALUATED)
    with pytest.raises(ProtocolError, match="below the floor of 3"):
        af.unmask_and_aggregate(mask)
    assert af.global_model.tolist() == [0.0] * 12


def test_unmask_matches_plaintext_average_oracle():
    fleet, bss, af, *_ = make_fleet(seed=45)
    rng = random.Random(2)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
    _, mask = run_round(fleet, bss, af, 0, DEVICES, list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    oracle = [sum(updates[i][c] for i in DEVICES) / len(DEVICES) for c in range(12)]
    assert max(abs(u - o) for u, o in zip(update, oracle)) <= 2.0**-17


def test_unmask_is_bit_identical_to_plain_float_ops():
    # plain ints for the field, then the same float64 operations in the same
    # order: decode each sum component, divide by the count, add to the model
    fleet, bss, af, *_ = make_fleet(seed=50)
    rng = random.Random(5)
    af.global_model = [rng.uniform(-4, 4) for _ in range(12)]
    model = list(af.global_model)
    online_ids = [1, 2, 4, 6, 7]
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
    online, mask = run_round(fleet, bss, af, 0, online_ids, list(bss),
                             MaskShareMode.EVALUATED, 12, updates)
    encoded_sum = [
        (sum(int(af.masked_updates[i][c]) for i in online_ids) - int(mask[c])) % P
        for c in range(12)
    ]
    want = [(x - P if x > P // 2 else x) / 2**16 / 5 for x in encoded_sum]
    update = af.unmask_and_aggregate(mask)
    assert update.tolist() == want
    assert af.global_model.tolist() == [m + u for m, u in zip(model, want)]


@pytest.mark.parametrize("bad", ["float list", "int list", "float64", "int64", "p's",
                                 "2-d", "short", "long"])
def test_unmask_takes_only_a_canonical_mask_sum_of_dim_words(bad):
    # each of the first five was converted silently and opened the round; a
    # float rounds the mask sum, and p's put an update of order 10^12 in
    fleet, bss, af, *_ = make_fleet(seed=51)
    updates = {i: [0.25] * 12 for i in DEVICES}
    _, mask = run_round(fleet, bss, af, 0, DEVICES, list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    given = {"float list": [float(x) for x in mask], "int list": mask.tolist(),
             "float64": mask.astype(np.float64), "int64": mask.astype(np.int64),
             "p's": np.full(12, P, dtype=np.uint64), "2-d": mask[None],
             "short": mask[:-1], "long": np.append(mask, mask[:1])}[bad]
    with pytest.raises(ValueError):
        af.unmask_and_aggregate(given)
    assert af.global_model.tolist() == [0.0] * 12
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - 0.25) for u in update) <= 2.0**-17


def test_unmask_identical_updates_is_fixed_point():
    fleet, bss, af, *_ = make_fleet(seed=46)
    w = [(-1) ** c * 0.125 for c in range(12)]
    updates = {i: list(w) for i in DEVICES}
    _, mask = run_round(fleet, bss, af, 0, DEVICES, list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - x) for u, x in zip(update, w)) <= 2.0**-17


def test_dropped_ue_contributes_nothing():
    # devices outside the list are absent from both the sum and the mask
    fleet, bss, af, *_ = make_fleet(seed=47)
    online_ids = [1, 2, 3, 5, 8]
    updates = {i: [0.25] * 12 for i in DEVICES}
    online, mask = run_round(fleet, bss, af, 0, online_ids, list(bss),
                             MaskShareMode.EVALUATED, 12, updates)
    assert online.ue_ids.tolist() == online_ids
    assert mask.tolist() == per_ue_mask_sum_oracle(fleet, online_ids, 0, 12)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - 0.25) for u in update) <= 2.0**-17


def test_fallback_keeps_model_bitwise():
    fleet, bss, af, *_ = make_fleet(seed=48)
    af.global_model = np.array([0.125, -3.5] + [0.0] * 10)
    before = af.global_model.tolist()
    msg = af.fallback()
    assert msg.weights.tolist() == before
    assert af.global_model.tolist() == before


def test_threshold_privacy_surrogate():
    # two station payloads plus every masked update reveal neither the
    # aggregated mask nor any individual one
    fleet, bss, af, *_ = make_fleet(seed=49)
    rng = random.Random(3)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
    af.begin_round(0)
    for i in DEVICES:
        af.collect_update(masked(fleet, i, updates[i], 0))
    online = af.finalize_online_list()
    shares = {
        j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, 12) for j in (1, 2)
    }
    assert af.recover_mask(shares, MaskShareMode.EVALUATED) is None
    # no pair of stations' payloads equals any device's individual mask
    for j in (1, 2):
        for i in DEVICES:
            assert shares[j].vector.tolist() != khprf.evaluate(key(fleet, i), 0, 12).tolist()


# -- message well-formedness -------------------------------------------------
# Each message type checks its own fields when built, so the roles never see
# an out-of-field element or a disordered online list, however it was made.


def test_station_cannot_be_handed_an_out_of_field_share():
    bs = BaseStation(bs_id=1)
    with pytest.raises(ValueError):
        bs.receive_share(SetupShareMsg(3, 0, 1, SecretShare(1, P + 7)))
    assert not bs.stations.stored_shares(0)


@pytest.mark.parametrize("build", [
    *[lambda e=bad: MaskedUpdateMsg(1, 0, u64([0, e, 5])) for bad in (P, 2**64 - 1)],
    *[lambda e=bad: MaskShareMsg(1, 0, vector=u64([e, 0])) for bad in (P, 2**64 - 1)],
    lambda: MaskShareMsg(1, 0, scalar=P),
    lambda: SetupShareMsg(1, 0, 2, SecretShare(2, P)),
    lambda: OnlineListMsg(0, 0, u64([1, 1, 2, 3])),
    lambda: OnlineListMsg(0, 0, u64([2, 1, 3])),
], ids=["update_p", "update_2^64-1", "vector_p", "vector_2^64-1", "scalar_p",
        "share_y_p", "repeated_ids", "unsorted_ids"])
def test_bad_field_refused_where_the_message_is_built(build):
    with pytest.raises(ValueError):
        build()


# every integer a message carries must be an int in [0, 2^64): nothing is
# cast into range, and nothing is left for struct to trip over when sending;
# array elements can be nothing but uint64, so any other holder is refused
@pytest.mark.parametrize("build", [
    lambda: MaskShareMsg(1, 0, vector=[1.5, 2]),
    lambda: MaskShareMsg(1, 0, vector=np.array([3.0, 4.0])),
    lambda: MaskedUpdateMsg(1, 0, [-1, 2]),
    lambda: MaskedUpdateMsg(1, 0, np.array([-1, 2])),
    lambda: MaskedUpdateMsg(1, 0, [2**64, 2]),
    lambda: MaskedUpdateMsg(1, 0, np.array([1, 2], dtype=object)),
    lambda: MaskedUpdateMsg(-1, 0, u64([1, 2])),
    lambda: GlobalModelMsg(0, 2**64, np.array([1.0])),
    lambda: OnlineListMsg(0, 0, (-1, 2)),
    lambda: OnlineListMsg(0, 0, (1, 2**64)),
    lambda: OnlineListMsg(0, 0, (1.5, 2)),
    lambda: OnlineListMsg(0, -1, u64([1, 2])),
    lambda: SetupShareMsg(1, 0, 2, SecretShare(2, 2.5)),
    lambda: SetupShareMsg(1, 0, -2, SecretShare(2, 5)),
    lambda: SetupShareMsg(1, 0, 2, SecretShare(2**64, 5)),
    lambda: SetupShareMsg(1.0, 0, 2, SecretShare(2, 5)),
    lambda: MaskShareMsg(2**64, 0, scalar=1),
    lambda: MaskShareMsg(1, 0, scalar=2.5),
], ids=["vector_float", "vector_float_array", "update_negative", "update_negative_array",
        "update_2^64", "update_object_array", "update_sender_negative",
        "model_iteration_2^64", "list_id_negative", "list_id_2^64", "list_id_float",
        "list_iteration_negative", "share_y_float", "share_target_negative",
        "share_x_2^64", "share_sender_float", "mask_share_sender_2^64", "scalar_float"])
def test_int_field_refused_where_the_message_is_built(build):
    with pytest.raises(ValueError):
        build()


def test_int_fields_of_any_int_type_still_build():
    payload = u64([1, 2])
    assert MaskedUpdateMsg(1, 0, payload).payload is payload  # kept, not copied
    assert OnlineListMsg(0, 0, u64([1, 2]), np.uint16(300)).to_bytes()
    assert SetupShareMsg(np.int64(1), 0, 2, SecretShare(2, 5)).to_bytes()


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_honest_messages_of_every_role_round_trip(mode):
    rng = random.Random(6)
    acc = AccessStructure(3, 4)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=12)
    setup = ue.setup(acc, rng)
    bss = {j: BaseStation(bs_id=j) for j in range(1, 5)}
    for j, msg in route_setup_shares(setup, set(bss)).items():
        bss[j].receive_share(msg)
    af = Aggregator(registered_n=1, min_online_fraction=1.0, bs_threshold=acc,
                    codec=CODEC, dim=12)
    af.begin_round(0)
    update = ue.masked_update([0.5] * 12, 0)
    af.collect_update(update)
    online = af.finalize_online_list()
    shares = {j: bss[j].mask_share(online, 0, mode, 12) for j in bss}
    af.unmask_and_aggregate(af.recover_mask(shares, mode))
    for msg in [*setup, update, online, *shares.values(), af.global_model_message()]:
        assert from_bytes(msg.to_bytes()) == msg


def test_role_state_is_not_a_constructor_option():
    rng = random.Random(7)
    ue = dict(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    af = dict(registered_n=8, min_online_fraction=0.5, bs_threshold=AccessStructure(3, 4),
              codec=CODEC, dim=4)
    state = [
        (UserEquipment, ue, "fleet"),
        (BaseStation, {"bs_id": 1}, "stations"),
        *[(Aggregator, af, f) for f in ("iteration", "global_model", "masked_updates",
                                        "online_ids", "_rows", "_arrived")],
    ]
    for role, args, name in state:
        with pytest.raises(TypeError, match=name):
            role(**args, **{name: None})


# -- ideal-functionality oracle ----------------------------------------------


def test_alpha_oracle_full_set_sums():
    updates = {1: [1, 2], 2: [3, 4], 3: [5, 6]}
    [result] = alpha_summation_oracle([{1, 2, 3}], updates, alpha=1.0, n=3)
    assert result == [9, 12]


def test_alpha_oracle_small_set_fails():
    updates = {1: [1], 2: [2], 3: [3], 4: [4]}
    results = alpha_summation_oracle([{1}, {2, 3, 4}], updates, alpha=0.5, n=4)
    assert results[0] is None
    assert results[1] == [9]


def test_alpha_oracle_rejects_overlap():
    with pytest.raises(ValueError):
        alpha_summation_oracle([{1, 2}, {2, 3}], {i: [0] for i in range(1, 4)}, 0.5, 3)


def test_protocol_output_matches_alpha_oracle():
    for seed in range(5):
        fleet, bss, af, *_ = make_fleet(seed=100 + seed)
        rng = random.Random(seed)
        online_ids = sorted(rng.sample(range(1, 9), rng.randint(3, 8)))
        updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in DEVICES}
        online, mask = run_round(fleet, bss, af, 0, online_ids, list(bss),
                                 MaskShareMode.EVALUATED, 12, updates)
        masked_sum = [0] * 12
        for i in online.ue_ids:
            masked_sum = field.vec_add(masked_sum, list(af.masked_updates[i]))
        protocol_sum = field.vec_sub(masked_sum, mask)
        encoded = {i: encode_update(updates[i], CODEC) for i in online_ids}
        [oracle_sum] = alpha_summation_oracle([set(online_ids)], encoded,
                                              alpha=1.0 / 3.0, n=8)
        assert protocol_sum.tolist() == oracle_sum
