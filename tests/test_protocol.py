"""Role state-machine tests, driven directly (no simulator).

The recurring oracle: compute per-device masks straight from the device
keys and sum them in plain big-int arithmetic, then check the protocol's
share-mediated path lands on exactly the same field vectors.
"""

import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secagg5g import field, khprf
from secagg5g.field import P, FixedPointCodec, decode_sum, encode_update
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMode,
    MaskShareMsg,
    OnlineListMsg,
    SetupShareMsg,
    from_bytes,
    payload_length,
)
from secagg5g.protocol import (
    Aggregator,
    BaseStation,
    CollectStatus,
    MissingShareError,
    ProtocolError,
    UserEquipment,
    generate_key,
    mask_updates,
    precompute_fleet,
    route_setup_shares,
)
from oracles import EDGE_ELEMENTS, alpha_summation_oracle, hash_to_field, masked_update_plain
from secagg5g.shamir import AccessStructure, SecretShare

CODEC = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=1024)


def u64(values):
    return np.array(values, dtype=np.uint64)


def make_fleet(seed, n=8, k=4, t=3, d=12, alpha=1.0 / 3.0):
    """Fully set-up population: every BS holds every device's share."""
    rng = random.Random(seed)
    acc = AccessStructure(t, k)
    ues = {
        i: UserEquipment(ue_id=i, key=generate_key(rng), codec=CODEC, dim=d)
        for i in range(1, n + 1)
    }
    bss = {j: BaseStation(bs_id=j) for j in range(1, k + 1)}
    for ue in ues.values():
        delivery = route_setup_shares(ue.setup(acc, rng), set(bss))
        for j, msg in delivery.items():
            bss[j].receive_share(msg)
    af = Aggregator(registered_n=n, min_online_fraction=alpha, bs_threshold=acc,
                    codec=CODEC, dim=d)
    return ues, bss, af, acc, rng


def run_round(ues, bss, af, t, online_ue_ids, online_bs_ids, mode, d, updates):
    """One aggregation round outside the simulator; returns (list, mask)."""
    af.begin_round(t)
    for i in online_ue_ids:
        af.collect_update(ues[i].masked_update(updates[i], t))
    online = af.finalize_online_list()
    if online is None:
        return None, None
    shares = {j: bss[j].mask_share(online, t, mode, d) for j in online_bs_ids}
    return online, af.recover_mask(shares, mode)


# -- setup ------------------------------------------------------------------


def test_setup_emits_one_share_per_bs():
    rng = random.Random(0)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    msgs = ue.setup(AccessStructure(3, 4), rng)
    assert len(msgs) == 4
    assert {m.share.x for m in msgs} == {1, 2, 3, 4}
    assert all(m.target_bs == m.share.x for m in msgs)


def test_setup_shares_recover_the_key():
    rng = random.Random(1)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    msgs = ue.setup(AccessStructure(3, 4), rng)
    from secagg5g.shamir import recover

    for subset in combinations([m.share for m in msgs], 3):
        assert recover(subset, AccessStructure(3, 4)) == ue.key


def test_setup_threshold_equal_to_total():
    rng = random.Random(2)
    ue = UserEquipment(ue_id=1, key=generate_key(rng), codec=CODEC, dim=4)
    msgs = ue.setup(AccessStructure(4, 4), rng)
    from secagg5g.shamir import recover

    shares = [m.share for m in msgs]
    assert recover(shares, AccessStructure(4, 4)) == ue.key
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
    assert bs.stored_shares[1].x == 2


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


# -- masking ----------------------------------------------------------------


def test_zero_update_payload_is_the_mask():
    ues, *_ = make_fleet(seed=10)
    ue = ues[1]
    msg = ue.masked_update([0.0] * ue.dim, t=0)
    assert msg.payload.tolist() == khprf.evaluate(ue.key, 0, ue.dim).tolist()


def test_unmasking_recovers_the_update():
    ues, *_ = make_fleet(seed=11)
    ue = ues[2]
    rng = random.Random(0)
    w = [rng.uniform(-1, 1) for _ in range(ue.dim)]
    msg = ue.masked_update(w, t=3)
    bare = field.vec_sub(list(msg.payload), khprf.evaluate(ue.key, 3, ue.dim))
    decoded = decode_sum(bare, CODEC, 1)
    assert max(abs(a - b) for a, b in zip(decoded, w)) <= 2.0**-17


def test_distinct_keys_give_distinct_masks():
    ues, *_ = make_fleet(seed=12)
    m1 = ues[1].masked_update([0.0] * 12, t=0)
    m2 = ues[2].masked_update([0.0] * 12, t=0)
    assert m1.payload.tolist() != m2.payload.tolist()


def test_mask_reuse_rejected():
    ues, *_ = make_fleet(seed=13)
    ues[1].masked_update([0.0] * 12, t=0)
    with pytest.raises(ProtocolError):
        ues[1].masked_update([0.1] * 12, t=0)


def test_mask_for_an_earlier_round_rejected():
    # masks are used in increasing round order; going back could reuse one
    ues, *_ = make_fleet(seed=13)
    ues[1].masked_update([0.0] * 12, t=7)
    with pytest.raises(ProtocolError):
        ues[1].masked_update([0.1] * 12, t=5)
    assert ues[1].masked_update([0.1] * 12, t=8).iteration == 8


def test_masking_bound_violation_rejected():
    ues, *_ = make_fleet(seed=14)
    with pytest.raises(ValueError):
        ues[1].masked_update([2.0] * 12, t=0)


def test_precomputed_masks_bitwise_equal_on_the_fly():
    ues, *_ = make_fleet(seed=15)
    w = [0.25] * 12
    spontaneous = ues[1].masked_update(w, t=5)
    ues[2].key = ues[1].key  # same key, precomputed path
    ues[2].precompute(10)
    precomputed = ues[2].masked_update(w, t=5)
    assert spontaneous.payload.tolist() == precomputed.payload.tolist()


# -- precomputing a fleet in one call -------------------------------------------


def test_fleet_precompute_gives_each_device_its_row():
    ues, *_ = make_fleet(seed=40)
    fleet = [ues[3], ues[1], ues[6]]
    precompute_fleet(fleet, 5)
    for ue in fleet:
        assert np.array_equal(ue.precomputed_masks, khprf.precompute_masks(ue.key, 5, 12))
    assert ues[2].precomputed_masks is None
    # a device precomputed alone gets the same table
    ues[2].key = ues[3].key
    ues[2].precompute(5)
    assert np.array_equal(ues[2].precomputed_masks, ues[3].precomputed_masks)


@pytest.mark.parametrize("fault", ["dim", "key", "iterations"])
def test_fleet_precompute_is_all_or_nothing(fault):
    ues, *_ = make_fleet(seed=41)
    fleet = list(ues.values())
    iterations = 4
    if fault == "dim":
        fleet[5].dim = 11
    elif fault == "key":
        fleet[5].key = P
    else:
        iterations = 2.5
    with pytest.raises(ValueError):
        precompute_fleet(fleet, iterations)
    assert all(ue.precomputed_masks is None for ue in fleet)


def test_fleet_precompute_of_no_devices_is_a_no_op():
    assert precompute_fleet([], 4) is None


# -- masking a fleet in one call ----------------------------------------------

keys = st.sampled_from(EDGE_ELEMENTS) | st.integers(min_value=0, max_value=P - 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fleet_masking_matches_each_device_and_plain_ints(data):
    m = data.draw(st.integers(min_value=1, max_value=8), label="m")
    d = data.draw(st.integers(min_value=1, max_value=70), label="d")
    t = data.draw(st.integers(min_value=0, max_value=12), label="t")
    fleet_keys = data.draw(st.lists(keys, min_size=m, max_size=m), label="keys")
    # no table, a table that ends at or before t, or one that covers t
    tables = data.draw(st.lists(st.none() | st.integers(min_value=1, max_value=16),
                                min_size=m, max_size=m), label="tables")
    rows = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=d, max_size=d)
    w = data.draw(st.lists(rows, min_size=m, max_size=m), label="w")

    def fleet():
        ues = [UserEquipment(ue_id=r + 1, key=k, codec=CODEC, dim=d)
               for r, k in enumerate(fleet_keys)]
        for ue, n in zip(ues, tables):
            if n is not None:
                ue.precompute(n)
        return ues

    msgs = mask_updates(fleet(), np.array(w), t)
    # masks are one-use, so each device alone is a fresh twin
    alone = [ue.masked_update(row, t) for ue, row in zip(fleet(), w)]
    assert [(msg.sender, msg.iteration) for msg in msgs] == [(r + 1, t) for r in range(m)]
    for msg, own, key, row in zip(msgs, alone, fleet_keys, w):
        want = masked_update_plain(khprf.DOMAIN_TAG, key, t, row, CODEC.frac_bits)
        assert msg.payload.tolist() == own.payload.tolist() == want


def test_fleet_masking_is_all_or_nothing():
    ues, *_ = make_fleet(seed=17)
    ues[3].masked_update([0.0] * 12, t=2)
    fleet = [ues[1], ues[2], ues[3], ues[4]]
    with pytest.raises(ProtocolError):
        mask_updates(fleet, np.zeros((4, 12)), 2)
    assert [ue._last_iteration for ue in fleet] == [-1, -1, 2, -1]
    # an update beyond the magnitude bound spends no device's round either
    bad = np.zeros((3, 12))
    bad[2, 5] = 1.5
    with pytest.raises(ValueError):
        mask_updates([ues[1], ues[2], ues[4]], bad, 2)
    assert [ue._last_iteration for ue in fleet] == [-1, -1, 2, -1]
    msgs = mask_updates([ues[1], ues[2], ues[4]], np.zeros((3, 12)), 2)
    assert [msg.sender for msg in msgs] == [1, 2, 4]
    assert [ue._last_iteration for ue in fleet] == [2, 2, 2, 2]


def test_fleet_masking_refuses_a_device_listed_twice():
    # both rows would carry the same round mask, and their difference would
    # open the two updates' difference
    ues, *_ = make_fleet(seed=18)
    with pytest.raises(ProtocolError):
        mask_updates([ues[1], ues[2], ues[1]], np.zeros((3, 12)), 0)
    assert ues[1]._last_iteration == ues[2]._last_iteration == -1


def test_fleet_masking_needs_one_codec():
    ues, *_ = make_fleet(seed=19)
    ues[2].codec = replace(CODEC, frac_bits=12)
    with pytest.raises(ValueError):
        mask_updates([ues[1], ues[2]], np.zeros((2, 12)), 0)
    assert ues[1]._last_iteration == ues[2]._last_iteration == -1
    ues[2].codec = replace(CODEC)  # equal, not the same object
    assert len(mask_updates([ues[1], ues[2]], np.zeros((2, 12)), 0)) == 2


def test_fleet_masking_of_no_devices_is_empty():
    assert mask_updates([], np.zeros((0, 12)), 0) == []


@pytest.mark.parametrize("t", [-1, 2**64, 1.5, 1.0, None])
@pytest.mark.parametrize("precompute", [False, True], ids=["on_the_fly", "precomputed"])
def test_round_outside_the_word_range_is_refused(precompute, t):
    # once a ValueError, not struct.error or IndexError, and no device advances
    ues, *_ = make_fleet(seed=26)
    if precompute:
        for ue in ues.values():
            ue.precompute(4)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        mask_updates([ues[1], ues[2]], np.zeros((2, 12)), t)
    with pytest.raises(ValueError, match="round t = .* is not an int in"):
        ues[3].masked_update([0.0] * 12, t)
    assert all(ue._last_iteration == -1 for ue in ues.values())
    assert ues[1].masked_update([0.0] * 12, 2**64 - 1).iteration == 2**64 - 1


# -- collection and the online list ------------------------------------------


def test_collect_eight_devices():
    ues, bss, af, acc, _ = make_fleet(seed=20)
    af.begin_round(0)
    for i in range(1, 9):
        assert af.collect_update(ues[i].masked_update([0.0] * 12, 0)) is CollectStatus.ACCEPTED
    online = af.finalize_online_list()
    assert online.ue_ids.tolist() == list(range(1, 9))


def test_duplicate_update_rejected():
    ues, bss, af, *_ = make_fleet(seed=21)
    af.begin_round(0)
    msg = ues[1].masked_update([0.0] * 12, 0)
    assert af.collect_update(msg) is CollectStatus.ACCEPTED
    assert af.collect_update(msg) is CollectStatus.DUPLICATE
    assert len(af.masked_updates) == 1


def test_out_of_field_update_rejected():
    # a uint64 >= p would wrap mod 2^64 inside the kernels, not mod p
    ues, bss, af, *_ = make_fleet(seed=25)
    af.begin_round(0)
    good = ues[1].masked_update([0.0] * 12, 0).payload.tolist()
    for bad in (P, 2**64 - 1):
        with pytest.raises(ValueError):
            af.collect_update(MaskedUpdateMsg(2, 0, u64(good[:5] + [bad] + good[6:])))
    assert not af.masked_updates


def test_masked_update_matches_plain_ints():
    ues, *_ = make_fleet(seed=16)
    ue = ues[3]
    rng = random.Random(4)
    w = [rng.uniform(-1, 1) for _ in range(10)] + [1.0, -1.0]
    mask = [ue.key * hash_to_field(khprf.DOMAIN_TAG, 6, i) % P for i in range(12)]
    want = [(round(x * 2**16) + m) % P for x, m in zip(w, mask)]
    assert ue.masked_update(w, 6).payload.tolist() == want
    # round 6's mask is spent on ue, so the precomputed path needs a fresh
    # device with the same key
    twin = UserEquipment(ue_id=ue.ue_id, key=ue.key, codec=CODEC, dim=ue.dim)
    twin.precompute(8)
    assert twin.masked_update(w, 6).payload.tolist() == want


def test_stale_update_dropped():
    ues, bss, af, *_ = make_fleet(seed=22)
    af.begin_round(0)
    old = ues[1].masked_update([0.0] * 12, 0)
    af.begin_round(1)
    assert af.collect_update(old) is CollectStatus.STALE
    assert not af.masked_updates


def test_update_after_the_list_is_fixed_is_stale():
    # the stations answer the fixed list, so a later update must not join the
    # sum: its unmatched mask would turn the decoded average into noise
    ues, bss, af, *_ = make_fleet(seed=20)
    af.begin_round(0)
    for i in range(1, 6):
        af.collect_update(ues[i].masked_update([0.25] * 12, 0))
    online = af.finalize_online_list()
    assert af.collect_update(ues[6].masked_update([0.25] * 12, 0)) is CollectStatus.STALE
    assert sorted(af.masked_updates) == [1, 2, 3, 4, 5]
    assert af.finalize_online_list().ue_ids.tolist() == [1, 2, 3, 4, 5]
    shares = {j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, 12) for j in bss}
    update = af.unmask_and_aggregate(af.recover_mask(shares, MaskShareMode.EVALUATED))
    assert max(abs(u - 0.25) for u in update) <= 2.0**-17


def test_finalize_thresholds():
    # n=8, fraction 1/3: need ceil(8/3) = 3 online
    ues, bss, af, *_ = make_fleet(seed=23)
    af.begin_round(0)
    for i in (1, 2, 3):
        af.collect_update(ues[i].masked_update([0.0] * 12, 0))
    assert af.finalize_online_list() is not None

    af.begin_round(1)
    for i in (1, 2):
        af.collect_update(ues[i].masked_update([0.0] * 12, 1))
    assert af.finalize_online_list() is None


def test_finalize_all_online():
    ues, bss, af, *_ = make_fleet(seed=24)
    af.begin_round(0)
    for i in range(1, 9):
        af.collect_update(ues[i].masked_update([0.0] * 12, 0))
    assert af.finalize_online_list() is not None


# -- base-station mask shares -------------------------------------------------


def test_single_ue_list_share_is_plain_evaluation():
    ues, bss, af, *_ = make_fleet(seed=30)
    online = OnlineListMsg(0, 2, u64([5]))
    share = bss[1].mask_share(online, 2, MaskShareMode.EVALUATED, 12)
    assert share.vector.tolist() == khprf.evaluate(bss[1].stored_shares[5].y, 2, 12).tolist()


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
    ues, bss, af, *_ = make_fleet(seed=31)
    listed = (1, 3, 4, 7)
    online = OnlineListMsg(0, 1, u64(listed))
    share = bss[2].mask_share(online, 1, MaskShareMode.EVALUATED, 12)
    oracle = [0] * 12
    for i in listed:
        vec = khprf.evaluate(bss[2].stored_shares[i].y, 1, 12)
        oracle = [(a + b) % P for a, b in zip(oracle, vec)]
    assert list(share.vector) == oracle


def test_compact_share_is_nine_payload_bytes():
    ues, bss, af, *_ = make_fleet(seed=32)
    online = OnlineListMsg(0, 0, u64([1, 2]))
    compact = bss[1].mask_share(online, 0, MaskShareMode.COMPACT, 1000)
    evaluated = bss[1].mask_share(online, 0, MaskShareMode.EVALUATED, 1000)
    assert payload_length(compact) == 9
    assert payload_length(evaluated) == 1 + 4 + 8000


def test_missing_share_forces_abstention():
    ues, bss, af, *_ = make_fleet(seed=33)
    online = OnlineListMsg(0, 0, u64([1, 99]))
    with pytest.raises(MissingShareError):
        bss[1].mask_share(online, 0, MaskShareMode.EVALUATED, 12)


@pytest.mark.parametrize("forged", [(1, 1, 2, 3), (2, 1, 3)])
@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_repeated_or_unsorted_online_list_is_refused(forged, mode):
    # a repeated id would add that device's key share twice and the round
    # would unmask to garbage; such a list cannot be built, so no station
    # is ever handed one
    ues, bss, af, *_ = make_fleet(seed=34)
    with pytest.raises(ValueError, match="strictly increasing"):
        bss[1].mask_share(OnlineListMsg(0, 0, u64(forged)), 0, mode, 12)


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_online_list_for_another_round_is_refused(mode):
    # a round-1 share answering a round-0 list would unmask round 1 with the
    # wrong online set; the station refuses instead of abstaining
    ues, bss, af, *_ = make_fleet(seed=35)
    with pytest.raises(ProtocolError, match="round 0 asked to answer round 1") as err:
        bss[1].mask_share(OnlineListMsg(0, 0, u64([1, 2, 3])), 1, mode, 12)
    assert not isinstance(err.value, MissingShareError)


# -- recovery and unmasking ---------------------------------------------------


def per_ue_mask_sum_oracle(ues, online_ids, t, d):
    total = [0] * d
    for i in online_ids:
        total = [(a + b) % P for a, b in zip(total, khprf.evaluate(ues[i].key, t, d))]
    return total


@pytest.mark.parametrize("mode", [MaskShareMode.EVALUATED, MaskShareMode.COMPACT])
def test_recovery_with_all_stations(mode):
    ues, bss, af, *_ = make_fleet(seed=40)
    rng = random.Random(1)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
    online, mask = run_round(ues, bss, af, 0, list(ues), list(bss), mode, 12, updates)
    assert mask.tolist() == per_ue_mask_sum_oracle(ues, online.ue_ids, 0, 12)


def test_recovery_with_exactly_three_stations_identical():
    ues, bss, af, *_ = make_fleet(seed=41)
    updates = {i: [0.5] * 12 for i in ues}
    _, mask_all = run_round(ues, bss, af, 0, list(ues), [1, 2, 3, 4],
                            MaskShareMode.EVALUATED, 12, updates)
    ues2, bss2, af2, *_ = make_fleet(seed=41)
    _, mask_three = run_round(ues2, bss2, af2, 0, list(ues2), [2, 3, 4],
                              MaskShareMode.EVALUATED, 12, updates)
    assert mask_all.tolist() == mask_three.tolist()


def test_recovery_fails_with_two_stations():
    ues, bss, af, *_ = make_fleet(seed=42)
    updates = {i: [0.0] * 12 for i in ues}
    _, mask = run_round(ues, bss, af, 0, list(ues), [1, 4],
                        MaskShareMode.EVALUATED, 12, updates)
    assert mask is None


def round_one_shares(mode, d=12):
    """Honest shares of all four stations for round 1, after a round 0; the
    aggregator has recovered round 1 from them."""
    ues, bss, af, *_ = make_fleet(seed=44)
    updates = {i: [0.25] * d for i in ues}
    run_round(ues, bss, af, 0, list(ues), list(bss), mode, d, updates)
    old = {j: bss[j].mask_share(OnlineListMsg(0, 0, u64(list(ues))), 0, mode, d) for j in bss}
    online, mask = run_round(ues, bss, af, 1, list(ues), list(bss), mode, d, updates)
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


def test_mode_equivalence_bitwise():
    updates = None
    results = []
    for mode in (MaskShareMode.EVALUATED, MaskShareMode.COMPACT):
        ues, bss, af, *_ = make_fleet(seed=43)
        rng = random.Random(7)
        updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
        _, mask = run_round(ues, bss, af, 0, list(ues), [1, 2, 3], mode, 12, updates)
        results.append(mask)
    assert results[0].tolist() == results[1].tolist()


def test_unmask_average_of_one():
    # participation floor lowered so a single device clears it
    ues, bss, af, *_ = make_fleet(seed=44, alpha=0.1)
    updates = {i: [0.5] * 12 for i in ues}
    _, mask = run_round(ues, bss, af, 0, [3], list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - 0.5) for u in update) <= 2.0**-17


def test_unmask_below_the_participation_floor_is_refused():
    # n=8, fraction 1/3: two updates fix a list that halts the round, so its
    # mask sum, though recoverable from a hand-built list, must not open it
    ues, bss, af, *_ = make_fleet(seed=1)
    af.begin_round(0)
    for i in (1, 2):
        af.collect_update(ues[i].masked_update([0.25] * 12, 0))
    assert af.finalize_online_list() is None
    listed = OnlineListMsg(0, 0, af.online_ids)
    shares = {j: bss[j].mask_share(listed, 0, MaskShareMode.EVALUATED, 12) for j in bss}
    mask = af.recover_mask(shares, MaskShareMode.EVALUATED)
    with pytest.raises(ProtocolError, match="below the floor of 3"):
        af.unmask_and_aggregate(mask)
    assert af.global_model.tolist() == [0.0] * 12


def test_unmask_matches_plaintext_average_oracle():
    ues, bss, af, *_ = make_fleet(seed=45)
    rng = random.Random(2)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
    _, mask = run_round(ues, bss, af, 0, list(ues), list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    oracle = [sum(updates[i][c] for i in ues) / len(ues) for c in range(12)]
    assert max(abs(u - o) for u, o in zip(update, oracle)) <= 2.0**-17


def test_unmask_is_bit_identical_to_plain_float_ops():
    # plain ints for the field, then the same float64 operations in the same
    # order: decode each sum component, divide by the count, add to the model
    ues, bss, af, *_ = make_fleet(seed=50)
    rng = random.Random(5)
    af.global_model = [rng.uniform(-4, 4) for _ in range(12)]
    model = list(af.global_model)
    online_ids = [1, 2, 4, 6, 7]
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
    online, mask = run_round(ues, bss, af, 0, online_ids, list(bss),
                             MaskShareMode.EVALUATED, 12, updates)
    encoded_sum = [
        (sum(int(af.masked_updates[i][c]) for i in online_ids) - int(mask[c])) % P
        for c in range(12)
    ]
    want = [(x - P if x > P // 2 else x) / 2**16 / 5 for x in encoded_sum]
    update = af.unmask_and_aggregate(mask)
    assert update.tolist() == want
    assert af.global_model.tolist() == [m + u for m, u in zip(model, want)]


def test_unmask_identical_updates_is_fixed_point():
    ues, bss, af, *_ = make_fleet(seed=46)
    w = [(-1) ** c * 0.125 for c in range(12)]
    updates = {i: list(w) for i in ues}
    _, mask = run_round(ues, bss, af, 0, list(ues), list(bss),
                        MaskShareMode.EVALUATED, 12, updates)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - x) for u, x in zip(update, w)) <= 2.0**-17


def test_dropped_ue_contributes_nothing():
    # devices outside the list are absent from both the sum and the mask
    ues, bss, af, *_ = make_fleet(seed=47)
    online_ids = [1, 2, 3, 5, 8]
    updates = {i: [0.25] * 12 for i in ues}
    online, mask = run_round(ues, bss, af, 0, online_ids, list(bss),
                             MaskShareMode.EVALUATED, 12, updates)
    assert online.ue_ids.tolist() == online_ids
    assert mask.tolist() == per_ue_mask_sum_oracle(ues, online_ids, 0, 12)
    update = af.unmask_and_aggregate(mask)
    assert max(abs(u - 0.25) for u in update) <= 2.0**-17


def test_fallback_keeps_model_bitwise():
    ues, bss, af, *_ = make_fleet(seed=48)
    af.global_model = np.array([0.125, -3.5] + [0.0] * 10)
    before = af.global_model.tolist()
    msg = af.fallback()
    assert msg.weights.tolist() == before
    assert af.global_model.tolist() == before


def test_threshold_privacy_surrogate():
    # two station payloads plus every masked update reveal neither the
    # aggregated mask nor any individual one
    ues, bss, af, *_ = make_fleet(seed=49)
    rng = random.Random(3)
    updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
    af.begin_round(0)
    for i in ues:
        af.collect_update(ues[i].masked_update(updates[i], 0))
    online = af.finalize_online_list()
    shares = {
        j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, 12) for j in (1, 2)
    }
    assert af.recover_mask(shares, MaskShareMode.EVALUATED) is None
    # no pair of stations' payloads equals any device's individual mask
    for j in (1, 2):
        for i in ues:
            assert shares[j].vector.tolist() != khprf.evaluate(ues[i].key, 0, 12).tolist()


# -- message well-formedness -------------------------------------------------
# Each message type checks its own fields when built, so the roles never see
# an out-of-field element or a disordered online list, however it was made.


def test_station_cannot_be_handed_an_out_of_field_share():
    bs = BaseStation(bs_id=1)
    with pytest.raises(ValueError):
        bs.receive_share(SetupShareMsg(3, 0, 1, SecretShare(1, P + 7)))
    assert not bs.stored_shares


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
    assert OnlineListMsg(0, 0, u64([0, 2**64 - 1])).to_bytes()
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
        *[(UserEquipment, ue, f) for f in ("precomputed_masks", "_setup_done",
                                           "_last_iteration")],
        (BaseStation, {"bs_id": 1}, "stored_shares"),
        *[(Aggregator, af, f) for f in ("iteration", "global_model", "masked_updates",
                                        "online_ids", "_warned_compact")],
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
        ues, bss, af, *_ = make_fleet(seed=100 + seed)
        rng = random.Random(seed)
        online_ids = sorted(rng.sample(range(1, 9), rng.randint(3, 8)))
        updates = {i: [rng.uniform(-1, 1) for _ in range(12)] for i in ues}
        online, mask = run_round(ues, bss, af, 0, online_ids, list(bss),
                                 MaskShareMode.EVALUATED, 12, updates)
        masked_sum = [0] * 12
        for i in online.ue_ids:
            masked_sum = field.vec_add(masked_sum, list(af.masked_updates[i]))
        protocol_sum = field.vec_sub(masked_sum, mask)
        encoded = {i: encode_update(updates[i], CODEC) for i in online_ids}
        [oracle_sum] = alpha_summation_oracle([set(online_ids)], encoded,
                                              alpha=1.0 / 3.0, n=8)
        assert protocol_sum.tolist() == oracle_sum
