"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All tolerances are fixed here, in the assertions; the oracles are
plain big-int / plain-float computations written out in this module.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from secagg5g import field, fltask, khprf
from secagg5g.field import P, FixedPointCodec, encode_update
from secagg5g.messages import MaskShareMode, OnlineListMsg, payload_length
from secagg5g.protocol import (
    Aggregator,
    BaseStation,
    UserEquipment,
    generate_key,
    route_setup_shares,
)
from oracles import alpha_summation_oracle
from secagg5g.shamir import AccessStructure, SecretShare, split
from secagg5g.simnet import (
    AGGREGATED,
    FALLBACK,
    DropoutSchedule,
    SimConfig,
    run_simulation,
)

CODEC = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=1024)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def build_fleet(seed: int, d: int, n=8, k=4, t=3):
    rng = random.Random(seed)
    acc = AccessStructure(t, k)
    ues = {
        i: UserEquipment(ue_id=i, key=generate_key(rng), codec=CODEC, dim=d)
        for i in range(1, n + 1)
    }
    bss = {j: BaseStation(bs_id=j) for j in range(1, k + 1)}
    for ue in ues.values():
        for j, msg in route_setup_shares(ue.setup(acc, rng), set(bss)).items():
            bss[j].receive_share(msg)
    af = Aggregator(registered_n=n, min_online_fraction=1.0 / 3.0,
                    bs_threshold=acc, codec=CODEC, dim=d)
    return ues, bss, af, rng


def recovered_field_sum(ues, bss, af, online_ids, online_bs, t, d, updates, mode):
    af.begin_round(t)
    for i in online_ids:
        af.collect_update(ues[i].masked_update(updates[i], t))
    online = af.finalize_online_list()
    shares = {j: bss[j].mask_share(online, t, mode, d) for j in online_bs}
    mask = af.recover_mask(shares, mode)
    masked_sum = [0] * d
    for i in online.ue_ids:
        masked_sum = field.vec_add(masked_sum, list(af.masked_updates[i]))
    return field.vec_sub(masked_sum, mask)


def test_criterion_1_exact_aggregation():
    with criterion(1, "exact aggregation, d=1000, 100 seeds"):
        start = time.perf_counter()
        d = 1000
        for seed in range(100):
            ues, bss, af, rng = build_fleet(seed, d)
            online_ids = sorted(rng.sample(range(1, 9), rng.randint(3, 8)))
            updates = {i: [rng.uniform(-1, 1) for _ in range(d)] for i in online_ids}
            t = seed % 3
            got = recovered_field_sum(ues, bss, af, online_ids, [1, 2, 3, 4],
                                      t, d, updates, MaskShareMode.EVALUATED)
            encoded = {i: encode_update(updates[i], CODEC) for i in online_ids}
            expected = [0] * d
            for i in online_ids:
                expected = [(a + b) % P for a, b in zip(expected, encoded[i])]
            assert got.tolist() == expected  # zero tolerance
            [oracle] = alpha_summation_oracle([set(online_ids)], encoded,
                                              alpha=1.0 / 3.0, n=8)
            assert got.tolist() == oracle
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_threshold_boundary():
    with criterion(2, "3-of-4 recovery boundary, exhaustive subsets, 20 seeds"):
        d = 32
        for seed in range(20):
            ues, bss, af, rng = build_fleet(seed, d)
            updates = {i: [rng.uniform(-1, 1) for _ in range(d)] for i in ues}
            af.begin_round(0)
            for i in ues:
                af.collect_update(ues[i].masked_update(updates[i], 0))
            online = af.finalize_online_list()
            shares = {
                j: bss[j].mask_share(online, 0, MaskShareMode.EVALUATED, d)
                for j in bss
            }
            masks = []
            for subset in combinations(shares, 3):
                picked = {j: shares[j] for j in subset}
                masks.append(af.recover_mask(picked, MaskShareMode.EVALUATED))
            assert all(m.tolist() == masks[0].tolist() for m in masks[1:])
            assert masks[0] is not None
            for subset in combinations(shares, 2):
                picked = {j: shares[j] for j in subset}
                assert af.recover_mask(picked, MaskShareMode.EVALUATED) is None


def test_criterion_3_single_round_contract():
    with criterion(3, "single-round message counts, zero tolerance"):
        task = fltask.generate_data(seed=5, n_ues=8, samples_per_shard=20,
                                    test_samples=50)
        for sched in (DropoutSchedule.none(),
                      DropoutSchedule.constant(ue_ids=(7, 8), bs_ids=(4,))):
            cfg = SimConfig(rng_seed=2, model_dim=task.dim, iterations=10)
            result = run_simulation(cfg, sched, task)
            assert result.setup.msgs_ue_to_bs == 8 * 4  # k messages per UE
            for rm in result.rounds:
                if rm.outcome != AGGREGATED:
                    continue
                assert rm.msgs_ue_to_af == rm.online_ues
                assert rm.msgs_bs_to_af == rm.online_bss


def test_criterion_4_khprf_homomorphism():
    with criterion(4, "key homomorphism exact, 1000 pairs + 8-key sums + Lagrange"):
        start = time.perf_counter()
        d = 16
        rng = random.Random(404)
        for _ in range(1000):
            k1, k2 = rng.randrange(P), rng.randrange(P)
            t = rng.randrange(64)
            lhs = khprf.evaluate((k1 + k2) % P, t, d)
            rhs = [
                (a + b) % P
                for a, b in zip(khprf.evaluate(k1, t, d), khprf.evaluate(k2, t, d))
            ]
            assert lhs.tolist() == rhs
        for count in range(2, 9):
            keys = [rng.randrange(P) for _ in range(count)]
            t = rng.randrange(64)
            total = khprf.evaluate(sum(keys) % P, t, d)
            acc_vec = [0] * d
            for k in keys:
                acc_vec = [(a + b) % P for a, b in zip(acc_vec, khprf.evaluate(k, t, d))]
            assert total.tolist() == acc_vec
        acc = AccessStructure(3, 4)
        for _ in range(20):
            key = rng.randrange(P)
            t = rng.randrange(64)
            shares = split(key, acc, rng)
            want = khprf.evaluate(key, t, d)
            for subset in combinations(shares, 3):
                from secagg5g.shamir import combine_linear, lagrange_coeffs_at_zero

                lams = lagrange_coeffs_at_zero([s.x for s in subset])
                got = combine_linear([khprf.evaluate(s.y, t, d) for s in subset], lams)
                assert got.tolist() == want.tolist()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_5_precompute_equivalence():
    with criterion(5, "precomputed masks bitwise equal, T=20, 10 keys"):
        rng = random.Random(55)
        for _ in range(10):
            key = rng.randrange(P)
            table = khprf.precompute_masks(key, 20, 24)
            for t in range(20):
                assert table[t].tolist() == khprf.evaluate(key, t, 24).tolist()


def _final_accuracies_by_drop(drops, seeds, iterations=10):
    means = {}
    for drop in drops:
        finals = []
        for seed in seeds:
            task = fltask.generate_data(seed=1000 + seed, n_ues=8,
                                        samples_per_shard=40, test_samples=200)
            cfg = SimConfig(rng_seed=seed, model_dim=task.dim, iterations=iterations)
            sched = DropoutSchedule.constant(ue_ids=range(8 - drop + 1, 9))
            result = run_simulation(cfg, sched, task)
            assert all(rm.outcome == AGGREGATED for rm in result.rounds)
            finals.append(result.rounds[-1].accuracy)
        means[drop] = sum(finals) / len(finals)
    return means


def test_criterion_6_ue_dropout_resilience():
    with criterion(6, "UE dropout sweep: accuracy stable, monotone in noise band"):
        start = time.perf_counter()
        drops = list(range(0, 6))  # online 8 down to 3 = ceil(8/3)
        means = _final_accuracies_by_drop(drops, seeds=range(10))
        baseline = means[0]
        for drop in drops:
            assert abs(means[drop] - baseline) <= 0.05, (drop, means)
        for lo, hi in zip(drops, drops[1:]):
            assert means[hi] <= means[lo] + 0.02, (lo, hi, means)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_bs_dropout_stagnation():
    with criterion(7, "two stations offline: model bitwise frozen, flat accuracy"):
        task = fltask.generate_data(seed=9, n_ues=8, samples_per_shard=20,
                                    test_samples=100)
        cfg = SimConfig(rng_seed=3, model_dim=task.dim, iterations=10)
        sched = DropoutSchedule.constant(bs_ids=(1, 2))
        result = run_simulation(cfg, sched, task)
        assert [rm.outcome for rm in result.rounds] == [FALLBACK] * 10
        initial = [0.0] * task.dim
        assert all(model == initial for model in result.model_history)
        assert len({rm.accuracy for rm in result.rounds}) == 1


def test_criterion_8_bandwidth_compact_vs_evaluated():
    with criterion(8, "BS payload: compact <= 16 B any d, ratio >= 400x at d=1000"):
        for d in (1, 10, 1000, 4096):
            ues, bss, af, rng = build_fleet(800 + d, d)
            online = OnlineListMsg(0, 0, np.arange(1, 9, dtype=np.uint64))
            compact = bss[1].mask_share(online, 0, MaskShareMode.COMPACT, d)
            evaluated = bss[1].mask_share(online, 0, MaskShareMode.EVALUATED, d)
            assert payload_length(compact) <= 16
            assert payload_length(evaluated) == 8 * d + 5
            if d == 1000:
                ratio = payload_length(evaluated) / payload_length(compact)
                assert ratio >= 400
            # both modes reconstruct the identical mask vector
            af.begin_round(0)
            for i in ues:
                af.collect_update(ues[i].masked_update([0.0] * d, 0))
            lst = af.finalize_online_list()
            by_mode = {}
            for mode in (MaskShareMode.EVALUATED, MaskShareMode.COMPACT):
                shares = {j: bss[j].mask_share(lst, 0, mode, d) for j in (1, 3, 4)}
                by_mode[mode] = af.recover_mask(shares, mode)
            assert by_mode[MaskShareMode.EVALUATED].tolist() == by_mode[MaskShareMode.COMPACT].tolist()


def test_criterion_9_shamir_hiding_surrogate():
    with criterion(9, "any 2 shares consistent with 20 candidate secrets, 50 trials"):

        def interp_at(points, x):
            total = 0
            for j, (xj, yj) in enumerate(points):
                num, den = 1, 1
                for m, (xm, _) in enumerate(points):
                    if m == j:
                        continue
                    num = num * (x - xm) % P
                    den = den * (xj - xm) % P
                total = (total + yj * num * pow(den, P - 2, P)) % P
            return total

        acc = AccessStructure(3, 4)
        rng = random.Random(909)
        for _ in range(50):
            secret = rng.randrange(P)
            shares = split(secret, acc, rng)
            pair = rng.sample(shares, 2)
            anchors = [(s.x, s.y) for s in pair]
            for _ in range(20):
                candidate = rng.randrange(P)
                points = [(0, candidate)] + anchors
                # degree-2 polynomial through the candidate secret and both
                # observed shares; a full share set drawn from it is valid
                rebuilt = [SecretShare(x, interp_at(points, x)) for x in range(1, 5)]
                assert interp_at(points, 0) == candidate
                for s in pair:
                    assert interp_at(points, s.x) == s.y
                from secagg5g.shamir import recover

                assert recover(rebuilt, acc) == candidate


def test_criterion_10_plaintext_fedavg_equivalence():
    with criterion(10, "secure run matches plaintext FedAvg oracle per round"):
        tolerance = 8 * 2.0**-17
        for seed in range(10):
            task = fltask.generate_data(seed=2000 + seed, n_ues=8,
                                        samples_per_shard=30, test_samples=100)
            cfg = SimConfig(rng_seed=seed, model_dim=task.dim, iterations=10)
            result = run_simulation(cfg, DropoutSchedule.none(), task)
            prev = [0.0] * task.dim
            for t, model in enumerate(result.model_history):
                realized = [m - p for m, p in zip(model, prev)]
                oracle_updates = [task.local_update(i, prev) for i in range(8)]
                oracle_avg = [
                    sum(u[c] for u in oracle_updates) / 8 for c in range(task.dim)
                ]
                worst = max(abs(r - o) for r, o in zip(realized, oracle_avg))
                assert worst <= tolerance, (seed, t, worst)
                prev = model
