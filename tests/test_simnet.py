"""Simulator tests: determinism, dropout semantics, accounting, deadlines.

Wall-clock timing fields are excluded from every equality check; simulated
outcomes and byte counts are the deterministic contract.
"""

import hashlib
import json
import math
import random
import re
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import total_received, total_sent
from secagg5g import fltask, khprf, protocol, simnet
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateBlock,
    MaskedUpdateMsg,
    MaskShareMode,
    MaskShareMsg,
    OnlineListMsg,
    SetupShareBlock,
    SetupShareMsg,
)
from secagg5g.simnet import (
    AGGREGATED,
    FALLBACK,
    DropoutSchedule,
    RoundMetrics,
    SimConfig,
    _Simulation,
    account_message,
    apply_dropout,
    run_simulation,
)

TIME_FIELDS = ("time_ue_ms", "time_bs_ms", "time_af_ms", "time_setup_ms")


def strip_times(metrics) -> dict:
    d = asdict(metrics)
    for f in TIME_FIELDS:
        d.pop(f, None)
    return d


def small_task(seed=3, n_ues=8):
    return fltask.generate_data(seed=seed, n_ues=n_ues, samples_per_shard=20,
                                test_samples=100)


def small_cfg(**kw):
    base = dict(n_ues=8, n_bss=4, bs_threshold=3, model_dim=10, iterations=10,
                rng_seed=1)
    base.update(kw)
    return SimConfig(**base)


# -- configuration and schedule ------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(bs_threshold=5, n_bss=4)
    with pytest.raises(ValueError):
        SimConfig(iterations=0)
    with pytest.raises(ValueError):
        SimConfig(deadline_ms=1.0, latency_base_ms=5.0)
    with pytest.raises(ValueError):
        SimConfig(min_online_fraction=0.0)
    # 1 equals COMPACT's value but is not a mode; once run, it failed in round 0
    for mode in (1, "EVALUATED", None):
        with pytest.raises(ValueError, match="mask_share_mode must be a MaskShareMode"):
            SimConfig(mask_share_mode=mode)


@pytest.mark.parametrize("name", ["n_ues", "n_bss", "bs_threshold", "model_dim", "iterations",
                                  "frac_bits", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, 4.0, "4", None, True])
def test_config_refuses_counts_that_are_not_ints(name, value):
    # before, a float count built a config that failed only once run, and
    # an rng_seed of None seeded from the OS, 1.0 and True ran as seed 1
    with pytest.raises(ValueError, match=f"{name} = .* is not an int"):
        SimConfig(**{name: value})


def test_config_refuses_a_negative_seed():
    # random.Random seeds with |seed|, so -1 ran as seed 1
    with pytest.raises(ValueError, match=r"rng_seed = -1 is not an int >= 0"):
        SimConfig(rng_seed=-1)


@pytest.mark.parametrize("name", ["min_online_fraction", "latency_base_ms", "latency_jitter_ms",
                                  "deadline_ms", "magnitude_bound"])
@pytest.mark.parametrize("value", [True, False, "5", None])
def test_config_refuses_knobs_that_are_not_real_numbers(name, value):
    # before, a JSON true built a config that ran with 1.0, and a string or
    # None failed in a comparison as a TypeError
    with pytest.raises(ValueError, match=f"{name} = .* is not a real number"):
        SimConfig(**{name: value})


@pytest.mark.parametrize("d", [0, -1])
def test_config_refuses_an_empty_model(d):
    with pytest.raises(ValueError, match="model_dim = .* is not an int >= 1"):
        SimConfig(model_dim=d)


@pytest.mark.parametrize("name", ["latency_base_ms", "latency_jitter_ms", "deadline_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_timings(name, value):
    # NaN fails every comparison, so range checks alone let it through
    with pytest.raises(ValueError, match=f"{name} = .* is not a real number in"):
        SimConfig(**{name: value})


def test_config_rejects_negative_base_latency():
    # simulated time would run backwards
    with pytest.raises(ValueError):
        SimConfig(latency_base_ms=-1.0)


def test_config_checks_threshold_and_codec_through_their_types():
    with pytest.raises(ValueError, match=r"threshold = 5 is not an int in \[1, 5\)"):
        SimConfig(bs_threshold=5, n_bss=4)
    with pytest.raises(ValueError):
        SimConfig(n_bss=0)
    # an overflowing codec is refused at construction, not on the first run
    with pytest.raises(ValueError, match="overflows the field"):
        SimConfig(frac_bits=60)


def test_the_simulator_drives_only_the_holders():
    # one copy per job: the simulator reaches devices and stations through
    # Fleet and Stations, never through a one-row view
    source = Path(simnet.__file__).read_text(encoding="utf-8")
    assert not re.findall(r"\.device\(|\.station\(|\bUserEquipment\b|\bBaseStation\b", source)


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_simulation_precomputes_the_fleet_once(monkeypatch, mode):
    calls = []
    fleet_pass = khprf.precompute_fleet

    def counted(keys, num_iterations, d):
        calls.append((len(keys), num_iterations, d))
        return fleet_pass(keys, num_iterations, d)

    monkeypatch.setattr(khprf, "precompute_fleet", counted)
    cfg = small_cfg(iterations=6, mask_share_mode=mode)
    sim = _Simulation(cfg, DropoutSchedule.none(), small_task())
    sim.run()
    assert calls == [(8, 6, 10)]
    for ue in map(sim.fleet.device, range(len(sim.fleet))):
        assert np.array_equal(ue.precomputed_masks, khprf.precompute_masks(ue.key, 6, 10))


def test_closed_rounds_keep_no_shares(monkeypatch):
    # EVALUATED shares pin their wire bodies; a closed round needs metrics only
    shares = []

    def from_bytes(raw, decode=simnet.from_bytes):
        msg = decode(raw)
        if isinstance(msg, MaskShareMsg):
            shares.append(weakref.ref(msg))
        return msg

    monkeypatch.setattr(simnet, "from_bytes", from_bytes)
    sim = _Simulation(small_cfg(iterations=4), DropoutSchedule.none(), small_task())
    result = sim.run()
    assert [rm.outcome for rm in result.rounds] == [AGGREGATED] * 4
    assert len(shares) == sum(rm.msgs_bs_to_af for rm in result.rounds) > 0
    assert [ref for ref in shares if ref() is not None] == []


def test_config_needs_a_device_before_building_its_codec():
    # the codec's summand limit is n_ues, so zero must fail as a population
    with pytest.raises(ValueError, match="n_ues = 0 is not an int >= 1"):
        SimConfig(n_ues=0)


def test_codec_covers_exactly_the_registered_devices():
    assert SimConfig(n_ues=5).codec().max_summands == 5


@pytest.mark.parametrize("prob", [1.5, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("role", ["ue", "bs"])
def test_schedule_rejects_probability_outside_unit_interval(role, prob):
    with pytest.raises(ValueError, match=fr"{role}_prob = .* is not a real number in \[0, 1\]"):
        DropoutSchedule(**{f"{role}_prob": prob, f"prob_{role}_ids": (1, 2, 3)})


@pytest.mark.parametrize("prob", [True, "0.5", None])
@pytest.mark.parametrize("role", ["ue", "bs"])
def test_schedule_rejects_probability_that_is_not_a_real_number(role, prob):
    with pytest.raises(ValueError, match=f"{role}_prob = .* is not a real number"):
        DropoutSchedule(**{f"{role}_prob": prob, f"prob_{role}_ids": (1, 2, 3)})


@pytest.mark.parametrize("make, name", [
    (lambda: DropoutSchedule.constant(ue_ids=[True, 2.0]), "ue_always"),
    (lambda: DropoutSchedule(ue_rounds={0: frozenset({1.0})}), r"ue_rounds\[0\]"),
    (lambda: DropoutSchedule(ue_rounds={True: frozenset({3})}), "ue_rounds"),
], ids=["bool_and_float_ids", "float_id_in_a_round", "bool_round"])
def test_schedule_refuses_ids_and_rounds_that_are_not_ints(make, name):
    # each was accepted: ids and rounds are compared as sets, where True and
    # 1.0 stand for device or round 1, and 2.0 for device 2
    with pytest.raises(ValueError, match=f"{name} = .* is not an int"):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: DropoutSchedule(ue_always=[1]), "ue_always must be a set"),
    (lambda: DropoutSchedule(bs_always=(1,)), "bs_always must be a set"),
    (lambda: DropoutSchedule(ue_rounds={0: [2]}), r"ue_rounds\[0\] must be a set"),
    (lambda: DropoutSchedule(ue_rounds={0: 3}), r"ue_rounds\[0\] must be a set"),
    (lambda: DropoutSchedule(bs_rounds={1: "2"}), r"bs_rounds\[1\] must be a set"),
    (lambda: DropoutSchedule(ue_rounds=[(0, {1})]), "ue_rounds must be a dict"),
    (lambda: DropoutSchedule(bs_rounds=None), "bs_rounds must be a dict"),
], ids=["always_list", "always_tuple", "round_list", "round_int", "round_str", "rounds_list",
        "rounds_none"])
def test_schedule_refuses_groups_that_are_not_sets(make, match):
    # a list or tuple passed every check and failed only in round 0's union
    # of the dropouts, a bare id or a list of pairs raised TypeError or
    # AttributeError when built
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("seed", [True, 1.0, "1", None, -1])
def test_schedule_refuses_a_seed_that_is_not_an_int(seed):
    # each draw is seeded by the seed's text: True and 1.0 drew other
    # dropouts than 1
    with pytest.raises(ValueError, match="prob_seed = .* is not an int >= 0"):
        DropoutSchedule(ue_prob=0.5, prob_seed=seed, prob_ue_ids=tuple(range(1, 21)))


@pytest.mark.parametrize("role", ["ue", "bs"])
def test_schedule_rejects_probability_without_ids(role):
    # a positive rate over no ids would silently drop no one
    with pytest.raises(ValueError, match=f"prob_{role}_ids"):
        DropoutSchedule(**{f"{role}_prob": 0.9})


def test_schedule_accepts_the_unit_interval_ends():
    sched = DropoutSchedule(ue_prob=1.0, bs_prob=0.0, prob_ue_ids=(1, 2), prob_bs_ids=())
    assert sched.dropped_ues(0) == {1, 2}
    assert sched.dropped_bss(0) == frozenset()


def test_apply_dropout_empty_schedule():
    online_ues, online_bss = apply_dropout(DropoutSchedule.none(), 0, range(1, 9), range(1, 5))
    assert online_ues == tuple(range(1, 9))
    assert online_bss == tuple(range(1, 5))


def test_apply_dropout_explicit_round():
    sched = DropoutSchedule(ue_rounds={2: frozenset({3})})
    assert 3 not in apply_dropout(sched, 2, range(1, 9), range(1, 5))[0]
    assert 3 in apply_dropout(sched, 3, range(1, 9), range(1, 5))[0]


def test_apply_dropout_probability_zero():
    sched = DropoutSchedule(ue_prob=0.0, bs_prob=0.0, prob_seed=4,
                            prob_ue_ids=tuple(range(1, 9)), prob_bs_ids=(1, 2, 3, 4))
    for t in range(5):
        ues, bss = apply_dropout(sched, t, range(1, 9), range(1, 5))
        assert len(ues) == 8 and len(bss) == 4


def test_probabilistic_schedule_is_pure_in_t():
    sched = DropoutSchedule(ue_prob=0.5, prob_seed=9, prob_ue_ids=tuple(range(1, 9)))
    for t in range(4):
        assert sched.dropped_ues(t) == sched.dropped_ues(t)


def test_schedule_unknown_ids_rejected():
    cfg = small_cfg()
    sched = DropoutSchedule(ue_rounds={0: frozenset({42})})
    with pytest.raises(ValueError):
        run_simulation(cfg, sched, small_task())


@pytest.mark.parametrize("sched", [
    # no draw in 3 rounds drops device 99, and round 7 never runs: the ids
    # named are checked, not the ones drawn
    DropoutSchedule(ue_prob=0.01, prob_seed=1, prob_ue_ids=(1, 99)),
    DropoutSchedule(bs_rounds={7: frozenset({9})}),
], ids=["bernoulli_candidate", "round_past_the_run"])
def test_schedule_naming_an_unknown_id_is_refused_though_never_drawn(sched):
    with pytest.raises(ValueError, match="unknown ids"):
        run_simulation(small_cfg(iterations=3), sched, small_task())


def test_each_rounds_dropout_is_drawn_once():
    calls = []

    class Counting(DropoutSchedule):
        def dropped_ues(self, t):
            calls.append(("ue", t))
            return super().dropped_ues(t)

        def dropped_bss(self, t):
            calls.append(("bs", t))
            return super().dropped_bss(t)

    sched = Counting(ue_prob=0.3, bs_prob=0.2, prob_seed=2,
                     prob_ue_ids=tuple(range(1, 9)), prob_bs_ids=(1, 2, 3, 4))
    result = run_simulation(small_cfg(iterations=4), sched, small_task())
    assert len(result.rounds) == 4
    assert sorted(calls) == sorted((role, t) for role in ("ue", "bs") for t in range(4))


def test_task_dimension_must_match():
    cfg = small_cfg(model_dim=99)
    with pytest.raises(ValueError):
        run_simulation(cfg, DropoutSchedule.none(), small_task())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64), m=st.integers(min_value=0, max_value=50),
       base=st.floats(min_value=0.0, max_value=1e300),
       jitter=st.floats(min_value=0.0, max_value=1e300))
@example(seed=0, m=3, base=0.0, jitter=0.0)
def test_latencies_draw_what_uniform_draws(seed, m, base, jitter):
    # uniform(0.0, jitter) computes 0.0 + jitter * random(), so a batch of
    # random() draws gives the same floats in the same order
    cfg = SimConfig(n_ues=1, n_bss=1, bs_threshold=1, model_dim=1, iterations=1,
                    latency_base_ms=base, latency_jitter_ms=jitter, deadline_ms=2 * base + 1)
    task = fltask.generate_data(seed=0, n_ues=1, feature_dim=0, samples_per_shard=1,
                                test_samples=1)
    sim = _Simulation(cfg, DropoutSchedule.none(), task)
    sim.latency_rng = random.Random(seed)
    reference = random.Random(seed)
    expected = [base + reference.uniform(0.0, jitter) for _ in range(m)]
    assert [x.hex() for x in sim._latencies(m)] == [x.hex() for x in expected]


# -- byte accounting ------------------------------------------------------------


def test_account_message_masked_update_d1000():
    metrics = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    msg = MaskedUpdateMsg(1, 0, np.arange(1000, dtype=np.uint64))
    account_message(metrics, msg)
    assert metrics.bytes_ue_sent == 17 + 4 + 8000
    assert metrics.bytes_af_recv == 17 + 4 + 8000


def test_account_message_compact_share():
    metrics = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    msg = MaskShareMsg(2, 0, scalar=7)
    account_message(metrics, msg)
    assert metrics.bytes_bs_sent == 17 + 1 + 8
    assert metrics.bytes_af_recv == 26


@pytest.mark.parametrize("msg", [MaskedUpdateMsg(3, 0, np.arange(10, dtype=np.uint64)),
                                 GlobalModelMsg(0, 0, np.zeros(10))], ids=["update", "model"])
def test_account_message_charges_copies_in_one_step(msg):
    # a block of updates or a model broadcast is charged as m deliveries
    block = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    one_by_one = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    account_message(block, msg, 205)
    for _ in range(205):
        account_message(one_by_one, msg)
    assert block == one_by_one and total_sent(block) == 205 * (17 + 4 + 80)


def test_zero_messages_zero_bytes():
    metrics = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    assert total_sent(metrics) == 0
    assert total_received(metrics) == 0


# -- golden counters ---------------------------------------------------------------

# Every integer counter and outcome of three scenarios per mode, recorded when
# message counts were charged where each message was sent. Totals name the
# counter that moved; the digest covers every round's values. No float enters,
# so these hold across BLAS builds. When the online list became a bitmap of
# the registered devices, bytes_af_sent and bytes_bs_recv were restated, each
# 8L - ceil(n/8) bytes lower per list sent, and nothing else moved.
GOLDEN_SCENARIOS = {
    "late": (dict(latency_base_ms=5.0, latency_jitter_ms=200.0, deadline_ms=30.0),
             DropoutSchedule.none()),
    "bernoulli": ({}, DropoutSchedule(ue_prob=0.4, bs_prob=0.35, prob_seed=11,
                                      prob_ue_ids=tuple(range(1, 9)),
                                      prob_bs_ids=(1, 2, 3, 4))),
    "bs_3_4_off": ({}, DropoutSchedule.constant(bs_ids=(3, 4))),
}
GOLDEN_SETUP = {"bytes_ue_sent": 1312, "bytes_bs_recv": 1312, "msgs_ue_to_bs": 32}
GOLDEN_ROUNDS = {
    ("EVALUATED", "late"): (
        dict(online_ues=80, online_bss=40, online_list_size=5, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=408, bytes_bs_recv=88, bytes_af_sent=8168,
             bytes_af_recv=8488, msgs_ue_to_af=80, msgs_af_to_bs=4, msgs_bs_to_af=4,
             msgs_af_to_ue=80, late_drops=75, outcome="FFFAFFFFFF"),
        "23cabf6153538bdd6ce4808343d888677a60d77b9a8253dd0ef136e70f094a9f",
    ),
    ("EVALUATED", "bernoulli"): (
        dict(online_ues=50, online_bss=25, online_list_size=50, bytes_ue_sent=5050,
             bytes_ue_recv=5050, bytes_bs_sent=2346, bytes_bs_recv=506, bytes_af_sent=5556,
             bytes_af_recv=7396, msgs_ue_to_af=50, msgs_af_to_bs=23, msgs_bs_to_af=23,
             msgs_af_to_ue=50, late_drops=0, outcome="FAFAAAFFFA"),
        "f6ba2a41269020a0131ac5b12976d6a7e59c7d46175cd62e90eb96585fbe4a58",
    ),
    ("EVALUATED", "bs_3_4_off"): (
        dict(online_ues=80, online_bss=20, online_list_size=80, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=2040, bytes_bs_recv=440, bytes_af_sent=8520,
             bytes_af_recv=10120, msgs_ue_to_af=80, msgs_af_to_bs=20, msgs_bs_to_af=20,
             msgs_af_to_ue=80, late_drops=0, outcome="FFFFFFFFFF"),
        "93165f369337a69f5dd90451c2db0cbe83039b74a153c7197230227642b6e40c",
    ),
    ("COMPACT", "late"): (
        dict(online_ues=80, online_bss=40, online_list_size=5, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=104, bytes_bs_recv=88, bytes_af_sent=8168,
             bytes_af_recv=8184, msgs_ue_to_af=80, msgs_af_to_bs=4, msgs_bs_to_af=4,
             msgs_af_to_ue=80, late_drops=75, outcome="FFFAFFFFFF"),
        "c779586b6b3b68bf28f446256b31706c95a791731bf68f9fde7beb9e3c8f9b97",
    ),
    ("COMPACT", "bernoulli"): (
        dict(online_ues=50, online_bss=25, online_list_size=50, bytes_ue_sent=5050,
             bytes_ue_recv=5050, bytes_bs_sent=598, bytes_bs_recv=506, bytes_af_sent=5556,
             bytes_af_recv=5648, msgs_ue_to_af=50, msgs_af_to_bs=23, msgs_bs_to_af=23,
             msgs_af_to_ue=50, late_drops=0, outcome="FAFAAAFFFA"),
        "153e433ac715955571f2fcd421f7740be2e33146b6ab7b0654048ccf57c173de",
    ),
    ("COMPACT", "bs_3_4_off"): (
        dict(online_ues=80, online_bss=20, online_list_size=80, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=520, bytes_bs_recv=440, bytes_af_sent=8520,
             bytes_af_recv=8600, msgs_ue_to_af=80, msgs_af_to_bs=20, msgs_bs_to_af=20,
             msgs_af_to_ue=80, late_drops=0, outcome="FFFFFFFFFF"),
        "66ed08bd34585c835e7f284d248900572d1e706d4a1d33a5a75abc2d7efa7a62",
    ),
}


@pytest.mark.parametrize("mode, scenario", sorted(GOLDEN_ROUNDS))
def test_round_counters_match_golden(mode, scenario):
    overrides, sched = GOLDEN_SCENARIOS[scenario]
    cfg = small_cfg(rng_seed=5, mask_share_mode=MaskShareMode[mode], **overrides)
    result = run_simulation(cfg, sched, small_task())
    per_round = [
        {k: v for k, v in asdict(rm).items() if k != "accuracy" and not k.startswith("time_")}
        for rm in result.rounds
    ]
    setup = strip_times(result.setup)
    totals = {k: sum(r[k] for r in per_round) for k in per_round[0]
              if k not in ("iteration", "outcome")}
    totals["outcome"] = "".join(r["outcome"][0] for r in per_round)
    expected_totals, expected_digest = GOLDEN_ROUNDS[mode, scenario]
    assert setup == GOLDEN_SETUP
    assert totals == expected_totals
    assert [r["iteration"] for r in per_round] == list(range(10))
    digest = hashlib.sha256(json.dumps([setup, per_round], sort_keys=True).encode()).hexdigest()
    assert digest == expected_digest


# -- closed-form traffic model ----------------------------------------------------
# Each counter of set-up and of every round follows from the round's online
# counts and late drops alone; README, "Traffic per round", states the table.


@st.composite
def traffic_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=12), label="n")
    k = draw(st.integers(min_value=1, max_value=5), label="k")
    base = draw(st.sampled_from([0.0, 5.0]), label="latency_base_ms")
    cfg = SimConfig(
        n_ues=n, n_bss=k,
        bs_threshold=draw(st.integers(min_value=1, max_value=k), label="t"),
        min_online_fraction=draw(st.sampled_from([0.1, 1.0 / 3.0, 0.5, 1.0]), label="floor"),
        model_dim=draw(st.integers(min_value=1, max_value=40), label="d"),
        iterations=draw(st.integers(min_value=1, max_value=4), label="rounds"),
        rng_seed=draw(st.integers(min_value=0, max_value=2**16), label="seed"),
        latency_base_ms=base,
        # a jitter past the deadline makes late arrivals
        latency_jitter_ms=draw(st.sampled_from([0.0, 5.0, 60.0]), label="jitter"),
        deadline_ms=base + draw(st.sampled_from([10.0, 35.0]), label="deadline"),
        mask_share_mode=draw(st.sampled_from(list(MaskShareMode)), label="mode"),
    )
    sched = DropoutSchedule(
        ue_prob=draw(st.sampled_from([0.0, 0.3, 0.7]), label="ue_prob"),
        bs_prob=draw(st.sampled_from([0.0, 0.3, 0.7]), label="bs_prob"),
        prob_seed=cfg.rng_seed, prob_ue_ids=tuple(range(1, n + 1)),
        prob_bs_ids=tuple(range(1, k + 1)),
    )
    return cfg, sched


@settings(max_examples=60, deadline=None)
@given(traffic_scenarios())
def test_every_counter_follows_the_traffic_model(scenario):
    cfg, sched = scenario
    n, k, d = cfg.n_ues, cfg.n_bss, cfg.model_dim
    task = fltask.generate_data(seed=cfg.rng_seed, n_ues=n, feature_dim=d - 1,
                                samples_per_shard=4, test_samples=4)
    result = run_simulation(cfg, sched, task)
    assert strip_times(result.setup) == dict(
        bytes_ue_sent=41 * n * k, bytes_bs_recv=41 * n * k, msgs_ue_to_bs=n * k)
    floor = math.ceil(cfg.min_online_fraction * n)
    share_bytes = 8 * d + 22 if cfg.mask_share_mode is MaskShareMode.EVALUATED else 26
    assert [rm.iteration for rm in result.rounds] == list(range(cfg.iterations))
    for rm in result.rounds:
        listed = rm.online_ues - rm.late_drops
        answered = rm.online_bss if listed >= floor else 0
        ue_bytes = rm.online_ues * (8 * d + 21)
        bs_sent = answered * share_bytes
        bs_recv = answered * (21 + math.ceil(n / 8))  # a bitmap of the registered devices
        assert {name: v for name, v in strip_times(rm).items()
                if name not in ("iteration", "outcome", "accuracy")} == dict(
            online_ues=rm.online_ues, online_bss=rm.online_bss, online_list_size=listed,
            bytes_ue_sent=ue_bytes, bytes_ue_recv=ue_bytes,
            bytes_bs_sent=bs_sent, bytes_bs_recv=bs_recv,
            bytes_af_sent=ue_bytes + bs_recv, bytes_af_recv=ue_bytes + bs_sent,
            msgs_ue_to_af=rm.online_ues, msgs_af_to_bs=answered,
            msgs_bs_to_af=answered, msgs_af_to_ue=rm.online_ues,
            late_drops=rm.late_drops,
        )


# -- full runs -------------------------------------------------------------------


def test_no_dropout_run_all_aggregated():
    result = run_simulation(small_cfg(), DropoutSchedule.none(), small_task())
    assert len(result.rounds) == 10
    assert all(rm.outcome == AGGREGATED for rm in result.rounds)
    assert all(rm.online_list_size == 8 for rm in result.rounds)


def test_identical_seed_identical_run():
    a = run_simulation(small_cfg(), DropoutSchedule.none(), small_task())
    b = run_simulation(small_cfg(), DropoutSchedule.none(), small_task())
    assert [strip_times(x) for x in a.rounds] == [strip_times(y) for y in b.rounds]
    assert a.model_history == b.model_history  # bitwise


class CountingTask:
    """Passes every call to the task and records each ``local_update`` index."""

    def __init__(self, task):
        self._task = task
        self.indices = []

    def __getattr__(self, name):
        return getattr(self._task, name)

    def local_update(self, ue_index, model):
        self.indices.append(ue_index)
        return self._task.local_update(ue_index, model)


def test_each_round_trains_the_fleet_in_one_call():
    # a spare shard beyond the 8 devices, and rounds with devices offline
    sched = DropoutSchedule(ue_rounds={1: frozenset({2, 7}), 3: frozenset({1})}, ue_prob=0.3,
                            prob_seed=5, prob_ue_ids=tuple(range(1, 9)))
    task = CountingTask(small_task(n_ues=9))
    run_simulation(small_cfg(), sched, task)
    assert task.indices == [slice(0, 8)] * 10


def test_each_round_masks_the_fleet_in_one_call(monkeypatch):
    calls = []
    mask = protocol.Fleet.mask

    def counting_mask(fleet, rows, updates, t):
        # one index array of the online rows, not one device object each
        assert type(rows) is np.ndarray and rows.dtype == np.intp
        calls.append((t, fleet.ids[rows].tolist(), len(updates)))
        return mask(fleet, rows, updates, t)

    monkeypatch.setattr(protocol.Fleet, "mask", counting_mask)
    sched = DropoutSchedule(ue_rounds={1: frozenset({2, 7}), 3: frozenset({1})}, ue_prob=0.3,
                            prob_seed=5, prob_ue_ids=tuple(range(1, 9)))
    run_simulation(small_cfg(), sched, small_task())
    assert [t for t, *_ in calls] == list(range(10))
    for t, ids, rows in calls:
        online, _ = apply_dropout(sched, t, range(1, 9), range(1, 5))
        assert ids == list(online) and rows == len(ids)
    assert any(len(ids) < 8 for _, ids, _ in calls)


def test_result_models_are_lists_of_python_floats():
    result = run_simulation(small_cfg(iterations=3), DropoutSchedule.none(), small_task())
    for model in result.model_history:
        assert type(model) is list and len(model) == 10
        assert all(type(x) is float for x in model)


def test_result_holds_the_trajectory_as_one_read_only_array():
    result = run_simulation(small_cfg(iterations=4), DropoutSchedule.none(), small_task())
    assert type(result.models) is np.ndarray
    assert result.models.shape == (4, 10) and result.models.dtype == np.float64
    assert not result.models.flags.writeable
    with pytest.raises(ValueError):
        result.models[0, 0] = 1.0


def test_model_history_is_built_once_from_the_array():
    sched = DropoutSchedule(bs_rounds={2: frozenset({1, 2})})
    result = run_simulation(small_cfg(iterations=4), sched, small_task())
    assert "model_history" not in vars(result)  # nothing built until read
    history = result.model_history
    assert np.array(history).tobytes() == result.models.tobytes()  # bitwise
    assert result.model_history is history


def test_protocol_seed_never_perturbs_models():
    # masks cancel field-exactly, so fresh keys and latencies leave the
    # model trajectory bitwise unchanged; only the task data moves it
    a = run_simulation(small_cfg(rng_seed=1), DropoutSchedule.none(), small_task())
    b = run_simulation(small_cfg(rng_seed=2), DropoutSchedule.none(), small_task())
    assert a.model_history == b.model_history
    c = run_simulation(small_cfg(rng_seed=1), DropoutSchedule.none(), small_task(seed=4))
    assert a.model_history[-1] != c.model_history[-1]


def test_two_bs_dropped_every_round_stagnates():
    sched = DropoutSchedule.constant(bs_ids=(3, 4))
    result = run_simulation(small_cfg(), sched, small_task())
    assert all(rm.outcome == FALLBACK for rm in result.rounds)
    assert result.model_history[-1] == [0.0] * 10  # frozen at the initial model
    accs = {rm.accuracy for rm in result.rounds}
    assert len(accs) == 1


def test_one_bs_dropped_still_aggregates():
    sched = DropoutSchedule.constant(bs_ids=(4,))
    result = run_simulation(small_cfg(), sched, small_task())
    assert all(rm.outcome == AGGREGATED for rm in result.rounds)
    assert all(rm.online_bss == 3 for rm in result.rounds)


def test_bs_outage_freezes_then_resumes():
    sched = DropoutSchedule(bs_rounds={t: frozenset({2, 3}) for t in (5, 6, 7)})
    result = run_simulation(small_cfg(), sched, small_task())
    outcomes = [rm.outcome for rm in result.rounds]
    assert outcomes[:5] == [AGGREGATED] * 5
    assert outcomes[5:8] == [FALLBACK] * 3
    assert outcomes[8:] == [AGGREGATED] * 2
    hist = result.model_history
    assert hist[5] == hist[4] and hist[6] == hist[4] and hist[7] == hist[4]
    assert hist[8] != hist[4]


def test_ue_dropout_shrinks_online_list():
    sched = DropoutSchedule(ue_rounds={2: frozenset({3})})
    result = run_simulation(small_cfg(), sched, small_task())
    assert result.rounds[2].online_list_size == 7
    assert result.rounds[3].online_list_size == 8


def test_below_participation_floor_falls_back():
    # 2 online < ceil(8/3) = 3
    sched = DropoutSchedule.constant(ue_ids=tuple(range(1, 7)))
    result = run_simulation(small_cfg(iterations=3), sched, small_task())
    assert all(rm.outcome == FALLBACK for rm in result.rounds)
    assert all(rm.online_list_size == 2 for rm in result.rounds)


def test_exactly_at_participation_floor_proceeds():
    sched = DropoutSchedule.constant(ue_ids=(4, 5, 6, 7, 8))
    result = run_simulation(small_cfg(iterations=3), sched, small_task())
    assert all(rm.outcome == AGGREGATED for rm in result.rounds)
    assert all(rm.online_list_size == 3 for rm in result.rounds)


def test_setup_accounting():
    result = run_simulation(small_cfg(iterations=1), DropoutSchedule.none(), small_task())
    assert result.setup.msgs_ue_to_bs == 8 * 4
    assert result.setup.bytes_ue_sent == 8 * 4 * 41  # 17-byte header + 24
    assert result.setup.bytes_bs_recv == result.setup.bytes_ue_sent


def test_byte_conservation_per_round():
    result = run_simulation(small_cfg(), DropoutSchedule.none(), small_task())
    for rm in result.rounds:
        assert total_sent(rm) == total_received(rm)


def test_single_round_message_counters():
    result = run_simulation(small_cfg(), DropoutSchedule.none(), small_task())
    for rm in result.rounds:
        assert rm.msgs_ue_to_af == rm.online_ues
        assert rm.msgs_bs_to_af == rm.online_bss
        assert rm.msgs_af_to_bs == rm.online_bss
        assert rm.msgs_af_to_ue == rm.online_ues


def test_fallback_trigger_condition():
    cfg = small_cfg(rng_seed=7)
    sched = DropoutSchedule(ue_prob=0.45, bs_prob=0.35, prob_seed=11,
                            prob_ue_ids=tuple(range(1, 9)), prob_bs_ids=(1, 2, 3, 4))
    result = run_simulation(cfg, sched, small_task())
    floor = math.ceil(cfg.min_online_fraction * cfg.n_ues)
    saw_both = set()
    for rm in result.rounds:
        should_fall = rm.online_bss < cfg.bs_threshold or rm.online_list_size < floor
        assert (rm.outcome == FALLBACK) == should_fall
        saw_both.add(rm.outcome)
    assert saw_both == {AGGREGATED, FALLBACK}  # schedule exercises both paths


LATE_SCENARIOS = {
    "8_devices": (dict(latency_jitter_ms=200.0, deadline_ms=30.0, rng_seed=5, iterations=4),
                  DropoutSchedule.none()),
    "32_devices_2_of_5_bernoulli": (
        dict(n_ues=32, n_bss=5, bs_threshold=2, latency_jitter_ms=60.0, deadline_ms=40.0,
             rng_seed=9, iterations=20),
        DropoutSchedule(ue_prob=0.2, bs_prob=0.3, prob_seed=4,
                        prob_ue_ids=tuple(range(1, 33)), prob_bs_ids=(1, 2, 3, 4, 5)),
    ),
}


@pytest.mark.parametrize("scenario", sorted(LATE_SCENARIOS))
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_late_arrivals_excluded_from_list(monkeypatch, mode, scenario):
    # jitter far beyond the deadline: some updates arrive late and are
    # excluded from the round but still accounted as received. Every other
    # update is listed and every listed station answers, which is why the
    # simulator counts no other way to lose an update or a share.
    collected = []  # (round, status) of every row the server was handed
    collect_block = protocol.Aggregator.collect_block

    def spy(self, block):
        statuses = collect_block(self, block)
        collected.extend(zip(block.iterations.tolist(), statuses))
        return statuses

    monkeypatch.setattr(protocol.Aggregator, "collect_block", spy)
    overrides, sched = LATE_SCENARIOS[scenario]
    cfg = small_cfg(latency_base_ms=5.0, mask_share_mode=mode, **overrides)
    result = run_simulation(cfg, sched, small_task(n_ues=cfg.n_ues))
    total_late = sum(rm.late_drops for rm in result.rounds)
    assert total_late > 0
    for rm in result.rounds:
        assert rm.online_list_size + rm.late_drops == rm.msgs_ue_to_af
        assert rm.msgs_bs_to_af == rm.msgs_af_to_bs
        assert total_sent(rm) == total_received(rm)
        assert rm.online_list_size < rm.online_ues or rm.late_drops == 0
        # the server alone decides that a row is late: every row sent
        # reaches it, and its STALE answers are the round's late drops
        statuses = [status for t, status in collected if t == rm.iteration]
        assert len(statuses) == rm.msgs_ue_to_af
        assert statuses.count(protocol.CollectStatus.STALE) == rm.late_drops
    assert len(collected) == sum(rm.msgs_ue_to_af for rm in result.rounds)


# the late scenarios, and one whose round 1 has no online device and whose
# round 2 has one, which misses the deadline
FRAME_SCENARIOS = {
    **LATE_SCENARIOS,
    "empty_rounds": (
        dict(latency_jitter_ms=40.0, deadline_ms=30.0, rng_seed=0, iterations=4),
        DropoutSchedule(ue_rounds={1: frozenset(range(1, 9)), 2: frozenset(range(2, 9))}),
    ),
}


@pytest.mark.parametrize("scenario", sorted(FRAME_SCENARIOS))
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_each_frame_is_packed_once_and_decoded_once(monkeypatch, mode, scenario):
    # a broadcast is one frame however many receive it, a round's masked
    # updates and a station's set-up shares are packed as one block whose
    # rows count as frames, and charging a delivery's bytes packs nothing
    packs, decodes, blocks = [], [], []
    for cls in (SetupShareMsg, MaskedUpdateMsg, OnlineListMsg, MaskShareMsg, GlobalModelMsg):
        def to_bytes(self, pack=cls.to_bytes):
            packs.append(type(self))
            return pack(self)
        monkeypatch.setattr(cls, "to_bytes", to_bytes)

    for cls in (MaskedUpdateBlock, SetupShareBlock):
        def block_to_bytes(self, pack=cls.to_bytes):
            packs.extend([type(self)] * len(self))
            return pack(self)
        monkeypatch.setattr(cls, "to_bytes", block_to_bytes)

    def from_bytes(raw, decode=simnet.from_bytes):
        decodes.append(raw)
        return decode(raw)

    def updates_from_bytes(raw, frames, decode=simnet.updates_from_bytes):
        decodes.extend([raw] * frames)
        blocks.append(frames)
        return decode(raw, frames)

    def setup_shares_from_bytes(raw, frames, decode=simnet.setup_shares_from_bytes):
        decodes.extend([raw] * frames)
        return decode(raw, frames)

    monkeypatch.setattr(simnet, "from_bytes", from_bytes)
    monkeypatch.setattr(simnet, "updates_from_bytes", updates_from_bytes)
    monkeypatch.setattr(simnet, "setup_shares_from_bytes", setup_shares_from_bytes)
    overrides, sched = FRAME_SCENARIOS[scenario]
    cfg = small_cfg(latency_base_ms=5.0, mask_share_mode=mode, **overrides)
    result = run_simulation(cfg, sched, small_task(n_ues=cfg.n_ues))
    frames = result.setup.msgs_ue_to_bs + sum(
        rm.msgs_ue_to_af + rm.msgs_bs_to_af + (rm.msgs_af_to_bs > 0) + (rm.msgs_af_to_ue > 0)
        for rm in result.rounds)
    assert len(packs) == len(decodes) == frames
    # set-up shares travel only in blocks, one per station
    assert SetupShareMsg not in packs
    assert packs.count(SetupShareBlock) == result.setup.msgs_ue_to_bs == cfg.n_ues * cfg.n_bss
    assert any(rm.late_drops for rm in result.rounds)
    assert any(rm.msgs_af_to_bs for rm in result.rounds)
    assert packs.count(GlobalModelMsg) == sum(rm.msgs_af_to_ue > 0 for rm in result.rounds)
    assert sum(rm.msgs_af_to_ue for rm in result.rounds) > packs.count(GlobalModelMsg)
    # masked updates travel only in blocks: per round, at most one of the
    # updates in time and one of the late ones, and never an empty one
    assert MaskedUpdateMsg not in packs
    assert packs.count(MaskedUpdateBlock) == sum(rm.msgs_ue_to_af for rm in result.rounds)
    assert len(blocks) == sum((rm.online_list_size > 0) + (rm.late_drops > 0)
                              for rm in result.rounds)
    assert 0 not in blocks
    if scenario == "empty_rounds":
        assert result.rounds[1].online_ues == 0
        assert result.rounds[2].online_ues == result.rounds[2].late_drops == 1


# sha256 of the space-joined float.hex() of each round's start instant; the
# mask-share mode draws no latency, so both modes keep one clock
ROUND_START_DIGESTS = {
    "8_devices": "833dc8c04ec2dd452d49709f0c516981b5b6bef57ba6de3d76726c57dbec7605",
    "32_devices_2_of_5_bernoulli":
        "23dcc89df21e60b54d1a55d9cca8db03412c696db886fa4bc03ec46f40b3915c",
    "empty_rounds": "edb73a3dd9b1dc686cfa1a88d87efbfaf4de73a18139b9d21f844dfa21eeba2e",
}


@pytest.mark.parametrize("scenario", sorted(FRAME_SCENARIOS))
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_round_start_instants_match_golden(monkeypatch, mode, scenario):
    # round 0 starts at the last set-up share's arrival, and each later round
    # at the model's last arrival, or at the close when no device is online
    starts = []
    run_round = _Simulation._run_round

    def spy(self, t, start):
        starts.append(start.hex())
        return run_round(self, t, start)

    monkeypatch.setattr(_Simulation, "_run_round", spy)
    overrides, sched = FRAME_SCENARIOS[scenario]
    cfg = small_cfg(latency_base_ms=5.0, mask_share_mode=mode, **overrides)
    run_simulation(cfg, sched, small_task(n_ues=cfg.n_ues))
    assert len(starts) == cfg.iterations
    assert hashlib.sha256(" ".join(starts).encode()).hexdigest() == ROUND_START_DIGESTS[scenario]


# sha256 of every station's stored shares, space-joined "bs:ue:x:y" sorted by
# (bs, ue). Models, bytes and round starts hold for any valid sharing, since
# any sharing recovers the same key sum; these pin the Shamir draws themselves
STORED_SHARE_DIGESTS = {
    "8_devices": "2b450c363360c9f409269f6ee404878686231c90020897c99e9f7f044a1e33f9",
    "32_devices_2_of_5_bernoulli":
        "63f64f5afe1fc5a225ee00966b094544c6956c69b27bd5a492d0355d44da40d5",
    "empty_rounds": "9017a6dd4a9728f063a7a533c9f9bcffe52fdef9c1c5f1e0ee005923006dbf63",
}


@pytest.mark.parametrize("scenario", sorted(FRAME_SCENARIOS))
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_stored_shares_match_golden(mode, scenario):
    overrides, sched = FRAME_SCENARIOS[scenario]
    cfg = small_cfg(latency_base_ms=5.0, mask_share_mode=mode, **overrides)
    sim = _Simulation(cfg, sched, small_task(n_ues=cfg.n_ues))
    sim.run()
    stored = sorted((j, i, share.x, share.y)
                    for j in sim.bs_ids for i, share in sim.stations.stored_shares(j - 1).items())
    assert len(stored) == cfg.n_ues * cfg.n_bss
    # Python ints, so that a station's key-share sum cannot wrap
    assert all(type(y) is int for *_, y in stored)
    text = " ".join(f"{j}:{i}:{x}:{y}" for j, i, x, y in stored)
    assert hashlib.sha256(text.encode()).hexdigest() == STORED_SHARE_DIGESTS[scenario]


@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_a_station_without_a_listed_share_abstains_and_the_round_goes_on(monkeypatch, mode):
    # set-up gives every station every share, so only a lost share makes
    # one abstain: it sends nothing, and the others still carry t = 2
    cfg = small_cfg(bs_threshold=2, iterations=4, mask_share_mode=mode)
    full = run_simulation(cfg, DropoutSchedule.none(), small_task())
    receive_shares = protocol.Stations.receive_shares

    def lose_device_3_at_station_1(self, row, block):
        keep = np.flatnonzero((block.senders != 3) | (row != 0))
        receive_shares(self, row, SetupShareBlock(*(getattr(block, f)[keep] for f in (
            "senders", "iterations", "targets", "xs", "ys"))))

    monkeypatch.setattr(protocol.Stations, "receive_shares", lose_device_3_at_station_1)
    sim = _Simulation(cfg, DropoutSchedule.none(), small_task())
    result = sim.run()
    assert 3 not in sim.stations.stored_shares(0)
    share_bytes = full.rounds[0].bytes_bs_sent // 4
    for rm, want in zip(result.rounds, full.rounds):
        assert rm.outcome == want.outcome == AGGREGATED
        assert (rm.msgs_af_to_bs, rm.msgs_bs_to_af) == (4, 3)
        assert rm.bytes_bs_sent == want.bytes_bs_sent - share_bytes
    assert result.models.tobytes() == full.models.tobytes()


def test_everyone_offline_still_terminates():
    sched = DropoutSchedule.constant(ue_ids=tuple(range(1, 9)), bs_ids=(1, 2, 3, 4))
    result = run_simulation(small_cfg(iterations=3), sched, small_task())
    assert [rm.outcome for rm in result.rounds] == [FALLBACK] * 3
    assert all(total_sent(rm) == 0 for rm in result.rounds)
    assert result.model_history[-1] == [0.0] * 10
