"""Simulator tests: determinism, dropout semantics, accounting, deadlines.

Wall-clock timing fields are excluded from every equality check; simulated
outcomes and byte counts are the deterministic contract.
"""

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import total_received, total_sent
from secagg5g import fltask, khprf, protocol, simnet
from secagg5g.messages import (
    GlobalModelMsg,
    MaskedUpdateMsg,
    MaskShareMode,
    MaskShareMsg,
    OnlineListMsg,
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


@pytest.mark.parametrize("name", ["n_ues", "n_bss", "bs_threshold", "model_dim", "iterations"])
@pytest.mark.parametrize("value", [2.5, 4.0, "4", None])
def test_config_refuses_counts_that_are_not_ints(name, value):
    # before, a float count built a config that failed only once run
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        SimConfig(**{name: value})


@pytest.mark.parametrize("d", [0, -1])
def test_config_refuses_an_empty_model(d):
    with pytest.raises(ValueError, match="model_dim must be >= 1"):
        SimConfig(model_dim=d)


@pytest.mark.parametrize("name", ["latency_base_ms", "latency_jitter_ms", "deadline_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_timings(name, value):
    # NaN fails every comparison, so range checks alone let it through
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**{name: value})


def test_config_rejects_negative_base_latency():
    # simulated time would run backwards
    with pytest.raises(ValueError):
        SimConfig(latency_base_ms=-1.0)


def test_config_checks_threshold_and_codec_through_their_types():
    with pytest.raises(ValueError, match=r"need 1 <= threshold <= total, got \(5, 4\)"):
        SimConfig(bs_threshold=5, n_bss=4)
    with pytest.raises(ValueError):
        SimConfig(n_bss=0)
    # an overflowing codec is refused at construction, not on the first run
    with pytest.raises(ValueError, match="overflows the field"):
        SimConfig(frac_bits=60)


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
    for ue in sim.ues.values():
        assert np.array_equal(ue.precomputed_masks, khprf.precompute_masks(ue.key, 6, 10))


def test_closed_rounds_keep_no_shares():
    # EVALUATED shares pin their wire bodies; a closed round needs metrics only
    sim = _Simulation(small_cfg(iterations=4), DropoutSchedule.none(), small_task())
    result = sim.run()
    assert [rm.outcome for rm in result.rounds] == [AGGREGATED] * 4
    assert all(not state.shares for state in sim.round_state.values())


def test_config_needs_a_device_before_building_its_codec():
    # the codec's summand limit is n_ues, so zero must fail as a population
    with pytest.raises(ValueError, match="need at least one UE"):
        SimConfig(n_ues=0)


def test_codec_covers_exactly_the_registered_devices():
    assert SimConfig(n_ues=5).codec().max_summands == 5


@pytest.mark.parametrize("prob", [1.5, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("role", ["ue", "bs"])
def test_schedule_rejects_probability_outside_unit_interval(role, prob):
    with pytest.raises(ValueError, match=f"{role}_prob must be in"):
        DropoutSchedule(**{f"{role}_prob": prob, f"prob_{role}_ids": (1, 2, 3)})


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


def test_zero_messages_zero_bytes():
    metrics = RoundMetrics(iteration=0, online_ues=0, online_bss=0)
    assert total_sent(metrics) == 0
    assert total_received(metrics) == 0


# -- golden counters ---------------------------------------------------------------

# Every integer counter and outcome of three scenarios per mode, recorded when
# message counts were charged where each message was sent. Totals name the
# counter that moved; the digest covers every round's values. No float enters,
# so these hold across BLAS builds.
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
             bytes_ue_recv=8080, bytes_bs_sent=408, bytes_bs_recv=180, bytes_af_sent=8260,
             bytes_af_recv=8488, msgs_ue_to_af=80, msgs_af_to_bs=4, msgs_bs_to_af=4,
             msgs_af_to_ue=80, late_drops=75, outcome="FFFAFFFFFF"),
        "19cb04c4e726f78cf6e75240993350b249ac21873a4cb1461f4cc82b1c45a546",
    ),
    ("EVALUATED", "bernoulli"): (
        dict(online_ues=50, online_bss=25, online_list_size=50, bytes_ue_sent=5050,
             bytes_ue_recv=5050, bytes_bs_sent=2346, bytes_bs_recv=1451, bytes_af_sent=6501,
             bytes_af_recv=7396, msgs_ue_to_af=50, msgs_af_to_bs=23, msgs_bs_to_af=23,
             msgs_af_to_ue=50, late_drops=0, outcome="FAFAAAFFFA"),
        "c9c90defab4d1459db5b749b24ad09c6afea609f56a92677117b7aaf07576f91",
    ),
    ("EVALUATED", "bs_3_4_off"): (
        dict(online_ues=80, online_bss=20, online_list_size=80, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=2040, bytes_bs_recv=1700, bytes_af_sent=9780,
             bytes_af_recv=10120, msgs_ue_to_af=80, msgs_af_to_bs=20, msgs_bs_to_af=20,
             msgs_af_to_ue=80, late_drops=0, outcome="FFFFFFFFFF"),
        "8c277269a8b3e3d594116b20e339a52625f41c580b782ea582013ee514bbc87b",
    ),
    ("COMPACT", "late"): (
        dict(online_ues=80, online_bss=40, online_list_size=5, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=104, bytes_bs_recv=180, bytes_af_sent=8260,
             bytes_af_recv=8184, msgs_ue_to_af=80, msgs_af_to_bs=4, msgs_bs_to_af=4,
             msgs_af_to_ue=80, late_drops=75, outcome="FFFAFFFFFF"),
        "6b2fdce188da0cc25c229d589c4940627e3dc3a1b11ca205487a4e9be16f9ab2",
    ),
    ("COMPACT", "bernoulli"): (
        dict(online_ues=50, online_bss=25, online_list_size=50, bytes_ue_sent=5050,
             bytes_ue_recv=5050, bytes_bs_sent=598, bytes_bs_recv=1451, bytes_af_sent=6501,
             bytes_af_recv=5648, msgs_ue_to_af=50, msgs_af_to_bs=23, msgs_bs_to_af=23,
             msgs_af_to_ue=50, late_drops=0, outcome="FAFAAAFFFA"),
        "659e61c8ecab8d123f06c1f696ebeb78dc7d20ccba3ef77e5a3a51f0deb4db14",
    ),
    ("COMPACT", "bs_3_4_off"): (
        dict(online_ues=80, online_bss=20, online_list_size=80, bytes_ue_sent=8080,
             bytes_ue_recv=8080, bytes_bs_sent=520, bytes_bs_recv=1700, bytes_af_sent=9780,
             bytes_af_recv=8600, msgs_ue_to_af=80, msgs_af_to_bs=20, msgs_bs_to_af=20,
             msgs_af_to_ue=80, late_drops=0, outcome="FFFFFFFFFF"),
        "ccf8a6b19fda646a9fbc2f8be1b73b5683169dab02f80e679355e87ddc3810e4",
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
        bs_recv = answered * (8 * listed + 21)
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

    def counting_mask_updates(ues, updates, t):
        calls.append((t, [ue.ue_id for ue in ues], len(updates)))
        return protocol.mask_updates(ues, updates, t)

    monkeypatch.setattr(simnet, "mask_updates", counting_mask_updates)
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
def test_late_arrivals_excluded_from_list(mode, scenario):
    # jitter far beyond the deadline: some updates arrive late and are
    # excluded from the round but still accounted as received. Every other
    # update is listed and every listed station answers, which is why the
    # simulator counts no other way to lose an update or a share.
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


@pytest.mark.parametrize("scenario", sorted(LATE_SCENARIOS))
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
def test_each_frame_is_packed_once_and_decoded_once(monkeypatch, mode, scenario):
    # a broadcast is one frame however many receive it, and charging a
    # delivery's bytes packs nothing
    packs, decodes = [], []
    for cls in (SetupShareMsg, MaskedUpdateMsg, OnlineListMsg, MaskShareMsg, GlobalModelMsg):
        def to_bytes(self, pack=cls.to_bytes):
            packs.append(type(self))
            return pack(self)
        monkeypatch.setattr(cls, "to_bytes", to_bytes)

    def from_bytes(raw, decode=simnet.from_bytes):
        decodes.append(raw)
        return decode(raw)

    monkeypatch.setattr(simnet, "from_bytes", from_bytes)
    overrides, sched = LATE_SCENARIOS[scenario]
    cfg = small_cfg(latency_base_ms=5.0, mask_share_mode=mode, **overrides)
    result = run_simulation(cfg, sched, small_task(n_ues=cfg.n_ues))
    frames = result.setup.msgs_ue_to_bs + sum(
        rm.msgs_ue_to_af + rm.msgs_bs_to_af + (rm.msgs_af_to_bs > 0) + (rm.msgs_af_to_ue > 0)
        for rm in result.rounds)
    assert len(packs) == len(decodes) == frames
    assert any(rm.late_drops for rm in result.rounds)
    assert any(rm.msgs_af_to_bs for rm in result.rounds)
    assert packs.count(GlobalModelMsg) == sum(rm.msgs_af_to_ue > 0 for rm in result.rounds)
    assert sum(rm.msgs_af_to_ue for rm in result.rounds) > packs.count(GlobalModelMsg)


def test_everyone_offline_still_terminates():
    sched = DropoutSchedule.constant(ue_ids=tuple(range(1, 9)), bs_ids=(1, 2, 3, 4))
    result = run_simulation(small_cfg(iterations=3), sched, small_task())
    assert [rm.outcome for rm in result.rounds] == [FALLBACK] * 3
    assert all(total_sent(rm) == 0 for rm in result.rounds)
    assert result.model_history[-1] == [0.0] * 10
