"""Same behaviour: a change that only reshapes or speeds up the program must
leave every run bit for bit as it was.

Each run below is pinned by one sha256 over everything a run produces that
does not depend on the wall clock: every non-``time_*`` field of its
``SetupMetrics`` and ``RoundMetrics``, its model trajectory's bytes, each
round's start instant (``float.hex``) and every station's stored shares.
The digests were computed once and are not to be edited: a refactor that
changes one has changed what the program does. They were re-pinned once,
for one wire change: the online list went on the wire as a bitmap of the
registered devices, 21 + ceil(n/8) bytes instead of 21 + 8 per listed
device. Every run was compared with the one before it, and only
``bytes_af_sent`` and ``bytes_bs_recv`` moved, each by exactly
``msgs_af_to_bs * (8 * online_list_size - ceil(n/8))`` in every round.
"""

import hashlib
from dataclasses import asdict

import pytest

from secagg5g import fltask
from secagg5g.messages import MaskShareMode
from secagg5g.simnet import DropoutSchedule, SimConfig, _Simulation

ROUNDS = 20
SEEDS = (3, 11)

# the benchmark's two simulation shapes, many_devices with jitter past the
# deadline and two other access structures. At both seeds the jitter runs
# refuse about a thousand late rows, and the k = 5 and k = 7 runs fall back
# in three or four rounds, with as few as zero or one station online
SHAPES = {
    "wide_model": dict(model_dim=2048, n_ues=8, ue_prob=0.0, bs_prob=0.0),
    "many_devices": dict(model_dim=10, n_ues=256, ue_prob=0.2, bs_prob=0.1),
    "many_devices_jitter": dict(model_dim=10, n_ues=256, ue_prob=0.2, bs_prob=0.1,
                                latency_jitter_ms=60.0),
    "k5_t2": dict(model_dim=50, n_ues=24, ue_prob=0.2, bs_prob=0.4, n_bss=5, bs_threshold=2),
    "k7_t3": dict(model_dim=50, n_ues=24, ue_prob=0.2, bs_prob=0.4, n_bss=7, bs_threshold=3),
}

DIGESTS = {
    "k5_t2-EVALUATED-3":
        "284d6091de14170a9d3e808229584214072ad602f5883be2aaad7edeefd63076",
    "k5_t2-EVALUATED-11":
        "46abed5671269ceffde38c7bd401147f3efdd5bc63dee61d4e9c41f737a17f88",
    "k5_t2-COMPACT-3":
        "4e7840d2b54ff07419bb19fc0dab0d400fbe0ff046e7b2318370b598c5ee5ab7",
    "k5_t2-COMPACT-11":
        "f08896e21f33f2a5ea40f4f58b648d62282b71e9afcbdd68874f57103f2b2248",
    "k7_t3-EVALUATED-3":
        "ff0219a6900e5374ae1840ff4567d283f3f78b43ef39b59b4b313a7d9e5cd900",
    "k7_t3-EVALUATED-11":
        "9eed7644a5d49abf9549fa56da178fa448f0c5dd96e3f9d63f222bd29f9c5f1b",
    "k7_t3-COMPACT-3":
        "dc70721633b1a6bead46e443fb0b0bc7c5b8e73cb83dbc86e4dcf63e59cf1acd",
    "k7_t3-COMPACT-11":
        "629434fa37ee5dbac5d7eb0729da4f2d30561008cebdcf1be92c1444fc7c67da",
    "many_devices-EVALUATED-3":
        "2fea5d856dd7b045d6e9ceb8e1cf86bd62c7823e58d79fc82fb191d7ee59eb24",
    "many_devices-EVALUATED-11":
        "ce39bae629b868788f2e28018cbbc5f283526b4caceeb5e3c00506de84bfeebb",
    "many_devices-COMPACT-3":
        "fff746f564490efef851bcf1e3582d6a86132f6418330d9d8f86c513279190d7",
    "many_devices-COMPACT-11":
        "a0972fa2add4db236676b9e28c5a4408a973f84c08f99ea89d23d5526ba68b0b",
    "many_devices_jitter-EVALUATED-3":
        "ae7a2368cbe7c128e3945d57911539248348039ba39b595c0711ff67e901751d",
    "many_devices_jitter-EVALUATED-11":
        "35ef624b66892e17cd4cb8585c9e88362bdc1f892e91773c214986d0d672a3eb",
    "many_devices_jitter-COMPACT-3":
        "1f4c8f361d5cdb5371d5079221ed9bfa2b1f44dfba2a4361129e7a9afdd3cd62",
    "many_devices_jitter-COMPACT-11":
        "ffc064c654482cfe979fae746b0ff71bd5e6ed6da836366c2173ec4d73756d51",
    "wide_model-EVALUATED-3":
        "bf15275acd85e9afca6e658efd6a46fdc40f11778761d331cf6ca8937b4e8b16",
    "wide_model-EVALUATED-11":
        "ab0d8ee3405410a2b73de503f2b53b1dd3b4f082da50c51cb0030cd39bfdfab7",
    "wide_model-COMPACT-3":
        "8448e42776bdd972063b64d400b9c51f4a202470498a3a3e0f864092ee8b39bb",
    "wide_model-COMPACT-11":
        "18233a222d969d4adaa2890d200d86d37831cd0407a8e9970a6869f2b129bcfa",
}


def run_digest(shape: str, mode: MaskShareMode, seed: int, monkeypatch) -> str:
    spec = dict(SHAPES[shape])
    ue_prob, bs_prob = spec.pop("ue_prob"), spec.pop("bs_prob")
    spec.setdefault("n_bss", 4)
    spec.setdefault("bs_threshold", 3)
    cfg = SimConfig(iterations=ROUNDS, rng_seed=seed, mask_share_mode=mode, **spec)
    schedule = DropoutSchedule(
        ue_prob=ue_prob, bs_prob=bs_prob, prob_seed=seed,
        prob_ue_ids=tuple(range(1, cfg.n_ues + 1)), prob_bs_ids=tuple(range(1, cfg.n_bss + 1)))
    task = fltask.generate_data(seed=seed, n_ues=cfg.n_ues, feature_dim=cfg.model_dim - 1,
                                samples_per_shard=40, test_samples=200, learning_rate=0.5,
                                local_epochs=2)
    starts = []
    run_round = _Simulation._run_round

    def spy(self, t, start):
        starts.append(start.hex())
        return run_round(self, t, start)

    monkeypatch.setattr(_Simulation, "_run_round", spy)
    sim = _Simulation(cfg, schedule, task)
    result = sim.run()
    digest = hashlib.sha256()
    for metrics in (result.setup, *result.rounds):
        fields = sorted((k, v) for k, v in asdict(metrics).items() if not k.startswith("time_"))
        digest.update(repr(fields).encode())
    digest.update(result.models.tobytes())
    digest.update(" ".join(starts).encode())
    stored = sorted((j, i, share.x, share.y)
                    for j in sim.bs_ids for i, share in sim.stations.stored_shares(j - 1).items())
    digest.update(" ".join(f"{j}:{i}:{x}:{y}" for j, i, x, y in stored).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_runs_are_bit_for_bit_as_pinned(monkeypatch, shape, mode, seed):
    assert run_digest(shape, mode, seed, monkeypatch) == DIGESTS[f"{shape}-{mode.name}-{seed}"]
