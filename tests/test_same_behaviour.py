"""Same behaviour: a change that only reshapes or speeds up the program must
leave every run bit for bit as it was.

Each run below is pinned by one sha256 over everything a run produces that
does not depend on the wall clock: every non-``time_*`` field of its
``SetupMetrics`` and ``RoundMetrics``, its model trajectory's bytes, each
round's start instant (``float.hex``) and every station's stored shares.
The digests were computed once and are not to be edited: a refactor that
changes one has changed what the program does.
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
        "1e6aab2eb8b5567a39bb1864d746c86bb81ca85eea600c51d998535fa20932fc",
    "k5_t2-EVALUATED-11":
        "9bf12667c9611f16f9fd2186e555a11ec5942b34fd52d0a09a1ad7e6792fee72",
    "k5_t2-COMPACT-3":
        "714ead96f6282b606cd963b7861c0bd7066ddff5dc93af7ba3e562aec181a330",
    "k5_t2-COMPACT-11":
        "0ca2f16dffa9d856344b9968f0eed11e1774f210d0d32d5387bd90e0ea771de9",
    "k7_t3-EVALUATED-3":
        "feb2027f429051eb6c2cffe6f0497a8d9879a0394a3cd086cb6066e293311142",
    "k7_t3-EVALUATED-11":
        "a2ca23fba6f82f9d850231a09addb5801ca6d6dbab96222e8e7b9ac5bb354ff3",
    "k7_t3-COMPACT-3":
        "d4d2146a934beb6b6572c531dcca6127a47d1f6e8ff9bf0fe4dadd0d20ecb594",
    "k7_t3-COMPACT-11":
        "20d26db5ec904efe6fa9fbaba49e3304cda0f59f9959d94534039d950eeb11a3",
    "many_devices-EVALUATED-3":
        "bcfbe0edd3eb01b1ccddb903216193159c48697414ac1eb3cf3613ee9fc279fe",
    "many_devices-EVALUATED-11":
        "89c058858b7dc00aa96c8d602686a5acc58ea8bf960662cc7890ce1ed09aeec6",
    "many_devices-COMPACT-3":
        "b741b655e3cddd072c74b85a3fa8a39b4f6c19ba7f4420d77554e58c0cc71579",
    "many_devices-COMPACT-11":
        "9229ae950e685b99de48a4375e8f5ea6ea8ab804b23bf858562f348f83709620",
    "many_devices_jitter-EVALUATED-3":
        "b747a9a10c926477970c6de930122b846664670a559dc5ce80648c250bf38ad2",
    "many_devices_jitter-EVALUATED-11":
        "c552a1d08aed492a50bc52d59d3bce1aea93cba8f53427d9a6df221b28a51548",
    "many_devices_jitter-COMPACT-3":
        "50ef4208c2a11efa44adfa5665c8d65486ffe0e23b5c73e2db7358bba2b15623",
    "many_devices_jitter-COMPACT-11":
        "fdbb1f143199b80909229e1fe609a0ef2789bb95ea8a9fcbaa966bcc4fee6d42",
    "wide_model-EVALUATED-3":
        "7ba34dafb81dc07a4c958079d1604024c0ca58605dc42da043a13ffa78160ad9",
    "wide_model-EVALUATED-11":
        "4bf654f67e8fe106e3ac53993ec9409cff412e20413d4a3e784a2b702e6e9ea5",
    "wide_model-COMPACT-3":
        "2aa0c8fcdecffca6b16a1a2c8e40ba1e8ece786641174188134d42a9023e1980",
    "wide_model-COMPACT-11":
        "b4ace35d4c3da22e2a8f83bddf5252e999eb49bd27d1d8214bdca76eb0941faf",
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
                    for j, bs in sim.bss.items() for i, share in bs.stored_shares.items())
    digest.update(" ".join(f"{j}:{i}:{x}:{y}" for j, i, x, y in stored).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(MaskShareMode), ids=lambda m: m.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_runs_are_bit_for_bit_as_pinned(monkeypatch, shape, mode, seed):
    assert run_digest(shape, mode, seed, monkeypatch) == DIGESTS[f"{shape}-{mode.name}-{seed}"]
