"""Synthetic training task tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _sigmoid_masked, local_train_one, logistic_loss
from secagg5g import fltask


def test_same_seed_identical_shards():
    a = fltask.generate_data(seed=5, n_ues=4)
    b = fltask.generate_data(seed=5, n_ues=4)
    np.testing.assert_array_equal(a.train_xb, b.train_xb)
    np.testing.assert_array_equal(a.train_y, b.train_y)
    np.testing.assert_array_equal(a.test_xb, b.test_xb)


def test_different_seed_different_data():
    a = fltask.generate_data(seed=5, n_ues=4)
    b = fltask.generate_data(seed=6, n_ues=4)
    assert not np.array_equal(a.test_xb, b.test_xb)


def test_shard_count_and_disjointness():
    task = fltask.generate_data(seed=1, n_ues=8, samples_per_shard=30)
    assert task.n_shards == 8
    rows = set()
    for x, y in zip(task.train_xb, task.train_y):
        assert x.shape == (30, task.dim)
        assert y.shape == (30,)
        for row in x:
            rows.add(row.tobytes())
    assert len(rows) == 8 * 30  # continuous draws never repeat across shards


def test_test_set_disjoint_from_shards():
    task = fltask.generate_data(seed=2, n_ues=4)
    shard_rows = {row.tobytes() for x in task.train_xb for row in x}
    test_rows = {row.tobytes() for row in task.test_xb}
    assert not shard_rows & test_rows


def test_labels_are_signs():
    task = fltask.generate_data(seed=3, n_ues=2)
    assert set(np.unique(task.test_y)) == {-1.0, 1.0}


def test_zero_epochs_zero_update():
    task = fltask.generate_data(seed=4, n_ues=2)
    x, y = task.train_xb[0], task.train_y[0]
    delta = fltask.local_train([0.0] * task.dim, x, y, lr=0.5, epochs=0, clip_bound=1.0)
    assert np.all(delta == 0.0)


def test_update_decreases_local_loss():
    task = fltask.generate_data(seed=7, n_ues=2)
    x, y = task.train_xb[1], task.train_y[1]
    model = [0.0] * task.dim
    delta = fltask.local_train(model, x, y, lr=0.5, epochs=2, clip_bound=1.0)
    before = logistic_loss(model, x, y)
    after = logistic_loss(np.asarray(model) + delta, x, y)
    assert after < before


def test_update_clipped_under_huge_lr():
    task = fltask.generate_data(seed=8, n_ues=2)
    x, y = task.train_xb[0], task.train_y[0]
    delta = fltask.local_train([0.0] * task.dim, x, y, lr=500.0, epochs=3, clip_bound=1.0)
    assert np.max(np.abs(delta)) <= 1.0


def test_local_train_deterministic():
    task = fltask.generate_data(seed=9, n_ues=2)
    x, y = task.train_xb[0], task.train_y[0]
    d1 = fltask.local_train([0.1] * task.dim, x, y, 0.5, 2, 1.0)
    d2 = fltask.local_train([0.1] * task.dim, x, y, 0.5, 2, 1.0)
    np.testing.assert_array_equal(d1, d2)


def test_random_models_average_to_chance():
    # prediction flips under w -> -w, so accuracy is symmetric around 1/2
    task = fltask.generate_data(seed=10, n_ues=2)
    rng = np.random.default_rng(0)
    accs = [
        task.accuracy(rng.normal(size=task.dim).tolist()) for _ in range(200)
    ]
    assert 0.4 <= float(np.mean(accs)) <= 0.6


def test_constructed_separating_hyperplane_scores_high():
    # the true blob axis is the oracle separator, no training involved
    task = fltask.generate_data(seed=11, n_ues=4)
    model = task.separation_direction.tolist() + [0.0]
    assert task.accuracy(model) > 0.95


def test_centralized_training_converges():
    # separation of 4 sigma: a converged model clears 95% test accuracy
    task = fltask.generate_data(seed=12, n_ues=4)
    pooled_x = task.train_xb.reshape(-1, task.dim)
    pooled_y = task.train_y.reshape(-1)
    model = np.zeros(task.dim)
    for _ in range(50):
        model += fltask.local_train(model, pooled_x, pooled_y, 0.5, 1, 10.0)
    assert task.accuracy(model.tolist()) > 0.95


def test_generate_rejects_zero_ues():
    # 2.5 and True raised a TypeError from numpy
    for n_ues in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_ues = "):
            fltask.generate_data(seed=0, n_ues=n_ues)


@pytest.mark.parametrize("name", ["learning_rate", "clip_bound"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0, True, "0.5", None])
def test_generate_refuses_a_training_knob_that_is_not_a_positive_real(name, value):
    # a NaN or negative knob built a task whose every update was NaN, refused
    # only mid-run by the codec
    with pytest.raises(ValueError, match=fr"{name} = .* is not a real number in \(0, inf\)"):
        fltask.generate_data(seed=0, n_ues=2, **{name: value})


def test_features_are_stored_once_with_the_bias_column():
    task = fltask.generate_data(seed=13, n_ues=3, feature_dim=5)
    assert np.all(task.train_xb[..., -1] == 1.0)
    assert np.all(task.test_xb[:, -1] == 1.0)
    # the task's methods and the module functions compute bit for bit alike
    model = np.linspace(-1.0, 1.0, task.dim)
    xb, y = task.train_xb[2], task.train_y[2]
    np.testing.assert_array_equal(
        task.local_update(2, model),
        fltask.local_train(model, xb, y, task.learning_rate, task.local_epochs,
                           task.clip_bound))
    assert task.accuracy(model) == fltask.evaluate(model, task.test_xb, task.test_y)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    feature_dim=st.integers(min_value=1, max_value=80) | st.sampled_from([999, 2047]),
    samples=st.integers(min_value=1, max_value=48),
    epochs=st.integers(min_value=0, max_value=3),
    # up to 10^4 the logits reach thousands and the sigmoid saturates
    log_scale=st.floats(min_value=-3.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bounds=st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)),
)
def test_stacked_training_is_bit_identical_to_one_shard_at_a_time(
        n, feature_dim, samples, epochs, log_scale, seed, bounds):
    task = fltask.generate_data(seed=seed, n_ues=n, feature_dim=feature_dim,
                                samples_per_shard=samples, test_samples=2, local_epochs=epochs)
    models = np.random.default_rng(seed).normal(size=(n, task.dim)) * 10.0**log_scale
    want = [
        local_train_one(models[i], task.train_xb[i], task.train_y[i], task.learning_rate,
                        epochs, task.clip_bound).tobytes()
        for i in range(n)
    ]
    assert [row.tobytes() for row in task.local_update(slice(0, n), models)] == want
    lo, hi = sorted(min(b, n) for b in bounds)
    part = task.local_update(slice(lo, hi), models[lo:hi])
    assert part.shape == (hi - lo, task.dim)
    assert [row.tobytes() for row in part] == want[lo:hi]
    for i in range(n):
        assert task.local_update(i, models[i].tolist()).tobytes() == want[i]


@pytest.mark.parametrize("seed, log_scale", [(0, -1.0), (1, 0.5), (2, 3.0)])
def test_training_in_blocks_of_shards_is_bit_identical_to_one_shard_at_a_time(
        monkeypatch, seed, log_scale):
    # the property above trains every stack in one block except at its two
    # widest dims; here ten shards run in blocks of 3, 3, 3 and 1
    task = fltask.generate_data(seed=seed, n_ues=10, feature_dim=6, samples_per_shard=5,
                                test_samples=2, local_epochs=3)
    shard_bytes = task.train_xb[0].nbytes
    monkeypatch.setattr(fltask, "_BLOCK_BYTES", 4 * shard_bytes - 1)
    models = np.random.default_rng(seed).normal(size=(10, task.dim)) * 10.0**log_scale
    want = [
        local_train_one(models[i], task.train_xb[i], task.train_y[i], task.learning_rate,
                        task.local_epochs, task.clip_bound).tobytes()
        for i in range(10)
    ]
    for lo, hi in [(0, 10), (1, 10), (2, 9), (3, 6), (4, 5), (7, 7)]:
        part = task.local_update(slice(lo, hi), models[lo:hi])
        assert part.shape == (hi - lo, task.dim)
        assert [row.tobytes() for row in part] == want[lo:hi]
    for i in range(10):
        assert task.local_update(i, models[i]).tobytes() == want[i]


def test_logistic_step_matches_the_piecewise_sigmoid_at_its_edges():
    # shard i is one sample (x_i, 1) with label y_i, trained one epoch from
    # (1, 0) at lr 1: its logit is v_i = -y_i * x_i, and the bias weight's
    # delta is y_i * sigmoid(v_i), exact up to the sign of a zero
    x = np.array([0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 5e-324, 2.2250738585072014e-308,
                  1.0, -3.5, 36.7, 710.0])
    xs = np.concatenate([x, x])
    ys = np.repeat([1.0, -1.0], len(x))
    v = -ys * xs
    assert {0.0, np.inf, -np.inf, 745.2, -745.2, 5e-324, -5e-324} <= set(v[~np.isnan(v)].tolist())
    assert np.signbit(v[v == 0.0]).tolist() == [True, False]
    xb = np.stack([xs, np.ones_like(xs)], axis=1)[:, None, :]
    models = np.tile([1.0, 0.0], (len(xs), 1))
    with np.errstate(invalid="ignore"):  # the inf and NaN logits
        delta = fltask.local_train(models, xb, ys[:, None], 1.0, 1, 1.0)
        want = _sigmoid_masked(v)
        np.testing.assert_array_equal(
            delta, [local_train_one(models[i], xb[i], ys[i:i + 1], 1.0, 1, 1.0)
                    for i in range(len(xs))])
    nan = np.isnan(want)
    got = np.abs(delta[:, 1])
    assert nan.tolist() == np.isnan(got).tolist()
    assert got[~nan].tobytes() == want[~nan].tobytes()
