"""Synthetic federated task: logistic regression on two Gaussian blobs.

Small enough to run hundreds of simulated training runs per minute, yet
realistic enough that dropout schedules visibly move the accuracy curve.
Every array is derived from an explicit seed; identical seeds give
identical shards, test sets, and local updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import require_int, require_real

BLOB_SEPARATION = 4.0  # distance between the two blob means, in standard deviations
# the least value of generate_data's task counts, by parameter name;
# ExperimentSpec checks its fields of these names against the same floors
TASK_FLOORS = {"feature_dim": 0, "samples_per_shard": 1, "test_samples": 1, "local_epochs": 0}


@dataclass
class FlTask:
    """Per-device training shards plus a shared held-out test set.

    The model is a linear classifier with bias, dimension feature_dim + 1.
    Local updates are parameter deltas clipped componentwise to clip_bound
    so they always fit the protocol's fixed-point codec.

    Feature matrices are stored once, with the bias column of ones already
    appended as their last column. The shards are stacked: ``train_xb`` has
    shape (n_shards, samples, dim) and ``train_y`` (n_shards, samples), and
    shard i is ``train_xb[i]``, ``train_y[i]``. The module's training and
    evaluation functions take such biased matrices.
    """

    feature_dim: int
    train_xb: np.ndarray
    train_y: np.ndarray
    test_xb: np.ndarray
    test_y: np.ndarray
    learning_rate: float
    local_epochs: int
    clip_bound: float = 1.0
    separation_direction: np.ndarray | None = None  # true blob axis, for oracles

    @property
    def dim(self) -> int:
        return self.feature_dim + 1

    @property
    def n_shards(self) -> int:
        return len(self.train_xb)

    def local_update(self, ue_index: int | slice, model) -> np.ndarray:
        """Train from ``model`` on the shards ``ue_index`` selects.

        ``ue_index`` indexes the shard axis as a numpy index does: an int
        with a (dim,) model gives one (dim,) update; a slice selecting m
        shards with an (m, dim) stack of models gives m rows, row r trained
        from model row r. Each row is bit-identical to training that shard
        alone.
        """
        return local_train(model, self.train_xb[ue_index], self.train_y[ue_index],
                           self.learning_rate, self.local_epochs, self.clip_bound)

    def accuracy(self, model: np.ndarray) -> float:
        return evaluate(model, self.test_xb, self.test_y)


def generate_data(
    seed: int,
    n_ues: int,
    feature_dim: int = 9,
    samples_per_shard: int = 40,
    test_samples: int = 200,
    learning_rate: float = 0.5,
    local_epochs: int = 2,
    clip_bound: float = 1.0,
) -> FlTask:
    """Two unit-variance Gaussian blobs with means BLOB_SEPARATION apart.

    Samples are split into n_ues equal disjoint shards; the test set is drawn
    separately and balanced. Labels are +/-1. Raises ValueError for a count
    below its floor, and for a learning rate or clip bound that is not a
    real number > 0: either would make every local update NaN or refused.
    """
    counts = locals()  # the parameters: no other name is bound yet
    for name, lo in {"seed": 0, "n_ues": 1, **TASK_FLOORS}.items():
        require_int(name, counts[name], lo)
    require_real("learning_rate", learning_rate, 0, lo_open=True)
    require_real("clip_bound", clip_bound, 0, lo_open=True)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=feature_dim)
    direction /= np.linalg.norm(direction)
    mean = (BLOB_SEPARATION / 2.0) * direction

    def draw(count):
        # features are drawn straight into the biased matrix: no unbiased copy
        half = count // 2
        xb = np.empty((count, feature_dim + 1))
        np.add(rng.normal(size=(half, feature_dim)), mean, out=xb[:half, :-1])
        np.subtract(rng.normal(size=(count - half, feature_dim)), mean, out=xb[half:, :-1])
        xb[:, -1] = 1.0
        y = np.concatenate([np.ones(half), -np.ones(count - half)])
        order = rng.permutation(count)
        return xb[order], y[order]

    train_xb, train_y = draw(n_ues * samples_per_shard)
    test_xb, test_y = draw(test_samples)
    return FlTask(
        feature_dim=feature_dim,
        train_xb=train_xb.reshape(n_ues, samples_per_shard, feature_dim + 1),
        train_y=train_y.reshape(n_ues, samples_per_shard),
        test_xb=test_xb,
        test_y=test_y,
        learning_rate=learning_rate,
        local_epochs=local_epochs,
        clip_bound=clip_bound,
        separation_direction=direction,
    )


# a block of shards trains through every epoch before the next block starts:
# as many consecutive shards as fit their matrices in about half the 2 MiB
# per-core L2 of the Xeon this was tuned on, so that each epoch after the
# first reads them from L2, not from L3
_BLOCK_BYTES = 1 << 20


def local_train(
    model, xb: np.ndarray, y: np.ndarray, lr: float, epochs: int, clip_bound: float
) -> np.ndarray:
    """Full-batch gradient descent on the logistic loss; returns the clipped
    parameter delta. Zero epochs gives a zero update.

    ``xb`` is the biased (..., samples, dim) matrix, bias column last, ``y``
    the (..., samples) labels and ``model`` the (..., dim) start; leading
    axes are a batch of independent problems. A stack of shards trains in
    L2-sized blocks of consecutive shards along its first axis, every epoch
    on one block before the next. Both products are matrix-vector ones per
    batch item, so each item's delta is bit-identical to training it alone.
    A matrix without the bias column does not match the model's dimension
    and numpy raises.
    """
    w = np.array(model, dtype=np.float64)
    start = w.copy()
    ny = -y
    blocks = [...]  # one problem is one block
    if len(xb.shape) > 2:
        step = max(1, _BLOCK_BYTES // max(1, xb[:1].nbytes))
        blocks = [slice(lo, lo + step) for lo in range(0, len(xb), step)]
    for b in blocks:
        wb, xbb, yb, nyb = w[b], xb[b], y[b], ny[b]
        xbb_t = np.swapaxes(xbb, -1, -2)
        for _ in range(epochs):
            v = (xbb @ wb[..., None])[..., 0]
            v *= nyb
            # the sigmoid of v: 1 / (1 + e) for v >= 0 and e / (1 + e) below,
            # with e = exp(-|v|), which never overflows
            e = np.abs(v)
            np.negative(e, out=e)
            np.exp(e, out=e)
            s = np.where(v >= 0, 1.0, e)
            e += 1.0
            s /= e
            s *= yb
            grad = (xbb_t @ s[..., None])[..., 0]
            np.negative(grad, out=grad)
            grad /= y.shape[-1]
            grad *= lr
            wb -= grad
    return np.clip(w - start, -clip_bound, clip_bound)


def evaluate(model, xb: np.ndarray, y: np.ndarray) -> float:
    """Fraction of test points whose predicted sign matches the label;
    ``xb`` carries the bias column last."""
    z = xb @ np.asarray(model, dtype=np.float64)
    predictions = np.where(z >= 0.0, 1.0, -1.0)
    return float(np.mean(predictions == y))
