"""Single-sample SGD on circuit parameters, with replayable randomness.

The update rule is theta <- theta - eta * l'(f(theta, x_t), y_t) * grad f,
drawing one sample per iteration.  The loss l is the package's one loss,
the scaled square (f - y)^2 / 4; its Lipschitz, smoothness and range
constants (``LIPSCHITZ``, ``SMOOTHNESS``, ``LOSS_BOUND``) are the defaults
of the closed-form bounds in :mod:`reupqnn.stability`.

All randomness is counter-based (Philox): the index drawn at iteration t
depends only on (seed, t) and the initial parameters only on (seed,); two
datasets of equal size therefore replay the exact same index sequence
under the same seed, which is what the stability machinery relies on.
The draws are those of numpy's ``Generator(Philox(key=...))``, bit for
bit: a one-off draw comes from the generator itself, and the loops
compute theirs for a whole array of keys at once (`_philox_words`).

Every run goes through one lockstep loop, which advances a batch of runs
(seeds, twin datasets, the values of a sweep on one circuit) with one
batched adjoint gradient pass per step.  A run is a (dataset, TrainConfig)
pair, and its config's seed, noise strength and step size are its own; the
runs of one batch share a circuit and T.  Rows of the pass never interact,
so a run's bits do not depend on its batch.  The loop pays once for what
does not change from step to step: it draws every run's initial
parameters at once and the indices of a block of steps at once, folds
the runs' features into per-qubit sums once, and binds the engine's
buffers and compiled sweeps once.  Its evaluations pay per distinct
(theta, p, x) row: the runs that stand at one theta under one noise
strength, as every run of a seed does at iteration 0, are scored in one
engine call over the distinct rows of their sets.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    ReuploadCircuit,
    _check_batch,
    _chunk_plan,
    _fold,
    _output_grads,
    _planned_grads,
    _prepare,
    forward_many,
)
from .qcore import Observable

__all__ = [
    "LIPSCHITZ",
    "SMOOTHNESS",
    "LOSS_BOUND",
    "loss",
    "loss_derivative",
    "TrainConfig",
    "TrainRun",
    "init_params",
    "draw_index",
    "sgd_step",
    "train",
    "risk",
    "accuracy",
]

_INIT_TAG = np.uint64(1) << np.uint64(63)  # never collides with an iteration index


# The loss is (f - y)^2 / 4.  On labels in {-1, +1} with |f| <= 1 it is
# Lipschitz with constant 1, smooth with constant 1/2 and ranges over
# [0, 1]: the C1, C2 and M of the stability bound.
LIPSCHITZ, SMOOTHNESS, LOSS_BOUND = 1.0, 0.5, 1.0


def loss(f, y):
    """Per-sample loss l(f, y) = (f - y)^2 / 4; broadcasts over arrays."""
    return 0.25 * (np.asarray(f, dtype=float) - np.asarray(y, dtype=float)) ** 2


def loss_derivative(f, y):
    """dl/df = (f - y) / 2 at (f, y); broadcasts over arrays."""
    return 0.5 * (np.asarray(f, dtype=float) - np.asarray(y, dtype=float))


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one SGD run: step size, T, Philox seed and noise strength."""

    learning_rate: float
    iterations: int
    seed: int
    noise_p: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not isinstance(self.iterations, numbers.Integral) or self.iterations < 0:
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations!r}")
        # One 64-bit word of a Philox key.
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed <= 2**64 - 1:
            raise ValueError(f"seed must be an integer in [0, 2^64 - 1], got {self.seed!r}")
        if not (0.0 <= self.noise_p <= 1.0):
            raise ValueError(f"noise_p={self.noise_p!r} outside [0, 1]")


def _philox(*key) -> np.random.Generator:
    """A new ``Generator(Philox(key=key))``: key set, counter 0, buffer empty.

    The draws of a single key come from it (`init_params`, `draw_index`,
    and through it `stability.replacement_for`), and so do those that
    `_philox_words`, which computes blocks of keys, does not:
    `stability.sampled_indices`' ``choice`` and the redraws of
    `_draw_indices`, about m / 2^32 of its draws."""
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11), computed as numpy's Philox computes it: the multipliers of
# words 0 and 2, whole and split into 32-bit halves, and the ten round
# keys' offsets from the key, r times the Weyl increments in round r.
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_HI, _PHILOX_M_LO = _PHILOX_M >> _HALF, _PHILOX_M & _LOW
_PHILOX_ROUND_KEYS = np.arange(10, dtype=np.uint64)[:, None, None] * np.array(
    [[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _philox_words(key0, key1, counter) -> np.ndarray:
    """The Philox4x64-10 block at counter (``counter``, 0, 0, 0) under key
    (``key0``, ``key1``) for broadcast uint64 arguments: (..., 4) words, in
    the order numpy's Philox draws them.

    numpy bumps the counter before it computes a block, so the first
    block a fresh ``Philox(key=(key0, key1))`` draws is that at counter
    1.  The high words of the 128-bit products are built from 32-bit
    halves; uint64 arithmetic wraps, which gives the low words."""
    key0, key1, counter = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.uint64) for a in (key0, key1, counter)))
    keys = _PHILOX_ROUND_KEYS + np.stack([key0.ravel(), key1.ravel()])
    mixed = np.stack([counter.ravel(), np.zeros(counter.size, dtype=np.uint64)])  # words 0, 2
    passed = np.zeros_like(mixed)  # words 1, 3
    for key in keys:
        hi, lo = mixed >> _HALF, mixed & _LOW
        mid = _PHILOX_M_HI * lo + ((_PHILOX_M_LO * lo) >> _HALF)
        high = _PHILOX_M_HI * hi + (mid >> _HALF) + ((_PHILOX_M_LO * hi + (mid & _LOW)) >> _HALF)
        mixed, passed = high[::-1] ^ passed ^ key, (_PHILOX_M * mixed)[::-1]
    return np.stack([mixed[0], passed[0], mixed[1], passed[1]], axis=-1).reshape(*counter.shape, 4)


def _init_thetas(circuit: ReuploadCircuit, seeds) -> np.ndarray:
    """`init_params` of every seed in ``seeds``: (seeds, K).

    ``Generator.uniform(0, 2 pi)`` of ``Philox(key=(seed, 2^63))``, bit for
    bit: its K words, from counters 1, 2, ... in order, as
    2 pi ((w >> 11) 2^-53)."""
    k = circuit.n_params
    seeds = np.asarray(seeds, dtype=np.uint64)[:, None]
    words = _philox_words(seeds, _INIT_TAG, np.arange(1, -(-k // 4) + 1))
    return 2.0 * np.pi * ((words.reshape(len(seeds), -1)[:, :k] >> np.uint64(11)) * 2.0**-53)


def init_params(circuit: ReuploadCircuit, seed: int) -> np.ndarray:
    """Initial parameters, uniform on [0, 2pi), keyed by the seed alone:
    drawn by the generator itself, whose draws `_init_thetas` computes for
    many seeds at once."""
    return _philox(seed, _INIT_TAG).uniform(0.0, 2.0 * np.pi, circuit.n_params)


def _draw_indices(seed, t, m) -> np.ndarray:
    """Sample indices uniform on [0, m), keyed by (seed, t), for broadcast
    arguments: ``Generator(Philox(key=(seed, t))).integers(0, m)`` of each,
    bit for bit.

    An index comes from the low 32 bits w of the first word that generator
    draws (`_philox_words` at counter 1) by ``integers``' rule for m up to
    2^32 (Lemire's): it is (w m) >> 32, unless the low 32 bits of w m fall
    below (2^32 - m) mod m; that draw is rejected, and the generator
    itself redraws it, as it draws every index at m > 2^32."""
    seed, t, m = np.broadcast_arrays(np.asarray(seed, dtype=np.uint64),
                                     np.asarray(t, dtype=np.uint64), np.asarray(m))
    if (m < 1).any():
        raise ValueError("cannot draw from an empty dataset")
    shape, seed, t, m = m.shape, seed.ravel(), t.ravel(), m.ravel()
    bound = np.minimum(m, 1 << 32).astype(np.uint64)
    scaled = (_philox_words(seed, t, 1)[:, 0] & _LOW) * bound
    indices = (scaled >> _HALF).astype(np.int64)
    redraw = ((scaled & _LOW) < (np.uint64(1 << 32) - bound) % bound) | (m > 1 << 32)
    for i in np.flatnonzero(redraw):
        indices[i] = _philox(int(seed[i]), int(t[i])).integers(0, int(m[i]))
    return indices.reshape(shape)


def draw_index(seed: int, t: int, m: int) -> int:
    """Sample index for iteration ``t``, uniform on [0, m), keyed by (seed, t):
    drawn by the generator itself, whose draws `_draw_indices` computes
    for whole arrays of keys."""
    if m < 1:
        raise ValueError("cannot draw from an empty dataset")
    return int(_philox(seed, t).integers(0, m))


def _loss_grads(circuit: ReuploadCircuit, thetas, xs, ys, obs: Observable,
                noise_p) -> np.ndarray:
    """Loss gradients of R runs, run r at ``thetas[r]`` on (``xs[r]``, ``ys[r]``)
    at noise strength ``noise_p`` (a float, or one per run): (R, K).

    One adjoint pass gives every run's output f and df/dtheta; the chain
    rule scales the latter by l'(f, y).
    """
    values, grads = _output_grads(circuit, thetas, xs, obs, noise_p)
    return loss_derivative(values, ys)[:, None] * grads


def sgd_step(theta, sample, eta: float, circuit: ReuploadCircuit, obs: Observable,
             noise_p: float = 0.0) -> np.ndarray:
    """One SGD update on a single sample; returns the new parameter vector."""
    theta = np.asarray(theta, dtype=float)
    return theta - eta * _loss_grads(circuit, theta[None], np.asarray(sample.x, dtype=float)[None],
                                     [sample.y], obs, noise_p)[0]


@dataclass(frozen=True)
class TrainRun:
    """Everything a finished training run exposes.

    ``eval_points`` are the iteration numbers at which the risk (and
    accuracy) curves were sampled; curves over the test set are None when
    no test set was supplied.
    """

    final_theta: np.ndarray
    indices: np.ndarray
    eval_points: np.ndarray
    train_risks: np.ndarray
    test_risks: np.ndarray | None
    train_accs: np.ndarray
    test_accs: np.ndarray | None


def _mean_loss(outputs: np.ndarray, labels) -> float:
    return float(np.mean(loss(outputs, labels)))


def _sign_accuracy(outputs: np.ndarray, labels) -> float:
    predictions = np.where(outputs >= 0.0, 1, -1)
    return float(np.mean(predictions == labels))


def risk(circuit: ReuploadCircuit, theta, dataset, obs: Observable,
         noise_p: float = 0.0) -> float:
    """Mean loss over the dataset."""
    outputs = forward_many(circuit, theta, dataset.features, obs, noise_p)
    return _mean_loss(outputs, dataset.labels)


def accuracy(circuit: ReuploadCircuit, theta, dataset, obs: Observable,
             noise_p: float = 0.0) -> float:
    """Fraction of samples with sign(f) matching the label; sign(0) is +1."""
    outputs = forward_many(circuit, theta, dataset.features, obs, noise_p)
    return _sign_accuracy(outputs, dataset.labels)


def _iterations(runs) -> int:
    """The iteration count T that every (dataset, config) run shares."""
    counts = {config.iterations for _, config in runs}
    if len(counts) != 1:
        raise ValueError("need at least one run" if not counts else
                         f"runs of one batch must share iterations, got {sorted(counts)}")
    return counts.pop()


# Steps whose indices `_sgd_paths` draws in one `_draw_indices` pass.
_DRAW_BLOCK = 256


def _sgd_paths(runs, circuit: ReuploadCircuit, obs: Observable):
    """Yield (indices, thetas) for theta_0..theta_T of R runs in lockstep.

    Each run is a (dataset, TrainConfig) pair and trains on its dataset
    under its config's seed, noise_p and learning_rate; the runs share
    ``iterations``.  ``thetas`` is (R, K), ``indices`` the (R,) draws of
    the step (None at theta_0).

    What stays fixed through the loop is checked once, by the engine's own
    checks: the shapes, the observable, the strengths and every run's
    features; the engine's chunk plan, with its channel factors and
    observable forms, is built and bound once too, so its chunks keep their
    buffers and compiled sweeps for every step (`ansatz._prepare`).  The runs' samples are stacked
    and their features folded (`ansatz._fold`) once, and every run's
    initial parameters drawn at once.  Every distinct (seed, m)'s indices
    are drawn ``_DRAW_BLOCK`` steps at a time, and the block's feature sums
    and labels gathered with one index each.  A step checks only that its
    thetas are finite and makes one call to the engine's unchecked adjoint
    core (`ansatz._planned_grads`, which `ansatz._output_grads` runs after
    its checks)."""
    iterations = _iterations(runs)
    keys = [(config.seed, len(dataset)) for dataset, config in runs]
    distinct = list(dict.fromkeys(keys))
    key_of = np.array([distinct.index(key) for key in keys], dtype=np.int64)
    seeds = np.array([seed for seed, _ in distinct], dtype=np.uint64)[:, None]
    sizes = np.array([m for _, m in distinct])[:, None]
    offsets = np.cumsum([0] + [m for _, m in keys[:-1]], dtype=np.int64)
    features = np.concatenate([dataset.features for dataset, _ in runs])
    labels = np.concatenate([dataset.labels for dataset, _ in runs]).astype(float)
    eta = np.array([config.learning_rate for _, config in runs])[:, None]
    thetas = _init_thetas(circuit, [config.seed for _, config in runs])
    noise = _check_batch(circuit, thetas, features, obs, [config.noise_p for _, config in runs],
                         len(runs))
    chunks = list(_prepare(circuit, _chunk_plan(circuit, obs, noise, adjoint=True), True))
    sums = _fold(circuit, features)
    yield None, thetas
    for t in range(iterations):
        step = t % _DRAW_BLOCK
        if step == 0:
            drawn = _draw_indices(seeds, np.arange(t, min(t + _DRAW_BLOCK, iterations)),
                                  sizes)[key_of]
            rows = offsets[:, None] + drawn
            block_sums, block_labels = sums[rows], labels[rows]
        if not np.isfinite(thetas).all():
            raise ValueError("thetas contain non-finite entries")
        values, grads = _planned_grads(circuit, thetas, block_sums[:, step], chunks, len(runs))
        thetas = thetas - eta * (loss_derivative(values, block_labels[:, step])[:, None] * grads)
        yield drawn[:, step], thetas


def _distinct_outputs(circuit: ReuploadCircuit, theta, blocks, obs: Observable,
                      p) -> list[np.ndarray]:
    """`forward_many` of one ``theta`` at strength ``p`` on each of the (rows,
    D) feature ``blocks``, from one call over their distinct rows: each
    block's outputs, in its own row order.

    Rows are the same when their bytes are (`np.unique` of the rows viewed
    as ``np.void``), and a row's bits do not depend on its batch, so every
    block gets the bits of its own call.  The blocks' concatenation is let
    go before the engine binds its buffers."""
    xs = np.concatenate(blocks, dtype=float)
    distinct, inverse = np.unique(xs.view(np.dtype((np.void, xs.itemsize * xs.shape[1]))).ravel(),
                                  return_inverse=True)
    del xs
    outputs = forward_many(circuit, theta, distinct.view(float).reshape(len(distinct), -1),
                           obs, p)[inverse]
    return np.split(outputs, np.cumsum([len(block) for block in blocks[:-1]]))


def _train_runs(runs, test_sets, circuit: ReuploadCircuit, obs: Observable,
                eval_interval: int | None = None) -> list[TrainRun]:
    """`train` for R (dataset, TrainConfig) runs in lockstep (see
    `_sgd_paths`): run r is scored on its dataset and ``test_sets[r]``
    (None for no test set) at its config's noise_p.  Returns one TrainRun
    per run, in order.

    At each evaluation the runs are grouped by their theta's bytes and
    their noise_p.  A run alone in its group has its train and test rows
    scored in one `forward_many` call; a group of several runs, such as a
    sweep's values under one seed at iteration 0, whose sets are drawn
    from one permutation, is scored in one call over the distinct rows of
    all its members' sets (`_distinct_outputs`).  Each run's outputs are
    then split by set: a row's bits do not depend on its batch, so the
    curves are those of `risk` and `accuracy` on each set."""
    if any(len(dataset) < 1 for dataset, _ in runs):
        raise ValueError("training needs at least one sample")
    t_total = _iterations(runs)
    if eval_interval is None:
        eval_interval = max(1, t_total // 100)
    if eval_interval < 1:
        raise ValueError("eval_interval must be >= 1")

    indices = np.empty((len(runs), t_total), dtype=np.int64)
    eval_points: list[int] = []
    # One row per evaluation: train risk, train accuracy[, test risk, test accuracy].
    curves: list[list] = [[] for _ in runs]
    scored = [[data for data in (dataset, test_set) if data is not None]
              for (dataset, _), test_set in zip(runs, test_sets)]
    features = [np.concatenate([data.features for data in sets]) for sets in scored]

    def score(theta, p, members) -> None:
        if len(members) == 1:
            parts = [forward_many(circuit, theta, features[members[0]], obs, p)]
        else:
            parts = _distinct_outputs(circuit, theta, [features[r] for r in members], obs, p)
        for r, outputs in zip(members, parts):
            sets = scored[r]
            m = len(sets[0])
            curves[r].append([v for data, part in zip(sets, (outputs[:m], outputs[m:]))
                              for v in (_mean_loss(part, data.labels),
                                        _sign_accuracy(part, data.labels))])

    for t, (idx, thetas) in enumerate(_sgd_paths(runs, circuit, obs)):
        if t > 0:
            indices[:, t - 1] = idx
        if t % eval_interval == 0 or t == t_total:
            eval_points.append(t)
            groups: dict = {}
            for r, (theta, (_, config)) in enumerate(zip(thetas, runs)):
                groups.setdefault((theta.tobytes(), config.noise_p), []).append(r)
            for (_, p), members in groups.items():
                score(thetas[members[0]], p, members)

    return [TrainRun(
        final_theta=thetas[r], indices=indices[r],
        eval_points=np.array(eval_points, dtype=np.int64),
        train_risks=curve[:, 0], train_accs=curve[:, 1],
        test_risks=None if test_set is None else curve[:, 2],
        test_accs=None if test_set is None else curve[:, 3],
    ) for r, (curve, test_set) in enumerate(zip(map(np.array, curves), test_sets))]


def train(dataset, circuit: ReuploadCircuit, obs: Observable, config: TrainConfig,
          test_dataset=None, eval_interval: int | None = None) -> TrainRun:
    """Run single-sample SGD for ``config.iterations`` steps.

    The risk/accuracy curves are sampled at iteration 0, every
    ``eval_interval`` iterations (default max(1, T // 100)) and at the
    final iteration.
    """
    return _train_runs([(dataset, config)], [test_dataset], circuit, obs, eval_interval)[0]
