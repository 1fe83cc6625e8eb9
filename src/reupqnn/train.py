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

Every run goes through one lockstep loop, which advances a batch of runs
(seeds, twin datasets, the values of an ``m_train`` sweep) with one
batched adjoint gradient pass per step.  Rows of the pass never interact,
so a run's bits do not depend on its batch.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .ansatz import ReuploadCircuit, _output_grads, forward_many
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
    learning_rate: float
    iterations: int
    seed: int
    noise_p: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not isinstance(self.iterations, numbers.Integral) or self.iterations < 0:
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations!r}")
        if not 0 <= self.seed <= 2**64 - 1:  # one 64-bit word of a Philox key
            raise ValueError(f"seed must lie in [0, 2^64 - 1], got {self.seed!r}")
        if not (0.0 <= self.noise_p <= 1.0):
            raise ValueError(f"noise_p={self.noise_p!r} outside [0, 1]")


_ZEROS = np.zeros(4, dtype=np.uint64)


@functools.cache
def _shared_generator() -> np.random.Generator:
    # Built on first use: numpy loads its random module lazily, and an
    # import of the package that never draws should not pay for it.
    return np.random.Generator(np.random.Philox(key=0))


def _philox(*key) -> np.random.Generator:
    """The generator of ``Philox(key=key)``: key set, counter 0, buffer empty.

    One generator is re-keyed for every call, because ``Philox(key=...)``
    first builds, then discards, a SeedSequence from OS entropy; setting
    the state costs a fraction of that and gives the same stream.  Draw
    from it at once: a generator held across another ``_philox`` call has
    been re-keyed by that call.
    """
    generator = _shared_generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def init_params(circuit: ReuploadCircuit, seed: int) -> np.ndarray:
    """Initial parameters, uniform on [0, 2pi), keyed by the seed alone."""
    return _philox(seed, _INIT_TAG).uniform(0.0, 2.0 * np.pi, size=circuit.n_params)


def draw_index(seed: int, t: int, m: int) -> int:
    """Sample index for iteration ``t``, uniform on [0, m), keyed by (seed, t)."""
    if m < 1:
        raise ValueError("cannot draw from an empty dataset")
    return int(_philox(seed, t).integers(0, m))


def _loss_grads(circuit: ReuploadCircuit, thetas, xs, ys, obs: Observable,
                noise_p: float) -> np.ndarray:
    """Loss gradients of R runs, run r at ``thetas[r]`` on (``xs[r]``, ``ys[r]``): (R, K).

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


def _sgd_paths(datasets, seeds, circuit: ReuploadCircuit, obs: Observable,
               config: TrainConfig):
    """Yield (indices, thetas) for theta_0..theta_T of R runs in lockstep.

    Run r trains on ``datasets[r]`` under ``seeds[r]`` (for ``config.seed``);
    ``thetas`` is (R, K), ``indices`` the (R,) draws of the step (None at
    theta_0).  A step draws once per distinct (seed, m) and makes one
    batched gradient call."""
    keys = [(seed, len(dataset)) for dataset, seed in zip(datasets, seeds)]
    thetas = np.array([init_params(circuit, seed) for seed in seeds])
    yield None, thetas
    for t in range(config.iterations):
        draws = {key: draw_index(key[0], t, key[1]) for key in set(keys)}
        indices = np.array([draws[key] for key in keys], dtype=np.int64)
        xs = np.array([dataset.features[i] for dataset, i in zip(datasets, indices)])
        ys = np.array([dataset.labels[i] for dataset, i in zip(datasets, indices)])
        thetas = thetas - config.learning_rate * _loss_grads(
            circuit, thetas, xs, ys, obs, config.noise_p)
        yield indices, thetas


def _train_runs(datasets, test_sets, seeds, circuit: ReuploadCircuit, obs: Observable,
                config: TrainConfig, eval_interval: int | None = None) -> list[TrainRun]:
    """`train` for R runs in lockstep: run r trains on ``datasets[r]`` under
    ``seeds[r]`` and is scored on ``datasets[r]`` and ``test_sets[r]``
    (None for no test set).  Returns one TrainRun per run, in order."""
    if any(len(dataset) < 1 for dataset in datasets):
        raise ValueError("training needs at least one sample")
    t_total = config.iterations
    if eval_interval is None:
        eval_interval = max(1, t_total // 100)
    if eval_interval < 1:
        raise ValueError("eval_interval must be >= 1")

    indices = np.empty((len(datasets), t_total), dtype=np.int64)
    eval_points: list[int] = []
    # One row per evaluation: train risk, train accuracy[, test risk, test accuracy].
    curves: list[list] = [[] for _ in datasets]

    def score(data, theta) -> tuple[float, float]:
        outputs = forward_many(circuit, theta, data.features, obs, config.noise_p)
        return (_mean_loss(outputs, data.labels),
                _sign_accuracy(outputs, data.labels))

    for t, (idx, thetas) in enumerate(_sgd_paths(datasets, seeds, circuit, obs, config)):
        if t > 0:
            indices[:, t - 1] = idx
        if t % eval_interval == 0 or t == t_total:
            eval_points.append(t)
            for curve, theta, sets in zip(curves, thetas, zip(datasets, test_sets)):
                curve.append([v for data in sets if data is not None for v in score(data, theta)])

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
    return _train_runs([dataset], [test_dataset], [config.seed], circuit, obs, config,
                       eval_interval)[0]
