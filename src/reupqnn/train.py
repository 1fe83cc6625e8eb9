"""Single-sample SGD on circuit parameters, with replayable randomness.

The update rule is theta <- theta - eta * l'(f(theta, x_t), y_t) * grad f,
drawing one sample per iteration.  All randomness is counter-based
(Philox): the index drawn at iteration t depends only on (seed, t) and
the initial parameters only on (seed,); two datasets of equal size
therefore replay the exact same index sequence under the same seed, which
is what the stability machinery relies on.

Every run goes through one lockstep loop, which advances a batch of runs
(seeds, twin datasets, the values of an ``m_train`` sweep) with one
batched adjoint gradient pass per step.  Rows of the pass never interact,
so a run's bits do not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import ReuploadCircuit, forward_many
from .qcore import Observable

__all__ = [
    "LossSpec",
    "LOSSES",
    "loss",
    "loss_derivative",
    "loss_constants",
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


@dataclass(frozen=True)
class LossSpec:
    """A registered loss with the constants its bounds rely on.

    ``lipschitz`` bounds |l(f,y) - l(g,y)| / |f - g|, ``smoothness``
    bounds |l'(f,y) - l'(g,y)| / |f - g|, and ``bound`` is the largest
    loss value reachable for |f| <= 1 and y in {-1, +1}.
    """

    fn: callable
    deriv: callable
    lipschitz: float
    smoothness: float
    bound: float


LOSSES: dict[str, LossSpec] = {
    # (f - y)^2 / 4: on labels in {-1, +1} with |f| <= 1 this has
    # lipschitz 1, smoothness 1/2 and range [0, 1].
    "scaled_squared": LossSpec(
        fn=lambda f, y: 0.25 * (f - y) ** 2,
        deriv=lambda f, y: 0.5 * (f - y),
        lipschitz=1.0,
        smoothness=0.5,
        bound=1.0,
    ),
}


def _loss_spec(kind: str) -> LossSpec:
    try:
        return LOSSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown loss kind {kind!r}; registered: {sorted(LOSSES)}"
        ) from None


def loss(f, y, kind: str = "scaled_squared"):
    """Per-sample loss l(f, y); broadcasts over arrays."""
    return _loss_spec(kind).fn(np.asarray(f, dtype=float), np.asarray(y, dtype=float))


def loss_derivative(f, y, kind: str = "scaled_squared"):
    """dl/df at (f, y); broadcasts over arrays."""
    return _loss_spec(kind).deriv(np.asarray(f, dtype=float), np.asarray(y, dtype=float))


def loss_constants(kind: str = "scaled_squared") -> tuple[float, float, float]:
    """(lipschitz, smoothness, bound) of a registered loss."""
    spec = _loss_spec(kind)
    return spec.lipschitz, spec.smoothness, spec.bound


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    iterations: int
    seed: int
    loss_kind: str = "scaled_squared"
    noise_p: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 <= self.noise_p <= 1.0):
            raise ValueError(f"noise_p={self.noise_p!r} outside [0, 1]")
        _loss_spec(self.loss_kind)


def _philox(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def init_params(circuit: ReuploadCircuit, seed: int) -> np.ndarray:
    """Initial parameters, uniform on [0, 2pi), keyed by the seed alone."""
    rng = _philox(seed, _INIT_TAG)
    return rng.uniform(0.0, 2.0 * np.pi, size=circuit.n_params)


def draw_index(seed: int, t: int, m: int) -> int:
    """Sample index for iteration ``t``, uniform on [0, m), keyed by (seed, t)."""
    if m < 1:
        raise ValueError("cannot draw from an empty dataset")
    return int(_philox(seed, t).integers(0, m))


def sgd_step(theta, sample, eta: float, circuit: ReuploadCircuit, obs: Observable,
             loss_kind: str = "scaled_squared", noise_p: float = 0.0) -> np.ndarray:
    """One SGD update on a single sample; returns the new parameter vector."""
    from .grad import loss_grad

    theta = np.asarray(theta, dtype=float)
    return theta - eta * loss_grad(circuit, theta, sample, obs, loss_kind, noise_p)


@dataclass(frozen=True)
class TrainRun:
    """Everything a finished training run exposes.

    ``eval_points`` are the iteration numbers at which the risk (and
    accuracy) curves were sampled; curves over the test set are None when
    no test set was supplied.  ``trajectory`` is (T+1, K) when recorded.
    """

    final_theta: np.ndarray
    indices: np.ndarray
    eval_points: np.ndarray
    train_risks: np.ndarray
    test_risks: np.ndarray | None
    train_accs: np.ndarray
    test_accs: np.ndarray | None
    trajectory: np.ndarray | None = field(default=None, repr=False)


def _mean_loss(outputs: np.ndarray, labels, loss_kind: str) -> float:
    return float(np.mean(loss(outputs, labels, loss_kind)))


def _sign_accuracy(outputs: np.ndarray, labels) -> float:
    predictions = np.where(outputs >= 0.0, 1, -1)
    return float(np.mean(predictions == labels))


def risk(circuit: ReuploadCircuit, theta, dataset, obs: Observable,
         loss_kind: str = "scaled_squared", noise_p: float = 0.0) -> float:
    """Mean loss over the dataset."""
    outputs = forward_many(circuit, theta, dataset.features, obs, noise_p)
    return _mean_loss(outputs, dataset.labels, loss_kind)


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
    from .grad import _loss_grads

    keys = [(seed, len(dataset)) for dataset, seed in zip(datasets, seeds)]
    thetas = np.array([init_params(circuit, seed) for seed in seeds])
    yield None, thetas
    for t in range(config.iterations):
        draws = {key: draw_index(key[0], t, key[1]) for key in set(keys)}
        indices = np.array([draws[key] for key in keys], dtype=np.int64)
        xs = np.array([dataset.features[i] for dataset, i in zip(datasets, indices)])
        ys = np.array([dataset.labels[i] for dataset, i in zip(datasets, indices)])
        thetas = thetas - config.learning_rate * _loss_grads(
            circuit, thetas, xs, ys, obs, config.loss_kind, config.noise_p)
        yield indices, thetas


def _train_runs(datasets, test_sets, seeds, circuit: ReuploadCircuit, obs: Observable,
                config: TrainConfig, eval_interval: int | None = None,
                record_trajectory: bool = False) -> list[TrainRun]:
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
    trajectory = (np.empty((len(datasets), t_total + 1, circuit.n_params))
                  if record_trajectory else None)
    eval_points: list[int] = []
    # One row per evaluation: train risk, train accuracy[, test risk, test accuracy].
    curves: list[list] = [[] for _ in datasets]

    def score(data, theta) -> tuple[float, float]:
        outputs = forward_many(circuit, theta, data.features, obs, config.noise_p)
        return (_mean_loss(outputs, data.labels, config.loss_kind),
                _sign_accuracy(outputs, data.labels))

    for t, (idx, thetas) in enumerate(_sgd_paths(datasets, seeds, circuit, obs, config)):
        if t > 0:
            indices[:, t - 1] = idx
        if trajectory is not None:
            trajectory[:, t] = thetas
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
        trajectory=None if trajectory is None else trajectory[r],
    ) for r, (curve, test_set) in enumerate(zip(map(np.array, curves), test_sets))]


def train(dataset, circuit: ReuploadCircuit, obs: Observable, config: TrainConfig,
          test_dataset=None, eval_interval: int | None = None,
          record_trajectory: bool = False) -> TrainRun:
    """Run single-sample SGD for ``config.iterations`` steps.

    The risk/accuracy curves are sampled at iteration 0, every
    ``eval_interval`` iterations (default max(1, T // 100)) and at the
    final iteration.
    """
    return _train_runs([dataset], [test_dataset], [config.seed], circuit, obs, config,
                       eval_interval, record_trajectory)[0]
