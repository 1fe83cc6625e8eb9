"""Single-sample SGD on circuit parameters, with replayable randomness.

The update rule is theta <- theta - eta * l'(f(theta, x_t), y_t) * grad f,
drawing one sample per iteration.  All randomness is counter-based
(Philox): the index drawn at iteration t depends only on (seed, t) and
the initial parameters only on (seed,); two datasets of equal size
therefore replay the exact same index sequence under the same seed, which
is what the stability machinery relies on.
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


def _sgd_path(dataset, circuit: ReuploadCircuit, obs: Observable, config: TrainConfig):
    """Yield (index, theta) for theta_0..theta_T of one run; theta_0 has index None."""
    m = len(dataset)
    theta = init_params(circuit, config.seed)
    yield None, theta
    for t in range(config.iterations):
        idx = draw_index(config.seed, t, m)
        theta = sgd_step(theta, dataset.sample(idx), config.learning_rate, circuit, obs,
                         config.loss_kind, config.noise_p)
        yield idx, theta


def train(dataset, circuit: ReuploadCircuit, obs: Observable, config: TrainConfig,
          test_dataset=None, eval_interval: int | None = None,
          record_trajectory: bool = False) -> TrainRun:
    """Run single-sample SGD for ``config.iterations`` steps.

    The risk/accuracy curves are sampled at iteration 0, every
    ``eval_interval`` iterations (default max(1, T // 100)) and at the
    final iteration.
    """
    if len(dataset) < 1:
        raise ValueError("training needs at least one sample")
    t_total = config.iterations
    if eval_interval is None:
        eval_interval = max(1, t_total // 100)
    if eval_interval < 1:
        raise ValueError("eval_interval must be >= 1")

    indices = np.empty(t_total, dtype=np.int64)
    trajectory = np.empty((t_total + 1, circuit.n_params)) if record_trajectory else None

    eval_points: list[int] = []
    train_risks: list[float] = []
    test_risks: list[float] = []
    train_accs: list[float] = []
    test_accs: list[float] = []

    def evaluate(t: int, theta: np.ndarray) -> None:
        eval_points.append(t)
        outputs = forward_many(circuit, theta, dataset.features, obs, config.noise_p)
        train_risks.append(_mean_loss(outputs, dataset.labels, config.loss_kind))
        train_accs.append(_sign_accuracy(outputs, dataset.labels))
        if test_dataset is not None:
            outputs = forward_many(circuit, theta, test_dataset.features, obs, config.noise_p)
            test_risks.append(_mean_loss(outputs, test_dataset.labels, config.loss_kind))
            test_accs.append(_sign_accuracy(outputs, test_dataset.labels))

    for t, (idx, theta) in enumerate(_sgd_path(dataset, circuit, obs, config)):
        if t > 0:
            indices[t - 1] = idx
        if trajectory is not None:
            trajectory[t] = theta
        if t % eval_interval == 0 or t == t_total:
            evaluate(t, theta)

    has_test = test_dataset is not None
    return TrainRun(
        final_theta=theta,
        indices=indices,
        eval_points=np.array(eval_points, dtype=np.int64),
        train_risks=np.array(train_risks),
        test_risks=np.array(test_risks) if has_test else None,
        train_accs=np.array(train_accs),
        test_accs=np.array(test_accs) if has_test else None,
        trajectory=trajectory,
    )
