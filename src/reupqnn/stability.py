"""Uniform stability: coupled measurement and closed-form bounds.

Empirical side.  Two SGD runs are coupled by sharing the seed: identical
initialization and identical per-iteration index draws, differing only in
one training sample (S vs S with sample i replaced).  The coupled
divergence tracks how far the runs drift; the empirical stability
coefficient is

    beta_hat = 1/2 * max over sampled i, probes z of
               | mean_seeds l(A_S, z) - mean_seeds l(A_Si, z) |.

Both come from one set of runs (:func:`coupled_ensemble`): the runs on S
and on each S^i, under every seed, advance together in one lockstep SGD
loop; the traces are read off their parameter paths and beta_hat off
their final parameters.
Under noise (``noise_p`` > 0) the probes are scored by the noisy model,
the one that was trained and that the noisy bound describes.

Analytic side.  For K single-Pauli parameters, L re-uploading layers, D
features, m training samples and T iterations of step size eta, the
per-step parameter divergence obeys a linear recursion whose closed form
gives

    beta = C1 ||M|| * (8 pi eta C2 K ||M|| L D / m)
           * sum_{t=1..T} (1 + 2 eta C2 K ||M||)^(t-1),

and the high-probability generalization bound is
2 beta + (4 m beta + M_loss) sqrt(log(1/delta) / (2m)).  Under
depolarizing noise of strength p the same recursion picks up a damping
(1-p)^K on every output-derivative factor and (1-p)^(L D) on the
data-dependent term, which only shrinks the bound; p = 0 reproduces the
noiseless expressions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import ReuploadCircuit, forward_many
from .data import Dataset, Sample
from .qcore import Observable
from .train import LIPSCHITZ, LOSS_BOUND, SMOOTHNESS, TrainConfig, _philox, _sgd_paths, loss

__all__ = [
    "StabilityTrace",
    "coupled_ensemble",
    "coupled_divergence",
    "empirical_beta",
    "BoundInputs",
    "theoretical_beta",
    "noisy_theoretical_beta",
    "generalization_bound",
    "noisy_generalization_bound",
    "MarginReport",
    "stable_training_margin",
]

_INDEX_TAG = np.uint64(0x1D5)
_REPLACEMENT_TAG = np.uint64(0x9E91)


@dataclass(frozen=True)
class StabilityTrace:
    """Per-iteration record of one coupled pair of runs.

    Arrays have length T + 1 (iteration 0 is the shared start).  The
    probe gaps are maxima over the probe set: |f_S - f_Si| at the output
    level and |l_S - l_Si| at the loss level.
    """

    replaced_index: int
    seed: int
    sum_abs_dtheta: np.ndarray
    probe_f_gap: np.ndarray
    probe_loss_gap: np.ndarray


def coupled_ensemble(dataset: Dataset, probes: Dataset, swaps, seeds,
                     circuit: ReuploadCircuit, obs: Observable,
                     config: TrainConfig) -> tuple[list[StabilityTrace], float]:
    """Coupled runs on S and on each S^i under every seed: (traces, beta_hat).

    ``swaps`` lists the (index, replacement) pairs and ``seeds`` stands in
    for ``config.seed``.  All runs train in lockstep; each run's probe
    scores come from one ``forward_many`` call over its whole path, at
    ``config.noise_p``; traces are in (index, seed) order and beta_hat is
    read off the same runs' final parameters.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    if len(probes) < 1:
        raise ValueError("probe set is empty")
    seeds = list(seeds)
    train_sets = [dataset] + [dataset.replace(index, replacement) for index, replacement in swaps]
    steps = _sgd_paths([train_set for train_set in train_sets for _ in seeds],
                       seeds * len(train_sets), circuit, obs, config)
    # (train set, seed, T + 1, K): the runs on S first, then the twins in swap order.
    paths = np.stack([thetas for _, thetas in steps], axis=1).reshape(
        len(train_sets), len(seeds), -1, circuit.n_params)

    def arm(path: np.ndarray):
        n_steps, n_probes = path.shape[0], len(probes)
        f = forward_many(circuit, np.repeat(path, n_probes, axis=0),
                         np.tile(probes.features, (n_steps, 1)), obs,
                         config.noise_p).reshape(n_steps, n_probes)
        return path, f, loss(f, probes.labels)

    def mean_final_loss(arms) -> np.ndarray:
        return sum(probe_loss[-1] for _, _, probe_loss in arms) / len(arms)

    bases = [arm(path) for path in paths[0]]
    base_mean = mean_final_loss(bases)
    traces: list[StabilityTrace] = []
    worst = 0.0
    for (index, _), twin_paths in zip(swaps, paths[1:]):
        twins = [arm(path) for path in twin_paths]
        for seed, (path_a, f_a, l_a), (path_b, f_b, l_b) in zip(seeds, bases, twins):
            traces.append(StabilityTrace(
                replaced_index=index,
                seed=seed,
                sum_abs_dtheta=np.sum(np.abs(path_a - path_b), axis=1),
                probe_f_gap=np.max(np.abs(f_a - f_b), axis=1),
                probe_loss_gap=np.max(np.abs(l_a - l_b), axis=1),
            ))
        worst = max(worst, float(np.max(np.abs(base_mean - mean_final_loss(twins)))))
    return traces, 0.5 * worst


def coupled_divergence(dataset: Dataset, index: int, replacement: Sample,
                       circuit: ReuploadCircuit, obs: Observable, config: TrainConfig,
                       probes: Dataset | None = None) -> StabilityTrace:
    """Train on S and on S with sample ``index`` replaced under ``config.seed``."""
    traces, _ = coupled_ensemble(dataset, dataset if probes is None else probes,
                                 [(index, replacement)], [config.seed], circuit, obs, config)
    return traces[0]


def sampled_indices(m: int, n_indices: int) -> np.ndarray:
    """Candidate replaced indices, stable across runs (keyed by m only)."""
    n = min(n_indices, m)
    if n < 1:
        raise ValueError("need at least one index")
    return np.sort(_philox(_INDEX_TAG, m).choice(m, size=n, replace=False))


def replacement_for(index: int, probe_set: Dataset) -> Sample:
    """Replacement sample for one index, drawn from the probe pool.

    Keyed by the index alone, never by the training seed, so every seed
    of the ensemble sees the same replaced dataset.
    """
    pick = int(_philox(_REPLACEMENT_TAG, index).integers(0, len(probe_set)))
    return probe_set.sample(pick)


def empirical_beta(dataset: Dataset, probe_set: Dataset, n_indices: int, n_seeds: int,
                   circuit: ReuploadCircuit, obs: Observable, config: TrainConfig) -> float:
    """Monte-Carlo estimate of the uniform-stability coefficient."""
    swaps = [(int(i), replacement_for(int(i), probe_set))
             for i in sampled_indices(len(dataset), n_indices)]
    seeds = range(config.seed, config.seed + n_seeds)
    return coupled_ensemble(dataset, probe_set, swaps, seeds, circuit, obs, config)[1]


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the closed-form stability and generalization bounds."""

    layers: int
    data_dim: int
    n_params: int
    m: int
    iterations: int
    eta: float
    obs_norm: float
    lipschitz: float = LIPSCHITZ
    smoothness: float = SMOOTHNESS
    loss_bound: float = LOSS_BOUND
    delta: float = 0.05
    noise_p: float = 0.0

    def __post_init__(self):
        if self.layers < 1 or self.data_dim < 1 or self.n_params < 1 or self.m < 1:
            raise ValueError("layers, data_dim, n_params and m must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and > 0")
        for name in ("obs_norm", "lipschitz", "smoothness", "loss_bound"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if not (0.0 <= self.noise_p <= 1.0):
            raise ValueError("noise_p must lie in [0, 1]")


def _beta_closed_form(b: BoundInputs, p: float) -> float:
    damp_params = (1.0 - p) ** b.n_params
    damp_data = (1.0 - p) ** (b.layers * b.data_dim)
    per_step = (
        8.0 * np.pi * b.eta * b.smoothness * b.n_params * b.obs_norm
        * b.layers * b.data_dim * damp_data / b.m
    )
    ratio = 1.0 + 2.0 * b.eta * b.smoothness * b.n_params * b.obs_norm * damp_params
    if b.iterations == 0:
        geometric = 0.0
    elif ratio == 1.0:
        geometric = float(b.iterations)
    else:
        try:
            power = ratio ** b.iterations
        except OverflowError:
            raise OverflowError(
                f"geometric factor {ratio!r} ** {b.iterations} overflows"
            ) from None
        geometric = (power - 1.0) / (ratio - 1.0)
    result = b.lipschitz * b.obs_norm * damp_params * per_step * geometric
    if not np.isfinite(result):
        raise OverflowError(
            f"closed form overflowed: per_step={per_step!r}, geometric={geometric!r}"
        )
    return result


def theoretical_beta(b: BoundInputs) -> float:
    """Closed-form stability coefficient of the noiseless recursion."""
    return _beta_closed_form(b, 0.0)


def noisy_theoretical_beta(b: BoundInputs) -> float:
    """Stability coefficient under depolarizing noise of strength ``b.noise_p``.

    Reduces bit-for-bit to :func:`theoretical_beta` at p = 0 and is
    monotonically non-increasing in p.
    """
    return _beta_closed_form(b, b.noise_p)


def generalization_bound(beta: float, b: BoundInputs) -> float:
    """High-probability gap bound 2 beta + (4 m beta + M) sqrt(log(1/delta) / 2m)."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    tail = float(np.sqrt(np.log(1.0 / b.delta) / (2.0 * b.m)))
    return 2.0 * beta + (4.0 * b.m * beta + b.loss_bound) * tail


def noisy_generalization_bound(b: BoundInputs) -> float:
    """Generalization bound with the noisy closed-form beta plugged in."""
    return generalization_bound(noisy_theoretical_beta(b), b)


@dataclass(frozen=True)
class MarginReport:
    """eta * K * ||M|| with a flag once the stable-step condition fails."""

    value: float
    flagged: bool


def stable_training_margin(b: BoundInputs) -> MarginReport:
    """Step-size stability margin; flagged when eta * K * ||M|| >= 1."""
    value = b.eta * b.n_params * b.obs_norm
    return MarginReport(value=value, flagged=bool(value >= 1.0))
