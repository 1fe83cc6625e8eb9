"""Uniform stability: coupled measurement and closed-form bounds.

Empirical side.  Two SGD runs are coupled by sharing the seed: identical
initialization and identical per-iteration index draws, differing only in
one training sample (S vs S with sample i replaced).  The coupled
divergence tracks how far the runs drift; the empirical stability
coefficient is

    beta_hat = 1/2 * max over sampled i, probes z of
               | mean_seeds l(A_S, z) - mean_seeds l(A_Si, z) |.

Both come from one set of runs (:func:`coupled_ensemble`): the runs on S
and on each S^i, under every seed's TrainConfig, advance together in one
lockstep SGD loop, as do those of several groups (the values of a sweep on
one circuit); the traces are read off their parameter paths and beta_hat
off their final parameters.  Under noise (``noise_p`` > 0) the probes are
scored by the noisy model, the one that was trained and that the noisy
bound describes.

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

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import ReuploadCircuit, _forward_grid
from .data import Dataset, Sample
from .qcore import Observable
from .train import (LIPSCHITZ, LOSS_BOUND, SMOOTHNESS, TrainConfig, _draw_indices, _philox,
                    _sgd_paths, draw_index, loss)

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


def _group_result(paths: np.ndarray, probes: Dataset, swaps, configs, circuit: ReuploadCircuit,
                  obs: Observable) -> tuple[list[StabilityTrace], float]:
    """(traces, beta_hat) of one group from its (swap + 1, seed, T + 1, K)
    paths, S's runs first: every run's probe scores from one grid of its
    whole path against the probes (`ansatz._forward_grid`, which pays the
    trig once per theta and once per probe), at its config's noise_p, and
    every gap a reduction of S's runs against each twin's."""
    runs = paths.reshape(-1, *paths.shape[2:])
    f = np.stack([_forward_grid(circuit, path, probes.features, obs, config.noise_p)
                  for path, config in zip(runs, configs * len(paths))])
    f = f.reshape(paths.shape[:3] + (len(probes),))
    l = loss(f, probes.labels)
    gaps = np.stack([np.sum(np.abs(paths[0] - paths[1:]), axis=-1),
                     np.max(np.abs(f[0] - f[1:]), axis=-1),
                     np.max(np.abs(l[0] - l[1:]), axis=-1)], axis=2)  # (swap, seed, 3, T + 1)
    final = np.cumsum(l[:, :, -1], axis=1)[:, -1] / len(configs)  # seeds summed in order
    traces = [StabilityTrace(index, config.seed, *gaps[k, s])
              for k, (index, _) in enumerate(swaps) for s, config in enumerate(configs)]
    return traces, 0.5 * float(np.max(np.abs(final[0] - final[1:]), initial=0.0))


def coupled_ensemble(groups, circuit: ReuploadCircuit,
                     obs: Observable) -> list[tuple[list[StabilityTrace], float]]:
    """Coupled runs on S and on each S^i under every config: (traces, beta_hat) per group.

    A group is a (dataset S, probes, swaps, configs) quadruple whose
    ``swaps`` list the (index, replacement) pairs and whose ``configs``
    hold one TrainConfig per seed; groups may differ in m, probes, step
    size and noise strength, but share T.  Every run of every group trains
    in one lockstep loop; each run's probe scores come from one grid of its
    whole path against the probes, at its config's noise_p;
    traces are in (index, seed) order and beta_hat is read off the same
    runs' final parameters.
    """
    runs = []  # per group: S first, then the twins in swap order, each under every config
    for dataset, probes, swaps, configs in groups:
        if len(probes) < 1:
            raise ValueError("probe set is empty")
        if len(configs) < 1:
            raise ValueError("need at least one run")
        train_sets = [dataset] + [dataset.replace(index, replacement)
                                  for index, replacement in swaps]
        runs += [(train_set, config) for train_set in train_sets for config in configs]
    steps = _sgd_paths(runs, circuit, obs)
    paths = np.stack([thetas for _, thetas in steps], axis=1)  # (run, T + 1, K)
    sizes = [(len(swaps) + 1) * len(configs) for _, _, swaps, configs in groups]
    return [_group_result(group_paths.reshape(len(swaps) + 1, len(configs), -1, circuit.n_params),
                          probes, swaps, configs, circuit, obs)
            for group_paths, (_, probes, swaps, configs)
            in zip(np.split(paths, np.cumsum(sizes)[:-1]), groups)]


def coupled_divergence(dataset: Dataset, index: int, replacement: Sample,
                       circuit: ReuploadCircuit, obs: Observable, config: TrainConfig,
                       probes: Dataset | None = None) -> StabilityTrace:
    """Train on S and on S with sample ``index`` replaced under ``config``."""
    group = (dataset, dataset if probes is None else probes, [(index, replacement)], [config])
    [(traces, _)] = coupled_ensemble([group], circuit, obs)
    return traces[0]


def sampled_indices(m: int, n_indices: int) -> np.ndarray:
    """Candidate replaced indices, stable across runs (keyed by m only)."""
    n = min(n_indices, m)
    if n < 1:
        raise ValueError("need at least one index")
    return np.sort(_philox(_INDEX_TAG, m).choice(m, size=n, replace=False))


def _swaps(m: int, n_indices: int, probe_set: Dataset) -> list[tuple[int, Sample]]:
    """The (index, replacement) pairs of a coupled ensemble: each of
    `sampled_indices` with its `replacement_for`, all drawn at once."""
    indices = sampled_indices(m, n_indices)
    picks = _draw_indices(_REPLACEMENT_TAG, indices, len(probe_set))
    return [(int(index), probe_set.sample(int(pick))) for index, pick in zip(indices, picks)]


def replacement_for(index: int, probe_set: Dataset) -> Sample:
    """Replacement sample for one index, drawn from the probe pool.

    Keyed by the index alone, never by the training seed, so every seed
    of the ensemble sees the same replaced dataset.
    """
    return probe_set.sample(draw_index(_REPLACEMENT_TAG, index, len(probe_set)))


def empirical_beta(dataset: Dataset, probe_set: Dataset, n_indices: int, n_seeds: int,
                   circuit: ReuploadCircuit, obs: Observable, config: TrainConfig) -> float:
    """Monte-Carlo estimate of the uniform-stability coefficient."""
    swaps = _swaps(len(dataset), n_indices, probe_set)
    configs = [replace(config, seed=config.seed + k) for k in range(n_seeds)]
    [(_, beta)] = coupled_ensemble([(dataset, probe_set, swaps, configs)], circuit, obs)
    return beta


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
        for name in ("layers", "data_dim", "n_params", "m", "iterations"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.layers < 1 or self.data_dim < 1 or self.n_params < 1 or self.m < 1:
            raise ValueError("layers, data_dim, n_params and m must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and > 0")
        for name in ("obs_norm", "lipschitz", "smoothness", "loss_bound"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be finite and > 0")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if not (0.0 <= self.noise_p <= 1.0):
            raise ValueError("noise_p must lie in [0, 1]")


def _beta_closed_form(b: BoundInputs, p: float) -> float:
    if b.iterations == 0:  # no step, no divergence: not inf * 0
        return 0.0
    damp_params = (1.0 - p) ** b.n_params
    damp_data = (1.0 - p) ** (b.layers * b.data_dim)
    per_step = (
        8.0 * np.pi * b.eta * b.smoothness * b.n_params * b.obs_norm
        * b.layers * b.data_dim * damp_data / b.m
    )
    ratio = 1.0 + 2.0 * b.eta * b.smoothness * b.n_params * b.obs_norm * damp_params
    if ratio == 1.0:
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
