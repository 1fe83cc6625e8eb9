"""Coupled divergence, the empirical stability estimate, and closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import group_result_loop
from reupqnn.ansatz import build_circuit, forward
from reupqnn.data import Dataset, Sample, synthetic_toy
from reupqnn.noise import noisy_forward
from reupqnn.qcore import z_observable
from reupqnn.stability import (
    BoundInputs,
    MarginReport,
    _swaps,
    coupled_divergence,
    coupled_ensemble,
    empirical_beta,
    generalization_bound,
    noisy_generalization_bound,
    noisy_theoretical_beta,
    replacement_for,
    sampled_indices,
    stable_training_margin,
    theoretical_beta,
)
from reupqnn.train import TrainConfig, _sgd_paths, draw_index, init_params, loss, sgd_step, train


def constant_dataset(m, x_value, y_value):
    features = np.full((m, 1), x_value)
    labels = np.full(m, y_value, dtype=np.int64)
    return Dataset("const", features, labels, {})


def closed_form_reference(b, p):
    """The bound recomputed from scratch with math.* arithmetic."""
    damp_k = (1.0 - p) ** b.n_params
    damp_ld = (1.0 - p) ** (b.layers * b.data_dim)
    per_step = (
        8.0
        * math.pi
        * b.eta
        * b.smoothness
        * b.n_params
        * b.obs_norm
        * b.layers
        * b.data_dim
        * damp_ld
        / b.m
    )
    ratio = 1.0 + 2.0 * b.eta * b.smoothness * b.n_params * b.obs_norm * damp_k
    total = sum(ratio ** (t - 1) for t in range(1, b.iterations + 1))
    return b.lipschitz * b.obs_norm * damp_k * per_step * total


# --- coupled divergence ---------------------------------------------------------


def test_coupled_divergence_identical_replacement_is_flat():
    dataset = synthetic_toy(6, seed=1)
    c = build_circuit(1, 1, 1, 1)
    trace = coupled_divergence(
        dataset, 2, dataset.sample(2), c, z_observable(1), TrainConfig(0.1, 5, seed=0)
    )
    assert trace.sum_abs_dtheta.shape == (6,)
    np.testing.assert_array_equal(trace.sum_abs_dtheta, np.zeros(6))
    np.testing.assert_array_equal(trace.probe_f_gap, np.zeros(6))
    np.testing.assert_array_equal(trace.probe_loss_gap, np.zeros(6))


def test_coupled_divergence_zero_learning_rate_is_flat():
    dataset = synthetic_toy(5, seed=2)
    c = build_circuit(1, 1, 1, 1)
    other = Sample(np.array([0.3]), -1.0)
    trace = coupled_divergence(
        dataset, 0, other, c, z_observable(1), TrainConfig(0.0, 4, seed=0)
    )
    np.testing.assert_array_equal(trace.sum_abs_dtheta, np.zeros(5))
    np.testing.assert_array_equal(trace.probe_loss_gap, np.zeros(5))


def test_coupled_divergence_hand_unroll():
    """Two samples, two iterations, replayed by hand with sgd_step."""
    dataset = constant_dataset(2, 1.0, 1).replace(1, Sample(np.array([2.0]), -1))
    replacement = Sample(np.array([2.5]), 1.0)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    config = TrainConfig(0.2, 2, seed=4)
    trace = coupled_divergence(dataset, 1, replacement, c, obs, config)

    twin = dataset.replace(1, replacement)
    ta = init_params(c, 4)
    tb = ta.copy()
    for t in range(2):
        idx = draw_index(4, t, 2)
        ta = sgd_step(ta, dataset.sample(idx), 0.2, c, obs)
        tb = sgd_step(tb, twin.sample(idx), 0.2, c, obs)
        assert trace.sum_abs_dtheta[t + 1] == pytest.approx(
            np.sum(np.abs(ta - tb)), abs=1e-12
        )
        f_gaps = [
            abs(forward(c, ta, dataset.features[j], obs)
                - forward(c, tb, dataset.features[j], obs))
            for j in range(2)
        ]
        assert trace.probe_f_gap[t + 1] == pytest.approx(max(f_gaps), abs=1e-12)
    assert trace.replaced_index == 1
    assert trace.seed == 4


def test_coupled_divergence_output_gap_dominated_by_parameter_gap():
    """Lemma chain: max-probe |f_S - f_Si| <= 2 ||M|| sum |dtheta|."""
    dataset = synthetic_toy(8, seed=5)
    c = build_circuit(1, 2, 1, 2)
    obs = z_observable(1)
    trace = coupled_divergence(
        dataset, 3, Sample(np.array([1.0]), -1.0), c, obs, TrainConfig(0.3, 15, seed=1)
    )
    bound = 2.0 * obs.norm * trace.sum_abs_dtheta + 1e-8
    assert np.all(trace.probe_f_gap <= bound)
    assert np.all(trace.probe_loss_gap <= trace.probe_f_gap + 1e-12)


def test_coupled_divergence_index_validation():
    dataset = synthetic_toy(4, seed=6)
    c = build_circuit(1, 1, 1, 1)
    with pytest.raises(ValueError):
        coupled_divergence(
            dataset, 4, dataset.sample(0), c, z_observable(1), TrainConfig(0.1, 1, 0)
        )


# --- index and replacement draws --------------------------------------------------


def test_sampled_indices_are_stable_and_sorted():
    a = sampled_indices(50, 6)
    b = sampled_indices(50, 6)
    np.testing.assert_array_equal(a, b)
    assert list(a) == sorted(set(a.tolist()))
    assert a.min() >= 0 and a.max() < 50
    assert len(sampled_indices(3, 10)) == 3  # capped at m
    assert not np.array_equal(sampled_indices(51, 6), a)  # keyed by m


def test_replacement_for_is_keyed_by_index_only():
    probe = synthetic_toy(16, seed=7)
    s1 = replacement_for(3, probe)
    s2 = replacement_for(3, probe)
    assert s1.x[0] == s2.x[0] and s1.y == s2.y
    picks = {replacement_for(i, probe).x[0] for i in range(10)}
    assert len(picks) > 1


def test_swaps_pair_each_sampled_index_with_its_replacement():
    """`_swaps` draws a cell's replacements at once and gives the samples of
    `replacement_for`, one call per index; a replacement is the probe at
    ``integers(0, len(probes))`` of a fresh generator keyed (0x9E91, index)."""
    probe = synthetic_toy(23, seed=7)
    for m, n in ((50, 6), (3, 10), (1000, 40)):
        swaps = _swaps(m, n, probe)
        assert [index for index, _ in swaps] == sampled_indices(m, n).tolist()
        for index, sample in swaps:
            pick = np.random.Generator(np.random.Philox(key=np.array(
                [0x9E91, index], dtype=np.uint64))).integers(0, len(probe))
            for got in (sample, replacement_for(index, probe)):
                np.testing.assert_array_equal(got.x, probe.sample(int(pick)).x)
                assert got.y == probe.sample(int(pick)).y


# --- empirical beta ----------------------------------------------------------------


def test_empirical_beta_zero_when_replacement_is_identical():
    # every sample identical, so any replacement leaves the dataset unchanged
    dataset = constant_dataset(4, 1.3, 1)
    probe = constant_dataset(3, 1.3, 1)
    c = build_circuit(1, 1, 1, 1)
    beta = empirical_beta(
        dataset, probe, 2, 2, c, z_observable(1), TrainConfig(0.2, 6, seed=0)
    )
    assert beta == 0.0


def test_empirical_beta_zero_iterations():
    dataset = synthetic_toy(6, seed=8)
    probe = synthetic_toy(4, seed=9)
    c = build_circuit(1, 1, 1, 1)
    beta = empirical_beta(
        dataset, probe, 3, 2, c, z_observable(1), TrainConfig(0.2, 0, seed=1)
    )
    assert beta == 0.0


def test_empirical_beta_matches_brute_force_retraining():
    """Definition replayed from scratch: retrain every (variant, seed) pair."""
    dataset = synthetic_toy(8, seed=10)
    probe = synthetic_toy(5, seed=11)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    config = TrainConfig(0.15, 20, seed=3)
    n_seeds = 3
    got = empirical_beta(dataset, probe, 4, n_seeds, c, obs, config)

    def mean_losses(train_set):
        total = np.zeros(len(probe))
        for s in range(n_seeds):
            cfg = TrainConfig(0.15, 20, seed=3 + s)
            run = train(train_set, c, obs, cfg)
            for j in range(len(probe)):
                f = forward(c, run.final_theta, probe.features[j], obs)
                total[j] += loss(f, probe.labels[j])
        return total / n_seeds

    base = mean_losses(dataset)
    worst = 0.0
    for i in sampled_indices(len(dataset), 4):
        twin = dataset.replace(int(i), replacement_for(int(i), probe))
        worst = max(worst, float(np.max(np.abs(base - mean_losses(twin)))))
    assert got == pytest.approx(0.5 * worst, abs=1e-12)
    assert got > 0.0


def test_coupled_ensemble_matches_single_index_calls():
    """One ensemble call reproduces every coupled_divergence trace and empirical_beta."""
    dataset = synthetic_toy(7, seed=14)
    probe = synthetic_toy(5, seed=15)
    c = build_circuit(1, 2, 1, 1)
    obs = z_observable(1)
    config = TrainConfig(0.2, 6, seed=4)
    indices = sampled_indices(len(dataset), 3)
    swaps = [(int(i), replacement_for(int(i), probe)) for i in indices]
    configs = [config, replace(config, seed=5)]
    [(traces, beta)] = coupled_ensemble([(dataset, probe, swaps, configs)], c, obs)
    pairs = [(swap, seed) for swap in swaps for seed in (4, 5)]
    assert [(t.replaced_index, t.seed) for t in traces] == [(i, s) for (i, _), s in pairs]
    for trace, ((index, replacement), seed) in zip(traces, pairs):
        single = coupled_divergence(dataset, index, replacement, c, obs,
                                    TrainConfig(0.2, 6, seed=seed), probes=probe)
        np.testing.assert_array_equal(trace.sum_abs_dtheta, single.sum_abs_dtheta)
        np.testing.assert_array_equal(trace.probe_f_gap, single.probe_f_gap)
        np.testing.assert_array_equal(trace.probe_loss_gap, single.probe_loss_gap)
    assert beta == empirical_beta(dataset, probe, 3, 2, c, obs, config)
    with pytest.raises(ValueError):
        coupled_ensemble([(dataset, probe, swaps, [])], c, obs)
    with pytest.raises(ValueError):
        coupled_ensemble([(dataset, probe.subset([]), swaps, [config])], c, obs)


@pytest.mark.parametrize("noise_p", [0.0, 0.05])
@pytest.mark.parametrize("n_seeds", [1, 9, 12])
def test_coupled_ensemble_matches_the_pair_by_pair_loop(n_seeds, noise_p):
    """Two groups of different m and probe sets, three swaps each, in one
    call give the traces and beta_hat of the loop that scores one (swap,
    seed) pair at a time, bit for bit; at 9 and 12 seeds a seed mean
    summed in another order would show."""
    c = build_circuit(2, 1, 1, 1)
    obs = z_observable(2)
    groups = []
    for m, n_probes, seed in ((7, 5, 30), (9, 3, 32)):
        dataset, probe = synthetic_toy(m, seed=seed), synthetic_toy(n_probes, seed=seed + 1)
        swaps = [(int(i), replacement_for(int(i), probe)) for i in sampled_indices(m, 3)]
        configs = [TrainConfig(0.3, 4, seed=s, noise_p=noise_p) for s in range(n_seeds)]
        groups.append((dataset, probe, swaps, configs))
    results = coupled_ensemble(groups, c, obs)
    for (dataset, probe, swaps, configs), (traces, beta) in zip(groups, results):
        runs = [(train_set, config)
                for train_set in [dataset] + [dataset.replace(i, r) for i, r in swaps]
                for config in configs]
        paths = np.stack([thetas for _, thetas in _sgd_paths(runs, c, obs)], axis=1)
        paths = paths.reshape(len(swaps) + 1, n_seeds, -1, c.n_params)
        want, want_beta = group_result_loop(paths, probe, swaps, configs, c, obs)
        assert beta == want_beta and beta > 0.0
        assert len(traces) == len(want) == 3 * n_seeds
        for a, b in zip(traces, want):
            assert (a.replaced_index, a.seed) == (b.replaced_index, b.seed)
            np.testing.assert_array_equal(a.sum_abs_dtheta, b.sum_abs_dtheta)
            np.testing.assert_array_equal(a.probe_f_gap, b.probe_f_gap)
            np.testing.assert_array_equal(a.probe_loss_gap, b.probe_loss_gap)


def test_coupled_ensemble_traces_do_not_depend_on_batch():
    """Seed 5's traces are the same bits alone and next to seed 4's runs."""
    dataset = synthetic_toy(7, seed=18)
    probe = synthetic_toy(5, seed=19)
    c = build_circuit(2, 2, 1, 1)
    obs = z_observable(2)
    config = TrainConfig(0.2, 6, seed=5)
    swaps = [(int(i), replacement_for(int(i), probe)) for i in sampled_indices(7, 3)]
    [(alone, _)] = coupled_ensemble([(dataset, probe, swaps, [config])], c, obs)
    [(batched, _)] = coupled_ensemble(
        [(dataset, probe, swaps, [replace(config, seed=4), config])], c, obs)
    batched = [t for t in batched if t.seed == 5]
    assert len(alone) == len(batched) == 3
    for a, b in zip(alone, batched):
        assert a.replaced_index == b.replaced_index
        assert np.all(a.sum_abs_dtheta == b.sum_abs_dtheta)
        assert np.all(a.probe_f_gap == b.probe_f_gap)
        assert np.all(a.probe_loss_gap == b.probe_loss_gap)


@pytest.mark.parametrize("noise_ps", [(0.0,) * 3, (0.1,) * 3, (0.0, 0.1, 0.0)],
                         ids=["0.0", "0.1", "mixed"])
def test_coupled_ensemble_groups_match_one_group_per_call(noise_ps):
    """Groups of different m, probe sets and noise strengths, p = 0 among
    p > 0 included, in one call give each group's traces and beta_hat of a
    call on that group alone, bit for bit."""
    c = build_circuit(2, 1, 1, 1)
    obs = z_observable(2)
    groups = []
    for (m, n_probes, n_indices, seed), p in zip(((7, 5, 3, 20), (5, 3, 2, 22), (9, 4, 1, 24)),
                                                 noise_ps):
        config = TrainConfig(0.3, 5, seed=0, noise_p=p)
        dataset, probe = synthetic_toy(m, seed=seed), synthetic_toy(n_probes, seed=seed + 1)
        swaps = [(int(i), replacement_for(int(i), probe)) for i in sampled_indices(m, n_indices)]
        groups.append((dataset, probe, swaps, [replace(config, seed=3), replace(config, seed=1)]))
    together = coupled_ensemble(groups, c, obs)
    assert len(together) == len(groups)
    for group, (traces, beta) in zip(groups, together):
        [(alone, alone_beta)] = coupled_ensemble([group], c, obs)
        assert beta == alone_beta and beta > 0.0
        assert len(traces) == len(alone) == 2 * len(group[2])
        for a, b in zip(traces, alone):
            assert (a.replaced_index, a.seed) == (b.replaced_index, b.seed)
            np.testing.assert_array_equal(a.sum_abs_dtheta, b.sum_abs_dtheta)
            np.testing.assert_array_equal(a.probe_f_gap, b.probe_f_gap)
            np.testing.assert_array_equal(a.probe_loss_gap, b.probe_loss_gap)


def test_coupled_ensemble_scores_probes_on_the_noisy_model():
    """With noise_p > 0 the probe gaps and beta_hat are those of noisy_forward."""
    dataset = synthetic_toy(6, seed=16)
    probe = synthetic_toy(4, seed=17)
    c = build_circuit(2, 1, 1, 1)  # qubit 1 carries a noisy Ry(0) filler
    obs = z_observable(2)
    p, seeds = 0.1, [2, 3]
    config = TrainConfig(0.3, 4, seed=2, noise_p=p)
    swaps = [(int(i), replacement_for(int(i), probe)) for i in sampled_indices(6, 2)]
    configs = [replace(config, seed=seed) for seed in seeds]
    [(traces, beta)] = coupled_ensemble([(dataset, probe, swaps, configs)], c, obs)

    def probe_outputs(train_set, seed):
        path = _sgd_paths([(train_set, TrainConfig(0.3, 4, seed=seed, noise_p=p))], c, obs)
        return np.array([[noisy_forward(c, thetas[0], x, obs, p) for x in probe.features]
                         for _, thetas in path])

    def mean_final_loss(outputs):
        return sum(loss(f[-1], probe.labels) for f in outputs) / len(outputs)

    bases = [probe_outputs(dataset, s) for s in seeds]
    worst = 0.0
    for k, (index, replacement) in enumerate(swaps):
        twins = [probe_outputs(dataset.replace(index, replacement), s) for s in seeds]
        for trace, f_a, f_b in zip(traces[k * len(seeds):], bases, twins):
            np.testing.assert_array_equal(trace.probe_f_gap, np.max(np.abs(f_a - f_b), axis=1))
        worst = max(worst, float(np.max(np.abs(mean_final_loss(bases) - mean_final_loss(twins)))))
    assert beta == 0.5 * worst
    assert beta > 0.0


def test_out_of_range_seeds_and_empty_groups_raise_value_errors():
    """The seeds past the last one and an empty ensemble are refused by the
    package's own checks, not by numpy's conversion or concatenation."""
    dataset = synthetic_toy(6, seed=12)
    probe = synthetic_toy(4, seed=13)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    last = TrainConfig(0.1, 3, 2**64 - 1)
    assert empirical_beta(dataset, probe, 2, 1, c, obs, last) >= 0.0
    with pytest.raises(ValueError, match="seed"):
        empirical_beta(dataset, probe, 2, 2, c, obs, last)
    with pytest.raises(ValueError, match="at least one run"):
        coupled_ensemble([], c, obs)


def test_empirical_beta_deterministic():
    dataset = synthetic_toy(6, seed=12)
    probe = synthetic_toy(4, seed=13)
    c = build_circuit(1, 1, 1, 1)
    config = TrainConfig(0.1, 8, seed=2)
    a = empirical_beta(dataset, probe, 2, 2, c, z_observable(1), config)
    b = empirical_beta(dataset, probe, 2, 2, c, z_observable(1), config)
    assert a == b


# --- closed forms --------------------------------------------------------------------


def base_inputs(**overrides):
    values = dict(
        layers=1,
        data_dim=1,
        n_params=2,
        m=100,
        iterations=1,
        eta=0.01,
        obs_norm=1.0,
        lipschitz=1.0,
        smoothness=1.0,
        loss_bound=1.0,
        delta=0.05,
        noise_p=0.0,
    )
    values.update(overrides)
    return BoundInputs(**values)


def test_theoretical_beta_hand_values():
    b1 = base_inputs()
    assert theoretical_beta(b1) == pytest.approx(0.16 * math.pi / 100, rel=1e-12)
    b2 = base_inputs(iterations=2)
    want = 0.16 * math.pi / 100 * 2.04
    assert theoretical_beta(b2) == pytest.approx(want, rel=1e-12)


def test_theoretical_beta_zero_iterations():
    assert theoretical_beta(base_inputs(iterations=0)) == 0.0


def test_theoretical_beta_matches_reference_sum():
    rng = np.random.default_rng(91)
    for _ in range(50):
        b = base_inputs(
            layers=int(rng.integers(1, 5)),
            data_dim=int(rng.integers(1, 5)),
            n_params=int(rng.integers(1, 30)),
            m=int(rng.integers(1, 500)),
            iterations=int(rng.integers(0, 40)),
            eta=float(rng.uniform(0.001, 0.3)),
            obs_norm=float(rng.uniform(0.5, 2.0)),
            smoothness=float(rng.uniform(0.2, 1.5)),
            lipschitz=float(rng.uniform(0.2, 1.5)),
        )
        assert theoretical_beta(b) == pytest.approx(
            closed_form_reference(b, 0.0), rel=1e-10
        )


def test_theoretical_beta_exact_inverse_m_scaling():
    # doubling m halves the result exactly in binary floating point
    b1 = base_inputs(m=100, iterations=5)
    b2 = base_inputs(m=200, iterations=5)
    assert theoretical_beta(b1) == 2.0 * theoretical_beta(b2)


def test_theoretical_beta_grows_with_iterations_and_layers():
    assert theoretical_beta(base_inputs(iterations=10)) > theoretical_beta(
        base_inputs(iterations=5)
    )
    assert theoretical_beta(base_inputs(layers=3)) > theoretical_beta(
        base_inputs(layers=1)
    )


def test_theoretical_beta_overflow_reported():
    with pytest.raises(OverflowError):
        theoretical_beta(base_inputs(iterations=10 ** 6, eta=0.5, n_params=100))


def test_noisy_beta_hand_value():
    b = base_inputs(n_params=1, m=1, noise_p=0.5)
    assert noisy_theoretical_beta(b) == pytest.approx(0.02 * math.pi, rel=1e-12)


def test_noisy_beta_reductions_and_monotonicity():
    b0 = base_inputs(iterations=7, n_params=6)
    assert noisy_theoretical_beta(b0) == theoretical_beta(b0)  # bitwise at p = 0
    assert noisy_theoretical_beta(base_inputs(noise_p=1.0)) == 0.0
    values = [
        noisy_theoretical_beta(base_inputs(iterations=7, n_params=6, noise_p=p))
        for p in (0.0, 0.1, 0.2, 0.5, 0.9)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_noisy_beta_matches_reference():
    rng = np.random.default_rng(92)
    for _ in range(30):
        b = base_inputs(
            n_params=int(rng.integers(1, 20)),
            layers=int(rng.integers(1, 4)),
            data_dim=int(rng.integers(1, 4)),
            iterations=int(rng.integers(0, 20)),
            noise_p=float(rng.uniform(0, 1)),
        )
        assert noisy_theoretical_beta(b) == pytest.approx(
            closed_form_reference(b, b.noise_p), rel=1e-10
        )


@pytest.mark.parametrize("noise_p", [0.0, 0.05])
def test_measured_beta_stays_under_the_closed_form(noise_p):
    """beta_hat <= beta on criterion 9's toy over a small (m, eta, T) grid,
    noiseless against `theoretical_beta` and noisy against
    `noisy_theoretical_beta`.  The closed form is loose: the largest
    ratio on this grid is about 5e-3 in both modes.  beta_hat is not
    monotone in eta or T, so only the inequality is pinned."""
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    n_probes, n_indices, seeds = 16, 4, range(4)
    pool = synthetic_toy(100 + n_probes, 11)
    probes = pool.subset(range(100, 100 + n_probes))
    closed_form = noisy_theoretical_beta if noise_p else theoretical_beta
    for eta in (0.01, 0.2):
        for iterations in (50, 200):
            configs = [TrainConfig(eta, iterations, seed, noise_p) for seed in seeds]
            groups = [(pool.subset(range(m)), probes,
                       [(int(i), replacement_for(int(i), probes))
                        for i in sampled_indices(m, n_indices)], configs) for m in (25, 100)]
            results = coupled_ensemble(groups, c, obs)
            for (train_set, *_), (_, beta_hat) in zip(groups, results):
                b = BoundInputs(layers=1, data_dim=1, n_params=c.n_params, m=len(train_set),
                                iterations=iterations, eta=eta, obs_norm=obs.norm,
                                noise_p=noise_p)
                assert 0.0 < beta_hat <= closed_form(b)


def test_generalization_bound_hand_values():
    b = base_inputs()
    want = 2 * 0.005 + (4 * 100 * 0.005 + 1.0) * math.sqrt(math.log(20.0) / 200.0)
    assert generalization_bound(0.005, b) == pytest.approx(want, rel=1e-12)
    b_half = base_inputs(delta=0.5)
    assert generalization_bound(0.0, b_half) == pytest.approx(
        math.sqrt(math.log(2.0) / 200.0), rel=1e-12
    )
    assert generalization_bound(0.0, base_inputs(delta=1.0)) == 0.0


def test_generalization_bound_monotonicity():
    b = base_inputs()
    assert generalization_bound(0.01, b) > generalization_bound(0.005, b)
    assert generalization_bound(0.005, base_inputs(loss_bound=2.0)) > generalization_bound(
        0.005, b
    )
    assert generalization_bound(0.005, base_inputs(delta=0.01)) > generalization_bound(
        0.005, base_inputs(delta=0.1)
    )
    with pytest.raises(ValueError):
        generalization_bound(-0.001, b)


def test_noisy_generalization_bound_composition():
    b = base_inputs(iterations=4, n_params=8)
    assert noisy_generalization_bound(b) == generalization_bound(
        noisy_theoretical_beta(b), b
    )
    full_noise = base_inputs(noise_p=1.0)
    assert noisy_generalization_bound(full_noise) == pytest.approx(
        math.sqrt(math.log(20.0) / 200.0), rel=1e-12
    )
    values = [
        noisy_generalization_bound(base_inputs(iterations=6, n_params=8, noise_p=p))
        for p in (0.0, 0.1, 0.2)
    ]
    assert values[0] >= values[1] >= values[2]


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        base_inputs(delta=0.0)
    with pytest.raises(ValueError):
        base_inputs(delta=1.5)
    with pytest.raises(ValueError):
        base_inputs(m=0)
    with pytest.raises(ValueError):
        base_inputs(eta=0.0)
    with pytest.raises(ValueError):
        base_inputs(noise_p=-0.1)
    with pytest.raises(ValueError):
        base_inputs(iterations=-1)
    for name, value in (("obs_norm", math.nan), ("lipschitz", math.inf),
                        ("smoothness", math.nan), ("loss_bound", math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            base_inputs(**{name: value})
    # Counts are integers: 1.5, 2.0 and NaN are refused by name, numpy integers pass.
    for name in ("layers", "data_dim", "n_params", "m", "iterations"):
        for value in (1.5, 2.0, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                base_inputs(**{name: value})
        assert theoretical_beta(base_inputs(**{name: np.int64(2)})) > 0.0


def test_stable_training_margin_regimes():
    off = stable_training_margin(base_inputs(eta=0.01, n_params=72))
    assert isinstance(off, MarginReport)
    assert off.value == pytest.approx(0.72, rel=1e-12)
    assert not off.flagged
    on = stable_training_margin(base_inputs(eta=0.1, n_params=72))
    assert on.value == pytest.approx(7.2, rel=1e-12)
    assert on.flagged
    boundary = stable_training_margin(base_inputs(eta=0.25, n_params=4))
    assert boundary.value == 1.0
    assert boundary.flagged  # the boundary itself counts as unstable
