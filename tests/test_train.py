"""The loss and its constants, seeded parameter init, and the SGD loop."""

import numpy as np
import pytest

from reupqnn.ansatz import build_circuit, forward
from reupqnn.data import Dataset, Sample, synthetic_toy
from reupqnn.grad import parameter_shift_grad_f
from reupqnn.qcore import z_observable
from reupqnn.train import (
    LIPSCHITZ,
    LOSS_BOUND,
    SMOOTHNESS,
    TrainConfig,
    _philox,
    _sgd_paths,
    accuracy,
    draw_index,
    init_params,
    loss,
    loss_derivative,
    risk,
    sgd_step,
    train,
)


def tiny_dataset(rng, m, d):
    features = rng.uniform(0, 2 * np.pi, (m, d))
    labels = np.where(rng.uniform(size=m) < 0.5, 1, -1)
    return Dataset("tiny", features, labels.astype(np.int64), {"origin": "test"})


# --- losses -------------------------------------------------------------------


def test_loss_hand_values():
    assert loss(0.4, -1.0) == pytest.approx(0.49, abs=1e-15)
    assert loss(1.0, 1.0) == 0.0
    assert loss(-1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert loss_derivative(0.4, -1.0) == pytest.approx(0.7, abs=1e-15)
    assert loss_derivative(1.0, 1.0) == 0.0


def test_loss_broadcasts():
    f = np.array([0.0, 0.5, -0.5])
    y = np.array([1.0, 1.0, -1.0])
    np.testing.assert_allclose(loss(f, y), [0.25, 0.0625, 0.0625], atol=1e-15)


def test_loss_range_on_valid_outputs():
    rng = np.random.default_rng(71)
    f = rng.uniform(-1, 1, 1000)
    y = np.where(rng.uniform(size=1000) < 0.5, 1.0, -1.0)
    values = loss(f, y)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)


def test_loss_constants():
    assert (LIPSCHITZ, SMOOTHNESS, LOSS_BOUND) == (1.0, 0.5, 1.0)


# --- seeding ------------------------------------------------------------------


def test_init_params_deterministic_and_in_range():
    c = build_circuit(2, 2, 2, 1)
    a = init_params(c, 7)
    b = init_params(c, 7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (c.n_params,)
    assert np.all(a >= 0.0) and np.all(a < 2 * np.pi)
    assert not np.array_equal(a, init_params(c, 8))


def test_draw_index_deterministic_and_bounded():
    m = 17
    seq1 = [draw_index(3, t, m) for t in range(200)]
    seq2 = [draw_index(3, t, m) for t in range(200)]
    assert seq1 == seq2
    assert all(0 <= i < m for i in seq1)
    assert set(seq1) == set(range(m))  # 200 draws cover all 17 slots
    assert seq1 != [draw_index(4, t, m) for t in range(200)]


def test_draw_index_independent_of_history():
    # counter-based: drawing t=5 alone equals drawing it within a sweep
    m = 9
    alone = draw_index(11, 5, m)
    swept = [draw_index(11, t, m) for t in range(8)][5]
    assert alone == swept


def fresh_philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def test_philox_draws_equal_a_fresh_generator():
    """The re-keyed shared generator gives the draws of a newly built one,
    for every draw kind and also when calls with other keys come between."""
    keys = [(0, 0), (3, 5), (7, 2**63), (2**63, 11), (2**64 - 1, 2**64 - 1),
            (np.uint64(0x1D5), 40), (np.uint64(0x9E91), 9)]
    draws = [
        lambda g: g.integers(0, 17, size=6),
        lambda g: g.integers(0, 2**40),
        lambda g: g.uniform(0.0, 2.0 * np.pi, size=5),
        lambda g: g.choice(50, size=7, replace=False),
        lambda g: np.array([g.integers(0, 3), g.uniform(), g.integers(0, 1000)]),
    ]
    for draw in draws:
        for key in keys:
            np.testing.assert_array_equal(draw(_philox(*key)), draw(fresh_philox(*key)))
    # Interleaved: each key restarts at counter 0 whatever was drawn before.
    rng = np.random.default_rng(78)
    for _ in range(200):
        key = (int(rng.integers(0, 2**63)), int(rng.integers(0, 2**20)))
        draw = draws[int(rng.integers(0, len(draws)))]
        np.testing.assert_array_equal(draw(_philox(*key)), draw(fresh_philox(*key)))
    c = build_circuit(2, 2, 2, 1)
    for t in range(20):
        assert draw_index(5, t, 13) == int(fresh_philox(5, t).integers(0, 13))
        np.testing.assert_array_equal(
            init_params(c, t),
            fresh_philox(t, np.uint64(1) << np.uint64(63)).uniform(0.0, 2.0 * np.pi,
                                                                   size=c.n_params))


# --- sgd ----------------------------------------------------------------------


def test_sgd_step_hand_formula():
    """Single qubit: every partial of the loss is 0.5 (f - y) (-sin(total))."""
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    theta = np.array([0.3, 1.2])
    sample = Sample(np.array([0.7]), 1.0)
    eta = 0.05
    total = theta.sum() + 0.7
    f = np.cos(total)
    step = eta * 0.5 * (f - 1.0) * (-np.sin(total))
    got = sgd_step(theta, sample, eta, c, obs)
    np.testing.assert_allclose(got, theta - step, atol=1e-14)


def test_train_three_step_manual_unroll():
    rng = np.random.default_rng(72)
    dataset = tiny_dataset(rng, 5, 2)
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    config = TrainConfig(learning_rate=0.1, iterations=3, seed=2)
    run = train(dataset, c, obs, config)

    theta = init_params(c, 2)
    for t in range(3):
        idx = draw_index(2, t, 5)
        assert run.indices[t] == idx
        sample = dataset.sample(idx)
        f = forward(c, theta, sample.x, obs)
        grad = loss_derivative(f, sample.y) * parameter_shift_grad_f(c, theta, sample.x, obs)
        theta = theta - 0.1 * grad
    np.testing.assert_allclose(run.final_theta, theta, atol=1e-12)


def test_train_deterministic_repeat():
    rng = np.random.default_rng(73)
    dataset = tiny_dataset(rng, 6, 1)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    config = TrainConfig(0.1, 10, seed=5)
    a = train(dataset, c, obs, config)
    b = train(dataset, c, obs, config)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.train_risks, b.train_risks)


def test_train_zero_iterations():
    rng = np.random.default_rng(74)
    dataset = tiny_dataset(rng, 4, 1)
    c = build_circuit(1, 1, 1, 1)
    run = train(dataset, c, z_observable(1), TrainConfig(0.1, 0, seed=1))
    np.testing.assert_array_equal(run.final_theta, init_params(c, 1))
    assert run.eval_points.tolist() == [0]
    assert run.indices.size == 0


def test_train_eval_schedule_and_trajectory():
    rng = np.random.default_rng(75)
    dataset = tiny_dataset(rng, 4, 1)
    c = build_circuit(1, 1, 1, 1)
    config = TrainConfig(0.05, 7, seed=3)
    run = train(
        dataset,
        c,
        z_observable(1),
        config,
        test_dataset=tiny_dataset(rng, 3, 1),
        eval_interval=3,
    )
    assert run.eval_points.tolist() == [0, 3, 6, 7]
    assert run.train_risks.shape == (4,)
    assert run.test_risks.shape == (4,)
    trajectory = np.array([thetas[0] for _, thetas in
                           _sgd_paths([dataset], [config.seed], c, z_observable(1), config)])
    assert trajectory.shape == (8, c.n_params)
    np.testing.assert_array_equal(trajectory[-1], run.final_theta)


def test_sgd_paths_same_seed_different_sizes():
    """Two runs share a seed but not m: each draws on its own m and equals its solo run."""
    rng = np.random.default_rng(77)
    small, large = tiny_dataset(rng, 3, 2), tiny_dataset(rng, 11, 2)
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    config = TrainConfig(0.1, 12, seed=6)
    paired = list(_sgd_paths([small, large], [6, 6], c, obs, config))
    assert paired[0][0] is None
    for r, data in enumerate((small, large)):
        want = [draw_index(6, t, len(data)) for t in range(12)]
        assert [int(idx[r]) for idx, _ in paired[1:]] == want
        solo = list(_sgd_paths([data], [6], c, obs, config))
        assert len(solo) == len(paired) == 13
        for (_, thetas), (_, solo_thetas) in zip(paired, solo):
            assert np.all(thetas[r] == solo_thetas[0])


def test_risk_matches_naive_loop():
    rng = np.random.default_rng(76)
    dataset = tiny_dataset(rng, 8, 2)
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    theta = init_params(c, 0)
    want = np.mean(
        [
            loss(forward(c, theta, dataset.features[i], obs), dataset.labels[i])
            for i in range(8)
        ]
    )
    assert risk(c, theta, dataset, obs) == pytest.approx(want, abs=1e-13)


def test_accuracy_counts_sign_matches():
    rng = np.random.default_rng(77)
    dataset = tiny_dataset(rng, 10, 1)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    theta = init_params(c, 4)
    outputs = np.array([forward(c, theta, dataset.features[i], obs) for i in range(10)])
    want = np.mean(np.where(outputs >= 0, 1, -1) == dataset.labels)
    assert accuracy(c, theta, dataset, obs) == pytest.approx(want, abs=1e-15)


def test_train_config_validation():
    TrainConfig(0.1, 2, 2**64 - 1)  # a seed fills one 64-bit Philox key word
    with pytest.raises(ValueError):
        TrainConfig(-0.1, 10, 0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, -1, 0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, 10, 0, noise_p=1.5)
    with pytest.raises(ValueError, match="iterations"):
        TrainConfig(0.1, 2.5, 0)
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(0.1, 2, seed)


def test_train_on_toy_task_improves_risk():
    dataset = synthetic_toy(40, seed=9)
    # one layer so the model family cos(x + phi) contains the target
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    run = train(dataset, c, obs, TrainConfig(0.2, 60, seed=0))
    assert run.train_risks[-1] < run.train_risks[0]
