"""The loss and its constants, seeded parameter init, and the SGD loop."""

from dataclasses import replace

import numpy as np
import pytest

from reupqnn import ansatz
from reupqnn import train as train_module
from reupqnn.ansatz import build_circuit, forward, forward_many
from reupqnn.data import Dataset, Sample, subsample_split, synthetic_toy
from reupqnn.grad import parameter_shift_grad_f
from reupqnn.qcore import z_observable
from reupqnn.stability import coupled_ensemble
from reupqnn.train import (
    LIPSCHITZ,
    LOSS_BOUND,
    SMOOTHNESS,
    TrainConfig,
    _DRAW_BLOCK,
    _draw_indices,
    _loss_grads,
    _philox,
    _sgd_paths,
    _train_runs,
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
    """`_philox` gives the draws of a newly built generator, for every draw
    kind and also when calls with other keys come between."""
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


def test_a_held_philox_generator_keeps_its_stream():
    """`_philox` keeps no state: a generator held while another key draws
    still draws the stream of a fresh one under its own key."""
    held = _philox(1, 2)
    first = held.integers(0, 10, size=3)
    _philox(3, 4).integers(0, 10)
    want = fresh_philox(1, 2)
    np.testing.assert_array_equal(first, want.integers(0, 10, size=3))
    np.testing.assert_array_equal(held.integers(0, 10, size=5), want.integers(0, 10, size=5))


def test_vectorized_philox_draws_equal_the_public_generator(monkeypatch):
    """`_draw_indices` gives ``Generator(Philox(key=(seed, t))).integers(0,
    m)`` bit for bit over seeds at both ends of the key range, t up to
    10^4, and m around every edge of ``integers``' 32-bit rule; the
    generator redraws the rejected draws (many at m = 3e9) and every draw
    at m > 2^32, and nothing else.  `_init_thetas`, like `init_params`,
    gives ``uniform`` of key (seed, 2^63) at K = 2, 4, 5, 6 and 18, most
    not multiples of 4."""
    redraws = []
    philox = train_module._philox

    def counted(*key):
        redraws.append(key)
        return philox(*key)

    monkeypatch.setattr(train_module, "_philox", counted)
    ts = np.arange(0, 10**4 + 1, 50)
    for m in (1, 2, 3, 7, 200, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 3 * 10**9):
        redraws.clear()
        for seed in (0, 1, 2**63, 2**64 - 1):
            want = [fresh_philox(seed, int(t)).integers(0, m) for t in ts]
            np.testing.assert_array_equal(_draw_indices(seed, ts, m), want)
        if m > 2**32:
            assert len(redraws) == 4 * len(ts)
        elif m == 3 * 10**9:
            assert 0 < len(redraws) < 4 * len(ts)  # 30 % of draws are rejected here
        else:
            assert redraws == []
    for seed in (0, 1, 2**63, 2**64 - 1):
        for shape in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 4, 1, 1), (3, 1, 1, 1), (3, 2, 3, 2)):
            c = build_circuit(*shape)
            want = fresh_philox(seed, 2**63).uniform(0.0, 2.0 * np.pi, size=c.n_params)
            np.testing.assert_array_equal(train_module._init_thetas(c, [seed])[0], want)
            np.testing.assert_array_equal(init_params(c, seed), want)


def test_sgd_paths_draw_every_index_and_theta_without_the_generator(monkeypatch):
    """The loop's initial parameters and indices come from the vectorized
    Philox alone: with `_philox` raising, every step's indices still equal
    a fresh generator's ``integers(0, m)`` at key (seed, t), for T = 0 and
    for a T over two draw blocks and not a multiple of one, with repeated
    (seed, m) keys."""

    def refused(*key):
        raise AssertionError(f"the generator was asked for key {key}")

    monkeypatch.setattr(train_module, "_philox", refused)
    rng = np.random.default_rng(80)
    c = build_circuit(1, 1, 2, 1)
    obs = z_observable(1)
    sets = {m: tiny_dataset(rng, m, 2) for m in (1, 7, 200, 1000)}
    keys = [(0, 7), (2**64 - 1, 1000), (5, 200), (5, 200), (0, 7), (5, 1), (0, 1000)]
    for iterations in (0, 2 * _DRAW_BLOCK + 37):
        configs = [TrainConfig(0.05, iterations, seed) for seed, _ in keys]
        paths = list(_sgd_paths([(sets[m], config) for (_, m), config in zip(keys, configs)],
                                c, obs))
        assert len(paths) == iterations + 1 and paths[0][0] is None
        for (seed, _), theta in zip(keys, paths[0][1]):
            np.testing.assert_array_equal(
                theta, fresh_philox(seed, 2**63).uniform(0.0, 2.0 * np.pi, size=c.n_params))
        for t, (indices, _) in enumerate(paths[1:]):
            assert indices.tolist() == [fresh_philox(seed, t).integers(0, m) for seed, m in keys]


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
    paths = _sgd_paths([(dataset, config)], c, z_observable(1))
    trajectory = np.array([thetas[0] for _, thetas in paths])
    assert trajectory.shape == (8, c.n_params)
    np.testing.assert_array_equal(trajectory[-1], run.final_theta)


def test_sgd_paths_same_seed_different_sizes():
    """Two runs share a seed but not m: each draws on its own m and equals its solo run."""
    rng = np.random.default_rng(77)
    small, large = tiny_dataset(rng, 3, 2), tiny_dataset(rng, 11, 2)
    c = build_circuit(2, 1, 2, 1)
    obs = z_observable(2)
    config = TrainConfig(0.1, 12, seed=6)
    paired = list(_sgd_paths([(small, config), (large, config)], c, obs))
    assert paired[0][0] is None
    for r, data in enumerate((small, large)):
        want = [draw_index(6, t, len(data)) for t in range(12)]
        assert [int(idx[r]) for idx, _ in paired[1:]] == want
        solo = list(_sgd_paths([(data, config)], c, obs))
        assert len(solo) == len(paired) == 13
        for (_, thetas), (_, solo_thetas) in zip(paired, solo):
            assert np.all(thetas[r] == solo_thetas[0])


@pytest.mark.parametrize("noise_ps", [(0.0, 0.0, 0.0), (0.02, 0.1, 0.02), (0.0, 0.1, 0.0)])
def test_sgd_paths_match_steps_through_the_checked_entry_point(noise_ps):
    """Three steps unrolled by hand, each through the checked `_output_grads`
    (by `_loss_grads`) on rows gathered one by one, give the loop's
    indices and thetas bit for bit, with one step size for every run or
    one per run: checking a batch once, gathering its rows with one index
    and scaling each run by its own step size change no bits."""
    rng = np.random.default_rng(79)
    c = build_circuit(2, 2, 3, 1)
    obs = z_observable(2)
    datasets = [tiny_dataset(rng, m, 3) for m in (4, 6, 4)]
    seeds = [2, 2, 5]
    for etas in ((0.3, 0.3, 0.3), (0.3, 0.05, 0.7)):
        configs = [TrainConfig(eta, 3, seed, p) for eta, seed, p in zip(etas, seeds, noise_ps)]
        paths = list(_sgd_paths(list(zip(datasets, configs)), c, obs))
        thetas = np.array([init_params(c, seed) for seed in seeds])
        assert paths[0][0] is None and np.array_equal(paths[0][1], thetas)
        for t, (indices, loop_thetas) in enumerate(paths[1:]):
            drawn = [draw_index(seed, t, len(data)) for seed, data in zip(seeds, datasets)]
            xs = np.array([data.features[i] for data, i in zip(datasets, drawn)])
            ys = np.array([data.labels[i] for data, i in zip(datasets, drawn)])
            grads = _loss_grads(c, thetas, xs, ys, obs, noise_ps)
            thetas = np.array([theta - eta * g for theta, eta, g in zip(thetas, etas, grads)])
            assert indices.tolist() == drawn
            assert np.array_equal(loop_thetas, thetas)
        assert len(paths) == 4


def test_overflowing_parameters_stop_the_loop():
    """A step size that drives theta past the float range ends training
    with an error rather than steps on inf or nan; the loop checks its
    thetas at every step, not only the first."""
    toy = synthetic_toy(20, seed=1)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    config = TrainConfig(1e308, 50, 0)
    with np.errstate(over="ignore"):
        steps = []
        with pytest.raises(ValueError, match="non-finite"):
            for _, thetas in _sgd_paths([(toy, config)], c, obs):
                steps.append(thetas)
        # The step after the first non-finite theta raises, before T.
        assert 1 < len(steps) < 51
        assert all(np.isfinite(thetas).all() for thetas in steps[:-1])
        # Scored at every step, and scored only at 0 and T.
        for eval_interval in (None, 1000):
            with pytest.raises(ValueError, match="non-finite"):
                train(toy, c, obs, config, eval_interval=eval_interval)
        with pytest.raises(ValueError, match="non-finite"):
            coupled_ensemble([(toy, toy, [(0, toy.sample(1))],
                              [config, replace(config, seed=1)])], c, obs)


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


@pytest.mark.parametrize("noise_ps", [(0.0, 0.0, 0.0), (0.05, 0.1, 0.05), (0.0, 0.1, 0.0)])
def test_train_runs_score_each_run_in_one_call_like_risk_and_accuracy(noise_ps):
    """An evaluation scores a run's train and test rows in one call and
    splits the outputs; every curve entry is the bits of `risk` and
    `accuracy` on that set alone, at the run's theta and noise strength."""
    rng = np.random.default_rng(78)
    c = build_circuit(2, 1, 3, 1)
    obs = z_observable(2)
    train_sets = [tiny_dataset(rng, m, 3) for m in (5, 7, 3)]
    test_sets = [tiny_dataset(rng, 9, 3), None, tiny_dataset(rng, 4, 3)]
    seeds = [3, 8, 3]
    runs = [(data, TrainConfig(0.2, 4, seed, p))
            for data, seed, p in zip(train_sets, seeds, noise_ps)]
    trained = _train_runs(runs, test_sets, c, obs, eval_interval=2)
    paths = [thetas for _, thetas in _sgd_paths(runs, c, obs)]
    for r, (run, (train_set, _), test_set, p) in enumerate(zip(trained, runs, test_sets, noise_ps)):
        assert run.eval_points.tolist() == [0, 2, 4]
        np.testing.assert_array_equal(run.final_theta, paths[-1][r])
        for i, t in enumerate(run.eval_points):
            theta = paths[t][r]
            assert run.train_risks[i] == risk(c, theta, train_set, obs, p)
            assert run.train_accs[i] == accuracy(c, theta, train_set, obs, p)
            if test_set is None:
                assert run.test_risks is None and run.test_accs is None
            else:
                assert run.test_risks[i] == risk(c, theta, test_set, obs, p)
                assert run.test_accs[i] == accuracy(c, theta, test_set, obs, p)


def test_train_runs_score_runs_at_one_theta_over_distinct_rows_like_risk_and_accuracy():
    """Runs that stand at one theta under one noise strength are scored
    over the distinct rows of their sets, and every curve entry is still
    the bits of `risk` and `accuracy` on that set alone: m_train-style
    sets of one seed drawn from one permutation, learning_rate-style
    identical sets, a set holding a row twice, a run with no test set, and
    two runs of one seed and sets at different strengths, which are not
    merged."""
    rng = np.random.default_rng(91)
    c = build_circuit(2, 1, 3, 1)
    obs = z_observable(2)
    pool = tiny_dataset(rng, 16, 3)
    runs, test_sets = [], []
    for m in (4, 6, 9):  # one permutation, as the sweep draws each m_train value's sets
        train_set, test_set = subsample_split(pool, m, 5, (7, 2))
        runs.append((train_set, TrainConfig(0.2, 4, seed=2)))
        test_sets.append(test_set)
    train_set, test_set = subsample_split(pool, 6, 5, (7, 3))
    for eta in (0.1, 0.3, 0.3):
        runs.append((train_set, TrainConfig(eta, 4, seed=3)))
        test_sets.append(test_set)
    runs.append((pool.subset([0, 3, 0, 7]), TrainConfig(0.2, 4, seed=2)))
    test_sets.append(pool.subset([9, 3, 9]))
    runs.append((pool.subset([1, 2, 5]), TrainConfig(0.2, 4, seed=3)))
    test_sets.append(None)
    for p in (0.0, 0.1):
        runs.append((train_set, TrainConfig(0.2, 4, seed=5, noise_p=p)))
        test_sets.append(test_set)
    trained = _train_runs(runs, test_sets, c, obs, eval_interval=2)
    paths = [thetas for _, thetas in _sgd_paths(runs, c, obs)]
    assert len({theta.tobytes() for theta in paths[0]}) == 3
    for r, (run, (train_set, config), test_set) in enumerate(zip(trained, runs, test_sets)):
        assert run.eval_points.tolist() == [0, 2, 4]
        for i, t in enumerate(run.eval_points):
            theta, p = paths[t][r], config.noise_p
            assert run.train_risks[i] == risk(c, theta, train_set, obs, p)
            assert run.train_accs[i] == accuracy(c, theta, train_set, obs, p)
            if test_set is None:
                assert run.test_risks is None and run.test_accs is None
            else:
                assert run.test_risks[i] == risk(c, theta, test_set, obs, p)
                assert run.test_accs[i] == accuracy(c, theta, test_set, obs, p)


@pytest.mark.parametrize("sizes, etas, scored", [
    ((6, 8, 10), (0.2, 0.2, 0.2), [14, 36, 36]),
    ((8, 8, 8), (0.1, 0.2, 0.3), [12, 36, 36]),
], ids=["m_train", "learning_rate"])
def test_train_runs_score_each_distinct_row_once_per_theta(monkeypatch, sizes, etas, scored):
    """Every evaluation point is one engine pass.  Three sweep values
    under one seed stand at one theta_0: at t = 0 the pass scores the
    distinct union of their train and test rows; once their thetas part,
    it scores each run's own rows."""
    rng = np.random.default_rng(93)
    c = build_circuit(2, 1, 3, 1)
    obs = z_observable(2)
    pool = tiny_dataset(rng, 20, 3)
    splits = [subsample_split(pool, m, 4, (1, 9)) for m in sizes]
    runs = [(train_set, TrainConfig(eta, 4, seed=9)) for (train_set, _), eta in zip(splits, etas)]
    rows = []

    def counted(circuit, thetas, sums, obs, noise, names):
        rows.append(len(noise))
        return ansatz._outputs(circuit, thetas, sums, obs, noise, names)

    monkeypatch.setattr(train_module, "_outputs", counted)
    _train_runs(runs, [test_set for _, test_set in splits], c, obs, eval_interval=2)
    paths = [thetas for _, thetas in _sgd_paths(runs, c, obs)]
    assert [len({theta.tobytes() for theta in paths[t]}) for t in (0, 2, 4)] == [1, 3, 3]
    assert rows == scored


def test_an_evaluation_pass_cut_in_chunks_keeps_the_bits_of_risk_and_accuracy(monkeypatch):
    """One evaluation pass over groups of unequal sizes, statevector and
    Pauli, merged and alone, cut into chunks of about three rows (so
    chunks start and end inside groups): every curve entry is still the
    bits of `risk` and `accuracy` on that set alone."""
    rng = np.random.default_rng(94)
    c = build_circuit(2, 1, 3, 1)
    obs = z_observable(2)
    pool = tiny_dataset(rng, 24, 3)
    runs, test_sets = [], []
    for m, p in ((4, 0.1), (7, 0.1), (2, 0.0), (9, 0.0), (5, 0.05)):
        train_set, test_set = subsample_split(pool, m, 3 + m % 4, (4, 1))
        runs.append((train_set, TrainConfig(0.2, 4, seed=1 + (p == 0.05), noise_p=p)))
        test_sets.append(test_set if m != 2 else None)
    budget = 3 * ansatz._row_bytes(c, True, False) + ansatz._sweep_bytes(c, True, False)
    monkeypatch.setattr(ansatz, "_CHUNK_BYTES", budget)
    plans = []
    plan_rows = ansatz._chunk_plan

    def planned(circuit, obs, noise, adjoint):
        plan = plan_rows(circuit, obs, noise, adjoint)
        if not adjoint:
            plans.append([rows.stop - rows.start for rows, _, _ in plan])
        return plan

    monkeypatch.setattr(ansatz, "_chunk_plan", planned)
    trained = _train_runs(runs, test_sets, c, obs, eval_interval=2)
    monkeypatch.undo()
    assert len(plans) == 3 and all(len(plan) > 5 for plan in plans)
    paths = [thetas for _, thetas in _sgd_paths(runs, c, obs)]
    for r, (run, (train_set, config), test_set) in enumerate(zip(trained, runs, test_sets)):
        for i, t in enumerate(run.eval_points):
            theta, p = paths[t][r], config.noise_p
            assert run.train_risks[i] == risk(c, theta, train_set, obs, p)
            assert run.train_accs[i] == accuracy(c, theta, train_set, obs, p)
            if test_set is None:
                assert run.test_risks is None and run.test_accs is None
            else:
                assert run.test_risks[i] == risk(c, theta, test_set, obs, p)
                assert run.test_accs[i] == accuracy(c, theta, test_set, obs, p)


def test_a_noise_sweep_through_zero_cuts_each_evaluation_pass_once(monkeypatch):
    """The groups of an evaluation pass go statevector first: a noise_p
    sweep of 0.1, 0.0 and 0.2 under two seeds plans at most two chunks
    per evaluation point at the default budget (in run order, its kinds
    alternate Pauli, statevector, Pauli: three chunks at least)."""
    rng = np.random.default_rng(95)
    c = build_circuit(2, 1, 3, 1)
    obs = z_observable(2)
    pool = tiny_dataset(rng, 20, 3)
    train_set, test_set = subsample_split(pool, 6, 4, (2, 5))
    runs = [(train_set, TrainConfig(0.2, 4, seed, p)) for p in (0.1, 0.0, 0.2) for seed in (3, 4)]
    plans = []
    plan_rows = ansatz._chunk_plan

    def planned(circuit, obs, noise, adjoint):
        plan = plan_rows(circuit, obs, noise, adjoint)
        if not adjoint:
            plans.append([bool(strengths) for _, strengths, _ in plan])
        return plan

    monkeypatch.setattr(ansatz, "_chunk_plan", planned)
    trained = _train_runs(runs, [test_set] * len(runs), c, obs, eval_interval=2)
    monkeypatch.undo()
    assert plans == [[False, True]] * 3
    paths = [thetas for _, thetas in _sgd_paths(runs, c, obs)]
    for r, (run, (_, config)) in enumerate(zip(trained, runs)):
        for i, t in enumerate(run.eval_points):
            assert run.test_risks[i] == risk(c, paths[t][r], test_set, obs, config.noise_p)


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


def test_train_config_rejects_a_non_integer_seed():
    """A fractional seed once passed and trained exactly like its integer part."""
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(0.1, 2, seed)
    assert TrainConfig(0.1, 2, np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_train_rejects_a_non_integer_eval_interval():
    """A fractional interval once evaluated wherever t % interval was 0 in
    floats: 2.5 at T = 10 scored [0, 5, 10] without a word."""
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    data = synthetic_toy(6, seed=3)
    config = TrainConfig(0.1, 10, 0)
    for interval in (2.5, 2.0, "2", 0, -1):
        with pytest.raises(ValueError, match="eval_interval must be an integer >= 1"):
            train(data, c, obs, config, eval_interval=interval)
    run = train(data, c, obs, config, eval_interval=np.int64(5))
    np.testing.assert_array_equal(run.eval_points, [0, 5, 10])


def test_runs_of_one_batch_share_iterations():
    rng = np.random.default_rng(80)
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    data = tiny_dataset(rng, 4, 1)
    runs = [(data, TrainConfig(0.1, 3, 0)), (data, TrainConfig(0.1, 4, 1))]
    with pytest.raises(ValueError, match="share iterations"):
        next(_sgd_paths(runs, c, obs))
    with pytest.raises(ValueError, match="share iterations"):
        _train_runs(runs, [None, None], c, obs)
    groups = [(data, data, [(0, data.sample(1))], [config]) for _, config in runs]
    with pytest.raises(ValueError, match="share iterations"):
        coupled_ensemble(groups, c, obs)
    with pytest.raises(ValueError, match="at least one run"):
        next(_sgd_paths([], c, obs))


def test_train_on_toy_task_improves_risk():
    dataset = synthetic_toy(40, seed=9)
    # one layer so the model family cos(x + phi) contains the target
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    run = train(dataset, c, obs, TrainConfig(0.2, 60, seed=0))
    assert run.train_risks[-1] < run.train_risks[0]
