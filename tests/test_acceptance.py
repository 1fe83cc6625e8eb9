"""End-to-end acceptance checks, one per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The image sweeps (criteria 7 and 8) train on a
generated two-glyph corpus unless REUPQNN_DATA_DIR points at real IDX
files; each runs as one ``run_experiment`` sweep and they dominate the
runtime.
"""

import math
import time

import numpy as np
import pytest

from _imagegen import surrogate_idx_pair
from _oracles import apply_gate, kraus_oracle
from reupqnn.ansatz import build_circuit, circuit_unitary, forward
from reupqnn.comb import (
    ChoiOperator,
    SystemLabel,
    build_reuploading_comb,
    choi_of_unitary,
    link_product,
    permute_systems,
    reuploading_comb_output,
    validate_comb,
)
from reupqnn.data import synthetic_toy
from reupqnn.experiments import main, parse_config, run_experiment
from reupqnn.grad import finite_diff_grad, parameter_shift_grad_f
from reupqnn.noise import noisy_forward
from reupqnn.qcore import QuantumState, spectral_norm, z_observable
from reupqnn.stability import (
    BoundInputs,
    coupled_divergence,
    empirical_beta,
    noisy_theoretical_beta,
    stable_training_margin,
    theoretical_beta,
)
from reupqnn.train import TrainConfig, init_params
from reupqnn.ansatz import iter_gates


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- 1: comb route equals direct simulation ----------------------------------


def test_criterion_01_comb_circuit_equivalence():
    rng = np.random.default_rng(101)
    shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    t0 = time.time()
    worst = 0.0
    for shape in shapes:
        n, layers = shape
        for _ in range(20):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(1, 3))
            c = build_circuit(n, layers, d, r)
            theta = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
            x = rng.uniform(0.0, 2.0 * np.pi, d)
            obs = z_observable(n)
            gap = abs(reuploading_comb_output(c, theta, x, obs) - forward(c, theta, x, obs))
            worst = max(worst, gap)
    wall = time.time() - t0
    _report(
        1,
        worst <= 1e-9 and wall < 60.0,
        f"100 instances, max |comb - direct| = {worst:.3e}, {wall:.1f}s",
    )


# -- 2: parameter shift against finite differences ----------------------------


def test_criterion_02_gradient_matches_finite_difference():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        r = int(rng.integers(1, 3))
        c = build_circuit(n, layers, d, r)
        theta = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
        x = rng.uniform(0.0, 2.0 * np.pi, d)
        obs = z_observable(n)
        exact = parameter_shift_grad_f(c, theta, x, obs)
        approx = finite_diff_grad(lambda t: forward(c, t, x, obs), theta, h=1e-5)
        worst = max(worst, float(np.max(np.abs(exact - approx))))
    _report(2, worst <= 1e-6, f"100 circuits, max-norm discrepancy = {worst:.3e}")


# -- 3: the four perturbation inequalities -------------------------------------


def _random_setup(rng):
    n = int(rng.integers(1, 3))
    layers = int(rng.integers(1, 3))
    d = int(rng.integers(1, 4))
    r = int(rng.integers(1, 3))
    c = build_circuit(n, layers, d, r)
    obs = z_observable(n)
    return c, obs


def test_criterion_03_perturbation_lemma_suite():
    rng = np.random.default_rng(303)
    trials = 1000
    slack = 1e-8
    violations = {"unitary": 0, "output": 0, "grad-theta": 0, "grad-mixed": 0}
    worst = {k: -np.inf for k in violations}

    for _ in range(trials):
        c, obs = _random_setup(rng)
        theta_a = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
        theta_b = theta_a + rng.normal(0.0, 0.4, c.n_params)
        x_a = rng.uniform(0.0, 2.0 * np.pi, c.data_dim)
        x_b = np.clip(x_a + rng.normal(0.0, 0.4, c.data_dim), 0.0, 2.0 * np.pi)
        d_theta = float(np.sum(np.abs(theta_a - theta_b)))
        d_x = float(np.sum(np.abs(x_a - x_b)))
        two_norm = 2.0 * obs.norm

        lhs = spectral_norm(circuit_unitary(c, theta_a, x_a) - circuit_unitary(c, theta_b, x_a))
        margin = lhs - (d_theta + slack)
        worst["unitary"] = max(worst["unitary"], margin)
        violations["unitary"] += margin > 0

        lhs = abs(forward(c, theta_a, x_a, obs) - forward(c, theta_b, x_a, obs))
        margin = lhs - (two_norm * d_theta + slack)
        worst["output"] = max(worst["output"], margin)
        violations["output"] += margin > 0

        g_a = parameter_shift_grad_f(c, theta_a, x_a, obs)
        g_b = parameter_shift_grad_f(c, theta_b, x_a, obs)
        lhs = float(np.max(np.abs(g_a - g_b)))
        margin = lhs - (two_norm * d_theta + slack)
        worst["grad-theta"] = max(worst["grad-theta"], margin)
        violations["grad-theta"] += margin > 0

        g_b2 = parameter_shift_grad_f(c, theta_b, x_b, obs)
        lhs = float(np.max(np.abs(g_a - g_b2)))
        # every feature is uploaded once per encoding slot, L slots total
        margin = lhs - (two_norm * (d_theta + c.layers * d_x) + slack)
        worst["grad-mixed"] = max(worst["grad-mixed"], margin)
        violations["grad-mixed"] += margin > 0

    total = sum(violations.values())
    detail = ", ".join(f"{k}: {v} viol (worst margin {worst[k]:+.2e})"
                       for k, v in violations.items())
    _report(3, total == 0, f"{trials} trials each; {detail}")


# -- 4: link-product algebra and comb validation -------------------------------


def _random_labeled(rng, systems):
    dim = int(np.prod([s.dim for s in systems]))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ChoiOperator(tuple(systems), m)


def _aligned(op: ChoiOperator, names) -> np.ndarray:
    return permute_systems(op, list(names)).matrix


def test_criterion_04_link_product_algebra():
    rng = np.random.default_rng(404)
    s, a, b, t, c_lbl = (SystemLabel(n, 2) for n in "sabtc")

    worst_comm = worst_assoc = 0.0
    for _ in range(100):
        op_a = _random_labeled(rng, (s, a))
        op_b = _random_labeled(rng, (s, b, t))
        op_c = _random_labeled(rng, (t, c_lbl))
        ab = link_product(op_a, op_b)
        ba = link_product(op_b, op_a)
        worst_comm = max(worst_comm, float(np.max(np.abs(
            _aligned(ab, ab.names) - _aligned(ba, ab.names)))))
        left = link_product(ab, op_c)
        right = link_product(op_a, link_product(op_b, op_c))
        worst_assoc = max(worst_assoc, float(np.max(np.abs(
            _aligned(left, left.names) - _aligned(right, left.names)))))

    worst_pair = 0.0
    for i in range(100):
        d = 2 if i % 2 else 4
        u = _random_unitary(rng, d)
        v = _random_unitary(rng, d)
        ju = choi_of_unitary(u, "in", "mid")
        jv = choi_of_unitary(v, "mid", "out")
        jvu = choi_of_unitary(v @ u, "in", "out")
        got = link_product(ju, jv)
        worst_pair = max(worst_pair, float(np.max(np.abs(
            _aligned(got, jvu.names) - jvu.matrix))))

    accepted = rejected = 0
    for trial in range(50):
        layers = 1 + trial % 2
        circ = build_circuit(1, layers, 1, 1)
        theta = rng.uniform(0.0, 2.0 * np.pi, circ.n_params)
        comb, teeth = build_reuploading_comb(circ, theta)
        accepted += validate_comb(comb, teeth).is_comb

        kind = trial % 4
        if kind == 0:
            m = comb.matrix.copy()
            m[0, 1] += 0.3
            bad = ChoiOperator(comb.systems, m)
        elif kind == 1:
            w = rng.normal(size=comb.matrix.shape[0]) + 1j * rng.normal(size=comb.matrix.shape[0])
            w /= np.linalg.norm(w)
            bad = ChoiOperator(comb.systems, comb.matrix - 0.2 * np.outer(w, w.conj()))
        elif kind == 2:
            bad = ChoiOperator(comb.systems, 1.5 * comb.matrix)
        else:
            names = [sys.name for sys in comb.systems]
            order = list(names)
            i2, i3 = order.index("w2"), order.index("w3")
            order[i2], order[i3] = order[i3], order[i2]
            bad = ChoiOperator(comb.systems, permute_systems(comb, order).matrix)
        rejected += not validate_comb(bad, teeth).is_comb

    ok = (worst_comm <= 1e-10 and worst_assoc <= 1e-10 and worst_pair <= 1e-10
          and accepted == 50 and rejected == 50)
    _report(
        4,
        ok,
        f"commutativity {worst_comm:.2e}, associativity {worst_assoc:.2e}, "
        f"composition {worst_pair:.2e}, {accepted}/50 accepted, {rejected}/50 rejected",
    )


# -- 5: closed-form bound evaluators -------------------------------------------


def test_criterion_05_closed_form_values():
    base = dict(layers=1, data_dim=1, n_params=2, m=100, iterations=1, eta=0.01,
                obs_norm=1.0, lipschitz=1.0, smoothness=1.0, loss_bound=1.0,
                delta=0.05, noise_p=0.0)
    b1 = BoundInputs(**base)
    b2 = BoundInputs(**{**base, "iterations": 2})
    v1, v2 = theoretical_beta(b1), theoretical_beta(b2)
    hand1 = 0.16 * math.pi / 100
    hand2 = hand1 * 2.04
    ok_hand = (abs(v1 - hand1) <= 1e-12 * hand1 and abs(v2 - hand2) <= 1e-12 * hand2
               and abs(v1 - 5.0265e-3) < 1e-6 and abs(v2 - 1.0254e-2) < 1e-6)

    ok_scaling = all(
        theoretical_beta(BoundInputs(**{**base, "m": m, "iterations": 7}))
        == 2.0 * theoretical_beta(BoundInputs(**{**base, "m": 2 * m, "iterations": 7}))
        for m in (25, 50, 100, 400)
    )

    ok_noise = all(
        noisy_theoretical_beta(BoundInputs(**{**base, "iterations": t, "n_params": k}))
        == theoretical_beta(BoundInputs(**{**base, "iterations": t, "n_params": k}))
        for t in (0, 1, 5, 40) for k in (1, 2, 72)
    )

    _report(
        5,
        ok_hand and ok_scaling and ok_noise,
        f"hand values {v1:.6e}/{v2:.6e}, exact 1/m scaling {ok_scaling}, "
        f"p=0 reduction bitwise {ok_noise}",
    )


# -- 6: depolarizing damping law ------------------------------------------------


def test_criterion_06_noise_damping_law():
    rng = np.random.default_rng(606)
    obs = z_observable(1)
    worst_damp = 0.0
    worst_trace = 0.0
    cases = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2), (4, 2, 1), (2, 3, 3)]
    for layers, r, d in cases:
        c = build_circuit(1, layers, d, r)
        g = c.n_params + layers * c.encode_columns
        assert g <= 20
        theta = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
        x = rng.uniform(0.0, 2.0 * np.pi, d)
        clean = forward(c, theta, x, obs)
        for p in (0.01, 0.1, 0.5):
            noisy = noisy_forward(c, theta, x, obs, p)
            worst_damp = max(worst_damp, abs(noisy - (1.0 - p) ** g * clean))
            state = QuantumState.zero(1).to_density()
            for gate, targets in iter_gates(c, theta, x):
                state = apply_gate(state, gate, targets)
                for q in targets:
                    state = QuantumState(kraus_oracle(state.data, p, q, 1), "density")
                worst_trace = max(worst_trace, abs(np.trace(state.data).real - 1.0))
    _report(
        6,
        worst_damp <= 1e-12 and worst_trace <= 1e-12,
        f"max |noisy - (1-p)^G clean| = {worst_damp:.2e}, "
        f"max trace drift = {worst_trace:.2e}",
    )


# -- 7 and 8: image sweeps -------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return surrogate_idx_pair(str(tmp_path_factory.mktemp("corpus")))


def _final_gaps(corpus, tmp_path, sweep: dict) -> dict:
    """Run one image sweep through ``run_experiment``: {sweep value: the five
    seeds' test - train risk gaps at iteration 1000}."""
    images, labels = corpus
    keys = {
        "dataset.kind": "idx", "dataset.images": images, "dataset.labels": labels,
        "dataset.seed": 1234, "dataset.m_test": 1000, "circuit.qubits": 4,
        "circuit.sublayers": 2, "optimizer.iterations": 1000,
        "optimizer.seeds": "0, 1, 2, 3, 4", "eval.interval": 1000, **sweep,
    }
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    cfg = parse_config(str(path))
    table = run_experiment(cfg)
    gaps = {value: [] for value in cfg.sweep_values}
    for row in table.rows:
        if row["kind"] == "sample" and row["iteration"] == 1000:
            gaps[row["sweep_value"]].append(row["gap"])
    return gaps


def test_criterion_07_layer_sweep_gap_ordering(corpus, tmp_path):
    t0 = time.time()
    gaps = _final_gaps(corpus, tmp_path, {
        "dataset.m_train": 500, "optimizer.learning_rate": 0.01,
        "sweep.axis": "layers", "sweep.values": "2, 8, 16"})
    wall = time.time() - t0
    means = {layers: float(np.mean(v)) for layers, v in gaps.items()}
    stds = {layers: float(np.std(v, ddof=1)) for layers, v in gaps.items()}
    pooled = math.sqrt(0.5 * (stds[2] ** 2 + stds[16] ** 2))
    increasing = means[2] < means[8] < means[16]
    separated = (means[16] - means[2]) > pooled
    _report(
        7,
        increasing and separated and wall < 1800.0,
        f"mean gaps {means[2]:.4f} < {means[8]:.4f} < {means[16]:.4f}: {increasing}; "
        f"gap(16)-gap(2) = {means[16]-means[2]:.4f} vs pooled std {pooled:.4f}; "
        f"{wall:.0f}s",
    )


def test_criterion_08_train_size_sweep(corpus, tmp_path):
    gaps = _final_gaps(corpus, tmp_path, {
        "dataset.m_train": 100, "circuit.layers": 16, "optimizer.learning_rate": 0.1,
        "sweep.axis": "m_train", "sweep.values": "100, 500, 1000"})
    means = [float(np.mean(gaps[m])) for m in (100, 500, 1000)]
    ok = means[0] >= means[1] >= means[2]
    _report(
        8,
        ok,
        f"mean final gaps over m: {means[0]:.4f} >= {means[1]:.4f} >= {means[2]:.4f}",
    )


# -- 9: empirical stability decay -------------------------------------------------


def test_criterion_09_stability_decay():
    data_seed = 11
    m_values = (25, 50, 100, 200)
    n_probes, n_indices, n_seeds = 16, 12, 24
    c = build_circuit(1, 1, 1, 1)
    obs = z_observable(1)
    pool = synthetic_toy(max(m_values) + n_probes, data_seed)
    probe_set = pool.subset(range(max(m_values), max(m_values) + n_probes))
    config = TrainConfig(0.05, 200, seed=0)

    betas = []
    for m in m_values:
        train_set = pool.subset(range(m))
        betas.append(empirical_beta(train_set, probe_set, n_indices, n_seeds,
                                    c, obs, config))
    slope = float(np.polyfit(np.log(np.array(m_values, float)), np.log(betas), 1)[0])

    violations = 0
    train_set = pool.subset(range(50))
    from reupqnn.stability import replacement_for, sampled_indices

    for index in sampled_indices(50, n_indices):
        replacement = replacement_for(int(index), probe_set)
        for s in range(2):
            cfg = TrainConfig(0.05, 200, seed=s)
            trace = coupled_divergence(train_set, int(index), replacement, c, obs,
                                       cfg, probes=probe_set)
            bound = 2.0 * obs.norm * trace.sum_abs_dtheta + 1e-8
            violations += int(np.sum(trace.probe_f_gap > bound))

    ok = -1.4 <= slope <= -0.6 and violations == 0
    _report(
        9,
        ok,
        f"log-log slope = {slope:.3f} in [-1.4, -0.6]; "
        f"domination violations = {violations}",
    )


# -- 10: step-size margin regimes --------------------------------------------------


def test_criterion_10_stable_margin_regimes():
    base = dict(layers=8, data_dim=16, n_params=72, m=500, iterations=1000,
                obs_norm=1.0, lipschitz=1.0, smoothness=0.5, loss_bound=1.0,
                delta=0.05, noise_p=0.0)
    low = stable_training_margin(BoundInputs(eta=0.01, **base))
    high = stable_training_margin(BoundInputs(eta=0.1, **base))
    ok = (abs(low.value - 0.72) <= 1e-12 and not low.flagged
          and abs(high.value - 7.2) <= 1e-12 and high.flagged)
    _report(
        10,
        ok,
        f"eta=0.01 -> {low.value} flagged={low.flagged}; "
        f"eta=0.1 -> {high.value} flagged={high.flagged}",
    )


# -- 11: byte-identical reruns ------------------------------------------------------


RUN_CONFIG = """\
dataset.kind = toy
dataset.pool_size = 30
dataset.m_train = 8
dataset.m_test = 4
optimizer.iterations = 30
optimizer.learning_rate = 0.1
optimizer.seeds = 0, 1
sweep.axis = learning_rate
sweep.values = 0.05, 0.1
eval.interval = 10
"""

STAB_CONFIG = """\
dataset.kind = toy
dataset.pool_size = 24
dataset.m_train = 6
optimizer.iterations = 10
optimizer.learning_rate = 0.1
optimizer.seeds = 0, 1
stability.indices = 2
stability.probes = 8
"""


def test_criterion_11_reruns_byte_identical(tmp_path):
    results = []
    for name, text, command in (("run", RUN_CONFIG, "run"),
                                ("stab", STAB_CONFIG, "stability")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        outs = []
        for i, threads in enumerate(("1", "2")):
            out = tmp_path / f"{name}-{i}.csv"
            code = main([command, "--config", str(cfg), "--out", str(out),
                         "--threads", threads])
            assert code == 0
            outs.append(out.read_bytes())
        results.append(outs[0] == outs[1])
    _report(
        11,
        all(results),
        f"run rerun identical: {results[0]}; stability rerun identical: {results[1]}",
    )
