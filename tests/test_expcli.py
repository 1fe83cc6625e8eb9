"""Config parsing, sweep tables, output formats, and the command line."""

import json
import os
import platform
from dataclasses import replace

import numpy as np
import pytest

from reupqnn import ansatz
from reupqnn.ansatz import build_circuit, forward_many
from reupqnn.comb import build_reuploading_comb, choi_of_unitary
from reupqnn.data import rescale_with_train_stats, subsample_split
from reupqnn.qcore import z_observable
from reupqnn.experiments import (
    COLUMNS,
    ConfigError,
    ResultTable,
    _batches,
    _cells,
    _format_cell,
    _stability_rows,
    emit_results,
    load_pool,
    main,
    parse_config,
    run_experiment,
    run_stability,
)
from reupqnn.stability import BoundInputs, replacement_for, sampled_indices, theoretical_beta
from reupqnn.train import LIPSCHITZ, LOSS_BOUND, SMOOTHNESS, TrainConfig, loss, train

BASE_CONFIG = """\
# toy sweep, small on purpose
dataset.kind = toy
dataset.pool_size = 40
dataset.m_train = 6
dataset.m_test = 4
optimizer.iterations = 4
optimizer.learning_rate = 0.1
optimizer.seeds = 0, 1
sweep.axis = layers
sweep.values = 1, 2
eval.interval = 2
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- config parsing ---------------------------------------------------------


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG))
    assert cfg.kind == "toy"
    assert cfg.m_train == 6 and cfg.m_test == 4
    assert cfg.sweep_axis == "layers"
    assert cfg.sweep_values == (1, 2)
    assert cfg.seeds == (0, 1)
    assert cfg.qubits == 1  # per-kind default
    assert cfg.sublayers == 2
    assert any(d.startswith("circuit.qubits=") for d in cfg.defaults_applied)
    assert any(d.startswith("optimizer.loss=") for d in cfg.defaults_applied)
    assert cfg.raw["dataset.m_train"] == "6"


def test_parse_config_accepts_the_one_loss(tmp_path):
    text = "dataset.kind = toy\ndataset.m_train = 6\noptimizer.loss = scaled_squared\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.raw["optimizer.loss"] == "scaled_squared"
    assert not any(d.startswith("optimizer.loss=") for d in cfg.defaults_applied)


def test_parse_config_sweep_defaults_to_base_value(tmp_path):
    text = "dataset.kind = toy\ndataset.m_train = 5\nsweep.axis = noise_p\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.sweep_values == (0.0,)
    assert any(d.startswith("sweep.values=") for d in cfg.defaults_applied)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("dataset.extra = 1", "unknown key"),
        ("dataset.m_train = 6", "duplicate key"),
        ("just words", "expected 'key = value'"),
        ("sweep.axis = qubits", "sweep.axis"),
        ("optimizer.learning_rate = -0.5", "learning_rate"),
        ("optimizer.iterations = -1", "iterations"),
        ("bound.delta = 0", "delta"),
        ("output.format = yaml", "output.format"),
        ("optimizer.noise_p = 1.5", "noise_p"),
        ("dataset.m_train = six", "dataset.m_train"),
        ("optimizer.seeds = 3, 1, 3", "repeat"),
        ("optimizer.loss = absolute", "optimizer.loss"),
    ],
)
def test_parse_config_rejects_bad_lines(tmp_path, line, fragment):
    text = "dataset.kind = toy\ndataset.m_train = 6\n" + line + "\n"
    with pytest.raises(ConfigError, match=fragment):
        parse_config(write_config(tmp_path, text))


def test_parse_config_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match="dataset.m_train"):
        parse_config(write_config(tmp_path, "dataset.kind = toy\n"))


def test_parse_config_axis_specific_sweep_values(tmp_path):
    head = "dataset.kind = toy\ndataset.m_train = 6\n"
    with pytest.raises(ConfigError, match="layers"):
        parse_config(write_config(tmp_path, head + "sweep.values = 1.5, 2\n"))
    with pytest.raises(ConfigError, match="noise_p"):
        parse_config(
            write_config(
                tmp_path, head + "sweep.axis = noise_p\nsweep.values = 0.2, 1.2\n"
            )
        )
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(
            write_config(
                tmp_path,
                head + "sweep.axis = learning_rate\nsweep.values = 0.1, 0\n",
            )
        )
    # Integer keys take integral decimals, in a sweep as in a scalar line.
    sweep = "sweep.axis = m_train\nsweep.values = 4, 6.0\n"
    cfg = parse_config(write_config(tmp_path, head + sweep))
    assert cfg.sweep_values == (4, 6) and all(type(v) is int for v in cfg.sweep_values)
    assert parse_config(write_config(tmp_path, head + "circuit.layers = 2.0\n")).layers == 2


def test_parse_config_defaults_applied_echo(tmp_path):
    """The echo lists every defaulted key in schema order, then the derived ones."""
    cfg = parse_config(write_config(tmp_path, "dataset.kind = toy\ndataset.m_train = 6\n"))
    assert cfg.defaults_applied == (
        "dataset.path=None", "dataset.images=None", "dataset.labels=None",
        "dataset.classes=(0, 1)", "dataset.pool_size=400", "dataset.seed=1234",
        "dataset.m_test=0", "circuit.qubits=None", "circuit.layers=1", "circuit.sublayers=2",
        "optimizer.learning_rate=0.01", "optimizer.iterations=1000",
        "optimizer.loss='scaled_squared'", "optimizer.noise_p=0.0",
        "optimizer.seeds=(0, 1, 2, 3, 4)", "sweep.axis='layers'", "sweep.values=None",
        "stability.indices=4", "stability.probes=32", "bound.delta=0.05", "output.path=None",
        "output.format='csv'", "eval.interval=None", "circuit.qubits=1", "sweep.values=(1,)",
    )


# Each bounded key with a value just outside its range.
OUT_OF_RANGE = [
    ("dataset.pool_size", "0"),
    ("dataset.seed", "-1"),
    ("dataset.m_train", "0"),
    ("dataset.m_test", "-1"),
    ("circuit.qubits", "0"),
    ("circuit.layers", "0"),
    ("circuit.sublayers", "0"),
    ("optimizer.learning_rate", "0"),
    ("optimizer.iterations", "-1"),
    ("optimizer.noise_p", "-1e-12"),
    ("optimizer.noise_p", "1.000000001"),
    ("optimizer.seeds", "-1"),
    ("stability.indices", "0"),
    ("stability.probes", "0"),
    ("bound.delta", "0"),
    ("bound.delta", "1.000000001"),
    ("eval.interval", "0"),
]
AXES = {"circuit.layers": "layers", "optimizer.learning_rate": "learning_rate",
        "dataset.m_train": "m_train", "optimizer.noise_p": "noise_p"}


def _exit_code_and_error(tmp_path, capsys, lines):
    cfg_path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in lines.items()))
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")])
    assert not (tmp_path / "o.csv").exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_cli_out_of_range_value_exits_2(tmp_path, capsys, key, value):
    lines = {"dataset.kind": "toy", "dataset.m_train": "6", "dataset.m_test": "4", key: value}
    code, err = _exit_code_and_error(tmp_path, capsys, lines)
    assert code == 2 and err.startswith("config error:") and key in err


@pytest.mark.parametrize("key,value", [(k, v) for k, v in OUT_OF_RANGE if k in AXES])
def test_cli_out_of_range_sweep_value_exits_2(tmp_path, capsys, key, value):
    lines = {"dataset.kind": "toy", "dataset.m_train": "6", "dataset.m_test": "4",
             "sweep.axis": AXES[key], "sweep.values": value}
    code, err = _exit_code_and_error(tmp_path, capsys, lines)
    assert code == 2 and err.startswith("config error: sweep.values") and key in err


def test_parse_config_dataset_requirements(tmp_path):
    with pytest.raises(ConfigError, match="dataset.path"):
        parse_config(
            write_config(tmp_path, "dataset.kind = wdbc\ndataset.m_train = 6\n")
        )
    with pytest.raises(ConfigError, match="dataset.images"):
        parse_config(
            write_config(tmp_path, "dataset.kind = idx\ndataset.m_train = 6\n")
        )
    with pytest.raises(ConfigError, match="dataset.kind"):
        parse_config(
            write_config(tmp_path, "dataset.kind = iris\ndataset.m_train = 6\n")
        )


def test_load_pool_toy(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG))
    pool = load_pool(cfg)
    assert len(pool) == 40
    assert pool.feature_dim == 1


# --- experiment sweep -------------------------------------------------------


@pytest.fixture(scope="module")
def toy_table(tmp_path_factory):
    path = write_config(tmp_path_factory.mktemp("cfg"), BASE_CONFIG)
    cfg = parse_config(path)
    return cfg, run_experiment(cfg)


def test_run_experiment_row_structure(toy_table):
    cfg, table = toy_table
    assert table.columns == COLUMNS
    sample = [r for r in table.rows if r["kind"] == "sample"]
    # 2 sweep values x 2 seeds x eval points {0, 2, 4}
    assert len(sample) == 12
    assert sorted({r["iteration"] for r in sample}) == [0, 2, 4]
    assert sorted({r["seed"] for r in sample}) == [0, 1]
    assert sorted({r["sweep_value"] for r in sample}) == [1, 2]
    for r in sample:
        assert r["gap"] == pytest.approx(r["test_risk"] - r["train_risk"], abs=1e-15)
        assert 0.0 <= r["train_acc"] <= 1.0
        assert r["bound_value"] > 0.0
        assert r["sum_abs_dtheta"] == ""  # stability-only column stays blank
    assert len([r for r in table.rows if r["kind"] == "mean"]) == 6
    assert len([r for r in table.rows if r["kind"] == "std"]) == 6


def test_run_experiment_aggregates_recompute(toy_table):
    """Each mean and std cell is the 1-D np.mean or np.std of its column
    over the seeds, bit for bit, at 2 seeds and at 9: from 8 seeds on, a
    reduction over a strided axis would round differently."""
    cfg, table = toy_table
    nine = replace(cfg, seeds=tuple(range(9)))
    for cfg, table in ((cfg, table), (nine, run_experiment(nine))):
        sample = [r for r in table.rows if r["kind"] == "sample"]
        for kind, reducer in (("mean", np.mean), ("std", np.std)):
            for agg in (r for r in table.rows if r["kind"] == kind):
                group = [
                    r
                    for r in sample
                    if r["sweep_value"] == agg["sweep_value"]
                    and r["iteration"] == agg["iteration"]
                ]
                assert len(group) == len(cfg.seeds)
                for col in ("train_risk", "test_risk", "gap", "train_acc", "test_acc",
                            "bound_value", "stable_margin"):
                    want = float(reducer(np.array([r[col] for r in group], dtype=float)))
                    assert agg[col] == want


def test_run_experiment_margin_columns(toy_table):
    cfg, table = toy_table
    for r in table.rows:
        if r["kind"] != "sample":
            continue
        layers = int(r["sweep_value"])
        n_params = build_circuit(1, layers, 1, cfg.sublayers).n_params
        assert r["stable_margin"] == pytest.approx(0.1 * n_params, rel=1e-12)
        assert r["margin_flagged"] == int(0.1 * n_params >= 1.0)


def test_run_experiment_rows_do_not_depend_on_batch(tmp_path):
    """A seed's sample rows are the same bits alone and in a lockstep batch of seeds."""
    text = BASE_CONFIG.replace("optimizer.seeds = 0, 1", "optimizer.seeds = 0, 1, 2")
    cfg = parse_config(write_config(tmp_path, text + "circuit.qubits = 2\n"))

    def seed_rows(table):
        return [r for r in table.rows if r["kind"] == "sample" and r["seed"] == 1]

    batched = seed_rows(run_experiment(cfg))
    assert len(batched) == 2 * 3  # two sweep values, iterations 0, 2, 4
    assert seed_rows(run_experiment(replace(cfg, seeds=(1,)))) == batched


def test_run_experiment_m_train_values_do_not_depend_on_batch(tmp_path):
    """An m_train sweep trains as one batch; each value's sample rows are
    the same bits as when it runs alone."""
    text = BASE_CONFIG.replace("sweep.axis = layers", "sweep.axis = m_train")
    text = text.replace("sweep.values = 1, 2", "sweep.values = 4, 6, 5")
    cfg = parse_config(write_config(tmp_path, text + "circuit.qubits = 2\n"))
    swept = run_experiment(cfg)

    def value_rows(table, value):
        return [r for r in table.rows if r["kind"] == "sample" and r["sweep_value"] == value]

    for value in cfg.sweep_values:
        alone = value_rows(run_experiment(replace(cfg, sweep_values=(value,))), value)
        assert len(alone) == 2 * 3  # two seeds, iterations 0, 2, 4
        assert value_rows(swept, value) == alone


def test_run_experiment_noise_p_values_do_not_depend_on_batch(tmp_path):
    """A noise_p sweep through 0.0 trains as one batch; each value's rows
    are the same bits as when it runs alone, and the table keeps the sweep
    order."""
    text = BASE_CONFIG.replace("sweep.axis = layers", "sweep.axis = noise_p")
    text = text.replace("sweep.values = 1, 2", "sweep.values = 0.05, 0.0, 0.1")
    cfg = parse_config(write_config(tmp_path, text + "circuit.qubits = 2\n"))
    assert [[value for value, _ in batch] for batch in _batches(cfg)] == [[0.05, 0.0, 0.1]]
    swept = run_experiment(cfg).rows
    alone = [run_experiment(replace(cfg, sweep_values=(value,))).rows
             for value in cfg.sweep_values]
    # two seeds' samples, a mean and a std at iterations 0, 2, 4
    assert [len(rows) for rows in alone] == [(2 + 1 + 1) * 3] * 3
    assert swept[:3 * 6] == [r for rows in alone for r in rows if r["kind"] == "sample"]
    for value, rows in zip(cfg.sweep_values, alone):
        assert [r for r in swept if r["sweep_value"] == value] == rows


@pytest.mark.parametrize("axis, values, batches", [
    ("layers", "1, 2, 3", [[1], [2], [3]]),
    ("m_train", "4, 6, 5", [[4, 6, 5]]),
    ("learning_rate", "0.05, 0.01, 0.2", [[0.05, 0.01, 0.2]]),
    ("noise_p", "0.05, 0.0, 0.1", [[0.05, 0.0, 0.1]]),
])
def test_batches_share_a_circuit(tmp_path, axis, values, batches):
    text = BASE_CONFIG.replace("sweep.axis = layers", f"sweep.axis = {axis}")
    cfg = parse_config(write_config(tmp_path, text.replace("sweep.values = 1, 2",
                                                           f"sweep.values = {values}")))
    assert [[value for value, _ in batch] for batch in _batches(cfg)] == batches


LEARNING_RATES = "sweep.axis = learning_rate\nsweep.values = 0.05, 0.01, 0.2\n"


@pytest.mark.parametrize("noise", ["", "optimizer.noise_p = 0.05\n"])
def test_run_experiment_learning_rate_values_do_not_depend_on_batch(tmp_path, noise):
    """A learning_rate sweep trains as one batch; each value's rows are the
    same bits as when it runs alone, and the table keeps the sweep order."""
    text = BASE_CONFIG.replace("sweep.axis = layers\nsweep.values = 1, 2\n", LEARNING_RATES)
    cfg = parse_config(write_config(tmp_path, text + noise + "circuit.qubits = 2\n"))
    assert len(_batches(cfg)) == 1
    swept = run_experiment(cfg).rows
    alone = [run_experiment(replace(cfg, sweep_values=(value,))).rows
             for value in cfg.sweep_values]
    # two seeds' samples, a mean and a std at iterations 0, 2, 4
    assert [len(rows) for rows in alone] == [(2 + 1 + 1) * 3] * 3
    assert swept[:3 * 6] == [r for rows in alone for r in rows if r["kind"] == "sample"]
    for value, rows in zip(cfg.sweep_values, alone):
        assert [r for r in swept if r["sweep_value"] == value] == rows


def test_run_experiment_seed_offset_shifts_seeds(toy_table):
    cfg, table = toy_table
    shifted = run_experiment(cfg, seed_offset=10)
    assert sorted({r["seed"] for r in shifted.rows if r["kind"] == "sample"}) == [10, 11]
    assert shifted.rows != table.rows


def test_run_experiment_requires_test_samples(tmp_path):
    text = BASE_CONFIG.replace("dataset.m_test = 4", "dataset.m_test = 0")
    cfg = parse_config(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match="m_test"):
        run_experiment(cfg)


def test_result_table_column_helper(toy_table):
    _, table = toy_table
    kinds = set(table.column("kind"))
    assert kinds == {"sample", "mean", "std"}
    assert len(table.column("gap", kind="mean")) == 6


# --- stability sweep --------------------------------------------------------


STAB_CONFIG = """\
dataset.kind = toy
dataset.pool_size = 30
dataset.m_train = 5
optimizer.iterations = 3
optimizer.learning_rate = 0.1
optimizer.seeds = 0, 1
sweep.axis = m_train
sweep.values = 4, 5
stability.indices = 2
stability.probes = 6
"""


@pytest.fixture(scope="module")
def stab_table(tmp_path_factory):
    path = write_config(tmp_path_factory.mktemp("cfg"), STAB_CONFIG, "stab.cfg")
    cfg = parse_config(path)
    return cfg, run_stability(cfg)


def test_run_stability_row_structure(stab_table):
    cfg, table = stab_table
    trace = [r for r in table.rows if r["kind"] == "trace"]
    # 2 values x 2 indices x 2 seeds x (T + 1) iterations
    assert len(trace) == 2 * 2 * 2 * 4
    for r in trace:
        if r["iteration"] == 0:
            assert r["sum_abs_dtheta"] == 0.0
        assert r["probe_loss_gap"] <= r["probe_f_gap"] + 1e-12
        assert r["train_risk"] == ""  # learning-curve columns stay blank
    beta_rows = [r for r in table.rows if r["kind"] == "beta"]
    assert len(beta_rows) == 2
    for r in beta_rows:
        assert r["beta_hat"] >= 0.0
        assert r["iteration"] == 3


def test_run_stability_bound_column_matches_closed_form(stab_table):
    cfg, table = stab_table
    n_params = build_circuit(1, cfg.layers, 1, cfg.sublayers).n_params
    # the runner feeds the observable's spectral norm through
    obs_norm = z_observable(1).norm
    for r in (r for r in table.rows if r["kind"] == "beta"):
        b = BoundInputs(
            layers=cfg.layers,
            data_dim=1,
            n_params=n_params,
            m=int(r["sweep_value"]),
            iterations=cfg.iterations,
            eta=cfg.learning_rate,
            obs_norm=obs_norm,
            lipschitz=LIPSCHITZ,
            smoothness=SMOOTHNESS,
            loss_bound=LOSS_BOUND,
            delta=cfg.delta,
            noise_p=0.0,
        )
        assert r["bound_value"] == theoretical_beta(b)


def test_run_stability_deterministic(stab_table):
    cfg, table = stab_table
    again = run_stability(cfg)
    assert again.rows == table.rows


def test_run_stability_beta_hat_equals_brute_force_retraining(stab_table):
    """beta_hat shares the trace runs; retraining every (variant, seed) gives the same bits."""
    cfg, table = stab_table
    pool = load_pool(cfg)
    obs = z_observable(cfg.qubits)
    betas = [r["beta_hat"] for r in table.rows if r["kind"] == "beta"]
    for vi, m in enumerate(cfg.sweep_values):
        train_set, probe_set = subsample_split(
            pool, m, cfg.stability_probes, (cfg.data_seed, 777, vi)
        )
        c = build_circuit(cfg.qubits, cfg.layers, pool.feature_dim, cfg.sublayers)

        def mean_probe_losses(dataset):
            total = np.zeros(len(probe_set))
            for seed in cfg.seeds:
                run = train(dataset, c, obs, TrainConfig(cfg.learning_rate, cfg.iterations, seed))
                outputs = forward_many(c, run.final_theta, probe_set.features, obs)
                total += loss(outputs, probe_set.labels)
            return total / len(cfg.seeds)

        base = mean_probe_losses(train_set)
        worst = 0.0
        for i in sampled_indices(m, cfg.stability_indices):
            twin = train_set.replace(int(i), replacement_for(int(i), probe_set))
            worst = max(worst, float(np.max(np.abs(base - mean_probe_losses(twin)))))
        assert betas[vi] == 0.5 * worst
    assert all(b > 0.0 for b in betas)


def stability_rows_one_cell_per_call(cfg):
    """The stability rows of each cell of ``cfg`` run alone, in sweep order."""
    pool = load_pool(cfg)
    circuit = build_circuit(cfg.qubits, cfg.layers, pool.feature_dim, cfg.sublayers)
    obs = z_observable(cfg.qubits)
    return [row for cell in _cells(cfg)
            for rows in _stability_rows([cell], pool, list(cfg.seeds), circuit, obs)
            for row in rows]


@pytest.mark.parametrize("noise", ["", "optimizer.noise_p = 0.05\n"])
def test_run_stability_m_train_values_do_not_depend_on_batch(tmp_path, noise):
    """An m_train stability sweep trains as one ensemble; its rows equal
    those of the same cells, each value keeping its split, run one per call."""
    text = STAB_CONFIG.replace("sweep.values = 4, 5", "sweep.values = 4, 6, 5")
    cfg = parse_config(write_config(tmp_path, text + noise, "stab.cfg"))
    one_per_call = stability_rows_one_cell_per_call(cfg)
    assert len(one_per_call) == 3 * (2 * 2 * 4 + 1)  # values x (indices x seeds x (T + 1) + beta)
    assert run_stability(cfg).rows == one_per_call


def test_run_stability_noise_p_values_do_not_depend_on_batch(tmp_path):
    """A noise_p stability sweep through 0.0 trains as one ensemble; its
    rows equal those of each cell run one per call, in sweep order."""
    text = STAB_CONFIG.replace("sweep.axis = m_train", "sweep.axis = noise_p")
    text = text.replace("sweep.values = 4, 5", "sweep.values = 0.05, 0.0, 0.1")
    cfg = parse_config(write_config(tmp_path, text, "stab.cfg"))
    assert [[value for value, _ in batch] for batch in _batches(cfg)] == [[0.05, 0.0, 0.1]]
    one_per_call = stability_rows_one_cell_per_call(cfg)
    assert len(one_per_call) == 3 * (2 * 2 * 4 + 1)  # values x (indices x seeds x (T + 1) + beta)
    assert run_stability(cfg).rows == one_per_call


@pytest.mark.parametrize("noise", ["", "optimizer.noise_p = 0.05\n"])
def test_run_stability_learning_rate_values_do_not_depend_on_batch(tmp_path, noise):
    """A learning_rate stability sweep trains as one ensemble; its rows
    equal those of each cell run one per call, in sweep order."""
    text = STAB_CONFIG.replace("sweep.axis = m_train\nsweep.values = 4, 5\n", LEARNING_RATES)
    cfg = parse_config(write_config(tmp_path, text + noise, "stab.cfg"))
    assert len(_batches(cfg)) == 1
    one_per_call = stability_rows_one_cell_per_call(cfg)
    assert len(one_per_call) == 3 * (2 * 2 * 4 + 1)  # values x (indices x seeds x (T + 1) + beta)
    assert run_stability(cfg).rows == one_per_call


def test_run_stability_honours_non_contiguous_seeds(tmp_path):
    text = STAB_CONFIG.replace("optimizer.seeds = 0, 1", "optimizer.seeds = 9, 0, 5")
    cfg = parse_config(write_config(tmp_path, text, "stab.cfg"))
    for offset in (0, 3):
        table = run_stability(cfg, seed_offset=offset)
        seeds = [r["seed"] for r in table.rows if r["kind"] == "trace" and r["iteration"] == 0]
        # 2 values x 2 indices, each with one trace per configured seed, in config order
        assert seeds == [9 + offset, offset, 5 + offset] * 4


def test_run_and_stability_on_a_wdbc_pool(tmp_path, capsys):
    """On a wdbc pool every run trains on its split rescaled by the training
    half's statistics, and a stability sweep runs end to end."""
    rng = np.random.default_rng(91)
    lines = [",".join([str(i), "BM"[i % 2]] + [repr(float(v)) for v in rng.uniform(0, 50, 30)])
             for i in range(24)]
    data = tmp_path / "wdbc.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kind = f"dataset.kind = wdbc\ndataset.path = {data}\ncircuit.qubits = 2"
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG.replace("dataset.kind = toy", kind)))
    pool = load_pool(cfg)
    obs = z_observable(2)
    table = run_experiment(cfg)
    for value in cfg.sweep_values:
        circuit = build_circuit(2, value, pool.feature_dim, cfg.sublayers)
        for seed in cfg.seeds:
            train_set, test_set = rescale_with_train_stats(
                *subsample_split(pool, cfg.m_train, cfg.m_test, (cfg.data_seed, seed)))
            run = train(train_set, circuit, obs, TrainConfig(cfg.learning_rate, cfg.iterations, seed),
                        test_set, cfg.eval_interval)
            rows = [r for r in table.rows
                    if r["kind"] == "sample" and r["sweep_value"] == value and r["seed"] == seed]
            assert [r["iteration"] for r in rows] == run.eval_points.tolist()
            assert [r["train_risk"] for r in rows] == run.train_risks.tolist()
            assert [r["test_risk"] for r in rows] == run.test_risks.tolist()
            assert [r["train_acc"] for r in rows] == run.train_accs.tolist()
            assert [r["test_acc"] for r in rows] == run.test_accs.tolist()

    cfg_path = write_config(tmp_path, STAB_CONFIG.replace("dataset.kind = toy", kind), "stab.cfg")
    out = tmp_path / "stab.csv"
    assert main(["stability", "--config", cfg_path, "--out", str(out)]) == 0
    rows = 2 * (2 * 2 * 4 + 1)  # values x (indices x seeds x (T + 1) + beta)
    assert capsys.readouterr().out == f"wrote {rows} rows to {out} (csv)\n"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + rows


# --- output files -----------------------------------------------------------


def test_emit_csv_reproducible_bytes(toy_table, tmp_path):
    _, table = toy_table
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(table, str(p1), "csv")
    emit_results(table, str(p2), "csv")
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(table.rows)
    assert data.endswith(b"\n")


# Plain str/int/float cells, numpy scalars, None and bools, a row missing
# columns and a row out of column order.
CELL_ROWS = [
    {"kind": "trace", "n": 25, "x": 0.1, "y": ""},
    {"kind": "plain", "n": -3, "x": float("inf"), "y": float("nan")},
    {"kind": "big", "n": 10**20, "x": 1e16, "y": -0.0},
    {"kind": np.float64(0.1), "n": np.int64(7), "x": None, "y": True},
    {"kind": False, "n": np.float64(-np.inf), "x": np.float32(0.1), "y": 1e-5},
    {"kind": np.str_("s"), "n": np.float64(np.nan), "x": 2.5e-300, "y": 123456789.125},
    {"x": 2.5, "kind": "partial"},
    {"y": 1, "x": 2.0, "n": 3, "kind": "reordered"},
]


def test_emit_csv_cell_types_write_frozen_bytes(tmp_path):
    """Rows of plain str/int/float cells (written as str) and rows holding
    numpy scalars, None or bool (written by `_format_cell`), rows missing
    a column and rows out of column order all give the bytes of one
    `_format_cell` call per cell, frozen here."""
    rows = CELL_ROWS
    table = ResultTable(("kind", "n", "x", "y"), rows, {})
    path = tmp_path / "cells.csv"
    emit_results(table, str(path), "csv")
    assert path.read_bytes() == (
        b"kind,n,x,y\n"
        b"trace,25,0.1,\n"
        b"plain,-3,inf,nan\n"
        b"big,100000000000000000000,1e+16,-0.0\n"
        b"0.1,7,,1\n"
        b"0,-inf,0.10000000149011612,1e-05\n"
        b"s,nan,2.5e-300,123456789.125\n"
        b"partial,,2.5,\n"
        b"reordered,3,2.0,1\n"
    )
    per_cell = "".join(",".join(_format_cell(row.get(c, "")) for c in table.columns) + "\n"
                       for row in rows)
    assert path.read_bytes() == ("kind,n,x,y\n" + per_cell).encode()


def test_emit_json_writes_the_numbers_the_csv_writes(tmp_path):
    """CELL_ROWS, numpy scalars and bools among them, written as JSON: each
    numeric cell loads back equal to the value of its CSV text, a
    non-finite one as that text, and a blank as null."""
    table = ResultTable(("kind", "n", "x", "y"), CELL_ROWS, {})
    emit_results(table, str(tmp_path / "cells.csv"), "csv")
    emit_results(table, str(tmp_path / "cells.json"), "json")
    csv_rows = (tmp_path / "cells.csv").read_text(encoding="utf-8").splitlines()[1:]
    json_rows = json.loads((tmp_path / "cells.json").read_text(encoding="utf-8"))["rows"]
    assert len(json_rows) == len(csv_rows) == len(CELL_ROWS)
    numbers = 0
    for line, got in zip(csv_rows, json_rows):
        for column, text in zip(table.columns, line.split(",")):
            cell = got[column]
            if text == "":
                assert cell is None
            elif isinstance(cell, str):
                assert cell == text
            else:
                numbers += 1
                assert cell == json.loads(text)
    assert numbers == 18


def test_emit_json_round_trip(toy_table, tmp_path):
    _, table = toy_table
    path = tmp_path / "out.json"
    emit_results(table, str(path), "json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["columns"] == list(COLUMNS)
    assert len(payload["rows"]) == len(table.rows)
    meta = payload["meta"]
    assert meta["command"] == "run"
    assert meta["dataset"] == "toy"
    assert "created_utc" in meta
    assert meta["config"]["dataset.m_train"] == "6"
    first = payload["rows"][0]
    assert first["beta_hat"] is None  # blank cells become null
    assert first["train_risk"] == table.rows[0]["train_risk"]


def test_emit_json_records_the_environment(toy_table, tmp_path):
    """JSON meta names the Python and numpy versions and the CPU count;
    the table's own meta, and so its CSV, do not."""
    _, table = toy_table
    path = tmp_path / "out.json"
    emit_results(table, str(path), "json")
    environment = json.loads(path.read_text(encoding="utf-8"))["meta"]["environment"]
    assert environment == {"python": platform.python_version(), "numpy": np.__version__,
                           "cpu_count": os.cpu_count()}
    assert "environment" not in table.meta


def test_emit_unknown_format(toy_table, tmp_path):
    _, table = toy_table
    with pytest.raises(ConfigError):
        emit_results(table, str(tmp_path / "x.txt"), "xml")


# --- command line -----------------------------------------------------------


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "table.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith(",".join(COLUMNS))


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out1), "--threads", "2"]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_stability_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, STAB_CONFIG, "stab.cfg")
    out = tmp_path / "stab.json"
    code = main(["stability", "--config", cfg_path, "--out", str(out),
                 "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["meta"]["command"] == "stability"
    assert any(r["kind"] == "beta" for r in payload["rows"])


def test_cli_stability_beta_bound_at_zero_iterations_is_the_bound_commands(tmp_path, capsys):
    """At T = 0 the beta row's closed form is the T = 0 one that `bound`
    prints, 0.0, not the T = 1 value."""
    text = STAB_CONFIG.replace("optimizer.iterations = 3", "optimizer.iterations = 0")
    out = tmp_path / "stab.csv"
    assert main(["stability", "--config", write_config(tmp_path, text, "stab.cfg"),
                 "--out", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    beta_rows = [dict(zip(header.split(","), line.split(","))) for line in lines
                 if line.startswith("beta,")]
    n_params = build_circuit(1, 1, 1, 2).n_params
    capsys.readouterr()
    for row in beta_rows:
        assert main(["bound", "--layers", "1", "--data-dim", "1", "--params", str(n_params),
                     "--train-size", row["sweep_value"], "--iterations", "0",
                     "--eta", "0.1"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert f"theoretical_beta = {row['bound_value']}" in printed
        assert row["bound_value"] == "0.0"
    assert [row["sweep_value"] for row in beta_rows] == ["4", "5"]


def test_cli_requires_output_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    assert main(["run", "--config", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG + "dataset.bogus = 1\n")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    repeated = write_config(tmp_path, STAB_CONFIG.replace("0, 1", "1, 1"), "rep.cfg")
    assert main(["stability", "--config", repeated, "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


def test_cli_rejects_repeated_sweep_values(tmp_path, capsys):
    """A repeated sweep value would train and report its cell twice."""
    run_cfg = BASE_CONFIG.replace("sweep.values = 1, 2", "sweep.values = 1, 2, 1")
    stab_cfg = STAB_CONFIG.replace("sweep.values = 4, 5", "sweep.values = 4, 5, 4")
    for command, text in (("run", run_cfg), ("stability", stab_cfg)):
        cfg_path = write_config(tmp_path, text, f"{command}.cfg")
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
        assert "sweep.values must not repeat" in capsys.readouterr().err


CONFIG_OF = {"run": BASE_CONFIG, "stability": STAB_CONFIG}


@pytest.mark.parametrize("command", CONFIG_OF)
@pytest.mark.parametrize("seeds,offset", [
    ("18446744073709551616", "0"),
    ("0, 1", "-1"),
    ("0, 18446744073709551615", "1"),
    ("1" + "0" * 400, "0"),
], ids=["2^64", "offset_below_0", "offset_past_2^64-1", "10^400"])
def test_cli_seed_outside_philox_key_range_exits_2(tmp_path, capsys, command, seeds, offset):
    """A seed, offset included, is one 64-bit Philox key word: [0, 2^64 - 1]."""
    cfg_path = write_config(tmp_path, CONFIG_OF[command].replace("seeds = 0, 1", f"seeds = {seeds}"))
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg_path, "--out", str(out), "--seed-offset", offset]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: optimizer.seeds") and "18446744073709551615]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", CONFIG_OF)
def test_cli_runs_at_the_largest_seeds(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, CONFIG_OF[command])
    offset = str(2**64 - 2)  # seeds 0, 1 become 2^64 - 2 and 2^64 - 1
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv"),
                 "--seed-offset", offset]) == 0
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,text,fragment",
    [
        ("run", BASE_CONFIG + "circuit.qubits = 0\n", "circuit.qubits"),
        ("run", "dataset.kind = idx\ndataset.images = a\ndataset.labels = b\n"
                "dataset.classes = 0, 0\ndataset.m_train = 6\n", "dataset.classes"),
        ("run", "dataset.kind = toy\ndataset.pool_size = 10\n"
                "dataset.m_train = 8\ndataset.m_test = 5\n", "dataset.m_test"),
        ("stability", "dataset.kind = toy\ndataset.pool_size = 10\n"
                      "dataset.m_train = 8\nstability.probes = 5\n", "stability.probes"),
        ("run", BASE_CONFIG.replace("sweep.axis = layers", "sweep.axis = m_train")
                .replace("sweep.values = 1, 2", "sweep.values = 6, 37"), "dataset.m_test"),
    ],
)
def test_cli_bad_config_values_exit_2(tmp_path, capsys, command, text, fragment):
    """Each is rejected before any training, not with a traceback."""
    cfg_path = write_config(tmp_path, text)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert not (tmp_path / "o.csv").exists()


OVERFLOW_CONFIG = """\
dataset.kind = toy
dataset.pool_size = 40
dataset.m_train = 6
dataset.m_test = 4
optimizer.iterations = 700
optimizer.learning_rate = 1.0
optimizer.seeds = 0, 1
eval.interval = 350
stability.indices = 2
stability.probes = 6
"""


def _csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_cli_run_reports_an_overflowed_bound_as_inf(tmp_path, capsys):
    """5.0 ** 700 overflows: the finished runs are still written, bound inf."""
    out = tmp_path / "o.csv"
    assert main(["run", "--config", write_config(tmp_path, OVERFLOW_CONFIG),
                 "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 2 * 3 + 2 * 3  # two seeds at iterations 0, 350, 700; mean and std
    last = {r["kind"]: r for r in rows if r["iteration"] == "700"}
    assert [r["bound_value"] for r in rows if r["kind"] == "sample" and r["iteration"] == "700"] \
        == ["inf", "inf"]
    assert last["mean"]["bound_value"] == "inf" and last["std"]["bound_value"] == "nan"
    assert all(float(r["bound_value"]) < np.inf for r in rows if r["iteration"] == "350")
    assert all(np.isfinite(float(r["gap"])) for r in rows)
    assert capsys.readouterr().err == ""


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_cli_run_json_writes_an_overflowed_bound_as_a_string(tmp_path):
    """Strict JSON: non-finite cells are the CSV's text, never bare Infinity or NaN."""
    out = tmp_path / "o.json"
    assert main(["run", "--config", write_config(tmp_path, OVERFLOW_CONFIG),
                 "--out", str(out), "--format", "json"]) == 0
    rows = _strict_json(out.read_text(encoding="utf-8"))["rows"]
    last = {r["kind"]: r for r in rows if r["iteration"] == 700}
    assert [r["bound_value"] for r in rows if r["kind"] == "sample" and r["iteration"] == 700] \
        == ["inf", "inf"]
    assert last["mean"]["bound_value"] == "inf" and last["std"]["bound_value"] == "nan"
    assert all(isinstance(r["bound_value"], float) for r in rows if r["iteration"] == 350)


def test_emit_json_writes_non_finite_floats_as_strings(toy_table, tmp_path):
    _, table = toy_table
    values = [float("inf"), float("-inf"), float("nan"), np.float64("inf")]
    rows = [dict(row, train_risk=v) for row, v in zip(table.rows, values)]
    path = tmp_path / "out.json"
    emit_results(replace(table, rows=rows), str(path), "json")
    payload = _strict_json(path.read_text(encoding="utf-8"))
    assert [r["train_risk"] for r in payload["rows"]] == ["inf", "-inf", "nan", "inf"]
    csv_path = tmp_path / "out.csv"
    emit_results(replace(table, rows=rows), str(csv_path), "csv")
    assert [r["train_risk"] for r in _csv_rows(csv_path)] == ["inf", "-inf", "nan", "inf"]


def test_cli_stability_reports_an_overflowed_bound_as_inf(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["stability", "--config", write_config(tmp_path, OVERFLOW_CONFIG),
                 "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert sum(r["kind"] == "trace" for r in rows) == 2 * 2 * 701
    (beta,) = [r for r in rows if r["kind"] == "beta"]
    assert beta["bound_value"] == "inf" and np.isfinite(float(beta["beta_hat"]))


def test_cli_bound_reports_overflow_as_inf(capsys):
    head = ["bound", "--layers", "1", "--data-dim", "1", "--params", "2",
            "--train-size", "6", "--iterations", "700", "--eta", "1.0"]
    assert main(head + ["--noise-p", "0.01"]) == 0
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert values["theoretical_beta"] == values["generalization_bound"] == "inf"
    assert values["noisy_theoretical_beta"] == values["noisy_generalization_bound"] == "inf"
    assert values["margin_flagged"] == "true"
    # delta = 1 zeroes the tail factor: the bound is still inf, not inf * 0.
    assert main(head + ["--delta", "1"]) == 0
    assert "generalization_bound = inf" in capsys.readouterr().out
    # Zero steps move nothing: beta is exactly 0 whatever eta, not inf * 0.
    assert main(["bound", "--layers", "1", "--data-dim", "1", "--params", "2",
                 "--train-size", "10", "--iterations", "0", "--eta", "1e308"]) == 0
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert values["theoretical_beta"] == "0.0"
    assert float(values["generalization_bound"]) == LOSS_BOUND * np.sqrt(np.log(20) / 20)


@pytest.mark.parametrize("flag, value, name", [
    ("--delta", "0", "delta"),
    ("--noise-p", "1.5", "noise_p"),
    ("--eta", "-1", "eta"),
    ("--train-size", "0", "m"),
    ("--obs-norm", "nan", "obs_norm"),
    ("--lipschitz", "inf", "lipschitz"),
    ("--smoothness", "nan", "smoothness"),
    ("--loss-bound", "inf", "loss_bound"),
])
def test_cli_bound_out_of_domain_exits_2(capsys, flag, value, name):
    argv = {"--layers": "1", "--data-dim": "1", "--params": "2", "--train-size": "10",
            "--iterations": "5", "--eta": "0.1", flag: value}
    assert main(["bound"] + [v for pair in argv.items() for v in pair]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and name in err


def test_cli_data_error_exit_code(tmp_path, capsys):
    text = (
        "dataset.kind = wdbc\n"
        f"dataset.path = {tmp_path / 'absent.csv'}\n"
        "dataset.m_train = 6\ndataset.m_test = 2\n"
    )
    cfg_path = write_config(tmp_path, text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_capacity_error_exit_code(tmp_path, capsys, monkeypatch):
    """More than 14 qubits exits 4, and so does a row over the engine's
    byte cap, patched here below a 1-qubit row of either kind."""
    text = BASE_CONFIG + "circuit.qubits = 15\n"
    cfg_path = write_config(tmp_path, text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 4
    assert "capacity error" in capsys.readouterr().err
    monkeypatch.setattr(ansatz, "_ROW_BYTES", 8 * 2 - 1)
    for noise in ("", "optimizer.noise_p = 0.1\n"):
        cfg_path = write_config(tmp_path, BASE_CONFIG + noise)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "a row may take" in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_bound_prints_closed_forms(capsys):
    code = main([
        "bound", "--layers", "1", "--data-dim", "1", "--params", "2",
        "--train-size", "100", "--iterations", "1", "--eta", "0.01",
        "--smoothness", "1.0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, text = line.partition(" = ")
        values[key] = text
    assert float(values["theoretical_beta"]) == pytest.approx(
        0.16 * np.pi / 100, rel=1e-12
    )
    assert values["margin_flagged"] == "false"
    assert "generalization_bound" in values


def test_cli_bound_noisy_lines(capsys):
    code = main([
        "bound", "--layers", "1", "--data-dim", "1", "--params", "1",
        "--train-size", "1", "--iterations", "1", "--eta", "0.01",
        "--smoothness", "1.0", "--noise-p", "0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "noisy_theoretical_beta" in out
    line = [l for l in out.splitlines() if l.startswith("noisy_theoretical_beta")][0]
    assert float(line.split(" = ")[1]) == pytest.approx(0.02 * np.pi, rel=1e-12)


def test_cli_validate_comb_accepts_identity_choi(tmp_path, capsys):
    choi = choi_of_unitary(np.eye(2, dtype=complex)).matrix
    path = tmp_path / "id.npy"
    np.save(path, choi)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2"]) == 0
    assert "comb = true" in capsys.readouterr().out


def test_cli_validate_comb_flags_bad_matrix(tmp_path, capsys):
    choi = 1.5 * choi_of_unitary(np.eye(2, dtype=complex)).matrix
    path = tmp_path / "bad.npy"
    np.save(path, choi)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "comb = false" in out
    assert "violation:" in out


def test_cli_validate_comb_argument_errors(tmp_path, capsys):
    choi = choi_of_unitary(np.eye(2, dtype=complex)).matrix
    path = tmp_path / "id.npy"
    np.save(path, choi)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2,2"]) == 2
    assert main(["validate-comb", "--matrix", str(tmp_path / "no.npy"),
                 "--dims", "2,2"]) == 3
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,4"]) == 3
    capsys.readouterr()


def test_cli_validate_comb_reports_a_dims_product_past_int64(tmp_path, capsys):
    path = tmp_path / "id.npy"
    np.save(path, np.eye(4, dtype=complex))
    assert main(["validate-comb", "--matrix", str(path),
                 "--dims", "4294967296,4294967296"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "dims product 18446744073709551616" in err


def test_cli_validate_comb_past_26_systems_exits_4(tmp_path, capsys):
    path = tmp_path / "one.npy"
    np.save(path, np.ones((1, 1)))
    assert main(["validate-comb", "--matrix", str(path), "--dims", ",".join(["1"] * 28)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity error:") and "28 systems" in captured.err


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_cli_validate_comb_rejects_non_finite_matrix(tmp_path, capsys, bad):
    matrix = np.eye(16, dtype=complex)
    matrix[3, 5] = bad
    path = tmp_path / "nan.npy"
    np.save(path, matrix)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error:") and "non-finite" in captured.err


@pytest.mark.parametrize("matrix", [np.full((4, 4), "1"), np.full((4, 4), b"x")])
def test_cli_validate_comb_rejects_non_numeric_matrix(tmp_path, capsys, matrix):
    path = tmp_path / "text.npy"
    np.save(path, matrix)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error:") and "not numeric" in captured.err


def test_cli_validate_comb_rejects_an_npz_archive(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.npz"
    np.savez(path, matrix=np.eye(4))
    opened = []
    load = np.load

    def recording(*args, **kwargs):
        opened.append(load(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(np, "load", recording)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error:") and "NpzFile" in captured.err
    assert opened[0].fid is None  # the archive was closed


def test_cli_validate_comb_factors_a_real_npy_in_real_arithmetic(tmp_path, capsys, cholesky_dtypes):
    path = tmp_path / "id.npy"
    np.save(path, choi_of_unitary(np.eye(2)).matrix.real)
    assert main(["validate-comb", "--matrix", str(path), "--dims", "2,2"]) == 0
    assert "comb = true" in capsys.readouterr().out
    assert cholesky_dtypes == [np.dtype(np.float64)]


def test_cli_validate_comb_reports_a_real_npy_as_its_complex_copy(tmp_path, capsys, cholesky_dtypes):
    """A real .npy comb, a non-comb scaled from it and a non-Hermitian one
    print the lines and exit with the code of their + 0j copies; the real
    files are checked as loaded, float64 into the factorization."""
    c = build_circuit(1, 2, 1, 1)
    comb, _ = build_reuploading_comb(c, np.random.default_rng(63).uniform(0, 2 * np.pi, c.n_params))
    assert comb.matrix.dtype == np.float64
    skewed = comb.matrix.copy()
    skewed[0, 3] += 0.1
    verdicts = []
    for matrix in (comb.matrix, 1.5 * comb.matrix, skewed):
        seen = []
        for copy in (matrix, matrix + 0j):
            path = tmp_path / "comb.npy"
            np.save(path, copy)
            cholesky_dtypes.clear()
            code = main(["validate-comb", "--matrix", str(path), "--dims", "2,2,2,2,2,2"])
            seen.append((code, capsys.readouterr().out))
            if copy is matrix:
                assert cholesky_dtypes == [np.dtype(np.float64)]
        assert seen[0] == seen[1]
        verdicts.append(seen[0])
    assert verdicts == [(0, "comb = true\n"), (0, "comb = false\nviolation: normalization\n"),
                        (0, "comb = false\nviolation: hermiticity\nviolation: positivity\n")]
