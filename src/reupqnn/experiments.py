"""Experiment configuration, sweep runners, result tables, and the CLI.

Config files are flat ``key = value`` text with dotted section keys::

    dataset.kind = toy
    dataset.pool_size = 400
    dataset.m_train = 64
    dataset.m_test = 128
    circuit.qubits = 1
    sweep.axis = layers
    sweep.values = 1,2,4
    optimizer.seeds = 0,1,2
    output.path = results.csv

Unknown keys are rejected.  One sweep axis (layers, learning_rate,
m_train or noise_p) crosses a list of values with the seed list; every
(value, seed) cell is an independent pure computation, so re-running a
config reproduces the result rows byte for byte.  The seeds of one sweep
value train in lockstep, as do all values of an ``m_train`` axis, and a
cell's rows do not depend on which other runs share its batch.

Result tables always carry the same column set; cells that do not apply
to a row kind stay empty.  Row kinds: ``sample`` (per-seed learning
curves), ``mean``/``std`` (per-iteration aggregates across seeds,
population standard deviation), ``trace`` (coupled-divergence curves),
``beta`` (one empirical stability estimate per sweep value).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ansatz import build_circuit
from .comb import ChoiOperator, SystemLabel, validate_comb
from .data import (
    DataFormatError,
    Dataset,
    load_idx_pair,
    load_wdbc,
    rescale_with_train_stats,
    subsample_split,
    synthetic_toy,
)
from .qcore import CapacityError, z_observable
from .stability import (
    BoundInputs,
    coupled_ensemble,
    generalization_bound,
    noisy_generalization_bound,
    noisy_theoretical_beta,
    replacement_for,
    sampled_indices,
    stable_training_margin,
    theoretical_beta,
)
from .train import LIPSCHITZ, LOSS_BOUND, SMOOTHNESS, TrainConfig, _train_runs

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "ResultTable",
    "run_experiment",
    "run_stability",
    "emit_results",
    "main",
]


class ConfigError(Exception):
    """The configuration file or flags are invalid."""


_SWEEP_AXES = ("layers", "learning_rate", "m_train", "noise_p")
_LOSS = "scaled_squared"  # the one loss, (f - y)^2 / 4; see reupqnn.train
_DATASET_KINDS = ("toy", "wdbc", "idx")
_DEFAULT_QUBITS = {"toy": 1, "wdbc": 5, "idx": 4}

COLUMNS = (
    "kind",
    "sweep_value",
    "seed",
    "replaced_index",
    "iteration",
    "train_risk",
    "test_risk",
    "gap",
    "train_acc",
    "test_acc",
    "sum_abs_dtheta",
    "probe_f_gap",
    "probe_loss_gap",
    "beta_hat",
    "bound_value",
    "stable_margin",
    "margin_flagged",
)

# key -> (parser, default); required keys carry the _REQUIRED sentinel.
_REQUIRED = object()


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


_SCHEMA = {
    "dataset.kind": (_parse_str, _REQUIRED),
    "dataset.path": (_parse_str, None),
    "dataset.images": (_parse_str, None),
    "dataset.labels": (_parse_str, None),
    "dataset.classes": (_parse_int_list, (0, 1)),
    "dataset.pool_size": (_parse_int, 400),
    "dataset.seed": (_parse_int, 1234),
    "dataset.m_train": (_parse_int, _REQUIRED),
    "dataset.m_test": (_parse_int, 0),
    "circuit.qubits": (_parse_int, None),
    "circuit.layers": (_parse_int, 1),
    "circuit.sublayers": (_parse_int, 2),
    "optimizer.learning_rate": (_parse_float, 0.01),
    "optimizer.iterations": (_parse_int, 1000),
    "optimizer.loss": (_parse_str, _LOSS),
    "optimizer.noise_p": (_parse_float, 0.0),
    "optimizer.seeds": (_parse_int_list, (0, 1, 2, 3, 4)),
    "sweep.axis": (_parse_str, "layers"),
    "sweep.values": (_parse_float_list, None),
    "stability.indices": (_parse_int, 4),
    "stability.probes": (_parse_int, 32),
    "bound.delta": (_parse_float, 0.05),
    "output.path": (_parse_str, None),
    "output.format": (_parse_str, "csv"),
    "eval.interval": (_parse_int, None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings plus the raw key-value echo."""

    kind: str
    path: str | None
    images: str | None
    labels: str | None
    classes: tuple[int, int]
    pool_size: int
    data_seed: int
    m_train: int
    m_test: int
    qubits: int
    layers: int
    sublayers: int
    learning_rate: float
    iterations: int
    noise_p: float
    seeds: tuple[int, ...]
    sweep_axis: str
    sweep_values: tuple
    stability_indices: int
    stability_probes: int
    delta: float
    out_path: str | None
    out_format: str
    eval_interval: int | None
    raw: dict = field(repr=False)
    defaults_applied: tuple[str, ...] = ()


def _read_pairs(path: str) -> dict:
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are errors."""
    pairs = _read_pairs(path)
    values: dict[str, object] = {}
    defaults: list[str] = []
    for key, (parser, default) in _SCHEMA.items():
        if key in pairs:
            try:
                values[key] = parser(pairs[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            values[key] = default
            defaults.append(f"{key}={default!r}")

    kind = values["dataset.kind"]
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {_DATASET_KINDS}, got {kind!r}")
    if kind == "wdbc" and not values["dataset.path"]:
        raise ConfigError("dataset.kind = wdbc requires dataset.path")
    if kind == "idx" and not (values["dataset.images"] and values["dataset.labels"]):
        raise ConfigError("dataset.kind = idx requires dataset.images and dataset.labels")
    classes = values["dataset.classes"]
    if kind == "idx" and (len(classes) != 2 or classes[0] == classes[1]):
        raise ConfigError("dataset.classes must list exactly two distinct classes")
    if values["optimizer.loss"] != _LOSS:
        raise ConfigError(f"optimizer.loss must be {_LOSS}, got {values['optimizer.loss']!r}")

    qubits = values["circuit.qubits"]
    if qubits is None:
        qubits = _DEFAULT_QUBITS[kind]
        defaults.append(f"circuit.qubits={qubits}")

    axis = values["sweep.axis"]
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {_SWEEP_AXES}, got {axis!r}")
    raw_sweep = values["sweep.values"]
    if raw_sweep is None:
        base = {
            "layers": values["circuit.layers"],
            "learning_rate": values["optimizer.learning_rate"],
            "m_train": values["dataset.m_train"],
            "noise_p": values["optimizer.noise_p"],
        }[axis]
        raw_sweep = (float(base),)
        defaults.append(f"sweep.values=({base},)")
    if axis in ("layers", "m_train"):
        sweep_values = tuple(int(v) for v in raw_sweep)
        if any(v != int(v) for v in raw_sweep) or any(v < 1 for v in sweep_values):
            raise ConfigError(f"sweep.values for {axis} must be integers >= 1")
    elif axis == "learning_rate":
        sweep_values = tuple(float(v) for v in raw_sweep)
        if any(v <= 0 for v in sweep_values):
            raise ConfigError("sweep.values for learning_rate must be > 0")
    else:
        sweep_values = tuple(float(v) for v in raw_sweep)
        if any(not (0.0 <= v <= 1.0) for v in sweep_values):
            raise ConfigError("sweep.values for noise_p must lie in [0, 1]")
    if not sweep_values:
        raise ConfigError("sweep.values must be non-empty")
    if len(set(sweep_values)) != len(sweep_values):
        raise ConfigError("sweep.values must not repeat a value")

    seeds = values["optimizer.seeds"]
    if not seeds:
        raise ConfigError("optimizer.seeds must be non-empty")
    if any(s < 0 for s in seeds):
        raise ConfigError("optimizer.seeds must be >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("optimizer.seeds must not repeat a seed")

    for key, low in (
        ("dataset.pool_size", 1),
        ("dataset.m_train", 1),
        ("dataset.m_test", 0),
        ("circuit.qubits", 1),
        ("circuit.layers", 1),
        ("circuit.sublayers", 1),
        ("optimizer.iterations", 0),
        ("stability.indices", 1),
        ("stability.probes", 1),
        ("dataset.seed", 0),
    ):
        if values[key] is not None and values[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    if not (0.0 < values["bound.delta"] <= 1.0):
        raise ConfigError("bound.delta must lie in (0, 1]")
    if not (0.0 <= values["optimizer.noise_p"] <= 1.0):
        raise ConfigError("optimizer.noise_p must lie in [0, 1]")
    if values["optimizer.learning_rate"] <= 0.0:
        raise ConfigError("optimizer.learning_rate must be > 0")
    if values["output.format"] not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")
    if values["eval.interval"] is not None and values["eval.interval"] < 1:
        raise ConfigError("eval.interval must be >= 1")

    return ExperimentConfig(
        kind=kind,
        path=values["dataset.path"],
        images=values["dataset.images"],
        labels=values["dataset.labels"],
        classes=tuple(classes)[:2] if kind == "idx" else tuple(classes),
        pool_size=values["dataset.pool_size"],
        data_seed=values["dataset.seed"],
        m_train=values["dataset.m_train"],
        m_test=values["dataset.m_test"],
        qubits=qubits,
        layers=values["circuit.layers"],
        sublayers=values["circuit.sublayers"],
        learning_rate=values["optimizer.learning_rate"],
        iterations=values["optimizer.iterations"],
        noise_p=values["optimizer.noise_p"],
        seeds=tuple(seeds),
        sweep_axis=axis,
        sweep_values=sweep_values,
        stability_indices=values["stability.indices"],
        stability_probes=values["stability.probes"],
        delta=values["bound.delta"],
        out_path=values["output.path"],
        out_format=values["output.format"],
        eval_interval=values["eval.interval"],
        raw=dict(pairs),
        defaults_applied=tuple(defaults),
    )


def load_pool(cfg: ExperimentConfig) -> Dataset:
    """Load the sample pool named by the config."""
    if cfg.kind == "toy":
        return synthetic_toy(cfg.pool_size, cfg.data_seed)
    if cfg.kind == "wdbc":
        return load_wdbc(cfg.path)
    return load_idx_pair(cfg.images, cfg.labels, cfg.classes)  # idx


@dataclass
class ResultTable:
    """Rows of experiment output under a fixed column set."""

    columns: tuple[str, ...]
    rows: list
    meta: dict

    def column(self, name: str, kind: str | None = None) -> list:
        """Values of one column, optionally filtered by row kind."""
        return [
            row.get(name)
            for row in self.rows
            if kind is None or row.get("kind") == kind
        ]


def _cell_settings(cfg: ExperimentConfig, value):
    layers, eta, m_train, noise_p = cfg.layers, cfg.learning_rate, cfg.m_train, cfg.noise_p
    if cfg.sweep_axis == "layers":
        layers = int(value)
    elif cfg.sweep_axis == "learning_rate":
        eta = float(value)
    elif cfg.sweep_axis == "m_train":
        m_train = int(value)
    else:
        noise_p = float(value)
    return layers, eta, m_train, noise_p


def _bound_inputs(cfg: ExperimentConfig, layers: int, eta: float, m_train: int,
                  noise_p: float, iterations: int, n_params: int, data_dim: int,
                  obs_norm: float) -> BoundInputs:
    return BoundInputs(
        layers=layers,
        data_dim=data_dim,
        n_params=n_params,
        m=m_train,
        iterations=iterations,
        eta=eta,
        obs_norm=obs_norm,
        delta=cfg.delta,
        noise_p=noise_p,
    )


def _or_inf(closed_form) -> float:
    """``closed_form()``, or inf once the closed form overflows float64.

    A run reaches the closed forms only after its training is done, so an
    overflow is reported in the table rather than discarding the run."""
    try:
        return float(closed_form())
    except OverflowError:
        return float("inf")


def _require_pool(cfg: ExperimentConfig, pool: Dataset, held_out: int, key: str) -> None:
    """Reject a pool too small for the largest m_train plus ``held_out`` samples."""
    m_train = max(_cell_settings(cfg, value)[2] for value in cfg.sweep_values)
    if len(pool) < m_train + held_out:
        raise ConfigError(
            f"the pool has {len(pool)} samples, fewer than dataset.m_train + {key} "
            f"= {m_train} + {held_out}"
        )


def _blank_row(kind: str, value, seed="") -> dict:
    row = {c: "" for c in COLUMNS}
    row["kind"] = kind
    row["sweep_value"] = value
    row["seed"] = seed
    return row


def _meta(cfg: ExperimentConfig, pool: Dataset, command: str, seed_offset: int) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": dict(cfg.raw),
        "defaults_applied": list(cfg.defaults_applied),
        "dataset": pool.name,
        "provenance": dict(pool.provenance),
        "seed_offset": seed_offset,
    }


def _experiment_cells(cfg: ExperimentConfig, pool: Dataset, values, seeds) -> list[dict]:
    """Sample rows of sweep values that differ only in ``m_train``.

    Every (value, seed) run of ``values`` trains in one lockstep batch; the
    rows come out value by value, seeds in order.  A run's rows do not
    depend on the batch it rides in.
    """
    layers, eta, _, noise_p = _cell_settings(cfg, values[0])
    cells = [(value, _cell_settings(cfg, value)[2], seed) for value in values for seed in seeds]
    splits = [subsample_split(pool, m_train, cfg.m_test, (cfg.data_seed, seed))
              for _, m_train, seed in cells]
    if cfg.kind == "wdbc":
        splits = [rescale_with_train_stats(*split) for split in splits]
    circuit = build_circuit(cfg.qubits, layers, pool.feature_dim, cfg.sublayers)
    obs = z_observable(cfg.qubits)
    train_sets, test_sets = zip(*splits)
    runs = _train_runs(train_sets, test_sets, [seed for *_, seed in cells], circuit, obs,
                       TrainConfig(eta, cfg.iterations, seeds[0], noise_p),
                       eval_interval=cfg.eval_interval)
    rows = []
    for (value, m_train, seed), run in zip(cells, runs):
        margin = stable_training_margin(
            _bound_inputs(cfg, layers, eta, m_train, noise_p, max(cfg.iterations, 1),
                          circuit.n_params, pool.feature_dim, obs.norm)
        )
        for i, t in enumerate(run.eval_points):
            row = _blank_row("sample", value, seed)
            row["iteration"] = int(t)
            row["train_risk"] = float(run.train_risks[i])
            row["test_risk"] = float(run.test_risks[i])
            row["gap"] = float(run.test_risks[i] - run.train_risks[i])
            row["train_acc"] = float(run.train_accs[i])
            row["test_acc"] = float(run.test_accs[i])
            b = _bound_inputs(cfg, layers, eta, m_train, noise_p, max(int(t), 1),
                              circuit.n_params, pool.feature_dim, obs.norm)
            row["bound_value"] = _or_inf(
                lambda: noisy_generalization_bound(b) if t > 0 else generalization_bound(0.0, b))
            row["stable_margin"] = float(margin.value)
            row["margin_flagged"] = int(margin.flagged)
            rows.append(row)
    return rows


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0) -> ResultTable:
    """Sweep (values x seeds) and tabulate learning curves.

    An ``m_train`` axis trains all its runs in one lockstep batch; the
    other axes train one batch per value, its seeds in lockstep."""
    if cfg.m_test < 1:
        raise ConfigError("run requires dataset.m_test >= 1")
    pool = load_pool(cfg)
    _require_pool(cfg, pool, cfg.m_test, "dataset.m_test")
    seeds = [s + seed_offset for s in cfg.seeds]
    batches = ([cfg.sweep_values] if cfg.sweep_axis == "m_train"
               else [[value] for value in cfg.sweep_values])
    rows = [row for values in batches
            for row in _experiment_cells(cfg, pool, values, seeds)]

    # Aggregates per (sweep value, iteration) across seeds.
    agg_cols = ("train_risk", "test_risk", "gap", "train_acc", "test_acc",
                "bound_value", "stable_margin")
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["sweep_value"], row["iteration"]), []).append(row)
    for value in cfg.sweep_values:
        iterations = sorted(t for v, t in groups if v == value)
        for kind, stat in (("mean", np.mean), ("std", np.std)):
            for t in iterations:
                agg_row = _blank_row(kind, value)
                agg_row["iteration"] = t
                for col in agg_cols:
                    data = np.array([r[col] for r in groups[value, t]], dtype=float)
                    with np.errstate(invalid="ignore"):  # the std of inf bounds is nan
                        agg_row[col] = float(stat(data))
                rows.append(agg_row)

    return ResultTable(COLUMNS, rows, _meta(cfg, pool, "run", seed_offset))


def run_stability(cfg: ExperimentConfig, seed_offset: int = 0) -> ResultTable:
    """Per sweep value: coupled-divergence traces, beta_hat, and closed forms."""
    pool = load_pool(cfg)
    _require_pool(cfg, pool, cfg.stability_probes, "stability.probes")
    seeds = [s + seed_offset for s in cfg.seeds]
    rows: list[dict] = []
    for vi, value in enumerate(cfg.sweep_values):
        layers, eta, m_train, noise_p = _cell_settings(cfg, value)
        train_set, probe_set = subsample_split(
            pool, m_train, cfg.stability_probes, (cfg.data_seed, 777, vi)
        )
        if cfg.kind == "wdbc":
            train_set, probe_set = rescale_with_train_stats(train_set, probe_set)
        circuit = build_circuit(cfg.qubits, layers, pool.feature_dim, cfg.sublayers)
        obs = z_observable(cfg.qubits)
        swaps = [(int(index), replacement_for(int(index), probe_set))
                 for index in sampled_indices(m_train, cfg.stability_indices)]
        traces, beta = coupled_ensemble(
            train_set, probe_set, swaps, seeds, circuit, obs,
            TrainConfig(eta, cfg.iterations, seeds[0], noise_p),
        )
        for trace in traces:
            for t in range(cfg.iterations + 1):
                row = _blank_row("trace", value, trace.seed)
                row["replaced_index"] = trace.replaced_index
                row["iteration"] = t
                row["sum_abs_dtheta"] = float(trace.sum_abs_dtheta[t])
                row["probe_f_gap"] = float(trace.probe_f_gap[t])
                row["probe_loss_gap"] = float(trace.probe_loss_gap[t])
                rows.append(row)
        b = _bound_inputs(cfg, layers, eta, m_train, noise_p,
                          max(cfg.iterations, 1), circuit.n_params,
                          pool.feature_dim, obs.norm)
        margin = stable_training_margin(b)
        beta_row = _blank_row("beta", value)
        beta_row["iteration"] = cfg.iterations
        beta_row["beta_hat"] = float(beta)
        beta_row["bound_value"] = _or_inf(lambda: noisy_theoretical_beta(b))
        beta_row["stable_margin"] = float(margin.value)
        beta_row["margin_flagged"] = int(margin.flagged)
        rows.append(beta_row)
    return ResultTable(COLUMNS, rows, _meta(cfg, pool, "stability", seed_offset))


def _format_cell(value) -> str:
    if value == "" or value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_results(table: ResultTable, path: str, fmt: str) -> None:
    """Write the table as CSV (header + rows) or JSON (meta + rows).

    Both formats are UTF-8 with LF line endings; floats are written as
    their shortest round-trip decimal.  CSV output is byte-reproducible;
    JSON differs between runs only in ``meta.created_utc``.
    """
    if fmt == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_format_cell(row.get(c, "")) for c in table.columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        meta = dict(table.meta)
        meta["created_utc"] = datetime.now(timezone.utc).isoformat()
        payload = {
            "meta": meta,
            "columns": list(table.columns),
            "rows": [
                {c: (None if row.get(c, "") == "" else row.get(c)) for c in table.columns}
                for row in table.rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --- command line ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="output path (overrides output.path)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: a sweep value's seeds train in lockstep in one "
                             "process; still parsed so scripts that pass it keep working")
    parser.add_argument("--seed-offset", type=int, default=0,
                        help="added to every configured seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reupqnn",
        description="Train re-uploading circuits and evaluate stability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep experiment with learning curves")
    _add_common(run_p)

    stab_p = sub.add_parser("stability", help="coupled-divergence and beta_hat sweep")
    _add_common(stab_p)

    bound_p = sub.add_parser("bound", help="print closed-form bounds for given constants")
    bound_p.add_argument("--layers", type=int, required=True)
    bound_p.add_argument("--data-dim", type=int, required=True)
    bound_p.add_argument("--params", type=int, required=True)
    bound_p.add_argument("--train-size", type=int, required=True)
    bound_p.add_argument("--iterations", type=int, required=True)
    bound_p.add_argument("--eta", type=float, required=True)
    bound_p.add_argument("--obs-norm", type=float, default=1.0)
    bound_p.add_argument("--lipschitz", type=float, default=LIPSCHITZ)
    bound_p.add_argument("--smoothness", type=float, default=SMOOTHNESS)
    bound_p.add_argument("--loss-bound", type=float, default=LOSS_BOUND)
    bound_p.add_argument("--delta", type=float, default=0.05)
    bound_p.add_argument("--noise-p", type=float, default=0.0)

    comb_p = sub.add_parser("validate-comb", help="check comb conditions of a matrix")
    comb_p.add_argument("--matrix", required=True, help=".npy file with the operator")
    comb_p.add_argument("--dims", required=True,
                        help="comma-separated system dims in causal order")

    return parser


def _cmd_run(args, runner) -> int:
    cfg = parse_config(args.config)
    out_path = args.out or cfg.out_path
    if not out_path:
        raise ConfigError("no output path: set output.path or pass --out")
    fmt = args.format or cfg.out_format
    table = runner(cfg, seed_offset=args.seed_offset)
    emit_results(table, out_path, fmt)
    print(f"wrote {len(table.rows)} rows to {out_path} ({fmt})")
    return 0


def _cmd_bound(args) -> int:
    b = BoundInputs(
        layers=args.layers,
        data_dim=args.data_dim,
        n_params=args.params,
        m=args.train_size,
        iterations=args.iterations,
        eta=args.eta,
        obs_norm=args.obs_norm,
        lipschitz=args.lipschitz,
        smoothness=args.smoothness,
        loss_bound=args.loss_bound,
        delta=args.delta,
        noise_p=args.noise_p,
    )
    margin = stable_training_margin(b)
    lines = {
        "theoretical_beta": lambda: theoretical_beta(b),
        "generalization_bound": lambda: generalization_bound(theoretical_beta(b), b),
    }
    if args.noise_p > 0.0:
        lines["noisy_theoretical_beta"] = lambda: noisy_theoretical_beta(b)
        lines["noisy_generalization_bound"] = lambda: noisy_generalization_bound(b)
    for name, closed_form in lines.items():
        print(f"{name} = {_or_inf(closed_form)!r}")
    print(f"stable_training_margin = {margin.value!r}")
    print(f"margin_flagged = {str(margin.flagged).lower()}")
    return 0


def _cmd_validate_comb(args) -> int:
    try:
        dims = [int(v.strip()) for v in args.dims.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--dims: {exc}") from None
    if len(dims) < 2 or len(dims) % 2 != 0 or any(d < 1 for d in dims):
        raise ConfigError(
            "--dims must list an even number (>= 2) of positive dimensions"
        )
    try:
        matrix = np.load(args.matrix)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot load {args.matrix}: {exc}") from None
    total = int(np.prod(dims))
    if matrix.shape != (total, total):
        raise DataFormatError(
            f"matrix shape {matrix.shape} does not match dims product {total}"
        )
    systems = tuple(SystemLabel(f"w{i + 1}", d) for i, d in enumerate(dims))
    op = ChoiOperator(systems, matrix.astype(complex))
    n_teeth = (len(dims) - 2) // 2
    teeth = [(f"w{2 * i + 2}", f"w{2 * i + 3}") for i in range(n_teeth)]
    report = validate_comb(op, teeth)
    print(f"comb = {str(report.is_comb).lower()}")
    for violation in report.violations:
        print(f"violation: {violation}")
    return 0


def main(argv=None) -> int:
    """CLI entry point.  Exit codes: 0 ok, 2 config, 3 data, 4 capacity."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, run_experiment)
        if args.command == "stability":
            return _cmd_run(args, run_stability)
        if args.command == "bound":
            return _cmd_bound(args)
        return _cmd_validate_comb(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
