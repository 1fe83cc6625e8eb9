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
m_train or noise_p) crosses a list of values with the seed list; each
value obeys the rule of the scalar key it replaces (circuit.layers,
optimizer.learning_rate, dataset.m_train, optimizer.noise_p), and every
(value, seed) cell is an independent pure computation, so re-running a
config reproduces the result rows byte for byte.  ``run`` and
``stability`` share one sweep driver, `_sweep_rows`: it checks the seeds
and the pool and hands the command's row builder each batch of sweep
values that share a circuit, whose runs train in one lockstep batch (see
`_batches`); a cell's rows do not depend on which other runs share its
batch.

Result tables always carry the same column set, and every row holds
every column in order; cells that do not apply to a row kind stay empty.
Row kinds: ``sample`` (per-seed learning curves), ``mean``/``std``
(per-iteration aggregates across seeds, population standard deviation),
``trace`` (coupled-divergence curves), ``beta`` (one empirical stability
estimate per sweep value).  ``run`` writes every sample row in
sweep-value order, then each value's mean rows and its std rows;
``stability`` writes each value's trace rows and then its beta row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field, fields, replace
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
    _swaps,
    coupled_ensemble,
    generalization_bound,
    noisy_generalization_bound,
    noisy_theoretical_beta,
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


_LOSS = "scaled_squared"  # the one loss, (f - y)^2 / 4; see reupqnn.train
_DEFAULT_QUBITS = {"toy": 1, "wdbc": 5, "idx": 4}
# A sweep axis is the ExperimentConfig field of the scalar key it varies.
_AXIS_KEYS = {
    "layers": "circuit.layers",
    "learning_rate": "optimizer.learning_rate",
    "m_train": "dataset.m_train",
    "noise_p": "optimizer.noise_p",
}

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
# Every table row is built on this one, so it holds each column in order.
_BLANK = dict.fromkeys(COLUMNS, "")


@dataclass(frozen=True)
class _Range:
    """Finite numbers from ``low`` (excluded when ``open``) up to ``high``."""

    low: float
    high: float = math.inf
    open: bool = False

    def __contains__(self, value) -> bool:
        # Compared, never converted to float: an integer past the float
        # range is refused by a finite ``high``, not an OverflowError.
        above = self.low < value if self.open else self.low <= value
        return above and value <= self.high and value < math.inf

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"be {'>' if self.open else '>='} {self.low}"
        return f"lie in {'(' if self.open else '['}{self.low}, {self.high}]"


def _integer(text: str) -> int:
    """An integer, also when written as an integral decimal such as ``2.0``."""
    try:
        return int(text)
    except ValueError:
        try:
            if float(text).is_integer():
                return int(float(text))
        except ValueError:
            pass
        raise ValueError(f"{text!r} is not an integer") from None


def _list_of(item):
    """Parser of a comma-separated list of ``item`` values."""
    return lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())


_SEEDS = _Range(0, 2**64 - 1)  # a seed is one 64-bit word of a Philox key

# key -> (ExperimentConfig field, parser, default, allowed values or None).
# Required keys carry the _REQUIRED sentinel; a list key's range bounds
# each entry, and sweep.values takes the parser and range of its axis key.
_REQUIRED = object()
_SCHEMA = {
    "dataset.kind": ("kind", str, _REQUIRED, ("toy", "wdbc", "idx")),
    "dataset.path": ("path", str, None, None),
    "dataset.images": ("images", str, None, None),
    "dataset.labels": ("labels", str, None, None),
    "dataset.classes": ("classes", _list_of(_integer), (0, 1), None),
    "dataset.pool_size": ("pool_size", _integer, 400, _Range(1)),
    "dataset.seed": ("data_seed", _integer, 1234, _Range(0)),
    "dataset.m_train": ("m_train", _integer, _REQUIRED, _Range(1)),
    "dataset.m_test": ("m_test", _integer, 0, _Range(0)),
    "circuit.qubits": ("qubits", _integer, None, _Range(1)),
    "circuit.layers": ("layers", _integer, 1, _Range(1)),
    "circuit.sublayers": ("sublayers", _integer, 2, _Range(1)),
    "optimizer.learning_rate": ("learning_rate", float, 0.01, _Range(0, open=True)),
    "optimizer.iterations": ("iterations", _integer, 1000, _Range(0)),
    "optimizer.loss": (None, str, _LOSS, (_LOSS,)),
    "optimizer.noise_p": ("noise_p", float, 0.0, _Range(0, 1)),
    "optimizer.seeds": ("seeds", _list_of(_integer), (0, 1, 2, 3, 4), _SEEDS),
    "sweep.axis": ("sweep_axis", str, "layers", tuple(_AXIS_KEYS)),
    "sweep.values": ("sweep_values", None, None, None),
    "stability.indices": ("stability_indices", _integer, 4, _Range(1)),
    "stability.probes": ("stability_probes", _integer, 32, _Range(1)),
    "bound.delta": ("delta", float, 0.05, _Range(0, 1, open=True)),
    "output.path": ("out_path", str, None, None),
    "output.format": ("out_format", str, "csv", ("csv", "json")),
    "eval.interval": ("eval_interval", _integer, None, _Range(1)),
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
    values: dict = {}
    defaults: list[str] = []
    for key, (name, parser, default, allowed) in _SCHEMA.items():
        label = key
        if name == "sweep_values":  # each value obeys the rule of the key it sweeps
            swept = _AXIS_KEYS[values["sweep_axis"]]
            label = f"{key} for {swept}"
            _, item, _, allowed = _SCHEMA[swept]
            parser = _list_of(item)
        if key in pairs:
            try:
                value = parser(pairs[key])
            except ValueError as exc:
                raise ConfigError(f"{label}: {exc}") from None
            for entry in value if isinstance(value, tuple) else (value,):
                if allowed is not None and entry not in allowed:
                    rule = allowed if isinstance(allowed, _Range) else f"be one of {allowed}"
                    raise ConfigError(f"{label} must {rule}, got {entry!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            value = default
            defaults.append(f"{key}={default!r}")
        values[name] = value
    del values[None]  # optimizer.loss is checked, not kept

    kind = values["kind"]
    if kind == "wdbc" and not values["path"]:
        raise ConfigError("dataset.kind = wdbc requires dataset.path")
    if kind == "idx" and not (values["images"] and values["labels"]):
        raise ConfigError("dataset.kind = idx requires dataset.images and dataset.labels")
    classes = values["classes"]
    if kind == "idx" and (len(classes) != 2 or classes[0] == classes[1]):
        raise ConfigError("dataset.classes must list exactly two distinct classes")
    if values["qubits"] is None:
        values["qubits"] = _DEFAULT_QUBITS[kind]
        defaults.append(f"circuit.qubits={values['qubits']}")
    if values["sweep_values"] is None:
        values["sweep_values"] = (values[values["sweep_axis"]],)
        defaults.append(f"sweep.values={values['sweep_values']!r}")
    for key in ("optimizer.seeds", "sweep.values"):
        entries = values[_SCHEMA[key][0]]
        if not entries:
            raise ConfigError(f"{key} must be non-empty")
        if len(set(entries)) != len(entries):
            raise ConfigError(f"{key} must not repeat a value")
    return ExperimentConfig(**values, raw=dict(pairs), defaults_applied=tuple(defaults))


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


def _cells(cfg: ExperimentConfig) -> list:
    """(value, cell) per sweep value; a cell is the config with its axis set to the value."""
    return [(value, replace(cfg, **{cfg.sweep_axis: value})) for value in cfg.sweep_values]


def _batches(cfg: ExperimentConfig) -> list[list]:
    """Cells that train together in one lockstep batch, in sweep order.

    Cells share a batch when they share a circuit (``layers``): a
    ``layers`` axis is one batch per value, and any other axis one batch."""
    batches: dict = {}
    for value, cell in _cells(cfg):
        batches.setdefault(cell.layers, []).append((value, cell))
    return list(batches.values())


def _bound_inputs(cell: ExperimentConfig, iterations: int, circuit, obs) -> BoundInputs:
    return BoundInputs(
        layers=cell.layers,
        data_dim=circuit.data_dim,
        n_params=circuit.n_params,
        m=cell.m_train,
        iterations=iterations,
        eta=cell.learning_rate,
        obs_norm=obs.norm,
        delta=cell.delta,
        noise_p=cell.noise_p,
    )


def _or_inf(closed_form) -> float:
    """``closed_form()``, or inf once the closed form overflows float64.

    A run reaches the closed forms only after its training is done, so an
    overflow is reported in the table rather than discarding the run."""
    try:
        return float(closed_form())
    except OverflowError:
        return float("inf")


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


def _split(cell: ExperimentConfig, pool: Dataset, held_out: int, key) -> tuple:
    """The cell's m_train samples and ``held_out`` others, drawn by ``key``;
    wdbc features rescaled by the training half's statistics."""
    split = subsample_split(pool, cell.m_train, held_out, key)
    return rescale_with_train_stats(*split) if cell.kind == "wdbc" else split


def _sweep_rows(cfg: ExperimentConfig, seed_offset: int, key: str, value_rows) -> tuple:
    """The sweep driver of ``run`` and ``stability``: (pool, each sweep
    value's rows, in sweep order).

    The seeds are offset and checked, the pool must hold the largest
    m_train plus the samples of config ``key`` held out, and each
    `_batches` batch gets its circuit and observable once.  ``value_rows``
    is called as ``value_rows(cells, pool, seeds, circuit, obs)`` on a
    batch's (value, cell) pairs and yields each value's rows in turn.
    """
    seeds = [s + seed_offset for s in cfg.seeds]
    for seed in seeds:
        if seed not in _SEEDS:
            raise ConfigError(
                f"optimizer.seeds with --seed-offset {seed_offset} must {_SEEDS}, got {seed}"
            )
    pool = load_pool(cfg)
    m_train = max(cell.m_train for _, cell in _cells(cfg))
    held_out = getattr(cfg, _SCHEMA[key][0])
    if len(pool) < m_train + held_out:
        raise ConfigError(
            f"the pool has {len(pool)} samples, fewer than dataset.m_train + {key} "
            f"= {m_train} + {held_out}"
        )
    results = []
    for cells in _batches(cfg):
        shared = cells[0][1]  # the circuit settings every cell shares
        circuit = build_circuit(shared.qubits, shared.layers, pool.feature_dim, shared.sublayers)
        results += value_rows(cells, pool, seeds, circuit, z_observable(shared.qubits))
    return pool, results


def _run_rows(cells, pool: Dataset, seeds, circuit, obs):
    """Yield (sample rows, mean and std rows) of each (value, cell) pair of
    one `_batches` batch, in the order of ``cells``.

    Every (value, seed) run trains in one lockstep batch under its cell's
    settings.  A run's rows do not depend on the batch it rides in.
    """
    runs_of = [(cell, seed) for _, cell in cells for seed in seeds]
    splits = [_split(cell, pool, cell.m_test, (cell.data_seed, seed)) for cell, seed in runs_of]
    runs = _train_runs(
        [(train_set, TrainConfig(cell.learning_rate, cell.iterations, seed, cell.noise_p))
         for (train_set, _), (cell, seed) in zip(splits, runs_of)],
        [test_set for _, test_set in splits], circuit, obs, cells[0][1].eval_interval)
    for vi, (value, cell) in enumerate(cells):
        value_runs = runs[vi * len(seeds):(vi + 1) * len(seeds)]
        points = value_runs[0].eval_points.tolist()
        bounds = [_or_inf(lambda: noisy_generalization_bound(_bound_inputs(cell, t, circuit, obs)))
                  for t in points]
        margin = stable_training_margin(_bound_inputs(cell, cell.iterations, circuit, obs))
        curves = {
            "train_risk": [run.train_risks for run in value_runs],
            "test_risk": [run.test_risks for run in value_runs],
            "gap": [run.test_risks - run.train_risks for run in value_runs],
            "train_acc": [run.train_accs for run in value_runs],
            "test_acc": [run.test_accs for run in value_runs],
            "bound_value": [bounds] * len(seeds),
            "stable_margin": [[margin.value] * len(points)] * len(seeds),
        }
        # (points, columns, seeds), the seeds contiguous: a reduction over
        # them then rounds as the 1-D reduction of one column's seeds does,
        # which one over a strided axis does not from 8 seeds on.
        stacked = np.ascontiguousarray(np.array(list(curves.values())).transpose(2, 0, 1))
        samples = [{**_BLANK, "kind": "sample", "sweep_value": value, "seed": seed,
                    "iteration": t, **dict(zip(curves, entries)),
                    "margin_flagged": int(margin.flagged)}
                   for seed, block in zip(seeds, stacked.transpose(2, 0, 1).tolist())
                   for t, entries in zip(points, block)]
        with np.errstate(invalid="ignore"):  # the std of inf bounds is nan
            stats = [(kind, stat(stacked, axis=-1).tolist())
                     for kind, stat in (("mean", np.mean), ("std", np.std))]
        yield samples, [{**_BLANK, "kind": kind, "sweep_value": value, "iteration": t,
                         **dict(zip(curves, entries))}
                        for kind, table in stats for t, entries in zip(points, table)]


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0) -> ResultTable:
    """Sweep (values x seeds) and tabulate learning curves: every sample
    row in sweep order, then each value's mean rows and std rows.

    The runs of every `_batches` batch train in lockstep: every run on
    one circuit, so all runs of an ``m_train``, ``learning_rate`` or
    ``noise_p`` axis, and one ``layers`` value's seeds."""
    if cfg.m_test < 1:
        raise ConfigError("run requires dataset.m_test >= 1")
    pool, results = _sweep_rows(cfg, seed_offset, "dataset.m_test", _run_rows)
    rows = [row for samples, _ in results for row in samples]
    rows += [row for _, aggregates in results for row in aggregates]
    return ResultTable(COLUMNS, rows, _meta(cfg, pool, "run", seed_offset))


def _stability_rows(cells, pool: Dataset, seeds, circuit, obs):
    """Yield the trace rows and then the beta row of each (value, cell) pair
    of one `_batches` batch, in the order of ``cells``.

    All coupled runs train in one lockstep ensemble, each group under its
    cell's settings.  The value at position vi of the sweep draws its split
    keyed by (data seed, 777, vi), whatever batch it rides in.
    """
    groups = []
    for value, cell in cells:
        vi = cell.sweep_values.index(value)
        train_set, probe_set = _split(cell, pool, cell.stability_probes,
                                      (cell.data_seed, 777, vi))
        swaps = _swaps(cell.m_train, cell.stability_indices, probe_set)
        configs = [TrainConfig(cell.learning_rate, cell.iterations, seed, cell.noise_p)
                   for seed in seeds]
        groups.append((train_set, probe_set, swaps, configs))
    results = coupled_ensemble(groups, circuit, obs)
    for (value, cell), (traces, beta) in zip(cells, results):
        rows = [{**_BLANK, "kind": "trace", "sweep_value": value, "seed": trace.seed,
                 "replaced_index": trace.replaced_index, "iteration": t,
                 "sum_abs_dtheta": dtheta, "probe_f_gap": f_gap, "probe_loss_gap": loss_gap}
                for trace in traces
                for t, (dtheta, f_gap, loss_gap) in enumerate(zip(
                    trace.sum_abs_dtheta.tolist(), trace.probe_f_gap.tolist(),
                    trace.probe_loss_gap.tolist()))]
        b = _bound_inputs(cell, cell.iterations, circuit, obs)
        margin = stable_training_margin(b)
        rows.append({**_BLANK, "kind": "beta", "sweep_value": value,
                     "iteration": cell.iterations, "beta_hat": float(beta),
                     "bound_value": _or_inf(lambda: noisy_theoretical_beta(b)),
                     "stable_margin": float(margin.value),
                     "margin_flagged": int(margin.flagged)})
        yield rows


def run_stability(cfg: ExperimentConfig, seed_offset: int = 0) -> ResultTable:
    """Per sweep value: coupled-divergence traces, beta_hat, and closed
    forms; each value's trace rows, then its beta row, in sweep order.

    The coupled runs of every `_batches` batch train in one lockstep
    ensemble: every run on one circuit, so all values of an ``m_train``,
    ``learning_rate`` or ``noise_p`` axis, and one ``layers`` value."""
    pool, results = _sweep_rows(cfg, seed_offset, "stability.probes", _stability_rows)
    rows = [row for value_rows in results for row in value_rows]
    return ResultTable(COLUMNS, rows, _meta(cfg, pool, "stability", seed_offset))


# Cells of these exact types are written as str(value), which for a float
# is its repr, the shortest round-trip decimal.  Subclasses (bool,
# np.float64) go through `_format_cell`.
_PLAIN = frozenset((str, int, float))


def _format_cell(value) -> str:
    if type(value) in _PLAIN:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_cell(value):
    if isinstance(value, np.generic):
        value = value.item()  # the Python value a numpy scalar holds
    if value == "":
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf", "-inf" or "nan", as in the CSV
    return value


def emit_results(table: ResultTable, path: str, fmt: str) -> None:
    """Write the table as CSV (header + rows) or JSON (meta + rows).

    Both formats are UTF-8 with LF line endings; floats are written as
    their shortest round-trip decimal, and a non-finite float as the
    string ``inf``, ``-inf`` or ``nan`` (a JSON string, so the file
    stays strict JSON).  CSV output is byte-reproducible; JSON differs
    between runs only in ``meta.created_utc`` and, across machines, in
    ``meta.environment``: the Python and numpy versions and the CPU count.
    """
    if fmt == "json":
        meta = dict(table.meta)
        meta["created_utc"] = datetime.now(timezone.utc).isoformat()
        meta["environment"] = {"python": platform.python_version(), "numpy": np.__version__,
                               "cpu_count": os.cpu_count()}
        payload = {
            "meta": meta,
            "columns": list(table.columns),
            "rows": [
                {c: _json_cell(row.get(c, "")) for c in table.columns}
                for row in table.rows
            ],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif fmt != "csv":
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "json":
            fh.write(text)
        else:  # row by row, so the table's text is never held whole in memory
            columns = tuple(table.columns)
            fh.write(",".join(columns) + "\n")
            line = ",".join(["%s"] * len(columns)) + "\n"  # %s is str()
            for row in table.rows:
                # A row holding every column in order gives its cells as is.
                if tuple(row) == columns:
                    cells = row.values()
                else:
                    cells = [row.get(c, "") for c in columns]
                if not _PLAIN.issuperset(map(type, cells)):
                    cells = map(_format_cell, cells)
                fh.write(line % tuple(cells))


# --- command line ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="output path (overrides output.path)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: every run of a batch trains in lockstep in one "
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
    bound_p.add_argument("--params", dest="n_params", metavar="PARAMS", type=int, required=True)
    bound_p.add_argument("--train-size", dest="m", metavar="TRAIN_SIZE", type=int, required=True)
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
    try:
        b = BoundInputs(**{f.name: getattr(args, f.name) for f in fields(BoundInputs)})
    except ValueError as exc:
        raise ConfigError(f"bound: {exc}") from None
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
    if not isinstance(matrix, np.ndarray):
        matrix.close()  # an .npz archive keeps its file open
        raise DataFormatError(
            f"{args.matrix} holds a {type(matrix).__name__}, not a single .npy array"
        )
    total = math.prod(dims)
    if matrix.shape != (total, total):
        raise DataFormatError(
            f"matrix shape {matrix.shape} does not match dims product {total}"
        )
    if matrix.dtype.kind not in "biufc":
        raise DataFormatError(f"matrix dtype {matrix.dtype} is not numeric")
    if not np.all(np.isfinite(matrix)):
        raise DataFormatError("matrix has non-finite entries")
    systems = tuple(SystemLabel(f"w{i + 1}", d) for i, d in enumerate(dims))
    op = ChoiOperator(systems, matrix)
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
