"""Span tracer wrapped around reupqnn's public functions from outside the package.

``Tracer.install`` replaces every public function of the nine package
modules (plus ``Dataset.replace``, ``QuantumState`` validation and the
``numpy.linalg.eigvalsh`` calls the package makes) with a timing wrapper,
and rebinds every module attribute that pointed at an original.  That
matters because the package imports functions by name across modules
(``from .ansatz import forward_many`` in grad, train and stability, and so
on): wrapping only the defining module would silently miss those calls.
``Tracer.unwrapped_bindings`` is the self-test for it.

A span's self time is its duration minus the durations of the spans it
called.  Spans nest through a plain stack: the benchmark runs one process
with ``--threads 1``, so there is no concurrent span.  Computed work
counters ride on the same wrappers; their formulas are in NOTES.md.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("qcore", "ansatz", "grad", "train", "noise", "stability", "comb", "data", "experiments")
_METHODS = (("data", "Dataset", "replace", "data.Dataset.replace"),
            ("qcore", "QuantumState", "__post_init__", "qcore.QuantumState"))
ROOT_SPAN = "bench.rep"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _digest(features, labels) -> bytes:
    h = hashlib.sha1(np.ascontiguousarray(features).tobytes())
    h.update(np.ascontiguousarray(labels).tobytes())
    return h.digest()


def gates_per_row(circuit) -> int:
    """Gates ``forward_many`` applies per row: Ry and CX of every trainable
    sublayer plus the non-filler encoding rotations (fillers are skipped)."""
    n = circuit.n_qubits
    return (circuit.layers + 1) * circuit.sublayers * (2 * n - 1) + circuit.layers * circuit.data_dim


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.run_keys = set()
        self.eval_keys = set()

    # --- spans ------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self.stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += d - frame[1]
            self.total_s[name] += d  # no span name recurses into itself
            if stack:
                stack[-1][1] += d

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name`` (used for the root span)."""
        return self._span(name, fn, args, kwargs)

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            result = tracer._span(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs)
            return result

        return wrapper

    def _wrap_eigvalsh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return tracer._span(caller.rsplit(".", 1)[-1] + ".eigvalsh", fn, args, kwargs)

        return wrapper

    # --- install / uninstall ----------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "reupqnn" or name.startswith("reupqnn."))]

    def install(self):
        """Wrap every public function and rebind every reference to it."""
        import reupqnn  # noqa: F401  (the package must be importable)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"reupqnn.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patch(mod, attr, wrappers[id(val)][1])
        for layer, cls_name, attr, span in _METHODS:
            cls = getattr(sys.modules[f"reupqnn.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(span, vars(cls)[attr]))
        self._patch(np.linalg, "eigvalsh", self._wrap_eigvalsh(np.linalg.eigvalsh))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def unwrapped_bindings(self) -> list[str]:
        """Names in reupqnn (or numpy.linalg) that still point at a wrapped original."""
        originals = {id(old): old for _, _, old in self._patches}
        owners = self._modules() + [np.linalg]
        owners += [getattr(sys.modules[f"reupqnn.{layer}"], cls) for layer, cls, _, _ in _METHODS]
        bad = []
        for owner in owners:
            for attr, val in vars(owner).items():
                if id(val) in originals and originals[id(val)] is val:
                    bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        if not self._patches:
            bad.append("nothing installed")
        return bad

    # --- per-layer metrics --------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer values of one traced repetition lasting ``wall`` seconds."""
        c, s, n = self.calls, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in set(c) | set(s):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = ratio(sum(v for k, v in s.items() if k.startswith(layer + ".")), wall)
        fm = "ansatz.forward_many"
        out[f"{fm}.rows"] = n[f"{fm}.rows"]
        out[f"{fm}.rows_per_call"] = ratio(n[f"{fm}.rows"], c[fm])
        out[f"{fm}.gate_rows"] = n[f"{fm}.gate_rows"]
        out[f"{fm}.gate_rows_per_s"] = ratio(n[f"{fm}.gate_rows"], s[fm])
        out[f"{fm}.bytes_computed"] = n[f"{fm}.bytes_computed"]
        out["grad.loss_grad.rows_per_call"] = ratio(n["grad.loss_grad.rows"], c["grad.loss_grad"])
        out["train.risk.rows"] = n["train.risk.rows"]
        out["train.accuracy.rows"] = n["train.accuracy.rows"]
        out["train.runs"] = n["train.runs"]
        out["train.distinct_run_ratio"] = ratio(len(self.run_keys), n["train.runs"])
        out["train.evals"] = c["train.risk"] + c["train.accuracy"]
        out["train.eval_useful_ratio"] = ratio(len(self.eval_keys), out["train.evals"])
        out["stability.probe_rows"] = n["stability.probe_rows"]
        out["qcore.state_checks_per_forward"] = ratio(c["qcore.eigvalsh"], c["noise.noisy_forward"])
        out["experiments.emit_results.bytes"] = n["experiments.emit_results.bytes"]
        out["trace.unattributed_frac"] = ratio(s[ROOT_SPAN], wall)
        return out


# --- counter hooks ------------------------------------------------------------


def _add_rows(tracer, rows):
    """Credit circuit evaluations to the open loss_grad, risk and accuracy
    spans, and to probe scoring when a stability function called directly."""
    stack = tracer.stack
    for frame in stack:
        if frame[0] in ("grad.loss_grad", "train.risk", "train.accuracy"):
            tracer.counts[frame[0] + ".rows"] += rows
    if stack and stack[-1][0] in ("stability.coupled_divergence", "stability.empirical_beta"):
        tracer.counts["stability.probe_rows"] += rows


def _forward_many(tracer, args, kwargs):
    circuit = _arg(args, kwargs, 0, "circuit")
    thetas, xs = _arg(args, kwargs, 1, "thetas"), _arg(args, kwargs, 2, "xs")
    st, sx = np.shape(thetas), np.shape(xs)
    rows = max(st[0] if len(st) == 2 else 1, sx[0] if len(sx) == 2 else 1)
    gate_rows = rows * gates_per_row(circuit)
    n = tracer.counts
    n["ansatz.forward_many.rows"] += rows
    n["ansatz.forward_many.gate_rows"] += gate_rows
    # each gate reads and writes the complex128 statevector once
    n["ansatz.forward_many.bytes_computed"] += gate_rows * 2 * 16 * (1 << circuit.n_qubits)
    _add_rows(tracer, rows)


def _noisy_forward(tracer, args, kwargs):
    _add_rows(tracer, 1)


def _train(tracer, args, kwargs):
    dataset, circuit = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 1, "circuit")
    config = _arg(args, kwargs, 3, "config")
    tracer.counts["train.runs"] += 1
    tracer.run_keys.add((circuit, config, _digest(dataset.features, dataset.labels)))


def _coupled(tracer, args, kwargs):
    dataset, index = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 1, "index")
    replacement = _arg(args, kwargs, 2, "replacement")
    circuit, config = _arg(args, kwargs, 3, "circuit"), _arg(args, kwargs, 5, "config")
    features, labels = dataset.features.copy(), dataset.labels.copy()
    features[index], labels[index] = replacement.x, replacement.y
    tracer.counts["train.runs"] += 2
    tracer.run_keys.add((circuit, config, _digest(dataset.features, dataset.labels)))
    tracer.run_keys.add((circuit, config, _digest(features, labels)))


def _evaluation(noise_pos):
    def hook(tracer, args, kwargs):
        circuit, theta = _arg(args, kwargs, 0, "circuit"), _arg(args, kwargs, 1, "theta")
        dataset = _arg(args, kwargs, 2, "dataset")
        noise_p = _arg(args, kwargs, noise_pos, "noise_p", 0.0)
        key = (circuit, np.asarray(theta, dtype=float).tobytes(),
               _digest(dataset.features, dataset.labels), noise_p)
        tracer.eval_keys.add(key)
    return hook


def _emitted(tracer, args, kwargs):
    tracer.counts["experiments.emit_results.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


_BEFORE = {
    "ansatz.forward_many": _forward_many,
    "noise.noisy_forward": _noisy_forward,
    "train.train": _train,
    "stability.coupled_divergence": _coupled,
    "train.risk": _evaluation(5),
    "train.accuracy": _evaluation(4),
}
_AFTER = {"experiments.emit_results": _emitted}
