"""The four benchmark workloads.

Each workload derives all of its inputs from the workload seed, then runs
one repetition per ``rep()`` call through reupqnn's public entry points.
Every repetition at one seed does identical work and must produce
identical bytes.  ``verify`` checks a repetition's output against the
independent reference in ``reference.py`` (or, for ``comb_oracle``,
against the comb route and dense unitaries inside the repetition itself).

Why each workload exists is recorded in NOTES.md and BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np

import reference as ref

TOL = 1e-9  # rounding-level changes move these numbers by ~1e-13 at most


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(b))


def render_corpus(n: int, seed: int):
    """Two-class 28x28 uint8 glyphs (ring = 0, bar = 1) with 10% flipped labels."""
    rng = np.random.default_rng(seed)
    rows, cols = np.arange(28.0)[:, None], np.arange(28.0)[None, :]
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    for i in range(n):
        cy, cx = rng.normal(14.0, 1.5, size=2)
        if labels[i] == 0:
            dist = np.hypot(rows - cy, cols - cx)
            glyph = 255.0 * np.exp(-((dist - rng.uniform(6.0, 9.0)) / 2.0) ** 2)
        else:
            centre = cx + rng.uniform(-0.2, 0.2) * (rows - 14.0)
            glyph = 255.0 * np.exp(-((cols - centre) / 2.0) ** 2)
        images[i] = np.clip(glyph + rng.normal(0.0, 40.0, size=(28, 28)), 0.0, 255.0)
    labels[rng.random(n) < 0.1] ^= 1
    return images, labels


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


class Workload:
    name = ""
    cache_note = ""  # working set against the caches, for the environment record
    throughput_name = "sgd_steps_per_s"
    work_per_rep = 0  # SGD steps the config defines, or oracle checks
    checks_per_rep = 1

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.data_seed = int(rng.integers(0, 2**31))
        self.opt_seed = int(rng.integers(0, 10**6))
        self.corpus_seed = int(rng.integers(0, 2**31))
        self.config_path = None

    def rep(self) -> bytes:
        raise NotImplementedError

    def verify(self, output: bytes) -> list[str]:
        raise NotImplementedError


class CliWorkload(Workload):
    """A ``reupqnn run`` or ``reupqnn stability`` invocation on a written config."""

    command = "run"

    def write_config(self, lines: dict):
        self.config_path = os.path.join(self.workdir, f"{self.name}.cfg")
        self.out_path = os.path.join(self.workdir, f"{self.name}.csv")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in lines.items())

    def rep(self) -> bytes:
        from reupqnn import experiments

        with contextlib.redirect_stdout(io.StringIO()):
            code = experiments.main([self.command, "--config", self.config_path,
                                     "--out", self.out_path, "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"reupqnn {self.command} exited with {code}")
        with open(self.out_path, "rb") as fh:
            return fh.read()


class RunSweep(CliWorkload):
    """``reupqnn run`` on a benchmark-written IDX corpus."""

    def __init__(self, seed, workdir, *, n_images, qubits, layers, sublayers, eta,
                 iterations, m_train, m_test, axis, values):
        super().__init__(seed, workdir)
        from reupqnn import data

        self.images, self.labels = render_corpus(n_images, self.corpus_seed)
        paths = [os.path.join(workdir, f"{self.name}-{kind}-idx-ubyte") for kind in ("images", "labels")]
        data.write_idx_pair(self.images, self.labels, *paths)
        self.shape = (qubits, layers, 16, sublayers)
        self.eta, self.iterations, self.m_train, self.m_test = eta, iterations, m_train, m_test
        self.axis, self.values = axis, values
        self.write_config({
            "dataset.kind": "idx", "dataset.images": paths[0], "dataset.labels": paths[1],
            "dataset.seed": self.data_seed, "dataset.m_train": m_train, "dataset.m_test": m_test,
            "circuit.qubits": qubits, "circuit.layers": layers, "circuit.sublayers": sublayers,
            "optimizer.learning_rate": eta, "optimizer.iterations": iterations,
            "optimizer.seeds": self.opt_seed, "sweep.axis": axis,
            "sweep.values": ", ".join(str(v) for v in values), "eval.interval": iterations,
        })
        self.work_per_rep = len(values) * iterations

    def _cell(self, value):
        """(m_train, noise_p) of one sweep cell."""
        return (value, 0.0) if self.axis == "m_train" else (self.m_train, value)

    def verify(self, output: bytes) -> list[str]:
        rows = _read_csv(output)
        features, signs = ref.idx_features(self.images, self.labels)
        model = ref.DenseCircuit(*self.shape)
        _, layers, d, _ = self.shape
        points = (0, self.iterations)
        errors, expected = [], []
        for value in self.values:
            m, p = self._cell(value)
            tr, te = ref.split(len(features), m, self.m_test, (self.data_seed, self.opt_seed))
            curve = ref.train_curve(model, features[tr], signs[tr], features[te], signs[te],
                                    self.eta, self.iterations, self.opt_seed, points, p)
            margin = self.eta * model.k
            for t in points:
                b = (ref.gen_bound(ref.beta(layers, d, model.k, m, t, self.eta, p), m) if t
                     else ref.gen_bound(0.0, m))
                expected.append((value, t, curve[t], b, margin))
        samples = [r for r in rows if r["kind"] == "sample"]
        if len(samples) != len(expected):
            return [f"{len(samples)} sample rows, expected {len(expected)}"]
        for row, (value, t, (r_tr, r_te, a_tr, a_te, amb), b, margin) in zip(samples, expected):
            where = f"value {value} iteration {t}"
            if float(row["sweep_value"]) != value or int(row["iteration"]) != t \
                    or int(row["seed"]) != self.opt_seed:
                errors.append(f"{where}: row key {row['sweep_value']},{row['seed']},{row['iteration']}")
                continue
            for col, want in (("train_risk", r_tr), ("test_risk", r_te), ("gap", r_te - r_tr),
                              ("bound_value", b), ("stable_margin", margin)):
                if not close(float(row[col]), want):
                    errors.append(f"{where}: {col} {row[col]} != {float(want)!r}")
            for col, want, size in (("train_acc", a_tr, self._cell(value)[0]), ("test_acc", a_te, self.m_test)):
                if abs(float(row[col]) - want) > amb / size + 1e-12:
                    errors.append(f"{where}: {col} {row[col]} != {float(want)!r}")
            if int(row["margin_flagged"]) != int(margin >= 1.0):
                errors.append(f"{where}: margin_flagged {row['margin_flagged']}")
        # One seed per value: the mean rows repeat the sample rows, the std rows are 0.
        for kind in ("mean", "std"):
            agg = [r for r in rows if r["kind"] == kind]
            if len(agg) != len(samples):
                errors.append(f"{len(agg)} {kind} rows, expected {len(samples)}")
                continue
            for row, sample in zip(agg, samples):
                for col in ("train_risk", "test_risk", "gap", "train_acc", "test_acc"):
                    want = float(sample[col]) if kind == "mean" else 0.0
                    if float(row[col]) != want:
                        errors.append(f"{kind} row {row['sweep_value']},{row['iteration']}: {col}")
        return errors


class ImageSweep(RunSweep):
    name = "image_sweep"
    cache_note = "gradient batch (2K+1) x 2^n x 16 B = 273 x 16 x 16 B = 69888 B; eval batch 1000 x 16 x 16 B = 256000 B"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_images=1200, qubits=4, layers=16, sublayers=2, eta=0.1,
                         iterations=20, m_train=32, m_test=1000, axis="m_train", values=(32, 64, 128))


class NoisySweep(RunSweep):
    name = "noisy_sweep"
    cache_note = "density matrix 16 x 16 x 16 B = 4096 B per state"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_images=60, qubits=4, layers=2, sublayers=2, eta=0.1,
                         iterations=1, m_train=3, m_test=3, axis="noise_p", values=(0.02, 0.1))


class StabilityToy(CliWorkload):
    name = "stability_toy"
    command = "stability"
    cache_note = "2-amplitude states; probe batch 16 x 2 x 16 B = 512 B"
    ETA, ITERATIONS, SEEDS, INDICES, PROBES, POOL = 0.05, 200, 2, 3, 16, 200
    VALUES = (25, 50)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [self.opt_seed + s for s in range(self.SEEDS)]
        self.write_config({
            "dataset.kind": "toy", "dataset.pool_size": self.POOL, "dataset.seed": self.data_seed,
            "dataset.m_train": self.VALUES[0], "circuit.qubits": 1, "circuit.layers": 1,
            "circuit.sublayers": 1, "optimizer.learning_rate": self.ETA,
            "optimizer.iterations": self.ITERATIONS,
            "optimizer.seeds": ", ".join(str(s) for s in self.seeds),
            "sweep.axis": "m_train", "sweep.values": ", ".join(str(v) for v in self.VALUES),
            "stability.indices": self.INDICES, "stability.probes": self.PROBES,
        })
        # Per sweep value: indices x seeds coupled pairs of two runs each, then
        # empirical_beta's (1 + indices) x seeds runs, all T steps long.
        self.work_per_rep = sum(self.SEEDS * self.ITERATIONS * (3 * min(self.INDICES, m) + 1)
                                for m in self.VALUES)

    def verify(self, output: bytes) -> list[str]:
        rows = _read_csv(output)
        px, py = ref.toy_pool(self.POOL, self.data_seed)
        errors, expected = [], []
        for vi, m in enumerate(self.VALUES):
            tr, pr = ref.split(self.POOL, m, self.PROBES, (self.data_seed, 777, vi))
            indices = ref.stability_indices(m, self.INDICES)
            traces, beta_hat = ref.toy_stability(px[tr], py[tr], px[pr], py[pr], indices,
                                                 self.seeds, self.ETA, self.ITERATIONS)
            for index in indices:
                for s in self.seeds:
                    sums, f_gap, l_gap = traces[(int(index), s)]
                    for t in range(self.ITERATIONS + 1):
                        expected.append(("trace", m, s, int(index), t, (sums[t], f_gap[t], l_gap[t])))
            bound = ref.beta(1, 1, 2, m, self.ITERATIONS, self.ETA)
            expected.append(("beta", m, "", "", self.ITERATIONS, (beta_hat, bound, self.ETA * 2)))
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, expected {len(expected)}"]
        for row, (kind, m, s, index, t, values) in zip(rows, expected):
            key = (row["kind"], row["sweep_value"], row["seed"], row["replaced_index"], row["iteration"])
            if key != (kind, str(m), str(s), str(index), str(t)):
                errors.append(f"row key {key} != {(kind, m, s, index, t)}")
                continue
            cols = (("sum_abs_dtheta", "probe_f_gap", "probe_loss_gap") if kind == "trace"
                    else ("beta_hat", "bound_value", "stable_margin"))
            for col, want in zip(cols, values):
                if not close(float(row[col]), want):
                    errors.append(f"{kind} m={m} seed={s} index={index} t={t}: {col} {row[col]} != {float(want)!r}")
        return errors


class CombOracle(Workload):
    """Comb route against direct simulation, then comb validation."""

    name = "comb_oracle"
    throughput_name = "oracle_checks_per_s"
    cache_note = "largest comb 1024 x 1024 x 16 B = 16 MiB (1q L4)"
    # (qubits, layers) of the comb-vs-direct shapes: every pair within the comb
    # evaluation's 16-wire limit n (2L + 2) <= 16, so the work is the same
    # at every seed; data width, sublayers and angles are drawn.
    SIZES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (1, 4))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(self.corpus_seed)
        self.shapes = []
        for n, layers in self.SIZES:
            d, r = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            k = (layers + 1) * r * n
            self.shapes.append(((n, layers, d, r), rng.uniform(0, 2 * np.pi, k), rng.uniform(0, 2 * np.pi, d)))
        # Comb validation at 1024 x 1024 (1 qubit, 4 layers) and 256 x 256 (2 qubits, 1 layer).
        self.combs = []
        for n, layers in ((1, 4), (2, 1)):
            d, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            self.combs.append(((n, layers, d, r), rng.uniform(0, 2 * np.pi, (layers + 1) * r * n)))
        self.checks_per_rep = self.work_per_rep = len(self.SIZES) + len(self.combs) + 1

    def rep(self) -> bytes:
        from reupqnn import ansatz, comb, qcore

        lines = []
        for shape, theta, x in self.shapes:
            circuit = ansatz.build_circuit(*shape)
            obs = qcore.z_observable(shape[0])
            via_comb = comb.reuploading_comb_output(circuit, theta, x, obs)
            direct = float(ansatz.forward_many(circuit, theta, x, obs)[0])
            u = ansatz.circuit_unitary(circuit, theta, x)
            dense = float(np.real(np.conj(u[:, 0]) @ obs.matrix @ u[:, 0]))
            ok = abs(via_comb - direct) <= TOL and abs(dense - direct) <= TOL
            lines.append(f"shape {shape} comb {via_comb!r} direct {direct!r} dense {dense!r} {'ok' if ok else 'FAIL'}")
        for i, (shape, theta) in enumerate(self.combs):
            op, teeth = comb.build_reuploading_comb(ansatz.build_circuit(*shape), theta)
            report = comb.validate_comb(op, teeth)
            lines.append(f"comb {shape} {report.violations} {'ok' if report.is_comb else 'FAIL'}")
            if i == len(self.combs) - 1:
                # Negative control: twice a comb violates normalization.
                doubled = comb.ChoiOperator(op.systems, 2.0 * op.matrix)
                report = comb.validate_comb(doubled, teeth)
                flagged = not report.is_comb and "normalization" in report.violations
                lines.append(f"doubled {shape} {report.violations} {'ok' if flagged else 'FAIL'}")
        return ("\n".join(lines) + "\n").encode()

    def verify(self, output: bytes) -> list[str]:
        return [line for line in output.decode().splitlines() if not line.endswith(" ok")]


WORKLOADS = {w.name: w for w in (ImageSweep, StabilityToy, NoisySweep, CombOracle)}
