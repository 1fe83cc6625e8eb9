"""Independent reference results for the benchmark's correctness gate.

Nothing here calls reupqnn's simulators, trainers, data loaders or bound
functions.  The reference re-derives every number a workload's CSV holds
from the package's documented conventions, by a different route than the
code being timed:

* circuits are dense real matrices (Ry and CX are real, the input is
  |0...0> and Z is diagonal), built gate by gate with ``np.kron``;
* noiseless encoding blocks are folded into one Ry per qubit, since
  Ry(a) Ry(b) = Ry(a + b) on the same qubit;
* noiseless gradients use adjoint differentiation instead of the
  parameter-shift batch; noisy gradients use the shift rule on a dense
  density-matrix simulator;
* the 1-qubit, one-layer toy circuit has the closed form
  f = cos(theta_0 + x + theta_1).

Draw conventions that define the results (counter-based Philox keys,
seeded permutations, the toy generator) are restated here, because the
outputs depend on them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi
_INIT_TAG = 1 << 63
_INDEX_TAG = 0x1D5
_REPLACEMENT_TAG = 0x9E91
_TOY_MARGIN = 0.05


def philox(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def init_theta(seed: int, k: int) -> np.ndarray:
    return philox(seed, _INIT_TAG).uniform(0.0, TWO_PI, size=k)


def draw(seed: int, t: int, m: int) -> int:
    return int(philox(seed, t).integers(0, m))


def split(n_pool: int, m_first: int, m_second: int, seed):
    perm = np.random.default_rng(seed).permutation(n_pool)
    return perm[:m_first], perm[m_first:m_first + m_second]


def idx_features(images: np.ndarray, labels: np.ndarray, classes=(0, 1)):
    """7x7 average pooling of 28x28 images to 16 features in [0, 2pi]."""
    keep = np.isin(labels, classes)
    pooled = images[keep].astype(float).reshape(-1, 4, 7, 4, 7).mean(axis=(2, 4))
    features = pooled.reshape(-1, 16) / 255.0 * TWO_PI
    return features, np.where(labels[keep] == classes[0], 1, -1)


def toy_pool(m: int, seed: int):
    rng = np.random.default_rng(seed)
    xs = np.empty(m)
    filled = 0
    while filled < m:
        got = rng.uniform(0.0, TWO_PI, size=m - filled)
        got = got[np.abs(np.cos(got)) >= _TOY_MARGIN]
        xs[filled:filled + got.shape[0]] = got
        filled += got.shape[0]
    return xs[:, None], np.where(np.cos(xs) > 0.0, 1, -1)


def stability_indices(m: int, n_indices: int) -> np.ndarray:
    n = min(n_indices, m)
    return np.sort(philox(_INDEX_TAG, m).choice(m, size=n, replace=False))


def replacement_pick(index: int, n_probes: int) -> int:
    return int(philox(_REPLACEMENT_TAG, index).integers(0, n_probes))


# --- closed-form bounds, restated from the paper's recursion --------------


def beta(layers, data_dim, k, m, t, eta, p=0.0, c1=1.0, c2=0.5, obs=1.0) -> float:
    damp_k = (1.0 - p) ** k
    per_step = 8.0 * math.pi * eta * c2 * k * obs * layers * data_dim * (1.0 - p) ** (layers * data_dim) / m
    ratio = 1.0 + 2.0 * eta * c2 * k * obs * damp_k
    return c1 * obs * damp_k * per_step * (ratio ** t - 1.0) / (ratio - 1.0)


def gen_bound(b: float, m: int, delta: float = 0.05, loss_bound: float = 1.0) -> float:
    return 2.0 * b + (4.0 * m * b + loss_bound) * math.sqrt(math.log(1.0 / delta) / (2.0 * m))


# --- dense real circuit model ---------------------------------------------


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]])


class DenseCircuit:
    """Re-uploading circuit as dense real matrices on 2^n amplitudes."""

    def __init__(self, n: int, layers: int, data_dim: int, sublayers: int):
        self.n, self.layers, self.data_dim, self.sublayers = n, layers, data_dim, sublayers
        self.dim = 1 << n
        self.k = (layers + 1) * sublayers * n
        self.cx = [self._cx(q) for q in range(n - 1)]
        # d Ry(a) / da = 0.5 Ry(a) @ [[0, -1], [1, 0]]; the factor 2 of
        # df = 2 <lambda| dG |psi> cancels the 0.5.
        self.d_ry = [self.embed(q, np.array([[0.0, -1.0], [1.0, 0.0]])) for q in range(n)]
        # Z on qubit 0 (the most significant bit) is +1 on the first half.
        self.z = np.where(np.arange(self.dim) < self.dim // 2, 1.0, -1.0)

    def _cx(self, q: int) -> np.ndarray:
        idx = np.arange(self.dim)
        control = (idx >> (self.n - 1 - q)) & 1
        out = np.where(control == 1, idx ^ (1 << (self.n - 2 - q)), idx)
        mat = np.zeros((self.dim, self.dim))
        mat[out, idx] = 1.0
        return mat

    def embed(self, q: int, gate: np.ndarray) -> np.ndarray:
        return np.kron(np.kron(np.eye(1 << q), gate), np.eye(1 << (self.n - 1 - q)))

    def block_gates(self, theta, layer: int):
        """(matrix, targets, parameter index) of one trainable block, in order."""
        seq = []
        for r in range(self.sublayers):
            base = ((layer - 1) * self.sublayers + r) * self.n
            for q in range(self.n):
                seq.append((self.embed(q, _ry(theta[base + q])), (q,), base + q))
            for q in range(self.n - 1):
                seq.append((self.cx[q], (q, q + 1), None))
        return seq

    def encode_gates(self, x, fold: bool):
        """One encoding block; folded it is a single matrix (noiseless use),
        unfolded every slot, fillers included, is its own gate."""
        n, cols = self.n, -(-self.data_dim // self.n)
        slots = [(q, x[c * n + q] if c * n + q < self.data_dim else 0.0)
                 for c in range(cols) for q in range(n)]
        if not fold:
            return [(self.embed(q, _ry(a)), (q,), None) for q, a in slots]
        mat = np.eye(1)
        for q in range(n):
            mat = np.kron(mat, _ry(sum(a for qq, a in slots if qq == q)))
        return [(mat, (), None)]

    def gates(self, theta, x, fold: bool):
        seq = []
        for layer in range(1, self.layers + 1):
            seq += self.block_gates(theta, layer)
            seq += self.encode_gates(x, fold)
        return seq + self.block_gates(theta, self.layers + 1)

    def outputs(self, theta, xs) -> np.ndarray:
        """Noiseless f(theta, x) for every row of ``xs``."""
        blocks = []
        for layer in range(1, self.layers + 2):
            mat = np.eye(self.dim)
            for gate, _, _ in self.block_gates(theta, layer):
                mat = gate @ mat
            blocks.append(mat)
        enc = np.stack([self.encode_gates(x, fold=True)[0][0] for x in xs])
        psi = np.tile(blocks[0][:, 0], (len(xs), 1))
        for mat in blocks[1:]:
            psi = np.einsum("rij,rj->ri", enc, psi) @ mat.T
        return (psi * psi) @ self.z

    def value_and_grad(self, theta, x):
        """f(theta, x) and, by adjoint differentiation, df/dtheta."""
        seq = self.gates(theta, x, fold=True)
        psi = np.zeros(self.dim)
        psi[0] = 1.0
        for mat, _, _ in seq:
            psi = mat @ psi
        f = float(psi @ (self.z * psi))
        g = np.zeros(self.k)
        lam = self.z * psi
        for mat, targets, p in reversed(seq):
            psi = mat.T @ psi
            if p is not None:
                g[p] = lam @ (mat @ (self.d_ry[targets[0]] @ psi))
            lam = mat.T @ lam
        return f, g

    def noisy_value(self, theta, x, p: float) -> float:
        """Output under depolarizing noise p after every gate on each target."""
        rho = np.zeros((self.dim, self.dim))
        rho[0, 0] = 1.0
        for mat, targets, _ in self.gates(theta, x, fold=False):
            rho = mat @ rho @ mat.T
            for q in targets:
                rho = (1.0 - p) * rho + p * self._mixed(rho, q)
        return float(np.sum(self.z * np.diag(rho)))

    def _mixed(self, rho: np.ndarray, q: int) -> np.ndarray:
        a, b = 1 << q, 1 << (self.n - 1 - q)
        reduced = np.einsum("iajkal->ijkl", rho.reshape(a, 2, b, a, 2, b))
        return np.einsum("ijkl,xy->ixjkyl", reduced, 0.5 * np.eye(2)).reshape(self.dim, self.dim)

    def noisy_grad(self, theta, x, p: float) -> np.ndarray:
        g = np.empty(self.k)
        for j in range(self.k):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += 0.5 * np.pi
            minus[j] -= 0.5 * np.pi
            g[j] = 0.5 * (self.noisy_value(plus, x, p) - self.noisy_value(minus, x, p))
        return g


def train_curve(model: DenseCircuit, train_x, train_y, test_x, test_y, eta: float,
                iterations: int, seed: int, eval_points, p: float = 0.0):
    """Single-sample SGD on the scaled squared loss, evaluated at ``eval_points``.

    Returns {t: (train_risk, test_risk, train_acc, test_acc, n_ambiguous)};
    ``n_ambiguous`` counts outputs within 1e-9 of the sign threshold, where
    a rounding-level difference may flip a prediction.
    """
    def outputs(theta, xs):
        if p:
            return np.array([model.noisy_value(theta, x, p) for x in xs])
        return model.outputs(theta, xs)

    def evaluate(theta):
        fa, fb = outputs(theta, train_x), outputs(theta, test_x)
        risk = [float(np.mean(0.25 * (f - y) ** 2)) for f, y in ((fa, train_y), (fb, test_y))]
        acc = [float(np.mean(np.where(f >= 0.0, 1, -1) == y)) for f, y in ((fa, train_y), (fb, test_y))]
        ambiguous = int(np.sum(np.abs(fa) < 1e-9) + np.sum(np.abs(fb) < 1e-9))
        return risk[0], risk[1], acc[0], acc[1], ambiguous

    theta = init_theta(seed, model.k)
    curve = {}
    if 0 in eval_points:
        curve[0] = evaluate(theta)
    for t in range(iterations):
        i = draw(seed, t, len(train_x))
        if p:
            f = model.noisy_value(theta, train_x[i], p)
            g = model.noisy_grad(theta, train_x[i], p)
        else:
            f, g = model.value_and_grad(theta, train_x[i])
        theta = theta - eta * 0.5 * (f - train_y[i]) * g
        if t + 1 in eval_points:
            curve[t + 1] = evaluate(theta)
    return curve


# --- toy stability, closed form -------------------------------------------


def toy_stability(train_x, train_y, probe_x, probe_y, indices, seeds, eta, iterations):
    """Coupled traces and beta_hat for the 1-qubit, L=1, R=1 toy circuit.

    f = cos(a) with a = theta_0 + x + theta_1, so df/dtheta_j = -sin(a)
    for both parameters.  Returns ({(index, seed): (sum_abs, f_gap,
    l_gap)}, beta_hat), arrays of length T + 1.
    """
    m, px, py = len(train_x), probe_x[:, 0], probe_y
    draws = {s: [draw(s, t, m) for t in range(iterations)] for s in seeds}

    def run(xs, ys, seed):
        theta = init_theta(seed, 2)
        path = [theta]
        for i in draws[seed]:
            a = theta[0] + xs[i] + theta[1]
            theta = theta - eta * 0.5 * (math.cos(a) - ys[i]) * (-math.sin(a))
            path.append(theta)
        return np.array(path)

    def probe_out(thetas):  # (T+1, 2) -> (T+1, probes)
        return np.cos(thetas.sum(axis=1)[:, None] + px[None, :])

    twins = {}
    for index in indices:
        pick = replacement_pick(int(index), len(px))
        xs, ys = train_x[:, 0].copy(), train_y.copy()
        xs[index], ys[index] = px[pick], py[pick]
        twins[int(index)] = (xs, ys)

    traces = {}
    base_paths = {s: run(train_x[:, 0], train_y, s) for s in seeds}
    for index, (xs, ys) in twins.items():
        for s in seeds:
            pa, pb = base_paths[s], run(xs, ys, s)
            fa, fb = probe_out(pa), probe_out(pb)
            la, lb = 0.25 * (fa - py) ** 2, 0.25 * (fb - py) ** 2
            traces[(index, s)] = (np.abs(pa - pb).sum(axis=1),
                                  np.abs(fa - fb).max(axis=1), np.abs(la - lb).max(axis=1))

    def mean_final_loss(xs, ys):
        finals = [run(xs, ys, s)[-1] for s in seeds]
        return np.mean([0.25 * (np.cos(th.sum() + px) - py) ** 2 for th in finals], axis=0)

    base = mean_final_loss(train_x[:, 0], train_y)
    worst = max(float(np.max(np.abs(base - mean_final_loss(xs, ys)))) for xs, ys in twins.values())
    return traces, 0.5 * worst
