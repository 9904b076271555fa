"""Objective suites: strongly convex quadratics and l2-regularized logistic
regression split across nodes, with exact gradients, global smoothness and
strong-convexity constants, and a reference optimum."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Raised for malformed data files (LIBSVM datasets, matrix CSVs) or
    impossible partitions."""


class ReferenceOptimumError(RuntimeError):
    """Raised when the reference-optimum solver hits its iteration cap."""


class ObjectiveSuite:
    """n local differentiable objectives plus global constants.

    Attributes:
        n, d: node count and decision dimension.
        L: largest Lipschitz constant of the local gradients.
        mu: strong-convexity constant of the global average objective.
        x_star: minimizer of the global average objective.
        closed_form: whether `local_steps` has a closed form.
    """

    n: int
    d: int
    L: float
    mu: float
    x_star: np.ndarray
    closed_form: bool = False

    def grad_stack(self, xs: np.ndarray) -> np.ndarray:
        """Gradients of all locals, node i evaluated at row i of xs (n, d)."""
        raise NotImplementedError

    def grad_stack_batch(self, xs: np.ndarray) -> np.ndarray:
        """grad_stack over a trailing batch axis: (n, d, c) -> (n, d, c).

        Candidates-last keeps every per-node contraction a clean matrix
        product (used by the vectorized step-size sweep).
        """
        raise NotImplementedError

    def local_steps(self, alpha, m):
        """m local steps x <- x - alpha*y, y <- y + grad(x') - grad(x) in
        closed form: a function of y, an (n, d, c) stack, that returns x's
        total move x_0 - x_m (alpha and m >= 0 each a scalar or one per
        column; m = 0 moves x by exactly zero), and whose compress(cols)
        is the same function on the columns where the (c,) mask cols is
        True.  The trackers' update telescopes to y_m = y_0 + grad(x_m) -
        grad(x_0).  None when the suite has no closed form (closed_form is
        False); the steps then evaluate one gradient each."""
        return None

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        xs = np.broadcast_to(x, (self.n, self.d))
        return self.grad_stack(np.ascontiguousarray(xs)).mean(axis=0)


class QuadraticSuite(ObjectiveSuite):
    """f_i(x) = 0.5 x'Q_i x + b_i'x with Q_i symmetric positive definite."""

    closed_form = True

    def __init__(self, qs: np.ndarray, bs: np.ndarray):
        qs = np.asarray(qs, dtype=float)
        bs = np.asarray(bs, dtype=float)
        if qs.ndim != 3 or qs.shape[1] != qs.shape[2]:
            raise ValueError(f"expected stacked square matrices, got shape {qs.shape}")
        if bs.shape != qs.shape[:2]:
            raise ValueError(f"b shape {bs.shape} does not match Q shape {qs.shape}")
        self.n, self.d = bs.shape
        asym = np.max(np.abs(qs - qs.transpose(0, 2, 1)), axis=(1, 2)) > 1e-12
        if np.any(asym):
            raise ValueError(f"Q_{int(np.argmax(asym))} is not symmetric")
        self.qs = qs
        self.bs = bs
        self.hessian = qs.mean(axis=0)
        b_bar = bs.mean(axis=0)
        h_eigs = np.linalg.eigvalsh(self.hessian)
        if h_eigs[0] <= 0:
            raise ValueError("global Hessian is not positive definite")
        self.mu = float(h_eigs[0])
        self.L = float(np.linalg.eigvalsh(qs)[:, -1].max())
        self.x_star = np.linalg.solve(self.hessian, -b_bar)
        self._eig = None       # (lam, V, V') of the Q_i, on first use by local_steps

    def grad_stack(self, xs):
        return self._grads(xs[:, :, None])[:, :, 0]

    def grad_stack_batch(self, xs):
        return self._grads(xs)

    def _grads(self, xs):
        g = np.matmul(self.qs, xs)
        g += self.bs[:, :, None]
        return g

    def local_steps(self, alpha, m):
        """A local step is linear here: y' = (I - alpha Q_i) y and
        x' = x - alpha y.  With Q_i = V diag(lam) V', m steps move x by
        alpha V (sigma_m * V'y), sigma_m = sum_{j<m} (1 - alpha*lam)^j, which
        is 0 in a column with m = 0.  The factor is built here, once per
        (alpha, m), and for one column also as the matrices
        alpha V diag(sigma_m) V' (`EigenSteps`); the eigensolve once per
        suite."""
        if self._eig is None:
            lam, v = np.linalg.eigh(self.qs)
            self._eig = lam, v, np.ascontiguousarray(v.transpose(0, 2, 1))
        lam, v, vt = self._eig
        return EigenSteps(v, vt, alpha * _geometric_sum(lam[:, :, None] * alpha, m))


@dataclass(frozen=True)
class EigenSteps:
    """A quadratic's closed-form local steps (`QuadraticSuite.local_steps`):
    y -> V (step * V'y), with step = alpha * sigma_m per node, eigenvalue
    and column (a last axis of 1 for a scalar alpha and m).  A factor of
    one column also holds matrix, the (n, d, d) stack V diag(step) V', and
    applies it as one product, in about half the eigen form's time; with
    more columns one matrix per column costs more than the eigen form's
    two products, so that form stays (CHANGES.md, "A one-column closed
    form is one product per node").  matrix is built from step alone, so
    a factor that compress narrows to one column equals a freshly built
    one bit for bit."""

    v: np.ndarray
    vt: np.ndarray
    step: np.ndarray
    matrix: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = (np.matmul(self.v * self.step[:, None, :, 0], self.vt)
                  if self.step.shape[2] == 1 else None)
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return np.matmul(self.matrix, y)
        return np.matmul(self.v, self.step * np.matmul(self.vt, y))

    def compress(self, cols: np.ndarray) -> EigenSteps:
        """The same steps on the columns where the (c,) mask cols is True."""
        return EigenSteps(self.v, self.vt, self.step.compress(cols, axis=2))


def _geometric_sum(a: np.ndarray, m) -> np.ndarray:
    """sigma_m = sum_{j<m} rho^j = (1 - rho^m) / a for rho = 1 - a,
    entrywise; m >= 0 is one count, or one per column that broadcasts
    against a's last axis.

    For a < 1 it is -expm1(m*log1p(-a)) / a, within a few ulps however
    small a is (the direct (1 - rho^m) / a is off by 4e-13 relative at
    a = 2^-20, m = 99).  For a >= 1 (rho <= 0, where log1p is undefined)
    rho^m is a direct power; a = 0 gives m.  m = 0 gives a signed zero
    (or 0 at a = 0): the empty sum.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = a < 1
        sigma_m = np.where(below, -np.expm1(m * np.log1p(-np.where(below, a, 0.0))),
                           1.0 - (1.0 - a) ** m) / a
    return np.where(a == 0, m, sigma_m)


@dataclass(frozen=True)
class QuadraticSpec:
    """Seeded recipe for a random quadratic suite with a target global
    condition number (serializable: the four fields replay the suite)."""

    n: int
    d: int
    kappa_target: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if not 1 <= self.kappa_target < np.inf:    # NaN fails both comparisons
            raise ValueError(f"kappa_target must be a finite number >= 1, got {self.kappa_target}")


def generate_quadratic(spec: QuadraticSpec) -> QuadraticSuite:
    """Random quadratic suite whose global Hessian hits spec.kappa_target.

    Each Q_i = U_i diag(lam_i) U_i' with U_i a random orthogonal matrix and
    lam_i log-uniform on [1, kappa_target].  Averaging washes the spread out
    (the raw global condition number lands far below the per-node one), so
    every node then receives the same positive-semidefinite rank-1 correction
    aligned with an extreme eigenvector of the global Hessian, sized to make
    its condition number match the target exactly.  The shared correction
    keeps the largest local smoothness constant close to the global one, so
    L/mu lands near the target as well.
    """
    if spec.d == 1 and spec.kappa_target > 1.0:
        raise ValueError("d = 1 forces a global condition number of exactly 1")
    rng = np.random.default_rng(spec.seed)
    # the draws stay per node, in the order (Gaussian block, log-spectrum)
    # of node 0, node 1, ...; the factorizations and products are stacked
    gauss = np.empty((spec.n, spec.d, spec.d))
    log_lam = np.zeros((spec.n, spec.d))
    for i in range(spec.n):
        gauss[i] = rng.normal(size=(spec.d, spec.d))
        if spec.kappa_target > 1:
            log_lam[i] = rng.uniform(0.0, np.log(spec.kappa_target), size=spec.d)
    u, _ = np.linalg.qr(gauss)
    q = (u * np.exp(log_lam)[:, None, :]) @ u.transpose(0, 2, 1)
    qs = 0.5 * (q + q.transpose(0, 2, 1))
    bs = rng.normal(size=(spec.n, spec.d))

    if spec.d > 1:
        h = qs.mean(axis=0)
        evals, evecs = np.linalg.eigh(h)
        lo, hi = evals[0], evals[-1]
        if hi / lo <= spec.kappa_target:
            # stretch the top of the global spectrum up to target * lo
            v = evecs[:, -1]
            gamma = spec.kappa_target * lo - hi
        else:
            # lift the bottom of the global spectrum up to hi / target
            v = evecs[:, 0]
            gamma = hi / spec.kappa_target - lo
        ridge = gamma * np.outer(v, v)
        qs = qs + ridge
        qs = 0.5 * (qs + qs.transpose(0, 2, 1))
        # normalize the scale so mu = 1: keeps both condition numbers, puts
        # 1/L on the order of 1/kappa_target (inside the 2^-t tuning range)
        qs /= np.linalg.eigvalsh(qs.mean(axis=0))[0]
    return QuadraticSuite(qs, bs)


@dataclass(frozen=True)
class LogRegDataset:
    """Samples partitioned across nodes; labels already mapped to {-1, +1}."""

    features: tuple[np.ndarray, ...]   # node i: (n_i, d)
    labels: tuple[np.ndarray, ...]     # node i: (n_i,), values in {-1, +1}
    d: int

    @property
    def n_nodes(self) -> int:
        return len(self.features)


def _map_labels(raw: np.ndarray) -> np.ndarray:
    values = sorted(set(raw.tolist()))
    if values in ([-1.0, 1.0], [-1.0], [1.0]):
        return raw
    if len(values) == 1:
        raise DataFormatError(f"only one label value present: {values[0]}")
    if len(values) != 2:
        raise DataFormatError(f"expected binary labels, got values {values}")
    lo, hi = values
    return np.where(raw == lo, -1.0, 1.0)


def read_text(path) -> str:
    """The text of a data file; bytes that do not decode as text are a
    DataFormatError naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file: {exc}") from exc


# the largest feature index numpy can hold as an array index
_INDEX_MAX = np.iinfo(np.intp).max


def load_libsvm(path, n_nodes: int, normalize: bool = False) -> LogRegDataset:
    """Parse a LIBSVM text file ("label idx:val ...") and shard it.

    Features are densified with d inferred as the maximum feature index.
    Samples are split into n_nodes contiguous shards of near-equal size (the
    remainder goes to the first shards).  Labels in {0,1} (or any two
    distinct values) are mapped to {-1,+1}.  normalize rescales each feature
    to [0, 1] over the whole dataset.  A line that does not parse, repeats
    a feature index, holds an index past the platform's integers, or holds
    a label or value that is not finite (float() reads "nan" and "inf") is a
    DataFormatError naming its line, and so is a file that does not decode
    as text (`read_text`); a dense (samples, d) array that numpy cannot
    allocate is one naming that shape.  n_nodes < 1 is a ValueError: the
    node count is the caller's input, not the file's.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    labels: list[float] = []
    # per feature entry: its 1-based index and value; per sample: its count
    # and line
    idx: list[int] = []
    val: list[float] = []
    counts: list[int] = []
    lines: list[int] = []
    d = 0
    # the lines a text-mode file yields: read_text translates "\r\n" and
    # "\r" to "\n", and splitlines would also split at other separators
    for ln, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        line_idx = []
        try:
            labels.append(float(toks[0]))
            for tok in toks[1:]:
                i_str, v_str = tok.split(":")
                line_idx.append(int(i_str))
                val.append(float(v_str))
        except (ValueError, IndexError) as exc:
            raise DataFormatError(f"{path}: malformed line {ln}: {exc}") from exc
        if line_idx and min(line_idx) < 1:
            raise DataFormatError(f"{path}: malformed line {ln}: feature index < 1")
        if len(set(line_idx)) < len(line_idx):
            raise DataFormatError(f"{path}: malformed line {ln}: a feature index repeats")
        if line_idx:
            top = max(line_idx)
            if top > _INDEX_MAX:
                raise DataFormatError(f"{path}: malformed line {ln}: feature index {top} "
                                      "exceeds the platform's integers")
            d = max(d, top)
        idx += line_idx
        counts.append(len(line_idx))
        lines.append(ln)
    cols = np.array(idx, dtype=np.intp) - 1
    m = len(counts)
    if m < n_nodes:
        raise DataFormatError(f"{m} samples cannot be split over {n_nodes} nodes")
    if d == 0:
        raise DataFormatError(f"{path}: no features found")

    try:
        a = np.zeros((m, d))
    except (MemoryError, ValueError) as exc:
        # ValueError: more bytes than the platform's integers count
        raise DataFormatError(f"{path}: the ({m}, {d}) feature array cannot be "
                              f"allocated: {exc}") from exc
    a[np.repeat(np.arange(m), counts), cols] = val
    raw = np.asarray(labels)
    finite = np.isfinite(raw) & np.isfinite(a).all(axis=1)
    if not finite.all():
        raise DataFormatError(f"{path}: malformed line {lines[int(np.argmin(finite))]}: "
                              "a label or value is not finite")
    y = _map_labels(raw)

    if normalize:
        lo = a.min(axis=0)
        rng_ = a.max(axis=0) - lo
        rng_[rng_ == 0] = 1.0
        a = (a - lo) / rng_

    base, rem = divmod(m, n_nodes)
    cuts = np.cumsum([base + (i < rem) for i in range(n_nodes - 1)], dtype=int)
    return LogRegDataset(features=tuple(np.split(a, cuts)), labels=tuple(np.split(y, cuts)), d=d)


class LogisticSuite(ObjectiveSuite):
    """Per node: f_i(x) = (1/n_i) sum_s log(1 + exp(-y_s a_s'x)) + (1/n_i)||x||^2.

    The per-node regularizer weight 1/n_i makes the global strong-convexity
    constant data dependent: mu = (2/n) sum_i 1/n_i (curvature of the
    regularizers alone; the loss term only adds curvature).
    L_i = lam_max(A_i'A_i)/(4 n_i) + 2/n_i and L = max_i L_i.
    """

    def __init__(self, dataset: LogRegDataset):
        for i, a in enumerate(dataset.features):
            if a.shape[0] == 0:
                raise DataFormatError(f"node {i} received an empty shard")
        self.dataset = dataset
        self.n = dataset.n_nodes
        self.d = dataset.d
        counts = np.array([a.shape[0] for a in dataset.features], dtype=float)
        self.mu = float(2.0 / self.n * np.sum(1.0 / counts))
        # signed features y_s * a_s of every node, padded with zero rows to
        # the largest shard: a zero row has margin 0 and adds nothing to the
        # gradient, so all nodes share one (n, max n_i, d) tensor
        self._counts = counts[:, None, None]
        signed = np.zeros((self.n, int(counts.max()), self.d))
        for i, (a, y) in enumerate(zip(dataset.features, dataset.labels)):
            signed[i, :a.shape[0]] = a * y[:, None]
        # -1/2 times the signed features, for the gradient kernel: scaling
        # by a power of two is exact, so every product and sum over them is
        # -1/2 times the one over the signed features, bit for bit.  The
        # transpose stays a view: a contiguous copy would switch the BLAS
        # kernel and the rounding
        self._half = -0.5 * signed
        self._half_t = self._half.transpose(0, 2, 1)
        # (y a)'(y a) = a'a: the Gram matrices of the signed shards.  Features
        # near the float limit overflow one, and then L is inf: the reference
        # optimum's descent at step 1/L = 0 would never end
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.matmul(signed.transpose(0, 2, 1), signed)
            gram_top = np.linalg.eigvalsh(gram)[:, -1] if np.isfinite(gram).all() else np.inf
            self.L = float(np.max(gram_top / (4.0 * counts) + 2.0 / counts))
        if not (np.isfinite(self.L) and np.isfinite(self.mu)):
            raise DataFormatError(f"smoothness constant L = {self.L} or strong-convexity "
                                  f"constant mu = {self.mu} is not finite: a feature value "
                                  "is too large")
        self.x_star = None  # filled in by logreg_suite

    def grad_stack(self, xs):
        return self._grads(xs[:, :, None])[:, :, 0]

    def grad_stack_batch(self, xs):
        return self._grads(xs)

    def _grads(self, xs):
        # sigmoid(-m) = 0.5 * (1 + tanh(-m / 2)): branch-free and saturates
        # without overflow.  With the -1/2 folded into _half, the gradient
        # (2x - (y a)' sigmoid(-m)) / n_i is ((-a y / 2)' (1 + tanh) + 2x) / n_i
        g = np.tanh(np.matmul(self._half, xs))
        g += 1.0
        g = np.matmul(self._half_t, g)
        g += 2.0 * xs
        g /= self._counts
        return g


def compute_reference_optimum(suite: ObjectiveSuite, tol: float = 1e-12,
                              max_iters: int = 10_000_000) -> np.ndarray:
    """Minimizer of the global average objective.

    Quadratic suites are solved analytically; anything else runs centralized
    gradient descent with step 1/L from zero until the global gradient norm
    drops below tol.  Deterministic for a fixed suite.
    """
    if isinstance(suite, QuadraticSuite):
        return np.linalg.solve(suite.hessian, -suite.bs.mean(axis=0))
    x = np.zeros(suite.d)
    step = 1.0 / suite.L
    for _ in range(max_iters):
        g = suite.global_grad(x)
        if np.linalg.norm(g) <= tol:
            return x
        x = x - step * g
    achieved = float(np.linalg.norm(suite.global_grad(x)))
    raise ReferenceOptimumError(
        f"gradient norm {achieved:.3e} after {max_iters} iterations (target {tol:.1e})")


def logreg_suite(dataset: LogRegDataset) -> LogisticSuite:
    """Logistic suite with the reference optimum solved to 1e-12."""
    suite = LogisticSuite(dataset)
    suite.x_star = compute_reference_optimum(suite)
    return suite
