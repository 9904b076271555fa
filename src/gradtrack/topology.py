"""Network graphs, mixing matrices and communication strategies.

A mixing matrix is a symmetric doubly stochastic matrix whose sparsity
pattern matches an undirected graph; one multiplication by it is one
consensus (averaging) round across neighbours.  A communication strategy is
four such matrices (None for the identity) plus the rounds per iteration;
GTA-1, GTA-2 and GTA-3 are assignments of its slots (SLOT_PATTERNS).

A `Graph` holds one thing, its sorted edge array; its constructor is the
one place edges are checked.  Graphs, mixing matrices and strategies
compare by identity.

Every `MixingMatrix` is built by `_from_entries` out of W's nonzero entries,
sorted by row and then by column (a Metropolis matrix reads them off the
edge list, a custom matrix off its validated array), and holds one
representation.  A matrix with few nonzeros per row (see ROUND_COST) holds
its neighbour table and no n x n array: `MixingMatrix.apply` runs W^n_c as
n_c gather rounds where that is cheaper than one dense product with the
power, and its beta comes from a Lanczos iteration whose steps are gather
rounds (see KRYLOV_CAP).  Any other matrix holds its dense array.  A table
matrix's n x n array exists only while a dense product, a dense eigensolve
or a reader of `MixingMatrix.w` needs it.

Matrices are checked where input enters: `validate_communication_matrix`
checks a custom matrix, and `compute_beta` checks an array it is given.  A
Metropolis matrix is symmetric, doubly stochastic and positive on its
diagonal and edges by construction; the tests check that, not the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math
from pathlib import Path

import numpy as np

from .problems import DataFormatError, read_text

METHOD_NAMES = ("GTA1", "GTA2", "GTA3")
# which slot of (W1, W2, W3, W4) holds the mixing matrix W and which the identity I
SLOT_PATTERNS = {"GTA1": "WIWI", "GTA2": "WWWI", "GTA3": "WWWW"}

# Tolerances for validating stochasticity of constructed vs. powered matrices.
_STOCHASTIC_ATOL = 1e-12
_POWERED_ATOL = 1e-9

# beta^n_c at or below this counts as exact averaging: compute_beta returns
# 0 for smaller betas (eigensolver noise), and the theory takes the fully
# connected reduction.
EXACT_AVERAGING_TOL = 1e-12

# One gather round costs about ROUND_COST times a dense product's work per
# matrix entry it reads: about half the break-even that
# scripts/mixing_crossover.py measures, a margin against noisier hosts
# (CHANGES.md, "Sparse consensus rounds on sparse networks").  So an n x n
# matrix whose densest row holds m nonzeros gets a neighbour table when
# m * ROUND_COST <= n, and W^n_c is applied as n_c rounds when
# n_c * m * ROUND_COST <= n; otherwise as one dense product with the power.
ROUND_COST = 64
# floats in the gather temporary of one row block of a round
_GATHER_FLOATS = 1 << 16
# columns per block of a power built from rounds: the block and its round buffers
# hold 3 * n * 128 floats, not two more n x n arrays (a lazy power is built mid-sweep)
_POWER_COLUMNS = 128
# rows per block of the dense row sums behind a table-built Metropolis diagonal
_SUM_ROWS = 128

# Largest Krylov dimension of compute_beta's Lanczos route.  A matrix whose
# extreme Ritz values have not converged by then takes the dense eigensolve:
# a slow-mixing ring needs about n/2 steps, and at n = 1024 those cost more
# than the dense solve.
KRYLOV_CAP = 256
# a Ritz value whose residual bound |b_k s_k| is at most this has converged
_RITZ_TOL = 1e-13
# the Lanczos route looks at its Ritz values every this many steps (a dense
# eigh of T_k each time), and at breakdown and at its last step
_RITZ_CHECK_EVERY = 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on nodes 0..n-1, held as one array: ``edges``, its
    read-only (E, 2) np.intp edge list, i < j in each row, rows sorted and
    distinct.  The constructor is the one place edges are checked: it takes
    integer pairs in any order and either orientation, rejects self-loops,
    nodes outside 0..n-1 and duplicates, and stores its own array (the
    caller's is neither kept nor changed).  Graphs compare by identity."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        pairs = np.asarray(self.edges) if len(self.edges) else np.empty((0, 2), np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be (E, 2) integer node pairs, got {pairs.shape}")
        pairs = pairs.astype(np.intp, copy=False)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= self.n))
        if len(bad):
            i, j = pairs[bad[0]]
            raise ValueError(f"self-loop ({i},{j}) not allowed" if i == j else
                             f"edge ({i},{j}) references invalid node for n={self.n}")
        order = np.lexsort((hi, lo))            # by i, then by j
        i, j = lo[order], hi[order]
        dup = np.flatnonzero((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
        if len(dup):
            raise ValueError(f"duplicate edge ({i[dup[0]]},{j[dup[0]]}) in edge list")
        edges = np.column_stack([i, j])
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def is_connected(self) -> bool:
        """Whether every node reaches node 0, by min-label propagation with
        pointer jumping: each round gives a node the least label of itself
        and its neighbours, then that label's label.  Labels stay inside
        their component and move at least one hop a round, so each component
        settles on its least node within diameter + 1 rounds of O(|E|) work."""
        ends, others = self.edges.ravel(), self.edges[:, ::-1].ravel()
        label = np.arange(self.n)
        while True:
            new = label.copy()
            np.minimum.at(new, ends, label[others])
            new = new[new]
            if (new == label).all():
                return not label.any()
            label = new


def build_graph(kind: str, n: int, edges=None) -> Graph:
    """Construct a named graph, its pairs made in numpy, or one from an
    explicit edge list; `Graph` checks, orients and sorts the pairs.

    Args:
        kind: one of "cycle" (n >= 3), "star" (n >= 2, node 0 is the hub),
            "complete" (n >= 1), "torus" (n = side^2 with side >= 3: node
            r*side + c links to its right and down neighbours, wrapping) or
            "edge_list".
        n: node count.
        edges: (E, 2) array-like of (i, j) node pairs, required for
            kind="edge_list".  Self-loops and duplicate edges (in either
            orientation) are rejected.
    """
    if kind == "edge_list":
        if edges is None:
            raise ValueError("edge_list requires an explicit edge list")
        return Graph(n=n, edges=edges)
    node = np.arange(n)
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle requires n >= 3, got {n}")
        i, j = node, (node + 1) % n
    elif kind == "star":
        if n < 2:
            raise ValueError(f"star requires n >= 2, got {n}")
        i, j = np.zeros_like(node[1:]), node[1:]
    elif kind == "complete":
        i, j = np.triu_indices(n, 1)
    elif kind == "torus":
        side = math.isqrt(n)
        if side * side != n or side < 3:
            raise ValueError(f"torus requires n = side^2 with side >= 3, got {n}")
        r, c = divmod(node, side)
        i, j = np.tile(node, 2), np.concatenate([r * side + (c + 1) % side,
                                                 (r + 1) % side * side + c])
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n=n, edges=np.column_stack([i, j]))


@dataclass(frozen=True)
class NeighbourTable:
    """The nonzeros of a square matrix by row: entry (i, nbr[j, i]) holds
    wt[j, i] for j < m, the largest row count; each row lists its entries
    in ascending column order, and a shorter row is padded with weight 0 on
    its own column."""

    nbr: np.ndarray     # (m, n) column indices
    wt: np.ndarray      # (m, n) weights

    def apply(self, v: np.ndarray, rounds: int) -> np.ndarray:
        """matrix^rounds v for an (n, k) array v, as `rounds` gather rounds:
        out[i] = sum_j wt[j, i] * v[nbr[j, i]], summed in order j = 0, 1, ...
        Always a new array.

        A round runs in row blocks whose gather temporary holds about
        _GATHER_FLOATS floats.  Laid out as (m, rows, k), the gather keeps
        einsum's sum in j order at every k and block size (a (rows, m, k)
        layout does not at k = 1), so a column's bits depend neither on the
        other columns nor on the blocking.
        """
        m, n = self.nbr.shape
        k = v.shape[1]
        step = max(1, _GATHER_FLOATS // (m * k))
        gather = np.empty(m * min(step, n) * k)
        bufs = [np.empty(v.shape) for _ in range(min(rounds, 2))]
        src = v
        for r in range(rounds):
            dst = bufs[r % 2]
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                g = gather[:m * (hi - lo) * k].reshape(m, hi - lo, k)
                np.take(src, self.nbr[:, lo:hi], axis=0, out=g, mode="clip")
                np.einsum("ji,jik->ik", self.wt[:, lo:hi], g, out=dst[lo:hi])
            src = dst
        return src if rounds else v.copy()

    def densify(self) -> np.ndarray:
        """The n x n matrix the table holds, as a new array."""
        m, n = self.nbr.shape
        out = np.zeros((n, n))
        # a padding entry adds 0 to its row's diagonal entry
        np.add.at(out, (np.broadcast_to(np.arange(n), (m, n)), self.nbr), self.wt)
        return out


def _pack(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
          counts: np.ndarray) -> NeighbourTable:
    """The table of the entries (rows, cols, vals), sorted by row and then
    by column; row i holds counts[i] of them."""
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    nbr = np.tile(np.arange(n), (int(counts.max()), 1))    # padding: own column, weight 0
    wt = np.zeros(nbr.shape)
    nbr[slot, rows] = cols
    wt[slot, rows] = vals
    return NeighbourTable(nbr=nbr, wt=wt)


def _readonly(w: np.ndarray) -> np.ndarray:
    w = np.ascontiguousarray(w, dtype=float)
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic matrix respecting a graph: a Metropolis
    mixing matrix, or a custom communication matrix (`communication_matrices`).

    ``beta`` is the spectral norm of ``w - ones/n``: the magnitude of the
    second-largest eigenvalue of ``w``. Smaller beta means faster mixing;
    beta < 1 exactly when the matrix mixes over a connected graph.

    The matrix has one representation, chosen by `_from_entries`:
    ``table``, its neighbour table, when gather rounds can pay
    (m * ROUND_COST <= n), else ``dense``, its read-only n x n array; the
    other field is None.  `apply` applies
    W^n_c; powers are computed on first use and shared by every strategy
    built from this matrix.  Wrappers compare and hash by identity.
    """

    beta: float
    graph: Graph = field(repr=False)
    table: NeighbourTable | None = field(repr=False)
    dense: np.ndarray | None = field(repr=False)
    _powers: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if (self.table is None) == (self.dense is None):
            raise ValueError("a MixingMatrix holds exactly one of a table and a dense array")

    @property
    def w(self) -> np.ndarray:
        """The n x n matrix: ``dense`` itself, or, for a table matrix, a new
        array densified from the table on every access (nothing keeps it)."""
        return self.dense if self.table is None else self.table.densify()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """W's eigenvalues in ascending order, from one dense eigensolve on
        first use; those of W^p are their p-th powers."""
        return np.linalg.eigvalsh(self.w)

    @cached_property
    def is_identity(self) -> bool:
        """Whether W is exactly the identity (a slot that exchanges nothing)."""
        if self.table is None:
            return (np.count_nonzero(self.dense) == self.graph.n
                    and bool(np.all(np.diagonal(self.dense) == 1.0)))
        # each row lists its nonzeros, so only the identity's list just the diagonal
        return bool(np.all(self.table.nbr == np.arange(self.graph.n))
                    and np.all(self.table.wt == 1.0))

    def apply(self, v: np.ndarray, n_c: int) -> np.ndarray:
        """W^n_c v for an (n, k) array v, always a new array: n_c gather
        rounds on the table when they cost less than one dense product
        (ROUND_COST), else one product with ``power(n_c)``."""
        table = self.table
        if table is not None and n_c * len(table.nbr) * ROUND_COST <= self.graph.n:
            return table.apply(v, n_c)
        # ndarray.dot: matmul's BLAS call (same bits) without its ufunc dispatch,
        # and a cached power without a call to `power`; a run's products notice
        power = self._powers.get(n_c)
        return (self.power(n_c) if power is None else power).dot(v)

    def power(self, p: int) -> np.ndarray:
        """Read-only ``matrix_power`` of the table or the dense array,
        computed on the first request for each p and shared by every later
        caller; power(0) is the identity and a dense matrix's power(1) is
        ``dense`` itself."""
        out = self._powers.get(p)
        if out is None:
            if self.table is None:
                out = self.dense if p == 1 else _readonly(matrix_power(self.dense, p))
            else:
                out = _readonly(matrix_power(self.table, p))
            self._powers[p] = out
        return out


def _from_entries(graph: Graph, rows: np.ndarray, cols: np.ndarray,
                  vals: np.ndarray) -> MixingMatrix:
    """The MixingMatrix over `graph` whose nonzeros are (rows, cols, vals),
    sorted by row and then by column.  When the densest row holds m of them
    and m * ROUND_COST <= n, it holds their neighbour table and the
    Lanczos beta; otherwise the dense array they scatter into and its dense
    beta.  No padded table is built for a matrix that gets a dense array."""
    n = graph.n
    counts = np.bincount(rows, minlength=n)
    if int(counts.max()) * ROUND_COST <= n:
        table = _pack(n, rows, cols, vals, counts)
        return MixingMatrix(beta=compute_beta(table), graph=graph, table=table, dense=None)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    dense = _readonly(dense)
    return MixingMatrix(beta=compute_beta(dense), graph=graph, table=None, dense=dense)


def validate_communication_matrix(w: np.ndarray, graph: Graph) -> None:
    """Check the relaxed (communication-matrix) invariants.

    Finite entries, symmetric, doubly stochastic within 1e-12, positive
    diagonal, nonnegative entries, and zero off-diagonal entries outside the
    graph's edges.  The identity matrix always passes.
    """
    w = np.asarray(w, dtype=float)
    n = graph.n
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match n={n}")
    # every check below has the form "deviation > tol", which NaN passes
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix has non-finite entries")
    # every nonzero of w is in (rows, cols), so the symmetry check there
    # covers every pair that could break it
    rows, cols = np.nonzero(w)
    if np.max(np.abs(w[rows, cols] - w[cols, rows]), initial=0.0) > _STOCHASTIC_ATOL:
        raise ValueError("matrix is not symmetric")
    if np.max(np.abs(w.sum(axis=1) - 1.0)) > _STOCHASTIC_ATOL:
        raise ValueError("rows do not sum to 1")
    if np.max(np.abs(w.sum(axis=0) - 1.0)) > _STOCHASTIC_ATOL:
        raise ValueError("columns do not sum to 1")
    if np.any(w < 0):
        raise ValueError("negative entries")
    if np.any(np.diag(w) <= 0):
        raise ValueError("diagonal entries must be positive")
    # with a positive diagonal, w holds len(rows) - n off-diagonal nonzeros,
    # and each edge's two entries account for at most two of them
    i, j = graph.edges.T
    if len(rows) - n > np.count_nonzero(w[i, j]) + np.count_nonzero(w[j, i]):
        raise ValueError("nonzero entry outside the graph's edge set")


def compute_beta(w: np.ndarray | NeighbourTable) -> float:
    """Spectral norm of ``w - ones/n`` for a symmetric doubly stochastic
    matrix, given as a square array or as its neighbour table.

    Equals the second-largest eigenvalue magnitude of w, and lies in [0, 1];
    values at or below EXACT_AVERAGING_TOL are returned as exactly 0.  An
    array is public input: it is checked for symmetry and double
    stochasticity (within _POWERED_ATOL), and beta comes from a dense
    eigensolve.  A table is not checked, since only `_from_entries` builds
    one, from a validated array or the Metropolis formula; its beta comes
    from `_lanczos_beta`, whose products with w are gather rounds, or, when
    Lanczos reaches KRYLOV_CAP steps, from the dense eigensolve of an array
    densified from the table for this call only.
    """
    if isinstance(w, NeighbourTable):
        beta = _lanczos_beta(w)
        dense = None if beta is not None else w.densify()
    else:
        beta, dense = None, np.asarray(w, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        if np.max(np.abs(dense - dense.T)) > _POWERED_ATOL:
            raise ValueError("matrix is not symmetric")
        if max(np.max(np.abs(dense.sum(axis=1) - 1.0)),
               np.max(np.abs(dense.sum(axis=0) - 1.0))) > _POWERED_ATOL:
            raise ValueError("matrix is not doubly stochastic")
    if beta is None:
        n = len(dense)
        beta = float(np.max(np.abs(np.linalg.eigvalsh(dense - np.full((n, n), 1.0 / n)))))
    if beta > 1.0 + 1e-8:
        raise ValueError(f"beta = {beta} > 1: input cannot be doubly stochastic")
    if beta <= EXACT_AVERAGING_TOL:
        return 0.0          # eigensolver noise around an exact average
    return min(beta, 1.0)   # clamp eigensolver noise; beta <= 1 holds exactly


def _lanczos_beta(table: NeighbourTable) -> float | None:
    """The largest eigenvalue magnitude of v -> W v - mean(v) on vectors
    orthogonal to the ones vector, for the symmetric matrix W of `table`:
    beta of W.  None when KRYLOV_CAP steps do not settle it.

    Lanczos with full reorthogonalisation (two classical Gram-Schmidt
    passes per step) from a fixed-seed start vector orthogonal to the ones
    vector, one gather round per step.  It stops when the extreme Ritz
    value of the tridiagonal T_k of larger magnitude has residual bound
    |b_k s_k| <= _RITZ_TOL (s_k: the last entry of the Ritz vector in T_k's
    basis) and the other extreme has too, or lies below it in magnitude by
    more than its own bound; or on breakdown (b_k <= _RITZ_TOL: the Krylov
    space is invariant).  Ritz values lie inside the spectrum, and each is
    within its residual bound of an eigenvalue.  (Roundoff lets the ones
    vector back into the basis once the Krylov space is nearly invariant;
    it shows as a Ritz value near 0 whose bound need not settle.)
    """
    n = table.nbr.shape[1]
    steps = min(KRYLOV_CAP, n - 1)
    q = np.random.default_rng(0).standard_normal(n)
    q -= q.mean()
    q /= np.linalg.norm(q)
    basis = np.empty((steps, n))
    alpha, b = np.zeros(steps), np.empty(steps)
    for k in range(steps):
        basis[k] = q
        v = table.apply(q[:, None], 1)[:, 0]
        v -= v.mean()
        done = basis[:k + 1]
        for _ in range(2):
            coef = done @ v
            v -= coef @ done
            alpha[k] += coef[k]
        b[k] = np.linalg.norm(v)
        if (k + 1) % _RITZ_CHECK_EVERY == 0 or k + 1 == steps or b[k] <= _RITZ_TOL:
            t = np.diag(alpha[:k + 1]) + np.diag(b[:k], 1) + np.diag(b[:k], -1)
            theta, s = np.linalg.eigh(t)
            mag, bound = np.abs(theta[[0, -1]]), b[k] * np.abs(s[-1, [0, -1]])
            top = int(np.argmax(mag))
            other = 1 - top
            if bound[top] <= _RITZ_TOL and (bound[other] <= _RITZ_TOL
                                            or mag[other] + bound[other] <= mag[top]):
                return float(mag[top])
        q = v / b[k]
    return None


def matrix_power(w: np.ndarray | NeighbourTable, p: int) -> np.ndarray:
    """p-fold matrix product of a square array by iterated multiplication,
    (..((w @ w) @ w)..), or of the matrix a neighbour table holds as p
    gather rounds on the identity's columns in blocks of _POWER_COLUMNS (a
    column's rounds do not depend on the others; the first round gives
    W's columns exactly); w^0 is the identity.  Always a new array."""
    if isinstance(w, NeighbourTable):
        if p < 0 or int(p) != p:
            raise ValueError(f"power must be a nonnegative integer, got {p}")
        n = w.nbr.shape[1]
        out = np.empty((n, n))
        for lo in range(0, n, _POWER_COLUMNS):
            eye_block = np.eye(n, min(_POWER_COLUMNS, n - lo), -lo)
            out[:, lo:lo + _POWER_COLUMNS] = w.apply(eye_block, int(p))
        return out
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if p < 0 or int(p) != p:
        raise ValueError(f"power must be a nonnegative integer, got {p}")
    if p == 0:
        return np.eye(w.shape[0])
    out = w.copy()
    for _ in range(int(p) - 1):
        out = out @ w
    return out


def _metropolis_entries(graph: Graph, laziness: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros (rows, cols, vals) of the Metropolis matrix of `graph`,
    sorted by row and then by column, read off the edge list.  The diagonal
    is 1 minus each row's dense pairwise sum, taken over row blocks of a
    zeroed buffer, so it has the bits of the dense construction's
    ``w.sum(axis=1)``."""
    n = graph.n
    deg = graph.degrees()
    i, j = graph.edges.T
    weight = (1.0 - laziness) / (1.0 + np.maximum(deg[i], deg[j]))
    node = np.arange(n)
    rows, cols = np.concatenate([i, j, node]), np.concatenate([j, i, node])
    order = np.argsort(rows * n + cols)             # by row, then by column: unique keys
    rows, cols = rows[order], cols[order]
    vals = np.concatenate([weight, weight, np.zeros(n)])[order]
    diagonal = np.empty(n)
    buf = np.empty((min(_SUM_ROWS, n), n))
    for lo in range(0, n, _SUM_ROWS):
        hi = min(lo + _SUM_ROWS, n)
        a, b = np.searchsorted(rows, (lo, hi))
        block = buf[:hi - lo]
        block.fill(0.0)
        block[rows[a:b] - lo, cols[a:b]] = vals[a:b]
        diagonal[lo:hi] = 1.0 - block.sum(axis=1)
    vals[rows == cols] = diagonal                   # one diagonal entry per row, in row order
    return rows, cols, vals


def metropolis_weights(graph: Graph, laziness: float = 0.0) -> MixingMatrix:
    """Metropolis-Hastings mixing matrix, optionally lazy.

    Edge weight: (1 - laziness) / (1 + max(deg_i, deg_j)); the diagonal
    absorbs the remainder so rows sum to one exactly.  laziness=0 is the
    plain Metropolis-Hastings scheme.  Requires a connected graph, which
    guarantees beta < 1.  The entries, read off the edge list, go to
    `_from_entries`: a graph whose rows hold m = max degree + 1 nonzeros
    with m * ROUND_COST <= n gets its neighbour table, with no n x n array,
    and any other graph a dense array.  The formula makes the matrix
    symmetric, doubly stochastic and positive on its diagonal and on every
    edge, so nothing checks it here (the tests do).
    """
    if not (0.0 <= laziness < 1.0):
        raise ValueError(f"laziness must be in [0, 1), got {laziness}")
    if not graph.is_connected():
        raise ValueError("graph is disconnected: mixing matrix would have beta = 1")
    mixing = _from_entries(graph, *_metropolis_entries(graph, laziness))
    assert mixing.beta < 1.0, "connected graph must yield beta < 1"
    return mixing


@dataclass(frozen=True, eq=False)
class CommunicationStrategy:
    """Four communication slots plus the consensus-step count per iteration.

    ``slots`` holds the MixingMatrix of each slot, None for a slot that
    exchanges nothing (the identity); slots holding the same matrix hold
    one wrapper, so they share its table, beta and powers.  ``graph`` is
    the network they communicate over.  Strategies compare and hash by
    identity.
    """

    name: str
    n_c: int
    slots: tuple[MixingMatrix | None, ...]
    graph: Graph = field(repr=False)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Each slot's n x n matrix, the identity for a None slot, built on
        every access (`MixingMatrix.w`); slots that hold one wrapper, or the
        identity, share one array."""
        built = {}
        for m in self.slots:
            if m not in built:
                built[m] = np.eye(self.n) if m is None else m.w
        return tuple(built[m] for m in self.slots)

    @property
    def betas(self) -> tuple[float, ...]:
        """Each slot's beta (1.0 for the identity)."""
        return tuple(1.0 if m is None else m.beta for m in self.slots)

    def vectors_per_round(self) -> int:
        """Number of non-identity communication slots (vectors exchanged per
        consensus round)."""
        return sum(m is not None for m in self.slots)


def communication_matrices(mats, graph: Graph) -> tuple[MixingMatrix, ...]:
    """Validate and wrap custom communication matrices against `graph`
    (no relation among them is imposed; subsets of the edge set are
    allowed).  Each distinct matrix is checked by
    `validate_communication_matrix`, and its nonzeros go to `_from_entries`,
    which builds its own table or array: the caller's arrays are neither
    kept nor changed.  Equal matrices share one wrapper, and so one power,
    beta and neighbour table."""
    out, read = [], []
    for m in mats:
        same = next((c for a, c in read if np.array_equal(a, m)), None)
        if same is None:
            a = np.asarray(m, dtype=float)
            validate_communication_matrix(a, graph)
            rows, cols = np.nonzero(a)              # row-major: sorted by row, then column
            same = _from_entries(graph, rows, cols, a[rows, cols])
            read.append((a, same))
        out.append(same)
    return tuple(out)


def strategy_for(method: str, w: MixingMatrix, n_c: int, custom=None) -> CommunicationStrategy:
    """Build the communication strategy for one of the named methods.

    GTA1 -> (W, I, W, I); GTA2 -> (W, W, W, I); GTA3 -> (W, W, W, W).
    Each slot holds a MixingMatrix, so its powers, beta and neighbour table
    are computed once per matrix however many strategies use it; no power
    and no identity matrix is computed here.  method="custom" takes the
    four `communication_matrices` wrappers of a grid; one that is exactly
    the identity becomes an identity slot.
    """
    if n_c < 1 or int(n_c) != n_c:
        raise ValueError(f"n_c must be an integer >= 1, got {n_c}")
    if method in SLOT_PATTERNS:
        slots = tuple(w if k == "W" else None for k in SLOT_PATTERNS[method])
    elif method == "custom":
        if custom is None or len(custom) != 4:
            raise ValueError("custom strategy requires four matrices")
        slots = tuple(None if m.is_identity else m for m in custom)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CommunicationStrategy(name=method, n_c=int(n_c), slots=slots, graph=w.graph)


def write_matrix_csv(w: np.ndarray, path) -> None:
    """Dump a matrix as CSV, row-major, full %.17g precision."""
    w = np.asarray(w, dtype=float)
    lines = [",".join("%.17g" % v for v in row) for row in w]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """The matrix a CSV file holds, one row per line, blank lines skipped.  A
    token that is not a number, or a row whose length differs from the
    first's, is a DataFormatError naming the file and the 1-based line, and
    so is a file that does not decode as text (`read_text`)."""
    rows = []
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed line {ln}: {exc}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise DataFormatError(f"{path}: malformed line {ln}: {len(rows[-1])} entries, "
                                  f"the first row has {len(rows[0])}")
    return np.array(rows, dtype=float)
