"""Network graphs, mixing matrices and communication strategies.

A mixing matrix is a symmetric doubly stochastic matrix whose sparsity
pattern matches an undirected graph; one multiplication by it performs one
consensus (averaging) step across neighbors.  A communication strategy is a
tuple of four such matrices (identity allowed) plus a number of consensus
steps per iteration; the classic gradient tracking variants GTA-1, GTA-2 and
GTA-3 are particular assignments of the four slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..n-1 with a set of unordered edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range or unordered for n={self.n}")

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def is_connected(self) -> bool:
        """BFS reachability from node 0."""
        if self.n == 1:
            return True
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == self.n


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def build_graph(kind: str, n: int, edges=None) -> Graph:
    """Construct a named graph or one from an explicit edge list.

    Args:
        kind: one of "cycle" (n >= 3), "star" (n >= 2, node 0 is the hub),
            "complete" (n >= 1) or "edge_list".
        n: node count.
        edges: iterable of (i, j) pairs, required for kind="edge_list".
            Self-loops and duplicate edges (in either orientation) are
            rejected.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle requires n >= 3, got {n}")
        es = {_normalize_edge(i, (i + 1) % n) for i in range(n)}
    elif kind == "star":
        if n < 2:
            raise ValueError(f"star requires n >= 2, got {n}")
        es = {(0, i) for i in range(1, n)}
    elif kind == "complete":
        es = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "edge_list":
        if edges is None:
            raise ValueError("edge_list requires an explicit edge list")
        raw = [tuple(e) for e in edges]
        for i, j in raw:
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) references invalid node for n={n}")
        es = {_normalize_edge(i, j) for i, j in raw}
        if len(es) != len(raw):
            raise ValueError("duplicate edges in edge list")
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n=n, edges=frozenset(es))


def _readonly(w: np.ndarray) -> np.ndarray:
    w = np.ascontiguousarray(w, dtype=float)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic matrix respecting a connected graph.

    ``beta`` is the spectral norm of ``w - ones/n``: the magnitude of the
    second-largest eigenvalue of ``w``. Smaller beta means faster mixing;
    beta < 1 exactly when the graph is connected.
    """

    w: np.ndarray
    beta: float
    graph: Graph = field(compare=False)
    _powers: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False,
                                           compare=False)

    def power(self, p: int) -> np.ndarray:
        """Read-only ``matrix_power(w, p)``, computed on the first request
        for each p and shared by every later caller; power(0) is the
        identity."""
        out = self._powers.get(p)
        if out is None:
            out = self._powers[p] = _readonly(matrix_power(self.w, p))
        return out


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
    if np.max(np.abs(w - w.T)) > _STOCHASTIC_ATOL:
        raise ValueError("matrix is not symmetric")
    if np.max(np.abs(w.sum(axis=1) - 1.0)) > _STOCHASTIC_ATOL:
        raise ValueError("rows do not sum to 1")
    if np.max(np.abs(w.sum(axis=0) - 1.0)) > _STOCHASTIC_ATOL:
        raise ValueError("columns do not sum to 1")
    if np.any(w < 0):
        raise ValueError("negative entries")
    if np.any(np.diag(w) <= 0):
        raise ValueError("diagonal entries must be positive")
    allowed = graph.adjacency() + np.eye(n)
    if np.any((w > 0) & (allowed == 0)):
        raise ValueError("nonzero entry outside the graph's edge set")


def validate_mixing_matrix(w: np.ndarray, graph: Graph) -> None:
    """Strict mixing-matrix invariants: communication-matrix rules plus
    strictly positive weights on every edge."""
    validate_communication_matrix(w, graph)
    for i, j in graph.edges:
        if w[i, j] <= 0:
            raise ValueError(f"edge ({i},{j}) carries zero weight")


def compute_beta(w: np.ndarray) -> float:
    """Spectral norm of ``w - ones/n`` for a symmetric doubly stochastic w.

    Equals the second-largest eigenvalue magnitude of w, and lies in [0, 1];
    values at or below EXACT_AVERAGING_TOL are returned as exactly 0.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    n = w.shape[0]
    if np.max(np.abs(w - w.T)) > _POWERED_ATOL:
        raise ValueError("matrix is not symmetric")
    if (np.max(np.abs(w.sum(axis=1) - 1.0)) > _POWERED_ATOL
            or np.max(np.abs(w.sum(axis=0) - 1.0)) > _POWERED_ATOL):
        raise ValueError("matrix is not doubly stochastic")
    deflated = w - np.full((n, n), 1.0 / n)
    eigs = np.linalg.eigvalsh(deflated)
    beta = float(np.max(np.abs(eigs)))
    if beta > 1.0 + 1e-8:
        raise ValueError(f"beta = {beta} > 1: input cannot be doubly stochastic")
    if beta <= EXACT_AVERAGING_TOL:
        return 0.0          # eigensolver noise around an exact average
    return min(beta, 1.0)   # clamp eigensolver noise; beta <= 1 holds exactly


def matrix_power(w: np.ndarray, p: int) -> np.ndarray:
    """p-fold matrix product by iterated multiplication, (..((w @ w) @ w)..);
    w^0 is the identity.  Always a new array."""
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


def metropolis_weights(graph: Graph, laziness: float = 0.0) -> MixingMatrix:
    """Metropolis-Hastings mixing matrix, optionally lazy.

    Edge weight: (1 - laziness) / (1 + max(deg_i, deg_j)); the diagonal
    absorbs the remainder so rows sum to one exactly.  laziness=0 is the
    plain Metropolis-Hastings scheme.  Requires a connected graph, which
    guarantees beta < 1.
    """
    if not (0.0 <= laziness < 1.0):
        raise ValueError(f"laziness must be in [0, 1), got {laziness}")
    if not graph.is_connected():
        raise ValueError("graph is disconnected: mixing matrix would have beta = 1")
    n = graph.n
    deg = graph.degrees()
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = (1.0 - laziness) / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - (w[i].sum() - w[i, i])
    validate_mixing_matrix(w, graph)
    beta = compute_beta(w)
    assert beta < 1.0, "connected graph must yield beta < 1"
    return MixingMatrix(w=_readonly(w), beta=beta, graph=graph)


@dataclass(frozen=True)
class CommunicationStrategy:
    """Four communication matrices plus the consensus-step count per iteration.

    ``powered`` holds each matrix raised to the n_c-th power (these are what
    the runtime applies); ``betas`` holds the deflated spectral norm of each
    base matrix (1.0 for the identity); ``identity`` marks the slots that
    exchange nothing.  Slots holding the same matrix share one array.
    """

    name: str
    n_c: int
    matrices: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    powered: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(compare=False)
    betas: tuple[float, float, float, float]
    identity: tuple[bool, bool, bool, bool] = field(compare=False)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def vectors_per_round(self) -> int:
        """Number of non-identity communication slots (vectors exchanged per
        consensus round)."""
        return self.identity.count(False)


def strategy_for(method: str, w: MixingMatrix, n_c: int, custom=None) -> CommunicationStrategy:
    """Build the communication strategy for one of the named methods.

    GTA1 -> (W, I, W, I); GTA2 -> (W, W, W, I); GTA3 -> (W, W, W, W).
    The W slots share ``w.power(n_c)`` and ``w.beta``, and the identity
    slots share ``w.power(0)``, so each power of W is computed once per
    mixing matrix however many strategies use it.
    method="custom" takes four explicit matrices, each validated
    independently against the graph of ``w`` (no relation among the four is
    imposed; subsets of the edge set are allowed).  Equal custom matrices
    share one slot entry: one frozen matrix, power, beta and identity flag.
    """
    if n_c < 1 or int(n_c) != n_c:
        raise ValueError(f"n_c must be an integer >= 1, got {n_c}")
    n_c = int(n_c)
    eye = w.power(0)
    if method in SLOT_PATTERNS:
        # (matrix, its n_c-th power, beta, identity?) for "W" and "I" slots
        kinds = {"W": (w.w, w.power(n_c), w.beta, False), "I": (eye, eye, 1.0, True)}
        slots = [kinds[k] for k in SLOT_PATTERNS[method]]
    elif method == "custom":
        if custom is None or len(custom) != 4:
            raise ValueError("custom strategy requires four matrices")
        slots = []
        for m in custom:
            same = next((s for s in slots if np.array_equal(s[0], m)), None)
            if same is None:
                # a copy: freezing must not touch the caller's array
                m = _readonly(np.array(m, dtype=float))
                validate_communication_matrix(m, w.graph)
                same = (m, _readonly(matrix_power(m, n_c)), compute_beta(m),
                        np.array_equal(m, eye))
            slots.append(same)
    else:
        raise ValueError(f"unknown method {method!r}")
    mats, powered, betas, identity = zip(*slots)
    return CommunicationStrategy(name=method, n_c=n_c, matrices=mats, powered=powered,
                                 betas=betas, identity=identity)


def write_matrix_csv(w: np.ndarray, path) -> None:
    """Dump a matrix as CSV, row-major, full %.17g precision."""
    w = np.asarray(w, dtype=float)
    lines = [",".join("%.17g" % v for v in row) for row in w]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().strip().splitlines():
        rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows, dtype=float)
