"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: finite
differences for gradients, dense eigendecompositions for spectral
quantities, per-edge loops for graph matrices, a breadth-first search for
connectivity, and an explicit Kronecker-product reference for the blockwise
mixing update.  The strict
mixing-matrix check lives here too: the library checks custom input
(`validate_communication_matrix`) but not the Metropolis matrices it builds.
"""

import numpy as np
import pytest

import gradtrack as gt


def central_diff(f, x, h=None):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def eig_beta(w):
    """Deflated spectral norm via a dense symmetric eigensolver."""
    n = w.shape[0]
    return float(np.max(np.abs(np.linalg.eigvalsh(w - np.ones((n, n)) / n))))


def edge_set(graph):
    """The graph's edges as a set of (i, j) tuples, i < j."""
    return frozenset((int(i), int(j)) for i, j in graph.edges)


def bfs_connected(graph):
    """Breadth-first reachability from node 0 over adjacency lists: the
    reference for the vectorised `Graph.is_connected`."""
    adj = {i: [] for i in range(graph.n)}
    for i, j in graph.edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == graph.n


def adjacency(graph):
    """Dense 0/1 adjacency matrix, one edge at a time."""
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def loop_metropolis(graph, laziness=0.0):
    """Metropolis-Hastings weights one edge and one row at a time: the
    reference for the vectorised `metropolis_weights`."""
    n = graph.n
    deg = np.zeros(n, dtype=int)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = (1.0 - laziness) / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - (w[i].sum() - w[i, i])
    return w


def validate_mixing_matrix(w, graph):
    """Strict mixing-matrix invariants of a dense array: the
    communication-matrix rules plus strictly positive weights on every edge."""
    gt.topology.validate_communication_matrix(w, graph)
    i, j = graph.edges.T
    zero = np.flatnonzero(w[i, j] <= 0)
    if len(zero):
        raise ValueError(f"edge ({i[zero[0]]},{j[zero[0]]}) carries zero weight")


def neighbour_table(w):
    """The neighbour table of a square array, packed from its nonzeros
    whatever their count per row."""
    rows, cols = np.nonzero(w)
    return gt.topology._pack(len(w), rows, cols, w[rows, cols],
                             np.bincount(rows, minlength=len(w)))


def eig_matrix_power(w, p):
    """Matrix power reconstructed from an eigendecomposition."""
    vals, vecs = np.linalg.eigh(w)
    return (vecs * vals**p) @ vecs.T


def local_value(suite, i, x):
    """Node i's objective at x, one node at a time from the suite's data (a
    quadratic's Q_i and b_i, a logistic suite's shard): the per-node
    reference for the library's batched gradients."""
    if isinstance(suite, gt.QuadraticSuite):
        return float(0.5 * x @ suite.qs[i] @ x + suite.bs[i] @ x)
    margins = (suite.dataset.features[i] @ x) * suite.dataset.labels[i]
    n_i = margins.shape[0]
    return float(np.logaddexp(0.0, -margins).sum() / n_i + (x @ x) / n_i)


def local_grad(suite, i, x):
    """Node i's gradient at x, one node at a time from the suite's data."""
    if isinstance(suite, gt.QuadraticSuite):
        return suite.qs[i] @ x + suite.bs[i]
    a, y = suite.dataset.features[i], suite.dataset.labels[i]
    # sigmoid(-m) = 1 / (1 + e^m), overflow-free through logaddexp
    sig = np.exp(-np.logaddexp(0.0, (a @ x) * y))
    return (-(a.T @ (y * sig)) + 2.0 * x) / a.shape[0]


def node_grad(suite, i, x):
    """The library's gradient of node i at x: row i of `grad_stack` with
    every node at x."""
    return suite.grad_stack(np.tile(x, (suite.n, 1)))[i]


def as_array(ev):
    """An ErrorVector's (opt_err, x_consensus, y_consensus) as one array."""
    return np.array([ev.opt_err, ev.x_consensus, ev.y_consensus])


def global_value(suite, x):
    """Global average objective, summed from the per-node references."""
    return sum(local_value(suite, i, x) for i in range(suite.n)) / suite.n


def custom_strategy(w, n_c, mats):
    """strategy_for("custom") on four arrays, wrapped against w's graph the
    way a grid wraps its custom matrices."""
    return gt.strategy_for("custom", w, n_c,
                           custom=gt.topology.communication_matrices(mats, w.graph))


def kernel_params(strategy, alpha, n_g=1):
    """The kernel's parameters (`tracking._stack`) that `outer_step` and
    `advance` take: one column at step size alpha, or one column per entry
    of an array alpha, all through the one strategy."""
    alphas = [alpha] if np.ndim(alpha) == 0 else [float(a) for a in alpha]
    return gt.tracking._stack([gt.GtaConfig(strategy=strategy, alpha=a, n_g=n_g) for a in alphas])


def slot_powers(strategy):
    """W^n_c of each slot from its MixingMatrix's shared powers (the
    identity for an identity slot): the matrices of the dense route."""
    eye = np.eye(strategy.n)
    return [eye if m is None else m.power(strategy.n_c) for m in strategy.slots]


def apply_counting_rounds(m, v, n_c):
    """m.apply(v, n_c) and the round counts of the `NeighbourTable.apply`
    calls that read v itself: [n_c] on the rounds route, [] on the dense
    route (whose first product may build the power from rounds on W)."""
    rounds = []
    real = gt.topology.NeighbourTable.apply

    def counting(table, src, k):
        if src is v:
            rounds.append(k)
        return real(table, src, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gt.topology.NeighbourTable, "apply", counting)
        out = m.apply(v, n_c)
    return out, rounds


def kron_outer_step(state_x, state_y, grads, suite, strategy, alpha):
    """Dense Kronecker reference for the communication update.

    Materializes Z_i = W_i^nc (x) I_d and applies it to the flattened
    vectors of one-column (n, d, 1) stacks; returns the next (x, y) stacks.
    """
    n, d, _ = state_x.shape
    eye_d = np.eye(d)
    z = [np.kron(p, eye_d) for p in slot_powers(strategy)]
    x_flat = state_x.reshape(-1)
    y_flat = state_y.reshape(-1)
    x_next = z[0] @ x_flat - alpha * (z[1] @ y_flat)
    g_next = suite.grad_stack(x_next.reshape(n, d))
    y_next = z[2] @ y_flat + z[3] @ (g_next.reshape(-1) - grads.reshape(-1))
    return x_next.reshape(n, d, 1), y_next.reshape(n, d, 1)


@pytest.fixture
def scalar_suite():
    """Single node, f(x) = x^2/2 (L = mu = 1, x* = 0)."""
    return gt.QuadraticSuite([[[1.0]]], [[0.0]])


@pytest.fixture
def two_node_suite():
    """The hand-solvable pair Q1 = I, Q2 = diag(3, 1), b = (-2, 0)."""
    return gt.QuadraticSuite([np.diag([1.0, 1.0]), np.diag([3.0, 1.0])],
                              [[-2.0, 0.0], [-2.0, 0.0]])


@pytest.fixture
def mirrored_pair():
    """Two nodes, f_i = 3x^2/2 + b_i x with b_2 = -b_1 (x* = 0), mixing
    nothing: the nodes mirror each other, so x_bar stays exactly 0 while a
    step above 2/3 drives them apart.  Returns (suite, strategy)."""
    suite = gt.QuadraticSuite([[[3.0]], [[3.0]]], [[1.0], [-1.0]])
    w = gt.metropolis_weights(gt.build_graph("complete", 2))
    eye = np.eye(2)
    return suite, custom_strategy(w, 1, (eye, eye, eye, eye))


@pytest.fixture
def small_quadratic():
    return gt.generate_quadratic(gt.QuadraticSpec(n=8, d=4, kappa_target=30.0, seed=2))


@pytest.fixture
def cycle8_mixing():
    return gt.metropolis_weights(gt.build_graph("cycle", 8))
