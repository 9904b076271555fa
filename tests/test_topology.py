import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradtrack as gt
from gradtrack import harness, topology
from gradtrack.topology import (_POWERED_ATOL, KRYLOV_CAP, METHOD_NAMES, ROUND_COST,
                                NeighbourTable, _lanczos_beta, build_graph,
                                communication_matrices, compute_beta, matrix_power,
                                metropolis_weights, read_matrix_csv, strategy_for,
                                validate_communication_matrix, write_matrix_csv)

from conftest import (adjacency, apply_counting_rounds, bfs_connected, custom_strategy,
                      edge_set, eig_beta, eig_matrix_power, loop_metropolis,
                      neighbour_table, validate_mixing_matrix)


# ---------------------------------------------------------------- graphs

def test_complete_two_nodes_has_the_only_edge():
    g = build_graph("complete", 2)
    assert edge_set(g) == frozenset({(0, 1)})


def test_cycle_four_nodes():
    g = build_graph("cycle", 4)
    assert edge_set(g) == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert g.is_connected()


def test_star_sixteen_nodes_all_edges_at_hub():
    g = build_graph("star", 16)
    assert len(g.edges) == 15
    assert all(0 in e for e in g.edges)
    assert g.is_connected()


@pytest.mark.parametrize("kind,n", [("cycle", 2), ("star", 1), ("complete", 0)])
def test_invalid_counts_rejected(kind, n):
    with pytest.raises(ValueError):
        build_graph(kind, n)


def test_edge_list_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph("edge_list", 3, edges=[(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        build_graph("edge_list", 3, edges=[(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="invalid node"):
        build_graph("edge_list", 3, edges=[(0, 5)])


def test_generators_yield_connected_graphs():
    for kind, n in [("cycle", 3), ("cycle", 9), ("star", 2), ("star", 7), ("complete", 1)]:
        assert build_graph(kind, n).is_connected()


@pytest.mark.parametrize("side", [3, 4, 7, 18])
def test_a_torus_links_each_node_right_and_down_wrapping(side):
    want = set()
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for j in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                want.add((min(i, j), max(i, j)))
    g = build_graph("torus", side * side)
    assert edge_set(g) == want
    assert np.all(g.degrees() == 4) and g.is_connected()


@pytest.mark.parametrize("n", [1, 4, 8, 15, 17, 323])
def test_a_torus_needs_a_square_of_a_side_of_at_least_three(n):
    # n = 4 is the 2 x 2 square, whose right and down links coincide
    with pytest.raises(ValueError, match="torus requires"):
        build_graph("torus", n)


def _loop_edges(kind, n):
    """A named graph's edges one at a time, each as (min, max), sorted."""
    if kind == "cycle":
        es = [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]
    elif kind == "star":
        es = [(0, i) for i in range(1, n)]
    else:
        es = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(es)


@pytest.mark.parametrize("kind,n", [("cycle", 3), ("cycle", 4), ("cycle", 37), ("star", 2),
                                    ("star", 3), ("star", 40), ("complete", 1),
                                    ("complete", 2), ("complete", 23)])
def test_named_graphs_equal_a_per_kind_loop_in_order(kind, n):
    g = build_graph(kind, n)
    assert g.edges.dtype == np.intp and g.edges.shape == (len(_loop_edges(kind, n)), 2)
    assert [tuple(e) for e in g.edges.tolist()] == _loop_edges(kind, n)


@pytest.mark.parametrize("edges,match", [
    ([(1, 1)], "self-loop"),
    ([(0, 1), (2, 2)], "self-loop"),
    ([(0, 3)], "invalid node"),
    ([(-1, 2)], "invalid node"),
    ([(2, 0), (0, 2)], "duplicate"),
    ([(0, 2), (1, 2), (0, 2)], "duplicate"),
    ([(0, 1, 2)], "integer node pairs"),
    ([0, 1], "integer node pairs"),
    ([[[0, 1]]], "integer node pairs"),
    ([(0.0, 1.0)], "integer node pairs"),
])
def test_graph_rejects_each_bad_edge_list(edges, match):
    with pytest.raises(ValueError, match=match):
        topology.Graph(3, edges)
    with pytest.raises(ValueError, match=match):
        build_graph("edge_list", 3, edges=edges)


def test_graph_stores_its_own_read_only_sorted_array():
    given_edges = np.array([[3, 1], [0, 2], [1, 0], [2, 3]], dtype=np.int32)
    g = topology.Graph(4, given_edges)
    assert g.edges.dtype == np.intp and not g.edges.flags.writeable
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert given_edges.flags.writeable
    assert given_edges.tolist() == [[3, 1], [0, 2], [1, 0], [2, 3]]
    single = build_graph("edge_list", 1, edges=[])
    assert single.edges.shape == (0, 2) and single.is_connected()
    # graphs compare and hash by identity
    assert g != topology.Graph(4, given_edges) and len({g, g}) == 1


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), density=st.floats(min_value=0.0, max_value=0.3),
       shape=st.sampled_from(["random", "path", "cut path", "empty"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_is_connected_agrees_with_breadth_first_search(n, density, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "random":
        pairs = np.stack(np.triu_indices(n, 1), axis=1)
        pairs = pairs[rng.random(len(pairs)) < density]
    elif shape == "empty":
        pairs = []
    else:
        # a long path through shuffled labels, whole or cut into two
        n *= 40
        order = rng.permutation(n)
        pairs = np.stack([order[:-1], order[1:]], axis=1)
        if shape == "cut path":
            pairs = np.delete(pairs, rng.integers(n - 1), axis=0)
    g = topology.Graph(n, pairs)
    assert g.is_connected() == bfs_connected(g)
    if shape != "random":
        assert g.is_connected() == (shape == "path" or n == 1)


# ------------------------------------------------------- metropolis weights

def test_complete_two_nodes_gives_exact_averaging():
    w = metropolis_weights(build_graph("complete", 2))
    assert np.array_equal(w.w, np.full((2, 2), 0.5))
    assert w.beta == 0.0


def test_cycle_four_weights_and_beta():
    # degrees are all 2, so every edge weight and the diagonal equal 1/3;
    # the eigensolver oracle puts the deflated spectral norm at 1/3
    w = metropolis_weights(build_graph("cycle", 4))
    assert w.w[0, 1] == pytest.approx(1 / 3, abs=1e-15)
    assert w.w[0, 0] == pytest.approx(1 / 3, abs=1e-15)
    assert w.beta == pytest.approx(eig_beta(w.w), abs=1e-12)
    assert w.beta == pytest.approx(1 / 3, abs=1e-12)


def test_star_sixteen_leaf_self_weight_and_beta():
    w = metropolis_weights(build_graph("star", 16))
    assert w.w[1, 1] == pytest.approx(15 / 16, abs=1e-15)
    assert w.beta == pytest.approx(eig_beta(w.w), abs=1e-12)
    assert w.beta == pytest.approx(15 / 16, abs=1e-12)


def test_lazy_cycle_beta_matches_eigensolver_oracle():
    w = metropolis_weights(build_graph("cycle", 4), laziness=0.25)
    assert w.beta == pytest.approx(eig_beta(w.w), abs=1e-12)


def test_disconnected_graph_rejected():
    g = build_graph("edge_list", 4, edges=[(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        metropolis_weights(g)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=24),
       kind=st.sampled_from(["cycle", "star", "complete"]),
       laziness=st.floats(min_value=0.0, max_value=0.9))
def test_metropolis_invariants(n, kind, laziness):
    g = build_graph(kind, n)
    w = metropolis_weights(g, laziness=laziness)
    assert np.array_equal(w.w, w.w.T)
    assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all(w.w >= 0)
    assert np.all(np.diag(w.w) > 0)
    adj = adjacency(g)
    off = w.w - np.diag(np.diag(w.w))
    assert np.all((off > 0) == (adj > 0))
    assert 0.0 <= w.beta < 1.0


def _torus(side):
    edges = [(r * side + c, r * side + (c + 1) % side) for r in range(side) for c in range(side)]
    edges += [(r * side + c, ((r + 1) % side) * side + c) for r in range(side) for c in range(side)]
    return build_graph("edge_list", side * side, edges=edges)


def _random_connected(n, extra, rng):
    """A random spanning tree on n nodes plus up to `extra` random chords."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(extra):
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    return build_graph("edge_list", n, edges=sorted(edges))


def _random_low_degree(n, chords, rng):
    """A ring through a random node order plus `chords` random chords, at
    most one per node: connected, degrees 2 and 3."""
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[(i + 1) % n])))) for i in range(n)}
    ends = rng.permutation(n)[:2 * chords].reshape(-1, 2)
    edges |= {tuple(sorted((int(i), int(j)))) for i, j in ends}
    return build_graph("edge_list", n, edges=sorted(edges))


@settings(max_examples=40, deadline=None)
@given(graph=st.one_of(
           st.builds(_torus, st.integers(min_value=3, max_value=12)),
           st.builds(_random_connected, st.integers(min_value=2, max_value=60),
                     st.integers(min_value=0, max_value=60),
                     st.builds(np.random.default_rng, st.integers(0, 2**32 - 1))),
           st.builds(build_graph, st.sampled_from(["cycle", "star", "complete"]),
                     st.integers(min_value=3, max_value=40))),
       laziness=st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_metropolis_weights_equal_the_per_edge_loop_bit_for_bit(graph, laziness):
    w = metropolis_weights(graph, laziness).w
    assert np.array_equal(w, loop_metropolis(graph, laziness))
    validate_mixing_matrix(w, graph)


def _random_degree_2_to_6(n, chords, rng):
    """A ring through a random node order plus up to `chords` random
    chords between nodes of degree below 6: connected, degrees 2 to 6."""
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[(i + 1) % n])))) for i in range(n)}
    deg = np.full(n, 2)
    for i, j in rng.integers(n, size=(chords, 2)):
        e = (int(min(i, j)), int(max(i, j)))
        if i != j and e not in edges and deg[i] < 6 and deg[j] < 6:
            edges.add(e)
            deg[[i, j]] += 1
    return build_graph("edge_list", n, edges=sorted(edges))


@st.composite
def _table_graphs(draw):
    """Graphs whose Metropolis matrix is built as a neighbour table."""
    kind = draw(st.sampled_from(["cycle", "torus", "random"]))
    if kind == "cycle":
        return build_graph("cycle", draw(st.integers(min_value=192, max_value=600)))
    if kind == "torus":
        return build_graph("torus", draw(st.integers(min_value=18, max_value=26)) ** 2)
    # degree <= 6: m <= 7 nonzeros per row, and 7 * ROUND_COST <= 448
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=448, max_value=640))
    return _random_degree_2_to_6(n, draw(st.integers(min_value=0, max_value=3 * n)), rng)


@settings(max_examples=30, deadline=None)
@given(graph=_table_graphs(), laziness=st.sampled_from([0.0, 0.3, 0.9]))
def test_a_table_built_metropolis_matrix_equals_the_per_edge_loop_bit_for_bit(graph,
                                                                              laziness):
    w = metropolis_weights(graph, laziness)
    assert w.table is not None and w.dense is None
    # rows list their entries in ascending column order, padded at the end
    m, n = w.table.nbr.shape
    assert m == graph.degrees().max() + 1
    counts = graph.degrees() + 1
    listed = np.arange(m)[:, None] < counts
    assert np.all(np.diff(np.where(listed, w.table.nbr, n), axis=0)[listed[1:]] > 0)
    assert np.all(w.table.wt[~listed] == 0)
    assert np.all(w.table.nbr[~listed] == np.broadcast_to(np.arange(n), (m, n))[~listed])
    dense = w.w
    assert np.array_equal(dense, loop_metropolis(graph, laziness))
    validate_mixing_matrix(dense, graph)


@pytest.mark.parametrize("laziness", [0.0, 0.25])
@pytest.mark.parametrize("graph", [_torus(32), build_graph("cycle", 1024),
                                   build_graph("star", 400), build_graph("complete", 300)],
                         ids=["torus1024", "cycle1024", "star400", "complete300"])
def test_large_metropolis_weights_equal_the_per_edge_loop_bit_for_bit(graph, laziness):
    assert np.array_equal(metropolis_weights(graph, laziness).w,
                          loop_metropolis(graph, laziness))


# -------------------------------------------------------------- compute_beta

def test_beta_of_averaging_matrix_is_zero():
    n = 5
    assert compute_beta(np.full((n, n), 1 / n)) == 0.0


def test_beta_of_identity_is_one():
    assert compute_beta(np.eye(4)) == 1.0


def test_beta_rejects_bad_inputs():
    with pytest.raises(ValueError, match="square"):
        compute_beta(np.ones((2, 3)))
    with pytest.raises(ValueError, match="stochastic"):
        compute_beta(np.array([[0.5, 0.2], [0.2, 0.5]]))
    with pytest.raises(ValueError, match="symmetric"):
        compute_beta(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]))


@st.composite
def _krylov_graphs(draw):
    """(graph, settles) for graphs whose Metropolis matrix has a neighbour
    table; settles: the Lanczos route always settles its beta within
    KRYLOV_CAP steps (a torus's and a ring's top eigenvalues stand apart).
    A random cubic-ish graph's top eigenvalues crowd together, and some of
    them need more steps than the cap."""
    kind = draw(st.sampled_from(["torus", "cycle", "random"]))
    if kind == "torus":
        return _torus(draw(st.integers(min_value=18, max_value=40))), True
    if kind == "cycle":
        return build_graph("cycle", draw(st.integers(min_value=192, max_value=400))), True
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=320, max_value=640))
    return _random_low_degree(n, draw(st.integers(min_value=n // 4, max_value=n // 2)),
                              rng), False


@settings(max_examples=30, deadline=None)
@given(case=_krylov_graphs(), laziness=st.floats(min_value=0.0, max_value=0.9,
                                                 exclude_max=True))
def test_krylov_beta_matches_the_eigensolver_oracle(case, laziness):
    graph, settles = case
    w = metropolis_weights(graph, laziness=laziness)
    assert w.table is not None
    oracle = eig_beta(w.w)
    assert abs(w.beta - oracle) <= 1e-12 * oracle
    krylov = _lanczos_beta(w.table)
    if settles:
        assert krylov is not None
    if krylov is not None:
        assert w.beta == min(krylov, 1.0)


@pytest.mark.parametrize("n", [193, 219])
def test_krylov_beta_settles_past_a_spurious_ritz_value_near_zero(n):
    # the ring's smallest eigenvalue lies near 0, beside the Ritz value the
    # roundoff-borne ones vector brings in once the Krylov space is nearly
    # invariant; only the dominant end has to settle
    w = metropolis_weights(build_graph("cycle", n), laziness=0.25390625)
    krylov = _lanczos_beta(w.table)
    assert krylov is not None
    oracle = eig_beta(w.w)
    assert abs(krylov - oracle) <= 1e-12 * oracle


def test_a_slow_ring_reaches_the_krylov_cap_and_takes_the_dense_solve():
    # a 1024-cycle's start vector spans 513 eigenvalues: far beyond the cap
    w = metropolis_weights(build_graph("cycle", 1024))
    assert w.table is not None and KRYLOV_CAP < 513
    assert _lanczos_beta(w.table) is None
    assert w.beta == compute_beta(w.w)              # no table: the dense route


def test_krylov_beta_repeats_its_bits():
    w = metropolis_weights(_torus(32))
    assert compute_beta(w.table) == compute_beta(w.table) == w.beta


@pytest.mark.parametrize("n", [64, 100, 256, 1000])
def test_krylov_beta_of_the_identity_is_one(n):
    # a custom identity slot of a large grid takes the Krylov route
    eye, = communication_matrices((np.eye(n),), build_graph("cycle", n))
    assert eye.table is not None and eye.beta == 1.0


def test_communication_matrices_reject_an_asymmetric_matrix_of_table_size():
    graph = _torus(18)
    w = metropolis_weights(graph).w.copy()
    w[0, 1] += 1e-6                 # a stored entry
    w[0, 0] -= 1e-6                 # rows still sum to one
    with pytest.raises(ValueError, match="symmetric"):
        communication_matrices((w,), graph)


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_beta_of_power_is_power_of_beta(p, cycle8_mixing):
    w = cycle8_mixing
    assert compute_beta(matrix_power(w.w, p)) == pytest.approx(w.beta**p, abs=1e-10)


# -------------------------------------------------------------- matrix_power

def test_power_one_is_identity_operation(cycle8_mixing):
    assert np.array_equal(matrix_power(cycle8_mixing.w, 1), cycle8_mixing.w)


def test_power_zero_is_identity():
    assert np.array_equal(matrix_power(np.full((3, 3), 1 / 3), 0), np.eye(3))


def test_averaging_matrix_is_idempotent():
    j = np.full((4, 4), 0.25)
    assert np.max(np.abs(matrix_power(j, 3) - j)) <= 1e-15


def test_power_matches_eigendecomposition_oracle():
    w = metropolis_weights(build_graph("cycle", 4), laziness=0.25).w
    for p in (2, 5, 10):
        assert np.max(np.abs(matrix_power(w, p) - eig_matrix_power(w, p))) <= 1e-10


def test_power_preserves_double_stochasticity(cycle8_mixing):
    wp = matrix_power(cycle8_mixing.w, 100)
    assert np.max(np.abs(wp.sum(axis=0) - 1.0)) <= 1e-10
    assert np.max(np.abs(wp.sum(axis=1) - 1.0)) <= 1e-10


# ------------------------------------------------------------- strategies

def test_gta1_beta_assignment(cycle8_mixing):
    s = strategy_for("GTA1", cycle8_mixing, 1)
    assert s.betas[0] == pytest.approx(cycle8_mixing.beta)
    assert s.betas[2] == pytest.approx(cycle8_mixing.beta)
    assert s.betas[1] == 1.0 and s.betas[3] == 1.0
    assert np.array_equal(s.matrices[1], np.eye(8))


def test_gta3_over_averaging_matrix_has_zero_betas():
    w = metropolis_weights(build_graph("complete", 4))
    assert w.beta == 0.0
    s = strategy_for("GTA3", w, 1)
    assert s.betas == (0.0, 0.0, 0.0, 0.0)


def test_custom_strategy_on_edge_subset_accepted():
    g = build_graph("cycle", 4)
    w = metropolis_weights(g)
    tree = build_graph("edge_list", 4, edges=[(0, 1), (1, 2), (2, 3)])
    w_tree = metropolis_weights(tree).w
    # the path's edges are a subset of the cycle's, so it is a valid
    # communication matrix for the cycle as well
    validate_communication_matrix(w_tree, g)
    s = custom_strategy(w, 2, (w.w, w_tree, w.w, w_tree))
    assert s.name == "custom"
    assert s.betas[1] == pytest.approx(eig_beta(w_tree), abs=1e-12)


def test_custom_strategy_leaves_caller_arrays_writeable():
    w = metropolis_weights(build_graph("cycle", 4))
    eye, mine = np.eye(4), w.w.copy()
    s = custom_strategy(w, 2, (mine, eye, mine, eye))
    assert eye.flags.writeable and mine.flags.writeable
    # the identity slots hold no matrix; the W slots' array and power are frozen
    assert s.slots[1] is s.slots[3] is None
    assert not any(m.flags.writeable for m in (s.slots[0].dense, s.slots[0].power(2)))
    mine[0, 0] = 7.0            # the strategy keeps its own copy
    assert s.slots[0].w[0, 0] == w.w[0, 0]


def test_equal_custom_slots_share_one_matrix_power_and_beta(monkeypatch):
    w = metropolis_weights(build_graph("cycle", 5))
    calls = {"matrix_power": 0, "compute_beta": 0}
    for name in calls:
        real = getattr(gt.topology, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(gt.topology, name, counted)
    # equal by value, not by identity: two copies of W and two identities;
    # one beta each, and no power (nor identity matrix) before a dense
    # product needs one
    s = custom_strategy(w, 3, (w.w.copy(), np.eye(5), w.w.copy(), np.eye(5)))
    assert calls == {"matrix_power": 0, "compute_beta": 2}
    assert s.slots[0] is s.slots[2] is not None and s.slots[1] is s.slots[3] is None
    mats = s.matrices
    for a, b in ((0, 2), (1, 3)):
        assert mats[a] is mats[b] and s.betas[a] == s.betas[b]
    v = np.ones((5, 1))
    for m in (s.slots[0], s.slots[2]):
        m.apply(v, s.n_c)
    assert calls == {"matrix_power": 1, "compute_beta": 2}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=40), extra=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_off_graph_entries_are_found_where_the_dense_adjacency_finds_them(n, extra, seed):
    # weights over the graph plus up to `extra` random edges, checked
    # against the graph itself
    rng = np.random.default_rng(seed)
    graph = _random_connected(n, n // 2, rng)
    chords = {tuple(sorted(int(v) for v in rng.choice(n, size=2, replace=False)))
              for _ in range(extra)}
    w = metropolis_weights(build_graph("edge_list", n, edges=sorted(edge_set(graph) | chords))).w
    if np.any((w > 0) & (adjacency(graph) + np.eye(n) == 0)):
        with pytest.raises(ValueError, match="outside the graph"):
            validate_communication_matrix(w, graph)
    else:
        validate_communication_matrix(w, graph)


def test_custom_strategy_rejects_off_graph_entries():
    w = metropolis_weights(build_graph("cycle", 4))
    bad = np.full((4, 4), 0.25)  # complete-graph support, not a cycle subgraph
    with pytest.raises(ValueError, match="outside the graph"):
        custom_strategy(w, 1, (bad, bad, bad, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_communication_matrix_rejects_non_finite_entries(bad):
    # NaN passes every "deviation > tol" check, so finiteness comes first
    g = build_graph("cycle", 4)
    w = metropolis_weights(g).w.copy()
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_communication_matrix(w, g)
    with pytest.raises(ValueError, match="non-finite"):
        custom_strategy(metropolis_weights(g), 1, (w, w, w, w))


def test_powered_matrices_cached(cycle8_mixing):
    s = strategy_for("GTA2", cycle8_mixing, 3)
    assert s.slots[:3] == (cycle8_mixing,) * 3 and s.slots[3] is None
    assert np.max(np.abs(s.slots[0].power(3) - matrix_power(cycle8_mixing.w, 3))) == 0.0
    assert np.array_equal(s.matrices[3], np.eye(8))
    assert s.vectors_per_round() == 3


def test_mixing_power_is_computed_once_and_read_only(cycle8_mixing):
    w = cycle8_mixing
    p5 = w.power(5)
    assert np.array_equal(p5, matrix_power(w.w, 5))
    assert w.power(5) is p5
    assert not p5.flags.writeable
    assert np.array_equal(w.power(0), np.eye(8))


@pytest.mark.parametrize("graph", [build_graph("cycle", 8), build_graph("cycle", 192)],
                         ids=["dense", "table"])
def test_first_power_is_the_matrix_itself(graph):
    # one representation: a dense matrix's first power is its array, and a
    # table matrix's is one round on the identity's columns, cached like any
    w = metropolis_weights(graph)
    assert (w.table is None) != (w.dense is None)
    assert np.array_equal(w.power(1), w.w) and w.power(1) is w.power(1)
    assert np.array_equal(w.power(1), matrix_power(w.dense if w.table is None else w.table, 1))
    if w.table is None:
        assert w.power(1) is w.dense is w.w


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["cycle", "star", "complete", "torus"]))
    if kind == "torus":
        return _torus(draw(st.integers(min_value=3, max_value=4)))
    return build_graph(kind, draw(st.integers(min_value=3, max_value=12)))


@settings(max_examples=40, deadline=None)
@given(graph=_graphs(), n_c=st.integers(min_value=1, max_value=100))
def test_strategies_share_one_power_per_mixing_matrix(graph, n_c):
    w = metropolis_weights(graph)
    eye = np.eye(graph.n)
    named = [strategy_for(m, w, n_c) for m in METHOD_NAMES]
    custom = custom_strategy(w, n_c, (w.w, eye, w.w, np.eye(graph.n)))
    w_power = named[0].slots[0].power(n_c)
    for s in named + [custom]:
        for m, slot, beta in zip(s.matrices, s.slots, s.betas):
            is_eye = slot is None
            wp = eye if is_eye else slot.power(n_c)
            assert np.array_equal(wp, matrix_power(m, n_c))
            assert np.max(np.abs(wp - eig_matrix_power(m, n_c))) <= 1e-10
            assert beta == compute_beta(m)
            assert is_eye == np.array_equal(m, eye)
            if s.name != "custom" and not is_eye:
                assert wp is w_power        # one W^n_c shared by every W slot
        # the per-run count this replaces: slots that differ from the identity
        assert s.vectors_per_round() == sum(1 for m in s.matrices
                                            if np.max(np.abs(m - eye)) > 0)
    assert [s.vectors_per_round() for s in named] == [2, 3, 4]
    assert custom.vectors_per_round() == 2


# --------------------------------------------------------- gather rounds

@st.composite
def _round_graphs(draw):
    kind = draw(st.sampled_from(["cycle", "star", "complete", "random"]))
    n = draw(st.integers(min_value=3, max_value=400))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        return _random_connected(n, draw(st.integers(min_value=0, max_value=2 * n)), rng)
    return build_graph(kind, n)


@settings(max_examples=40, deadline=None)
@given(graph=_round_graphs(), k=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_gather_round_matches_the_dense_product(graph, k, seed):
    w = metropolis_weights(graph).w
    table = neighbour_table(w)                      # whatever the rows' counts
    # the table holds every nonzero exactly once, and nothing else
    rebuilt = np.zeros_like(w)
    np.add.at(rebuilt, (np.broadcast_to(np.arange(graph.n), table.nbr.shape), table.nbr),
              table.wt)
    assert np.array_equal(rebuilt, w)
    assert table.nbr.shape[0] == np.count_nonzero(w, axis=1).max()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(graph.n, k)) * np.exp(rng.normal(scale=3.0, size=(graph.n, 1)))
    # row scale: the largest |v| that the row reads
    scale = np.max(np.abs(v)[table.nbr], axis=0)
    assert np.all(np.abs(table.apply(v, 1) - w @ v) <= 1e-15 * scale)


@pytest.mark.parametrize("gather_floats", [1, 7, 1000, topology._GATHER_FLOATS])
def test_a_columns_rounds_depend_on_neither_width_nor_blocking(monkeypatch, gather_floats):
    table = metropolis_weights(_torus(18)).table
    rng = np.random.default_rng(3)
    v = rng.normal(size=(324, 40)) * np.exp(rng.normal(scale=3.0, size=(324, 40)))
    alone = [table.apply(v[:, j:j + 1], 3) for j in range(40)]
    monkeypatch.setattr(topology, "_GATHER_FLOATS", gather_floats)
    for width in (1, 2, 3, 17, 40):
        out = table.apply(np.ascontiguousarray(v[:, :width]), 3)
        for j in range(width):
            assert np.array_equal(out[:, j], alone[j][:, 0])


def test_shipped_configs_apply_dense_products():
    # n <= 16 < ROUND_COST: no table, so their artifacts keep their bits
    paths = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.cfg"))
    assert paths
    for path in paths:
        cfg = harness.parse_config(path)
        w = harness.build_mixing(cfg)
        assert w.table is None
        for method, n_c, _ in cfg.cells():
            slots = harness.build_strategy(cfg, method, w, n_c).slots
            assert all(m is None or m.table is None for m in slots)


def test_an_18x18_torus_runs_one_round_sparse_and_ten_dense():
    w = metropolis_weights(_torus(18))
    assert w.table.nbr.shape == (5, 324) and 5 * ROUND_COST <= 324 < 2 * 5 * ROUND_COST
    s1, s10 = strategy_for("GTA1", w, 1), strategy_for("GTA1", w, 10)
    assert s1.slots == s10.slots == (w, None, w, None)
    v = np.ones((324, 1))
    assert apply_counting_rounds(w, v, 1)[1] == [1]
    assert apply_counting_rounds(w, v, 10)[1] == []
    # a dense star never gets a table, whatever n
    assert metropolis_weights(build_graph("star", 400)).table is None


@functools.lru_cache(maxsize=None)
def _apply_mixing(kind, size):
    return metropolis_weights(_torus(size) if kind == "torus" else build_graph("cycle", size))


@st.composite
def _apply_cases(draw):
    kind = draw(st.sampled_from(["torus", "cycle"]))
    size = draw(st.integers(min_value=18, max_value=30) if kind == "torus"
                else st.integers(min_value=192, max_value=400))
    return _apply_mixing(kind, size)


@settings(max_examples=40, deadline=None)
@given(w=_apply_cases(), n_c=st.integers(min_value=1, max_value=12),
       k=st.integers(min_value=1, max_value=25), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_matches_the_matrix_power_on_both_routes(w, n_c, k, seed):
    # tori of side 18-30 and 192-400 cycles take rounds up to n_c = 1 or 2
    # and dense products beyond, so both routes occur
    v = np.random.default_rng(seed).normal(size=(w.graph.n, k))
    out, rounds = apply_counting_rounds(w, v, n_c)
    ref = np.linalg.matrix_power(w.w, n_c) @ v
    assert np.all(np.abs(out - ref) <= 1e-14 * np.max(np.abs(ref), axis=0))
    m, n = w.table.nbr.shape
    assert rounds == ([n_c] if n_c * m * ROUND_COST <= n else [])


def _torus26_run(method, n_c):
    """A 26x26 torus (m = 5, n = 676: n_c <= 2 runs as rounds), its
    strategy, and a quadratic suite on it."""
    w = metropolis_weights(_torus(26))
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=676, d=2, kappa_target=10.0, seed=1))
    return w, strategy_for(method, w, n_c), suite


def test_a_rounds_slot_builds_no_power():
    w, strat, suite = _torus26_run("GTA3", 2)
    alpha = harness.tune_step_size(suite, strat, 1, budget=10, t_range=(0, 6))
    gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, max_outer_iters=10),
           np.zeros(676 * 2))
    assert 2 not in w._powers


def test_a_dense_slot_builds_its_power_once_at_its_first_apply(monkeypatch):
    w, gta1, suite = _torus26_run("GTA1", 10)
    gta3 = strategy_for("GTA3", w, 10)
    built = []
    real = topology.matrix_power
    monkeypatch.setattr(topology, "matrix_power",
                        lambda m, p: built.append(p) or real(m, p))
    assert 10 not in w._powers
    for strat in (gta1, gta3, gta1):
        gt.run(suite, gt.GtaConfig(strategy=strat, alpha=0.1, max_outer_iters=3),
               np.zeros(676 * 2))
        assert built == [10]
    assert gta1.slots[0] is gta3.slots[0] is w and 10 in w._powers


@pytest.mark.parametrize("graph", [build_graph("cycle", 8), _torus(26)], ids=["dense", "table"])
@pytest.mark.parametrize("method", [*METHOD_NAMES, "custom"])
def test_strategy_for_computes_no_power(graph, method, monkeypatch):
    w = metropolis_weights(graph)
    custom = topology.communication_matrices((w.w, np.eye(graph.n), w.w, w.w), graph)
    asked = []
    real = topology.MixingMatrix.power
    monkeypatch.setattr(topology.MixingMatrix, "power",
                        lambda self, p: asked.append(p) or real(self, p))
    for n_c in (1, 2, 10):
        strategy_for(method, w, n_c, custom=custom if method == "custom" else None)
    assert set(asked) <= {0}
    assert set(w._powers) <= {0} and not custom[0]._powers


# a 320-cycle with some antipodal chords: degrees 2 and 3, so rows are padded
_CHORDED = build_graph("edge_list", 320, edges=[(i, (i + 1) % 320) for i in range(320)]
                       + [(i, i + 160) for i in range(0, 160, 7)])


@pytest.mark.parametrize("graph", [_torus(18), _CHORDED], ids=["torus18", "chorded320"])
@pytest.mark.parametrize("p", [1, 2, 10, 37])
def test_sparse_built_powers_match_dense_products(graph, p):
    w = metropolis_weights(graph)
    assert w.table is not None and w.dense is None
    w_dense = w.w
    built, dense = w.power(p), matrix_power(w_dense, p)
    assert np.max(np.abs(built - dense)) <= 1e-15
    assert np.max(np.abs(built - built.T)) <= _POWERED_ATOL
    for axis in (0, 1):
        assert np.max(np.abs(built.sum(axis=axis) - 1.0)) <= _POWERED_ATOL
    assert np.array_equal(matrix_power(w.table, p), built)
    # built from the identity's columns with the bits of W's columns and
    # p - 1 rounds, whatever the block width (here 100, not _POWER_COLUMNS)
    for lo in range(0, graph.n, 100):
        block = np.ascontiguousarray(w_dense[:, lo:lo + 100])
        assert np.array_equal(w.table.apply(block, p - 1), built[:, lo:lo + 100])


def _slot(table, i, j):
    """The slot of row i's entry in column j (its diagonal entry for j = i)."""
    return np.flatnonzero(table.nbr[:, i] == j)[0]


def _corrupt_nan(t):
    t.wt[0, 0] = np.nan


def _corrupt_symmetry(t):
    t.wt[_slot(t, 0, 1), 0] += 1e-6
    t.wt[_slot(t, 0, 0), 0] -= 1e-6            # row 0 still sums to one


def _corrupt_row_sum(t):
    t.wt[_slot(t, 0, 0), 0] += 1e-6


def _move(t, i, j, x):
    """Add x to entry (i, j) and (j, i) and take it off both diagonals."""
    for a, b in ((i, j), (j, i)):
        t.wt[_slot(t, a, b), a] += x
        t.wt[_slot(t, a, a), a] -= x


def _corrupt_sign(t):
    _move(t, 0, 1, -2 * t.wt[_slot(t, 0, 1), 0])


def _corrupt_diagonal(t):
    _move(t, 0, 1, t.wt[_slot(t, 0, 0), 0])     # equal diagonals: both reach 0


def _corrupt_zero_edge(t):
    _move(t, 0, 1, -t.wt[_slot(t, 0, 1), 0])


def _corrupt_off_graph(t):
    # a padded slot of two non-adjacent degree-2 nodes of the chorded ring
    for a, b in ((1, 3), (3, 1)):
        t.nbr[-1, a] = b
    _move(t, 1, 3, 0.01)


@pytest.mark.parametrize("graph,corrupt,match", [
    (_torus(18), _corrupt_nan, "non-finite"),
    (_torus(18), _corrupt_symmetry, "not symmetric"),
    (_torus(18), _corrupt_row_sum, "rows do not sum"),
    (_torus(18), _corrupt_sign, "negative"),
    (_torus(18), _corrupt_diagonal, "diagonal entries must be positive"),
    (_torus(18), _corrupt_zero_edge, r"edge \(0,1\) carries zero weight"),
    (_CHORDED, _corrupt_off_graph, "outside the graph"),
], ids=["nan", "symmetry", "row-sum", "sign", "diagonal", "zero-edge", "off-graph"])
def test_the_table_self_check_rejects_what_the_dense_check_rejects(graph, corrupt, match):
    # the self-check of a table-built Metropolis matrix is the tests' strict
    # dense check of it; custom input meets `validate_communication_matrix`
    table = metropolis_weights(graph).table
    broken = NeighbourTable(nbr=table.nbr.copy(), wt=table.wt.copy())
    validate_mixing_matrix(broken.densify(), graph)
    corrupt(broken)
    with pytest.raises(ValueError, match=match):
        validate_mixing_matrix(broken.densify(), graph)
    # custom input may leave an edge out, and is rejected for anything else
    if corrupt is not _corrupt_zero_edge:
        with pytest.raises(ValueError, match=match):
            communication_matrices((broken.densify(),), graph)


@pytest.mark.parametrize("graph", [build_graph("cycle", 8), _torus(18)], ids=["dense", "table"])
def test_mixing_matrices_and_strategies_compare_and_hash_by_identity(graph):
    # two builds of one matrix: equal betas, and a dense array that a
    # generated __eq__ would compare (raising) or no array at all (equal)
    a, b = metropolis_weights(graph), metropolis_weights(graph)
    s, t = strategy_for("GTA3", a, 1), strategy_for("GTA3", a, 1)
    assert a.beta == b.beta and s.slots == t.slots
    for x, y in ((a, b), (s, t)):
        assert x == x and x != y and not x == y
        assert x in [y, x] and x not in [y]
        assert hash(x) == hash(x) and len({x, y, x}) == 2


@pytest.mark.parametrize("graph", [build_graph("cycle", 8), _torus(18)], ids=["dense", "table"])
def test_only_the_exact_identity_becomes_an_identity_slot(graph):
    n = graph.n
    w = metropolis_weights(graph)
    near = np.eye(n)
    near[0, 0] -= 1e-13             # a valid communication matrix, but not I
    mats = topology.communication_matrices((np.eye(n), near, w.w, np.eye(n)), graph)
    assert all((m.table is None) == (w.table is None) for m in mats)
    s = strategy_for("custom", w, 1, custom=mats)
    assert s.slots[0] is s.slots[3] is None
    assert s.slots[1] is mats[1] and s.slots[2] is mats[2]


def test_a_64x64_torus_mixes_and_sweeps_without_a_dense_array():
    # one dense 4096 x 4096 array is 128 MiB; a table matrix, two strategies
    # at n_c = 1 (gather rounds) and a 21-candidate sweep stay far below it
    n, d = 64 * 64, 2
    graph = build_graph("torus", n)
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=n, d=d, kappa_target=10.0, seed=1))
    tracemalloc.start()
    try:
        w = metropolis_weights(graph)
        for method in ("GTA1", "GTA3"):
            harness.tune_step_size(suite, strategy_for(method, w, 1), 1, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.table is not None and w.dense is None and not w._powers
    assert peak < n * n * 8 / 4


def test_strategy_requires_positive_nc(cycle8_mixing):
    with pytest.raises(ValueError):
        strategy_for("GTA1", cycle8_mixing, 0)


def test_identity_is_a_valid_communication_matrix_with_beta_one():
    g = build_graph("star", 5)
    validate_communication_matrix(np.eye(5), g)
    assert compute_beta(np.eye(5)) == 1.0


def test_mixing_matrix_rejects_zero_edge_weight():
    g = build_graph("cycle", 4)
    w = metropolis_weights(g).w.copy()
    w[0, 1] = w[1, 0] = 0.0
    w[0, 0] += 1 / 3
    w[1, 1] += 1 / 3
    with pytest.raises(ValueError, match="zero weight"):
        validate_mixing_matrix(w, g)


# ------------------------------------------------------------------- csv

def test_matrix_csv_roundtrip(tmp_path, cycle8_mixing):
    path = tmp_path / "w.csv"
    write_matrix_csv(cycle8_mixing.w, path)
    back = read_matrix_csv(path)
    assert np.array_equal(back, cycle8_mixing.w)
