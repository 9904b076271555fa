import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import gradtrack as gt
from gradtrack.tracking import (DIVERGENCE_LIMIT, DivergenceError, ErrorVector, GtaConfig,
                                GtaState, RunTrace, advance, batchable, diverged,
                                error_vector, initialize, inner_step, outer_step, run,
                                surely_bounded)

from conftest import as_array, custom_strategy, kernel_params, kron_outer_step, slot_powers


def _strategy(method, n, n_c=1, kind="cycle", laziness=0.0):
    kind = "complete" if n < 3 else kind
    w = gt.metropolis_weights(gt.build_graph(kind, n), laziness=laziness)
    return gt.strategy_for(method, w, n_c)


# ---------------------------------------------------------------- initialize

def test_initialize_sets_trackers_to_gradients(small_quadratic):
    s = small_quadratic
    st = initialize(s, np.zeros(s.n * s.d))
    assert np.array_equal(st.y[:, :, 0], s.bs)       # grad at zero is b_i
    assert st.k == 0


def test_initialize_at_consensual_optimum_has_zero_mean_tracker(small_quadratic):
    s = small_quadratic
    x0 = np.tile(s.x_star, s.n)
    st = initialize(s, x0)
    assert np.linalg.norm(st.y.mean(axis=0)) <= 1e-12


def test_initialize_logistic_matches_finite_differences():
    from conftest import central_diff, local_value
    suite = gt.logreg_suite(gt.load_libsvm("data/synth_binary.libsvm", 4))
    st = initialize(suite, np.zeros(4 * suite.d))
    for i in range(4):
        fd = central_diff(lambda z: local_value(suite, i, z), np.zeros(suite.d))
        y_i = st.y[i, :, 0]
        assert np.linalg.norm(y_i - fd) <= 1e-5 * (1 + np.linalg.norm(y_i))


def test_initialize_rejects_wrong_length(small_quadratic):
    # a flat x0 is one column: 2*n*d entries are not two
    for size in (3, 2 * 8 * 4):
        with pytest.raises(ValueError, match="expected n\\*d"):
            initialize(small_quadratic, np.zeros(size))


@pytest.mark.parametrize("shape", [(4, 8, 2), (8, 2, 4), (8, 4, 1, 2)])
def test_initialize_rejects_a_stack_of_the_wrong_shape(shape, small_quadratic):
    # n = 8, d = 4: a (d, n, c) stack has n*d*c entries and was reshaped
    # into (n, d, c), mixing the nodes' coordinates; a 4-D array is one
    # column only if it holds n*d entries
    with pytest.raises(ValueError, match="expected n\\*d"):
        initialize(small_quadratic, np.zeros(shape))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -0.5,
                                   np.array([0.5, math.nan]), np.array([math.inf, 0.5]),
                                   np.array([0.5, 0.0]), np.array([0.5, 0.25])])
def test_a_step_size_that_is_not_a_positive_finite_number_is_rejected(alpha):
    # NaN compares false with 0, so a bare `alpha <= 0` let it through and a
    # run reported a divergence at k = 1; an array is no one cell's step
    # size, however valid its entries
    with pytest.raises(ValueError, match="positive finite"):
        GtaConfig(strategy=_strategy("GTA1", 4), alpha=alpha)


@pytest.mark.parametrize("stop_tol", [math.nan, math.inf, -math.inf, -1e-3])
def test_a_stop_tol_that_is_not_a_finite_nonnegative_number_is_rejected(stop_tol):
    # NaN and a negative stop_tol never stopped a run, inf stopped it at k = 0
    with pytest.raises(ValueError, match="stop_tol"):
        GtaConfig(strategy=_strategy("GTA1", 4), alpha=0.1, stop_tol=stop_tol)
    GtaConfig(strategy=_strategy("GTA1", 4), alpha=0.1, stop_tol=0.0)


@pytest.mark.parametrize("field,value", [("max_outer_iters", 2.5), ("max_outer_iters", 2.0),
                                         ("max_outer_iters", -1), ("n_g", 2.0), ("n_g", 0)])
def test_a_count_that_is_not_an_integer_is_rejected(field, value):
    # range() takes neither 2.5 nor 2.0: the run failed with a TypeError
    with pytest.raises(ValueError, match=field):
        GtaConfig(strategy=_strategy("GTA1", 4), alpha=0.1, **{field: value})
    GtaConfig(strategy=_strategy("GTA1", 4), alpha=0.1, **{field: np.int64(3)})


# ---------------------------------------------------------------- inner step

def test_single_node_inner_step_is_gradient_descent(scalar_suite):
    st = initialize(scalar_suite, np.array([1.0]))
    inner_step(st, 0.25)
    assert st.x[0, 0] == 0.75          # x - alpha * grad
    assert st.y[0, 0] == st.grads[0, 0]


def test_inner_step_fixed_point_at_consensual_optimum(small_quadratic):
    s = small_quadratic
    st = initialize(s, np.tile(s.x_star, s.n))
    # the trackers are the local gradients at x*, whose average is zero, but
    # individual entries are not; a true fixed point needs y = 0, which holds
    # after perfect tracking at consensus: emulate by zeroing the deviations
    st.y = np.zeros_like(st.y)
    x_before = st.x.copy()
    inner_step(st, 0.1)
    assert np.max(np.abs(st.x - x_before)) <= 1e-15
    assert np.max(np.abs(st.y)) <= 1e-12


def test_inner_loop_telescoping_identity(small_quadratic):
    s = small_quadratic
    rng = np.random.default_rng(5)
    st = initialize(s, rng.normal(size=s.n * s.d))
    y1 = st.y.copy()
    g1 = st.grads.copy()
    alpha = 0.5 / (4 * s.L)
    for _ in range(3):
        inner_step(st, alpha)
        lhs = st.y - y1
        rhs = st.grads - g1
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_inner_deviation_bound(small_quadratic):
    # ||x_{k,j} - x_{k,1}|| <= 2 alpha (j-1) ||y_{k,1}|| for alpha <= 1/(ng L)
    s = small_quadratic
    rng = np.random.default_rng(6)
    n_g = 5
    alpha = 1.0 / (n_g * s.L)
    st = initialize(s, rng.normal(size=s.n * s.d))
    x1 = st.x.copy()
    y1_norm = np.linalg.norm(st.y)
    for j in range(2, n_g + 1):
        inner_step(st, alpha)
        assert np.linalg.norm(st.x - x1) <= 2 * alpha * (j - 1) * y1_norm + 1e-12


# ---------------------------------------------------------------- outer step

def test_all_identity_outer_step_equals_inner_step(small_quadratic):
    s = small_quadratic
    w = gt.metropolis_weights(gt.build_graph("cycle", s.n))
    eye = np.eye(s.n)
    strat = custom_strategy(w, 7, (eye, eye, eye, eye))
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=s.n * s.d)
    st_a = initialize(s, x0)
    st_b = initialize(s, x0)
    outer_step(st_a, kernel_params(strat, 0.01))
    inner_step(st_b, 0.01)
    assert np.array_equal(st_a.x, st_b.x)
    assert np.array_equal(st_a.y, st_b.y)


def test_outer_step_matches_dense_kronecker_oracle(two_node_suite):
    s = two_node_suite
    strat = _strategy("GTA2", 2, n_c=2)
    rng = np.random.default_rng(8)
    st = initialize(s, rng.normal(size=4))
    x_ref, y_ref = kron_outer_step(st.x, st.y, st.grads, s, strat, 0.05)
    outer_step(st, kernel_params(strat, 0.05))
    assert np.max(np.abs(st.x - x_ref)) <= 1e-12
    assert np.max(np.abs(st.y - y_ref)) <= 1e-12


def _sweep_or_run_state(suite, c, seed):
    """A random state: a run's (n, d, 1) stacks when c is None, else (n, d, c)."""
    rng = np.random.default_rng(seed)
    shape = (suite.n, suite.d, 1 if c is None else c)
    x, y = rng.normal(size=shape), rng.normal(size=shape)
    return GtaState(suite, x=x, y=y, grads=rng.normal(size=shape))


def _alpha(c):
    return 0.05 if c is None else 2.0 ** -np.arange(c, dtype=float)


@pytest.mark.parametrize("c", [None, 5])
@pytest.mark.parametrize("method", ["GTA1", "GTA2", "GTA3", "custom"])
def test_outer_step_does_two_dense_products(method, c, small_quadratic, monkeypatch):
    # a slot pair holding one matrix is applied once to the sum of its
    # operands, so every method (custom (W,W,W,W) too) mixes twice per step
    s = small_quadratic
    w = gt.metropolis_weights(gt.build_graph("cycle", s.n))
    strat = (custom_strategy(w, 3, (w.w,) * 4) if method == "custom"
             else gt.strategy_for(method, w, 3))
    real = gt.tracking._mix
    products = []

    def counting(strategy, slot, v):
        if strategy.slots[slot] is not None:
            products.append(slot)
        return real(strategy, slot, v)

    monkeypatch.setattr(gt.tracking, "_mix", counting)
    outer_step(_sweep_or_run_state(s, c, 0), kernel_params(strat, _alpha(c)))
    assert len(products) == 2


@pytest.mark.parametrize("c", [None, 21])
def test_gta1_outer_step_keeps_the_unfactored_bits(c, small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA1", s.n, n_c=4)
    st = _sweep_or_run_state(s, c, 1)
    p, alpha = strat.slots[0].power(strat.n_c), _alpha(c)
    mix = lambda v: (p @ v.reshape(s.n, -1)).reshape(v.shape)
    x = mix(st.x) - alpha * st.y
    g = s.grad_stack_batch(x)
    y = mix(st.y) + (g - st.grads)
    outer_step(st, kernel_params(strat, alpha))
    assert np.array_equal(st.x, x) and np.array_equal(st.y, y)


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(2, 32), d=hst.integers(2, 4), n_c=hst.integers(1, 10),
       c=hst.one_of(hst.none(), hst.integers(1, 21)),
       slots=hst.sampled_from(["GTA1", "GTA2", "GTA3"])
       | hst.lists(hst.sampled_from("WLI"), min_size=4, max_size=4).map("".join),
       kind=hst.sampled_from(["cycle", "star"]), seed=hst.integers(0, 2**32 - 1))
def test_factored_outer_step_equals_the_four_slot_formula(n, d, n_c, c, slots, kind, seed):
    # x' = Z1 x - alpha Z2 y and y' = Z3 y + Z4 (grad(x') - grads), with
    # every slot applied on its own; custom slots draw from W, a lazy W (L)
    # and I, so equal and unequal pairs both occur
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=n, d=d, kappa_target=10.0, seed=seed % 1000))
    graph = gt.build_graph(kind if n >= 3 else "complete", n)
    w = gt.metropolis_weights(graph)
    if slots in gt.topology.SLOT_PATTERNS:
        strat = gt.strategy_for(slots, w, n_c)
    else:
        by_letter = {"W": w.w, "L": gt.metropolis_weights(graph, laziness=0.3).w,
                     "I": np.eye(n)}
        strat = custom_strategy(w, n_c, [by_letter[k] for k in slots])
    st = _sweep_or_run_state(suite, c, seed)
    alpha = _alpha(c)
    z = [lambda v, p=p: np.einsum("ij,j...->i...", p, v) for p in slot_powers(strat)]
    x_ref = z[0](st.x) - alpha * z[1](st.y)
    g_ref = suite.grad_stack_batch(x_ref)
    y_ref = z[2](st.y) + z[3](g_ref - st.grads)
    scale_x = np.max(np.abs(st.x)) + np.max(np.abs(alpha * st.y))
    scale_y = np.max(np.abs(st.y)) + np.max(np.abs(g_ref - st.grads))
    outer_step(st, kernel_params(strat, alpha))
    # relative to the result, with a floor at the operands' scale where the
    # sum cancels
    assert np.max(np.abs(st.x - x_ref)) <= 1e-12 * max(np.max(np.abs(x_ref)), scale_x)
    assert np.max(np.abs(st.y - y_ref)) <= 1e-12 * max(np.max(np.abs(y_ref)), scale_y)
    ev = error_vector(st, suite)
    ev_ref = error_vector(GtaState(suite, x=x_ref, y=y_ref, grads=g_ref), suite)
    assert np.all(np.abs(ev.opt_err - ev_ref.opt_err) <= 1e-12 * ev_ref.opt_err)
    for got, ref, floor in ((ev.x_consensus, ev_ref.x_consensus, scale_x),
                            (ev.y_consensus, ev_ref.y_consensus, scale_y)):
        assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-14 * floor)


def test_fully_connected_gta3_contracts_like_gradient_descent(small_quadratic):
    s = small_quadratic
    w = gt.metropolis_weights(gt.build_graph("complete", s.n))
    strat = gt.strategy_for("GTA3", w, 1)
    alpha = 0.9 / s.L
    st = initialize(s, np.zeros(s.n * s.d))
    prev = np.linalg.norm(st.x[:, :, 0].mean(axis=0) - s.x_star)
    for _ in range(20):
        outer_step(st, kernel_params(strat, alpha))
        cur = np.linalg.norm(st.x[:, :, 0].mean(axis=0) - s.x_star)
        assert cur <= (1 - alpha * s.mu) * prev + 1e-12
        prev = cur


def test_fixed_point_of_outer_step(small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA2", s.n, n_c=2)
    st = initialize(s, np.tile(s.x_star, s.n))
    # at the consensual optimum the stacked gradients average to zero but are
    # not node-wise zero; mixing the raw gradients through W2 perturbs x, so
    # the invariant fixed point is the tracked state with zero deviations
    st.y = np.zeros_like(st.y)
    for _ in range(5):
        x_prev = st.x.copy()
        outer_step(st, kernel_params(strat, 0.1))
        assert np.max(np.abs(st.x - x_prev)) <= 1e-12


@pytest.mark.parametrize("method", ["GTA1", "GTA2", "GTA3"])
def test_first_step_from_consensual_optimum_keeps_the_average(method, small_quadratic):
    # freshly initialized at the consensual optimum, the tracker average is
    # the zero global gradient, so the first update (inner or outer) leaves
    # the node average at x*; later steps may drift it because the spread
    # copies change the tracked average gradient
    s = small_quadratic
    strat = _strategy(method, s.n, n_c=2)
    alpha = 1.0 / (3 * s.L)
    st = initialize(s, np.tile(s.x_star, s.n))
    inner_step(st, alpha)
    assert np.linalg.norm(st.x[:, :, 0].mean(axis=0) - s.x_star) <= 1e-12
    st = initialize(s, np.tile(s.x_star, s.n))
    outer_step(st, kernel_params(strat, alpha))
    assert np.linalg.norm(st.x[:, :, 0].mean(axis=0) - s.x_star) <= 1e-12


# -------------------------------------------------------------- error vector

def test_error_vector_at_consensual_optimum(small_quadratic):
    s = small_quadratic
    st = initialize(s, np.tile(s.x_star, s.n))
    ev = error_vector(st, s)
    assert ev.opt_err <= 1e-12
    assert ev.x_consensus <= 1e-12
    assert ev.y_consensus >= 0


def test_error_vector_mean_cancellation(two_node_suite):
    s = two_node_suite
    st = initialize(s, np.zeros(4))
    e = np.array([0.3, -1.2])
    st.x = np.stack([e, -e])[:, :, None]
    ev = error_vector(st, s)
    # x* is (1, 0), xbar is 0
    assert ev.opt_err == pytest.approx(np.linalg.norm(s.x_star))
    assert ev.x_consensus == pytest.approx(np.linalg.norm(np.stack([e, -e])))


def _column_norms(v, axes):
    """Each column's norm of v over axes: the per-column sum of squares,
    np.linalg.norm's formula, which error_rows takes for any column count."""
    return np.sqrt(np.add.reduce(np.square(v), axis=axes))


def test_error_vector_matches_recomputation(small_quadratic):
    s = small_quadratic
    rng = np.random.default_rng(9)
    st = initialize(s, rng.normal(size=s.n * s.d))
    st.y = rng.normal(size=(s.n, s.d, 1))
    ev = error_vector(st, s)
    x, y = st.x, st.y
    xb = x.mean(axis=0)
    yb = y.mean(axis=0)
    assert ev.opt_err == _column_norms(xb - s.x_star[:, None], 0)[0]
    assert ev.x_consensus == _column_norms(x - xb, (0, 1))[0]
    assert ev.y_consensus == _column_norms(y - yb, (0, 1))[0]


# ----------------------------------------------------------------------- run

def test_scalar_run_halves_error_each_iteration(scalar_suite):
    strat = _strategy("GTA3", 1)
    tr = run(scalar_suite, GtaConfig(strategy=strat, alpha=0.5, max_outer_iters=3),
             np.array([1.0]))
    assert tr.opt_err.tolist() == [1.0, 0.5, 0.25, 0.125]


def test_methods_coincide_when_strategies_coincide(small_quadratic):
    s = small_quadratic
    w = gt.metropolis_weights(gt.build_graph("cycle", s.n))
    a = gt.strategy_for("GTA3", w, 2)
    b = custom_strategy(w, 2, (w.w, w.w, w.w, w.w))
    x0 = np.zeros(s.n * s.d)
    tr_a = run(s, GtaConfig(strategy=a, alpha=0.01, max_outer_iters=50), x0)
    tr_b = run(s, GtaConfig(strategy=b, alpha=0.01, max_outer_iters=50), x0)
    assert np.array_equal(tr_a.opt_err, tr_b.opt_err)
    assert np.array_equal(tr_a.x_consensus_err, tr_b.x_consensus_err)


def test_divergence_guard_raises(small_quadratic):
    strat = _strategy("GTA1", small_quadratic.n)
    with pytest.raises(DivergenceError, match="diverged"):
        run(small_quadratic, GtaConfig(strategy=strat, alpha=10.0, max_outer_iters=5000),
            np.zeros(small_quadratic.n * small_quadratic.d))


def test_divergence_guard_watches_consensus_errors(mirrored_pair):
    suite, strat = mirrored_pair
    with pytest.raises(DivergenceError, match="y_consensus") as err:
        run(suite, GtaConfig(strategy=strat, alpha=1.0, max_outer_iters=100), np.zeros(2))
    # |x_i| about doubles each iteration: y_consensus passes 1e12 at k = 40,
    # long before any overflow, and the optimization error never moves
    assert err.value.k == 40
    assert err.value.opt_err == 0.0
    assert err.value.errors.y_consensus > gt.tracking.DIVERGENCE_LIMIT


@pytest.mark.parametrize("errors,expected", [
    ([1.0, 1.0, 1.0], False),
    ([1e12, 1e12, 1e12], False),
    ([1.0, 2e12, 1.0], True),
    ([1.0, 1.0, np.inf], True),
    ([np.nan, 1.0, 1.0], True),
    ([1.0, 1.0, np.nan], True),
])
def test_divergence_rule(errors, expected):
    assert bool(gt.tracking.diverged(gt.ErrorVector(*errors))) is expected
    columns = np.array([errors, [0.0, 0.0, 0.0]]).T           # a sweep of c = 2
    assert gt.tracking.diverged(gt.ErrorVector(*columns)).tolist() == [expected, False]



@settings(max_examples=1000, deadline=None)
@given(n=hst.integers(1, 16), d=hst.integers(1, 5), c=hst.integers(1, 6),
       seed=hst.integers(0, 2**32 - 1), x_max=hst.floats(0.0, 1e13),
       y_max=hst.floats(0.0, 1e13), x_star_frac=hst.floats(0.0, 1.0),
       shape=hst.sampled_from(["random", "consensual", "centered"]),
       rest=hst.sampled_from([0.0, 1e-3, 1.0]),
       near=hst.sampled_from([None, "opt", "x", "y"]),
       squeeze=hst.floats(1.0 - 1e-5, 1.0 + 1e-5),
       poison=hst.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
def test_norm_precheck_clears_only_states_that_cannot_diverge(n, d, c, seed, x_max, y_max,
                                                              x_star_frac, shape, rest, near,
                                                              squeeze, poison):
    # whenever the sweep's two-norm pre-check passes, the divergence rule
    # must hold for no column; "consensual" makes the opt_err bound tight
    # (every node at -t*x*/||x*||), "centered" the x_consensus bound (both
    # fully when the columns after the first are scaled to `rest` = 0), and
    # `near` puts one bound within 1e-5 of the limit
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    x_star = x_star_frac * DIVERGENCE_LIMIT * u
    if shape == "consensual":
        x = np.broadcast_to(-u[None, :, None] * rng.uniform(0, x_max, c), (n, d, c)).copy()
    else:
        x = rng.uniform(-x_max, x_max, (n, d, c))
        if shape == "centered":
            x -= x.mean(axis=0)
    y = rng.uniform(-y_max, y_max, (n, d, c))
    if shape != "random":
        x[:, :, 1:] *= rest
        y[:, :, 1:] *= rest
    x_norm, y_norm = np.linalg.norm(x), np.linalg.norm(y)
    target = squeeze * DIVERGENCE_LIMIT
    if near == "opt" and x_norm > 0 and target > np.linalg.norm(x_star):
        x *= (target - np.linalg.norm(x_star)) * math.sqrt(n) / x_norm
    elif near == "x" and x_norm > 0:
        x *= target / x_norm
    elif near == "y" and y_norm > 0:
        y *= target / y_norm
    if poison is not None:
        (x if rng.integers(2) else y)[tuple(rng.integers(0, (n, d, c)))] = poison
    state = GtaState(suite=None, x=x, y=y, grads=y)
    with np.errstate(over="ignore", invalid="ignore"):
        if surely_bounded(state, float(np.linalg.norm(x_star))):
            assert not np.any(diverged(error_vector(state, SimpleNamespace(x_star=x_star))))


def _tight_state(bound, scale):
    """A state whose `bound` (opt, x or y) is attained with equality and
    equals scale * DIVERGENCE_LIMIT; returns (state, x*)."""
    e = np.array([[[0.6], [0.8]]])                       # a unit column, d = 2
    zeros = np.zeros((4, 2, 1))
    x_star = np.zeros(2)
    if bound == "opt":                   # every node at -t*u, x* = 0.9 * limit * u
        x_star = 0.9 * DIVERGENCE_LIMIT * e[0, :, 0]
        x = np.repeat(-(scale - 0.9) * DIVERGENCE_LIMIT * e, 4, axis=0)
        return GtaState(None, x=x, y=zeros, grads=zeros), x_star
    mirrored = scale * DIVERGENCE_LIMIT / 2 * np.concatenate([e, -e, e, -e])   # mean 0
    if bound == "x":
        return GtaState(None, x=mirrored, y=zeros, grads=zeros), x_star
    return GtaState(None, x=zeros, y=mirrored, grads=mirrored), x_star


@pytest.mark.parametrize("bound", ["opt", "x", "y"])
def test_norm_precheck_margin_sits_between_the_rule_and_its_bounds(bound):
    # where a bound is attained exactly, a state just past the limit must
    # fail the pre-check, and one 2e-6 under it must pass
    for scale, passes in ((1 + 1e-7, False), (1 - 2e-6, True)):
        state, x_star = _tight_state(bound, scale)
        assert surely_bounded(state, float(np.linalg.norm(x_star))) is passes
        assert bool(np.any(diverged(error_vector(state, SimpleNamespace(x_star=x_star))))) \
            is not passes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_precheck_fails_on_non_finite_entries(bad):
    for field in ("x", "y"):
        state, _ = _tight_state(field, 0.0)
        getattr(state, field)[3, 1, 0] = bad
        assert not surely_bounded(state, 0.0)


def test_runs_are_bit_deterministic(small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA2", s.n, n_c=3)
    cfg = GtaConfig(strategy=strat, alpha=1e-3, n_g=2, max_outer_iters=80)
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=s.n * s.d)
    tr1 = run(s, cfg, x0)
    tr2 = run(s, cfg, x0)
    assert np.array_equal(tr1.opt_err, tr2.opt_err)
    assert np.array_equal(tr1.x_consensus_err, tr2.x_consensus_err)
    assert np.array_equal(tr1.y_consensus_err, tr2.y_consensus_err)


def test_stop_tol_ends_run_early(scalar_suite):
    strat = _strategy("GTA3", 1)
    tr = run(scalar_suite, GtaConfig(strategy=strat, alpha=0.5, max_outer_iters=1000,
                                     stop_tol=1e-3), np.array([1.0]))
    assert tr.opt_err[-1] <= 1e-3
    assert len(tr.k) < 1001


def test_counters_increase_by_configured_increments(small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA1", s.n, n_c=4)
    tr = run(s, GtaConfig(strategy=strat, alpha=1e-3, n_g=3, max_outer_iters=7),
             np.zeros(s.n * s.d))
    assert np.array_equal(tr.comms, tr.k * 4)
    assert np.array_equal(tr.grad_evals, tr.k * 3 * s.n)
    assert tr.vectors_per_round == 2       # W2 and W4 are identities in GTA1
    assert np.array_equal(tr.comm_vectors, tr.k * 4 * 2)


def test_tracking_identity_along_a_run(small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA2", s.n, n_c=2)
    cfg = kernel_params(strat, 1e-3, n_g=3)
    st = initialize(s, np.zeros(s.n * s.d))
    for _ in range(60):
        for _ in range(cfg.m):
            inner_step(st, cfg.alpha)
        outer_step(st, cfg)
        h = s.grad_stack(st.x[:, :, 0]).mean(axis=0)
        dev = np.linalg.norm(st.y[:, :, 0].mean(axis=0) - h)
        assert dev <= 1e-9 * (1 + np.linalg.norm(h))


@pytest.mark.parametrize("n_g", [2, 5, 100])
def test_tracking_identity_along_a_closed_form_run(n_g, small_quadratic):
    # advance takes the quadratic's closed-form local phase: x moves by the
    # total of n_g - 1 steps at once, y by the gradient change of that move
    s = small_quadratic
    cfg = kernel_params(_strategy("GTA3", s.n, n_c=2), 0.5 / (n_g * s.L), n_g=n_g)
    st = initialize(s, np.random.default_rng(11).normal(size=s.n * s.d))
    for _ in range(60):
        advance(st, cfg)
        h = s.grad_stack(st.x[:, :, 0]).mean(axis=0)
        dev = np.linalg.norm(st.y[:, :, 0].mean(axis=0) - h)
        assert dev <= 1e-9 * (1 + np.linalg.norm(h))
    assert cfg.steps is not None


def test_trace_csv_schema(tmp_path, scalar_suite):
    strat = _strategy("GTA3", 1)
    tr = run(scalar_suite, GtaConfig(strategy=strat, alpha=0.5, max_outer_iters=2),
             np.array([1.0]))
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,comms_cumulative,grads_cumulative,opt_err,x_consensus_err,y_consensus_err"
    assert lines[1].startswith("0,0,0,1,")
    assert len(lines) == 4


def test_trace_csv_matches_per_element_formatting(tmp_path):
    # to_csv formats Python numbers from tolist(); the per-element numpy
    # formatting it replaced is the reference, byte for byte
    rng = np.random.default_rng(3)
    k = np.arange(60)
    errs = rng.lognormal(size=(3, 60)) * 10.0 ** rng.integers(-300, 300, size=(3, 60))
    errs[0, 5], errs[1, 7], errs[2, 9], errs[0, 11] = math.nan, math.inf, 0.0, 5e-324
    tr = RunTrace(k=k, opt_err=errs[0], x_consensus_err=errs[1], y_consensus_err=errs[2],
                  n_c=7, n_g=100, n=1024, vectors_per_round=3)
    lines = ["k,comms_cumulative,grads_cumulative,opt_err,x_consensus_err,y_consensus_err"]
    for i in range(len(k)):
        lines.append("%d,%d,%d,%.17g,%.17g,%.17g" % (
            tr.k[i], tr.comms[i], tr.grad_evals[i], tr.opt_err[i], tr.x_consensus_err[i],
            tr.y_consensus_err[i]))
    tr.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == "\n".join(lines) + "\n"


# -------------------------------------------------------------- stacked runs

# A stacked column may round differently from its run (the stacked
# gradient products and per-column norms), never by more than this
# fraction of the column's largest value.
STACK_RTOL = 1e-12


def _loop_run(suite, cfg, x0):
    """The run loop written out step by step: the (k+1, 3) error rows up to
    the budget or stop_tol, or the k at which the errors met the
    divergence rule."""
    st = initialize(suite, x0)
    rows = [as_array(error_vector(st, suite))]
    step = kernel_params(cfg.strategy, cfg.alpha, cfg.n_g)
    with np.errstate(over="ignore", invalid="ignore"):
        while st.k < cfg.max_outer_iters and not (cfg.stop_tol is not None
                                                 and rows[-1][0] <= cfg.stop_tol):
            advance(st, step)
            ev = error_vector(st, suite)
            rows.append(as_array(ev))
            if diverged(ev):
                return st.k
    return np.array(rows)


def _stacked(suite, cfgs, x0):
    """Each cell's RunTrace or DivergenceError, asked for in cfgs order of
    one RunStack."""
    stack = gt.tracking.RunStack(suite, cfgs, x0)
    out = []
    for cfg in cfgs:
        try:
            out.append(run(suite, cfg, x0, stack))
        except DivergenceError as exc:
            out.append(exc)
    return out


def _part_columns(suite, cfgs):
    """`tracking._parts` of cfgs as lists of the cells' positions in cfgs."""
    return [[next(j for j, c in enumerate(cfgs) if c is cfg) for cfg in part]
            for part in gt.tracking._parts(suite, cfgs)]


def _assert_column_agrees(got, want):
    """A stacked column's outcome against `_loop_run`'s."""
    if isinstance(want, int):
        assert isinstance(got, DivergenceError) and got.k == want
        return
    assert isinstance(got, RunTrace)
    assert np.array_equal(got.k, np.arange(len(want)))
    for col, ref in zip(got.error_matrix().T, want.T):
        assert np.max(np.abs(col - ref)) <= STACK_RTOL * np.max(np.abs(ref))


_STACK_SUITES = {}


def _stack_suite(kind):
    """(suite, W, lazy W) of the stacked-run tests, built once each: 8-node
    quadratic and logistic suites on a cycle, a quadratic on a 256-cycle,
    whose Metropolis matrix is held as a neighbour table, and ("wide") a
    quadratic on a 2048-cycle whose one column holds n*d = 10240 entries,
    past the size from which OpenBLAS may split a dot product across
    threads."""
    if kind not in _STACK_SUITES:
        if kind == "quadratic":
            suite = gt.generate_quadratic(gt.QuadraticSpec(n=8, d=3, kappa_target=30.0, seed=5))
        elif kind == "logistic":
            suite = gt.logreg_suite(gt.load_libsvm("data/synth_binary.libsvm", 8))
        elif kind == "wide":
            suite = gt.generate_quadratic(gt.QuadraticSpec(n=2048, d=5, kappa_target=10.0, seed=8))
        else:
            suite = gt.generate_quadratic(gt.QuadraticSpec(n=256, d=2, kappa_target=10.0, seed=6))
        graph = gt.build_graph("cycle", suite.n)
        _STACK_SUITES[kind] = (suite, gt.metropolis_weights(graph),
                               gt.metropolis_weights(graph, laziness=0.5))
    return _STACK_SUITES[kind]


# (method or custom slot pattern over W, I and lazy W, n_c, step 2^-t / (n_g L),
# stop_tol as a fraction of ||x*||, budget)
_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3", "WIWW", "LWLI", "IWWL"]),
                    hst.sampled_from([1, 5]), hst.integers(-1, 4),
                    hst.sampled_from([None, 0.3, 1e-2, 1e-4]), hst.sampled_from([0, 4, 30]))


@settings(max_examples=150, deadline=None)
@given(kind=hst.sampled_from(["quadratic", "logistic", "cycle256"]),
       n_g=hst.sampled_from([1, 2, 5]), cells=hst.lists(_CELLS, min_size=1, max_size=6))
def test_a_stacked_run_matches_its_one_cell_runs(kind, n_g, cells):
    # each column mixes through its own cell's strategy (cells of one
    # (method, n_c) share the object); columns leave at different k on their
    # budgets, their stop_tol or a divergence, and the others go on.  On the
    # 256-cycle one cell alone needs 256 * 512 floats per slot pair's
    # blocks, over the float bound, so distinct strategies do not share a
    # state: the stack runs one part per strategy
    suite, w, lazy = _stack_suite(kind)
    if kind == "cycle256":
        assert w.table is not None
    mats = {"W": w.w, "I": np.eye(suite.n), "L": lazy.w}
    strategies, cfgs = {}, []
    x_star_norm = float(np.linalg.norm(suite.x_star))
    for method, n_c, t, rel_tol, budget in cells:
        if (method, n_c) not in strategies:
            strategies[method, n_c] = (
                gt.strategy_for(method, w, n_c) if method.startswith("GTA")
                else custom_strategy(w, n_c, [mats[m] for m in method]))
        cfgs.append(GtaConfig(strategy=strategies[method, n_c], alpha=2.0 ** -t / (n_g * suite.L),
                              n_g=n_g, max_outer_iters=budget,
                              stop_tol=None if rel_tol is None else rel_tol * x_star_norm))
    x0 = np.zeros(suite.n * suite.d)
    if len(strategies) == 1 or batchable(cfgs):
        assert _part_columns(suite, cfgs) == [list(range(len(cfgs)))]
    else:
        assert kind == "cycle256"
        by_strategy = {}
        for j, cfg in enumerate(cfgs):
            by_strategy.setdefault(id(cfg.strategy), []).append(j)
        assert _part_columns(suite, cfgs) == list(by_strategy.values())
    stacked = _stacked(suite, cfgs, x0)
    assert len(stacked) == len(cfgs)
    for cfg, got in zip(cfgs, stacked):
        want = _loop_run(suite, cfg, x0)
        _assert_column_agrees(got, want)
        # a one-cell run is the loop itself, bit for bit
        if isinstance(want, int):
            with pytest.raises(DivergenceError) as err:
                run(suite, cfg, x0)
            assert err.value.k == want
        else:
            assert np.array_equal(run(suite, cfg, x0).error_matrix(), want)


_BATCH_SUITES = {}


def _batch_suite(kind, n):
    """(quadratic suite, W) of the batched-stack tests, built once per
    graph kind and size."""
    if (kind, n) not in _BATCH_SUITES:
        _BATCH_SUITES[kind, n] = (
            gt.generate_quadratic(gt.QuadraticSpec(n=n, d=2, kappa_target=30.0, seed=n)),
            gt.metropolis_weights(gt.build_graph(kind, n)))
    return _BATCH_SUITES[kind, n]


# (method, n_c, step 2^-t / (n_g L), stop_tol as a fraction of ||x*||, budget)
_BATCH_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3", "custom"]),
                          hst.sampled_from([1, 2, 5]), hst.integers(0, 3),
                          hst.sampled_from([None, 0.3, 1e-2]), hst.sampled_from([0, 3, 10, 40]))


@settings(max_examples=100, deadline=None)
@given(kind=hst.sampled_from(["cycle", "star", "complete"]), n=hst.integers(3, 16),
       n_g=hst.sampled_from([1, 3]), cells=hst.lists(_BATCH_CELLS, min_size=1, max_size=5))
def test_a_batched_stack_matches_its_one_cell_runs(kind, n, n_g, cells):
    # distinct strategies mix as one batched product per slot pair; "custom"
    # is (W, I, W, W), with an identity slot.  A last column at a step size
    # that diverges leaves early, so the live columns change at least once
    # and each segment rebuilds its products
    suite, w = _batch_suite(kind, n)
    x_star_norm = float(np.linalg.norm(suite.x_star))
    strategies, cfgs = {}, []
    for method, n_c, t, rel_tol, budget in cells:
        if (method, n_c) not in strategies:
            strategies[method, n_c] = (
                gt.strategy_for(method, w, n_c) if method.startswith("GTA")
                else custom_strategy(w, n_c, (w.w, np.eye(n), w.w, w.w)))
        cfgs.append(GtaConfig(strategy=strategies[method, n_c], alpha=2.0 ** -t / (n_g * suite.L),
                              n_g=n_g, max_outer_iters=budget,
                              stop_tol=None if rel_tol is None else rel_tol * x_star_norm))
    cfgs.append(GtaConfig(strategy=gt.strategy_for("GTA3", w, 1), alpha=16.0 / (n_g * suite.L),
                          n_g=n_g, max_outer_iters=200))
    assert batchable(cfgs)
    x0 = np.zeros(n * suite.d)
    ends = set()
    for cfg, got in zip(cfgs, _stacked(suite, cfgs, x0), strict=True):
        try:
            want = run(suite, cfg, x0)
        except DivergenceError as exc:
            assert isinstance(got, DivergenceError) and got.k == exc.k
            ends.add(exc.k)
            continue
        assert isinstance(got, RunTrace) and np.array_equal(got.k, want.k)
        # where W^n_c averages exactly (a 3-cycle, a complete graph), a
        # consensus error is rounding noise: 1e-15 of the run's largest error
        floor = 1e-15 * np.max(want.error_matrix())
        for col, ref in zip(got.error_matrix().T, want.error_matrix().T):
            assert np.max(np.abs(col - ref)) <= STACK_RTOL * np.max(np.abs(ref)) + floor
        ends.add(int(want.k[-1]))
    assert isinstance(got, DivergenceError) and len(ends) >= 2


def test_a_diverging_column_leaves_the_stack_at_its_single_run_k(small_quadratic):
    s = small_quadratic
    strat = _strategy("GTA3", s.n, n_c=2)
    cfgs = [GtaConfig(strategy=strat, alpha=a, n_g=2, max_outer_iters=200)
            for a in (1e-3, 4.0 / s.L, 2e-2, 8.0 / s.L)]
    x0 = np.zeros(s.n * s.d)
    out = _stacked(s, cfgs, x0)
    for cfg, got in zip(cfgs, out):
        _assert_column_agrees(got, _loop_run(s, cfg, x0))
    dead = [got.k for got in out if isinstance(got, DivergenceError)]
    assert len(dead) == 2 and dead[1] < dead[0] < 200
    assert [len(got.k) for got in out if isinstance(got, RunTrace)] == [201, 201]


@pytest.mark.parametrize("n_g, scale, k", [(20, 2.5, 5), (20, 3.0, 3), (20, 4.0, 2),
                                           (100, 64.0, 1), (400, 8.0, 1)])
def test_a_one_cell_run_whose_steps_overflow_leaves_on_the_eigen_forms_row(n_g, scale, k,
                                                                            small_quadratic):
    # a lone cell applies its closed form as V diag(step) V', one product;
    # the same cell in a two-column stack applies V (step * V'y) until it
    # leaves.  Where the growing steps blow the run up, both leave on row k,
    # the row the eigen form alone gave.  At n_g = 400 and 8/L the step
    # itself overflows to inf, and every error of that row is nan
    s = small_quadratic
    strat = _strategy("GTA3", s.n, n_c=2)
    cfg = GtaConfig(strategy=strat, alpha=scale / s.L, n_g=n_g, max_outer_iters=200)
    calm = GtaConfig(strategy=strat, alpha=1e-3, n_g=n_g, max_outer_iters=200)
    x0 = np.zeros(s.n * s.d)
    alone, stacked = _stacked(s, [cfg], x0)[0], _stacked(s, [cfg, calm], x0)[0]
    assert isinstance(alone, DivergenceError) and isinstance(stacked, DivergenceError)
    assert alone.k == stacked.k == k
    with np.errstate(over="ignore", invalid="ignore"):
        overflows = np.isinf(s.local_steps(cfg.alpha, n_g - 1).step).any()
    assert overflows == (n_g == 400)
    if overflows:
        assert np.isnan(as_array(alone.errors)).all() and np.isnan(as_array(stacked.errors)).all()


def _loop_sweep(suite, strategy, n_g, budget, alphas):
    """A step-size sweep written out as its own loop from the zero start:
    per step size, its final (3,) errors, taken at the budget on the row of
    every column live there, those that diverge at it included, or the k
    at which it met the divergence rule."""
    record = [None] * len(alphas)
    live = np.arange(len(alphas))
    state = initialize(suite, np.zeros((suite.n, suite.d, len(alphas))))
    step = kernel_params(strategy, alphas, n_g)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, budget + 1):
            advance(state, step)
            ev = error_vector(state, suite)
            dead = np.reshape(diverged(ev), -1)
            for i in live[dead]:
                record[i] = k
            if k == budget:
                final = np.reshape(as_array(ev), (3, -1))
                for j in np.flatnonzero(~dead):
                    record[live[j]] = final[:, j]
                return record
            if np.all(dead):
                return record
            if np.any(dead):
                live = live[~dead]
                state.keep(~dead)
                step = kernel_params(strategy, alphas[live], n_g)
    return record


@pytest.mark.parametrize("method,n_c,n_g,ts,budget", [
    ("GTA2", 1, 1, (3, 4), 27),      # 2^-3 diverges at the budget, 2^-4 ends on that row
    ("GTA1", 2, 1, (4, 5, 6), 29),   # 2^-4 diverges at the budget, two columns end
    ("GTA1", 1, 1, range(21), 40),
    ("GTA3", 2, 3, range(21), 30),
])
def test_a_sweep_stack_yields_the_sweep_loops_records(method, n_c, n_g, ts, budget,
                                                       small_quadratic):
    # a RunStack without trace is the sweep: the same step of death, and the
    # final errors bit for bit, also where a column diverges at the budget
    # and the others end on the row at which it diverged
    s = small_quadratic
    strat = _strategy(method, s.n, n_c=n_c)
    alphas = 2.0 ** -np.array(ts, dtype=float)
    cfgs = [GtaConfig(strategy=strat, alpha=a, n_g=n_g, max_outer_iters=budget)
            for a in alphas.tolist()]
    stack = gt.tracking.RunStack(s, cfgs, np.zeros(s.n * s.d), trace=False)
    want = _loop_sweep(s, strat, n_g, budget, alphas)
    died = [rec for rec in want if isinstance(rec, int)]
    assert died and (budget in died or len(ts) == 21)
    for j, rec in enumerate(want):
        got = stack.outcome(j)
        if isinstance(rec, int):
            assert isinstance(got, DivergenceError) and got.k == rec
        else:
            assert np.array_equal(as_array(got), rec)


def test_a_stack_mixes_as_one_product_per_pair_and_a_run_mixes_whole(small_quadratic,
                                                                     monkeypatch):
    # a stack of distinct strategies mixes every column through its own
    # cell's [Z_a | Z_b] in one batched product per slot pair; a one-cell run
    # mixes its one contiguous column whole, slot by slot
    s = small_quadratic
    a, b = _strategy("GTA2", s.n, n_c=2), _strategy("GTA1", s.n, n_c=2)
    widths, products = [], []
    real_mix, real_product = gt.tracking._mix, gt.tracking._product

    def mixing(strategy, slot, v):
        widths.append((strategy.name, v.shape[2], v.flags.c_contiguous))
        return real_mix(strategy, slot, v)

    def multiplying(z, u, v):
        products.append((z.shape, u.shape[2]))
        out = real_product(z, u, v)
        assert out.flags.c_contiguous
        return out

    monkeypatch.setattr(gt.tracking, "_mix", mixing)
    monkeypatch.setattr(gt.tracking, "_product", multiplying)
    x0 = np.zeros(s.n * s.d)
    cfgs = [GtaConfig(strategy=st, alpha=1e-3, max_outer_iters=3) for st in (a, a, b)]
    _stacked(s, cfgs, x0)
    # two products per outer iteration, each on all three columns
    assert widths == []
    assert products == [((3, s.n, 2 * s.n), 3)] * 6
    products.clear()
    run(s, cfgs[2], x0)
    # GTA1 = (W, I, W, I): two slots for each update
    assert products == []
    assert widths == [("GTA1", 1, True)] * 12


def test_cells_the_product_cannot_take_run_apart_and_match_their_one_cell_runs(monkeypatch):
    # on a 256-cycle W^1 runs as gather rounds, W^5 as a dense product; two
    # n = 256 cells need 2 * 256 * 512 floats per slot pair's blocks, so
    # they run as two parts, each the one-cell run bit for bit
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=256, d=2, kappa_target=10.0, seed=6))
    w = gt.metropolis_weights(gt.build_graph("cycle", 256))
    assert w.table is not None
    x0 = np.zeros(512)

    def cells(*strategies):
        return [GtaConfig(strategy=st, alpha=1e-3, max_outer_iters=2) for st in strategies]

    gta1, gta3 = gt.strategy_for("GTA1", w, 1), gt.strategy_for("GTA3", w, 5)
    apart = cells(gta1, gta3)
    assert _part_columns(suite, apart) == [[0], [1]]
    for got, cfg in zip(_stacked(suite, apart, x0), apart, strict=True):
        assert np.array_equal(got.error_matrix(), run(suite, cfg, x0).error_matrix())
    # columns of one strategy share a state, whatever the bound
    same = cells(gta1, gta1)
    assert _part_columns(suite, same) == [[0, 1]]
    for got, cfg in zip(_stacked(suite, same, x0), same, strict=True):
        _assert_column_agrees(got, _loop_run(suite, cfg, x0))
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 2 * 256 * 512 - 1)
    assert _part_columns(suite, apart) == [[0], [1]]
    # at the bound they stack, the gather-round slot mixing through its power
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 2 * 256 * 512)
    assert _part_columns(suite, apart) == [[0, 1]]
    for got, cfg in zip(_stacked(suite, apart, x0), apart, strict=True):
        _assert_column_agrees(got, _loop_run(suite, cfg, x0))


def test_a_stack_runs_every_cell_on_its_first_request(small_quadratic, monkeypatch):
    s = small_quadratic
    strat = _strategy("GTA3", s.n)
    cfgs = [GtaConfig(strategy=strat, alpha=1e-3, max_outer_iters=m) for m in (30, 5, 12)]
    x0 = np.zeros(s.n * s.d)
    steps = []
    real = gt.tracking.advance

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(gt.tracking, "advance", counting)
    # whichever cell is asked for first, every column runs to its budget then
    for first, *rest in itertools.permutations(range(3)):
        stack = gt.tracking.RunStack(s, cfgs, x0)
        assert len(run(s, cfgs[first], x0, stack).k) == cfgs[first].max_outer_iters + 1
        steps.clear()
        for j in rest:
            assert len(run(s, cfgs[j], x0, stack).k) == cfgs[j].max_outer_iters + 1
        assert steps == []
    for cfg in cfgs:
        _assert_column_agrees(run(s, cfg, x0, stack), _loop_run(s, cfg, x0))
    with pytest.raises(ValueError, match="not a cell"):
        run(s, GtaConfig(strategy=strat, alpha=1e-3, max_outer_iters=5), x0, stack)
    with pytest.raises(ValueError, match="another suite or x0"):
        run(s, cfgs[0], x0 + 1.0, stack)


def test_a_stack_needs_a_cell(small_quadratic):
    s = small_quadratic
    with pytest.raises(ValueError, match="at least one cell"):
        gt.tracking.RunStack(s, [], np.zeros(s.n * s.d))
    # an empty t_range is a sweep of no candidates
    with pytest.raises(ValueError, match="at least one cell"):
        gt.harness.tune_step_size(s, _strategy("GTA1", s.n), 1, 5, t_range=(5, 3))


def test_cells_a_suite_cannot_step_together_run_apart_and_match_their_one_cell_runs():
    # a logistic suite has no closed-form local steps: a state steps one
    # inner_step at a time, for every column at once, so cells of distinct
    # n_g run as one part per n_g, in order of each n_g's first cell
    suite, w, _ = _stack_suite("logistic")
    strat = gt.strategy_for("GTA1", w, 1)
    x0 = np.zeros(suite.n * suite.d)
    cfgs = [GtaConfig(strategy=strat, alpha=2.0 ** -t / (g * suite.L), n_g=g, max_outer_iters=25)
            for t, g in ((0, 2), (1, 1), (1, 2), (2, 1))]
    assert _part_columns(suite, cfgs) == [[0, 2], [1, 3]]
    for got, cfg in zip(_stacked(suite, cfgs, x0), cfgs, strict=True):
        _assert_column_agrees(got, _loop_run(suite, cfg, x0))


# (method, n_g, step 2^-t / (n_g L), stop_tol as a fraction of ||x*||, budget)
_MIXED_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3"]),
                          hst.sampled_from([1, 2, 5, 20]), hst.integers(0, 3),
                          hst.sampled_from([None, 0.3, 1e-2]), hst.sampled_from([0, 3, 10, 40]))


@settings(max_examples=100, deadline=None)
@given(kind=hst.sampled_from(["cycle", "star", "complete"]), n=hst.integers(3, 12),
       one_strategy=hst.booleans(), cells=hst.lists(_MIXED_CELLS, min_size=1, max_size=5))
def test_a_stack_of_mixed_n_g_matches_its_one_cell_runs(kind, n, one_strategy, cells):
    # on a quadratic the columns of one stack may differ in n_g: a column at
    # n_g = 1 takes the closed form's zero move.  With one strategy the
    # stack mixes as a sweep does, else as one batched product per slot
    # pair.  A last column at a step size that diverges, at an n_g other
    # than the first cell's, makes the n_g mixed and leaves early
    suite, w = _batch_suite(kind, n)
    x_star_norm = float(np.linalg.norm(suite.x_star))
    strategies, cfgs = {}, []
    for method, n_g, t, rel_tol, budget in cells:
        if one_strategy:
            method = "GTA2"
        if method not in strategies:
            strategies[method] = gt.strategy_for(method, w, 2)
        cfgs.append(GtaConfig(strategy=strategies[method], alpha=2.0 ** -t / (n_g * suite.L),
                              n_g=n_g, max_outer_iters=budget,
                              stop_tol=None if rel_tol is None else rel_tol * x_star_norm))
    cfgs.append(GtaConfig(strategy=strategies["GTA2"] if one_strategy
                          else gt.strategy_for("GTA3", w, 1), alpha=16.0 / suite.L,
                          n_g=20 if cfgs[0].n_g == 1 else 1, max_outer_iters=200))
    x0 = np.zeros(n * suite.d)
    sweep = gt.tracking.RunStack(suite, cfgs, x0, trace=False)
    for j, (cfg, got) in enumerate(zip(cfgs, _stacked(suite, cfgs, x0), strict=True)):
        try:
            want = run(suite, cfg, x0)
        except DivergenceError as exc:
            assert isinstance(got, DivergenceError) and got.k == exc.k
            assert isinstance(sweep.outcome(j), DivergenceError) and sweep.outcome(j).k == exc.k
            continue
        assert isinstance(got, RunTrace) and np.array_equal(got.k, want.k)
        # where W^n_c averages exactly (a 3-cycle, a complete graph), a
        # consensus error is rounding noise: 1e-15 of the run's largest error
        floor = 1e-15 * np.max(want.error_matrix())
        for col, ref in zip(got.error_matrix().T, want.error_matrix().T):
            assert np.max(np.abs(col - ref)) <= STACK_RTOL * np.max(np.abs(ref)) + floor
        # without trace the column yields its last row alone
        last = want.error_matrix()[-1]
        assert np.all(np.abs(as_array(sweep.outcome(j)) - last)
                      <= STACK_RTOL * np.max(np.abs(want.error_matrix()), axis=0) + floor)
    assert isinstance(got, DivergenceError)


def _one_power_strategy(pattern, w, n_c, eye):
    """A named method, or a custom strategy whose W slots hold w itself (and
    the identity elsewhere), so that it mixes through w's power at n_c as
    the named methods do."""
    if pattern.startswith("GTA"):
        return gt.strategy_for(pattern, w, n_c)
    return gt.strategy_for("custom", w, n_c,
                           custom=tuple(w if slot == "W" else eye for slot in pattern))


# (method or slot pattern over W and I, n_g, step 2^-t / (n_g L), budget): the
# custom patterns hold (I, W), (W, I) and (I, I) slot pairs
_POWER_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3", "IWWI", "WIIW", "IIWW",
                                            "WWII"]),
                          hst.sampled_from([1, 2, 5]), hst.integers(0, 3),
                          hst.sampled_from([0, 3, 10, 40]))


def _power_strategies(suite, w, n_c, patterns):
    eye = gt.topology.communication_matrices([np.eye(suite.n)], w.graph)[0]
    strategies = {}
    for pattern in patterns:
        if pattern not in strategies:
            strategies[pattern] = _one_power_strategy(pattern, w, n_c, eye)
    return strategies


@settings(max_examples=100, deadline=None)
@given(kind=hst.sampled_from(["quadratic", "logistic"]), n_c=hst.sampled_from([1, 2]),
       cells=hst.lists(_POWER_CELLS, min_size=1, max_size=6))
def test_a_one_power_stack_matches_its_one_cell_runs(kind, n_c, cells):
    # the named methods and custom strategies over W and I at one n_c all
    # mix through W^n_c: the stack's columns form runs of one slot pattern,
    # in any order, and each update is one apply of W^n_c to one operand.
    # A quadratic's columns may differ in n_g; a logistic stack takes the
    # first cell's n_g for all.  A last column at a step size that diverges
    # leaves early, so the runs are rebuilt at least once
    suite, w, _ = _stack_suite(kind)
    strategies = _power_strategies(suite, w, n_c, [cell[0] for cell in cells])
    cfgs = []
    for pattern, n_g, t, budget in cells:
        n_g = n_g if kind == "quadratic" else cells[0][1]
        cfgs.append(GtaConfig(strategy=strategies[pattern], alpha=2.0 ** -t / (n_g * suite.L),
                              n_g=n_g, max_outer_iters=budget))
    # 256 / L diverges on both suites within 9 outer iterations
    cfgs.append(GtaConfig(strategy=gt.strategy_for("GTA3", w, n_c), alpha=256.0 / suite.L,
                          n_g=cfgs[0].n_g, max_outer_iters=200))
    assert gt.tracking._stack(cfgs).mix_x.func is gt.tracking._pair
    x0 = np.zeros(suite.n * suite.d)
    sweep = gt.tracking.RunStack(suite, cfgs, x0, trace=False)
    for j, (cfg, got) in enumerate(zip(cfgs, _stacked(suite, cfgs, x0), strict=True)):
        try:
            want = run(suite, cfg, x0)
        except DivergenceError as exc:
            assert isinstance(got, DivergenceError) and got.k == exc.k
            assert isinstance(sweep.outcome(j), DivergenceError) and sweep.outcome(j).k == exc.k
            continue
        assert isinstance(got, RunTrace) and np.array_equal(got.k, want.k)
        # where a column's consensus error is rounding noise (an (I, I)
        # pair keeps nothing apart), compare at 1e-15 of its largest error
        floor = 1e-15 * np.max(want.error_matrix())
        for col, ref in zip(got.error_matrix().T, want.error_matrix().T):
            assert np.max(np.abs(col - ref)) <= STACK_RTOL * np.max(np.abs(ref)) + floor
        last = want.error_matrix()[-1]
        assert np.all(np.abs(as_array(sweep.outcome(j)) - last)
                      <= STACK_RTOL * np.max(np.abs(want.error_matrix()), axis=0) + floor)
    assert isinstance(got, DivergenceError)


@settings(max_examples=30, deadline=None)
@given(kind=hst.sampled_from(["quadratic", "logistic"]), n_c=hst.sampled_from([1, 2]),
       patterns=hst.lists(hst.sampled_from(["GTA1", "GTA2", "GTA3", "IWWI", "WIIW"]),
                          min_size=2, max_size=4, unique=True),
       n_gs=hst.lists(hst.sampled_from([1, 2, 5]), min_size=1, max_size=2, unique=True))
def test_a_merged_sweep_tunes_each_cell_as_its_own_sweep(kind, n_c, patterns, n_gs):
    # a grid's strategies that share one power tune in one tune_step_size
    # call: one part for all of their cells on a quadratic, one per n_g on
    # a logistic suite.  Each cell gets the step size, or the
    # TuningError, of its strategy's own sweep
    suite, w, _ = _stack_suite(kind)
    strategies = _power_strategies(suite, w, n_c, patterns)
    cells = [(strategies[p], n_g) for p in patterns for n_g in n_gs]
    parts = []
    real = gt.tracking.RunStack._run

    def keep(self, cfgs):
        parts.append({(c.strategy.name, c.n_g) for c in cfgs})
        return real(self, cfgs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gt.tracking.RunStack, "_run", keep)
        merged = gt.harness.tune_step_size(suite, [st for st, _ in cells],
                                           [n_g for _, n_g in cells], 15, (0, 10))
    names = {st.name for st in strategies.values()}
    assert parts == ([{(name, n_g) for name in names for n_g in n_gs}] if kind == "quadratic"
                     else [{(name, n_g) for name in names} for n_g in n_gs])
    assert len(merged) == len(cells)
    for (strategy, n_g), got in zip(cells, merged):
        try:
            want = gt.harness.tune_step_size(suite, strategy, n_g, 15, (0, 10))
        except gt.harness.TuningError as exc:
            assert isinstance(got, gt.harness.TuningError)
            assert got.diagnostics == exc.diagnostics
            continue
        assert got == want


def _same_bits(got, want):
    """Equal bit for bit, signed zeros included, where neither is NaN, and
    NaN in the same entries (a NaN's payload may follow operand order)."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


# (method or slot pattern, mixing power W or its lazy form, n_c, n_g): the
# cells of a narrowed part, whose strategies may hold distinct powers
_PART_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3", "IWWI", "WIIW", "IIWW",
                                           "WWII"]),
                         hst.booleans(), hst.sampled_from([1, 2]), hst.sampled_from([1, 2, 3, 5]))


@settings(max_examples=100, deadline=None)
@given(cells=hst.lists(_PART_CELLS, min_size=2, max_size=8),
       t=hst.lists(hst.integers(0, 12), min_size=8, max_size=8),
       departures=hst.lists(hst.lists(hst.booleans(), min_size=8, max_size=8), max_size=4))
def test_a_parts_narrowed_constants_equal_freshly_built_ones(cells, t, departures):
    # a part builds its step sizes, counts, slot masks, product blocks and
    # closed form once; each departure narrows them with compress, to the
    # arrays a part of the live columns alone would build (a lone column's
    # step size as a 1-vector, not a float)
    suite, w, lazy = _stack_suite("quadratic")

    def closed_form(step):
        # as advance builds it, and from the counts where no column steps
        return suite.local_steps(step.alpha, step.counts if step.m is None else step.m)

    eye = gt.topology.communication_matrices([np.eye(suite.n)], w.graph)[0]
    strategies = {}
    cfgs = []
    for j, (pattern, is_lazy, n_c, n_g) in enumerate(cells):
        key = pattern, is_lazy, n_c
        if key not in strategies:
            strategies[key] = _one_power_strategy(pattern, lazy if is_lazy else w, n_c, eye)
        cfgs.append(GtaConfig(strategy=strategies[key], alpha=2.0 ** -t[j] / suite.L, n_g=n_g))
    step = gt.tracking._stack(cfgs)
    step.steps = closed_form(step)
    live = list(cfgs)
    for departure in departures:
        keep = np.array(departure[:len(live)])
        if keep.all() or not keep.any():
            continue
        step = step.keep(keep)
        live = [cfg for cfg, kept in zip(live, keep) if kept]
        fresh = gt.tracking._stack(live)
        fresh.steps = closed_form(fresh)
        assert step.cfgs == live
        for name in ("alpha", "neg_alpha", "counts", "slots"):
            assert np.array_equal(getattr(step, name), np.reshape(getattr(fresh, name),
                                                                  np.shape(getattr(step, name))))
        assert np.array_equal(step.m, fresh.m) and type(step.m) is type(fresh.m)
        assert np.array_equal(step.steps.step, fresh.steps.step)
        if fresh.blocks is None:
            assert step.blocks is None
        else:
            assert all(np.array_equal(z, f) for z, f in zip(step.blocks, fresh.blocks))
        for mix in ("mix_x", "mix_y"):
            got, want = getattr(step, mix), getattr(fresh, mix)
            assert got.func is want.func
            for arg, ref in zip(got.args, want.args, strict=True):
                if isinstance(ref, tuple):
                    assert all(a is r is None or np.array_equal(a, r) for a, r in zip(arg, ref))
                elif isinstance(ref, np.ndarray):
                    assert np.array_equal(arg, ref)
                else:
                    assert arg == ref


@settings(max_examples=150, deadline=None)
@given(kind=hst.sampled_from(["quadratic", "cycle256"]), n_c=hst.sampled_from([1, 2, 5]),
       patterns=hst.lists(hst.sampled_from(["GTA1", "GTA2", "GTA3", "IWWI", "WIIW", "IIWW",
                                            "WWII"]), min_size=1, max_size=8),
       special=hst.lists(hst.sampled_from([0.0, -0.0, math.inf, -math.inf]), max_size=6),
       seed=hst.integers(0, 2**32 - 1))
def test_a_one_power_stack_mixes_each_column_as_its_own_pair(kind, n_c, patterns, special,
                                                              seed):
    # every slot pair in {P, I}^2, as the named methods and the custom
    # patterns hold them: column j of mix(u, v) is P (u + v), P u + v,
    # u + P v or u + v, with P applied to whole (n, d, c) stacks, bit for
    # bit, signed zeros and infinities included.  On the 256-cycle P runs
    # as gather rounds at n_c = 1 and as one dense product above
    suite, w, _ = _stack_suite(kind)
    strategies = _power_strategies(suite, w, n_c, patterns)
    cfgs = [GtaConfig(strategy=strategies[p], alpha=1e-3) for p in patterns]
    step = gt.tracking._stack(cfgs)
    rng = np.random.default_rng(seed)
    shape = (suite.n, suite.d, len(cfgs))
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    for value in special:
        (u if rng.random() < 0.5 else v)[tuple(rng.integers(0, shape))] = value
    p = lambda z: w.apply(z.reshape(suite.n, -1), n_c).reshape(shape)    # noqa: E731
    with np.errstate(invalid="ignore"):
        pu, pv, puv = p(u), p(v), p(u + v)
        for mix, (a, b) in ((step.mix_x, (0, 1)), (step.mix_y, (2, 3))):
            got = mix(u.copy(), v.copy())
            for j, cfg in enumerate(cfgs):
                mixes_a, mixes_b = (cfg.strategy.slots[s] is not None for s in (a, b))
                want = {(True, True): puv, (True, False): pu + v, (False, True): u + pv,
                        (False, False): u + v}[mixes_a, mixes_b][:, :, j]
                assert _same_bits(got[:, :, j], want), (cfg.strategy.name, a, b)


# ------------------------------------------------------ rows taken in blocks

def _norm_row(state, suite):
    """The (3, c) errors of state by the per-column sum of squares, for any
    column count (the formula error_vector takes one state at a time)."""
    x, y = state.x, state.y
    x_bar, y_bar = x.mean(axis=0), y.mean(axis=0)
    temps = (x_bar - suite.x_star[:, None], x - x_bar, y - y_bar)
    return np.array([_column_norms(v, axes) for v, axes in zip(temps, (0, (0, 1), (0, 1)))])


def _row_loop(suite, cfgs, x0):
    """One part's traced stack written out as one `advance` and one row per
    outer iteration, narrowing the state and the kernel's parameters where
    columns leave: per cell, its (rows, 3) errors or, where it met the
    divergence rule, (k, its (3,) errors); the k at which it left; and its
    opt_err at every row up to that k."""
    n, d, c = suite.n, suite.d, len(cfgs)
    state = initialize(suite, np.broadcast_to(np.reshape(x0, (n, d, 1)), (n, d, c)))
    step = gt.tracking._stack(cfgs)
    live, rows = list(range(c)), [[] for _ in cfgs]
    out, left = [None] * c, [None] * c
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            errs = _norm_row(state, suite)
            dead = np.reshape(diverged(ErrorVector(*errs)), -1) & (state.k > 0)
            for p, j in enumerate(live):
                rows[j].append(errs[:, p])
                tol = cfgs[j].stop_tol
                if dead[p]:
                    out[j] = (state.k, errs[:, p])
                elif state.k >= cfgs[j].max_outer_iters or (tol is not None and errs[0, p] <= tol):
                    out[j] = np.array(rows[j])
                if out[j] is not None:
                    left[j] = state.k
            keep = np.array([out[j] is None for j in live])
            live = [j for j in live if out[j] is None]
            if not live:
                return out, left, [np.array(r)[:, 0] for r in rows]
            if not keep.all():
                state.keep(keep)
                step = step.keep(keep)
            advance(state, step)


# (method, n_c, step 2^-t / (n_g L), stop_tol as a fraction of ||x*||, budget):
# budgets about one block of rows (32 rows, k = 0 among them) and past it
_ROW_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3"]), hst.sampled_from([1, 2]),
                        hst.integers(-4, 3), hst.sampled_from([None, 0.5, 0.1, 1e-2, 1e-3]),
                        hst.sampled_from([0, 1, 31, 32, 33, 98]))


def _block_advances(suite, cfgs, left, opt):
    """The `advance` calls of a traced part's blocks, from the k at which
    each cell's column left and its opt_err rows (`_row_loop`).  A
    segment's first block holds the cap's rows (_ROW_BLOCK, fewer under the
    _ROW_FLOATS cap; the first segment's holds the k = 0 row).  After a
    block in which no column leaves, the next holds the fewest iterations n
    (at least 1, at most the cap) with last * (last / first)^(n / (rows - 1))
    at or below the stop_tol of a live column whose log opt_err falls from
    the block's first row to its last; the cap when none does or the block
    holds one row.  No block passes the smallest live budget; a segment
    steps to the end of the block that holds its first leaving row and goes
    on from that row."""
    tracking = gt.tracking
    live, k, total, first = list(range(len(cfgs))), 0, 0, 0
    while live:
        cap = max(1, min(tracking._ROW_BLOCK,
                         tracking._ROW_FLOATS // (3 * suite.n * suite.d * len(live))))
        k_end = min(cfgs[j].max_outer_iters for j in live)
        k_leave = min(left[j] for j in live)
        length = cap
        while (last := min(first + length - 1, k_end)) < k_leave:
            length = cap
            for j in live:
                tol, e_first, e_last = cfgs[j].stop_tol, opt[j][first], opt[j][last]
                if tol and (drop := math.log(e_first) - math.log(e_last)) > 0:
                    # n iterations reach tol where log(e_last) - n * rate <= log(tol)
                    rate = drop / (last - first)
                    length = min(length, max(1, math.ceil((math.log(e_last) - math.log(tol))
                                                          / rate)))
            first = last + 1
        total += last - k
        # a later segment's first row is the one after its leaving row
        k, first = k_leave, k_leave + 1
        live = [j for j in live if left[j] > k_leave]
    return total


def _counting(*names):
    """A patch of the named tracking functions that counts their calls in
    the dict it returns, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(gt.tracking, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    return mock.patch.multiple(gt.tracking, **{name: counted(name) for name in names}), calls


def _assert_row_loop_outcomes(got, want):
    """A traced stack's outcomes against `_row_loop`'s, bit for bit."""
    for g, wnt in zip(got, want, strict=True):
        if isinstance(wnt, tuple):
            assert isinstance(g, DivergenceError) and g.k == wnt[0]
            assert _same_bits(as_array(g.errors), wnt[1])
        else:
            assert isinstance(g, RunTrace) and np.array_equal(g.k, np.arange(len(wnt)))
            assert _same_bits(g.error_matrix(), wnt)


@settings(max_examples=120, deadline=None)
@given(kind=hst.sampled_from(["quadratic", "logistic", "wide"]), c=hst.sampled_from([1, 2, 5]),
       n_g=hst.sampled_from([1, 2]), cells=hst.lists(_ROW_CELLS, min_size=5, max_size=5))
def test_a_traced_stack_takes_the_rows_of_one_row_per_iteration(kind, c, n_g, cells):
    # a traced part takes its rows in blocks and rewinds to the first row
    # where a column leaves: its budget, a stop_tol met inside a block, or
    # a step size that diverges inside one.  Every row, outcome and
    # divergence step is the per-iteration loop's, bit for bit, and the
    # iterations stepped are the blocks' own, dropped ones included
    suite, w, _ = _stack_suite(kind)
    cells = cells[:1 if kind == "wide" else c]
    x_star_norm = float(np.linalg.norm(suite.x_star))
    strategies, cfgs = {}, []
    for method, n_c, t, rel_tol, budget in cells:
        if (method, n_c) not in strategies:
            strategies[method, n_c] = gt.strategy_for(method, w, n_c)
        cfgs.append(GtaConfig(strategy=strategies[method, n_c], alpha=2.0 ** -t / (n_g * suite.L),
                              n_g=n_g, max_outer_iters=budget,
                              stop_tol=None if rel_tol is None else rel_tol * x_star_norm))
    x0 = np.zeros(suite.n * suite.d)
    assert _part_columns(suite, cfgs) == [list(range(len(cfgs)))]
    want, left, opt = _row_loop(suite, cfgs, x0)
    patch, calls = _counting("advance")
    with patch:
        got = _stacked(suite, cfgs, x0)
    _assert_row_loop_outcomes(got, want)
    assert calls["advance"] == _block_advances(suite, cfgs, left, opt)


def test_a_stop_tol_solve_steps_exactly_its_iterations_on_every_repeat():
    # a solve that leaves at its stop_tol past its first 32-row block: each
    # later block ends where the last one's decay reaches the stop_tol, so
    # no block passes the leaving row and no stepped iteration is dropped,
    # in every repeat
    suite, w, _ = _stack_suite("quadratic")
    cfg = GtaConfig(strategy=gt.strategy_for("GTA3", w, 2), alpha=0.5 / suite.L,
                    max_outer_iters=10_000, stop_tol=1e-9 * float(np.linalg.norm(suite.x_star)))
    x0 = np.zeros(suite.n * suite.d)
    counts = []
    for _ in range(3):
        patch, calls = _counting("advance")
        with patch:
            k = int(run(suite, cfg, x0).k[-1])
        counts.append(calls["advance"])
    assert k > 64
    assert counts == [k] * 3


def _assert_blocks_keep_the_rows(suite, cfgs):
    """Run cfgs, the cells of one part, as a traced stack three times: every
    row, outcome and divergence step is the per-iteration loop's, bit for
    bit, and every repeat makes the blocks' `advance` calls and the same
    `error_rows` calls, at most 3 per column over the ceil((k + 1) / 32)
    of 32-row blocks up to the last leave.  Returns the k at which each
    column left and its opt_err rows."""
    x0 = np.zeros(suite.n * suite.d)
    assert _part_columns(suite, cfgs) == [list(range(len(cfgs)))]
    want, left, opt = _row_loop(suite, cfgs, x0)
    counts = []
    for _ in range(3):
        patch, calls = _counting("advance", "error_rows")
        with patch:
            got = _stacked(suite, cfgs, x0)
        _assert_row_loop_outcomes(got, want)
        counts.append(calls)
    assert counts == [counts[0]] * 3
    assert counts[0]["advance"] == _block_advances(suite, cfgs, left, opt)
    assert counts[0]["error_rows"] <= -(-(max(left) + 1) // 32) + 3 * len(cfgs)
    return left, opt


def test_a_solve_that_stalls_above_its_stop_tol_keeps_its_rows():
    # GTA3 at 1.25/L reaches its rounding floor, a fixed point, from about
    # k = 825 on; at a stop_tol just below the floor the blocks first
    # shorten towards it, then their decay flattens to none and they keep
    # the full 32 rows to the budget (65 error_rows calls, 32-row blocks 63)
    suite, w, _ = _stack_suite("quadratic")
    strategy = gt.strategy_for("GTA3", w, 1)
    floor = run(suite, GtaConfig(strategy=strategy, alpha=1.25 / suite.L, max_outer_iters=2000),
                np.zeros(suite.n * suite.d)).opt_err.min()
    cfg = GtaConfig(strategy=strategy, alpha=1.25 / suite.L, max_outer_iters=2000,
                    stop_tol=0.99 * floor)
    left, _ = _assert_blocks_keep_the_rows(suite, [cfg])
    assert left == [2000]


def test_errors_an_ulp_apart_that_share_a_log_predict_no_decay():
    # near 1e-9 the ulp of log(x) is about 16 times x's relative ulp, so an
    # error one ulp below the block's first shares its log: no decay, the cap
    x = 1e-9
    first = x * (1 + 2.0 ** -52)
    assert first > x and math.log(first) == math.log(x)
    opt_err = np.array([[first, 1.0], [x, 1.0]])
    assert gt.tracking._predicted_length(opt_err, np.array([x / 2, -math.inf]), 32) == 32


def test_a_solve_whose_errors_fall_by_ulps_keeps_its_rows():
    # at 2^-53 / L opt_err falls about one ulp per 32-row block, and in the
    # fifth (rows 128 to 159) less than the ulp of its log: every block
    # keeps the cap to the budget
    suite, w, _ = _stack_suite("quadratic")
    x_star_norm = float(np.linalg.norm(suite.x_star))
    cfg = GtaConfig(strategy=gt.strategy_for("GTA3", w, 1), alpha=2.0 ** -53 / suite.L,
                    max_outer_iters=200, stop_tol=0.5 * x_star_norm)
    left, opt = _assert_blocks_keep_the_rows(suite, [cfg])
    assert left == [200] and opt[0][159] < opt[0][128]
    assert math.log(opt[0][159]) == math.log(opt[0][128])


@pytest.mark.parametrize("n_g, step", [(1, 2.15), (2, 2.2)])
def test_a_solve_whose_errors_oscillate_keeps_its_rows(n_g, step):
    # GTA3 near the stability edge (2.25/L diverges at n_g = 1 and 2):
    # opt_err rises on more than a sixth of its iterations, so a
    # block's decay from its first row to its last misjudges the next
    # block's, and a block can end past the leaving row
    suite, w, _ = _stack_suite("quadratic")
    cfg = GtaConfig(strategy=gt.strategy_for("GTA3", w, 1), alpha=step / suite.L, n_g=n_g,
                    max_outer_iters=3000, stop_tol=1e-9 * float(np.linalg.norm(suite.x_star)))
    left, opt = _assert_blocks_keep_the_rows(suite, [cfg])
    assert left[0] < 3000 and np.count_nonzero(np.diff(opt[0]) > 0) > left[0] / 6


def test_stop_tol_columns_that_leave_at_different_rows_keep_their_rows():
    # five columns of one part with their own step sizes and stop_tols:
    # each leave starts a segment whose first block holds 32 rows again
    suite, w, _ = _stack_suite("quadratic")
    strategy = gt.strategy_for("GTA3", w, 1)
    x_star_norm = float(np.linalg.norm(suite.x_star))
    cfgs = [GtaConfig(strategy=strategy, alpha=a / suite.L, max_outer_iters=2000,
                      stop_tol=rel_tol * x_star_norm)
            for a, rel_tol in ((0.5, 1e-3), (0.5, 1e-6), (0.25, 1e-6), (0.5, 1e-9), (1.0, 1e-12))]
    left, _ = _assert_blocks_keep_the_rows(suite, cfgs)
    assert len(set(left)) == 5 and max(left) < 2000


_THREADS_SCRIPT = """
import numpy as np
import gradtrack as gt
suite = gt.generate_quadratic(gt.QuadraticSpec(n=1024, d=10, kappa_target=100.0, seed=3))
w = gt.metropolis_weights(gt.build_graph("torus", 1024))
cfg = gt.GtaConfig(strategy=gt.strategy_for("GTA3", w, 1), alpha=0.5 / suite.L,
                   max_outer_iters=30)
trace = gt.run(suite, cfg, np.zeros(suite.n * suite.d))
print(" ".join(v.hex() for v in trace.error_matrix().ravel().tolist()))
"""


def test_a_wide_runs_rows_do_not_depend_on_the_blas_thread_count():
    # a 32 x 32 torus at d = 10 holds n*d = 10240 entries per column, past
    # the size from which OpenBLAS splits a dot product across threads; the
    # rows' norms take no BLAS call, so one and two threads give the same
    # bits.  Each thread count needs its own process: OpenBLAS reads it at
    # import
    src = str(Path(gt.__file__).resolve().parent.parent)
    rows = [subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True,
                           text=True, timeout=60, check=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": str(threads)}).stdout
            for threads in (1, 2)]
    assert len(rows[0].split()) == 3 * 31
    assert rows[0] == rows[1]


# (method, n_c, step 2^-t / (n_g L), stop_tol as a fraction of ||x*||,
# budget): step sizes inside the stable range and past it, so that columns
# diverge mid-run; a budget of None is cut to the first k at which a column
# diverges, so that others reach their budget on the row where it dies
_SWEEP_CELLS = hst.tuples(hst.sampled_from(["GTA1", "GTA2", "GTA3"]), hst.sampled_from([1, 2]),
                          hst.integers(-3, 4), hst.sampled_from([None, None, 0.5, 1e-2]),
                          hst.sampled_from([0, 1, 31, 32, 33, None]))


@settings(max_examples=80, deadline=None)
# the small_quadratic fixture's sweep at steps 2^-3 and 2^-4 (as absolute
# steps): 2^-3 diverges at the budget, and 2^-4 ends on that row
@example(kind="small", c=2, n_g=1, cells=[("GTA2", 1, 3, None, 27), ("GTA2", 1, 4, None, 27)])
@given(kind=hst.sampled_from(["quadratic", "logistic"]), c=hst.sampled_from([1, 2, 5]),
       n_g=hst.sampled_from([1, 2]), cells=hst.lists(_SWEEP_CELLS, min_size=5, max_size=5))
def test_an_untraced_outcome_is_the_traced_outcomes_last_row(kind, c, n_g, cells):
    # a stack without trace steps through the traced loop and keeps only
    # the row each column leaves on: the traced outcome's last row, or the
    # same divergence step and errors, bit for bit
    if kind == "small":
        suite = gt.generate_quadratic(gt.QuadraticSpec(n=8, d=4, kappa_target=30.0, seed=2))
        w, scale = gt.metropolis_weights(gt.build_graph("cycle", suite.n)), 1.0
    else:
        suite, w, _ = _stack_suite(kind)
        scale = 1.0 / (n_g * suite.L)
    cells = cells[:c]
    x_star_norm = float(np.linalg.norm(suite.x_star))
    x0 = np.zeros(suite.n * suite.d)
    strategies = {(method, n_c): gt.strategy_for(method, w, n_c) for method, n_c, *_ in cells}

    def cfgs(cut):
        return [GtaConfig(strategy=strategies[method, n_c], alpha=2.0 ** -t * scale, n_g=n_g,
                          max_outer_iters=cut if budget is None else budget,
                          stop_tol=None if rel_tol is None else rel_tol * x_star_norm)
                for method, n_c, t, rel_tol, budget in cells]

    deaths = [g.k for g in _stacked(suite, cfgs(33), x0) if isinstance(g, DivergenceError)]
    stack_cells = cfgs(min(deaths, default=33))
    traced = _stacked(suite, stack_cells, x0)
    untraced = gt.tracking.RunStack(suite, stack_cells, x0, trace=False)
    for j, want in enumerate(traced):
        got = untraced.outcome(j)
        if isinstance(want, DivergenceError):
            assert isinstance(got, DivergenceError) and got.k == want.k
            assert _same_bits(as_array(got.errors), as_array(want.errors))
        else:
            assert isinstance(got, ErrorVector)
            assert _same_bits(as_array(got), want.error_matrix()[-1])
