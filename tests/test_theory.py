import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradtrack as gt
from gradtrack import theory
from gradtrack.theory import (GridPoint, SpectralParams, fully_connected_rate,
                              inner_loop_error_matrix, inner_loop_error_terms,
                              monotonicity_report, params_for_method,
                              params_from_strategy, rate_upper_bound,
                              rate_upper_bound_for_method, recursion_matrix,
                              recursion_matrix_for_method, spectral_radius,
                              step_size_bound, step_size_bound_for_method,
                              step_size_bound_multi)


def _draw_params(rng, n_g=1, beta_lo=0.01, beta_hi=0.999):
    betas = rng.uniform(beta_lo, beta_hi, size=4)
    L = rng.uniform(0.1, 10.0)
    mu = L * rng.uniform(1e-4, 1.0)
    alpha = rng.uniform(1e-6, 1.0) / (L * n_g)
    return SpectralParams(*betas, n_c=int(rng.integers(1, 6)), n_g=n_g,
                          alpha=alpha, L=L, mu=mu, n=int(rng.integers(1, 33)))


# ------------------------------------------------------- recursion matrices

@pytest.mark.parametrize("change", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": -0.1}, {"alpha": 0.0},
    {"n_c": 1.5}, {"n_g": 2.0}, {"n": 4.5}, {"n_c": 0}, {"n": 0},
    {"L": math.inf}, {"L": math.nan},
], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
def test_spectral_params_reject_a_non_finite_step_and_non_integer_counts(change):
    # a NaN step would make rate_upper_bound return nan, and an infinite L
    # would make both step-size bounds read 0, as if no step contracted
    good = dict(n_c=1, n_g=1, alpha=0.5, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match=next(iter(change))):
        SpectralParams(0.5, 0.5, 0.5, 0.5, **{**good, **change})


def test_single_step_matrix_hand_example():
    # mu = 1, L = 1, alpha = 0.1, n = 4, GTA-1 slots with beta^nc = 0.5
    p = params_for_method("GTA1", 0.5, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=1.0, n=4)
    m = recursion_matrix(p)
    expected = np.array([[0.9, 0.05, 0.0],
                         [0.0, 0.5, 0.1],
                         [0.2, 2.1, 0.6]])
    assert np.max(np.abs(m - expected)) <= 1e-15


def test_gta3_with_exact_averaging_zeroes_consensus_rows():
    p = params_for_method("GTA3", 0.0, n_c=3, n_g=1, alpha=0.1, L=1.0, mu=0.5, n=4)
    m = recursion_matrix(p)
    assert np.array_equal(m[1], [0.0, 0.0, 0.0])
    assert np.array_equal(m[2], [0.0, 0.0, 0.0])


def test_tracker_coupling_entry_differs_between_gta1_and_gta2():
    # the (2,3) entry carries beta^nc for GTA-2 but not for GTA-1
    p1 = params_for_method("GTA1", 0.6, n_c=2, n_g=1, alpha=0.05, L=1.0, mu=0.5, n=4)
    p2 = params_for_method("GTA2", 0.6, n_c=2, n_g=1, alpha=0.05, L=1.0, mu=0.5, n=4)
    assert recursion_matrix(p1)[1, 2] == pytest.approx(0.05)
    assert recursion_matrix(p2)[1, 2] == pytest.approx(0.05 * 0.6**2)


def test_specialized_matrix_numeric_example():
    # independent entry-by-entry arithmetic at
    # (mu=1, L=2, alpha=0.25, n=16, beta=0.9, n_c=2)
    p = SpectralParams(0.9, 0.9, 0.9, 0.9, n_c=2, n_g=1, alpha=0.25, L=2.0, mu=1.0, n=16)
    b = 0.9**2
    expected = np.array([
        [0.75, 0.25 * 2 / 4, 0.0],
        [0.0, b, 0.25 * b],
        [4 * 0.25 * b * 4, b * 2 * (2 + 0.5), b + 0.25 * b * 2],
    ])
    m = recursion_matrix_for_method("GTA2", 0.9, p)
    # GTA-2 keeps beta4 = 1, so rebuild the expectation for its slots
    expected[2] = [4 * 0.25 * 4, 2 * (2 + 0.5), b + 0.5]
    assert np.max(np.abs(m - expected)) <= 1e-14


def test_gta2_at_zero_beta_reduces_to_the_fully_connected_system():
    # the x-consensus row vanishes and deleting it leaves exactly the
    # reduced 2x2 recursion of the exact-averaging analysis at n_g = 1
    p = params_for_method("GTA2", 0.0, n_c=1, n_g=1, alpha=0.05, L=2.0, mu=0.5, n=9)
    m = recursion_matrix_for_method("GTA2", 0.0, p)
    assert np.array_equal(m[1], [0.0, 0.0, 0.0])
    reduced = m[np.ix_([0, 2], [0, 2])]
    expected = np.array([[1 - 0.05 * 0.5, 0.0],
                         [3 * 0.05 * 4, 0.05 * 2]])
    assert np.max(np.abs(reduced - expected)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=0.999),
       alpha_frac=st.floats(min_value=1e-6, max_value=1.0),
       kappa=st.floats(min_value=1.0, max_value=1e4))
def test_entrywise_dominance_of_method_matrices(beta, alpha_frac, kappa):
    L = 2.0
    mu = L / kappa
    p = SpectralParams(beta, beta, beta, beta, n_c=1, n_g=1,
                       alpha=alpha_frac / L, L=L, mu=mu, n=9)
    a1 = recursion_matrix_for_method("GTA1", beta, p)
    a2 = recursion_matrix_for_method("GTA2", beta, p)
    a3 = recursion_matrix_for_method("GTA3", beta, p)
    assert np.all(a1 >= a2 - 1e-15)
    assert np.all(a2 >= a3 - 1e-15)
    assert np.all(a3 >= 0)


def test_multi_step_matrix_equals_single_step_exactly_at_ng_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = _draw_params(rng, n_g=1)
        a, L, rn = p.alpha, p.L, math.sqrt(p.n)
        single = np.array([
            [1.0 - a * p.mu, a * L / rn, 0.0],
            [0.0, p.b1c, a * p.b2c],
            [rn * a * p.b4c * L * L, p.b4c * L * (p.z1_dev + a * L), p.b3c + a * p.b4c * L],
        ])
        assert np.array_equal(recursion_matrix(p), single)


def test_multi_step_matrix_numeric_example():
    # GTA-2 at (mu=1, L=2, alpha=1/8, n_g=4, n=16, beta=0.9, n_c=1):
    # independently transcribed closed forms for the method slots
    beta, L, mu, a, g, n = 0.9, 2.0, 1.0, 1.0 / 8.0, 4, 16
    p = params_for_method("GTA2", beta, n_c=1, n_g=g, alpha=a, L=L, mu=mu, n=n)
    contraction = (1 - a * mu) ** g
    kappa = L / mu
    core = np.array([
        [contraction, kappa / 4 * (1 - contraction), 0.0],
        [0.0, beta, a * beta * g],
        [4 * a * L**2, L * (2 + a * L), beta + a * L],
    ])
    d1 = g * beta
    d2 = 2 * (2 + 1 / g + beta)
    e = np.array([
        [a * L * g, a * L * g / 4, a * g / 4],
        [4 * a * L * d1, a * L * d1, a * d1],
        [4 * L * d2, L * d2, d2],
    ])
    expected = core + a * L * (g - 1) * e
    assert np.max(np.abs(recursion_matrix(p) - expected)) <= 1e-13


@pytest.mark.parametrize("method,d1_fn,d2_fn", [
    ("GTA1", lambda b, g: 2 + b * (g - 2), lambda b, g: 2 * (2 + 1 / g + b)),
    ("GTA2", lambda b, g: g * b, lambda b, g: 2 * (2 + 1 / g + b)),
    ("GTA3", lambda b, g: g * b, lambda b, g: 2 * b * (3 + 1 / g)),
])
def test_inner_loop_error_terms_per_method(method, d1_fn, d2_fn):
    for beta in (0.3, 0.9):
        for g in (2, 5, 20):
            p = params_for_method(method, beta, n_c=1, n_g=g, alpha=1e-3,
                                  L=1.0, mu=0.5, n=4)
            d1, d2 = inner_loop_error_terms(p)
            assert d1 == pytest.approx(d1_fn(beta, g), rel=1e-14)
            assert d2 == pytest.approx(d2_fn(beta, g), rel=1e-14)


def test_inner_loop_error_matrix_is_nonnegative_for_multi_step():
    p = params_for_method("GTA1", 0.7, n_c=2, n_g=3, alpha=1e-3, L=1.0, mu=0.5, n=4)
    assert np.all(inner_loop_error_matrix(p) >= 0)


def test_recursion_matrix_rejects_large_alpha():
    p = SpectralParams(0.5, 0.5, 0.5, 0.5, n_c=1, n_g=1, alpha=1.5, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match="exceeds 1/L"):
        recursion_matrix(p)
    p2 = SpectralParams(0.5, 0.5, 0.5, 0.5, n_c=1, n_g=3, alpha=0.5, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match="exceeds"):
        recursion_matrix(p2)


# ----------------------------------------------------------- spectral radius

def test_radius_of_diagonal_matrix():
    assert spectral_radius(np.diag([0.9, 0.5, 0.6])) == pytest.approx(0.9, abs=1e-12)


def test_radius_of_permutation_like_matrix():
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_radius_of_hand_example_matches_root_oracle():
    p = params_for_method("GTA1", 0.5, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=1.0, n=4)
    m = recursion_matrix(p)
    rho = spectral_radius(m)
    oracle = max(abs(np.roots(np.poly(m))))
    assert rho == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_radius_matches_eigvals_oracle_on_random_nonneg(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 2.0, size=(3, 3))
    rho = spectral_radius(m)
    oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert rho == pytest.approx(oracle, abs=1e-9 * (1 + oracle))
    # a stack's radii, from one eigensolve, have each matrix's own bits
    stack = np.concatenate([m[None], rng.uniform(0.0, 2.0, size=(5, 3, 3))])
    assert spectral_radius(stack).tolist() == [spectral_radius(a) for a in stack]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_radius_monotone_under_entrywise_decrease(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 2.0, size=(3, 3))
    shrink = m * rng.uniform(0.0, 1.0, size=(3, 3))
    assert spectral_radius(shrink) <= spectral_radius(m) + 1e-10


@pytest.mark.parametrize("method", ["GTA1", "GTA2", "GTA3"])
@pytest.mark.parametrize("n_c", [1, 10])
def test_radius_near_one_is_cross_checked_without_warning(method, n_c):
    # a 1024-node torus (beta ~ 0.992, L ~ 103, mu ~ 1) at the theory report's
    # ordering-check step: rho is within 1e-6 of 1, where power iteration
    # stops on its step test far from the root and used to warn spuriously
    beta, L, mu = 0.9923141121612926, 102.71963529971356, 1.0
    a_chk = 0.9 * min(step_size_bound(params_for_method(m, beta, n_c=n_c, n_g=1, alpha=1.0,
                                                        L=L, mu=mu, n=1024))
                      for m in ("GTA1", "GTA2", "GTA3"))
    m = recursion_matrix(params_for_method(method, beta, n_c=n_c, n_g=1, alpha=a_chk,
                                           L=L, mu=mu, n=1024))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = spectral_radius(m)
    assert rho == max(abs(np.linalg.eigvals(m)))


def test_radius_near_one_is_exact():
    # the eigenvalues of a triangular matrix are its diagonal; a cubic
    # characteristic-polynomial solve lost ~1e-10 here
    m = np.array([[1 - 1e-9, 0.7, 0.2], [0.0, 1 - 2e-9, 0.4], [0.0, 0.0, 0.3]])
    assert spectral_radius(m) == pytest.approx(1 - 1e-9, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("size", [3, 5])
def test_radius_of_non_finite_matrix_is_an_arithmetic_error(bad, size):
    m = np.eye(size)
    m[0, -1] = bad
    with pytest.raises(ArithmeticError):
        spectral_radius(m)


def test_radius_input_validation():
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))


def is_irreducible(m: np.ndarray) -> bool:
    """Structural irreducibility: the nonzero pattern, read as a directed
    graph, is strongly connected."""
    k = m.shape[0]
    reach = ((m != 0) | np.eye(k, dtype=bool)).astype(int)
    for _ in range(k):
        reach = ((reach @ reach) > 0).astype(int)
    return bool(np.all(reach > 0))


def test_irreducibility_detection():
    assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_irreducible(np.diag([1.0, 2.0]))
    p = params_for_method("GTA3", 0.0, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=0.5, n=4)
    assert not is_irreducible(recursion_matrix(p))
    p2 = params_for_method("GTA3", 0.5, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=0.5, n=4)
    assert is_irreducible(recursion_matrix(p2))


# ----------------------------------------------------------- step-size bounds

def test_general_bound_example_against_direct_transcription():
    # (L=1, mu=0.1, all betas 0.5, n_c=1): evaluate the printed three-branch
    # minimum directly, with the raw sqrt form
    p = SpectralParams(0.5, 0.5, 0.5, 0.5, n_c=1, n_g=1, alpha=1e-6, L=1.0, mu=0.1, n=4)
    k = 10.0
    t = 1 - 0.5 + 2 * 0.5
    rad = math.sqrt(1 + 4 * (1 - 0.5) * (1 - 0.5) * 0.5 * (k + 1) / (0.5 * t * t))
    direct = min(1.0, (1 - 0.5) / 0.5,
                 t / (2 * 0.5 * k * (1.0 + 0.1)) * (rad - 1))
    got = step_size_bound(p)
    assert got == pytest.approx(direct, rel=1e-12)
    assert 0 < got < 1.0


def test_general_bound_smooth_as_beta2_vanishes():
    base = dict(n_c=1, n_g=1, alpha=1e-9, L=1.0, mu=0.1, n=4)
    tiny = step_size_bound(SpectralParams(0.5, 1e-12, 0.5, 0.5, **base))
    zero = step_size_bound(SpectralParams(0.5, 0.0, 0.5, 0.5, **base))
    assert tiny == pytest.approx(zero, rel=1e-9)
    # series limit: (1 - b3)(kappa + 1)/(kappa (L + mu) b4), capped by 1/L
    series = min(1.0, (1 - 0.5) / (1.0 * 0.5),
                 (1 - 0.5) * 11.0 / (10.0 * 1.1 * 0.5))
    assert zero == pytest.approx(series, rel=1e-12)


def test_general_bound_disconected_slots_return_zero_with_diagnostic():
    p = SpectralParams(1.0, 0.5, 0.5, 0.5, n_c=1, n_g=1, alpha=1e-9, L=1.0, mu=0.1, n=4)
    with pytest.warns(UserWarning, match="must be < 1"):
        assert step_size_bound(p) == 0.0


def test_general_bound_with_identity_free_slots_is_capped_by_smoothness():
    # beta2 = beta4 = 0 removes every branch except 1/L
    p = SpectralParams(0.5, 0.0, 0.5, 0.0, n_c=1, n_g=1, alpha=1e-9, L=2.0, mu=0.1, n=4)
    assert step_size_bound(p) == pytest.approx(0.5)


def test_method_bounds_match_general_bound_with_substituted_slots():
    rng = np.random.default_rng(1)
    for _ in range(100):
        beta = rng.uniform(0.01, 0.99)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        n_c = int(rng.integers(1, 6))
        for method in ("GTA1", "GTA2", "GTA3"):
            p = params_for_method(method, beta, n_c=n_c, n_g=1, alpha=1e-9,
                                  L=L, mu=mu, n=8)
            a = step_size_bound_for_method(method, beta, p)
            b = step_size_bound(p)
            assert a == pytest.approx(b, rel=1e-12)


def test_method_bound_ordering_and_nc_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        beta = rng.uniform(0.01, 0.99)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        mk = lambda m, nc: params_for_method(m, beta, n_c=nc, n_g=1, alpha=1e-9,
                                             L=L, mu=mu, n=8)
        b1 = step_size_bound_for_method("GTA1", beta, mk("GTA1", 1))
        b2 = step_size_bound_for_method("GTA2", beta, mk("GTA2", 1))
        b3 = step_size_bound_for_method("GTA3", beta, mk("GTA3", 1))
        assert b3 >= b2 * (1 - 1e-12)
        assert b2 >= b1 * (1 - 1e-12)
        for method in ("GTA1", "GTA2", "GTA3"):
            prev = 0.0
            for nc in (1, 2, 5, 10):
                v = step_size_bound_for_method(method, beta, mk(method, nc))
                assert v >= prev * (1 - 1e-12)
                prev = v


def test_gta3_bound_approaches_smoothness_limit_for_tiny_beta():
    p = params_for_method("GTA3", 1e-9, n_c=1, n_g=1, alpha=1e-12, L=2.0, mu=0.2, n=8)
    assert step_size_bound_for_method("GTA3", 1e-9, p) == pytest.approx(0.5, rel=1e-6)


def test_method_bound_rejects_exact_averaging():
    p = params_for_method("GTA2", 0.0, n_c=1, n_g=1, alpha=1e-3, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match="fully connected"):
        step_size_bound_for_method("GTA2", 0.0, p)


def test_multi_bound_positive_at_reference_point():
    p = params_for_method("GTA2", 0.5, n_c=1, n_g=3, alpha=1e-9, L=1.0, mu=0.1, n=8)
    b = step_size_bound_multi(p)
    assert 0 < b <= 1 / 3


def test_multi_bound_scale_matches_single_step_at_ng_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = _draw_params(rng, n_g=1, beta_lo=0.05, beta_hi=0.95)
        multi = step_size_bound_multi(p)
        single = step_size_bound(p)
        assert 0 < multi <= single * (1 + 1e-12)
        assert abs(math.log10(multi / single)) <= 2.0


def test_multi_bound_inverse_ng_scaling():
    # doubling n_g (for n_g >= 2) shrinks the bound by at most ~half;
    # c = 0.2 frozen from an oracle sweep whose observed minimum was 0.246
    rng = np.random.default_rng(4)
    for _ in range(100):
        betas = rng.uniform(0.05, 0.95, size=4)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        nc = int(rng.integers(1, 6))
        for ng in (2, 4, 8, 16):
            p = SpectralParams(*betas, n_c=nc, n_g=ng, alpha=1e-12, L=L, mu=mu, n=8)
            p2 = SpectralParams(*betas, n_c=nc, n_g=2 * ng, alpha=1e-12, L=L, mu=mu, n=8)
            b, b2 = step_size_bound_multi(p), step_size_bound_multi(p2)
            assert b2 >= 0.2 * b / 2
            assert b2 <= b


def test_bounds_certify_contraction_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(150):
        betas = np.array([rng.uniform(0.01, 0.95), rng.uniform(0.05, 1.0),
                          rng.uniform(0.01, 0.95), rng.uniform(0.05, 1.0)])
        L = rng.uniform(0.1, 5.0)
        mu = L * rng.uniform(1e-3, 1.0)
        probe = SpectralParams(*betas, n_c=int(rng.integers(1, 4)), n_g=1,
                               alpha=1e-12, L=L, mu=mu, n=8)
        bound = step_size_bound(probe)
        p = SpectralParams(*betas, n_c=probe.n_c, n_g=1, alpha=0.99 * bound,
                           L=L, mu=mu, n=8)
        assert spectral_radius(recursion_matrix(p)) < 1.0
    for _ in range(150):
        betas = rng.uniform(0.05, 0.95, size=4)
        L = rng.uniform(0.1, 5.0)
        mu = L * rng.uniform(1e-3, 1.0)
        ng = int(rng.choice([2, 5]))
        probe = SpectralParams(*betas, n_c=int(rng.integers(1, 4)), n_g=ng,
                               alpha=1e-12, L=L, mu=mu, n=8)
        bound = step_size_bound_multi(probe)
        p = SpectralParams(*betas, n_c=probe.n_c, n_g=ng, alpha=0.99 * bound,
                           L=L, mu=mu, n=8)
        assert spectral_radius(recursion_matrix(p)) < 1.0


# ---------------------------------------------------------------- rate bound

def test_rate_bound_degenerates_to_gradient_descent_term():
    p = SpectralParams(0.0, 0.0, 0.0, 0.5, n_c=1, n_g=1, alpha=1e-3, L=1.0, mu=0.5, n=4)
    # with beta1 = beta3 = 0 and beta2 = 0 the radical contributions vanish
    assert rate_upper_bound(p) == pytest.approx(max(1 - 1e-3 * 0.25, 1e-3 * 0.5))


def test_rate_bound_dominates_radius_on_random_draws():
    rng = np.random.default_rng(6)
    for _ in range(300):
        p = _draw_params(rng)
        rho = spectral_radius(recursion_matrix(p))
        assert rho <= rate_upper_bound(p) + 1e-10


def test_rate_bound_lower_bound_sanity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = _draw_params(rng)
        floor = (p.b1c + p.b3c + abs(p.b1c - p.b3c)) / 2.0
        assert rate_upper_bound(p) >= floor - 1e-12


def test_method_rate_bounds_match_direct_transcription():
    rng = np.random.default_rng(8)
    for _ in range(100):
        beta = rng.uniform(0.0, 0.999)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        alpha = rng.uniform(1e-6, 1.0) / L
        n_c = int(rng.integers(1, 6))
        kappa = L / mu
        b = beta**n_c
        s = math.sqrt(alpha * L)
        gd = 1 - alpha * mu / 2
        expected = {
            "GTA1": max(gd, b + s * (2.5 + math.sqrt(2 * kappa))),
            "GTA2": max(gd, b + s * (2.5 + math.sqrt(2 * kappa * b))),
            "GTA3": max(gd, b * (1 + s * (2.5 + math.sqrt(2 * kappa)))),
        }
        for method, want in expected.items():
            p = params_for_method(method, beta, n_c=n_c, n_g=1, alpha=alpha,
                                  L=L, mu=mu, n=16)
            got = rate_upper_bound_for_method(method, beta, p)
            assert got == pytest.approx(want, rel=1e-12)
            assert got >= rate_upper_bound(p) - 1e-12


# ------------------------------------------------------------ fully connected

def test_fully_connected_single_computation_is_gradient_descent():
    for method in ("GTA2", "GTA3"):
        p = params_for_method(method, 0.0, n_c=1, n_g=1, alpha=0.2, L=2.0, mu=0.5, n=8)
        assert fully_connected_rate(method, p) == pytest.approx(1 - 0.2 * 0.5)


def test_fully_connected_multi_computation_contracts():
    p = params_for_method("GTA3", 0.0, n_c=1, n_g=2, alpha=0.01, L=2.0, mu=0.5, n=8)
    factor = fully_connected_rate("GTA3", p)
    assert factor == pytest.approx((1 - 0.005) ** 2 + 1e-4 * 4 * 2, rel=1e-14)
    assert factor < 1.0


def test_fully_connected_gta2_two_by_two_entries():
    p = params_for_method("GTA2", 0.0, n_c=1, n_g=2, alpha=0.01, L=2.0, mu=0.5, n=8)
    m = fully_connected_rate("GTA2", p)
    dt = 1 + 2 * (2 - 1) * (2 + 0.5)
    expected = np.array([
        [(1 - 0.005) ** 2 + 1e-4 * 4 * 2, 1e-4 * 2 * 2 / math.sqrt(8)],
        [math.sqrt(8) * 0.01 * 4 * dt, 0.01 * 2 * dt],
    ])
    assert np.max(np.abs(m - expected)) <= 1e-15


def test_fully_connected_rejects_gta1_and_nonzero_beta():
    p = params_for_method("GTA3", 0.0, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match="GTA1"):
        fully_connected_rate("GTA1", p)
    p2 = params_for_method("GTA3", 0.3, n_c=1, n_g=1, alpha=0.1, L=1.0, mu=0.5, n=4)
    with pytest.raises(ValueError, match="requires beta"):
        fully_connected_rate("GTA3", p2)


def test_fully_connected_accepts_betas_within_exact_averaging_tolerance():
    # beta^n_c = 1e-15 is below EXACT_AVERAGING_TOL; 1e-3 at n_c = 1 is not
    p = params_for_method("GTA3", 1e-3, n_c=5, n_g=1, alpha=0.2, L=2.0, mu=0.5, n=8)
    assert fully_connected_rate("GTA3", p) == pytest.approx(1 - 0.2 * 0.5)
    p1 = params_for_method("GTA3", 1e-3, n_c=1, n_g=1, alpha=0.2, L=2.0, mu=0.5, n=8)
    with pytest.raises(ValueError, match="requires beta"):
        fully_connected_rate("GTA3", p1)


def test_fully_connected_enforces_step_limit():
    p = params_for_method("GTA3", 0.0, n_c=1, n_g=4, alpha=0.2, L=2.0, mu=0.5, n=8)
    with pytest.raises(ValueError, match="below"):
        fully_connected_rate("GTA3", p)


# -------------------------------------------------------------- monotonicity

def test_single_point_radius_nonincreasing_in_nc():
    rep = monotonicity_report([GridPoint(beta=0.8, alpha=1e-3, L=1.0, mu=0.1, n=8)],
                              nc_values=(1, 2))
    assert rep.ok
    r1 = [r for r in rep.rows if r[1] == "GTA1"]
    assert r1[0][3] >= r1[1][3] - 1e-12


def test_orderings_collapse_at_zero_beta():
    rep = monotonicity_report([GridPoint(beta=0.0, alpha=1e-2, L=1.0, mu=0.5, n=4)],
                              nc_values=(1, 2))
    assert rep.ok


def test_random_grid_has_no_violations():
    rng = np.random.default_rng(9)
    pts = []
    for _ in range(30):
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        ng = int(rng.choice([1, 2, 5]))
        pts.append(GridPoint(beta=rng.uniform(0.0, 0.999),
                             alpha=rng.uniform(0.01, 0.99) / (L * ng),
                             L=L, mu=mu, n=int(rng.integers(2, 33)), n_g=ng))
    rep = monotonicity_report(pts, nc_values=(1, 2, 5))
    assert rep.ok, str(rep)
    assert len(rep.rows) == 30 * 3 * 3


def test_report_rows_and_str():
    rep = monotonicity_report([GridPoint(beta=0.5, alpha=1e-2, L=1.0, mu=0.2, n=4)],
                              nc_values=(1, 2))
    assert len(rep.rows) == 6
    assert "0 violation" in str(rep)


# ------------------------------------------------------------- cross-module

def test_measured_recursion_certified_by_theory_matrix(small_quadratic, cycle8_mixing):
    rng = np.random.default_rng(10)
    s = small_quadratic
    for method, n_c, n_g in [("GTA1", 1, 1), ("GTA3", 2, 1), ("GTA2", 1, 3)]:
        strat = gt.strategy_for(method, cycle8_mixing, n_c)
        probe = params_from_strategy(strat, alpha=1e-12, L=s.L, mu=s.mu, n_g=n_g)
        bound = step_size_bound(probe) if n_g == 1 else step_size_bound_multi(probe)
        alpha = 0.9 * bound
        p = params_from_strategy(strat, alpha=alpha, L=s.L, mu=s.mu, n_g=n_g)
        b = recursion_matrix(p)
        trace = gt.run(s, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=n_g,
                                       max_outer_iters=200),
                       rng.normal(size=s.n * s.d))
        r = trace.error_matrix()
        assert np.all(r[1:] <= r[:-1] @ b.T + 1e-9)


def test_the_readme_library_example_prints_a_contracting_radius(capsys):
    # README's "Library example" block runs as printed and prints the final
    # error and a finite rho below 1
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    rho = float(capsys.readouterr().out.split()[-1])
    assert math.isfinite(rho) and rho < 1.0


def test_exact_deviation_mode_tightens_the_matrix(cycle8_mixing):
    strat = gt.strategy_for("GTA1", cycle8_mixing, 2)
    loose = params_from_strategy(strat, alpha=1e-3, L=1.0, mu=0.1, z1_mode="bound")
    tight = params_from_strategy(strat, alpha=1e-3, L=1.0, mu=0.1, z1_mode="exact")
    assert tight.z1_dev <= loose.z1_dev == 2.0
    assert np.all(recursion_matrix(tight) <= recursion_matrix(loose) + 1e-15)


@pytest.mark.parametrize("graph", [gt.build_graph("cycle", 9), gt.build_graph("star", 7),
                                   gt.build_graph("torus", 16), gt.build_graph("torus", 324)],
                         ids=["cycle9", "star7", "torus16", "torus324"])
def test_exact_deviation_takes_powers_of_one_eigensolve(graph):
    # the eigenvalues of W^nc are those of W raised to nc: one eigensolve
    # per matrix, and no power of W
    w = gt.metropolis_weights(graph)
    w_dense = w.w
    for n_c in range(1, 13):
        strat = gt.strategy_for("GTA1", w, n_c)
        eigs = np.linalg.eigvalsh(np.linalg.matrix_power(w_dense, n_c))
        want = np.max(np.abs(1.0 - eigs))
        assert abs(theory.exact_z1_deviation(strat) - want) <= 1e-13
    assert not w._powers


# ------------------------------------------- guarantees across the families

# (graph kind, n), n <= 16; a torus needs n = side^2 with side >= 3
_FAMILY_GRAPHS = st.one_of(
    st.tuples(st.sampled_from(["cycle", "star", "complete"]), st.integers(3, 16)),
    st.tuples(st.just("torus"), st.sampled_from([9, 16])))


@settings(max_examples=60, deadline=None)
@given(graph=_FAMILY_GRAPHS, d=st.integers(2, 4), laziness=st.sampled_from([0.0, 0.25]),
       method=st.sampled_from(["GTA1", "GTA2", "GTA3"]), n_c=st.sampled_from([1, 2, 5, 10, 50]),
       n_g=st.sampled_from([1, 2, 5, 20, 100]), log_kappa=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**16), frac=st.floats(0.01, 1.0))
def test_the_recursion_contracts_and_certifies_runs_across_the_papers_families(
        graph, d, laziness, method, n_c, n_g, log_kappa, seed, frac):
    # the paper's guarantees for every graph, n_c, n_g and kappa: rho(M) < 1
    # at 0.999 x min(step bound, 1/(n_g L)), and below that step size the
    # errors of a run obey r_{k+1} <= M r_k componentwise, up to 1e-9 of
    # the largest initial error (rounding)
    kind, n = graph
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=n, d=d, kappa_target=10.0 ** log_kappa,
                                                   seed=seed))
    strat = gt.strategy_for(method, gt.metropolis_weights(gt.build_graph(kind, n), laziness), n_c)

    def params(alpha):
        return params_from_strategy(strat, alpha=alpha, L=suite.L, mu=suite.mu, n_g=n_g)

    bound = step_size_bound(params(1.0)) if n_g == 1 else step_size_bound_multi(params(1.0))
    top = 0.999 * min(bound, 1.0 / (n_g * suite.L))
    assert spectral_radius(recursion_matrix(params(top))) < 1.0
    alpha = frac * top
    m = recursion_matrix(params(alpha))
    assert np.all(np.isfinite(m)) and np.all(m >= 0)
    x0 = np.random.default_rng(seed).normal(size=n * d)
    r = gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=n_g, max_outer_iters=200),
               x0).error_matrix()
    assert np.all(r[1:] <= r[:-1] @ m.T + 1e-9 * np.max(r[0]))
