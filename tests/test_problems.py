from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradtrack as gt
from gradtrack.problems import (DataFormatError, LogisticSuite, LogRegDataset,
                                QuadraticSpec, QuadraticSuite, _geometric_sum,
                                compute_reference_optimum, generate_quadratic, load_libsvm,
                                logreg_suite)
from gradtrack.tracking import advance

from conftest import central_diff, global_value, kernel_params, local_grad, local_value, node_grad


# --------------------------------------------------------------- quadratics

def test_scalar_quadratic():
    s = QuadraticSuite([[[2.0]]], [[-4.0]])
    assert s.x_star == pytest.approx([2.0])
    assert s.L == 2.0 and s.mu == 2.0


def test_two_node_suite_constants(two_node_suite):
    # oracle: solve 0.5*(Q1+Q2) x = -b_bar directly
    h = 0.5 * (np.diag([1.0, 1.0]) + np.diag([3.0, 1.0]))
    x_oracle = np.linalg.solve(h, [2.0, 0.0])
    assert two_node_suite.x_star == pytest.approx(x_oracle, abs=1e-15)
    assert two_node_suite.x_star == pytest.approx([1.0, 0.0])
    assert two_node_suite.mu == 1.0
    assert two_node_suite.L == 3.0


def test_batched_gradients_match_per_point_evaluation(small_quadratic):
    # quadratic and logistic batch kernels against the per-point path
    rng = np.random.default_rng(12)
    logistic = logreg_suite(load_libsvm("data/synth_binary.libsvm", 4))
    for suite in (small_quadratic, logistic):
        xs = rng.normal(size=(suite.n, suite.d, 6))
        batched = suite.grad_stack_batch(xs)
        for c in range(6):
            single = suite.grad_stack(np.ascontiguousarray(xs[:, :, c]))
            assert np.max(np.abs(batched[:, :, c] - single)) <= 1e-13


def test_quadratic_gradients_are_exact(small_quadratic):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=small_quadratic.d)
        i = int(rng.integers(small_quadratic.n))
        expected = small_quadratic.qs[i] @ x + small_quadratic.bs[i]
        assert np.array_equal(node_grad(small_quadratic, i, x), expected)


def test_generated_suite_hits_kappa_window():
    suite = generate_quadratic(QuadraticSpec(n=16, d=10, kappa_target=1e4, seed=0))
    assert 9e3 <= suite.L / suite.mu <= 1.1e4
    cond = np.linalg.cond(suite.hessian)
    assert abs(cond - 1e4) <= 0.1 * 1e4


def test_generated_suite_is_positive_definite_and_deterministic():
    spec = QuadraticSpec(n=6, d=5, kappa_target=100.0, seed=11)
    a, b = generate_quadratic(spec), generate_quadratic(spec)
    assert np.array_equal(a.qs, b.qs) and np.array_equal(a.bs, b.bs)
    for q in a.qs:
        assert np.linalg.eigvalsh(q)[0] > 0


def _per_node_quadratic(spec):
    """The generator and the suite constants one node at a time: the
    reference for the stacked factorizations and products."""
    rng = np.random.default_rng(spec.seed)
    qs = np.empty((spec.n, spec.d, spec.d))
    for i in range(spec.n):
        u, _ = np.linalg.qr(rng.normal(size=(spec.d, spec.d)))
        lam = np.exp(rng.uniform(0.0, np.log(spec.kappa_target), size=spec.d)) \
            if spec.kappa_target > 1 else np.ones(spec.d)
        q = (u * lam) @ u.T
        qs[i] = 0.5 * (q + q.T)
    bs = rng.normal(size=(spec.n, spec.d))
    if spec.d > 1:
        h = qs.mean(axis=0)
        evals, evecs = np.linalg.eigh(h)
        lo, hi = evals[0], evals[-1]
        if hi / lo <= spec.kappa_target:
            v, gamma = evecs[:, -1], spec.kappa_target * lo - hi
        else:
            v, gamma = evecs[:, 0], hi / spec.kappa_target - lo
        qs = qs + gamma * np.outer(v, v)
        qs = 0.5 * (qs + qs.transpose(0, 2, 1))
        qs /= np.linalg.eigvalsh(qs.mean(axis=0))[0]
    hessian = qs.mean(axis=0)
    L = float(max(np.linalg.eigvalsh(qs[i])[-1] for i in range(spec.n)))
    mu = float(np.linalg.eigvalsh(hessian)[0])
    return qs, bs, L, mu, np.linalg.solve(hessian, -bs.mean(axis=0))


@pytest.mark.parametrize("n,d,kappa,seed", [
    (1, 1, 1.0, 0), (5, 1, 1.0, 3), (4, 3, 1.0, 1), (16, 10, 1e4, 7), (3, 2, 10.0, 5),
    (64, 10, 1e2, 0), (7, 25, 1e6, 11), (1024, 10, 1e2, 0)])
def test_stacked_generator_is_bit_identical_to_the_per_node_loop(n, d, kappa, seed):
    spec = QuadraticSpec(n=n, d=d, kappa_target=kappa, seed=seed)
    suite = generate_quadratic(spec)
    qs, bs, L, mu, x_star = _per_node_quadratic(spec)
    assert np.array_equal(suite.qs, qs) and np.array_equal(suite.bs, bs)
    assert suite.L == L and suite.mu == mu
    assert np.array_equal(suite.x_star, x_star)


def test_suite_names_the_first_asymmetric_matrix():
    qs = np.stack([np.eye(2)] * 3)
    qs[1, 0, 1] = qs[2, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="Q_1 is not symmetric"):
        QuadraticSuite(qs, np.zeros((3, 2)))


def test_generator_rejects_bad_targets():
    with pytest.raises(ValueError):
        QuadraticSpec(n=2, d=3, kappa_target=0.5)
    with pytest.raises(ValueError, match="d = 1"):
        generate_quadratic(QuadraticSpec(n=2, d=1, kappa_target=10.0))


def test_normal_equations_at_optimum(small_quadratic):
    g = small_quadratic.global_grad(small_quadratic.x_star)
    assert np.linalg.norm(g) <= 1e-12


def test_assumption_inequalities_hold(small_quadratic):
    # strong convexity of the average and Lipschitz gradients of the locals
    # on random pairs, with the reported constants
    rng = np.random.default_rng(1)
    s = small_quadratic
    for _ in range(100):
        a = rng.normal(size=s.d)
        b = rng.normal(size=s.d)
        lhs = global_value(s, b)
        rhs = (global_value(s, a) + s.global_grad(a) @ (b - a)
               + 0.5 * s.mu * np.linalg.norm(b - a) ** 2)
        assert lhs >= rhs - 1e-9 * (1 + abs(lhs))
        i = int(rng.integers(s.n))
        gdiff = np.linalg.norm(local_grad(s, i, a) - local_grad(s, i, b))
        assert gdiff <= s.L * np.linalg.norm(a - b) * (1 + 1e-12)


# ------------------------------------------------- closed-form local steps

EPS = np.finfo(float).eps

# a = alpha * lambda of one eigenvalue at the largest step size, one draw per
# regime of rho = 1 - a: growth, the identity, decay, annihilation,
# alternating decay and alternating growth
_A_REGIMES = st.one_of(
    st.floats(-0.5, 0.0, exclude_max=True), st.just(0.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(1.0),
    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(2.0, 3.0, exclude_min=True))


@settings(max_examples=400, deadline=None)
@given(d=st.integers(1, 4), a=st.lists(_A_REGIMES, min_size=8, max_size=8),
       t=st.integers(0, 40), m=st.integers(1, 100), columns=st.sampled_from([1, 21]),
       rotate=st.booleans(), x_scale=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_local_steps_match_the_step_loop(d, a, t, m, columns, rotate, x_scale,
                                                     seed):
    # two nodes with eigenvalues a / alpha_max, each in one regime of rho,
    # plus a node at 1.5 / alpha_max that keeps the mean Hessian positive
    # definite; diagonal Q_i (rotate False) keep a = 0 and a = 1 exact
    rng = np.random.default_rng(seed)
    alpha_max = 2.0 ** -t
    lam = np.vstack([np.reshape(a[:2 * d], (2, d)), np.full(d, 1.5)]) / alpha_max
    u = np.linalg.qr(rng.normal(size=(3, d, d)))[0] if rotate else np.tile(np.eye(d), (3, 1, 1))
    q = (u * lam[:, None, :]) @ np.swapaxes(u, 1, 2)
    suite = QuadraticSuite(0.5 * (q + np.swapaxes(q, 1, 2)), rng.normal(size=(3, d)))
    alpha = alpha_max if columns == 1 else alpha_max * np.r_[1.0, rng.uniform(2**-10, 1, 20)]
    x = x_scale * rng.normal(size=(3, d, columns))
    y = rng.normal(size=(3, d, columns))

    # with identity slots the communication step is one more local step, so
    # an outer iteration at n_g = m + 1 is m closed-form steps and one step
    nothing = gt.CommunicationStrategy("identity", 1, (None,) * 4, gt.build_graph("complete", 3))
    closed = gt.GtaState(suite, x=x, y=y, grads=suite.grad_stack_batch(x))
    step = kernel_params(nothing, alpha, m + 1)
    advance(closed, step)
    assert step.steps is not None
    loop = gt.GtaState(suite, x=x, y=y, grads=suite.grad_stack_batch(x))
    for _ in range(m + 1):
        gt.inner_step(loop, alpha)

    # both sides round on the scale of the loop's operands: per column, the
    # largest growth |rho|^(m+1) times y, the gradient terms Q x and b, and
    # x's displacement alpha * (m + 1) * y
    norm = lambda v: np.linalg.norm(v, axis=(0, 1))          # noqa: E731
    alphas = np.broadcast_to(alpha, columns)
    q_norm = np.abs(lam).max()
    rho = np.abs(1.0 - np.multiply.outer(alphas, lam.ravel())).max(axis=1)
    growth = np.maximum(1.0, rho) ** (m + 1)
    scale_y = growth * (norm(y) * (1 + alphas * q_norm * (m + 1)) + q_norm * norm(x)
                        + np.linalg.norm(suite.bs))
    scale_x = norm(x) + alphas * (m + 1) * scale_y
    tol = 32 * d * (m + 2) * EPS
    assert np.all(norm(closed.y - loop.y) <= tol * scale_y)
    assert np.all(norm(closed.x - loop.x) <= tol * scale_x)
    assert np.array_equal(closed.grads, suite.grad_stack_batch(closed.x))


@pytest.mark.parametrize("lam", [1.0, 0.3, 3.7, 9.5])
@pytest.mark.parametrize("m", [1, 4, 19, 99])
def test_closed_form_factor_keeps_full_precision_for_small_steps(lam, m):
    # against the exact rational sum: the direct (1 - rho^m) / a is off by
    # 4e-13 relative at a = 2^-20, m = 99, and by 1.6e-10 at a = 0.3 * 2^-20
    a = 2.0**-20 * lam
    exact = sum((1 - Fraction(a))**j for j in range(m))
    sigma_m = _geometric_sum(np.array([a]), m)[0]
    assert abs(Fraction(float(sigma_m)) - exact) <= 4 * EPS * exact


def test_a_logistic_suite_whose_smoothness_overflows_is_a_data_error():
    # the Gram matrix of a feature at 1e200 overflows to inf: with L = inf
    # the reference optimum's step 1/L is 0, and its descent never ends
    data = LogRegDataset(features=(np.array([[1e200], [2.0]]),), labels=(np.array([1.0, -1.0]),),
                         d=1)
    with pytest.raises(DataFormatError, match="L = inf"):
        LogisticSuite(data)


def test_a_suite_without_a_closed_form_says_so():
    suite = gt.logreg_suite(load_libsvm("data/synth_binary.libsvm", 4))
    assert suite.local_steps(0.1, 3) is None


# ------------------------------------------------------------------ libsvm

def _write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_even_split(tmp_path):
    p = _write(tmp_path, "1 1:1\n0 1:2\n1 2:3\n0 2:4\n")
    ds = load_libsvm(p, 2)
    assert [a.shape[0] for a in ds.features] == [2, 2]
    assert ds.d == 2


def test_remainder_goes_to_first_shards(tmp_path):
    p = _write(tmp_path, "\n".join(f"1 1:{i}" for i in range(5)) + "\n")
    ds = load_libsvm(p, 2)
    assert [a.shape[0] for a in ds.features] == [3, 2]


def test_zero_one_labels_mapped_to_signs(tmp_path):
    p = _write(tmp_path, "0 1:1\n1 1:2\n")
    ds = load_libsvm(p, 1)
    assert set(ds.labels[0].tolist()) == {-1.0, 1.0}


def test_malformed_line_reports_line_number(tmp_path):
    p = _write(tmp_path, "1 1:1\n1 broken\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_libsvm(p, 1)


def test_a_line_that_repeats_a_feature_index_is_malformed(tmp_path):
    # the last value would silently replace the first
    p = _write(tmp_path, "1 1:1 2:1\n0 2:2 1:3 2:4\n")
    with pytest.raises(DataFormatError, match="line 2: a feature index repeats"):
        load_libsvm(p, 1)


@pytest.mark.parametrize("text", ["1 1:1\nnan 1:2\n", "1 1:1\n0 1:2 2:inf\n"],
                         ids=["nan-label", "inf-value"])
def test_a_non_finite_label_or_value_is_malformed(text, tmp_path):
    # a NaN label would be read as a second class, and an inf value would
    # make L and every gradient NaN
    p = _write(tmp_path, text)
    with pytest.raises(DataFormatError, match="line 2: a label or value is not finite"):
        load_libsvm(p, 1)


def test_a_feature_index_past_the_platforms_integers_is_malformed(tmp_path):
    # unchecked, numpy's conversion to an index array raises an
    # OverflowError, which the command line reports as a numerical failure
    p = _write(tmp_path, "1 1:1\n0 99999999999999999999:2\n")
    with pytest.raises(DataFormatError, match="line 2: feature index 99999999999999999999"):
        load_libsvm(p, 1)


def test_a_feature_array_numpy_cannot_allocate_is_a_data_error(tmp_path):
    # two samples at d = 10^15 need 16 PB, past any 2^47-byte address
    # space, so the allocation fails at once and no page is touched
    p = _write(tmp_path, "1 1:1\n0 1000000000000000:2\n")
    with pytest.raises(DataFormatError, match=r"\(2, 1000000000000000\) feature array"):
        load_libsvm(p, 1)


def test_more_nodes_than_samples_rejected(tmp_path):
    p = _write(tmp_path, "1 1:1\n0 1:2\n")
    with pytest.raises(DataFormatError, match="split over"):
        load_libsvm(p, 3)


def test_d_inferred_as_max_feature_index(tmp_path):
    p = _write(tmp_path, "1 3:1 7:2\n0 1:5\n")
    assert load_libsvm(p, 1).d == 7


def test_normalize_scales_features_to_unit_interval(tmp_path):
    p = _write(tmp_path, "1 1:2\n0 1:6\n1 1:4\n")
    ds = load_libsvm(p, 1, normalize=True)
    col = ds.features[0][:, 0]
    assert col.min() == 0.0 and col.max() == 1.0


def test_bundled_dataset_loads():
    ds = load_libsvm("data/synth_binary.libsvm", 8)
    assert sum(len(y) for y in ds.labels) == 240
    assert ds.d == 8
    assert all(set(np.unique(y)) <= {-1.0, 1.0} for y in ds.labels)


# ---------------------------------------------------------------- logistic

def test_single_sample_gradient_at_zero():
    ds = LogRegDataset(features=(np.array([[1.0, 0.0]]),),
                       labels=(np.array([1.0]),), d=2)
    suite = logreg_suite(ds)
    assert node_grad(suite, 0, np.zeros(2)) == pytest.approx([-0.5, 0.0])


def test_loss_at_zero_is_log_two():
    ds = LogRegDataset(features=(np.array([[1.0], [2.0]]),),
                       labels=(np.array([1.0, -1.0]),), d=1)
    suite = logreg_suite(ds)
    # per-sample loss log(2) plus a zero regularizer at the origin
    assert local_value(suite, 0, np.zeros(1)) == pytest.approx(np.log(2.0))


def test_toy_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    ds = LogRegDataset(
        features=(np.array([[0.5, -1.0], [1.5, 0.3]]),),
        labels=(np.array([1.0, -1.0]),), d=2)
    suite = logreg_suite(ds)
    for _ in range(5):
        x = rng.normal(size=2)
        fd = central_diff(lambda z: local_value(suite, 0, z), x)
        g = node_grad(suite, 0, x)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), base=st.integers(1, 4), rem_frac=st.floats(0.0, 1.0),
       d=st.integers(1, 6), c=st.integers(1, 25), max_margin=st.floats(0.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
def test_batched_logistic_gradient_matches_per_node_gradient(n, base, rem_frac, d, c,
                                                              max_margin, seed):
    # shards of base or base + 1 samples (m % n != 0 whenever rem > 0), and
    # margins |y a'x| up to max_margin, where the sigmoid saturates
    rng = np.random.default_rng(seed)
    rem = int(rem_frac * (n - 1))
    sizes = [base + (i < rem) for i in range(n)]
    feats = tuple(rng.normal(size=(m_i, d)) for m_i in sizes)
    labels = tuple(rng.choice([-1.0, 1.0], size=m_i) for m_i in sizes)
    suite = LogisticSuite(LogRegDataset(features=feats, labels=labels, d=d))
    xs = rng.normal(size=(n, d, c))
    top = max(np.max(np.abs(a @ xs[i])) for i, a in enumerate(feats))
    xs *= max_margin / top if top > 0 else 1.0
    batched = suite.grad_stack_batch(xs)
    assert batched.shape == (n, d, c)
    for j in range(c):
        single = suite.grad_stack(np.ascontiguousarray(xs[:, :, j]))
        for i in range(n):
            ref = local_grad(suite, i, xs[i, :, j])
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(batched[i, :, j] - ref)) <= 1e-13 * scale
            assert np.max(np.abs(single[i] - ref)) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(c=st.sampled_from([1, 2, 21, 63]), margin=st.sampled_from([1e-3, 1.0, 40.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_the_folded_half_keeps_the_logistic_gradient_bits(c, margin, seed):
    # the kernel holds -a y / 2 instead of a y; scaling by a power of two is
    # exact, so its gradient is the written-out sigmoid form bit for bit,
    # also where the margins saturate the sigmoid
    suite = logreg_suite(load_libsvm("data/synth_binary.libsvm", 8))
    signed = -2.0 * suite._half
    xs = np.random.default_rng(seed).normal(size=(suite.n, suite.d, c)) * margin
    sig = 0.5 * (1.0 + np.tanh(-0.5 * np.matmul(signed, xs)))
    want = (2.0 * xs - np.matmul(signed.transpose(0, 2, 1), sig)) / suite._counts
    assert np.array_equal(suite.grad_stack_batch(xs), want)
    if c == 1:
        assert np.array_equal(suite.grad_stack(xs[:, :, 0]), want[:, :, 0])


def test_empty_shard_rejected():
    ds = LogRegDataset(features=(np.zeros((0, 2)), np.ones((1, 2))),
                       labels=(np.zeros(0), np.array([1.0])), d=2)
    with pytest.raises(DataFormatError, match="empty shard"):
        logreg_suite(ds)


def test_bundled_suite_constants_and_gradients():
    suite = logreg_suite(load_libsvm("data/synth_binary.libsvm", 8))
    counts = [a.shape[0] for a in suite.dataset.features]
    assert suite.mu == pytest.approx(2 / 8 * sum(1 / c for c in counts))
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=suite.d)
        i = int(rng.integers(8))
        fd = central_diff(lambda z: local_value(suite, i, z), x)
        g = node_grad(suite, i, x)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))


# ------------------------------------------------------- reference optimum

def test_reference_optimum_scalar():
    s = QuadraticSuite([[[2.0]]], [[-4.0]])
    assert compute_reference_optimum(s) == pytest.approx([2.0])


def test_reference_optimum_two_node(two_node_suite):
    assert compute_reference_optimum(two_node_suite) == pytest.approx([1.0, 0.0])


def test_symmetric_logistic_has_zero_optimum():
    a = np.array([0.7, -0.2])
    ds = LogRegDataset(features=(np.stack([a, -a]),),
                       labels=(np.array([1.0, 1.0]),), d=2)
    suite = logreg_suite(ds)
    assert np.linalg.norm(suite.x_star) <= 1e-10


def test_reference_optimum_meets_tolerance_and_determinism():
    suite = logreg_suite(load_libsvm("data/synth_binary.libsvm", 4))
    x1 = compute_reference_optimum(suite)
    x2 = compute_reference_optimum(suite)
    assert np.array_equal(x1, x2)
    assert np.linalg.norm(suite.global_grad(x1)) <= 1e-12
