"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime (run with -s to see them all).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

import gradtrack as gt
from gradtrack import harness, theory

from conftest import kernel_params

BUDGETS = {}   # criterion -> (elapsed, limit)


def _finish(name, t0, limit):
    elapsed = time.perf_counter() - t0
    BUDGETS[name] = (elapsed, limit)
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def _mixing(kind, n, laziness=0.0):
    return gt.metropolis_weights(gt.build_graph(kind, n), laziness=laziness)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_tracking_identity():
    """Tracker averages equal the average local gradient at every outer
    boundary, within 1e-9 * (1 + ||h||), over 20 randomized configs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    combos = [(m, topo, nc, ng)
              for m in ("GTA1", "GTA2", "GTA3")
              for topo in ("cycle", "star")
              for nc in (1, 5) for ng in (1, 5)]
    picks = rng.choice(len(combos), size=20, replace=False)
    for idx in picks:
        method, topo, n_c, n_g = combos[idx]
        suite = gt.generate_quadratic(gt.QuadraticSpec(
            n=8, d=3, kappa_target=float(rng.choice([10.0, 100.0])),
            seed=int(rng.integers(1_000_000))))
        strat = gt.strategy_for(method, _mixing(topo, 8), n_c)
        alpha = 0.5 / (n_g * suite.L)
        cfg = kernel_params(strat, alpha, n_g)
        state = gt.initialize(suite, rng.normal(size=8 * 3))
        for _ in range(50):
            for _ in range(n_g - 1):
                gt.inner_step(state, alpha)
            gt.outer_step(state, cfg)
            h = suite.grad_stack(state.x[:, :, 0]).mean(axis=0)
            dev = np.linalg.norm(state.y[:, :, 0].mean(axis=0) - h)
            assert dev <= 1e-9 * (1.0 + np.linalg.norm(h)), \
                f"tracking identity broken for {method} on {topo} ({n_c},{n_g})"
    _finish("1 tracking identity", t0, 30.0)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_degenerate_oracle_equivalence():
    """Single-node runs match centralized gradient descent to 1e-12 per
    gradient step; with exact averaging and one computation step, GTA-2/3
    average iterates match gradient descent to 1e-12."""
    t0 = time.perf_counter()
    suite1 = gt.generate_quadratic(gt.QuadraticSpec(n=1, d=5, kappa_target=50.0, seed=5))
    w1 = _mixing("complete", 1)
    for method in ("GTA1", "GTA2", "GTA3"):
        for n_g in (1, 3):
            strat = gt.strategy_for(method, w1, 2)
            cfg = kernel_params(strat, 0.7 / (n_g * suite1.L), n_g)
            state = gt.initialize(suite1, np.zeros(5))
            x_gd = np.zeros(5)
            for _ in range(60):
                for _ in range(n_g - 1):
                    gt.inner_step(state, cfg.alpha)
                    x_gd = x_gd - cfg.alpha * suite1.global_grad(x_gd)
                    assert np.max(np.abs(state.x[0, :, 0] - x_gd)) <= 1e-12
                gt.outer_step(state, cfg)
                x_gd = x_gd - cfg.alpha * suite1.global_grad(x_gd)
                assert np.max(np.abs(state.x[0, :, 0] - x_gd)) <= 1e-12

    suite = gt.generate_quadratic(gt.QuadraticSpec(n=16, d=6, kappa_target=50.0, seed=6))
    wj = _mixing("complete", 16)
    assert wj.beta == 0.0
    for method in ("GTA2", "GTA3"):
        strat = gt.strategy_for(method, wj, 1)
        cfg = kernel_params(strat, 0.5 / suite.L)
        state = gt.initialize(suite, np.zeros(16 * 6))
        x_gd = np.zeros(6)
        for _ in range(100):
            gt.outer_step(state, cfg)
            x_gd = x_gd - cfg.alpha * suite.global_grad(x_gd)
            assert np.max(np.abs(state.x[:, :, 0].mean(axis=0) - x_gd)) <= 1e-12
    _finish("2 degenerate oracles", t0, 10.0)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_contraction_certificate():
    """At 0.9x the admissible step bound, measured error vectors satisfy the
    componentwise recursion r_{k+1} <= B r_k (slack 1e-9) and the measured
    asymptotic contraction stays within rho(B) + 0.02."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    configs = [("GTA1", "cycle", 1, 1), ("GTA2", "cycle", 1, 1), ("GTA3", "cycle", 1, 1),
               ("GTA1", "star", 2, 1), ("GTA3", "star", 5, 1), ("GTA2", "cycle", 2, 2),
               ("GTA3", "cycle", 1, 3), ("GTA1", "star", 1, 2), ("GTA2", "star", 5, 5),
               ("GTA3", "cycle", 2, 5)]
    assert len(configs) == 10
    for method, topo, n_c, n_g in configs:
        suite = gt.generate_quadratic(gt.QuadraticSpec(
            n=8, d=4, kappa_target=float(rng.choice([10.0, 30.0])),
            seed=int(rng.integers(1_000_000))))
        strat = gt.strategy_for(method, _mixing(topo, 8), n_c)
        probe = theory.params_from_strategy(strat, alpha=1e-12, L=suite.L,
                                            mu=suite.mu, n_g=n_g)
        bound = (theory.step_size_bound(probe) if n_g == 1
                 else theory.step_size_bound_multi(probe))
        alpha = 0.9 * bound
        p = theory.params_from_strategy(strat, alpha=alpha, L=suite.L,
                                        mu=suite.mu, n_g=n_g)
        b = theory.recursion_matrix(p)
        trace = gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=n_g,
                                           max_outer_iters=400),
                       rng.normal(size=8 * 4))
        r = trace.error_matrix()
        assert np.all(r[1:] <= r[:-1] @ b.T + 1e-9), \
            f"componentwise certificate broken for {method} ({n_c},{n_g})"
        rho = theory.spectral_radius(b)
        measured = harness.measured_contraction(trace)
        assert measured <= rho + 0.02, \
            f"{method} ({n_c},{n_g}): measured {measured} vs rho {rho}"
    _finish("3 contraction certificate", t0, 120.0)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_monotonicity_and_ordering():
    """Over a 200-point admissible grid: spectral radius nonincreasing in n_c
    and GTA-1 >= GTA-2 >= GTA-3 at equal step size, zero violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    points = []
    for _ in range(200):
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        n_g = int(rng.choice([1, 2, 5]))
        points.append(theory.GridPoint(
            beta=rng.uniform(0.0, 0.999),
            alpha=rng.uniform(0.01, 0.99) / (L * n_g),
            L=L, mu=mu, n=int(rng.integers(2, 33)), n_g=n_g))
    report = theory.monotonicity_report(points, nc_values=(1, 2, 5, 10, 50))
    assert report.ok, str(report)
    assert len(report.rows) == 200 * 3 * 5
    _finish("4 monotonicity and ordering", t0, 30.0)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_rate_bound_validity():
    """rho(A) <= lambda_u on 1000 admissible draws, and the per-method
    simplified bounds match their closed forms to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(1000):
        betas = rng.uniform(0.01, 1.0, size=4)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        p = theory.SpectralParams(*betas, n_c=int(rng.integers(1, 6)), n_g=1,
                                  alpha=rng.uniform(1e-6, 1.0) / L, L=L, mu=mu,
                                  n=int(rng.integers(1, 33)))
        rho = theory.spectral_radius(theory.recursion_matrix(p))
        assert rho <= theory.rate_upper_bound(p) + 1e-10

    for _ in range(300):
        beta = rng.uniform(0.0, 0.999)
        L = rng.uniform(0.1, 10.0)
        mu = L * rng.uniform(1e-4, 1.0)
        alpha = rng.uniform(1e-6, 1.0) / L
        n_c = int(rng.integers(1, 6))
        b = beta**n_c
        s = math.sqrt(alpha * L)
        gd = 1.0 - alpha * mu / 2.0
        kappa = L / mu
        closed = {
            "GTA1": max(gd, b + s * (2.5 + math.sqrt(2 * kappa))),
            "GTA2": max(gd, b + s * (2.5 + math.sqrt(2 * kappa * b))),
            "GTA3": max(gd, b * (1 + s * (2.5 + math.sqrt(2 * kappa)))),
        }
        for method, want in closed.items():
            p = theory.params_for_method(method, beta, n_c=n_c, n_g=1,
                                         alpha=alpha, L=L, mu=mu, n=16)
            got = theory.rate_upper_bound_for_method(method, beta, p)
            assert abs(got - want) <= 1e-12 * max(1.0, want)
    _finish("5 rate-bound validity", t0, 30.0)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_step_bound_validity():
    """At 0.99x the admissible step bound the recursion is contractive:
    rho(A) < 1 for n_g = 1 and rho(B) < 1 for n_g in {2, 5}, over 500 draws
    each, zero violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(500):
        betas = np.array([rng.uniform(0.01, 0.95), rng.uniform(0.05, 1.0),
                          rng.uniform(0.01, 0.95), rng.uniform(0.05, 1.0)])
        L = rng.uniform(0.1, 5.0)
        mu = L * rng.uniform(1e-3, 1.0)
        n_c = int(rng.integers(1, 6))
        probe = theory.SpectralParams(*betas, n_c=n_c, n_g=1, alpha=1e-12,
                                      L=L, mu=mu, n=8)
        bound = theory.step_size_bound(probe)
        p = theory.SpectralParams(*betas, n_c=n_c, n_g=1, alpha=0.99 * bound,
                                  L=L, mu=mu, n=8)
        assert theory.spectral_radius(theory.recursion_matrix(p)) < 1.0
    for _ in range(500):
        betas = rng.uniform(0.05, 0.95, size=4)
        L = rng.uniform(0.1, 5.0)
        mu = L * rng.uniform(1e-3, 1.0)
        n_g = int(rng.choice([2, 5]))
        n_c = int(rng.integers(1, 6))
        probe = theory.SpectralParams(*betas, n_c=n_c, n_g=n_g, alpha=1e-12,
                                      L=L, mu=mu, n=8)
        bound = theory.step_size_bound_multi(probe)
        p = theory.SpectralParams(*betas, n_c=n_c, n_g=n_g, alpha=0.99 * bound,
                                  L=L, mu=mu, n=8)
        assert theory.spectral_radius(theory.recursion_matrix(p)) < 1.0
    _finish("6 step-bound validity", t0, 60.0)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_desk_scale_figure_reproduction():
    """Paper-shaped quadratic experiment (kappa ~ 1e4, n = 16, d = 10,
    cyclic graph, tuned steps): linear decay (R^2 > 0.98 on the final 50%),
    at least 10x consensus improvement from n_c = 50, and GTA-2/3 final
    optimization error no worse than GTA-1's."""
    t0 = time.perf_counter()
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=16, d=10, kappa_target=1e4, seed=7))
    assert 9e3 <= suite.L / suite.mu <= 1.1e4
    w = _mixing("cycle", 16)
    final_opt = {}
    final_cons = {}
    for method in ("GTA1", "GTA2", "GTA3"):
        for n_c in (1, 50):
            strat = gt.strategy_for(method, w, n_c)
            alpha = harness.tune_step_size(suite, strat, 1, budget=2500)
            trace = gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=1,
                                               max_outer_iters=10_000),
                           np.zeros(160))
            final_opt[method, n_c] = trace.opt_err[-1]
            final_cons[method, n_c] = trace.x_consensus_err[-1]
            y = np.log(trace.opt_err[5000:])
            x = np.arange(y.size, dtype=float)
            design = np.column_stack([x, np.ones_like(x)])
            _, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            r2 = 1.0 - float(residual[0]) / ss_tot if ss_tot > 0 else 1.0
            assert r2 > 0.98, f"{method} n_c={n_c}: log-error fit R^2 = {r2}"
    for method in ("GTA1", "GTA2", "GTA3"):
        ratio = final_cons[method, 1] / final_cons[method, 50]
        assert ratio >= 10.0, f"{method}: consensus improvement only {ratio:.1f}x"
    for n_c in (1, 50):
        assert final_opt["GTA2", n_c] <= final_opt["GTA1", n_c]
        assert final_opt["GTA3", n_c] <= final_opt["GTA1", n_c]
    _finish("7 figure reproduction", t0, 600.0)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_logistic_end_to_end():
    """Bundled LIBSVM dataset: reference optimum solved to 1e-12, tuned
    GTA-3(5,1) gains four orders of magnitude within 1e3 iterations, and the
    gradients pass finite-difference checks at 1e-5 relative."""
    from conftest import central_diff, local_value, node_grad
    t0 = time.perf_counter()
    suite = gt.logreg_suite(gt.load_libsvm("data/synth_binary.libsvm", 8))
    assert np.linalg.norm(suite.global_grad(suite.x_star)) <= 1e-12

    rng = np.random.default_rng(108)
    for _ in range(10):
        x = rng.normal(size=suite.d)
        i = int(rng.integers(8))
        fd = central_diff(lambda z: local_value(suite, i, z), x)
        g = node_grad(suite, i, x)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    strat = gt.strategy_for("GTA3", _mixing("cycle", 8), 5)
    alpha = harness.tune_step_size(suite, strat, 1, budget=250)
    trace = gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=1,
                                       max_outer_iters=1000),
                   np.zeros(8 * suite.d))
    assert trace.opt_err[-1] <= 1e-4 * trace.opt_err[0], \
        f"only {trace.opt_err[0] / trace.opt_err[-1]:.1e}x reduction"
    _finish("8 logistic end to end", t0, 120.0)


# --------------------------------------------------------------- criterion 9

ACCEPTANCE_CFG = """
problem = quadratic
n = 8
d = 4
kappa_target = 100
seed = 42
graph = cycle
methods = GTA1,GTA3
nc_grid = 1,5
ng_grid = 1
budget = 300
tune_budget = 75
outdir = {out}
"""


def test_criterion_9_determinism(tmp_path):
    """Re-running the acceptance config with the same seed produces
    byte-identical trace CSVs."""
    t0 = time.perf_counter()
    paths = []
    for tag in ("first", "second"):
        cfg_file = tmp_path / f"{tag}.cfg"
        cfg_file.write_text(ACCEPTANCE_CFG.format(out=tmp_path / tag))
        paths.append(harness.run_experiment(harness.parse_config(cfg_file)))
    first, second = paths
    names = sorted(p.name for p in first.glob("*.csv"))
    assert names == sorted(p.name for p in second.glob("*.csv"))
    assert any(name.endswith("nc5_ng1.csv") for name in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            f"{name} differs between identical runs"
    _finish("9 determinism", t0, 120.0)
