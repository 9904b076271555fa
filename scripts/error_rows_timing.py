#!/usr/bin/env python3
"""Time a traced run's error rows: one per state against rows in blocks.

For each suite (quadratics on an n-cycle at d = 10; 8-node logistic
regressions at d = 8 on 240 samples, the size of the bundled dataset, and
on 24 000, whose gradient costs far more than a row) with GTA3 at n_c = 5,
and column count c, it prints the best-of-5 time of one outer iteration
(`tracking.advance`), of one row taken per state (`error_vector`, the
divergence rule and the per-column tests, as a loop that takes one row
per iteration would), and of
one row taken in a block of b states (`np.stack` of the held x and y, one
`error_rows` call and the test that clears a block where no column leaves,
divided by b), with the floats a block of b states holds (3 * n * d * c *
b: x, y and the gradients).  This is the measurement behind the block
length `tracking._ROW_BLOCK` and its float cap `tracking._ROW_FLOATS`.

Then, for each logistic suite's GTA3 solve (n_c = 1, alpha = 0.5/L, from
zero) at a stop_tol of 0.3, 0.1 and 0.01 of ||x*||, it prints the
iterations its trace keeps and the `advance` calls it stepped: blocks
whose length follows the last block's decay end at the leaving row, so the
two agree unless a block misjudged the decay.  On the 24 000-sample suite
an iteration costs more than a row, so a stepped iteration that a leave
drops would cost more than the rows blocks save.

Usage: python scripts/error_rows_timing.py [N ...]     (default: 16 256 1024)
"""

import sys
import time
from unittest import mock

import numpy as np

from gradtrack import (GtaConfig, LogRegDataset, QuadraticSpec, build_graph, generate_quadratic,
                       logreg_suite, metropolis_weights, strategy_for, tracking)

BLOCKS = (1, 2, 4, 8, 16, 32, 64)
COLUMNS = (1, 12)
SAMPLES = (240, 24_000)
SOLVE_TOLS = (0.3, 0.1, 0.01)


def best_of(fn, repeats=5, min_s=0.02):
    """Best wall time of one call, each repeat long enough to time."""
    best = float("inf")
    for _ in range(repeats):
        calls, t0 = 0, time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < min_s:
            fn()
            calls += 1
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def held_states(suite, step, c, count):
    """count successive states of a c-column stack: the (x, y) arrays
    `advance` leaves behind, as a traced run holds them."""
    state = tracking.initialize(suite, np.zeros((suite.n, suite.d, c)))
    held = []
    for _ in range(count):
        tracking.advance(state, step)
        held.append((state.x, state.y))
    return state, held


def logistic(samples, n=8, d=8, seed=0):
    """An n-node logistic suite on samples Gaussian samples, split evenly,
    with its reference optimum."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(samples, d))
    labels = np.where(features @ rng.normal(size=d) > 0, 1.0, -1.0)
    return logreg_suite(LogRegDataset(tuple(np.array_split(features, n)),
                                      tuple(np.array_split(labels, n)), d))


def suites(sizes):
    """(name, suite) of each timed suite."""
    for n in sizes:
        yield f"quadratic{n}", generate_quadratic(QuadraticSpec(n=n, d=10, kappa_target=1e4,
                                                                seed=0))
    for samples in SAMPLES:
        yield f"logistic{samples}", logistic(samples)


def main(sizes):
    print("suite,n,columns,advance_us,row_per_state_us,"
          + ",".join(f"row_in_block{b}_us,floats_block{b}" for b in BLOCKS))
    for name, suite in suites(sizes):
        n = suite.n
        strategy = strategy_for("GTA3", metropolis_weights(build_graph("cycle", n)), 5)
        for c in COLUMNS:
            # small step sizes: the states stay bounded however often they step
            cfgs = [GtaConfig(strategy=strategy, alpha=2.0 ** -(12 + j) / suite.L)
                    for j in range(c)]
            step = tracking._stack(cfgs)
            state, held = held_states(suite, step, c, max(BLOCKS))
            advance = best_of(lambda: tracking.advance(state, step))
            any_ = bool if c == 1 else np.ndarray.any

            def row_per_state():
                ev = tracking.error_vector(state, suite)
                return any_(ev.opt_err <= 0.0) or any_(tracking.diverged(ev))

            per_state = best_of(row_per_state)
            cols = []
            for b in BLOCKS:
                block = held[:b]

                def rows():
                    errors = tracking.error_rows(
                        *([a[None] for a in block[0]] if b == 1 else
                          (np.stack([h[0] for h in block]), np.stack([h[1] for h in block]))),
                        suite)
                    # the test that clears a block where no column leaves
                    return errors[:, 0].min() > 0.0 and errors.max() <= tracking.DIVERGENCE_LIMIT

                cols.append(f"{best_of(rows) / b * 1e6:.2f},{3 * n * suite.d * c * b}")
            print(f"{name},{n},{c},{advance * 1e6:.2f},{per_state * 1e6:.2f}," + ",".join(cols))
    print()
    print("suite,stop_tol_rel,iterations,advance_calls")
    for samples in SAMPLES:
        suite = logistic(samples)
        strategy = strategy_for("GTA3", metropolis_weights(build_graph("cycle", suite.n)), 1)
        x_star_norm = float(np.linalg.norm(suite.x_star))
        for rel in SOLVE_TOLS:
            cfg = GtaConfig(strategy=strategy, alpha=0.5 / suite.L, max_outer_iters=100_000,
                            stop_tol=rel * x_star_norm)
            with mock.patch.object(tracking, "advance", wraps=tracking.advance) as advance:
                trace = tracking.run(suite, cfg, np.zeros(suite.n * suite.d))
            print(f"logistic{samples},{rel},{trace.k[-1]},{advance.call_count}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 256, 1024])
