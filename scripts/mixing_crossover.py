#!/usr/bin/env python3
"""Time gather rounds against dense mixing products on 2-D tori, by width.

For each torus size and block width k (columns of the (n, k) block that
`MixingMatrix.apply` mixes) it prints:
  - round_ms, dense_ms: the best-of-5 time of one gather round
    (`NeighbourTable.apply`) and of one dense product with W^10, in a tight
    loop, and their ratio, the tight-loop break-even n_c;
  - inrun_round_ms, inrun_dense_ms, inrun_break_even_nc: the same times
    measured inside `tracking.run` (GTA3, 20 outer iterations), with every
    apply forced to rounds or to dense products (the script swaps
    `topology.rounds_pay`; see `in_run`); there the gradients and the local
    phase run between two products, so W^10 can drop out of cache between
    two of them.  The block is a stack of k/d cells of one strategy at
    d = min(k, 10), which mixes as one (n, k) block as a sweep does;
  - rule_rounds_up_to: the largest n_c that `topology.rounds_pay` sends to
    rounds at this width, and rule_nc10 / inrun_nc10 the route the rule
    takes and the in-run winner at n_c = 10.
This is the measurement behind `topology.ROUND_ROW`, `topology.DENSE_ENTRY`
and `topology.DENSE_COLUMN`.  A second table gives, per size, the time to
build W^10 by dense products and by gather rounds, and of `compute_beta` by
the dense eigensolve and by the Lanczos route on the neighbour table, the
Lanczos steps (gather rounds) it took, and the two betas' difference.

Usage: python scripts/mixing_crossover.py [SIDE ...]     (default: 16 32 48)
"""

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from gradtrack import (GtaConfig, QuadraticSpec, build_graph, compute_beta, generate_quadratic,
                       matrix_power, metropolis_weights, strategy_for, topology, tracking)
from gradtrack.topology import NeighbourTable

WIDTHS = (1, 10, 20, 50, 210)
N_C = 10
INRUN_ITERS = 20
INRUN_REPEATS = 5


def best_of(fn, repeats=5, window=0.02):
    """Best wall time of one call, each repeat long enough to time."""
    best = float("inf")
    for _ in range(repeats):
        calls, t0 = 0, time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < window:
            fn()
            calls += 1
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


@dataclass(frozen=True)
class CountedTable(NeighbourTable):
    """A neighbour table that counts the gather rounds run through it."""

    rounds: list = field(default_factory=lambda: [0])

    def apply(self, v, rounds):
        self.rounds[0] += rounds
        return super().apply(v, rounds)


def in_run(w, k):
    """The time of one gather round and of one dense W^N_C product inside
    `tracking.run`, for a block of k columns: from the best of
    INRUN_REPEATS interleaved times of runs forced to rounds at N_C and
    2 N_C and forced to dense products at N_C.  N_C more rounds per apply
    give the round's time; the rest of a rounds run is what a dense run
    spends outside its products, so the dense time also carries what a
    product costs the steps around it."""
    d = min(k, 10)
    suite = generate_quadratic(QuadraticSpec(n=w.graph.n, d=d, kappa_target=1.0 if d == 1
                                             else 100.0, seed=0))
    x0 = np.zeros(suite.n * d)
    w.power(N_C)                        # built outside the timed runs
    real_rule = topology.rounds_pay

    def run(rounds, n_c):
        topology.rounds_pay = lambda *_: rounds
        strategy = strategy_for("GTA3", w, n_c)     # one strategy: the cells mix as one block
        cells = [GtaConfig(strategy=strategy, alpha=0.1 / suite.L, max_outer_iters=INRUN_ITERS)
                 for _ in range(k // d)]
        t0 = time.perf_counter()
        tracking.run(suite, cells[0], x0, tracking.RunStack(suite, cells, x0))
        return time.perf_counter() - t0

    legs = ((True, N_C), (True, 2 * N_C), (False, N_C))
    best = [float("inf")] * len(legs)
    try:
        for _ in range(INRUN_REPEATS):      # interleaved, so drift hits every leg alike
            best = [min(b, run(*leg)) for b, leg in zip(best, legs)]
    finally:
        topology.rounds_pay = real_rule
    rounds, more_rounds, dense = best
    applies = 2 * INRUN_ITERS           # GTA3: one apply per slot pair and iteration
    one_round = (more_rounds - rounds) / (N_C * applies)
    return one_round, (dense - rounds) / applies + N_C * one_round


def rounds_up_to(n, m, k):
    n_c = 0
    while topology.rounds_pay(n, m, n_c + 1, k):
        n_c += 1
    return n_c


def route(rounds):
    return "rounds" if rounds else "dense"


def main(sides):
    rng = np.random.default_rng(0)
    print("n,k,round_ms,dense_ms,break_even_nc,inrun_round_ms,inrun_dense_ms,"
          "inrun_break_even_nc,rule_rounds_up_to,rule_nc10,inrun_nc10")
    builds = []
    for side in sides:
        n = side * side
        w = metropolis_weights(build_graph("torus", n))
        table = w.table
        if table is None:
            print(f"{n}: no neighbour table (n too small for ROUND_COST)")
            continue
        m = len(table.nbr)
        power = w.power(N_C)
        for k in WIDTHS:
            v = rng.normal(size=(n, k))
            one_round = best_of(lambda: table.apply(v, 1))
            dense = best_of(lambda: power.dot(v))
            run_round, run_dense = in_run(w, k)
            print(f"{n},{k},{one_round * 1e3:.3f},{dense * 1e3:.3f},{dense / one_round:.1f},"
                  f"{run_round * 1e3:.3f},{run_dense * 1e3:.3f},{run_dense / run_round:.1f},"
                  f"{rounds_up_to(n, m, k)},{route(topology.rounds_pay(n, m, N_C, k))},"
                  f"{route(N_C * run_round <= run_dense)}")
        dense = w.w
        w10_dense = best_of(lambda: matrix_power(dense, 10), repeats=3, window=0.05)
        w10_rounds = best_of(lambda: matrix_power(table, 10), repeats=3, window=0.05)
        beta_dense = best_of(lambda: compute_beta(dense), repeats=3, window=0.05)
        beta_krylov = best_of(lambda: compute_beta(table), repeats=3, window=0.05)
        counted = CountedTable(table.nbr, table.wt)
        # a run that reaches KRYLOV_CAP steps also pays the dense solve
        diff = abs(compute_beta(counted) - compute_beta(dense))
        builds.append(f"{n},{w10_dense * 1e3:.1f},{w10_rounds * 1e3:.1f},"
                      f"{beta_dense * 1e3:.1f},{beta_krylov * 1e3:.1f},{counted.rounds[0]},"
                      f"{diff:.1e}")
    print("\nn,w10_dense_ms,w10_rounds_ms,beta_dense_ms,beta_krylov_ms,krylov_steps,"
          "beta_abs_diff")
    print("\n".join(builds))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 32, 48])
