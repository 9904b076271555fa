#!/usr/bin/env python3
"""Time one gather round against one dense mixing product on 2-D tori.

For each torus size and column count it prints the best-of-5 time of one
round (`NeighbourTable.apply`) and of one dense product with a power of W,
their ratio (the n_c below which n_c rounds beat the dense product), and
the time to build W^10 by dense products and by gather rounds.  This is the
measurement behind `topology.ROUND_COST`.  It also prints the time of
`compute_beta` by the dense eigensolve and by the Lanczos route on the
neighbour table, the Lanczos steps (gather rounds) it took, and the two
betas' difference.

Usage: python scripts/mixing_crossover.py [SIDE ...]     (default: 16 32 48)
"""

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from gradtrack import build_graph, compute_beta, matrix_power, metropolis_weights
from gradtrack.topology import NeighbourTable


def torus(side):
    edges = [(r * side + c, r * side + (c + 1) % side) for r in range(side) for c in range(side)]
    edges += [(r * side + c, ((r + 1) % side) * side + c)
              for r in range(side) for c in range(side)]
    return build_graph("edge_list", side * side, edges=edges)


def best_of(fn, repeats=5):
    """Best wall time of one call, each repeat long enough to time."""
    best = float("inf")
    for _ in range(repeats):
        calls, t0 = 0, time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < 0.05:
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


def main(sides):
    rng = np.random.default_rng(0)
    print("n,columns,round_ms,dense_ms,break_even_nc,w10_dense_ms,w10_rounds_ms,"
          "beta_dense_ms,beta_krylov_ms,krylov_steps,beta_abs_diff")
    for side in sides:
        w = metropolis_weights(torus(side))
        table = w.table
        if table is None:
            print(f"{side * side}: no neighbour table (n too small for ROUND_COST)")
            continue
        power, dense = w.power(2), w.w
        w10_dense = best_of(lambda: matrix_power(dense, 10), repeats=3)
        w10_rounds = best_of(lambda: matrix_power(table, 10), repeats=3)
        beta_dense = best_of(lambda: compute_beta(dense), repeats=3)
        beta_krylov = best_of(lambda: compute_beta(table), repeats=3)
        counted = CountedTable(table.nbr, table.wt)
        # a run that reaches KRYLOV_CAP steps also pays the dense solve
        diff = abs(compute_beta(counted) - compute_beta(dense))
        beta_cols = (f"{beta_dense * 1e3:.1f},{beta_krylov * 1e3:.1f},{counted.rounds[0]},"
                     f"{diff:.1e}")
        for columns in (10, 210):
            v = rng.normal(size=(side * side, columns))
            one_round = best_of(lambda: table.apply(v, 1))
            dense = best_of(lambda: power.dot(v))
            print(f"{side * side},{columns},{one_round * 1e3:.3f},{dense * 1e3:.3f},"
                  f"{dense / one_round:.1f},{w10_dense * 1e3:.1f},{w10_rounds * 1e3:.1f},"
                  f"{beta_cols}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 32, 48])
