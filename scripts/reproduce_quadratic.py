#!/usr/bin/env python3
"""Run the quadratic experiment grids (cyclic and star networks) and emit
the theory reports alongside the trace CSVs.

Usage: python scripts/reproduce_quadratic.py [--quick]

--quick shrinks the grid and budgets to a smoke run of the full grids.
"""

import sys
from pathlib import Path

from gradtrack import harness

ROOT = Path(__file__).resolve().parent.parent

# quick mode tunes over the full (shrunk) budget: the quarter-horizon
# default can admit a step that only diverges late in a longer run
QUICK_OVERRIDES = {
    "nc_grid": (1, 5),
    "ng_grid": (1, 5),
    "budget": 500,
    "tune_budget": 500,
}


def main():
    quick = "--quick" in sys.argv[1:]
    for name in ("quadratic_cyclic", "quadratic_star"):
        cfg = harness.parse_config(ROOT / "configs" / f"{name}.cfg")
        if quick:
            import dataclasses
            grids = tuple((m, QUICK_OVERRIDES["nc_grid"], QUICK_OVERRIDES["ng_grid"])
                          for m, _, _ in cfg.grids)
            cfg = dataclasses.replace(cfg, grids=grids,
                                      budget=QUICK_OVERRIDES["budget"],
                                      tune_budget=QUICK_OVERRIDES["tune_budget"],
                                      outdir=cfg.outdir + "_quick")
        result = harness.execute_grid(cfg)
        outdir = harness.run_experiment(cfg, result)
        harness.theory_report(cfg, result)
        print(f"{name}: artifacts in {outdir}")


if __name__ == "__main__":
    main()
