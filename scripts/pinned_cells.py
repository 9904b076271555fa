#!/usr/bin/env python3
"""Check every cell of the pinned grids against the committed table
scripts/pinned_cells.csv.

The pinned grids are the three shipped configs and three quadratic grids
on 16- and 64-node cycles (GTA1 and GTA3, n_c in {1, 5}, n_g in {1, 5, 20},
tuned over the whole run budget): each 16-node grid tunes and runs as one
stack, the 64-node one is past `tracking.BATCH_MAX_FLOATS` and runs one
part per strategy.  Every cell stops at its budget but in the third grid,
on the 16-node cycle at kappa_target = 10 with stop_tol = 1e-6: six of its
twelve cells stop at their stop_tol, each on its own row of one stack.

Each row of the table holds a cell's (config, method, n_c, n_g), its tuned
step size, the outer iteration at which its run stopped, its three final
errors and its three theory columns of theory_report.csv (rho_theory,
lambda_u, step_bound).  The step size and the stop step must match
exactly; the errors and theory columns within a relative RTOL or an
absolute ATOL, since a machine's BLAS kernels move their last bits, and a
nan only a nan.  A change that moves a tuned step size, a final error or a
theory column shows up as a diff of the table.

Usage: python scripts/pinned_cells.py [--write]

Without --write it exits 1 and prints the differing cells when a cell
differs; with it, it writes the table from this run.  Run it from any
directory; config paths are relative to the repository root.
"""

import math
import os
import sys
import tempfile
from pathlib import Path

from gradtrack import harness

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "scripts" / "pinned_cells.csv"
HEADER = ("config,method,n_c,n_g,alpha,stop_k,final_opt_err,final_x_consensus_err,"
          "final_y_consensus_err,rho_theory,lambda_u,step_bound")

# Errors match within a relative RTOL or an absolute ATOL.  Measured on
# this table (a 2-vCPU Xeon with AVX-512, numpy's OpenBLAS 0.3.31): one and
# two BLAS threads gave the same bits, and so did the SkylakeX kernel;
# OpenBLAS's Haswell, Sandybridge and Prescott kernels (OPENBLAS_CORETYPE)
# moved 540-576 of the 576 errors, by at most 1.7e-7 relative where an error
# exceeds 1e-10.  Errors at a suite's floor move in every digit (a logistic
# y consensus error of 1.5e-31 read 1.8e-16), but by at most 4.2e-13 more
# than RTOL allows, so ATOL holds them.  No step size or stop step moved.
# The theory columns are held to the same tolerances.
RTOL = 1e-6
ATOL = 1e-11

SHIPPED = ("logreg_synth", "quadratic_cyclic", "quadratic_star")
CYCLES = {
    "cycle16": "n = 16\nbudget = 400\ntune_budget = 400\n",
    "cycle64": "n = 64\nbudget = 300\ntune_budget = 300\n",
    "cycle16tol": "n = 16\nbudget = 400\ntune_budget = 400\nkappa_target = 10\nstop_tol = 1e-6\n",
}
CYCLE_GRID = ("problem = quadratic\ngraph = cycle\nmethods = GTA1,GTA3\nnc_grid = 1,5\n"
              "ng_grid = 1,5,20\n")


def configs(tmp: Path):
    """(name, ExperimentConfig) of each pinned grid."""
    for name in SHIPPED:
        yield name, harness.parse_config(ROOT / "configs" / f"{name}.cfg")
    for name, text in CYCLES.items():
        path = tmp / f"{name}.cfg"
        path.write_text(CYCLE_GRID + text)
        yield name, harness.parse_config(path)


def rows():
    """The table's rows, one per cell, as lists of strings."""
    # the logistic config names its dataset relative to the repository root
    os.chdir(ROOT)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs(Path(tmp)):
            for rec in harness.execute_grid(cfg).records:
                trace = rec["trace"]
                out.append([name, rec["method"], str(rec["n_c"]), str(rec["n_g"]),
                            "%.17g" % rec["alpha"], str(int(trace.k[-1]))]
                           + ["%.17g" % e for e in trace.error_matrix()[-1].tolist()]
                           + ["%.17g" % rec[key] for key in ("rho", "lambda_u", "step_bound")])
    return out


def close(a: str, b: str) -> bool:
    """Two pinned values agree within RTOL or ATOL; a nan only with a nan."""
    x, y = float(a), float(b)
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=RTOL, abs_tol=ATOL)


def differences(got, want):
    """A line per cell that differs between two tables of rows."""
    keyed = {tuple(row[:4]): row[4:] for row in want}
    lines = []
    for row in got:
        pinned = keyed.pop(tuple(row[:4]), None)
        if pinned is None:
            lines.append(f"{' '.join(row[:4])}: not in the table")
        elif (row[4:6] != pinned[:2] or len(row) != len(pinned) + 4
              or not all(close(a, b) for a, b in zip(row[6:], pinned[2:]))):
            lines.append(f"{' '.join(row[:4])}: alpha, stop_k, errors, theory "
                         f"{', '.join(row[4:])}; pinned {', '.join(pinned)}")
    lines += [f"{' '.join(key)}: pinned but not run" for key in keyed]
    return lines


def main(argv):
    got = rows()
    if "--write" in argv:
        TABLE.write_text("\n".join([HEADER] + [",".join(row) for row in got]) + "\n")
        print(f"wrote {len(got)} cells to {TABLE}")
        return 0
    want = [line.split(",") for line in TABLE.read_text().splitlines()[1:]]
    lines = differences(got, want)
    for line in lines:
        print(line)
    print(f"{len(got)} cells run, {len(lines)} differ from {TABLE.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
