#!/usr/bin/env python3
"""gradtrack benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {quad-grid,logreg-grid,torus-1024,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric with its unit, then, as the last line, a JSON
object with the keys correct, attempted, failed and metrics.  The BLAS
thread cap is set here, before numpy is first imported.
"""

import sys

import env


def main() -> int:
    env.cap_blas_threads()
    env.load_gradtrack()
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
