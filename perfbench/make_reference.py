"""Regenerate reference.json: one checked pass per workload at its default seed.

Run it only when a change is meant to alter the program's outputs, and say
so in that change.  Usage: python3 perfbench/make_reference.py
"""

import json
import tempfile
from pathlib import Path

import env


def main() -> None:
    env.cap_blas_threads()
    env.load_gradtrack()
    import bench
    import check
    from workloads import WORKLOADS

    refs = {}
    env.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.OUT_DIR, prefix="tmp-") as tmp:
        for name, workload in WORKLOADS.items():
            b = bench.Bench(workload, workload.default_seed, Path(tmp) / name, reference=None)
            b.timed_pass()
            solve = b.prepare_solve()
            b.timed_solves(solve, 0.0)
            if b.tally.failures:
                raise SystemExit(f"{name}: invariant checks failed: {b.tally.failures}")
            refs[name] = check.reference_entry(b.first_files, b.configs,
                                               workload.default_seed, solve.config.alpha)
    check.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
