"""Time one workload set-up in a fresh process and print the seconds.

Set-up is what every grid pass does before its first tuning sweep:
parse_config, build_suite (including the reference optimum), build_mixing
and build_strategy for every cell.

Prints, as JSON, the set-up wall seconds and the harmonic mean seconds of
the SNIPPET calibration snippets interleaved with it (hostspeed.py), or
null when SNIPPET is None.

Usage: python3 perfbench/setup_probe.py {small,dense,None} CONFIG [CONFIG ...]
"""

import json
import sys

import env
import hostspeed


def main(snippet: str | None, paths) -> None:
    env.cap_blas_threads()
    env.load_gradtrack()
    from gradtrack import harness

    def setup():
        for path in paths:
            cfg = harness.parse_config(path)
            harness.build_suite(cfg)
            w = harness.build_mixing(cfg)
            for method, n_c, _ in cfg.cells():
                harness.build_strategy(cfg, method, w, n_c)

    clock = hostspeed.Clock(snippet)
    clock.time(setup)
    print(json.dumps(clock.log[0]))


if __name__ == "__main__":
    main(None if sys.argv[1] == "None" else sys.argv[1], sys.argv[2:])
