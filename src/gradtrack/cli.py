"""Command-line front end.

Verbs:
    run <config>                      execute the experiment grid
    tune <config> --method M --nc C [--ng G]   tune one cell's step size
    theory <config>                   theory-vs-measurement report
    beta --graph KIND --n N [...]     compute a mixing matrix's spectral gap

Exit codes: 0 success, 2 config error (a config file that does not decode
as text included), 3 data/parse error (a malformed LIBSVM dataset or custom
matrix CSV file: a token that is not a number, a repeated feature index or
one past the platform's integers, rows of unequal length, bytes that do not
decode as text; a feature array that cannot be allocated), 4 divergence
(including an all-candidates-diverged tuning sweep), 5 numerical failure
(a reference optimum that does not reach its tolerance, a spectral radius
of a non-finite matrix, or a ValueError raised on computed numbers, such as
a computed mu or L that the theory rejects).

A ValueError raised while building the suite, the mixing matrix or a
strategy out of config or command-line values is a config error
(`harness.config_values`); any other ValueError is a numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .problems import DataFormatError, ReferenceOptimumError
from .topology import build_graph, metropolis_weights, write_matrix_csv
from .tracking import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERICAL = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradtrack",
        description="Gradient tracking over networks: experiments and convergence theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment grid from a config file")
    p_run.add_argument("config")

    p_tune = sub.add_parser("tune", help="tune the step size for one grid cell")
    p_tune.add_argument("config")
    p_tune.add_argument("--method", required=True, choices=harness._VALID_METHODS)
    p_tune.add_argument("--nc", required=True, type=int)
    p_tune.add_argument("--ng", type=int, default=1)

    p_theory = sub.add_parser("theory", help="emit the theory report for a config")
    p_theory.add_argument("config")

    p_beta = sub.add_parser("beta", help="compute beta for a generated mixing matrix")
    p_beta.add_argument("--graph", required=True,
                        choices=["cycle", "star", "complete", "torus", "edge_list"])
    p_beta.add_argument("--n", required=True, type=int)
    p_beta.add_argument("--laziness", type=float, default=0.0)
    p_beta.add_argument("--edges", help="comma list like 0-1,1-2 for edge_list")
    p_beta.add_argument("--nc", type=int, default=1, help="also report beta^nc")
    p_beta.add_argument("--matrix-out", help="dump the mixing matrix as CSV")
    return parser


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    outdir = harness.run_experiment(cfg)
    print(f"wrote traces, summary.csv and manifest.json to {outdir}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    if args.ng < 1:
        raise harness.ConfigError(f"--ng must be >= 1, got {args.ng}")
    cfg = harness.parse_config(args.config)
    suite = harness.build_suite(cfg)
    w = harness.build_mixing(cfg)
    strategy = harness.build_strategy(cfg, args.method, w, args.nc)
    alpha = harness.tune_step_size(suite, strategy, args.ng, cfg.tune_budget,
                                   t_range=(cfg.tune_tmin, cfg.tune_tmax))
    print(f"{args.method}(nc={args.nc},ng={args.ng}): alpha = {alpha:.17g}")
    return EXIT_OK


def _cmd_theory(args) -> int:
    cfg = harness.parse_config(args.config)
    path = harness.theory_report(cfg)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_beta(args) -> int:
    if args.nc < 1:
        raise harness.ConfigError(f"--nc must be >= 1, got {args.nc}")
    with harness.config_values():
        edges = harness.parse_edges(args.edges) if args.edges else None
        graph = build_graph(args.graph, args.n, edges=edges)
        w = metropolis_weights(graph, laziness=args.laziness)
    print(f"beta = {w.beta:.17g}")
    if args.nc != 1:
        # beta of W^nc is beta^nc, the value the theory columns use
        print(f"beta^{args.nc} = {w.beta ** args.nc:.17g}")
    if args.matrix_out:
        write_matrix_csv(w.w, args.matrix_out)
        print(f"wrote {args.matrix_out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "tune": _cmd_tune, "theory": _cmd_theory,
               "beta": _cmd_beta}[args.command]
    try:
        return handler(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, harness.TuningError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ReferenceOptimumError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
