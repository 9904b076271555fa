"""Experiment harness: config parsing, step-size tuning, grid execution and
CSV/report emission.

Config files are flat "key = value" text (see parse_config for the schema).
A run sweeps methods over an (n_c, n_g) grid, tunes the step size for each
cell over {2^-t}, runs the grid's cells as one `tracking.RunStack`, and
writes one trace CSV per cell plus a summary.csv and a manifest.json, all
byte-reproducible for a fixed config and seed.

The 2^-t sweep is a RunStack too: one cell per candidate step size and
grid cell, that records no trace, only each candidate's final errors or
the outer iteration at which it diverged.  The strategies that mix
through one power (`tracking.mixing_power`: GTA1, GTA2 and GTA3 at one
n_c) tune their cells in one sweep.  Which cells of a grid or a sweep
share one state is decided in one place, `tracking._parts`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__, theory
from .problems import (DataFormatError, ObjectiveSuite, QuadraticSpec, generate_quadratic,
                       load_libsvm, logreg_suite)
from .topology import (METHOD_NAMES, CommunicationStrategy, MixingMatrix, build_graph,
                       communication_matrices, metropolis_weights, read_matrix_csv,
                       strategy_for)
from .tracking import DivergenceError, GtaConfig, RunStack, RunTrace, mixing_power, run


class ConfigError(ValueError):
    """Raised for unknown keys, missing keys or unusable values."""


@contextmanager
def config_values():
    """Scope that builds objects out of config values: a ValueError raised
    in it is re-raised as a ConfigError (a DataFormatError keeps its own
    kind).  A bare ValueError outside such a scope was raised on computed
    numbers."""
    try:
        yield
    except (ConfigError, DataFormatError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class TuningError(RuntimeError):
    """Every step-size candidate diverged; carries per-candidate diagnostics."""

    def __init__(self, diagnostics):
        lines = ", ".join(f"2^-{t}: {msg}" for t, msg in diagnostics)
        super().__init__(f"all step-size candidates diverged ({lines})")
        self.diagnostics = diagnostics


_KNOWN_KEYS = {
    "problem", "n", "d", "kappa_target", "seed", "dataset", "normalize",
    "graph", "edges", "laziness", "methods", "nc_grid", "ng_grid",
    "tune_tmin", "tune_tmax", "tune_budget", "budget", "stop_tol",
    "outdir", "z1_mode",
    "custom_w1", "custom_w2", "custom_w3", "custom_w4",
}

_VALID_METHODS = METHOD_NAMES + ("custom",)

# keys that apply to one graph, problem or method only: elsewhere they would
# be ignored, yet written into manifest.json as if they had been used
_SCOPED_KEYS = {
    "edges": "graph = edge_list",
    "dataset": "problem = logreg", "normalize": "problem = logreg",
    "d": "problem = quadratic", "kappa_target": "problem = quadratic",
    **{f"custom_w{i}": "method custom" for i in range(1, 5)},
}

# 2^-1074 is the smallest positive double; 2^-1075 rounds to 0
_TMAX_LIMIT = 1074


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description, built by parse_config.

    grids holds one (method, nc_values, ng_values) triple per method, with
    any per-method overrides already applied.
    """

    problem: str
    n: int
    seed: int
    graph: str
    laziness: float
    grids: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    budget: int
    tune_budget: int
    tune_tmin: int
    tune_tmax: int
    outdir: str
    d: int
    kappa_target: float
    dataset: str | None
    normalize: bool
    edges: tuple[tuple[int, int], ...] | None
    stop_tol: float | None
    z1_mode: str
    custom_matrices: tuple[str, str, str, str] | None

    def cells(self):
        for method, ncs, ngs in self.grids:
            for n_c in ncs:
                for n_g in ngs:
                    yield method, n_c, n_g


def _reject_duplicates(vals: tuple, raw: str) -> None:
    """A method or grid value listed twice would run its cells twice and
    overwrite their traces."""
    dup = next((v for k, v in enumerate(vals) if v in vals[:k]), None)
    if dup is not None:
        raise ConfigError(f"duplicate value {dup!r} in {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    vals = tuple(int(tok) for tok in raw.replace(",", " ").split())
    if not vals or any(v < 1 for v in vals):
        raise ConfigError(f"expected positive integers, got {raw!r}")
    _reject_duplicates(vals, raw)
    return vals


def parse_edges(raw: str) -> tuple[tuple[int, int], ...]:
    """An edge list written "0-1,1-2,..." (commas or spaces between edges),
    as a config's `edges` and `gradtrack beta --edges` give it; a malformed
    pair raises ValueError."""
    pairs = []
    for tok in raw.replace(",", " ").split():
        a, _, b = tok.partition("-")
        pairs.append((int(a), int(b)))
    return tuple(pairs)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key/value config file.

    Schema (defaults in brackets; '#' starts a comment):

        problem       quadratic | logreg [quadratic]
        n             node count [16]
        d             decision dimension, quadratic only [10]
        kappa_target  global condition number target, quadratic only [1e4]
        seed          RNG seed [0]
        dataset       LIBSVM file path, logreg only
        normalize     scale features to [0,1], logreg only [false]
        graph         cycle | star | complete | torus | edge_list [cycle]
        edges         "0-1,1-2,...", edge_list only
        laziness      lazy Metropolis weight in [0,1) [0]
        methods       comma list out of GTA1,GTA2,GTA3,custom [GTA1,GTA2,GTA3]
        nc_grid       comma list of communication-step counts [1]
        ng_grid       comma list of computation-step counts [1]
        <M>.nc_grid / <M>.ng_grid   per-method overrides
        budget        outer iterations per final run [10000]
        tune_budget   outer iterations per tuning run [budget // 4]
        tune_tmin / tune_tmax   exponent range of the 2^-t sweep [0 / 20];
                      tune_tmax <= 1074, where 2^-t is still positive
        stop_tol      optional early-stop threshold on the optimization error,
                      a finite number >= 0
        outdir        artifact directory [results]
        z1_mode       bound | exact deviation norm in theory matrices [bound];
                      exact only for n <= theory.EXACT_Z1_MAX_N (4096)
        custom_w1..custom_w4   matrix CSV paths, method "custom" only

    A key marked "only" is a config error where it does not apply.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from exc
    kv: dict[str, str] = {}
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw_line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        kv[key] = val

    overrides = {k: v for k, v in kv.items() if "." in k}
    base = {k: v for k, v in kv.items() if "." not in k}
    unknown = set(base) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    try:
        problem = base.get("problem", "quadratic")
        if problem not in ("quadratic", "logreg"):
            raise ConfigError(f"problem must be quadratic or logreg, got {problem!r}")
        n = int(base["n"]) if "n" in base else 16
        raw_methods = base.get("methods", "GTA1,GTA2,GTA3")
        methods = tuple(tok.strip() for tok in raw_methods.split(","))
        for m in methods:
            if m not in _VALID_METHODS:
                raise ConfigError(f"unknown method {m!r} (expected one of {_VALID_METHODS})")
        _reject_duplicates(methods, raw_methods)
        graph = base.get("graph", "cycle")
        applies = {"graph = edge_list": graph == "edge_list",
                   "problem = logreg": problem == "logreg",
                   "problem = quadratic": problem == "quadratic",
                   "method custom": "custom" in methods}
        for key, scope in _SCOPED_KEYS.items():
            if key in base and not applies[scope]:
                raise ConfigError(f"key {key!r} applies only to {scope}")
        nc_default = _parse_int_list(base.get("nc_grid", "1"))
        ng_default = _parse_int_list(base.get("ng_grid", "1"))
        grids = []
        for m in methods:
            ncs = _parse_int_list(overrides[f"{m}.nc_grid"]) if f"{m}.nc_grid" in overrides else nc_default
            ngs = _parse_int_list(overrides[f"{m}.ng_grid"]) if f"{m}.ng_grid" in overrides else ng_default
            grids.append((m, ncs, ngs))
        for key in overrides:
            stem, _, field_name = key.partition(".")
            if stem not in methods or field_name not in ("nc_grid", "ng_grid"):
                raise ConfigError(f"unknown override key {key!r}")

        edges = parse_edges(base["edges"]) if "edges" in base else None

        budget = int(base.get("budget", 10000))
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        tune_budget = int(base.get("tune_budget", max(1, budget // 4)))
        if tune_budget < 1:
            raise ConfigError("tune_budget must be >= 1")
        tune_tmin = int(base.get("tune_tmin", 0))
        tune_tmax = int(base.get("tune_tmax", 20))
        if not (0 <= tune_tmin <= tune_tmax):
            raise ConfigError("need 0 <= tune_tmin <= tune_tmax")
        if tune_tmax > _TMAX_LIMIT:
            raise ConfigError(f"tune_tmax must be <= {_TMAX_LIMIT}: beyond it the step "
                              f"size 2^-tune_tmax underflows to 0, got {tune_tmax}")
        stop_tol = float(base["stop_tol"]) if "stop_tol" in base else None
        # NaN fails both comparisons
        if stop_tol is not None and not 0 <= stop_tol < math.inf:
            raise ConfigError(f"stop_tol must be a finite number >= 0, got {base['stop_tol']!r}")
        z1_mode = base.get("z1_mode", "bound")
        if z1_mode not in ("bound", "exact"):
            raise ConfigError(f"z1_mode must be bound or exact, got {z1_mode!r}")
        if z1_mode == "exact" and n > theory.EXACT_Z1_MAX_N:
            raise ConfigError(f"z1_mode = exact needs a dense eigensolve of the n x n mixing "
                              f"matrix: n must be <= {theory.EXACT_Z1_MAX_N}, got {n}")

        custom = None
        if "custom" in methods:
            keys = ("custom_w1", "custom_w2", "custom_w3", "custom_w4")
            missing = [k for k in keys if k not in base]
            if missing:
                raise ConfigError(f"method custom requires keys {missing}")
            custom = tuple(base[k] for k in keys)

        return ExperimentConfig(
            problem=problem,
            n=n,
            d=int(base.get("d", 10)),
            kappa_target=float(base.get("kappa_target", 1e4)),
            seed=int(base.get("seed", 0)),
            dataset=base.get("dataset"),
            normalize=_parse_bool(base["normalize"]) if "normalize" in base else False,
            graph=graph,
            edges=edges,
            laziness=float(base.get("laziness", 0.0)),
            grids=tuple(grids),
            budget=budget,
            tune_budget=tune_budget,
            tune_tmin=tune_tmin,
            tune_tmax=tune_tmax,
            stop_tol=stop_tol,
            outdir=base.get("outdir", "results"),
            z1_mode=z1_mode,
            custom_matrices=custom,
        )
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_suite(cfg: ExperimentConfig) -> ObjectiveSuite:
    if cfg.problem == "quadratic":
        with config_values():
            spec = QuadraticSpec(n=cfg.n, d=cfg.d, kappa_target=cfg.kappa_target, seed=cfg.seed)
            return generate_quadratic(spec)
    if cfg.dataset is None:
        raise ConfigError("problem logreg requires a dataset path")
    with config_values():
        ds = load_libsvm(cfg.dataset, n_nodes=cfg.n, normalize=cfg.normalize)
    return logreg_suite(ds)


def build_mixing(cfg: ExperimentConfig) -> MixingMatrix:
    with config_values():
        graph = build_graph(cfg.graph, cfg.n, edges=cfg.edges)
        return metropolis_weights(graph, laziness=cfg.laziness)


def build_custom(cfg: ExperimentConfig, w: MixingMatrix) -> tuple[MixingMatrix, ...]:
    """The four custom matrices of a grid: each distinct file read once and
    each distinct matrix wrapped once, so that its powers, beta and
    neighbour table are computed once per grid."""
    if cfg.custom_matrices is None:
        raise ConfigError("method custom requires custom_w1..custom_w4 matrix paths")
    with config_values():
        read = {p: read_matrix_csv(p) for p in dict.fromkeys(cfg.custom_matrices)}
        return communication_matrices([read[p] for p in cfg.custom_matrices], w.graph)


def build_strategy(cfg: ExperimentConfig, method: str, w: MixingMatrix, n_c: int,
                   custom: tuple[MixingMatrix, ...] | None = None) -> CommunicationStrategy:
    """The strategy of one cell; `custom` is the grid's `build_custom`
    result, built here when a custom cell does not pass it."""
    if method == "custom" and custom is None:
        custom = build_custom(cfg, w)
    with config_values():
        return strategy_for(method, w, n_c, custom=custom)


def tune_step_size(suite: ObjectiveSuite, strategy: CommunicationStrategy | list,
                   n_g: int | list[int], budget: int,
                   t_range: tuple[int, int] = (0, 20)) -> float | list:
    """Sweep alpha over {2^-t : t in t_range} from the zero start, for one
    cell (strategy, n_g), or for each of several cells: then strategy and
    n_g are equal-length sequences, one entry per cell, with the cells of
    each strategy adjacent (a grid passes the cells of the strategies that
    share one `tracking.mixing_power`: GTA1, GTA2 and GTA3 at one n_c).

    Each candidate runs for `budget` outer iterations as a column of one
    `RunStack` without trace, whose `tracking._parts` decide which
    candidates share a state.  A cell's winner is its candidate with the
    smallest final optimization error, ties broken toward the larger step
    size.  Diverged candidates are excluded; if all of a cell's diverge,
    its TuningError carries the per-candidate diagnostics.  For one cell
    the winner is returned and the TuningError raised; for several, a list
    holds each cell's winner or TuningError.
    """
    if budget < 1:
        raise ValueError("tuning budget must be >= 1 outer iteration")
    cells = [(strategy, n_g)] if np.ndim(n_g) == 0 else list(zip(strategy, n_g, strict=True))
    ts = range(t_range[0], t_range[1] + 1)
    cfgs = [GtaConfig(strategy=st, alpha=2.0 ** -t, n_g=g, max_outer_iters=budget)
            for st, g in cells for t in ts]                 # descending alpha per cell
    stack = RunStack(suite, cfgs, np.zeros(suite.n * suite.d), trace=False)
    tuned = []
    for start in range(0, len(cfgs), len(ts)):
        sweep = [stack.outcome(j) for j in range(start, start + len(ts))]
        if all(isinstance(o, DivergenceError) for o in sweep):
            tuned.append(TuningError([(t, f"diverged at k={o.k}") for t, o in zip(ts, sweep)]))
            continue
        errs = [math.inf if isinstance(o, DivergenceError) else o.opt_err for o in sweep]
        tuned.append(cfgs[start + int(np.argmin(errs))].alpha)   # largest alpha on ties
    if np.ndim(n_g) > 0:
        return tuned
    if isinstance(tuned[0], TuningError):
        raise tuned[0]
    return tuned[0]


def measured_contraction(trace: RunTrace) -> float:
    """Asymptotic contraction factor of ||r_k||: geometric mean of the last
    20% of per-iteration ratios over the decaying segment.

    Runs that decay by more than two orders of magnitude are truncated at
    the first entry into the floor neighborhood (twice the observed minimum;
    the floor is set by the reference-optimum accuracy, not machine epsilon),
    so plateau ratios near 1 do not contaminate the estimate.  Returns nan
    when too few decaying iterations are available.
    """
    s = np.linalg.norm(trace.error_matrix(), axis=1)
    if len(s) < 3 or s[0] <= 0 or not np.all(np.isfinite(s)):
        return float("nan")
    s_min = float(s.min())
    if s_min < s[0] / 100.0:
        cut = int(np.argmax(s <= max(2.0 * s_min, 0.0)))
        s = s[:cut + 1]
    ratios = s[1:] / np.where(s[:-1] > 0, s[:-1], np.inf)
    ratios = ratios[ratios > 0]
    if len(ratios) < 5:
        return float("nan")
    tail = ratios[int(math.floor(0.8 * len(ratios))):]
    return float(np.exp(np.mean(np.log(tail))))


_SUMMARY_HEADER = ("method,n_c,n_g,alpha,beta,final_opt_err,final_x_consensus_err,"
                   "final_y_consensus_err,contraction_measured,rho_theory,lambda_u,"
                   "step_bound,alpha_admissible")


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class GridResult:
    """Executed grid: the suite, the mixing matrix and one record per cell."""

    suite: ObjectiveSuite
    w: MixingMatrix
    records: tuple[dict, ...]


def _in_cell(exc: Exception, method: str, n_c: int, n_g: int) -> Exception:
    exc.args = (f"cell ({method}, n_c={n_c}, n_g={n_g}): {exc}",)
    return exc


def _execute_cells(cfg: ExperimentConfig, suite, w):
    """Tune every grid cell, then run the cells in cell order and yield one
    record dict per cell.

    The (method, n_c) strategies that share one `tracking.mixing_power`
    (a grid's GTA1, GTA2 and GTA3 at one n_c) tune their cells, one per
    n_g, in one `tune_step_size` call.  The cells run as one
    `tracking.RunStack`, whose parts (`tracking._parts`) each run whole on
    the first `run` of one of their cells; the later cells' `run` only
    read.

    Failures surface as if the cells ran one by one: the first cell in
    cell order whose strategy or tuning fails is raised, and only the
    cells before it run, the first of them that diverged raised ahead of
    it.  Tuning stops at the first power group whose first strategy comes
    after that cell's.
    """
    x0 = np.zeros(suite.n * suite.d)
    # custom_matrices is set exactly when the grid has custom cells
    custom = None if cfg.custom_matrices is None else build_custom(cfg, w)
    # the (method, n_c) strategies in cell order, up to the first that fails
    strategies, failure = [], None
    for (method, n_c), cells in groupby(cfg.cells(), key=lambda cell: cell[:2]):
        try:
            strategy = build_strategy(cfg, method, w, n_c, custom)
        except ConfigError as exc:
            failure = exc
            break
        strategies.append((method, n_c, strategy, [n_g for *_, n_g in cells]))
    # the strategies' indices by mixing power, in order of their first one
    powers: dict = {}
    for i, (_, _, strategy, _) in enumerate(strategies):
        powers.setdefault(mixing_power(strategy), []).append(i)
    alphas, first_failed = {}, len(strategies)
    for group in powers.values():
        if group[0] > first_failed:
            break
        cells = [(strategies[i][2], n_g) for i in group for n_g in strategies[i][3]]
        found = iter(tune_step_size(suite, [st for st, _ in cells], [g for _, g in cells],
                                    cfg.tune_budget, t_range=(cfg.tune_tmin, cfg.tune_tmax)))
        for i in group:
            alphas[i] = [next(found) for _ in strategies[i][3]]
            if any(isinstance(alpha, TuningError) for alpha in alphas[i]):
                first_failed = min(first_failed, i)
    tuned = []
    for i, (method, n_c, strategy, ngs) in enumerate(strategies[:first_failed + 1]):
        for n_g, alpha in zip(ngs, alphas[i]):
            if isinstance(alpha, TuningError):
                failure = _in_cell(alpha, method, n_c, n_g)
                break
            tuned.append((method, n_c, n_g, strategy, alpha))
    runs = [GtaConfig(strategy=strategy, alpha=alpha, n_g=n_g, max_outer_iters=cfg.budget,
                      stop_tol=cfg.stop_tol) for _, _, n_g, strategy, alpha in tuned]
    stack = RunStack(suite, runs, x0) if runs else None
    for (method, n_c, n_g, strategy, alpha), cell in zip(tuned, runs):
        try:
            trace = run(suite, cell, x0, stack)
        except DivergenceError as exc:
            raise _in_cell(exc, method, n_c, n_g)
        yield {
            "method": method, "n_c": n_c, "n_g": n_g, "alpha": alpha,
            # the slowest mixing matrix that exchanges anything; 1 if none does
            "beta": max((m.beta for m in strategy.slots if m is not None), default=1.0),
            "trace": trace, "contraction": measured_contraction(trace),
            **theory.cell_columns(strategy, method, alpha=alpha, L=suite.L, mu=suite.mu,
                                  n_g=n_g, z1_mode=cfg.z1_mode),
        }
    if failure is not None:
        raise failure


def execute_grid(cfg: ExperimentConfig) -> GridResult:
    """Tune and run the whole grid once; pass the result to run_experiment
    and theory_report to emit both artifact sets without re-running."""
    suite = build_suite(cfg)
    w = build_mixing(cfg)
    return GridResult(suite=suite, w=w,
                      records=tuple(_execute_cells(cfg, suite, w)))


def run_experiment(cfg: ExperimentConfig, result: GridResult | None = None) -> Path:
    """Execute the full grid and write per-cell traces, summary.csv and
    manifest.json into cfg.outdir.  Byte-reproducible for fixed config."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if result is None:
        result = execute_grid(cfg)
    summary = [_SUMMARY_HEADER]
    for rec in result.records:
        name = f"{rec['method']}_nc{rec['n_c']}_ng{rec['n_g']}.csv"
        rec["trace"].to_csv(outdir / name)
        final = rec["trace"].final()
        summary.append(",".join([
            rec["method"], str(rec["n_c"]), str(rec["n_g"]), _fmt(rec["alpha"]),
            _fmt(rec["beta"]), _fmt(final.opt_err), _fmt(final.x_consensus),
            _fmt(final.y_consensus), _fmt(rec["contraction"]), _fmt(rec["rho"]),
            _fmt(rec["lambda_u"]), _fmt(rec["step_bound"]),
            str(int(rec["admissible"])),
        ]))
    (outdir / "summary.csv").write_text("\n".join(summary) + "\n")
    # the manifest sits in outdir and names input files by content, so it
    # does not depend on where the checkout lives; json writes tuples as lists
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "outdir"}
    if cfg.dataset is not None:
        config["dataset"] = _file_record(cfg.dataset)
    if cfg.custom_matrices is not None:
        config["custom_matrices"] = [_file_record(p) for p in cfg.custom_matrices]
    manifest = {
        "seed": cfg.seed,
        "config": config,
        "versions": {
            "gradtrack": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                                     default=str) + "\n")
    return outdir


_THEORY_HEADER = ("method,n_c,n_g,beta1_pow,beta2_pow,beta3_pow,beta4_pow,alpha,"
                  "rho_theory,lambda_u,step_bound,alpha_admissible,route,"
                  "contraction_measured,beyond_theory,ordering_ok")


def theory_report(cfg: ExperimentConfig, result: GridResult | None = None,
                  stream=None) -> Path:
    """Theory-vs-measurement report over the experiment grid.

    Writes theory_report.csv into cfg.outdir and prints a human-readable
    summary.  Cells whose tuned step size exceeds the sufficient bound are
    flagged "beyond theory" (expected: the bounds are sufficient, not
    necessary).  For every (n_c, n_g) the spectral-radius ordering
    GTA1 >= GTA2 >= GTA3 is checked at a common admissible step size.
    """
    stream = stream or sys.stdout
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if result is None:
        result = execute_grid(cfg)
    suite, w, records = result.suite, result.w, result.records

    ordering_ok = {(n_c, n_g): theory.ordering_holds(w.beta, n_c=n_c, n_g=n_g, L=suite.L,
                                                     mu=suite.mu, n=suite.n)
                   for n_c in sorted({r["n_c"] for r in records})
                   for n_g in sorted({r["n_g"] for r in records})}

    lines = [_THEORY_HEADER]
    for rec in records:
        p = rec["params"]
        beyond = rec["alpha"] > rec["step_bound"]
        lines.append(",".join([
            rec["method"], str(rec["n_c"]), str(rec["n_g"]),
            _fmt(p.b1c), _fmt(p.b2c), _fmt(p.b3c), _fmt(p.b4c), _fmt(rec["alpha"]),
            _fmt(rec["rho"]), _fmt(rec["lambda_u"]), _fmt(rec["step_bound"]),
            str(int(rec["admissible"])), rec["route"], _fmt(rec["contraction"]),
            str(int(beyond)), str(int(ordering_ok[rec["n_c"], rec["n_g"]])),
        ]))
        # a nan contraction measured nothing (too few decaying rows), so
        # nothing was seen to be stable
        tag = (" [contraction not measured]" if math.isnan(rec["contraction"])
               else " [empirically stable beyond theory]" if beyond else "")
        print(f"{rec['method']}(nc={rec['n_c']},ng={rec['n_g']}): "
              f"alpha={rec['alpha']:.3e} bound={rec['step_bound']:.3e} "
              f"rho={rec['rho']:.6g} measured={rec['contraction']:.6g}{tag}",
              file=stream)
    path = outdir / "theory_report.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _file_record(path) -> dict[str, str]:
    """An input file by name and the SHA-256 of its bytes."""
    path = Path(path)
    return {"name": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
