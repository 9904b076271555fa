"""Benchmark core: measure one workload, check its outputs, print metrics.

Closed loop, one caller: every pass and solve runs in this process and
waits for the previous one.  A timed run alternates full workload passes
(wall_s) with time-to-accuracy solves (solve_s) until --seconds are used;
set-up (setup_s) is timed in fresh child processes.  Every timing is
scaled to a reference host speed measured all through the timed call
(hostspeed.py).  A traced run alternates untraced passes with traced
pass + solve rounds and reports the per-layer metrics of tracer.py.
Metrics are medians over the run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradtrack as gt
from gradtrack import harness, tracking

import check
import hostspeed
from env import BENCH_DIR, OUT_DIR, environment, metric_units
from tracer import Tracer, layer_values, traced
from workloads import WORKLOADS, Workload, write_inputs

# Metric name -> unit, as BENCHMARK.json declares them.
END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")

MIN_ROUNDS = 2          # timed rounds per run, even past --seconds
MIN_TRACED_ROUNDS = 1   # a traced round is an untraced pass plus a traced one
SOLVE_SAMPLE_S = 0.5    # the back-to-back solves of one solve_s sample take at least this
MIN_SETUPS, MAX_SETUPS = 3, 15
SETUP_SHARE = 0.1       # set-up probes stop after this share of --seconds
CHILD_TIMEOUT_S = 150
TUNE_SLACK = 1e-9       # relative to the starting error ||x*||


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, findings: dict[str, list[str]]) -> None:
        self.attempted += len(findings)
        self.failures += [f"{op}: {'; '.join(msgs)}" for op, msgs in findings.items() if msgs]


@dataclass
class Solve:
    """The solve cell, prepared outside every timed region."""

    suite: object
    config: tracking.GtaConfig


class Bench:
    """One workload at one seed, with its generated inputs under `tmp`."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, reference: dict | None):
        self.workload = workload
        inputs = tmp / "inputs"
        inputs.mkdir(parents=True)
        self.out = tmp / "artifacts"
        self.config_paths = write_inputs(workload, seed, inputs, self.out)
        self.configs = {name: harness.parse_config(p) for name, p in self.config_paths.items()}
        self.reference = reference
        self.clock = hostspeed.Clock(workload.snippet)
        self.setup_log: list[tuple[float, float]] = []
        self.tally = Tally()
        self.first_files: dict[str, bytes] | None = None
        self.first_findings: dict[str, list[str]] = {}

    # ------------------------------------------------------------- passes

    def _cell_keys(self) -> list[str]:
        return [check.cell_key(name, *cell)
                for name, cfg in self.configs.items() for cell in cfg.cells()]

    def _pass(self) -> None:
        """One workload pass, the way scripts/ run an experiment."""
        for path in self.config_paths.values():
            cfg = harness.parse_config(path)
            result = harness.execute_grid(cfg)
            harness.run_experiment(cfg, result)
            harness.theory_report(cfg, result, stream=io.StringIO())

    def timed_pass(self) -> float:
        """Time of one pass (self.clock); its outputs are checked afterwards."""
        shutil.rmtree(self.out, ignore_errors=True)
        raised = []

        def attempt():
            try:
                self._pass()
            except (harness.TuningError, tracking.DivergenceError) as exc:
                raised.append(exc)

        elapsed = self.clock.time(attempt)
        if raised:
            self.tally.record({key: [f"pass raised {raised[0]}"] for key in self._cell_keys()})
        else:
            self._check_pass()
        return elapsed

    def _check_pass(self) -> None:
        """Check the first pass in full; later passes must repeat it byte for byte."""
        files = check.snapshot(self.out)
        if self.first_files is None:
            self.first_files = files
            for name, cfg in self.configs.items():
                self.first_findings.update(
                    check.check_config(files, name, cfg, self.reference))
            self.tally.record(self.first_findings)
            return
        findings = dict(self.first_findings)
        for name in self.configs:
            mine = {f: b for f, b in files.items() if f.startswith(name + "/")}
            first = {f: b for f, b in self.first_files.items() if f.startswith(name + "/")}
            if mine != first:
                for key in findings:
                    if key.startswith(name + "/"):
                        findings[key] = findings[key] + ["artifacts differ from the first pass"]
        self.tally.record(findings)

    # ------------------------------------------------------------- solve

    def prepare_solve(self) -> Solve:
        """Suite, strategy and the grid-budget tuned step of the solve cell.

        The tuned step is checked on every seed by re-applying the tuning
        rule with single runs: neither 2*alpha nor alpha/2 may reach a lower
        final error (TUNE_SLACK absorbs batched-vs-single rounding)."""
        cell = self.workload.solve
        cfg = self.configs[cell.config]
        suite = harness.build_suite(cfg)
        strategy = harness.build_strategy(cfg, cell.method, harness.build_mixing(cfg), cell.n_c)
        alpha = harness.tune_step_size(suite, strategy, cell.n_g, cfg.tune_budget,
                                       t_range=(cfg.tune_tmin, cfg.tune_tmax))
        x0 = np.zeros(suite.n * suite.d)
        x_star_norm = float(np.linalg.norm(suite.x_star))

        def final_err(step):
            gta = tracking.GtaConfig(strategy=strategy, alpha=step, n_g=cell.n_g,
                                     max_outer_iters=cfg.tune_budget)
            try:
                return float(tracking.run(suite, gta, x0).opt_err[-1])
            except tracking.DivergenceError:
                return math.inf

        found = []
        err = final_err(alpha)
        neighbours = [(2 * alpha, alpha < 2.0 ** -cfg.tune_tmin),
                      (alpha / 2, alpha > 2.0 ** -cfg.tune_tmax)]
        for step, exists in neighbours:
            if exists and final_err(step) < err - TUNE_SLACK * x_star_norm:
                found.append(f"step {step!r} reaches a lower error than the tuned {alpha!r}")
        if self.reference is not None and alpha != float(self.reference["solve_alpha"]):
            found.append(f"alpha {alpha!r} != reference {self.reference['solve_alpha']}")
        self.tally.record({"solve/tune": found})
        return Solve(suite, tracking.GtaConfig(
            strategy=strategy, alpha=alpha, n_g=cell.n_g, max_outer_iters=cell.max_iters,
            stop_tol=cell.rel_err * x_star_norm))

    def _solve(self, solve: Solve) -> None:
        x0 = np.zeros(solve.suite.n * solve.suite.d)
        try:
            trace = tracking.run(solve.suite, solve.config, x0)
        except tracking.DivergenceError as exc:
            self.tally.record({"solve": [str(exc)]})
            return
        final, tol = float(trace.opt_err[-1]), solve.config.stop_tol
        self.tally.record({"solve": [] if np.isfinite(final) and final <= tol else [
            f"opt_err {final:.3e} > stop_tol {tol:.3e} after {trace.k[-1]} iterations"]})

    def timed_solves(self, solve: Solve, min_seconds: float) -> float:
        """Mean time of one solve (self.clock) over back-to-back solves that
        take at least min_seconds together (one solve if it alone takes that)."""
        calls = 0

        def solves():
            nonlocal calls
            t0 = time.perf_counter()
            while calls == 0 or time.perf_counter() - t0 < min_seconds:
                self._solve(solve)
                calls += 1

        return self.clock.time(solves) / calls

    # ------------------------------------------------------------- set-up

    def timed_setups(self, until: float) -> list[float]:
        """Set-up times, each in a fresh process (nothing is reused), taken
        until the perf_counter time `until` (at least MIN_SETUPS); scaled
        like self.clock, with each probe's (wall, calibration) in setup_log."""
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.clock.snippet),
               *map(str, self.config_paths.values())]
        times: list[float] = []
        while len(times) < MIN_SETUPS or (
                len(times) < MAX_SETUPS and time.perf_counter() < until):
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=CHILD_TIMEOUT_S)
            wall, calibration = json.loads(proc.stdout.splitlines()[-1])
            self.setup_log.append((wall, calibration))
            times.append(wall if calibration is None else self.clock.scale(wall, calibration))
        return times


def _rounds(deadline: float, min_rounds: int, round_fn) -> None:
    """Call round_fn until the perf_counter time `deadline` (at least
    min_rounds times), never starting a round that the previous one says
    will overrun."""
    rounds = 0
    while True:
        r0 = time.perf_counter()
        round_fn()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - r0) > deadline:
            return


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then pass + solve rounds, all within one --seconds
    budget; the minimum counts of probes and rounds may overrun it."""
    start = time.perf_counter()
    setups = bench.timed_setups(start + SETUP_SHARE * seconds)
    solve = bench.prepare_solve()
    walls: list[float] = []
    solves: list[float] = []

    def one_round():
        walls.append(bench.timed_pass())
        until = time.perf_counter() + bench.workload.solve_share * bench.clock.log[-1][0]
        solves.append(bench.timed_solves(solve, SOLVE_SAMPLE_S))
        while time.perf_counter() < until:
            solves.append(bench.timed_solves(solve, SOLVE_SAMPLE_S))

    _rounds(start + seconds, MIN_ROUNDS, one_round)
    values = {
        "wall_s": statistics.median(walls),
        "solve_s": statistics.median(solves),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": walls, "solve_s": solves, "setup_s": setups,
               "snippet": bench.clock.snippet,
               "clock_log": bench.clock.log, "setup_log": bench.setup_log}
    return {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}, samples


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    # unscaled: calibration snippets would land in the self time of the
    # wrapped call they interrupt
    bench.clock = hostspeed.Clock(None)
    solve = bench.prepare_solve()
    untraced: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    aggregates: list[dict[str, dict]] = []
    spans: list[list[dict]] = []

    def one_round():
        untraced.append(bench.timed_pass())
        tracer = Tracer()
        with traced(gt, tracer):
            traced_walls.append(bench.timed_pass())
            bench.timed_solves(solve, 0.0)
        layers.append(layer_values(tracer, PER_LAYER))
        aggregates.append({name: vars(agg) for name, agg in tracer.aggregates.items()})
        spans.append([vars(span) for span in tracer.spans])

    _rounds(start + seconds, MIN_TRACED_ROUNDS, one_round)
    values = {m: statistics.median(sample[m] for sample in layers) for m in layers[0]}
    values["trace_overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(untraced) - 1.0)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
    samples = {"wall_s_untraced": untraced, "wall_s_traced": traced_walls,
               "aggregates": aggregates, "spans": spans}
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        bench = Bench(workload, seed, Path(tmp), check.load_reference(name, seed))
        metrics, samples = (traced_run if trace else timed_run)(bench, seconds)
    tally = bench.tally
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(gt), "result": result,
              "failures": tally.failures, "samples": samples}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"workload {name} seed {seed} trace {int(trace)}")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for metric, m in metrics.items():
        print(f"{metric} = {m['value']!r} {m['unit']}")
    print(f"fail_rate = {len(tally.failures) / tally.attempted!r} frac "
          f"({len(tally.failures)} of {tally.attempted} operations failed)")
    if bench.clock.snippet is not None:
        print(f"timings scaled to the reference host speed: {bench.clock.snippet} snippet "
              f"median {statistics.median(c for _, c in bench.clock.log):.5f} s, "
              f"reference {hostspeed.REFERENCE_S[bench.clock.snippet]} s")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    return result


def run_all(seed: int | None, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process (seed None: their default seeds)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(workload.default_seed if seed is None else seed),
             "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S + 10 * seconds)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    return combined


def _seed(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=_seed, default=None,
                   help="input seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
