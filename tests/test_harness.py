import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradtrack as gt
from gradtrack import cli, harness
from gradtrack.harness import (ConfigError, TuningError, measured_contraction,
                               parse_config, run_experiment, theory_report,
                               tune_step_size)
from gradtrack.tracking import RunTrace

from conftest import apply_counting_rounds, as_array


def _write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


MINI_CFG = """
problem = quadratic
n = 2
d = 1
kappa_target = 1
seed = 1
graph = complete
methods = GTA3
nc_grid = 1
ng_grid = 1
budget = 40
tune_budget = 10
outdir = {out}
"""


# ------------------------------------------------------------------- config

def test_parse_full_config(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, """
        # quadratic experiment
        problem = quadratic
        n = 16
        d = 10
        kappa_target = 1e4
        seed = 7
        graph = cycle
        laziness = 0.25
        methods = GTA1,GTA2
        nc_grid = 1,5
        ng_grid = 1
        GTA2.ng_grid = 1,5
        budget = 200            # iterations
        outdir = out
    """))
    assert cfg.n == 16 and cfg.laziness == 0.25
    assert cfg.grids == (("GTA1", (1, 5), (1,)), ("GTA2", (1, 5), (1, 5)))
    assert cfg.tune_budget == 50     # quarter of the budget by default
    assert list(cfg.cells()) == [("GTA1", 1, 1), ("GTA1", 5, 1),
                                 ("GTA2", 1, 1), ("GTA2", 1, 5),
                                 ("GTA2", 5, 1), ("GTA2", 5, 5)]


def test_parse_edge_list_config(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, """
        problem = quadratic
        n = 3
        graph = edge_list
        edges = 0-1, 1-2
        methods = GTA1
        budget = 10
        outdir = out
    """))
    assert cfg.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("override,match", [
    ({"nonsense": "1"}, "unknown config keys"),
    ({"problem": "lasso"}, "quadratic or logreg"),
    ({"methods": "GTA9"}, "unknown method"),
    ({"budget": "0"}, "budget"),
    ({"z1_mode": "maybe"}, "z1_mode"),
    ({"nc_grid": "0"}, "positive integers"),
    ({"GTA2.nc_grid": "2"}, "unknown override"),
    # a NaN or negative stop_tol never stopped a run, inf stopped it at k = 0
    ({"stop_tol": "nan"}, "stop_tol"),
    ({"stop_tol": "inf"}, "stop_tol"),
    ({"stop_tol": "-inf"}, "stop_tol"),
    ({"stop_tol": "-1e-6"}, "stop_tol"),
])
def test_parse_rejects_bad_values(tmp_path, override, match):
    base = {"problem": "quadratic", "n": "4", "graph": "complete",
            "methods": "GTA1", "outdir": "o"}
    base.update(override)
    text = "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"
    with pytest.raises(ConfigError, match=match):
        parse_config(_write_cfg(tmp_path, text))


@pytest.mark.parametrize("override,match", [
    ({"methods": "GTA1,GTA1"}, r"duplicate value 'GTA1' in 'GTA1,GTA1'"),
    ({"methods": "GTA1, GTA3 ,GTA1"}, "duplicate value 'GTA1'"),
    ({"nc_grid": "1,1"}, r"duplicate value 1 in '1,1'"),
    ({"ng_grid": "2 5 2"}, "duplicate value 2"),
    ({"GTA1.nc_grid": "5,1,5"}, "duplicate value 5"),
    ({"GTA1.ng_grid": "3,3"}, "duplicate value 3"),
])
def test_a_method_or_grid_value_listed_twice_is_a_config_error(tmp_path, capsys, override,
                                                               match):
    # a repeated cell would run again, overwrite its trace and repeat its summary row
    text = MINI_CFG.replace("methods = GTA3", "methods = GTA1").format(out=tmp_path / "dup")
    for key, val in override.items():
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith(key + " "))
        text += f"\n{key} = {val}\n"
    path = _write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    assert cli.main(["run", str(path)]) == 2
    assert "duplicate value" in capsys.readouterr().err
    assert not (tmp_path / "dup").exists()


def test_tune_tmax_beyond_the_smallest_double_is_a_config_error(tmp_path, capsys):
    # 2^-1074 is the smallest positive double; 2^-1075 underflows to a zero step
    text = MINI_CFG.format(out=tmp_path / "tm_out")
    ok = _write_cfg(tmp_path, text + "tune_tmin = 1074\ntune_tmax = 1074\n", "ok.cfg")
    assert parse_config(ok).tune_tmax == 1074
    assert cli.main(["tune", str(ok), "--method", "GTA3", "--nc", "1"]) == 0
    bad = _write_cfg(tmp_path, text + "tune_tmax = 1075\n", "bad.cfg")
    with pytest.raises(ConfigError, match="tune_tmax must be <= 1074"):
        parse_config(bad)
    assert cli.main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_parse_rejects_duplicates_and_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write_cfg(tmp_path, "n = 2\nn = 3\n"))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.cfg")


# ------------------------------------------------------------------- tuning

def test_scalar_quadratic_tunes_to_unit_step(scalar_suite):
    w = gt.metropolis_weights(gt.build_graph("complete", 1))
    strat = gt.strategy_for("GTA3", w, 1)
    alpha = tune_step_size(scalar_suite, strat, 1, budget=30)
    assert alpha == 1.0      # 2^0 converges in one step; ties go to larger alpha


def test_tuning_breaks_ties_toward_larger_step(scalar_suite):
    # starting at the optimum every candidate scores zero error
    w = gt.metropolis_weights(gt.build_graph("complete", 1))
    strat = gt.strategy_for("GTA3", w, 1)
    x0 = np.zeros(1)
    cfgs = [gt.GtaConfig(strategy=strat, alpha=2.0**-t, max_outer_iters=5) for t in range(3)]
    finals = [gt.run(scalar_suite, c, x0).opt_err[-1] for c in cfgs]
    assert finals[0] == finals[1] == 0.0
    assert tune_step_size(scalar_suite, strat, 1, budget=5) == 1.0


@pytest.mark.parametrize("method,nc,ng", [("GTA1", 1, 1), ("GTA3", 5, 1), ("GTA2", 2, 3)])
def test_batched_sweep_matches_candidate_by_candidate_runs(method, nc, ng, small_quadratic):
    # the vectorized sweep must select the same winner as running each
    # candidate individually through the reference runtime
    suite = small_quadratic
    w = gt.metropolis_weights(gt.build_graph("cycle", suite.n))
    strat = gt.strategy_for(method, w, nc)
    picked = tune_step_size(suite, strat, ng, budget=120)
    best, best_err = None, np.inf
    x0 = np.zeros(suite.n * suite.d)
    for t in range(21):
        alpha = 2.0**-t
        try:
            trace = gt.run(suite, gt.GtaConfig(strategy=strat, alpha=alpha, n_g=ng,
                                               max_outer_iters=120), x0)
        except gt.DivergenceError:
            continue
        if trace.opt_err[-1] < best_err:
            best, best_err = alpha, trace.opt_err[-1]
    assert picked == best


def _sweep(suite, strategy, n_g, budget, t_range=(0, 20)):
    """Each candidate's outcome in tune_step_size's sweep, read from the
    RunStack it ran: the final ErrorVector, or the DivergenceError."""
    stacks = []
    real = harness.RunStack

    def keep(*args, **kwargs):
        stacks.append(real(*args, **kwargs))
        return stacks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "RunStack", keep)
        try:
            tune_step_size(suite, strategy, n_g, budget, t_range)
        except TuningError:
            pass
    (stack,) = stacks
    return [stack.outcome(j) for j in range(len(stack.cfgs))]


def _died_at(outcome):
    """A sweep candidate's divergence step, or None if it finished."""
    return outcome.k if isinstance(outcome, gt.DivergenceError) else None


class _StepwiseQuadratic(gt.QuadraticSuite):
    """A quadratic suite that hides its closed form: advance steps it."""

    closed_form = False

    def local_steps(self, alpha, m):
        return None


def test_closed_form_and_stepwise_sweeps_agree_on_the_shipped_cyclic_grid():
    # every n_g > 1 cell of configs/quadratic_cyclic.cfg at a short tuning
    # budget: the same winner and the same step of death for each candidate
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs"
                       / "quadratic_cyclic.cfg")
    closed = harness.build_suite(cfg)
    stepwise = _StepwiseQuadratic(closed.qs, closed.bs)
    w = harness.build_mixing(cfg)
    t_range = (cfg.tune_tmin, cfg.tune_tmax)
    died = 0
    for method, nc_grid, ng_grid in cfg.grids:
        for n_c in nc_grid:
            strategy = harness.build_strategy(cfg, method, w, n_c)
            for n_g in (g for g in ng_grid if g > 1):
                a = _sweep(closed, strategy, n_g, 20, t_range)
                b = _sweep(stepwise, strategy, n_g, 20, t_range)
                assert [_died_at(r) for r in a] == [_died_at(r) for r in b], (method, n_c, n_g)
                died += sum(_died_at(r) is not None for r in a)
                errs = [[math.inf if _died_at(r) else r.opt_err for r in rec]
                        for rec in (a, b)]
                assert np.argmin(errs[0]) == np.argmin(errs[1]), (method, n_c, n_g)
                assert errs[0] == pytest.approx(errs[1], rel=1e-9)
    assert died > 0


def test_sweep_drops_candidates_whose_consensus_diverges(mirrored_pair):
    # every candidate keeps opt_err at exactly 0, but alpha = 1 drives the
    # two nodes apart, so the tie goes to the largest step that stays bounded
    suite, strat = mirrored_pair
    assert tune_step_size(suite, strat, 1, budget=100, t_range=(0, 3)) == 0.5


@pytest.mark.parametrize("problem", ["quadratic", "logistic"])
@pytest.mark.parametrize("method,nc,ng", [("GTA1", 2, 1), ("GTA2", 1, 3), ("GTA3", 3, 2)])
def test_every_sweep_candidate_matches_its_single_run(problem, method, nc, ng, small_quadratic):
    # each candidate's record in the batched sweep against one tracking.run
    # at its alpha: final errors for survivors, the step of death otherwise
    if problem == "quadratic":
        suite, budget = small_quadratic, 40
    else:
        suite, budget = gt.logreg_suite(gt.load_libsvm("data/synth_binary.libsvm", 8)), 25
    w = gt.metropolis_weights(gt.build_graph("cycle", suite.n))
    strat = gt.strategy_for(method, w, nc)
    alphas = 2.0 ** -np.arange(21.0)
    record = _sweep(suite, strat, ng, budget)
    assert len(record) == 21
    x0 = np.zeros(suite.n * suite.d)
    finished = 0
    for alpha, rec in zip(alphas, record):
        cfg = gt.GtaConfig(strategy=strat, alpha=alpha, n_g=ng, max_outer_iters=budget)
        if _died_at(rec):
            with pytest.raises(gt.DivergenceError) as err:
                gt.run(suite, cfg, x0)
            assert err.value.k == rec.k
            continue
        final = as_array(gt.run(suite, cfg, x0).final())
        # the compared (tuned-on) error to 1e-12 relative; the consensus
        # errors are differences of nearly equal copies, so their rounding
        # is absolute, on the scale of eps * ||x||
        assert rec.opt_err == pytest.approx(final[0], rel=1e-12, abs=0.0)
        assert as_array(rec)[1:] == pytest.approx(final[1:], rel=1e-12, abs=1e-14)
        finished += 1
    assert finished >= 10


def test_a_sweep_mixes_its_live_candidates_as_one_block(small_quadratic, monkeypatch):
    # 21 candidates of one GTA3 strategy: each update is one mixing apply on
    # the whole live stack, C-ordered, also once diverged candidates have left
    suite = small_quadratic
    strat = gt.strategy_for("GTA3", gt.metropolis_weights(gt.build_graph("cycle", suite.n)), 1)
    widths, applies = [], []
    real_step, real_mix = gt.tracking.outer_step, gt.tracking._mix

    def stepping(state, cfg):
        widths.append(state.x.shape[2])
        return real_step(state, cfg)

    def mixing(strategy, slot, v):
        applies.append((v.shape[2], v.flags.c_contiguous))
        return real_mix(strategy, slot, v)

    monkeypatch.setattr(gt.tracking, "outer_step", stepping)
    monkeypatch.setattr(gt.tracking, "_mix", mixing)
    tune_step_size(suite, strat, 1, budget=40)
    assert widths[0] == 21 and widths[-1] < 21
    assert applies == [(w, True) for w in widths for _ in range(2)]


def test_a_sweep_without_divergence_takes_no_error_row_per_iteration(small_quadratic,
                                                                       monkeypatch):
    # the pre-check clears every step; the errors are taken at the budget:
    # one state's row, whatever the budget
    suite = small_quadratic
    strat = gt.strategy_for("GTA3", gt.metropolis_weights(gt.build_graph("cycle", suite.n)), 1)
    assert not any(_died_at(o) for o in _sweep(suite, strat, 1, 40, (4, 20)))
    states = []
    real = gt.tracking.error_rows

    def counting(x, y, s):
        states[-1] += len(x)
        return real(x, y, s)

    monkeypatch.setattr(gt.tracking, "error_rows", counting)
    for budget in (10, 40):
        states.append(0)
        tune_step_size(suite, strat, 1, budget=budget, t_range=(4, 20))
    assert states == [1, 1]


@pytest.mark.parametrize("problem,n_g", [("quadratic", 1), ("quadratic", 3), ("logistic", 2)])
def test_a_one_candidate_sweep_is_its_one_cell_run(problem, n_g, small_quadratic):
    # tune_tmin == tune_tmax: the sweep's final errors are the last row of
    # the run at that step size, bit for bit
    suite = (small_quadratic if problem == "quadratic"
             else gt.logreg_suite(gt.load_libsvm("data/synth_binary.libsvm", 8)))
    strat = gt.strategy_for("GTA2", gt.metropolis_weights(gt.build_graph("cycle", suite.n)), 2)
    (got,) = _sweep(suite, strat, n_g, 25, (6, 6))
    cfg = gt.GtaConfig(strategy=strat, alpha=2.0 ** -6, n_g=n_g, max_outer_iters=25)
    assert np.array_equal(as_array(got),
                          as_array(gt.run(suite, cfg, np.zeros(suite.n * suite.d)).final()))


def test_an_all_diverging_sweep_reports_each_candidates_run_k(small_quadratic):
    # seven candidates that diverge at seven different steps
    suite = small_quadratic
    strat = gt.strategy_for("GTA1", gt.metropolis_weights(gt.build_graph("cycle", suite.n)), 1)
    with pytest.raises(TuningError) as err:
        tune_step_size(suite, strat, 1, budget=100, t_range=(0, 6))
    want = []
    for t in range(7):
        with pytest.raises(gt.DivergenceError) as run_err:
            gt.run(suite, gt.GtaConfig(strategy=strat, alpha=2.0 ** -t, max_outer_iters=100),
                   np.zeros(suite.n * suite.d))
        want.append((t, f"diverged at k={run_err.value.k}"))
    assert err.value.diagnostics == want
    assert len({msg for _, msg in want}) == 7


def test_all_candidates_diverging_raises_with_diagnostics():
    # an unstable rig: large quadratic curvature with a forced huge step range
    suite = gt.QuadraticSuite([[[1e9]]], [[1.0]])
    w = gt.metropolis_weights(gt.build_graph("complete", 1))
    strat = gt.strategy_for("GTA1", w, 1)
    with pytest.raises(TuningError) as err:
        tune_step_size(suite, strat, 1, budget=4000, t_range=(0, 5))
    assert len(err.value.diagnostics) == 6
    assert all("diverged" in msg for _, msg in err.value.diagnostics)


_PRECEDENCE_CFG = """
problem = quadratic
n = 4
d = 2
kappa_target = 100
graph = cycle
methods = GTA1,GTA2
ng_grid = 1,5
budget = 200
tune_budget = 5
outdir = {out}
"""


@pytest.mark.parametrize("plan,raised,cell", [
    # cells run in the order (GTA1, 1), (GTA1, 5), (GTA2, 1), (GTA2, 5), all
    # as one stack, yet the first failing cell in that order wins
    ({("GTA1", 5): "diverge", ("GTA2", 1): "tune"}, gt.DivergenceError, ("GTA1", 5)),
    ({("GTA1", 5): "tune", ("GTA2", 1): "diverge"}, TuningError, ("GTA1", 5)),
    ({("GTA1", 5): "diverge", ("GTA2", 1): "diverge"}, gt.DivergenceError, ("GTA1", 5)),
    ({("GTA2", 1): "diverge", ("GTA2", 5): "tune"}, gt.DivergenceError, ("GTA2", 1)),
])
def test_the_first_failing_cell_in_cell_order_is_reported(plan, raised, cell, tmp_path,
                                                          monkeypatch):
    tuned = []

    def tune(suite, strategies, n_gs, budget, t_range):
        # one call per mixing power, for all cells of its strategies
        tuned.append(tuple((st.name, n_g) for st, n_g in zip(strategies, n_gs)))
        actions = [plan.get((st.name, n_g)) for st, n_g in zip(strategies, n_gs)]
        # a unit step diverges on this suite (L ~ 100) within a few iterations
        return [TuningError([(0, "diverged at k=1")]) if action == "tune"
                else 1.0 if action == "diverge" else 2.0 ** -10 for action in actions]

    monkeypatch.setattr(harness, "tune_step_size", tune)
    parts = _grid_parts(monkeypatch)
    cfg = parse_config(_write_cfg(tmp_path, _PRECEDENCE_CFG.format(out=tmp_path / "out")))
    with pytest.raises(raised, match=rf"^cell \({cell[0]}, n_c=1, n_g={cell[1]}\): "):
        harness.execute_grid(cfg)
    # GTA1 and GTA2 at n_c = 1 mix through one power, so all four cells tune
    # in one call, whichever fails; only the cells before the first cell
    # that fails tuning run
    order = [("GTA1", 1), ("GTA1", 5), ("GTA2", 1), ("GTA2", 5)]
    stop = next((i for i, c in enumerate(order) if plan.get(c) == "tune"), len(order))
    assert tuned == [tuple(order)]
    assert parts == [[(method, 1, n_g) for method, n_g in order[:stop]]]


@pytest.mark.parametrize("failing,tuned_n_c,ran", [
    # cell order (GTA1, 1), (GTA1, 2), (GTA2, 1), (GTA2, 2); the power
    # groups are n_c = 1 (its first strategy (GTA1, 1)) and n_c = 2 ((GTA1, 2))
    ("GTA1", [1], []),
    ("GTA2", [1, 2], [[("GTA1", 1, 1), ("GTA1", 2, 1)]]),
])
def test_tuning_stops_at_the_first_power_group_after_the_failing_cell(
        failing, tuned_n_c, ran, tmp_path, monkeypatch):
    tuned = []

    def tune(suite, strategies, n_gs, budget, t_range):
        tuned.append(strategies[0].n_c)
        return [TuningError([(0, "diverged at k=1")]) if (st.name, st.n_c) == (failing, 1)
                else 2.0 ** -10 for st in strategies]

    monkeypatch.setattr(harness, "tune_step_size", tune)
    parts = _grid_parts(monkeypatch)
    text = _PRECEDENCE_CFG.format(out=tmp_path / "out").replace("ng_grid = 1,5",
                                                                "nc_grid = 1,2")
    with pytest.raises(TuningError, match=rf"^cell \({failing}, n_c=1, n_g=1\): "):
        harness.execute_grid(parse_config(_write_cfg(tmp_path, text)))
    assert tuned == tuned_n_c
    assert parts == ran


def _grid_parts(monkeypatch):
    """The cells of every part the grid's run stack runs (with trace, not
    its sweeps), as (method, n_c, n_g), one list per part, in the order the
    parts ran."""
    parts = []
    real = gt.tracking.RunStack._run

    def counting(self, cfgs):
        if self.trace:
            parts.append([(c.strategy.name, c.strategy.n_c, c.n_g) for c in cfgs])
        return real(self, cfgs)

    monkeypatch.setattr(gt.tracking.RunStack, "_run", counting)
    return parts


def _assert_traces_agree(records, alone):
    """A stacked grid's records against those of the grid run cell by cell."""
    for a, b in zip(records, alone, strict=True):
        assert a["alpha"] == b["alpha"]
        for col, ref in zip(a["trace"].error_matrix().T, b["trace"].error_matrix().T):
            assert len(col) == len(ref)
            assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_the_grid_stacks_groups_within_the_float_bound_and_runs_others_alone(tmp_path,
                                                                              monkeypatch):
    text = _PRECEDENCE_CFG.format(out=tmp_path / "out").replace("tune_budget = 5", "tune_budget = 50")
    cfg = parse_config(_write_cfg(tmp_path, text))
    parts = _grid_parts(monkeypatch)
    stacked = harness.execute_grid(cfg)
    # four cells of n = 4: 4 * 4 * 8 = 128 floats per slot pair's blocks,
    # and a quadratic steps distinct n_g together
    assert parts == [[("GTA1", 1, 1), ("GTA1", 1, 5), ("GTA2", 1, 1), ("GTA2", 1, 5)]]
    # below that, the grid falls back to one part per strategy over its n_g
    # (2 * 4 * 8 floats)
    parts.clear()
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 127)
    by_strategy = harness.execute_grid(cfg)
    assert parts == [[("GTA1", 1, 1), ("GTA1", 1, 5)], [("GTA2", 1, 1), ("GTA2", 1, 5)]]
    # and below that each cell runs alone
    parts.clear()
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 63)
    alone = harness.execute_grid(cfg)
    assert parts == [[("GTA1", 1, 1)], [("GTA1", 1, 5)], [("GTA2", 1, 1)], [("GTA2", 1, 5)]]
    _assert_traces_agree(stacked.records, alone.records)
    _assert_traces_agree(by_strategy.records, alone.records)


def test_a_grid_past_the_float_bound_runs_each_part_on_its_first_cells_run(tmp_path,
                                                                           monkeypatch):
    # the grid's one RunStack runs a part only when the first of its cells
    # is run, so a cell that diverges stops the grid before later parts run
    text = _PRECEDENCE_CFG.format(out=tmp_path / "out").replace("tune_budget = 5", "tune_budget = 50")
    cfg = parse_config(_write_cfg(tmp_path, text))
    events = []
    real_run, real_part = harness.run, gt.tracking.RunStack._run

    def running(suite, cell, x0, stack):
        events.append(("run", cell.strategy.name, cell.n_g))
        return real_run(suite, cell, x0, stack)

    def part(self, cfgs):
        events.append(("part", [(c.strategy.name, c.n_g) for c in cfgs]))
        return real_part(self, cfgs)

    monkeypatch.setattr(harness, "run", running)
    monkeypatch.setattr(gt.tracking.RunStack, "_run", part)
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 127)
    harness.execute_grid(cfg)
    # the sweeps' parts run first, in tune_step_size; then GTA1's cells
    # share one part, and so do GTA2's (2 * 4 * 8 floats each)
    runs = events[[e[0] for e in events].index("run"):]
    assert runs == [("run", "GTA1", 1), ("part", [("GTA1", 1), ("GTA1", 5)]), ("run", "GTA1", 5),
                    ("run", "GTA2", 1), ("part", [("GTA2", 1), ("GTA2", 5)]), ("run", "GTA2", 5)]
    # past the bound for two cells, each cell is a part of its own; (GTA1, 5)
    # diverges, so GTA2's parts never run
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 63)
    monkeypatch.setattr(harness, "tune_step_size", lambda suite, strategies, n_gs, budget, t_range: [
        1.0 if (st.name, g) == ("GTA1", 5) else 2.0 ** -10 for st, g in zip(strategies, n_gs)])
    events.clear()
    with pytest.raises(gt.DivergenceError, match=r"^cell \(GTA1, n_c=1, n_g=5\): "):
        harness.execute_grid(cfg)
    assert events == [("run", "GTA1", 1), ("part", [("GTA1", 1)]),
                      ("run", "GTA1", 5), ("part", [("GTA1", 5)])]


def test_a_grid_whose_merged_sweep_is_not_batchable_sweeps_one_strategy_at_a_time(
        tmp_path, monkeypatch):
    # GTA1 and GTA2 at n_c = 1 share one power, so they tune in one call: 84
    # candidates of n = 4 in one sweep (84 * 2 * 16 floats).  Below that
    # bound each strategy sweeps alone, over both n_g while its 42
    # candidates fit and else per n_g, as a large torus does, with the same
    # tuned step sizes
    text = _PRECEDENCE_CFG.format(out=tmp_path / "out").replace("tune_budget = 5", "tune_budget = 50")
    cfg = parse_config(_write_cfg(tmp_path, text))
    calls, sweeps = [], []
    real_tune, real_part = harness.tune_step_size, gt.tracking.RunStack._run

    def tune(suite, strategies, n_gs, budget, t_range):
        calls.append(len(n_gs))
        return real_tune(suite, strategies, n_gs, budget, t_range)

    def part(self, cfgs):
        if not self.trace:
            sweeps.append(sorted({(c.strategy.name, c.n_g) for c in cfgs}))
        return real_part(self, cfgs)

    monkeypatch.setattr(harness, "tune_step_size", tune)
    monkeypatch.setattr(gt.tracking.RunStack, "_run", part)
    alphas = []
    for bound, want in [
            (84 * 32, [[("GTA1", 1), ("GTA1", 5), ("GTA2", 1), ("GTA2", 5)]]),
            (84 * 32 - 1, [[("GTA1", 1), ("GTA1", 5)], [("GTA2", 1), ("GTA2", 5)]]),
            (42 * 32 - 1, [[("GTA1", 1)], [("GTA1", 5)], [("GTA2", 1)], [("GTA2", 5)]])]:
        calls.clear()
        sweeps.clear()
        monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", bound)
        alphas.append([rec["alpha"] for rec in harness.execute_grid(cfg).records])
        assert calls == [4]
        assert sweeps == want
    assert alphas[0] == alphas[1] == alphas[2]


def test_a_logistic_grid_stacks_its_cells_per_n_g(tmp_path, monkeypatch):
    # a logistic suite steps its local steps one at a time, for all columns
    # of a stack at once, so its cells and sweeps stack per n_g; GTA1 and
    # GTA3 at n_c = 1 share one power, so one sweep per n_g tunes both
    text = ("problem = logreg\ndataset = data/synth_binary.libsvm\nn = 4\ngraph = cycle\n"
            "methods = GTA1,GTA3\nng_grid = 1,3\nbudget = 30\ntune_budget = 10\n"
            "tune_tmin = 0\ntune_tmax = 4\noutdir = {out}\n")
    widths = []
    real = gt.tracking.RunStack._run

    def counting(self, cfgs):
        widths.append((self.trace, sorted({c.n_g for c in cfgs})))
        return real(self, cfgs)

    monkeypatch.setattr(gt.tracking.RunStack, "_run", counting)
    harness.execute_grid(parse_config(_write_cfg(tmp_path, text.format(out=tmp_path / "o"))))
    assert widths == [(False, [1]), (False, [3]), (True, [1]), (True, [3])]


def test_a_grid_of_single_step_cells_never_eigensolves_its_quadratic(tmp_path):
    # every cell at n_g = 1 takes no local step, so the closed form, and the
    # eigensolve of the Q_i it needs, is never built (as on a large torus)
    text = ("problem = quadratic\nn = 6\nd = 3\nkappa_target = 20\ngraph = cycle\n"
            "methods = GTA1,GTA3\nnc_grid = 1,2\nbudget = 30\ntune_budget = 10\n"
            "outdir = {out}\n")
    single = harness.execute_grid(parse_config(_write_cfg(
        tmp_path, text.format(out=tmp_path / "a"), "a.cfg")))
    assert single.suite._eig is None
    multi = harness.execute_grid(parse_config(_write_cfg(
        tmp_path, text.format(out=tmp_path / "b") + "ng_grid = 1,2\n", "b.cfg")))
    assert multi.suite._eig is not None


def test_a_merged_sweep_builds_its_closed_form_once_per_part(monkeypatch):
    # GTA1, GTA2 and GTA3 at n_c = 1 over n_g = 1 and 5 tune as one part of
    # 126 candidates, whose large step sizes diverge at several k: the
    # closed-form factor is built once and narrowed at each departure
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=16, d=10, kappa_target=1e4, seed=7))
    w = gt.metropolis_weights(gt.build_graph("cycle", 16))
    cells = [(gt.strategy_for(method, w, 1), n_g) for method in ("GTA1", "GTA2", "GTA3")
             for n_g in (1, 5)]
    builds, parts, outcomes = [], [], []
    real_steps, real_run = gt.problems.QuadraticSuite.local_steps, gt.tracking.RunStack._run

    def building(self, alpha, m):
        builds.append(m)
        return real_steps(self, alpha, m)

    def running(self, cfgs):
        parts.append(len(cfgs))
        outcomes.extend(real_run(self, cfgs))
        return outcomes[-len(cfgs):]

    monkeypatch.setattr(gt.problems.QuadraticSuite, "local_steps", building)
    monkeypatch.setattr(gt.tracking.RunStack, "_run", running)
    harness.tune_step_size(suite, [st for st, _ in cells], [n_g for _, n_g in cells], 100)
    assert parts == [126]
    assert len({o.k for o in outcomes if isinstance(o, gt.DivergenceError)}) >= 3
    assert len(builds) == 1


def test_a_grid_on_a_gather_round_matrix_runs_its_cells_alone(tmp_path, monkeypatch):
    # on a 256-cycle W^1 runs as gather rounds, but the float bound keeps
    # the grid apart first: one n = 256 cell alone needs 256 * 512 floats
    text = ("problem = quadratic\nn = 256\nd = 2\nkappa_target = 10\ngraph = cycle\n"
            "methods = GTA1,GTA3\nnc_grid = 1,5\nbudget = 20\ntune_budget = 5\n"
            "tune_tmin = 2\ntune_tmax = 8\noutdir = {out}\n")
    parts = _grid_parts(monkeypatch)
    alone = harness.execute_grid(parse_config(_write_cfg(
        tmp_path, text.format(out=tmp_path / "a"), "a.cfg")))
    assert 256 * 512 > gt.tracking.BATCH_MAX_FLOATS
    assert parts == [[("GTA1", 1, 1)], [("GTA1", 5, 1)], [("GTA3", 1, 1)], [("GTA3", 5, 1)]]
    parts.clear()
    # with the bound raised to the group's four cells, the gather-round
    # slots mix through their dense power in the batched product
    monkeypatch.setattr(gt.tracking, "BATCH_MAX_FLOATS", 4 * 256 * 512)
    stacked = harness.execute_grid(parse_config(_write_cfg(
        tmp_path, text.format(out=tmp_path / "b"), "b.cfg")))
    assert parts == [[("GTA1", 1, 1), ("GTA1", 5, 1), ("GTA3", 1, 1), ("GTA3", 5, 1)]]
    _assert_traces_agree(stacked.records, alone.records)


def test_measured_contraction_recovers_geometric_rate():
    k = np.arange(60)
    errs = 0.9**k
    trace = RunTrace(k=k, opt_err=errs, x_consensus_err=0.5 * errs,
                     y_consensus_err=0.1 * errs, n_c=1, n_g=1, n=2,
                     vectors_per_round=1)
    assert measured_contraction(trace) == pytest.approx(0.9, rel=1e-12)


# ----------------------------------------------------------- run_experiment

def test_run_experiment_minimal(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "out")))
    outdir = run_experiment(cfg)
    trace_file = outdir / "GTA3_nc1_ng1.csv"
    assert trace_file.exists()
    lines = trace_file.read_text().splitlines()
    assert lines[0] == "k,comms_cumulative,grads_cumulative,opt_err,x_consensus_err,y_consensus_err"
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        assert int(row[0]) == i
        assert int(row[1]) == i * 1
        assert int(row[2]) == i * 1 * 2
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,n_c,n_g,alpha,beta,final_opt_err")
    assert summary[1].startswith("GTA3,1,1,")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert "numpy" in manifest["versions"]


def test_run_experiment_is_byte_reproducible(tmp_path):
    cfg_a = parse_config(_write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "a"), "a.cfg"))
    cfg_b = parse_config(_write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "b"), "b.cfg"))
    out_a = run_experiment(cfg_a)
    out_b = run_experiment(cfg_b)
    ta = (out_a / "GTA3_nc1_ng1.csv").read_bytes()
    tb = (out_b / "GTA3_nc1_ng1.csv").read_bytes()
    assert ta == tb
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_theory_report_flags_and_ordering(tmp_path, capsys):
    cfg = parse_config(_write_cfg(tmp_path, """
        problem = quadratic
        n = 6
        d = 3
        kappa_target = 20
        seed = 3
        graph = cycle
        methods = GTA1,GTA2,GTA3
        nc_grid = 1,2
        budget = 300
        tune_budget = 60
        outdir = {out}
    """.format(out=tmp_path / "rep")))
    path = theory_report(cfg)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("method,n_c,n_g,beta1_pow")
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 6
    cols = lines[0].split(",")
    i_ord = cols.index("ordering_ok")
    i_beyond = cols.index("beyond_theory")
    assert all(row[i_ord] == "1" for row in body)
    # tuned steps normally sit beyond the sufficient bounds
    assert any(row[i_beyond] == "1" for row in body)
    printed = capsys.readouterr().out
    assert "beyond theory" in printed


@pytest.mark.parametrize("extra", ["budget = 1\ntune_budget = 1", "stop_tol = 1e300"])
def test_theory_report_tags_an_unmeasured_cell_as_not_measured(extra, tmp_path):
    # one row past k = 0, or a stop_tol met at k = 0, leaves no decay to
    # measure: contraction_measured is nan, and the printed line must not
    # call the cell empirically stable
    text = """
        problem = quadratic
        n = 6
        d = 3
        kappa_target = 20
        seed = 3
        graph = cycle
        methods = GTA1,GTA3
        outdir = {out}
    """.format(out=tmp_path / "rep") + "\n".join("        " + line for line in extra.split("\n"))
    cfg = parse_config(_write_cfg(tmp_path, text))
    stream = io.StringIO()
    lines = theory_report(cfg, stream=stream).read_text().splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    assert rows and all(row["contraction_measured"] == "nan" for row in rows)
    printed = stream.getvalue().splitlines()
    assert len(printed) == len(rows)
    for line in printed:
        assert line.endswith(" [contraction not measured]")
        assert "empirically stable" not in line


def test_theory_report_routes_exact_averaging_to_reduced_analysis(tmp_path, capsys):
    cfg = parse_config(_write_cfg(tmp_path, f"""
        problem = quadratic
        n = 4
        d = 2
        kappa_target = 10
        seed = 5
        graph = complete
        methods = GTA1,GTA2,GTA3
        budget = 60
        tune_budget = 60
        outdir = {tmp_path / 'fc'}
    """))
    path = theory_report(cfg)
    capsys.readouterr()
    lines = path.read_text().splitlines()
    cols = lines[0].split(",")
    i_route = cols.index("route")
    routes = {line.split(",")[0]: line.split(",")[i_route] for line in lines[1:]}
    assert routes["GTA2"] == "fully_connected"
    assert routes["GTA3"] == "fully_connected"
    assert routes["GTA1"] == "general"


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=64))
def test_every_complete_graph_takes_the_fully_connected_route(tmp_path_factory, n):
    # eigensolver noise puts beta near 6e-17 instead of 0 for most n
    out = tmp_path_factory.mktemp("fc")
    cfg = parse_config(_write_cfg(out, f"""
        problem = quadratic
        n = {n}
        d = 2
        kappa_target = 10
        seed = 3
        graph = complete
        methods = GTA2,GTA3
        nc_grid = 1,2
        budget = 2
        tune_budget = 2
        tune_tmax = 8
        outdir = {out}
    """))
    lines = theory_report(cfg, stream=io.StringIO()).read_text().splitlines()
    cols = lines[0].split(",")
    for row in (dict(zip(cols, line.split(","))) for line in lines[1:]):
        assert row["route"] == "fully_connected"
        assert row["beta1_pow"] == "0"
        if row["alpha_admissible"] == "1":
            assert math.isfinite(float(row["rho_theory"]))


def test_summary_contraction_bounded_by_theory_when_admissible(tmp_path):
    # wherever the tuned step is inside the sufficient bound, the measured
    # asymptotic contraction must not exceed the certified spectral radius
    # by more than 0.02 (rows without a measurable decay report nan)
    cfg = parse_config(_write_cfg(tmp_path, f"""
        problem = logreg
        dataset = data/synth_binary.libsvm
        n = 8
        graph = cycle
        methods = GTA2,GTA3
        nc_grid = 1,5
        budget = 400
        tune_budget = 100
        outdir = {tmp_path / 'lgsum'}
    """))
    outdir = run_experiment(cfg)
    rows = [line.split(",") for line in
            (outdir / "summary.csv").read_text().splitlines()[1:]]
    cols = (outdir / "summary.csv").read_text().splitlines()[0].split(",")
    i_m = cols.index("contraction_measured")
    i_r = cols.index("rho_theory")
    i_a = cols.index("alpha_admissible")
    checked = 0
    for row in rows:
        if row[i_a] == "1" and row[i_m] != "nan" and row[i_r] != "nan":
            assert float(row[i_m]) <= float(row[i_r]) + 0.02
            checked += 1
    assert checked > 0


def test_run_experiment_custom_method(tmp_path):
    w = gt.metropolis_weights(gt.build_graph("cycle", 4))
    for i in range(1, 5):
        gt.topology.write_matrix_csv(w.w, tmp_path / f"w{i}.csv")
    cfg = parse_config(_write_cfg(tmp_path, """
        problem = quadratic
        n = 4
        d = 2
        kappa_target = 5
        seed = 2
        graph = cycle
        methods = custom
        custom_w1 = {d}/w1.csv
        custom_w2 = {d}/w2.csv
        custom_w3 = {d}/w3.csv
        custom_w4 = {d}/w4.csv
        budget = 50
        tune_budget = 10
        outdir = {d}/out
    """.format(d=tmp_path)))
    outdir = run_experiment(cfg)
    assert (outdir / "custom_nc1_ng1.csv").exists()


@pytest.mark.parametrize("method", ["GTA1", "GTA3"])
def test_sweep_columns_match_single_runs_on_gather_rounds(method):
    # a 192-cycle: 3 nonzeros per row, so W^1 runs as gather rounds
    suite = gt.generate_quadratic(gt.QuadraticSpec(n=192, d=3, kappa_target=30.0, seed=4))
    w = gt.metropolis_weights(gt.build_graph("cycle", 192))
    strat = gt.strategy_for(method, w, 1)
    assert strat.slots[0] is w
    assert apply_counting_rounds(w, np.ones((192, 1)), 1)[1] == [1]
    alphas = 2.0 ** -np.arange(21.0)
    budget = 30
    record = _sweep(suite, strat, 1, budget)
    x0 = np.zeros(suite.n * suite.d)
    finished = 0
    for alpha, rec in zip(alphas, record):
        cfg = gt.GtaConfig(strategy=strat, alpha=alpha, max_outer_iters=budget)
        if _died_at(rec):
            with pytest.raises(gt.DivergenceError) as err:
                gt.run(suite, cfg, x0)
            assert err.value.k == rec.k
            continue
        final = as_array(gt.run(suite, cfg, x0).final())
        # the same tolerances as on dense products: the mixing bits agree,
        # the batched gradient's need not
        assert rec.opt_err == pytest.approx(final[0], rel=1e-12, abs=0.0)
        assert as_array(rec)[1:] == pytest.approx(final[1:], rel=1e-12, abs=1e-14)
        finished += 1
    assert finished >= 10


# Largest difference between a trace column on gather rounds and on dense
# products, relative to the column's largest value (measured: up to 1.6e-14)
_ROUNDS_TRACE_RTOL = 1e-13


def test_an_18x18_torus_grid_tunes_and_traces_alike_on_rounds_and_dense(tmp_path, monkeypatch):
    side = 18
    edges = [(r * side + c, r * side + (c + 1) % side) for r in range(side) for c in range(side)]
    edges += [(r * side + c, ((r + 1) % side) * side + c)
              for r in range(side) for c in range(side)]
    cfg = parse_config(_write_cfg(tmp_path, f"""
        problem = quadratic
        n = {side * side}
        d = 4
        kappa_target = 100
        seed = 0
        graph = edge_list
        edges = {",".join(f"{i}-{j}" for i, j in edges)}
        methods = GTA1,GTA3
        nc_grid = 1,10
        budget = 40
        tune_budget = 20
        outdir = {tmp_path / 'out'}
    """))
    rounds = harness.execute_grid(cfg)
    # the table and the n_c = 10 power only: no dense W and no identity
    assert rounds.w.table is not None and rounds.w.dense is None
    assert set(rounds.w._powers) == {10}
    monkeypatch.setattr(gt.topology, "ROUND_COST", math.inf)     # dense products only
    dense = harness.execute_grid(cfg)
    assert dense.w.table is None
    assert len(rounds.records) == len(dense.records) == 4
    for a, b in zip(rounds.records, dense.records):
        assert a["alpha"] == b["alpha"]
        ea, eb = a["trace"].error_matrix(), b["trace"].error_matrix()
        assert ea.shape == eb.shape
        assert np.all(np.abs(ea - eb) <= _ROUNDS_TRACE_RTOL * np.max(np.abs(eb), axis=0))


def test_custom_matrices_are_read_powered_and_eigensolved_once_per_grid(tmp_path,
                                                                        monkeypatch):
    # three files, two of them repeated; n_c in {1, 5} and two n_g values
    tree = gt.metropolis_weights(gt.build_graph("edge_list", 4, edges=[(0, 1), (1, 2),
                                                                       (2, 3)])).w
    gt.topology.write_matrix_csv(tree, tmp_path / "T.csv")
    cfg = _custom_cfg(tmp_path, "WITW")
    cfg = dataclasses.replace(cfg, grids=(("custom", (1, 5), (1, 2)),))
    calls = {"read_matrix_csv": 0, "matrix_power": 0, "compute_beta": 0}
    for owner, name in ((harness, "read_matrix_csv"), (gt.topology, "matrix_power"),
                        (gt.topology, "compute_beta")):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    result = harness.execute_grid(cfg)
    assert len(result.records) == 4
    # W's beta (no identity matrix is built); each of the three distinct
    # matrices: one beta, and each of the two that exchange anything one
    # power for n_c = 5 (its first power is the matrix itself; the identity
    # slot takes no product)
    assert calls == {"read_matrix_csv": 3, "matrix_power": 2,
                     "compute_beta": 1 + 3}


def _custom_cfg(tmp_path, slots, methods="custom"):
    """A 4-cycle config whose custom slots are W or I (by letter)."""
    w = gt.metropolis_weights(gt.build_graph("cycle", 4))
    gt.topology.write_matrix_csv(w.w, tmp_path / "W.csv")
    gt.topology.write_matrix_csv(np.eye(4), tmp_path / "I.csv")
    lines = [f"custom_w{i} = {tmp_path / (k + '.csv')}" for i, k in enumerate(slots, 1)]
    return parse_config(_write_cfg(tmp_path, "\n".join(lines) + f"""
        problem = quadratic
        n = 4
        d = 2
        kappa_target = 5
        seed = 2
        graph = cycle
        methods = {methods}
        budget = 50
        tune_budget = 10
        outdir = {tmp_path / 'out'}
    """))


def test_summary_beta_skips_identity_slots_for_every_method(tmp_path):
    # custom (W, I, W, I) is GTA1: the same traces and the same beta column,
    # the largest beta over the slots that exchange anything
    cfg = _custom_cfg(tmp_path, "WIWI", methods="GTA1,custom")
    outdir = run_experiment(cfg)
    rows = [line.split(",") for line in (outdir / "summary.csv").read_text().splitlines()]
    beta = {row[0]: row[4] for row in rows[1:]}
    w = gt.metropolis_weights(gt.build_graph("cycle", 4))
    assert beta["custom"] == beta["GTA1"] == "%.17g" % w.beta
    assert ((outdir / "custom_nc1_ng1.csv").read_bytes()
            == (outdir / "GTA1_nc1_ng1.csv").read_bytes())


def test_summary_beta_of_an_all_identity_strategy_is_one(tmp_path):
    outdir = run_experiment(_custom_cfg(tmp_path, "IIII"))
    rows = (outdir / "summary.csv").read_text().splitlines()
    assert rows[1].split(",")[4] == "1"


def test_cli_rejects_a_non_finite_custom_matrix(tmp_path, capsys):
    # NaN passes every tolerance check; the eigensolver then failed on it
    # with a message that named nothing
    _custom_cfg(tmp_path, "WWWW")
    w = gt.topology.read_matrix_csv(tmp_path / "W.csv")
    w[0, 1] = w[1, 0] = np.nan
    gt.topology.write_matrix_csv(w, tmp_path / "W.csv")
    assert cli.main(["run", str(tmp_path / "exp.cfg")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_manifest_does_not_depend_on_where_files_live(tmp_path):
    # one config, its dataset and outdir under two paths of different lengths
    data = (Path(__file__).resolve().parent.parent / "data" / "synth_binary.libsvm").read_bytes()
    manifests = []
    for root in (tmp_path / "a", tmp_path / "a_much_longer_checkout_path"):
        (root / "data").mkdir(parents=True)
        (root / "data" / "synth_binary.libsvm").write_bytes(data)
        cfg = parse_config(_write_cfg(root, f"""
            problem = logreg
            dataset = {root / 'data' / 'synth_binary.libsvm'}
            n = 4
            graph = cycle
            methods = GTA1
            budget = 5
            outdir = {root / 'out'}
        """))
        manifests.append((run_experiment(cfg) / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    config = json.loads(manifests[0])["config"]
    assert "outdir" not in config
    assert config["dataset"] == {"name": "synth_binary.libsvm",
                                 "sha256": hashlib.sha256(data).hexdigest()}


def test_manifest_echoes_an_edge_list_config_as_asdict_did(tmp_path):
    # the echo reads the config's fields as they are; the reference is the
    # recursive dataclasses.asdict copy it replaced
    cfg = parse_config(_write_cfg(tmp_path, f"""
        problem = quadratic
        n = 5
        d = 2
        kappa_target = 5
        seed = 3
        graph = edge_list
        edges = 0-1,1-2,2-3,3-4,0-4,1-3
        methods = GTA1,GTA3
        nc_grid = 1,2
        GTA3.ng_grid = 1,3
        budget = 20
        tune_budget = 10
        stop_tol = 1e-9
        outdir = {tmp_path / 'out'}
    """))
    written = (run_experiment(cfg) / "manifest.json").read_bytes()
    config = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in dataclasses.asdict(cfg).items() if k != "outdir"}
    manifest = {"seed": cfg.seed, "config": config,
                "versions": json.loads(written)["versions"]}
    assert written == (json.dumps(manifest, indent=2, sort_keys=True, default=str)
                       + "\n").encode()
    assert json.loads(written)["config"]["edges"][:2] == [[0, 1], [1, 2]]


# ----------------------------------------------------------------------- cli

def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "cli_out"))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "summary.csv").exists()

    bad = _write_cfg(tmp_path, "problem = lasso\n", "bad.cfg")
    assert cli.main(["run", str(bad)]) == 2

    missing = tmp_path / "nope.cfg"
    assert cli.main(["run", str(missing)]) == 2
    capsys.readouterr()


def test_cli_tune_and_beta(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "t_out"))
    assert cli.main(["tune", str(cfg_path), "--method", "GTA3", "--nc", "1"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 1" in out

    assert cli.main(["beta", "--graph", "star", "--n", "16", "--nc", "2"]) == 0
    out = capsys.readouterr().out
    assert "beta = 0.9375" in out
    assert "beta^2" in out


def test_cli_beta_nc_prints_the_power_of_beta(capsys):
    # beta^nc as the theory columns take it (SpectralParams.b1c): an 8-star
    # has beta = 7/8, whose square 0.765625 is exact; an eigensolve of
    # W^2 read 0.76562500000000067
    assert cli.main(["beta", "--graph", "star", "--n", "8", "--nc", "2"]) == 0
    assert capsys.readouterr().out == "beta = 0.875\nbeta^2 = 0.765625\n"


def test_cli_beta_rejects_nc_below_one(capsys):
    assert cli.main(["beta", "--graph", "cycle", "--n", "8", "--nc", "0"]) == 2
    assert "--nc must be >= 1" in capsys.readouterr().err


def test_cli_beta_and_configs_reject_a_torus_that_is_not_a_square(tmp_path, capsys):
    for n in ("4", "15"):
        assert cli.main(["beta", "--graph", "torus", "--n", n]) == 2
        assert "torus requires" in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, MINI_CFG.replace("graph = complete", "graph = torus")
                          .format(out=tmp_path / "torus_out"))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "torus requires" in capsys.readouterr().err
    assert cli.main(["beta", "--graph", "torus", "--n", "9"]) == 0


def test_a_rounds_slot_with_exact_deviation_builds_no_power(tmp_path):
    # an 18 x 18 torus runs n_c = 1 as gather rounds; z1_mode = exact reads
    # W's eigenvalues, not an eigensolve of a power
    cfg = parse_config(_write_cfg(tmp_path, f"""
        problem = quadratic
        n = 324
        d = 2
        kappa_target = 10
        graph = torus
        methods = GTA1,GTA3
        budget = 5
        tune_budget = 5
        tune_tmax = 6
        z1_mode = exact
        outdir = {tmp_path / 'out'}
    """))
    result = harness.execute_grid(cfg)
    assert result.w.table is not None and result.w.dense is None
    assert not result.w._powers
    assert all(r["params"].z1_dev < 2.0 for r in result.records)


def test_cli_beta_matrix_dump(tmp_path, capsys):
    target = tmp_path / "w.csv"
    assert cli.main(["beta", "--graph", "cycle", "--n", "4", "--matrix-out", str(target)]) == 0
    capsys.readouterr()
    w = gt.topology.read_matrix_csv(target)
    assert w.shape == (4, 4)


def test_cli_data_error_exit_code(tmp_path, capsys):
    data = tmp_path / "broken.libsvm"
    data.write_text("1 1:1\n1 oops\n")
    cfg_path = _write_cfg(tmp_path, f"""
        problem = logreg
        dataset = {data}
        n = 1
        graph = complete
        methods = GTA1
        budget = 10
        outdir = {tmp_path / 'lg_out'}
    """)
    assert cli.main(["run", str(cfg_path)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_cli_a_repeated_feature_index_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "repeated.libsvm"
    data.write_text("1 1:1\n0 1:2 1:3\n")
    cfg_path = _write_cfg(tmp_path, f"""
        problem = logreg
        dataset = {data}
        n = 1
        graph = complete
        methods = GTA1
        budget = 10
        outdir = {tmp_path / 'rep_out'}
    """)
    assert cli.main(["run", str(cfg_path)]) == 3
    assert "line 2: a feature index repeats" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1 1:1\nnan 1:2\n", "1 1:1\n0 1:inf\n"],
                         ids=["nan-label", "inf-value"])
def test_cli_a_non_finite_label_or_value_is_a_data_error(text, tmp_path, capsys):
    data = tmp_path / "non_finite.libsvm"
    data.write_text(text)
    cfg_path = _write_cfg(tmp_path, f"""
        problem = logreg
        dataset = {data}
        n = 1
        graph = complete
        methods = GTA1
        budget = 10
        outdir = {tmp_path / 'nf_out'}
    """)
    assert cli.main(["run", str(cfg_path)]) == 3
    assert f"{data}: malformed line 2: a label or value is not finite" in capsys.readouterr().err


def test_cli_a_dataset_whose_smoothness_overflows_is_a_data_error(tmp_path):
    # a feature of 1e200 overflows its Gram matrix, so L = inf, and the
    # reference optimum's descent at step 1/L = 0 would never end.  The run
    # is a subprocess with a timeout, so that a stall fails the test
    data = tmp_path / "overflow.libsvm"
    data.write_text("1 1:1e200\n0 1:2\n")
    cfg_path = _write_cfg(tmp_path, f"""
        problem = logreg
        dataset = {data}
        n = 1
        graph = complete
        methods = GTA1
        outdir = {tmp_path / 'overflow_out'}
    """)
    src = str(Path(gt.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from gradtrack import cli; sys.exit(cli.main())",
         "run", str(cfg_path)], capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 3, done.stderr
    assert "L = inf" in done.stderr


@pytest.mark.parametrize("text,line", [("0.5,abc\n0.5,0.5\n", 1), ("0.5,0.5\n\n0.5\n", 3)],
                         ids=["non-number", "short-row"])
def test_cli_a_malformed_custom_matrix_file_is_a_data_error(text, line, tmp_path, capsys):
    # a non-number or a short row names its file and line; a well-formed
    # matrix of the wrong shape stays a config error (see below)
    bad = tmp_path / "w.csv"
    bad.write_text(text)
    custom = "".join(f"custom_w{i} = {bad}\n" for i in range(1, 5))
    text = MINI_CFG.format(out=tmp_path / "cm_out").replace("methods = GTA3\n",
                                                            "methods = custom\n" + custom)
    assert cli.main(["run", str(_write_cfg(tmp_path, text))]) == 3
    assert f"data error: {bad}: malformed line {line}: " in capsys.readouterr().err


def test_cli_a_config_that_does_not_decode_is_a_config_error(tmp_path, capsys):
    # a byte that does not decode as text (0xff) is the config's fault, not
    # a numerical failure
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(MINI_CFG.format(out=tmp_path / "out").encode() + b"# \xff\n")
    assert cli.main(["run", str(cfg_path)]) == 2
    assert f"config error: {cfg_path}: not a text file" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["libsvm", "csv"])
def test_cli_a_dataset_or_matrix_that_does_not_decode_is_a_data_error(kind, tmp_path, capsys):
    # a LIBSVM dataset or a custom matrix CSV holding a byte that does not
    # decode as text is a data error naming the file, not a config error
    bad = tmp_path / f"bad.{kind}"
    if kind == "libsvm":
        bad.write_bytes(b"1 1:1\n0 1:\xff\n")
        text = f"""
            problem = logreg
            dataset = {bad}
            n = 1
            graph = complete
            methods = GTA1
            budget = 10
            outdir = {tmp_path / 'out'}
        """
    else:
        bad.write_bytes(b"0.5,0.5\n0.5,\xff\n")
        custom = "".join(f"custom_w{i} = {bad}\n" for i in range(1, 5))
        text = MINI_CFG.format(out=tmp_path / "out").replace("methods = GTA3\n",
                                                             "methods = custom\n" + custom)
    assert cli.main(["run", str(_write_cfg(tmp_path, text))]) == 3
    assert f"data error: {bad}: not a text file" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    # L ~ 1e9 with the sweep capped at 2^-2: every candidate diverges
    cfg_path = _write_cfg(tmp_path, f"""
        problem = quadratic
        n = 2
        d = 2
        kappa_target = 1e9
        seed = 0
        graph = complete
        methods = GTA1
        budget = 100
        tune_budget = 100
        tune_tmax = 2
        outdir = {tmp_path / 'dv_out'}
    """)
    assert cli.main(["run", str(cfg_path)]) == 4
    assert "diverged" in capsys.readouterr().err


def test_cli_reference_optimum_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a reference solve cut off long before its tolerance is a numerical failure
    real = gt.problems.compute_reference_optimum
    monkeypatch.setattr(gt.problems, "compute_reference_optimum",
                        lambda suite: real(suite, max_iters=1))
    data = Path(__file__).resolve().parent.parent / "data" / "synth_binary.libsvm"
    cfg_path = _write_cfg(tmp_path, f"""
        problem = logreg
        dataset = {data}
        n = 4
        graph = cycle
        methods = GTA1
        budget = 10
        outdir = {tmp_path / 'ref_out'}
    """)
    assert cli.main(["run", str(cfg_path)]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_cli_spectral_radius_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the theory report's ordering check meets a recursion matrix with an
    # infinite entry, which has no spectral radius
    real = gt.theory.recursion_matrix_multi

    def poisoned(p):
        m = real(p).m.copy()
        m[0, 2] = math.inf
        return gt.theory.TheoryMatrix(m=m, label="poisoned")

    monkeypatch.setattr(gt.theory, "recursion_matrix_multi", poisoned)
    cfg_path = _write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "sr_out")
                          .replace("n = 2", "n = 4").replace("complete", "cycle"))
    assert cli.main(["theory", str(cfg_path)]) == 5
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("build,change", [
    ("build_suite", ("d = 1\nkappa_target = 1", "d = 1\nkappa_target = 10")),
    ("build_mixing", ("graph = complete", "graph = cycle")),
    ("build_strategy", ("nc_grid = 1", "nc_grid = 1\nmethods = custom\n"
                                       "custom_w1 = {m}\ncustom_w2 = {m}\n"
                                       "custom_w3 = {m}\ncustom_w4 = {m}")),
])
def test_value_errors_from_config_values_are_config_errors(build, change, tmp_path, capsys):
    # a suite (d = 1 cannot reach kappa 10), mixing matrix (a 2-node cycle)
    # or strategy (a custom matrix of the wrong shape) that cannot be built
    # from the config's values is a config error where it is raised
    bad = tmp_path / "w.csv"
    bad.write_text("1\n")
    text = MINI_CFG.format(out=tmp_path / "cf_out").replace("methods = GTA3\n", "")
    cfg_path = _write_cfg(tmp_path, text.replace(change[0], change[1].format(m=bad)))
    cfg = parse_config(cfg_path)
    w = harness.build_mixing(cfg) if build == "build_strategy" else None
    builds = {"build_suite": lambda: harness.build_suite(cfg),
              "build_mixing": lambda: harness.build_mixing(cfg),
              "build_strategy": lambda: harness.build_strategy(cfg, "custom", w, 1)}
    with pytest.raises(ConfigError):
        builds[build]()
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_a_kappa_target_that_is_not_a_finite_number_is_a_config_error(kappa, tmp_path, capsys):
    with pytest.raises(ValueError, match="finite number"):
        gt.QuadraticSpec(n=2, d=2, kappa_target=float(kappa))
    text = MINI_CFG.format(out=tmp_path / "kt_out")
    cfg_path = _write_cfg(tmp_path, text.replace("d = 1\nkappa_target = 1",
                                                 f"d = 2\nkappa_target = {kappa}"))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_value_error_on_computed_numbers_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a computed L below the computed mu: SpectralParams rejects the numbers
    # the suite produced, not a config value
    real = harness.build_suite

    def broken_suite(cfg):
        suite = real(cfg)
        suite.L = 0.5 * suite.mu
        return suite

    monkeypatch.setattr(harness, "build_suite", broken_suite)
    cfg_path = _write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "nf_out"))
    assert cli.main(["run", str(cfg_path)]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_cli_argument_errors_are_config_errors(tmp_path, capsys):
    # command-line values go through the same config scope as config values
    assert cli.main(["beta", "--graph", "cycle", "--n", "2"]) == 2
    assert cli.main(["beta", "--graph", "edge_list", "--n", "3", "--edges", "0-x"]) == 2
    cfg_path = _write_cfg(tmp_path, MINI_CFG.format(out=tmp_path / "ng_out"))
    assert cli.main(["tune", str(cfg_path), "--method", "GTA3", "--nc", "1", "--ng", "0"]) == 2
    assert capsys.readouterr().err.count("config error") == 3


def _stacks_of(cfg):
    """`tracking._parts` of each power group's sweep candidates (as
    `_execute_cells` passes them to `tune_step_size`) and of the grid's
    cells, each part as the (method, n_c, n_g) of its cells in order; every
    part of a sweep holds all candidates of its cells."""
    suite, w = harness.build_suite(cfg), harness.build_mixing(cfg)
    cells = list(cfg.cells())
    strategies = {(m, c): harness.build_strategy(cfg, m, w, c) for m, c, _ in cells}
    ts = range(cfg.tune_tmin, cfg.tune_tmax + 1)

    def parts(keys, width):
        cfgs = [gt.GtaConfig(strategy=strategies[m, c], alpha=2.0 ** -t, n_g=g)
                for m, c, g in keys for t in range(width)]
        out = []
        for part in gt.tracking._parts(suite, cfgs):
            named = [(c.strategy.name, c.strategy.n_c, c.n_g) for c in part]
            out.append(list(dict.fromkeys(named)))
            assert len(named) == width * len(out[-1])
        return out

    groups = {}
    for m, c, g in cells:
        groups.setdefault(gt.tracking.mixing_power(strategies[m, c]), []).append((m, c, g))
    return [parts(group, len(ts)) for group in groups.values()], parts(cells, 1)


_M3 = ("GTA1", "GTA2", "GTA3")
_FULL_NC, _FULL_NG = (1, 5, 10, 50, 100), (1, 5, 20, 50, 100)
_FULL_GRID_STACKS = (
    # per n_c, one sweep part per strategy over its five n_g (3 * 105
    # candidates do not fit, 105 do); the whole grid in one part
    [[[(m, c, g) for g in _FULL_NG] for m in _M3] for c in _FULL_NC],
    [[(m, c, g) for m in _M3 for c in _FULL_NC for g in _FULL_NG]])
# the stacks of the shipped configs and of the benchmark's grids: a rule
# change that moves one of them must show here
_SHIPPED_STACKS = {
    "configs/quadratic_cyclic.cfg": _FULL_GRID_STACKS,
    "configs/quadratic_star.cfg": _FULL_GRID_STACKS,
    # a logistic suite steps one n_g at a time: per n_c, one sweep part per
    # n_g over the three strategies; the grid in one part per n_g
    "configs/logreg_synth.cfg": (
        [[[(m, c, g) for m in _M3] for g in (1, 5)] for c in (1, 5, 10)],
        [[(m, c, g) for m in _M3 for c in (1, 5, 10)] for g in (1, 5)]),
    # the quick quadratic grid: per n_c one sweep part (126 candidates),
    # the grid in one part
    "problem = quadratic\nn = 16\nd = 10\nkappa_target = 1e4\nseed = 7\ngraph = cycle\n"
    "nc_grid = 1,5\nng_grid = 1,5\nbudget = 500\ntune_budget = 500\n": (
        [[[(m, c, g) for m in _M3 for g in (1, 5)]] for c in (1, 5)],
        [[(m, c, g) for m in _M3 for c in (1, 5) for g in (1, 5)]]),
    # n = 1024 is past the float bound for two cells: a sweep part per
    # strategy, and each grid cell alone
    "problem = quadratic\nn = 1024\nd = 10\nkappa_target = 1e2\nseed = 7\ngraph = torus\n"
    "methods = GTA1,GTA3\nnc_grid = 1,10\nbudget = 20\ntune_budget = 20\n": (
        [[[(m, c, 1)] for m in ("GTA1", "GTA3")] for c in (1, 10)],
        [[(m, c, 1)] for m in ("GTA1", "GTA3") for c in (1, 10)]),
}


@pytest.mark.parametrize("source", list(_SHIPPED_STACKS),
                         ids=["cyclic", "star", "logreg", "quick", "torus1024"])
def test_the_shipped_grids_keep_their_stacks(source, tmp_path):
    path = Path(source) if source.endswith(".cfg") else _write_cfg(tmp_path, source)
    sweeps, grid = _stacks_of(parse_config(path))
    assert (sweeps, grid) == _SHIPPED_STACKS[source]
