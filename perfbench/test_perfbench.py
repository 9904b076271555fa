"""Fast tests of the benchmark itself: python3 -m pytest perfbench

They use a tiny quadratic workload so that each test takes about a second.
"""

import signal
import time

import pytest

import gradtrack as gt

import bench
import check
import hostspeed
import workloads
from tracer import Tracer, patch_points, traced
from workloads import SolveCell, Workload


def _tiny_configs(seed, inputs, out):
    return {"tiny": workloads._config_text(
        out / "tiny", problem="quadratic", n=4, d=2, kappa_target=10, seed=seed,
        graph="cycle", methods="GTA1,GTA3", nc_grid="1,2", ng_grid="1,2",
        budget=20, tune_budget=20)}


TINY = Workload(name="tiny", default_seed=3, configs=_tiny_configs, snippet="small",
                solve_share=1.0,
                solve=SolveCell("tiny", "GTA3", n_c=1, n_g=1, rel_err=1e-3, max_iters=2000))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    return tmp_path


def _metric_lines(text):
    return {line.split(" = ")[0]: line.split()[-1]
            for line in text.splitlines() if " = " in line}


def test_timed_run_prints_every_metric_with_its_unit(tiny, capsys):
    result = bench.run_workload("tiny", 3, seconds=0.1, trace=False)
    lines = _metric_lines(capsys.readouterr().out)
    for metric, unit in bench.END_TO_END.items():
        assert lines[metric] == unit
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
    assert "fail_rate" in lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_prints_every_layer_metric_with_its_unit(tiny, capsys):
    result = bench.run_workload("tiny", 3, seconds=0.1, trace=True)
    lines = _metric_lines(capsys.readouterr().out)
    for metric, unit in bench.PER_LAYER.items():
        assert lines[metric] == unit
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert set(values) == set(bench.PER_LAYER)
    assert values["problems.grad_evals"] > 0 and values["tracking.outer_iters"] > 0
    assert values["harness.emit_bytes"] > 0 and values["topology.comm_floats"] > 0


def test_wrappers_restore_the_original_functions():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in patch_points(gt)]
    with pytest.raises(KeyError):
        with traced(gt, Tracer()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            raise KeyError("leave the block by an exception")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_traced_pass_writes_the_same_artifacts_as_an_untraced_one(tmp_path):
    b = bench.Bench(TINY, 3, tmp_path, reference=None)
    b.timed_pass()
    untraced = check.snapshot(b.out)
    tracer = Tracer()
    with traced(gt, tracer):
        b.timed_pass()
    assert check.snapshot(b.out) == untraced
    assert not b.tally.failures
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start_s <= s.start_s and s.end_s <= parent.end_s
    under_grid = {s.name for s in tracer.spans
                  if s.parent is not None and by_id[s.parent].name == "harness.execute_grid"}
    assert {"harness.build_strategy", "harness.tune_step_size", "tracking.run"} <= under_grid


def test_reference_check_flags_a_changed_step_size(tmp_path):
    b = bench.Bench(TINY, 3, tmp_path, reference=None)
    b.timed_pass()
    solve = b.prepare_solve()
    ref = check.reference_entry(b.first_files, b.configs, 3, solve.config.alpha)
    cfg = b.configs["tiny"]
    assert not any(check.check_config(b.first_files, "tiny", cfg, ref).values())
    key = check.cell_key("tiny", "GTA3", 2, 2)
    ref["cells"][key]["alpha"] = repr(float(ref["cells"][key]["alpha"]) / 2)
    ref["cells"][check.cell_key("tiny", "GTA1", 1, 1)]["final_opt_err"] = "1"
    findings = check.check_config(b.first_files, "tiny", cfg, ref)
    assert [k for k, msgs in findings.items() if msgs] == [
        check.cell_key("tiny", "GTA1", 1, 1), key]


def test_default_logistic_seed_reproduces_the_bundled_dataset():
    workloads.check_dataset_recipe()
    assert workloads.dataset_text(1) != workloads.dataset_text(workloads.DATASET_DEFAULT_SEED)


def test_torus_check_accepts_the_torus_and_rejects_a_broken_one():
    edges = workloads.torus_edges(4)
    workloads.check_torus(edges, 16)
    with pytest.raises(workloads.SelfCheckError, match="4-regular"):
        workloads.check_torus(edges[1:], 16)
    with pytest.raises(workloads.SelfCheckError, match="duplicate"):
        workloads.check_torus(edges + [edges[0][::-1]], 16)


def test_scaled_clock_reports_a_call_at_the_reference_speed(monkeypatch):
    reference = hostspeed.REFERENCE_S["small"]
    monkeypatch.setitem(hostspeed.SNIPPETS, "small", lambda: 2 * reference)
    clock = hostspeed.Clock("small")
    value = clock.time(lambda: None)
    wall, calibration = clock.log[0]
    assert calibration == pytest.approx(2 * reference)
    assert value == pytest.approx(wall / 2)
    unscaled = hostspeed.Clock(None)
    assert unscaled.time(lambda: None) == unscaled.log[0][0]


def test_snippets_interleave_with_a_call_and_leave_its_time():
    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass

    wall, snippets = hostspeed.interleaved(busy, hostspeed.small_snippet_s)
    assert len(snippets) >= 5
    assert wall < 0.2
    assert wall + sum(snippets) == pytest.approx(0.2, abs=0.02)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
