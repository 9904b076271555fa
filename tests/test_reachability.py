"""Every function in src/gradtrack is called from a shipped entry point.

Tiny configs go through every CLI verb (and so through the harness) under
sys.setprofile: each method and a custom strategy, z1_mode = exact, an
edge_list graph, a complete graph (the fully connected theory route),
a cycle large enough for gather rounds, sparse-built powers, a Lanczos
beta and the eigenvalues of a table-held matrix, logistic regression (with
n_g = 2: quadratics take their closed-form local steps, so only a suite
without one steps through inner_step), a tuning sweep whose candidates all
diverge and a run that diverges after tuning while another cell's run goes
on.  A function that none of them calls is dead code or test-only API: it
belongs in tests/ or nowhere, unless KEEP names it with the reason it stays.
"""

import inspect
import sys
from pathlib import Path

import gradtrack
from gradtrack import cli
from gradtrack.topology import ROUND_COST

PKG = Path(gradtrack.__file__).resolve().parent
DATASET = Path(__file__).resolve().parent.parent / "data" / "synth_binary.libsvm"

# (module file, qualified name) -> why it stays although no entry point calls it
KEEP = {
    ("problems.py", "ObjectiveSuite.grad_stack"): "abstract interface stub",
    ("problems.py", "ObjectiveSuite.grad_stack_batch"): "abstract interface stub",
    ("problems.py", "QuadraticSuite.grad_stack"):
        "the benchmark's tracer hooks it (perfbench/tracer.py); global_grad never runs on a "
        "quadratic suite, whose reference optimum is solved analytically",
    ("theory.py", "recursion_matrix_for_method"): "checks a printed claim of the paper",
    ("theory.py", "step_size_bound_for_method"): "checks a printed claim of the paper",
    ("theory.py", "rate_upper_bound_for_method"): "checks a printed claim of the paper",
    ("theory.py", "MonotonicityReport.__str__"): "the message of monotonicity_report",
    ("topology.py", "CommunicationStrategy.matrices"):
        "the benchmark's tracer reads slot 0's matrix (perfbench/tracer.py)",
    ("tracking.py", "error_vector"):
        "exported by gradtrack, and the benchmark's tracer hooks it (perfbench/tracer.py): "
        "deleting it would stop its traced runs",
    ("tracking.py", "RunTrace.comm_vectors"):
        "per-vector communication cost, for the planned theory-vs-measurement columns",
}


def _functions():
    """{code object key: (module file, qualified name)} for every function
    defined in the package's source (lambdas and comprehensions excluded)."""
    found = {}

    def walk(code, prefix, fname):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:      # a function body
                found[fname, const.co_firstlineno, const.co_name] = (
                    fname, prefix + const.co_name)
                walk(const, prefix + const.co_name + ".<locals>.", fname)
            else:                                          # a class body
                walk(const, prefix + const.co_name + ".", fname)

    for path in sorted(PKG.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), "", path.name)
    return found


def _key(code):
    return Path(code.co_filename).name, code.co_firstlineno, code.co_name


def _write(path, text):
    path.write_text(text)
    return str(path)


def _entry_points(tmp):
    """Every CLI verb on tiny configs; returns the exit codes."""
    w_csv = tmp / "w.csv"
    codes = [cli.main(["beta", "--graph", "edge_list", "--n", "4", "--edges", "0-1,1-2,2-3,3-0",
                       "--nc", "2", "--matrix-out", str(w_csv)])]
    eye_csv = _write(tmp / "eye.csv", "\n".join(
        ",".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    quad = _write(tmp / "quad.cfg", f"""
        problem = quadratic
        n = 4
        d = 2
        kappa_target = 10
        graph = edge_list
        edges = 0-1,1-2,2-3,3-0
        methods = GTA1,GTA2,GTA3,custom
        nc_grid = 1,2
        ng_grid = 1,2
        budget = 30
        tune_budget = 10
        tune_tmin = 8
        tune_tmax = 9
        stop_tol = 1e-12
        z1_mode = exact
        custom_w1 = {w_csv}
        custom_w2 = {eye_csv}
        custom_w3 = {w_csv}
        custom_w4 = {w_csv}
        outdir = {tmp / 'quad'}
    """)
    # a GTA3 column leaves at its stop_tol (k = 52) after a block sized by
    # the decay of the block before it
    complete = _write(tmp / "complete.cfg", f"""
        problem = quadratic
        n = 3
        d = 2
        kappa_target = 10
        graph = complete
        methods = GTA2,GTA3
        ng_grid = 1,2
        budget = 60
        tune_budget = 5
        stop_tol = 1e-6
        outdir = {tmp / 'complete'}
    """)
    logreg = _write(tmp / "logreg.cfg", f"""
        problem = logreg
        dataset = {DATASET}
        n = 4
        normalize = true
        graph = star
        laziness = 0.2
        methods = GTA3
        ng_grid = 1,2
        budget = 10
        tune_budget = 5
        tune_tmax = 4
        outdir = {tmp / 'logreg'}
    """)
    # 3 nonzeros per row and n = 3 * ROUND_COST: W^1 runs as gather
    # rounds, and W^2 is one dense product with a power built by rounds;
    # z1_mode = exact densifies the table for one eigensolve
    sparse = _write(tmp / "sparse.cfg", f"""
        n = {3 * ROUND_COST}
        d = 2
        kappa_target = 10
        graph = cycle
        methods = GTA1,GTA3
        nc_grid = 1,2
        budget = 3
        tune_budget = 3
        tune_tmax = 4
        z1_mode = exact
        outdir = {tmp / 'sparse'}
    """)
    # every 2^-t candidate diverges at L ~ 1e9, so tuning fails
    no_step = _write(tmp / "no_step.cfg", f"""
        n = 2
        d = 2
        kappa_target = 1e9
        graph = complete
        methods = GTA1
        budget = 20
        tune_tmax = 2
        outdir = {tmp / 'no_step'}
    """)
    # one tuning iteration admits a step that diverges within the run: GTA1's
    # columns leave the grid's stack while GTA3's go on, and the n_g = 2
    # columns left narrow their closed-form local steps
    late = _write(tmp / "late.cfg", f"""
        n = 4
        d = 2
        kappa_target = 10
        graph = cycle
        methods = GTA1,GTA3
        ng_grid = 1,2
        budget = 300
        tune_budget = 1
        outdir = {tmp / 'late'}
    """)
    codes += [cli.main(["run", quad]), cli.main(["theory", quad]),
              cli.main(["tune", quad, "--method", "custom", "--nc", "2", "--ng", "2"]),
              cli.main(["run", complete]), cli.main(["run", logreg]),
              cli.main(["run", sparse]), cli.main(["run", no_step]), cli.main(["run", late])]
    return codes


def test_every_package_function_is_reached(tmp_path, capsys):
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        codes = _entry_points(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 0, 0, 4, 4]

    functions = _functions()
    called = {functions[_key(c)] for c in seen
              if Path(c.co_filename).resolve().parent == PKG and _key(c) in functions}
    unreached = sorted(set(functions.values()) - called - set(KEEP))
    assert not unreached, f"never called from an entry point: {unreached}"
    # a kept name must still exist and still be unreached, or leave KEEP
    stale = sorted(set(KEEP) - (set(functions.values()) - called))
    assert not stale, f"KEEP entries that are reached or gone: {stale}"


def test_the_audit_sees_every_function():
    # the walk finds methods, properties and module functions alike
    names = set(_functions().values())
    assert {("tracking.py", "run"), ("tracking.py", "RunTrace.comms"),
            ("topology.py", "MixingMatrix.power"), ("harness.py", "config_values"),
            ("cli.py", "_cmd_beta")} <= names
    assert not any(part.startswith("<") and part != "<locals>"
                   for _, name in names for part in name.split("."))
