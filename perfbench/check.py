"""Output checks for one workload pass.

Every grid cell is checked against invariants that hold for any seed, and
for a workload's default seed also against reference.json: the tuned step
size must match exactly, final errors, rho_theory and step_bound within
REF_RTOL / REF_ATOL.  A cell with any finding counts as a failed operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from env import BENCH_DIR

REFERENCE_FILE = BENCH_DIR / "reference.json"
REF_RTOL = 1e-6
REF_ATOL = 1e-12
# summary.csv columns compared with the reference (alpha is compared exactly)
REF_COLUMNS = ("final_opt_err", "final_x_consensus_err", "final_y_consensus_err",
               "rho_theory", "step_bound")
_FINAL_COLUMNS = REF_COLUMNS[:3]


def cell_key(config: str, method: str, n_c: int, n_g: int) -> str:
    return f"{config}/{method}/nc{n_c}/ng{n_g}"


def load_reference(workload: str, seed: int) -> dict | None:
    """The stored reference of a workload, if `seed` is its reference seed."""
    ref = json.loads(REFERENCE_FILE.read_text()).get(workload)
    return ref if ref is not None and ref["seed"] == seed else None


def snapshot(outdir: Path) -> dict[str, bytes]:
    """Every artifact under outdir, keyed by path relative to it."""
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def _rows(text: str) -> list[dict[str, str]]:
    header, *lines = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def summary_rows(files: dict[str, bytes], config: str) -> dict[tuple, dict[str, str]]:
    return {(r["method"], int(r["n_c"]), int(r["n_g"])): r
            for r in _rows(files[f"{config}/summary.csv"].decode())}


def _close(value: str, expected: str) -> bool:
    a, b = float(value), float(expected)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def _check_trace(text: str, cfg, n_c: int, n_g: int, summary: dict) -> list[str]:
    rows = _rows(text)
    if len(rows) != cfg.budget + 1:
        return [f"trace has {len(rows)} rows, expected {cfg.budget + 1}"]
    found = []
    for i, r in enumerate(rows):
        k = int(r["k"])
        if (k != i or int(r["comms_cumulative"]) != k * n_c
                or int(r["grads_cumulative"]) != k * n_g * cfg.n):
            found.append(f"trace row {i} has inexact counters")
            break
    last = rows[-1]
    for col, trace_col in zip(_FINAL_COLUMNS, ("opt_err", "x_consensus_err", "y_consensus_err")):
        if last[trace_col] != summary[col]:
            found.append(f"summary {col} {summary[col]} != last trace row {last[trace_col]}")
    if not float(summary["final_opt_err"]) < float(rows[0]["opt_err"]):
        found.append("final opt_err is not below the starting error")
    return found


def check_config(files: dict[str, bytes], config: str, cfg,
                 reference: dict | None) -> dict[str, list[str]]:
    """Findings per grid cell of one config's artifacts (empty list = pass)."""
    summary = summary_rows(files, config)
    theory = {(r["method"], int(r["n_c"]), int(r["n_g"])): r
              for r in _rows(files[f"{config}/theory_report.csv"].decode())}
    alphas = {2.0 ** -t for t in range(cfg.tune_tmin, cfg.tune_tmax + 1)}
    findings = {}
    for method, n_c, n_g in cfg.cells():
        key = cell_key(config, method, n_c, n_g)
        row = summary.get((method, n_c, n_g))
        trace = files.get(f"{config}/{method}_nc{n_c}_ng{n_g}.csv")
        if row is None or trace is None or (method, n_c, n_g) not in theory:
            findings[key] = ["summary, theory or trace artifact missing"]
            continue
        found = []
        if float(row["alpha"]) not in alphas:
            found.append(f"alpha {row['alpha']} is not a 2^-t candidate")
        if not all(math.isfinite(float(row[c])) for c in _FINAL_COLUMNS):
            found.append("non-finite final error")
        else:
            found += _check_trace(trace.decode(), cfg, n_c, n_g, row)
        t_row = theory[method, n_c, n_g]
        for col in ("alpha", "rho_theory", "step_bound"):
            if t_row[col] != row[col]:
                found.append(f"theory_report {col} {t_row[col]} != summary {row[col]}")
        if reference is not None:
            ref = reference["cells"].get(key)
            if ref is None:
                found.append("cell missing from the reference")
            else:
                if float(row["alpha"]) != float(ref["alpha"]):
                    found.append(f"alpha {row['alpha']} != reference {ref['alpha']}")
                for col in REF_COLUMNS:
                    if not _close(row[col], ref[col]):
                        found.append(f"{col} {row[col]} != reference {ref[col]}")
        findings[key] = found
    return findings


def reference_entry(files: dict[str, bytes], configs: dict, seed: int,
                    solve_alpha: float) -> dict:
    """Reference record of one pass: what check_config compares against."""
    cells = {}
    for config in configs:
        for (method, n_c, n_g), row in summary_rows(files, config).items():
            cells[cell_key(config, method, n_c, n_g)] = {
                col: row[col] for col in ("alpha",) + REF_COLUMNS}
    return {"seed": seed, "solve_alpha": repr(solve_alpha), "cells": cells}
