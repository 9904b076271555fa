"""The benchmark's workloads: seeded inputs, grid configs and solve cells.

The program only ever sees what is generated here: config files (and, for
logistic regression, a LIBSVM dataset) written into a temp dir.  The same
seed always yields the same bytes.  See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from env import ROOT

BUNDLED_DATASET = ROOT / "data" / "synth_binary.libsvm"
DATASET_DEFAULT_SEED = 12345
TORUS_SIDE = 32


class SelfCheckError(RuntimeError):
    """A generated input does not have the property the workload relies on."""


@dataclass(frozen=True)
class SolveCell:
    """One time-to-accuracy run: a cell of one of the workload's configs,
    run from zero until opt_err <= rel_err * ||x*|| or max_iters."""

    config: str
    method: str
    n_c: int
    n_g: int
    rel_err: float
    max_iters: int


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    solve: SolveCell
    # calibration snippet kind of the host-speed scaling (hostspeed.py)
    snippet: str
    # a timed round's solve_s samples take at least this share of its pass
    solve_share: float
    # (seed, input dir, artifact dir) -> {config name: config text}
    configs: Callable[[int, Path, Path], dict[str, str]]


def _config_text(out: Path, **keys) -> str:
    keys["outdir"] = out
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


# ----------------------------------------------------------------- quad-grid

def _quad_configs(seed: int, inputs: Path, out: Path) -> dict[str, str]:
    """The quick grid of scripts/reproduce_quadratic.py --quick."""
    common = dict(problem="quadratic", n=16, d=10, kappa_target="1e4", seed=seed,
                  laziness=0, methods="GTA1,GTA2,GTA3", nc_grid="1,5", ng_grid="1,5",
                  budget=500, tune_budget=500, tune_tmin=0, tune_tmax=20)
    return {name: _config_text(out / name, graph=graph, **common)
            for name, graph in (("quadratic_cyclic", "cycle"), ("quadratic_star", "star"))}


# --------------------------------------------------------------- logreg-grid

def dataset_text(seed: int) -> str:
    """The recipe of scripts/make_synthetic_dataset.py: 240 samples, 8
    features, labels in {0, 1}.  Seed 12345 gives the bundled file."""
    rng = np.random.default_rng(seed)
    m, d = 240, 8
    w_true = rng.normal(size=d)
    feats = rng.normal(size=(m, d))
    margins = feats @ w_true + 0.5 * rng.normal(size=m)
    labels = (margins > 0).astype(int)
    lines = []
    for y, row in zip(labels, feats):
        lines.append(" ".join([str(y)] + [f"{j + 1}:{v:.6f}" for j, v in enumerate(row)]))
    return "\n".join(lines) + "\n"


def check_dataset_recipe() -> None:
    """The default seed must reproduce the bundled dataset byte for byte."""
    if dataset_text(DATASET_DEFAULT_SEED).encode() != BUNDLED_DATASET.read_bytes():
        raise SelfCheckError(f"seed {DATASET_DEFAULT_SEED} does not reproduce {BUNDLED_DATASET}")


def _logreg_configs(seed: int, inputs: Path, out: Path) -> dict[str, str]:
    check_dataset_recipe()
    dataset = inputs / "synth_binary.libsvm"
    dataset.write_text(dataset_text(seed))
    return {"logreg_synth": _config_text(
        out / "logreg_synth", problem="logreg", dataset=dataset, normalize="false", n=8,
        seed=0, graph="cycle", methods="GTA1,GTA2,GTA3", nc_grid="1,5,10", ng_grid="1,5",
        budget=100)}


# ---------------------------------------------------------------- torus-1024

def torus_edges(side: int) -> list[tuple[int, int]]:
    """2-D torus on side x side nodes: each node links right and down, wrapping."""
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            edges.append((i, r * side + (c + 1) % side))
            edges.append((i, ((r + 1) % side) * side + c))
    return edges


def check_torus(edges: list[tuple[int, int]], n: int) -> None:
    """The torus must be a simple, connected, 4-regular graph on n nodes."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i == j or j in adj[i]:
            raise SelfCheckError(f"torus edge ({i},{j}) is a self-loop or a duplicate")
        adj[i].add(j)
        adj[j].add(i)
    if any(len(nb) != 4 for nb in adj):
        raise SelfCheckError("torus is not 4-regular")
    seen, queue = {0}, deque([0])
    while queue:
        for v in adj[queue.popleft()] - seen:
            seen.add(v)
            queue.append(v)
    if len(seen) != n:
        raise SelfCheckError(f"torus is disconnected: {len(seen)} of {n} nodes reachable")


def _torus_configs(seed: int, inputs: Path, out: Path) -> dict[str, str]:
    n = TORUS_SIDE * TORUS_SIDE
    edges = torus_edges(TORUS_SIDE)
    check_torus(edges, n)
    return {"quadratic_torus": _config_text(
        out / "quadratic_torus", problem="quadratic", n=n, d=10, kappa_target="1e2",
        seed=seed, graph="edge_list", edges=",".join(f"{i}-{j}" for i, j in edges),
        methods="GTA1,GTA3", nc_grid="1,10", ng_grid=1, budget=20, tune_budget=20)}


WORKLOADS = {
    "quad-grid": Workload(
        name="quad-grid", default_seed=7, configs=_quad_configs, snippet="small",
        solve_share=1.0,
        solve=SolveCell("quadratic_cyclic", "GTA3", n_c=5, n_g=100, rel_err=1e-8,
                        max_iters=5000)),
    "logreg-grid": Workload(
        name="logreg-grid", default_seed=DATASET_DEFAULT_SEED, configs=_logreg_configs,
        snippet="small", solve_share=1.0,
        solve=SolveCell("logreg_synth", "GTA3", n_c=1, n_g=1, rel_err=1e-8,
                        max_iters=5000)),
    "torus-1024": Workload(
        name="torus-1024", default_seed=0, configs=_torus_configs,
        # BLAS- and memory-bound: dense mixing products track its speed
        snippet="dense", solve_share=0.2,
        solve=SolveCell("quadratic_torus", "GTA3", n_c=10, n_g=1, rel_err=1e-4,
                        max_iters=5000)),
}


def write_inputs(workload: Workload, seed: int, inputs: Path, out: Path) -> dict[str, Path]:
    """Write the workload's configs for this seed; returns {name: config path}."""
    paths = {}
    for name, text in workload.configs(seed, inputs, out).items():
        paths[name] = inputs / f"{name}.cfg"
        paths[name].write_text(text)
    return paths
