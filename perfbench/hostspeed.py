"""Host-speed scaling of timings.

On a shared host each vCPU switches, from under a second to minutes at a
time, between a fast and a slow state; the two vCPUs switch independently.
The quad-grid solve takes 1.2 s in one state and 2.1 s in the other, with
CPU time equal to wall time.  Which states a run meets decides its median
wall time, so medians of identical runs differed by up to 1.7x.

A scaled Clock interleaves a short calibration snippet with the timed
call: a SIGALRM timer interrupts the call every TICK_S and the handler
times one snippet, on the same thread and so on the same vCPU.  The call's
own time (snippets excluded) is reported at the reference speed:

    value = work * REFERENCE_S[kind] / harmonic mean(snippet times)

The snippets sample the host speed all through the call, so a switch of
state inside it is caught.  The host state cancels; a change in the
program's own work does not, because the snippet is the benchmark's own
code.  Each workload uses the snippet kind whose work is like its own:

* "small": gradient-tracking steps on a fixed 16-node quadratic, with the
  interpreter-bound solve's op mix (per-node einsum gradients, small-array
  updates, 16x16 mixing products, norms).  Timed together with the
  quad-grid solve and the logreg-grid pass, it slowed by the same factor
  as the call in every host state (log-log slope 1.00 and 1.05).  Plain
  Python arithmetic slowed 1.7 times as much and over-corrected.
* "dense": one 1024x1024 by 1024x10 matrix product, the dense mixing of
  the memory-bound torus-1024 workload.  Timed with its solve: slope 1.02,
  where the "small" snippet gave 0.34.
"""

from __future__ import annotations

import functools
import signal
import time

TICK_S = 0.02           # a snippet runs every TICK_S of a timed call
SMALL_STEPS = 120       # gradient steps of one "small" snippet
DENSE_N = 1024          # nodes of the "dense" snippet's mixing matrix
# Round figures near each snippet's time on the 2-vCPU VM the benchmark was
# tuned on (0.9-2.0 ms), so scaled values read as seconds on that VM.
REFERENCE_S = {"small": 0.0015, "dense": 0.001}


@functools.lru_cache(maxsize=1)
def _numpy():
    import numpy as np   # not at import time: env.cap_blas_threads comes first
    return np


@functools.lru_cache(maxsize=1)
def _small_problem():
    np = _numpy()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 10, 10)) / 4
    q = np.einsum("nij,nkj->nik", a, a) + np.eye(10)
    return q, rng.standard_normal((16, 10)), np.full((16, 16), 1 / 16)


@functools.lru_cache(maxsize=1)
def _dense_problem():
    np = _numpy()
    return np.full((DENSE_N, DENSE_N), 1 / DENSE_N), np.ones((DENSE_N, 10))


class _State:
    __slots__ = ("x", "y", "g")


def small_snippet_s() -> float:
    """Wall time of SMALL_STEPS gradient-tracking steps on a fixed 16-node
    quadratic, mixing and measuring every 20th."""
    np = _numpy()
    q, b, w = _small_problem()

    def grads(x):
        return np.einsum("nij,nj->ni", q, x) + b

    s = _State()
    s.x = np.zeros((16, 10))
    s.g = grads(s.x)
    s.y = s.g.copy()
    t0 = time.perf_counter()
    for k in range(1, SMALL_STEPS + 1):
        if k % 20:
            x_new = s.x - 0.01 * s.y
            g_new = grads(x_new)
            s.y = s.y + (g_new - s.g)
        else:
            x_new = w @ s.x - 0.01 * (w @ s.y)
            g_new = grads(x_new)
            s.y = w @ s.y + w @ (g_new - s.g)
            x_bar = x_new.mean(axis=0)
            float(np.linalg.norm(x_bar)), float(np.linalg.norm(x_new - x_bar))
        s.x, s.g = x_new, g_new
    return time.perf_counter() - t0


def dense_snippet_s() -> float:
    """Wall time of one dense DENSE_N-node mixing product."""
    w, x = _dense_problem()
    t0 = time.perf_counter()
    w @ x
    return time.perf_counter() - t0


SNIPPETS = {"small": small_snippet_s, "dense": dense_snippet_s}


def interleaved(fn, snippet) -> tuple[float, list[float]]:
    """Call fn with snippet() every TICK_S; return fn's own wall time (the
    snippets' time taken out) and the snippet times, at least one (a call
    shorter than TICK_S gets one right after it)."""
    ticks: list[tuple[float, float]] = []
    snippet()   # warm; and a handler must not import: it may interrupt one

    def tick(signum, frame):
        start = time.perf_counter()
        ticks.append((start, snippet()))

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    inside = [d for start, d in ticks if start + d <= t1]
    return t1 - t0 - sum(inside), inside or [snippet()]


class Clock:
    """Times calls; with a snippet kind reports them at the reference speed.

    `log` keeps every call's (unscaled wall s of the call's own work,
    harmonic mean snippet s or None when unscaled) for the run record."""

    def __init__(self, snippet: str | None):
        self.snippet = snippet   # a key of SNIPPETS, or None: plain wall times
        self.log: list[tuple[float, float | None]] = []

    def scale(self, wall: float, calibration: float) -> float:
        return wall * REFERENCE_S[self.snippet] / calibration

    def time(self, fn) -> float:
        if self.snippet is None:
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
            self.log.append((wall, None))
            return wall
        wall, snippets = interleaved(fn, SNIPPETS[self.snippet])
        calibration = len(snippets) / sum(1 / d for d in snippets)
        self.log.append((wall, calibration))
        return self.scale(wall, calibration)
