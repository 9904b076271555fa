"""Gradient tracking runtime.

Every node keeps a local copy of the decision variable and an auxiliary
tracker whose node-average always equals the average of the current local
gradients.  One outer iteration performs n_g local gradient steps (the last
one fused with communication) and n_c consensus steps through each of the
four communication matrices:

    inner (j = 1 .. n_g-1):  x <- x - alpha*y ;  y <- y + grad(x') - grad(x)
    outer:  x' = W1^nc x - alpha W2^nc y
            y' = W3^nc y + W4^nc (grad(x') - grad(x))

On a quadratic suite the n_g - 1 inner steps are linear in (x, y), and
`advance` applies them at once in the suite's eigenbasis
(`ObjectiveSuite.local_steps`), then evaluates one gradient; a suite
without a closed form (logistic) steps them one `inner_step` at a time.

Each update is applied as a pair Z_a u + Z_b v: as the single product
Z (u + v) when both slots hold the same matrix, so GTA-3 (all four slots
W^nc) runs x' = W^nc (x - alpha y) and y' = W^nc (y + grad(x') - grad(x)),
two mixing applies per outer iteration.

The state is an (n, d, c) stack: one column per step size, so a run is the
step-size sweep with c = 1, and both go through one kernel.  Mixing treats
the stack as an (n, d*c) array, never materializing the (nd, nd) Kronecker
form: each slot's `MixingMatrix.apply` runs n_c gather rounds or one
dense product with W^n_c.  The choice depends only on the matrix and n_c,
so a sweep column and its run take the same path.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .problems import ObjectiveSuite
from .topology import CommunicationStrategy

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """A run's errors met the divergence rule (see `diverged`)."""

    def __init__(self, k: int, errors: ErrorVector):
        super().__init__(f"diverged at outer iteration {k}: " + ", ".join(
            f"{name} = {value:.3e}" for name, value in asdict(errors).items()))
        self.k = k
        self.opt_err = errors.opt_err
        self.errors = errors


@dataclass(frozen=True)
class GtaConfig:
    """Run parameters: strategy, step size (a sweep's: one per column),
    computation steps, budgets."""

    strategy: CommunicationStrategy
    alpha: float | np.ndarray          # a float, or a (c,) array in a sweep
    n_g: int = 1
    max_outer_iters: int = 1000
    stop_tol: float | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if not np.all(np.isfinite(alpha) & (alpha > 0)):
            raise ValueError(f"step size must be a positive finite number, got {self.alpha}")
        if self.n_g < 1 or int(self.n_g) != self.n_g:
            raise ValueError(f"n_g must be an integer >= 1, got {self.n_g}")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be nonnegative")


@dataclass(frozen=True)
class ErrorVector:
    """(optimization error, x consensus error, y consensus error) at an
    outer-iteration boundary; (c,) arrays for a stack of c > 1 columns."""

    opt_err: float
    x_consensus: float
    y_consensus: float

    def as_array(self) -> np.ndarray:
        return np.array([self.opt_err, self.x_consensus, self.y_consensus])


@dataclass(slots=True)
class GtaState:
    """Mutable iteration state owned by a single run or sweep.

    x, y and grads are (n, d, c) stacks of the local copies, one column per
    step size (c = 1 for a run); k is the outer iteration.
    """

    suite: ObjectiveSuite
    x: np.ndarray
    y: np.ndarray
    grads: np.ndarray
    k: int = 0
    # (cfg, its suite.local_steps or None) for the cfg last advanced: a run
    # builds the closed form once, a sweep once per live-candidate set
    local: tuple | None = None


def initialize(suite: ObjectiveSuite, x0: np.ndarray) -> GtaState:
    """State at k = 0: trackers start at the local gradients of x0, an
    (n, d, c) stack, or n*d entries for one column."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim < 3 and x0.size != suite.n * suite.d:
        raise ValueError(f"x0 has {x0.size} entries, expected n*d = {suite.n * suite.d}")
    x = x0.reshape(suite.n, suite.d, -1).copy()
    grads = suite.grad_stack_batch(x)
    return GtaState(suite, x=x, y=grads.copy(), grads=grads)


def _mix(strategy: CommunicationStrategy, slot: int, v: np.ndarray) -> np.ndarray:
    """W_slot^n_c applied to every column of v; identity slots return v."""
    m = strategy.slots[slot]
    if m is None:
        return v
    return m.apply(v.reshape(len(v), -1), strategy.n_c).reshape(v.shape)


def inner_step(state: GtaState, alpha) -> GtaState:
    """One local computation step (no mixing): exactly one new gradient
    evaluation per node.  `advance` takes it only for a suite without a
    closed-form local phase (`ObjectiveSuite.local_steps` is None)."""
    return _move(state, alpha * state.y)


def _move(state: GtaState, dx: np.ndarray) -> GtaState:
    """x <- x - dx, and the trackers take the change of the local gradients."""
    state.x = state.x - dx
    g_new = state.suite.grad_stack_batch(state.x)
    state.y = state.y + (g_new - state.grads)
    state.grads = g_new
    return state


def _pair(strategy: CommunicationStrategy, a: int, b: int, u: np.ndarray,
          v: np.ndarray) -> np.ndarray:
    """Z_a u + Z_b v, as the one product Z (u + v) when slots a and b hold
    the same matrix (or None).  v must be a temporary of the caller: the sum is
    formed in place in v (or in its product), so a sweep's peak holds no extra stack."""
    if strategy.slots[a] is strategy.slots[b]:
        v += u
        return _mix(strategy, a, v)
    out = _mix(strategy, b, v)
    out += _mix(strategy, a, u)
    return out


def outer_step(state: GtaState, cfg: GtaConfig) -> GtaState:
    """Communication update: n_c consensus steps through each slot
    (`MixingMatrix.apply`); one new gradient evaluation per node."""
    # state.x is replaced at once (as in inner_step): holding the old x
    # through the gradient and y updates would add a stack to a sweep's peak
    state.x = _pair(cfg.strategy, 0, 1, state.x, -cfg.alpha * state.y)
    g_new = state.suite.grad_stack_batch(state.x)
    state.y = _pair(cfg.strategy, 2, 3, state.y, g_new - state.grads)
    state.grads = g_new
    state.k += 1
    return state


def advance(state: GtaState, cfg: GtaConfig) -> GtaState:
    """One outer iteration: n_g - 1 local steps, then the communication step.

    The local steps run as the suite's closed form when it has one (a
    quadratic: x moves by its total over the n_g - 1 steps, and the trackers
    take the gradient change, as in one step: a few array operations and one
    gradient, whatever n_g is), else as n_g - 1 `inner_step` calls.  The
    closed form is built on the first advance with a new cfg and held in
    the state.
    """
    if cfg.n_g > 1:
        if state.local is None or state.local[0] is not cfg:
            state.local = (cfg, state.suite.local_steps(cfg.alpha, cfg.n_g - 1))
        steps = state.local[1]
        if steps is None:
            for _ in range(cfg.n_g - 1):
                inner_step(state, cfg.alpha)
        else:
            _move(state, steps(state.y))
    return outer_step(state, cfg)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) without its wrapper: the same memory-order ravel
    and dot product, so the same bits."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def error_vector(state: GtaState, suite: ObjectiveSuite) -> ErrorVector:
    """Measure the three errors against suite.x_star: floats for one column
    (a run), (c,) arrays per column for more."""
    n = len(state.x)
    # sum / n is mean's own formula (same bits, less overhead)
    x_bar = state.x.sum(axis=0) / n
    y_bar = state.y.sum(axis=0) / n
    x_err = x_bar - suite.x_star[:, None]
    if state.x.shape[2] == 1:
        # _norm is the cheapest norm of a whole stack; a run calls this once
        # per outer iteration
        return ErrorVector(_norm(x_err), _norm(state.x - x_bar), _norm(state.y - y_bar))
    return ErrorVector(np.linalg.norm(x_err, axis=0),
                       np.linalg.norm(state.x - x_bar, axis=(0, 1)),
                       np.linalg.norm(state.y - y_bar, axis=(0, 1)))


def diverged(ev: ErrorVector):
    """The divergence rule of runs and sweeps: True (per column for a sweep)
    where an error is above DIVERGENCE_LIMIT or not finite.  A non-finite x,
    y or gradient makes an error non-finite within the step."""
    return np.logical_not((ev.opt_err <= DIVERGENCE_LIMIT) & (ev.x_consensus <= DIVERGENCE_LIMIT)
                          & (ev.y_consensus <= DIVERGENCE_LIMIT))


# Relative margin of `surely_bounded` below DIVERGENCE_LIMIT.  Rounding moves
# a computed norm by about (number of entries) * eps relative, far less than
# this for any stack that fits in memory.
_BOUND_MARGIN = 1e-6


def surely_bounded(state: GtaState, x_star_norm: float) -> bool:
    """True only if no column of the state can meet the divergence rule.

    In every column, x_consensus <= ||x||_F, y_consensus <= ||y||_F and
    opt_err <= ||x||_F / sqrt(n) + ||x*||, with the norms taken over the
    whole stack.  So two dot products clear every column at once; a
    non-finite entry makes a norm non-finite and the check fail.  It only
    decides when `diverged` must be evaluated; it is not a second rule.
    """
    limit = DIVERGENCE_LIMIT * (1.0 - _BOUND_MARGIN)
    x_norm = _norm(state.x)
    return (x_norm <= limit and x_norm / math.sqrt(len(state.x)) + x_star_norm <= limit
            and _norm(state.y) <= limit)


@dataclass(frozen=True)
class RunTrace:
    """Per-outer-iteration error vectors plus cost counters.

    Row k reports the state at the boundary (k, 1); the cumulative counters
    are the algorithm's exact costs: comms = k * n_c consensus rounds and
    grads = k * n_g * n local gradient evaluations, whether or not the
    program evaluates each one (a quadratic's closed-form local steps
    evaluate one gradient per node for all n_g - 1 of them).
    """

    k: np.ndarray
    opt_err: np.ndarray
    x_consensus_err: np.ndarray
    y_consensus_err: np.ndarray
    n_c: int
    n_g: int
    n: int
    vectors_per_round: int
    wall_time: float

    @property
    def comms(self) -> np.ndarray:
        """Cumulative consensus rounds (each round touches every slot)."""
        return self.k * self.n_c

    @property
    def comm_vectors(self) -> np.ndarray:
        """Cumulative per-vector communication count (non-identity slots)."""
        return self.k * self.n_c * self.vectors_per_round

    @property
    def grad_evals(self) -> np.ndarray:
        return self.k * self.n_g * self.n

    def final(self) -> ErrorVector:
        return ErrorVector(float(self.opt_err[-1]), float(self.x_consensus_err[-1]),
                           float(self.y_consensus_err[-1]))

    def error_matrix(self) -> np.ndarray:
        """(iters+1, 3) array of error vectors, one row per boundary."""
        return np.column_stack([self.opt_err, self.x_consensus_err, self.y_consensus_err])

    def to_csv(self, path) -> None:
        comms = self.comms
        grads = self.grad_evals
        lines = ["k,comms_cumulative,grads_cumulative,opt_err,x_consensus_err,y_consensus_err"]
        for i in range(len(self.k)):
            lines.append("%d,%d,%d,%.17g,%.17g,%.17g" % (
                self.k[i], comms[i], grads[i], self.opt_err[i],
                self.x_consensus_err[i], self.y_consensus_err[i]))
        Path(path).write_text("\n".join(lines) + "\n")


def run(suite: ObjectiveSuite, cfg: GtaConfig, x0: np.ndarray) -> RunTrace:
    """Execute outer iterations until the budget or stop_tol is reached:
    x0 (n*d entries) and the scalar cfg.alpha make a one-column stack.

    Deterministic for fixed inputs.  Raises DivergenceError when the errors
    meet the divergence rule (`diverged`).
    """
    if cfg.strategy.n != suite.n:
        raise ValueError(f"strategy has n={cfg.strategy.n} but suite has n={suite.n}")
    t0 = time.perf_counter()
    state = initialize(suite, x0)
    errs = [error_vector(state, suite)]
    # overflow on the way past the divergence guard is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_outer_iters):
            if cfg.stop_tol is not None and errs[-1].opt_err <= cfg.stop_tol:
                break
            advance(state, cfg)
            errs.append(error_vector(state, suite))
            if diverged(errs[-1]):
                raise DivergenceError(state.k, errs[-1])
    opt_err, x_consensus, y_consensus = np.array([e.as_array() for e in errs]).T
    return RunTrace(k=np.arange(len(errs)), opt_err=opt_err, x_consensus_err=x_consensus,
                    y_consensus_err=y_consensus, n_c=cfg.strategy.n_c, n_g=cfg.n_g, n=suite.n,
                    vectors_per_round=cfg.strategy.vectors_per_round(),
                    wall_time=time.perf_counter() - t0)
