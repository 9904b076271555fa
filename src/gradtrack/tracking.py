"""Gradient tracking runtime: the iteration kernel and the one loop that steps it.

One outer iteration (`advance`) takes n_g - 1 local steps, then the
communication step through the four slots of a strategy:

    inner (j = 1 .. n_g-1):  x <- x - alpha*y ;  y <- y + grad(x') - grad(x)
    outer:  x' = W1^nc x - alpha W2^nc y
            y' = W3^nc y + W4^nc (grad(x') - grad(x))

A quadratic suite takes the n_g - 1 local steps at once in closed form
(`ObjectiveSuite.local_steps`); other suites take them one `inner_step` at
a time.  The state is an (n, d, c) stack, one column per cell
(`GtaConfig`).  A `RunStack` splits its cells into the parts that share a
state (`_parts`, the one rule) and steps each part in one pass until every
column has left: at its budget, at opt_err <= its stop_tol, or at the
divergence rule (`diverged`).  A grid's cells run as one traced RunStack,
a step-size sweep is a RunStack without trace, and `run` returns one
cell's trace.

Each update Z_a u + Z_b v mixes through one `mixing_power` when the
columns' strategies share it (`_pair`), else as one batched product per
slot pair (`_product`).  `_rows_to_leaving` takes the error rows in blocks
and rewinds to the first row where a column leaves, so every row has the
bits of its own `error_vector`, and no row takes a BLAS call.  The loop
reads no clock: the iterations it steps and every row are functions of its
inputs alone.  A stacked column takes the iterations of its own run; only
the rounding of the batched products and norms can differ.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass
from functools import partial
from itertools import compress
from pathlib import Path
from typing import Callable

import numpy as np

from .problems import ObjectiveSuite
from .topology import CommunicationStrategy

DIVERGENCE_LIMIT = 1e12

# A stack of distinct cells mixes as one batched product per slot pair
# (`_product`), whose left operand, c stacked [Z_a | Z_b], holds c*n*2n
# floats; `_parts` merges distinct strategies into one state only up to
# this many.  The product does twice a one-cell apply's work per column, so
# it pays only while the per-call overhead it saves dominates: the smallest
# stack measured to lose to one-cell runs held 110592 floats, and a merged
# sweep, which mixes through its one power, also loses past the bound
# (CHANGES.md, "Grid stacks mix as one batched product per slot pair" and
# "Quadratic grids stack across n_g").  The bound also keeps out the
# matrices that can take gather rounds: two cells fit only while n <= 128,
# and a table needs n >= m * ROUND_COST for a densest row of m nonzeros,
# where a Metropolis matrix (positive diagonal, a connected graph with
# n >= 3) has m >= 3.  Only a custom matrix whose rows hold at most 2
# nonzeros (a matching's) has a table at n = 128; in a batched product it
# mixes through its dense power, the same matrix with other rounding, as a
# one-power stack does wherever `topology.rounds_pay` sends its width to
# the product while a lone run of the same cell takes rounds.
BATCH_MAX_FLOATS = 1 << 16


class DivergenceError(RuntimeError):
    """A run's errors met the divergence rule (see `diverged`)."""

    def __init__(self, k: int, errors: ErrorVector):
        super().__init__(f"diverged at outer iteration {k}: " + ", ".join(
            f"{name} = {value:.3e}" for name, value in asdict(errors).items()))
        self.k = k
        self.opt_err = errors.opt_err
        self.errors = errors


def _check_count(name: str, value, least: int) -> None:
    """A count must be an integer (range() takes neither 2.5 nor 2.0) >= least."""
    try:
        ok = operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class GtaConfig:
    """Run parameters of one cell: strategy, step size, computation steps,
    budgets."""

    strategy: CommunicationStrategy
    alpha: float
    n_g: int = 1
    max_outer_iters: int = 1000
    stop_tol: float | None = None

    def __post_init__(self):
        # an array is no step size (a stack holds one cell per column); NaN
        # fails both comparisons.  float is tested first: the numbers.Real
        # check takes about 0.4 us, and a sweep builds 21 configs
        if not (isinstance(self.alpha, (float, numbers.Real)) and 0 < self.alpha < math.inf):
            raise ValueError(f"step size must be a positive finite number, got {self.alpha}")
        _check_count("n_g", self.n_g, 1)
        _check_count("max_outer_iters", self.max_outer_iters, 0)
        # NaN fails both comparisons; a NaN or negative stop_tol never stops
        # a run, and inf stops it at k = 0
        if self.stop_tol is not None and not 0 <= self.stop_tol < math.inf:
            raise ValueError(f"stop_tol must be a finite number >= 0, got {self.stop_tol}")


def batchable(cfgs: list[GtaConfig]) -> bool:
    """Whether the cells can mix as one batched product per slot pair: each
    pair's (c, n, 2n) left operand holds at most BATCH_MAX_FLOATS floats
    (one half of `_parts`'s rule)."""
    n = cfgs[0].strategy.n
    return len(cfgs) * 2 * n * n <= BATCH_MAX_FLOATS


def steps_together(suite: ObjectiveSuite, cfgs: list[GtaConfig]) -> bool:
    """Whether the cells' local steps can run as one stack on suite: they
    share n_g, or suite has a closed form (`ObjectiveSuite.local_steps`),
    which takes one step count per column."""
    n_g = cfgs[0].n_g
    return suite.closed_form or all(cfg.n_g == n_g for cfg in cfgs)


def _parts(suite: ObjectiveSuite, cfgs: list[GtaConfig]) -> list[list[GtaConfig]]:
    """The cells of a `RunStack` as the parts that share one (n, d, c)
    state, in order; the one rule of which cells stack.

    A set of cells is one part when suite steps them together
    (`steps_together`) and they are either `batchable` or hold one
    strategy object at one n_g.  Otherwise the set splits, each piece
    keeping its cells' order and the pieces in order of their key's first
    appearance: by n_g when suite cannot step the cells together or they
    hold one strategy, else by strategy; each piece is split again by the
    same rule.  So a quadratic grid or sweep within the float bound is one
    part, and past it one part per strategy over its n_g while that fits,
    else per (strategy, n_g); a logistic set of several n_g is one part per
    n_g while that fits, else per (n_g, strategy).
    """
    together = steps_together(suite, cfgs)
    one_strategy = all(cfg.strategy is cfgs[0].strategy for cfg in cfgs)
    one_n_g = all(cfg.n_g == cfgs[0].n_g for cfg in cfgs)
    if together and (batchable(cfgs) or (one_strategy and one_n_g)):
        return [cfgs]
    by_n_g = not together or one_strategy
    pieces: dict = {}
    for cfg in cfgs:
        pieces.setdefault(cfg.n_g if by_n_g else id(cfg.strategy), []).append(cfg)
    return [part for piece in pieces.values() for part in _parts(suite, piece)]


def mixing_power(strategy: CommunicationStrategy):
    """What strategy mixes through: (W, n_c) when every non-identity slot
    holds the one MixingMatrix W (GTA1, GTA2 and GTA3 do), so each slot is
    either the identity or P = W^n_c; else the strategy itself.  Cells
    whose strategies share it mix as one stack through P (`_pair`)."""
    matrices = {m for m in strategy.slots if m is not None}
    return (matrices.pop(), strategy.n_c) if len(matrices) == 1 else strategy


def _one_power(cfgs: list[GtaConfig]) -> bool:
    """Whether the cells' strategies share one `mixing_power`."""
    power = mixing_power(cfgs[0].strategy)
    return all(mixing_power(cfg.strategy) == power for cfg in cfgs)


class _Stack:
    """The kernel's parameters for the live columns of one part.  Per
    column, built once per part (`_stack`) and narrowed by `keep`: the
    step sizes alpha (a float for a lone cell), the counts n_g - 1, the
    (c, 4) mask of slots that hold a matrix, each slot pair's (c, n, 2n)
    blocks [Z_a | Z_b] (None on one mixing power), and steps, the suite's
    closed form once `advance` built it.  Per set of live columns:
    neg_alpha, m (None when every column has n_g = 1, an int when they
    share n_g, else the counts) and the two updates of `outer_step`,
    mix_x(u, v) = Z_1 u + Z_2 v and mix_y(u, v) = Z_3 u + Z_4 v."""

    def __init__(self, cfgs: list[GtaConfig], alpha, counts: np.ndarray, slots: np.ndarray,
                 blocks: tuple | None, steps: Callable | None = None):
        self.cfgs, self.alpha, self.neg_alpha = cfgs, alpha, -alpha
        self.counts, self.slots, self.blocks, self.steps = counts, slots, blocks, steps
        self.m = counts if counts.min() < counts.max() else int(counts[0]) or None
        if blocks is None:
            self.mix_x, self.mix_y = _pair_of(cfgs, slots, 0, 1), _pair_of(cfgs, slots, 2, 3)
        else:
            self.mix_x, self.mix_y = partial(_product, blocks[0]), partial(_product, blocks[1])

    def keep(self, cols: np.ndarray) -> _Stack:
        """The stack of the columns where the (c,) mask cols is True, its
        constants narrowed as `GtaState.keep` narrows the state; the blocks
        are dropped once the columns left share one mixing power."""
        cfgs = list(compress(self.cfgs, cols))
        blocks = (None if self.blocks is None or _one_power(cfgs)
                  else tuple(z.compress(cols, axis=0) for z in self.blocks))
        return _Stack(cfgs, self.alpha.compress(cols), self.counts.compress(cols),
                      self.slots.compress(cols, axis=0), blocks,
                      None if self.steps is None else self.steps.compress(cols))


def _stack(cfgs: list[GtaConfig]) -> _Stack:
    """The kernel's parameters for one column per cfg.  A lone cfg keeps
    its scalar step size; columns whose strategies share one `mixing_power`
    mix through it (`_pair_of`), others as one batched product per slot
    pair (`_product`)."""
    alpha = cfgs[0].alpha if len(cfgs) == 1 else np.array([cfg.alpha for cfg in cfgs])
    slots = np.array([[m is not None for m in cfg.strategy.slots] for cfg in cfgs])
    blocks = None if _one_power(cfgs) else (_operands(cfgs, 0, 1), _operands(cfgs, 2, 3))
    return _Stack(cfgs, alpha, np.array([cfg.n_g - 1 for cfg in cfgs]), slots, blocks)


def _pair_of(cfgs: list[GtaConfig], slots: np.ndarray, a: int, b: int) -> partial:
    """`_pair` for slots a and b of a one-power stack: through the first
    column's strategy, without masks, when every column holds one pattern
    out of {P, I}^2 there; else through a strategy whose pair holds P, with
    the masks of the columns whose operand is v, that add v before P, add
    v or u after it, and take u + v (None for a mask of no column)."""
    pa, pb = slots[:, a], slots[:, b]
    if pa.min() == pa.max() and pb.min() == pb.max():
        return partial(_pair, a, b, cfgs[0].strategy, None)
    masks = (~pa, pa & pb, pa & ~pb, ~pa & pb, ~pa & ~pb)
    return partial(_pair, a, b, cfgs[int(np.argmax(pa | pb))].strategy,
                   tuple(mask if mask.any() else None for mask in masks))


def _operands(cfgs: list[GtaConfig], a: int, b: int) -> np.ndarray:
    """The (c, n, 2n) stack of [Z_a | Z_b], one per column, from each slot's
    cached `MixingMatrix.power` (the identity for a None slot)."""
    eye = np.eye(cfgs[0].strategy.n)
    return np.stack([np.hstack([eye if st.slots[s] is None else st.slots[s].power(st.n_c)
                                for s in (a, b)])
                     for st in (cfg.strategy for cfg in cfgs)])


@dataclass(frozen=True)
class ErrorVector:
    """(optimization error, x consensus error, y consensus error) at an
    outer-iteration boundary; (c,) arrays for a stack of c > 1 columns."""

    opt_err: float
    x_consensus: float
    y_consensus: float


@dataclass(slots=True)
class GtaState:
    """Mutable iteration state owned by one RunStack (a run, a sweep or a
    grid's stack).

    x, y and grads are (n, d, c) stacks of the local copies, one column per
    step size of a sweep or per cell of a stack (c = 1 for a run); k is the
    outer iteration.
    """

    suite: ObjectiveSuite
    x: np.ndarray
    y: np.ndarray
    grads: np.ndarray
    k: int = 0

    def keep(self, cols: np.ndarray) -> None:
        """Drop the columns where the (c,) mask `cols` is False."""
        # one stack at a time, so at most one old stack is held; compress
        # keeps the stacks C-ordered (a boolean index would not), so mixing
        # reshapes them without a copy
        self.x = self.x.compress(cols, axis=2)
        self.y = self.y.compress(cols, axis=2)
        self.grads = self.grads.compress(cols, axis=2)


def initialize(suite: ObjectiveSuite, x0: np.ndarray) -> GtaState:
    """State at k = 0: trackers start at the local gradients of x0, an
    (n, d, c) stack, or n*d entries for one column."""
    x0 = np.asarray(x0, dtype=float)
    n, d = suite.n, suite.d
    if (x0.shape[:2] != (n, d)) if x0.ndim == 3 else (x0.size != n * d):
        raise ValueError(f"x0 has shape {x0.shape}, expected n*d = {n * d} entries or an "
                         f"(n, d, c) = ({n}, {d}, c) stack")
    x = x0.reshape(n, d, -1).copy()
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


def _pair(a: int, b: int, strategy: CommunicationStrategy, masks: tuple | None,
          u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Z_a u + Z_b v for every column of a one-power stack (`_pair_of`).
    v must be a temporary of the caller: the sum may be formed in place in
    v, so a sweep's peak holds no extra stack.

    Without masks (one slot pattern: a run, a sweep) the stack mixes whole
    through strategy's slots: when slots a and b hold the same matrix (or
    None) as the one product Z (u + v), else as Z_b v + Z_a u.  With them,
    P = W^n_c is applied once to one operand, u or (where slot a is the
    identity) v, plus v where both slots hold P; then v is added back
    where slot b is the identity, u where slot a is, and a column whose
    slots both are gets u + v.  Every sum is a masked add (`where=`), so no
    0 * v product turns inf into nan or flips a zero's sign."""
    if masks is None:
        if strategy.slots[a] is strategy.slots[b]:
            v += u
            return _mix(strategy, a, v)
        out = _mix(strategy, b, v)
        out += _mix(strategy, a, u)
        return out
    from_v, both, add_v, add_u, neither = masks
    # (n*d, c) views: a (c,) mask then broadcasts along one axis
    c = u.shape[2]
    u2, v2 = u.reshape(-1, c), v.reshape(-1, c)
    operand = u2.copy()
    if from_v is not None:
        np.copyto(operand, v2, where=from_v)
    if both is not None:
        np.add(operand, v2, out=operand, where=both)
    out = _mix(strategy, a if strategy.slots[a] is not None else b, operand.reshape(u.shape))
    out2 = out.reshape(-1, c)
    for mask, p, q in ((add_v, out2, v2), (add_u, out2, u2), (neither, u2, v2)):
        if mask is not None:
            np.add(p, q, out=out2, where=mask)
    return out


def _product(z: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Z_a u + Z_b v for every column at once, column j through its own
    [Z_a | Z_b] = z[j] (`_operands`): one matmul of z with the (c, 2n, d)
    stack [u; v], written into a C-ordered (n, d, c) stack."""
    n = len(u)
    uv = np.empty((u.shape[2], 2 * n, u.shape[1]))
    uv[:, :n] = u.transpose(2, 0, 1)
    uv[:, n:] = v.transpose(2, 0, 1)
    # the next gradient and norms read a C-ordered stack faster than the
    # product's (n, d, c) view (CHANGES.md, "Grid stacks mix as one batched
    # product per slot pair")
    out = np.empty(u.shape)
    np.matmul(z, uv, out=out.transpose(2, 0, 1))
    return out


def outer_step(state: GtaState, cfg: _Stack) -> GtaState:
    """Communication update: n_c consensus steps through each slot
    (`MixingMatrix.apply`, or one batched product per slot pair); one new
    gradient evaluation per node."""
    # state.x is replaced at once (as in inner_step): holding the old x
    # through the gradient and y updates would add a stack to a sweep's peak
    state.x = cfg.mix_x(state.x, cfg.neg_alpha * state.y)
    g_new = state.suite.grad_stack_batch(state.x)
    state.y = cfg.mix_y(state.y, g_new - state.grads)
    state.grads = g_new
    state.k += 1
    return state


def advance(state: GtaState, cfg: _Stack) -> GtaState:
    """One outer iteration: n_g - 1 local steps, then the communication step.

    The local steps run as the suite's closed form when it has one (a
    quadratic: x moves by its total over the n_g - 1 steps, and the trackers
    take the gradient change, as in one step: a few array operations and one
    gradient, whatever n_g is, and a zero move in a column at n_g = 1), else
    as n_g - 1 `inner_step` calls, which needs one n_g for every column.
    Nothing runs when every column has n_g = 1.  The closed form is built on
    the first advance that needs it and held in cfg (a `_stack` result),
    whose `_Stack.keep` narrows it as columns leave.
    """
    if cfg.m is not None:
        if cfg.steps is None:
            cfg.steps = state.suite.local_steps(cfg.alpha, cfg.m)
        if cfg.steps is None:
            for _ in range(cfg.m):
                inner_step(state, cfg.alpha)
        else:
            _move(state, cfg.steps(state.y))
    return outer_step(state, cfg)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) without its wrapper: the same memory-order ravel
    and dot product, so the same bits."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def error_rows(x: np.ndarray, y: np.ndarray, suite: ObjectiveSuite) -> np.ndarray:
    """The three errors against suite.x_star of b states at once: x and y
    are (b, n, d, c) stacks of b states' x and y (c columns each); returns
    the (b, 3, c) rows (optimization error, x consensus error, y consensus
    error).  Every column's norms, whatever c, are np.linalg.norm's own
    per-column formula, each temporary squared in place and summed by
    np.add.reduce: no BLAS call, so the bits do not depend on its thread
    count, and each state's row has the bits of its own computation."""
    b, n, _, c = x.shape
    # sum / n is mean's own formula (same bits, less overhead)
    x_bar = x.sum(axis=1, keepdims=True) / n
    y_bar = y.sum(axis=1, keepdims=True) / n
    rows = np.empty((b, 3, c))
    for i, (a, ref) in enumerate(((x_bar, suite.x_star[:, None]), (x, x_bar), (y, y_bar))):
        v = a - ref
        np.add.reduce(np.square(v, out=v), axis=(1, 2), out=rows[:, i])
        # one temporary at a time: the peak holds one stack-sized temporary,
        # not two
        del v
    return np.sqrt(rows, out=rows)


def error_vector(state: GtaState, suite: ObjectiveSuite) -> ErrorVector:
    """Measure the three errors against suite.x_star: `error_rows` of the
    one state, so the same formula for any column count; floats for one
    column (a run), (c,) arrays per column for more."""
    rows = error_rows(state.x[None], state.y[None], suite)[0]
    return ErrorVector(*(rows[:, 0].tolist() if state.x.shape[2] == 1 else rows))


def diverged(ev: ErrorVector):
    """The divergence rule of runs and sweeps: True (per column for a stack)
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
    Its two dot products may be split across BLAS threads, but the margin
    lets their rounding decide only which rows are taken, never a row.
    """
    limit = DIVERGENCE_LIMIT * (1.0 - _BOUND_MARGIN)
    x_norm = _norm(state.x)
    return (x_norm <= limit and x_norm / math.sqrt(len(state.x)) + x_star_norm <= limit
            and _norm(state.y) <= limit)


# A segment takes its error rows in blocks (`_rows_to_leaving`): up to
# _ROW_BLOCK outer iterations, whose held (x, y, grads) hold at most
# _ROW_FLOATS floats (at least one iteration is held).  The lengths follow
# from the state's size, the budgets and the rows alone, never from a
# clock.  scripts/error_rows_timing.py measures both bounds: on a 16-node
# one-column state a row taken alone costs more than an outer iteration,
# and one in a block of 32 about a fifth of that; past the cap a block
# takes its rows no faster, an uncapped block slowed torus-1024's solve,
# and a looser cap raised the benchmark's peak memory (CHANGES.md, "README
# as a reference of what gradtrack computes").  A leave drops the block's
# iterations past its row: none at a budget; at a stop_tol none where the
# last block's decay held (`_predicted_length`), up to _ROW_BLOCK - 1 in a
# segment's first block; at a divergence up to _ROW_BLOCK - 1.
_ROW_BLOCK = 32
_ROW_FLOATS = 1 << 14


def _predicted_length(opt_err: np.ndarray, tols: np.ndarray, cap: int) -> int:
    """The length of the block after one in which no column left, from
    that block's (rows, c) opt_err, every entry positive and finite, and
    the columns' stop_tols (-inf where none): the fewest iterations n >= 1
    after which the log-linear decay of a column with a stop_tol, from the
    block's first row to its last, opt_err[-1] * (opt_err[-1] /
    opt_err[0])^(n / (rows - 1)), reaches that stop_tol; at most cap, and
    cap when no such column's log opt_err falls across the block (one row
    included)."""
    steps, n = len(opt_err) - 1, cap
    # Python floats: a block's few columns cost less than numpy's per-call
    # overhead.  The test is on the logs: at a rounding floor two errors an
    # ulp apart can share one log, a decay of zero
    for first, last, tol in zip(opt_err[0].tolist(), opt_err[-1].tolist(), tols.tolist()):
        if tol > 0 and (drop := math.log(first) - math.log(last)) > 0:
            n = min(n, math.ceil((math.log(tol) - math.log(last)) / (-drop / steps)))
    return max(1, n)


def _rows_to_leaving(state: GtaState, step: _Stack, budgets: np.ndarray, tols: np.ndarray,
                     entry: bool, bound: float | None):
    """Advance state until the first row at which a column leaves (its
    budget, opt_err <= its stop_tol, or the divergence rule from k = 1 on;
    budgets and tols hold one entry per column), taking the rows in blocks:
    the row of the state on entry (with entry, at k = 0) and each later one.
    With bound (||x*||, given when no column has a stop_tol and no row is
    kept) rows short of the smallest budget that no column can leave on are
    skipped: the entry row, where the divergence rule is not tested, and
    the row of each iteration that `surely_bounded` clears, until a block
    holds a row.  So a sweep takes rows only where a column may diverge and
    at its budget.

    A segment's first block holds the cap's rows, min(_ROW_BLOCK, the
    _ROW_FLOATS cap); after a block in which no column leaves, the next
    holds `_predicted_length` rows: the iterations after which that
    block's opt_err decay reaches the nearest stop_tol, the cap when no
    live column has one.  No block passes the smallest budget.  A block
    keeps each row's (x, y, grads), which `advance` replaces and never
    mutates; one `error_rows` call then takes the block's rows.  At the
    first row where a column leaves, the state is reset to that row's
    arrays and the later iterations are dropped.

    Returns the (rows, 3, c) errors up to the leaving row, and that row's
    per-column lists of whether the column met the divergence rule and
    whether it leaves."""
    cap = max(1, min(_ROW_BLOCK, _ROW_FLOATS // (3 * state.x.size)))
    k_end, tol_max = int(budgets.min()), tols.max()
    entry = entry and (bound is None or state.k >= k_end)
    held = [(state.x, state.y, state.grads)] if entry else []
    blocks = []
    length = cap
    while True:
        while len(held) < length and state.k < k_end:
            advance(state, step)
            # a block's rows are consecutive, so a held row ends the skipping
            if (bound is not None and not held and state.k < k_end
                    and surely_bounded(state, bound)):
                continue
            held.append((state.x, state.y, state.grads))
        # the stacks live only through the call, so no state outlives its
        # block; a lone state is read in place, so one past the cap is not
        # copied
        errors = (error_rows(held[0][0][None], held[0][1][None], state.suite) if len(held) == 1
                  else error_rows(np.stack([h[0] for h in held]), np.stack([h[1] for h in held]),
                                  state.suite))
        # most blocks hold no row where a column may leave: a comparison and
        # two reductions clear them (a NaN fails both error tests)
        if not (state.k < k_end and errors[:, 0].min() > tol_max
                and errors.max() <= DIVERGENCE_LIMIT):
            ks = np.arange(state.k + 1 - len(held), state.k + 1)[:, None]
            dead = diverged(ErrorVector(*errors.transpose(1, 0, 2))) & (ks > 0)
            leaves = dead | (ks >= budgets) | (errors[:, 0] <= tols)
            hit = leaves.any(axis=1)
            if hit.any():
                r = int(hit.argmax())
                blocks.append(errors[:r + 1])
                state.x, state.y, state.grads = held[r]
                state.k = int(ks[r, 0])
                return ((blocks[0] if len(blocks) == 1 else np.concatenate(blocks)),
                        dead[r].tolist(), leaves[r].tolist())
        blocks.append(errors)
        held = []
        length = _predicted_length(errors[:, 0], tols, cap)


@dataclass(frozen=True)
class RunTrace:
    """Per-outer-iteration error vectors plus cost counters.

    Row k reports the state at the boundary (k, 1); the cumulative counters
    are the algorithm's exact costs: comms = k * n_c consensus rounds and
    grads = k * n_g * n local gradient evaluations, whether or not the
    program evaluates each one (a quadratic's closed-form local steps
    evaluate one gradient per node for all n_g - 1 of them).  Like its
    rows, a trace is a function of its cell and inputs alone.
    """

    k: np.ndarray
    opt_err: np.ndarray
    x_consensus_err: np.ndarray
    y_consensus_err: np.ndarray
    n_c: int
    n_g: int
    n: int
    vectors_per_round: int

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
        # Python ints and floats format as the numpy scalars do, without a
        # numpy scalar per element
        columns = (self.k, self.comms, self.grad_evals, self.opt_err, self.x_consensus_err,
                   self.y_consensus_err)
        lines = ["k,comms_cumulative,grads_cumulative,opt_err,x_consensus_err,y_consensus_err"]
        lines += ["%d,%d,%d,%.17g,%.17g,%.17g" % row
                  for row in zip(*(col.tolist() for col in columns))]
        Path(path).write_text("\n".join(lines) + "\n")


class RunStack:
    """Cells run from x0 (n*d entries), each with its own strategy, scalar
    step size, n_g, budget and stop_tol, as the columns of one (n, d, c)
    state per part: `_parts` splits the cells into the parts that share a
    state.  A stack needs at least one cell.

    A request for a cell's `outcome` runs the part that holds it in one
    pass, on the first request for any of its cells, and later requests
    only read the outcomes; a part no cell was asked for never runs.  A
    column leaves at the first row (k >= 1) that meets the divergence rule,
    or else at the first row at its budget or with opt_err <= its stop_tol,
    as a one-cell run ends; the other columns go on.  Every part steps
    through one loop that takes its rows in blocks of iterations
    (`_rows_to_leaving`).  With trace (a grid's runs) every column's error
    row is recorded at every outer iteration, and a column's outcome is its
    RunTrace.  Without it (a step-size sweep) no row is kept: the outcome
    is the ErrorVector of the row the column left on, the last row of its
    traced outcome, and while no live column has a stop_tol a row is taken
    only at the budget or where `surely_bounded` cannot clear every column.
    Either way a column that met the divergence rule has its
    DivergenceError as its outcome.  Deterministic for fixed inputs.
    """

    def __init__(self, suite: ObjectiveSuite, cfgs: list[GtaConfig], x0: np.ndarray,
                 trace: bool = True):
        if not cfgs:
            raise ValueError("a stack needs at least one cell")
        for cfg in cfgs:
            if cfg.strategy.n != suite.n:
                raise ValueError(f"strategy has n={cfg.strategy.n} but suite has n={suite.n}")
        x0 = np.asarray(x0, dtype=float)
        if x0.size != suite.n * suite.d:
            raise ValueError(f"x0 has {x0.size} entries, expected n*d = {suite.n * suite.d}")
        self.suite, self.cfgs, self.x0, self.trace = suite, list(cfgs), x0.ravel(), trace
        # per cell (by identity): the part that holds it, and its outcome once run
        self._part = {id(cfg): part for part in _parts(suite, self.cfgs) for cfg in part}
        self._outcomes: dict = {}

    def _run(self, cfgs: list[GtaConfig]) -> list:
        """Step every column of one part from x0 until it has left; returns
        each cell's outcome.  The live columns form a segment, which steps
        through `_rows_to_leaving` with its smallest budget and largest
        stop_tol; a column leaving starts a new one, and narrows the part's
        kernel parameters (`_Stack.keep`)."""
        suite, trace = self.suite, self.trace
        n, d, c = suite.n, suite.d, len(cfgs)
        state = initialize(suite, self.x0 if c == 1 else
                           np.broadcast_to(self.x0.reshape(n, d, 1), (n, d, c)))
        x_star_norm = float(np.linalg.norm(suite.x_star))
        budgets = np.array([cfg.max_outer_iters for cfg in cfgs])
        tols = np.array([-math.inf if cfg.stop_tol is None else cfg.stop_tol for cfg in cfgs])
        # per cell once it left: its DivergenceError, else its last
        # ErrorVector
        ends: list = [None] * c
        # per cell with trace: its column of each segment's (rows, 3) errors
        segments = [[] for _ in cfgs]
        live = list(range(c))
        # whether a segment takes the row it starts at: only the first, at k = 0
        entry = True
        step = _stack(cfgs)
        # overflow on the way past the divergence guard is expected, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            while live:
                live_tols = tols[live]
                # without trace, rows are needed only to test a stop_tol
                errors, dead, leaves = _rows_to_leaving(
                    state, step, budgets[live], live_tols, entry,
                    None if trace or live_tols.max() > -math.inf else x_star_norm)
                entry = False
                errs = errors[-1].T.tolist()
                for p, j in enumerate(live):
                    if trace:
                        segments[j].append(errors[:, :, p])
                    if dead[p]:
                        ends[j] = DivergenceError(state.k, ErrorVector(*errs[p]))
                    elif leaves[p]:
                        ends[j] = ErrorVector(*errs[p])
                keep = [ends[j] is None for j in live]
                live = [j for j in live if ends[j] is None]
                if live and len(live) < len(keep):
                    keep = np.array(keep)
                    state.keep(keep)
                    step = step.keep(keep)
        outcomes = []
        for cfg, end, rows in zip(cfgs, ends, segments):
            if trace and isinstance(end, ErrorVector):
                opt_err, x_consensus, y_consensus = (rows[0] if len(rows) == 1
                                                     else np.concatenate(rows)).T
                end = RunTrace(k=np.arange(len(opt_err)), opt_err=opt_err,
                               x_consensus_err=x_consensus, y_consensus_err=y_consensus,
                               n_c=cfg.strategy.n_c, n_g=cfg.n_g, n=n,
                               vectors_per_round=cfg.strategy.vectors_per_round())
            outcomes.append(end)
        return outcomes

    def outcome(self, j: int) -> RunTrace | ErrorVector | DivergenceError:
        """Cell j's outcome (see the class docstring); the first request for
        a cell of a part runs that part."""
        cfg = self.cfgs[j]
        if id(cfg) not in self._outcomes:
            part = self._part[id(cfg)]
            self._outcomes.update(zip(map(id, part), self._run(part)))
        return self._outcomes[id(cfg)]


def run(suite: ObjectiveSuite, cfg: GtaConfig, x0: np.ndarray,
        stack: RunStack | None = None) -> RunTrace:
    """Execute outer iterations of cell cfg from x0 (n*d entries) until its
    budget or stop_tol is reached: as a one-cell `RunStack`, or as its
    column of `stack`, a RunStack of suite's cells from x0 that holds this
    cfg object; the first request for any cell of a part runs that part.

    Deterministic for fixed inputs.  Raises DivergenceError when the errors
    meet the divergence rule (`diverged`).
    """
    if stack is None:
        stack = RunStack(suite, [cfg], x0)
    elif stack.suite is not suite or not np.array_equal(stack.x0, np.ravel(x0)):
        raise ValueError("the stack runs another suite or x0")
    column = next((j for j, c in enumerate(stack.cfgs) if c is cfg), None)
    if column is None:
        raise ValueError("cfg is not a cell of the stack")
    outcome = stack.outcome(column)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
