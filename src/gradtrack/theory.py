"""Convergence theory engine.

The per-iteration progress of a gradient tracking run is captured by a
nonnegative 3x3 recursion on the error vector

    r_k = (||xbar_k - x*||, ||x_k - xbar_k||, ||y_k - ybar_k||):

    r_{k+1} <= M r_k  (componentwise).

This module builds those recursion matrices from the four communication
spectral gaps, evaluates their spectral radii, and exposes the closed-form
step-size admissibility conditions and rate upper bounds, including the
degenerate fully connected reductions.  All bounds are sufficient, not
necessary: a tuned step size often works well beyond them.  It also
answers a grid's per-cell questions (`cell_columns`, `ordering_holds`),
which the harness only formats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .topology import (EXACT_AVERAGING_TOL, METHOD_NAMES, SLOT_PATTERNS,
                       CommunicationStrategy)
from .tracking import _check_count

_ORDERING_TOL = 1e-10   # float slack for >=-type spectral comparisons


@dataclass(frozen=True)
class SpectralParams:
    """Inputs of the error recursion: spectral gaps, counts and constants.

    beta1..beta4 are the deflated spectral norms of the four communication
    matrices (1.0 for the identity slot).  z1_dev stands for the norm
    ||W1^nc - I||_2; the closed-form matrices in the printed special cases
    use the worst-case bound 2.0, while exact mode plugs in the measured
    value (see exact_z1_deviation).
    """

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    n_c: int
    n_g: int
    alpha: float
    L: float
    mu: float
    n: int
    z1_dev: float = 2.0

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "beta4"):
            b = getattr(self, name)
            if not (0.0 <= b <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {b}")
        for name in ("n_c", "n_g", "n"):
            _check_count(name, getattr(self, name), 1)
        # NaN fails the comparison, as in GtaConfig
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be a positive finite number, got {self.alpha}")
        # an infinite L would make every step-size bound read 0, as if no
        # step contracted; NaN fails the comparisons
        if not (0 < self.mu <= self.L < math.inf):
            raise ValueError(f"need 0 < mu <= L < inf, got mu={self.mu}, L={self.L}")
        if not (0.0 <= self.z1_dev <= 2.0):
            raise ValueError(f"z1_dev must be in [0, 2], got {self.z1_dev}")

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    # spectral gaps after n_c consensus steps
    @property
    def b1c(self) -> float:
        return self.beta1 ** self.n_c

    @property
    def b2c(self) -> float:
        return self.beta2 ** self.n_c

    @property
    def b3c(self) -> float:
        return self.beta3 ** self.n_c

    @property
    def b4c(self) -> float:
        return self.beta4 ** self.n_c


def params_for_method(method: str, beta: float, *, n_c: int, n_g: int, alpha: float,
                      L: float, mu: float, n: int, z1_dev: float = 2.0) -> SpectralParams:
    """SpectralParams with the slot assignment of one of the named methods."""
    if method not in SLOT_PATTERNS:
        raise ValueError(f"unknown method {method!r}")
    b1, b2, b3, b4 = (beta if slot == "W" else 1.0 for slot in SLOT_PATTERNS[method])
    return SpectralParams(beta1=b1, beta2=b2, beta3=b3, beta4=b4, n_c=n_c, n_g=n_g,
                          alpha=alpha, L=L, mu=mu, n=n, z1_dev=z1_dev)


# Largest n at which z1_mode = exact may run (`harness.parse_config`): it
# needs every eigenvalue of W, from one dense eigensolve of the n x n array,
# which at n = 4096 holds 128 MiB and took 5.0-5.6 s (README, "Config format")
EXACT_Z1_MAX_N = 4096


def exact_z1_deviation(strategy: CommunicationStrategy) -> float:
    """Measured ||W1^nc - I||_2 (largest |1 - lambda^nc| over the
    eigenvalues lambda of the first slot, solved once per matrix; 0 for an
    identity slot), for use instead of the worst-case bound 2."""
    w1 = strategy.slots[0]
    if w1 is None:
        return 0.0
    return float(np.max(np.abs(1.0 - w1.eigenvalues ** strategy.n_c)))


def params_from_strategy(strategy: CommunicationStrategy, *, alpha: float, L: float,
                         mu: float, n_g: int = 1, z1_mode: str = "bound") -> SpectralParams:
    """SpectralParams for a concrete strategy and objective constants."""
    if z1_mode == "bound":
        z1 = 2.0
    elif z1_mode == "exact":
        z1 = exact_z1_deviation(strategy)
    else:
        raise ValueError(f"z1_mode must be 'bound' or 'exact', got {z1_mode!r}")
    b1, b2, b3, b4 = strategy.betas
    return SpectralParams(beta1=b1, beta2=b2, beta3=b3, beta4=b4, n_c=strategy.n_c,
                          n_g=n_g, alpha=alpha, L=L, mu=mu, n=strategy.n, z1_dev=z1)


def recursion_matrix(p: SpectralParams) -> np.ndarray:
    """3x3 error-recursion matrix with n_g computation steps per iteration.

    Valid for alpha <= 1/(n_g*L).  At n_g = 1 the entry pattern is
        [1 - a*mu,            a*L/sqrt(n),                  0        ]
        [0,                   b1^nc,                        a*b2^nc  ]
        [sqrt(n)*a*b4^nc*L^2, b4^nc*L*(z1_dev + a*L), b3^nc + a*b4^nc*L]
    For n_g > 1, with c = (1 - a*mu)^n_g, the first row becomes
    [c, kappa/sqrt(n)*(1 - c), 0], a*b2^nc in the second grows to
    a*((n_g - 1)*b1^nc + b2^nc), and a*L*(n_g - 1) times
    inner_loop_error_matrix is added.
    """
    a, L, g = p.alpha, p.L, p.n_g
    if a > 1.0 / (g * L):
        raise ValueError(f"alpha = {a} exceeds 1/L = {1.0 / L}" if g == 1 else
                         f"alpha = {a} exceeds 1/(n_g*L) = {1.0 / (g * L)}")
    row2 = [0.0, p.b1c, a * ((g - 1) * p.b1c + p.b2c)]
    row3 = [math.sqrt(p.n) * a * p.b4c * L * L,
            p.b4c * L * (p.z1_dev + a * L),
            p.b3c + a * p.b4c * L]
    if g == 1:
        return np.array([[1.0 - a * p.mu, a * L / math.sqrt(p.n), 0.0], row2, row3])
    contraction = (1.0 - a * p.mu) ** g
    core = np.array([
        [contraction, p.kappa / math.sqrt(p.n) * (1.0 - contraction), 0.0],
        row2,
        row3,
    ])
    return core + a * L * (g - 1) * inner_loop_error_matrix(p)


def recursion_matrix_for_method(method: str, beta: float, p: SpectralParams) -> np.ndarray:
    """Printed special-case recursion matrix of GTA-1/2/3 (n_g = 1, z1_dev
    fixed at 2)."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    return recursion_matrix(params_for_method(method, beta, n_c=p.n_c, n_g=1, alpha=p.alpha,
                                              L=p.L, mu=p.mu, n=p.n, z1_dev=2.0))


def inner_loop_error_terms(p: SpectralParams) -> tuple[float, float]:
    """The two aggregate coefficients of the inner-loop error matrix.

    d1 = 2*b2^nc + b1^nc*(n_g - 2)   (nonnegative for n_g >= 2)
    d2 = 2*(b4^nc*z1_dev + b4^nc/n_g + b3^nc)
    """
    d1 = 2.0 * p.b2c + p.b1c * (p.n_g - 2)
    d2 = 2.0 * (p.b4c * p.z1_dev + p.b4c / p.n_g + p.b3c)
    return d1, d2


def inner_loop_error_matrix(p: SpectralParams) -> np.ndarray:
    """Extra error propagation caused by the n_g - 1 inner computation steps
    (meaningful for n_g >= 2; its weight in the recursion is alpha*L*(n_g-1))."""
    a, L = p.alpha, p.L
    rn = math.sqrt(p.n)
    d1, d2 = inner_loop_error_terms(p)
    return np.array([
        [a * L * p.n_g, a * L * p.n_g / rn, a * p.n_g / rn],
        [rn * a * L * d1, a * L * d1, a * d1],
        [rn * L * d2, L * d2, d2],
    ])


def spectral_radius(m):
    """Spectral radius of a nonnegative matrix (the recursions are 3x3 or
    2x2), by a dense eigensolve; of a (..., k, k) stack, the (...) array of
    its matrices' radii, from one eigensolve call, each with the bits of its
    own.  Raises ArithmeticError for a matrix with non-finite entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ArithmeticError("spectral radius of a matrix with non-finite entries")
    if np.any(a < 0):
        raise ValueError("expected a nonnegative matrix")
    rho = np.max(np.abs(np.linalg.eigvals(a)), axis=-1)
    return float(rho) if a.ndim == 2 else rho


def _stable_sqrt_term(x: float) -> float:
    """sqrt(1 + x) + 1, finite for x = 0 and monotone in x."""
    return math.sqrt(1.0 + x) + 1.0


def step_size_bound(p: SpectralParams) -> float:
    """Largest admissible step size guaranteeing a contractive single-step
    recursion (spectral radius < 1), for connected first and third slots.

    Requires beta1, beta3 < 1; otherwise no step size can contract the
    consensus errors and 0 is returned with a diagnostic.  The third branch
    of the minimum is evaluated in a cancellation-free form so that
    beta2^nc -> 0 degenerates smoothly.
    """
    if p.beta1 >= 1.0 or p.beta3 >= 1.0:
        warnings.warn("step_size_bound: beta1 and beta3 must be < 1 "
                      "(first and third communication slots must be connected); "
                      "returning 0", stacklevel=2)
        return 0.0
    k = p.kappa
    b1c, b2c, b3c, b4c = p.b1c, p.b2c, p.b3c, p.b4c
    terms = [1.0 / p.L]
    if b4c > 0.0:
        terms.append((1.0 - b3c) / (p.L * b4c))
        t = 1.0 - b1c + 2.0 * b2c
        x = 4.0 * (1.0 - b1c) * (1.0 - b3c) * b2c * (k + 1.0) / (b4c * t * t)
        terms.append(2.0 * (1.0 - b1c) * (1.0 - b3c) * (k + 1.0)
                     / (k * (p.L + p.mu) * b4c * t * _stable_sqrt_term(x)))
    return min(terms)


def step_size_bound_for_method(method: str, beta: float, p: SpectralParams) -> float:
    """Closed-form admissible step-size bounds of GTA-1/2/3.

    Monotone in the method index: GTA-3 admits the largest step size and
    GTA-1 the smallest at equal (beta, L, mu, n_c); every bound is
    nondecreasing in n_c.  beta = 0 (exact averaging) is excluded here; use
    fully_connected_rate for that regime.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    if beta == 0.0:
        raise ValueError("beta = 0 is the fully connected regime; "
                         "use fully_connected_rate instead")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    b = beta ** p.n_c
    k = p.kappa
    L, mu = p.L, p.mu
    if method == "GTA1":
        x = 4.0 * (k + 1.0) * ((1.0 - b) / (3.0 - b)) ** 2
        quad = 2.0 * (k + 1.0) * (1.0 - b) ** 2 / (k * (L + mu) * (3.0 - b) * _stable_sqrt_term(x))
        return min((1.0 - b) / L, quad)
    if method == "GTA2":
        x = 4.0 * (k + 1.0) * b * ((1.0 - b) / (1.0 + b)) ** 2
        quad = 2.0 * (k + 1.0) * (1.0 - b) ** 2 / (k * (L + mu) * (1.0 + b) * _stable_sqrt_term(x))
        return min((1.0 - b) / L, quad)
    x = 4.0 * (k + 1.0) * ((1.0 - b) / (1.0 + b)) ** 2
    quad = 2.0 * (k + 1.0) * (1.0 - b) ** 2 / (k * (L + mu) * b * (1.0 + b) * _stable_sqrt_term(x))
    return min(1.0 / L, (1.0 - b) / (L * b), quad)


def _quadratic_root_bound(c2: float, c1: float, c0: float) -> float:
    """Positive root of c2*a^2 + c1*a - c0 = 0 for c2, c1, c0 >= 0, i.e.
    (-c1 + sqrt(c1^2 + 4*c2*c0)) / (2*c2), in a division-safe form."""
    denom = c1 + math.sqrt(c1 * c1 + 4.0 * c2 * c0)
    if denom == 0.0:
        return math.inf
    return 2.0 * c0 / denom


def step_size_bound_multi(p: SpectralParams) -> float:
    """Admissible step-size bound with n_g computation steps per iteration.

    Five-branch minimum; branches that divide by zero (n_g = 1, vanishing
    error terms) drop out as +inf.  Scales as O(1/n_g), and for n_g = 1
    recovers the O(L^-1 kappa^-0.5) scale of step_size_bound.
    """
    if p.beta1 >= 1.0 or p.beta3 >= 1.0:
        warnings.warn("step_size_bound_multi: beta1 and beta3 must be < 1; returning 0",
                      stacklevel=2)
        return 0.0
    L, mu, g = p.L, p.mu, p.n_g
    b1c, b2c, b3c, b4c = p.b1c, p.b2c, p.b3c, p.b4c
    d1, d2 = inner_loop_error_terms(p)
    terms = [1.0 / (g * L)]
    if g > 1:
        terms.append(mu / ((2.0 * L * L + mu * mu) * (g - 1)))
        if d1 > 0:
            terms.append(0.5 / L * math.sqrt(3.0 * (1.0 - b1c) / (d1 * (g - 1))))
    denom4 = 4.0 * L * (b4c + d2 * (g - 1))
    if denom4 > 0:
        terms.append(3.0 * (1.0 - b3c) / denom4)

    # quadratic-root branch: the three coefficients below define the largest
    # alpha with c2*a^2 + c1*a < c0
    mix_in = (g - 1) * (b1c + d1) + b2c            # inner-loop consensus mass
    mix_out = b4c + (g - 1) * d2                   # tracker consensus mass
    gap1 = (1.0 - b1c) / 4.0
    gap3 = (1.0 - b3c) / 4.0
    # four summands of the quadratic coefficient, kept separate on purpose
    c2_curvature = 0.5 * mu * L * L * g * mix_in * mix_out
    c2_cross_gaps = L ** 3 * g * (g - 1) * (d1 * gap3 + mix_out * gap1)
    c2_inner_sq = L * L * (g - 1) ** 2 * (L * d1 * (3.0 * b4c + (g - 1) * d2) + d1 * gap3)
    c2_drift = L * L * mix_out * (L * g + (g - 1)) * mix_in
    c2 = c2_curvature + c2_cross_gaps + c2_inner_sq + c2_drift
    c1 = mu * g * b4c * L * mix_in
    c0 = 0.5 * mu * g * gap1 * gap3
    terms.append(_quadratic_root_bound(c2, c1, c0))
    return min(terms)


def rate_upper_bound(p: SpectralParams) -> float:
    """Closed-form upper bound on the spectral radius of the single-step
    recursion (n_g = 1, alpha <= 1/L)."""
    if p.alpha > 1.0 / p.L:
        raise ValueError(f"alpha = {p.alpha} exceeds 1/L = {1.0 / p.L}")
    a, L = p.alpha, p.L
    b1c, b2c, b3c, b4c = p.b1c, p.b2c, p.b3c, p.b4c
    rad = math.sqrt((b1c - b3c - L * a * b4c) ** 2
                    + 4.0 * b2c * b4c * (L * a) ** 2
                    + 8.0 * L * a * b2c * b4c)
    lam_hat = (b1c + b3c + L * a * b4c + rad) / 2.0
    return max(1.0 - a * p.mu / 2.0, lam_hat + math.sqrt(2.0 * a * L * p.kappa * b2c * b4c))


def rate_upper_bound_for_method(method: str, beta: float, p: SpectralParams) -> float:
    """Simplified per-method rate bounds (valid for alpha <= 1/L, beta < 1):

    GTA-1: max(1 - a*mu/2, b + sqrt(a*L)*(2.5 + sqrt(2*kappa)))
    GTA-2: max(1 - a*mu/2, b + sqrt(a*L)*(2.5 + sqrt(2*kappa*b)))
    GTA-3: max(1 - a*mu/2, b*(1 + sqrt(a*L)*(2.5 + sqrt(2*kappa))))
    with b = beta^nc.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if p.alpha > 1.0 / p.L:
        raise ValueError(f"alpha = {p.alpha} exceeds 1/L = {1.0 / p.L}")
    b = beta ** p.n_c
    s = math.sqrt(p.alpha * p.L)
    gd = 1.0 - p.alpha * p.mu / 2.0
    if method == "GTA1":
        return max(gd, b + s * (2.5 + math.sqrt(2.0 * p.kappa)))
    if method == "GTA2":
        return max(gd, b + s * (2.5 + math.sqrt(2.0 * p.kappa * b)))
    return max(gd, b * (1.0 + s * (2.5 + math.sqrt(2.0 * p.kappa))))


def fully_connected_rate(method: str, p: SpectralParams):
    """Reduced contraction for exact averaging (beta^n_c <= EXACT_AVERAGING_TOL).

    GTA-3 (and GTA-2 with n_g = 1) contract the optimization error by the
    scalar (1 - a*mu)^ng + a^2 L^2 ng (ng - 1), which equals the plain
    gradient-descent factor 1 - a*mu when n_g = 1.  GTA-2 with n_g > 1
    couples with the tracker consensus error through a 2x2 recursion.
    GTA-1 stays irreducible even at beta = 0 and is not reduced here.
    Returns the scalar factor, or GTA-2's 2x2 matrix for n_g > 1.
    """
    if method == "GTA1":
        raise ValueError("GTA1 does not reduce at beta = 0; use the full recursion")
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    required_zero = ("beta1", "beta2", "beta3", "beta4") if method == "GTA3" \
        else ("beta1", "beta2", "beta3")
    for name in required_zero:
        if getattr(p, name) ** p.n_c > EXACT_AVERAGING_TOL:
            raise ValueError(f"fully connected regime requires {name}^n_c <= "
                             f"{EXACT_AVERAGING_TOL}, got {getattr(p, name)}^{p.n_c}")
    a, L, mu, g = p.alpha, p.L, p.mu, p.n_g
    if g == 1:
        if a > 1.0 / L:
            raise ValueError(f"alpha = {a} exceeds 1/L = {1.0 / L}")
        return 1.0 - a * mu
    limit = min(mu / ((2.0 * L * L + mu * mu) * (g - 1)), 1.0 / (L * g))
    if a >= limit:
        raise ValueError(f"alpha = {a} must be below {limit} for n_g = {g}")
    factor = (1.0 - a * mu) ** g + a * a * L * L * g * (g - 1)
    if method == "GTA3":
        return factor
    dt = 1.0 + 2.0 * (g - 1) * (2.0 + 1.0 / g)
    rn = math.sqrt(p.n)
    return np.array([
        [factor, a * a * L * g * (g - 1) / rn],
        [rn * a * L * L * dt, a * L * dt],
    ])


@dataclass(frozen=True)
class GridPoint:
    """One admissible parameter draw for the monotonicity report."""

    beta: float
    alpha: float
    L: float
    mu: float
    n: int
    n_g: int = 1


@dataclass(frozen=True)
class MonotonicityReport:
    """Spectral radii over a (method x n_c) grid plus any ordering violations."""

    nc_values: tuple[int, ...]
    rows: tuple[tuple, ...]          # (point index, method, n_c, rho)
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        head = (f"monotonicity report: {len(self.rows)} radii over n_c={list(self.nc_values)}, "
                f"{len(self.violations)} violation(s)")
        return "\n".join([head] + list(self.violations))


def monotonicity_report(points, nc_values=(1, 2, 5, 10, 50)) -> MonotonicityReport:
    """Check, over a grid of admissible draws, that each method's spectral
    radius is nonincreasing in n_c and that GTA-1 >= GTA-2 >= GTA-3 holds at
    equal step size.  Violations beyond float slack are reported, not raised.
    """
    rows = []
    violations = []
    for idx, pt in enumerate(points):
        # the point's method x n_c matrices as one stack, one eigensolve
        stack = np.array([recursion_matrix(params_for_method(
            method, pt.beta, n_c=n_c, n_g=pt.n_g, alpha=pt.alpha, L=pt.L, mu=pt.mu, n=pt.n))
            for method in METHOD_NAMES for n_c in nc_values])
        flat = iter(spectral_radius(stack).tolist())
        radii = {(method, n_c): next(flat) for method in METHOD_NAMES for n_c in nc_values}
        rows += [(idx, method, n_c, rho) for (method, n_c), rho in radii.items()]
        for method in METHOD_NAMES:
            seq = [radii[method, c] for c in nc_values]
            for a, b, ca, cb in zip(seq, seq[1:], nc_values, nc_values[1:]):
                if b > a + _ORDERING_TOL:
                    violations.append(
                        f"point {idx} {method}: rho increased from n_c={ca} ({a:.12g}) "
                        f"to n_c={cb} ({b:.12g}) at {pt}")
        for n_c in nc_values:
            r1, r2, r3 = (radii[m, n_c] for m in METHOD_NAMES)
            if r2 > r1 + _ORDERING_TOL or r3 > r2 + _ORDERING_TOL:
                violations.append(
                    f"point {idx} n_c={n_c}: ordering broken "
                    f"(GTA1={r1:.12g}, GTA2={r2:.12g}, GTA3={r3:.12g}) at {pt}")
    return MonotonicityReport(nc_values=tuple(nc_values), rows=tuple(rows),
                              violations=tuple(violations))


def ordering_holds(beta: float, *, n_c: int, n_g: int, L: float, mu: float, n: int) -> bool:
    """Whether the spectral radii of GTA-1, GTA-2 and GTA-3 on a mixing
    matrix of gap beta keep GTA-1 >= GTA-2 >= GTA-3 at one common step size,
    0.9 x the smallest of the three methods' step-size bounds.  True where
    nothing is ranked: no step size is admissible, or beta^n_c is exact
    averaging."""
    bounds = []
    for method in METHOD_NAMES:
        p = params_for_method(method, beta, n_c=n_c, n_g=n_g, alpha=1.0, L=L, mu=mu, n=n)
        bounds.append(step_size_bound(p) if n_g == 1 else step_size_bound_multi(p))
    a_chk = 0.9 * min(bounds)
    if a_chk <= 0 or beta ** n_c <= EXACT_AVERAGING_TOL:
        return True
    point = GridPoint(beta=beta, alpha=a_chk, L=L, mu=mu, n=n, n_g=n_g)
    return monotonicity_report([point], nc_values=(n_c,)).ok


def cell_columns(strategy: CommunicationStrategy, method: str, *, alpha: float, L: float,
                 mu: float, n_g: int = 1, z1_mode: str = "bound") -> dict:
    """The theory columns of one grid cell, as a dict of
    - params: its SpectralParams (params_from_strategy, at its tuned alpha)
    - route: "fully_connected" for GTA2 and GTA3 where b1^nc is exact
      averaging (fully_connected_rate), else "general" (recursion_matrix)
    - rho: the route's spectral radius; nan where the route does not hold
      at alpha
    - admissible: whether alpha lies in the route's range (on the general
      route, alpha <= 1/(n_g*L), where the recursion holds); not a verdict
      on stability
    - lambda_u: rate_upper_bound, nan unless n_g = 1 and alpha <= 1/L
    - step_bound: step_size_bound at n_g = 1, else step_size_bound_multi
    """
    p = params_from_strategy(strategy, alpha=alpha, L=L, mu=mu, n_g=n_g, z1_mode=z1_mode)
    route = "general"
    rho = math.nan
    admissible = alpha <= 1.0 / (n_g * L)
    if method in ("GTA2", "GTA3") and p.b1c <= EXACT_AVERAGING_TOL:
        route = "fully_connected"
        try:
            reduced = fully_connected_rate(method, p)
            rho = reduced if isinstance(reduced, float) else spectral_radius(reduced)
        except ValueError:
            admissible = False
    elif admissible:
        rho = spectral_radius(recursion_matrix(p))
    lam_u = rate_upper_bound(p) if n_g == 1 and alpha <= 1.0 / L else math.nan
    bound = step_size_bound(p) if n_g == 1 else step_size_bound_multi(p)
    return {"params": p, "route": route, "rho": rho, "admissible": admissible,
            "lambda_u": lam_u, "step_bound": bound}
