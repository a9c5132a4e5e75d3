"""Per-mode spectral densities, resonance analysis, and variance identities.

Each spatial mode of the field solves a scalar generalized Langevin equation
whose stationary law is Gaussian with spectral density

    rho(omega) = (1/pi) * lam^2 * K_cos(omega)
                 / ( (alpha*K_cos(omega))^2 + (omega - alpha*K_sin(omega))^2 )

where alpha is the mode eigenvalue and lam its noise weight.  The integral of
rho over the whole line equals lam^2 / alpha exactly; verifying that identity
by quadrature is the main correctness check of this module.

The denominator nearly vanishes where omega = alpha * K_sin(omega)/omega * omega,
i.e. at the resonant frequency omega_r solving alpha * K_sin(omega)/omega = 1.
All quadrature routines split the axis around that peak before integrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cm_kernel import KernelMeasure, k_cos, k_sin, k_sin_over_omega

# the paper's resonance window [omega_r - omega_r^q, omega_r + omega_r^q]:
# the quadrature breakpoints, the superposition's dense nodes and the
# inequality scan all read this one q
WINDOW_Q = 0.5


class NoResonance(Exception):
    """The mode is too weakly coupled for a resonant frequency to exist."""


class ToleranceNotMet(Exception):
    """Quadrature could not certify the requested tolerance."""


class InequalityViolated(Exception):
    """The resonance lower-bound inequality failed at some grid frequency."""

    def __init__(self, message, omega, slack):
        super().__init__(message)
        self.omega = omega
        self.slack = slack


@dataclass(frozen=True)
class Mode:
    """One spatial mode: eigenvalue alpha_k > 0 of the (negative) generator
    and noise weight lambda_k >= 0."""

    index: int
    alpha_k: float
    lambda_k: float

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"mode index {self.index} must be nonnegative")
        if not (self.alpha_k > 0.0 and np.isfinite(self.alpha_k)):
            raise ValueError(f"alpha_k {self.alpha_k} must be positive")
        if not (self.lambda_k >= 0.0 and np.isfinite(self.lambda_k)):
            raise ValueError(f"lambda_k {self.lambda_k} must be nonnegative")


@dataclass(frozen=True)
class SpectralDensity:
    """Spectral density of one mode driven by a given memory kernel."""

    kernel: KernelMeasure
    mode: Mode


@dataclass(frozen=True)
class Resonance:
    """Resonant frequency with the constant of the linear lower bound
    |alpha*K_sin(omega)/omega - 1| >= (c/omega_r)|omega - omega_r|."""

    omega_r: float
    lower_bound_constant: float


def rho(sd: SpectralDensity, omega):
    """Evaluate the spectral density; scalar in, scalar out (arrays likewise)."""
    out = sd.mode.lambda_k**2 * _unit_rho(sd, omega)
    return out if np.asarray(out).shape else float(out)


def _unit_rho(sd: SpectralDensity, omega) -> np.ndarray:
    """rho for unit noise (lambda = 1), as an array: rho / lambda^2."""
    om = np.abs(np.asarray(omega, dtype=float))
    alpha = sd.mode.alpha_k
    kc = k_cos(sd.kernel, om)
    ks = k_sin(sd.kernel, om)
    denom = (alpha * kc) ** 2 + (om - alpha * ks) ** 2
    return (1.0 / math.pi) * kc / denom


# most atoms _scalar_rho sums in a Python loop: up to here the loop beats numpy's fixed cost
_LOOP_ATOMS = 32


def _scalar_rho(sd: SpectralDensity):
    """Closure evaluating the unit-noise rho at a float, tuned for quadrature loops."""
    alpha = sd.mode.alpha_k
    scale = 1.0 / math.pi
    atoms = sd.kernel.atoms
    if len(atoms) <= _LOOP_ATOMS:

        def f(om: float) -> float:
            kc = 0.0
            ks = 0.0
            for w, x in atoms:
                d = w / (x * x + om * om)
                kc += x * d
                ks += om * d
            return scale * kc / ((alpha * kc) ** 2 + (om - alpha * ks) ** 2)

        return f

    weights = sd.kernel.weights
    rates = sd.kernel.rates
    rates_sq = rates * rates

    def f_many(om: float) -> float:
        d = weights / (rates_sq + om * om)
        kc = float(d @ rates)
        ks = om * float(d.sum())
        return scale * kc / ((alpha * kc) ** 2 + (om - alpha * ks) ** 2)

    return f_many


def find_resonance(sd: SpectralDensity) -> Resonance:
    """Locate the unique root of g(omega) = 1 - alpha * K_sin(omega)/omega.

    g is strictly increasing because K_sin(omega)/omega is strictly decreasing,
    so plain bisection converges without derivatives.  The bracket never needs
    growing: omega*K_sin(omega) < K(0) gives g > 0 at omega = sqrt(2*alpha*K(0)).

    Raises NoResonance when g(0+) >= 0, i.e. alpha * sum_i w_i/x_i^2 <= 1.
    """
    alpha = sd.mode.alpha_k
    mass = sd.kernel.mass
    atoms = sd.kernel.atoms

    def g(omega: float) -> float:
        return 1.0 - alpha * sum(w / (x * x + omega * omega) for w, x in atoms)

    if g(0.0) >= 0.0:
        raise NoResonance(
            f"alpha_k={alpha} gives g(0+)={g(0.0):.3e} >= 0; no resonant frequency"
        )
    hi = math.sqrt(2.0 * alpha * mass)
    lo = hi
    for _ in range(200):
        lo *= 0.5
        if g(lo) < 0.0:
            break
    else:
        raise NoResonance(f"g stays nonnegative down to omega={lo:.3e}")
    # bisect until the bracket is tight in both position and residual
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi and abs(g_mid) <= 1e-13:
            break
    omega_r = 0.5 * (lo + hi)
    const = k_sin(sd.kernel, 1.0) / (4.0 * mass)
    return Resonance(omega_r=omega_r, lower_bound_constant=const)


def _tail_bound(sd: SpectralDensity, omega_cut: float) -> float:
    """Closed-form bound on integral_{omega_cut}^inf of the unit-noise rho.

    Two rigorous bounds are combined.  From omega*K_cos <= K(0)/2:

        tail <= K(0) / (4*pi*(omega_cut^2 - alpha*K(0)))

    and from K_cos(omega) <= B/omega^2 with B = sum_i w_i x_i (the first
    moment of the measure):

        tail <= B / (3*pi*gamma^2*omega_cut^3),  gamma = 1 - alpha*K(0)/omega_cut^2.

    Both require omega_cut^2 > alpha*K(0); the second decays a power faster
    and keeps cutoffs short at tight tolerances.
    """
    alpha = sd.mode.alpha_k
    mass = sd.kernel.mass
    gap = omega_cut * omega_cut - alpha * mass
    if gap <= 0.0:
        return math.inf
    by_half_mass = mass / (4.0 * math.pi * gap)
    first_moment = float(sum(w * x for w, x in sd.kernel.atoms))
    shrink = gap / (omega_cut * omega_cut)
    by_moment = first_moment / (3.0 * math.pi * shrink**2 * omega_cut**3)
    return min(by_half_mass, by_moment)


def _cutoff(sd: SpectralDensity, budget: float):
    """Resonant frequency (None without one) and a cutoff with its unit tail below budget.

    The search starts at four times omega_r, or four times
    max(sqrt(alpha*K(0)), 1) without a resonance, and doubles until the
    closed-form tail bound is within budget.
    """
    try:
        omega_r = find_resonance(sd).omega_r
    except NoResonance:
        omega_r = None
    scale = math.sqrt(sd.mode.alpha_k * sd.kernel.mass)
    omega_cut = 4.0 * (omega_r if omega_r is not None else max(scale, 1.0))
    for _ in range(40):
        if _tail_bound(sd, omega_cut) <= budget:
            return omega_r, omega_cut
        omega_cut *= 2.0
    raise ToleranceNotMet(
        f"tail bound still {_tail_bound(sd, omega_cut):.3e} > {budget:.3e} "
        f"at omega={omega_cut:.3e}"
    )


def _pieces(sd: SpectralDensity, budget: float):
    """Finite subintervals covering [0, cutoff] with the unit tail below budget.

    Breakpoints bracket the resonant window [omega_r - omega_r^q,
    omega_r + omega_r^q] (q = ``WINDOW_Q``), the unit neighborhood
    [omega_r - 1, omega_r + 1],
    and omega_r itself.  The stretch beyond them is split geometrically
    (factor 8) so no single subinterval spans many decades; adaptive
    quadrature on very long intervals is prone to extrapolation roundoff.
    """
    omega_r, omega_cut = _cutoff(sd, budget)
    pts = [0.0]
    if omega_r is not None:
        half = omega_r**WINDOW_Q
        inner = (omega_r - half, omega_r - 1.0, omega_r, omega_r + 1.0, omega_r + half)
        pts += sorted({p for p in inner if 0.0 < p < omega_cut})
    edge = max(pts[-1], 1.0)
    while edge * 8.0 < omega_cut:
        edge *= 8.0
        pts.append(edge)
    pts.append(omega_cut)
    return list(zip(pts[:-1], pts[1:]))


def _integrate(sd: SpectralDensity, rel_tol: float, **options) -> float:
    """2 * integral_0^cutoff of an integrand bounded by rho.

    Each subinterval is one scipy ``quad`` call with ``options`` (its limit,
    and a weight such as the cosine rule); the integrand is the unit-noise
    rho, integrated to the budget rel_tol/alpha (the neglected tail
    certified below a quarter of it) and scaled by lam^2 once, on return.
    """
    from scipy.integrate import quad  # imported on first use: the samplers need no scipy

    if not 1e-12 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol {rel_tol} outside [1e-12, 1e-3]")
    budget = rel_tol / sd.mode.alpha_k
    pieces = _pieces(sd, budget / 8.0)
    epsabs = budget / (8.0 * len(pieces))
    epsrel = rel_tol / 8.0
    f = _scalar_rho(sd)
    total = 0.0
    est_err = 0.0
    for a, b in pieces:
        value, err = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, full_output=1, **options)[:2]
        total += value
        est_err += err
    if 2.0 * est_err > budget:
        raise ToleranceNotMet(
            f"quadrature error estimate {2.0 * est_err:.3e} exceeds budget {budget:.3e}"
        )
    return sd.mode.lambda_k**2 * (2.0 * total)


def integrate_rho(sd: SpectralDensity, rel_tol: float = 1e-8) -> float:
    """Integrate rho over the whole line by resonance-aware quadrature.

    The tolerance is relative to the exact value lam^2/alpha: the result is
    within rel_tol * lam^2/alpha of the quadrature truth.  The returned value
    is 2 * integral_0^cutoff with the neglected tail certified below a quarter
    of that budget.
    """
    return _integrate(sd, rel_tol, limit=200)


def autocovariance(sd: SpectralDensity, tau: float, rel_tol: float = 1e-8) -> float:
    """r(tau) = 2 * integral_0^inf cos(tau*omega) rho(omega) d omega.

    Oscillatory pieces use the Clenshaw-Curtis cosine-weight rule; the
    truncated tail is certified below the same budget as integrate_rho
    (|cos| <= 1 so the plain tail bound applies).
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    tau = abs(float(tau))
    if tau == 0.0:
        return integrate_rho(sd, rel_tol)
    return _integrate(sd, rel_tol, weight="cos", wvar=tau, limit=400)


@dataclass(frozen=True)
class SlackReport:
    """Result of the resonance inequality scan; skipped=True means omega_r <= 1
    where the constant is not guaranteed and the check does not apply."""

    min_slack: float
    omega_at_min: float
    n_points: int
    skipped: bool = False


# uniform points of the inequality scan over the resonance window
_SCAN_POINTS = 1024


def check_resonance_inequality(sd: SpectralDensity, resonance: Resonance) -> SlackReport:
    """Scan |alpha*K_sin/omega - 1| >= (c/omega_r)*|omega - omega_r| on the window.

    The window is [omega_r - omega_r^q, omega_r + omega_r^q] (q =
    ``WINDOW_Q``, ``_SCAN_POINTS`` uniform points) with
    c = K_sin(1) / (4*K(0)); the bound is only claimed for omega_r > 1, so the
    scan is skipped (not failed) otherwise.  Raises InequalityViolated with the
    witness frequency if any grid point has negative slack.
    """
    omega_r = resonance.omega_r
    if omega_r <= 1.0:
        return SlackReport(math.nan, math.nan, 0, skipped=True)
    alpha = sd.mode.alpha_k
    c = resonance.lower_bound_constant
    half = omega_r**WINDOW_Q
    grid = np.linspace(omega_r - half, omega_r + half, _SCAN_POINTS)
    lhs = np.abs(alpha * k_sin_over_omega(sd.kernel, grid) - 1.0)
    rhs = (c / omega_r) * np.abs(grid - omega_r)
    slack = lhs - rhs
    i = int(np.argmin(slack))
    report = SlackReport(float(slack[i]), float(grid[i]), _SCAN_POINTS)
    if report.min_slack < 0.0:
        raise InequalityViolated(
            f"resonance bound fails at omega={report.omega_at_min:.6f} "
            f"(slack {report.min_slack:.3e})",
            report.omega_at_min,
            report.min_slack,
        )
    return report


def autocovariance_sequence(sd: SpectralDensity, dt: float, count: int) -> np.ndarray:
    """r(j*dt) for j = 0..count-1, exactly, from the mode's Markovian embedding.

    The closed form of :meth:`mode_sampler._Markov.covariance` for unit
    noise, scaled by lam^2 on return; :func:`autocovariance` is the
    independent quadrature route to the same values.
    """
    # imported here: the embedding is built on this module
    from .mode_sampler import _Markov

    if count < 1:
        raise ValueError("count must be positive")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt {dt} must be positive")
    unit = _Markov(sd.kernel, [replace(sd.mode, lambda_k=1.0)]).covariance(0, dt, count)
    return sd.mode.lambda_k**2 * unit
