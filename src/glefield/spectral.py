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
from dataclasses import dataclass

import numpy as np

from .cm_kernel import KernelMeasure, k_cos, k_sin, k_sin_over_omega


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
    """One spatial mode: eigenvalue alpha_k > 0 of the (negative) generator,
    noise weight lambda_k >= 0, and sup-norm constant c_k of the eigenfunction."""

    index: int
    alpha_k: float
    lambda_k: float
    c_k: float = 1.0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"mode index {self.index} must be nonnegative")
        if not (self.alpha_k > 0.0 and np.isfinite(self.alpha_k)):
            raise ValueError(f"alpha_k {self.alpha_k} must be positive")
        if not (self.lambda_k >= 0.0 and np.isfinite(self.lambda_k)):
            raise ValueError(f"lambda_k {self.lambda_k} must be nonnegative")
        if not (self.c_k > 0.0 and np.isfinite(self.c_k)):
            raise ValueError(f"c_k {self.c_k} must be positive")


@dataclass(frozen=True)
class SpectralDensity:
    """Spectral density of one mode driven by a given memory kernel."""

    kernel: KernelMeasure
    mode: Mode


@dataclass(frozen=True)
class Resonance:
    """Resonant frequency with the window exponent q and the constant of the
    linear lower bound |alpha*K_sin(omega)/omega - 1| >= (c/omega_r)|omega - omega_r|."""

    omega_r: float
    q: float
    lower_bound_constant: float


def rho(sd: SpectralDensity, omega):
    """Evaluate the spectral density; scalar in, scalar out (arrays likewise)."""
    om = np.abs(np.asarray(omega, dtype=float))
    alpha = sd.mode.alpha_k
    lam = sd.mode.lambda_k
    kc = k_cos(sd.kernel, om)
    ks = k_sin(sd.kernel, om)
    denom = (alpha * kc) ** 2 + (om - alpha * ks) ** 2
    out = (lam * lam / math.pi) * kc / denom
    return out if np.asarray(out).shape else float(out)


def _scalar_rho(sd: SpectralDensity):
    """Closure evaluating rho at a python float, tuned for quadrature loops."""
    alpha = sd.mode.alpha_k
    scale = sd.mode.lambda_k ** 2 / math.pi
    atoms = sd.kernel.atoms
    if len(atoms) <= 8:

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


def find_resonance(sd: SpectralDensity, q: float = 0.5) -> Resonance:
    """Locate the unique root of g(omega) = 1 - alpha * K_sin(omega)/omega.

    g is strictly increasing because K_sin(omega)/omega is strictly decreasing,
    so plain bisection converges without derivatives.  The bracket never needs
    growing: omega*K_sin(omega) < K(0) gives g > 0 at omega = sqrt(2*alpha*K(0)).

    Raises NoResonance when g(0+) >= 0, i.e. alpha * sum_i w_i/x_i^2 <= 1.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"window exponent q={q} must lie in (0, 1)")
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
    return Resonance(omega_r=omega_r, q=q, lower_bound_constant=const)


def _tail_bound(sd: SpectralDensity, omega_cut: float) -> float:
    """Closed-form bound on integral_{omega_cut}^inf rho.

    Two rigorous bounds are combined.  From omega*K_cos <= K(0)/2:

        tail <= lam^2 * K(0) / (4*pi*(omega_cut^2 - alpha*K(0)))

    and from K_cos(omega) <= B/omega^2 with B = sum_i w_i x_i (the first
    moment of the measure):

        tail <= lam^2 * B / (3*pi*gamma^2*omega_cut^3),  gamma = 1 - alpha*K(0)/omega_cut^2.

    Both require omega_cut^2 > alpha*K(0); the second decays a power faster
    and keeps cutoffs short at tight tolerances.
    """
    alpha = sd.mode.alpha_k
    lam = sd.mode.lambda_k
    mass = sd.kernel.mass
    gap = omega_cut * omega_cut - alpha * mass
    if gap <= 0.0:
        return math.inf
    by_half_mass = lam * lam * mass / (4.0 * math.pi * gap)
    first_moment = float(sum(w * x for w, x in sd.kernel.atoms))
    shrink = gap / (omega_cut * omega_cut)
    by_moment = lam * lam * first_moment / (3.0 * math.pi * shrink**2 * omega_cut**3)
    return min(by_half_mass, by_moment)


def _cutoff(sd: SpectralDensity, budget: float):
    """Resonant frequency (None without one) and a cutoff with its tail below budget.

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
    """Finite subintervals covering [0, cutoff] with the tail below budget.

    Breakpoints bracket the resonant window [omega_r - omega_r^(1/2),
    omega_r + omega_r^(1/2)], the unit neighborhood [omega_r - 1, omega_r + 1],
    and omega_r itself.  The stretch beyond them is split geometrically
    (factor 8) so no single subinterval spans many decades; adaptive
    quadrature on very long intervals is prone to extrapolation roundoff.
    """
    omega_r, omega_cut = _cutoff(sd, budget)
    pts = [0.0]
    if omega_r is not None:
        half = omega_r**0.5
        inner = (omega_r - half, omega_r - 1.0, omega_r, omega_r + 1.0, omega_r + half)
        pts += sorted({p for p in inner if 0.0 < p < omega_cut})
    edge = max(pts[-1], 1.0)
    while edge * 8.0 < omega_cut:
        edge *= 8.0
        pts.append(edge)
    pts.append(omega_cut)
    return list(zip(pts[:-1], pts[1:]))


def _integrate(sd: SpectralDensity, rel_tol: float, piece) -> float:
    """2 * integral_0^cutoff of an integrand bounded by rho.

    piece(f, a, b, epsabs, epsrel) integrates one subinterval given the
    scalar density f and returns (value, error estimate).  The tolerance is
    relative to lam^2/alpha; the neglected tail, at most the rho tail, is
    certified below a quarter of that budget.
    """
    if not 1e-12 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol {rel_tol} outside [1e-12, 1e-3]")
    lam = sd.mode.lambda_k
    if lam == 0.0:
        return 0.0
    budget = rel_tol * lam * lam / sd.mode.alpha_k
    pieces = _pieces(sd, budget / 8.0)
    epsabs = budget / (8.0 * len(pieces))
    epsrel = rel_tol / 8.0
    f = _scalar_rho(sd)
    total = 0.0
    est_err = 0.0
    for a, b in pieces:
        value, err = piece(f, a, b, epsabs, epsrel)
        total += value
        est_err += err
    if 2.0 * est_err > budget:
        raise ToleranceNotMet(
            f"quadrature error estimate {2.0 * est_err:.3e} exceeds budget {budget:.3e}"
        )
    return 2.0 * total


def _plain(f, a, b, epsabs, epsrel):
    from scipy.integrate import quad  # imported on first use: the samplers need no scipy

    return quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)[:2]


def _cosine(f, a, b, epsabs, epsrel, tau):
    """Clenshaw-Curtis cosine-weight rule for integral_a^b cos(tau*omega) f."""
    from scipy.integrate import quad

    return quad(
        f, a, b, weight="cos", wvar=tau, epsabs=epsabs, epsrel=epsrel, limit=400,
        full_output=1,
    )[:2]


def integrate_rho(sd: SpectralDensity, rel_tol: float = 1e-8) -> float:
    """Integrate rho over the whole line by resonance-aware quadrature.

    The tolerance is relative to the exact value lam^2/alpha: the result is
    within rel_tol * lam^2/alpha of the quadrature truth.  The returned value
    is 2 * integral_0^cutoff with the neglected tail certified below a quarter
    of that budget.
    """
    return _integrate(sd, rel_tol, _plain)


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
    return _integrate(
        sd, rel_tol, lambda f, a, b, epsabs, epsrel: _cosine(f, a, b, epsabs, epsrel, tau)
    )


@dataclass(frozen=True)
class SlackReport:
    """Result of the resonance inequality scan; skipped=True means omega_r <= 1
    where the constant is not guaranteed and the check does not apply."""

    min_slack: float
    omega_at_min: float
    n_points: int
    skipped: bool = False


def check_resonance_inequality(
    sd: SpectralDensity, resonance: Resonance, n_points: int = 1024
) -> SlackReport:
    """Scan |alpha*K_sin/omega - 1| >= (c/omega_r)*|omega - omega_r| on the window.

    The window is [omega_r - omega_r^q, omega_r + omega_r^q] with
    c = K_sin(1) / (4*K(0)); the bound is only claimed for omega_r > 1, so the
    scan is skipped (not failed) otherwise.  Raises InequalityViolated with the
    witness frequency if any grid point has negative slack.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    omega_r, q = resonance.omega_r, resonance.q
    if omega_r <= 1.0:
        return SlackReport(math.nan, math.nan, 0, skipped=True)
    alpha = sd.mode.alpha_k
    c = resonance.lower_bound_constant
    half = omega_r**q
    grid = np.linspace(omega_r - half, omega_r + half, n_points)
    lhs = np.abs(alpha * k_sin_over_omega(sd.kernel, grid) - 1.0)
    rhs = (c / omega_r) * np.abs(grid - omega_r)
    slack = lhs - rhs
    i = int(np.argmin(slack))
    report = SlackReport(float(slack[i]), float(grid[i]), n_points)
    if report.min_slack < 0.0:
        raise InequalityViolated(
            f"resonance bound fails at omega={report.omega_at_min:.6f} "
            f"(slack {report.min_slack:.3e})",
            report.omega_at_min,
            report.min_slack,
        )
    return report


def autocovariance_sequence(
    sd: SpectralDensity, dt: float, count: int, rel_tol: float = 1e-6
) -> np.ndarray:
    """r(j*dt) for j = 0..count-1 via one midpoint cosine transform.

    Samples rho on a uniform grid omega_m = (m + 1/2)*d_omega with
    d_omega = 2*pi/(P*dt) and evaluates all lags at once through a length-P
    FFT.  The grid cutoff is certified by the closed-form tail bound; the grid
    spacing is validated by recomputing at double resolution until successive
    answers agree within the budget (rel_tol * lam^2/alpha, uniformly in j).
    Much faster than per-lag quadrature when count is large, and cross-checked
    against :func:`autocovariance` in the tests.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt {dt} must be positive")
    lam = sd.mode.lambda_k
    alpha = sd.mode.alpha_k
    if lam == 0.0:
        return np.zeros(count)
    budget = rel_tol * lam * lam / alpha

    omega_r, omega_cut = _cutoff(sd, budget / 4.0)

    # initial spacing: resolve the resonant peak (width ~ alpha*K_cos(omega_r))
    # and keep the alias period 2*pi/d_omega beyond four lag spans
    if omega_r is not None:
        width = alpha * k_cos(sd.kernel, omega_r)
    else:
        width = max(math.sqrt(alpha * sd.kernel.mass), 1.0)
    tau_max = (count - 1) * dt
    d_omega = min(width / 16.0, 0.25)
    if tau_max > 0.0:
        d_omega = min(d_omega, 2.0 * math.pi / (4.0 * tau_max))

    def transform(p: int) -> np.ndarray:
        step = 2.0 * math.pi / (p * dt)
        m = int(math.ceil(omega_cut / step))
        om = (np.arange(m) + 0.5) * step
        vals = np.asarray(rho(sd, om))
        # frequencies step*p apart alias exactly on the lag grid: fold them
        if m > p:
            vals = np.concatenate([vals, np.zeros(-m % p)])
            spec = vals.reshape(-1, p).sum(axis=0)
        else:
            spec = np.zeros(p)
            spec[:m] = vals
        bins = np.fft.rfft(spec)[:count]
        phase = np.exp(-1j * math.pi * np.arange(count) / p)
        return 2.0 * step * (phase * bins).real

    p = 1 << max(
        int(math.ceil(math.log2(2.0 * math.pi / (dt * d_omega)))),
        int(math.ceil(math.log2(max(2 * count, 16)))),
    )
    prev = transform(p)
    for _ in range(24):
        p *= 2
        cur = transform(p)
        if np.max(np.abs(cur - prev)) <= 0.5 * budget:
            return cur
        prev = cur
    raise ToleranceNotMet(f"cosine-transform grid did not converge at P={p}")
