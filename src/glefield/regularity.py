"""Pathwise roughness estimation through variograms.

The empirical variogram of a field at lag h along an axis is the ensemble
and volume average of squared increments; on a log-log scale its slope is
twice the Hoelder exponent of the sample paths.  This module computes
empirical and closed-form theoretical variograms and fits the exponent
with a bootstrap confidence interval over ensemble members.  The
theoretical ones are one law-free mode sum over each mode's stationary
variance and increment, which ``mode_sampler._law`` states for every law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mode_sampler
from .cm_kernel import KernelMeasure
from .field_assembly import FieldSample, _modes, check_wellposedness
from .spectral import Mode


class DegenerateFit(Exception):
    """Variogram values unusable for a log-log fit."""


@dataclass(eq=False)
class VariogramCurve:
    """Mean squared increments at a set of lags along one axis.

    Lags are in physical units, strictly increasing, at least 4 of them, and
    the largest must exceed the smallest by a factor of 16 or more (two
    dyadic decades) so a slope is identifiable.  member_values, when present,
    holds the per-ensemble-member curves used for bootstrap resampling.
    """

    lags: np.ndarray
    values: np.ndarray
    axis: str
    stderr: np.ndarray | None = None
    member_values: np.ndarray | None = None

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.axis not in ("time", "space"):
            raise ValueError(f"axis {self.axis!r} must be 'time' or 'space'")
        if self.lags.ndim != 1 or self.lags.shape != self.values.shape:
            raise ValueError("lags and values must be matching 1d arrays")
        if not (np.all(np.isfinite(self.lags)) and np.all(np.isfinite(self.values))):
            raise ValueError("lags and values must be finite")
        if len(self.lags) < 4:
            raise ValueError(f"need at least 4 lags, got {len(self.lags)}")
        if np.any(np.diff(self.lags) <= 0.0) or self.lags[0] <= 0.0:
            raise ValueError("lags must be positive and strictly increasing")
        if self.lags[-1] < 16.0 * self.lags[0]:
            raise ValueError(
                f"lag span {self.lags[-1] / self.lags[0]:.3g} < 16; "
                "slope not identifiable"
            )


@dataclass(frozen=True)
class ExponentFit:
    """Log-log OLS fit of a variogram: estimate, bootstrap CI, diagnostics.

    flagged means r_squared < 0.9: the curve is not a clean power law and the
    estimate should not be trusted silently.
    """

    gamma_hat: float
    ci_low: float
    ci_high: float
    r_squared: float
    n_members: int
    flagged: bool


def _loglog_fit(lags: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(slope, r_squared) of the OLS line through log values on log lags."""
    if np.any(values <= 0.0):
        raise DegenerateFit("variogram has nonpositive values; cannot take logs")
    lx = np.log(lags)
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(((ly - fitted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), r_sq


def fit_exponent(curve: VariogramCurve, bootstrap: int = 200, seed: int = 0) -> ExponentFit:
    """Fit gamma = slope/2 on log lags vs log variogram values.

    The confidence interval is a percentile bootstrap over ensemble members
    (resampling member curves with replacement); without member curves the
    interval collapses to the point estimate, as it does for bootstrap = 0.
    """
    if bootstrap < 0:
        raise ValueError(f"bootstrap {bootstrap} must be >= 0")
    slope, r_sq = _loglog_fit(curve.lags, curve.values)
    gamma = 0.5 * slope
    if curve.member_values is None or bootstrap < 1:
        return ExponentFit(gamma, gamma, gamma, r_sq, 0, r_sq < 0.9)
    members = np.asarray(curve.member_values, dtype=float)
    if members.ndim != 2 or members.shape[1] != len(curve.lags):
        raise ValueError("member_values must have shape (m, len(lags))")
    m = members.shape[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    # row b of the index table is resample b; one polyfit fits every column
    resampled = members[rng.integers(0, m, size=(bootstrap, m))].mean(axis=1)
    if np.any(resampled <= 0.0):
        raise DegenerateFit("bootstrap resample produced nonpositive variogram")
    draws = 0.5 * np.polyfit(np.log(curve.lags), np.log(resampled).T, 1)[0]
    lo, hi = np.percentile(draws, [2.5, 97.5])
    return ExponentFit(gamma, float(lo), float(hi), r_sq, m, r_sq < 0.9)


def empirical_variogram(sample: FieldSample, axis: str, lag_steps) -> VariogramCurve:
    """Mean squared increments of a sampled field along time or space.

    lag_steps are positive integers in grid units; averaging runs over
    ensemble members, the full orthogonal axis, and all admissible offsets.
    Standard errors come from the spread of per-member means.
    """
    steps = np.asarray(lag_steps, dtype=int)
    if steps.ndim != 1 or np.any(steps <= 0):
        raise ValueError("lag steps must be positive integers")
    values = sample.values
    m = values.shape[0]
    if axis == "time":
        size = values.shape[1]
        spacing = sample.grid.dt
    elif axis == "space":
        size = values.shape[2]
        xs = sample.x
        dx = np.diff(xs)
        if len(xs) < 2 or not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
            raise ValueError("space variogram needs a uniform x grid")
        spacing = float(dx[0])
    else:
        raise ValueError(f"axis {axis!r} must be 'time' or 'space'")
    if np.any(steps >= size):
        raise ValueError(f"lag step {steps.max()} >= axis length {size}")

    member_curves = np.empty((m, len(steps)))
    # one buffer, sized for the shortest lag, holds every lag's squared
    # increments in place: a single field-sized temporary for the whole curve
    buf = np.empty(values.size // size * (size - steps.min()))
    for col, j in enumerate(steps):
        if axis == "time":
            ahead, behind = values[:, j:, :], values[:, :-j, :]
        else:
            ahead, behind = values[:, :, j:], values[:, :, :-j]
        diff = buf[: ahead.size].reshape(ahead.shape)
        np.subtract(ahead, behind, out=diff)
        np.multiply(diff, diff, out=diff)
        member_curves[:, col] = diff.reshape(m, -1).mean(axis=1)
    vals = member_curves.mean(axis=0)
    stderr = member_curves.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.zeros(len(steps))
    return VariogramCurve(
        lags=steps * spacing,
        values=vals,
        axis=axis,
        stderr=stderr,
        member_values=member_curves,
    )


def _mode_sum(law: str, kernel, basis, weights, n_modes: int, xs, lags, steps) -> np.ndarray:
    """The truncated field's space-time variogram at rest,

        V(h, l) = sum_k r_k(0) mean_x (e_k(x+l) - e_k(x))^2 + inc_k(h) mean_x e_k(x+l) e_k(x),

    with r_k(0) and inc_k(h) = E|u_k(t+h) - u_k(t)|^2 from ``mode_sampler._law``
    and means over the anchors x of xs with x + l in xs: rows h = 0 and each
    of ``lags``, columns the space steps ``steps`` (0 allowed)."""
    modes = _modes(basis, weights, range(1, n_modes + 1))
    variance, inc = mode_sampler._law(law, kernel, modes, lags=lags)[1:]
    shapes = basis.eval(np.arange(1, n_modes + 1), xs)
    spread, overlap = np.empty((2, len(modes), len(steps)))
    for col, step in enumerate(steps):
        ahead, behind = shapes[:, step:], shapes[:, : xs.size - step]
        spread[:, col] = np.mean(np.square(ahead - behind), axis=1)
        overlap[:, col] = np.mean(ahead * behind, axis=1)
    inc = np.hstack((np.zeros((len(modes), 1)), inc))
    return variance @ spread + inc.T @ overlap


def theoretical_variogram(
    kernel: KernelMeasure, mode: Mode, lags, dynamics: str = "gle"
) -> VariogramCurve:
    """Exact single-mode time variogram E|u(t+h) - u(t)|^2."""
    # the curve comes first, so bad lags fail before any mode is evaluated
    curve = VariogramCurve(lags, np.zeros(len(lags)), "time", np.zeros(len(lags)))
    curve.values = mode_sampler._law(dynamics, kernel, [mode], lags=curve.lags)[2][0]
    return curve


def theoretical_field_variogram(
    kernel: KernelMeasure, basis, weights, n_modes: int, x, lags, dynamics: str = "gle"
) -> VariogramCurve:
    """Truncated-series time variogram of the field, the l = 0 slice of
    :func:`_mode_sum`: sum_k E|u_k(t+h) - u_k(t)|^2 * e_k(x)^2, with
    e_k(x)^2 averaged over x when an array of probe positions is given;
    Divergent if the series diverges."""
    check_wellposedness(basis, weights)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    curve = VariogramCurve(lags, np.zeros(len(lags)), "time", np.zeros(len(lags)))
    curve.values = _mode_sum(dynamics, kernel, basis, weights, n_modes, x_arr,
                             curve.lags, [0])[1:, 0]
    return curve


def theoretical_space_variogram(
    basis, weights, n_modes: int, x, lag_steps, dynamics: str = "gle"
) -> VariogramCurve:
    """Stationary spatial variogram of the truncated field on a uniform grid,
    the h = 0 slice of :func:`_mode_sum` over the anchors the empirical
    estimator uses: each mode's stationary variance (lambda_k^2 / alpha_k,
    the variance identity, for the memory dynamics and half that for the
    memoryless baseline; no kernel is read) times its mean squared
    eigenfunction increment.  Divergent if the variance series fails its
    gate, as in ``assemble_field``.
    """
    check_wellposedness(basis, weights)
    xs = np.asarray(x, dtype=float)
    dx = np.diff(xs)
    if len(xs) < 2 or not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
        raise ValueError("space variogram needs a uniform x grid")
    steps = np.asarray(lag_steps, dtype=int)
    if steps.ndim != 1 or np.any(steps <= 0) or np.any(steps >= len(xs)):
        raise ValueError("lag steps must be positive and shorter than the grid")
    values = _mode_sum(dynamics, None, basis, weights, n_modes, xs, [], steps)[0]
    return VariogramCurve(steps * float(dx[0]), values, "space", np.zeros(len(steps)))
