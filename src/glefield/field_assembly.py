"""Assembling the spatial field from independently sampled modes.

The field on an interval with absorbing ends is the eigenfunction series

    u(t, x) = sum_{k=1}^{N} u_k(t) e_k(x)

where each scalar trajectory u_k carries the noise weight through its
spectral density and the eigenfunctions are orthonormal in L^2.  This module
owns the basis and weight rules, the mode lists they give (:func:`_modes`),
the summability gates that make the series well defined and bound its
truncation (exact sums: a Hurwitz zeta under a weight law, the listed terms
under an Explicit list), and its synthesis.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .cm_kernel import KernelMeasure
from . import mode_sampler
from .mode_sampler import TimeGrid
from .spectral import Mode


class Divergent(Exception):
    """The mode series fails its summability test; the field does not exist."""


class TailBudgetExceeded(Exception):
    """Truncating at n_modes leaves more variance than the caller allows."""


@dataclass(frozen=True)
class DirichletInterval:
    """Sine eigenbasis on (0, L) with absorbing ends.

    e_k(x) = sqrt(2/L) sin(k pi x / L), eigenvalue alpha_k = (k pi / L)^2,
    sup-norm constant c_k = sqrt(2/L); the gradient obeys
    |e_k'(x)| <= alpha_k^(1/2) * c_k.
    """

    length: float

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"interval length {self.length} must be positive")

    def alpha(self, k):
        with np.errstate(over="ignore"):  # _pow names an infinite k pi / L
            return _pow(k * math.pi / self.length, 2,
                        f"alpha_k = (k pi / L)^2 at L = {self.length!r}")

    def sup_const(self, k: int) -> float:
        return math.sqrt(2.0 / self.length)

    def eval(self, k, x) -> np.ndarray:
        """e_k(x) for one mode index k (the shape of x), or one row per index
        for an integer array of them (shape (len(k), len(x)))."""
        x_arr = np.asarray(x, dtype=float)
        phase = np.multiply.outer(np.asarray(k) * math.pi, x_arr)
        return math.sqrt(2.0 / self.length) * np.sin(phase / self.length)

    def power_law(self, q: float, use_sup: bool) -> tuple:
        """(C, p) with [c_k^2] alpha_k^(-q) = C k^(-p) for every k, the
        bracket taken when use_sup: the terms whose tail the series gates sum."""
        c = _pow(self.length / math.pi, 2.0 * q, "the series constant (L / pi)^(2 q)")
        return (c * 2.0 / self.length if use_sup else c), 2.0 * q


@dataclass(frozen=True)
class Flat:
    """Constant noise weights lambda_k = lam."""

    lam: float = 1.0

    def __post_init__(self):
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"lam {self.lam} must be nonnegative")

    def weight(self, basis, k: int) -> float:
        return self.lam

    def square_law(self) -> tuple:
        """(a, b) with lambda_k^2 = a alpha_k^b."""
        return self.lam * self.lam, 0.0


@dataclass(frozen=True)
class PowerDecay:
    """Spectrally tied weights lambda_k = alpha_k^(-s)."""

    s: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("decay exponent must be finite")

    def weight(self, basis, k):
        return _pow(basis.alpha(k), -self.s, f"lambda_k = alpha_k^(-s) at s = {self.s!r}")

    def square_law(self) -> tuple:
        """(a, b) with lambda_k^2 = a alpha_k^b."""
        return 1.0, -2.0 * self.s


@dataclass(frozen=True)
class Explicit:
    """Explicit weight list lambda_1..lambda_N."""

    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("weights must be a nonempty sequence")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def weight(self, basis, k):
        """lambda_k: a float for one mode index k, an array for an integer
        array of them; ValueError for an index outside the list."""
        k_arr = np.asarray(k)
        outside = k_arr[(k_arr < 1) | (k_arr > len(self.values))]
        if outside.size:
            raise ValueError(f"mode {outside.flat[0]} beyond the {len(self.values)} explicit weights")
        return np.asarray(self.values)[k_arr - 1] if k_arr.ndim else self.values[int(k) - 1]


def _pow(x, p: float, name: str):
    """x ** p for a float or elementwise for a 1-d array, always with the C
    library's pow, as Python's float power computes it.  numpy's vectorized
    power differs from it by one ulp on about one value in twenty at
    non-integer p, and even its square (x * x) differs now and then (k = 283
    of the interval of length 2); this keeps a series term computed for an
    array of modes byte-identical to the same term for one mode.  A power
    past the float range, or of a base past it, is a ValueError naming the
    quantity, name."""
    try:
        if np.ndim(x) == 0:
            power = float(x) ** p
        else:
            # np.float64 subclasses float, so float.__rpow__ takes the elements
            # one at a time, with no list of Python floats
            power = x if p == 1.0 else np.fromiter(map(float(p).__rpow__, x), float, x.size)
    except OverflowError:
        power = math.inf
    if not np.isfinite(power).all():
        raise ValueError(f"{name} leaves the float range")
    return power


def _squared(lam):
    """lambda_k^2 of the weights lam; a square past the float range is a ValueError."""
    with np.errstate(over="ignore"):
        square = np.multiply(lam, lam)
    if np.isinf(square).any():
        top = float(np.abs(lam).max())
        raise ValueError(f"lambda_k^2 leaves the float range at lambda_k = {top!r}")
    return square


def _series_terms(basis, weights, exponent: float, count: int, use_sup: bool) -> np.ndarray:
    """Terms lambda_k^2 [c_k^2] / alpha_k^exponent for k = 1..count, in one
    array expression: the bases' ``alpha`` and ``sup_const`` and the weight
    rules take an integer array of mode indices as well as one index."""
    k = np.arange(1, count + 1)
    terms = _squared(weights.weight(basis, k)) / _pow(basis.alpha(k), exponent, "alpha_k^q")
    if use_sup:
        terms = terms * _pow(basis.sup_const(k), 2, "c_k^2")
    return terms


# B_2j / (2j)! for j = 1..8: the Euler-Maclaurin corrections of _zeta
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def _zeta(p: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^(-p) for p > 1 and a >= 1: 16 terms
    summed directly, the rest by Euler-Maclaurin with 8 Bernoulli corrections,
    whose remainder is below the rounding of the sum."""
    x = a + 16.0
    terms = [(a + k) ** -p for k in range(16)]
    terms += [x ** (1.0 - p) / (p - 1.0), 0.5 * x ** -p]
    rising, power = p, x ** (-p - 1.0)
    for j, b in enumerate(_BERNOULLI):
        terms.append(b * rising * power)
        rising *= (p + 2 * j + 1) * (p + 2 * j + 2)
        power /= x * x
    return math.fsum(terms)


@dataclass(frozen=True)
class SummabilityReport:
    """A series summed past some index: its total, the decay power p of its
    terms ~ k^(-p) (None when they are zero), and the verdict."""

    total: float
    decay_power: float | None
    convergent: bool


# a decay power reached from decimal exponents, such as 2 (eta + 2 s), is off
# by a few ulps, so one within this of 1 is the critical series as written
_CRITICAL_SLACK = 1e-12


def _fitted_power(terms: np.ndarray) -> float | None:
    """An estimate of the decay power p of terms ~ C k^(-p): minus the slope
    of the log-log line fitted to the last decade; None when it holds a zero."""
    n = len(terms)
    if n < 10:
        raise ValueError(f"the series gates need at least 10 terms; the explicit weights gave {n}")
    ks = np.arange(n // 10 * 9, n + 1)
    vals = terms[ks[0] - 1 :]
    if np.any(vals <= 0.0):
        return None
    return -float(np.polyfit(np.log(ks), np.log(vals), 1)[0])


def _series(basis, weights, exponent: float, use_sup: bool, past: int = 0) -> SummabilityReport:
    """sum_{k > past} lambda_k^2 [c_k^2] / alpha_k^exponent, the bracket taken
    when use_sup.

    Under a weight law lambda_k^2 = a alpha_k^b the terms are exactly
    a C k^(-p), C and p from the basis's ``power_law``, so the sum is
    a C zeta(p, past + 1) and the series converges iff p > 1.  An Explicit
    list is the whole field: the sum is its listed terms past ``past``, also
    exact, and only the verdict is an estimate, from the power fitted to the
    list's last decade, which must exceed 1 + 1e-6 (the critical series fits
    to p = 1 + O(eps)).
    """
    if isinstance(weights, Explicit):
        terms = _series_terms(basis, weights, exponent, len(weights.values), use_sup)
        p = _fitted_power(terms)
        return SummabilityReport(float(terms[past:].sum()), p, p is None or p > 1.0 + 1e-6)
    a, b = weights.square_law()
    c, p = basis.power_law(exponent - b, use_sup)
    if a == 0.0:
        return SummabilityReport(0.0, None, True)
    if p <= 1.0 + _CRITICAL_SLACK:
        return SummabilityReport(math.inf, p, False)
    return SummabilityReport(a * c * _zeta(p, past + 1.0), p, True)


def check_wellposedness(basis, weights) -> SummabilityReport:
    """Gate the stationary variance series sum_k lambda_k^2 / alpha_k, summed
    by ``_series``; a divergent series raises Divergent instead of returning."""
    report = _series(basis, weights, 1.0, use_sup=False)
    if not report.convergent:
        fitted = "fitted " if isinstance(weights, Explicit) else ""
        raise Divergent(
            f"variance series diverges: {fitted}decay power {report.decay_power:.3f} <= 1")
    return report


def check_regularity_assumption(basis, weights, eta: float) -> SummabilityReport:
    """Gate the smoothness series sum_k lambda_k^2 c_k^2 / alpha_k^eta, summed
    by ``_series``.

    Convergence at a given eta in (0, 1) gives time regularity of every
    exponent below 1 - eta.  The verdict is exact under a weight law and an
    estimate under an Explicit list.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta {eta} must lie in (0, 1)")
    return _series(basis, weights, eta, use_sup=True)


def tail_variance_bound(basis, weights, n_modes: int) -> float:
    """A bound on the pointwise variance lost to truncation at n_modes,
    sum_{k > n_modes} lambda_k^2 c_k^2 / alpha_k (|e_k| <= c_k), summed
    exactly by ``_series``: inf when a weight law's series diverges."""
    return _series(basis, weights, 1.0, use_sup=True, past=n_modes).total


def _modes(basis, weights, ks) -> list:
    """Modes ks of the series, each with the basis's alpha_k and the weight
    rule's lambda_k, taken for all of them at once by the array rules, which
    give a mode the bits alone that they give it among many."""
    index = np.asarray(ks)
    if np.any(index < 1):
        raise ValueError(f"mode index {index.min()} must be >= 1")
    lams = np.broadcast_to(weights.weight(basis, index), index.shape)
    _squared(lams)
    return [Mode(*mode) for mode in zip(index.tolist(), basis.alpha(index).tolist(), lams.tolist())]


@dataclass(eq=False)
class FieldSample:
    """Ensemble of field trajectories: values[i, j, l] = u_i(t_j, x_l)."""

    grid: TimeGrid
    x: np.ndarray
    values: np.ndarray  # shape (m, n_t, n_x)
    n_modes: int
    clipped_masses: tuple = ()

    @property
    def m(self) -> int:
        return self.values.shape[0]


# modes per step-loop call or pool round, and the fewest in a product block
_MODE_BLOCK = 8

# bytes of paths per product block, as many modes as fit: a short field takes
# one block or a few, and field_time's 8-mode block (16 x 4096 steps) is 4 MiB
_BLOCK_BYTES = 2**22


def assemble_field(
    kernel: KernelMeasure,
    basis,
    weights,
    n_modes: int,
    grid: TimeGrid,
    x,
    m: int,
    seed: int,
    dynamics: str = "gle",
    tail_budget: float = 1e-2,
    workers: int = 1,
) -> FieldSample:
    """Sample the truncated eigenfunction series on a time grid and x points.

    Modes are sampled independently (streams keyed by mode index, so results
    do not depend on worker count) and summed in k order, one product block
    at a time: as many modes as ``_BLOCK_BYTES`` of paths hold, at least
    ``_MODE_BLOCK``, a rule that reads the shape alone.  Each mode's paths
    are written straight into its slot of the block buffer by
    ``mode_sampler._sample``, ``_MODE_BLOCK`` modes at a time, under one
    thread rule: with one worker, or on paths of at most
    ``mode_sampler._STEP_LOOP_STEPS`` steps, the part is one call on the
    calling thread; otherwise worker w's share, the w-th, (w + workers)-th,
    ... of the part, is one call.
    A block is added to the field one chunk of time rows at a time, one
    matrix product of at most ``mode_sampler._PRODUCT_MACS`` multiply-adds per chunk
    (one row when a row alone is larger).  dynamics names the trajectory
    law, one of ``mode_sampler.LAWS``; ``mode_sampler._law`` checks it and
    builds what its samplers read, before the gates run.

    Raises Divergent if the variance series fails its gate and
    TailBudgetExceeded if truncation leaves more than tail_budget of
    pointwise variance (by ``tail_variance_bound``).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    modes = _modes(basis, weights, range(1, n_modes + 1))
    setup = mode_sampler._law(dynamics, kernel, modes, grid)[0]
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if x_arr.ndim != 1 or x_arr.size == 0:
        raise ValueError("x must be a nonempty 1d array of positions")
    check_wellposedness(basis, weights)
    tail = tail_variance_bound(basis, weights, n_modes)
    if tail > tail_budget:
        raise TailBudgetExceeded(
            f"truncation at {n_modes} modes leaves variance bound {tail:.3e} "
            f"> budget {tail_budget:.3e}"
        )

    n, nx = grid.n, x_arr.size
    out = np.zeros((m, n, nx))
    # modes per product block, from the shape alone
    width = min(n_modes, max(_MODE_BLOCK, _BLOCK_BYTES // (8 * m * n)))
    paths = np.empty((width, m, n))
    clipped = [0.0] * n_modes

    def fill(ks, slots) -> None:
        """Sample mode ks[j] into slots[j] by one call and keep its clipped mass."""
        ensembles = mode_sampler._sample(dynamics, kernel, [modes[k - 1] for k in ks], grid, m,
                                         seed, setup, slots)
        for k, ens in zip(ks, ensembles):
            clipped[k - 1] = ens.clipped_mass

    # a chunk of `rows` time rows is one (rows, b) paths @ (b, nx) shapes product
    rows = max(1, mode_sampler._PRODUCT_MACS // (width * nx))
    scratch = np.empty((min(rows, m * n), nx))
    fields = out.reshape(m * n, nx)
    # the thread rule: short paths take no pool, which bought them nothing: a
    # part's filters are one step loop, and BLAS spreads the superposition
    threaded = workers > 1 and n > mode_sampler._STEP_LOOP_STEPS
    with ThreadPoolExecutor(max_workers=workers) if threaded else nullcontext() as pool:
        for start in range(1, n_modes + 1, width):
            block = range(start, min(start + width, n_modes + 1))
            for i in range(0, len(block), _MODE_BLOCK):
                part = block[i : i + _MODE_BLOCK]
                slots = paths[i : i + len(part)]
                if pool is None:
                    fill(part, slots)
                else:
                    tasks = [pool.submit(fill, part[w::workers], slots[w::workers])
                             for w in range(min(workers, len(part)))]
                    for task in tasks:
                        task.result()
            shapes = basis.eval(np.asarray(block), x_arr)
            flat = paths[: len(block)].reshape(len(block), m * n)
            for lo in range(0, m * n, rows):
                hi = min(lo + rows, m * n)
                fields[lo:hi] += np.matmul(flat[:, lo:hi].T, shapes, out=scratch[: hi - lo])
    return FieldSample(grid, x_arr, out, n_modes, tuple(clipped))
