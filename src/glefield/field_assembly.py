"""Assembling the spatial field from independently sampled modes.

The field on an interval with absorbing ends is the eigenfunction series

    u(t, x) = sum_{k=1}^{N} u_k(t) e_k(x)

where each scalar trajectory u_k carries the noise weight through its
spectral density and the eigenfunctions are orthonormal in L^2.  This module
owns the basis and weight rules, the mode lists they give (:func:`_modes`),
the summability gates that make the series well defined, and its synthesis.
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
        return _pow(k * math.pi / self.length, 2)

    def sup_const(self, k: int) -> float:
        return math.sqrt(2.0 / self.length)

    def eval(self, k, x) -> np.ndarray:
        """e_k(x) for one mode index k (the shape of x), or one row per index
        for an integer array of them (shape (len(k), len(x)))."""
        x_arr = np.asarray(x, dtype=float)
        phase = np.multiply.outer(np.asarray(k) * math.pi, x_arr)
        return math.sqrt(2.0 / self.length) * np.sin(phase / self.length)


@dataclass(frozen=True)
class CustomBasis:
    """Explicit eigenvalue/constant sequences with a user evaluation rule.

    Sequences must be nondecreasing: modes are ordered by stiffness and the
    tail estimates rely on it.  The gates probe at most the listed modes, and
    a mode beyond the list raises ValueError.
    """

    alphas: tuple
    sup_consts: tuple
    eval_fn: object = None

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        c = np.asarray(self.sup_consts, dtype=float)
        if a.ndim != 1 or a.shape != c.shape or a.size == 0:
            raise ValueError("alphas and sup_consts must be equal-length sequences")
        if np.any(a <= 0.0) or np.any(c <= 0.0):
            raise ValueError("eigenvalues and sup-norm constants must be positive")
        if np.any(np.diff(a) < 0.0) or np.any(np.diff(c) < 0.0):
            raise ValueError("alpha_k and c_k sequences must be nondecreasing")
        object.__setattr__(self, "alphas", tuple(float(v) for v in a))
        object.__setattr__(self, "sup_consts", tuple(float(v) for v in c))

    def alpha(self, k):
        return _listed(self.alphas, k, "eigenvalues")

    def sup_const(self, k):
        return _listed(self.sup_consts, k, "sup-norm constants")

    def eval(self, k, x) -> np.ndarray:
        """eval_fn(k, x) for one mode index k, or one row per index for an
        integer array of them, each taken with a Python int."""
        if self.eval_fn is None:
            raise ValueError("this basis has no eigenfunction evaluation rule")
        if np.ndim(k) == 0:
            return np.asarray(self.eval_fn(k, x), dtype=float)
        return np.array([self.eval_fn(j, x) for j in np.asarray(k).tolist()], dtype=float)


@dataclass(frozen=True)
class Flat:
    """Constant noise weights lambda_k = lam."""

    lam: float = 1.0

    def __post_init__(self):
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"lam {self.lam} must be nonnegative")

    def weight(self, basis, k: int) -> float:
        return self.lam


@dataclass(frozen=True)
class PowerDecay:
    """Spectrally tied weights lambda_k = alpha_k^(-s)."""

    s: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("decay exponent must be finite")

    def weight(self, basis, k):
        return _pow(basis.alpha(k), -self.s)


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
        return _listed(self.values, k, "explicit weights")


def _listed(values: tuple, k, what: str):
    """values[k - 1]: a float for one mode index k, an array for an integer
    array of them; ValueError for an index outside the list."""
    k_arr = np.asarray(k)
    outside = k_arr[(k_arr < 1) | (k_arr > len(values))]
    if outside.size:
        raise ValueError(f"mode {outside.flat[0]} beyond the {len(values)} {what}")
    return np.asarray(values)[k_arr - 1] if k_arr.ndim else values[int(k) - 1]


def _pow(x, p: float):
    """x ** p for a float or elementwise for a 1-d array, always with the C
    library's pow, as Python's float power computes it.  numpy's vectorized
    power differs from it by one ulp on about one value in twenty at
    non-integer p, and even its square (x * x) differs now and then (k = 283
    of the interval of length 2); this keeps a series term computed for an
    array of modes byte-identical to the same term for one mode."""
    if np.ndim(x) == 0:
        return float(x) ** p
    if p == 1.0:
        return x
    # np.float64 subclasses float, so float.__rpow__ takes the elements one
    # at a time, with no list of Python floats (about 0.3 MB at 4000 terms)
    return np.fromiter(map(float(p).__rpow__, x), float, x.size)


def _series_terms(basis, weights, exponent: float, count: int, use_sup: bool) -> np.ndarray:
    """Terms lambda_k^2 [c_k^2] / alpha_k^exponent for k = 1..count, in one
    array expression: the bases' ``alpha`` and ``sup_const`` and the weight
    rules take an integer array of mode indices as well as one index."""
    k = np.arange(1, count + 1)
    lam = weights.weight(basis, k)
    terms = lam * lam / _pow(basis.alpha(k), exponent)
    if use_sup:
        terms = terms * _pow(basis.sup_const(k), 2)
    return terms


# series terms the gates sum before closing with a fitted-power tail: the
# variance and smoothness gates, and the truncation estimate (which probes
# at least twice the modes kept)
_N_PROBE = 2000
_TAIL_PROBE = 4000


def _probe(basis, weights, n_probe: int) -> int:
    """n_probe clipped to the length of any finite list behind the series."""
    if isinstance(weights, Explicit):
        n_probe = min(n_probe, len(weights.values))
    if isinstance(basis, CustomBasis):
        n_probe = min(n_probe, len(basis.alphas))
    return n_probe


def _tail_by_fitted_power(terms: np.ndarray) -> tuple[float, float]:
    """(tail estimate, fitted decay power) from the last decade of terms.

    Fits terms ~ C k^(-p) on the final decade and integrates the fit past the
    probe end (midpoint rule), the standard closure for p-series partial sums.
    Returns (inf, p) when p <= 1 up to fit noise: the critical series fits to
    p = 1 + O(eps) and must not be certified convergent.
    """
    n = len(terms)
    lo = max(n // 10 * 9, 1)
    ks = np.arange(lo, n + 1, dtype=float)
    vals = terms[lo - 1 :]
    if np.any(vals <= 0.0):
        return 0.0, math.inf
    slope, intercept = np.polyfit(np.log(ks), np.log(vals), 1)
    p = -slope
    if p <= 1.0 + 1e-6:
        return math.inf, p
    c = math.exp(intercept)
    tail = c * (n + 0.5) ** (1.0 - p) / (p - 1.0)
    return tail, p


@dataclass(frozen=True)
class SummabilityReport:
    """Outcome of a series gate: partial sum, tail estimate, and the verdict."""

    partial_sum: float
    tail_estimate: float
    decay_power: float
    n_probe: int
    convergent: bool

    @property
    def total(self) -> float:
        return self.partial_sum + self.tail_estimate


def _summability(basis, weights, exponent: float, use_sup: bool) -> SummabilityReport:
    """Partial sum of the first ``_N_PROBE`` terms (fewer when a finite list
    ends sooner, at least 10), closed with a fitted-power tail."""
    n_probe = _probe(basis, weights, _N_PROBE)
    if n_probe < 10:
        short = ("explicit weights" if isinstance(weights, Explicit)
                 and len(weights.values) == n_probe else "custom-basis list")
        raise ValueError(f"the series gates need at least 10 terms; the {short} gave {n_probe}")
    terms = _series_terms(basis, weights, exponent, n_probe, use_sup)
    tail, p = _tail_by_fitted_power(terms)
    convergent = p > 1.0 and math.isfinite(tail)
    return SummabilityReport(float(terms.sum()), tail, p, n_probe, convergent)


def check_wellposedness(basis, weights) -> SummabilityReport:
    """Gate the stationary variance series sum_k lambda_k^2 / alpha_k.

    Built-in weight rules on built-in bases decay like a power of k, so the
    tail is estimated, not bounded: a power fitted to the last decade of the
    ``_N_PROBE`` probe terms is integrated past the probe; convergence requires that
    power to exceed 1.  For Explicit weights the same partial-sum plus
    decay-fit heuristic applies to however many weights were given.  A
    divergent series raises Divergent instead of returning.
    """
    report = _summability(basis, weights, 1.0, use_sup=False)
    if not report.convergent:
        raise Divergent(
            f"variance series diverges: fitted decay power {report.decay_power:.3f} <= 1 "
            f"(partial sum {report.partial_sum:.6g} after {report.n_probe} terms)"
        )
    return report


def check_regularity_assumption(basis, weights, eta: float) -> SummabilityReport:
    """Gate the smoothness series sum_k lambda_k^2 c_k^2 / alpha_k^eta.

    Convergence at a given eta in (0, 1) gives time regularity of every
    exponent below 1 - eta; the gate estimates convergence from a fitted
    decay power, so its verdict is an estimate, not a certificate.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta {eta} must lie in (0, 1)")
    return _summability(basis, weights, eta, use_sup=True)


def _modes(basis, weights, ks) -> list:
    """Modes ks of the series, each with the basis's alpha_k and the weight
    rule's lambda_k, taken for all of them at once by the array rules, which
    give a mode the bits alone that they give it among many."""
    index = np.asarray(ks)
    if np.any(index < 1):
        raise ValueError(f"mode index {index.min()} must be >= 1")
    lams = np.broadcast_to(weights.weight(basis, index), index.shape).tolist()
    return [Mode(*mode) for mode in zip(index.tolist(), basis.alpha(index).tolist(), lams)]


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


def tail_variance_bound(basis, weights, n_modes: int) -> float:
    """Estimate, not a bound, of the pointwise variance lost to truncation,
    sum_{k > n_modes} lambda_k^2 c_k^2 / alpha_k: the terms up to the probe
    (``_TAIL_PROBE`` or twice n_modes) plus a fitted-power tail past it."""
    probe = len(weights.values) if isinstance(weights, Explicit) else max(_TAIL_PROBE, 2 * n_modes)
    probe = _probe(basis, weights, probe)
    if n_modes >= probe:
        return 0.0
    terms = _series_terms(basis, weights, 1.0, probe, use_sup=True)
    tail_past_probe, p = _tail_by_fitted_power(terms)
    if not math.isfinite(tail_past_probe):
        return math.inf
    return float(terms[n_modes:].sum()) + tail_past_probe


# modes per step-loop call or pool round, and the fewest in a product block
_MODE_BLOCK = 8

# bytes of paths per product block, as many modes as fit: a short field takes
# one block or a few, and field_time's 8-mode block (16 x 4096 steps) is 4 MiB
_BLOCK_BYTES = 2**22

# multiply-adds per product, a cap the time rows are chunked to.  At 8.4e6
# (K = 128, 16 members at field_space shape) OpenBLAS woke its second thread,
# which cut wall time by a sixth but raised cpu time by half; at this cap every
# product stays on the calling thread.  It is field_time's 4096 x 8 x 16
_PRODUCT_MACS = 2**19


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
    are written straight into its slot of the block buffer, ``_MODE_BLOCK``
    modes at a time, by one thread rule: on paths of at most
    ``mode_sampler._STEP_LOOP_STEPS`` steps their one-pole filter modes
    take one step loop on the calling thread (``mode_sampler._sample_block``);
    worker w of the pool samples the w-th, (w + workers)-th, ... of the
    others, each by the public sampler of its law.
    A block is added to the field one chunk of time rows at a time, one
    matrix product of at most ``_PRODUCT_MACS`` multiply-adds per chunk
    (one row when a row alone is larger).  dynamics names the trajectory
    law, one of ``mode_sampler.LAWS``; ``mode_sampler._law`` checks it and
    builds what its samplers read, before the gates run.

    Raises Divergent if the variance series fails its gate and
    TailBudgetExceeded if truncation leaves more than tail_budget of
    pointwise variance (by the fitted-power tail estimate).
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
            f"truncation at {n_modes} modes leaves variance estimate {tail:.3e} "
            f"> budget {tail_budget:.3e}"
        )

    n, nx = grid.n, x_arr.size
    out = np.zeros((m, n, nx))
    # modes per product block, from the shape alone
    width = min(n_modes, max(_MODE_BLOCK, _BLOCK_BYTES // (8 * m * n)))
    paths = np.empty((width, m, n))
    clipped = [0.0] * n_modes

    def fill(ks) -> None:
        for k in ks:
            ens = mode_sampler._sample(dynamics, kernel, modes[k - 1], grid, m, seed, setup,
                                       out=paths[(k - 1) % width])
            clipped[k - 1] = ens.clipped_mass

    # a chunk of `rows` time rows is one (rows, b) paths @ (b, nx) shapes product
    rows = max(1, _PRODUCT_MACS // (width * nx))
    scratch = np.empty((min(rows, m * n), nx))
    fields = out.reshape(m * n, nx)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for start in range(1, n_modes + 1, width):
            block = range(start, min(start + width, n_modes + 1))
            for i in range(0, len(block), _MODE_BLOCK):
                part = block[i : i + _MODE_BLOCK]
                # the thread rule: on short paths the part's filter modes take one
                # step loop on this thread, clipping nothing; the pool gets the rest
                looped = []
                if n <= mode_sampler._STEP_LOOP_STEPS:
                    looped = mode_sampler._sample_block(dynamics, [modes[k - 1] for k in part],
                                                        grid, m, seed, setup,
                                                        paths[i : i + len(part)])
                ks = [k for j, k in enumerate(part) if j not in looped]
                if pool is None:
                    fill(ks)
                else:
                    tasks = [pool.submit(fill, ks[w::workers])
                             for w in range(min(workers, len(ks)))]
                    for task in tasks:
                        task.result()
            shapes = basis.eval(np.asarray(block), x_arr)
            flat = paths[: len(block)].reshape(len(block), m * n)
            for lo in range(0, m * n, rows):
                hi = min(lo + rows, m * n)
                fields[lo:hi] += np.matmul(flat[:, lo:hi].T, shapes, out=scratch[: hi - lo])
    return FieldSample(grid, x_arr, out, n_modes, tuple(clipped))
