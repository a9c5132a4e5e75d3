"""Exact-in-law synthesis of stationary Gaussian mode trajectories.

Three routes produce paths on a uniform time grid:

* :func:`sample_gle_mode` - circulant embedding of the Toeplitz covariance
  (Davies-Harte).  Exact for the discretized covariance sequence, O(n log n).
* :func:`sample_gle_mode_spectral` - truncated harmonic superposition driven
  directly by the spectral density.  Slower and only asymptotically exact;
  kept as an independent cross-check of the embedding route.
* :func:`sample_ou_mode` - exact AR(1) recursion for the memoryless
  (Ornstein-Uhlenbeck) mode used by the classical-dynamics baseline.

Randomness is counter-based: path i of mode k under seed s draws from a
Philox stream keyed by (s, k, i), so ensembles are reproducible elementwise
regardless of chunking or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .cm_kernel import KernelMeasure
from . import spectral
from .spectral import Mode, SpectralDensity


class EmbeddingNotPSD(Exception):
    """Circulant embedding stayed indefinite after padding; covariance unusable."""

    def __init__(self, message, min_eigenvalue, clipped_mass):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.clipped_mass = clipped_mass


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = t0 + j*dt for j = 0..n-1."""

    dt: float
    n: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt {self.dt} must be positive")
        if self.n < 2:
            raise ValueError(f"grid length {self.n} must be at least 2")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(eq=False)
class PathEnsemble:
    """m sampled paths on a common grid plus the provenance needed to redraw them."""

    grid: TimeGrid
    values: np.ndarray  # shape (m, n)
    mode: Mode
    seed: int
    method: str
    clipped_mass: float = 0.0
    embedding_length: int = 0
    node_count: int = 0

    @property
    def m(self) -> int:
        return self.values.shape[0]


def _check_sampling_args(m: int, seed: int) -> None:
    if m < 1:
        raise ValueError(f"ensemble size {m} must be positive")
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed {seed!r} must be an integer in [0, 2**64)")


def _stream(seed: int, mode_index: int, path_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, mode, path): independent and addressable."""
    key = np.array([seed, (mode_index << 32) | path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def circulant_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Eigenvalues of the length-2L circulant embedding of cov[0..L].

    The embedding is real and symmetric, so its spectrum is the real FFT of
    the half sequence (``hfft``); no mirrored copy is built.
    """
    L = len(cov) - 1
    if L < 1:
        raise ValueError("need at least lags 0 and 1")
    return np.fft.hfft(cov, 2 * L)


def paths_from_normals(eig: np.ndarray, normals: np.ndarray, n: int) -> np.ndarray:
    """Davies-Harte synthesis: map (m, 2L) standard normals to (m, n) paths.

    Column 0 and column L of the normals drive the real frequencies 0 and L;
    columns j and L+j (0 < j < L) are the real and imaginary parts of
    frequency j.  Scaled by sqrt(eig / 2) this Hermitian half-spectrum goes
    through one real inverse FFT of length 2L (the real-FFT form of the
    Davies-Harte map, after Dietrich and Newsam 1997), so no full complex
    spectrum is built.  The map is linear, so driving it with unit vectors
    exposes the exact path covariance; the tests use that to compare against
    the Toeplitz truth.
    """
    m2 = eig.shape[0]
    L = m2 // 2
    if normals.ndim != 2 or normals.shape[1] != m2:
        raise ValueError(f"normals must have shape (m, {m2})")
    if n > L:
        raise ValueError(f"path length {n} exceeds embedding half-length {L}")
    # irfft divides by 2L; fold that back in with the eigenvalue amplitudes
    amp = np.sqrt(np.maximum(eig[: L + 1], 0.0) * m2)
    amp[1:L] *= math.sqrt(0.5)
    spec = np.empty((normals.shape[0], L + 1), dtype=complex)
    np.multiply(normals[:, : L + 1], amp, out=spec.real)
    np.multiply(normals[:, L + 1 :], -amp[1:L], out=spec.imag[:, 1:L])
    spec.imag[:, 0] = 0.0
    spec.imag[:, L] = 0.0
    return np.ascontiguousarray(np.fft.irfft(spec, m2, axis=1)[:, :n])


def _embed(sd: SpectralDensity, grid: TimeGrid, rel_tol: float):
    """Covariance sequence -> clipped circulant eigenvalues, padding as needed.

    Doubles the embedding half-length from n up to 8n while the most negative
    eigenvalue stays below -1e-8 * r(0); after that, clips if the negative
    mass is at most 1e-6 of the positive mass, else raises EmbeddingNotPSD.
    The covariance sequence is computed at most twice: once with n + 1 lags,
    and, only if that embedding is indefinite, once with 8n + 1 lags whose
    prefixes serve the 2n, 4n and 8n embeddings.
    """
    r0 = sd.mode.lambda_k ** 2 / sd.mode.alpha_k
    tol = 1e-8 * r0
    cov = spectral.autocovariance_sequence(sd, grid.dt, grid.n + 1, rel_tol)
    for L in (grid.n, 2 * grid.n, 4 * grid.n, 8 * grid.n):
        if len(cov) <= L:
            cov = spectral.autocovariance_sequence(sd, grid.dt, 8 * grid.n + 1, rel_tol)
        eig = circulant_eigenvalues(cov[: L + 1])
        min_eig = float(eig.min())
        if min_eig >= -tol:
            break
    neg = -eig[eig < 0.0].sum()
    pos = eig[eig > 0.0].sum()
    clipped_mass = float(neg / pos) if pos > 0.0 else 0.0
    if min_eig < -tol and clipped_mass > 1e-6:
        raise EmbeddingNotPSD(
            f"circulant embedding indefinite up to length {len(eig)}: "
            f"min eigenvalue {min_eig:.3e}, clipped mass {clipped_mass:.3e}",
            min_eig,
            clipped_mass,
        )
    return np.maximum(eig, 0.0), clipped_mass


_PATH_CHUNK = 256


def sample_gle_mode(
    kernel: KernelMeasure,
    mode: Mode,
    grid: TimeGrid,
    m: int,
    seed: int,
    rel_tol: float = 1e-6,
) -> PathEnsemble:
    """Sample m stationary memory-kernel paths by circulant embedding.

    Marginal variance is r(0) = lambda_k^2 / alpha_k and lagged covariances
    match spectral.autocovariance up to the sequence tolerance, before Monte
    Carlo error.
    """
    _check_sampling_args(m, seed)
    sd = SpectralDensity(kernel, mode)
    out = np.empty((m, grid.n))
    if mode.lambda_k == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, mode, seed, "circulant", 0.0, 2 * grid.n)
    eig, clipped = _embed(sd, grid, rel_tol)
    m2 = eig.shape[0]
    for start in range(0, m, _PATH_CHUNK):
        stop = min(start + _PATH_CHUNK, m)
        normals = np.empty((stop - start, m2))
        for i, row in enumerate(normals, start):
            _stream(seed, mode.index, i).standard_normal(out=row)
        out[start:stop] = paths_from_normals(eig, normals, grid.n)
    return PathEnsemble(grid, out, mode, seed, "circulant", clipped, m2)


def spectral_nodes(sd: SpectralDensity, node_count: int, q: float = 0.5):
    """Midpoint frequency nodes and weights, concentrated on the resonant window.

    Half the nodes cover [omega_r - omega_r^q, omega_r + omega_r^q] when a
    resonance exists; the remainder split between the inner stretch and the
    tail up to a cutoff carrying all but ~0.2% of the variance.
    """
    if node_count < 256:
        raise ValueError(f"node_count {node_count} must be at least 256")
    if not 0.0 < q < 1.0:
        raise ValueError(f"window exponent q={q} must lie in (0, 1)")
    lam = sd.mode.lambda_k
    omega_r, omega_cut = spectral._cutoff(sd, 2e-3 * lam * lam / sd.mode.alpha_k)

    def midpoints(a: float, b: float, count: int):
        edges = np.linspace(a, b, count + 1)
        return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)

    if omega_r is None:
        return midpoints(0.0, omega_cut, node_count)
    lo = max(omega_r - omega_r**q, 0.0)
    hi = min(omega_r + omega_r**q, omega_cut)
    quarter = node_count // 4
    segs = [
        midpoints(0.0, lo, quarter) if lo > 0.0 else (np.empty(0), np.empty(0)),
        midpoints(lo, hi, node_count - 2 * quarter + (0 if lo > 0.0 else quarter)),
        midpoints(hi, omega_cut, quarter),
    ]
    nodes = np.concatenate([s[0] for s in segs])
    widths = np.concatenate([s[1] for s in segs])
    return nodes, widths


def sample_gle_mode_spectral(
    kernel: KernelMeasure,
    mode: Mode,
    grid: TimeGrid,
    m: int,
    seed: int,
    node_count: int = 4096,
) -> PathEnsemble:
    """Harmonic-superposition sampler: u(t) = sum_j a_j (xi_j cos + eta_j sin)(w_j t)
    with a_j = sqrt(2 rho(w_j) dw_j).  Independent of the embedding route."""
    _check_sampling_args(m, seed)
    sd = SpectralDensity(kernel, mode)
    out = np.empty((m, grid.n))
    if mode.lambda_k == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, mode, seed, "spectral", node_count=node_count)
    nodes, widths = spectral_nodes(sd, node_count)
    amp = np.sqrt(2.0 * np.asarray(spectral.rho(sd, nodes)) * widths)
    phases = np.outer(nodes, grid.times)
    cos_m = np.cos(phases)
    sin_m = np.sin(phases)
    k = nodes.shape[0]
    for start in range(0, m, _PATH_CHUNK):
        stop = min(start + _PATH_CHUNK, m)
        xi = np.empty((stop - start, k))
        eta = np.empty((stop - start, k))
        for i in range(start, stop):
            draw = _stream(seed, mode.index, i).standard_normal(2 * k)
            xi[i - start] = draw[:k]
            eta[i - start] = draw[k:]
        out[start:stop] = (xi * amp) @ cos_m + (eta * amp) @ sin_m
    return PathEnsemble(grid, out, mode, seed, "spectral", node_count=k)


def sample_ou_mode(mode: Mode, grid: TimeGrid, m: int, seed: int) -> PathEnsemble:
    """Exact stationary AR(1) recursion for the memoryless baseline mode:
    u_{j+1} = e^{-alpha dt} u_j + lambda * sqrt((1 - e^{-2 alpha dt})/(2 alpha)) * xi_j."""
    _check_sampling_args(m, seed)
    alpha = mode.alpha_k
    lam = mode.lambda_k
    out = np.empty((m, grid.n))
    if lam == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, mode, seed, "ou")
    phi = math.exp(-alpha * grid.dt)
    sigma = lam / math.sqrt(2.0 * alpha)
    innovation = sigma * math.sqrt(1.0 - phi * phi)
    for start in range(0, m, _PATH_CHUNK):
        stop = min(start + _PATH_CHUNK, m)
        noise = np.empty((stop - start, grid.n))
        for i, row in enumerate(noise, start):
            _stream(seed, mode.index, i).standard_normal(out=row)
        noise[:, 0] *= sigma
        noise[:, 1:] *= innovation
        out[start:stop] = lfilter([1.0], [1.0, -phi], noise, axis=1)
    return PathEnsemble(grid, out, mode, seed, "ou")
