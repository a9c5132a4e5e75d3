"""Exact-in-law synthesis of stationary Gaussian mode trajectories.

This module is the one owner of the sampling laws, :data:`LAWS`: it alone
tells them apart, in their samplers (:func:`_sample`) and in :func:`_law`,
the set-up those read and the closed-form moments the variogram oracles sum.

* :func:`sample_gle_mode` - exact sampler for the memory-kernel mode ("gle").
  A kernel K = sum_i w_i e^{-x_i t} makes the mode the first coordinate of a
  (p+1)-dimensional Ornstein-Uhlenbeck process, its Markovian embedding
  (:class:`_Markov`, built once per field for all its modes in one stacked
  pass), so the covariance is known in closed form.  A one-atom mode with an
  eigenbasis (the paper's kernel) takes the innovations form, one normal per
  step; any other whichever exact route draws fewer normals: the state
  recursion, d per step, or circulant embedding (Davies-Harte).
* :func:`sample_gle_mode_spectral` - truncated harmonic superposition driven
  by the spectral density ("spectral"), only asymptotically exact: an
  independent cross-check of the exact sampler, under gle's law.
* :func:`sample_ou_mode` - exact AR(1) recursion for the memoryless
  (Ornstein-Uhlenbeck) mode of the classical-dynamics baseline ("heat").

The innovations form and the AR(1) baseline are sums of one-pole filters
(:func:`_filter`) with one sampler at any path length, :func:`_sample_block`,
for a mode alone or a field's block of them: up to ``_STEP_LOOP_STEPS`` steps
one step loop across the rows of all the modes given (:func:`_filter_paths`),
beyond that :func:`_recur`, the blocked prefix-sum filter the state recursion
takes too.  Sampling imports no scipy.

Randomness: mode k under seed s draws from one SFC64 stream, child k of the
seed's ``SeedSequence``, and path i takes the i-th consecutive block of its
normals: n of them for the innovations form and the AR(1) baseline, d*n for
the state recursion, 2L for the circulant and 2 per node for the
superposition.  Each chunk of paths is one draw, so ensembles do not depend
on chunking or thread count, and the first m' paths of an m-path ensemble
are the m'-path ensemble (the superposition's only up to rounding: its BLAS
product picks a kernel by the chunk's row count).  A path is not
addressable on its own (path i follows the i blocks before it), and paths
of n' < n steps are not the first n' steps of paths of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cm_kernel import KernelMeasure
from . import spectral
from .spectral import Mode, SpectralDensity


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt for j = 0..n-1."""

    dt: float
    n: int

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt {self.dt} must be positive")
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"grid length {self.n!r} must be an integer of at least 2")
        if not np.isfinite(self.dt * (self.n - 1)):
            raise ValueError(f"grid of n {self.n} steps of dt {self.dt} ends past the float range")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n)


@dataclass(eq=False)
class PathEnsemble:
    """m sampled paths on a common grid and the route that drew them.

    method is "recursion" (innovations form or state recursion) or
    "circulant" for :func:`sample_gle_mode`; embedding_length (2L) and
    clipped_mass (negative circulant eigenvalue mass over positive mass) are
    0 off the circulant route.
    """

    grid: TimeGrid
    values: np.ndarray  # shape (m, n)
    method: str
    clipped_mass: float = 0.0
    embedding_length: int = 0
    node_count: int = 0

    @property
    def m(self) -> int:
        return self.values.shape[0]


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_sampling_args(m: int, seed: int) -> None:
    if not _is_integer(m) or m < 1:
        raise ValueError(f"ensemble size {m!r} must be a positive integer")
    if not _is_integer(seed) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed {seed!r} must be an integer in [0, 2**64)")


def _paths_out(out, m: int, n: int) -> np.ndarray:
    """The (m, n) array the paths are written to: ``out`` when given, which
    must be a writeable C-contiguous float64 array of that shape, else a new one."""
    if out is None:
        return np.empty((m, n))
    if not (isinstance(out, np.ndarray) and out.shape == (m, n) and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array of shape {(m, n)}")
    return out


def _stream(seed: int, mode_index: int) -> np.random.Generator:
    """Mode k's normals: an SFC64 generator on child k of the seed's
    ``SeedSequence``, numpy's derivation of independent streams.  An explicit
    seed draws no OS entropy."""
    seq = np.random.SeedSequence(seed, spawn_key=(mode_index,))
    return np.random.Generator(np.random.SFC64(seq))


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


# eigen-route rounding error grows like eps * cond(eigenvectors); near
# critical damping the drift turns defective and the condition number blows up
_MAX_EIGVEC_COND = 1e5

# least ratio of a mode's slowest decay rate to eig's rounding, eps |A|_1, for
# an eigenbasis (two digits): the kernels in use clear it by 1e8 or more,
# [[1, 1e6]] by 45; [[1, 1e10]] reads the rate of its mode 1 as 0
_RATE_RESOLUTION = 100.0

# relative change of the innovations sweep's c below which the gain is taken
# as settled (14 steps on the comparison_1d time modes); c's rounding noise
# is about 1e-16 relative, so a tighter value may never be met
_GAIN_TOL = 1e-14


# e-folds of decay one block of :func:`_recur` may span.  A pole with
# per-step decay a = -log|p| is run in blocks of B = max(1, floor(G / a))
# steps (the whole path when a n <= G): the in-block weights p^-i stay below
# e^G, so the sums stay far from overflow, the factors p^t stay above e^-G,
# and a normal reaches the blocks after its own only through the next one's
# carry; what it would add further on is scaled by less than e^-G, far below
# rounding
_BLOCK_DECAY = 300.0


def _recur(pole, weights, normals: np.ndarray, out: np.ndarray, add: bool = False) -> None:
    """out (+)= Re(y) for y_j = pole y_{j-1} + sum_k weights[k, j] normals[:, k, j], y_{-1} = 0.

    ``normals`` are real, of shape (m, n) or (m, d, n), and ``weights`` is a
    real or complex per-step table of shape (n,) or (d, n); ``out`` is (m, n)
    and is overwritten, or added to when ``add``.  The pole must satisfy
    |pole| <= 1; a real pole takes the real part of the weights and one real
    chain only.

    Time is cut into blocks of B steps (see ``_BLOCK_DECAY``).  Inside a
    block y_{s+t} = pole^t (sum_{i<=t} w_i z_{s+i} + pole^B S) with
    w_i = weights_{s+i} pole^-i: one real prefix sum per chain, the real and
    imaginary parts of w z for a complex pole, so no complex (m, n) array is
    made.  The carry S is the previous block's own total; what the blocks
    before it add is scaled by less than e^-G and left out.  The weights are
    divided by their largest magnitude inside the sums and that factor goes
    back with pole^t, or on its own after them when pole^t times it could
    leave the normal range, so only G bounds the range of the sums.  The
    powers are running products of the pole itself, so their error grows
    like t eps at most whatever the pole's angle (the step angle reaches
    512 rad at dt = 4), not like its angle times t eps.  Every row is
    summed alone, so a row's bits do not depend on m.
    """
    m, n = out.shape
    z = normals.reshape(m, -1, n)
    c = np.reshape(weights, (z.shape[1], n))
    pole = complex(pole)
    if pole.imag == 0.0:
        pole, c = pole.real, c.real
    decay = -math.log(abs(pole)) if pole else math.inf
    size = n if decay * n <= _BLOCK_DECAY else max(1, int(_BLOCK_DECAY / decay))
    full, tail = divmod(n, size)
    powers = np.full(size + 1, pole)
    powers[0] = 1.0
    np.multiply.accumulate(powers, out=powers)
    top = float(np.abs(c).max()) or 1.0
    # pole^t for each step's place t in its block
    cycle = np.empty((-(-n // size), size), dtype=powers.dtype)
    cycle[...] = powers[:size]
    cycle = cycle.reshape(-1)[:n]
    table = (c / top) / cycle
    # top times pole^t, down to top e^-G, must stay a normal double
    apart = top * math.exp(-_BLOCK_DECAY) < np.finfo(float).tiny
    scale = cycle.conjugate() if apart else top * cycle.conjugate()
    # one real chain per part of the weights: Re(y_t) = Re(p^t) A_t - Im(p^t) B_t
    # for A, B the sums over Re(w) z and Im(w) z, so the scale rows are the
    # parts of conj(p^t); all rows are strided views of the complex tables
    chains = 2 if isinstance(pole, complex) else 1
    table = table.view(float).reshape(len(c), n, chains).transpose(2, 0, 1)
    scale = scale.view(float).reshape(n, chains).T
    sums = out[None] if chains == 1 and not add else np.empty((chains, m, n))
    np.multiply(z[:, 0], table[:, :1], out=sums)
    if len(c) > 1:
        term = np.empty_like(sums)
        for k in range(1, len(c)):
            sums += np.multiply(z[:, k], table[:, k : k + 1], out=term)
    body = sums[:, :, : full * size].reshape(chains, m, full, size)
    if full + (tail > 0) > 1:
        # every block but the first starts from pole^B times the own total
        # of the block before it
        ends = np.add.reduce(body[:, :, : full - (tail == 0)], axis=3)
        carry = powers[size]
        if chains == 1:
            ends *= carry
        else:
            re, im = ends
            ends = np.stack((carry.real * re - carry.imag * im, carry.real * im + carry.imag * re))
        sums[:, :, size::size] += ends
    if size > 1:
        np.add.accumulate(body, axis=3, out=body)
    if size > 1 and tail:
        rest = sums[:, :, full * size :]
        np.add.accumulate(rest, axis=2, out=rest)
    sums *= scale[:, None]
    if chains == 2 and add:
        sums[0] += sums[1]
    elif chains == 2:
        np.add(sums[0], sums[1], out=out)
    paths = sums[0] if add else out
    if apart:
        paths *= top
    if add:
        out += paths


# paths of at most this many steps take the step loop of :func:`_filter_paths`,
# longer ones :func:`_recur`.  Filtering 8 modes on a 2-vCPU host, the loop
# took 55-362 us against 155-640 at n 16 (m 16 to 256) and stayed ahead up to
# n 48; at n 64 it fell behind for m >= 128 (gle, m 256: 1776 against 1513 us)
_STEP_LOOP_STEPS = 48


def _filter_paths(poles, weights, chains, normals: np.ndarray, out: np.ndarray) -> None:
    """out[k] = the sum over the chains[k] filters of slot k of Re(y), with
    y_j = pole y_{j-1} + weights[j] normals[k, :, j] and y_{-1} = 0.

    ``poles`` (C,) and ``weights`` (C, n) stack the filters of all K slots,
    C = sum(chains); ``normals`` and ``out`` are (K, m, n), and may be one
    array; a slot with no chains is left alone.  Past ``_STEP_LOOP_STEPS``
    steps each chain runs through :func:`_recur`, a slot's chains one after
    another on a copy of its normals when it has more than one; up to it all
    C m rows take one vector step per time step, the real and imaginary
    parts of y as two real chains (one when poles and weights are real), in
    real ufuncs only.  So the route depends on n alone and a row's bits on nothing
    else.  The loop takes a pole whose one-step decay exceeds
    ``_BLOCK_DECAY`` as 0, as :func:`_recur` drops what it carries, and no
    product turns subnormal.
    """
    owner = [k for k, count in enumerate(chains) for _ in range(count)]
    n = normals.shape[-1]
    if n > _STEP_LOOP_STEPS:
        for c, k in enumerate(owner):
            add = c > 0 and owner[c - 1] == k
            if not add:  # a slot's first chain may overwrite the normals its second reads
                z = normals[k].copy() if chains[k] > 1 else normals[k]
            _recur(poles[c], weights[c], z, out[k], add=add)
        return
    chains = np.asarray(chains)
    first = np.cumsum(chains) - chains
    poles = np.asarray(poles, dtype=complex)
    poles[np.abs(poles) < math.exp(-_BLOCK_DECAY)] = 0.0
    if not poles.any():  # every step is its own input
        paths = np.real(weights)[:, None] * normals[owner]
    else:
        parts = 2 if np.iscomplexobj(weights) or poles.imag.any() else 1
        # state[j, part, c, i]: the input w_j z_j of step j, then y_j; C
        # order, so that each step is one contiguous slice
        state = np.empty((n, parts, len(owner), normals.shape[1]))
        w = np.stack((np.real(weights), np.imag(weights))[:parts]).transpose(2, 0, 1)
        np.multiply(w[..., None], normals.transpose(2, 0, 1)[:, None, owner], out=state)
        # full-size factors on y_{j-1} and on y_{j-1} with its parts swapped
        grow, turn, spin = np.empty((3, *state.shape[1:]))
        grow[...] = poles.real[:, None]
        turn[...] = np.stack((-poles.imag, poles.imag))[:parts, :, None]
        for prev, now in zip(state, state[1:]):
            np.add(now, np.multiply(grow, prev, out=spin), out=now)
            if parts == 2:
                np.add(now, np.multiply(turn, prev[::-1], out=spin), out=now)
        paths = state[:, 0].transpose(1, 2, 0)
    out[chains > 0] = paths[first[chains > 0]]
    for c in range(1, chains.max()):
        out[chains > c] += paths[first[chains > c] + c]


def _decay(mu, t, less_one: bool = False):
    """e^{mu t}, or e^{mu t} - 1 by expm1 when ``less_one``, with e^{mu t} taken
    as 0 where e^{Re(mu) t} underflows (its phase may overflow to nan)."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.expm1(mu * t) if less_one else np.exp(mu * t)
        if np.isfinite(z).all():
            return z
        return np.where(np.exp(np.real(mu) * t) == 0.0, -1.0 if less_one else 0.0, z)


class _Markov:
    """Markovian embeddings of the modes of one kernel, built together
    (Ceriotti, Bussi and Parrinello 2010).

    Mode k solves u' = sum_i y_i with dy_i = (-x_i y_i - alpha w_i u) dt +
    lambda sqrt(2 w_i x_i) dW_i.  The law is linear in lambda, so the
    embedding is built for unit noise and lambda enters only where paths
    are read out: nothing here holds lambda^2, which leaves the double
    range below lambda ~ 1e-154.  The state is kept in the coordinates
    v = (sqrt(alpha) u, y_1/sqrt(w_1), ..., y_p/sqrt(w_p)) / lambda, where
    the drift is A = [[0, b^T], [-b, -diag(x)]] with b_i = sqrt(alpha w_i),
    the noise covariance is D = diag(0, 2 x_i), one vector for the kernel,
    and the Lyapunov equation A S + S A^T + D = 0 is solved by S = I (the
    equilibrium law).  So u = lambda v_0 / sqrt(alpha) has variance
    lambda^2/alpha exactly, the paper's variance identity.

    The modes with lambda != 0 are stacked (a zero-weight mode is the zero
    path and has no embedding): mode ``slot[mode]`` is row i of every
    stack, and the per-mode methods take that i.  The (K, d, d) drifts are
    diagonalized by one ``eig`` call, with ``cond`` and ``inv`` run over
    it too; LAPACK runs the same routine on each matrix, so every mode gets
    the bits it would get alone.  When a mode's eigenvectors are
    ill-conditioned (its eigenvalues merge at critical damping) or rounding
    hides its slowest rate (a kernel too stiff) its ``eig`` entry is None
    and its covariance and paths come from the real step matrix e^{A dt}.

    Given a grid, :meth:`_sweep` builds the innovations form of every
    one-atom mode with an eigenbasis as well, so that sampling such a mode
    only draws normals and filters them.
    """

    def __init__(self, kernel: KernelMeasure, modes, grid: TimeGrid | None = None):
        modes = [mode for mode in modes if mode.lambda_k != 0.0]
        self.kernel = kernel
        self.grid = grid
        self.slot = {mode: i for i, mode in enumerate(modes)}
        self.alpha = alpha = np.array([mode.alpha_k for mode in modes])
        self.lam = np.array([mode.lambda_k for mode in modes])
        self.dim = kernel.weights.size + 1
        self.noise = np.concatenate(([0.0], 2.0 * kernel.rates))
        # r(0) of the unit-noise law; the mode's is lambda^2 times it
        self.variance = 1.0 / alpha
        self.scale = 1.0 / np.sqrt(alpha)
        self.eig = self._eigenbases()
        self._gains = {}
        if grid is not None and self.dim == 2:
            self._sweep(grid)

    def drift(self, rows=None) -> np.ndarray:
        """The drifts A of the modes in ``rows`` (all by default), stacked.

        Built on demand from alpha rather than kept: only the
        eigendecomposition and the step laws read them."""
        alpha = self.alpha if rows is None else self.alpha[rows]
        b = np.sqrt(alpha[:, None] * self.kernel.weights)
        diag = np.arange(1, self.dim)
        drift = np.zeros((len(alpha), self.dim, self.dim))
        drift[:, diag, diag] = -self.kernel.rates
        drift[:, 0, 1:] = b
        drift[:, 1:, 0] = -b
        return drift

    def _eigenbases(self) -> list:
        """Per mode (kept eigenvalues, read-out head, rows of V^-1), or None.

        One eigenvalue of each conjugate pair is kept and read out twice.
        numpy hands back a real decomposition only when the whole stack is
        real, so the modes with real spectra (overdamped) are split off and
        taken in real arithmetic, as they would be alone.  A mode whose
        slowest rate rounding hides (``_RATE_RESOLUTION``) gets no basis.
        """
        drift = self.drift()
        mu, vecs = np.linalg.eig(drift)
        bases = [None] * len(mu)
        norms = np.abs(drift).sum(axis=-2).max(axis=-1)
        resolved = -mu.real.max(axis=-1) >= _RATE_RESOLUTION * np.finfo(float).eps * norms
        real = (mu.imag == 0.0).all(axis=-1)
        for rows, is_real in ((np.flatnonzero(real), True), (np.flatnonzero(~real), False)):
            group_mu, group_vecs = mu[rows], vecs[rows]
            if is_real:
                group_mu, group_vecs = group_mu.real, group_vecs.real
            ok = (np.linalg.cond(group_vecs) <= _MAX_EIGVEC_COND) & resolved[rows]
            rows, group_mu, group_vecs = rows[ok], group_mu[ok], group_vecs[ok]
            keep = group_mu.imag >= 0.0
            # x 2 or x 1 is exact, so weighting before the cut gives the bits it gives after
            heads = group_vecs[:, 0] * np.where(group_mu.imag > 0.0, 2.0, 1.0)
            stacks = (group_mu, heads, np.linalg.inv(group_vecs))
            kept = keep.sum(axis=-1)
            for c in np.unique(kept).tolist():
                same = kept == c
                cut = (a[same][keep[same]].reshape(-1, c, *a.shape[2:]) for a in stacks)
                for i, basis in zip(rows[same].tolist(), zip(*cut)):
                    bases[i] = basis
        return bases

    def covariance(self, i: int, dt: float, count: int, start: int = 0) -> np.ndarray:
        """r(j*dt) = e0^T e^{A j dt} S e0 / alpha for j = start..count-1,
        exactly, for unit noise (the mode's covariance is lambda^2 times it).

        In the eigenbasis r(t) = Re sum_i c_i e^{mu_i t}, evaluated at those
        lags alone; without a usable eigenbasis the columns e^{A j dt} e0
        come from repeated doubling of the step matrix, from lag 0.  Either
        way each lag's value does not depend on ``start``.
        """
        if self.eig[i] is not None:
            mu, head, inv = self.eig[i]
            lags = dt * np.arange(start, count)
            r = np.zeros(lags.size)
            for mu_i, c_i in zip(mu, head * inv[:, 0]):
                r += (c_i * _decay(mu_i, lags)).real
            return self.variance[i] * r
        step = self.transition(dt, [i])[0][0]
        cols = np.eye(self.dim, 1)
        while cols.shape[1] < count:
            cols = np.hstack([cols, step @ cols])
            step = step @ step
        return self.variance[i] * cols[0, start:count]

    def increment(self, i: int, lags) -> np.ndarray:
        """E|u(t+h) - u(t)|^2 = 2 (r(0) - r(h)) at each lag h > 0, exactly,
        for unit noise (the mode's is lambda^2 times it).

        In the eigenbasis it is -2 r(0) Re sum_i c_i expm1(mu_i h), which
        keeps small lags free of the cancellation in r(0) - r(h); without
        one it is 2 r(0) (1 - Phi(h)[0, 0]) from :meth:`transition`.
        """
        h = np.asarray(lags, dtype=float)
        if self.eig[i] is None:
            phi = [self.transition(t, [i])[0][0, 0, 0] for t in h.ravel()]
            return 2.0 * self.variance[i] * (1.0 - np.reshape(phi, h.shape))
        mu, head, inv = self.eig[i]
        terms = (head * inv[:, 0]) * _decay(mu, h[..., None], less_one=True)
        return -2.0 * self.variance[i] * terms.sum(axis=-1).real

    def transition(self, dt: float, rows=None):
        """Exact one-step laws v(t + dt) = Phi v(t) + N(0, Q), stacked, with
        Q = I - Phi Phi^T for the unit-noise law.

        Returns (Phi, Q), each of shape (len(rows), d, d), for the modes in
        ``rows`` (all by default).  Van Loan's block exponential
        exp([[-A, D], [0, A^T]] h) holds Phi^T = e^{A^T h} and, in its
        corner, e^{-A h} Q with Q = int_0^h e^{A s} D e^{A^T s} ds.  It is
        taken on a step h = dt / 2^s with |A h|_1 <= 1/2 (|A| is symmetric,
        so A^T obeys the same bound), where a degree-16 Taylor polynomial is
        exact to rounding (the corner is linear in D, so D's size does not
        matter) and needs only small matrix products, which numpy runs on
        one thread.  s doublings Phi <- Phi^2, Q <- Phi Q Phi^T + Q then
        reach dt; every term added to Q is positive semidefinite, so nothing
        cancels.  h is dt scaled by 2^-s, so no s overflows; a law whose
        diag(Phi Phi^T + Q) misses 1 by more than 1e-6 is a ValueError.

        Each mode takes its own s.  The modes are taken in descending order
        of s, so those still doubling are always a leading slice of the
        stack, and each mode's products see the operands, in the memory
        layout, that a one-mode call gives them: BLAS rounds a product of
        large odd-sized matrices (d = 17, 33, 65) differently by layout.
        """
        rows = np.arange(len(self.alpha)) if rows is None else np.asarray(rows, dtype=int)
        d = self.dim
        drift = self.drift(rows)
        norms = np.abs(drift).sum(axis=-2).max(axis=-1)
        # past the float range, 2 |A| dt < 2^(e_A + e_dt + 1) by the binary exponents
        halvings = [max(0, math.ceil(math.log2(2.0 * x * dt)) if 2.0 * x * dt < math.inf
                        else math.frexp(x)[1] + math.frexp(dt)[1] + 1) for x in norms.tolist()]
        order = sorted(range(len(rows)), key=halvings.__getitem__, reverse=True)
        halvings = [halvings[r] for r in order]
        drift = drift[order]
        h = np.array([math.ldexp(dt, -s) for s in halvings])
        diag = np.arange(d)
        block = np.zeros((len(rows), 2 * d, 2 * d))
        block[:, :d, :d] = -h[:, None, None] * drift
        block[:, diag, d + diag] = h[:, None] * self.noise
        block[:, d:, d:] = h[:, None, None] * np.swapaxes(drift, -1, -2)
        exp_block = term = np.eye(2 * d)
        for k in range(1, 17):
            term = term @ block / k
            exp_block = exp_block + term
        step = np.swapaxes(exp_block[:, d:, d:], -1, -2)
        q = step @ exp_block[:, :d, d:]
        for s in range(max(halvings, default=0)):
            live = sum(1 for count in halvings if count > s)
            head = step[:live]
            q = np.concatenate([head @ q[:live] @ np.swapaxes(head, -1, -2) + q[:live], q[live:]])
            step = np.concatenate([head @ head, step[live:]])
        miss = np.abs(np.diagonal(q, 0, -2, -1) + (step**2).sum(-1) - 1.0).max(initial=0.0)
        if not miss <= 1e-6:  # a stiff kernel's slow decay, lost to rounding
            raise ValueError(f"step law too stiff for dt {dt}: {miss:.2g} off its stationary law")
        back = sorted(range(len(order)), key=order.__getitem__)
        return step[back], (0.5 * (q + np.swapaxes(q, -1, -2)))[back]

    def _sweep(self, grid: TimeGrid) -> None:
        """Innovations form of every one-atom mode with an eigenbasis, in one pass.

        The time-varying Kalman predictor of u started from the stationary
        law (Anderson and Moore 1979), i.e. the Cholesky factor of
        Toeplitz(r) in state-space form.  With P_0 = S = I, omega_j = P_j[0, 0]
        and K_j = P_j e0 / omega_j, the path is u_j = lambda e0.s_j / sqrt(alpha)
        with s_j = Phi s_{j-1} + K_j sqrt(omega_j) z_j and s_{-1} = 0.  For
        d = 2 the updated covariance P_j - omega_j K_j K_j^T is c_j e1 e1^T,
        so the gain sweep is the scalar recursion
        c_j = P_j[1, 1] - P_j[0, 1]^2 / P_j[0, 0], P_{j+1} = c_j phi phi^T + Q
        with phi = Phi e1, run here as one array recursion over the modes.
        A mode drops out once its c is constant to relative ``_GAIN_TOL``;
        its gain is constant after that, so only the steps up to there are
        kept.  Fills ``_gains[i]`` with (poles, read-out weights, rows of
        V^-1, gain rows (sqrt(omega_j), P_j[0, 1] / sqrt(omega_j))).
        """
        rows = np.array([i for i, basis in enumerate(self.eig) if basis is not None], dtype=int)
        if not rows.size:
            return
        step, q = self.transition(grid.dt, rows)
        f0, f1 = step[:, 0, 1], step[:, 1, 1]
        q00, q01, q11 = q[:, 0, 0], q[:, 0, 1], q[:, 1, 1]
        p00 = p11 = np.ones(len(rows))
        p01 = np.zeros(len(rows))
        c_prev = np.full(len(rows), math.nan)
        live = np.arange(len(rows))
        ids, gains = [], []
        for _ in range(grid.n):
            root = np.sqrt(p00)
            ids.append(live)
            gains.append(np.stack((root, p01 / root), axis=-1))
            c = p11 - p01 * (p01 / p00)
            moving = ~(np.abs(c - c_prev) <= _GAIN_TOL * c)
            if not moving.all():
                live, c, f0, f1, q00, q01, q11 = (
                    a[moving] for a in (live, c, f0, f1, q00, q01, q11))
                if not live.size:
                    break
            c_prev = c
            p00, p01, p11 = c * f0 * f0 + q00, c * f0 * f1 + q01, c * f1 * f1 + q11
        # step j's rows belong to the modes sweeping then, so one buffer holds
        # every mode's rows in step order, mode r's at offsets start_r + j
        counts = np.zeros(len(rows), dtype=int)
        for sweeping in ids:
            counts[sweeping] += 1
        ends = np.cumsum(counts)
        flat = np.empty((ends[-1], 2))
        for j, (sweeping, gain) in enumerate(zip(ids, gains)):
            flat[ends[sweeping] - counts[sweeping] + j] = gain
        for i, end, count in zip(rows.tolist(), ends.tolist(), counts.tolist()):
            mu, head, inv = self.eig[i]
            self._gains[i] = (_decay(mu, grid.dt), (self.lam[i] * self.scale[i]) * head, inv,
                              flat[end - count : end])

    def innovations(self, i: int):
        """(poles, weights) of mode i's innovations form from :meth:`_sweep`:
        one AR(1) filter per kept eigenvalue whose input is z times one
        complex weight per step, lambda included."""
        poles, readout, inv, gain = self._gains[i]
        settled = len(gain)
        weights = np.empty((len(poles), self.grid.n), dtype=complex)
        # V^-1 sqrt(omega_j) K_j by broadcasting: numpy's mixed complex-real
        # matmul is about 20x slower here
        weights[:, :settled] = readout[:, None] * (inv[:, :1] * gain[:, 0]
                                                   + inv[:, 1:] * gain[:, 1])
        weights[:, settled:] = weights[:, settled - 1 : settled]
        return poles, weights

    def recursion(self, i: int):
        """Exact linear map from standard normals to (m, n) stationary paths
        of mode i on the set-up's grid.

        Returns (shape, synth): ``synth(normals, out)`` maps (m, *shape)
        standard normals to (m, n) paths and writes them to ``out``, by the
        state recursion, d normals per step (shape (d, n)).  A one-atom mode
        with an eigenbasis is not sampled here: its innovations form
        (:meth:`innovations`) goes through :func:`_sample_block`.

        Column 0 of each path's normals draws the stationary start v_0 = z;
        column j > 0 draws the innovation of step j through a square root of
        Q from its symmetric eigendecomposition, not Cholesky: Q is
        ill-conditioned (about 1e8 for the 64-node power law at dt = 2^-8)
        and rounding can leave it a hair indefinite, so negative eigenvalues
        are clipped to 0.  In the eigenbasis each coordinate is a complex
        AR(1) recursion run by :func:`_recur`, one per conjugate pair, whose
        input sums the d normals of a step with the read-out weight, lambda
        included, folded into their weights; without one the real state is
        stepped and scaled at the end.
        """
        dt, n = self.grid.dt, self.grid.n
        step, q = (stack[0] for stack in self.transition(dt, [i]))
        val, vec = np.linalg.eigh(q)
        root = vec * np.sqrt(np.maximum(val, 0.0))
        readout = self.lam[i] * self.scale[i]
        if self.eig[i] is None:

            def stepped(normals, out):
                state = normals[:, :, 0]
                out[:, 0] = state[:, 0]
                for j in range(1, normals.shape[2]):
                    state = state @ step.T + normals[:, :, j] @ root.T
                    out[:, j] = state[:, 0]
                out *= readout

            return (self.dim, n), stepped
        mu, head, inv = self.eig[i]
        start = readout * head[:, None] * inv
        drive = readout * head[:, None] * (inv @ root)
        poles = _decay(mu, dt)

        def filtered(normals, out):
            for j, (pole, first, rest) in enumerate(zip(poles, start, drive)):
                weights = np.repeat(rest[:, None], n, axis=1)
                weights[:, 0] = first
                _recur(pole, weights, normals, out, add=j > 0)

        return (self.dim, n), filtered


def _embed(emb: _Markov, i: int, grid: TimeGrid):
    """Circulant eigenvalues of mode i's exact unit-noise covariance, or None
    for the recursion.

    Walks L = n, 2n, 4n, 8n.  At each L the recursion is taken when its
    state form would draw no more normals per path (n*d) than the circulant
    would (2L); otherwise the circulant of length 2L is taken when its most
    negative eigenvalue is at least -1e-8 * r(0).  Past 8n the recursion is
    taken.  A one-atom mode (d = 2) therefore recurses at L = n; it comes
    here only without an eigenbasis, as one with one takes the innovations
    form (:func:`_sample_block`).  Each L appends its new lags to the one
    covariance sequence.  Returns the eigenvalues (None for the recursion)
    and the last L walked.
    """
    n = grid.n
    cov = np.zeros(0)
    for L in (n, 2 * n, 4 * n, 8 * n):
        if emb.dim * n <= 2 * L:
            return None, L
        cov = np.concatenate([cov, emb.covariance(i, grid.dt, L + 1, start=cov.size)])
        eig = circulant_eigenvalues(cov)
        if eig.min() >= -1e-8 * emb.variance[i]:
            return eig, L
    return None, L


_PATH_CHUNK = 256


def sample_gle_mode(
    kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int, seed: int,
    setup: _Markov | None = None, out: np.ndarray | None = None,
) -> PathEnsemble:
    """Sample m stationary memory-kernel paths, exact in law.

    Marginal variance is r(0) = lambda_k^2 / alpha_k and lagged covariances
    are the closed-form r(j*dt) of the Markovian embedding, before Monte
    Carlo error.  A one-atom mode with an eigenbasis takes the innovations
    form (:func:`_sample_block`); any other the route :func:`_embed` picks.
    A chunk's normals never outnumber 256 rows of a length-2L circulant.

    ``setup`` is a :class:`_Markov` built for ``kernel`` and ``grid`` over
    modes that include this one, as :func:`assemble_field` builds once per
    field; without it one is built for this mode alone.  Either way the
    paths are the same.  The paths are written to ``out`` when it is given
    (see :func:`_paths_out`), and ``values`` is that array.
    """
    _check_sampling_args(m, seed)
    out = _paths_out(out, m, grid.n)
    if mode.lambda_k == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, "recursion")
    if setup is None:
        setup = _Markov(kernel, [mode], grid)
    elif setup.kernel != kernel or setup.grid != grid or mode not in setup.slot:
        raise ValueError("the set-up was built for another kernel, grid or mode list")
    if _sample_block("gle", [mode], grid, m, seed, setup, out[None]):
        return PathEnsemble(grid, out, "recursion")
    i = setup.slot[mode]
    eig, L = _embed(setup, i, grid)
    if eig is None:
        shape, synth = setup.recursion(i)
        chunk = min(_PATH_CHUNK, max(1, 2 * _PATH_CHUNK * L // math.prod(shape)))
        route = ("recursion",)
    else:
        def synth(normals, rows):
            np.multiply(paths_from_normals(eig, normals, grid.n), mode.lambda_k, out=rows)

        shape = (eig.shape[0],)
        chunk = _PATH_CHUNK
        neg = eig[eig < 0.0].sum()
        clipped = float(-neg / eig[eig > 0.0].sum()) if neg < 0.0 else 0.0
        route = ("circulant", clipped, eig.shape[0])
    gen = _stream(seed, mode.index)
    buf = np.empty((min(chunk, m), *shape))
    for start in range(0, m, chunk):
        normals = gen.standard_normal(out=buf[: m - start])
        synth(normals, out[start : start + len(normals)])
    return PathEnsemble(grid, out, *route)


# frequency nodes of the harmonic superposition
_NODE_COUNT = 4096

# time columns per block of the superposition's (_NODE_COUNT, _TIME_BLOCK)
# phase and cos tables: 8 MiB each, whatever the path length
_TIME_BLOCK = 256


def spectral_nodes(sd: SpectralDensity):
    """``_NODE_COUNT`` midpoint frequency nodes and weights, concentrated on
    the resonant window.

    Half the nodes cover [omega_r - omega_r^q, omega_r + omega_r^q]
    (q = ``spectral.WINDOW_Q``) when a resonance exists; the remainder split
    between the inner stretch and the tail up to a cutoff carrying all but
    ~0.2% of the variance (the unit-noise budget 2e-3/alpha).
    """
    omega_r, omega_cut = spectral._cutoff(sd, 2e-3 / sd.mode.alpha_k)

    def midpoints(a: float, b: float, count: int):
        edges = np.linspace(a, b, count + 1)
        return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)

    if omega_r is None:
        return midpoints(0.0, omega_cut, _NODE_COUNT)
    half = omega_r**spectral.WINDOW_Q
    lo = max(omega_r - half, 0.0)
    hi = min(omega_r + half, omega_cut)
    quarter = _NODE_COUNT // 4
    segs = [
        midpoints(0.0, lo, quarter) if lo > 0.0 else (np.empty(0), np.empty(0)),
        midpoints(lo, hi, _NODE_COUNT - 2 * quarter + (0 if lo > 0.0 else quarter)),
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
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Harmonic-superposition sampler: u(t) = sum_j a_j (xi_j cos + eta_j sin)(w_j t)
    with a_j = lambda sqrt(2 rho_1(w_j) dw_j), rho_1 the unit-noise density.
    Independent of the embedding route.  A path's 2 normals per node are all
    xi, then eta; each chunk's cos and sin tables are built ``_TIME_BLOCK``
    time columns at a time.  ``out`` as for :func:`sample_gle_mode`."""
    _check_sampling_args(m, seed)
    sd = SpectralDensity(kernel, mode)
    out = _paths_out(out, m, grid.n)
    if mode.lambda_k == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, "spectral", node_count=_NODE_COUNT)
    nodes, widths = spectral_nodes(sd)
    amp = np.sqrt(2.0 * spectral._unit_rho(sd, nodes) * widths) * mode.lambda_k
    k, times = nodes.shape[0], grid.times
    gen = _stream(seed, mode.index)
    # row i holds path i's 2k draws: xi then eta
    buf = np.empty((min(_PATH_CHUNK, m), 2, k))
    for start in range(0, m, _PATH_CHUNK):
        draws = gen.standard_normal(out=buf[: m - start])
        xi, eta = draws[:, 0] * amp, draws[:, 1] * amp
        for lo in range(0, grid.n, _TIME_BLOCK):
            phases = np.outer(nodes, times[lo : lo + _TIME_BLOCK])
            block = xi @ np.cos(phases)
            block += eta @ np.sin(phases, out=phases)
            out[start : start + len(draws), lo : lo + _TIME_BLOCK] = block
    return PathEnsemble(grid, out, "spectral", node_count=k)


def sample_ou_mode(mode: Mode, grid: TimeGrid, m: int, seed: int,
                   out: np.ndarray | None = None) -> PathEnsemble:
    """Exact stationary AR(1) recursion for the memoryless baseline mode:
    u_{j+1} = e^{-alpha dt} u_j + lambda * sqrt((1 - e^{-2 alpha dt})/(2 alpha)) * xi_j.
    ``out`` as for :func:`sample_gle_mode`."""
    _check_sampling_args(m, seed)
    out = _paths_out(out, m, grid.n)
    if not _sample_block("heat", [mode], grid, m, seed, None, out[None]):
        out[:] = 0.0  # a zero-weight mode has no filter
    return PathEnsemble(grid, out, "ou")


def _filter(law: str, mode: Mode, grid: TimeGrid, setup: _Markov | None):
    """(poles, weights) of the one-pole filters whose real parts add up to
    the paths of a mode with nonzero weight: the AR(1) baseline, and gle's
    innovations form read from ``setup``; None for any other mode."""
    if mode.lambda_k == 0.0:
        return None
    if law == "heat":
        phi = math.exp(-mode.alpha_k * grid.dt)
        sigma = mode.lambda_k / math.sqrt(2.0 * mode.alpha_k)
        weights = np.full((1, grid.n), sigma * math.sqrt(1.0 - phi * phi))
        weights[0, 0] = sigma
        return np.array([phi]), weights
    if law == "gle" and setup.slot[mode] in setup._gains:
        return setup.innovations(setup.slot[mode])
    return None


def _sample_block(law: str, modes, grid: TimeGrid, m: int, seed: int,
                  setup: _Markov | None, out: np.ndarray) -> list:
    """The one sampler of one-pole filter modes: sample the modes of
    ``modes`` that have filters (:func:`_filter`) into their slots of
    ``out`` (len(modes), m, n), leave the other slots alone and return the
    places taken.  Each chunk of paths draws every such mode's normals into
    its slot, from the mode's own stream, and filters them there by one
    :func:`_filter_paths` call, so no mode's paths depend on the others'."""
    _check_sampling_args(m, seed)
    filters = [_filter(law, mode, grid, setup) for mode in modes]
    took = [k for k, f in enumerate(filters) if f is not None]
    if took:
        poles, weights = (np.concatenate(stack) for stack in zip(*(filters[k] for k in took)))
        chains = [0 if f is None else len(f[0]) for f in filters]
        streams = [(k, _stream(seed, modes[k].index)) for k in took]
        for lo in range(0, m, _PATH_CHUNK):
            paths = out[:, lo : lo + _PATH_CHUNK]
            for k, gen in streams:
                gen.standard_normal(out=paths[k])
            _filter_paths(poles, weights, chains, paths, paths)
    return took


# the sampling laws: memory-driven, memoryless, superposition cross-check of gle
LAWS = ("gle", "heat", "spectral")


def _law(law: str, kernel: KernelMeasure, modes, grid: TimeGrid | None = None, lags=()):
    """What ``law`` means for ``modes``: (set-up, r(0), increments).

    The set-up is the modes' stacked embeddings, on ``grid`` for gle's
    samplers, or None where nothing reads them.  r(0), shape (K,), and
    E|u(t+h) - u(t)|^2 at each lag h > 0, shape (K, len(lags)), are closed
    forms: for gle and spectral lambda^2 times the embeddings' unit-noise law
    (r(0) = lambda^2/alpha, the variance identity), for heat the OU law
    r(h) = lambda^2/(2 alpha) e^{-alpha h}.  Any other law is a ValueError."""
    if law not in LAWS:
        raise ValueError(f"unknown dynamics {law!r}")
    alpha, lam = np.array([(mode.alpha_k, mode.lambda_k) for mode in modes], float).reshape(-1, 2).T
    variance, h = lam * lam / alpha, np.asarray(lags, dtype=float)
    if law == "heat":
        return None, 0.5 * variance, -variance[:, None] * np.expm1(-np.multiply.outer(alpha, h))
    setup = _Markov(kernel, modes, grid) if h.size or (law == "gle" and grid is not None) else None
    unit = np.zeros((len(modes), h.size))
    for row, mode in enumerate(modes if h.size else ()):
        if mode in setup.slot:  # a zero-weight mode has no embedding
            unit[row] = setup.increment(setup.slot[mode], h)
    return setup, variance, (lam * lam)[:, None] * unit


def _sample(law: str, kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int, seed: int,
            setup: _Markov | None = None, out: np.ndarray | None = None) -> PathEnsemble:
    """One mode's paths under ``law``, one of :data:`LAWS`, written to ``out``
    when given: "gle" exact (from ``setup`` when given), "spectral" the
    superposition cross-check, "heat" memoryless; a sampler rebound on this
    module is the one called.  Any other law is a ValueError."""
    if law == "heat":
        return sample_ou_mode(mode, grid, m, seed, out=out)
    if law == "spectral":
        return sample_gle_mode_spectral(kernel, mode, grid, m, seed, out=out)
    if law == "gle":
        return sample_gle_mode(kernel, mode, grid, m, seed, setup=setup, out=out)
    raise ValueError(f"unknown dynamics {law!r}")
