"""Exact-in-law synthesis of stationary Gaussian mode trajectories.

Three routes produce paths on a uniform time grid:

* :func:`sample_gle_mode` - exact sampler for the memory-kernel mode.  A
  kernel K = sum_i w_i e^{-x_i t} makes the mode the first coordinate of a
  (p+1)-dimensional Ornstein-Uhlenbeck process, its Markovian embedding, so
  the covariance is known in closed form and the paths follow an exact
  recursion.  A one-atom mode (a 2-dimensional embedding with an
  eigenbasis, the paper's kernel) takes the innovations form, one normal
  per step.  Any other mode takes whichever exact route draws fewer
  normals: the state recursion, d per step, or circulant embedding
  (Davies-Harte) of the closed-form covariance sequence.

  The set-up happens once per field: :class:`_Markov` builds the
  embeddings of all of a field's modes in one stacked pass (one
  eigendecomposition of the stacked drifts, the step laws, the innovations
  gain sweep), and each mode is then only drawn and filtered.  A mode
  sampled on its own is a stack of one, through the same code and with the
  same bits.
* :func:`sample_gle_mode_spectral` - truncated harmonic superposition driven
  directly by the spectral density.  Slower and only asymptotically exact;
  kept as an independent cross-check of the exact sampler.
* :func:`sample_ou_mode` - exact AR(1) recursion for the memoryless
  (Ornstein-Uhlenbeck) mode used by the classical-dynamics baseline.

Every recursion, real or complex, runs through :func:`_recur`, a blocked
prefix-sum form of the first-order filter in numpy alone; sampling imports
no scipy.

Randomness: mode k under seed s draws from one SFC64 stream, child k of the
seed's ``SeedSequence``, and path i takes the i-th consecutive block of its
normals: n of them for the innovations form and the AR(1) baseline, d*n for
the state recursion, 2L for the circulant and 2 per node for the
superposition.  Each chunk of paths is one draw, so ensembles do not depend
on chunking or thread count, and the first m' paths of an m-path ensemble
are the m'-path ensemble (the superposition's only up to rounding: its BLAS
product picks a kernel by the chunk's row count).  A path is not addressable on its own (path i
follows the i blocks before it), and paths of n' < n steps are not the
first n' steps of paths of n.
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
    """Uniform grid t_j = t0 + j*dt for j = 0..n-1."""

    dt: float
    n: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt {self.dt} must be positive")
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"grid length {self.n!r} must be an integer of at least 2")
        if not np.isfinite(self.t0):
            raise ValueError(f"start time {self.t0} must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(eq=False)
class PathEnsemble:
    """m sampled paths on a common grid plus the provenance needed to redraw them.

    method is "recursion" (innovations form or state recursion) or
    "circulant" for :func:`sample_gle_mode`; embedding_length (2L) and
    clipped_mass (negative circulant eigenvalue mass over positive mass) are
    0 off the circulant route.
    """

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


class _Markov:
    """Markovian embeddings of the modes of one kernel, built together
    (Ceriotti, Bussi and Parrinello 2010).

    Mode k solves u' = sum_i y_i with dy_i = (-x_i y_i - alpha w_i u) dt +
    lambda sqrt(2 w_i x_i) dW_i.  Its state is kept in the coordinates
    v = (sqrt(alpha) u, y_1/sqrt(w_1), ..., y_p/sqrt(w_p)), where the drift
    is A = [[0, b^T], [-b, -diag(x)]] with b_i = sqrt(alpha w_i), the noise
    covariance is D = diag(0, 2 lambda^2 x_i), and the Lyapunov equation
    A S + S A^T + D = 0 is solved by S = lambda^2 I (the equilibrium law).
    So u = v_0 / sqrt(alpha) has variance lambda^2/alpha exactly, the
    paper's variance identity.

    The modes with lambda != 0 are stacked (a zero-weight mode is the zero
    path and has no embedding): mode ``slot[mode]`` is row i of every
    stack, and the per-mode methods take that i.  The (K, d, d) drifts are
    diagonalized by one ``eig`` call, with ``cond`` and ``inv`` run over
    it too; LAPACK runs the same routine on each matrix, so every mode gets
    the bits it would get alone.  When a mode's eigenvectors are
    ill-conditioned (its eigenvalues merge at critical damping) its ``eig``
    entry is None and its covariance and paths come from the real step
    matrix e^{A dt}.

    Given a grid, the innovations form of every one-atom mode with an
    eigenbasis is built here as well, in one array pass over those modes
    (step law, gain sweep, poles), so that sampling such a mode only draws
    normals and filters them.  Only what sampling reads is kept: poles,
    read-out weights, rows of V^-1 and each mode's gain up to its settling
    step.
    """

    def __init__(self, kernel: KernelMeasure, modes, grid: TimeGrid | None = None):
        modes = [mode for mode in modes if mode.lambda_k != 0.0]
        self.kernel = kernel
        self.grid = grid
        self.slot = {mode: i for i, mode in enumerate(modes)}
        self.alpha = alpha = np.array([mode.alpha_k for mode in modes])
        self.lam = lam = np.array([mode.lambda_k for mode in modes])
        self.dim = kernel.weights.size + 1
        self.noise = np.zeros((len(modes), self.dim))
        self.noise[:, 1:] = (2.0 * lam * lam)[:, None] * kernel.rates
        self.variance = lam * lam / alpha
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
        taken in real arithmetic, as they would be alone.
        """
        mu, vecs = np.linalg.eig(self.drift())
        bases = [None] * len(mu)
        real = (mu.imag == 0.0).all(axis=-1)
        for rows, is_real in ((np.flatnonzero(real), True), (np.flatnonzero(~real), False)):
            group_mu, group_vecs = mu[rows], vecs[rows]
            if is_real:
                group_mu, group_vecs = group_mu.real, group_vecs.real
            ok = np.linalg.cond(group_vecs) <= _MAX_EIGVEC_COND
            inverses = np.linalg.inv(group_vecs[ok])
            for i, mu_i, vecs_i, inv_i in zip(rows[ok], group_mu[ok], group_vecs[ok], inverses):
                keep = mu_i.imag >= 0.0
                head = vecs_i[0, keep] * np.where(mu_i.imag[keep] > 0.0, 2.0, 1.0)
                bases[i] = (mu_i[keep], head, inv_i[keep])
        return bases

    def covariance(self, i: int, dt: float, count: int) -> np.ndarray:
        """r(j*dt) = e0^T e^{A j dt} S e0 / alpha for j = 0..count-1, exactly.

        In the eigenbasis r(t) = Re sum_i c_i e^{mu_i t}; without a usable
        eigenbasis the columns e^{A j dt} e0 come from repeated doubling of
        the step matrix.
        """
        if self.eig[i] is not None:
            mu, head, inv = self.eig[i]
            lags = dt * np.arange(count)
            r = np.zeros(count)
            for mu_i, c_i in zip(mu, head * inv[:, 0]):
                r += (c_i * np.exp(mu_i * lags)).real
            return self.variance[i] * r
        step = self.transition(dt, [i])[0][0]
        cols = np.eye(self.dim, 1)
        while cols.shape[1] < count:
            cols = np.hstack([cols, step @ cols])
            step = step @ step
        return self.variance[i] * cols[0, :count]

    def increment(self, i: int, lags) -> np.ndarray:
        """E|u(t+h) - u(t)|^2 = 2 (r(0) - r(h)) at each lag h > 0, exactly.

        In the eigenbasis it is -2 r(0) Re sum_i c_i expm1(mu_i h), which
        keeps small lags free of the cancellation in r(0) - r(h); without
        one it is 2 r(0) (1 - Phi(h)[0, 0]) from :meth:`transition`.
        """
        h = np.asarray(lags, dtype=float)
        if self.eig[i] is None:
            phi = [self.transition(t, [i])[0][0, 0, 0] for t in h.ravel()]
            return 2.0 * self.variance[i] * (1.0 - np.reshape(phi, h.shape))
        mu, head, inv = self.eig[i]
        terms = (head * inv[:, 0]) * np.expm1(np.multiply.outer(h, mu))
        return -2.0 * self.variance[i] * terms.sum(axis=-1).real

    def transition(self, dt: float, rows=None):
        """Exact one-step laws v(t + dt) = Phi v(t) + N(0, Q), stacked.

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
        cancels.

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
        halvings = [max(0, math.ceil(math.log2(2.0 * norm * dt))) for norm in norms.tolist()]
        order = sorted(range(len(rows)), key=halvings.__getitem__, reverse=True)
        halvings = [halvings[r] for r in order]
        drift = drift[order]
        h = np.array([dt / 2.0**s for s in halvings])
        diag = np.arange(d)
        block = np.zeros((len(rows), 2 * d, 2 * d))
        block[:, :d, :d] = -h[:, None, None] * drift
        block[:, diag, d + diag] = h[:, None] * self.noise[rows[order]]
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
        back = sorted(range(len(order)), key=order.__getitem__)
        return step[back], (0.5 * (q + np.swapaxes(q, -1, -2)))[back]

    def _sweep(self, grid: TimeGrid) -> None:
        """Innovations form of every one-atom mode with an eigenbasis, in one pass.

        The time-varying Kalman predictor of u started from the stationary
        law (Anderson and Moore 1979), i.e. the Cholesky factor of
        Toeplitz(r) in state-space form.  With P_0 = S, omega_j = P_j[0, 0]
        and K_j = P_j e0 / omega_j, the path is u_j = e0.s_j / sqrt(alpha)
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
        p00 = p11 = self.lam[rows] * self.lam[rows]
        p01 = np.zeros(len(rows))
        c_prev = np.full(len(rows), math.nan)
        live = np.arange(len(rows))
        ids, gains = [], []
        for _ in range(grid.n):
            root = np.sqrt(p00)
            ids.append(live)
            gains.append(np.stack((root, p01 / root), axis=-1))
            c = p11 - p01 * (p01 / p00)  # no square: lambda^4 leaves the double range
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
            self._gains[i] = (np.exp(mu * grid.dt), self.scale[i] * head, inv,
                              flat[end - count : end])

    def recursion(self, i: int):
        """Exact linear map from standard normals to (m, n) stationary paths
        of mode i on the set-up's grid.

        Returns (shape, synth): ``synth(normals, out)`` maps (m, *shape)
        standard normals to (m, n) paths and writes them to ``out``.  A
        one-atom mode with an eigenbasis takes the innovations form built by
        :meth:`_sweep`, one normal per step (shape (n,)); any other takes
        the state recursion, d normals per step (shape (d, n)).

        Innovations form: each conjugate pair is one complex AR(1) run by
        :func:`_recur` whose input is z times one complex per-step weight.

        State recursion: column 0 of each path's normals draws the
        stationary start v_0 = lambda z; column j > 0 draws the innovation
        of step j through a square root of Q from its symmetric
        eigendecomposition, not Cholesky: Q is ill-conditioned (about 1e8
        for the 64-node power law at dt = 2^-8) and rounding can leave it a
        hair indefinite, so negative eigenvalues are clipped to 0.  In the
        eigenbasis each coordinate is a complex AR(1) recursion run by
        :func:`_recur`, one per conjugate pair, whose input sums the d
        normals of a step with the read-out weight folded into their
        weights; without one the real state is stepped.
        """
        dt, n = self.grid.dt, self.grid.n
        if i in self._gains:
            poles, readout, inv, gain = self._gains[i]
            settled = len(gain)
            weights = np.empty((len(poles), n), dtype=complex)
            # V^-1 sqrt(omega_j) K_j by broadcasting: numpy's mixed
            # complex-real matmul is about 20x slower here
            weights[:, :settled] = readout[:, None] * (inv[:, :1] * gain[:, 0]
                                                       + inv[:, 1:] * gain[:, 1])
            weights[:, settled:] = weights[:, settled - 1 : settled]

            def innovations(normals, out):
                for j, (pole, weight) in enumerate(zip(poles, weights)):
                    _recur(pole, weight, normals, out, add=j > 0)

            return (n,), innovations
        step, q = (stack[0] for stack in self.transition(dt, [i]))
        val, vec = np.linalg.eigh(q)
        root = vec * np.sqrt(np.maximum(val, 0.0))
        lam, scale = self.lam[i], self.scale[i]
        if self.eig[i] is None:

            def stepped(normals, out):
                state = lam * normals[:, :, 0]
                out[:, 0] = state[:, 0]
                for j in range(1, normals.shape[2]):
                    state = state @ step.T + normals[:, :, j] @ root.T
                    out[:, j] = state[:, 0]
                out *= scale

            return (self.dim, n), stepped
        mu, head, inv = self.eig[i]
        start = (lam * scale) * head[:, None] * inv
        drive = scale * head[:, None] * (inv @ root)
        poles = np.exp(mu * dt)

        def filtered(normals, out):
            for j, (pole, first, rest) in enumerate(zip(poles, start, drive)):
                weights = np.repeat(rest[:, None], n, axis=1)
                weights[:, 0] = first
                _recur(pole, weights, normals, out, add=j > 0)

        return (self.dim, n), filtered


def _embed(emb: _Markov, i: int, grid: TimeGrid):
    """Circulant eigenvalues of mode i's exact covariance, or None for the recursion.

    Walks L = n, 2n, 4n, 8n.  At each L the recursion is taken when its
    state form would draw no more normals per path (n*d) than the circulant
    would (2L); otherwise the circulant of length 2L is taken when its most
    negative eigenvalue is at least -1e-8 * r(0).  Past 8n the recursion is
    taken.  A one-atom mode (d = 2) therefore recurses at L = n, where
    :meth:`_Markov.recursion` gives it the innovations form (n normals per
    path) whenever it has an eigenbasis.  Returns the eigenvalues (None for
    the recursion) and the last L walked.
    """
    n = grid.n
    for L in (n, 2 * n, 4 * n, 8 * n):
        if emb.dim * n <= 2 * L:
            return None, L
        eig = circulant_eigenvalues(emb.covariance(i, grid.dt, L + 1))
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
    Carlo error.  The route (``method``) is the one :func:`_embed` picks;
    on "recursion" a one-atom mode with an eigenbasis draws one normal per
    step (innovations form) and any other mode d per step.  Path i takes
    the i-th block of that many normals from the mode's stream (2L on the
    circulant).  Each chunk of paths is one draw, and a chunk's normals never
    outnumber 256 rows of a length-2L circulant embedding.

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
        return PathEnsemble(grid, out, mode, seed, "recursion")
    if setup is None:
        setup = _Markov(kernel, [mode], grid)
    elif setup.kernel != kernel or setup.grid != grid or mode not in setup.slot:
        raise ValueError("the set-up was built for another kernel, grid or mode list")
    i = setup.slot[mode]
    eig, L = _embed(setup, i, grid)
    if eig is None:
        shape, synth = setup.recursion(i)
        chunk = min(_PATH_CHUNK, max(1, 2 * _PATH_CHUNK * L // math.prod(shape)))
        route = ("recursion",)
    else:
        def synth(normals, rows):
            rows[...] = paths_from_normals(eig, normals, grid.n)

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
    return PathEnsemble(grid, out, mode, seed, *route)


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
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Harmonic-superposition sampler: u(t) = sum_j a_j (xi_j cos + eta_j sin)(w_j t)
    with a_j = sqrt(2 rho(w_j) dw_j).  Independent of the embedding route.
    Path i takes the i-th block of 2 normals per node (all xi, then eta) from
    the mode's stream, one draw per chunk of paths.  ``out`` as for
    :func:`sample_gle_mode`."""
    _check_sampling_args(m, seed)
    sd = SpectralDensity(kernel, mode)
    out = _paths_out(out, m, grid.n)
    if mode.lambda_k == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, mode, seed, "spectral", node_count=node_count)
    nodes, widths = spectral_nodes(sd, node_count)
    amp = np.sqrt(2.0 * np.asarray(spectral.rho(sd, nodes)) * widths)
    phases = np.outer(nodes, grid.times)
    cos_m = np.cos(phases)
    sin_m = np.sin(phases)
    k = nodes.shape[0]
    gen = _stream(seed, mode.index)
    # row i holds path i's 2k draws: xi then eta
    buf = np.empty((min(_PATH_CHUNK, m), 2, k))
    for start in range(0, m, _PATH_CHUNK):
        draws = gen.standard_normal(out=buf[: m - start])
        out[start : start + len(draws)] = (draws[:, 0] * amp) @ cos_m + (draws[:, 1] * amp) @ sin_m
    return PathEnsemble(grid, out, mode, seed, "spectral", node_count=k)


def sample_ou_mode(mode: Mode, grid: TimeGrid, m: int, seed: int,
                   out: np.ndarray | None = None) -> PathEnsemble:
    """Exact stationary AR(1) recursion for the memoryless baseline mode:
    u_{j+1} = e^{-alpha dt} u_j + lambda * sqrt((1 - e^{-2 alpha dt})/(2 alpha)) * xi_j.
    Path i takes the i-th block of n normals from the mode's stream, one draw
    per chunk of paths.  ``out`` as for :func:`sample_gle_mode`."""
    _check_sampling_args(m, seed)
    alpha = mode.alpha_k
    lam = mode.lambda_k
    out = _paths_out(out, m, grid.n)
    if lam == 0.0:
        out[:] = 0.0
        return PathEnsemble(grid, out, mode, seed, "ou")
    phi = math.exp(-alpha * grid.dt)
    sigma = lam / math.sqrt(2.0 * alpha)
    innovation = sigma * math.sqrt(1.0 - phi * phi)
    weights = np.full(grid.n, innovation)
    weights[0] = sigma
    gen = _stream(seed, mode.index)
    buf = np.empty((min(_PATH_CHUNK, m), grid.n))
    for start in range(0, m, _PATH_CHUNK):
        noise = gen.standard_normal(out=buf[: m - start])
        _recur(phi, weights, noise, out[start : start + len(noise)])
    return PathEnsemble(grid, out, mode, seed, "ou")


def _sample(law: str, kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int, seed: int,
            node_count: int = 4096, setup: _Markov | None = None,
            out: np.ndarray | None = None) -> PathEnsemble:
    """One mode's paths under ``law``, written to ``out`` when given: "gle"
    exact (from ``setup`` when given), "spectral" the superposition
    cross-check, "heat" memoryless; a sampler rebound on this module is the
    one called."""
    if law == "heat":
        return sample_ou_mode(mode, grid, m, seed, out=out)
    if law == "spectral":
        return sample_gle_mode_spectral(kernel, mode, grid, m, seed, node_count, out=out)
    return sample_gle_mode(kernel, mode, grid, m, seed, setup=setup, out=out)
