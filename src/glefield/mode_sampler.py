"""Exact-in-law synthesis of stationary Gaussian mode trajectories.

This module is the one owner of the sampling laws, :data:`LAWS`: it alone
tells them apart, in its one sampler :func:`_sample`, for a block of modes
under any law, and in :func:`_law`, the set-up that reads and the
closed-form moments the variogram oracles sum.  The public samplers are
one-mode calls of :func:`_sample`:

* :func:`sample_gle_mode` - exact sampler for the memory-kernel mode ("gle").
  A kernel K = sum_i w_i e^{-x_i t} makes the mode the first coordinate of a
  (p+1)-dimensional Ornstein-Uhlenbeck process, its Markovian embedding
  (:class:`_Markov`, built once per field for all its modes in one stacked
  pass), so the covariance is known in closed form.  A one-atom mode with an
  eigenbasis (the paper's kernel) takes the innovations form, one normal per
  step; any other whichever exact route draws fewer normals: the state
  recursion, d per step, or circulant embedding (Davies-Harte).
* :func:`sample_gle_mode_spectral` - truncated harmonic superposition driven
  by the spectral density ("spectral"), only asymptotically exact: a
  cross-check of the exact sampler.
* :func:`sample_ou_mode` - exact AR(1) recursion for the memoryless
  (Ornstein-Uhlenbeck) mode of the classical-dynamics baseline ("heat").

The innovations form and the AR(1) baseline are sums of one-pole filters
(:func:`_filter`), which :func:`_sample` runs for all of a block's modes at
once: a step loop up to ``_STEP_LOOP_STEPS`` steps, beyond that the
block-product kernel :func:`_filter_block`, one call per stack of modes of
one filter shape, which runs the state recursion too.  Every other mode
takes its law's own route, :func:`_gle_paths` or :func:`_spectral_paths`.
Sampling imports no scipy.

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

import itertools
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
    clipped_mass (negative over positive circulant eigenvalue mass) are 0
    off the circulant route."""

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


def _paths_out(out, shape: tuple) -> np.ndarray:
    """The (K, m, n) stack the paths are written to: ``out`` when given, a
    float64 stack of that shape, possibly strided, whose slots are writeable
    C-contiguous (m, n) arrays; else a new one."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
            and out.flags.writeable and all(slot.flags.c_contiguous for slot in out)):
        raise ValueError(f"out must be a float64 stack of shape {shape} "
                         "of writeable C-contiguous slots")
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
    Davies-Harte map, after Dietrich and Newsam 1997).  The map is linear,
    so unit vectors expose the exact path covariance, as the tests use.
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

# largest cancellation of the eigenbasis increment that it is read at: 74 at
# most on the comparison_1d lags, 2.3e8 at lag 1e-8 on one atom (1.6e-8 off)
_CANCELLATION = 1e6


# steps per block of :func:`_filter_block` and blocks per group of its carries:
# at m 16, n 4096 a filter took 0.23 ms in blocks of 32, about 0.3 in 16 or 64
_BLOCK_STEPS = 32
# a power of a pole below e^-300 is an exact 0, so no subnormal reaches a product
_TINY = math.exp(-300.0)
# multiply-adds per matrix product: at 8.4e6 OpenBLAS woke its second thread,
# which cut wall time by a sixth but raised cpu time by half
_PRODUCT_MACS = 2**19


def _powers(base, count: int) -> np.ndarray:
    """base^t for t < count, a row per entry of the array ``base``: running
    products, whose error grows like t eps whatever the angle; below
    ``_TINY`` an exact 0."""
    powers = np.ones((len(base), count), dtype=complex)
    powers[:, 1:] = base[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    powers[np.abs(powers) < _TINY] = 0.0
    return powers


def _skewed(rows: np.ndarray) -> np.ndarray:
    """out[..., i, t] = rows[..., i, t - i] (t >= i, else 0) for rows
    (..., s or 1, s): a strided view of one zero-padded copy."""
    s = rows.shape[-1]
    pad = np.zeros((*rows.shape[:-2], s, 2 * s), dtype=rows.dtype)
    pad[..., s:] = rows
    item = pad.itemsize
    return np.ndarray(pad.shape[:-1] + (s,), pad.dtype, pad, s * item,
                      (*pad.strides[:-2], (2 * s - 1) * item, item))


def _carry_in(ends: np.ndarray, q) -> np.ndarray:
    """S_b = sum_{b' < b} q^(b-1-b') E_b', the state block b starts from, for
    block-end states E (S, m, C, B) of filters with block poles q (S, C): a
    real product per path and filter for each group of up to
    ``_BLOCK_STEPS`` blocks with the Toeplitz matrix of q powers plus a
    column for the group's end state; the groups' own starts are the same
    sum with pole q^T."""
    S, m, C, B = ends.shape
    T = min(B, _BLOCK_STEPS)
    groups = -(-B // T)
    powers = _powers(q.ravel(), T + 1).reshape(S, C, T + 1)
    # Re x meets (Re g, Im g), the float view of g, and Im x meets i g
    real = np.zeros((S, C, T, 2, T + 1), dtype=complex)
    real[..., 0, 1:] = _skewed(powers[:, :, None, :T])
    np.multiply(real[..., 0, :], 1j, out=real[..., 1, :])
    x = np.zeros((S, m, C, groups * T), dtype=complex)
    x[..., :B] = ends
    inner = np.matmul(x.view(float).reshape(S, m, C, groups, 2 * T),
                      real.view(float).reshape(S, 1, C, 2 * T, 2 * T + 2)).view(complex)
    if groups > 1:
        outer = _carry_in(inner[..., T], powers[..., T])
        inner = inner[..., :T] + outer[..., None] * powers[:, None, :, None, :T]
    return inner.reshape(S, m, C, -1)[..., :B]


def _filter_block(poles, weights: np.ndarray, normals: np.ndarray, out: np.ndarray) -> None:
    """out[k] = the sum over C filters of Re(y), y_j = pole y_{j-1} +
    sum_i w[i, j] z[:, i, j] and y_{-1} = 0, for each slot k of a stack of S
    slots: poles (S, C) with |pole| <= 1 and weights (S, C, d, h), step j
    taking column min(j, h - 1); the normals z, (S, m, d, n) or (S, m, n)
    for d = 1, may be ``out`` (S, m, n) itself.  A lone slot is a stack of one.

    Time is cut into blocks of s steps (``_BLOCK_STEPS``, fewer for many
    inputs).  Block b's output is one product [its d s normals | Re, Im of
    each filter's carried state] @ M: Re(w_i p^(t-i)) summed over the filters,
    then Re p^(t+1) and -Im p^(t+1).  The block-end states E = Z @ V, V the
    w_i p^(s-1-i), give the carries (:func:`_carry_in`); the blocks of the
    first h - 1 steps get their own M and V.  Only powers |p|^t <= 1 appear,
    so nothing grows whatever the decay; weights so small that e^-300 of them
    is subnormal enter scaled to 1.  Each path is its own item of every
    product, of at most ``_PRODUCT_MACS`` multiply-adds, so its bits depend
    on neither m, nor its neighbours, nor the other slots.  Its scratch is
    about the normals' size.
    """
    S, m, n = out.shape
    _, C, d, h = weights.shape
    s = _BLOCK_STEPS
    while s > 16 and _PRODUCT_MACS // ((d * s + 2 * C) * max(s, 2 * C)) < 8:
        s //= 2  # so that a product takes 8 block rows; shorter ones lose digits
    scale = np.array([top if 0.0 < top < np.finfo(float).tiny / _TINY else 1.0
                      for top in np.abs(weights).reshape(S, -1).max(axis=1).tolist()])
    weights = weights / scale[:, None, None, None]
    powers = _powers(np.ravel(poles), s + 1).reshape(S, C, s + 1)
    blocks, full = -(-n // s), n // s
    head = min(blocks, -(-(h - 1) // s))
    kinds, ds, K = head + 1, d * s, d * s + 2 * C
    # the weight column of each step of the head blocks, then of a steady block
    step = np.minimum(np.arange(kinds * s), h - 1)
    response = (weights[..., None] * powers[:, :, None, None, :s]).real.sum(axis=1)
    mats = np.empty((S, kinds, K, s))
    mats[:, :, :ds].reshape(S, kinds, d, s, s)[...] = _skewed(
        response[:, :, step].reshape(S, d, kinds, s, s).transpose(0, 2, 1, 3, 4))
    mats[:, :, ds:].reshape(S, kinds, C, 2, s)[...] = (
        np.conjugate(powers[..., 1:]).view(float).reshape(S, 1, C, s, 2).transpose(0, 1, 2, 4, 3))
    ends = np.empty((S, kinds, d, s, C), dtype=complex)
    np.multiply(weights[..., step].reshape(S, C, d, kinds, s).transpose(0, 3, 2, 4, 1),
                powers[:, :, s - 1 :: -1].transpose(0, 2, 1)[:, None, None], out=ends)
    ends = ends.view(float).reshape(S, kinds, ds, 2 * C)
    parts = -(-blocks // max(1, _PRODUCT_MACS // (K * max(s, 2 * C))))
    rows = -(-blocks // parts)  # block rows per product item
    z = normals.reshape(S, m, d, n)
    buf = np.empty((S, m, parts * rows, K))
    stack = buf.reshape(S, m, parts, rows, K)
    inputs = buf[..., :ds].reshape(S, m, parts * rows, d, s)
    inputs[:, :, :full] = z[..., : full * s].reshape(S, m, d, full, s).transpose(0, 1, 3, 2, 4)
    if parts * rows > full:
        inputs[:, :, full:] = 0.0
        inputs[:, :, full, :, : n - full * s] = z[..., full * s :]
    E = np.matmul(stack[..., :ds], ends[:, None, None, head]).reshape(S, m, parts * rows, 2 * C)
    if head:
        E[:, :, :head] = np.matmul(buf[:, :, :head, None, :ds], ends[:, None, :head])[..., 0, :]
    carry = _carry_in(E.view(complex).transpose(0, 1, 3, 2), powers[..., s])
    buf[..., ds:].view(complex)[...] = carry.transpose(0, 1, 3, 2)
    if parts * rows * s == n:
        np.matmul(stack, mats[:, None, None, head], out=out.reshape(S, m, parts, rows, s))
    else:
        out[...] = np.matmul(stack, mats[:, None, None, head]).reshape(S, m, -1)[..., :n]
    if head:
        out[..., : head * s] = np.matmul(buf[:, :, :head, None],
                                         mats[:, None, :head]).reshape(S, m, -1)[..., :n]
    if (scale != 1.0).any():
        out *= scale[:, None, None]


# paths up to this many steps take the step loop; on 8 modes it beat the kernel up to n 64
_STEP_LOOP_STEPS = 48
# bytes of normals per stack of slots :func:`_filter_paths` hands the kernel:
# field_time's paths (16 x 4096 steps) take one slot a call
_STACK_BYTES = 2**19


def _filter_paths(filters, normals: np.ndarray, out: np.ndarray) -> None:
    """out[k] = the sum of Re(y) over the one-pole filters of slot k, with
    y_j = pole y_{j-1} + w_j normals[k, :, j] and y_{-1} = 0.

    ``filters`` holds one (poles (C,), weights (C, h)) per slot, step j
    taking column min(j, h - 1), or None for a slot left alone; ``normals``
    and ``out`` are (K, m, n), and may be one array.  Past
    ``_STEP_LOOP_STEPS`` steps each run of adjacent slots whose poles and
    weights share their shapes goes through :func:`_filter_block` as stacks
    of as many slots as ``_STACK_BYTES`` of normals hold (at least one);
    up to it all C m rows of all slots take one vector step per time step,
    the real and imaginary parts of y as two real chains (one when poles and
    weights are real), a pole below e^-300 taken as 0.  So the route depends
    on n alone and a row's bits on nothing else.
    """
    n = normals.shape[-1]
    if n > _STEP_LOOP_STEPS:
        per = max(1, _STACK_BYTES // normals[0].nbytes)
        shapes = [None if f is None else (f[0].shape, f[1].shape) for f in filters]
        for shape, run in itertools.groupby(range(len(filters)), shapes.__getitem__):
            run = list(run)
            for lo in range(run[0], run[-1] + 1, per) if shape else ():
                hi = min(lo + per, run[-1] + 1)
                poles, weights = (np.array(part) for part in zip(*filters[lo:hi]))
                _filter_block(poles, weights[:, :, None], normals[lo:hi], out[lo:hi])
        return
    chains = np.array([0 if f is None else len(f[0]) for f in filters])
    owner = np.repeat(np.arange(len(filters)), chains)
    live = [f for f in filters if f is not None]
    poles = np.concatenate([f[0] for f in live]).astype(complex)
    weights = np.concatenate([f[1][:, np.minimum(np.arange(n), f[1].shape[1] - 1)] for f in live])
    poles[np.abs(poles) < _TINY] = 0.0
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
    first = np.cumsum(chains) - chains
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
    range below lambda ~ 1e-154.  In the coordinates v = (sqrt(alpha) u,
    y_1/sqrt(w_1), ..., y_p/sqrt(w_p)) / lambda the drift is A = [[0, b^T],
    [-b, -diag(x)]] with b_i = sqrt(alpha w_i), the noise covariance is
    D = diag(0, 2 x_i), and A S + S A^T + D = 0 is solved by S = I (the
    equilibrium law).  So u = lambda v_0 / sqrt(alpha) has variance
    lambda^2/alpha exactly, the paper's variance identity.

    The modes with lambda != 0 are stacked (a zero-weight mode is the zero
    path): mode ``slot[mode]`` is row i of every stack, and the per-mode
    methods take that i.  One ``eig`` call, with ``cond`` and ``inv`` over
    it too, diagonalizes the (K, d, d) drifts; LAPACK runs the same routine
    on each matrix, so every mode gets the bits it would get alone.  A mode
    whose eigenvectors are ill-conditioned (critical damping) or whose
    slowest rate rounding hides (a kernel too stiff) has ``eig`` None, and
    its covariance and paths come from the real step matrix e^{A dt}.
    Given a grid, :meth:`_sweep` builds the innovations form of every
    one-atom mode with an eigenbasis as well.
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

        In the eigenbasis it is -2 r(0) Re sum_i t_i, t_i = c_i expm1(mu_i h),
        free of the cancellation in r(0) - r(h) unless the t_i cancel (sum_i
        |t_i| over ``_CANCELLATION`` times the sum, at small |mu h|); there, or
        without an eigenbasis, it is r(0) ((1 - Phi00)^2 + sum_{j>=1} Phi0j^2
        + Q00) from the step law (Phi, Q) of :meth:`transition`: that equals
        2 r(0) (1 - Phi00) since Phi Phi^T + Q = I, but Q is built without
        cancellation, so the increment survives where Phi00 rounds to 1.
        """
        h = np.asarray(lags, dtype=float)
        inc, stepped = np.zeros(h.shape), np.ones(h.shape, dtype=bool)
        if self.eig[i] is not None:
            mu, head, inv = self.eig[i]
            terms = (head * inv[:, 0]) * _decay(mu, h[..., None], less_one=True)
            total = terms.sum(axis=-1).real
            inc[...] = -2.0 * total
            stepped = np.abs(terms).sum(axis=-1) > _CANCELLATION * np.abs(total)
        for j in np.flatnonzero(stepped):
            (phi,), (q,) = self.transition(float(h.flat[j]), [i])
            inc.flat[j] = (1.0 - phi[0, 0]) ** 2 + phi[0, 1:] @ phi[0, 1:] + q[0, 0]
        return self.variance[i] * inc

    def transition(self, dt: float, rows=None):
        """Exact one-step laws v(t + dt) = Phi v(t) + N(0, Q), stacked, with
        Q = I - Phi Phi^T for the unit-noise law.

        Returns (Phi, Q), each (len(rows), d, d), for the modes in ``rows``
        (all by default).  Van Loan's block exponential exp([[-A, D], [0,
        A^T]] h) holds Phi^T = e^{A^T h} and, in its corner, e^{-A h} Q with
        Q = int_0^h e^{A s} D e^{A^T s} ds.  It is taken on a step h = dt / 2^s
        with |A h|_1 <= 1/2 (|A| is symmetric), where a degree-16 Taylor
        polynomial, linear in D, is exact to rounding with only small
        products, run on one thread.  s doublings Phi <- Phi^2, Q <- Phi Q
        Phi^T + Q then reach dt, adding only positive semidefinite terms to
        Q.  No s overflows; a law whose diag(Phi Phi^T + Q) misses 1 by more
        than 1e-6 is a ValueError.

        Each mode takes its own s, in descending order, so the modes still
        doubling are a leading slice of the stack and each mode's products
        see the operands, in the memory layout, a one-mode call gives them:
        BLAS rounds large odd-sized products (d = 17, 33, 65) by layout.
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
        law (Anderson and Moore 1979), the Cholesky factor of Toeplitz(r) in
        state-space form.  With P_0 = S = I, omega_j = P_j[0, 0] and
        K_j = P_j e0 / omega_j, u_j = lambda e0.s_j / sqrt(alpha) with
        s_j = Phi s_{j-1} + K_j sqrt(omega_j) z_j and s_{-1} = 0.  For d = 2,
        P_j - omega_j K_j K_j^T = c_j e1 e1^T, so the sweep is the scalar
        c_j = P_j[1, 1] - P_j[0, 1]^2 / P_j[0, 0], P_{j+1} = c_j phi phi^T + Q
        (phi = Phi e1), one array recursion over the modes.  A mode keeps the
        steps until its c is constant to relative ``_GAIN_TOL``, as its gain
        is from there on.  Fills ``_gains[i]`` with (poles, read-out weights,
        rows of V^-1, gain rows (sqrt(omega_j), P_j[0, 1] / sqrt(omega_j))).
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
        # steps each mode keeps; a settled mode's recursion runs on unread
        kept = np.zeros(len(rows), dtype=int)
        gains = []
        for j in range(grid.n):
            if not (np.isfinite(p00) & (p00 > 0.0)).all():  # c cancelled to nothing
                raise ValueError(f"dt {grid.dt} is too small for the innovations form's gain")
            root = np.sqrt(p00)
            gains.append(np.stack((root, p01 / root), axis=-1))
            c = p11 - p01 * (p01 / p00)
            kept[(kept == 0) & (np.abs(c - c_prev) <= _GAIN_TOL * c)] = j + 1
            if kept.all():
                break
            c_prev = c
            p00, p01, p11 = c * f0 * f0 + q00, c * f0 * f1 + q01, c * f1 * f1 + q11
        kept[kept == 0] = len(gains)
        gains = np.stack(gains, axis=1)
        for r, i in enumerate(rows.tolist()):
            mu, head, inv = self.eig[i]
            self._gains[i] = (_decay(mu, grid.dt), (self.lam[i] * self.scale[i]) * head, inv,
                              gains[r, : kept[r]])

    def innovations(self, i: int):
        """(poles, weights) of mode i's innovations form from :meth:`_sweep`:
        one AR(1) filter per kept eigenvalue whose input is z times one
        complex weight per step, lambda included, up to the step where the
        gain settles; the last weight holds from there on."""
        poles, readout, inv, gain = self._gains[i]
        # V^-1 sqrt(omega_j) K_j by broadcasting: numpy's mixed complex-real
        # matmul is about 20x slower here
        return poles, readout[:, None] * (inv[:, :1] * gain[:, 0] + inv[:, 1:] * gain[:, 1])

    def recursion(self, i: int):
        """Exact linear map from standard normals to (m, n) stationary paths
        of mode i on the set-up's grid.

        Returns (shape, synth): ``synth(normals, out)`` maps (m, *shape)
        standard normals to (m, n) paths in ``out`` by the state recursion,
        d normals per step (shape (d, n)); a one-atom mode with an eigenbasis
        takes its innovations form (:meth:`innovations`) instead.

        Column 0 of each path's normals draws the stationary start v_0 = z,
        column j > 0 the innovation of step j through a square root of Q from
        its symmetric eigendecomposition, not Cholesky: Q is ill-conditioned
        (about 1e8 for the 64-node power law at dt = 2^-8) and rounding can
        leave it a hair indefinite, so negative eigenvalues are clipped to 0.
        In the eigenbasis the coordinates are complex AR(1) recursions, one
        per conjugate pair, whose inputs sum a step's d normals with the
        read-out weight, lambda included, folded in: one :func:`_filter_block`
        call; without one the real state is stepped and scaled at the end.
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
        # step 0 draws the stationary start, every later step an innovation
        poles, weights = _decay(mu, dt), np.stack((start, drive), axis=-1)
        return (self.dim, n), lambda normals, out: _filter_block(
            poles[None], weights[None], normals[None], out[None])


def _embed(emb: _Markov, i: int, grid: TimeGrid):
    """Circulant eigenvalues of mode i's exact unit-noise covariance, or None
    for the recursion.

    Walks L = n, 2n, 4n, 8n.  At each L the recursion is taken when its
    state form would draw no more normals per path (n*d) than the circulant
    would (2L), else the circulant of length 2L when its most negative
    eigenvalue is at least -1e-8 * r(0); past 8n the recursion.  A one-atom
    mode (d = 2), here only without an eigenbasis, recurses at L = n.  Each
    L appends its new lags to the one covariance sequence.  Returns the
    eigenvalues (None for the recursion) and the last L walked.
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


def sample_gle_mode(kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int,
                    seed: int) -> PathEnsemble:
    """Sample m stationary memory-kernel paths, exact in law.

    Marginal variance is r(0) = lambda_k^2 / alpha_k and lagged covariances
    are the closed-form r(j*dt) of the Markovian embedding, before Monte
    Carlo error.  A one-atom mode with an eigenbasis takes the innovations
    form (:func:`_filter`); any other the route :func:`_embed` picks
    (:func:`_gle_paths`).  One mode of :func:`_sample`."""
    return _sample("gle", kernel, [mode], grid, m, seed)[0]


def _gle_paths(kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int, seed: int,
               setup: _Markov, out: np.ndarray) -> tuple:
    """gle's paths of a mode with no one-pole filter, written to ``out``: the
    state recursion or the circulant, as :func:`_embed` picks.  Returns the
    route's :class:`PathEnsemble` fields.  A chunk's normals never outnumber
    256 rows of a length-2L circulant, nor 128 on the recursion, whose
    filter takes as much scratch again."""
    i = setup.slot[mode]
    eig, L = _embed(setup, i, grid)
    if eig is None:
        shape, synth = setup.recursion(i)
        chunk = min(_PATH_CHUNK, max(1, _PATH_CHUNK * L // math.prod(shape)))
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
    return route


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


def sample_gle_mode_spectral(kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int,
                             seed: int) -> PathEnsemble:
    """Harmonic-superposition sampler (:func:`_spectral_paths`), independent
    of the embedding routes.  One mode of :func:`_sample`."""
    return _sample("spectral", kernel, [mode], grid, m, seed)[0]


def _spectral_paths(kernel: KernelMeasure, mode: Mode, grid: TimeGrid, m: int, seed: int,
                    setup, out: np.ndarray) -> tuple:
    """u(t) = sum_j a_j (xi_j cos + eta_j sin)(w_j t) with a_j = lambda
    sqrt(2 rho_1(w_j) dw_j), rho_1 the unit-noise density, written to
    ``out``; returns the route's :class:`PathEnsemble` fields.  A path's 2
    normals per node are all xi, then eta; each chunk's cos and sin tables
    are built ``_TIME_BLOCK`` time columns at a time."""
    sd = SpectralDensity(kernel, mode)
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
    return "spectral", 0.0, 0, k


def sample_ou_mode(mode: Mode, grid: TimeGrid, m: int, seed: int) -> PathEnsemble:
    """Exact stationary AR(1) recursion for the memoryless baseline mode:
    u_{j+1} = e^{-alpha dt} u_j + lambda * sqrt((1 - e^{-2 alpha dt})/(2 alpha)) * xi_j.
    One mode of :func:`_sample`."""
    return _sample("heat", None, [mode], grid, m, seed)[0]


def _filter(law: str, mode: Mode, grid: TimeGrid, setup: _Markov | None):
    """(poles, weights) of the one-pole filters whose real parts add up to
    the paths of a mode with nonzero weight, weights (C, h) with step j
    taking column min(j, h - 1): the AR(1) baseline, and gle's innovations
    form read from ``setup``; None for any other mode."""
    if mode.lambda_k == 0.0:
        return None
    if law == "heat":
        phi = math.exp(-mode.alpha_k * grid.dt)
        sigma = mode.lambda_k / math.sqrt(2.0 * mode.alpha_k)
        return np.array([phi]), np.array([[sigma, sigma * math.sqrt(1.0 - phi * phi)]])
    if law == "gle" and setup.slot[mode] in setup._gains:
        return setup.innovations(setup.slot[mode])
    return None


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


# per law: the route fields of a mode with a one-pole filter or zero weight,
# and the sampler of any other mode
_ROUTES = {"gle": (("recursion",), _gle_paths), "heat": (("ou",), None),
           "spectral": (("spectral", 0.0, 0, _NODE_COUNT), _spectral_paths)}


def _sample(law: str, kernel: KernelMeasure, modes, grid: TimeGrid, m: int, seed: int,
            setup: _Markov | None = None, out: np.ndarray | None = None) -> list:
    """The one sampler: m paths of each mode of the list ``modes`` under
    ``law``, one of :data:`LAWS`, written to the mode's slot of ``out``
    (:func:`_paths_out`); one :class:`PathEnsemble` per mode.

    ``setup`` is what :func:`_law` builds for ``law``, ``kernel``, ``grid``
    and modes that include these, built here when None.  Each chunk of
    paths draws every mode that has a one-pole filter (:func:`_filter`) from
    the mode's own stream into its slot and filters them all there by one
    :func:`_filter_paths` call; a zero-weight mode gets zero paths and any
    other mode its law's route (:data:`_ROUTES`).  So no mode's paths depend
    on the others'."""
    _check_sampling_args(m, seed)
    if setup is None:
        setup = _law(law, kernel, modes, grid)[0]
    elif setup.kernel != kernel or setup.grid != grid or any(
            mode.lambda_k != 0.0 and mode not in setup.slot for mode in modes):
        raise ValueError("the set-up was built for another kernel, grid or mode list")
    out = _paths_out(out, (len(modes), m, grid.n))
    filters = [_filter(law, mode, grid, setup) for mode in modes]
    streams = [(k, _stream(seed, modes[k].index)) for k, f in enumerate(filters) if f is not None]
    for lo in range(0, m, _PATH_CHUNK) if streams else ():
        paths = out[:, lo : lo + _PATH_CHUNK]
        for k, gen in streams:
            gen.standard_normal(out=paths[k])
        _filter_paths(filters, paths, paths)
    out[[k for k, mode in enumerate(modes) if mode.lambda_k == 0.0]] = 0.0
    plain, route = _ROUTES[law]
    return [PathEnsemble(grid, slot, *(route(kernel, mode, grid, m, seed, setup, slot)
                                       if f is None and mode.lambda_k != 0.0 else plain))
            for mode, f, slot in zip(modes, filters, out)]
