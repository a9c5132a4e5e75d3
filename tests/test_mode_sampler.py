"""Path synthesis: exact recursion or circulant embedding, harmonic superposition, AR(1) baseline."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import solve_continuous_lyapunov
from scipy.signal import lfilter

from glefield import mode_sampler, spectral
from glefield.cm_kernel import KernelMeasure, PowerLaw, discretize
from glefield.mode_sampler import (
    TimeGrid,
    _Markov,
    _filter_paths,
    _recur,
    _stream,
    circulant_eigenvalues,
    paths_from_normals,
    sample_gle_mode,
    sample_gle_mode_spectral,
    sample_ou_mode,
    spectral_nodes,
)
from glefield.spectral import Mode, SpectralDensity, autocovariance, rho

SINGLE = KernelMeasure([(1.0, 1.0)])
THREE = KernelMeasure([(0.2, 0.5), (0.3, 3.0), (0.5, 10.0)])
# critically damped modes: the drift has a double eigenvalue and is defective
CRITICAL = [(KernelMeasure([(1.0, 2.0)]), Mode(1, 1.0, 1.0)),
            (KernelMeasure([(0.25, 1.0)]), Mode(1, 1.0, 1.0))]


def test_time_grid():
    grid = TimeGrid(dt=0.25, n=5)
    assert np.array_equal(grid.times, 0.25 * np.arange(5))
    assert TimeGrid(dt=0.25, n=np.int64(5)).times.tobytes() == grid.times.tobytes()
    for bad in (dict(dt=0.0, n=4), dict(dt=0.1, n=1), dict(dt=0.1, n=16.5),
                dict(dt=0.1, n=16.0), dict(dt=0.1, n=True)):
        with pytest.raises(ValueError):
            TimeGrid(**bad)


def test_synthesis_map_reproduces_toeplitz_exactly():
    # drive the linear Davies-Harte map with unit vectors; the resulting
    # matrix M^T satisfies M M^T = Toeplitz(cov) whenever the embedding is PSD
    L, n = 16, 8
    cov = 0.9 ** np.arange(L + 1)
    eig = circulant_eigenvalues(cov)
    assert eig.min() >= 0.0
    basis = np.eye(2 * L)
    images = paths_from_normals(eig, basis, n)
    gram = images.T @ images
    toeplitz = np.array([[cov[abs(i - j)] for j in range(n)] for i in range(n)])
    assert np.abs(gram - toeplitz).max() <= 1e-13


def test_paths_from_normals_validation():
    eig = circulant_eigenvalues(0.5 ** np.arange(9))
    with pytest.raises(ValueError):
        paths_from_normals(eig, np.zeros((2, 5)), 4)
    with pytest.raises(ValueError):
        paths_from_normals(eig, np.zeros((2, 16)), 12)


def test_circulant_eigenvalues_validation():
    with pytest.raises(ValueError):
        circulant_eigenvalues(np.array([1.0]))


def test_determinism_and_prefix_property():
    mode = Mode(2, 5.0, 1.0)
    grid = TimeGrid(dt=0.125, n=64)
    a = sample_gle_mode(SINGLE, mode, grid, 8, seed=3)
    b = sample_gle_mode(SINGLE, mode, grid, 8, seed=3)
    assert np.array_equal(a.values, b.values)
    small = sample_gle_mode(SINGLE, mode, grid, 4, seed=3)
    assert np.array_equal(small.values, a.values[:4])
    other = sample_gle_mode(SINGLE, mode, grid, 8, seed=4)
    assert not np.array_equal(other.values, a.values)


def test_streams_differ_across_modes():
    grid = TimeGrid(dt=0.125, n=64)
    a = sample_ou_mode(Mode(1, 5.0, 1.0), grid, 4, seed=3)
    b = sample_ou_mode(Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_stream_is_the_seed_sequence_child_of_the_mode(seed):
    for k in (1, 7, 2**31):
        child = np.random.SeedSequence(seed, spawn_key=(k,))
        fresh = np.random.Generator(np.random.SFC64(child))
        assert np.array_equal(_stream(seed, k).standard_normal(9), fresh.standard_normal(9))


def test_samplers_draw_no_os_entropy(monkeypatch):
    # seeding a Philox without a seed sequence pulls os.urandom through
    # random._urandom; keyed streams need none
    calls = []
    urandom = random._urandom
    monkeypatch.setattr(random, "_urandom", lambda n: calls.append(n) or urandom(n))
    grid = TimeGrid(dt=0.125, n=64)
    mode = Mode(1, 5.0, 1.0)
    sample_ou_mode(mode, grid, 4, seed=3)
    sample_gle_mode(SINGLE, mode, grid, 4, seed=3)
    sample_gle_mode_spectral(SINGLE, mode, grid, 2, seed=3)
    assert calls == []


def test_zero_weight_paths_are_zero():
    mode = Mode(1, 4.0, 0.0)
    grid = TimeGrid(dt=0.1, n=32)
    for sampler in (
        lambda: sample_gle_mode(SINGLE, mode, grid, 3, seed=0),
        lambda: sample_gle_mode_spectral(SINGLE, mode, grid, 3, seed=0),
        lambda: sample_ou_mode(mode, grid, 3, seed=0),
    ):
        assert not sampler().values.any()


def test_sampling_argument_validation():
    grid = TimeGrid(dt=0.1, n=16)
    mode = Mode(1, 4.0, 1.0)
    with pytest.raises(ValueError):
        sample_gle_mode(SINGLE, mode, grid, 0, seed=0)
    with pytest.raises(ValueError):
        sample_ou_mode(mode, grid, 4, seed=-1)
    # a bool or a float is not a seed or an ensemble size (True would pass for 1)
    for m, seed in ((4, True), (4, False), (True, 1), (2.0, 1), (4, 1.0)):
        for sampler in (sample_gle_mode, sample_gle_mode_spectral):
            with pytest.raises(ValueError):
                sampler(SINGLE, mode, grid, m, seed)
        with pytest.raises(ValueError):
            sample_ou_mode(mode, grid, m, seed)
    # numpy integers stay valid
    a = sample_ou_mode(mode, grid, np.int64(3), seed=np.int64(7)).values
    assert a.tobytes() == sample_ou_mode(mode, grid, 3, seed=7).values.tobytes()


# every route of every sampler: innovations form, two-atom state recursion,
# circulant, critical damping (the real step matrix), zero weight, AR(1)
# baseline and superposition
_TWO = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])
_ROUTES = {
    "innovations": (lambda g, m, **kw: sample_gle_mode(SINGLE, Mode(2, 5.0, 1.0), g, m, 3, **kw),
                    "recursion"),
    "state": (lambda g, m, **kw: sample_gle_mode(_TWO, Mode(1, 0.05, 0.8), g, m, 3, **kw),
              "recursion"),
    "circulant": (lambda g, m, **kw: sample_gle_mode(THREE, Mode(3, 10.0, 1.0), g, m, 3, **kw),
                  "circulant"),
    "critical": (lambda g, m, **kw: sample_gle_mode(*CRITICAL[0], g, m, 3, **kw), "recursion"),
    "zero": (lambda g, m, **kw: sample_gle_mode(SINGLE, Mode(1, 4.0, 0.0), g, m, 3, **kw),
             "recursion"),
    "ou": (lambda g, m, **kw: sample_ou_mode(Mode(2, 5.0, 1.0), g, m, 3, **kw), "ou"),
    "spectral": (lambda g, m, **kw: sample_gle_mode_spectral(SINGLE, Mode(2, 5.0, 1.0), g, m, 3,
                                                             **kw), "spectral"),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_out_takes_the_allocating_calls_bytes(route):
    sampler, method = _ROUTES[route]
    grid = TimeGrid(dt=0.125, n=64)
    alone = sampler(grid, 5)
    assert alone.method == method
    if route == "state":
        # three state coordinates per step
        assert _Markov(_TWO, [Mode(1, 0.05, 0.8)], grid).recursion(0)[0] == (3, grid.n)
    # a slot of a block buffer, filled with garbage first
    block = np.full((3, 5, grid.n), np.nan)
    slot = block[1]
    assert sampler(grid, 5, out=slot).values is slot
    assert slot.tobytes() == alone.values.tobytes()
    assert np.isnan(block[[0, 2]]).all()


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_out_must_fit_the_paths(route):
    sampler = _ROUTES[route][0]
    grid = TimeGrid(dt=0.125, n=64)
    frozen = np.empty((5, grid.n))
    frozen.flags.writeable = False
    for bad in (np.empty((5, grid.n + 1)), np.empty((4, grid.n)), np.empty(5 * grid.n),
                np.empty((5, grid.n), dtype=np.float32), np.empty((grid.n, 5)).T,
                np.empty((5, 2 * grid.n))[:, ::2], frozen, [[0.0] * grid.n] * 5):
        with pytest.raises(ValueError):
            sampler(grid, 5, out=bad)


def test_seeds_must_fit_in_64_bits():
    # the Philox key holds the seed in 64 bits: a wider seed would alias a
    # smaller one instead of giving a new ensemble
    grid = TimeGrid(dt=0.1, n=16)
    mode = Mode(1, 4.0, 1.0)
    assert sample_ou_mode(mode, grid, 2, seed=2**64 - 1).values.shape == (2, 16)
    for sampler in (
        lambda seed: sample_gle_mode(SINGLE, mode, grid, 2, seed),
        lambda seed: sample_gle_mode_spectral(SINGLE, mode, grid, 2, seed),
        lambda seed: sample_ou_mode(mode, grid, 2, seed),
    ):
        with pytest.raises(ValueError):
            sampler(2**64)


def test_sampler_never_computes_the_quadrature_sequence(monkeypatch):
    # sampling reads the covariance from its own embedding, never through
    # the public sequence of `spectral`
    calls = []
    monkeypatch.setattr(spectral, "autocovariance_sequence",
                        lambda *args, **kwargs: calls.append(args))
    grid = TimeGrid(dt=0.125, n=64)
    ens = [sample_gle_mode(SINGLE, Mode(1, 1.0, 1.0), grid, 2, seed=0),
           sample_gle_mode(THREE, Mode(3, 10.0, 1.0), grid, 2, seed=0)]
    assert [e.method for e in ens] == ["recursion", "circulant"]
    assert calls == []


def test_route_draws_the_fewer_normals():
    # a single atom (d = 2) recurses at once: n*d <= 2n, and its innovations
    # form draws only n; the 65-dimensional power-law embedding would draw 65n
    # normals per path, so it takes the circulant at the first PSD length,
    # here L = 2n
    grid = TimeGrid(dt=2.0**-8, n=4096)
    single = sample_gle_mode(SINGLE, Mode(4, 16.0, 1.0), grid, 2, seed=0)
    assert (single.method, single.embedding_length) == ("recursion", 0)
    power = discretize(PowerLaw(1.0, 64))
    ens = sample_gle_mode(power, Mode(4, 16.0, 1.0), grid, 2, seed=0)
    assert ens.method == "circulant"
    assert ens.embedding_length == 4 * grid.n


def test_clipped_mass_is_never_negative_zero():
    # an embedding with no negative eigenvalue clips nothing: +0.0, not -0.0
    grid = TimeGrid(dt=0.125, n=64)
    ens = sample_gle_mode(discretize(PowerLaw(1.0, 8)), Mode(2, 5.0, 1.0), grid, 2, seed=0)
    assert ens.method == "circulant"
    assert ens.clipped_mass == 0.0
    assert math.copysign(1.0, ens.clipped_mass) == 1.0


def test_embedding_stationary_covariance_solves_lyapunov():
    # the embedding is built for unit noise: S = I in its coordinates, and Q
    # is the one-step innovation covariance I - Phi Phi^T, whatever lambda is
    for kernel, mode in [(SINGLE, Mode(1, 3.0, 0.7)),
                         (discretize(PowerLaw(1.0, 64)), Mode(1, 10.0, 1.0))] + CRITICAL:
        emb = _Markov(kernel, [mode])
        S = solve_continuous_lyapunov(emb.drift()[0], -np.diag(emb.noise))
        assert np.abs(S - np.eye(emb.dim)).max() <= 1e-13
        step, q = (stack[0] for stack in emb.transition(2.0**-8))
        assert np.abs(q - (np.eye(emb.dim) - step @ step.T)).max() <= 1e-14


def test_closed_form_covariance_matches_quadrature():
    corpus = [SINGLE, KernelMeasure([(0.5, 1.0), (0.5, 2.0)]), THREE,
              discretize(PowerLaw(1.0, 32)), discretize(PowerLaw(1.0, 64)),
              discretize(PowerLaw(0.5, 24))]
    cases = [(kernel, Mode(1, alpha, lam)) for kernel in corpus
             for alpha in (0.5, 2.0, 10.0, 1e2, 1e3, 1e4) for lam in (1.0, 0.3)]
    # each kernel's modes share one stacked embedding
    embeddings = {kernel: _Markov(kernel, [m for k, m in cases if k is kernel]) for kernel in corpus}
    embeddings.update((kernel, _Markov(kernel, [mode])) for kernel, mode in CRITICAL)
    for kernel, mode in cases + CRITICAL:
        r0 = mode.lambda_k ** 2 / mode.alpha_k
        emb = embeddings[kernel]
        r = mode.lambda_k ** 2 * emb.covariance(emb.slot[mode], 0.5, 7)
        sd = SpectralDensity(kernel, mode)
        truth = [autocovariance(sd, 0.5 * j, 1e-10) for j in range(7)]
        assert np.abs(r - truth).max() <= 1e-10 * r0, (kernel, mode)


def test_stacked_setup_samples_each_mode_as_alone():
    # one set-up over a mixed batch, then every mode's paths byte-equal to
    # the mode sampled with a set-up of its own.  One atom: underdamped,
    # overdamped (two real poles), critical (the step-matrix fallback) and
    # zero-weight; two atoms: real and complex spectra on the state
    # recursion, and a mode on the circulant
    grid = TimeGrid(dt=0.125, n=16)
    two = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])
    batches = [
        (SINGLE, [Mode(1, 5.0, 1.0), Mode(2, 0.1, 1.0), Mode(3, 0.25, 1.0), Mode(4, 3.0, 0.0)],
         ["recursion"] * 4),
        (two, [Mode(1, 0.05, 0.8), Mode(2, 2.0, 0.8), Mode(3, 200.0, 0.8)],
         ["recursion", "recursion", "circulant"]),
    ]
    for kernel, modes, routes in batches:
        setup = _Markov(kernel, modes, grid)
        # the zero-weight mode is left out of the stack
        assert list(setup.slot) == [mode for mode in modes if mode.lambda_k != 0.0]
        for mode, route in zip(modes, routes):
            batch = sample_gle_mode(kernel, mode, grid, 5, seed=9, setup=setup)
            alone = sample_gle_mode(kernel, mode, grid, 5, seed=9)
            assert batch.method == alone.method == route
            assert batch.values.tobytes() == alone.values.tobytes(), mode
    single = _Markov(SINGLE, batches[0][1], grid)
    assert np.isreal(single.eig[1][0]).all() and single.eig[2] is None
    assert sorted(single._gains) == [0, 1]
    with pytest.raises(ValueError):
        sample_gle_mode(SINGLE, Mode(1, 5.0, 1.0), TimeGrid(dt=0.25, n=16), 2, 0, setup=single)
    with pytest.raises(ValueError):
        sample_gle_mode(SINGLE, Mode(5, 5.0, 1.0), grid, 2, 0, setup=single)


def test_degenerate_eigenbasis_falls_back_to_the_step_matrix():
    for kernel, mode in CRITICAL:
        assert _Markov(kernel, [mode]).eig == [None]
        ens = sample_gle_mode(kernel, mode, TimeGrid(dt=0.25, n=64), 2, seed=0)
        assert ens.method == "recursion"
        assert np.isfinite(ens.values).all()
    assert _Markov(SINGLE, [Mode(1, 5.0, 1.0)]).eig[0] is not None


def test_time_grid_must_end_in_the_float_range():
    # t_j = j dt for j < n: a last time of inf would be written to the CSV
    with pytest.raises(ValueError, match=r"n 8 steps of dt 1e\+308"):
        TimeGrid(dt=1e308, n=8)
    assert TimeGrid(dt=1e308, n=2).times[-1] == 1e308


def test_step_law_past_the_float_range():
    # 2 |A| dt overflows: the halvings come from the binary exponents and
    # the step from ldexp, so a mode whose decay is resolved decorrelates
    # fully; one whose slow decay is below rounding is refused, not sampled
    step, q = _Markov(SINGLE, [Mode(1, 1e8, 1.0)]).transition(1e305)
    assert np.abs(step).max() == 0.0
    assert np.abs(q - np.eye(2)).max() <= 1e-9  # about 1030 doublings of rounding
    stiff = _Markov(KernelMeasure([(1.0, 1e10)]), [Mode(1, 1.0, 1.0)])
    for dt in (1e300, 1e20):
        with pytest.raises(ValueError, match="too stiff for dt"):
            stiff.transition(dt)
    assert np.isfinite(stiff.transition(1.0)[1]).all()


def test_covariance_pieces_are_the_sequence_sliced():
    # real and complex spectra, and the step-matrix fallback without one
    cases = [(discretize(PowerLaw(1.0, 16)), Mode(1, 1.0, 1.0)), (THREE, Mode(1, 0.05, 1.0)),
             (THREE, Mode(1, 0.5, 1.0)), *CRITICAL]
    for kernel, mode in cases:
        emb = _Markov(kernel, [mode])
        full = emb.covariance(0, 0.125, 65)
        for start in (0, 1, 33, 64, 65):
            assert emb.covariance(0, 0.125, 65, start=start).tobytes() == full[start:].tobytes()


def test_embedding_walk_extends_one_covariance_sequence(monkeypatch):
    # each rung appends its new lags to the one sequence, so the walk's
    # routes and eigenvalues are those of a walk that starts every rung from
    # lag 0, and a walk whose last rung is L evaluates L + 1 lags, not 15n + 4
    covariance = _Markov.covariance
    counted = []

    def counting(self, i, dt, count, start=0):
        counted.append(count - start)
        return covariance(self, i, dt, count, start)

    monkeypatch.setattr(_Markov, "covariance", counting)
    cases = [(discretize(PowerLaw(1.0, 16)), [1.0, 4.0, 16.0, 256.0], TimeGrid(2.0**-4, 32)),
             (THREE, [0.05, 0.5], TimeGrid(1.0, 32))]
    seen = set()
    for kernel, alphas, grid in cases:
        emb = _Markov(kernel, [Mode(k, a, 1.0) for k, a in enumerate(alphas, 1)], grid)
        for i in range(len(alphas)):
            counted.clear()
            eig, L = mode_sampler._embed(emb, i, grid)
            expected, last = None, 0
            for rung in (grid.n, 2 * grid.n, 4 * grid.n, 8 * grid.n):
                if emb.dim * grid.n <= 2 * rung:
                    break
                last = rung
                values = circulant_eigenvalues(covariance(emb, i, grid.dt, rung + 1))
                if values.min() >= -1e-8 * emb.variance[i]:
                    expected = values
                    break
            assert (eig is None) == (expected is None)
            if eig is not None:
                assert eig.tobytes() == expected.tobytes() and L == last
            assert sum(counted) == last + 1
            seen.add((eig is not None, last // grid.n, bool(np.iscomplexobj(emb.eig[i][0]))))
    # both routes, walks to 8n, and real as well as complex spectra
    assert {(True, 8, True), (False, 8, True), (True, 1, True), (False, 1, False)} <= seen


def _eigenbases_by_mode(setup):
    # the per-mode loop that cutting the stacks replaced, as the reference
    mu, vecs = np.linalg.eig(setup.drift())
    bases = [None] * len(mu)
    real = (mu.imag == 0.0).all(axis=-1)
    for rows, is_real in ((np.flatnonzero(real), True), (np.flatnonzero(~real), False)):
        group_mu, group_vecs = mu[rows], vecs[rows]
        if is_real:
            group_mu, group_vecs = group_mu.real, group_vecs.real
        ok = np.linalg.cond(group_vecs) <= mode_sampler._MAX_EIGVEC_COND
        inverses = np.linalg.inv(group_vecs[ok])
        for i, mu_i, vecs_i, inv_i in zip(rows[ok], group_mu[ok], group_vecs[ok], inverses):
            keep = mu_i.imag >= 0.0
            head = vecs_i[0, keep] * np.where(mu_i.imag[keep] > 0.0, 2.0, 1.0)
            bases[i] = (mu_i[keep], head, inv_i[keep])
    return bases


def test_eigenbases_equal_the_per_mode_cut():
    # underdamped (one complex eigenvalue kept), overdamped (two real ones)
    # and critically damped (no eigenbasis) one-atom modes in one stack, and
    # a three-atom stack keeping three eigenvalues or four: every mode's
    # basis is byte-equal to the one the per-mode loop cuts
    stacks = [(SINGLE, [5.0, 0.1, 0.25, 3.0, 0.05, 0.25, 40.0, 0.2]),
              (THREE, [0.001, 0.05, 0.3, 1.0, 30.0, 1000.0])]
    for kernel, alphas in stacks:
        setup = _Markov(kernel, [Mode(k, a, 1.0) for k, a in enumerate(alphas, 1)])
        ref = _eigenbases_by_mode(setup)
        assert [basis is None for basis in setup.eig] == [basis is None for basis in ref]
        assert len({None if basis is None else len(basis[0]) for basis in ref}) >= 2
        for got, want in zip(setup.eig, ref):
            for a, b in zip(got or (), want or ()):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_modes_whose_slow_rate_is_lost_to_rounding_get_no_eigenbasis():
    # under atoms [[1, 1e10]] the slow rate of the alpha = 1 mode, about
    # 1e-10, is below the rounding of eig on its 1e10-sized drift: eig reads
    # its eigenvalues as [0, -1e10], whose basis gives a covariance that
    # never decays (r(1e12) = r(0)) and a negative increment (-2e-20).  Such
    # a mode takes the step law instead, whose stationarity gate rejects the
    # lag it cannot resolve; a stiffer mode of the same kernel keeps its basis
    stiff = _Markov(KernelMeasure([(1.0, 1e10)]), [Mode(1, 1.0, 1.0), Mode(2000, 4e6, 1.0)])
    assert stiff.eig[0] is None and stiff.eig[1] is not None
    with pytest.raises(ValueError, match="too stiff"):
        stiff.covariance(0, 1e12, 3)
    with pytest.raises(ValueError, match="too stiff"):
        stiff.increment(0, [1e12])
    # the step law's increment takes Q(h), built without cancellation, so it
    # matches the 2x2 closed form where Phi(h)[0, 0] rounds to 1
    root = math.sqrt(1e20 - 4.0)
    mu1, mu2 = -2.0 / (1e10 + root), -(1e10 + root) / 2.0
    lags = np.array([2.0**-5, 0.5, 1e3])
    exact = 2.0 * (-mu2 * np.expm1(mu1 * lags) + mu1 * np.expm1(mu2 * lags)) / (mu2 - mu1)
    np.testing.assert_allclose(stiff.increment(0, lags), exact, rtol=1e-6, atol=0.0)
    # the kernels in use keep every basis, and so does [[1, 1e6]], whose
    # slow rate clears the threshold 45 times over
    for kernel in (SINGLE, _TWO, THREE, discretize(PowerLaw(1.0, 16)),
                   KernelMeasure([(1.0, 1e6)])):
        setup = _Markov(kernel, [Mode(k, float(k * k), 1.0) for k in range(1, 129)])
        assert all(basis is not None for basis in setup.eig)


def test_recursion_reproduces_toeplitz_exactly():
    # drive the linear map with unit vectors: the Gram matrix is the path
    # covariance.  One-atom modes take the innovations form, one normal per
    # step, filtered in place as the sampler does (underdamped, overdamped
    # with two real poles on the step loop and past it, the field_space grid,
    # and a grid shorter than the point where the gain settles); the others
    # the state recursion in the eigenbasis or through the real step matrix
    one_atom = [(SINGLE, Mode(1, 5.0, 1.0), 0.1, 12), (SINGLE, Mode(1, 0.1, 1.0), 0.1, 12),
                (SINGLE, Mode(1, 0.1, 1.0), 0.125, 2 * mode_sampler._STEP_LOOP_STEPS),
                (SINGLE, Mode(1, 5.0, 1.0), 4.0, 16), (SINGLE, Mode(1, 1.0, 1.0), 2.0**-10, 8)]
    state = [(THREE, Mode(1, 10.0, 0.5), 0.1, 12)] + [(k, m, 0.1, 12) for k, m in CRITICAL]
    for cases, one_normal in ((one_atom, True), (state, False)):
        for kernel, mode, dt, n in cases:
            emb = _Markov(kernel, [mode], TimeGrid(dt, n))
            if one_normal:
                poles, weights = emb.innovations(0)
                images = np.eye(n)
                _filter_paths(poles, weights, [len(poles)], images[None], images[None])
            else:
                shape, synth = emb.recursion(0)
                assert shape == (emb.dim, n)
                images = np.empty((emb.dim * n, n))
                synth(np.eye(emb.dim * n).reshape(-1, *shape), images)
            gram = images.T @ images
            cov = mode.lambda_k ** 2 * emb.covariance(0, dt, n)
            toeplitz = np.array([[cov[abs(i - j)] for j in range(n)] for i in range(n)])
            assert np.abs(gram - toeplitz).max() <= 1e-13, (kernel, mode, dt, n)
    # the overdamped mode really has two real poles
    assert np.isreal(_Markov(SINGLE, [Mode(1, 0.1, 1.0)]).eig[0][0]).all()


def test_two_pole_mode_filters_its_normals_in_place_past_the_step_loop():
    # the sampler draws normals into the paths' array and filters them there;
    # past the step loop an overdamped mode's two real poles run one after
    # the other, and the second must still read the normals, not the first's
    # paths: byte-equal to the same normals filtered into a separate array
    mode, grid = Mode(1, 0.1, 1.0), TimeGrid(0.125, 256)
    assert grid.n > mode_sampler._STEP_LOOP_STEPS
    emb = _Markov(SINGLE, [mode], grid)
    poles, weights = emb.innovations(0)
    assert len(poles) == 2 and np.isreal(poles).all()
    normals = _stream(3, mode.index).standard_normal((1, 5, grid.n))
    expected = np.empty_like(normals)
    _filter_paths(poles, weights, [2], normals, expected)
    assert sample_gle_mode(SINGLE, mode, grid, 5, 3).values.tobytes() == expected.tobytes()


def _recursion_reference(pole, weights, normals):
    """Re(y) of y_j = pole y_{j-1} + sum_k weights[k, j] normals[:, k, j],
    looped step by step in np.longdouble, and the path scale: the root of
    the largest E|y_j|^2."""
    m, n = normals.shape[0], normals.shape[-1]
    z = normals.reshape(m, -1, n).astype(np.longdouble)
    c = np.reshape(weights, (z.shape[1], n))
    xr = (z * c.real.astype(np.longdouble)).sum(axis=1)
    xi = (z * np.imag(c).astype(np.longdouble)).sum(axis=1)
    pr, pi = np.longdouble(np.real(pole)), np.longdouble(np.imag(pole))
    yr = yi = np.zeros(m, dtype=np.longdouble)
    paths = np.empty((m, n), dtype=np.longdouble)
    power, decay = (np.abs(c) ** 2).sum(axis=0), abs(pole) ** 2
    var = top = 0.0
    for j in range(n):
        yr, yi = pr * yr - pi * yi + xr[:, j], pr * yi + pi * yr + xi[:, j]
        paths[:, j] = yr
        var = decay * var + power[j]
        top = max(top, var)
    return paths, math.sqrt(top)


# per-step decays -log|p|: one block for every n below, a few blocks, many
# short blocks of 15 and 6 steps, and blocks of one step
_DECAYS = (1e-4, 1e-2, 0.5, 20.0, 50.0, 1e3)


@pytest.mark.parametrize("n", (2, 16, 1000, 4096))
@pytest.mark.parametrize("angle", (0.0, 0.1, 3.0, 512.0))
def test_recursion_kernel_matches_a_long_double_loop(n, angle):
    # bound fixed before the first run, from rounding (about eps * sqrt(steps
    # in play)): 1e-13 of the path scale.  The leading weights vary per step,
    # as the innovations gains do; d = 3 stacks normals as the state route
    # does.  Each pole is written, then a second pole added on top.
    rng = np.random.default_rng(n + int(10 * angle))
    bound = 1e-13
    for decay in _DECAYS:
        poles = [cmath.exp(complex(-decay, angle)), cmath.exp(complex(-2.0 * decay, -angle))]
        if angle == 0.0:
            poles = [pole.real for pole in poles]
        for d in (1, 3):
            out = np.empty((3, n))
            expected = np.zeros((3, n), dtype=np.longdouble)
            scale = 0.0
            for j, pole in enumerate(poles):
                weights = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
                weights[:, 20:] = weights[:, 19:20]
                normals = rng.standard_normal((3, d, n) if d > 1 else (3, n))
                _recur(pole, weights if d > 1 else weights[0], normals, out, add=j > 0)
                paths, path_scale = _recursion_reference(pole, weights, normals)
                expected += paths
                scale += path_scale
                if d == 1:
                    assert np.abs(out - expected).max() <= bound * scale, (decay, pole, j)
                    if j == 0:
                        old = lfilter([1.0], [1.0, -pole], weights[0] * normals, axis=1).real
                        assert np.abs(out - old).max() <= 2.0 * bound * scale
            assert np.abs(out - expected).max() <= bound * scale, (decay, d)


def test_recursion_kernel_rows_do_not_depend_on_their_neighbours():
    # 39 rows at once, one row and two rows must give the same bits, as
    # chunked and m-prefix ensembles rely on
    rng = np.random.default_rng(5)
    m, n = 39, 1000
    normals = rng.standard_normal((m, n))
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for decay in _DECAYS:
        for pole in (cmath.exp(complex(-decay, 0.3)), math.exp(-decay)):
            whole, rows = np.empty((m, n)), np.empty((m, n))
            _recur(pole, weights, normals, whole)
            for i in range(0, m, 3):
                _recur(pole, weights, normals[i : i + 1], rows[i : i + 1])
                _recur(pole, weights, normals[i + 1 : i + 3], rows[i + 1 : i + 3])
            assert whole.tobytes() == rows.tobytes(), (decay, pole)


@pytest.mark.parametrize("n", (2, 16, 64))
@pytest.mark.parametrize("poles_kind, weights_kind", [("real", "real"), ("complex", "complex"),
                                                      ("complex", "real")])
def test_step_loop_matches_a_long_double_loop(monkeypatch, n, poles_kind, weights_kind):
    # bound fixed before the first run, as for _recur: 1e-13 of the path
    # scale.  One call stacks six filters, each with its own pole and per-step
    # weights (real or complex poles at any angle, real or complex weights),
    # from |p| near 1 to a pole whose one-step decay passes _BLOCK_DECAY.
    # The loop is held to it up to n 64, past the route's crossover
    monkeypatch.setattr(mode_sampler, "_STEP_LOOP_STEPS", 64)
    rng = np.random.default_rng(n)
    decays = (1e-9, 1e-4, 0.5, 20.0, 250.0, 400.0)
    angles = (0.1, 3.0, 512.0, 1.0, -2.0, 0.7) if poles_kind == "complex" else (0.0,) * 6
    poles = [cmath.exp(complex(-d, a)) for d, a in zip(decays, angles)]
    if poles_kind == "real":
        poles = [pole.real for pole in poles]
    weights = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    if weights_kind == "real":
        weights = weights.real.copy()
    # the last filter's every other step has no input of its own
    weights[5, 1::2] = 0.0
    normals = rng.standard_normal((6, 3, n))
    out = np.empty_like(normals)
    _filter_paths(poles, weights, [1] * 6, normals, out)
    for pole, row_weights, row_normals, paths in zip(poles, weights, normals, out):
        expected, scale = _recursion_reference(pole, row_weights, row_normals)
        assert np.abs(paths - expected).max() <= 1e-13 * scale, (n, pole)
    # e^-400 is taken as exactly 0, so every step is its own input: the steps
    # with no input are 0, not e^-400 times the step before
    assert (out[5] == weights[5].real * normals[5]).all()
    assert not out[5, :, 1::2].any()
    # one array for normals and paths gives the same bits
    _filter_paths(poles, weights, [1] * 6, normals, normals)
    assert normals.tobytes() == out.tobytes()


@pytest.mark.parametrize("factor", (1e250, 1e-150, 1e-200))
def test_recursion_kernel_scales_with_its_weights(factor):
    # the in-block weights reach e^300 times the largest weight, so only the
    # kernel's own normalisation keeps 1e250 finite; at 1e-200 the factors
    # pole^t times the weight would fall below the normal range (e^-300 is
    # about 5e-131), so the weight must be applied on its own
    rng = np.random.default_rng(8)
    n = 1000
    normals = rng.standard_normal((3, n))
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for decay in _DECAYS:
        for pole in (cmath.exp(complex(-decay, 0.7)), math.exp(-decay)):
            unit, scaled = np.empty((3, n)), np.empty((3, n))
            _recur(pole, weights, normals, unit)
            _recur(pole, factor * weights, normals, scaled)
            assert np.isfinite(scaled).all()
            assert np.abs(scaled / factor - unit).max() <= 1e-14 * np.abs(unit).max()


@pytest.mark.parametrize("lam", (1e100, 1e-100, 1e-160, 1e-200))
def test_paths_at_extreme_weights_are_finite_and_scale_exactly(lam):
    # every route builds its law for unit noise and applies lam once, where
    # paths are read out, so nothing holds lam^2 (below the double range at
    # 1e-200): paths neither overflow nor underflow and are lam times the
    # lam = 1 paths; their variance is lam^2/alpha (gle) or lam^2/(2 alpha)
    # (memoryless), within 5 standard errors over independent paths.  Routes:
    # innovations form, state recursion, circulant, the critical-damping
    # step matrix, the AR(1) baseline and the harmonic superposition
    grid = TimeGrid(dt=0.05, n=512)
    m = 256
    # the three-atom kernel's state recursion, d = 4 normals per step
    normals = _stream(2, 1).standard_normal((m, 4, grid.n))

    def state(mode):
        paths = np.empty((m, grid.n))
        _Markov(THREE, [mode], grid).recursion(0)[1](normals, paths)
        return paths

    # critical damping at alpha 10: x^2 = 4 alpha w
    critical = KernelMeasure([(0.1, 2.0)])
    assert _Markov(critical, [Mode(1, 10.0, 1.0)]).eig == [None]
    assert sample_gle_mode(THREE, Mode(1, 10.0, 1.0), grid, 1, seed=2).method == "circulant"
    ensembles = [
        (lambda mode: sample_gle_mode(SINGLE, mode, grid, m, seed=2).values, 1.0),
        (state, 1.0),
        (lambda mode: sample_gle_mode(THREE, mode, grid, m, seed=2).values, 1.0),
        (lambda mode: sample_gle_mode(critical, mode, grid, m, seed=2).values, 1.0),
        (lambda mode: sample_ou_mode(mode, grid, m, seed=2).values, 0.5),
        (lambda mode: sample_gle_mode_spectral(SINGLE, mode, grid, m, seed=2).values, 1.0),
    ]
    for draw, share in ensembles:
        paths = draw(Mode(1, 10.0, lam))
        assert np.isfinite(paths).all()
        unit = draw(Mode(1, 10.0, 1.0))
        assert np.abs(paths / lam - unit).max() <= 1e-14 * np.abs(unit).max()
        per_path = ((paths / lam) ** 2).mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(m)
        assert abs(per_path.mean() - share / 10.0) <= 5.0 * se


def test_superposition_memory_does_not_grow_with_path_length():
    # the cos and sin tables are built one block of _TIME_BLOCK columns at
    # a time: two (4096, 256) float tables are 16 MiB, the paths, draws
    # and weighted draws about 1 MiB more; whole (4096, n) tables would take
    # three times 512 MiB here
    grid = TimeGrid(dt=0.05, n=16384)
    tracemalloc.start()
    try:
        ens = sample_gle_mode_spectral(SINGLE, Mode(1, 10.0, 1.0), grid, 4, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(ens.values).all()
    assert peak <= 24 * 2**20


def _record_draws(monkeypatch):
    """Route every sampler's stream through a wrapper; returns the list that
    collects the size of each standard_normal draw."""
    drawn = []
    stream = mode_sampler._stream

    class Recording:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            draw = self.gen.standard_normal(*args, **kwargs)
            drawn.append(draw.size)
            return draw

    monkeypatch.setattr(mode_sampler, "_stream", lambda seed, k: Recording(stream(seed, k)))
    return drawn


def test_one_atom_mode_draws_one_normal_per_step(monkeypatch):
    drawn = _record_draws(monkeypatch)
    n = 256
    for mode in (Mode(1, 5.0, 1.0), Mode(1, 0.1, 1.0)):
        drawn.clear()
        ens = sample_gle_mode(SINGLE, mode, TimeGrid(dt=0.125, n=n), 3, seed=0)
        assert ens.method == "recursion"
        assert drawn == [3 * n]


# one-atom gle (innovations form), a three-atom mode on the circulant, the
# superposition and the AR(1) baseline
_SAMPLERS = {
    "recursion": lambda grid, m: sample_gle_mode(SINGLE, Mode(2, 5.0, 1.0), grid, m, seed=3),
    "circulant": lambda grid, m: sample_gle_mode(THREE, Mode(3, 10.0, 1.0), grid, m, seed=3),
    "spectral": lambda grid, m: sample_gle_mode_spectral(SINGLE, Mode(2, 5.0, 1.0), grid, m,
                                                         seed=3),
    "ou": lambda grid, m: sample_ou_mode(Mode(2, 5.0, 1.0), grid, m, seed=3),
}


@pytest.mark.parametrize("route", sorted(_SAMPLERS))
def test_each_chunk_is_one_draw(monkeypatch, route):
    drawn = _record_draws(monkeypatch)
    monkeypatch.setattr(mode_sampler, "_PATH_CHUNK", 2)
    ens = _SAMPLERS[route](TimeGrid(dt=0.125, n=64), 5)
    assert ens.method == route
    assert len(drawn) == math.ceil(5 / 2)


@pytest.mark.parametrize("route", sorted(_SAMPLERS))
def test_ensembles_do_not_depend_on_chunk_size(monkeypatch, route):
    grid = TimeGrid(dt=0.125, n=64)
    whole = _SAMPLERS[route](grid, 7)
    assert whole.method == route
    monkeypatch.setattr(mode_sampler, "_PATH_CHUNK", 3)
    chunked = _SAMPLERS[route](grid, 7).values
    if route == "spectral":
        # the same normals, but the superposition is a BLAS product whose
        # rounding depends on the chunk's row count (a one-row chunk takes
        # a matrix-vector kernel)
        assert np.abs(chunked - whole.values).max() <= 1e-13 * np.abs(whole.values).max()
    else:
        assert chunked.tobytes() == whole.values.tobytes()


def test_ou_marginal_moments():
    grid = TimeGrid(dt=0.1, n=256)
    ens = sample_ou_mode(Mode(2, 2.0, 1.0), grid, 2048, seed=11)
    v = ens.values
    per_path = v.var(axis=1)
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    assert abs(v.var() - 0.25) <= 4.0 * se
    phi = math.exp(-2.0 * grid.dt)
    lag1 = (v[:, 1:] * v[:, :-1]).mean() / v.var()
    assert abs(lag1 - phi) <= 0.005


def _check_lag_covariances(kernel, mode, ens, lags):
    v = ens.values
    sd = SpectralDensity(kernel, mode)
    for j in lags:
        prod = v[:, j:] * v[:, : v.shape[1] - j] if j else v * v
        per_path = prod.mean(axis=1)
        est = per_path.mean()
        se = per_path.std(ddof=1) / math.sqrt(len(per_path))
        truth = autocovariance(sd, j * ens.grid.dt, 1e-8)
        assert abs(est - truth) <= 4.0 * se


def test_recursion_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    ens = sample_gle_mode(SINGLE, mode, grid, 1024, seed=5)
    assert ens.method == "recursion"
    _check_lag_covariances(SINGLE, mode, ens, (0, 1, 2, 4, 8, 16))


def test_circulant_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    ens = sample_gle_mode(THREE, mode, grid, 1024, seed=5)
    assert ens.method == "circulant"
    _check_lag_covariances(THREE, mode, ens, (0, 1, 2, 4, 8, 16))


def test_spectral_route_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    sd = SpectralDensity(SINGLE, mode)
    ens = sample_gle_mode_spectral(SINGLE, mode, grid, 1024, seed=6)
    v = ens.values
    for j in (0, 8, 16):
        prod = v[:, j:] * v[:, : v.shape[1] - j] if j else v * v
        per_path = prod.mean(axis=1)
        est = per_path.mean()
        se = per_path.std(ddof=1) / math.sqrt(len(per_path))
        truth = autocovariance(sd, j * grid.dt, 1e-8)
        assert abs(est - truth) <= 4.0 * se


def test_paths_look_gaussian():
    grid = TimeGrid(dt=0.5, n=2048)
    ens = sample_gle_mode(SINGLE, Mode(1, 2.0, 1.0), grid, 512, seed=9)
    pool = ens.values[:, ::4].ravel()
    kurt = ((pool - pool.mean()) ** 4).mean() / pool.var() ** 2
    assert abs(kurt - 3.0) <= 0.1


def test_stationarity_across_halves():
    grid = TimeGrid(dt=0.5, n=2048)
    ens = sample_gle_mode(SINGLE, Mode(1, 2.0, 1.0), grid, 512, seed=9)
    half = grid.n // 2
    va = ens.values[:, :half].var()
    vb = ens.values[:, half:].var()
    assert 0.95 <= va / vb <= 1.05


def test_short_resonant_grid_samples_exactly():
    # the circulant of this strongly resonant covariance, truncated
    # mid-oscillation, stays indefinite even at 8n; the recursion is exact
    mode = Mode(1, 1e4, 1.0)
    grid = TimeGrid(dt=1e-3, n=16)
    ens = sample_gle_mode(SINGLE, mode, grid, 4096, seed=0)
    assert ens.method == "recursion"
    _check_lag_covariances(SINGLE, mode, ens, (0, 1, 2, 4, 8))


def test_ensemble_metadata():
    grid = TimeGrid(dt=0.125, n=64)
    ens = sample_gle_mode(SINGLE, Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert ens.method == "recursion"
    assert ens.m == 4
    assert ens.embedding_length == 0
    assert ens.clipped_mass == 0.0
    ens = sample_gle_mode(THREE, Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert ens.method == "circulant"
    assert ens.embedding_length >= 2 * grid.n
    assert ens.clipped_mass >= 0.0
    ou = sample_ou_mode(Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert ou.method == "ou"


def test_sample_knows_exactly_the_listed_laws():
    grid = TimeGrid(dt=0.125, n=16)
    routes = [mode_sampler._sample(law, SINGLE, Mode(2, 5.0, 1.0), grid, 2, seed=3).method
              for law in mode_sampler.LAWS]
    assert routes == ["recursion", "ou", "spectral"]
    with pytest.raises(ValueError, match="unknown dynamics 'wave'"):
        mode_sampler._sample("wave", SINGLE, Mode(2, 5.0, 1.0), grid, 2, seed=3)


def test_spectral_nodes_cover_variance():
    sd = SpectralDensity(SINGLE, Mode(1, 100.0, 1.0))
    nodes, widths = spectral_nodes(sd)
    covered = 2.0 * float(np.sum(rho(sd, nodes) * widths))
    assert covered == pytest.approx(0.01, rel=5e-3)
