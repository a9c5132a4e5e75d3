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
    _filter_block,
    _filter_paths,
    _stream,
    circulant_eigenvalues,
    paths_from_normals,
    sample,
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
    a = sample("gle", SINGLE, [mode], grid, 8, seed=3)[0]
    b = sample("gle", SINGLE, [mode], grid, 8, seed=3)[0]
    assert np.array_equal(a.values, b.values)
    small = sample("gle", SINGLE, [mode], grid, 4, seed=3)[0]
    assert np.array_equal(small.values, a.values[:4])
    other = sample("gle", SINGLE, [mode], grid, 8, seed=4)[0]
    assert not np.array_equal(other.values, a.values)


def test_streams_differ_across_modes():
    grid = TimeGrid(dt=0.125, n=64)
    a = sample("heat", None, [Mode(1, 5.0, 1.0)], grid, 4, seed=3)[0]
    b = sample("heat", None, [Mode(2, 5.0, 1.0)], grid, 4, seed=3)[0]
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
    sample("heat", None, [mode], grid, 4, seed=3)
    sample("gle", SINGLE, [mode], grid, 4, seed=3)
    sample("spectral", SINGLE, [mode], grid, 2, seed=3)
    assert calls == []


def test_zero_weight_paths_are_zero():
    mode = Mode(1, 4.0, 0.0)
    grid = TimeGrid(dt=0.1, n=32)
    for sampler in (
        lambda: sample("gle", SINGLE, [mode], grid, 3, seed=0)[0],
        lambda: sample("spectral", SINGLE, [mode], grid, 3, seed=0)[0],
        lambda: sample("heat", None, [mode], grid, 3, seed=0)[0],
    ):
        assert not sampler().values.any()


def test_sampling_argument_validation():
    grid = TimeGrid(dt=0.1, n=16)
    mode = Mode(1, 4.0, 1.0)
    with pytest.raises(ValueError):
        sample("gle", SINGLE, [mode], grid, 0, seed=0)
    with pytest.raises(ValueError):
        sample("heat", None, [mode], grid, 4, seed=-1)
    # a bool or a float is not a seed or an ensemble size (True would pass for 1)
    for m, seed in ((4, True), (4, False), (True, 1), (2.0, 1), (4, 1.0)):
        for law, kernel in (("gle", SINGLE), ("spectral", SINGLE), ("heat", None)):
            with pytest.raises(ValueError):
                sample(law, kernel, [mode], grid, m, seed)
    # numpy integers stay valid
    a = sample("heat", None, [mode], grid, np.int64(3), seed=np.int64(7))[0].values
    assert a.tobytes() == sample("heat", None, [mode], grid, 3, seed=7)[0].values.tobytes()


# every route of the sampler: innovations form, two-atom state recursion,
# circulant, critical damping (the real step matrix), zero weight, AR(1)
# baseline and superposition, each as (law, kernel, mode, method)
_TWO = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])
_ROUTES = {
    "innovations": ("gle", SINGLE, Mode(2, 5.0, 1.0), "recursion"),
    "state": ("gle", _TWO, Mode(1, 0.05, 0.8), "recursion"),
    "circulant": ("gle", THREE, Mode(3, 10.0, 1.0), "circulant"),
    "critical": ("gle", *CRITICAL[0], "recursion"),
    "zero": ("gle", SINGLE, Mode(1, 4.0, 0.0), "recursion"),
    "ou": ("heat", None, Mode(2, 5.0, 1.0), "ou"),
    "spectral": ("spectral", SINGLE, Mode(2, 5.0, 1.0), "spectral"),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_out_takes_the_allocating_calls_bytes(route):
    law, kernel, mode, method = _ROUTES[route]
    grid = TimeGrid(dt=0.125, n=64)
    (alone,) = sample(law, kernel, [mode], grid, 5, 3)
    assert alone.method == method
    if route == "state":
        # three state coordinates per step
        assert _Markov(_TWO, [Mode(1, 0.05, 0.8)], grid).recursion(0)[0] == (3, grid.n)
    # a slot of a block buffer, then a strided stack of two (a worker's
    # share of a block), filled with garbage first
    block = np.full((5, 5, grid.n), np.nan)
    for stack, rest in ((block[1:2], [0, 2, 3, 4]), (block[1::2], [0, 2, 4])):
        ensembles = sample(law, kernel, [mode] * len(stack), grid, 5, 3, out=stack)
        for slot, ens in zip(stack, ensembles):
            assert np.shares_memory(ens.values, slot)
            assert slot.tobytes() == alone.values.tobytes()
        assert np.isnan(block[rest]).all()


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_out_must_fit_the_paths(route):
    law, kernel, mode, _ = _ROUTES[route]
    grid = TimeGrid(dt=0.125, n=64)
    frozen = np.empty((1, 5, grid.n))
    frozen.flags.writeable = False
    for bad in (np.empty((1, 5, grid.n + 1)), np.empty((1, 4, grid.n)), np.empty((5, grid.n)),
                np.empty((2, 5, grid.n)), np.empty(5 * grid.n),
                np.empty((1, 5, grid.n), dtype=np.float32), np.empty((1, grid.n, 5)).transpose(0, 2, 1),
                np.empty((1, 5, 2 * grid.n))[..., ::2], frozen, [[[0.0] * grid.n] * 5]):
        with pytest.raises(ValueError):
            sample(law, kernel, [mode], grid, 5, 3, out=bad)


def test_seeds_must_fit_in_64_bits():
    # the Philox key holds the seed in 64 bits: a wider seed would alias a
    # smaller one instead of giving a new ensemble
    grid = TimeGrid(dt=0.1, n=16)
    mode = Mode(1, 4.0, 1.0)
    assert sample("heat", None, [mode], grid, 2, seed=2**64 - 1)[0].values.shape == (2, 16)
    for sampler in (
        lambda seed: sample("gle", SINGLE, [mode], grid, 2, seed)[0],
        lambda seed: sample("spectral", SINGLE, [mode], grid, 2, seed)[0],
        lambda seed: sample("heat", None, [mode], grid, 2, seed)[0],
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
    ens = [sample("gle", SINGLE, [Mode(1, 1.0, 1.0)], grid, 2, seed=0)[0],
           sample("gle", THREE, [Mode(3, 10.0, 1.0)], grid, 2, seed=0)[0]]
    assert [e.method for e in ens] == ["recursion", "circulant"]
    assert calls == []


def test_route_draws_the_fewer_normals():
    # a single atom (d = 2) recurses at once: n*d <= 2n, and its innovations
    # form draws only n; the 65-dimensional power-law embedding would draw 65n
    # normals per path, so it takes the circulant at the first PSD length,
    # here L = 2n
    grid = TimeGrid(dt=2.0**-8, n=4096)
    single = sample("gle", SINGLE, [Mode(4, 16.0, 1.0)], grid, 2, seed=0)[0]
    assert (single.method, single.embedding_length) == ("recursion", 0)
    power = discretize(PowerLaw(1.0, 64))
    ens = sample("gle", power, [Mode(4, 16.0, 1.0)], grid, 2, seed=0)[0]
    assert ens.method == "circulant"
    assert ens.embedding_length == 4 * grid.n


def test_clipped_mass_is_never_negative_zero():
    # an embedding with no negative eigenvalue clips nothing: +0.0, not -0.0
    grid = TimeGrid(dt=0.125, n=64)
    ens = sample("gle", discretize(PowerLaw(1.0, 8)), [Mode(2, 5.0, 1.0)], grid, 2, seed=0)[0]
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
        batch = sample("gle", kernel, modes, grid, 5, 9, setup)
        for mode, route, ens in zip(modes, routes, batch):
            alone = sample("gle", kernel, [mode], grid, 5, seed=9)[0]
            assert ens.method == alone.method == route
            assert ens.values.tobytes() == alone.values.tobytes(), mode
    single = _Markov(SINGLE, batches[0][1], grid)
    assert np.isreal(single.eig[1][0]).all() and single.eig[2] is None
    assert sorted(single._gains) == [0, 1]
    for kernel, mode, other_grid in ((SINGLE, Mode(1, 5.0, 1.0), TimeGrid(dt=0.25, n=16)),
                                     (SINGLE, Mode(5, 5.0, 1.0), grid),
                                     (_TWO, Mode(1, 5.0, 1.0), grid)):
        with pytest.raises(ValueError, match="set-up was built for another"):
            sample("gle", kernel, [mode], other_grid, 2, 0, single)
    # a zero-weight mode needs no place in the set-up
    (zero,) = sample("gle", SINGLE, [Mode(5, 5.0, 0.0)], grid, 2, 0, single)
    assert not zero.values.any()


def test_degenerate_eigenbasis_falls_back_to_the_step_matrix():
    for kernel, mode in CRITICAL:
        assert _Markov(kernel, [mode]).eig == [None]
        ens = sample("gle", kernel, [mode], TimeGrid(dt=0.25, n=64), 2, seed=0)[0]
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


def test_oracle_increment_at_lags_where_the_eigenbasis_terms_cancel():
    # at small |mu h| the eigenbasis sum -2 r(0) Re sum c_i expm1(mu_i h)
    # cancels terms of order h to a result of order h^2 (at h = 8e-18 on one
    # atom it read -1.54e-33); such lags take the step law.  Against the
    # short-lag expansion lambda^2 (K(0) h^2 - sum_i w_i x_i h^3 / 3), whose
    # next term is h^4 smaller than the first
    lags = np.array([8e-18, 1e-8])
    for kernel in (SINGLE, _TWO, THREE):
        k0, slope = kernel.weights.sum(), (kernel.weights * kernel.rates).sum()
        modes = [Mode(1, 1.0, 1.0), Mode(2, 4.0, 0.5), Mode(3, 1e4, 1e-3)]
        lam = np.array([mode.lambda_k for mode in modes])[:, None]
        expected = lam**2 * (k0 * lags**2 - slope * lags**3 / 3.0)
        for law in ("gle", "spectral"):
            increments = mode_sampler._law(law, kernel, modes, lags=lags)[2]
            np.testing.assert_allclose(increments, expected, rtol=1e-12, atol=0.0)


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
                images = np.eye(n)
                _filter_paths([emb.innovations(0)], images[None], images[None])
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
    # past the step loop an overdamped mode's two real poles are filtered
    # together, and the second must still read the normals, not the first's
    # paths: byte-equal to the same normals filtered into a separate array
    mode, grid = Mode(1, 0.1, 1.0), TimeGrid(0.125, 256)
    assert grid.n > mode_sampler._STEP_LOOP_STEPS
    emb = _Markov(SINGLE, [mode], grid)
    poles, weights = emb.innovations(0)
    assert len(poles) == 2 and np.isreal(poles).all()
    normals = _stream(3, mode.index).standard_normal((1, 5, grid.n))
    expected = np.empty_like(normals)
    _filter_paths([(poles, weights)], normals, expected)
    assert sample("gle", SINGLE, [mode], grid, 5, 3)[0].values.tobytes() == expected.tobytes()


def test_stacked_filters_match_one_kernel_call_per_slot(monkeypatch):
    # past the step loop one _filter_paths call hands the kernel each run of
    # adjacent slots whose filters share their shapes as one stack, and each
    # slot's rows are byte-equal to a kernel call of its own: AR(1) slots,
    # an overdamped mode's slots of two real poles, innovations slots that
    # settle at different steps, and a slot left alone
    stacks = []
    kernel = mode_sampler._filter_block

    def counting(poles, weights, normals, out):
        stacks.append(len(poles))
        kernel(poles, weights, normals, out)

    monkeypatch.setattr(mode_sampler, "_filter_block", counting)
    grid = TimeGrid(0.25, 200)
    assert grid.n > mode_sampler._STEP_LOOP_STEPS
    heat = [mode_sampler._filter("heat", Mode(k, float(k * k), 1.0), grid, None)
            for k in (1, 2, 3, 4)]
    emb = _Markov(KernelMeasure([(1.0, 5.0)]), [Mode(k, float(k * k), 1.0) for k in (1, 2, 3, 4, 9)],
                  grid)
    gle = [emb.innovations(i) for i in range(5)]
    assert [w.shape for _, w in gle] == [(2, 14), (2, 14), (1, 14), (1, 15), (1, 20)]
    filters = heat[:3] + [None] + gle + heat[3:]
    normals = np.random.default_rng(4).standard_normal((len(filters), 5, grid.n))
    out = np.full_like(normals, np.nan)
    _filter_paths(filters, normals, out)
    assert stacks == [3, 2, 1, 1, 1, 1]
    assert np.isnan(out[3]).all()
    for k, f in enumerate(filters):
        if f is not None:
            alone = np.empty((1, 5, grid.n))
            kernel(f[0][None], f[1][None, :, None], normals[k : k + 1], alone)
            assert out[k].tobytes() == alone.tobytes(), k
    # one array for normals and paths gives the same bits
    _filter_paths(filters, normals, normals)
    assert np.delete(normals, 3, axis=0).tobytes() == np.delete(out, 3, axis=0).tobytes()
    # a stack holds as many slots as _STACK_BYTES of normals: two of 16 x
    # 1600 steps, one of field_time's 16 x 4096
    stacks.clear()
    normals = np.random.default_rng(5).standard_normal((5, 16, 1600))
    _filter_paths([heat[0]] * 5, normals, normals)
    assert stacks == [2, 2, 1]
    assert mode_sampler._STACK_BYTES // (16 * 4096 * 8) == 1
    # each slot of a stack is scaled on its own: weights of 1e-200 (which
    # enter scaled to 1) beside weights that do not
    poles, weights = heat[0]
    filters = [(poles, weights), (poles, 1e-200 * weights), (poles, weights)]
    normals = np.random.default_rng(6).standard_normal((3, 5, grid.n))
    out = np.empty_like(normals)
    stacks.clear()
    _filter_paths(filters, normals, out)
    assert stacks == [3]
    for k, (p, w) in enumerate(filters):
        alone = np.empty((1, 5, grid.n))
        kernel(p[None], w[None, :, None], normals[k : k + 1], alone)
        assert out[k].tobytes() == alone.tobytes(), k


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


# per-step decays -log|p|: from |p| near 1 to a pole whose powers leave the
# double range after one step
_DECAYS = (1e-4, 1e-2, 0.5, 20.0, 50.0, 1e3)


@pytest.mark.parametrize("n", (2, 16, 1000, 4096))
@pytest.mark.parametrize("angle", (0.0, 0.1, 3.0, 512.0))
def test_recursion_kernel_matches_a_long_double_loop(n, angle):
    # bound fixed before the first run, from rounding (about eps * sqrt(steps
    # in play)): 1e-13 of the path scale.  The leading weights vary per step,
    # as the innovations gains do, and hold from step 19 on; d = 3 stacks
    # normals as the state route does.  One pole is filtered alone, then
    # both poles together into one sum.
    rng = np.random.default_rng(n + int(10 * angle))
    bound = 1e-13
    for decay in _DECAYS:
        poles = np.array([cmath.exp(complex(-decay, angle)), cmath.exp(complex(-2.0 * decay, -angle))])
        if angle == 0.0:
            poles = poles.real
        for d in (1, 3):
            weights = rng.standard_normal((2, d, n)) + 1j * rng.standard_normal((2, d, n))
            weights[..., 20:] = weights[..., 19:20]
            normals = rng.standard_normal((3, d, n) if d > 1 else (3, n))
            expected = np.zeros((3, n), dtype=np.longdouble)
            scale = 0.0
            for j in (0, 1):
                out = np.empty((3, n))
                _filter_block(poles[None, : j + 1], weights[None, : j + 1, :, :20], normals[None],
                              out[None])
                paths, path_scale = _recursion_reference(poles[j], weights[j], normals)
                expected += paths
                scale += path_scale
                assert np.abs(out - expected).max() <= bound * scale, (decay, d, j)
                if d == 1 and j == 0:
                    old = lfilter([1.0], [1.0, -poles[0]], weights[0, 0] * normals, axis=1).real
                    assert np.abs(out - old).max() <= 2.0 * bound * scale


_S = mode_sampler._BLOCK_STEPS


@pytest.mark.parametrize("n, settle, decays", [
    (3 * _S + 5, 20, (1e-3, 0.5)),        # n not a multiple of the block length
    (_S - 3, 20, (1e-3, 0.5)),            # n shorter than one block
    (4 * _S, 2 * _S + 7, (1e-3, 0.5)),    # weights settling in the third block
    (3 * _S + 5, 20, (250.0, 400.0)),     # powers that leave the double range
    (3 * _S + 5, 20, (355.0, 1e-3)),      # p^2 = e^-710, subnormal but for the floor
])
def test_recursion_kernel_edges_match_a_long_double_loop(monkeypatch, n, settle, decays):
    # the bound above, 1e-13 of the path scale, for two complex poles at
    # once, one and three inputs a step; and no operand of any product holds
    # a subnormal number, however fast the poles' powers fall
    operands = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: operands.extend((a, b)) or matmul(a, b, **kw))
    rng = np.random.default_rng(n + settle)
    poles = np.array([cmath.exp(complex(-decays[0], 0.7)), cmath.exp(complex(-decays[1], -2.0))])
    for d in (1, 3):
        weights = rng.standard_normal((2, d, settle)) + 1j * rng.standard_normal((2, d, settle))
        normals = rng.standard_normal((3, d, n))
        out = np.empty((3, n))
        _filter_block(poles[None], weights[None], normals[None], out[None])
        steps = weights[..., np.minimum(np.arange(n), settle - 1)]
        expected, scale = np.zeros((3, n), dtype=np.longdouble), 0.0
        for pole, row_weights in zip(poles, steps):
            paths, path_scale = _recursion_reference(pole, row_weights, normals)
            expected += paths
            scale += path_scale
        assert np.abs(out - expected).max() <= 1e-13 * scale, d
    assert operands
    for x in operands:
        assert not ((x != 0.0) & (np.abs(x) < np.finfo(float).tiny)).any()


@pytest.mark.parametrize("dt, n", [(2.0**-10, 4096), (2.0**-8, 256)])
def test_state_recursion_of_many_atoms_matches_a_long_double_loop(dt, n):
    # the 64-node power law: 64 filters of 65 inputs each, whose blocks the
    # kernel shortens so that its products keep several block rows.  Bound
    # fixed before the first run: 1e-13 of the stationary sd, as above
    kernel = discretize(PowerLaw(1.0, 64))
    for k in (1, 16):
        emb = _Markov(kernel, [Mode(k, float(k * k), 1.0)], TimeGrid(dt, n))
        shape, synth = emb.recursion(0)
        normals = np.random.default_rng(k).standard_normal((2, *shape))
        paths = np.empty((2, n))
        synth(normals, paths)
        step, q = (stack[0] for stack in emb.transition(dt, [0]))
        val, vec = np.linalg.eigh(q)
        mu, head, inv = emb.eig[0]
        lift = (emb.lam[0] * emb.scale[0] * head[:, None] * inv).astype(np.clongdouble)
        z = normals.astype(np.longdouble)
        inputs = np.einsum("ck,mkn->mcn", lift @ (vec * np.sqrt(np.maximum(val, 0.0))), z)
        inputs[:, :, 0] = np.einsum("ck,mk->mc", lift, z[:, :, 0])
        pole = mode_sampler._decay(mu, dt).astype(np.clongdouble)
        y = np.zeros((2, len(mu)), dtype=np.clongdouble)
        expected = np.empty((2, n), dtype=np.longdouble)
        for j in range(n):
            y = pole * y + inputs[:, :, j]
            expected[:, j] = y.real.sum(axis=1)
        assert np.abs(paths - expected).max() <= 1e-13 * math.sqrt(emb.variance[0]), k


def test_recursion_kernel_rows_do_not_depend_on_their_neighbours():
    # 39 rows at once, one row and two rows must give the same bits, as
    # chunked and m-prefix ensembles rely on: weights that vary at every
    # step, and weights that settle in the second block
    rng = np.random.default_rng(5)
    m, n = 39, 1000
    normals = rng.standard_normal((m, n))
    weights = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[None, None]
    for decay in _DECAYS:
        for pole in (cmath.exp(complex(-decay, 0.3)), math.exp(-decay)):
            for table in (weights, weights[..., : _S + 9]):
                whole, rows = np.empty((m, n)), np.empty((m, n))
                _filter_block(np.array([[pole]]), table[None], normals[None], whole[None])
                for i in range(0, m, 3):
                    for lo, hi in ((i, i + 1), (i + 1, i + 3)):
                        _filter_block(np.array([[pole]]), table[None], normals[None, lo:hi],
                                      rows[None, lo:hi])
                assert whole.tobytes() == rows.tobytes(), (decay, pole)


@pytest.mark.parametrize("n", (2, 16, 64))
@pytest.mark.parametrize("poles_kind, weights_kind", [("real", "real"), ("complex", "complex"),
                                                      ("complex", "real")])
def test_step_loop_matches_a_long_double_loop(monkeypatch, n, poles_kind, weights_kind):
    # bound fixed before the first run, as for the block filter: 1e-13 of
    # the path scale.  One call stacks six filters, each with its own pole
    # and per-step weights (real or complex poles at any angle, real or
    # complex weights), from |p| near 1 to a pole below e^-300 after one
    # step.  The loop is held to it up to n 64, past the route's crossover
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
    filters = [(np.array([pole]), row[None]) for pole, row in zip(poles, weights)]
    normals = rng.standard_normal((6, 3, n))
    out = np.empty_like(normals)
    _filter_paths(filters, normals, out)
    for pole, row_weights, row_normals, paths in zip(poles, weights, normals, out):
        expected, scale = _recursion_reference(pole, row_weights, row_normals)
        assert np.abs(paths - expected).max() <= 1e-13 * scale, (n, pole)
    # e^-400 is taken as exactly 0, so every step is its own input: the steps
    # with no input are 0, not e^-400 times the step before
    assert (out[5] == weights[5].real * normals[5]).all()
    assert not out[5, :, 1::2].any()
    # one array for normals and paths gives the same bits
    _filter_paths(filters, normals, normals)
    assert normals.tobytes() == out.tobytes()


@pytest.mark.parametrize("factor", (1e250, 1e-150, 1e-200))
def test_recursion_kernel_scales_with_its_weights(monkeypatch, factor):
    # only powers |p|^t <= 1 meet the weights, so 1e250 stays finite; at
    # 1e-200 the factors pole^t times the weight would fall below the normal
    # range (e^-300 is about 5e-131), so the weight must be applied on its
    # own: no product sees a subnormal operand
    operands = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: operands.extend((a, b)) or matmul(a, b, **kw))
    rng = np.random.default_rng(8)
    n = 1000
    normals = rng.standard_normal((3, n))
    weights = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[None, None]
    for decay in _DECAYS:
        for pole in (cmath.exp(complex(-decay, 0.7)), math.exp(-decay)):
            unit, scaled = np.empty((3, n)), np.empty((3, n))
            _filter_block(np.array([[pole]]), weights[None], normals[None], unit[None])
            _filter_block(np.array([[pole]]), factor * weights[None], normals[None], scaled[None])
            assert np.isfinite(scaled).all()
            assert np.abs(scaled / factor - unit).max() <= 1e-14 * np.abs(unit).max()
    for x in operands:
        assert not ((x != 0.0) & (np.abs(x) < np.finfo(float).tiny)).any()


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
    assert sample("gle", THREE, [Mode(1, 10.0, 1.0)], grid, 1, seed=2)[0].method == "circulant"
    ensembles = [
        (lambda mode: sample("gle", SINGLE, [mode], grid, m, seed=2)[0].values, 1.0),
        (state, 1.0),
        (lambda mode: sample("gle", THREE, [mode], grid, m, seed=2)[0].values, 1.0),
        (lambda mode: sample("gle", critical, [mode], grid, m, seed=2)[0].values, 1.0),
        (lambda mode: sample("heat", None, [mode], grid, m, seed=2)[0].values, 0.5),
        (lambda mode: sample("spectral", SINGLE, [mode], grid, m, seed=2)[0].values, 1.0),
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
        ens = sample("spectral", SINGLE, [Mode(1, 10.0, 1.0)], grid, 4, seed=1)[0]
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
        ens = sample("gle", SINGLE, [mode], TimeGrid(dt=0.125, n=n), 3, seed=0)[0]
        assert ens.method == "recursion"
        assert drawn == [3 * n]


# one-atom gle (innovations form), a three-atom mode on the circulant, the
# superposition and the AR(1) baseline
_SAMPLERS = {
    "recursion": lambda grid, m: sample("gle", SINGLE, [Mode(2, 5.0, 1.0)], grid, m, seed=3)[0],
    "circulant": lambda grid, m: sample("gle", THREE, [Mode(3, 10.0, 1.0)], grid, m, seed=3)[0],
    "spectral": lambda grid, m: sample("spectral", SINGLE, [Mode(2, 5.0, 1.0)], grid, m, seed=3)[0],
    "ou": lambda grid, m: sample("heat", None, [Mode(2, 5.0, 1.0)], grid, m, seed=3)[0],
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
    ens = sample("heat", None, [Mode(2, 2.0, 1.0)], grid, 2048, seed=11)[0]
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
    ens = sample("gle", SINGLE, [mode], grid, 1024, seed=5)[0]
    assert ens.method == "recursion"
    _check_lag_covariances(SINGLE, mode, ens, (0, 1, 2, 4, 8, 16))


def test_circulant_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    ens = sample("gle", THREE, [mode], grid, 1024, seed=5)[0]
    assert ens.method == "circulant"
    _check_lag_covariances(THREE, mode, ens, (0, 1, 2, 4, 8, 16))


def test_spectral_route_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    sd = SpectralDensity(SINGLE, mode)
    ens = sample("spectral", SINGLE, [mode], grid, 1024, seed=6)[0]
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
    ens = sample("gle", SINGLE, [Mode(1, 2.0, 1.0)], grid, 512, seed=9)[0]
    pool = ens.values[:, ::4].ravel()
    kurt = ((pool - pool.mean()) ** 4).mean() / pool.var() ** 2
    assert abs(kurt - 3.0) <= 0.1


def test_stationarity_across_halves():
    grid = TimeGrid(dt=0.5, n=2048)
    ens = sample("gle", SINGLE, [Mode(1, 2.0, 1.0)], grid, 512, seed=9)[0]
    half = grid.n // 2
    va = ens.values[:, :half].var()
    vb = ens.values[:, half:].var()
    assert 0.95 <= va / vb <= 1.05


def test_short_resonant_grid_samples_exactly():
    # the circulant of this strongly resonant covariance, truncated
    # mid-oscillation, stays indefinite even at 8n; the recursion is exact
    mode = Mode(1, 1e4, 1.0)
    grid = TimeGrid(dt=1e-3, n=16)
    ens = sample("gle", SINGLE, [mode], grid, 4096, seed=0)[0]
    assert ens.method == "recursion"
    _check_lag_covariances(SINGLE, mode, ens, (0, 1, 2, 4, 8))


def test_ensemble_metadata():
    grid = TimeGrid(dt=0.125, n=64)
    ens = sample("gle", SINGLE, [Mode(2, 5.0, 1.0)], grid, 4, seed=3)[0]
    assert ens.method == "recursion"
    assert ens.m == 4
    assert ens.embedding_length == 0
    assert ens.clipped_mass == 0.0
    ens = sample("gle", THREE, [Mode(2, 5.0, 1.0)], grid, 4, seed=3)[0]
    assert ens.method == "circulant"
    assert ens.embedding_length >= 2 * grid.n
    assert ens.clipped_mass >= 0.0
    ou = sample("heat", None, [Mode(2, 5.0, 1.0)], grid, 4, seed=3)[0]
    assert ou.method == "ou"


def test_sample_knows_exactly_the_listed_laws():
    grid = TimeGrid(dt=0.125, n=16)
    routes = [sample(law, SINGLE, [Mode(2, 5.0, 1.0)], grid, 2, seed=3)[0].method
              for law in mode_sampler.LAWS]
    assert routes == ["recursion", "ou", "spectral"]
    with pytest.raises(ValueError, match="unknown dynamics 'wave'"):
        sample("wave", SINGLE, [Mode(2, 5.0, 1.0)], grid, 2, seed=3)


def test_spectral_nodes_cover_variance():
    sd = SpectralDensity(SINGLE, Mode(1, 100.0, 1.0))
    nodes, widths = spectral_nodes(sd)
    covered = 2.0 * float(np.sum(rho(sd, nodes) * widths))
    assert covered == pytest.approx(0.01, rel=5e-3)
