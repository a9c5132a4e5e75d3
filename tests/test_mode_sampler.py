"""Path synthesis: circulant embedding, harmonic superposition, AR(1) baseline."""

import math

import numpy as np
import pytest

from glefield import spectral
from glefield.cm_kernel import KernelMeasure
from glefield.mode_sampler import (
    EmbeddingNotPSD,
    TimeGrid,
    circulant_eigenvalues,
    paths_from_normals,
    sample_gle_mode,
    sample_gle_mode_spectral,
    sample_ou_mode,
    spectral_nodes,
)
from glefield.spectral import Mode, SpectralDensity, autocovariance, rho

SINGLE = KernelMeasure([(1.0, 1.0)])


def test_time_grid():
    grid = TimeGrid(dt=0.25, n=5, t0=1.0)
    assert np.array_equal(grid.times, 1.0 + 0.25 * np.arange(5))
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, n=4)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, n=1)


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


def test_embedding_computes_the_covariance_sequence_at_most_twice(monkeypatch):
    # this mode needs the full 8n embedding; the 2n and 4n probes must reuse
    # prefixes of one 8n + 1 sequence instead of computing their own
    counts = []
    real = spectral.autocovariance_sequence

    def counting(sd, dt, count, rel_tol=1e-6):
        counts.append(count)
        return real(sd, dt, count, rel_tol)

    monkeypatch.setattr(spectral, "autocovariance_sequence", counting)
    grid = TimeGrid(dt=2.0**-6, n=256)
    ens = sample_gle_mode(SINGLE, Mode(1, 1.0, 1.0), grid, 2, seed=0)
    assert ens.embedding_length == 16 * grid.n
    assert counts == [grid.n + 1, 8 * grid.n + 1]


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


def test_circulant_matches_quadrature_covariance():
    grid = TimeGrid(dt=2.0**-6, n=512)
    mode = Mode(3, 10.0, 1.0)
    sd = SpectralDensity(SINGLE, mode)
    ens = sample_gle_mode(SINGLE, mode, grid, 1024, seed=5)
    v = ens.values
    for j in (0, 1, 2, 4, 8, 16):
        prod = v[:, j:] * v[:, : v.shape[1] - j] if j else v * v
        per_path = prod.mean(axis=1)
        est = per_path.mean()
        se = per_path.std(ddof=1) / math.sqrt(len(per_path))
        truth = autocovariance(sd, j * grid.dt, 1e-8)
        assert abs(est - truth) <= 4.0 * se


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


def test_embedding_not_psd_on_short_resonant_grid():
    # a strongly resonant covariance truncated mid-oscillation stays
    # indefinite even after padding to 8n
    mode = Mode(1, 1e4, 1.0)
    grid = TimeGrid(dt=1e-3, n=16)
    with pytest.raises(EmbeddingNotPSD) as info:
        sample_gle_mode(SINGLE, mode, grid, 2, seed=0)
    assert info.value.clipped_mass > 1e-6


def test_ensemble_metadata():
    grid = TimeGrid(dt=0.125, n=64)
    ens = sample_gle_mode(SINGLE, Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert ens.method == "circulant"
    assert ens.m == 4
    assert ens.embedding_length >= 2 * grid.n
    assert ens.clipped_mass >= 0.0
    ou = sample_ou_mode(Mode(2, 5.0, 1.0), grid, 4, seed=3)
    assert ou.method == "ou"


def test_spectral_nodes_cover_variance():
    sd = SpectralDensity(SINGLE, Mode(1, 100.0, 1.0))
    nodes, widths = spectral_nodes(sd, 4096)
    covered = 2.0 * float(np.sum(rho(sd, nodes) * widths))
    assert covered == pytest.approx(0.01, rel=5e-3)
    with pytest.raises(ValueError):
        spectral_nodes(sd, 128)
