"""Spectral density evaluation, resonance location, and certified quadrature."""

import math

import numpy as np
import pytest

from glefield import mode_sampler, spectral
from glefield.cm_kernel import KernelMeasure, PowerLaw, discretize
from glefield.mode_sampler import _Markov, spectral_nodes
from glefield.spectral import (
    InequalityViolated,
    Mode,
    NoResonance,
    SpectralDensity,
    autocovariance,
    autocovariance_sequence,
    check_resonance_inequality,
    find_resonance,
    integrate_rho,
    rho,
)

SINGLE = KernelMeasure([(1.0, 1.0)])
MIX = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])
# critically damped modes: the drift has a double eigenvalue and is defective
CRITICAL = [(KernelMeasure([(1.0, 2.0)]), Mode(1, 1.0, 1.0)),
            (KernelMeasure([(0.25, 1.0)]), Mode(1, 1.0, 1.0))]

# independent oracle for r(5) at kernel e^{-t}, alpha=2, lambda=1:
# trapezoid rule on [0, 2000] with up to 8e6 points and Richardson
# extrapolation in the step; successive extrapolants agree to 8e-17
R5_ORACLE = 4.385630463837056e-02


def sd_single(alpha, lam=1.0):
    return SpectralDensity(SINGLE, Mode(1, alpha, lam))


def test_rho_spot_value_alpha_two():
    assert rho(sd_single(2.0), 0.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)


def test_rho_spot_value_at_resonance():
    # at alpha=100 the density simplifies; at omega=sqrt(99) it equals 1/(100 pi)
    val = rho(sd_single(100.0), math.sqrt(99.0))
    assert val == pytest.approx(1.0 / (100.0 * math.pi), rel=1e-12)


def test_rho_even_and_nonnegative():
    sd = SpectralDensity(MIX, Mode(2, 7.0, 2.0))
    grid = np.linspace(-50.0, 50.0, 501)
    vals = rho(sd, grid)
    assert np.all(vals >= 0.0)
    assert np.allclose(vals, vals[::-1], rtol=1e-13, atol=0.0)


def test_rho_vectorized_matches_scalar():
    sd = SpectralDensity(MIX, Mode(2, 7.0, 2.0))
    grid = np.geomspace(1e-2, 1e3, 17)
    vec = rho(sd, grid)
    for w, v in zip(grid, vec):
        assert v == pytest.approx(rho(sd, float(w)), rel=1e-15)


@pytest.mark.parametrize("count", [1, 32, 33, 64])
def test_both_scalar_rho_closures_match_the_array_rho(count, monkeypatch):
    # the loop closure (at most _LOOP_ATOMS atoms) and the numpy one (more)
    # are the same function, whichever side of the switch a kernel falls
    kernel = KernelMeasure(list(zip(np.full(count, 1.0 / count), np.geomspace(0.1, 50.0, count))))
    sd = SpectralDensity(kernel, Mode(3, 9.0, 1.0))
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)])
    want = spectral._unit_rho(sd, grid)
    for switch in (count, count - 1):
        monkeypatch.setattr(spectral, "_LOOP_ATOMS", switch)
        f = spectral._scalar_rho(sd)
        got = np.array([f(float(om)) for om in grid])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_find_resonance_closed_forms():
    res = find_resonance(sd_single(100.0))
    assert res.omega_r == pytest.approx(math.sqrt(99.0), abs=1e-11)
    assert find_resonance(sd_single(2.0)).omega_r == pytest.approx(1.0, abs=1e-12)


def test_find_resonance_residual_and_constant():
    res = find_resonance(sd_single(1000.0))
    g = 1.0 - 1000.0 * (1.0 / (1.0 + res.omega_r**2))
    assert abs(g) <= 1e-12
    # c = K_sin(1) / (4 K(0)) = 0.5 / 4
    assert res.lower_bound_constant == pytest.approx(0.125, rel=1e-14)


def test_no_resonance_small_alpha():
    with pytest.raises(NoResonance):
        find_resonance(sd_single(0.5))


def test_integrate_rho_variance_identity():
    assert integrate_rho(sd_single(100.0), 1e-8) == pytest.approx(0.01, abs=1e-10)


def test_integrate_rho_mixture_identity():
    sd = SpectralDensity(MIX, Mode(3, 7.0, 2.0))
    assert integrate_rho(sd, 1e-8) == pytest.approx(4.0 / 7.0, rel=1e-8)


def test_integrate_rho_zero_weight():
    assert integrate_rho(sd_single(10.0, lam=0.0), 1e-8) == 0.0


def test_integrate_rho_tolerance_domain():
    routines = (
        integrate_rho,
        lambda sd, rel_tol: autocovariance(sd, 1.0, rel_tol),
    )
    for routine in routines:
        for bad in (1e-13, 1e-2, 0.5, 0.0, -1e-6):
            with pytest.raises(ValueError):
                routine(sd_single(10.0), bad)


def test_integrate_rho_powerlaw_corpus():
    sd = SpectralDensity(discretize(PowerLaw(1.0, 64)), Mode(4, 100.0, 0.1))
    expected = 0.01 / 100.0
    assert integrate_rho(sd, 1e-8) == pytest.approx(expected, rel=1e-7)


def test_autocovariance_at_zero_is_variance():
    sd = sd_single(100.0)
    assert autocovariance(sd, 0.0, 1e-8) == pytest.approx(integrate_rho(sd, 1e-8), rel=1e-12)


def test_autocovariance_oracle_value():
    assert autocovariance(sd_single(2.0), 5.0, 1e-8) == pytest.approx(R5_ORACLE, abs=1e-6)
    assert autocovariance(sd_single(2.0), 5.0, 1e-10) == pytest.approx(R5_ORACLE, abs=1e-12)


def test_autocovariance_bounded_by_variance():
    sd = SpectralDensity(MIX, Mode(2, 50.0, 1.0))
    r0 = autocovariance(sd, 0.0, 1e-8)
    for tau in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        assert abs(autocovariance(sd, tau, 1e-8)) <= r0 * (1.0 + 1e-8)


def increment(sd, h):
    return sd.mode.lambda_k**2 * float(_Markov(sd.kernel, [sd.mode]).increment(0, h))


def test_increment_monotone_to_zero():
    sd = sd_single(10.0)
    hs = [1.0 / 2**j for j in range(8)]
    vals = [increment(sd, h) for h in hs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_increment_bounded_by_twice_variance():
    val = increment(sd_single(100.0), 10.0)
    assert val <= 0.02 + 2e-8


def test_increment_two_route_agreement():
    # the embedding's closed form vs quadrature of 2*(r(0) - r(h)); alpha
    # 0.25 on one atom is critical damping, the step-matrix route
    cases = (
        (sd_single(100.0), 0.1),
        (sd_single(0.25), 0.5),
        (SpectralDensity(discretize(PowerLaw(1.0, 64)), Mode(4, 16.0, 1.0)), 2.0**-6),
    )
    assert _Markov(SINGLE, [Mode(1, 0.25, 1.0)]).eig == [None]
    for sd, h in cases:
        via_cov = 2.0 * (autocovariance(sd, 0.0, 1e-10) - autocovariance(sd, h, 1e-10))
        assert increment(sd, h) == pytest.approx(via_cov, rel=1e-8)


def test_increment_ratio_bound_across_modes():
    # E|u(t+h)-u(t)|^2 <= c lam^2 h^a / alpha^(q - a/2) with a=0.5, q=0.9;
    # c frozen from the k*=10 fit (max ratio 0.9716) with 10% headroom
    c_frozen = 1.07
    for k in (20, 40, 80, 160):
        alpha = (k * math.pi) ** 2
        sd = SpectralDensity(SINGLE, Mode(k, alpha, 1.0))
        for j in (4, 6, 8, 10):
            h = 2.0**-j
            ratio = increment(sd, h) / (h**0.5 * alpha**-0.65)
            assert ratio <= c_frozen


def test_resonance_trend_to_mass():
    devs = []
    for k in range(20, 121, 10):
        alpha = (k * math.pi) ** 2
        res = find_resonance(SpectralDensity(SINGLE, Mode(k, alpha, 1.0)))
        devs.append(abs(res.omega_r**2 / alpha - SINGLE.mass))
    assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))


def test_inequality_slack_nonnegative():
    sd = sd_single(100.0)
    report = check_resonance_inequality(sd, find_resonance(sd))
    assert not report.skipped
    assert report.min_slack >= 0.0
    assert report.n_points == 1024


def test_resonance_window_is_decided_in_one_place(monkeypatch):
    # spectral.WINDOW_Q alone sets the window [omega_r - omega_r^q,
    # omega_r + omega_r^q] of the quadrature breakpoints, the
    # superposition's dense nodes and the inequality scan
    sd = sd_single(100.0)
    omega_r = find_resonance(sd).omega_r
    monkeypatch.setattr(spectral, "WINDOW_Q", 0.25)
    lo, hi = omega_r - omega_r**0.25, omega_r + omega_r**0.25
    breaks = {p for piece in spectral._pieces(sd, 1e-10) for p in piece}
    assert {lo, hi} <= breaks
    assert not {omega_r - omega_r**0.5, omega_r + omega_r**0.5} & breaks
    nodes, widths = spectral_nodes(sd)
    # a quarter of the nodes below the window, half in it, a quarter above
    first, last = mode_sampler._NODE_COUNT // 4, -mode_sampler._NODE_COUNT // 4 - 1
    assert nodes[first] - 0.5 * widths[first] == pytest.approx(lo, rel=1e-14)
    assert nodes[last] + 0.5 * widths[last] == pytest.approx(hi, rel=1e-14)
    scanned = []
    transform = spectral.k_sin_over_omega
    monkeypatch.setattr(spectral, "k_sin_over_omega",
                        lambda kernel, omega: scanned.append(omega) or transform(kernel, omega))
    check_resonance_inequality(sd, find_resonance(sd))
    assert (scanned[0][0], scanned[0][-1]) == (lo, hi)


def test_inequality_slack_mixture_large_alpha():
    sd = SpectralDensity(MIX, Mode(5, 1e4, 1.0))
    report = check_resonance_inequality(sd, find_resonance(sd))
    assert report.min_slack >= 0.0


def test_inequality_equality_at_root():
    sd = sd_single(100.0)
    res = find_resonance(sd)
    lhs = abs(100.0 * (1.0 / (1.0 + res.omega_r**2)) - 1.0)
    assert lhs <= 1e-12


def test_inequality_skipped_below_unit_resonance():
    sd = sd_single(1.5)
    res = find_resonance(sd)
    assert res.omega_r < 1.0
    report = check_resonance_inequality(sd, res)
    assert report.skipped
    assert math.isnan(report.min_slack)


def test_sequence_matches_oscillatory_quadrature():
    # the closed form against the independent quadrature route: atoms with
    # an eigenbasis, both critically damped modes (whose covariance comes
    # from step doubling), a 64-atom power law, and a zero weight
    cases = [(MIX, Mode(2, 30.0, 1.0)), (discretize(PowerLaw(1.0, 64)), Mode(1, 10.0, 0.3))]
    cases += CRITICAL
    assert all(_Markov(kernel, [mode]).eig[0] is None for kernel, mode in CRITICAL)
    dt = 2.0**-6
    for kernel, mode in cases:
        sd = SpectralDensity(kernel, mode)
        seq = autocovariance_sequence(sd, dt, 65)
        for j in (0, 1, 5, 17, 64):
            assert seq[j] == pytest.approx(autocovariance(sd, j * dt, 1e-10),
                                           rel=2e-8, abs=1e-12)
    zero = autocovariance_sequence(SpectralDensity(MIX, Mode(2, 30.0, 0.0)), dt, 65)
    assert np.array_equal(zero, np.zeros(65))


def test_sequence_toeplitz_is_psd():
    sd = sd_single(50.0)
    seq = autocovariance_sequence(sd, 2.0**-5, 128)
    toeplitz = np.array([[seq[abs(i - j)] for j in range(128)] for i in range(128)])
    eigs = np.linalg.eigvalsh(toeplitz)
    assert eigs.min() >= -1e-8 * seq[0]


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        Mode(1, 1.0, -1.0)
    with pytest.raises(ValueError):
        Mode(-1, 1.0, 1.0)
