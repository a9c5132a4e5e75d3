"""Variogram estimation and exponent fitting against closed-form targets."""

import math
import tracemalloc

import numpy as np
import pytest

from glefield.cli import _PROFILES, RunConfig
from glefield.cm_kernel import KernelMeasure
from glefield.field_assembly import (
    DirichletInterval,
    FieldSample,
    Flat,
    PowerDecay,
    assemble_field,
)
from glefield.mode_sampler import TimeGrid, _Markov
from glefield.regularity import (
    DegenerateFit,
    VariogramCurve,
    empirical_variogram,
    fit_exponent,
    theoretical_field_variogram,
    theoretical_space_variogram,
    theoretical_variogram,
)
from glefield.spectral import Mode

SINGLE = KernelMeasure([(1.0, 1.0)])
BASIS = DirichletInterval(math.pi)
LAGS = 0.01 * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])


def test_fit_recovers_exact_power_laws():
    lin = fit_exponent(VariogramCurve(LAGS, 3.0 * LAGS, "time"))
    assert abs(lin.gamma_hat - 0.5) <= 1e-12
    assert lin.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not lin.flagged
    assert lin.ci_low == lin.gamma_hat == lin.ci_high
    assert lin.n_members == 0
    root = fit_exponent(VariogramCurve(LAGS, 2.0 * np.sqrt(LAGS), "time"))
    assert abs(root.gamma_hat - 0.25) <= 1e-12


def test_fit_rejects_nonpositive_values():
    curve = VariogramCurve(LAGS, np.array([1.0, 2.0, 0.0, 4.0, 5.0, 6.0]), "time")
    with pytest.raises(DegenerateFit):
        fit_exponent(curve)


def test_fit_flags_non_power_law():
    wiggly = fit_exponent(
        VariogramCurve(LAGS, np.array([1.0, 10.0, 1.0, 10.0, 1.0, 10.0]), "time")
    )
    assert wiggly.flagged
    assert wiggly.r_squared < 0.9


def test_variogram_curve_validation():
    with pytest.raises(ValueError):
        VariogramCurve(np.array([1.0, 2.0, 4.0]), np.ones(3), "time")
    with pytest.raises(ValueError):
        VariogramCurve(np.array([1.0, 2.0, 4.0, 8.0]), np.ones(4), "time")
    with pytest.raises(ValueError):
        VariogramCurve(np.array([1.0, 2.0, 2.0, 32.0]), np.ones(4), "time")
    with pytest.raises(ValueError):
        VariogramCurve(np.array([0.0, 2.0, 4.0, 32.0]), np.ones(4), "time")
    with pytest.raises(ValueError):
        VariogramCurve(LAGS, np.ones(len(LAGS)), "omega")
    for lags, values in (
        ([math.nan, 1.0, 2.0, 40.0], np.ones(4)),
        ([1.0, 2.0, 4.0, math.inf], np.ones(4)),
        (LAGS, np.array([1.0, 2.0, math.nan, 4.0, 5.0, 6.0])),
    ):
        with pytest.raises(ValueError, match="finite"):
            VariogramCurve(np.array(lags), values, "time")


def test_bootstrap_interval_is_seeded_and_brackets_estimate():
    rng = np.random.Generator(np.random.Philox(key=np.array([123, 0], dtype=np.uint64)))
    # each member has its own level and its own slope, so resampled slopes
    # spread for real and not only through rounding
    scales = 1.0 + 0.2 * rng.standard_normal(64) ** 2
    slopes = 1.0 + 0.1 * rng.standard_normal(64)
    members = scales[:, None] * LAGS[None, :] ** slopes[:, None]
    curve = VariogramCurve(
        LAGS, members.mean(axis=0), "time", member_values=members
    )
    fit_a = fit_exponent(curve, bootstrap=200, seed=1)
    fit_b = fit_exponent(curve, bootstrap=200, seed=1)
    assert (fit_a.ci_low, fit_a.ci_high) == (fit_b.ci_low, fit_b.ci_high)
    assert fit_a.ci_low <= fit_a.gamma_hat <= fit_a.ci_high
    assert fit_a.n_members == 64
    fit_c = fit_exponent(curve, bootstrap=200, seed=2)
    assert (fit_a.ci_low, fit_a.ci_high) != (fit_c.ci_low, fit_c.ci_high)
    # zero resamples means no interval; a negative count is an input error
    fit_0 = fit_exponent(curve, bootstrap=0)
    assert fit_0.ci_low == fit_0.gamma_hat == fit_0.ci_high and fit_0.n_members == 0
    with pytest.raises(ValueError, match="bootstrap -3"):
        fit_exponent(curve, bootstrap=-3)


def _reference_interval(curve, bootstrap, seed):
    # one resample and one polyfit per draw
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    members = curve.member_values
    draws = []
    for _ in range(bootstrap):
        resampled = members[rng.integers(0, len(members), size=len(members))].mean(axis=0)
        draws.append(0.5 * np.polyfit(np.log(curve.lags), np.log(resampled), 1)[0])
    return np.percentile(draws, [2.5, 97.5])


def test_bootstrap_matches_the_per_draw_loop():
    # an odd member count: the index table must be the sequential draws even
    # when a draw ends inside a 64-bit word
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    members = (1.0 + rng.random((37, 1))) * LAGS ** (0.4 + 0.3 * rng.random((37, len(LAGS))))
    curve = VariogramCurve(LAGS, members.mean(axis=0), "time", member_values=members)
    for seed in (0, 5):
        fit = fit_exponent(curve, bootstrap=200, seed=seed)
        lo, hi = _reference_interval(curve, 200, seed)
        assert abs(fit.ci_low - lo) <= 1e-12 and abs(fit.ci_high - hi) <= 1e-12
    # one nonpositive member curve: some resample is all but certain to draw
    # it often enough to turn a mean nonpositive
    members[3] = -100.0
    curve = VariogramCurve(LAGS, np.abs(members).mean(axis=0), "time", member_values=members)
    with pytest.raises(DegenerateFit, match="bootstrap"):
        fit_exponent(curve, bootstrap=200, seed=0)


def test_empirical_variogram_input_validation():
    sample = FieldSample(
        grid=TimeGrid(dt=0.5, n=4),
        x=np.array([0.1, 0.2, 0.5]),
        values=np.zeros((2, 4, 3)),
        n_modes=1,
    )
    with pytest.raises(ValueError):
        empirical_variogram(sample, "space", [1, 2])
    with pytest.raises(ValueError):
        empirical_variogram(sample, "time", [1, 4])
    with pytest.raises(ValueError):
        empirical_variogram(sample, "time", [0, 1])
    with pytest.raises(ValueError):
        empirical_variogram(sample, "frequency", [1, 2])


def test_time_variogram_holds_one_field_sized_temporary():
    rng = np.random.default_rng(5)
    sample = FieldSample(
        grid=TimeGrid(dt=0.5, n=2048),
        x=np.linspace(0.1, 1.0, 16),
        values=rng.standard_normal((4, 2048, 16)),
        n_modes=1,
    )
    tracemalloc.start()
    try:
        empirical_variogram(sample, "time", [1, 2, 4, 16])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every lag's increments are squared in place in one reused buffer;
    # squaring into a new array, or a new array per lag, doubles the peak
    assert peak < 1.5 * sample.values.nbytes


def _one_mode_field(dynamics: str) -> FieldSample:
    grid = TimeGrid(dt=2.0**-8, n=4096)
    return assemble_field(
        SINGLE,
        BASIS,
        Flat(1.0),
        1,
        grid,
        [math.pi / 2.0],
        256,
        seed=21,
        dynamics=dynamics,
        tail_budget=1.0,
    )


@pytest.mark.parametrize("dynamics", ["gle", "heat"])
def test_empirical_variogram_matches_theory_single_mode(dynamics):
    sample = _one_mode_field(dynamics)
    steps = [8, 16, 32, 64, 128]
    emp = empirical_variogram(sample, "time", steps)
    truth = theoretical_field_variogram(
        SINGLE, BASIS, Flat(1.0), 1, math.pi / 2.0, emp.lags, dynamics=dynamics
    )
    dev = np.abs(emp.values - truth.values)
    assert np.all(dev <= 4.0 * emp.stderr)


def test_field_variogram_is_weighted_single_mode_variogram():
    x = 0.7
    single = theoretical_variogram(SINGLE, Mode(1, BASIS.alpha(1), 1.0), LAGS)
    field = theoretical_field_variogram(SINGLE, BASIS, Flat(1.0), 1, x, LAGS)
    expected = single.values * BASIS.eval(1, x) ** 2
    assert np.allclose(field.values, expected, rtol=1e-12)


def test_field_variogram_rejects_unknown_dynamics():
    with pytest.raises(ValueError, match="unknown dynamics"):
        theoretical_field_variogram(SINGLE, BASIS, Flat(1.0), 1, 0.7, LAGS, dynamics="wave")


def test_space_variogram_matches_covariance_identity():
    n_modes = 32
    xs = np.arange(1, 18) * math.pi / 18.0
    steps = np.array([1, 2, 4, 8, 16])
    curve = theoretical_space_variogram(BASIS, Flat(1.0), n_modes, xs, steps)

    def cov(a, b):
        return sum(
            (1.0 / BASIS.alpha(k)) * BASIS.eval(k, a) * BASIS.eval(k, b)
            for k in range(1, n_modes + 1)
        )

    for col, j in enumerate(steps):
        pairs = [
            cov(xs[i + j], xs[i + j]) + cov(xs[i], xs[i]) - 2.0 * cov(xs[i + j], xs[i])
            for i in range(len(xs) - j)
        ]
        assert curve.values[col] == pytest.approx(float(np.mean(pairs)), rel=1e-12)
    assert curve.lags[0] == pytest.approx(math.pi / 18.0)


def test_space_variogram_heat_is_half_of_gle():
    xs = np.arange(1, 18) * math.pi / 18.0
    steps = np.array([1, 2, 4, 8, 16])
    gle = theoretical_space_variogram(BASIS, Flat(1.0), 16, xs, steps)
    heat = theoretical_space_variogram(BASIS, Flat(1.0), 16, xs, steps, dynamics="heat")
    assert np.allclose(gle.values, 2.0 * heat.values, rtol=1e-14)


def test_space_variogram_input_validation():
    steps = np.array([1, 2, 4, 8, 16])
    with pytest.raises(ValueError):
        theoretical_space_variogram(
            BASIS, Flat(1.0), 4, np.array([0.1, 0.2, 0.5]), steps
        )
    with pytest.raises(ValueError):
        theoretical_space_variogram(
            BASIS, Flat(1.0), 4, np.arange(1, 10) * 0.1, steps, dynamics="wave"
        )
    with pytest.raises(ValueError):
        theoretical_space_variogram(BASIS, Flat(1.0), 4, np.arange(1, 10) * 0.1, steps)


def test_mode_variogram_is_finite_where_the_phase_overflows():
    # at h = 1e305 Im(mu) h overflows, and expm1 of it is nan; e^{Re(mu) h}
    # underflows there, so the increment is 2 r(0) = 2 lambda^2 / alpha
    mode = Mode(1, 1e8, 1.0)
    curve = theoretical_variogram(SINGLE, mode, [1.0, 2.0, 4.0, 1e305])
    assert curve.values[-1] == pytest.approx(2e-8, rel=1e-12)
    # below the overflow the values are 2 (r(0) - r(h)) from the covariance
    cov = _Markov(SINGLE, [mode]).covariance(0, 1.0, 5)
    assert curve.values[:3] == pytest.approx(2.0 * (cov[0] - cov[[1, 2, 4]]), rel=1e-8)


# the oracles as they were summed mode by mode, one Python step per mode
# (and per space step), with each mode from the scalar rules: the
# reference of the one array mode sum that replaced them


def _time_by_mode(kernel, terms, lags, dynamics):
    lag_arr = np.asarray(lags, dtype=float)
    values = np.zeros(len(lag_arr))
    terms = [(mode, weight) for mode, weight in terms if weight != 0.0 and mode.lambda_k != 0.0]
    if dynamics != "heat":
        emb = _Markov(kernel, [mode for mode, _ in terms])
    for mode, weight in terms:
        alpha, lam = mode.alpha_k, mode.lambda_k
        if dynamics == "heat":
            inc = -(lam * lam / alpha) * np.expm1(-alpha * lag_arr)
        else:
            inc = (lam * lam) * emb.increment(emb.slot[mode], lag_arr)
        values += inc * weight
    return values


def _scalar_mode(basis, weights, k):
    return Mode(k, basis.alpha(k), weights.weight(basis, k))


def _field_time_by_mode(kernel, basis, weights, n_modes, x, lags, dynamics):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    terms = ((_scalar_mode(basis, weights, k), float(np.mean(np.square(basis.eval(k, x_arr)))))
             for k in range(1, n_modes + 1))
    return _time_by_mode(kernel, terms, lags, dynamics)


def _space_by_mode(basis, weights, n_modes, xs, steps, dynamics):
    total = np.zeros(len(steps))
    for k in range(1, n_modes + 1):
        lam = weights.weight(basis, k)
        v_k = lam * lam / basis.alpha(k)
        if dynamics == "heat":
            v_k *= 0.5
        ek = basis.eval(k, xs)
        for col, j in enumerate(steps):
            d = ek[j:] - ek[:-j]
            total[col] += v_k * float(np.mean(d * d))
    return total


_PROFILE = _PROFILES["comparison_1d"]


def _interior(nx):
    return np.arange(1, nx + 1) * (BASIS.length / (nx + 1))


def _cell(name):
    """A declared comparison cell's config, resolved as reproduce resolves
    it, and its interior x points."""
    cell = _PROFILE["cells"][name]
    cfg = RunConfig().updated(_PROFILE["config"], "").updated(cell["config"], "")
    return cfg, _interior(cell["nx"])


@pytest.mark.parametrize("dynamics", ["gle", "heat", "spectral"])
@pytest.mark.parametrize("kernel", [SINGLE, KernelMeasure([(0.5, 1.0), (0.5, 4.0)])])
@pytest.mark.parametrize("weights", [Flat(1.0), PowerDecay(0.1)])
@pytest.mark.parametrize("n_modes", [1, 16, 128])
def test_oracles_match_the_mode_by_mode_sums(dynamics, kernel, weights, n_modes):
    # the comparison's lags on both axes, at its x points; the sums run in
    # another order, so they agree to rounding (bound fixed at 1e-13 relative)
    (time, xs_time), (space, xs_space) = _cell("gle_time"), _cell("gle_space")
    lags = time.get("sampler", "dt") * np.array(time.get("regularity", "lags"), dtype=float)
    steps = np.array(space.get("regularity", "lags"))
    got = [
        theoretical_field_variogram(kernel, BASIS, weights, n_modes, xs_time, lags, dynamics),
        theoretical_space_variogram(BASIS, weights, n_modes, xs_space, steps, dynamics),
        theoretical_variogram(kernel, _scalar_mode(BASIS, weights, n_modes), lags, dynamics),
    ]
    want = [
        _field_time_by_mode(kernel, BASIS, weights, n_modes, xs_time, lags, dynamics),
        _space_by_mode(BASIS, weights, n_modes, xs_space, steps, dynamics),
        _time_by_mode(kernel, [(_scalar_mode(BASIS, weights, n_modes), 1.0)], lags, dynamics),
    ]
    for curve, ref in zip(got, want):
        assert np.all(np.abs(curve.values - ref) <= 1e-13 * np.abs(ref))
