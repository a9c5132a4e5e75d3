"""Mode superposition on an interval: summability gates, tails, assembly."""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy.special import polygamma, zeta

from glefield import field_assembly, mode_sampler
from glefield.cm_kernel import KernelMeasure
from glefield.field_assembly import (
    DirichletInterval,
    Divergent,
    Explicit,
    Flat,
    PowerDecay,
    _series,
    _series_terms,
    _zeta,
    TailBudgetExceeded,
    assemble_field,
    check_wellposedness,
    critical_eta,
    tail_variance_bound,
)
from glefield.mode_sampler import TimeGrid, sample_gle_mode
from glefield.spectral import Mode

SINGLE = KernelMeasure([(1.0, 1.0)])
BASIS = DirichletInterval(math.pi)


def test_dirichlet_interval_basis():
    assert BASIS.alpha(1) == pytest.approx(1.0)
    assert BASIS.alpha(3) == pytest.approx(9.0)
    assert BASIS.sup_const(5) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert BASIS.eval(2, 0.0) == 0.0
    assert abs(BASIS.eval(2, math.pi)) <= 1e-13
    x = math.pi / 4.0
    assert BASIS.eval(1, x) == pytest.approx(math.sqrt(2.0 / math.pi) * math.sin(x))
    with pytest.raises(ValueError):
        DirichletInterval(0.0)


def test_basis_eval_takes_an_array_of_modes():
    # one row per mode index, byte-equal to the one-index calls the
    # assembly made before it built a block's shapes in one expression
    ks = np.arange(1, 1025)
    grids = [np.array([0.3]), np.linspace(0.0, 1.0, 17), np.arange(1, 256) / 256.0,
             np.random.default_rng(0).uniform(0.0, 1.0, 40), np.linspace(0.1, 0.9, 1000)]
    for length in (math.pi, 2.0, 0.37):
        basis = DirichletInterval(length)
        for x in grids:
            rows = basis.eval(ks, length * x)
            assert rows.shape == (ks.size, x.size)
            by_mode = np.stack([basis.eval(int(k), length * x) for k in ks])
            assert rows.tobytes() == by_mode.tobytes()


def test_dirichlet_gradient_bound():
    # |e_k'(x)| <= sqrt(alpha_k) * sup_const(k), probed by central differences
    xs = np.linspace(0.0, math.pi, 211)
    h = 1e-6
    for k in (1, 2, 7, 32):
        grad = (BASIS.eval(k, xs + h) - BASIS.eval(k, xs - h)) / (2.0 * h)
        bound = math.sqrt(BASIS.alpha(k)) * BASIS.sup_const(k)
        assert np.abs(grad).max() <= bound * (1.0 + 1e-6)


def _series_terms_by_mode(basis, weights, exponent, count, use_sup):
    # the per-mode loop the array expression replaced, as the reference
    out = np.empty(count)
    for k in range(1, count + 1):
        lam = weights.weight(basis, k)
        term = lam * lam / basis.alpha(k) ** exponent
        if use_sup:
            term *= basis.sup_const(k) ** 2
        out[k - 1] = term
    return out


def test_series_terms_equal_the_per_mode_rule():
    rules = [Flat(0.3), PowerDecay(0.2), PowerDecay(-0.1), Explicit(tuple(1.0 / np.arange(1, 301)))]
    for basis in (BASIS, DirichletInterval(2.0)):
        for weights in rules:
            for exponent, use_sup in ((1.0, False), (1.0, True), (0.6, True), (0.25, True)):
                args = (basis, weights, exponent, 300, use_sup)
                terms = _series_terms(*args)
                assert terms.tobytes() == _series_terms_by_mode(*args).tobytes()


def test_weight_rules():
    assert Flat(2.0).weight(BASIS, 7) == 2.0
    assert PowerDecay(0.5).weight(BASIS, 4) == pytest.approx(0.25)
    exp = Explicit([3.0, 1.0, 0.5])
    assert exp.weight(BASIS, 2) == 1.0
    with pytest.raises(ValueError):
        exp.weight(BASIS, 9)
    with pytest.raises(ValueError):
        Flat(-1.0)
    with pytest.raises(ValueError):
        PowerDecay(math.inf)
    with pytest.raises(ValueError):
        Explicit([1.0, -2.0])


def test_wellposedness_flat_weights_basel_sum():
    # sum over modes of lam_k^2 / alpha_k = zeta(2) on the unit-pi interval
    report = check_wellposedness(BASIS, Flat(1.0))
    assert report.convergent
    assert report.total == pytest.approx(math.pi**2 / 6.0, abs=1e-6)


def test_wellposedness_power_decay_zeta3():
    report = check_wellposedness(BASIS, PowerDecay(0.25))
    assert report.total == pytest.approx(1.2020569031595942854, abs=1e-6)


def test_wellposedness_rejects_critical_growth():
    growth = Explicit([float(k) for k in range(1, 4097)])
    with pytest.raises(Divergent):
        check_wellposedness(BASIS, growth)


def test_regularity_assumption_threshold():
    # the smoothness series converges at eta iff eta > eta*
    eta_star = critical_eta(BASIS, Flat(1.0))
    assert eta_star == 0.5
    for eta in (0.45, 0.5, 0.6):
        assert _series(BASIS, Flat(1.0), eta, use_sup=True).convergent is (eta > eta_star)


def _verdict_flip(basis, weights) -> float:
    """The eta where ``_series``'s verdict on the smoothness series turns
    convergent, by bisection."""
    lo, hi = -2.0, 3.0
    assert not _series(basis, weights, lo, use_sup=True).convergent
    assert _series(basis, weights, hi, use_sup=True).convergent
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if _series(basis, weights, mid, use_sup=True).convergent else (mid, hi)
    return hi


@pytest.mark.parametrize("length", [math.pi, 1.0, 2.0])
def test_critical_eta_is_where_the_verdict_flips(length):
    # exact under a weight law, 1/2 + b for lambda_k^2 = a alpha_k^b, up to the
    # verdict's 1e-12 slack on the decay power; a fitted estimate under an
    # Explicit list, up to that verdict's 1e-6 slack
    basis = DirichletInterval(length)
    for weights in [Flat(1.0), Flat(0.3)] + [PowerDecay(s) for s in np.linspace(-0.5, 0.6, 23)]:
        eta_star = critical_eta(basis, weights)
        b = 0.0 if isinstance(weights, Flat) else -2.0 * weights.s
        assert eta_star == pytest.approx(0.5 + b, rel=0.0, abs=1e-15)
        assert abs(_verdict_flip(basis, weights) - eta_star) <= 1e-12
    noisy = np.random.default_rng(5).lognormal(0.0, 0.05, 300)
    for values in [[1.0] * 64, [k**-0.3 for k in range(1, 201)],
                   (noisy * np.arange(1, 301) ** 0.2).tolist()]:
        weights = Explicit(values)
        eta_star = critical_eta(basis, weights)
        assert abs(_verdict_flip(basis, weights) - eta_star) <= 1e-6
    assert critical_eta(basis, Explicit([k**-0.3 for k in range(1, 201)])) == pytest.approx(
        0.2, abs=1e-12)


def test_critical_eta_is_none_without_a_decay_power():
    for weights in (Flat(0.0), Explicit([0.0] * 20), Explicit([1.0] * 19 + [0.0])):
        assert critical_eta(BASIS, weights) is None


def test_tail_variance_bound_polygamma():
    bound = tail_variance_bound(BASIS, Flat(1.0), 64)
    expected = (2.0 / math.pi) * float(polygamma(1, 65))
    assert bound == pytest.approx(expected, rel=1e-13)


def test_zeta_matches_scipy():
    ps = np.concatenate([[1.0001, 1.001, 1.01], np.linspace(1.05, 20.0, 200)])
    for a in (1.0, 2.0, 17.0, 65.0, 129.0, 1025.0, 4001.0, 1e5):
        for p in ps.tolist():
            assert _zeta(p, a) == pytest.approx(float(zeta(p, a)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("length", [math.pi, 1.0, 2.0])
def test_gates_and_tail_bound_are_zeta_closed_forms(length):
    # lambda_k^2 [c_k^2] / alpha_k^q = lam^2 [2/L] (L/pi)^p k^-p with
    # p = 2(q + 2s), summed by scipy's zeta
    basis = DirichletInterval(length)
    eta = 0.75
    for weights, s, lam2 in [(Flat(1.0), 0.0, 1.0), (Flat(0.3), 0.0, 0.09)] + [
            (PowerDecay(s), s, 1.0) for s in (-0.1, 0.1, 0.2, 0.5)]:
        def closed(q, sup, past):
            p = 2.0 * (q + 2.0 * s)
            return lam2 * (2.0 / length if sup else 1.0) * (length / math.pi) ** p * float(
                zeta(p, past + 1))

        well = check_wellposedness(basis, weights)
        assert well.convergent is True and well.decay_power == 2.0 * (1.0 + 2.0 * s)
        assert well.total == pytest.approx(closed(1.0, False, 0), rel=1e-13, abs=0.0)
        reg = _series(basis, weights, eta, use_sup=True)
        assert reg.convergent is True
        assert reg.total == pytest.approx(closed(eta, True, 0), rel=1e-13, abs=0.0)
        for n in (64, 128, 1024):
            assert tail_variance_bound(basis, weights, n) == pytest.approx(
                closed(1.0, True, n), rel=1e-13, abs=0.0)


def test_critical_series_are_rejected():
    # the smoothness series converges at eta iff eta > eta*: every decimal
    # pair with 2 (eta + 2 s) = 1 sits at eta*, the critical series, however
    # the decimals round; a thousandth of s above it converges
    for i in range(2, 1000, 2):
        eta, s = i / 1000, (500 - i) // 2 / 1000
        assert critical_eta(BASIS, PowerDecay(s)) == pytest.approx(eta, rel=0.0, abs=1e-15)
        report = _series(BASIS, PowerDecay(s), eta, use_sup=True)
        assert report.convergent is False and report.total == math.inf
        assert _series(BASIS, PowerDecay(s + 0.001), eta, use_sup=True).convergent
    with pytest.raises(Divergent, match="decay power 1.000 <= 1"):
        check_wellposedness(BASIS, PowerDecay(-0.25))


def test_explicit_tail_bound_is_the_listed_terms_past_n():
    # the list is the whole field: its last term at n = len - 1, nothing at
    # n = len or beyond, and the whole list at n = 0
    weights = Explicit(tuple(1.0 / k for k in range(1, 101)))
    terms = _series_terms(BASIS, weights, 1.0, 100, use_sup=True)
    assert tail_variance_bound(BASIS, weights, 99) == terms[99]
    assert terms[99] == pytest.approx(2.0 / math.pi * 1e-8, rel=1e-15)
    assert tail_variance_bound(BASIS, weights, 100) == 0.0
    assert tail_variance_bound(BASIS, weights, 150) == 0.0
    assert tail_variance_bound(BASIS, weights, 0) == pytest.approx(terms.sum(), rel=1e-15)
    report = check_wellposedness(BASIS, weights)
    assert report.total == pytest.approx(
        _series_terms(BASIS, weights, 1.0, 100, use_sup=False).sum(), rel=1e-15)
    assert type(report.decay_power) is float and type(report.convergent) is bool


def test_assembly_equals_manual_mode_sum():
    grid = TimeGrid(dt=0.25, n=32)
    xs = np.array([0.7, 1.9])
    sample = assemble_field(
        SINGLE, BASIS, Flat(1.0), 3, grid, xs, 5, seed=42, tail_budget=1.0
    )
    manual = np.zeros((5, grid.n, xs.size))
    magnitude = np.zeros_like(manual)
    for k in (1, 2, 3):
        ens = sample_gle_mode(SINGLE, Mode(k, BASIS.alpha(k), 1.0), grid, 5, seed=42)
        for ix, x in enumerate(xs):
            manual[:, :, ix] += ens.values * BASIS.eval(k, x)
            magnitude[:, :, ix] += np.abs(ens.values * BASIS.eval(k, x))
    # the sum is taken in another order, so the two agree to the
    # floating-point summation bound n_modes * eps * sum_k |u_k e_k(x)|
    bound = 3 * np.finfo(float).eps * magnitude
    assert np.all(np.abs(sample.values - manual) <= bound)
    assert sample.n_modes == 3
    assert sample.m == 5


def test_assembly_builds_every_gle_embedding_in_one_pass(monkeypatch):
    # one stacked eigendecomposition for the whole field, not one per mode
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    grid = TimeGrid(dt=4.0, n=16)
    assemble_field(SINGLE, BASIS, Flat(1.0), 128, grid, [0.5, 1.5], 2, seed=3, workers=2)
    assert calls == [(128, 2, 2)]


def _interior(nx):
    # nx points evenly inside the interval, as the benchmark workloads take them
    return np.arange(1, nx + 1) * (math.pi / (nx + 1))


def _block_width(n_modes, m, n):
    # the product block rule: as many modes as fit in the byte budget of
    # paths, at least 8, at most the field's
    return min(n_modes, max(8, field_assembly._BLOCK_BYTES // (8 * m * n)))


def _scalar_mode(basis, weights, k):
    # mode k from the scalar rules, one index at a time: a reference that
    # does not go through field_assembly._modes
    return Mode(k, basis.alpha(k), weights.weight(basis, k))


def _assemble_by_row(kernel, basis, weights, n_modes, grid, xs, m, seed, dynamics, width=None):
    # the accumulation the row-chunk products replaced, as the reference:
    # product blocks of modes in k order, one product per member row and block
    xs = np.asarray(xs, dtype=float)
    width = _block_width(n_modes, m, grid.n) if width is None else width
    out = np.zeros((m, grid.n, xs.size))
    for start in range(1, n_modes + 1, width):
        ks = range(start, min(start + width, n_modes + 1))
        block = np.stack([
            mode_sampler._sample(dynamics, kernel, [_scalar_mode(basis, weights, k)],
                                 grid, m, seed)[0].values
            for k in ks])
        shapes = np.stack([basis.eval(k, xs) for k in ks])
        for i, row in enumerate(out):
            row += block[:, i, :].T @ shapes
    return out


@pytest.mark.parametrize("n_modes, grid, nx, m, dynamics", [
    (16, TimeGrid(dt=4.0, n=16), 255, 48, "gle"),    # 16-row chunks
    (16, TimeGrid(dt=4.0, n=16), 255, 37, "heat"),   # m not a multiple of 16
    (8, TimeGrid(dt=0.25, n=256), 256, 3, "gle"),    # one-row chunks
    (24, TimeGrid(dt=4.0, n=16), 1, 300, "gle"),     # nx = 1
    (13, TimeGrid(dt=0.25, n=32), 5, 3, "gle"),      # a partial last block
])
def test_assembly_equals_the_per_row_products(n_modes, grid, nx, m, dynamics):
    xs = np.linspace(0.2, 2.9, nx)
    ref = _assemble_by_row(SINGLE, BASIS, Flat(1.0), n_modes, grid, xs, m, 5, dynamics)
    for workers in (1, 2, 3):
        sample = assemble_field(SINGLE, BASIS, Flat(1.0), n_modes, grid, xs, m, 5,
                                dynamics=dynamics, tail_budget=1.0, workers=workers)
        assert sample.values.tobytes() == ref.tobytes(), workers


@pytest.mark.parametrize("m, nx, dynamics, workers", [
    (16, 16, "gle", 1),    # the field_time shape: 8 modes fill the byte budget
    (20, 5, "heat", 2),    # 6 modes would fill it; a block never takes fewer than 8
])
def test_long_paths_keep_8_mode_blocks(m, nx, dynamics, workers):
    grid = TimeGrid(dt=2.0**-10, n=4096)
    assert _block_width(13, m, grid.n) == 8
    xs = np.linspace(0.2, 2.9, nx)
    ref = _assemble_by_row(SINGLE, BASIS, Flat(1.0), 13, grid, xs, m, 5, dynamics, width=8)
    sample = assemble_field(SINGLE, BASIS, Flat(1.0), 13, grid, xs, m, 5,
                            dynamics=dynamics, tail_budget=1.0, workers=workers)
    assert sample.values.tobytes() == ref.tobytes()


def _record_products(monkeypatch) -> list:
    """Record every np.matmul call as (calling module, shape of a, shape of
    b): the projection's come from field_assembly, the path filter's from
    mode_sampler, each stacked item of which is one BLAS call."""
    products = []
    matmul = np.matmul

    def counted(a, b, **kwargs):
        products.append((sys._getframe(1).f_globals["__name__"].rsplit(".", 1)[-1],
                         a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return products


def test_products_stay_under_the_multiply_add_cap(monkeypatch):
    # at the field_space, field_time and cli_roundtrip shapes every product
    # takes at most 2**19 multiply-adds, under the size at which OpenBLAS
    # hands a product to a second thread: the projection's, one per chunk of
    # time rows (the block takes all the modes of a short field and 8 of a
    # long one), and each item of the path filter's, which runs past the
    # step loop only
    products = _record_products(monkeypatch)
    shapes = [(128, TimeGrid(dt=4.0, n=16), 128, 255, 128),
              (128, TimeGrid(dt=2.0**-10, n=4096), 16, 16, 8),
              (64, TimeGrid(dt=0.01, n=256), 4, 64, 64)]
    for n_modes, grid, m, nx, width in shapes:
        products.clear()
        assemble_field(SINGLE, BASIS, Flat(1.0), n_modes, grid, _interior(nx), m, 5,
                       dynamics="heat", workers=2)
        projection = [(a, b) for caller, a, b in products if caller == "field_assembly"]
        kernel = [(a, b) for caller, a, b in products if caller == "mode_sampler"]
        assert len(projection) + len(kernel) == len(products)
        assert {a[1] for a, _ in projection} == {width}
        assert sum(a[0] for a, _ in projection) == m * grid.n * n_modes // width
        assert bool(kernel) == (grid.n > mode_sampler._STEP_LOOP_STEPS)
        assert max(a[-2] * a[-1] * b[-1] for a, b in projection + kernel) <= 2**19


@pytest.mark.parametrize("n_modes, grid, m, nx, dynamics", [
    (128, TimeGrid(dt=4.0, n=16), 48, 255, "gle"),     # the space cells' shape
    (128, TimeGrid(dt=4.0, n=16), 48, 255, "heat"),
    (64, TimeGrid(dt=0.01, n=256), 4, 64, "heat"),     # cli_roundtrip's
])
def test_short_fields_match_a_long_double_mode_sum(n_modes, grid, m, nx, dynamics):
    # one product block sums all the modes in another order than one mode at
    # a time, so the field moves at rounding level: it stays within 1e-13
    # of the field's scale (its root mean square) of the mode-by-mode sum
    # in long double, and does not depend on the worker count
    xs = _interior(nx)
    ref = np.zeros((m, grid.n, nx), dtype=np.longdouble)
    for k in range(1, n_modes + 1):
        paths = mode_sampler._sample(dynamics, SINGLE, [_scalar_mode(BASIS, Flat(1.0), k)],
                                     grid, m, 5)[0].values
        ref += paths.astype(np.longdouble)[..., None] * BASIS.eval(k, xs).astype(np.longdouble)
    scale = np.sqrt(np.mean(ref * ref))
    samples = [assemble_field(SINGLE, BASIS, Flat(1.0), n_modes, grid, xs, m, 5,
                              dynamics=dynamics, workers=workers) for workers in (1, 2, 3)]
    assert np.abs(samples[0].values - ref).max() <= 1e-13 * scale
    for sample in samples[1:]:
        assert sample.values.tobytes() == samples[0].values.tobytes()


def test_assembly_takes_one_product_per_row_chunk(monkeypatch):
    # a block of modes (here all 13, whose paths fit the byte budget) is
    # added by one product per chunk of time rows (158 rows of 255 points,
    # or 157 of 256); the pool gets one task per worker per 8 modes on long
    # paths and none on short ones, which take the step loop on the calling
    # thread
    products, tasks = _record_products(monkeypatch), []

    class Pool(field_assembly.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            tasks.append(1)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(field_assembly, "ThreadPoolExecutor", Pool)
    for n, nx, m, chunks, per_part in ((16, 255, 40, 5, 0), (256, 256, 3, 5, 3)):
        products.clear()
        tasks.clear()
        grid = TimeGrid(dt=4.0 if n == 16 else 0.25, n=n)
        assemble_field(SINGLE, BASIS, Flat(1.0), 13, grid, np.linspace(0.2, 2.9, nx), m, 5,
                       dynamics="heat", tail_budget=1.0, workers=3)
        # 13 modes: one block, sampled as 8 modes and 5; the path filter's
        # products, past the step loop, are not the projection's
        assert [caller for caller, _, _ in products].count("field_assembly") == chunks
        assert {caller for caller, _, _ in products} == (
            {"field_assembly", "mode_sampler"} if n > mode_sampler._STEP_LOOP_STEPS
            else {"field_assembly"})
        assert max(a[-2] * a[-1] * b[-1] for _, a, b in products) <= 2**19
        assert len(tasks) == 2 * per_part


def test_clipped_masses_stay_in_mode_order(monkeypatch):
    # workers fill a block's slots out of k order; each mode's clipped mass
    # (here tagged with its index) still lands at its own place, on short
    # paths (n = 32) and long ones (n = 128), for the one-atom kernel's
    # one-pole filter modes and the two-atom kernel's state recursion and
    # circulant modes alike.  Untagged, a filter clips nothing
    sample = mode_sampler._sample

    def tagged(law, kernel, modes, *args, **kwargs):
        ensembles = sample(law, kernel, modes, *args, **kwargs)
        for mode, ens in zip(modes, ensembles):
            ens.clipped_mass = mode.index / 100.0
        return ensembles

    monkeypatch.setattr(mode_sampler, "_sample", tagged)
    two_atoms = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])
    cases = itertools.product((SINGLE, two_atoms), (32, 128), (1, 2, 3))
    for kernel, n, workers in cases:
        sample_ = assemble_field(kernel, BASIS, Flat(1.0), 13, TimeGrid(dt=0.25, n=n), [1.0], 2, 4,
                                 tail_budget=1.0, workers=workers)
        assert sample_.clipped_masses == tuple(k / 100.0 for k in range(1, 14))
    monkeypatch.undo()
    for n, workers in itertools.product((32, 128), (1, 2, 3)):
        sample_ = assemble_field(SINGLE, BASIS, Flat(1.0), 13, TimeGrid(dt=0.25, n=n), [1.0], 2, 4,
                                 tail_budget=1.0, workers=workers)
        assert sample_.clipped_masses == (0.0,) * 13


_ONE_ATOM = KernelMeasure([(1.0, 5.0)])


@pytest.mark.parametrize("dynamics, kernel, basis", [
    ("gle", _ONE_ATOM, BASIS),
    ("heat", _ONE_ATOM, BASIS),
    ("gle", KernelMeasure([(0.5, 1.0), (0.5, 2.0)]), DirichletInterval(30.0)),
    ("spectral", SINGLE, BASIS),
], ids=["gle", "heat", "gle-two-atoms", "spectral"])
def test_block_paths_are_the_modes_alone(monkeypatch, dynamics, kernel, basis):
    # each part of a block (8 modes, then 5) is one sampler call on short
    # paths (n = 16), and past the step loop (n = 128) each worker's share
    # of it is one; each mode's paths are byte-equal to the mode sampled
    # alone, and its clipped mass lands at its place, in every slot of a full
    # part and a partial one, whatever the worker count.  Under the one-atom
    # kernel modes 1 and 2 are overdamped (two real poles each) and the
    # others have one complex pole; under the two-atom kernel on the
    # interval of length 30 modes take the state recursion and the
    # circulant.  The zero-weight mode 7 gets zero paths
    seen = {}
    sample = mode_sampler._sample

    def recording(law, kernel, modes, grid, m, seed, setup, out):
        ensembles = sample(law, kernel, modes, grid, m, seed, setup, out)
        seen.update((mode, ens.values.copy()) for mode, ens in zip(modes, ensembles))
        return ensembles

    monkeypatch.setattr(mode_sampler, "_sample", recording)
    weights = Explicit((1.0,) * 6 + (0.0,) + (0.5,) * 6)
    for grid, workers in itertools.product((TimeGrid(dt=0.25, n=16), TimeGrid(dt=0.25, n=128)),
                                           (1, 2, 3)):
        seen.clear()
        field = assemble_field(kernel, basis, weights, 13, grid, [1.0], 3, 9, dynamics=dynamics,
                               tail_budget=1.0, workers=workers)
        modes = sorted(seen, key=lambda mode: mode.index)
        assert [mode.index for mode in modes] == list(range(1, 14))
        alone = [sample(dynamics, kernel, [mode], grid, 3, 9)[0] for mode in modes]
        for mode, ens in zip(modes, alone):
            assert seen[mode].tobytes() == ens.values.tobytes(), (grid.n, workers, mode)
        assert field.clipped_masses == tuple(ens.clipped_mass for ens in alone)
        assert not seen[modes[6]].any()
        if dynamics == "gle" and kernel is not _ONE_ATOM:
            assert {ens.method for ens in alone} == {"recursion", "circulant"}
    if kernel is _ONE_ATOM:
        setup = mode_sampler._Markov(kernel, modes, grid)
        assert [len(setup.innovations(i)[0]) for i in range(3)] == [2, 2, 1]


def test_pool_gets_only_the_modes_the_step_loop_leaves(monkeypatch):
    # one thread rule, from n alone: on short paths every mode, whatever its
    # law, is sampled on the calling thread and the pool gets no task; on
    # long paths it gets one task per worker per part of 8 modes
    tasks = []

    class Pool(field_assembly.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            tasks.append(1)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(field_assembly, "ThreadPoolExecutor", Pool)
    for dynamics, n, n_modes, count in (("gle", 16, 13, 0), ("heat", 48, 13, 0),
                                        ("gle", 49, 13, 2 * 3), ("heat", 128, 13, 2 * 3),
                                        ("spectral", 16, 2, 0), ("spectral", 49, 2, 2)):
        tasks.clear()
        assemble_field(SINGLE, BASIS, Flat(1.0), n_modes, TimeGrid(dt=0.25, n=n), [1.0], 2, 4,
                       dynamics=dynamics, tail_budget=1.0, workers=3)
        assert len(tasks) == count, (dynamics, n)


def test_assembly_worker_count_is_immaterial():
    grid = TimeGrid(dt=0.25, n=32)
    xs = np.linspace(0.3, 2.8, 4)
    a = assemble_field(
        SINGLE, BASIS, Flat(1.0), 8, grid, xs, 4, seed=7, tail_budget=1.0, workers=1
    )
    b = assemble_field(
        SINGLE, BASIS, Flat(1.0), 8, grid, xs, 4, seed=7, tail_budget=1.0, workers=3
    )
    assert np.array_equal(a.values, b.values)


def test_partial_last_block_is_worker_count_immaterial():
    # 13 modes leave a partial last block of the mode-block accumulation
    grid = TimeGrid(dt=0.25, n=32)
    xs = np.linspace(0.3, 2.8, 5)
    samples = [
        assemble_field(
            SINGLE, BASIS, Flat(1.0), 13, grid, xs, 3, seed=11, tail_budget=1.0, workers=w
        )
        for w in (1, 2, 3)
    ]
    for other in samples[1:]:
        assert other.values.tobytes() == samples[0].values.tobytes()
    assert len(samples[0].clipped_masses) == 13


def test_field_variance_matches_mode_sum():
    grid = TimeGrid(dt=4.0, n=16)
    x = math.pi / 2.0
    sample = assemble_field(
        SINGLE, BASIS, Flat(1.0), 64, grid, [x], 2048, seed=13, tail_budget=1.0
    )
    v = sample.values[:, :, 0]
    per_path = v.var(axis=1)
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    truth = sum(
        (1.0 / k**2) * (2.0 / math.pi) * math.sin(k * x) ** 2 for k in range(1, 65)
    )
    assert abs(v.var() - truth) <= 4.0 * se


def test_heat_dynamics_halves_mode_variance():
    grid = TimeGrid(dt=4.0, n=16)
    x = math.pi / 2.0
    sample = assemble_field(
        SINGLE,
        BASIS,
        Flat(1.0),
        64,
        grid,
        [x],
        2048,
        seed=13,
        tail_budget=1.0,
        dynamics="heat",
    )
    v = sample.values[:, :, 0]
    per_path = v.var(axis=1)
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    truth = 0.5 * sum(
        (1.0 / k**2) * (2.0 / math.pi) * math.sin(k * x) ** 2 for k in range(1, 65)
    )
    assert abs(v.var() - truth) <= 4.0 * se


def test_tail_budget_gate():
    grid = TimeGrid(dt=0.5, n=8)
    with pytest.raises(TailBudgetExceeded):
        assemble_field(SINGLE, BASIS, Flat(1.0), 32, grid, [1.0], 2, seed=0)


def test_assembly_input_validation():
    grid = TimeGrid(dt=0.5, n=8)
    with pytest.raises(ValueError):
        assemble_field(
            SINGLE, BASIS, Flat(1.0), 4, grid, [1.0], 2, seed=0,
            tail_budget=1.0, dynamics="wave",
        )
    with pytest.raises(ValueError):
        assemble_field(
            SINGLE, BASIS, Flat(1.0), 0, grid, [1.0], 2, seed=0, tail_budget=1.0
        )
    with pytest.raises(ValueError):
        assemble_field(
            SINGLE, BASIS, Flat(1.0), 4, grid, [], 2, seed=0, tail_budget=1.0
        )
