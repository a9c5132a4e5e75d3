"""Kernel measure construction, exact transforms, and quadrature discretization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glefield.cm_kernel import (
    KernelError,
    KernelMeasure,
    PowerLaw,
    discretize,
    eval_kernel,
    k_cos,
    k_sin,
    k_sin_over_omega,
)

SINGLE = KernelMeasure([(1.0, 1.0)])
MIX = KernelMeasure([(0.5, 1.0), (0.5, 2.0)])


def test_eval_single_atom_values():
    assert eval_kernel(SINGLE, 0.0) == 1.0
    assert eval_kernel(SINGLE, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_eval_two_atom_value():
    assert eval_kernel(MIX, math.log(2.0)) == pytest.approx(0.375, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    ts = np.linspace(0.0, 5.0, 11)
    vec = eval_kernel(SINGLE, ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert v == eval_kernel(SINGLE, float(t))


def test_eval_rejects_bad_times():
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises((KernelError, ValueError)):
            eval_kernel(SINGLE, t)


def test_k_cos_spot_values():
    assert k_cos(SINGLE, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert k_cos(SINGLE, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert k_cos(MIX, 0.0) == pytest.approx(0.75, rel=1e-15)


def test_k_sin_spot_values():
    assert k_sin(SINGLE, 0.0) == 0.0
    assert k_sin(SINGLE, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert k_sin(SINGLE, 3.0) == pytest.approx(0.3, rel=1e-15)


def test_transform_symmetries():
    omegas = np.geomspace(1e-3, 1e3, 25)
    assert np.allclose(k_cos(MIX, -omegas), k_cos(MIX, omegas), rtol=0.0)
    assert np.allclose(k_sin(MIX, -omegas), -k_sin(MIX, omegas), rtol=0.0)


def test_k_sin_over_omega_continuous_at_zero():
    # limit is sum w_i / x_i^2
    assert k_sin_over_omega(MIX, 0.0) == pytest.approx(0.5 + 0.5 / 4.0, rel=1e-15)
    w = 1e-8
    assert k_sin_over_omega(MIX, w) == pytest.approx(k_sin(MIX, w) / w, rel=1e-12)


def test_transforms_reject_non_finite_frequencies():
    for transform in (k_cos, k_sin, k_sin_over_omega):
        for omega in (math.nan, math.inf, [1.0, -math.inf]):
            with pytest.raises(KernelError):
                transform(MIX, omega)


def test_canonicalization_merges_and_sorts():
    m = KernelMeasure([(0.5, 2.0), (0.25, 1.0), (0.25, 1.0)])
    assert m.atoms == ((0.5, 1.0), (0.5, 2.0))
    assert m.mass == pytest.approx(1.0, rel=1e-15)


def test_construction_rejects_bad_atoms():
    for atoms in ([], [(0.0, 1.0)], [(-1.0, 1.0)], [(1.0, 0.0)], [(1.0, -2.0)],
                  [(math.nan, 1.0)], [(1.0, math.inf)]):
        with pytest.raises(KernelError):
            KernelMeasure(atoms)


def test_powerlaw_family_validation():
    with pytest.raises(KernelError):
        PowerLaw(-1.0, 64)
    with pytest.raises(KernelError):
        PowerLaw(0.0, 64)
    with pytest.raises(KernelError):
        PowerLaw(1.0, 4)


def test_discretize_passthrough():
    m = discretize(KernelMeasure([(1.0, 1.0)]))
    assert m.atoms == SINGLE.atoms


def test_discretize_powerlaw_value():
    m = discretize(PowerLaw(1.0, 32))
    assert eval_kernel(m, 1.0) == pytest.approx(0.5, abs=1e-6)


def test_discretize_powerlaw_mass():
    m = discretize(PowerLaw(0.5, 64))
    assert m.mass == pytest.approx(1.0, abs=1e-10)


def test_discretize_powerlaw_uniform_accuracy():
    m = discretize(PowerLaw(1.0, 64))
    ts = np.linspace(0.0, 10.0, 101)
    exact = (1.0 + ts) ** -1.0
    rel = np.abs(eval_kernel(m, ts) - exact) / exact
    assert rel.max() <= 1e-6


GRID = np.geomspace(1e-3, 1e6, 2000)


@pytest.mark.parametrize("measure", [SINGLE, MIX, discretize(PowerLaw(1.0, 64))],
                         ids=["single", "mix", "powerlaw"])
def test_transform_monotonicity_suite(measure):
    kc = k_cos(measure, GRID)
    ks = k_sin(measure, GRID)
    assert np.all(np.diff(kc) < 0.0)
    assert np.all(GRID * kc <= measure.mass / 2.0)
    assert np.all(np.diff(GRID**2 * kc) >= 0.0)
    assert np.all(np.diff(GRID * ks) >= 0.0)
    assert np.all(np.diff(ks / GRID) < 0.0)


def test_omega_k_sin_limit_single_atom():
    # margin of the bound is K(0)/omega^4, subresolvable past omega ~ eps^(-1/4);
    # exact assertion on a decidable range, two-ulp headroom on the full one
    big = GRID[(GRID >= 10.0) & (GRID <= 3000.0)]
    assert np.all(np.abs(big * k_sin(SINGLE, big) - SINGLE.mass) <= SINGLE.mass / big**2)
    allw = GRID[GRID >= 10.0]
    excess = np.abs(allw * k_sin(SINGLE, allw) - SINGLE.mass) - SINGLE.mass / allw**2
    assert excess.max() <= 2.0**-51


def test_complete_monotonicity_finite_differences():
    ts = np.linspace(0.0, 20.0, 401)
    for measure in (SINGLE, MIX, discretize(PowerLaw(0.7, 32))):
        vals = eval_kernel(measure, ts)
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        assert np.all(d1 <= 0.0)
        assert np.all(d2 >= 0.0)


atoms_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(atoms=atoms_strategy)
def test_mass_equals_value_at_zero(atoms):
    m = KernelMeasure(atoms)
    assert eval_kernel(m, 0.0) == pytest.approx(m.mass, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(atoms=atoms_strategy, omega=st.floats(min_value=1e-6, max_value=1e6))
# a slow atom at a large omega, where omega * k_sin rounds one ulp above the mass
@example(atoms=[(0.001, 0.00390625)], omega=525432.75)
@example(atoms=[(170.86584267189886, 0.00390625)], omega=422841.0)
def test_transform_bounds_random_measures(atoms, omega):
    m = KernelMeasure(atoms)
    assert 0.0 < k_cos(m, omega) <= k_cos(m, 0.0)
    assert 0.0 <= k_sin(m, omega) * omega <= m.mass + 1e-15 * m.mass
    assert omega * k_cos(m, omega) <= m.mass / 2.0 + 1e-15 * m.mass
