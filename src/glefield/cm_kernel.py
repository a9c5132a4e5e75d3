"""Completely monotone memory kernels and their half-line Fourier transforms.

A kernel K(t) = sum_i w_i * exp(-x_i * t) is represented by the finite atomic
measure mu = sum_i w_i * delta_{x_i} with weights w_i > 0 and rates x_i > 0.
Every operation downstream works on the atoms, so the cosine and sine
transforms

    K_cos(omega) = integral_0^inf K(t) cos(omega t) dt
                 = sum_i w_i * x_i / (x_i**2 + omega**2)
    K_sin(omega) = integral_0^inf K(t) sin(omega t) dt
                 = sum_i w_i * omega / (x_i**2 + omega**2)

are evaluated exactly (no quadrature).  Kernels that are not already finite
sums of exponentials enter through :func:`discretize`, which maps them to an
atomic measure whose kernel matches the original to quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import roots_genlaguerre


class KernelError(ValueError):
    """Invalid kernel measure or kernel family parameters."""


def _canonical_atoms(atoms) -> tuple[tuple[float, float], ...]:
    """Validate, merge duplicate rates, and sort atoms by rate."""
    merged: dict[float, float] = {}
    for pair in atoms:
        try:
            weight, rate = pair
        except (TypeError, ValueError):
            raise KernelError(f"atom {pair!r} is not a (weight, rate) pair")
        weight = float(weight)
        rate = float(rate)
        if not np.isfinite(weight) or not np.isfinite(rate):
            raise KernelError(f"atom ({weight}, {rate}) has non-finite entries")
        if weight <= 0.0:
            raise KernelError(f"atom weight {weight} must be positive")
        if rate <= 0.0:
            raise KernelError(f"atom rate {rate} must be positive")
        merged[rate] = merged.get(rate, 0.0) + weight
    if not merged:
        raise KernelError("kernel measure needs at least one atom")
    return tuple((merged[rate], rate) for rate in sorted(merged))


@dataclass(frozen=True)
class KernelMeasure:
    """Finite atomic representing measure of a completely monotone kernel.

    Atoms are stored canonically: sorted by rate, duplicate rates merged by
    summing their weights.  Equality is structural equality of the canonical
    atom list.
    """

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms):
        object.__setattr__(self, "atoms", _canonical_atoms(atoms))

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.array([w for w, _ in self.atoms])
        w.flags.writeable = False
        return w

    @cached_property
    def rates(self) -> np.ndarray:
        x = np.array([x for _, x in self.atoms])
        x.flags.writeable = False
        return x

    @cached_property
    def mass(self) -> float:
        """Total mass of the measure, equal to K(0)."""
        return float(sum(w for w, _ in self.atoms))


def _finite(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise KernelError(f"{name} must be finite")
    return arr


def _atom_sum(measure: KernelMeasure, arr: np.ndarray, term):
    """sum_i term(w_i, x_i, arr), accumulated atom by atom in the shape of arr.

    One atom at a time keeps the temporaries the size of arr, never
    (points x atoms).  Scalar in, float out.
    """
    out = np.zeros_like(arr)
    for wi, xi in measure.atoms:
        out += term(wi, xi, arr)
    return out if out.shape else float(out)


def eval_kernel(measure: KernelMeasure, t):
    """Evaluate K(t) = sum_i w_i exp(-x_i t) for t >= 0.

    Accepts scalar or array ``t``; returns the same shape.
    """
    t_arr = _finite(t, "t")
    if np.any(t_arr < 0.0):
        raise KernelError("t must be nonnegative")
    return _atom_sum(measure, t_arr, lambda wi, xi, t: wi * np.exp(-xi * t))


def k_cos(measure: KernelMeasure, omega):
    """Cosine transform sum_i w_i x_i / (x_i^2 + omega^2), exact on atoms.

    Even in omega, strictly positive, strictly decreasing on [0, inf).
    """
    return _atom_sum(
        measure, _finite(omega, "omega"), lambda wi, xi, om: wi * xi / (xi * xi + om * om)
    )


def k_sin(measure: KernelMeasure, omega):
    """Sine transform sum_i w_i omega / (x_i^2 + omega^2), exact on atoms.

    Odd in omega; sign matches the sign of omega.
    """
    return _atom_sum(
        measure, _finite(omega, "omega"), lambda wi, xi, om: wi * om / (xi * xi + om * om)
    )


def k_sin_over_omega(measure: KernelMeasure, omega):
    """K_sin(omega)/omega = sum_i w_i / (x_i^2 + omega^2).

    Well defined at omega = 0 (the limit), strictly decreasing in omega.
    """
    return _atom_sum(
        measure, _finite(omega, "omega"), lambda wi, xi, om: wi / (xi * xi + om * om)
    )


@dataclass(frozen=True)
class PowerLaw:
    """Kernel K(t) = (1 + t)^(-exponent) with exponent > 0.

    Its representing measure has density x^(exponent-1) e^(-x) / Gamma(exponent),
    so an n-node generalized Gauss-Laguerre rule for that weight turns it into
    an atomic measure of total mass exactly 1.
    """

    exponent: float
    nodes: int

    def __post_init__(self):
        if not (self.exponent > 0.0 and np.isfinite(self.exponent)):
            raise KernelError(f"power-law exponent {self.exponent} must be positive")
        if int(self.nodes) != self.nodes or self.nodes < 8:
            raise KernelError(f"node count {self.nodes} must be an integer >= 8")
        object.__setattr__(self, "exponent", float(self.exponent))
        object.__setattr__(self, "nodes", int(self.nodes))


def discretize(family) -> KernelMeasure:
    """Map a kernel family to its atomic representing measure.

    A KernelMeasure passes through unchanged.  PowerLaw(a, n) uses the n-node
    generalized Gauss-Laguerre rule with weight x^(a-1) e^(-x), normalized by
    Gamma(a); the resulting kernel matches (1+t)^(-a) to relative error below
    1e-6 on t in [0, 10] once n >= 64.
    """
    if isinstance(family, KernelMeasure):
        return family
    if isinstance(family, PowerLaw):
        nodes, weights = roots_genlaguerre(family.nodes, family.exponent - 1.0)
        weights = weights / _gamma_fn(family.exponent)
        return KernelMeasure(tuple(zip(weights, nodes)))
    raise KernelError(f"unknown kernel family {family!r}")
