"""The three workloads: inputs made from a seed, timed ops, output checks.

Every op calls glefield through a module attribute looked up at call time
(``field_assembly.assemble_field``, ``cli.main``), so a traced run sees the
wrappers installed in those namespaces.  Checks and digests run outside the
timed ops and call nothing in glefield.

The field workloads are the four cells of ``reproduce comparison_1d``; the
profile's settings are copied here so that a change to the profile does not
silently change the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from glefield import cli, field_assembly, regularity
from glefield.cm_kernel import KernelMeasure
from glefield.field_assembly import DirichletInterval, Flat
from glefield.mode_sampler import TimeGrid

LENGTH = math.pi
N_MODES = 128
BOOTSTRAP = 200
TIME_SEED, SPACE_SEED = 20240601, 20240602
TIME_STEPS = [32, 64, 128, 256, 512]
TIME_DT = 2.0**-10
SPACE_STEPS = [2, 4, 8, 16, 32]
# criterion-6 acceptance bands for the fitted exponent of each cell
BANDS = {
    "gle_time": (0.42, 0.55),
    "heat_time": (0.20, 0.30),
    "gle_space": (0.42, 0.58),
    "heat_space": (0.42, 0.58),
}
MIN_R_SQUARED = 0.97
MAX_CLIPPED_MASS = 1e-6

class Checks:
    """Output checks of one iteration plus a SHA-256 digest of its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._sha = hashlib.sha256()

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def digest(self, data) -> None:
        if isinstance(data, (bytes, bytearray)):
            self._sha.update(data)
        elif isinstance(data, np.ndarray):
            self._sha.update(np.ascontiguousarray(data, dtype=np.float64).tobytes())
        else:
            self._sha.update(struct.pack("<d", float(data)))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Op:
    """One timed call into glefield and the check of what it returned."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Ops of one iteration and the checks across them (``finish``)."""

    def __init__(self, name, ops, finish=None, working_set_mb=0.0):
        self.name = name
        self.ops = ops
        self.finish = finish or (lambda outputs, checks: None)
        self.working_set_mb = working_set_mb


def _check_fit(cell, fit, checks):
    lo, hi = BANDS[cell]
    checks.expect(lo <= fit.gamma_hat <= hi,
                  f"{cell}: gamma {fit.gamma_hat:.4f} outside [{lo}, {hi}]")
    checks.expect(fit.r_squared >= MIN_R_SQUARED,
                  f"{cell}: r^2 {fit.r_squared:.4f} < {MIN_R_SQUARED}")
    for v in (fit.gamma_hat, fit.ci_low, fit.ci_high, fit.r_squared):
        checks.digest(v)


def _field_cells(cells, grid, xs, m, seed, axis, steps, fit_seed, workers):
    kernel = KernelMeasure([(1.0, 1.0)])
    basis = DirichletInterval(LENGTH)
    weights = Flat(1.0)

    def cell_op(cell, dynamics):
        def run():
            sample = field_assembly.assemble_field(
                kernel, basis, weights, N_MODES, grid, xs, m, seed,
                dynamics=dynamics, workers=workers)
            curve = regularity.empirical_variogram(sample, axis, steps)
            fit = regularity.fit_exponent(curve, bootstrap=BOOTSTRAP, seed=fit_seed)
            return sample, curve, fit

        def check(out, checks):
            sample, curve, fit = out
            clipped = max(sample.clipped_masses, default=0.0)
            checks.expect(clipped <= MAX_CLIPPED_MASS,
                          f"{cell}: clipped mass {clipped:.3e} > {MAX_CLIPPED_MASS}")
            checks.digest(sample.values)
            checks.digest(curve.values)
            _check_fit(cell, fit, checks)

        return Op(cell, run, check)

    return [cell_op(cell, dynamics) for cell, dynamics in cells]


def _interior(nx):
    return np.arange(1, nx + 1) * (LENGTH / (nx + 1))


def field_time(seed, workdir):
    """gle_time and heat_time at reduced scale, one thread."""
    seed = TIME_SEED if seed is None else seed
    grid = TimeGrid(dt=TIME_DT, n=4096)
    m, xs = 16, _interior(16)
    ops = _field_cells([("gle_time", "gle"), ("heat_time", "heat")], grid, xs, m, seed,
                       "time", TIME_STEPS, fit_seed=1, workers=1)

    def finish(outputs, checks):
        heat, gle = outputs["heat_time"][2], outputs["gle_time"][2]
        checks.expect(heat.ci_high < gle.ci_low,
                      f"time CIs overlap: heat {heat.ci_high:.4f} >= gle {gle.ci_low:.4f}")

    return Workload("field_time", ops, finish, m * grid.n * xs.size * 8 / 1e6)


def field_space(seed, workdir):
    """gle_space and heat_space at profile scale but half the ensemble, two threads.

    128 members instead of the profile's 256 halve each op to about a
    second, so a run repeats each op about ten times.
    """
    seed = SPACE_SEED if seed is None else seed
    grid = TimeGrid(dt=4.0, n=16)
    m, xs = 128, _interior(255)
    ops = _field_cells([("gle_space", "gle"), ("heat_space", "heat")], grid, xs, m, seed,
                       "space", SPACE_STEPS, fit_seed=2, workers=2)
    return Workload("field_space", ops, None, m * grid.n * xs.size * 8 / 1e6)


def cli_roundtrip(seed, workdir):
    """sample-field writes a heat-field CSV; hoelder reads it back twice.

    65k rows keep each op under half a second, so a run repeats each op
    about fifty times.
    """
    seed = 0 if seed is None else seed
    m, n, nx = 4, 256, 64
    field = os.path.join(workdir, "field.csv")
    reports = {axis: os.path.join(workdir, f"hoelder_{axis}.json") for axis in ("time", "space")}
    argv = ["sample-field", "--dynamics", "heat", "--N", "64", "--nx", str(nx),
            "--n", str(n), "--ensemble", str(m), "--seed", str(seed), "--threads", "1",
            "--out", field]

    def check_write(code, checks):
        checks.expect(code == 0, f"sample-field exit code {code}")
        if code != 0:
            return
        with open(field, "rb") as fh:
            data = fh.read()
        rows = data.count(b"\n") - 1
        checks.expect(rows == m * n * nx, f"sample-field wrote {rows} rows, not {m * n * nx}")
        checks.digest(data)

    def hoelder(axis, cell):
        def run():
            return cli.main(["hoelder", "--in", field, "--axis", axis, "--out", reports[axis]])

        def check(code, checks):
            checks.expect(code == 0, f"hoelder --axis {axis} exit code {code}")
            if code != 0:
                return
            with open(reports[axis], "rb") as fh:
                data = fh.read()
            gamma = json.loads(data)["gamma_hat"]
            lo, hi = BANDS[cell]
            checks.expect(lo <= gamma <= hi, f"hoelder {axis}: gamma {gamma:.4f} outside [{lo}, {hi}]")
            checks.digest(data)

        return Op(f"hoelder-{axis}", run, check)

    ops = [
        Op("sample-field", lambda: cli.main(argv), check_write),
        hoelder("time", "heat_time"),
        hoelder("space", "heat_space"),
    ]

    def finish(outputs, checks):
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))

    # the parsed CSV: one float64 per column per row
    return Workload("cli_roundtrip", ops, finish, m * n * nx * 4 * 8 / 1e6)


WORKLOADS = {
    "field_time": field_time,
    "field_space": field_space,
    "cli_roundtrip": cli_roundtrip,
}
