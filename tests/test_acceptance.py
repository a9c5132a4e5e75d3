"""Acceptance gates for the whole pipeline, one test per criterion.

Each test prints a single pass/fail line (visible with -s or on failure)
and enforces the pinned tolerance or runtime budget in its assertions.
"""

import json
import math
import time

import numpy as np

from glefield.cli import main
from glefield.cm_kernel import KernelMeasure, PowerLaw, discretize, eval_kernel, k_cos, k_sin
from glefield.field_assembly import DirichletInterval, Divergent, Explicit, Flat, check_wellposedness
from glefield.mode_sampler import TimeGrid, sample_gle_mode
from glefield.spectral import (
    Mode,
    NoResonance,
    SpectralDensity,
    autocovariance,
    check_resonance_inequality,
    find_resonance,
    integrate_rho,
)

CORPUS = {
    "single": KernelMeasure([(1.0, 1.0)]),
    "mix": KernelMeasure([(0.5, 1.0), (0.5, 2.0)]),
    "powerlaw": discretize(PowerLaw(1.0, 64)),
}
ALPHAS = [1.0, 10.0, 100.0, 1e4] + [(k * math.pi) ** 2 for k in range(1, 51)]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_variance_identity():
    start = time.perf_counter()
    worst = 0.0
    for measure in CORPUS.values():
        for alpha in ALPHAS:
            for lam in (1.0, 0.1):
                sd = SpectralDensity(measure, Mode(1, alpha, lam))
                integral = integrate_rho(sd)
                expected = lam * lam / alpha
                worst = max(worst, abs(integral - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _report(1, "variance identity", ok,
            f"324 cases, max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_resonance_limit():
    measure = CORPUS["single"]
    worst = 0.0
    for k in range(1, 201):
        alpha = (k * math.pi) ** 2
        res = find_resonance(SpectralDensity(measure, Mode(k, alpha, 1.0)))
        worst = max(worst, abs(res.omega_r - math.sqrt(alpha - 1.0)))
    ratio = res.omega_r**2 / alpha
    ok = worst <= 1e-10 and abs(ratio - 1.0) <= 0.05
    _report(2, "resonance limit", ok,
            f"max |omega dev| {worst:.2e}, ratio at k=200: {ratio:.6f}")


def test_criterion_3_transform_monotonicity():
    om = np.geomspace(1e-3, 1e6, 10**4)
    violations = []
    for name, measure in CORPUS.items():
        kc = k_cos(measure, om)
        ks = k_sin(measure, om)
        k0 = eval_kernel(measure, 0.0)
        if not np.all(np.diff(kc) < 0.0):
            violations.append(f"{name}: k_cos not strictly decreasing")
        if not np.all(om * kc <= 0.5 * k0):
            violations.append(f"{name}: omega*k_cos exceeds K(0)/2")
        if not np.all(np.diff(om * om * kc) >= 0.0):
            violations.append(f"{name}: omega^2*k_cos not nondecreasing")
        if not np.all(np.diff(om * ks) >= 0.0):
            violations.append(f"{name}: omega*k_sin not nondecreasing")
        if not np.all(np.diff(ks / om) < 0.0):
            violations.append(f"{name}: k_sin/omega not strictly decreasing")
    # limit clause of the fourth assertion, on the window where the
    # 1/omega^4 margin is representable in float
    sel = om[(om >= 10.0) & (om <= 3000.0)]
    lim = np.abs(sel * k_sin(CORPUS["single"], sel) - 1.0) <= 1.0 / sel**2
    if not np.all(lim):
        violations.append("single: omega*k_sin limit bound")
    ok = not violations
    _report(3, "transform monotonicity", ok,
            "zero violations" if ok else "; ".join(violations))


def test_criterion_4_resonance_inequality():
    checked = 0
    worst = math.inf
    failures = []
    for name, measure in CORPUS.items():
        for alpha in ALPHAS:
            sd = SpectralDensity(measure, Mode(1, alpha, 1.0))
            try:
                res = find_resonance(sd)
            except NoResonance:
                continue
            if res.omega_r <= 1.0:
                continue
            slack = check_resonance_inequality(sd, res)
            checked += 1
            worst = min(worst, slack.min_slack)
            if slack.min_slack < 0.0:
                failures.append(f"{name} alpha={alpha:g}")
    ok = checked > 0 and not failures
    _report(4, "resonance inequality", ok,
            f"{checked} resonant pairs, min slack {worst:.3e}"
            + ("" if not failures else f"; failed: {', '.join(failures)}"))


def test_criterion_5_sampler_fidelity():
    measure = CORPUS["single"]
    grid = TimeGrid(dt=2.0**-8, n=4096)
    details = []
    ok = True
    for alpha in (10.0, 100.0):
        start = time.perf_counter()
        mode = Mode(1, alpha, 1.0)
        sd = SpectralDensity(measure, mode)
        ens = sample_gle_mode(measure, mode, grid, 4096, seed=2024)
        v = ens.values
        worst = 0.0
        for j in (0, 1, 2, 4, 8, 16, 32, 64):
            prod = v[:, j:] * v[:, : v.shape[1] - j] if j else v * v
            per_path = prod.mean(axis=1)
            est = per_path.mean()
            se_mc = per_path.std(ddof=1) / math.sqrt(v.shape[0])
            truth = autocovariance(sd, j * grid.dt, 1e-8)
            se = math.hypot(se_mc, 1e-8 * abs(truth))
            worst = max(worst, abs(est - truth) / se)
        elapsed = time.perf_counter() - start
        ok = ok and worst <= 4.0 and elapsed <= 120.0
        details.append(f"alpha={alpha:g}: max dev {worst:.2f} se, {elapsed:.1f} s")
    _report(5, "sampler fidelity", ok, "; ".join(details))


def test_criterion_6_roughness_comparison(tmp_path):
    out = tmp_path / "rep"
    start = time.perf_counter()
    code = main(["reproduce", "--profile", "comparison_1d", "--threads", "2",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    summary = json.loads((out / "summary.json").read_text())
    bands = {
        "gle_time": (0.42, 0.55),
        "heat_time": (0.20, 0.30),
        "gle_space": (0.42, 0.58),
        "heat_space": (0.42, 0.58),
    }
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    for cell, (lo, hi) in bands.items():
        got = summary[cell]
        if not lo <= got["gamma_hat"] <= hi:
            problems.append(f"{cell} gamma {got['gamma_hat']:.4f} outside [{lo}, {hi}]")
        if got["ci_high"] - got["ci_low"] > 0.1:
            problems.append(f"{cell} CI width {got['ci_high'] - got['ci_low']:.3f} > 0.1")
        if got["r_squared"] < 0.97:
            problems.append(f"{cell} r^2 {got['r_squared']:.4f} < 0.97")
    if not summary["heat_time"]["ci_high"] < summary["gle_time"]["ci_low"]:
        problems.append("time CIs not disjoint")
    # the sidecar names the law each cell ran, not the one [sampler] default
    laws = json.loads((out / "reproduce.provenance.json").read_text())["laws"]
    if laws != {cell: cell.split("_")[0] for cell in bands}:
        problems.append(f"sidecar laws {laws}")
    if elapsed > 1200.0:
        problems.append(f"runtime {elapsed:.0f} s > 1200 s")
    ok = not problems
    gammas = ", ".join(f"{c}={summary[c]['gamma_hat']:.3f}" for c in bands)
    _report(6, "roughness comparison", ok,
            (gammas + f", {elapsed:.0f} s") if ok else "; ".join(problems))


def test_criterion_7_wellposedness_gate():
    report = check_wellposedness(DirichletInterval(math.pi), Flat(1.0))
    total_ok = report.convergent and abs(report.total - math.pi**2 / 6.0) <= 1e-6
    growth = Explicit([float(k) for k in range(1, 4097)])
    try:
        check_wellposedness(DirichletInterval(math.pi), growth)
        rejected = False
    except Divergent:
        rejected = True
    ok = total_ok and rejected
    _report(7, "wellposedness gate", ok,
            f"series total {report.total:.9f}, critical growth rejected: {rejected}")


def test_criterion_8_cli_determinism(tmp_path):
    base = ["sample-field", "--N", "16", "--nx", "8", "--dt", str(2.0**-6),
            "--n", "256", "--ensemble", "8", "--seed", "77", "--tail-budget", "1.0"]
    runs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{tag}.csv"
        code = main(base + ["--threads", threads, "--out", str(out)])
        runs[tag] = (code, out.read_bytes())
    codes_ok = all(code == 0 for code, _ in runs.values())
    repeat_ok = runs["a"][1] == runs["b"][1]
    threads_ok = runs["a"][1] == runs["c"][1]
    ok = codes_ok and repeat_ok and threads_ok
    _report(8, "determinism", ok,
            f"repeat identical: {repeat_ok}, thread-count invariant: {threads_ok}")
