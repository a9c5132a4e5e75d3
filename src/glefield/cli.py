"""Command line entry point: the pipeline as subcommands with config files.

Configuration is INI-style text with [section] headers and key = value
lines, read by ``load_config`` in one pass.  Every key has a documented
default (run with --help to see the schema), keys are case-insensitive,
every malformed line, unknown section or key is an error anchored to its
line number, and subcommand flags override file values: file lines, flags
and profile values all set a key through ``RunConfig.set``.
Each run writes its artifact plus a JSON provenance sidecar
(<artifact>.provenance.json) carrying the effective configuration, its
SHA-256 hash, the seed, and the tolerance settings; re-serializing the
sidecar's config reproduces the hash.

The parser is declared, not written: ``_FLAGS`` gives each flag its argparse
keywords, the config (section, key) it overrides and the least value it
accepts; ``_COMMANDS`` lists each subcommand's flags in --help order with that
command's own help and defaults (a bound flag's help defaults to its key's).
``_config`` loads --config and sets every bound flag before the handler
``cmd_<command>``, looked up on this module at dispatch, runs; the parser
is built once per process.  The sampling law every command reads is the one key
[sampler] dynamics, which --dynamics overrides.

Exit codes: 0 success, 2 configuration or input validation error,
3 a quadrature tolerance not met or a ``verify`` report that fails.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__, mode_sampler, spectral
from .cm_kernel import (
    KernelError,
    KernelMeasure,
    PowerLaw,
    discretize,
    eval_kernel,
    k_cos,
    k_sin,
)
from .field_assembly import (
    DirichletInterval,
    Divergent,
    Explicit,
    FieldSample,
    Flat,
    PowerDecay,
    TailBudgetExceeded,
    _modes,
    assemble_field,
    critical_eta,
)
from .mode_sampler import LAWS, TimeGrid, _is_integer
from .regularity import (
    DegenerateFit,
    empirical_variogram,
    fit_exponent,
    theoretical_field_variogram,
    theoretical_space_variogram,
    theoretical_variogram,
)
from .spectral import (
    SpectralDensity,
    ToleranceNotMet,
    check_resonance_inequality,
    find_resonance,
    integrate_rho,
)


class ConfigError(Exception):
    """Configuration file or flag rejected; message carries file:line."""


# section -> key -> (default text, kind, help); kinds drive parsing,
# validation, and the canonical re-serialization that gets hashed
_SCHEMA = {
    "kernel": {
        "kernel": ("expsum", "choice:expsum,powerlaw", "kernel family"),
        "atoms": ("[[1.0, 1.0]]", "atoms", "expsum atoms as [[w, x], ...]"),
        "exponent": ("1.0", "float", "powerlaw decay exponent a > 0"),
        "nodes": ("64", "int", "powerlaw quadrature node count >= 8"),
    },
    "basis": {
        "type": ("dirichlet_interval", "choice:dirichlet_interval", "eigenbasis"),
        "length": (repr(math.pi), "float", "interval length L > 0"),
    },
    "weights": {
        "rule": ("flat", "choice:flat,power,explicit", "noise weight rule"),
        "lam": ("1.0", "float", "flat rule: lambda_k = lam"),
        "s": ("0.5", "float", "power rule: lambda_k = alpha_k^(-s)"),
        "values": ("[]", "floats", "explicit rule: lambda_1..lambda_N"),
    },
    "sampler": {
        "dt": ("0.00390625", "float", "time step"),
        "n": ("4096", "int", "samples per path"),
        "ensemble": ("64", "int", "paths per mode"),
        "seed": ("0", "int", "base seed; mode k draws from SFC64 child k of its SeedSequence"),
        "dynamics": ("gle", "choice:" + ",".join(LAWS),
                     "gle=memory-driven (exact), heat=memoryless, spectral=superposition of gle"),
    },
    "regularity": {
        "lags": ("dyadic", "lags", "variogram lag steps: 'dyadic' or comma ints"),
        "bootstrap": ("200", "int", "bootstrap resamples for the exponent CI"),
    },
    "tolerances": {
        "rel_tol": ("1e-06", "float", "relative tolerance for quadrature routines"),
        "verify_rel_tol": ("1e-06", "float", "pass bar for the verify report"),
        "tail_budget": ("0.01", "float", "allowed truncated pointwise variance"),
    },
}


def _canon(kind: str, text: str, where: str):
    """Parse one config value; returns (typed value, canonical text)."""
    text = text.strip()
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{where}: {text!r} is not an integer") from None
        return value, str(value)
    if kind == "float":
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{where}: {text!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"{where}: {text!r} is not finite")
        return value, repr(value)
    if kind.startswith("choice:"):
        allowed = kind.split(":", 1)[1].split(",")
        if text not in allowed:
            raise ConfigError(f"{where}: {text!r} must be one of {', '.join(allowed)}")
        return text, text
    if kind == "atoms":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError:
            raise ConfigError(f"{where}: atoms must be JSON like [[w, x], ...]") from None
        if not (
            isinstance(raw, list)
            and raw
            and all(
                isinstance(p, list)
                and len(p) == 2
                and all(isinstance(v, (int, float)) for v in p)
                for p in raw
            )
        ):
            raise ConfigError(f"{where}: atoms must be a nonempty list of [w, x] pairs")
        value = [[float(w), float(x)] for w, x in raw]
        return value, json.dumps(value, separators=(",", ":"))
    if kind == "floats":
        if text in ("", "[]"):
            return [], "[]"
        parts = text.strip("[]").replace(",", " ").split()
        try:
            value = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{where}: expected a list of numbers") from None
        return value, json.dumps(value, separators=(",", ":"))
    if kind == "lags":
        if text == "dyadic":
            return "dyadic", "dyadic"
        try:
            steps = [int(p) for p in text.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"{where}: lags must be 'dyadic' or comma-separated integers") from None
        if not steps or any(s <= 0 for s in steps):
            raise ConfigError(f"{where}: lag steps must be positive integers")
        return steps, ",".join(str(s) for s in steps)
    raise AssertionError(f"unhandled kind {kind}")


class RunConfig:
    """Effective configuration: schema defaults, then file lines, flags and
    profile values, each through :meth:`set`.

    Holds only canonical strings, which ``get`` parses back exactly (repr
    floats, str ints, JSON lists); they are what gets hashed into provenance
    sidecars, so two configs that mean the same thing hash identically.
    """

    def __init__(self):
        self._texts = {section: {} for section in _SCHEMA}
        for section, keys in _SCHEMA.items():
            for key, (default, _, _) in keys.items():
                self.set(section, key, default, f"{section}.{key}")

    def get(self, section: str, key: str):
        return _canon(_SCHEMA[section][key][1], self._texts[section][key], f"{section}.{key}")[0]

    def set(self, section: str, key: str, raw, where: str) -> None:
        """Set one key from its text; ``where`` (file:line, flag, profile) anchors errors."""
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        self._texts[section][key] = _canon(_SCHEMA[section][key][1], str(raw), where)[1]

    def updated(self, sections: dict, where: str) -> RunConfig:
        """A copy with each key of {section: {key: raw}} set through :meth:`set`."""
        cfg = copy.deepcopy(self)
        for section, keys in sections.items():
            for key, raw in keys.items():
                cfg.set(section, key, raw, where)
        return cfg

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self._texts):
            lines.append(f"[{section}]")
            for key in sorted(self._texts[section]):
                lines.append(f"{key} = {self._texts[section][key]}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def as_dict(self) -> dict:
        return {s: dict(kv) for s, kv in sorted(self._texts.items())}


def load_config(path: str | None) -> RunConfig:
    """Read a config file against the schema in one pass; None means all defaults.

    A line is blank, a comment (``#`` or ``;`` at its start or after
    whitespace ends the line's text), a ``[section]`` header alone on its
    line (names are case-sensitive), ``key = value`` or ``key: value`` (keys
    are case-folded), or, when indented deeper than the key line before it,
    a continuation of that key's value; blank and comment lines do not end a
    value.  Each error is a ConfigError at its file:line.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    entries, sections = {}, set()  # (section, key) -> (line, value lines), in file order
    section, value, indent = None, None, 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = re.split(r"(?:^|(?<=\s))[#;]", line, maxsplit=1)[0].strip()
            if not text:
                continue
            depth = len(line) - len(line.lstrip())
            if value is not None and depth > indent:
                value.append(text)
                continue
            where, indent, value = f"{path}:{lineno}", depth, None
            if text.startswith("["):
                if not text.endswith("]"):
                    raise ConfigError(f"{where}: {text!r} is not a [section] header alone")
                section = text[1:-1]
                if section not in _SCHEMA:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                if section in sections:
                    raise ConfigError(f"{where}: section [{section}] appears twice")
                sections.add(section)
                continue
            if section is None:
                raise ConfigError(f"{where}: {text!r} comes before any [section] header")
            name, delimiter, first = re.match(r"([^=:]*)([=:]?)(.*)", text).groups()
            key = name.strip().lower()
            if not (delimiter and key):
                raise ConfigError(f"{where}: expected key = value or key: value, got {text!r}")
            if (section, key) in entries:
                raise ConfigError(f"{where}: key {key!r} appears twice in [{section}]")
            value = [first.strip()]
            entries[(section, key)] = (lineno, value)
    for (section, key), (lineno, value) in entries.items():
        cfg.set(section, key, "\n".join(value), f"{path}:{lineno}")
    if cfg.get("weights", "rule") == "explicit" and not cfg.get("weights", "values"):
        line = entries["weights", "rule"][0]
        raise ConfigError(f"{path}:{line}: rule = explicit needs weights.values")
    return cfg


def build_kernel(cfg: RunConfig) -> KernelMeasure:
    if cfg.get("kernel", "kernel") == "expsum":
        return KernelMeasure([tuple(p) for p in cfg.get("kernel", "atoms")])
    return discretize(PowerLaw(cfg.get("kernel", "exponent"), cfg.get("kernel", "nodes")))


def _model(cfg: RunConfig):
    """The kernel measure, eigenbasis and weight rule the config describes."""
    measure = build_kernel(cfg)
    basis = DirichletInterval(cfg.get("basis", "length"))
    rule = cfg.get("weights", "rule")
    if rule == "flat":
        weights = Flat(cfg.get("weights", "lam"))
    elif rule == "power":
        weights = PowerDecay(cfg.get("weights", "s"))
    else:
        weights = Explicit(tuple(cfg.get("weights", "values")))
    return measure, basis, weights


def _threads(args) -> int:
    """--threads, or the machine's CPU count without it."""
    return args.threads or os.cpu_count() or 1


def _write_columns(path: str, header: list, columns) -> None:
    """One row per index of the equal-length float columns, each cell its
    repr: the bytes csv.writer gives for the same cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


# rows per string the field writer builds and writes at once
_GROUP_ROWS = 2048


def _write_field_csv(path: str, times, xs, values) -> None:
    """Rows path_id, t, x, value of values[i, j, l] in C order: the bytes
    csv.writer gives for the same cells with repr'd floats.  One time step's
    rows are a template, its path id filled in once per member; a group of
    about ``_GROUP_ROWS`` rows joins the template at each of its times and
    fills its %r slots with the values in one ``%``.  xs None drops the x
    column (the sample-mode layout path_id, t, value; values then has one x
    slot)."""
    ts = [repr(t) for t in times.tolist()]
    xr = [""] if xs is None else [f"{x!r}," for x in xs.tolist()]
    steps = max(1, _GROUP_ROWS // len(xr))
    # \0 marks the path id and \1 the time, neither of which a repr holds
    step_rows = "".join(f"\0,\1,{x}%r\n" for x in xr)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path_id,t,value\n" if xs is None else "path_id,t,x,value\n")
        for i, member in enumerate(values):
            own = step_rows.replace("\0", str(i))
            for lo in range(0, len(ts), steps):
                fh.write("".join([own.replace("\1", t) for t in ts[lo : lo + steps]])
                         % tuple(member[lo : lo + steps].ravel().tolist()))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(out_path: str, command: str, cfg: RunConfig, extra=None) -> None:
    payload = {
        "artifact": os.path.basename(out_path),
        "command": command,
        "config": cfg.as_dict(),
        "config_hash": cfg.hash(),
        "seed": cfg.get("sampler", "seed"),
        "tolerances": {k: cfg.get("tolerances", k) for k in _SCHEMA["tolerances"]},
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    _write_json(out_path + ".provenance.json", payload)


def cmd_kernel(args, cfg: RunConfig) -> int:
    """Tabulate the kernel on [0, t_max] as CSV columns t, value."""
    measure = build_kernel(cfg)
    if not (args.t_max > 0.0 and math.isfinite(args.t_max)):
        raise ConfigError(f"--t-max {args.t_max} must be positive")
    ts = np.linspace(0.0, args.t_max, args.points)
    _write_columns(args.out, ["t", "value"], [ts, eval_kernel(measure, ts)])
    _write_sidecar(args.out, "kernel", cfg,
                   {"mass": measure.mass, "atom_count": len(measure.atoms)})
    return 0


def cmd_spectrum(args, cfg: RunConfig) -> int:
    """Tabulate rho, K_cos, K_sin for one mode as CSV."""
    measure, basis, weights = _model(cfg)
    (mode,) = _modes(basis, weights, [args.k])
    omega_max = args.omega_max
    if omega_max is None:
        omega_max = 2.0 * math.sqrt(2.0 * mode.alpha_k * measure.mass)
    if not (omega_max > 0.0 and math.isfinite(omega_max)):
        raise ConfigError(f"--omega-max {omega_max} must be positive")
    omegas = np.linspace(0.0, omega_max, args.points)
    rho_vals = spectral.rho(SpectralDensity(measure, mode), omegas)
    _write_columns(args.out, ["omega", "rho", "k_cos", "k_sin"],
                   [omegas, rho_vals, k_cos(measure, omegas), k_sin(measure, omegas)])
    _write_sidecar(args.out, "spectrum", cfg, {"k": args.k})
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    """Check the variance identity and resonance diagnostics per mode.

    Reports integral vs lambda_k^2/alpha_k, the resonance frequency and its
    alpha-ratio, and the inequality slack; exits 3 if any relative error
    exceeds tolerances.verify_rel_tol or the inequality fails.  The identity is
    linear in lambda_k^2, so it is checked at unit weight (rel_err), whatever
    lambda_k; integral and expected are lambda_k^2 times the unit values.
    """
    measure, basis, weights = _model(cfg)
    try:
        k_list = [int(p) for p in args.k_list.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--k-list {args.k_list!r} must be comma-separated integers") from None
    if not k_list or any(k < 1 for k in k_list):
        raise ConfigError("--k-list needs positive mode indices")
    rel_tol = cfg.get("tolerances", "rel_tol")
    bar = cfg.get("tolerances", "verify_rel_tol")
    results = []
    failed = False
    for k, mode in zip(k_list, _modes(basis, weights, k_list)):
        sd = SpectralDensity(measure, replace(mode, lambda_k=1.0))
        integral = integrate_rho(sd, rel_tol=rel_tol)
        expected = 1.0 / mode.alpha_k
        rel_err = abs(integral - expected) / expected
        omega_r = find_resonance(sd)
        slack = math.nan if omega_r is None else check_resonance_inequality(sd, omega_r)
        results.append({
            "k": k,
            "alpha_k": mode.alpha_k,
            "lambda_k": mode.lambda_k,
            "integral": mode.lambda_k**2 * integral,
            "expected": mode.lambda_k**2 * expected,
            "rel_err": rel_err,
            "omega_k": omega_r,
            "omega_k_sq_over_alpha_k": None if omega_r is None else omega_r**2 / mode.alpha_k,
            "inequality_min_slack": None if math.isnan(slack) else slack,
        })
        failed = failed or rel_err > bar or slack < 0.0
    report = {
        "passed": not failed,
        "rel_tol_bar": bar,
        "results": results,
    }
    _write_json(args.out, report)
    _write_sidecar(args.out, "verify", cfg)
    return 3 if failed else 0


def cmd_sample_mode(args, cfg: RunConfig) -> int:
    """Sample one mode's trajectories to CSV columns path_id, t, value."""
    measure, basis, weights = _model(cfg)
    (mode,) = _modes(basis, weights, [args.k])
    grid = TimeGrid(dt=cfg.get("sampler", "dt"), n=cfg.get("sampler", "n"))
    ens = mode_sampler.sample(cfg.get("sampler", "dynamics"), measure, [mode], grid,
                              cfg.get("sampler", "ensemble"), cfg.get("sampler", "seed"))[0]
    _write_field_csv(args.out, grid.times, None, ens.values[:, :, None])
    _write_sidecar(
        args.out, "sample-mode", cfg,
        {
            "k": args.k,
            "route": ens.method,
            "clipped_mass": ens.clipped_mass,
            "embedding_length": ens.embedding_length,
            "node_count": ens.node_count,
        },
    )
    return 0


def _sample_field(cfg: RunConfig, model, n_modes: int, nx: int, workers: int) -> FieldSample:
    """The config's field, its model as ``_model`` builds it, its first
    n_modes modes at nx interior points, sampled on its [sampler] grid,
    ensemble, seed and law within its [tolerances] tail_budget."""
    measure, basis, weights = model
    grid = TimeGrid(dt=cfg.get("sampler", "dt"), n=cfg.get("sampler", "n"))
    return assemble_field(
        measure, basis, weights, n_modes, grid, np.arange(1, nx + 1) * (basis.length / (nx + 1)),
        cfg.get("sampler", "ensemble"), cfg.get("sampler", "seed"),
        dynamics=cfg.get("sampler", "dynamics"),
        tail_budget=cfg.get("tolerances", "tail_budget"), workers=workers,
    )


def cmd_sample_field(args, cfg: RunConfig) -> int:
    """Sample the truncated field to CSV columns path_id, t, x, value."""
    model = _model(cfg)
    _, basis, weights = model
    # the sidecar's gate and bound are the ones sampling passed; nothing is
    # written before, so input any series rejects leaves no artifact
    eta = critical_eta(basis, weights)
    sample = _sample_field(cfg, model, args.N, args.nx, _threads(args))
    _write_field_csv(args.out, sample.grid.times, sample.x, sample.values)
    _write_sidecar(args.out, "sample-field", cfg, {
        "N": args.N, "tail_bound": sample.tail_bound,
        "max_clipped_mass": max(sample.clipped_masses, default=0.0),
        "wellposedness": asdict(sample.wellposedness),
        "regularity_assumption": {"eta_critical": eta, "exact": not isinstance(weights, Explicit)}})
    return 0


def _read_field_csv(path: str):
    """Reconstruct (values[m, nt, nx], TimeGrid, x) from a sample CSV; x is
    None for a mode CSV (no x column), whose values have one x slot."""
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        # loadtxt warns on a file with no rows, so the first one is sought here:
        # a line that holds more than blanks and a '#' comment
        has_rows = any(line.split("#", 1)[0].strip() for line in fh)
    if header == ["path_id", "t", "value"]:
        has_x = False
    elif header == ["path_id", "t", "x", "value"]:
        has_x = True
    else:
        raise ConfigError(f"{path}: unrecognized columns {header}")
    if not has_rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.isfinite(data).all():
        raise ConfigError(f"{path}: non-finite cell in the data rows")
    paths = np.unique(data[:, 0])
    times = np.unique(data[:, 1])
    xs = np.unique(data[:, 2]) if has_x else np.array([0.0])
    m, nt, nx = len(paths), len(times), len(xs)
    if data.shape[0] != m * nt * nx:
        raise ConfigError(f"{path}: rows do not form a full (path, t, x) grid")
    if nt < 2:
        raise ConfigError(f"{path}: need at least 2 time samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ConfigError(f"{path}: time grid is not uniform")
    values = np.empty((m, nt, nx))
    pi = np.searchsorted(paths, data[:, 0])
    ti = np.searchsorted(times, data[:, 1])
    xi = np.searchsorted(xs, data[:, 2]) if has_x else np.zeros(len(data), dtype=int)
    # with the row count equal to the grid size, a repeated cell means another
    # cell is missing and would keep uninitialized memory
    filled = np.zeros(values.shape, dtype=bool)
    filled[pi, ti, xi] = True
    if not filled.all():
        raise ConfigError(f"{path}: duplicate (path, t, x) rows")
    values[pi, ti, xi] = data[:, -1]
    grid = TimeGrid(dt=float(dts[0]), n=nt)
    return values, grid, xs if has_x else None


def _fit(cfg: RunConfig, sample: FieldSample, axis: str, seed: int = 0):
    """(steps, variogram, fit) along an axis: the config's [regularity] lags on
    it ('dyadic': powers of two up to a quarter of its length), the sample's
    variogram there and its exponent, bootstrapped from seed."""
    steps = cfg.get("regularity", "lags")
    if steps == "dyadic":
        size = sample.values.shape[1 if axis == "time" else 2]
        steps = [2**i for i in range(max(size // 4, 1).bit_length())]
    curve = empirical_variogram(sample, axis, steps)
    return steps, curve, fit_exponent(curve, bootstrap=cfg.get("regularity", "bootstrap"),
                                      seed=seed)


def cmd_hoelder(args, cfg: RunConfig) -> int:
    """Fit the roughness exponent of a sampled field along one axis.

    Writes a JSON report with the fitted gamma, its bootstrap CI, the fit
    quality, and the variogram itself.  With --config, closed-form oracle
    values for the same lags are included (mode-level when the input has no
    x column, field-level with --N otherwise) under [sampler] dynamics.
    """
    values, grid, xs = _read_field_csv(args.infile)
    if args.axis == "space" and (xs is None or xs.size < 2):
        raise ConfigError("space axis needs a field CSV with an x column")
    sample = FieldSample(grid=grid, x=np.zeros(1) if xs is None else xs, values=values, n_modes=0)
    steps, curve, fit = _fit(cfg, sample, args.axis)
    oracle = None
    if args.config is not None:
        measure, basis, weights = _model(cfg)
        law = cfg.get("sampler", "dynamics")
        if args.axis == "space":
            theory = theoretical_space_variogram(basis, weights, args.N, xs, steps, law)
        elif xs is None:
            (mode,) = _modes(basis, weights, [args.k])
            theory = theoretical_variogram(measure, mode, curve.lags, law)
        else:
            theory = theoretical_field_variogram(measure, basis, weights, args.N, xs,
                                                 curve.lags, law)
        oracle = [float(v) for v in theory.values]
    report = {
        "axis": args.axis,
        "gamma_hat": fit.gamma_hat,
        "ci": [fit.ci_low, fit.ci_high],
        "r_squared": fit.r_squared,
        "flagged": fit.flagged,
        "n_members": fit.n_members,
        "lags": [float(v) for v in curve.lags],
        "values": [float(v) for v in curve.values],
        "stderr": [float(v) for v in curve.stderr],
        "oracle_values": oracle,
    }
    _write_json(args.out, report)
    _write_sidecar(args.out, "hoelder", cfg, {"input": os.path.basename(args.infile)})
    return 0


# frozen one-shot runs: each profile is the config its run records, its mode
# count and its cells; a cell sets config keys on top of the profile's and
# gives its axis, interior x point count and bootstrap seed.  comparison_1d's
# space cells are decorrelated snapshots; its lag windows avoid the
# truncation-contaminated smallest scales and the O(1) largest ones
_SPACE_GRID = {"dt": 4.0, "n": 16, "ensemble": 256, "seed": 20240602}
_TIME_LAGS, _SPACE_LAGS = {"lags": "32, 64, 128, 256, 512"}, {"lags": "2, 4, 8, 16, 32"}
_PROFILES = {
    "comparison_1d": {
        "config": {
            "kernel": {"atoms": "[[1.0, 1.0]]"},
            "basis": {"length": math.pi},
            "sampler": {"dt": 2.0**-10, "n": 2**14, "ensemble": 64, "seed": 20240601},
            "regularity": {"bootstrap": 200},
        },
        "n_modes": 128,
        "cells": {
            "gle_time": {"config": {"sampler": {"dynamics": "gle"}, "regularity": _TIME_LAGS},
                         "axis": "time", "nx": 16, "fit_seed": 1},
            "heat_time": {"config": {"sampler": {"dynamics": "heat"}, "regularity": _TIME_LAGS},
                          "axis": "time", "nx": 16, "fit_seed": 1},
            "gle_space": {"config": {"sampler": {**_SPACE_GRID, "dynamics": "gle"},
                                     "regularity": _SPACE_LAGS},
                          "axis": "space", "nx": 255, "fit_seed": 2},
            "heat_space": {"config": {"sampler": {**_SPACE_GRID, "dynamics": "heat"},
                                      "regularity": _SPACE_LAGS},
                           "axis": "space", "nx": 255, "fit_seed": 2},
        },
    },
}

# a cell's own fields -> (check, what it must be)
_CELL_FIELDS = {
    "axis": (lambda v: v in ("time", "space"), "'time' or 'space'"),
    "nx": (lambda v: _is_integer(v) and v >= 1, "a positive integer"),
    "fit_seed": (lambda v: _is_integer(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
}


def cmd_reproduce(args, cfg: RunConfig) -> int:
    """Run a profile's cells: each is sampled as by sample-field and fitted as
    by hoelder, and writes a variogram CSV and a {gamma_hat, ci_low, ci_high,
    r_squared} entry of summary.json.  Every cell's config, axis, interior
    point count and bootstrap seed are checked before any output, so a
    malformed profile leaves none."""
    profile = _PROFILES[args.profile]
    where = f"profile {args.profile}"
    cfg = cfg.updated(profile["config"], where)
    cells = {name: cfg.updated(cell["config"], f"{where} cell {name}")
             for name, cell in profile["cells"].items()}
    for name, cell in profile["cells"].items():
        for key, (ok, what) in _CELL_FIELDS.items():
            if not ok(cell[key]):
                raise ConfigError(f"{where} cell {name}: {key} {cell[key]!r} must be {what}")
    os.makedirs(args.out, exist_ok=True)
    summary, laws = {"profile": args.profile}, {}
    for name, cell in profile["cells"].items():
        sample = _sample_field(cells[name], _model(cells[name]), profile["n_modes"], cell["nx"],
                               _threads(args))
        _, curve, fit = _fit(cells[name], sample, cell["axis"], cell["fit_seed"])
        laws[name] = cells[name].get("sampler", "dynamics")
        _write_columns(os.path.join(args.out, f"{name}_variogram.csv"),
                       ["lag", "value", "stderr"], [curve.lags, curve.values, curve.stderr])
        summary[name] = {
            "gamma_hat": fit.gamma_hat,
            "ci_low": fit.ci_low,
            "ci_high": fit.ci_high,
            "r_squared": fit.r_squared,
        }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_sidecar(os.path.join(args.out, "reproduce"), "reproduce", cfg,
                   {"profile": args.profile, "n_modes": profile["n_modes"], "laws": laws})
    return 0


# flag -> argparse keywords shared by every command that takes it, plus
# "binds", the config (section, key) the flag overrides, and "low", the
# least value it accepts
_FLAGS = {
    "--dt": {"type": float, "binds": ("sampler", "dt")},
    "--n": {"type": int, "binds": ("sampler", "n")},
    "--ensemble": {"type": int, "binds": ("sampler", "ensemble")},
    "--seed": {"type": int, "binds": ("sampler", "seed")},
    "--dynamics": {"choices": LAWS, "binds": ("sampler", "dynamics")},
    "--tail-budget": {"type": float, "binds": ("tolerances", "tail_budget")},
    "--lags": {"binds": ("regularity", "lags")},
    "--bootstrap": {"type": int, "binds": ("regularity", "bootstrap")},
    "--N": {"type": int, "default": 64, "low": 1},
    "--nx": {"type": int, "low": 1},
    "--k": {"type": int, "default": 1},
    "--points": {"type": int, "low": 2},
    "--threads": {"type": int, "low": 1},
}

# command -> (help, its flags in --help order, each a flag or (flag, this
# command's own keywords)); the handler is cmd_<command>
_COMMANDS = {
    "kernel": ("tabulate the memory kernel", [
        ("--config", {"help": "config file (defaults when omitted)"}),
        ("--t-max", {"type": float, "default": 10.0}), ("--points", {"default": 256}),
        ("--out", {"default": "kernel.csv"})]),
    "spectrum": ("tabulate one mode's spectral density", [
        "--config", ("--k", {"help": "mode index"}),
        ("--omega-max", {"type": float, "help": "grid end (default: twice the root bracket)"}),
        ("--points", {"default": 2000}), ("--out", {"default": "spectrum.csv"})]),
    "verify": ("variance identity and resonance report", [
        "--config", ("--k-list", {"default": "1,10,100", "help": "comma-separated mode indices"}),
        ("--out", {"default": "verify.json"})]),
    "sample-mode": ("sample one mode's trajectories", [
        "--config", "--k", "--dt", "--n", "--ensemble", "--seed", "--dynamics",
        ("--out", {"default": "paths.csv"})]),
    "sample-field": ("sample the truncated field", [
        "--config", ("--N", {"help": "modes kept in the series"}),
        ("--nx", {"default": 64, "help": "interior spatial points"}),
        "--dt", "--n", "--ensemble", "--seed", "--dynamics", "--tail-budget", "--threads",
        ("--out", {"default": "field.csv"})]),
    "hoelder": ("fit a roughness exponent from a sample CSV", [
        ("--in", {"required": True, "dest": "infile", "help": "paths.csv or field.csv"}),
        ("--axis", {"choices": ("time", "space"), "default": "time"}), "--lags", "--bootstrap",
        ("--config", {"help": "include closed-form oracle values"}),
        ("--k", {"help": "oracle mode index (mode-level input)"}),
        ("--N", {"help": "oracle mode count (field input)"}), "--dynamics",
        ("--out", {"default": "report.json"})]),
    "reproduce": ("one-shot roughness comparison run", [
        ("--profile", {"choices": _PROFILES, "default": "comparison_1d"}), "--threads",
        ("--out", {"default": "reproduce_out"})]),
}


def _config(args) -> RunConfig:
    """The run's configuration: --config (defaults without one), every bound
    flag the command was given applied on top, every flag's least value checked."""
    cfg = load_config(getattr(args, "config", None))
    for flag, spec in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and "low" in spec and value < spec["low"]:
            raise ConfigError(f"{flag} {value} must be >= {spec['low']}")
        if "binds" in spec and value is not None:
            cfg.set(*spec["binds"], value, flag)
    return cfg


def _config_epilog() -> str:
    lines = ["config file keys (key = default): "]
    for section, keys in _SCHEMA.items():
        entries = ", ".join(f"{k} = {spec[0]}" for k, spec in keys.items())
        lines.append(f"  [{section}]  {entries}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="glefield",
        description="Stationary random field pipeline: kernels, spectra, samplers, roughness.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for entry in flags:
            flag, own = (entry, {}) if isinstance(entry, str) else entry
            keywords = {**_FLAGS.get(flag, {}), **own}
            keywords.pop("low", None)
            if "binds" in keywords:
                section, key = keywords.pop("binds")
                keywords.setdefault("help", _SCHEMA[section][key][2])
            sp.add_argument(flag, **keywords)
    return p


_VALIDATION_ERRORS = (ConfigError, KernelError, ValueError, Divergent, TailBudgetExceeded,
                      DegenerateFit, OSError)
_NUMERICAL_ERRORS = (ToleranceNotMet,)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  It holds no handler: ``main`` looks
    ``cmd_<command>`` up on this module at dispatch, so a handler rebound
    after the parser was built (a test stub, a tracing wrapper) still runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, _config(args))
    except _NUMERICAL_ERRORS as exc:
        print(f"glefield: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"glefield: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
