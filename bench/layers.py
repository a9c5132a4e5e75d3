"""Per-layer metrics computed from a traced run's spans.

``COUNTERS`` says what each wrapped function contributes besides its time;
``per_layer_metrics`` turns the spans of a traced run into the metrics
listed in ``PER_LAYER`` (the same names, units and order as the
``per_layer`` list of BENCHMARK.json).  ``PREDICTIONS`` records, before any
optimization is measured, which end-to-end metric on which workload each
layer metric should move; BENCHMARK.json admits no field for it.
"""

from __future__ import annotations

import os

import numpy as np

from spans import busy, outermost, self_times, wall_shares


def _transform(args, kwargs, result):
    # transforms return the shape of their frequency or time argument
    return {"atom_points": len(args[0].atoms) * np.size(result)}


def _gle(args, kwargs, result):
    length = result.embedding_length
    return {
        "embed": length / (2 * result.grid.n),
        "normals": result.m * length,
        "clipped": result.clipped_mass,
    }


def _fit(args, kwargs, result):
    bootstrap = args[1] if len(args) > 1 else kwargs.get("bootstrap", 200)
    return {"draws": bootstrap if args[0].member_values is not None else 0}


def _assemble(args, kwargs, result):
    m, n, nx = result.values.shape
    # one read of the mode path, one read and one write of the field per term
    return {"accum_bytes": 3 * 8 * result.n_modes * m * n * nx,
            "out_mb": result.values.nbytes / 1e6}


def _sample_field(args, kwargs, result):
    ns = args[0]
    return {"rows": ns.ensemble * ns.n * ns.nx, "bytes": os.path.getsize(ns.out)}


COUNTERS = {
    "cm_kernel.k_cos": _transform,
    "cm_kernel.k_sin": _transform,
    "cm_kernel.k_sin_over_omega": _transform,
    "cm_kernel.eval_kernel": _transform,
    "spectral.rho": lambda a, k, r: {"points": np.size(r)},
    "spectral.autocovariance_sequence": lambda a, k, r: {"lags": len(r)},
    "mode_sampler.sample_gle_mode": _gle,
    "mode_sampler.sample_ou_mode": lambda a, k, r: {"normals": r.m * r.grid.n},
    "mode_sampler.sample_gle_mode_spectral": lambda a, k, r: {"normals": 2 * r.m * r.node_count},
    "field_assembly.assemble_field": _assemble,
    "regularity.fit_exponent": _fit,
    "cli.cmd_sample_field": _sample_field,
    "cli.cmd_hoelder": lambda a, k, r: {"bytes_read": os.path.getsize(a[0].infile)},
}

TRANSFORMS = {"cm_kernel.k_cos", "cm_kernel.k_sin", "cm_kernel.k_sin_over_omega",
              "cm_kernel.eval_kernel"}
GATES = {"field_assembly.check_wellposedness", "field_assembly.check_regularity_assumption",
         "field_assembly.tail_variance_bound"}
MODULES = ("cm_kernel", "spectral", "mode_sampler", "field_assembly", "regularity", "cli")

PER_LAYER = (
    [("cm_kernel.transform.calls", "count", "lower"),
     ("cm_kernel.transform.atom_points", "count", "lower"),
     ("cm_kernel.transform.busy_s", "s", "lower"),
     ("spectral.find_resonance.calls", "count", "lower"),
     ("spectral.find_resonance.busy_s", "s", "lower"),
     ("spectral.autocovariance_sequence.calls", "count", "lower"),
     ("spectral.autocovariance_sequence.busy_s", "s", "lower"),
     ("spectral.autocovariance_sequence.lags", "count", "lower"),
     ("spectral.rho.calls", "count", "lower"),
     ("spectral.rho.points", "count", "lower"),
     ("spectral.rho.busy_s", "s", "lower"),
     ("spectral.tolerance_failures", "count", "lower"),
     ("mode_sampler.sample_gle_mode.calls", "count", "lower"),
     ("mode_sampler.sample_gle_mode.busy_s", "s", "lower"),
     ("mode_sampler.sample_gle_mode.self_s", "s", "lower"),
     ("mode_sampler.circulant_eigenvalues.busy_s", "s", "lower"),
     ("mode_sampler.paths_from_normals.busy_s", "s", "lower"),
     ("mode_sampler.embed_factor", "ratio", "lower"),
     ("mode_sampler.normals_drawn", "count", "lower"),
     ("mode_sampler.clipped_mass_max", "ratio", "lower"),
     ("mode_sampler.sample_ou_mode.busy_s", "s", "lower"),
     ("field_assembly.assemble_field.busy_s", "s", "lower"),
     ("field_assembly.assemble_field.self_s", "s", "lower"),
     ("field_assembly.gates.busy_s", "s", "lower"),
     ("field_assembly.accum_bytes", "B", "lower"),
     ("field_assembly.out_mb", "MB", "lower"),
     ("regularity.empirical_variogram.busy_s", "s", "lower"),
     ("regularity.fit_exponent.busy_s", "s", "lower"),
     ("regularity.bootstrap_draws", "count", "lower"),
     ("cli.sample_field.self_s", "s", "lower"),
     ("cli.rows_written", "count", "lower"),
     ("cli.bytes_written", "B", "lower"),
     ("cli.write_us_per_row", "us", "lower"),
     ("cli.hoelder.self_s", "s", "lower"),
     ("cli.bytes_read", "B", "lower")]
    + [(f"{mod}.share_s", "s", "lower") for mod in MODULES]
    + [("bench.share_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.attributed_frac", "ratio", "higher"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.spans", "count", "lower"),
       ("fail_frac", "ratio", "lower")]
)

# layer metric prefix -> (end-to-end metric it should move, workloads where it shows)
PREDICTIONS = {
    "cm_kernel.transform": ("wall_s", ["field_time (slightly, through rho)"]),
    "spectral.find_resonance": ("wall_s", ["field_time", "field_space"]),
    "spectral.autocovariance_sequence": ("wall_s", ["field_time (dominant)",
                                                    "field_space (per-mode fixed cost)"]),
    "spectral.rho": ("wall_s", ["field_time", "field_space"]),
    "spectral.tolerance_failures": ("fail_frac", ["all"]),
    "mode_sampler.sample_gle_mode": ("wall_s", ["field_time"]),
    "mode_sampler.circulant_eigenvalues": ("wall_s", ["field_time"]),
    "mode_sampler.paths_from_normals": ("wall_s", ["field_time"]),
    "mode_sampler.embed_factor": ("wall_s, peak_rss_mb", ["field_time"]),
    "mode_sampler.normals_drawn": ("wall_s, peak_rss_mb", ["field_time"]),
    "mode_sampler.clipped_mass_max": ("fail_frac", ["field_time", "field_space"]),
    "mode_sampler.sample_ou_mode": ("wall_s", ["field_space", "cli_roundtrip"]),
    "field_assembly.assemble_field": ("wall_s, cpu_s", ["field_space", "field_time"]),
    "field_assembly.gates": ("wall_s", ["field_time", "field_space", "cli_roundtrip"]),
    "field_assembly.accum_bytes": ("wall_s", ["field_space", "field_time"]),
    "field_assembly.out_mb": ("peak_rss_mb", ["field_time", "field_space"]),
    "regularity": ("wall_s", ["field_time", "field_space", "cli_roundtrip"]),
    "cli": ("wall_s", ["cli_roundtrip only"]),
}


def per_layer_metrics(spans, wall_s: float, untraced_wall_s: float) -> dict:
    """Every PER_LAYER metric from one traced run's spans, except ``fail_frac``.

    ``wall_s`` is the traced run's timed section; the module shares plus
    ``bench.share_s`` (time in the benchmark's own code between library
    calls) add up to it.  ``untraced_wall_s`` is the mean wall time of the
    run's untraced iterations, the like-for-like base of
    ``trace.overhead_frac``.
    """
    selfs = self_times(spans)
    shares = wall_shares(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key):
        return sum((s.counters or {}).get(key, 0) for s in named(name))

    def self_sum(name):
        return sum((selfs[s.index] for s in named(name)), 0.0)

    out = {}
    transforms = [s for s in spans if s.name in TRANSFORMS]
    out["cm_kernel.transform.calls"] = len(transforms)
    out["cm_kernel.transform.atom_points"] = sum(s.counters["atom_points"] for s in transforms)
    out["cm_kernel.transform.busy_s"] = busy(spans, TRANSFORMS)
    out["spectral.find_resonance.calls"] = len(named("spectral.find_resonance"))
    out["spectral.find_resonance.busy_s"] = busy(spans, {"spectral.find_resonance"})
    seq = "spectral.autocovariance_sequence"
    out[f"{seq}.calls"] = len(named(seq))
    out[f"{seq}.busy_s"] = busy(spans, {seq})
    out[f"{seq}.lags"] = total(seq, "lags")
    out["spectral.rho.calls"] = len(named("spectral.rho"))
    out["spectral.rho.points"] = total("spectral.rho", "points")
    out["spectral.rho.busy_s"] = busy(spans, {"spectral.rho"})
    spectral_names = {s.name for s in spans if s.name.startswith("spectral.")}
    out["spectral.tolerance_failures"] = sum(
        1 for s in outermost(spans, spectral_names) if s.error == "ToleranceNotMet")

    gle = named("mode_sampler.sample_gle_mode")
    out["mode_sampler.sample_gle_mode.calls"] = len(gle)
    out["mode_sampler.sample_gle_mode.busy_s"] = busy(spans, {"mode_sampler.sample_gle_mode"})
    out["mode_sampler.sample_gle_mode.self_s"] = self_sum("mode_sampler.sample_gle_mode")
    for fn in ("circulant_eigenvalues", "paths_from_normals", "sample_ou_mode"):
        out[f"mode_sampler.{fn}.busy_s"] = busy(spans, {f"mode_sampler.{fn}"})
    done = [s for s in gle if s.counters]
    out["mode_sampler.embed_factor"] = (
        sum(s.counters["embed"] for s in done) / len(done) if done else 0.0)
    out["mode_sampler.clipped_mass_max"] = max((s.counters["clipped"] for s in done), default=0.0)
    out["mode_sampler.normals_drawn"] = sum(
        total(f"mode_sampler.{fn}", "normals")
        for fn in ("sample_gle_mode", "sample_ou_mode", "sample_gle_mode_spectral"))

    asm = "field_assembly.assemble_field"
    out[f"{asm}.busy_s"] = busy(spans, {asm})
    out[f"{asm}.self_s"] = self_sum(asm)
    out["field_assembly.gates.busy_s"] = busy(spans, GATES)
    out["field_assembly.accum_bytes"] = total(asm, "accum_bytes")
    out["field_assembly.out_mb"] = max(((s.counters or {}).get("out_mb", 0.0)
                                        for s in named(asm)), default=0.0)

    for fn in ("empirical_variogram", "fit_exponent"):
        out[f"regularity.{fn}.busy_s"] = busy(spans, {f"regularity.{fn}"})
    out["regularity.bootstrap_draws"] = total("regularity.fit_exponent", "draws")

    write_self = self_sum("cli.cmd_sample_field")
    rows = total("cli.cmd_sample_field", "rows")
    out["cli.sample_field.self_s"] = write_self
    out["cli.rows_written"] = rows
    out["cli.bytes_written"] = total("cli.cmd_sample_field", "bytes")
    out["cli.write_us_per_row"] = 1e6 * write_self / rows if rows else 0.0
    out["cli.hoelder.self_s"] = self_sum("cli.cmd_hoelder")
    out["cli.bytes_read"] = total("cli.cmd_hoelder", "bytes_read")

    for mod in MODULES:
        out[f"{mod}.share_s"] = sum((shares[s.index] for s in spans
                                     if s.name.split(".", 1)[0] == mod), 0.0)
    attributed = sum(shares.values())
    out["bench.share_s"] = wall_s - attributed
    out["trace.wall_s"] = wall_s
    out["trace.attributed_frac"] = attributed / wall_s
    out["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
    out["trace.spans"] = len(spans)
    return out
