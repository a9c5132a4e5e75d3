"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import glefield  # noqa: E402
from glefield import cli, field_assembly, spectral  # noqa: E402
from glefield.cm_kernel import KernelMeasure  # noqa: E402
from glefield.spectral import Mode, SpectralDensity  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    busy,
    self_times,
    union_length,
    wall_shares,
)


def _span(index, start, end, parent=None, thread=1, name="x"):
    span = Span(index, name, start, parent, 0, thread)
    span.end = end
    return span


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(3.0, 8.0), (1.0, 5.0), (2.0, 3.0)]) == 7.0


def test_self_time_with_overlapping_children_from_two_threads():
    # root [0, 10] on thread 1; a [1, 5] on thread 2 with child [2, 3];
    # b [3, 8] on thread 3 overlaps a during [3, 5]
    spans = [
        _span(0, 0.0, 10.0, name="root"),
        _span(1, 1.0, 5.0, parent=0, thread=2, name="a"),
        _span(2, 2.0, 3.0, parent=1, thread=2, name="leaf"),
        _span(3, 3.0, 8.0, parent=0, thread=3, name="b"),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 3.0, 2: 1.0, 3: 5.0}
    # plain self times overcount wall time by the 2 s overlap
    assert sum(selfs.values()) == 12.0
    shares = wall_shares(spans)
    assert math.isclose(sum(shares.values()), 10.0)
    assert math.isclose(shares[3], 5.0 * 7.0 / 9.0)
    # thread-busy time counts both overlapping children in full
    assert busy(spans, {"a", "b"}) == 9.0
    assert busy(spans, {"a", "leaf"}) == 4.0


def test_tracer_links_pool_threads_to_the_spawning_span():
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.01)
        return x * 2

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(wrapped_leaf, range(4)))

    assert tracer.wrap(fan_out, "fan_out")() == [0, 2, 4, 6]
    root, *leaves = tracer.spans
    assert root.name == "fan_out" and root.parent is None
    assert len(leaves) == 4
    assert all(s.parent == root.index for s in leaves)
    assert len({s.thread for s in leaves} | {root.thread}) >= 2
    assert self_times(tracer.spans)[root.index] >= 0.0
    assert math.isclose(sum(wall_shares(tracer.spans).values()), root.duration, rel_tol=1e-9)


def test_tracer_records_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise spectral.ToleranceNotMet("nope")

    with pytest.raises(spectral.ToleranceNotMet):
        tracer.wrap(boom, "spectral.boom")()
    assert tracer.spans[0].error == "ToleranceNotMet"


def test_wrapped_functions_return_the_unwrapped_values():
    sd = SpectralDensity(KernelMeasure([(0.5, 1.0), (0.5, 2.0)]), Mode(1, 10.0, 1.0))
    original = spectral.integrate_rho
    expected = (spectral.integrate_rho(sd, 1e-8), spectral.rho(sd, [0.5, 3.0]).tolist(),
                spectral.autocovariance_sequence(sd, 0.01, 8).tolist())
    tracer = Tracer(layers.COUNTERS)
    tracer.install(glefield, layers.MODULES)
    try:
        assert spectral.integrate_rho is not original
        # every namespace that imported a function sees the wrapper
        assert cli.assemble_field is field_assembly.assemble_field
        assert cli.assemble_field.__wrapped__ is not None
        assert spectral.k_cos is glefield.cm_kernel.k_cos
        assert spectral.k_cos.__wrapped__ is not None
        got = (spectral.integrate_rho(sd, 1e-8), spectral.rho(sd, [0.5, 3.0]).tolist(),
               spectral.autocovariance_sequence(sd, 0.01, 8).tolist())
    finally:
        tracer.uninstall()
    assert spectral.integrate_rho is original
    assert not hasattr(cli.assemble_field, "__wrapped__")
    assert got == expected
    names = {s.name for s in tracer.spans}
    assert {"spectral.integrate_rho", "spectral.rho", "cm_kernel.k_cos",
            "spectral.autocovariance_sequence"} <= names
    seq = [s for s in tracer.spans if s.name == "spectral.autocovariance_sequence"]
    assert seq[0].counters == {"lags": 8}


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fastest_sum_takes_each_ops_own_minimum():
    # op 0 is fastest in iteration 1, op 1 in iteration 0
    assert run.fastest_sum([[3.0, 1.0], [2.0, 4.0], [5.0, 1.5]]) == 3.0
