"""glefield benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload field_space --seed 1 --seconds 36 --trace 0

glefield is imported from the ``src`` directory beside this one, never from
an installed copy; without it the run stops with a nonzero exit code and no
result.  The run repeats iterations of the workload's ops until the next
would end after ``--seconds``, and makes at least ``MIN_ITERATIONS`` of
them.  Between iterations it takes about ``SETUP_SAMPLES`` set-up samples
spread over the run (a fresh interpreter importing glefield and building
the workload's inputs), and one more closes the run.  The last line
printed is
``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: end-to-end metrics.  ``setup_s`` is the median of the
  run's set-up samples.  ``wall_s`` and ``cpu_s`` add up, op by op, the
  fastest of that op's repeats: the 2-vCPU host this was written on runs
  a fixed Python loop up to 1.8x slower in stretches lasting from seconds
  to minutes, and the fastest repeat of each op is steadier from run to
  run than a mean or median that includes the slow stretches.
* ``--trace 1``: the same untraced rounds, then one traced iteration whose
  spans give the per-layer metrics (see ``layers.py``).

``attempted`` counts output checks and ``failed`` those that did not hold;
an op that raises is a failed check.  The line before the result holds run
facts: machine, versions, commit, the iteration count and walls, set-up
samples, digests, and the failures if any.  Spans of a traced run are
written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import COUNTERS, MODULES, PER_LAYER, PREDICTIONS, per_layer_metrics
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ITERATIONS = 2
SETUP_SAMPLES = 6

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_glefield():
    """Import glefield from SRC, refusing any other copy."""
    if not (SRC / "glefield" / "__init__.py").is_file():
        raise SystemExit(f"bench: no glefield sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import glefield

    if Path(glefield.__file__).resolve().parent != (SRC / "glefield").resolve():
        raise SystemExit(f"bench: imported glefield from {glefield.__file__}, not {SRC}")
    return glefield


class Iteration:
    def __init__(self, latencies, cpus, checks, digest):
        self.latencies = latencies
        self.wall = sum(latencies)
        self.cpus = cpus
        self.checks = checks
        self.digest = digest


def run_iteration(workload, tracer=None) -> Iteration:
    """Run every op once, timing each; check outputs after each op's timer stops."""
    from workloads import Checks

    checks = Checks()
    outputs = {}
    latencies = []
    cpus = []
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if tracer is not None:
            tracer.op = None
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            checks.expect(False, f"{op.label} raised {type(error).__name__}")
            continue
        op.check(out, checks)
        outputs[op.label] = out
    try:
        workload.finish(outputs, checks)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"{workload.name}: checks across ops raised")
    return Iteration(latencies, cpus, checks, checks.hexdigest())


def fastest_sum(per_iteration) -> float:
    """Sum over ops of each op's smallest value across iterations."""
    return sum(min(values) for values in zip(*per_iteration))


def setup_sampler(args):
    """A function timing one fresh interpreter that imports glefield and builds inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    def sample() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return sample


def run_for(workload, seconds: float, setup) -> tuple[list[Iteration], list[float]]:
    """Iterations until the next would end after ``seconds``, at least
    MIN_ITERATIONS of them.  A set-up sample precedes the first iteration
    and any iteration that starts ``seconds / SETUP_SAMPLES`` or more after
    the last sample; one more sample closes the run."""
    iterations, setups = [], []
    start = time.perf_counter()
    last_setup = -math.inf
    while True:
        t0 = time.perf_counter()
        if t0 - last_setup >= seconds / SETUP_SAMPLES:
            last_setup = t0
            setups.append(setup())
        iterations.append(run_iteration(workload))
        took = time.perf_counter() - t0
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() - start + took > seconds):
            break
    setups.append(setup())
    return iterations, setups


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def run_facts(workload, iterations, setups, digests) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload.name,
        "iterations": len(iterations),
        "iteration_wall_s": [it.wall for it in iterations],
        "setup_samples_s": setups,
        "digests": sorted(set(digests)),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "working_set_mb": workload.working_set_mb,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the profile seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")

    glefield = import_glefield()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    if args.setup_only:
        return 0

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        iterations, setups = run_for(workload, args.seconds, setup_sampler(args))
        traced = None
        if args.trace:
            tracer = Tracer(COUNTERS)
            tracer.install(glefield, MODULES)
            try:
                traced = run_iteration(workload, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_checks = Checks()
    digests = [it.digest for it in iterations]
    run_checks.expect(len(set(digests)) == 1, "output digests differ across repeats")
    facts = run_facts(workload, iterations, setups, digests)
    every = list(iterations)
    if traced is None:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": fastest_sum(it.latencies for it in iterations),
            "cpu_s": fastest_sum(it.cpus for it in iterations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        every.append(traced)
        run_checks.expect(traced.digest == digests[0], "traced output digest differs")
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = per_layer_metrics([s for s in tracer.spans if s.op is not None],
                                   traced.wall, statistics.fmean(it.wall for it in iterations))
        cover = values["trace.attributed_frac"]
        run_checks.expect(abs(cover - 1.0) <= 0.05,
                          f"layer shares cover {cover:.3f} of the traced wall time")
        facts["traced_digest"] = traced.digest
        facts["predictions"] = PREDICTIONS
    attempted = run_checks.attempted + sum(it.checks.attempted for it in every)
    failures = run_checks.failures + [f for it in every for f in it.checks.failures]
    if traced is not None:
        values["fail_frac"] = len(failures) / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    facts["failures"] = failures[:20]
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
