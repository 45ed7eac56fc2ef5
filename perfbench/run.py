"""The repo benchmark: one workload, timed or traced, from the repo root.

Usage::

    python3 perfbench/run.py --workload paper32-skew --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --describe

``--trace 0`` is the timed run.  After one warm-up pass it repeats the same
fixed pass over the workload for about ``--seconds`` seconds with no
profiler attached and reports the end-to-end metrics: medians over the
passes for host times, the simulated result (identical in every pass, which
is checked).

``--trace 1`` is the traced run.  It makes one untimed-instrumentation pass
and one pass under ``cProfile`` with the same seed, checks that every
simulated output and every work count is bit-identical between the two,
and reports the per-layer metrics.

Both print ``name value unit`` lines, then one JSON object as the last line
of standard output.  Every workload's configs are generated from ``--seed``
alone.  The program is imported from ``src/`` under the current directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import probes
import spec

#: The modules a pass runs; importing them is part of the set-up time.
IMPORTS = ("repro", "repro.bench.cpu_util", "repro.bench.latency",
           "repro.bench.pap")
#: Fresh interpreters whose import time is measured; setup_s uses the median.
IMPORT_SAMPLES = 5


@dataclass
class Pass:
    """One pass over a workload and what was measured in it."""

    iterations: int
    failed: int
    wall_s: float
    build_s: float
    #: Simulated outputs and work counts: deterministic for a seed.
    det: Dict[str, float] = field(default_factory=dict)
    #: Traced pass only.
    layers: Dict[str, float] = field(default_factory=dict)


def run_pass(workload: spec.Workload, seed: int, *, src_dir: Path,
             trace: bool = False) -> Pass:
    """Run ``workload`` once; a pass that raises fails all its iterations."""
    capture = probes.Capture(classify_packets=trace)
    profile = cProfile.Profile() if trace else None
    output: Optional[spec.Output] = None
    gc.collect()
    with capture.installed():
        t0 = perf_counter()
        if profile is not None:
            profile.enable()
        try:
            output = workload.run(seed)
        except Exception:  # AssertionError, DeadlockError, a raising point
            traceback.print_exc(file=sys.stderr)
        finally:
            if profile is not None:
                profile.disable()
        wall = perf_counter() - t0
    if output is None:
        return Pass(workload.iterations, workload.iterations, wall,
                    capture.build_s)
    det = {"sim_result_us": output.result_us,
           "paper_factor_err": output.factor_err,
           "oracle.root_results": capture.root_results}
    det.update(probes.counts(capture, workload.iters_by_build))
    layers: Dict[str, float] = {}
    if profile is not None:
        stats = pstats.Stats(profile)
        layers = {f"{name}.self_s": 0.0 for name in spec.SELF_TIME_LAYERS}
        layers.update((f"{name}.self_s", value) for name, value in
                      probes.self_times(stats, wall, src_dir).items())
        layers["sim.busy_segments"] = probes.call_count(
            stats, "repro/sim/cpu.py", "begin_busy")
        lowerings = probes.call_count(stats, "repro/schedule/lower.py",
                                      "lower")
        layers["schedule.lowerings"] = lowerings
        layers["schedule.memo_hit_ratio"] = (
            1.0 - lowerings / workload.iterations if lowerings else 0.0)
        layers.update(probes.packet_shares(capture))
    return Pass(workload.iterations, min(capture.mismatches,
                                         workload.iterations),
                wall, capture.build_s, det, layers)


def determinism_diffs(passes: List[Pass]) -> List[str]:
    """Keys whose value differs from the first pass, bit for bit."""
    first = passes[0].det
    diffs = []
    for other in passes[1:]:
        for key in sorted(set(first) | set(other.det)):
            if first.get(key) != other.det.get(key):
                diffs.append(f"{key}: {first.get(key)!r} != "
                             f"{other.det.get(key)!r}")
    return diffs


def import_seconds(root: Path) -> float:
    """Median host time to import :data:`IMPORTS` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in IMPORTS)
            + "; print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed(workload: spec.Workload, seed: int, seconds: float,
          root: Path) -> tuple:
    """A warm-up pass, then passes for about ``seconds`` (the last one ends
    within half a pass of it); e2e metrics.

    The first pass in a process runs 5-10% slower (lazy imports, allocator
    and cache warm-up), so it is checked like every other pass but left out
    of the host-time median.
    """
    setup_import = import_seconds(root)
    passes = [run_pass(workload, seed, src_dir=root / "src")]
    start = perf_counter()
    while not passes[-1].failed:
        p = run_pass(workload, seed, src_dir=root / "src")
        passes.append(p)
        if perf_counter() - start + p.wall_s / 2 > seconds:
            break
    measured = passes[1:] or passes
    metrics = {
        "iters_per_s": statistics.median(p.iterations / p.wall_s
                                         for p in measured),
        "setup_s": setup_import + statistics.median(p.build_s
                                                    for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_result_us": passes[0].det.get("sim_result_us", 0.0),
    }
    return passes, metrics


def traced(workload: spec.Workload, seed: int, root: Path) -> tuple:
    """One plain pass and one profiled pass; per-layer metrics."""
    plain = run_pass(workload, seed, src_dir=root / "src")
    passes = [plain]
    if plain.failed:
        return passes, {}
    prof = run_pass(workload, seed, src_dir=root / "src", trace=True)
    passes.append(prof)
    metrics = dict(prof.det)
    metrics.update(prof.layers)
    metrics["sim.events_per_s"] = plain.det["sim.events"] / plain.wall_s
    metrics["cluster.build_s"] = plain.build_s
    metrics["trace.wall_s"] = prof.wall_s
    metrics["trace.overhead"] = prof.wall_s / plain.wall_s
    return passes, metrics


def result_line(registry, metrics: Dict[str, float], passes: List[Pass],
                diffs: List[str]) -> dict:
    attempted = sum(p.iterations for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = dict(metrics, failed_frac=failed / attempted)
    complete = all(m.name in metrics for m in registry)
    return {
        "correct": failed == 0 and not diffs and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in registry if m.name in metrics},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print workloads, metrics and provenance")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(spec.describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {root / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for module in IMPORTS:
        __import__(module)

    workload = spec.WORKLOADS[args.workload]
    if args.trace:
        passes, metrics = traced(workload, args.seed, root)
        registry = spec.PER_LAYER
    else:
        passes, metrics = timed(workload, args.seed, args.seconds, root)
        registry = spec.END_TO_END
    diffs = determinism_diffs(passes)
    for diff in diffs:
        print(f"determinism: {diff}", file=sys.stderr)
    line = result_line(registry, metrics, passes, diffs)
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
