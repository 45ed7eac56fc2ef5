"""Shared helpers for the figure benchmarks.

Each ``bench_fig*.py`` regenerates one figure of the paper's evaluation
section at a reduced-but-representative iteration count (virtual time is
noise-free, so far fewer iterations are needed than the paper's 10,000).
Rendered tables are written to ``benchmarks/results/`` and the headline
shape assertions are checked inside the benchmark itself.

Every knob the benchmarks share lives here — iteration scaling, seed,
worker count, and the BENCH_*.json writer — so individual bench modules
never hand-roll their own ``max(...)`` arithmetic (that drifted between
``bench_scale.py`` and the figure benches once already).

Environment:

``REPRO_BENCH_ITERS``
    Base iteration count (default 40; 8 under the smoke preset).
``REPRO_BENCH_SEED``
    Simulation seed (default 1).
``REPRO_BENCH_JOBS``
    Worker processes for orchestrated sweeps (default 1).
``REPRO_BENCH_PRESET``
    ``smoke`` shrinks every iteration count to a seconds-long sanity
    pass.  Meant for the CI test job's ``-m smoke`` selection — the
    full-figure shape assertions are tuned for representative counts and
    are not expected to hold at smoke scale.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

PRESET = os.environ.get("REPRO_BENCH_PRESET", "")
SMOKE = PRESET == "smoke"

#: Iteration counts for the benchmark runs (override with env vars).
ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERS", "8" if SMOKE else "40"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
#: Worker processes for sweeps routed through repro.orchestrate.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def iters(minimum: int, divisor: int = 1) -> int:
    """Scaled iteration count: ``ITERATIONS // divisor`` floored at
    ``minimum`` — the one place benchmark iteration arithmetic lives.
    Under the smoke preset the floor is waived so everything stays tiny.
    """
    if SMOKE:
        return max(2, min(minimum, ITERATIONS // divisor or 1))
    return max(minimum, ITERATIONS // divisor)


def save_table(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def save_bench_json(name: str, results, *, jobs: int | None = None):
    """Write ``benchmarks/results/BENCH_<name>.json`` for the compare
    gate; returns the path.  No-op (returns None) when the sweep
    collected no orchestrated points."""
    if not results:
        return None
    from repro.orchestrate.benchjson import write_bench_json
    return write_bench_json(name, results, directory=RESULTS_DIR,
                            jobs=JOBS if jobs is None else jobs)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
