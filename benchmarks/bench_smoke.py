"""CI smoke benchmark: the orchestrator exercised end to end in seconds.

Runs the tiny fig7-shaped smoke grid twice — serially and through the
process pool — and asserts the deterministic-merge contract (bit-identical
metrics), a violation-free invariant report, and a clean self-compare of
the emitted BENCH_smoke.json.  This is what CI's test job runs with
``-m smoke``; the full-figure benchmarks stay out of the PR loop.
"""

import pytest

from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.compare import compare_payloads
from repro.orchestrate.points import smoke_points
from repro.orchestrate.runner import run_points

from conftest import JOBS, SEED, iters, run_once, save_bench_json

pytestmark = pytest.mark.smoke


def test_smoke_parallel_merge_matches_serial(benchmark):
    jobs = max(2, JOBS)
    points = smoke_points(seed=SEED, iterations=iters(8, 5))
    serial = run_points(points, jobs=1)

    def run():
        return run_points(points, jobs=jobs)

    parallel = run_once(benchmark, run)
    # the tentpole contract: merge order and metrics are independent of
    # --jobs, bit for bit
    assert [r.point.key() for r in parallel] == \
        [r.point.key() for r in serial]
    assert [r.metrics for r in parallel] == [r.metrics for r in serial]
    # the smoke grid runs under the protocol-invariant monitor
    assert all((r.invariant_report or {}).get("violation_count", 0) == 0
               for r in parallel)

    path = save_bench_json("smoke", parallel, jobs=jobs)
    payload = load_bench_json(path)
    verdict = compare_payloads(payload, payload)
    assert verdict["ok"]
    assert verdict["shared_points"] == len(points)
