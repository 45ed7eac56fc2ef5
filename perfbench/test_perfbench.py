"""Self-tests of the benchmark.  Run from the repo root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import probes  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

TINY_ITERS = 4


def tiny(body, iters_by_build=None) -> spec.Workload:
    return spec.Workload(name="tiny", why="", stresses=(), bypasses=(),
                         params={}, run=body,
                         iters_by_build=iters_by_build or {"ab": TINY_ITERS})


def small_cpu_util(seed: int) -> spec.Output:
    from repro.bench.cpu_util import cpu_util_benchmark
    from repro.config import quiet_cluster
    from repro.mpich.rank import MpiBuild
    res = cpu_util_benchmark(quiet_cluster(4, seed=seed), MpiBuild.AB,
                             max_skew_us=200.0, iterations=TINY_ITERS - 1,
                             warmup=1)
    return spec.Output(result_us=res.avg_util_us)


SMALL = tiny(small_cpu_util)


def test_metric_names_match_pattern_and_carry_units():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert spec.NAME_RE.match(m.name), m.name
        assert spec.UNIT_RE.match(m.unit), (m.name, m.unit)
        assert m.better in ("higher", "lower"), m.name
    e2e = {m.name: m for m in spec.END_TO_END}
    assert e2e["setup_s"].unit == "s" and e2e["setup_s"].better == "lower"
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    for m in spec.PER_LAYER:
        for target, workloads in m.moves.items():
            assert target in e2e, (m.name, target)
            assert set(workloads) <= set(spec.ALL), (m.name, workloads)


def test_every_emitted_metric_is_registered_with_its_unit():
    line = run.result_line(spec.END_TO_END, {"iters_per_s": 1.0},
                           [run.Pass(1, 0, 1.0, 0.0)], [])
    assert line["metrics"] == {"iters_per_s": {"value": 1.0,
                                               "unit": "iter/s"}}
    assert line["correct"] is False  # the other metrics are missing


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_planted_raising_point_fails_all_its_iterations():
    def boom(seed):
        raise AssertionError("planted")

    p = run.run_pass(tiny(boom), 1, src_dir=SRC)
    assert (p.iterations, p.failed) == (TINY_ITERS, TINY_ITERS)
    line = run.result_line(spec.PER_LAYER, {}, [p], [])
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (TINY_ITERS, TINY_ITERS)
    assert line["metrics"]["failed_frac"]["value"] == 1.0


def test_planted_wrong_root_result_is_counted_by_the_oracle():
    from repro import SUM, MpiBuild, quiet_cluster, run_program

    def wrong_half_the_time(seed):
        def program(mpi):
            for it in range(TINY_ITERS):
                bad = mpi.rank == 3 and it % 2 == 1
                data = np.full(2, 100.0 if bad else mpi.rank + 1.0)
                yield from mpi.reduce(data, op=SUM, root=0)
        run_program(quiet_cluster(4, seed=seed), program, build=MpiBuild.AB)
        return spec.Output(result_us=1.0)

    p = run.run_pass(tiny(wrong_half_the_time), 1, src_dir=SRC)
    assert p.det["oracle.root_results"] == TINY_ITERS
    assert p.failed == TINY_ITERS // 2
    line = run.result_line(spec.PER_LAYER, {}, [p], [])
    assert line["metrics"]["failed_frac"]["value"] == 0.5
    assert line["correct"] is False


def test_real_protocol_passes_the_oracle():
    p = run.run_pass(SMALL, 1, src_dir=SRC)
    assert p.failed == 0
    assert p.det["oracle.root_results"] == TINY_ITERS


def test_layer_self_times_plus_unattributed_equal_traced_wall():
    p = run.run_pass(SMALL, 1, src_dir=SRC, trace=True)
    self_times = {k: v for k, v in p.layers.items() if k.endswith(".self_s")}
    assert set(self_times) == {f"{name}.self_s" for name in
                               spec.SELF_TIME_LAYERS + ("unattributed",)}
    assert sum(self_times.values()) == pytest.approx(p.wall_s, rel=1e-9)
    assert self_times["unattributed.self_s"] >= 0.0
    assert self_times["sim.self_s"] > 0.0 and self_times["mpich.self_s"] > 0


def _profile_fake_tree(src: Path):
    """Profile code whose files claim to be repro.gm and repro.sim; the gm
    code spends its time in a builtin, directly and through a helper that
    lives outside any layer."""
    helper_ns: dict = {}
    exec(compile("def helper(xs):\n    return sorted(xs)\n",
                 "/elsewhere/helper.py", "exec"), helper_ns)
    gm_ns = {"helper": helper_ns["helper"]}
    exec(compile("def gm_work(xs):\n"
                 "    for _ in range(30):\n"
                 "        sorted(xs)\n"
                 "        helper(xs)\n",
                 str(src / "repro" / "gm" / "fake.py"), "exec"), gm_ns)
    sim_ns = {"gm_work": gm_ns["gm_work"]}
    exec(compile("def sim_loop(xs):\n    gm_work(xs)\n",
                 str(src / "repro" / "sim" / "fake.py"), "exec"), sim_ns)
    xs = list(np.random.default_rng(0).random(20000))
    profile = cProfile.Profile()
    profile.enable()
    sim_ns["sim_loop"](xs)
    profile.disable()
    return pstats.Stats(profile)


def test_builtins_are_charged_to_the_callers_layer(tmp_path):
    src = tmp_path / "src"
    stats = _profile_fake_tree(src)
    layers = probes.self_times(stats, 10.0, src, bench_dir=tmp_path / "pb")
    builtin = sum(tt for (filename, _, name), (_, _, tt, _, _)
                  in stats.stats.items()
                  if filename == "~" and "sorted" in name)
    helper = sum(tt for (filename, _, _), (_, _, tt, _, _)
                 in stats.stats.items() if filename == "/elsewhere/helper.py")
    assert builtin > 0.0
    assert layers["gm"] >= builtin + helper - 1e-9
    assert layers.get("sim", 0.0) < builtin / 10
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_of_file_maps_packages():
    src = Path("/x/src")
    assert probes.layer_of_file("/x/src/repro/sim/cpu.py", src) == "sim"
    assert probes.layer_of_file("/x/src/repro/bench/pap.py", src) == "harness"
    assert probes.layer_of_file("/x/src/repro/config.py", src) == "other"
    assert probes.layer_of_file("/x/src/repro/faults/a.py", src) == "other"
    assert probes.layer_of_file("~", src) is None
    assert probes.layer_of_file("/usr/lib/python3/heapq.py", src) is None
    assert probes.layer_of_file(str(BENCH / "probes.py"), src) == \
        "perfbench"


def test_timed_and_traced_counts_agree_and_repeat():
    plain = run.run_pass(SMALL, 3, src_dir=SRC)
    first = run.run_pass(SMALL, 3, src_dir=SRC, trace=True)
    second = run.run_pass(SMALL, 3, src_dir=SRC, trace=True)
    assert run.determinism_diffs([plain, first, second]) == []
    counted = ("sim.busy_segments", "schedule.lowerings",
               "mpich.barrier_packets", "mpich.collective_packets",
               "mpich.notify_packets")
    assert [first.layers[k] for k in counted] == \
        [second.layers[k] for k in counted]
    packets = sum(first.layers[k] for k in counted[2:])
    assert packets == first.det["gm.packets_sent"] > 0
    assert first.layers["sim.busy_segments"] > 0


def test_a_changed_output_is_a_determinism_failure():
    p = run.run_pass(SMALL, 1, src_dir=SRC)
    q = run.Pass(p.iterations, 0, p.wall_s, p.build_s,
                 dict(p.det, **{"sim.events": p.det["sim.events"] + 1}))
    assert run.determinism_diffs([p, q]) == [
        f"sim.events: {p.det['sim.events']!r} != "
        f"{p.det['sim.events'] + 1!r}"]


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "pap32-bursty", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
