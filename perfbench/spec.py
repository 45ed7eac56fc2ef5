"""What the benchmark measures: its workloads and its metric registry.

This module is the single source of the benchmark's provenance.  Each
workload records its parameters, why it was chosen, and which ``repro``
layers it stresses and bypasses; each metric records its unit, which
direction is better and, for per-layer metrics, which end-to-end metric it
should move on which workloads.  ``python3 perfbench/run.py --describe``
prints all of it as JSON, and ``test_perfbench.py`` checks that
``BENCHMARK.json`` agrees with it.

Nothing here imports ``repro`` at module level: the runner must be able to
load the spec (and fail cleanly) before it knows the source tree exists.
Each workload's ``run(seed)`` builds its cluster configs from the seed alone
and calls one of the repo's public protocol functions, so the simulated
numbers are the paper protocol's own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

#: The paper's headline nab/ab CPU-utilization factor (Figs. 6/7: 5.1x at
#: 32 nodes).  The model was calibrated on this figure, so the distance to
#: it guards fidelity; it does not validate the model.
PAPER_FACTOR = 5.1

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Recorded interaction rule between the per-layer and end-to-end metrics.
INTERACTION_RULE = (
    "The simulator is a single-threaded discrete-event loop, so every "
    "layer's host time blocks the result: a layer can raise iters_per_s by "
    "at most its share of traced self time (Amdahl).  Halving sim.self_s on "
    "paper32-skew, about half of traced self time, gives at most about "
    "1.35x.  A "
    "pure simulator speedup must leave sim_result_us, paper_factor_err, "
    "workload.kappa and the cpu.* ledger bit-identical; its work counts move "
    "only where it removes work.  A model change moves sim_result_us and the "
    "cpu.* ledger instead.")


@dataclass(frozen=True)
class Output:
    """Deterministic simulated outputs of one pass over a workload."""

    #: The workload's paper-protocol output in simulated microseconds.
    result_us: float
    #: ``paper_factor_err`` where the workload runs both builds, else 0.
    factor_err: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    #: JSON-able description of the generated configs and protocol calls.
    params: Dict[str, object]
    #: Collective iterations per pass and build ("ab"/"nab"), warm-up
    #: included; the denominator of iters_per_s and of the cpu.* ledger.
    iters_by_build: Dict[str, int]
    #: ``run(seed)`` performs one pass and returns its :class:`Output`.
    run: Callable[[int], Output] = field(repr=False, compare=False)

    @property
    def iterations(self) -> int:
        return sum(self.iters_by_build.values())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CPU_UTIL = dict(elements=4, max_skew_us=1000.0)
PAPER_ITERS, PAPER_WARMUP = 150, 3
SCALE_ITERS, SCALE_WARMUP = 2, 1
PIPE_ITERS, PIPE_WARMUP = 50, 3
PIPE_SEGMENT = dict(segment_size_bytes=2048, max_inflight_segments=3)
PAP_ITERS, PAP_WARMUP = 100, 2
PAP_WORKLOAD = dict(pattern="bursty", scale_us=1200.0, jitter_us=50.0,
                    straggler_frac=0.25)


def _paper32_skew(seed: int) -> Output:
    from repro.bench.cpu_util import cpu_util_benchmark
    from repro.config import paper_cluster
    from repro.mpich.rank import MpiBuild
    cfg = paper_cluster(32, seed=seed)
    util = {
        build: cpu_util_benchmark(cfg, build, iterations=PAPER_ITERS,
                                  warmup=PAPER_WARMUP, **CPU_UTIL).avg_util_us
        for build in (MpiBuild.AB, MpiBuild.DEFAULT)
    }
    factor = util[MpiBuild.DEFAULT] / util[MpiBuild.AB]
    return Output(result_us=util[MpiBuild.AB],
                  factor_err=abs(factor - PAPER_FACTOR) / PAPER_FACTOR)


def _scale1024_torus(seed: int) -> Output:
    from repro.bench.cpu_util import cpu_util_benchmark
    from repro.config import NetParams, extrapolated_cluster
    from repro.mpich.rank import MpiBuild
    cfg = extrapolated_cluster(1024, seed=seed).with_net(
        NetParams(topology="torus"))
    res = cpu_util_benchmark(cfg, MpiBuild.AB, iterations=SCALE_ITERS,
                             warmup=SCALE_WARMUP, **CPU_UTIL)
    return Output(result_us=res.avg_util_us)


def _pipe32_large(seed: int) -> Output:
    from repro.bench.latency import latency_benchmark
    from repro.config import PipelineParams, paper_cluster
    from repro.mpich.rank import MpiBuild
    cfg = paper_cluster(32, seed=seed).with_pipeline(
        PipelineParams(**PIPE_SEGMENT))
    res = latency_benchmark(cfg, MpiBuild.AB, elements=4096,
                            iterations=PIPE_ITERS, warmup=PIPE_WARMUP)
    return Output(result_us=res.median_latency_us)


def _pap32_bursty(seed: int) -> Output:
    from repro.bench.pap import pap_benchmark
    from repro.config import WorkloadParams, quiet_cluster
    cfg = quiet_cluster(32, seed=seed).with_workload(
        WorkloadParams(**PAP_WORKLOAD))
    res = pap_benchmark(cfg, algo="sra", elements=256, iterations=PAP_ITERS,
                        warmup=PAP_WARMUP)
    return Output(result_us=res.median_makespan_us)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper32-skew",
        why="the paper's headline: 32-node heterogeneous cluster, "
            "CPU-utilization protocol under 1000 us skew, ab and nab builds",
        stresses=("sim (HostCpu preemption)", "core (AB signals, "
                  "descriptors)", "gm (signals)", "mpich (barrier, matching)"),
        bypasses=("network/topo (single crossbar hop)", "pipeline",
                  "schedule", "workload"),
        params=dict(cluster="paper_cluster(32)", topology="crossbar",
                    protocol="cpu_util_benchmark", builds=["ab", "nab"],
                    iterations=PAPER_ITERS, warmup=PAPER_WARMUP, **CPU_UTIL),
        iters_by_build={"ab": PAPER_ITERS + PAPER_WARMUP,
                        "nab": PAPER_ITERS + PAPER_WARMUP},
        run=_paper32_skew),
    Workload(
        name="scale1024-torus",
        why="1024 ranks on a 2D torus: the one workload where cluster "
            "set-up time and memory show",
        stresses=("sim (event queue with 1024 live processes)",
                  "network/topo (about 7 hops per packet)",
                  "mpich (dissemination barrier)", "harness (cluster build)"),
        bypasses=("pipeline", "schedule", "workload"),
        params=dict(cluster="extrapolated_cluster(1024)", topology="torus",
                    protocol="cpu_util_benchmark", builds=["ab"],
                    iterations=SCALE_ITERS, warmup=SCALE_WARMUP, **CPU_UTIL),
        iters_by_build={"ab": SCALE_ITERS + SCALE_WARMUP},
        run=_scale1024_torus),
    Workload(
        name="pipe32-large",
        why="32 KiB segmented reduces on the paper's 32 nodes: a "
            "small-message gain that costs bandwidth shows up here",
        stresses=("gm (segment traffic)", "network (link bandwidth)",
                  "pipeline"),
        bypasses=("schedule", "workload", "injected skew"),
        params=dict(cluster="paper_cluster(32)", topology="crossbar",
                    protocol="latency_benchmark", builds=["ab"],
                    elements=4096, iterations=PIPE_ITERS, warmup=PIPE_WARMUP,
                    pipeline=PIPE_SEGMENT),
        iters_by_build={"ab": PIPE_ITERS + PIPE_WARMUP},
        run=_pipe32_large),
    Workload(
        name="pap32-bursty",
        why="allreduce under bursty imbalanced arrivals through the "
            "Schedule-IR sra lowering: the one workload where schedule and "
            "workload do the work",
        stresses=("schedule (lowering, memo)", "core (interpreter)",
                  "workload (arrival trace)"),
        bypasses=("AB engine (sra runs the nab build)", "pipeline",
                  "network/topo (single crossbar hop)"),
        params=dict(cluster="quiet_cluster(32)", topology="crossbar",
                    protocol="pap_benchmark", algo="sra", builds=["nab"],
                    elements=256, iterations=PAP_ITERS, warmup=PAP_WARMUP,
                    workload=PAP_WORKLOAD),
        iters_by_build={"nab": PAP_ITERS + PAP_WARMUP},
        run=_pap32_bursty),
)}

ALL = tuple(WORKLOADS)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics only: allowed worsening as a share of the
    #: parent's median.
    bound: float = 0.0
    #: Per-layer metrics only: end-to-end metric -> workloads it should
    #: move on.  Empty for metrics that describe the input or the run.
    moves: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


END_TO_END = (
    Metric("iters_per_s", "iter/s", "higher", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.1),
    Metric("sim_result_us", "us", "lower", bound=0.25),
)

#: Categories the simulated CPU ledger charges (``app`` is the
#: application's own compute and is left out).
LEDGER_CATEGORIES = ("poll", "send", "copy", "match", "op", "signal",
                     "descriptor", "mpi", "ab", "ab_hook", "pin")

#: Self-time layers: the ``repro`` packages, grouped as the roadmap names
#: them.  Packages not listed here are charged to ``other``.
LAYER_OF_PACKAGE = {
    "sim": "sim", "mpich": "mpich", "gm": "gm", "network": "network",
    "topo": "topo", "core": "core", "pipeline": "pipeline",
    "schedule": "schedule", "workload": "workload",
    "bench": "harness", "runtime": "harness", "cluster": "harness",
}
SELF_TIME_LAYERS = tuple(dict.fromkeys(LAYER_OF_PACKAGE.values())) + (
    "other", "perfbench")


def _layer(moves, *metrics):
    return tuple(Metric(name, unit, better, moves=moves)
                 for name, unit, better in metrics)


_ITERS_ALL = {"iters_per_s": ALL}

PER_LAYER = (
    _layer(_ITERS_ALL,
           ("sim.self_s", "s", "lower"),
           ("sim.events", "count", "lower"),
           ("sim.events_cancelled", "count", "lower"),
           ("sim.cancel_ratio", "ratio", "lower"),
           ("sim.ops", "count", "lower"),
           ("sim.busy_segments", "count", "lower"),
           ("sim.events_per_s", "1/s", "higher"))
    + _layer({"iters_per_s": ("scale1024-torus", "paper32-skew")},
             ("mpich.self_s", "s", "lower"),
             ("mpich.packets_processed", "count", "lower"),
             ("mpich.unexpected_msgs", "count", "lower"),
             ("mpich.signals_ignored", "count", "lower"),
             ("mpich.barrier_packets", "count", "lower"),
             ("mpich.collective_packets", "count", "lower"),
             ("mpich.notify_packets", "count", "lower"),
             ("mpich.barrier_packet_share", "ratio", "lower"))
    + _layer({"sim_result_us": ("paper32-skew", "pipe32-large"),
              "iters_per_s": ("pipe32-large",)},
             ("gm.self_s", "s", "lower"),
             ("gm.packets_sent", "count", "lower"),
             ("gm.signals_raised", "count", "lower"),
             ("gm.signal_useful_ratio", "ratio", "higher"),
             ("gm.token_stalls", "count", "lower"))
    + _layer({"iters_per_s": ("scale1024-torus",),
              "sim_result_us": ("pipe32-large",)},
             ("network.self_s", "s", "lower"),
             ("topo.self_s", "s", "lower"),
             ("net.packets", "count", "lower"),
             ("net.hops", "count", "lower"),
             ("net.bytes", "bytes", "lower"),
             ("net.max_port_util", "ratio", "lower"),
             ("net.route_cache_entries", "count", "lower"))
    + _layer({"sim_result_us": ("paper32-skew",),
              "iters_per_s": ("pap32-bursty",)},
             ("core.self_s", "s", "lower"),
             ("ab.children_async_ratio", "ratio", "higher"),
             ("ab.descriptors_async", "count", "higher"),
             ("ab.unexpected_one_copy", "count", "lower"))
    + _layer({"iters_per_s": ("pipe32-large",),
              "sim_result_us": ("pipe32-large",)},
             ("pipeline.self_s", "s", "lower"),
             ("pipeline.segments_sent", "count", "lower"),
             ("pipeline.stalls", "count", "lower"))
    + _layer({"iters_per_s": ("pap32-bursty",),
              "setup_s": ("pap32-bursty",)},
             ("schedule.self_s", "s", "lower"),
             ("schedule.lowerings", "count", "lower"),
             ("schedule.memo_hit_ratio", "ratio", "higher"))
    + _layer({"iters_per_s": ("pap32-bursty",)},
             ("workload.self_s", "s", "lower"))
    # Describes the generated input; it must not move at all.
    + _layer({}, ("workload.kappa", "ratio", "lower"))
    + _layer({"setup_s": ("scale1024-torus",),
              "peak_rss_mb": ("scale1024-torus",)},
             ("harness.self_s", "s", "lower"),
             ("cluster.build_s", "s", "lower"))
    + _layer({"sim_result_us": ("paper32-skew", "pipe32-large")},
             *[(f"cpu.{cat}_us.{build}", "us", "lower")
               for build in ("ab", "nab") for cat in LEDGER_CATEGORIES])
    # Run-level checks and the profile's own accounting.
    + _layer({},
             ("other.self_s", "s", "lower"),
             ("perfbench.self_s", "s", "lower"),
             ("unattributed.self_s", "s", "lower"),
             ("trace.wall_s", "s", "lower"),
             ("trace.overhead", "ratio", "lower"),
             ("paper_factor_err", "ratio", "lower"),
             ("failed_frac", "ratio", "lower"))
)


def describe() -> dict:
    """Everything above as one JSON-able document."""
    def metric(m: Metric) -> dict:
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if m.bound:
            out["bound"] = m.bound
        else:
            out["moves"] = {k: list(v) for k, v in m.moves.items()}
        return out

    return {
        "workloads": [
            {"name": w.name, "why": w.why, "params": w.params,
             "iterations_per_pass": w.iters_by_build,
             "stresses": list(w.stresses), "bypasses": list(w.bypasses)}
            for w in WORKLOADS.values()],
        "end_to_end": [metric(m) for m in END_TO_END],
        "per_layer": [metric(m) for m in PER_LAYER],
        "interaction_rule": INTERACTION_RULE,
    }
