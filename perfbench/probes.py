"""Instrumentation the benchmark applies from outside the program.

Three pieces, none of which edits ``repro``:

* :class:`Capture` wraps a few public entry points for the length of one
  pass — ``Cluster.__init__`` (construction time, and the clusters to read
  back), ``MpiRank.__init__`` (the ranks whose progress stats are read),
  ``MpiRank.reduce`` (the output oracle) and, in the traced run only,
  ``Nic.send`` (packets classified by tag).
* :func:`counts` reads the public stats objects of everything a pass built:
  ``Simulator.counters()``, ``node.nic.stats``, ``node.ab_engine.stats``,
  each rank's progress and matching stats, and ``cpu.usage_snapshot()``.
* :func:`self_times` folds a ``cProfile`` run into per-layer self time.
"""

from __future__ import annotations

import pstats
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, Optional

import numpy as np

from spec import LAYER_OF_PACKAGE, LEDGER_CATEGORIES

BENCH_DIR = Path(__file__).resolve().parent

#: Work counts :func:`counts` sums over a pass (0 where a layer is idle).
COUNT_KEYS = (
    "sim.events", "sim.events_cancelled", "sim.ops",
    "net.packets", "net.bytes", "net.hops", "net.route_cache_entries",
    "pipeline.segments_sent", "pipeline.stalls",
    "gm.packets_sent", "gm.signals_raised", "gm.token_stalls",
    "ab.children_sync", "ab.children_async", "ab.descriptors_async",
    "ab.unexpected_one_copy",
    "mpich.packets_processed", "mpich.signals_ignored",
    "mpich.signal_progress_runs", "mpich.unexpected_msgs",
)


class Capture:
    """What one pass built and did, gathered through wrappers."""

    def __init__(self, *, classify_packets: bool = False):
        self.classify_packets = classify_packets
        self.clusters: list = []
        self.ranks: list = []
        #: Host seconds spent inside ``Cluster.__init__``.
        self.build_s = 0.0
        #: Root results checked by the oracle, and how many were wrong.
        self.root_results = 0
        self.mismatches = 0
        #: Packets handed to ``Nic.send``, by class (traced run only).
        self.packets: Counter = Counter()

    @contextmanager
    def installed(self) -> Iterator["Capture"]:
        from repro.cluster.cluster import Cluster
        from repro.gm.nic import Nic
        from repro.mpich.message import TAG_BARRIER, TAG_NOTIFY
        from repro.mpich.operations import SUM
        from repro.mpich.rank import MpiRank

        capture = self
        cluster_init = Cluster.__init__
        rank_init = MpiRank.__init__
        rank_reduce = MpiRank.reduce
        nic_send = Nic.send

        def init_cluster(cluster, *args, **kwargs):
            t0 = perf_counter()
            cluster_init(cluster, *args, **kwargs)
            capture.build_s += perf_counter() - t0
            capture.clusters.append(cluster)

        def init_rank(rank, *args, **kwargs):
            rank_init(rank, *args, **kwargs)
            capture.ranks.append(rank)

        def reduce(rank, sendbuf, op=SUM, root=0, comm=None, recvbuf=None):
            result = yield from rank_reduce(rank, sendbuf, op, root, comm,
                                            recvbuf)
            if result is not None:
                # Every protocol the benchmark drives contributes rank + 1
                # from each rank under SUM, so the root must hold exactly
                # sum(rank + 1); small integers are exact in float64.
                comm = comm or rank.comm_world
                capture.root_results += 1
                if not np.all(np.asarray(result)
                              == comm.size * (comm.size + 1) / 2):
                    capture.mismatches += 1
            return result

        packet_class = {TAG_BARRIER: "barrier", TAG_NOTIFY: "notify"}

        def send(nic, packet, *args, **kwargs):
            tag = getattr(packet.payload, "tag", None)
            capture.packets[packet_class.get(tag, "collective")] += 1
            return nic_send(nic, packet, *args, **kwargs)

        Cluster.__init__ = init_cluster
        MpiRank.__init__ = init_rank
        MpiRank.reduce = reduce
        if self.classify_packets:
            Nic.send = send
        try:
            yield self
        finally:
            Cluster.__init__ = cluster_init
            MpiRank.__init__ = rank_init
            MpiRank.reduce = rank_reduce
            Nic.send = nic_send


def counts(capture: Capture, iters_by_build: Dict[str, int]) -> dict:
    """Deterministic work counts and the simulated CPU ledger of a pass.

    Everything here is a pure function of the simulation, so it must be
    bit-identical between the timed and the traced pass of one seed.
    """
    from repro.mpich.rank import MpiBuild

    out = dict.fromkeys(COUNT_KEYS, 0)
    max_port = 0.0
    kappa = 0.0
    build_of_sim = {id(rank.node.sim): rank.build for rank in capture.ranks}
    ledger = {build: dict.fromkeys(LEDGER_CATEGORIES, 0.0)
              for build in ("ab", "nab")}
    ledger_ranks = dict.fromkeys(ledger, 0)
    for cluster in capture.clusters:
        c = cluster.sim.counters()
        out["sim.events"] += c["events"]
        out["sim.events_cancelled"] += c["events_cancelled"]
        out["sim.ops"] += c["ops"]
        out["net.packets"] += c["net_packets_delivered"]
        out["net.bytes"] += c["net_bytes_delivered"]
        out["net.hops"] += c["net_hops"]
        out["net.route_cache_entries"] += c["net_route_cache_entries"]
        out["pipeline.segments_sent"] += c.get("segments_sent", 0)
        out["pipeline.stalls"] += c.get("pipeline_stalls", 0)
        max_port = max(max_port, c["net_max_port_utilization"])
        kappa = max(kappa, c.get("arrival_kappa", 0.0))
        for node in cluster.nodes:
            nic = node.nic.stats
            out["gm.packets_sent"] += nic.packets_sent
            out["gm.signals_raised"] += nic.signals_raised
            out["gm.token_stalls"] += (nic.send_token_stalls
                                       + nic.recv_token_stalls)
            if node.ab_engine is not None:
                ab = node.ab_engine.stats
                out["ab.children_sync"] += (ab.children_sync
                                            + ab.children_from_unexpected)
                out["ab.children_async"] += ab.children_async
                out["ab.descriptors_async"] += ab.descriptors_completed_async
                out["ab.unexpected_one_copy"] += ab.unexpected_one_copy
        build = build_of_sim.get(id(cluster.sim))
        if build is None:
            continue
        key = "ab" if build is MpiBuild.AB else "nab"
        ledger_ranks[key] += cluster.size
        for node in cluster.nodes:
            usage = node.cpu.usage_snapshot()
            for cat in LEDGER_CATEGORIES:
                ledger[key][cat] += usage.get(cat, 0.0)
    for rank in capture.ranks:
        progress = rank.progress.stats
        out["mpich.packets_processed"] += progress.packets_processed
        out["mpich.signals_ignored"] += progress.signals_ignored
        out["mpich.signal_progress_runs"] += progress.signal_progress_runs
        out["mpich.unexpected_msgs"] += \
            rank.progress.matching.stats.unexpected_msgs

    result = out
    result["net.max_port_util"] = max_port
    result["workload.kappa"] = kappa
    result["sim.cancel_ratio"] = _ratio(
        out["sim.events_cancelled"],
        out["sim.events"] + out["sim.events_cancelled"])
    result["gm.signal_useful_ratio"] = _ratio(
        out["mpich.signal_progress_runs"], out["gm.signals_raised"])
    result["ab.children_async_ratio"] = _ratio(
        out["ab.children_async"],
        out["ab.children_async"] + out["ab.children_sync"])
    # Per rank per collective iteration of that build; a build the
    # workload does not measure (e.g. the latency protocol's ping-pong
    # calibration cluster) reads 0.
    for key, totals in ledger.items():
        per = ledger_ranks[key] * iters_by_build.get(key, 0)
        for cat in LEDGER_CATEGORIES:
            result[f"cpu.{cat}_us.{key}"] = _ratio(totals[cat], per)
    return result


def packet_shares(capture: Capture) -> dict:
    total = sum(capture.packets.values())
    out = {f"mpich.{cls}_packets": capture.packets[cls]
           for cls in ("barrier", "collective", "notify")}
    out["mpich.barrier_packet_share"] = _ratio(capture.packets["barrier"],
                                               total)
    return out


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer did no such work."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# cProfile self time by layer
# ---------------------------------------------------------------------------

def layer_of_file(filename: str, src_dir: Path,
                  bench_dir: Path = BENCH_DIR) -> Optional[str]:
    """Layer a source file belongs to, or None outside repro and perfbench.

    Builtins (``~``), the standard library and third-party packages have no
    layer of their own; :func:`self_times` charges them to their caller.
    """
    if filename.startswith("<") or filename == "~":
        return None
    path = Path(filename)
    try:
        rel = path.relative_to(src_dir / "repro")
    except ValueError:
        try:
            path.relative_to(bench_dir)
        except ValueError:
            return None
        return "perfbench"
    package = rel.parts[0] if len(rel.parts) > 1 else ""
    return LAYER_OF_PACKAGE.get(package, "other")


def self_times(stats: pstats.Stats, wall_s: float, src_dir: Path,
               bench_dir: Path = BENCH_DIR) -> Dict[str, float]:
    """Per-layer self time of a profiled pass, plus the unattributed rest.

    A function's self time goes to the layer of its source file.  Time in
    functions without a layer goes to the caller's layer, edge by edge as
    cProfile recorded it; through a chain of layerless callers it is split
    by each caller's share of the cumulative time.  Whatever reaches no
    layer, and the part of ``wall_s`` the profiler did not see, is
    ``unattributed`` — so the returned values sum to ``wall_s``.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    layers: Dict[str, float] = {}
    layer_cache: Dict[tuple, Optional[str]] = {}
    share_cache: Dict[tuple, Dict[str, float]] = {}

    def layer(func) -> Optional[str]:
        if func not in layer_cache:
            layer_cache[func] = layer_of_file(func[0], src_dir, bench_dir)
        return layer_cache[func]

    def owners(func) -> Dict[str, float]:
        """How time charged to ``func`` splits by layer: all of it to
        ``func``'s own layer, or, for a layerless function, across its
        callers in proportion to the cumulative time each call edge took."""
        owner = layer(func)
        if owner is not None:
            return {owner: 1.0}
        if func in share_cache:
            return share_cache[func]
        # Seed the cache first: a call cycle through layerless functions
        # ends here with no owner, and its time stays unattributed.
        share_cache[func] = {}
        callers = table[func][4] if func in table else {}
        total = sum(edge[3] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            if total <= 0:
                break
            for name, frac in owners(caller).items():
                out[name] = out.get(name, 0.0) + frac * edge[3] / total
        share_cache[func] = out
        return out

    for func, (_, _, tt, _, callers) in table.items():
        owner = layer(func)
        if owner is not None:
            layers[owner] = layers.get(owner, 0.0) + tt
            continue
        # Per call edge, cProfile recorded how much of ``func``'s own time
        # that caller caused.
        for caller, edge in callers.items():
            for name, frac in owners(caller).items():
                layers[name] = layers.get(name, 0.0) + frac * edge[2]
    layers["unattributed"] = wall_s - sum(layers.values())
    return layers


def call_count(stats: pstats.Stats, rel_file: str, name: str) -> int:
    """Calls cProfile saw of function ``name`` defined in ``rel_file``."""
    return sum(nc for (filename, _, fname), (_, nc, *_) in stats.stats.items()
               if fname == name and Path(filename).as_posix().endswith(
                   rel_file))
