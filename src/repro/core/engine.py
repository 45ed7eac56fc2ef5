"""The application-bypass reduction engine (the paper's contribution).

One :class:`AbEngine` is attached to each rank of an AB-build MPI library
(:class:`repro.mpich.rank.MpiRank`).  It plays three roles:

1. **Reduce entry point** (:meth:`AbEngine.reduce`) — the synchronous
   component executed inside ``MPI_Reduce`` (paper Fig. 3) on non-root
   ranks, once the schedule interpreter has decided ab-vs-fallback: build
   and enqueue the reduce descriptor, consume whatever child contributions
   already arrived (from the AB unexpected queue or via explicitly
   triggered progress), optionally linger inside the exit-delay window
   (Sec. IV-E), then return — enabling NIC signals if any descriptor is
   still outstanding.

2. **Progress-engine hook** (:meth:`AbEngine.preprocess`, Fig. 4 gray boxes)
   — pre-processes every incoming packet: non-AB packets pass through;
   AB packets bound for a reduction this rank roots are routed to the
   default synchronous path; everything else is matched against the
   descriptor queue and absorbed (Fig. 5), or copied *once* into the custom
   AB unexpected queue.

3. **Asynchronous completion** — when a descriptor's last child is absorbed
   (from the hook, regardless of whether a signal or an application MPI call
   triggered progress), the final result is sent to the parent, the
   descriptor is dequeued, and signals are disabled once the queue drains.

Copy accounting (paper Sec. V-B/V-C): expected/late AB messages are combined
straight from the packet buffer (zero host copies); early AB messages pay a
single copy into the AB unexpected queue and are consumed from there.  The
rejected reuse-the-MPICH-queues design (Sec. V-A) is retained behind
``AbParams.reuse_mpich_queues`` as an ablation: it pays one extra copy per
message plus management overhead.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..config import AbParams
from ..errors import AbProtocolError
from ..mpich.collectives import tree
from ..mpich.communicator import Communicator
from ..mpich.message import TAG_REDUCE, AbHeader, Envelope
from ..mpich.operations import Op
from ..sim import access
from ..sim.cpu import Ledger
from ..sim.events import PRIORITY_TIMER
from ..sim.process import Busy, WaitFor
from .delay import exit_delay_window
from .descriptor import DescriptorQueue, ReduceDescriptor
from .plan import CollectivePlan
from .unexpected import AbUnexpectedQueue


class AbStats:
    """Per-rank counters for the application-bypass machinery."""

    __slots__ = ("ab_reduces", "fallback_size", "root_reduces", "leaf_sends",
                 "children_sync", "children_async", "children_from_unexpected",
                 "expected_zero_copy", "unexpected_one_copy",
                 "ab_copies", "ab_copied_bytes",
                 "descriptors_completed_sync", "descriptors_completed_async",
                 "window_expires", "window_catches",
                 "descriptors_timed_out", "descriptor_retries",
                 "subtrees_healed", "children_abandoned", "sends_rerouted")

    def __init__(self) -> None:
        self.ab_reduces = 0
        self.fallback_size = 0
        self.root_reduces = 0
        self.leaf_sends = 0
        self.children_sync = 0
        self.children_async = 0
        self.children_from_unexpected = 0
        self.expected_zero_copy = 0
        self.unexpected_one_copy = 0
        self.ab_copies = 0
        self.ab_copied_bytes = 0
        self.descriptors_completed_sync = 0
        self.descriptors_completed_async = 0
        self.window_expires = 0
        self.window_catches = 0
        # Fault-recovery counters (repro.faults; all zero on healthy runs).
        self.descriptors_timed_out = 0
        self.descriptor_retries = 0
        self.subtrees_healed = 0
        self.children_abandoned = 0
        self.sends_rerouted = 0


#: Ops whose element-wise fold is exact and commutative for every dtype,
#: so fold *order* can never change the result.
_ORDER_FREE_OPS = frozenset({"min", "max", "band", "bor", "bxor"})


def _fold_order_sensitive(op: Op, acc: np.ndarray) -> bool:
    """True if reordering folds into ``acc`` could change the result:
    non-commutative user ops always; float sum/prod reassociate; integer
    and boolean arithmetic is exact."""
    if not op.commutative:
        return True
    if op.name in _ORDER_FREE_OPS:
        return False
    return acc.dtype.kind not in "iub"


class AbEngine:
    """Application-bypass state machine for one rank."""

    def __init__(self, rank, params: AbParams):
        self.rank = rank
        self.node = rank.node
        self.costs = rank.costs
        self.sim = rank.sim
        self.params = params
        self.nic = rank.node.nic
        self.descriptors = DescriptorQueue()
        self.descriptors.owner = rank.rank
        self.unexpected = AbUnexpectedQueue()
        self.unexpected.owner = rank.rank
        self.stats = AbStats()
        #: Protocol-invariant monitor (repro.analysis.invariants), shared
        #: cluster-wide via the NIC; None in unmonitored runs.
        self.monitor = getattr(self.nic, "monitor", None)
        if self.monitor is not None:
            self.monitor.register_engine(self)
        #: Per-collective-context instance counters; every rank advances
        #: them identically because collectives execute in program order.
        self._instances: dict[int, int] = {}
        #: Extension hooks (application-bypass broadcast) keyed by
        #: AbHeader.kind; see :mod:`repro.core.broadcast`.
        self.extensions: dict[str, object] = {}
        #: While > 0, NIC signals stay armed regardless of the reduce
        #: descriptor queue (used by the broadcast and split-phase
        #: extensions, whose asynchronous work is not descriptor-driven).
        self.signal_pins = 0
        #: >0 while this rank is inside the synchronous component of an AB
        #: MPI_Reduce (Fig. 3).  Children absorbed then count as
        #: synchronous; everything else is the asynchronous component.
        self._sync_depth = 0
        # Fault-recovery configuration (repro.faults).  At defaults the
        # timeout is 0 (no timers armed) and healing is off, so the engine
        # behaves bit-identically to a build without the fault subsystem.
        rank.node.ab_engine = self
        faults = getattr(rank.node.config, "faults", None)
        self._timeout_us = (float(faults.descriptor_timeout_us)
                            if faults is not None else 0.0)
        self._timeout_retries = (int(faults.timeout_retries)
                                 if faults is not None else 0)
        #: ``(world_rank, now) -> bool`` — the fault schedule's perfect
        #: failure detector; None on fault-free clusters.
        self._crash_oracle = getattr(rank.node, "crash_oracle", None)
        #: ``(context, instance, seg, child)`` keys whose descriptor
        #: abandoned the child: a late segment packet matching one is
        #: discarded on arrival (see :meth:`preprocess`).
        self._stale_segments: set[tuple[int, int, int, int]] = set()
        self._heal = bool(faults is not None and faults.tree_heal
                          and self._crash_oracle is not None)
        #: Segmented pipelined collectives (repro.pipeline).  Built only
        #: when the config block is armed, so disarmed runs never construct
        #: the subsystem and stay bit-identical to a build without it.
        self.pipeline = None
        pparams = getattr(rank.node.config, "pipeline", None)
        if pparams is not None and pparams.armed:
            from ..pipeline.reduce import AbPipeline
            self.pipeline = AbPipeline(self)

    # ------------------------------------------------------------------
    # signal pinning (extensions)
    # ------------------------------------------------------------------
    def pin_signals(self) -> None:
        """Keep NIC signals enabled until :meth:`unpin_signals`."""
        self.signal_pins += 1
        if not self.nic.signals_enabled:
            self.nic.enable_signals(Ledger())

    def unpin_signals(self, ledger: Optional[Ledger] = None) -> None:
        if self.signal_pins <= 0:
            raise AbProtocolError("unbalanced unpin_signals")
        self.signal_pins -= 1
        if (self.signal_pins == 0 and self.descriptors.empty
                and self.nic.signals_enabled):
            self.nic.disable_signals(ledger if ledger is not None else Ledger())
        if (self.signal_pins == 0 and self.descriptors.empty
                and self.monitor is not None):
            self.monitor.on_queue_drained(self.rank.rank, self.sim.now)

    # ==================================================================
    # role 1: the MPI_Reduce entry point (synchronous component, Fig. 3)
    # ==================================================================
    def reduce(self, sendbuf: np.ndarray, op: Op, root: int,
               comm: Communicator, *, plan: CollectivePlan,
               segments=None) -> Generator:
        """Application-bypass ``MPI_Reduce`` on a non-root rank.

        The schedule interpreter (:mod:`repro.core.interpreter`) has already
        made the ab-vs-fallback decision, walks the root itself, and passes
        the schedule-resolved neighbors as ``plan`` and the pipeline's
        ``segments`` (None for a whole message).  Tree healing overrides
        ``plan``: faults always win."""
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")
        if segments is not None:
            result = yield from self.pipeline.reduce(
                sendbuf, op, root, comm, ledger, segments, plan=plan)
            return result

        size = comm.size
        me = comm.rank_of_world(self.rank.rank)
        instance = self._next_instance(comm)
        ledger.charge(self.costs.tree_setup_us, "mpi")
        rel = tree.relative_rank(me, root, size)
        root_world = comm.world_rank(root)
        shape = self.rank.tree_shape_for(sendbuf.nbytes)
        header = AbHeader(root=root_world, instance=instance, kind="reduce")
        if self._heal:
            # Fault-tolerant construction: crashed subtrees are replaced by
            # their live fringe, and the parent by its nearest live
            # ancestor, so the healed tree spans exactly the live ranks.
            naive_parent = comm.world_rank(
                tree.absolute_rank(shape.parent(rel, size), root, size))
            parent_world = self._live_ancestor_world(
                comm, shape, root, size, shape.parent(rel, size))
            if parent_world != naive_parent:
                self.stats.sends_rerouted += 1
                self._report_fault("send_rerouted", instance=instance,
                                   parent=parent_world)
            children_world, healed = self._live_fringe(
                comm, shape, root, size, shape.children(rel, size))
            if healed:
                self.stats.subtrees_healed += healed
                self._report_fault("subtree_healed", instance=instance,
                                   healed=healed)
        else:
            parent_world = plan.parent_world
            children_world = list(plan.children_world)
        if not children_world:
            # Leaf — by tree position, or because every subtree below this
            # rank crashed: one AB-framed eager send to the parent; nothing
            # to wait for (paper: leaves need no optimization, Sec. II).
            self.stats.leaf_sends += 1
            self.rank.progress.start_send(sendbuf, parent_world, TAG_REDUCE,
                                          comm.coll_context, ledger,
                                          ab=header)
            yield Busy.from_ledger(ledger)
            return None

        # ----- internal node: the Fig. 3 flow -------------------------
        self.stats.ab_reduces += 1
        progress = self.rank.progress
        # Everything from here to the exit is "progress underway": signals
        # are explicitly disabled, and any child folded in during this span
        # counts as synchronously processed.
        progress.active_depth += 1
        self._sync_depth += 1
        try:
            # "Disable signals": we are about to make progress explicitly.
            # (Skipped while an extension has signals pinned — its
            # asynchronous traffic must stay signal-driven.)
            if self.signal_pins == 0:
                self.nic.disable_signals(ledger)

            acc = np.array(sendbuf, copy=True)
            ledger.charge(self.costs.copy_us(acc.nbytes), "copy")
            desc = ReduceDescriptor(
                context_id=comm.coll_context, root_world=root_world,
                instance=instance, parent_world=parent_world,
                children_world=children_world, op=op, acc=acc, tag=TAG_REDUCE,
                created_at=self.sim.now,
                comm=comm, shape=shape, root=root, size=size, rel=rel)
            ledger.charge(self.costs.ab_descriptor_us, "descriptor")
            self.descriptors.push(desc)
            self.node.tracer.emit("ab.descriptor.enqueue",
                                  node=self.rank.rank, instance=instance,
                                  children=len(children_world))
            if self._timeout_us > 0.0:
                # Recovery timer (repro.faults): if children are still
                # pending when it fires, progress is forced, crashed
                # subtrees are healed, and after the retry budget the
                # partial sum is propagated (reported via INV-FAULT).
                # TIMER class: a timeout due exactly when the completing
                # contribution lands observes the completion (and is
                # cancelled) rather than racing it.
                desc.timeout_event = self.sim.schedule(
                    self._timeout_us, self._on_descriptor_timeout, desc, 1,
                    priority=PRIORITY_TIMER)

            # Early arrivals already sit in the AB unexpected queue: consume
            # them directly (their only copy already happened on arrival).
            self._consume_unexpected(desc, ledger)
            yield Busy.from_ledger(ledger)

            # Walk/poll loop with the exit-delay window (Sec. IV-E).
            deadline = self.sim.now + exit_delay_window(self.params, size)
            while not desc.removed:
                trigger = self.nic.rx_notifier.wait()
                loop_ledger = Ledger()
                progress.drain(loop_ledger)
                if loop_ledger.total > 0.0:
                    yield Busy.from_ledger(loop_ledger)
                if desc.removed:
                    self.stats.window_catches += 1
                    break
                if self.sim.now >= deadline:
                    self.stats.window_expires += 1
                    break
                # Bounded wait: woken by the next arrival or the deadline.
                self.sim.at(deadline, trigger.fire, None)
                yield WaitFor(trigger, poll_category="poll")
        finally:
            progress.active_depth -= 1
            self._sync_depth -= 1

        # Exit: enable signals iff any descriptor remains outstanding
        # (ours or an older one) — Fig. 3 bottom-left diamond.
        exit_ledger = Ledger()
        if not self.descriptors.empty or self.signal_pins > 0:
            self.nic.enable_signals(exit_ledger)
        if self.monitor is not None:
            self.monitor.on_reduce_exit(self.rank.rank, self.sim.now)
        if exit_ledger.total > 0.0:
            yield Busy.from_ledger(exit_ledger)
        return None

    # ==================================================================
    # role 2: the progress-engine pre-processing hook (Fig. 4)
    # ==================================================================
    def preprocess(self, env: Envelope, ledger: Ledger) -> bool:
        """Examine one dequeued packet; True if consumed here."""
        header = env.ab
        if header is None:
            return False
        if header.kind != "reduce":
            ext = self.extensions.get(header.kind)
            if ext is None:
                raise AbProtocolError(f"no handler for AB kind {header.kind!r}")
            return ext.preprocess(env, ledger)
        if header.root == self.rank.rank:
            # This rank roots the instance.  The split-phase extension may
            # have registered an asynchronous root state; otherwise the
            # packet is strictly synchronous and handled by the default
            # matching path (Fig. 4 "Root?" diamond).
            ireduce = self.extensions.get("ireduce_root")
            if ireduce is not None and ireduce.try_absorb(env, ledger):
                return True
            return False

        ledger.charge(self.costs.ab_descriptor_match_us, "ab")
        if header.seg >= 0:
            key = (env.context_id, header.instance, header.seg, env.src)
            if key in self._stale_segments:
                # The segment's descriptor already abandoned this child
                # (timeout-recovery gave up on it): its late contribution is
                # dropped, not buffered — nothing will ever consume it.
                self._stale_segments.discard(key)
                if self.pipeline is not None:
                    self.pipeline.stats.stale_segments_dropped += 1
                return True
            # Segmented packet (repro.pipeline): the window keeps several
            # per-segment descriptors of one instance open at once, so the
            # FIFO sender match is ambiguous — match the exact (instance,
            # segment) named by the header.
            desc = self.descriptors.match_segment(
                env.src, env.context_id, header.instance, header.seg)
        else:
            desc = self.descriptors.match(env.src)
        if desc is None:
            # Early (truly unexpected): one copy into the AB queue.
            data = np.array(env.data, copy=True)
            ledger.charge(self.costs.copy_us(env.nbytes), "copy")
            self.stats.ab_copies += 1
            self.stats.ab_copied_bytes += env.nbytes
            self.stats.unexpected_one_copy += 1
            if self.params.reuse_mpich_queues:
                # Ablation: the rejected design buffers through MPICH's
                # non-blocking machinery — a second copy plus management.
                ledger.charge(self.costs.copy_us(env.nbytes), "copy")
                ledger.charge(self.costs.ab_reuse_mgmt_us, "ab")
                self.stats.ab_copies += 1
                self.stats.ab_copied_bytes += env.nbytes
            self.unexpected.put(env.src, header, data, self.sim.now)
            if header.seg >= 0 and self.pipeline is not None:
                # A segment the window wasn't ready for: the pipeline
                # stalled (copy paid instead of a zero-copy fold).
                self.pipeline.stats.pipeline_stalls += 1
            if self.monitor is not None:
                self.monitor.on_ab_message(
                    self.rank.rank, "unexpected",
                    2 if self.params.reuse_mpich_queues else 1,
                    self.params.reuse_mpich_queues, self.sim.now)
            return True

        if header.seg < 0 and desc.instance != header.instance:
            raise AbProtocolError(
                f"rank {self.rank.rank}: packet from {env.src} carries "
                f"instance {header.instance} but matched descriptor "
                f"{desc.instance} (FIFO ordering violated)")
        # Expected or late: combined straight from the packet buffer —
        # zero host copies (100% copy reduction, Sec. V-C).
        self.stats.expected_zero_copy += 1
        if self.params.reuse_mpich_queues:
            ledger.charge(self.costs.copy_us(env.nbytes), "copy")
            ledger.charge(self.costs.ab_reuse_mgmt_us, "ab")
            self.stats.ab_copies += 1
            self.stats.ab_copied_bytes += env.nbytes
        if self.monitor is not None:
            self.monitor.on_ab_message(
                self.rank.rank, "expected",
                1 if self.params.reuse_mpich_queues else 0,
                self.params.reuse_mpich_queues, self.sim.now)
        self._absorb(desc, env.src, env.data, ledger)
        return True

    # ==================================================================
    # role 3: absorption and asynchronous completion (Fig. 5)
    # ==================================================================
    def _absorb(self, desc: ReduceDescriptor, child_world: int,
                data: np.ndarray, ledger: Ledger) -> None:
        """Fold one child's contribution into the descriptor."""
        ledger.charge(self.costs.op_us(desc.acc.size), "op")
        if access.TRACER is not None:
            # Fold-buffer write for the happens-before checker: float
            # sum/prod (and any non-commutative user op) reassociate, so
            # two same-timestamp unordered folds into one accumulator are
            # a latent schedule race even when today's FIFO order happens
            # to be consistent.
            access.trace(
                access.WRITE,
                ("acc", self.rank.rank, desc.context_id, desc.instance,
                 desc.seg),
                order_sensitive=_fold_order_sensitive(desc.op, desc.acc),
                note=f"fold child={child_world}")
        desc.op.apply(desc.acc, data.reshape(desc.acc.shape))
        desc.mark_done(child_world)
        in_sync = self._sync_depth > 0
        if in_sync:
            desc.sync_children += 1
            self.stats.children_sync += 1
        else:
            desc.async_children += 1
            self.stats.children_async += 1
        if desc.seg >= 0:
            if self.pipeline is not None:
                self.pipeline.stats.segments_folded += 1
                if not in_sync:
                    self.pipeline.stats.segments_folded_async += 1
            if self.monitor is not None:
                self.monitor.on_segment_fold(
                    self.rank.rank, child_world, desc.context_id,
                    desc.instance, desc.seg, self.sim.now)
            if not desc.complete and desc.timeout_event is not None:
                # Stall-based recovery timer: a window descriptor's children
                # legitimately arrive a full sibling-stream apart (the
                # parent's RX port serializes every child's segments), so
                # age-based expiry would abandon live children.  Each fold
                # is progress — restart the timer and the retry budget.
                self.sim.cancel(desc.timeout_event)
                desc.timeout_event = self.sim.schedule(
                    self._timeout_us, self._on_descriptor_timeout, desc, 1,
                    priority=PRIORITY_TIMER)
        if desc.complete:
            self._finish(desc, ledger, completed_async=not in_sync)

    def _finish(self, desc: ReduceDescriptor, ledger: Ledger,
                completed_async: bool) -> None:
        """All children handled: send to parent, dequeue, idle the NIC."""
        if (self._heal and desc.rel is not None
                and self._crashed(desc.parent_world)):
            # The parent crashed after this descriptor was built: climb the
            # tree to the nearest live ancestor (the root never crashes in
            # the supported fault model).
            new_parent = self._live_ancestor_world(
                desc.comm, desc.shape, desc.root, desc.size,
                desc.shape.parent(desc.rel, desc.size))
            if new_parent != desc.parent_world:
                desc.parent_world = new_parent
                self.stats.sends_rerouted += 1
                self._report_fault("send_rerouted", instance=desc.instance,
                                   parent=new_parent)
        header = AbHeader(root=desc.root_world, instance=desc.instance,
                          kind="reduce", seg=desc.seg, nseg=desc.nseg)
        self.rank.progress.start_send(desc.acc, desc.parent_world, desc.tag,
                                      desc.context_id, ledger, ab=header)
        if desc.seg >= 0:
            if self.pipeline is not None:
                self.pipeline.stats.segments_sent += 1
            if self.monitor is not None:
                self.monitor.on_segment_emit(
                    self.rank.rank, desc.parent_world, desc.context_id,
                    desc.instance, desc.seg, self.sim.now)
        self.descriptors.remove(desc)
        if desc.timeout_event is not None:
            self.sim.cancel(desc.timeout_event)
            desc.timeout_event = None
        if completed_async:
            self.stats.descriptors_completed_async += 1
        else:
            self.stats.descriptors_completed_sync += 1
        if desc.seg >= 0:
            self.node.tracer.emit("ab.segment.complete",
                                  node=self.rank.rank, instance=desc.instance,
                                  seg=desc.seg, nseg=desc.nseg,
                                  mode="async" if completed_async else "sync",
                                  span=self.sim.now - desc.created_at)
        else:
            self.node.tracer.emit("ab.descriptor.complete",
                                  node=self.rank.rank, instance=desc.instance,
                                  mode="async" if completed_async else "sync",
                                  span=self.sim.now - desc.created_at)
        callback = desc.on_complete
        if callback is not None:
            # Window advance (repro.pipeline): runs before the queue-drained
            # check below so a callback that opens the next segment's
            # descriptor keeps signals armed without a disable/enable flap.
            desc.on_complete = None
            callback(desc, ledger)
        if (self.descriptors.empty and self.signal_pins == 0
                and self.nic.signals_enabled):
            # "Descriptor queue empty? -> Disable signals" (Fig. 5).
            self.nic.disable_signals(ledger)
        if (self.descriptors.empty and self.signal_pins == 0
                and self.monitor is not None):
            self.monitor.on_queue_drained(self.rank.rank, self.sim.now)

    def _consume_unexpected(self, desc: ReduceDescriptor,
                            ledger: Ledger) -> None:
        """Fold in early arrivals buffered before the descriptor existed.

        Entries are consumed directly from the AB unexpected queue — the
        copy they already paid on arrival is their only one (Sec. V-B).
        """
        for child in desc.pending_children():
            if desc.seg >= 0:
                entry = self.unexpected.take_for(child, desc.instance,
                                                 desc.seg)
            else:
                entry = self.unexpected.take(child)
            if entry is None:
                continue
            if entry.header.instance != desc.instance:
                raise AbProtocolError(
                    f"rank {self.rank.rank}: unexpected entry from "
                    f"{child} has instance {entry.header.instance}, "
                    f"descriptor expects {desc.instance}")
            ledger.charge(self.costs.ab_descriptor_match_us, "ab")
            self.stats.children_from_unexpected += 1
            self._absorb(desc, child, entry.data, ledger)
            if desc.removed:
                break

    # ==================================================================
    # fault recovery (repro.faults: descriptor timeouts + tree healing)
    # ==================================================================
    def _crashed(self, world_rank: int) -> bool:
        oracle = self._crash_oracle
        return oracle is not None and oracle(world_rank, self.sim.now)

    def _live_ancestor_world(self, comm, shape, root: int, size: int,
                             prel: int) -> int:
        """World rank of the nearest live ancestor, starting at rel
        ``prel`` and climbing toward the root (rel 0, assumed live)."""
        while prel != 0:
            world = comm.world_rank(tree.absolute_rank(prel, root, size))
            if not self._crashed(world):
                return world
            prel = shape.parent(prel, size)
        return comm.world_rank(tree.absolute_rank(0, root, size))

    def _live_fringe(self, comm, shape, root: int, size: int,
                     rels) -> tuple[list[int], int]:
        """Expand ``rels`` into the live fringe: a live rank stands for its
        subtree; a crashed rank is replaced by the live fringe of its own
        children (deterministic depth-first, combine order preserved).
        Returns ``(world_ranks, crashed_nodes_bypassed)``."""
        worlds: list[int] = []
        healed = 0
        for r in rels:
            world = comm.world_rank(tree.absolute_rank(r, root, size))
            if not self._crashed(world):
                worlds.append(world)
                continue
            healed += 1
            sub, sub_healed = self._live_fringe(
                comm, shape, root, size, shape.children(r, size))
            worlds.extend(sub)
            healed += sub_healed
        return worlds, healed

    def _on_descriptor_timeout(self, desc: ReduceDescriptor,
                               attempt: int) -> None:
        desc.timeout_event = None
        if desc.removed or self.node.cpu.crashed:
            return
        self.stats.descriptors_timed_out += 1
        self.node.cpu.run_handler(
            lambda ledger: self._timeout_recover(desc, attempt, ledger))

    def _timeout_recover(self, desc: ReduceDescriptor, attempt: int,
                         ledger: Ledger) -> None:
        """Timer body: force progress, heal crashed subtrees, re-arm, and
        after the retry budget abandon the stragglers (partial sum,
        honestly reported — availability over completeness)."""
        if desc.removed:
            return
        progress = self.rank.progress
        if progress.active_depth == 0:
            # Safe to drain here; if a blocking call is already spinning
            # (active_depth > 0) it is making progress on our behalf.
            progress.active_depth += 1
            try:
                progress.drain(ledger)
            finally:
                progress.active_depth -= 1
        if desc.removed:
            return
        if self._heal:
            self._heal_descriptor(desc, ledger)
            if desc.removed:
                return
        if attempt < self._timeout_retries:
            self.stats.descriptor_retries += 1
            desc.timeout_event = self.sim.schedule(
                self._timeout_us, self._on_descriptor_timeout, desc,
                attempt + 1, priority=PRIORITY_TIMER)
            return
        for child in desc.pending_children():
            desc.mark_done(child)
            self.stats.children_abandoned += 1
            if desc.seg >= 0:
                # Purge anything this child already delivered for the
                # segment, and remember the key so a straggling late packet
                # is discarded instead of stranding in the unexpected queue.
                self.unexpected.take_for(child, desc.instance, desc.seg)
                self._stale_segments.add(
                    (desc.context_id, desc.instance, desc.seg, child))
            self._report_fault("child_abandoned", instance=desc.instance,
                               child=child)
        self._finish(desc, ledger, completed_async=True)

    def _heal_descriptor(self, desc: ReduceDescriptor,
                         ledger: Ledger) -> None:
        """Reassign every crashed pending child's subtree (tree_heal): the
        crashed child is dropped and its live descendants are adopted as
        direct children of this rank."""
        if desc.comm is None:
            return
        for child in list(desc.pending_children()):
            if not self._crashed(child):
                continue
            crel = tree.relative_rank(desc.comm.rank_of_world(child),
                                      desc.root, desc.size)
            adopted, nested = self._live_fringe(
                desc.comm, desc.shape, desc.root, desc.size,
                desc.shape.children(crel, desc.size))
            desc.adopt(child, adopted)
            ledger.charge(self.costs.ab_descriptor_us, "descriptor")
            self.stats.subtrees_healed += 1 + nested
            self._report_fault("subtree_healed", instance=desc.instance,
                               child=child, adopted=len(adopted))
        if desc.complete:
            self._finish(desc, ledger, completed_async=True)
            return
        self._consume_unexpected(desc, ledger)

    def _report_fault(self, kind: str, **context) -> None:
        if self.monitor is not None:
            self.monitor.on_fault_report(self.rank.rank, kind,
                                         self.sim.now, **context)

    # ------------------------------------------------------------------
    def _next_instance(self, comm: Communicator) -> int:
        ctx = comm.coll_context
        nxt = self._instances.get(ctx, 0)
        self._instances[ctx] = nxt + 1
        return nxt

    @property
    def outstanding(self) -> int:
        """Number of reductions currently delegated to asynchronous
        processing on this rank."""
        return len(self.descriptors)
