"""Execute a :class:`repro.schedule.ir.Schedule` through the live machinery.

This is the only way a tree collective runs: ``MpiRank.reduce``, ``bcast``
and ``allreduce`` pick a lowering (:func:`reduce_route` makes the build's
ab-vs-nab decision), fetch the memoized schedule
(:func:`repro.schedule.lower.lower_cached`) and call
:func:`execute_schedule`, as do the schedule benchmarks with schedules of
their own (rewritten by passes, PAP-ordered).

``execute_schedule`` is a rank program fragment (a generator, like every
collective): it walks this rank's step list and drives the NIC / fabric /
ledger paths, charging MPICH's costs in MPICH's order.
``tests/integration/test_schedule_interpreter.py`` pins every lowering's
output, sim counters included, to a recorded fixture.

How each lowering executes:

``reduce.nab`` / ``bcast.tree`` / ``allreduce.reduce_bcast``
    Literal step walkers (whole-message and seg-major segmented).
``reduce.ab`` / ``allreduce.ab``
    Non-root ranks derive a :class:`~repro.core.plan.CollectivePlan` from
    the schedule and delegate to :meth:`AbEngine.reduce` — descriptors,
    signals and the exit-delay window all run unchanged, just with
    schedule-resolved neighbors.  The root (which can never bypass) is
    walked by the interpreter itself.
``allreduce.pipelined``
    Checked against the config-derived lowering (the AB broadcast
    extension routes by the configured tree, so a reshaped schedule cannot
    execute); the root folds and re-broadcasts segment by segment, the
    other ranks run the pipelined AB reduce, then receive each segment.

Guards: a schedule whose segmentation disagrees with the config's plan, an
AB schedule on a non-AB build, or a rendezvous-sized payload on an AB
schedule raise :class:`ScheduleExecutionError` before touching the
simulator.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..errors import MpiError, ReproError
from ..mpich.communicator import Communicator
from ..mpich.datatypes import DOUBLE, Datatype, from_array
from ..mpich.message import TAG_BCAST, TAG_REDUCE
from ..mpich.operations import SUM, Op
from ..schedule.ir import (BcastStep, FoldStep, RecvStep, Schedule, SendStep,
                           reduce_neighbors)
from ..sim.cpu import Ledger
from ..sim.process import Busy
from .plan import CollectivePlan


class ScheduleExecutionError(ReproError):
    """A schedule cannot execute under this rank's build/config."""


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def execute_schedule(rank, schedule: Schedule, sendbuf,
                     op: Op = SUM, comm: Optional[Communicator] = None,
                     recvbuf: Optional[np.ndarray] = None, *,
                     count: Optional[int] = None,
                     dtype: Optional[Datatype] = None) -> Generator:
    """Run ``schedule`` on this rank; a generator like every collective.

    ``sendbuf`` is the contribution for reduce/allreduce, or the broadcast
    payload (root) / optional receive buffer (non-root, else pass ``count``
    and ``dtype``) for bcast schedules.
    """
    if comm is None:
        comm = rank.comm_world
    if schedule.nranks != comm.size:
        raise ScheduleExecutionError(
            "schedule is for %d ranks but the communicator has %d"
            % (schedule.nranks, comm.size))
    steps = schedule.steps[comm.rank_of_world(rank.rank)]
    if schedule.collective == "reduce":
        buf = np.asarray(sendbuf)
        if schedule.lowering == "reduce.ab":
            result = yield from _execute_reduce_ab(rank, schedule, steps, buf,
                                                   op, comm, recvbuf)
        else:
            result = yield from _execute_nab_reduce(rank, schedule, steps,
                                                    buf, op, comm, recvbuf)
        return result
    if schedule.collective == "bcast":
        result = yield from _execute_bcast(rank, schedule, steps, sendbuf,
                                           comm, count=count, dtype=dtype)
        return result
    if schedule.collective == "allreduce":
        buf = np.asarray(sendbuf)
        if schedule.lowering == "allreduce.pipelined":
            result = yield from _execute_allreduce_pipelined(
                rank, schedule, steps, buf, op, comm)
        else:
            result = yield from _execute_allreduce_sequential(
                rank, schedule, steps, buf, op, comm)
        return result
    raise ScheduleExecutionError(
        "no interpreter for collective %r" % (schedule.collective,))


# ---------------------------------------------------------------------------
# choosing a lowering (the MpiRank collectives)
# ---------------------------------------------------------------------------

def check_root(root: int, comm: Communicator) -> None:
    """Reject a root outside ``comm`` before any simulator effect."""
    if not (0 <= root < comm.size):
        raise ValueError(
            f"root {root} outside communicator of size {comm.size}")


def nab_segments(rank, buf: np.ndarray):
    """The config's segment plan for ``buf`` on the host path, or None."""
    from ..pipeline.segmenter import plan_segments
    return plan_segments(rank.node.pipeline_params_for(buf.nbytes), buf)


def ab_segments(engine, sendbuf: np.ndarray, size: int):
    """The AB-eligibility decision for one reduce: ``(eligible, segments)``.

    The pipeline's plan is checked first, because segmentation is what
    opens the large-message AB path (each segment travels eager-sized);
    ``segments`` is None for a whole-message reduce.  A whole payload beyond
    the eager limit is not eligible: the whole tree falls back to the nab
    reduce.  Every rank sees the same config and size, so the decision is
    globally consistent without negotiation.
    """
    if engine.pipeline is not None and size > 1:
        segments = engine.pipeline.plan_for(sendbuf)
        if segments is not None:
            return True, segments
    limit = min(engine.costs.ab_eager_limit_bytes,
                engine.costs.eager_limit_bytes)
    return sendbuf.nbytes <= limit, None


def reduce_route(rank, sendbuf: np.ndarray, size: int) -> Generator:
    """Pick this rank's reduce path; returns ``(ab, nseg)``.

    ``ab`` selects the application-bypass lowerings and ``nseg`` is the
    segment count to lower with.  On the AB build a rendezvous-sized
    payload falls back to the nab reduce after paying the AB build's call
    and decision charges (``AbStats.fallback_size``); the fallback consumes
    no instance number.
    """
    engine = rank.ab
    if engine is not None:
        eligible, segments = ab_segments(engine, sendbuf, size)
        if eligible:
            return True, len(segments) if segments else 0
        engine.stats.fallback_size += 1
        ledger = Ledger()
        ledger.charge(engine.costs.call_overhead_us, "mpi")
        ledger.charge(engine.costs.ab_decision_us, "ab")
        yield Busy.from_ledger(ledger)
    segments = nab_segments(rank, sendbuf)
    return False, len(segments) if segments else 0


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _segments_for(rank, schedule: Schedule, buf: np.ndarray):
    """Config-planned segments, checked against the schedule's ``nseg``."""
    segments = nab_segments(rank, buf)
    planned = 0 if segments is None else len(segments)
    if planned != schedule.nseg:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the config plans %d segment(s) for "
            "%d bytes — align PipelineParams with the schedule"
            % (schedule.nseg, planned, buf.nbytes))
    return segments


def _plan_from_schedule(schedule: Schedule, comm: Communicator,
                        me: int) -> CollectivePlan:
    parent, children = reduce_neighbors(schedule, me)
    if parent is None:
        raise ScheduleExecutionError(
            "rank %d has no parent in the schedule (root cannot bypass)"
            % me)
    return CollectivePlan(
        parent_world=comm.world_rank(parent),
        children_world=tuple(comm.world_rank(c) for c in children))


def _finish_root(acc: np.ndarray, recvbuf: Optional[np.ndarray]) -> np.ndarray:
    if recvbuf is not None:
        recvbuf[...] = acc.reshape(recvbuf.shape)
        return recvbuf
    return np.array(acc, copy=True)


# ---------------------------------------------------------------------------
# nab reduce (whole + segmented): MPICH's blocking tree reduce
# ---------------------------------------------------------------------------

def _execute_nab_reduce(rank, schedule: Schedule, steps, sendbuf: np.ndarray,
                        op: Op, comm: Communicator, recvbuf,
                        tag: int = TAG_REDUCE) -> Generator:
    """Internal nodes receive from each child in combine order, folding as
    results arrive, then send the accumulated partial result up.  Time
    spent waiting for a late child spins the progress engine — CPU time
    the application cannot use (paper Fig. 2a)."""
    costs = rank.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")

    if comm.size == 1:
        result = _finish_root(sendbuf, recvbuf)
        yield Busy.from_ledger(ledger)
        return result

    ledger.charge(costs.tree_setup_us, "mpi")
    segments = _segments_for(rank, schedule, sendbuf)
    if segments is not None:
        result = yield from _walk_reduce_segmented(
            rank, steps, sendbuf, op, comm, recvbuf, tag, segments, ledger)
        return result

    if not any(isinstance(s, FoldStep) for s in steps):
        # Leaf: send the application buffer directly.
        yield Busy.from_ledger(ledger)
        for step in steps:
            if not isinstance(step, SendStep):
                raise ScheduleExecutionError(
                    "unexpected %r on a leaf of a nab reduce" % (step,))
            yield from rank.send(np.asarray(sendbuf), step.peer, tag, comm,
                                 _context=comm.coll_context)
        return None

    # Accumulate into a private buffer (MPICH copies the send buffer so the
    # combine can run in place).
    acc = np.array(sendbuf, copy=True)
    ledger.charge(costs.copy_us(acc.nbytes), "copy")
    yield Busy.from_ledger(ledger)
    tmp = np.empty_like(acc)
    for step in steps:
        if isinstance(step, RecvStep):
            yield from rank.recv(tmp, step.peer, tag, comm,
                                 _context=comm.coll_context)
        elif isinstance(step, FoldStep):
            op_ledger = Ledger()
            op_ledger.charge(costs.op_us(acc.size), "op")
            op.apply(acc, tmp)
            yield Busy.from_ledger(op_ledger)
        elif isinstance(step, SendStep):
            yield from rank.send(acc, step.peer, tag, comm,
                                 _context=comm.coll_context)
            return None
        else:
            raise ScheduleExecutionError(
                "unexpected %r in a nab reduce" % (step,))
    return _finish_root(acc, recvbuf)


def _walk_reduce_segmented(rank, steps, sendbuf: np.ndarray, op: Op,
                           comm: Communicator, recvbuf, tag, segments,
                           ledger: Ledger) -> Generator:
    """Store-and-forward by segment: an internal node receives, folds and
    forwards segment *k* before touching *k+1*, so the message streams
    through the tree instead of being staged whole at every level.  Per
    element the fold order matches the whole-message walk."""
    costs = rank.costs
    if not any(isinstance(s, FoldStep) for s in steps):
        # Leaf: stream segments straight from the (flattened) app buffer.
        yield Busy.from_ledger(ledger)
        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        for step in steps:
            if not isinstance(step, SendStep):
                raise ScheduleExecutionError(
                    "unexpected %r on a leaf of a segmented nab reduce"
                    % (step,))
            s = segments[step.seg]
            yield from rank.send(flat[s.offset:s.offset + s.count],
                                 step.peer, tag, comm,
                                 _context=comm.coll_context)
        return None

    acc = np.ascontiguousarray(sendbuf).reshape(-1).copy()
    ledger.charge(costs.copy_us(acc.nbytes), "copy")
    yield Busy.from_ledger(ledger)
    tmp = np.empty(max(s.count for s in segments), dtype=acc.dtype)
    sent_up = False
    for step in steps:
        s = segments[step.seg]
        chunk = acc[s.offset:s.offset + s.count]
        if isinstance(step, RecvStep):
            yield from rank.recv(tmp[:s.count], step.peer, tag, comm,
                                 _context=comm.coll_context)
        elif isinstance(step, FoldStep):
            op_ledger = Ledger()
            op_ledger.charge(costs.op_us(s.count), "op")
            op.apply(chunk, tmp[:s.count])
            yield Busy.from_ledger(op_ledger)
        elif isinstance(step, SendStep):
            yield from rank.send(chunk, step.peer, tag, comm,
                                 _context=comm.coll_context)
            sent_up = True
        else:
            raise ScheduleExecutionError(
                "unexpected %r in a segmented nab reduce" % (step,))
    if sent_up:
        return None
    return _finish_root(acc.reshape(np.asarray(sendbuf).shape), recvbuf)


# ---------------------------------------------------------------------------
# tree bcast (whole + segmented)
# ---------------------------------------------------------------------------

def _execute_bcast(rank, schedule: Schedule, steps, data,
                   comm: Communicator, *, count: Optional[int] = None,
                   dtype: Optional[Datatype] = None,
                   tag: int = TAG_BCAST) -> Generator:
    """Receive from the parent, then forward to the children in the
    schedule's order (reversed combine order: deepest subtree first).
    Segmented, a node's children receive segment *k* while the node still
    waits for *k+1*; a non-contiguous user buffer is staged through a
    contiguous copy."""
    me = comm.rank_of_world(rank.rank)
    costs = rank.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")
    ledger.charge(costs.tree_setup_us, "mpi")

    if me == schedule.root:
        if data is None:
            raise MpiError("bcast root must supply data")
        buf = np.array(data, copy=True)
    else:
        if data is not None:
            buf = np.asarray(data)
        elif count is not None:
            buf = (dtype or DOUBLE).buffer(count)
        else:
            raise MpiError("non-root bcast needs a buffer or a count")
    yield Busy.from_ledger(ledger)

    segments = _segments_for(rank, schedule, buf)
    if segments is not None:
        contiguous = buf.flags.c_contiguous
        flat = (buf if contiguous else np.ascontiguousarray(buf)).reshape(-1)
        for step in steps:
            if not isinstance(step, BcastStep):
                raise ScheduleExecutionError(
                    "unexpected %r in a bcast schedule" % (step,))
            s = segments[step.seg]
            chunk = flat[s.offset:s.offset + s.count]
            if step.direction == "recv":
                yield from rank.recv(chunk, step.peer, tag, comm,
                                     _context=comm.coll_context)
            else:
                yield from rank.send(chunk, step.peer, tag, comm,
                                     _context=comm.coll_context)
        if not contiguous:
            buf[...] = flat.reshape(buf.shape)
        return buf

    for step in steps:
        if not isinstance(step, BcastStep):
            raise ScheduleExecutionError(
                "unexpected %r in a bcast schedule" % (step,))
        if step.direction == "recv":
            yield from rank.recv(buf, step.peer, tag, comm,
                                 _context=comm.coll_context)
        else:
            yield from rank.send(buf, step.peer, tag, comm,
                                 _context=comm.coll_context)
    return buf


# ---------------------------------------------------------------------------
# AB reduce: plan injection (non-root) + interpreter-walked root
# ---------------------------------------------------------------------------

def _execute_reduce_ab(rank, schedule: Schedule, steps, sendbuf: np.ndarray,
                       op: Op, comm: Communicator, recvbuf) -> Generator:
    engine = rank.ab
    if engine is None:
        raise ScheduleExecutionError(
            "a reduce.ab schedule needs an AB-build rank")
    eligible, segments = ab_segments(engine, sendbuf, comm.size)
    planned = 0 if segments is None else len(segments)
    if planned != schedule.nseg:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the AB pipeline plans %d segment(s) "
            "for %d bytes" % (schedule.nseg, planned, sendbuf.nbytes))
    if not eligible:
        raise ScheduleExecutionError(
            "rendezvous-sized payload (%d bytes) cannot run an AB "
            "schedule; lower with reduce.nab instead" % sendbuf.nbytes)

    me = comm.rank_of_world(rank.rank)
    if me != schedule.root:
        plan = _plan_from_schedule(schedule, comm, me)
        yield from engine.reduce(sendbuf, op, schedule.root, comm,
                                 plan=plan, segments=segments)
        return None
    if segments is not None:
        acc = yield from _ab_root_segmented(engine, steps, sendbuf, op, comm,
                                            segments)
        return _finish_root(acc.reshape(sendbuf.shape), recvbuf)
    result = yield from _execute_ab_root_whole(
        rank, engine, schedule, steps, sendbuf, op, comm, recvbuf)
    return result


def _execute_ab_root_whole(rank, engine, schedule: Schedule, steps,
                           sendbuf: np.ndarray, op: Op, comm: Communicator,
                           recvbuf) -> Generator:
    """The AB root cannot bypass (``MPI_Reduce`` must return the full
    result, paper Sec. II): AB framing charges, then a nab fold.  The hook
    routes the children's AB packets to the default matching path."""
    costs = engine.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")
    ledger.charge(costs.ab_decision_us, "ab")
    if comm.size == 1:
        yield Busy.from_ledger(ledger)
        if recvbuf is not None:
            recvbuf[...] = np.asarray(sendbuf).reshape(recvbuf.shape)
            return recvbuf
        return np.array(sendbuf, copy=True)
    engine._next_instance(comm)
    ledger.charge(costs.tree_setup_us, "mpi")
    engine.stats.root_reduces += 1
    yield Busy.from_ledger(ledger)
    result = yield from _execute_nab_reduce(rank, schedule, steps, sendbuf,
                                            op, comm, recvbuf)
    return result


def _ab_root_segmented(engine, steps, sendbuf: np.ndarray, op: Op,
                       comm: Communicator, segments,
                       bcaster=None) -> Generator:
    """Root of a segmented AB reduce; returns the flat accumulator.

    A blocking seg-major fold in schedule order: the root folds segment k
    while its children are combining k+1, instead of waiting for whole
    messages to be staged at every level below.  Per-child segment streams
    arrive in ascending segment order, so the plain FIFO receive match
    picks up exactly the step's segment.  With ``bcaster`` (pipelined
    allreduce) each segment is broadcast at its first :class:`BcastStep`,
    right after its last fold, so the reduce of later segments overlaps the
    broadcast of earlier ones.
    """
    pipeline = engine.pipeline
    costs = engine.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")
    ledger.charge(costs.ab_decision_us, "ab")
    instance = engine._next_instance(comm)
    ledger.charge(costs.tree_setup_us, "mpi")
    pipeline.stats.pipelined_reduces += 1
    engine.stats.root_reduces += 1
    acc = np.ascontiguousarray(sendbuf).reshape(-1).copy()
    ledger.charge(costs.copy_us(acc.nbytes), "copy")
    yield Busy.from_ledger(ledger)
    me = comm.rank_of_world(engine.rank.rank)
    tmp = np.empty(max(s.count for s in segments), dtype=acc.dtype)
    broadcast = -1
    for step in steps:
        s = segments[step.seg]
        if isinstance(step, RecvStep):
            yield from engine.rank.recv(tmp[:s.count], step.peer, TAG_REDUCE,
                                        comm, _context=comm.coll_context)
        elif isinstance(step, FoldStep):
            op_ledger = Ledger()
            op_ledger.charge(costs.op_us(s.count), "op")
            op.apply(acc[s.offset:s.offset + s.count], tmp[:s.count])
            pipeline.stats.root_segment_folds += 1
            if engine.monitor is not None:
                engine.monitor.on_segment_fold(
                    engine.rank.rank, comm.world_rank(step.child),
                    comm.coll_context, instance, s.index, engine.sim.now)
            yield Busy.from_ledger(op_ledger)
        elif isinstance(step, BcastStep) and bcaster is not None:
            if step.seg != broadcast:
                broadcast = step.seg
                yield from bcaster.bcast(acc[s.offset:s.offset + s.count],
                                         me, comm)
        else:
            raise ScheduleExecutionError(
                "unexpected %r at the root of a segmented AB reduce"
                % (step,))
    return acc


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def _execute_allreduce_sequential(rank, schedule: Schedule, steps,
                                  sendbuf: np.ndarray, op: Op,
                                  comm: Communicator) -> Generator:
    """Reduce to the root, then broadcast (MPICH 1.2.x)."""
    engine = rank.ab
    if engine is not None and ab_segments(engine, sendbuf, comm.size)[1]:
        raise ScheduleExecutionError(
            "the config pipelines this allreduce; lower with "
            "allreduce.pipelined instead")
    red = tuple(s for s in steps if not isinstance(s, BcastStep))
    bc = tuple(s for s in steps if isinstance(s, BcastStep))
    if schedule.lowering == "allreduce.ab":
        result = yield from _execute_reduce_ab(rank, schedule, red, sendbuf,
                                               op, comm, None)
    else:
        result = yield from _execute_nab_reduce(rank, schedule, red, sendbuf,
                                                op, comm, None)
    if comm.rank_of_world(rank.rank) == schedule.root:
        out = yield from _execute_bcast(rank, schedule, bc, result, comm)
        return out
    out = yield from _execute_bcast(rank, schedule, bc, None, comm,
                                    count=sendbuf.size,
                                    dtype=from_array(sendbuf))
    return out.reshape(sendbuf.shape)


def _execute_allreduce_pipelined(rank, schedule: Schedule, steps,
                                 sendbuf: np.ndarray, op: Op,
                                 comm: Communicator) -> Generator:
    """Träff-style overlap: the pipelined AB reduce up, each segment
    broadcast down by the AB broadcast extension as soon as the root has
    folded it."""
    engine = rank.ab
    if engine is None or engine.pipeline is None:
        raise ScheduleExecutionError(
            "an allreduce.pipelined schedule needs an AB build with an "
            "armed pipeline")
    segments = ab_segments(engine, sendbuf, comm.size)[1]
    planned = 0 if segments is None else len(segments)
    if planned != schedule.nseg or segments is None:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the AB pipeline plans %d segment(s) "
            "for %d bytes" % (schedule.nseg, planned, sendbuf.nbytes))

    # The broadcast extension derives its forwarding tree from the config,
    # so the schedule must agree with the config-derived lowering; a
    # reshaped pipelined allreduce is not executable.
    from ..schedule.lower import lower_cached
    me = comm.rank_of_world(rank.rank)
    shape = rank.tree_shape_for(sendbuf.nbytes)
    if shape.name != rank.tree_shape.name:
        raise ScheduleExecutionError(
            "auto-resolved reduce tree %r differs from the broadcast tree "
            "%r; pipelined allreduce schedules need one tree"
            % (shape.name, rank.tree_shape.name))
    expected = lower_cached("allreduce.pipelined", shape, comm.size,
                            root=schedule.root, nseg=schedule.nseg)
    if expected is not schedule and expected.steps[me] != steps:
        raise ScheduleExecutionError(
            "allreduce.pipelined schedule disagrees with the configured "
            "%r tree on rank %d; the AB broadcast extension cannot follow "
            "a reshaped schedule" % (shape.name, me))

    # The broadcast extension must exist before any bcast packet can
    # arrive; every rank constructs it here, which precedes the root's
    # first segment broadcast (that needs every rank's contribution).
    bcaster = engine.pipeline._broadcaster(comm)
    engine.pipeline.stats.pipelined_allreduces += 1
    flat = np.ascontiguousarray(sendbuf).reshape(-1)

    if me == schedule.root:
        acc = yield from _ab_root_segmented(engine, steps, flat, op, comm,
                                            segments, bcaster=bcaster)
        return acc.reshape(sendbuf.shape)

    # Up phase: the pipelined reduce returns with segments still in flight,
    # which is exactly the overlap the down phase then rides.
    plan = _plan_from_schedule(schedule, comm, me)
    yield from engine.reduce(flat, op, schedule.root, comm, plan=plan,
                             segments=segments)
    out = np.empty_like(flat)
    for s in segments:
        yield from bcaster.bcast(out[s.offset:s.offset + s.count],
                                 schedule.root, comm)
    return out.reshape(sendbuf.shape)
