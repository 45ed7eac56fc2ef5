"""Per-rank MPI library instance.

:class:`MpiRank` is what "the MPICH library linked into the process on node
i" is in the real system: it owns the rank's progress engine and matching
state and exposes blocking/non-blocking point-to-point plus the collectives.
All communication methods are generator coroutines (drive them with
``yield from`` inside a simulated process).

Two *builds* exist, mirroring the paper's experimental setup:

* ``MpiBuild.DEFAULT`` — unmodified MPICH-over-GM semantics;
* ``MpiBuild.AB`` — the application-bypass build: an
  :class:`~repro.core.engine.AbEngine` installs itself as the progress
  engine's pre-processing hook and takes over eligible ``MPI_Reduce`` calls.
  The AB build pays the paper's infrastructure overheads (per-packet hook
  check, per-call decision logic) even when an operation falls back to the
  default path — which is exactly why the paper's Fig. 8(b) shows factors
  below 1.0 at small node counts.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

import numpy as np

from ..errors import MpiError
from ..sim.cpu import Ledger
from ..sim.process import Busy
from .communicator import Communicator
from .datatypes import DOUBLE
from .message import ANY_TAG, AbHeader
from .operations import SUM, Op
from .progress import ProgressEngine
from .requests import Request, Status


class MpiBuild(enum.Enum):
    DEFAULT = "default"
    AB = "ab"


class MpiRank:
    """One rank's MPI library state."""

    def __init__(self, node, comm_world: Communicator,
                 build: MpiBuild = MpiBuild.DEFAULT):
        self.node = node
        self.sim = node.sim
        self.costs = node.costs
        self.tree_shape = node.tree_shape
        self.rank = node.id
        self.comm_world = comm_world
        self.build = build
        self.progress = ProgressEngine(node)
        self.ab = None  # AbEngine, installed by install_ab()

    def tree_shape_for(self, nbytes: int):
        """Per-message tree shape ("auto" configs consult the tuning table)."""
        return self.node.tree_shape_for(nbytes)

    def install_ab(self, ab_engine) -> None:
        """Attach the application-bypass engine (AB build only)."""
        if self.build is not MpiBuild.AB:
            raise MpiError("install_ab on a DEFAULT build")
        self.ab = ab_engine
        self.progress.hook = ab_engine

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data: np.ndarray, dest: int, tag: int = 0,
              comm: Optional[Communicator] = None, *,
              _context: Optional[int] = None,
              _ab: Optional[AbHeader] = None) -> Generator:
        """Non-blocking send; returns the send :class:`Request`."""
        comm = comm or self.comm_world
        world_dest = comm.world_rank(dest)
        context = comm.pt2pt_context if _context is None else _context
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        request = self.progress.start_send(np.asarray(data), world_dest, tag,
                                           context, ledger, ab=_ab)
        yield Busy.from_ledger(ledger)
        return request

    def send(self, data: np.ndarray, dest: int, tag: int = 0,
             comm: Optional[Communicator] = None, *,
             _context: Optional[int] = None) -> Generator:
        """Blocking send (completes when the transfer is locally done)."""
        request = yield from self.isend(data, dest, tag, comm,
                                        _context=_context)
        status = yield from self.progress.wait(request)
        return status

    def irecv(self, buffer: Optional[np.ndarray], source: int,
              tag: int = ANY_TAG, comm: Optional[Communicator] = None, *,
              _context: Optional[int] = None) -> Generator:
        """Non-blocking receive into ``buffer``; returns the request."""
        comm = comm or self.comm_world
        world_source = comm.world_rank(source) if source >= 0 else source
        context = comm.pt2pt_context if _context is None else _context
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        request = self.progress.post_recv(buffer, world_source, tag, context,
                                          ledger)
        yield Busy.from_ledger(ledger)
        return request

    def recv(self, buffer: Optional[np.ndarray], source: int,
             tag: int = ANY_TAG, comm: Optional[Communicator] = None, *,
             _context: Optional[int] = None) -> Generator:
        """Blocking receive; returns the :class:`Status`."""
        request = yield from self.irecv(buffer, source, tag, comm,
                                        _context=_context)
        status = yield from self.progress.wait(request)
        return status

    def wait(self, request: Request) -> Generator:
        """Block until a previously returned request completes."""
        status = yield from self.progress.wait(request)
        return status

    def test(self, request: Request) -> Generator:
        """``MPI_Test``: one progress poll; returns the status if the
        request completed, else None (never blocks)."""
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        self.progress.active_depth += 1
        try:
            self.progress.drain(ledger)
        finally:
            self.progress.active_depth -= 1
        yield Busy.from_ledger(ledger)
        return request.status if request.done else None

    def iprobe(self, source: int, tag: int = ANY_TAG,
               comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Iprobe``: poll once; True if a matching message is queued
        (unexpected) or arrives during the poll."""
        comm = comm or self.comm_world
        world_source = comm.world_rank(source) if source >= 0 else source
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        self.progress.active_depth += 1
        try:
            self.progress.drain(ledger)
        finally:
            self.progress.active_depth -= 1
        yield Busy.from_ledger(ledger)
        for entry in self.progress.matching.unexpected:
            if entry.envelope.matches(world_source, tag, comm.pt2pt_context):
                return True
        return False

    def sendrecv(self, senddata: np.ndarray, dest: int,
                 recvbuf: Optional[np.ndarray], source: int,
                 tag: int = 0, comm: Optional[Communicator] = None) -> Generator:
        """Combined send+receive (deadlock-free: send first, then wait)."""
        recv_req = yield from self.irecv(recvbuf, source, tag, comm)
        send_req = yield from self.isend(senddata, dest, tag, comm)
        yield from self.progress.wait(send_req)
        status = yield from self.progress.wait(recv_req)
        return status

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def reduce(self, sendbuf: np.ndarray, op: Op = SUM, root: int = 0,
               comm: Optional[Communicator] = None,
               recvbuf: Optional[np.ndarray] = None) -> Generator:
        """``MPI_Reduce``.  Returns the result array at the root, else None.

        Runs the ``reduce.nab`` schedule (MPICH's tree reduce) or, on the AB
        build, ``reduce.ab``: the paper's application-bypass protocol, with
        the root folding on the host and messages beyond the eager limit
        falling back to ``reduce.nab`` (paper Sec. V-B).  Either may be
        segmented when the pipeline subsystem is armed.
        """
        from ..core.interpreter import (check_root, execute_schedule,
                                        reduce_route)
        comm = comm or self.comm_world
        sendbuf = np.asarray(sendbuf)
        check_root(root, comm)
        ab, nseg = yield from reduce_route(self, sendbuf, comm.size)
        schedule = self._schedule("reduce.ab" if ab else "reduce.nab",
                                  sendbuf.nbytes, comm, root, nseg)
        result = yield from execute_schedule(self, schedule, sendbuf, op, comm,
                                             recvbuf)
        return result

    def bcast(self, data: Optional[np.ndarray], root: int = 0,
              comm: Optional[Communicator] = None,
              count: Optional[int] = None,
              dtype=None) -> Generator:
        """``MPI_Bcast`` (the ``bcast.tree`` schedule); returns the broadcast
        array on every rank.

        Non-root ranks either pass a pre-sized ``data`` buffer or give
        ``count`` (and optionally ``dtype``, default double) for allocation.
        """
        from ..core.interpreter import (check_root, execute_schedule,
                                        nab_segments)
        comm = comm or self.comm_world
        check_root(root, comm)
        if (data is None and count is not None
                and comm.rank_of_world(self.rank) != root):
            data = (dtype or DOUBLE).buffer(count)
        nbytes, nseg = 0, 0
        if data is not None:
            buf = np.asarray(data)
            segments = nab_segments(self, buf)
            nbytes, nseg = buf.nbytes, len(segments) if segments else 0
        schedule = self._schedule("bcast.tree", nbytes, comm, root, nseg)
        result = yield from execute_schedule(self, schedule, data, comm=comm)
        return result

    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Barrier`` (dissemination algorithm)."""
        from .collectives.barrier import barrier_dissemination
        comm = comm or self.comm_world
        yield from barrier_dissemination(self, comm)

    def allreduce(self, sendbuf: np.ndarray, op: Op = SUM,
                  comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Allreduce``: reduce to comm rank 0, then broadcast (MPICH
        1.2.x) — ``allreduce.reduce_bcast``, or ``allreduce.ab`` on the AB
        build.  When the AB build pipelines the message it runs
        ``allreduce.pipelined`` instead: the root broadcasts each segment as
        soon as its fold completes, overlapping the reduce of later segments
        with the broadcast of earlier ones (Träff).
        """
        from ..core.interpreter import execute_schedule, reduce_route
        comm = comm or self.comm_world
        sendbuf = np.asarray(sendbuf)
        ab, nseg = yield from reduce_route(self, sendbuf, comm.size)
        if not ab:
            lowering = "allreduce.reduce_bcast"
        elif nseg:
            lowering = "allreduce.pipelined"
        else:
            lowering = "allreduce.ab"
        schedule = self._schedule(lowering, sendbuf.nbytes, comm, 0, nseg)
        result = yield from execute_schedule(self, schedule, sendbuf, op, comm)
        return result

    def _schedule(self, lowering: str, nbytes: int, comm: Communicator,
                  root: int, nseg: int):
        """The memoized schedule for this rank's tree and message size."""
        from ..schedule.lower import lower_cached
        return lower_cached(lowering, self.tree_shape_for(nbytes), comm.size,
                            root=root, nseg=nseg)

    def gather(self, senddata: np.ndarray, root: int = 0,
               comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Gather``; root returns a list indexed by comm rank."""
        from .collectives.gather import gather_linear
        comm = comm or self.comm_world
        result = yield from gather_linear(self, np.asarray(senddata), root,
                                          comm)
        return result

    def scatter(self, senddata: Optional[np.ndarray], recvbuf: np.ndarray,
                root: int = 0,
                comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Scatter`` with an explicit receive buffer."""
        from .collectives.scatter import scatter
        comm = comm or self.comm_world
        result = yield from scatter(self, senddata, recvbuf, root, comm)
        return result

    def allgather(self, senddata: np.ndarray,
                  comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Allgather`` (ring); returns an array indexed by rank."""
        from .collectives.scatter import allgather_ring
        comm = comm or self.comm_world
        result = yield from allgather_ring(self, np.asarray(senddata), comm)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiRank {self.rank} build={self.build.value}>"
