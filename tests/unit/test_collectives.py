"""Collective algorithms through the full stack (default build)."""

import numpy as np
import pytest

from repro import MpiBuild, quiet_cluster
from repro.mpich.communicator import Communicator, world_communicator
from repro.mpich.operations import MAX, MIN, PROD, SUM
from repro.runtime.context import MpiContext
from repro.runtime.program import build_cluster
from conftest import contribution, expected_sum, run_ranks


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 13, 16])
def test_reduce_sum_all_sizes(size):
    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        return None if result is None else result

    out = run_ranks(size, program)
    assert np.allclose(out.results[0], expected_sum(size, 4))
    assert all(r is None for r in out.results[1:])


@pytest.mark.parametrize("root", [0, 1, 3, 7])
def test_reduce_nonzero_root(root):
    size = 8

    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 2), op=SUM,
                                       root=root)
        return None if result is None else result

    out = run_ranks(size, program)
    assert np.allclose(out.results[root], expected_sum(size, 2))
    assert all(out.results[r] is None for r in range(size) if r != root)


@pytest.mark.parametrize("op,expected", [
    (SUM, 36.0), (PROD, 40320.0), (MIN, 1.0), (MAX, 8.0),
])
def test_reduce_ops(op, expected):
    def program(mpi):
        result = yield from mpi.reduce(np.array([float(mpi.rank + 1)]),
                                       op=op, root=0)
        return None if result is None else float(result[0])

    out = run_ranks(8, program)
    assert out.results[0] == expected


def test_reduce_into_recvbuf():
    def program(mpi):
        recvbuf = np.zeros(3) if mpi.rank == 0 else None
        result = yield from mpi.reduce(contribution(mpi.rank, 3), op=SUM,
                                       root=0, recvbuf=recvbuf)
        if mpi.rank == 0:
            assert result is recvbuf
            return recvbuf
        return None

    out = run_ranks(4, program)
    assert np.allclose(out.results[0], expected_sum(4, 3))


@pytest.mark.parametrize("size", [1, 2, 5, 8, 16])
def test_bcast(size):
    def program(mpi):
        if mpi.rank == 0:
            data = np.arange(6, dtype=np.float64)
            out = yield from mpi.bcast(data, root=0)
        else:
            out = yield from mpi.bcast(None, root=0, count=6)
        return out

    out = run_ranks(size, program)
    for r in range(size):
        assert np.allclose(out.results[r], np.arange(6.0))


def test_bcast_nonzero_root():
    def program(mpi):
        if mpi.rank == 2:
            out = yield from mpi.bcast(np.array([9.0]), root=2)
        else:
            out = yield from mpi.bcast(None, root=2, count=1)
        return float(out[0])

    out = run_ranks(5, program)
    assert out.results == [9.0] * 5


@pytest.mark.parametrize("size", [2, 3, 4, 8, 9])
def test_barrier_synchronizes(size):
    """No rank leaves the barrier before the last rank has entered it."""
    def program(mpi):
        enter_delay = float(mpi.rank) * 37.0
        yield from mpi.compute(enter_delay)
        entered = mpi.now
        yield from mpi.barrier()
        return entered, mpi.now

    out = run_ranks(size, program)
    last_entry = max(entered for entered, _ in out.results)
    for entered, left in out.results:
        assert left >= last_entry


def test_back_to_back_barriers():
    def program(mpi):
        for _ in range(5):
            yield from mpi.barrier()
        return mpi.now

    run_ranks(4, program)  # completes without deadlock


@pytest.mark.parametrize("size", [1, 2, 6, 8])
def test_allreduce(size):
    def program(mpi):
        result = yield from mpi.allreduce(contribution(mpi.rank, 4), op=SUM)
        return result

    out = run_ranks(size, program)
    for r in range(size):
        assert np.allclose(out.results[r], expected_sum(size, 4))


def test_gather():
    def program(mpi):
        result = yield from mpi.gather(np.array([float(mpi.rank) * 2]),
                                       root=1)
        return result

    out = run_ranks(4, program)
    gathered = out.results[1]
    assert [g[0] for g in gathered] == [0.0, 2.0, 4.0, 6.0]
    assert out.results[0] is None


def test_reduce_on_subcommunicator():
    def program(mpi):
        world = mpi.comm_world
        colors = {w: w % 2 for w in world.world_ranks}
        sub = world.split(colors)[mpi.rank % 2]
        result = yield from mpi.reduce(np.array([1.0]), op=SUM, root=0,
                                       comm=sub)
        return None if result is None else float(result[0])

    out = run_ranks(8, program)
    # roots of the two halves are world ranks 0 and 1; each half has 4 ranks
    assert out.results[0] == 4.0
    assert out.results[1] == 4.0
    assert all(out.results[r] is None for r in range(2, 8))


def test_concurrent_reduce_on_dup_comms():
    """Back-to-back reductions on duplicated communicators don't cross."""
    def program(mpi):
        dup = mpi.comm_world  # all ranks share the world comm object
        a = yield from mpi.reduce(np.array([1.0]), op=SUM, root=0)
        b = yield from mpi.reduce(np.array([10.0]), op=SUM, root=0)
        if mpi.rank == 0:
            return float(a[0]), float(b[0])
        return None

    out = run_ranks(4, program)
    assert out.results[0] == (4.0, 40.0)


def test_reduce_empty_message():
    def program(mpi):
        result = yield from mpi.reduce(np.zeros(0), op=SUM, root=0)
        return None if result is None else result.size

    out = run_ranks(4, program)
    assert out.results[0] == 0


@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB],
                         ids=["nab", "ab"])
@pytest.mark.parametrize("collective", ["reduce", "bcast"])
@pytest.mark.parametrize("root", [4, -1])
def test_out_of_range_root_rejected_before_any_sim_effect(root, collective,
                                                          build):
    """A bad root raises ``ValueError`` naming it on the first step of the
    call — before the AB fallback charge a rendezvous-sized payload would
    otherwise pay, and before anything reaches the simulator."""
    cluster = build_cluster(quiet_cluster(4))
    mpi = MpiContext(cluster.nodes[1], world_communicator(4), build,
                     cluster.config.ab).mpi
    payload = np.ones(4096)  # 32 KiB: past the AB eager limit
    call = (mpi.reduce(payload, SUM, root) if collective == "reduce"
            else mpi.bcast(payload, root))
    counters = cluster.sim.counters()
    cpu = cluster.nodes[1].cpu.usage_snapshot()
    with pytest.raises(ValueError,
                       match=rf"root {root} outside communicator of size 4"):
        next(call)
    assert cluster.sim.counters() == counters
    assert cluster.nodes[1].cpu.usage_snapshot() == cpu
    if mpi.ab is not None:
        assert mpi.ab.stats.fallback_size == 0
