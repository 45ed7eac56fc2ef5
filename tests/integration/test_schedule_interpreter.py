"""The schedule interpreter against recorded legacy output, plus an
exactly-once oracle.

``MpiRank.reduce/bcast/allreduce`` lower to a
:class:`~repro.schedule.ir.Schedule` and run it through
:func:`repro.core.interpreter.execute_schedule`; there is no second
implementation left to compare against.  What pins the single path instead
is a committed fixture (``data/schedule_legacy_fixture.json``) recorded from
the hand-written tree walkers before they were deleted: for every lowering
the public API and a directly executed schedule must reproduce the same
finish instant, the same full ``Simulator.counters()`` snapshot and the same
per-rank payload digests, bit for bit.

Re-record (only after a deliberate cost-model change) by running this file
as a script against the tree whose output should become the reference::

    PYTHONPATH=src python tests/integration/test_schedule_interpreter.py \\
        > tests/integration/data/schedule_legacy_fixture.json

The oracle half folds int64 one-hot contributions (``1 << rank``), so a
contribution folded twice or not at all can never cancel out the way it can
with ``rank + 1`` sums.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.scheduled import build_schedule
from repro.config import PipelineParams, quiet_cluster
from repro.core.interpreter import execute_schedule
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from repro.runtime.program import run_program
from repro.schedule.lower import LOWERINGS, lower
from repro.topo.trees import make_tree_shape

FIXTURE = Path(__file__).parent / "data" / "schedule_legacy_fixture.json"

SIZE = 8
ELEMENTS = 1024  # 8 KiB payload -> 4 segments at 2048 B
SHAPES = ("binomial", "chain", "bine")

#: (lowering for whole, lowering for segmented, build)
COMBOS = [
    ("reduce.nab", "reduce.nab", MpiBuild.DEFAULT),
    ("reduce.ab", "reduce.ab", MpiBuild.AB),
    ("bcast.tree", "bcast.tree", MpiBuild.DEFAULT),
    ("allreduce.reduce_bcast", "allreduce.reduce_bcast", MpiBuild.DEFAULT),
    ("allreduce.ab", "allreduce.pipelined", MpiBuild.AB),
]


def make_config(shape: str, segmented: bool, size: int = SIZE):
    config = quiet_cluster(size, seed=7)
    config = config.with_mpi(dataclasses.replace(config.mpi,
                                                 tree_shape=shape))
    if segmented:
        config = config.with_pipeline(PipelineParams(
            segment_size_bytes=2048, max_inflight_segments=3))
    return config


def public_program(collective: str):
    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        if collective == "reduce":
            result = yield from mpi.reduce(data, op=SUM, root=0)
        elif collective == "bcast":
            if mpi.rank == 0:
                result = yield from mpi.bcast(data, root=0)
            else:
                result = yield from mpi.bcast(None, root=0, count=ELEMENTS)
        else:
            result = yield from mpi.allreduce(data, op=SUM)
        return None if result is None else result.copy()
    return program


def scheduled_program(schedule):
    collective = schedule.collective

    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        if collective == "bcast" and mpi.rank != 0:
            result = yield from execute_schedule(
                mpi.mpi, schedule, None, SUM, comm=mpi.mpi.comm_world,
                count=ELEMENTS)
        else:
            result = yield from execute_schedule(
                mpi.mpi, schedule, data, SUM, comm=mpi.mpi.comm_world)
        return None if result is None else result.copy()
    return program


def case_id(whole_name: str, segmented: bool, shape: str) -> str:
    return "%s-%s-%s" % (whole_name, "segmented" if segmented else "whole",
                         shape)


def digest(payload) -> "str | None":
    if payload is None:
        return None
    arr = np.ascontiguousarray(payload)
    h = hashlib.sha256()
    h.update(("%s%r" % (arr.dtype.str, arr.shape)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def snapshot(run) -> dict:
    """What the fixture pins for one run."""
    return {"finished_at": run.finished_at,
            "counters": dict(run.sim_counters()),
            "payloads": [digest(r) for r in run.results]}


def schedule_for(shape: str, segmented: bool, lowering: str):
    config = make_config(shape, segmented)
    schedule = build_schedule(config, lowering=lowering, elements=ELEMENTS)
    assert schedule.nseg == (4 if segmented else 0)
    return config, schedule


@pytest.fixture(scope="module")
def legacy_fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("segmented", [False, True],
                         ids=["whole", "segmented"])
@pytest.mark.parametrize("whole_name,seg_name,build",
                         COMBOS, ids=[c[0] for c in COMBOS])
def test_interpreter_bit_identical_to_legacy(legacy_fixture, shape,
                                             segmented, whole_name, seg_name,
                                             build):
    expected = legacy_fixture[case_id(whole_name, segmented, shape)]
    config, schedule = schedule_for(
        shape, segmented, seg_name if segmented else whole_name)
    runs = {
        "public API": run_program(
            config, public_program(schedule.collective), build=build),
        "execute_schedule": run_program(
            config, scheduled_program(schedule), build=build),
    }
    # Same simulated universe as the recorded legacy engines: every event
    # popped, every driver op, every per-hop network counter, the same
    # finish instant and the same per-rank payloads, bit for bit.
    for label, run in runs.items():
        got = snapshot(run)
        assert got["finished_at"] == expected["finished_at"], label
        assert got["counters"] == expected["counters"], label
        assert got["payloads"] == expected["payloads"], label


def test_interpreter_rejects_mismatched_segmentation():
    """A schedule lowered for a different segment plan than the config
    would execute must be refused, not silently diverge."""
    from repro.errors import ProcessFailed
    config = make_config("binomial", True)   # plans 4 segments
    whole = build_schedule(make_config("binomial", False),
                           lowering="reduce.ab", elements=ELEMENTS)

    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        result = yield from execute_schedule(
            mpi.mpi, whole, data, SUM, comm=mpi.mpi.comm_world)
        return result

    with pytest.raises(ProcessFailed, match="nseg"):
        run_program(config, program, build=MpiBuild.AB)


# ---------------------------------------------------------------------------
# exactly-once oracle
# ---------------------------------------------------------------------------

#: Element count per mode: "rendezvous" is past the 16 KiB eager limit, so
#: the AB build falls back to the nab reduce there.
MODE_ELEMENTS = {"whole": 1024, "segmented": 1024, "rendezvous": 4096}
#: Low bits hold the one-hot rank mask; the element index rides above them
#: so a segment folded into the wrong slice shows too.
INDEX_SHIFT = 16


def onehot(comm_rank: int, elements: int) -> np.ndarray:
    index = np.arange(elements, dtype=np.int64) << INDEX_SHIFT
    return index + (np.int64(1) << comm_rank)


def onehot_total(n: int, elements: int) -> np.ndarray:
    index = np.arange(elements, dtype=np.int64) << INDEX_SHIFT
    return index * n + ((1 << n) - 1)


def bcast_payload(elements: int) -> np.ndarray:
    return np.arange(elements, dtype=np.int64) * 3 + 1


def check_exactly_once(result, expected, where: str) -> None:
    assert result is not None, f"{where}: no result"
    got, want = result.reshape(-1), expected.reshape(-1)
    low = (1 << INDEX_SHIFT) - 1
    bad = np.flatnonzero((got & low) != (want & low))
    assert bad.size == 0, (
        f"{where}: element {bad[0]} has rank mask {int(got[bad[0]] & low):#x}"
        f", want {int(want[bad[0]] & low):#x} (a contribution was folded "
        f"twice or never)")
    assert np.array_equal(got, want), f"{where}: payload differs"


def comm_for(mpi, placement: str):
    world = mpi.comm_world
    if placement == "world":
        return world
    colors = {w: w % 2 for w in world.world_ranks}
    return world.split(colors)[mpi.rank % 2]


def run_oracle(config, build, placement, body):
    """Run ``body(mpi, comm, root)`` on every rank; returns per-rank
    ``(comm, root, result)`` with root = the communicator's last rank."""
    def program(mpi):
        comm = comm_for(mpi, placement)
        root = comm.size - 1
        result = yield from body(mpi, comm, root)
        return comm, root, result
    return run_program(config, program, build=build).results


def verify_outcomes(collective: str, outcomes, elements: int,
                    label: str) -> None:
    for world_rank, (comm, root, result) in enumerate(outcomes):
        me = comm.rank_of_world(world_rank)
        where = f"{label} world rank {world_rank}"
        if collective == "bcast":
            assert np.array_equal(result, bcast_payload(elements)), where
        elif collective == "reduce" and me != root:
            assert result is None, where
        else:
            check_exactly_once(result, onehot_total(comm.size, elements),
                               where)


def oracle_config(shape: str, mode: str):
    return make_config(shape, mode == "segmented")


@pytest.mark.parametrize("placement", ["world", "subcomm"])
@pytest.mark.parametrize("mode", sorted(MODE_ELEMENTS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB],
                         ids=["nab", "ab"])
@pytest.mark.parametrize("collective", ["reduce", "bcast", "allreduce"])
def test_public_collectives_fold_every_rank_exactly_once(
        collective, build, shape, mode, placement):
    """``MpiRank`` collectives on every build, shape, segmentation and
    eager/rendezvous size, on a non-zero root and a sub-communicator."""
    elements = MODE_ELEMENTS[mode]

    def body(mpi, comm, root):
        me = comm.rank_of_world(mpi.rank)
        if collective == "reduce":
            out = yield from mpi.reduce(onehot(me, elements), op=SUM,
                                        root=root, comm=comm)
        elif collective == "allreduce":
            out = yield from mpi.allreduce(onehot(me, elements), op=SUM,
                                           comm=comm)
        elif me == root:
            out = yield from mpi.bcast(bcast_payload(elements), root=root,
                                       comm=comm)
        else:
            out = yield from mpi.bcast(np.zeros(elements, dtype=np.int64),
                                       root=root, comm=comm)
        return None if out is None else out.copy()

    outcomes = run_oracle(oracle_config(shape, mode), build, placement, body)
    verify_outcomes(collective, outcomes, elements,
                    f"{collective}/{build.value}/{shape}/{mode}/{placement}")


#: Lowerings that need the AB engine (the rest run on either build).
AB_ONLY = ("reduce.ab", "allreduce.ab", "allreduce.pipelined")


@pytest.mark.parametrize("segmented", [False, True],
                         ids=["whole", "segmented"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_every_lowering_folds_every_rank_exactly_once(lowering, shape,
                                                      segmented):
    """Directly executed schedules of every registered lowering, rooted at
    the last rank, on both builds where the lowering allows it."""
    if lowering == "allreduce.pipelined" and not segmented:
        pytest.skip("allreduce.pipelined is segmented by construction")
    elements = ELEMENTS
    nseg = 4 if segmented else 0
    config = make_config(shape, segmented)
    tree = make_tree_shape(shape)
    collective = lowering.split(".")[0]
    builds = ((MpiBuild.AB,) if lowering in AB_ONLY
              else (MpiBuild.DEFAULT, MpiBuild.AB))
    kwargs = {}
    if lowering.startswith("allreduce.pap_"):
        kwargs["order"] = tuple(reversed(range(SIZE)))
    schedule = lower(lowering, tree, SIZE, root=SIZE - 1, nseg=nseg,
                     **kwargs)
    schedule.validate()

    def body(mpi, comm, root):
        me = comm.rank_of_world(mpi.rank)
        if collective == "bcast":
            data = (bcast_payload(elements) if me == schedule.root
                    else np.zeros(elements, dtype=np.int64))
        else:
            data = onehot(me, elements)
        out = yield from execute_schedule(mpi.mpi, schedule, data, SUM,
                                          comm=comm)
        return None if out is None else out.copy()

    if (collective == "allreduce" and lowering != "allreduce.pipelined"
            and segmented):
        # The AB build pipelines a segmented allreduce, so the interpreter
        # refuses a sequential allreduce schedule there.
        builds = tuple(b for b in builds if b is not MpiBuild.AB)
    if not builds:
        pytest.skip("the AB build only runs allreduce.pipelined segmented")
    for build in builds:
        outcomes = run_oracle(config, build, "world", body)
        outcomes = [(comm, schedule.root, result)
                    for comm, _, result in outcomes]
        verify_outcomes(collective, outcomes, elements,
                        f"{lowering}/{build.value}/{shape}/"
                        f"{'segmented' if segmented else 'whole'}")


def _record() -> dict:
    """Snapshot the public collectives for every fixture case."""
    from repro.analysis import (ASSERT, InvariantMonitor,
                                set_default_monitor_factory)
    # The suite runs under the armed invariant monitor (conftest); record
    # under the same conditions.
    set_default_monitor_factory(lambda: InvariantMonitor(mode=ASSERT))
    cases = {}
    for whole_name, seg_name, build in COMBOS:
        for segmented in (False, True):
            for shape in SHAPES:
                config, schedule = schedule_for(
                    shape, segmented, seg_name if segmented else whole_name)
                run = run_program(config,
                                  public_program(schedule.collective),
                                  build=build)
                cases[case_id(whole_name, segmented, shape)] = snapshot(run)
    return cases


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
