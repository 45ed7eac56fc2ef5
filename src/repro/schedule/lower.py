"""Lowerings: emit a :class:`~repro.schedule.ir.Schedule` from a tree shape.

Every lowering has the signature ``(shape, size, *, root=0, nseg=0)`` where
``shape`` is a :class:`repro.topo.trees.TreeShape`, ``size`` the communicator
size and ``nseg`` the number of pipeline segments (``0`` = whole message).
Child order follows ``shape.children`` for reduce phases and *reversed*
children for broadcast forwarding (deepest subtree first); segments are
walked seg-major.  :mod:`repro.core.interpreter` executes the result, and
``MpiRank.reduce``/``bcast``/``allreduce`` fetch theirs through
:func:`lower_cached`, so a run lowers each distinct schedule once.

Registered lowerings:

``reduce.nab``
    Host-level tree reduce (blocking recv+fold per child), whole or
    seg-major segmented — MPICH's default ``MPI_Reduce``.
``reduce.ab``
    Application-bypass reduce: internal ranks post one NIC descriptor
    (:class:`WaitStep`) per segment, leaves just send; the root folds on the
    host exactly like ``reduce.nab``.
``bcast.tree``
    Tree broadcast with reversed-child forwarding (both ``MPI_Bcast`` and
    the AB broadcaster use this order).
``allreduce.reduce_bcast``
    Sequential nab reduce-to-root followed by tree bcast.
``allreduce.ab``
    Sequential AB reduce followed by tree bcast.
``allreduce.pipelined``
    Träff-style overlap: the root interleaves per-segment fold and
    re-broadcast; other ranks run the segmented AB reduce then the segmented
    bcast.  Requires ``nseg >= 2``.
``allreduce.pap_sorted``
    Proficz's sorted-arrival (SRA) allreduce: the tree positions are
    assigned by arrival order — earliest arrivals sit deepest, the latest
    arrival becomes the root — so subtree reductions complete while the
    stragglers are still computing.  Takes ``order=`` (earliest rank
    first, from the workload layer's arrival oracle).
``allreduce.pap_prereduced``
    Proficz's pre-reduced (PRA) allreduce: a reduction *chain* in arrival
    order — each arriving rank eagerly folds the running partial sum and
    forwards it to the next arrival; the last arrival finishes the sum,
    becomes the root and tree-broadcasts the result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List

from ..mpich.collectives import tree
from ..topo.trees import TreeShape
from .ir import (BcastStep, FoldStep, RecvStep, Schedule, ScheduleError,
                 SendStep, WaitStep)

LOWERINGS: Dict[str, Callable[..., Schedule]] = {}

#: Most schedules :func:`lower_cached` keeps (least recently used go first).
MEMO_SIZE = 64
_memo: "OrderedDict[tuple, Schedule]" = OrderedDict()


def register_lowering(name: str):
    """Class/function decorator adding a lowering to :data:`LOWERINGS`."""

    def deco(fn):
        if name in LOWERINGS:
            raise ScheduleError("duplicate lowering %r" % (name,))
        LOWERINGS[name] = fn
        fn.lowering_name = name
        return fn

    return deco


def lower(name: str, shape: TreeShape, size: int, *, root: int = 0,
          nseg: int = 0, **kwargs) -> Schedule:
    """Emit a schedule with the named lowering.

    Extra keyword arguments are forwarded to the lowering (the PAP-aware
    lowerings take ``order=``, the arrival order from the workload layer).
    """
    try:
        fn = LOWERINGS[name]
    except KeyError:
        raise ScheduleError(
            "unknown lowering %r (have: %s)"
            % (name, ", ".join(sorted(LOWERINGS)))) from None
    return fn(shape, size, root=root, nseg=nseg, **kwargs)


def lower_cached(name: str, shape: TreeShape, size: int, *, root: int = 0,
                 nseg: int = 0) -> Schedule:
    """:func:`lower`, memoized on ``(name, shape.name, size, root, nseg)``.

    The key is by value because ``tree_shape="auto"`` resolves a fresh
    shape object per call; the shape's name (which carries a k-nomial's
    radix) determines its tree.  Schedules are frozen, so every rank of
    every cluster in the process can share one.
    """
    key = (name, shape.name, size, root, nseg)
    schedule = _memo.get(key)
    if schedule is None:
        schedule = lower(name, shape, size, root=root, nseg=nseg)
        _memo[key] = schedule
        if len(_memo) > MEMO_SIZE:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
    return schedule


def _check(shape: TreeShape, size: int, root: int, nseg: int) -> None:
    if size < 1:
        raise ScheduleError("size must be >= 1")
    if not (0 <= root < size):
        raise ScheduleError("root %d out of range for size %d" % (root, size))
    if nseg < 0 or nseg == 1:
        raise ScheduleError("nseg must be 0 (whole message) or >= 2")


def _segs(nseg: int):
    return range(nseg) if nseg else (-1,)


def _family(shape: TreeShape, size: int, root: int, me: int):
    """Absolute (parent, children) for communicator rank ``me``."""
    rel = tree.relative_rank(me, root, size)
    kids = [tree.absolute_rank(c, root, size)
            for c in shape.children(rel, size)]
    parent = (None if rel == 0
              else tree.absolute_rank(shape.parent(rel, size), root, size))
    return parent, kids


def _meta(shape: TreeShape) -> tuple:
    return (("shape", shape.name),)


def _reduce_rank_steps(parent, kids, nseg: int) -> List:
    steps: List = []
    for s in _segs(nseg):
        for c in kids:
            steps.append(RecvStep(c, seg=s))
            steps.append(FoldStep(c, seg=s))
        if parent is not None:
            steps.append(SendStep(parent, seg=s))
    return steps


@register_lowering("reduce.nab")
def lower_nab_reduce(shape: TreeShape, size: int, *, root: int = 0,
                     nseg: int = 0) -> Schedule:
    _check(shape, size, root, nseg)
    ranks = []
    for me in range(size):
        parent, kids = _family(shape, size, root, me)
        ranks.append(tuple(_reduce_rank_steps(parent, kids, nseg)))
    return Schedule("reduce", "reduce.nab", size, root, nseg,
                    meta=_meta(shape), steps=tuple(ranks))


@register_lowering("reduce.ab")
def lower_reduce_ab(shape: TreeShape, size: int, *, root: int = 0,
                    nseg: int = 0) -> Schedule:
    _check(shape, size, root, nseg)
    ranks = []
    for me in range(size):
        parent, kids = _family(shape, size, root, me)
        if parent is None:
            # The AB root folds on the host, exactly like reduce.nab.
            steps = _reduce_rank_steps(parent, kids, nseg)
        elif not kids:
            steps = [SendStep(parent, seg=s) for s in _segs(nseg)]
        else:
            steps = []
            for s in _segs(nseg):
                steps.append(WaitStep(tuple(kids), seg=s))
                steps.append(SendStep(parent, seg=s))
        ranks.append(tuple(steps))
    return Schedule("reduce", "reduce.ab", size, root, nseg,
                    meta=_meta(shape), steps=tuple(ranks))


def _bcast_rank_steps(parent, kids, nseg: int) -> List:
    rkids = list(reversed(kids))
    steps: List = []
    for s in _segs(nseg):
        if parent is not None:
            steps.append(BcastStep(parent, "recv", seg=s))
        for c in rkids:
            steps.append(BcastStep(c, "send", seg=s))
    return steps


@register_lowering("bcast.tree")
def lower_bcast_tree(shape: TreeShape, size: int, *, root: int = 0,
                     nseg: int = 0) -> Schedule:
    _check(shape, size, root, nseg)
    ranks = []
    for me in range(size):
        parent, kids = _family(shape, size, root, me)
        ranks.append(tuple(_bcast_rank_steps(parent, kids, nseg)))
    return Schedule("bcast", "bcast.tree", size, root, nseg,
                    meta=_meta(shape), steps=tuple(ranks))


@register_lowering("allreduce.reduce_bcast")
def lower_allreduce_sequential(shape: TreeShape, size: int, *, root: int = 0,
                                 nseg: int = 0) -> Schedule:
    red = lower_nab_reduce(shape, size, root=root, nseg=nseg)
    bc = lower_bcast_tree(shape, size, root=root, nseg=nseg)
    steps = tuple(r + b for r, b in zip(red.steps, bc.steps))
    return Schedule("allreduce", "allreduce.reduce_bcast", size, root, nseg,
                    meta=_meta(shape), steps=steps)


@register_lowering("allreduce.ab")
def lower_allreduce_ab(shape: TreeShape, size: int, *, root: int = 0,
                       nseg: int = 0) -> Schedule:
    red = lower_reduce_ab(shape, size, root=root, nseg=nseg)
    bc = lower_bcast_tree(shape, size, root=root, nseg=nseg)
    steps = tuple(r + b for r, b in zip(red.steps, bc.steps))
    return Schedule("allreduce", "allreduce.ab", size, root, nseg,
                    meta=_meta(shape), steps=steps)


@register_lowering("allreduce.pipelined")
def lower_allreduce_pipelined(shape: TreeShape, size: int, *, root: int = 0,
                              nseg: int = 0) -> Schedule:
    _check(shape, size, root, nseg)
    if nseg < 2:
        raise ScheduleError("allreduce.pipelined requires nseg >= 2")
    ranks = []
    for me in range(size):
        parent, kids = _family(shape, size, root, me)
        rkids = list(reversed(kids))
        steps: List = []
        if parent is None:
            # Root: fold segment k, immediately re-broadcast it — the overlap
            # that keeps both reduce and bcast links busy.
            for s in range(nseg):
                for c in kids:
                    steps.append(RecvStep(c, seg=s))
                    steps.append(FoldStep(c, seg=s))
                for c in rkids:
                    steps.append(BcastStep(c, "send", seg=s))
        else:
            if not kids:
                steps.extend(SendStep(parent, seg=s) for s in range(nseg))
            else:
                for s in range(nseg):
                    steps.append(WaitStep(tuple(kids), seg=s))
                    steps.append(SendStep(parent, seg=s))
            for s in range(nseg):
                steps.append(BcastStep(parent, "recv", seg=s))
                for c in rkids:
                    steps.append(BcastStep(c, "send", seg=s))
        ranks.append(tuple(steps))
    return Schedule("allreduce", "allreduce.pipelined", size, root, nseg,
                    meta=_meta(shape), steps=tuple(ranks))


# ---------------------------------------------------------------------------
# PAP-aware allreduce (Proficz, arXiv:1804.05349)
# ---------------------------------------------------------------------------


def _check_order(order, size: int) -> tuple:
    """Normalise an arrival order (earliest rank first) to a permutation."""
    if order is None:
        return tuple(range(size))
    order = tuple(int(r) for r in order)
    if sorted(order) != list(range(size)):
        raise ScheduleError(
            "order must be a permutation of 0..%d, got %r" % (size - 1, order))
    return order


def _pap_meta(shape: TreeShape, order: tuple) -> tuple:
    # The order rides in meta as a string so the schedule stays a flat,
    # JSON-stable value.
    return _meta(shape) + (("order", ",".join(str(r) for r in order)),)


@register_lowering("allreduce.pap_sorted")
def lower_allreduce_pap_sorted(shape: TreeShape, size: int, *, root: int = 0,
                               nseg: int = 0, order=None) -> Schedule:
    """Sorted-arrival (SRA) allreduce: late arrivals sit high in the tree.

    Tree positions are ranked by depth; the earliest-arriving rank takes
    the deepest position and the latest arrival takes position 0 (the
    root), so every subtree below a straggler is already reduced by the
    time it shows up.  ``root`` selects the shape's rotation only when no
    ``order`` is given (the legacy identity-order behaviour); with an
    order, placement *is* the mapping and the emitted root is the latest
    arrival.
    """
    _check(shape, size, root, nseg)
    order = _check_order(order, size)
    depth = []
    for pos in range(size):
        d, p = 0, pos
        while p != 0:
            p = shape.parent(p, size)
            d += 1
        depth.append(d)
    by_depth = sorted(range(size), key=lambda p: (-depth[p], p))
    rank_at_pos = [0] * size
    for arrival, pos in enumerate(by_depth):
        rank_at_pos[pos] = order[arrival]
    pos_of_rank = {r: p for p, r in enumerate(rank_at_pos)}
    ranks = []
    for me in range(size):
        pos = pos_of_rank[me]
        parent = (None if pos == 0
                  else rank_at_pos[shape.parent(pos, size)])
        kids = [rank_at_pos[c] for c in shape.children(pos, size)]
        steps = (_reduce_rank_steps(parent, kids, nseg)
                 + _bcast_rank_steps(parent, kids, nseg))
        ranks.append(tuple(steps))
    return Schedule("allreduce", "allreduce.pap_sorted", size,
                    rank_at_pos[0], nseg, meta=_pap_meta(shape, order),
                    steps=tuple(ranks))


@register_lowering("allreduce.pap_prereduced")
def lower_allreduce_pap_prereduced(shape: TreeShape, size: int, *,
                                   root: int = 0, nseg: int = 0,
                                   order=None) -> Schedule:
    """Pre-reduced (PRA) allreduce: eager chain in arrival order.

    Each rank folds the partial sum of everyone who arrived before it and
    forwards the result to the next arrival, so all reduction work except
    one fold is done before the last rank arrives.  The last arrival
    completes the sum, becomes the root and tree-broadcasts (``shape``
    only affects the broadcast tree).
    """
    _check(shape, size, root, nseg)
    order = _check_order(order, size)
    chain_root = order[-1]
    nxt = {order[i]: order[i + 1] for i in range(size - 1)}
    prev = {order[i]: order[i - 1] for i in range(1, size)}
    ranks = []
    for me in range(size):
        steps: List = []
        for s in _segs(nseg):
            if me in prev:
                steps.append(RecvStep(prev[me], seg=s))
                steps.append(FoldStep(prev[me], seg=s))
            if me in nxt:
                steps.append(SendStep(nxt[me], seg=s))
        bparent, bkids = _family(shape, size, chain_root, me)
        steps.extend(_bcast_rank_steps(bparent, bkids, nseg))
        ranks.append(tuple(steps))
    return Schedule("allreduce", "allreduce.pap_prereduced", size,
                    chain_root, nseg, meta=_pap_meta(shape, order),
                    steps=tuple(ranks))
