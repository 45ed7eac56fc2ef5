"""Collectives that are not tree schedules, plus the tree arithmetic.

Reduce, bcast and allreduce are schedules: ``MpiRank`` lowers them with
:mod:`repro.schedule.lower` and runs them through
:mod:`repro.core.interpreter`.  What stays here is the dissemination
barrier, the linear gather, scatter and the allgather ring, and
:mod:`.tree`, the relative/absolute rank arithmetic the lowerings and
``repro.topo`` share.
"""

from . import tree
from .barrier import barrier_dissemination
from .gather import gather_linear
from .scatter import allgather_ring, scatter

__all__ = [
    "tree",
    "barrier_dissemination",
    "gather_linear",
    "scatter",
    "allgather_ring",
]
