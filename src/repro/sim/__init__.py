"""Discrete-event simulation kernel.

A compact, deterministic, generator-based DES engine in the style of SimPy.
Every other substrate in :mod:`repro` (network fabric, disks, tape library,
file systems, the PFTool MPI ranks) is expressed as processes scheduled by
this kernel, which makes the whole archive system reproducible from a single
seed and independent of wall-clock time.

Public surface
--------------
:class:`Environment`
    The event loop: schedules events, advances simulated time.
:class:`Process`
    A running generator; yields events to wait on, supports interrupts.
:class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`
    Waitable primitives.
:class:`Interrupt`
    Exception thrown into a process by :meth:`Process.interrupt`.
:class:`Resource`, :class:`PriorityResource`
    Semaphore-style resources with FIFO / priority queues.
:class:`Container`
    Continuous quantity (bytes, slots) with put/get.
:class:`Store`, :class:`FilterStore`, :class:`PriorityStore`
    Object queues used for message passing.
:class:`StoreGet`
    Pending store retrieval; supports eager ``cancel()`` for receives
    that race a timer and lose.
:class:`MetricsRegistry`
    ``env.metrics``: named views over the counters components keep.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    RandomTiebreakPolicy,
    SchedulePolicy,
    SimulationError,
    Timeout,
    set_default_hb_recorder,
    set_default_schedule_policy,
)
from repro.sim.resources import (
    Container,
    FilterStore,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
    StoreGet,
)
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "MetricsRegistry",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "RandomTiebreakPolicy",
    "Resource",
    "SchedulePolicy",
    "SimulationError",
    "Store",
    "StoreGet",
    "Timeout",
    "set_default_hb_recorder",
    "set_default_schedule_policy",
]
