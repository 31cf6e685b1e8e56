"""Bit-identity of the call-driven fabric engine and disk operations.

:mod:`tests.engine_oracle` keeps the process-driven engine and disk
operation as a replica.  Over random histories of transfers, capacity
changes and disk operations, the production classes must fire every
completion with exactly equal fields, in the same order, and end with
exactly equal byte and solve counters.  A second group pins what one
transfer and one disk operation cost the kernel.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races.detector import KernelHooks
from repro.disksim import DiskArray
from repro.netsim import Fabric
from repro.netsim.fabric import EPS_BYTES
from repro.sim import Environment
from repro.sim.kernel import NORMAL

from tests.engine_oracle import ProcessDiskArray, ProcessFabric

INF = float("inf")

#: duplex links (src, dst, capacity, latency); a->e never binds a flow
LINKS = [
    ("a", "b", 100.0, 0.0),
    ("b", "c", 40.0, 0.25),
    ("a", "d", 75.0, 0.1),
    ("d", "c", 60.0, 0.0),
    ("a", "e", INF, 0.0),
]
PAIRS = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("d", "c"),
         ("b", "c"), ("a", "e"), ("e", "c"), ("a", "a")]
FINITE_LINKS = ["a->b", "b->a", "b->c", "c->b", "a->d", "d->a", "d->c"]

#: gaps between issues: mostly same-instant bursts
_gap = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.5, 1.0, 2.75])
#: zero-byte, sub-EPS_BYTES, exact and arbitrary sizes
_nbytes = st.one_of(
    st.sampled_from([0.0, EPS_BYTES / 10, EPS_BYTES * 0.5, EPS_BYTES * 3, 1.0, 100.0]),
    st.floats(0.0, 2_000.0, allow_nan=False),
)
_transfer = st.tuples(
    st.just("xfer"),
    st.sampled_from(PAIRS),
    _nbytes,
    st.sampled_from([INF, INF, 50.0, 7.5]),  # rate cap
    st.sampled_from([1.0, 1.0, 2.0, 3.5]),  # weight
    st.booleans(),  # chain a follow-up transfer from the completion
)
_capacity = st.tuples(
    st.just("cap"),
    st.sampled_from(FINITE_LINKS),
    st.sampled_from([10.0, 60.0, 250.0]),
)
_disk = st.tuples(
    st.sampled_from(["read", "write"]),
    _nbytes,
    st.booleans(),  # chain a follow-up operation from the completion
)
_history = st.lists(
    st.tuples(_gap, st.one_of(_transfer, _transfer, _capacity, _disk, _disk)),
    min_size=1,
    max_size=25,
)


def _replay(history, fabric_cls, disk_cls, seek_time, queue_depth):
    env = Environment()
    fab = fabric_cls(env)
    for src, dst, cap, lat in LINKS:
        fab.add_link(src, dst, capacity=cap, latency=lat)
    disk = disk_cls(env, "arr", capacity_bytes=1e15, bandwidth=100.0,
                    seek_time=seek_time, queue_depth=queue_depth)
    fired = []

    def record(tag, ev):
        fired.append((tag, env.now, ev.value))

    def issue(tag, op):
        kind = op[0]
        if kind == "cap":
            fab.set_link_capacity(op[1], op[2])
            return
        if kind == "xfer":
            _, (src, dst), nbytes, cap, weight, chain = op
            ev = fab.transfer(src, dst, nbytes, rate_cap=cap, weight=weight, tag=tag)
        else:
            _, nbytes, chain = op
            ev = getattr(disk, kind)(nbytes, tag=tag)
        ev.callbacks.append(partial(record, tag))
        if chain:
            follow = op[:-1] + (False,)
            ev.callbacks.append(lambda _ev: issue(tag + ("then",), follow))

    t = 0.0
    for i, (gap, op) in enumerate(history):
        t += gap
        env.call_later(t, partial(issue, (i,), op), priority=NORMAL)
    env.run()
    return {
        "fired": fired,
        "now": env.now,
        "instants": env.instants,
        "fabric": (fab.bytes_delivered, fab.rate_recomputes),
        "disk": (disk._fab.bytes_delivered, disk._fab.rate_recomputes,
                 disk.reads, disk.writes, disk.bytes_read, disk.bytes_written),
    }


@given(
    history=_history,
    seek_time=st.sampled_from([0.0, 0.05]),
    queue_depth=st.sampled_from([1, 2, 64]),
)
@settings(max_examples=300, deadline=None)
def test_call_driven_engine_matches_process_replica(history, seek_time, queue_depth):
    got = _replay(history, Fabric, DiskArray, seek_time, queue_depth)
    want = _replay(history, ProcessFabric, ProcessDiskArray, seek_time, queue_depth)
    assert got == want


def test_replica_sees_saturated_queues_and_bursts():
    """A fixed history the property may not draw: ten same-instant disk
    operations on a two-deep queue, a capacity drop mid-flight and
    sub-EPS_BYTES transfers landing in one burst."""
    history = [(0.0, ("write", 300.0, True))] * 10 + [
        (0.0, ("xfer", ("a", "c"), 500.0, INF, 2.0, True)),
        (0.0, ("xfer", ("a", "c"), EPS_BYTES / 10, INF, 1.0, False)),
        (0.0, ("xfer", ("a", "e"), 40.0, INF, 1.0, True)),
        (0.5, ("cap", "b->c", 10.0)),
        (0.5, ("xfer", ("d", "c"), 250.0, 7.5, 1.0, False)),
    ]
    got = _replay(history, Fabric, DiskArray, 0.05, 2)
    want = _replay(history, ProcessFabric, ProcessDiskArray, 0.05, 2)
    assert got == want
    assert len(got["fired"]) == 10 + 10 + 3 + 2 + 1


# ---------------------------------------------------------------------------
# event budget
# ---------------------------------------------------------------------------

class _Budget(KernelHooks):
    def __init__(self):
        self.pops = 0
        self.processes = 0

    def on_pop(self, t, priority, event):
        self.pops += 1

    def on_process(self, proc):
        self.processes += 1


def _budgeted_env():
    env = Environment()
    budget = _Budget()
    budget.bind(env)
    env.hb = budget
    return env, budget


def test_one_transfer_on_an_idle_fabric_costs_five_events():
    # register, engine start, completion timer, resume, done
    env, budget = _budgeted_env()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0)
    res = env.run(fab.transfer("a", "b", 250.0))
    assert res.end == pytest.approx(2.5)
    assert (budget.pops, budget.processes) == (5, 0)
    assert env.events_processed == 5


@pytest.mark.parametrize(
    "seek_time, nbytes, events", [(0.008, 1e8, 9), (0.0, 1e8, 8), (0.0, 0, 3)]
)
def test_one_op_on_an_idle_disk_array_has_a_pinned_cost(seek_time, nbytes, events):
    # start, slot grant, [seek timer,] [the five-event transfer,] done
    env, budget = _budgeted_env()
    disk = DiskArray(env, "arr", capacity_bytes=1e12, bandwidth=1e8,
                     seek_time=seek_time)
    res = env.run(disk.write(nbytes))
    assert res.end == pytest.approx(nbytes / 1e8 + seek_time)
    assert (budget.pops, budget.processes) == (events, 0)
