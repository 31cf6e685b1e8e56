"""Integration tests for the flow-based fabric simulation."""

import pytest

from repro.netsim import Fabric, build_archive_site
from repro.netsim.topology import MB, TEN_GIGE
from repro.sim import Environment


def _simple_fabric(env, cap=100.0):
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=cap)
    return fab


def test_single_transfer_duration():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    done = fab.transfer("a", "b", 1000.0)
    res = env.run(done)
    assert res.duration == pytest.approx(10.0)
    assert res.rate == pytest.approx(100.0)


def test_two_transfers_share_then_speed_up():
    """Second flow finishes after the first; first finishing frees capacity."""
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    r1 = {}
    r2 = {}

    def go():
        d1 = fab.transfer("a", "b", 1000.0)
        d2 = fab.transfer("a", "b", 2000.0)
        r1["res"] = yield d1
        r2["res"] = yield d2

    env.process(go())
    env.run()
    # both at 50 B/s until t=20 when flow1 (1000B) finishes;
    # flow2 then has 1000B left at 100 B/s -> finishes at t=30.
    assert r1["res"].end == pytest.approx(20.0)
    assert r2["res"].end == pytest.approx(30.0)


def test_staggered_arrival_slows_existing_flow():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    ends = {}

    def first():
        res = yield fab.transfer("a", "b", 1000.0)
        ends["first"] = res.end

    def second():
        yield env.timeout(5.0)
        res = yield fab.transfer("a", "b", 1000.0)
        ends["second"] = res.end

    env.process(first())
    env.process(second())
    env.run()
    # first: 500B alone by t=5, then shares 50/50: 500B at 50B/s -> t=15
    assert ends["first"] == pytest.approx(15.0)
    # second: 500B done at t=15, remaining 500B at 100 B/s -> t=20
    assert ends["second"] == pytest.approx(20.0)


def test_multihop_route_bottleneck():
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "m", capacity=100.0)
    fab.add_link("m", "b", capacity=10.0)
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.duration == pytest.approx(10.0)


def test_rate_cap_applies():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    res = env.run(fab.transfer("a", "b", 100.0, rate_cap=20.0))
    assert res.duration == pytest.approx(5.0)


def test_zero_byte_transfer_completes():
    env = Environment()
    fab = _simple_fabric(env)
    res = env.run(fab.transfer("a", "b", 0))
    assert res.nbytes == 0
    assert res.duration == pytest.approx(0.0)


def test_latency_added_once():
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0, latency=2.0)
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.end == pytest.approx(3.0)  # 2s latency + 1s at 100B/s


def test_no_route_raises():
    env = Environment()
    fab = Fabric(env)
    fab.add_node("a")
    fab.add_node("z")
    with pytest.raises(ValueError, match="no route"):
        fab.transfer("a", "z", 10)


def test_duplex_reverse_independent():
    """Duplex links carry opposing flows without sharing."""
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0, duplex=True)
    ends = {}

    def go(tag, src, dst):
        res = yield fab.transfer(src, dst, 1000.0)
        ends[tag] = res.end

    env.process(go("fwd", "a", "b"))
    env.process(go("rev", "b", "a"))
    env.run()
    assert ends["fwd"] == pytest.approx(10.0)
    assert ends["rev"] == pytest.approx(10.0)


def test_explicit_route_pinning():
    env = Environment()
    fab = Fabric(env)
    f1, _ = fab.add_link("a", "m1", capacity=100.0)
    f2, _ = fab.add_link("m1", "b", capacity=100.0)
    fab.add_link("a", "b", capacity=1.0)  # direct but slow
    fab.set_route("a", "b", [f1, f2])
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.duration == pytest.approx(1.0)


def test_bad_explicit_route_rejected():
    env = Environment()
    fab = Fabric(env)
    l1, r1 = fab.add_link("a", "b", capacity=1.0)
    l2, _ = fab.add_link("c", "d", capacity=1.0)
    with pytest.raises(ValueError):
        fab.set_route("a", "d", [l1, l2])
    with pytest.raises(ValueError):  # contiguous, but crosses a->b twice
        fab.set_route("a", "b", [l1, r1, l1])


def test_bytes_delivered_accounting():
    env = Environment()
    fab = _simple_fabric(env)

    def go():
        yield fab.transfer("a", "b", 500.0)
        yield fab.transfer("a", "b", 700.0)

    env.process(go())
    env.run()
    assert fab.bytes_delivered == pytest.approx(1200.0)


def test_many_concurrent_flows_conserve_capacity():
    """Aggregate throughput through one link never exceeds its capacity."""
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    results = []

    def go(n):
        res = yield fab.transfer("a", "b", 100.0 * n)
        results.append(res)

    for n in range(1, 11):
        env.process(go(n))
    env.run()
    total_bytes = sum(r.nbytes for r in results)
    makespan = max(r.end for r in results)
    assert total_bytes / makespan <= 100.0 * (1 + 1e-9)
    # Work conservation: the link is saturated the whole time.
    assert total_bytes / makespan == pytest.approx(100.0, rel=1e-6)


def test_same_instant_completions_fire_in_registration_order():
    """Flows registered out of flow-id order (the later transfers take
    shorter routes) and finishing at one instant complete in the order
    they registered, not in flow-id order."""
    env = Environment()
    fab = Fabric(env)
    order = []
    for i, latency in enumerate([1.5, 1.0, 0.5, 0.0]):
        fab.add_link("s", f"n{i}", capacity=100.0, latency=latency)
        # every flow runs alone at 100 B/s and ends at t = 5
        done = fab.transfer("s", f"n{i}", 100.0 * (5.0 - latency), tag=i)
        done.callbacks.append(lambda ev: order.append((ev.value.tag, ev.value.end)))
    # a shared link keeps a solve in play at the same instant
    fab.add_link("s", "m", capacity=100.0)
    fab.transfer("s", "m", 250.0)
    fab.transfer("s", "m", 250.0)
    env.run()
    assert order == [(3, 5.0), (2, 5.0), (1, 5.0), (0, 5.0)]


def test_infinite_rate_and_tiny_flows_retire_once():
    """A flow on an infinite-capacity link finishes in the bank sweep of
    its own registration, and a flow born below EPS_BYTES at once; each
    completes exactly once, in registration order."""
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=float("inf"), latency=0.5)
    fab.add_link("a", "c", capacity=100.0, latency=0.5)
    fab.add_link("a", "d", capacity=100.0)
    order = []
    for dst, nbytes, tag in [("d", 300.0, "d"), ("b", 500.0, "inf"), ("c", 100.0, "c"),
                             ("c", 1e-7, "tiny"), ("b", 7.0, "inf2")]:
        done = fab.transfer("a", dst, nbytes, tag=tag)
        done.callbacks.append(lambda ev: order.append((ev.value.tag, ev.value.end)))
    env.run()
    assert order == [("inf", 0.5), ("tiny", 0.5), ("inf2", 0.5), ("c", 1.5), ("d", 3.0)]
    assert fab.bytes_delivered == 907.0


# ---------------------------------------------------------------------------
# archive-site topology
# ---------------------------------------------------------------------------

def test_build_archive_site_shape():
    env = Environment()
    topo = build_archive_site(env)
    assert topo.n_fta == 10
    assert len(topo.disk_servers) == 5
    assert topo.n_tape_drives == 24
    # Routes exist for the main data paths.
    fab = topo.fabric
    assert fab.route("scratch", "fta0")
    assert fab.route("fta0", "tapedrv0")
    assert fab.route("fta3", "ds2")


def test_archive_site_trunk_is_waist():
    """All FTAs pulling from scratch together are limited by the trunk."""
    env = Environment()
    topo = build_archive_site(env)
    fab = topo.fabric
    per_fta = 10 * 1000 * MB  # 10 GB each

    results = []

    def pull(node):
        res = yield fab.transfer("scratch", node, per_fta)
        results.append(res)

    for node in topo.fta_nodes:
        env.process(pull(node))
    env.run()
    makespan = max(r.end for r in results)
    agg = 10 * per_fta / makespan
    assert agg <= 2 * TEN_GIGE * (1 + 1e-9)
    assert agg == pytest.approx(2 * TEN_GIGE, rel=1e-3)


def test_archive_site_single_fta_limited_by_nic():
    env = Environment()
    topo = build_archive_site(env)
    res = env.run(topo.fabric.transfer("scratch", "fta0", 1250 * MB))
    assert res.rate == pytest.approx(TEN_GIGE, rel=1e-3)


def test_archive_site_invalid_counts():
    env = Environment()
    with pytest.raises(ValueError):
        build_archive_site(env, n_fta=0)


def test_link_capacity_is_read_only_outside_the_fabric():
    """A direct write would bypass the allocator's cached capacities, so it
    must raise; set_link_capacity is the one way to change a link."""
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0)
    with pytest.raises(AttributeError):
        fab.links["a->b"].capacity = 10.0
    fab.set_link_capacity("a->b", 10.0)
    assert fab.links["a->b"].capacity == 10.0
    ev = fab.transfer("a", "b", 100.0)
    env.run()
    assert ev.value.duration == pytest.approx(10.0)
