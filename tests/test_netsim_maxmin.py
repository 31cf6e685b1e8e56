"""Unit + property tests for the max-min fair allocator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import MaxMinAllocator
from tests.maxmin_oracle import SortedClosureAllocator, max_min_fair_rates


def test_single_flow_gets_link_capacity():
    rates = max_min_fair_rates({"f": ["l"]}, {"l": 100.0})
    assert rates["f"] == pytest.approx(100.0)


def test_two_flows_share_equally():
    rates = max_min_fair_rates({"a": ["l"], "b": ["l"]}, {"l": 100.0})
    assert rates["a"] == pytest.approx(50.0)
    assert rates["b"] == pytest.approx(50.0)


def test_classic_three_flow_parking_lot():
    """Flow across both links gets 1/2 of the first bottleneck; locals mop up."""
    rates = max_min_fair_rates(
        {"long": ["l1", "l2"], "a": ["l1"], "b": ["l2"]},
        {"l1": 10.0, "l2": 10.0},
    )
    assert rates["long"] == pytest.approx(5.0)
    assert rates["a"] == pytest.approx(5.0)
    assert rates["b"] == pytest.approx(5.0)


def test_unequal_bottlenecks_give_leftover_to_unconstrained():
    rates = max_min_fair_rates(
        {"long": ["small", "big"], "local": ["big"]},
        {"small": 4.0, "big": 20.0},
    )
    assert rates["long"] == pytest.approx(4.0)
    assert rates["local"] == pytest.approx(16.0)


def test_rate_cap_constrains_flow():
    rates = max_min_fair_rates(
        {"a": ["l"], "b": ["l"]},
        {"l": 300.0},
        rate_cap={"a": 50.0},
    )
    assert rates["a"] == pytest.approx(50.0)
    assert rates["b"] == pytest.approx(250.0)


def test_weights_split_proportionally():
    rates = max_min_fair_rates(
        {"heavy": ["l"], "light": ["l"]},
        {"l": 90.0},
        flow_weight={"heavy": 2.0, "light": 1.0},
    )
    assert rates["heavy"] == pytest.approx(60.0)
    assert rates["light"] == pytest.approx(30.0)


def test_flow_with_no_links_and_no_cap_is_unbounded():
    rates = max_min_fair_rates({"free": []}, {})
    assert rates["free"] == float("inf")


def test_flow_with_only_rate_cap():
    rates = max_min_fair_rates({"f": []}, {}, rate_cap={"f": 42.0})
    assert rates["f"] == pytest.approx(42.0)


def test_unknown_link_raises():
    with pytest.raises(KeyError):
        max_min_fair_rates({"f": ["ghost"]}, {})


def test_empty_input():
    assert max_min_fair_rates({}, {}) == {}


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def _scenarios(draw):
    n_links = draw(st.integers(1, 6))
    links = {f"l{i}": draw(st.floats(1.0, 1e4)) for i in range(n_links)}
    n_flows = draw(st.integers(1, 10))
    flows = {}
    for j in range(n_flows):
        k = draw(st.integers(1, n_links))
        chosen = draw(
            st.lists(
                st.sampled_from(sorted(links)), min_size=k, max_size=k, unique=True
            )
        )
        flows[f"f{j}"] = chosen
    return flows, links


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_no_link_oversubscribed(scenario):
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    usage = {lk: 0.0 for lk in links}
    for fid, route in flows.items():
        for lk in route:
            usage[lk] += rates[fid]
    for lk, used in usage.items():
        assert used <= links[lk] * (1 + 1e-6), f"{lk} oversubscribed: {used} > {links[lk]}"


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_flow_is_bottlenecked(scenario):
    """Max-min property: each flow crosses at least one saturated link."""
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    usage = {lk: 0.0 for lk in links}
    for fid, route in flows.items():
        for lk in route:
            usage[lk] += rates[fid]
    for fid, route in flows.items():
        assert any(
            usage[lk] >= links[lk] * (1 - 1e-6) for lk in route
        ), f"flow {fid} is not bottlenecked anywhere"


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_rates_positive_and_finite(scenario):
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    for fid in flows:
        assert rates[fid] > 0
        assert math.isfinite(rates[fid])


@given(_scenarios(), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_allocation_scales_with_capacity(scenario, factor):
    """Scaling all capacities by k scales all rates by k (homogeneity)."""
    flows, links = scenario
    base = max_min_fair_rates(flows, links)
    scaled = max_min_fair_rates(flows, {k: v * factor for k, v in links.items()})
    for fid in flows:
        assert scaled[fid] == pytest.approx(base[fid] * factor, rel=1e-6)


# ---------------------------------------------------------------------------
# incremental allocator == batch oracle
# ---------------------------------------------------------------------------

def _oracle(alloc: MaxMinAllocator) -> dict:
    """Batch-solve the allocator's current state with the reference solver."""
    flows, caps, weights, rate_caps = {}, {}, {}, {}
    for lk, cap in alloc._caps.items():
        if isinstance(lk, tuple) and lk[0] == "__cap__":
            rate_caps[lk[1]] = cap
        else:
            caps[lk] = cap
    for fid, route in alloc._flow_links.items():
        flows[fid] = [
            lk for lk in route if not (isinstance(lk, tuple) and lk[0] == "__cap__")
        ]
        weights[fid] = alloc._weights[fid]
    return max_min_fair_rates(flows, caps, rate_cap=rate_caps, flow_weight=weights)


def _assert_matches_oracle(alloc: MaxMinAllocator) -> None:
    alloc.flush()
    want = _oracle(alloc)
    assert set(alloc.rates) == set(want)
    for fid, rate in want.items():
        got = alloc.rates[fid]
        if rate == float("inf"):
            assert got == rate, f"flow {fid}: {got} != inf"
        else:
            assert got == pytest.approx(rate, rel=1e-9), f"flow {fid}"


def test_incremental_matches_batch_parking_lot():
    alloc = MaxMinAllocator()
    alloc.set_capacity("l1", 10.0)
    alloc.set_capacity("l2", 10.0)
    alloc.add_flow(1, ["l1", "l2"])
    alloc.add_flow(2, ["l1"])
    alloc.add_flow(3, ["l2"])
    _assert_matches_oracle(alloc)
    assert alloc.rates[1] == pytest.approx(5.0)


def test_incremental_tracks_capacity_change():
    alloc = MaxMinAllocator()
    alloc.set_capacity("trunk", 100.0)
    alloc.add_flow(1, ["trunk"])
    alloc.add_flow(2, ["trunk"])
    alloc.flush()
    assert alloc.rates[1] == pytest.approx(50.0)
    alloc.set_capacity("trunk", 40.0)  # degrade mid-run
    _assert_matches_oracle(alloc)
    assert alloc.rates[2] == pytest.approx(20.0)


def test_short_circuit_lone_flow_needs_no_solve():
    alloc = MaxMinAllocator()
    alloc.set_capacity("a", 7.0)
    rate = alloc.add_flow(1, ["a"])
    assert rate == pytest.approx(7.0)  # settled immediately, no dirty links
    before = alloc.solves
    alloc.flush()
    assert alloc.solves == before  # nothing to do


@st.composite
def _op_sequences(draw):
    """A link set plus an interleaved add/remove/recap operation script."""
    n_links = draw(st.integers(1, 5))
    links = {f"l{i}": draw(st.floats(1.0, 1e4)) for i in range(n_links)}
    n_ops = draw(st.integers(1, 14))
    ops = []
    next_fid = 0
    live = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["add", "add", "add", "remove", "recap"]))
        if kind == "add":
            k = draw(st.integers(0, n_links))
            route = draw(
                st.lists(
                    st.sampled_from(sorted(links)), min_size=k, max_size=k, unique=True
                )
            )
            weight = draw(st.floats(0.1, 8.0))
            cap = draw(st.one_of(st.just(float("inf")), st.floats(0.5, 5e3)))
            ops.append(("add", next_fid, route, weight, cap))
            live.append(next_fid)
            next_fid += 1
        elif kind == "remove" and live:
            fid = draw(st.sampled_from(live))
            live.remove(fid)
            ops.append(("remove", fid))
        elif kind == "recap":
            lk = draw(st.sampled_from(sorted(links)))
            ops.append(("recap", lk, draw(st.floats(1.0, 1e4))))
    return links, ops


@given(_op_sequences(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_incremental_equals_batch_over_random_histories(script, flush_every_op):
    """The dirty-component solver must agree with the full batch solve after
    any interleaving of flow arrivals/departures and capacity changes —
    whether rates are settled after every event or lazily at the end."""
    links, ops = script
    alloc = MaxMinAllocator()
    for lk, cap in links.items():
        alloc.set_capacity(lk, cap)
    for op in ops:
        if op[0] == "add":
            _, fid, route, weight, cap = op
            alloc.add_flow(fid, route, weight=weight, rate_cap=cap)
        elif op[0] == "remove":
            alloc.remove_flow(op[1])
        else:
            alloc.set_capacity(op[1], op[2])
        if flush_every_op:
            _assert_matches_oracle(alloc)
    _assert_matches_oracle(alloc)


# ---------------------------------------------------------------------------
# incremental allocator == the sorted-closure reference, bit for bit
# ---------------------------------------------------------------------------

@st.composite
def _exact_histories(draw):
    """Capacities plus an add/remove/recap/flush script whose flow ids
    arrive out of order, with unit and fractional weights and rate caps."""
    n_links = draw(st.integers(1, 5))
    links = {f"l{i}": draw(st.floats(1.0, 1e4)) for i in range(n_links)}
    ops, live = [], set()
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["add", "add", "add", "remove", "recap", "flush"]))
        if kind == "add":
            fid = draw(st.integers(0, 40))
            if fid in live:
                continue
            route = draw(st.lists(st.sampled_from(sorted(links)), max_size=n_links, unique=True))
            weight = draw(st.one_of(st.just(1.0), st.floats(0.1, 8.0)))
            cap = draw(st.one_of(st.just(float("inf")), st.floats(0.5, 5e3)))
            ops.append(("add", fid, route, weight, cap))
            live.add(fid)
        elif kind == "remove" and live:
            fid = draw(st.sampled_from(sorted(live)))
            live.discard(fid)
            ops.append(("remove", fid))
        elif kind == "recap":
            ops.append(("recap", draw(st.sampled_from(sorted(links))), draw(st.floats(1.0, 1e4))))
        elif kind == "flush":
            ops.append(("flush",))
    return links, ops + [("flush",)]


def _assert_totals_fresh(alloc: MaxMinAllocator) -> None:
    """Every cached link total is the ascending-fid sum of its weights."""
    for lk, (total, top) in alloc._totals.items():
        users = sorted(alloc._link_flows[lk])
        fresh = 0.0
        for fid in users:
            fresh += alloc._weights[fid]
        assert total == fresh and top == users[-1], lk


@given(_exact_histories())
@settings(max_examples=300, deadline=None)
def test_rates_bit_identical_to_sorted_closure_reference(script):
    links, ops = script
    alloc, ref = MaxMinAllocator(), SortedClosureAllocator()
    for lk, cap in links.items():
        alloc.set_capacity(lk, cap)
        ref.set_capacity(lk, cap)
    for op in ops:
        if op[0] == "add":
            _, fid, route, weight, cap = op
            assert alloc.add_flow(fid, route, weight, cap) == ref.add_flow(
                fid, route, weight, cap
            )
        elif op[0] == "remove":
            alloc.remove_flow(op[1])
            ref.remove_flow(op[1])
        elif op[0] == "recap":
            alloc.set_capacity(op[1], op[2])
            ref.set_capacity(op[1], op[2])
        else:
            assert alloc.flush() == ref.flush()
            assert alloc.rates == ref.rates
            assert alloc.solves == ref.solves
        _assert_totals_fresh(alloc)
