"""Unit tests for Resource / Container / Store primitives."""

import pytest

from repro.sim import (
    Container,
    Environment,
    FilterStore,
    PriorityResource,
    PriorityStore,
    Resource,
    SimulationError,
    Store,
)


def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def user(i):
        with res.request() as req:
            yield req
            active.append(i)
            peak.append(len(active))
            yield env.timeout(10)
            active.remove(i)

    for i in range(5):
        env.process(user(i))
    env.run()
    assert max(peak) == 2
    assert env.now == 30  # 5 users, 2 at a time, 10s each -> ceil(5/2)*10


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(4):
        env.process(user(i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_priority_resource_serves_low_priority_value_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def user(i, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(i)

    env.process(holder())
    env.process(user("low", 10, 1))
    env.process(user("high", 0, 2))
    env.run()
    assert order == ["high", "low"]


def test_resource_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def fickle():
        req = res.request()
        yield env.timeout(1)
        req.cancel()

    def patient():
        with res.request() as req:
            yield req
            got.append(env.now)

    env.process(holder())
    env.process(fickle())
    env.process(patient())
    env.run()
    assert got == [10]


def test_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_container_put_get():
    env = Environment()
    c = Container(env, capacity=100, init=10)
    seen = []

    def consumer():
        yield c.get(30)
        seen.append(env.now)

    def producer():
        yield env.timeout(5)
        yield c.put(25)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert seen == [5]
    assert c.level == 5


def test_container_capacity_blocks_put():
    env = Environment()
    c = Container(env, capacity=10, init=10)
    done = []

    def producer():
        yield c.put(5)
        done.append(env.now)

    def consumer():
        yield env.timeout(3)
        yield c.get(7)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert done == [3]


def test_container_rejects_bad_amounts():
    env = Environment()
    c = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        c.get(20)
    with pytest.raises(SimulationError):
        c.put(-1)
    with pytest.raises(SimulationError):
        Container(env, capacity=5, init=6)


def test_store_fifo():
    env = Environment()
    s = Store(env)
    out = []

    def producer():
        for i in range(3):
            yield s.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield s.get()
            out.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == [0, 1, 2]


def test_store_capacity_backpressure():
    env = Environment()
    s = Store(env, capacity=1)
    times = []

    def producer():
        for i in range(3):
            yield s.put(i)
            times.append(env.now)

    def consumer():
        while True:
            yield env.timeout(10)
            yield s.get()

    env.process(producer())
    env.process(consumer())
    env.run(until=100)
    assert times == [0, 10, 20]


def test_filter_store_selects_matching():
    env = Environment()
    s = FilterStore(env)
    got = []

    def consumer():
        item = yield s.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer():
        yield s.put(1)
        yield s.put(3)
        yield env.timeout(1)
        yield s.put(4)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [4]
    assert s.items == [1, 3]


def test_filter_store_nonblocking_other_getters():
    env = Environment()
    s = FilterStore(env)
    got = []

    def want(pred, tag):
        item = yield s.get(pred)
        got.append((tag, item))

    env.process(want(lambda x: x == "b", "first"))
    env.process(want(lambda x: x == "a", "second"))

    def producer():
        yield s.put("a")
        yield s.put("b")

    env.process(producer())
    env.run()
    assert sorted(got) == [("first", "b"), ("second", "a")]


def test_priority_store_orders_items():
    env = Environment()
    s = PriorityStore(env)
    out = []

    def producer():
        yield s.put((3, 0, "c"))
        yield s.put((1, 1, "a"))
        yield s.put((2, 2, "b"))

    def consumer():
        yield env.timeout(1)
        for _ in range(3):
            item = yield s.get()
            out.append(item[2])

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == ["a", "b", "c"]


def test_store_len():
    env = Environment()
    s = Store(env)

    def producer():
        yield s.put("x")
        yield s.put("y")

    env.process(producer())
    env.run()
    assert len(s) == 2


def test_store_put_nowait():
    env = Environment()
    s = Store(env, capacity=2)
    assert s.put_nowait("a")
    assert s.put_nowait("b")
    assert not s.put_nowait("c")  # full: caller must fall back to put()
    assert s.items == ["a", "b"]

    got = []

    def consumer():
        got.append((yield s.get()))

    env.process(consumer())
    env.run()
    assert got == ["a"]
    assert s.put_nowait("c")  # a slot freed up
    assert s.items == ["b", "c"]


def test_store_put_batch_overflow_raises_and_deposits_nothing():
    env = Environment()
    s = Store(env, capacity=3)
    s.put_batch(["a", "b"])
    assert s.items == ["a", "b"]
    # the producer cannot wait, so an overflowing batch must not vanish
    with pytest.raises(SimulationError, match="overflows"):
        s.put_batch(["c", "d"])
    assert s.items == ["a", "b"]
    s.put_batch(["c"])
    assert s.items == ["a", "b", "c"]


def test_store_put_nowait_wakes_parked_getter():
    env = Environment()
    s = FilterStore(env)
    got = []

    def consumer():
        got.append((yield s.get(lambda m: m == "hit")))

    def producer():
        yield env.timeout(1)
        assert s.put_nowait("hit")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == ["hit"]


def test_cancelled_get_is_never_delivered_an_item():
    """A cancelled getter must be swept before _do_get can feed it (the
    WatchDog lost-Exit bug): the item must go to the live getter behind it."""
    env = Environment()
    s = FilterStore(env)
    got = []

    def first():
        ev = s.get()
        yield env.timeout(1)
        ev.cancel()
        yield env.timeout(10)

    def second():
        yield env.timeout(2)
        got.append((yield s.get()))

    def producer():
        yield env.timeout(3)
        yield s.put("msg")

    env.process(first())
    env.process(second())
    env.process(producer())
    env.run()
    assert got == ["msg"]


def test_filter_store_parking_n_getters_makes_n_do_get_calls():
    """A new getter is offered only the held items: parking n getters
    that match nothing costs n _do_get calls, not a rotation of every
    parked getter per get (n*(n+1)/2 calls)."""
    calls = 0

    class CountingStore(FilterStore):
        def _do_get(self, getter):
            nonlocal calls
            calls += 1
            return super()._do_get(getter)

    env = Environment()
    s = CountingStore(env)
    s.put_nowait("held")
    n = 300
    gets = [s.get(lambda m, i=i: m == i) for i in range(n)]
    assert calls == n
    assert s.items == ["held"]
    # a put still rotates the parked getters in FIFO order
    assert s.put_nowait(7)
    env.run()
    assert gets[7].value == 7
    assert not any(g.triggered for i, g in enumerate(gets) if i != 7)


def test_mass_cancel_parked_gets_is_near_linear():
    """Regression for the O(n) StoreGet.cancel: cancelling 10k parked
    receives must scale ~linearly (tombstones + compaction), not
    quadratically (the old list.remove walked 10k entries per cancel)."""
    import time

    def run_n(n):
        env = Environment()
        s = FilterStore(env)
        gets = [s.get(lambda m, i=i: m == i) for i in range(n)]
        t0 = time.perf_counter()
        for g in gets:
            g.cancel()
        elapsed = time.perf_counter() - t0
        # queue must actually shrink as tombstones pass the compaction
        # threshold, not merely be marked dead
        assert len(s._getq) <= 1 + n // 2
        # a fresh put still routes to a live getter afterwards
        got = []

        def consumer():
            got.append((yield s.get()))

        env.process(consumer())
        assert s.put_nowait("tail")
        env.run()
        assert got == ["tail"]
        return elapsed

    t_small = max(run_n(1_000), 1e-4)
    t_big = run_n(10_000)
    # 10x the cancels may cost ~10x the time (plus noise) — the old
    # quadratic implementation came in around 100x
    assert t_big < t_small * 40, f"cancel scaling looks quadratic: {t_small} -> {t_big}"
