"""Unit tests for the DES kernel (events, processes, interrupts, run modes)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    Store,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        v = yield env.timeout(1.0, value="hello")
        return v

    p = env.process(proc())
    assert env.run(p) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent():
        result = yield env.process(child())
        return result * 2

    p = env.process(parent())
    assert env.run(p) == 84
    assert env.now == 3


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        val = yield ev
        seen.append((env.now, val))

    def trigger():
        yield env.timeout(4)
        ev.succeed("done")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(4.0, "done")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError):
            yield ev
        return "caught"

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(p) == "caught"


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_run_until_time_stops_early():
    env = Environment()
    hits = []

    def ticker():
        while True:
            yield env.timeout(1)
            hits.append(env.now)

    env.process(ticker())
    env.run(until=5)
    assert hits == [1, 2, 3, 4, 5]
    assert env.now == 5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as itr:
            causes.append((env.now, itr.cause))

    def attacker(v):
        yield env.timeout(3)
        v.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert causes == [(3.0, "preempted")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_rewait_original_event():
    """After an interrupt, the process may resume waiting on the same event."""
    env = Environment()

    def victim():
        t = env.timeout(10)
        try:
            yield t
        except Interrupt:
            pass
        yield t  # keep waiting for the original deadline
        return env.now

    def attacker(v):
        yield env.timeout(2)
        v.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(v) == 10


def test_all_of_collects_values():
    env = Environment()

    def proc():
        t1 = env.timeout(1, "a")
        t2 = env.timeout(2, "b")
        res = yield AllOf(env, [t1, t2])
        return sorted(res.values())

    p = env.process(proc())
    assert env.run(p) == ["a", "b"]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, "fast")
        t2 = env.timeout(50, "slow")
        res = yield AnyOf(env, [t1, t2])
        return list(res.values())

    p = env.process(proc())
    assert env.run(p) == ["fast"]
    assert env.now == 1


def test_and_or_operators():
    env = Environment()

    def proc():
        both = yield env.timeout(1) & env.timeout(2)
        assert len(both) == 2
        one = yield env.timeout(1) | env.timeout(99)
        assert len(one) == 1
        return env.now

    p = env.process(proc())
    assert env.run(p) == 3  # AllOf fires at t=2, AnyOf 1s later


def test_deterministic_tie_break_order():
    """Events at the same time run in scheduling order."""
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(1)
            order.append(tag)

        return proc

    for tag in ("a", "b", "c", "d"):
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_yield_non_event_errors():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_event_value():
    env = Environment()
    ev = env.event()

    def setter():
        yield env.timeout(7)
        ev.succeed("finished")

    env.process(setter())
    assert env.run(until=ev) == "finished"
    assert env.now == 7


def _noop(env):
    yield env.timeout(3)


def test_peek_reports_next_event_time():
    env = Environment()
    env.process(_noop(env))
    env.step()  # init event
    assert env.peek() == 3.0
    env.run()
    assert env.peek() == float("inf")


# ----------------------------------------------------------- schedule policy
def _tagged_race(env, order):
    """Four processes waking at the same instant, recording their tags."""

    def make(tag):
        def proc():
            yield env.timeout(1)
            order.append(tag)

        return proc

    for tag in ("a", "b", "c", "d"):
        env.process(make(tag)(), name=tag)


def test_random_tiebreak_policy_permutes_same_instant_events():
    from repro.sim import RandomTiebreakPolicy

    orders = set()
    for seed in range(8):
        env = Environment(schedule_policy=RandomTiebreakPolicy(seed))
        order = []
        _tagged_race(env, order)
        env.run()
        assert sorted(order) == ["a", "b", "c", "d"]  # all still run
        orders.add(tuple(order))
    assert len(orders) > 1  # at least one seed deviates from FIFO


def test_random_tiebreak_policy_is_seed_deterministic():
    from repro.sim import RandomTiebreakPolicy

    runs = []
    for _ in range(2):
        env = Environment(schedule_policy=RandomTiebreakPolicy(1234))
        order = []
        _tagged_race(env, order)
        env.run()
        runs.append(order)
    assert runs[0] == runs[1]


def test_set_default_schedule_policy_installs_on_new_envs():
    from repro.sim import RandomTiebreakPolicy, set_default_schedule_policy

    def run_once():
        env = Environment()
        order = []
        _tagged_race(env, order)
        env.run()
        return order

    fifo = run_once()
    set_default_schedule_policy(lambda: RandomTiebreakPolicy(7))
    try:
        permuted = run_once()
        repeated = run_once()
    finally:
        set_default_schedule_policy(None)
    assert sorted(permuted) == sorted(fifo)
    assert permuted == repeated  # each new env gets the same seeded policy
    assert run_once() == fifo  # cleared: back to FIFO


def test_daemon_flag_marks_service_processes():
    env = Environment()

    def loop():
        yield env.timeout(1)

    worker = env.process(loop(), name="w")
    service = env.process(loop(), name="s", daemon=True)
    assert worker.daemon is False
    assert service.daemon is True
    env.run()


def test_run_cohort_drain_matches_step_loop():
    """run() drains each same-instant cohort in one pass; a workload with
    timers, store traffic and cancelled gets must end exactly as it does
    when every event is popped one at a time through step()."""

    def workload(drive):
        env = Environment()
        store = Store(env, capacity=64)
        log = []

        def producer():
            for i in range(120):
                yield env.timeout(0.25 if i % 3 else 0.0)
                yield store.put(i)

        def consumer(cid):
            for _ in range(40):
                item = yield store.get()
                log.append((env.now, cid, item))

        def canceller():
            # race a get against a timer and withdraw the loser: the
            # cancelled get stays tombstoned in the queue until popped
            for _ in range(10):
                get = store.get()
                yield env.timeout(1e-3) | get
                if not get.processed:
                    get.cancel()
                else:
                    log.append((env.now, "c", get.value))
                yield env.timeout(0.5)

        for cid in range(3):
            env.process(consumer(cid))
        env.process(producer())
        env.process(canceller())
        drive(env)
        return env, log

    instants = set()

    def stepwise(env):
        while env.peek() != float("inf"):
            instants.add(env.peek())
            env.step()

    ran, ran_log = workload(lambda env: env.run())
    stepped, stepped_log = workload(stepwise)
    assert ran_log == stepped_log
    assert (ran.events_processed, ran.now) == (stepped.events_processed, stepped.now)
    # one cohort per distinct timestamp, some of them several events deep
    assert ran.instants == len(instants)
    assert 1 < ran.max_instant_batch < ran.events_processed
