"""Tests for the simulated MPI communicator."""

import pytest

from repro.mpisim import ANY_SOURCE, ANY_TAG, Message, SimComm
from repro.sim import Environment, FilterStore, SimulationError


def test_send_recv_roundtrip():
    env = Environment()
    comm = SimComm(env, 2, latency=0.001)
    got = []

    def receiver():
        msg = yield comm.recv(1)
        got.append(msg)

    def sender():
        comm.send(0, 1, {"work": 42}, tag=7)
        yield env.timeout(0)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert got[0].payload == {"work": 42}
    assert got[0].source == 0
    assert got[0].tag == 7
    assert env.now == pytest.approx(0.001)


def test_recv_blocks_until_message():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0)
    times = []

    def receiver():
        yield comm.recv(0)
        times.append(env.now)

    def sender():
        yield env.timeout(5.0)
        comm.send(1, 0, "late")

    env.process(receiver())
    env.process(sender())
    env.run()
    assert times == [5.0]


def test_tag_filtering():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0)
    order = []

    def receiver():
        msg = yield comm.recv(1, tag=9)
        order.append(("nine", msg.payload))
        msg = yield comm.recv(1, tag=1)
        order.append(("one", msg.payload))

    def sender():
        comm.send(0, 1, "first", tag=1)
        comm.send(0, 1, "second", tag=9)
        yield env.timeout(0)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert order == [("nine", "second"), ("one", "first")]


def test_source_filtering():
    env = Environment()
    comm = SimComm(env, 3, latency=0.0)
    got = []

    def receiver():
        msg = yield comm.recv(2, source=1)
        got.append(msg.source)

    def senders():
        comm.send(0, 2, "noise")
        comm.send(1, 2, "signal")
        yield env.timeout(0)

    env.process(receiver())
    env.process(senders())
    env.run()
    assert got == [1]


def test_fifo_order_per_pair():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0001)
    got = []

    def receiver():
        for _ in range(5):
            msg = yield comm.recv(1, source=0)
            got.append(msg.payload)

    def sender():
        for i in range(5):
            comm.send(0, 1, i)
        yield env.timeout(0)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_broadcast_reaches_everyone_but_source():
    env = Environment()
    comm = SimComm(env, 4, latency=0.0)
    got = []

    def receiver(rank):
        msg = yield comm.recv(rank)
        got.append((rank, msg.payload))

    for r in range(1, 4):
        env.process(receiver(r))
    comm.broadcast(0, "shutdown")
    env.run()
    assert sorted(got) == [(1, "shutdown"), (2, "shutdown"), (3, "shutdown")]
    assert comm.pending(0) == 0


def test_pending_counts_mailbox():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0)
    comm.send(0, 1, "a")
    comm.send(0, 1, "b")
    env.run()
    assert comm.pending(1) == 2


def test_invalid_ranks_and_tags():
    env = Environment()
    comm = SimComm(env, 2)
    with pytest.raises(SimulationError):
        comm.send(0, 5, "x")
    with pytest.raises(SimulationError):
        comm.recv(9)
    with pytest.raises(SimulationError):
        comm.send(0, 1, "x", tag=-1)
    with pytest.raises(SimulationError):
        SimComm(env, 0)


def test_message_counter():
    env = Environment()
    comm = SimComm(env, 3, latency=0.0)
    comm.send(0, 1, "x")
    comm.broadcast(2, "y")
    assert comm.messages_sent == 3


def test_zero_latency_send_to_full_mailbox_raises():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0)
    comm._mailboxes[1] = FilterStore(env, capacity=1)
    comm.send(0, 1, "fits")
    # nobody waits on a send, so a refused message must not vanish
    with pytest.raises(SimulationError, match="mailbox is full"):
        comm.send(0, 1, "refused")
    assert [m.payload for m in comm._mailboxes[1].items] == ["fits"]


def test_released_comm_refuses_send_and_recv_but_keeps_counters():
    env = Environment()
    comm = SimComm(env, 2, latency=0.0)
    comm.send(0, 1, "x")
    comm.release()
    assert comm.messages_sent == 1
    for use in (lambda: comm.send(0, 1, "y"), lambda: comm.recv(1),
                lambda: comm.pending(1)):
        with pytest.raises(SimulationError, match="released"):
            use()
    assert comm.messages_sent == 1
