"""Rank-addressed message passing on the DES.

Semantics (the subset of MPI that PFTool uses):

* ``send(src, dst, payload, tag)`` — buffered, non-blocking; the message
  lands in *dst*'s mailbox after ``latency`` simulated seconds.
* ``recv(rank, source=ANY_SOURCE, tag=ANY_TAG)`` — blocks until a
  matching message is available; returns the :class:`Message`.
  Matching is FIFO among eligible messages (MPI ordering guarantee per
  (source, tag) pair is preserved because each pair's messages keep
  their relative order in the mailbox).  The returned event is a
  :class:`~repro.sim.StoreGet`: a rank that races a receive against a
  timer and loses MUST call ``.cancel()`` on it — an abandoned-but-live
  receive would silently consume the next matching message.
* no rendezvous / ready modes — PFTool only posts small control
  messages; bulk data rides the fabric, not the communicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim import Environment, FilterStore, SimulationError, StoreGet

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "SimComm"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class Message:
    """One delivered message."""

    source: int
    dest: int
    tag: int
    payload: Any


class SimComm:
    """A communicator with a fixed number of ranks.

    Parameters
    ----------
    env:
        Simulation environment.
    size:
        Number of ranks (0 .. size-1).
    latency:
        Per-message delivery delay in seconds (control-plane messages on
        a 10GigE cluster: tens of microseconds).
    """

    def __init__(self, env: Environment, size: int, latency: float = 5e-5) -> None:
        if size < 1:
            raise SimulationError("communicator needs at least one rank")
        self.env = env
        self.size = size
        self.latency = latency
        #: one mailbox per rank; None once :meth:`release` ran
        self._mailboxes: Optional[list[FilterStore]] = [
            FilterStore(env) for _ in range(size)
        ]
        self.messages_sent = 0
        #: opt-in :class:`repro.analysis.monitor.InvariantMonitor` hook;
        #: observes every send and every posted receive when set
        self.monitor = None
        #: same-instant delivery batches keyed (src, dst, deliver_at) —
        #: messages of one (src, dst) pair sent at the same instant ride a
        #: single delivery timer and land in send order, so the MPI
        #: non-overtaking guarantee holds under *any* kernel tie-break
        #: policy (permuted schedules may reorder cross-source arrivals,
        #: never same-source ones)
        self._inflight: dict[tuple[int, int, float], list[Message]] = {}
        #: optional delivery-fault hook ``(src, dst, deliver_at) ->
        #: deliver_at`` — a fault injector may postpone a message (e.g.
        #: the destination rank's node is in an outage window).  The
        #: returned time must be monotone in send time per (src, dst)
        #: pair or the MPI non-overtaking guarantee breaks.
        self.delivery_hook = None

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise SimulationError(f"rank {rank} out of range 0..{self.size - 1}")

    def _mailbox(self, rank: int) -> FilterStore:
        if self._mailboxes is None:
            raise SimulationError(
                f"{self!r} was released when its job finished; "
                "it sends and receives nothing more"
            )
        self._check_rank(rank)
        return self._mailboxes[rank]

    def release(self) -> None:
        """Drop the mailboxes once no rank can use them again.

        :class:`~repro.pftool.job.PftoolJob` calls this when the job is
        over; the counters stay readable, and a later :meth:`send`,
        :meth:`recv` or :meth:`pending` raises :class:`SimulationError`.
        Messages already in flight land in the dropped mailboxes.
        """
        self._mailboxes = None

    def send(self, src: int, dst: int, payload: Any, tag: int = 0) -> None:
        """Buffered send; returns immediately (delivery is delayed)."""
        mailbox = self._mailbox(dst)
        self._check_rank(src)
        if tag < 0:
            raise SimulationError("tags must be non-negative (negatives are wildcards)")
        self.messages_sent += 1
        msg = Message(src, dst, tag, payload)
        if self.monitor is not None:
            self.monitor.on_send(self, msg)
        deliver_at = self.env.now + self.latency
        if self.delivery_hook is not None and self.latency > 0:
            # the hook's returned time is the batch key verbatim, so two
            # sends postponed to the same instant share one timer and
            # keep their send order (no ulp-level overtaking)
            deliver_at = self.delivery_hook(src, dst, deliver_at)
        hb = self.env.hb
        if hb is not None:
            hb.on_comm_send(self, msg, deliver_at - self.env.now)
        tr = self.env.trace
        if tr.enabled:
            tr.instant("comm:send", tid=f"rank{src}", cat="comm",
                       args={"dst": dst, "tag": tag})
        # call_later recycles its timer event, making a send one heap push
        # instead of a Process + init event + Timeout + put event.
        if self.latency > 0:
            key = (src, dst, deliver_at)
            batch = self._inflight.get(key)
            if batch is not None:
                batch.append(msg)  # rides the batch's existing timer
            else:
                self._inflight[key] = batch = [msg]
                self.env.call_later(
                    deliver_at - self.env.now,
                    lambda: self._deliver(key, batch, mailbox),
                )
        elif not mailbox.put_nowait(msg):
            # nobody waits on a send, so a refused message would be lost
            raise SimulationError(
                f"rank {dst}'s mailbox is full: send from rank {src} "
                f"(tag {tag}) refused"
            )

    def _deliver(
        self, key: tuple[int, int, float], batch: list[Message], mailbox
    ) -> None:
        del self._inflight[key]
        # One settle sweep for the whole same-instant batch; HB edges are
        # still recorded per message inside put_batch.  Mailboxes are
        # unbounded, so the deposit cannot overflow.
        mailbox.put_batch(batch)

    def recv(
        self, rank: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> StoreGet:
        """Blocking receive; event fires with a :class:`Message`.

        Call ``.cancel()`` on the returned event to withdraw an unused
        receive (e.g. when a watchdog timer won the race instead).
        """
        mailbox = self._mailbox(rank)

        def _match(msg: Message) -> bool:
            if source != ANY_SOURCE and msg.source != source:
                return False
            if tag != ANY_TAG and msg.tag != tag:
                return False
            return True

        get = mailbox.get(_match)
        if self.monitor is not None:
            self.monitor.on_recv(self, rank, get)
        hb = self.env.hb
        if hb is not None:
            hb.on_comm_recv(self, rank, get)
        return get

    def pending(self, rank: int) -> int:
        """Messages waiting in *rank*'s mailbox (probe-ish)."""
        return len(self._mailbox(rank).items)

    def broadcast(self, src: int, payload: Any, tag: int = 0) -> None:
        """Send to every other rank (a loop of sends, like PFTool's
        shutdown fan-out)."""
        for dst in range(self.size):
            if dst != src:
                self.send(src, dst, payload, tag)

    def __repr__(self) -> str:
        return f"<SimComm size={self.size} sent={self.messages_sent}>"
