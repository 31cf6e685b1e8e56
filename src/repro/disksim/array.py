"""A disk array as a fluid bandwidth server with seek latency and capacity.

The model deliberately stays at RAID-group granularity: an array has an
aggregate streaming bandwidth (sum of its spindles behind the controller),
a per-operation positioning latency (seek + rotation, amortised), and a
bounded command queue.  Concurrent operations share bandwidth max-min
fairly — implemented by delegating to a private two-node
:class:`~repro.netsim.fabric.Fabric`.

An operation is a chain of kernel callbacks, not a process: a start step
queued at ``URGENT`` requests a queue slot, the slot's grant starts the
seek timer, the seek's end starts the transfer, and the transfer's end
releases the slot and fires the operation's ``done`` event.  Each step
runs in the ``(time, priority)`` slot the equivalent process would have
resumed in.  Callers only ever hold ``done``.

This is sufficient fidelity for the paper: disk only matters as (a) a rate
term that is usually *not* the bottleneck (FC4 HBAs and the Ethernet trunk
are), and (b) a capacity pool for ILM placement decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.netsim.fabric import Fabric
from repro.sim import Environment, Event, Resource, SimulationError
from repro.sim.kernel import URGENT
from repro.sim.resources import Request

__all__ = ["DiskArray", "DiskOpResult"]


@dataclass
class DiskOpResult:
    """Completion record for one array read/write."""

    op: str
    nbytes: int
    start: float
    end: float
    queued: float  # time spent waiting for a queue slot
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        d = self.duration
        return self.nbytes / d if d > 0 else float("inf")


class DiskArray:
    """One RAID array / LUN group.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Array label (used in stats and error messages).
    capacity_bytes:
        Usable capacity for space accounting.
    bandwidth:
        Aggregate streaming bandwidth in bytes/s.
    seek_time:
        Positioning latency charged once per operation (seconds).
    queue_depth:
        Maximum concurrent in-service operations; excess requests queue
        FIFO (models the controller's command queue).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity_bytes: float,
        bandwidth: float,
        seek_time: float = 0.008,
        queue_depth: int = 64,
    ) -> None:
        if capacity_bytes <= 0 or bandwidth <= 0:
            raise SimulationError(f"{name}: capacity and bandwidth must be positive")
        self.env = env
        self.name = name
        self.capacity_bytes = float(capacity_bytes)
        self.bandwidth = float(bandwidth)
        self.seek_time = float(seek_time)
        self.used_bytes = 0.0
        self._slots = Resource(env, capacity=queue_depth)
        # Private fluid server: host --(bandwidth)--> media.
        self._fab = Fabric(env, name=f"{name}-internal")
        self._fab.add_link("host", "media", capacity=self.bandwidth,
                           latency=0.0, duplex=True)
        # op counters for reporting
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        env.metrics.add("disksim.ops", lambda: self.reads + self.writes)

    # -- space accounting ------------------------------------------------
    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, nbytes: float) -> None:
        """Reserve space (raises if the array would overflow)."""
        if nbytes < 0:
            raise SimulationError("allocate: negative size")
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise SimulationError(
                f"{self.name}: out of space "
                f"({self.used_bytes + nbytes:.3e} > {self.capacity_bytes:.3e})"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: float) -> None:
        if nbytes < 0:
            raise SimulationError("free: negative size")
        self.used_bytes = max(0.0, self.used_bytes - nbytes)

    # -- I/O ---------------------------------------------------------------
    def read(self, nbytes: float, tag: Any = None) -> Event:
        """Start a read of *nbytes*; returns event -> :class:`DiskOpResult`."""
        return self._io("read", nbytes, tag)

    def write(self, nbytes: float, tag: Any = None) -> Event:
        """Start a write of *nbytes*; returns event -> :class:`DiskOpResult`."""
        return self._io("write", nbytes, tag)

    def _io(self, op: str, nbytes: float, tag: Any) -> Event:
        if nbytes < 0:
            raise SimulationError(f"{op}: negative size")
        env = self.env
        done = env.event()
        submitted = env.now
        slot: Optional[Request] = None
        start = submitted

        def _request() -> None:
            nonlocal slot
            slot = self._slots.request()
            slot.callbacks.append(_seek)

        def _seek(_granted: Event) -> None:
            nonlocal start
            start = env.now
            if self.seek_time > 0:
                env.call_later(self.seek_time, _transfer)
            else:
                _transfer()

        def _transfer() -> None:
            if nbytes > 0:
                src, dst = ("media", "host") if op == "read" else ("host", "media")
                self._fab.transfer(src, dst, nbytes).callbacks.append(_finish)
            else:
                _finish(None)

        def _finish(_moved: Optional[Event]) -> None:
            end = env.now
            self._slots.release(slot)
            if op == "read":
                self.reads += 1
                self.bytes_read += nbytes
            else:
                self.writes += 1
                self.bytes_written += nbytes
            done.succeed(
                DiskOpResult(op, int(nbytes), start, end, start - submitted, tag)
            )

        env.call_later(0, _request, priority=URGENT)
        return done

    def __repr__(self) -> str:
        return (
            f"<DiskArray {self.name} {self.used_bytes/1e12:.2f}/"
            f"{self.capacity_bytes/1e12:.2f} TB used, {self.bandwidth/1e6:.0f} MB/s>"
        )
