"""A disk array as a fluid bandwidth server with seek latency and capacity.

The model deliberately stays at RAID-group granularity: an array has an
aggregate streaming bandwidth (sum of its spindles behind the controller),
a per-operation positioning latency (seek + rotation, amortised), and a
bounded command queue.  Concurrent operations share bandwidth max-min
fairly — implemented by delegating to a private two-node
:class:`~repro.netsim.fabric.Fabric`.

This is sufficient fidelity for the paper: disk only matters as (a) a rate
term that is usually *not* the bottleneck (FC4 HBAs and the Ethernet trunk
are), and (b) a capacity pool for ILM placement decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.netsim.fabric import Fabric
from repro.sim import Environment, Event, Resource, SimulationError

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
        done = self.env.event()
        submitted = self.env.now

        def _proc() -> Iterable[Event]:
            with self._slots.request() as slot:
                yield slot
                start = self.env.now
                if self.seek_time > 0:
                    yield self.env.timeout(self.seek_time)
                if nbytes > 0:
                    src, dst = ("media", "host") if op == "read" else ("host", "media")
                    yield self._fab.transfer(src, dst, nbytes)
                end = self.env.now
            if op == "read":
                self.reads += 1
                self.bytes_read += nbytes
            else:
                self.writes += 1
                self.bytes_written += nbytes
            done.succeed(
                DiskOpResult(op, int(nbytes), start, end, start - submitted, tag)
            )

        self.env.process(_proc(), name=f"{self.name}-{op}")
        return done

    def __repr__(self) -> str:
        return (
            f"<DiskArray {self.name} {self.used_bytes/1e12:.2f}/"
            f"{self.capacity_bytes/1e12:.2f} TB used, {self.bandwidth/1e6:.0f} MB/s>"
        )
