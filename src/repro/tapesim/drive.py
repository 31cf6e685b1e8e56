"""Tape drive model with LTO-class timing.

Timing model per operation:

* **load**: robot hands the cartridge over (library pays robot exchange
  separately), drive threads + calibrates, then verifies the volume label.
* **locate/seek**: ``seek_base + |distance| / locate_rate`` — LTO locate
  runs at high longitudinal speed (~order 10 GB/s equivalent).
* **write/read streaming**: the data flows over the SAN fabric with the
  drive's native rate as the flow's rate cap, so SAN contention and drive
  speed both apply.
* **backhitch**: every transaction that stops the streaming motion costs a
  reposition cycle.  HSM's one-file-per-transaction behaviour therefore
  costs ``backhitch`` per file — the §6.1 small-file collapse.
* **client handoff**: if the next I/O on a mounted volume comes from a
  different node than the last one, the drive rewinds and re-verifies the
  label before servicing it (§6.2), unless ``handoff_penalty`` is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.faults import DriveFault
from repro.netsim.fabric import Fabric
from repro.sim import Environment, Event, Resource, SimulationError
from repro.tapesim.cartridge import TapeCartridge, TapeExtent

__all__ = ["TapeDrive", "TapeSpec"]


@dataclass(frozen=True)
class TapeSpec:
    """Physical/timing parameters of a drive generation (defaults: LTO-4)."""

    native_rate: float = 120e6  # bytes/s streaming
    load_time: float = 19.0  # thread + calibrate, seconds
    unload_time: float = 19.0
    rewind_full: float = 80.0  # full-tape rewind, seconds
    seek_base: float = 2.0  # locate command overhead
    locate_rate: float = 10e9  # bytes of longitudinal distance per second
    label_verify: float = 8.0  # read volume label, seconds
    backhitch: float = 1.93  # reposition cycle per stopped transaction
    capacity: float = 800e9

    def rewind_time(self, from_byte: float) -> float:
        """Rewind from a longitudinal position to BOT."""
        if self.capacity <= 0:
            return 0.0
        frac = min(1.0, max(0.0, from_byte / self.capacity))
        return self.rewind_full * frac

    def locate_time(self, from_byte: float, to_byte: float) -> float:
        return self.seek_base + abs(to_byte - from_byte) / self.locate_rate


class TapeDrive:
    """One tape drive attached to the SAN.

    Operations are strictly serialized per drive (FIFO); concurrency across
    drives is what gives the archive its parallelism.

    Parameters
    ----------
    env, name:
        Environment and drive id.
    fabric, port:
        SAN fabric and the drive's port node name; data streams are fabric
        transfers capped at the drive's native rate.  If *fabric* is None
        the streaming time is computed locally (useful for unit tests).
    spec:
        Timing parameters.
    handoff_penalty:
        Model the §6.2 label re-verification when consecutive clients
        differ.  Disable to simulate the paper's proposed "sticky node"
        fix at the drive level.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        fabric: Optional[Fabric] = None,
        port: Optional[str] = None,
        spec: TapeSpec = TapeSpec(),
        handoff_penalty: bool = True,
    ) -> None:
        self.env = env
        self.name = name
        self.fabric = fabric
        self.port = port
        self.spec = spec
        self.handoff_penalty = handoff_penalty

        self.cartridge: Optional[TapeCartridge] = None
        #: longitudinal head position in bytes (only meaningful when loaded)
        self.position: float = 0.0
        self.last_client: Optional[str] = None
        #: hardware fault flag — operations refuse while set
        self.failed = False
        self._ops = Resource(env, capacity=1)

        # statistics
        self.mounts = 0
        self.dismounts = 0
        self.label_verifies = 0
        self.handoff_rewinds = 0
        self.backhitches = 0
        self.seek_seconds = 0.0
        self.stream_seconds = 0.0
        self.idle_marker = env.now
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        #: open "drive:mounted" trace span (load -> unload), if tracing
        self._mount_span = None

    # -- state ---------------------------------------------------------
    @property
    def loaded(self) -> bool:
        return self.cartridge is not None

    @property
    def busy(self) -> bool:
        return self._ops.count > 0 or self._ops.queue_len > 0

    # -- mount / dismount ------------------------------------------------
    def load(self, cartridge: TapeCartridge) -> Event:
        """Thread + calibrate + label-verify *cartridge* (robot time is paid
        by the library before calling this)."""
        done = self.env.event()

        def _proc() -> Iterable[Event]:
            with self._ops.request() as op:
                yield op
                if self.cartridge is not None:
                    raise SimulationError(
                        f"{self.name}: load while {self.cartridge.volume} mounted"
                    )
                yield self.env.timeout(self.spec.load_time)
                yield self.env.timeout(self.spec.label_verify)
                self.label_verifies += 1
                self.cartridge = cartridge
                self.position = 0.0
                self.last_client = None
                self.mounts += 1
                tr = self.env.trace
                if tr.enabled:
                    self._mount_span = tr.begin(
                        "drive:mounted", tid=self.name, cat="tape",
                        args={"volume": cartridge.volume},
                    )
            done.succeed(cartridge)

        self.env.process(_proc(), name=f"{self.name}-load")
        return done

    def unload(self) -> Event:
        """Rewind + unload; returns event -> the removed cartridge."""
        done = self.env.event()

        def _proc() -> Iterable[Event]:
            with self._ops.request() as op:
                yield op
                if self.cartridge is None:
                    raise SimulationError(f"{self.name}: unload with no cartridge")
                rt = self.spec.rewind_time(self.position)
                self.seek_seconds += rt
                yield self.env.timeout(rt)
                yield self.env.timeout(self.spec.unload_time)
                cart = self.cartridge
                self.cartridge = None
                self.position = 0.0
                self.last_client = None
                self.dismounts += 1
                if self._mount_span is not None:
                    self._mount_span.end()
                    self._mount_span = None
            done.succeed(cart)

        self.env.process(_proc(), name=f"{self.name}-unload")
        return done

    # -- data path ---------------------------------------------------------
    def _handoff_check(self, client: str) -> Iterable[Event]:
        """Rewind + re-verify label when the client node changes (§6.2)."""
        if (
            self.handoff_penalty
            and self.last_client is not None
            and client != self.last_client
        ):
            rt = self.spec.rewind_time(self.position)
            self.seek_seconds += rt
            yield self.env.timeout(rt)
            self.position = 0.0
            yield self.env.timeout(self.spec.label_verify)
            self.label_verifies += 1
            self.handoff_rewinds += 1
        self.last_client = client

    def _stream(self, client: str, nbytes: int, inbound: bool) -> Iterable[Event]:
        """Move *nbytes* between client node and the drive at native rate."""
        t0 = self.env.now
        if nbytes > 0:
            if self.fabric is not None and self.port is not None:
                src, dst = (client, self.port) if inbound else (self.port, client)
                yield self.fabric.transfer(
                    src, dst, nbytes, rate_cap=self.spec.native_rate,
                    tag=f"{self.name}",
                )
            else:
                yield self.env.timeout(nbytes / self.spec.native_rate)
        self.stream_seconds += self.env.now - t0

    def write_object(
        self, client: str, object_id: Any, nbytes: int
    ) -> Event:
        """Append one object (one transaction) at EOD.

        Each call pays a backhitch — this is the §6.1 behaviour: HSM issues
        one transaction per file, stopping the drive between files.
        Returns event -> :class:`TapeExtent`.
        """
        done = self.env.event()

        def _proc() -> Iterable[Event]:
            try:
                with self._ops.request() as op:
                    yield op
                    cart = self._require_cart()
                    tr = self.env.trace
                    span = tr.begin(
                        "drive:write", tid=self.name, cat="tape",
                        args={"oid": str(object_id), "nbytes": nbytes},
                    ) if tr.enabled else None
                    yield from self._handoff_check(client)
                    if self.position != cart.eod:
                        st = self.spec.locate_time(self.position, cart.eod)
                        self.seek_seconds += st
                        yield self.env.timeout(st)
                        self.position = cart.eod
                    self.backhitches += 1
                    yield self.env.timeout(self.spec.backhitch)
                    yield from self._stream(client, nbytes, inbound=True)
                    ext = cart.append(object_id, nbytes)
                    self.position = cart.eod
                    self.bytes_written += nbytes
                    if span is not None:
                        span.end()
            except SimulationError as exc:
                # deliver the fault to the waiter instead of crashing the
                # drive process — callers own the retry decision
                done.fail(exc)
                return
            done.succeed(ext)

        self.env.process(_proc(), name=f"{self.name}-write")
        return done

    def read_extent(self, client: str, extent: TapeExtent) -> Event:
        """Recall one extent: locate + stream.  Returns event -> extent.

        Reading the extent that starts exactly at the current head position
        skips the locate (sequential forward read — what PFTool's
        tape-ordering buys).
        """
        done = self.env.event()

        def _proc() -> Iterable[Event]:
            try:
                with self._ops.request() as op:
                    yield op
                    cart = self._require_cart()
                    if extent.volume != cart.volume:
                        raise SimulationError(
                            f"{self.name}: extent on {extent.volume} but "
                            f"{cart.volume} is mounted"
                        )
                    tr = self.env.trace
                    span = tr.begin(
                        "drive:read", tid=self.name, cat="tape",
                        args={"oid": str(extent.object_id),
                              "volume": extent.volume,
                              "seq": extent.seq,
                              "nbytes": extent.nbytes},
                    ) if tr.enabled else None
                    yield from self._handoff_check(client)
                    if self.position != extent.start_byte:
                        st = self.spec.locate_time(self.position, extent.start_byte)
                        self.seek_seconds += st
                        yield self.env.timeout(st)
                        self.position = float(extent.start_byte)
                    # else: the head is already there — back-to-back sequential
                    # reads keep the tape streaming (the win of ordered recall)
                    yield from self._stream(client, extent.nbytes, inbound=False)
                    self.position = float(extent.end_byte)
                    self.bytes_read += extent.nbytes
                    if span is not None:
                        span.end()
            except SimulationError as exc:
                done.fail(exc)
                return
            done.succeed(extent)

        self.env.process(_proc(), name=f"{self.name}-read")
        return done

    def _require_cart(self) -> TapeCartridge:
        if self.failed:
            raise DriveFault(f"{self.name}: drive has failed")
        if self.cartridge is None:
            raise SimulationError(f"{self.name}: no cartridge mounted")
        return self.cartridge

    def __repr__(self) -> str:
        vol = self.cartridge.volume if self.cartridge else "-"
        return f"<TapeDrive {self.name} vol={vol} pos={self.position/1e9:.2f}GB>"
