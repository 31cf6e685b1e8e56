"""The tape library: drives + robot + cartridge inventory + allocation.

Responsibilities:

* the **robot arm** is a shared resource; every mount/dismount pays an
  exchange time on it (so mount storms serialize);
* **drive allocation** — callers acquire a drive for a volume; the library
  prefers (1) a drive already mounted with that volume, (2) an idle empty
  drive, (3) the least-recently-used idle drive (dismounting its volume);
* **scratch selection** for writes, honouring TSM-style co-location
  groups: pick the filling volume of the group with room, else a fresh
  scratch volume;
* global statistics (mounts, exchanges, per-drive counters).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.netsim.fabric import Fabric
from repro.sim import Environment, Event, FilterStore, Resource, SimulationError
from repro.tapesim.cartridge import TapeCartridge, TapeExtent
from repro.tapesim.drive import TapeDrive, TapeSpec

__all__ = ["TapeLibrary"]


class TapeLibrary:
    """A robot library with *n* drives and a cartridge inventory.

    Parameters
    ----------
    env:
        Simulation environment.
    n_drives:
        Number of installed drives (paper: 24 LTO-4).
    fabric, drive_ports:
        Optional SAN fabric and one port node name per drive.
    spec:
        Drive timing spec shared by all drives.
    robot_exchange:
        Seconds the robot needs per cartridge move (fetch or stow).
    n_scratch:
        Size of the initial scratch pool.
    handoff_penalty:
        Passed through to the drives (see :class:`TapeDrive`).
    """

    def __init__(
        self,
        env: Environment,
        n_drives: int = 24,
        fabric: Optional[Fabric] = None,
        drive_ports: Optional[list[str]] = None,
        spec: TapeSpec = TapeSpec(),
        robot_exchange: float = 12.0,
        n_scratch: int = 500,
        handoff_penalty: bool = True,
    ) -> None:
        if n_drives < 1:
            raise SimulationError("library needs at least one drive")
        if drive_ports is not None and len(drive_ports) < n_drives:
            raise SimulationError("need one SAN port per drive")
        self.env = env
        self.spec = spec
        self.robot = Resource(env, capacity=1)
        self.robot_exchange = robot_exchange
        self.drives: list[TapeDrive] = [
            TapeDrive(
                env,
                f"drv{i:02d}",
                fabric=fabric,
                port=drive_ports[i] if drive_ports else None,
                spec=spec,
                handoff_penalty=handoff_penalty,
            )
            for i in range(n_drives)
        ]
        #: idle drives available for allocation
        self._idle: FilterStore = FilterStore(env)
        for d in self.drives:
            self._idle.put(d)
        self._vol_seq = itertools.count(1)
        self.cartridges: dict[str, TapeCartridge] = {}
        self.scratch: list[str] = []
        for _ in range(n_scratch):
            self._add_scratch()
        #: filling volume per co-location group
        self._filling: dict[Optional[str], str] = {}
        #: per-volume mount serialization
        self._vol_locks: dict[str, Resource] = {}
        #: drive id -> (volume, lock request) for held drives
        self._holders: dict[int, tuple[str, object]] = {}
        # stats
        self.robot_moves = 0
        metrics = env.metrics
        metrics.add("tapesim.mounts", lambda: self.total_mounts)
        metrics.add("tapesim.bytes_written",
                    lambda: sum(d.bytes_written for d in self.drives))
        metrics.add("tapesim.bytes_read",
                    lambda: sum(d.bytes_read for d in self.drives))
        metrics.add("tapesim.sim_seek_s", lambda: self.total_seek_seconds)
        metrics.add("tapesim.sim_stream_s",
                    lambda: sum(d.stream_seconds for d in self.drives))

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def _add_scratch(self) -> TapeCartridge:
        vol = f"A{next(self._vol_seq):05d}"
        cart = TapeCartridge(vol, capacity_bytes=self.spec.capacity)
        self.cartridges[vol] = cart
        self.scratch.append(vol)
        return cart

    def volume(self, vol: str) -> TapeCartridge:
        try:
            return self.cartridges[vol]
        except KeyError:
            raise SimulationError(f"unknown volume {vol!r}") from None

    def select_output_volume(
        self, nbytes: int, collocation_group: Optional[str] = None
    ) -> TapeCartridge:
        """Pick the volume a new object should be appended to.

        TSM-style: keep appending to the group's current filling volume
        while the object fits; otherwise take a scratch volume and bind it
        to the group.
        """
        filling = self._filling.get(collocation_group)
        if filling is not None:
            cart = self.cartridges[filling]
            if cart.fits(nbytes):
                return cart
        # need a new volume from scratch
        while self.scratch:
            vol = self.scratch.pop(0)
            cart = self.cartridges[vol]
            if cart.fits(nbytes):
                cart.collocation_group = collocation_group
                self._filling[collocation_group] = vol
                return cart
        # auto-extend the pool (sites buy media before running out)
        cart = self._add_scratch()
        self.scratch.remove(cart.volume)
        if not cart.fits(nbytes):
            raise SimulationError(
                f"object of {nbytes}B exceeds cartridge capacity "
                f"{cart.capacity_bytes:.0f}B"
            )
        cart.collocation_group = collocation_group
        self._filling[collocation_group] = cart.volume
        return cart

    # ------------------------------------------------------------------
    # drive allocation
    # ------------------------------------------------------------------
    def mounted_drive(self, vol: str) -> Optional[TapeDrive]:
        for d in self.drives:
            if d.cartridge is not None and d.cartridge.volume == vol:
                return d
        return None

    def _vol_lock(self, vol: str) -> Resource:
        lock = self._vol_locks.get(vol)
        if lock is None:
            lock = Resource(self.env, capacity=1)
            self._vol_locks[vol] = lock
        return lock

    def acquire_drive(self, vol: str) -> Event:
        """Acquire a drive with *vol* mounted; returns event -> TapeDrive.

        The caller must :meth:`release_drive` when done.  Mounting (robot +
        load) happens inside the acquisition, so the returned drive is
        ready for I/O on *vol*.  Acquisitions of the same volume are
        serialized (a cartridge exists exactly once).
        """
        done = self.env.event()
        cart = self.volume(vol)

        def _proc() -> Iterable[Event]:
            lock_req = self._vol_lock(vol).request()
            yield lock_req
            # Prefer a drive already holding the volume; else any idle
            # healthy one (failed drives sit in the pool until repaired).
            get_pref = self._idle.get(
                lambda d: not d.failed
                and d.cartridge is not None
                and d.cartridge.volume == vol
            )
            get_any = self._idle.get(lambda d: not d.failed)
            yield get_pref | get_any
            if get_pref.triggered:
                drive: TapeDrive = get_pref.value
                if get_any.triggered:  # grabbed a second drive: give it back
                    self._idle.put(get_any.value)
                else:
                    get_any.cancel()  # withdraw before it can grab a drive
            else:
                drive = get_any.value
                get_pref.cancel()  # withdraw before it can grab a drive
            tr = self.env.trace
            if drive.cartridge is not None and drive.cartridge.volume != vol:
                # Dismount the stale volume first and stow it.
                yield drive.unload()
                with self.robot.request() as arm:
                    yield arm
                    yield self.env.timeout(self.robot_exchange)
                    self.robot_moves += 1
                if tr.enabled:
                    tr.instant("robot:stow", tid=drive.name, cat="tape",
                               args={"volume": vol})
            if drive.cartridge is None:
                with self.robot.request() as arm:
                    yield arm
                    yield self.env.timeout(self.robot_exchange)
                    self.robot_moves += 1
                if tr.enabled:
                    tr.instant("robot:fetch", tid=drive.name, cat="tape",
                               args={"volume": vol})
                yield drive.load(cart)
            self._holders[id(drive)] = (vol, lock_req)
            done.succeed(drive)

        self.env.process(_proc(), name=f"acquire-{vol}")
        return done

    def release_drive(self, drive: TapeDrive) -> None:
        """Return a drive to the idle pool (volume stays mounted — lazy
        dismount lets the next user of the same volume skip the mount)."""
        held = self._holders.pop(id(drive), None)
        if held is not None:
            vol, lock_req = held
            self._vol_locks[vol].release(lock_req)
        self._idle.put(drive)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_drive(self, name: str) -> "TapeDrive":
        """Mark a drive failed.  In-flight operations finish; subsequent
        operations error, and the allocator skips it until repaired.
        A cartridge stuck in the failed drive stays inaccessible (the
        realistic operational pain)."""
        drive = self._drive_by_name(name)
        drive.failed = True
        return drive

    def repair_drive(self, name: str) -> "TapeDrive":
        """Clear the fault; the drive becomes allocatable again."""
        drive = self._drive_by_name(name)
        if drive.failed:
            drive.failed = False
            # poke the idle store: waiters' filters re-evaluate on put/get
            # cycles, so re-inject the drive if it is sitting idle.
            if drive in self._idle.items:
                self._idle.items.remove(drive)
                self._idle.put(drive)
        return drive

    def _drive_by_name(self, name: str) -> "TapeDrive":
        for d in self.drives:
            if d.name == name:
                return d
        raise SimulationError(f"no drive named {name!r}")

    @property
    def healthy_drives(self) -> list["TapeDrive"]:
        return [d for d in self.drives if not d.failed]

    # ------------------------------------------------------------------
    # aggregate stats
    # ------------------------------------------------------------------
    @property
    def total_mounts(self) -> int:
        return sum(d.mounts for d in self.drives)

    @property
    def total_label_verifies(self) -> int:
        return sum(d.label_verifies for d in self.drives)

    @property
    def total_handoff_rewinds(self) -> int:
        return sum(d.handoff_rewinds for d in self.drives)

    @property
    def total_backhitches(self) -> int:
        return sum(d.backhitches for d in self.drives)

    @property
    def total_seek_seconds(self) -> float:
        return sum(d.seek_seconds for d in self.drives)

    @property
    def bytes_on_tape(self) -> int:
        return sum(c.live_bytes for c in self.cartridges.values())

    def find_extent(self, object_id) -> Optional[TapeExtent]:
        """Exhaustive inventory scan (the slow path PFTool's tape DB avoids)."""
        for cart in self.cartridges.values():
            ext = cart.extent_of(object_id)
            if ext is not None:
                return ext
        return None

    def __repr__(self) -> str:
        mounted = sum(1 for d in self.drives if d.loaded)
        return (
            f"<TapeLibrary drives={len(self.drives)} mounted={mounted} "
            f"volumes={len(self.cartridges)} scratch={len(self.scratch)}>"
        )
