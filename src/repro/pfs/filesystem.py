"""The GPFS facade: namespace + pools + striping + timed data path.

Data operations are simulation events.  A write from client node *C*
stripes the byte range over the file's pool, and for each slice runs the
network hop (C -> NSD server) and the array I/O **in parallel** — the
fluid approximation of GPFS's pipelined NSD protocol.  Reads are
symmetric.  Reads of HSM *stubs* first invoke the registered recall
handler (the DMAPI mount-point event mechanism TSM HSM uses).

The facade also exposes the hook points the archive's glue code needs:
``on_unlink`` (synchronous-delete tracking), ``on_overwrite`` (orphan
detection / FUSE interception), and ``punch_stub`` / ``restore_data``
for the HSM manager.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from repro.netsim.fabric import Fabric
from repro.pfs.inode import HsmState, Inode
from repro.pfs.namespace import Namespace, PathError
from repro.pfs.policy import PolicyEngine
from repro.pfs.pools import StoragePool
from repro.pfs.striping import StripeLayout
from repro.sim import AllOf, Environment, Event, Resource, SimulationError

__all__ = ["GpfsFileSystem"]

class GpfsFileSystem:
    """A mounted parallel file system instance.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Mount label, e.g. ``"archive-gpfs"`` or ``"scratch-panfs"``.
    fabric:
        Site fabric for client<->server hops (None = charge arrays only).
    metadata_op_time:
        Simulated cost of one metadata RPC (create/stat/unlink).  GPFS
        metadata ops on the archive cluster are sub-millisecond.
    block_size:
        Stripe unit.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        fabric: Optional[Fabric] = None,
        metadata_op_time: float = 0.0005,
        block_size: int = 4 * 1024 * 1024,
        shared_write_bw: float = 1.5e9,
    ) -> None:
        self.env = env
        self.name = name
        self.fabric = fabric
        self.metadata_op_time = metadata_op_time
        self.block_size = block_size
        #: aggregate ceiling for concurrent writers of ONE file — the
        #: shared-file (N-to-1) serialization of block allocation and
        #: token revocation the paper's §4.1.2(4) works around with
        #: ArchiveFUSE (cf. the PLFS reference [23]).  Writers of one
        #: inode serialize on a lock held for nbytes/shared_write_bw.
        self.shared_write_bw = shared_write_bw
        self._write_locks: dict[int, Resource] = {}
        self.namespace = Namespace(
            now=env.now, next_ino=partial(env.next_id, "ino")
        )
        self.pools: dict[str, StoragePool] = {}
        self.policy = PolicyEngine(env, self.namespace)
        #: recall handler: (path, inode, client) -> Event (set by HSM)
        self.recall_handler: Optional[Callable[[str, Inode, str], Event]] = None
        #: observers of destructive ops
        self.on_unlink: list[Callable[[str, Inode], None]] = []
        self.on_overwrite: list[Callable[[str, Inode, Optional[int]], None]] = []
        #: fault-injection hook, called as ``hook(op, client, path)`` at
        #: the start of every timed data op; a returned exception fails
        #: the op's event (see :mod:`repro.faults`)
        self.fault_hook: Optional[
            Callable[[str, str, str], Optional[BaseException]]
        ] = None
        # counters
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.recalls_triggered = 0
        self.faults_injected = 0

    # ------------------------------------------------------------------
    # pools
    # ------------------------------------------------------------------
    def add_pool(self, pool: StoragePool, default: bool = False) -> StoragePool:
        if pool.name in self.pools:
            raise SimulationError(f"duplicate pool {pool.name!r}")
        self.pools[pool.name] = pool
        if default or self.policy.default_pool is None:
            self.policy.default_pool = pool.name
        return pool

    def pool(self, name: str) -> StoragePool:
        try:
            return self.pools[name]
        except KeyError:
            raise SimulationError(f"{self.name}: unknown pool {name!r}") from None

    def pool_occupancy(self, name: str) -> float:
        return self.pool(name).occupancy

    def pool_capacity(self, name: str) -> float:
        return self.pool(name).capacity_bytes

    # ------------------------------------------------------------------
    # synchronous metadata (no simulated time — callers charge it)
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Inode:
        return self.namespace.lookup(path)

    def exists(self, path: str) -> bool:
        return self.namespace.exists(path)

    def mkdir(self, path: str, parents: bool = False) -> Inode:
        return self.namespace.mkdir(path, self.env.now, parents=parents)

    def readdir(self, path: str) -> list[tuple[str, Inode]]:
        return self.namespace.readdir(path)

    def walk(self, path: str = "/"):
        return self.namespace.walk(path)

    def rename(self, src: str, dst: str) -> Inode:
        return self.namespace.rename(src, dst)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _injected_fault(
        self, op: str, client: str, path: str
    ) -> Optional[BaseException]:
        """Ask the hook whether this op should fail; count if so."""
        if self.fault_hook is None:
            return None
        exc = self.fault_hook(op, client, path)
        if exc is not None:
            self.faults_injected += 1
        return exc

    # ------------------------------------------------------------------
    # timed metadata ops
    # ------------------------------------------------------------------
    def stat_op(self, path: str) -> Event:
        """Timed stat; event fires with the inode (or fails PathError)."""
        done = self.env.event()

        def _proc():
            if self.metadata_op_time:
                yield self.env.timeout(self.metadata_op_time)
            exc = self._injected_fault("stat", "", path)
            if exc is not None:
                done.fail(exc)
                return
            try:
                done.succeed(self.namespace.lookup(path))
            except PathError as exc:
                done.fail(exc)

        self.env.process(_proc(), name=f"stat {path}")
        return done

    def unlink_op(self, path: str) -> Event:
        """Timed unlink with observer callbacks; fires with the inode."""
        done = self.env.event()

        def _proc():
            if self.metadata_op_time:
                yield self.env.timeout(self.metadata_op_time)
            try:
                inode = self._unlink_now(path)
            except PathError as exc:
                done.fail(exc)
                return
            done.succeed(inode)

        self.env.process(_proc(), name=f"unlink {path}")
        return done

    def _unlink_now(self, path: str) -> Inode:
        inode = self.namespace.lookup(path)
        self.namespace.unlink(path)
        if inode.is_file:
            self._free_allocation(inode)
        for cb in self.on_unlink:
            cb(path, inode)
        return inode

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def write_file(
        self,
        client: str,
        path: str,
        nbytes: int,
        pool: Optional[str] = None,
        token: Optional[int] = None,
        uid: str = "root",
    ) -> Event:
        """Create-or-overwrite *path* with *nbytes* of data from *client*.

        Event fires with the inode.  Overwriting a file that has a tape
        copy notifies ``on_overwrite`` observers with the stale TSM object
        id (the §6.3 orphan problem).
        """
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        done = self.env.event()

        def _proc():
            if self.metadata_op_time:
                yield self.env.timeout(self.metadata_op_time)
            exc = self._injected_fault("write", client, path)
            if exc is not None:
                done.fail(exc)
                return
            try:
                inode = self.namespace.lookup(path)
                if inode.is_dir:
                    raise SimulationError(f"is a directory: {path!r}")
                stale = inode.tsm_object_id
                if stale is not None or inode.hsm_state is not HsmState.RESIDENT:
                    for cb in self.on_overwrite:
                        cb(path, inode, stale)
                    inode.tsm_object_id = None
                self._free_allocation(inode)
                inode.xattrs.pop("__chunks_done__", None)
            except PathError:
                inode = self.namespace.create(path, self.env.now, uid=uid)
            inode.size = int(nbytes)  # placement rules may inspect the size
            pool_name = pool or self.policy.place(path, inode, self.env.now)
            if pool_name is None:
                done.fail(SimulationError(f"{self.name}: no pool for {path!r}"))
                return
            target = self.pool(pool_name)
            inode.pool = pool_name
            self._allocate(inode, target, nbytes)
            yield from self._move_data(client, target, inode, nbytes, write=True)
            fresh = self.env.next_id("token", 0x517E) if token is None else token
            inode.touch_data(self.env.now, nbytes, fresh)
            self.bytes_written += nbytes
            done.succeed(inode)

        self.env.process(_proc(), name=f"write {path}")
        return done

    def read_file(self, client: str, path: str) -> Event:
        """Read the whole file to *client*; fires with (inode, token).

        Reading a MIGRATED stub triggers the registered recall handler
        first (DMAPI read event), then streams from disk.
        """
        done = self.env.event()

        def _proc():
            if self.metadata_op_time:
                yield self.env.timeout(self.metadata_op_time)
            fault = self._injected_fault("read", client, path)
            if fault is not None:
                done.fail(fault)
                return
            try:
                inode = self.namespace.lookup(path)
            except PathError as exc:
                done.fail(exc)
                return
            if inode.is_dir:
                done.fail(SimulationError(f"is a directory: {path!r}"))
                return
            if inode.is_stub:
                if self.recall_handler is None:
                    done.fail(
                        SimulationError(
                            f"{path!r} is migrated and no recall handler is set"
                        )
                    )
                    return
                self.recalls_triggered += 1
                yield self.recall_handler(path, inode, client)
                if inode.is_stub:
                    done.fail(
                        SimulationError(f"recall did not restore {path!r}")
                    )
                    return
            pool_name = inode.pool
            if pool_name is None:  # empty file, never written
                inode.atime = self.env.now
                done.succeed((inode, inode.content_token))
                return
            target = self.pool(pool_name)
            yield from self._move_data(
                client, target, inode, inode.size, write=False
            )
            inode.atime = self.env.now
            self.bytes_read += inode.size
            done.succeed((inode, inode.content_token))

        self.env.process(_proc(), name=f"read {path}")
        return done

    def _move_wrapper(self, client, pool, inode, nbytes, write, offset):
        yield from self._move_data(client, pool, inode, nbytes, write=write,
                                   offset=offset)

    def _move_data(
        self,
        client: str,
        pool: StoragePool,
        inode: Inode,
        nbytes: int,
        write: bool,
        offset: int = 0,
    ) -> Iterable[Event]:
        """Stripe *nbytes* over *pool* and run net+disk I/O in parallel."""
        if nbytes <= 0:
            return
        layout = StripeLayout(len(pool.arrays), self.block_size)
        events: list[Event] = []
        for sl in layout.slices(inode.ino, offset, nbytes):
            array = pool.arrays[sl.array_index]
            server = pool.server_of(sl.array_index)
            if write:
                events.append(array.write(sl.nbytes, tag=inode.ino))
            else:
                events.append(array.read(sl.nbytes, tag=inode.ino))
            if self.fabric is not None and server is not None and client != server:
                if write:
                    events.append(
                        self.fabric.transfer(client, server, sl.nbytes, tag=inode.ino)
                    )
                else:
                    events.append(
                        self.fabric.transfer(server, client, sl.nbytes, tag=inode.ino)
                    )
        if events:
            yield AllOf(self.env, events)

    # ------------------------------------------------------------------
    # range I/O (PFTool's chunked parallel copies)
    # ------------------------------------------------------------------
    def create_sized(
        self,
        path: str,
        nbytes: int,
        pool: Optional[str] = None,
        uid: str = "root",
    ) -> Event:
        """Create *path* with space for *nbytes* but move no data yet.

        Used by parallel copies: the destination is created once, then N
        workers fill disjoint ranges with :meth:`write_range`.  Fires
        with the inode.
        """
        done = self.env.event()

        def _proc():
            if self.metadata_op_time:
                yield self.env.timeout(self.metadata_op_time)
            exc = self._injected_fault("create", "", path)
            if exc is not None:
                done.fail(exc)
                return
            try:
                inode = self.namespace.lookup(path)
                if inode.is_dir:
                    raise SimulationError(f"is a directory: {path!r}")
                stale = inode.tsm_object_id
                if stale is not None or inode.hsm_state is not HsmState.RESIDENT:
                    for cb in self.on_overwrite:
                        cb(path, inode, stale)
                    inode.tsm_object_id = None
                self._free_allocation(inode)
                inode.xattrs.pop("__chunks_done__", None)
            except PathError:
                inode = self.namespace.create(path, self.env.now, uid=uid)
            inode.size = int(nbytes)  # placement rules may inspect the size
            pool_name = pool or self.policy.place(path, inode, self.env.now)
            if pool_name is None:
                done.fail(SimulationError(f"{self.name}: no pool for {path!r}"))
                return
            target = self.pool(pool_name)
            inode.pool = pool_name
            self._allocate(inode, target, nbytes)
            inode.hsm_state = HsmState.RESIDENT
            inode.mtime = self.env.now
            # A sized create is a full-size *hole* until the copy that
            # provisioned it stamps completion (set_token).  Restart
            # logic must not mistake it for finished data.
            inode.xattrs["__inflight__"] = True
            done.succeed(inode)

        self.env.process(_proc(), name=f"create-sized {path}")
        return done

    def read_range(self, client: str, path: str, offset: int, nbytes: int) -> Event:
        """Read ``[offset, offset+nbytes)`` to *client*; fires with inode.

        Unlike :meth:`read_file` this never triggers a recall — chunked
        readers must ensure residency first (PFTool does, via its tape
        queues).
        """
        return self._range_io(client, path, offset, nbytes, write=False)

    def write_range(self, client: str, path: str, offset: int, nbytes: int) -> Event:
        """Fill ``[offset, offset+nbytes)`` from *client*; fires with inode.

        The file must have been provisioned with :meth:`create_sized`.
        """
        return self._range_io(client, path, offset, nbytes, write=True)

    def _range_io(
        self, client: str, path: str, offset: int, nbytes: int, write: bool
    ) -> Event:
        if offset < 0 or nbytes < 0:
            raise SimulationError("offset/nbytes must be non-negative")
        done = self.env.event()

        def _proc():
            fault = self._injected_fault("write" if write else "read", client, path)
            if fault is not None:
                done.fail(fault)
                return
            try:
                inode = self.namespace.lookup(path)
            except PathError as exc:
                done.fail(exc)
                return
            if not inode.is_file:
                done.fail(SimulationError(f"not a file: {path!r}"))
                return
            if inode.is_stub:
                done.fail(
                    SimulationError(
                        f"range I/O on migrated stub {path!r} (recall it first)"
                    )
                )
                return
            if offset + nbytes > inode.size:
                done.fail(
                    SimulationError(
                        f"range [{offset}, {offset + nbytes}) beyond EOF "
                        f"of {path!r} (size {inode.size})"
                    )
                )
                return
            if inode.pool is None:
                done.succeed(inode)
                return
            target = self.pool(inode.pool)
            if write and self.shared_write_bw and nbytes > 0:
                # run the serialized shared-file critical section and the
                # data movement concurrently: a lone writer is unaffected,
                # N-to-1 writers aggregate-cap at shared_write_bw.
                lock = self._write_locks.get(inode.ino)
                if lock is None:
                    lock = Resource(self.env, capacity=1)
                    self._write_locks[inode.ino] = lock

                def _critical():
                    with lock.request() as rq:
                        yield rq
                        yield self.env.timeout(nbytes / self.shared_write_bw)

                crit = self.env.process(_critical(), name=f"wlock {path}")
                move = self.env.process(
                    self._move_wrapper(client, target, inode, nbytes, write, offset),
                    name=f"wmove {path}",
                )
                yield AllOf(self.env, [crit, move])
            else:
                yield from self._move_data(
                    client, target, inode, nbytes, write=write, offset=offset
                )
            if write:
                inode.mtime = self.env.now
                self.bytes_written += nbytes
            else:
                inode.atime = self.env.now
                self.bytes_read += nbytes
            done.succeed(inode)

        self.env.process(_proc(), name=f"rangeio {path}")
        return done

    def set_token(self, path: str, token: int) -> None:
        """Stamp the content fingerprint (copy completion)."""
        inode = self.namespace.lookup(path)
        inode.content_token = token
        inode.xattrs.pop("__inflight__", None)

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def _allocate(self, inode: Inode, pool: StoragePool, nbytes: int) -> None:
        layout = StripeLayout(len(pool.arrays), self.block_size)
        alloc: list[tuple[str, int, int]] = []
        for sl in layout.slices(inode.ino, 0, nbytes):
            pool.arrays[sl.array_index].allocate(sl.nbytes)
            alloc.append((pool.name, sl.array_index, sl.nbytes))
        inode.xattrs["__alloc__"] = alloc

    def _free_allocation(self, inode: Inode) -> None:
        for pool_name, idx, n in inode.xattrs.pop("__alloc__", []):
            pool = self.pools.get(pool_name)
            if pool is not None and idx < len(pool.arrays):
                pool.arrays[idx].free(n)

    # ------------------------------------------------------------------
    # HSM integration (DMAPI-ish)
    # ------------------------------------------------------------------
    def punch_stub(self, path: str) -> Inode:
        """Free the disk blocks of a (pre)migrated file, leaving a stub."""
        inode = self.namespace.lookup(path)
        if not inode.is_file:
            raise SimulationError(f"punch_stub: not a file: {path!r}")
        if inode.tsm_object_id is None:
            raise SimulationError(
                f"punch_stub: {path!r} has no tape copy (would lose data)"
            )
        self._free_allocation(inode)
        inode.hsm_state = HsmState.MIGRATED
        return inode

    def mark_premigrated(self, path: str, tsm_object_id: int) -> Inode:
        """Record that a tape copy now exists while data stays on disk."""
        inode = self.namespace.lookup(path)
        inode.tsm_object_id = tsm_object_id
        inode.hsm_state = HsmState.PREMIGRATED
        return inode

    def restore_data(self, path: str, pool: Optional[str] = None) -> Inode:
        """Re-materialise a stub's data on disk after a recall."""
        inode = self.namespace.lookup(path)
        if not inode.is_stub:
            return inode
        pool_name = pool or inode.pool or self.policy.default_pool
        if pool_name is None:
            raise SimulationError(f"restore_data: no pool for {path!r}")
        target = self.pool(pool_name)
        self._allocate(inode, target, inode.size)
        inode.pool = pool_name
        inode.hsm_state = HsmState.PREMIGRATED
        return inode

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<GpfsFileSystem {self.name!r} files={self.namespace.n_files} "
            f"pools={sorted(self.pools)}>"
        )
