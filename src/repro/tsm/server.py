"""The TSM server: object DB, sessions, LAN vs LAN-free data movement.

Model scope (matching what the paper exercises):

* every store/retrieve/delete is a **metadata transaction** on the single
  server (bounded concurrency + per-transaction latency — the "single TSM
  server" limitation of §6.4);
* stores pick an output volume honouring **co-location groups**, acquire
  a drive from the library, and stream data;
* **LAN-free** sessions stream client -> drive over the SAN; plain LAN
  sessions relay through the server node, whose single NIC then becomes
  the aggregate bottleneck;
* **aggregation**: many small files can be stored as one tape object
  (one transaction, one backhitch) with member offsets recorded — the
  §6.1 fix;
* the object DB rows are exportable for the MySQL-substitute index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.sim import Environment, Event, Resource, SimulationError
from repro.tapesim import TapeExtent, TapeLibrary
from repro.tapedb.engine import Table

__all__ = ["StoredObject", "TsmServer", "TsmSession"]


@dataclass(frozen=True)
class StoredObject:
    """Receipt for one object on tape."""

    object_id: int
    filespace: str
    path: str
    nbytes: int
    volume: str
    seq: int
    #: aggregate container id when this row is a member of an aggregate
    aggregate_id: Optional[int] = None
    #: byte offset inside the aggregate
    offset: int = 0


class TsmSession:
    """A client session (one per node in practice).

    ``lan_free=True`` gives the direct SAN data path; otherwise data is
    relayed through the server node.
    """

    def __init__(self, server: "TsmServer", client_node: str, lan_free: bool = True):
        self.server = server
        self.client_node = client_node
        self.lan_free = lan_free

    # Convenience passthroughs -------------------------------------------------
    def store(
        self,
        filespace: str,
        path: str,
        nbytes: int,
        collocation_group: Optional[str] = None,
    ) -> Event:
        return self.server.store_objects(
            self, filespace, [(path, nbytes)], collocation_group
        )

    def store_many(
        self,
        filespace: str,
        items: Sequence[tuple[str, int]],
        collocation_group: Optional[str] = None,
    ) -> Event:
        return self.server.store_objects(self, filespace, items, collocation_group)

    def store_aggregate(
        self,
        filespace: str,
        items: Sequence[tuple[str, int]],
        collocation_group: Optional[str] = None,
    ) -> Event:
        return self.server.store_aggregate(self, filespace, items, collocation_group)

    def retrieve(self, object_id: int) -> Event:
        return self.server.retrieve_objects(self, [object_id])

    def retrieve_many(self, object_ids: Sequence[int]) -> Event:
        return self.server.retrieve_objects(self, object_ids)

    def __repr__(self) -> str:
        mode = "LAN-free" if self.lan_free else "LAN"
        return f"<TsmSession {self.client_node} {mode}>"


class TsmServer:
    """The single archive/backup server instance.

    Parameters
    ----------
    env:
        Simulation environment.
    library:
        The tape library it owns.
    server_node:
        Fabric node name of the server (for LAN data relays).  May be
        None when the library has no fabric (pure-logic tests).
    txn_time:
        Metadata transaction latency (seconds).
    txn_concurrency:
        Concurrent metadata transactions the DB sustains.
    """

    def __init__(
        self,
        env: Environment,
        library: TapeLibrary,
        server_node: Optional[str] = None,
        txn_time: float = 0.005,
        txn_concurrency: int = 32,
    ) -> None:
        self.env = env
        self.library = library
        self.server_node = server_node
        self.txn_time = txn_time
        self._txns = Resource(env, capacity=txn_concurrency)
        self._oid = itertools.count(1)
        self._agg_id = itertools.count(1)
        self.objects = Table(
            "tsm_objects",
            columns=(
                "object_id",
                "filespace",
                "path",
                "nbytes",
                "volume",
                "seq",
                "aggregate_id",
                "offset",
                "active",
            ),
            primary_key="object_id",
        )
        self.objects.create_index("by_path", ("filespace", "path"))
        #: aggregate container id -> tape object id holding it
        self._aggregates: dict[int, int] = {}
        #: fault-injection hook: called as ``hook(op, object_id)`` per
        #: retrieve; a returned exception fails that retrieve (see
        #: :mod:`repro.faults`)
        self.fault_hook: Optional[Callable[[str, Any], Optional[BaseException]]] = None
        # stats
        self.transactions = 0
        self.objects_stored = 0
        self.objects_recalled = 0
        self.bytes_stored = 0.0
        self.bytes_retrieved = 0.0
        self.faults_injected = 0
        env.metrics.add("tsm.transactions", lambda: self.transactions)
        env.metrics.add("tsm.objects_stored", lambda: self.objects_stored)
        env.metrics.add("tsm.objects_recalled", lambda: self.objects_recalled)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(self, client_node: str, lan_free: bool = True) -> TsmSession:
        return TsmSession(self, client_node, lan_free)

    # ------------------------------------------------------------------
    # metadata transactions
    # ------------------------------------------------------------------
    def _txn(self) -> Iterable[Event]:
        with self._txns.request() as req:
            yield req
            yield self.env.timeout(self.txn_time)
        self.transactions += 1

    # ------------------------------------------------------------------
    # data path helpers
    # ------------------------------------------------------------------
    def _data_source_node(self, session: TsmSession) -> str:
        """Node the tape drive sees as its I/O peer."""
        if session.lan_free or self.server_node is None:
            return session.client_node
        return self.server_node

    def _lan_relay(
        self, session: TsmSession, nbytes: int, to_server: bool
    ) -> Optional[Event]:
        """Extra LAN hop for non-LAN-free sessions (client <-> server)."""
        if session.lan_free or self.server_node is None:
            return None
        fab = self.library.drives[0].fabric
        if fab is None or session.client_node == self.server_node:
            return None
        if to_server:
            return fab.transfer(session.client_node, self.server_node, nbytes)
        return fab.transfer(self.server_node, session.client_node, nbytes)

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------
    def store_objects(
        self,
        session: TsmSession,
        filespace: str,
        items: Sequence[tuple[str, int]],
        collocation_group: Optional[str] = None,
    ) -> Event:
        """Store each item as its own tape object (one transaction per
        file — the §6.1 behaviour).  Holds one drive for the batch.

        Event fires with ``list[StoredObject]``.
        """
        items = list(items)
        done = self.env.event()
        if not items:
            done.succeed([])
            return done

        def _proc():
            try:
                yield from _body()
            except SimulationError as exc:
                # deliver the failure to the caller; a crashed server
                # process would wedge every rank waiting on this event
                if not done.triggered:
                    done.fail(exc)

        def _body():
            receipts: list[StoredObject] = []
            idx = 0
            while idx < len(items):
                path, nbytes = items[idx]
                volume = self.library.select_output_volume(
                    int(nbytes), collocation_group
                )
                drive = yield self.library.acquire_drive(volume.volume)
                try:
                    # Write while objects keep fitting on this volume.
                    while idx < len(items):
                        path, nbytes = items[idx]
                        nbytes = int(nbytes)
                        if not drive.cartridge.fits(nbytes):
                            break
                        tr = self.env.trace
                        span = tr.begin(
                            "tsm:store", tid=drive.name, cat="tsm",
                            args={"path": path, "nbytes": nbytes},
                        ) if tr.enabled else None
                        yield from self._txn()
                        oid = next(self._oid)
                        relay = self._lan_relay(session, nbytes, to_server=True)
                        write = drive.write_object(
                            self._data_source_node(session), oid, nbytes
                        )
                        if relay is not None:
                            yield relay & write
                        else:
                            ext: TapeExtent = yield write
                        ext = write.value
                        if span is not None:
                            span.end(oid=oid, volume=ext.volume, seq=ext.seq)
                        self.objects_stored += 1
                        self.objects.insert(
                            {
                                "object_id": oid,
                                "filespace": filespace,
                                "path": path,
                                "nbytes": nbytes,
                                "volume": ext.volume,
                                "seq": ext.seq,
                                "aggregate_id": None,
                                "offset": 0,
                                "active": True,
                            }
                        )
                        self.bytes_stored += nbytes
                        receipts.append(
                            StoredObject(oid, filespace, path, nbytes, ext.volume, ext.seq)
                        )
                        idx += 1
                finally:
                    self.library.release_drive(drive)
            done.succeed(receipts)

        self.env.process(_proc(), name="tsm-store")
        return done

    def store_aggregate(
        self,
        session: TsmSession,
        filespace: str,
        items: Sequence[tuple[str, int]],
        collocation_group: Optional[str] = None,
    ) -> Event:
        """Bundle *items* into one tape object (single transaction).

        This is the aggregation fix for small-file migration: the tape
        streams the whole bundle with a single backhitch.  Event fires
        with ``list[StoredObject]`` (one receipt per member, all sharing
        the aggregate's volume/seq).
        """
        items = list(items)
        done = self.env.event()
        if not items:
            done.succeed([])
            return done
        total = int(sum(n for _, n in items))

        def _proc():
            try:
                yield from _body()
            except SimulationError as exc:
                if not done.triggered:
                    done.fail(exc)

        def _body():
            volume = self.library.select_output_volume(total, collocation_group)
            drive = yield self.library.acquire_drive(volume.volume)
            try:
                tr = self.env.trace
                span = tr.begin(
                    "tsm:store", tid=drive.name, cat="tsm",
                    args={"members": len(items), "nbytes": total},
                ) if tr.enabled else None
                yield from self._txn()
                agg_id = next(self._agg_id)
                agg_oid = next(self._oid)
                relay = self._lan_relay(session, total, to_server=True)
                write = drive.write_object(
                    self._data_source_node(session), agg_oid, total
                )
                if relay is not None:
                    yield relay & write
                else:
                    yield write
                ext: TapeExtent = write.value
                if span is not None:
                    span.end(oid=agg_oid, volume=ext.volume, seq=ext.seq)
                self.objects_stored += len(items)
                self._aggregates[agg_id] = agg_oid
                receipts = []
                offset = 0
                for path, nbytes in items:
                    nbytes = int(nbytes)
                    oid = next(self._oid)
                    self.objects.insert(
                        {
                            "object_id": oid,
                            "filespace": filespace,
                            "path": path,
                            "nbytes": nbytes,
                            "volume": ext.volume,
                            "seq": ext.seq,
                            "aggregate_id": agg_id,
                            "offset": offset,
                            "active": True,
                        }
                    )
                    receipts.append(
                        StoredObject(
                            oid, filespace, path, nbytes, ext.volume, ext.seq,
                            aggregate_id=agg_id, offset=offset,
                        )
                    )
                    offset += nbytes
                self.bytes_stored += total
            finally:
                self.library.release_drive(drive)
            done.succeed(receipts)

        self.env.process(_proc(), name="tsm-store-agg")
        return done

    # ------------------------------------------------------------------
    # retrieve
    # ------------------------------------------------------------------
    def locate(self, object_id: int) -> Optional[StoredObject]:
        row = self.objects.get(object_id)
        if row is None or not row["active"]:
            return None
        return StoredObject(
            row["object_id"], row["filespace"], row["path"], row["nbytes"],
            row["volume"], row["seq"], row["aggregate_id"], row["offset"],
        )

    def retrieve_objects(
        self, session: TsmSession, object_ids: Sequence[int]
    ) -> Event:
        """Recall objects in the order given (no reordering here — recall
        ordering is the *caller's* job, which is the whole point of
        PFTool's tape-order optimisation).  Event fires with
        ``list[StoredObject]`` actually delivered.
        """
        done = self.env.event()
        ids = list(object_ids)

        def _proc():
            try:
                yield from _body()
            except SimulationError as exc:
                if not done.triggered:
                    done.fail(exc)

        def _body():
            delivered: list[StoredObject] = []
            i = 0
            while i < len(ids):
                obj = self.locate(ids[i])
                if obj is None:
                    raise SimulationError(f"TSM object {ids[i]} not found/inactive")
                drive = yield self.library.acquire_drive(obj.volume)
                try:
                    while i < len(ids):
                        obj = self.locate(ids[i])
                        if obj is None:
                            raise SimulationError(
                                f"TSM object {ids[i]} not found/inactive"
                            )
                        if obj.volume != drive.cartridge.volume:
                            break  # next object needs another volume
                        self._check_fault("retrieve", obj.object_id)
                        tr = self.env.trace
                        span = tr.begin(
                            "tsm:recall", tid=drive.name, cat="tsm",
                            args={"oid": obj.object_id, "volume": obj.volume,
                                  "seq": obj.seq, "nbytes": obj.nbytes},
                        ) if tr.enabled else None
                        yield from self._txn()
                        extent = self._extent_for(obj, drive)
                        read = drive.read_extent(
                            self._data_source_node(session), extent
                        )
                        relay = self._lan_relay(session, obj.nbytes, to_server=False)
                        if relay is not None:
                            yield relay & read
                        else:
                            yield read
                        self.bytes_retrieved += obj.nbytes
                        delivered.append(obj)
                        i += 1
                        self.objects_recalled += 1
                        if span is not None:
                            span.end()
                finally:
                    self.library.release_drive(drive)
            done.succeed(delivered)

        self.env.process(_proc(), name="tsm-retrieve")
        return done

    def _check_fault(self, op: str, object_id: Any) -> None:
        """Raise an injected fault for (op, object) when a hook says so."""
        if self.fault_hook is None:
            return
        exc = self.fault_hook(op, object_id)
        if exc is not None:
            self.faults_injected += 1
            raise exc

    def _extent_for(self, obj: StoredObject, drive) -> TapeExtent:
        cart = drive.cartridge
        if obj.aggregate_id is not None:
            agg_oid = self._aggregates[obj.aggregate_id]
            ext = cart.extent_of(agg_oid)
            if ext is None:
                raise SimulationError(
                    f"aggregate {obj.aggregate_id} missing from {cart.volume}"
                )
            # Reading one member still positions to the aggregate and reads
            # from its offset; we charge the member bytes from that offset.
            return TapeExtent(
                ext.volume, ext.seq, ext.start_byte + obj.offset,
                obj.nbytes, obj.object_id,
            )
        ext = cart.extent_of(obj.object_id)
        if ext is None:
            raise SimulationError(f"object {obj.object_id} missing from {cart.volume}")
        return ext

    # ------------------------------------------------------------------
    # delete / reconcile support
    # ------------------------------------------------------------------
    def delete_object(self, object_id: int) -> Event:
        """Delete an object (metadata txn + cartridge bookkeeping)."""
        done = self.env.event()

        def _proc():
            yield from self._txn()
            row = self.objects.get(object_id)
            if row is None:
                done.succeed(False)
                return
            self.objects.delete(object_id)
            if row["aggregate_id"] is None:
                cart = self.library.cartridges.get(row["volume"])
                if cart is not None:
                    cart.remove(object_id)
            done.succeed(True)

        self.env.process(_proc(), name="tsm-delete")
        return done

    # ------------------------------------------------------------------
    # space reclamation
    # ------------------------------------------------------------------
    def reclaimable_volumes(self, utilization_threshold: float = 0.5) -> list[str]:
        """Volumes whose live data has fallen below the threshold
        (deletes only orphan space on tape — reclamation recovers it)."""
        out = []
        filling = set(self.library._filling.values())
        for vol, cart in self.library.cartridges.items():
            if cart.eod == 0 or vol in filling:
                continue
            if cart.utilization < utilization_threshold:
                out.append(vol)
        return sorted(out)

    def reclaim_volume(self, volume: str, mover_node: Optional[str] = None) -> Event:
        """Move a sparse volume's live objects onto the current filling
        volume of their co-location group, then return it to scratch.

        Uses two drives (read + write) like TSM's reclamation process.
        Fires with the number of objects moved.
        """
        done = self.env.event()
        node = mover_node or self.server_node or "tsm-server-local"

        def _proc():
            cart = self.library.volume(volume)
            # retire the volume from output rotation before moving data off
            cart.read_only = True
            if self.library._filling.get(cart.collocation_group) == volume:
                del self.library._filling[cart.collocation_group]
            live = list(cart.extents)
            moved = 0
            src_drive = yield self.library.acquire_drive(volume)
            try:
                for ext in live:
                    row = self.objects.get(ext.object_id)
                    if row is None:
                        continue
                    group = cart.collocation_group
                    target = self.library.select_output_volume(ext.nbytes, group)
                    dst_drive = yield self.library.acquire_drive(target.volume)
                    try:
                        yield from self._txn()
                        read = src_drive.read_extent(node, ext)
                        write = dst_drive.write_object(
                            node, ext.object_id, ext.nbytes
                        )
                        yield read & write
                        new_ext: TapeExtent = write.value
                        self.objects.update(
                            ext.object_id,
                            volume=new_ext.volume,
                            seq=new_ext.seq,
                        )
                        moved += 1
                    finally:
                        self.library.release_drive(dst_drive)
                # erase the source volume back to scratch while we still
                # hold it (nobody else can be mid-I/O on it)
                yield src_drive.unload()
            finally:
                self.library.release_drive(src_drive)
            cart.extents.clear()
            cart._by_object.clear()
            cart.eod = 0
            cart.read_only = False
            cart.collocation_group = None
            if volume not in self.library.scratch:
                self.library.scratch.append(volume)
            done.succeed(moved)

        self.env.process(_proc(), name=f"reclaim-{volume}")
        return done

    def objects_for_path(self, filespace: str, path: str) -> list[StoredObject]:
        rows = self.objects.select_eq("by_path", filespace, path)
        return [
            StoredObject(
                r["object_id"], r["filespace"], r["path"], r["nbytes"],
                r["volume"], r["seq"], r["aggregate_id"], r["offset"],
            )
            for r in rows
            if r["active"]
        ]

    def export_rows(self) -> Iterator[dict]:
        """Rows for the MySQL-substitute export (see §4.2.5)."""
        for row in self.objects.scan(lambda r: r["active"]):
            yield {
                "object_id": row["object_id"],
                "path": row["path"],
                "filespace": row["filespace"],
                "volume": row["volume"],
                "seq": row["seq"],
                "nbytes": row["nbytes"],
            }

    def __repr__(self) -> str:
        return f"<TsmServer objects={len(self.objects)} txns={self.transactions}>"
