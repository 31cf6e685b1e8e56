"""The tape index database and the TSM->MySQL export job.

Schema (one row per migrated object)::

    objects(object_id PK, path, filespace, volume, seq, nbytes, inserted_at)
      index by_path    (filespace, path)      -- file -> location lookup
      index by_volume  (volume, seq)          -- tape-order scans
      index by_object  (object_id)            -- synchronous delete joins

PFTool's recall ordering (§4.2.5) is :meth:`TapeIndexDB.locate_many` +
:meth:`TapeIndexDB.sort_tape_order`; the synchronous deleter (§4.2.6)
uses :meth:`TapeIndexDB.object_for_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.sim import Environment, Event
from repro.tapedb.engine import Table

__all__ = ["TapeIndexDB", "TapeLocation", "TsmDbExporter"]


@dataclass(frozen=True)
class TapeLocation:
    """Where one object lives on tape."""

    object_id: int
    path: str
    filespace: str
    volume: str
    seq: int
    nbytes: int


class TapeIndexDB:
    """Indexed mirror of TSM's object->tape mapping.

    Query times are modelled as a fixed per-query latency (an indexed
    MySQL point query on the archive's admin box: ~1 ms) so experiments
    account for lookup storms without a network round-trip model.
    """

    def __init__(self, env: Environment, query_latency: float = 0.001) -> None:
        self.env = env
        self.query_latency = query_latency
        self.table = Table(
            "objects",
            columns=(
                "object_id",
                "path",
                "filespace",
                "volume",
                "seq",
                "nbytes",
                "inserted_at",
            ),
            primary_key="object_id",
        )
        self.table.create_index("by_path", ("filespace", "path"))
        self.table.create_index("by_volume", ("volume", "seq"))
        self.queries = 0
        env.metrics.add("tapedb.queries", lambda: self.queries)

    # -- load side -------------------------------------------------------
    def upsert(
        self,
        object_id: int,
        path: str,
        filespace: str,
        volume: str,
        seq: int,
        nbytes: int,
    ) -> None:
        self.table.delete(object_id)
        self.table.insert(
            {
                "object_id": object_id,
                "path": path,
                "filespace": filespace,
                "volume": volume,
                "seq": seq,
                "nbytes": nbytes,
                "inserted_at": self.env.now,
            }
        )

    def bulk_load(self, rows: Iterable[dict]) -> int:
        """Load many ``upsert``-shaped rows at once (one index sort).

        *rows* carry the :meth:`upsert` fields (``object_id``, ``path``,
        ``filespace``, ``volume``, ``seq``, ``nbytes``); ``inserted_at``
        is stamped here.  Object ids must be new — bulk load is for
        seeding/import, not for refresh.
        """
        now = self.env.now
        return self.table.bulk_load(
            {**row, "inserted_at": now} for row in rows
        )

    def remove(self, object_id: int) -> bool:
        return self.table.delete(object_id)

    def __len__(self) -> int:
        return len(self.table)

    # -- instant (logic-only) queries ------------------------------------
    def location_of(self, object_id: int) -> Optional[TapeLocation]:
        row = self.table.get(object_id)
        return self._row_to_loc(row) if row else None

    def object_for_path(self, filespace: str, path: str) -> Optional[TapeLocation]:
        rows = self.table.select_eq("by_path", filespace, path)
        return self._row_to_loc(rows[-1]) if rows else None

    def objects_on_volume(self, volume: str) -> list[TapeLocation]:
        return list(self.iter_objects_on_volume(volume))

    def iter_objects_on_volume(
        self, volume: str, batch: int = 256, gauge=None
    ) -> Iterator[TapeLocation]:
        """Stream one volume's objects in seq order (bounded memory)."""
        for row in self.table.iter_index(
            "by_volume", prefix=(volume,), batch=batch, gauge=gauge
        ):
            yield self._row_to_loc(row)

    def iter_recall_order(
        self, batch: int = 256, gauge=None
    ) -> Iterator[TapeLocation]:
        """Stream the *whole* index in (volume, seq) order.

        The streaming recall sort: identical global order to flattening
        :meth:`sort_tape_order` over every location (volumes ascending,
        seq ascending within a volume, insertion order on seq ties), but
        at most *batch* row copies are live at any moment instead of the
        full result — a caller that stops after the first tape has paid
        for one batch, not the population.
        """
        for row in self.table.iter_index("by_volume", batch=batch, gauge=gauge):
            yield self._row_to_loc(row)

    # -- timed queries (what PFTool issues) --------------------------------
    def locate_many(
        self, filespace: str, paths: Sequence[str]
    ) -> Event:
        """Batch lookup; event fires with {path: TapeLocation | None}.

        Charged as one round-trip plus a per-row increment — matching an
        indexed ``WHERE path IN (...)`` query.
        """
        done = self.env.event()

        def _proc():
            self.queries += 1
            yield self.env.timeout(
                self.query_latency + 1e-5 * len(paths)
            )
            out = {p: self.object_for_path(filespace, p) for p in paths}
            done.succeed(out)

        self.env.process(_proc(), name="tapedb-locate")
        return done

    @staticmethod
    def sort_tape_order(
        locations: Iterable[TapeLocation],
    ) -> dict[str, list[TapeLocation]]:
        """Group by volume, ascending seq within each volume (§4.1.2's
        TapeCQ arrangement)."""
        by_vol: dict[str, list[TapeLocation]] = {}
        for loc in locations:
            by_vol.setdefault(loc.volume, []).append(loc)
        for vol in by_vol:
            by_vol[vol].sort(key=lambda l: l.seq)
        return dict(sorted(by_vol.items()))

    @staticmethod
    def _row_to_loc(row: dict) -> TapeLocation:
        return TapeLocation(
            object_id=row["object_id"],
            path=row["path"],
            filespace=row["filespace"],
            volume=row["volume"],
            seq=row["seq"],
            nbytes=row["nbytes"],
        )


class TsmDbExporter:
    """The periodic export from the TSM server's DB into the index DB.

    TSM can't serve these queries itself (proprietary DB, no custom
    indexes), so the site exports.  ``run_once`` exports all objects the
    server knows about; ``run_periodic`` keeps doing so on an interval,
    which is how staleness enters (a just-migrated file may not be
    queryable until the next export — callers fall back to TSM itself).
    """

    def __init__(
        self,
        env: Environment,
        tsm_server: "object",
        db: TapeIndexDB,
        row_export_rate: float = 50_000.0,
    ) -> None:
        self.env = env
        self.tsm = tsm_server
        self.db = db
        self.row_export_rate = row_export_rate
        self.exports = 0

    def run_once(self) -> Event:
        """Export a snapshot; event fires with the number of rows."""
        done = self.env.event()

        def _proc():
            rows = list(self.tsm.export_rows())
            yield self.env.timeout(len(rows) / self.row_export_rate)
            for r in rows:
                self.db.upsert(**r)
            self.exports += 1
            done.succeed(len(rows))

        self.env.process(_proc(), name="tsm-export")
        return done

    def run_periodic(self, interval: float) -> None:
        """Fire-and-forget periodic export loop."""

        def _loop():
            while True:
                yield self.run_once()
                yield self.env.timeout(interval)

        self.env.process(_loop(), name="tsm-export-loop")
