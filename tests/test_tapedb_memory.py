"""Bytes per row of the sharded tape index, measured with tracemalloc.

The site trace holds 10.4 M files, so the index's per-row cost sets the
memory of a full catalogue.  Each row is stored once, as a tuple, and a
unique index key holds a bare rowid: 433-440 B per row retained and
456-463 B at the peak of a bulk load (CPython 3.10-3.12, 8 shards).  The
bounds leave about 15% headroom.  Storing a dict per row with one-element
rowid lists, plus a transient dict copy per row during the load, costs
742-822 B retained and 1,095-1,264 B at the peak.
"""

import gc
import tracemalloc

from repro.sim import Environment
from repro.tapedb import ShardedTapeIndex, VolumeRangeRouter

N_ROWS = 20_000
FILES_PER_VOLUME = 500
RETAINED_BOUND = 505  # bytes per row
LOAD_PEAK_BOUND = 530  # bytes per row


def _rows():
    """Upsert-shaped rows; each volume's seq grows with its population."""
    vols = N_ROWS // FILES_PER_VOLUME
    next_seq = [0] * vols
    rows = []
    for i in range(N_ROWS):
        v = (i * 7919) % vols
        next_seq[v] += 1
        rows.append({
            "object_id": i + 1,
            "path": f"/m/d{i >> 10:04d}/f{i:07d}",
            "filespace": "archive",
            "volume": f"VOL{v:06d}",
            "seq": next_seq[v],
            "nbytes": 1024 + (i * 7919) % (1 << 20),
        })
    return rows


def test_bulk_load_bytes_per_row():
    rows = _rows()  # the input is built before tracing: it is not counted
    vols = N_ROWS // FILES_PER_VOLUME
    db = ShardedTapeIndex(
        Environment(), n_shards=8,
        router=VolumeRangeRouter.for_numbered(vols, 8),
    )
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert db.bulk_load(rows) == N_ROWS
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = (current - base) / N_ROWS
    load_peak = (peak - base) / N_ROWS
    assert retained <= RETAINED_BOUND, f"{retained:.0f} B/row retained"
    assert load_peak <= LOAD_PEAK_BOUND, f"{load_peak:.0f} B/row at load peak"
    assert len(db) == N_ROWS
