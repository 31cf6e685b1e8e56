"""Tier-1 smoke of the M* metadata scenarios (reduced population).

The full populations run in ``benchmarks/test_m1_metadata.py`` and the
metadata-smoke CI job; here the same scenario code runs at a few
thousand files so the determinism and bounded-memory contracts are
checked on every test run, not just the bench tier.
"""

import pytest

from repro.perf import COUNTERS, run_suite
from repro.perf.metadata import (
    M_BATCH,
    m1_index_scan,
    m2_recall_sort,
    m3_reconcile,
    n_volumes,
    synth_path,
    synth_rows,
)

POP = 4000


def test_synth_rows_deterministic_and_shaped():
    rows = list(synth_rows(POP, seed=1))
    assert len(rows) == POP
    assert rows == list(synth_rows(POP, seed=1))
    assert rows != list(synth_rows(POP, seed=2))
    # per-volume seq is strictly increasing — a migrator's append order
    last: dict[str, int] = {}
    for r in rows:
        assert r["seq"] > last.get(r["volume"], 0)
        last[r["volume"]] = r["seq"]
    assert len(last) == n_volumes(POP)
    assert rows[7]["path"] == synth_path(7)


@pytest.mark.parametrize("fn", [m1_index_scan, m2_recall_sort, m3_reconcile])
def test_m_scenarios_deterministic_headlines(fn):
    a, b = fn(pop=POP), fn(pop=POP)
    assert a.headline == b.headline
    assert a.headline["files"] == POP
    assert a.headline["end_time"] > 0


def test_m1_scan_is_bounded_and_complete():
    out = m1_index_scan(pop=POP)
    # 2 volumes at this tier -> 2 shards; bound is shards * batch
    assert out.headline["peak_live"] <= 2 * M_BATCH
    assert out.headline["volumes"] == 2.0
    assert out.headline["shard_balance"] >= 1.0


def test_m2_cache_split_accounts_every_lookup():
    out = m2_recall_sort(pop=POP)
    h = out.headline
    assert h["cache_hits"] + h["cache_misses"] > 0
    assert h["found"] <= h["lookups"]
    # 10%-of-population only binds at scale; here the tight bound applies
    assert h["peak_live"] <= 2 * M_BATCH


def test_m3_reconcile_purges_exactly_the_orphans():
    out = m3_reconcile(pop=POP)
    h = out.headline
    assert h["remaining"] == h["files"] - h["orphans"]
    assert 0 < h["orphans"] < 0.1 * POP


def test_m_scenarios_registered_in_suite():
    report = run_suite(["m3_reconcile"])
    m = report["scenarios"]["m3_reconcile"]
    assert set(m) == set(COUNTERS) | {"headline"}
    assert m["events"] > 0
