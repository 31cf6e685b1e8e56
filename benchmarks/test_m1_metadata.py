"""M1/M2/M3 — metadata plane at archive scale (not a paper figure).

The paper's site holds ~10^8 archived files; its restore optimisation
(§4.1.2) and reconcile chore (§4.4) are both catalog-bound.  These
benches drive the sharded tape index through a full-catalog recall sort
(M1), a cached locate storm plus the streaming sort (M2), and an
orphan-purge reconcile sweep (M3).  Their host cost at larger
populations is a dated measurement in EXPERIMENTS.md.

Correctness gates, enforced here:

* M* engine counters and headline numbers (counts, CRC-32 order
  checksums, shard balance, cache hit rate, simulated end times) match
  the committed golden ``BENCH_kernel.json`` — population-keyed, so the
  check only applies at the default tier;
* re-running a scenario with the same seed is byte-identical (the
  synthetic index generator is arithmetic hashing, no RNG state);
* the streaming recall sort stays bounded: peak live entries is
  ``shards * batch``, far under 10% of the population.
"""

import json

from repro.perf import run_suite
from repro.perf.metadata import (
    M_BATCH,
    M_POP,
    M_SHARDS,
    m1_index_scan,
    m2_recall_sort,
    m3_reconcile,
)

from _common import check_golden, write_report

M_SCENARIOS = ("m1_index_scan", "m2_recall_sort", "m3_reconcile")


def test_m1_metadata_suite():
    report = run_suite(M_SCENARIOS)
    if M_POP == 100_000:  # goldens are recorded at the default tier
        check_golden(report, M_SCENARIOS)

    bound = M_SHARDS * M_BATCH
    lines = [
        f"M*  metadata plane at {M_POP:,} files "
        f"({M_SHARDS} shards, batch {M_BATCH})"
    ]
    for name in M_SCENARIOS:
        headline = report["scenarios"][name]["headline"]
        lines.append(f"  {name:<15} " + " ".join(
            f"{k}={v}" for k, v in sorted(headline.items())
        ))
        # the bounded-memory claim, re-asserted at the bench tier
        if "peak_live" in headline:
            assert headline["peak_live"] <= bound
            assert headline["peak_live"] < 0.10 * M_POP
    lines.append(
        f"  streaming-merge bound: {bound} live entries at any population ("
        + ", ".join(f"{100.0 * bound / pop:.4f}% of {pop:,}"
                    for pop in (10**6, 10**7, 10**8))
        + " files)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("M1", text)


def test_m_scenarios_same_seed_byte_identical():
    """Same population, same seed => byte-identical headlines."""
    pop = 20_000  # reduced tier: identity is seed-driven, not size-driven
    for fn in (m1_index_scan, m2_recall_sort, m3_reconcile):
        a = json.dumps(fn(pop=pop).headline, sort_keys=True)
        b = json.dumps(fn(pop=pop).headline, sort_keys=True)
        assert a == b, f"{fn.__name__} drifted between identical runs"


def test_m_population_tiers_scale_orphan_rate():
    """The deterministic predicates hold their rates across tiers."""
    small, large = m3_reconcile(pop=10_000), m3_reconcile(pop=40_000)
    for out in (small, large):
        rate = out.headline["orphans"] / out.headline["files"]
        assert 0.02 < rate < 0.04  # ~3% deleted upstream
    assert small.headline["orphan_crc"] != large.headline["orphan_crc"]
