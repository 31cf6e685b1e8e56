"""D* — disaster drills: degraded-mode operation under sustained faults.

Not a paper figure: the paper's site weathered library outages and FTA
losses operationally (§5); the D* family drills the reproduction's
health plane end to end.  Each drill runs a faulted leg against a
fault-free oracle on the same seeded workload and gates on

* conservation (every submission settles; no ticket stranded),
* oracle convergence (faulted end state byte-identical to calm),
* goodput — jobs still complete *inside* the failure window,
* breaker discipline (only legal state edges) and clean recovery
  (nothing fenced or down once the regime lifts).

``run_drill`` enforces those gates internally and raises on any
violation; the benchmark layer adds the golden pin (headline and engine
counters) in ``benchmarks/results/BENCH_kernel.json`` and the same-seed
determinism witness.  ``REPRO_D_SEED`` shifts every drill's seed for CI
sweeps.
"""

import json

from repro.perf import run_suite
from repro.perf.drills import DRILLS, run_drill

from _common import check_golden, write_report


def _drill_headline(name):
    report = run_suite([name])
    check_golden(report, [name])
    return report["scenarios"][name]["headline"]


def test_d1_library_outage():
    headline = _drill_headline("d1_library_outage")
    # retrieves park while the library is fenced, archives keep landing:
    # goodput inside the 40 s outage window stays above the floor
    assert headline["goodput_in_window"] >= DRILLS["d1_library_outage"].goodput_floor
    assert headline["completed"] == headline["submitted"]
    assert headline["injected_total"] >= 1
    text = "\n".join([
        "D1  library outage drill (40 s, retrieves park, archives flow)",
        f"  submitted        {headline['submitted']}",
        f"  completed        {headline['completed']}",
        f"  goodput in win   {headline['goodput_in_window']}",
        f"  end time         {headline['end_time']}s",
    ])
    print("\n" + text)
    write_report("D1", text)


def test_d2_fta_pool_loss():
    headline = _drill_headline("d2_fta_pool_loss")
    # half the pool fences: jobs are preempted off dying nodes, every
    # preemption resumes, and the shrunken pool forces a brownout
    assert headline["health_requeues"] >= 1
    assert headline["resumed"] == headline["preempted"] >= 1
    assert headline["brownouts"] >= 1
    assert headline["brownout_time"] > 0
    assert headline["completed"] == headline["submitted"] - headline["preempted"]
    text = "\n".join([
        "D2  FTA pool-loss drill (half the pool, staggered, 35 s)",
        f"  submitted        {headline['submitted']}",
        f"  preempt/resume   {headline['preempted']}/{headline['resumed']}",
        f"  brownout time    {headline['brownout_time']}s",
        f"  goodput in win   {headline['goodput_in_window']}",
    ])
    print("\n" + text)
    write_report("D2", text)


def test_d3_catalog_corruption():
    headline = _drill_headline("d3_catalog_corruption")
    # scrambled catalog rows fence retrieves until the mid-run reconcile
    # re-exports from TSM ground truth; run_drill gates verify_catalog==0
    assert headline["goodput_in_window"] >= DRILLS["d3_catalog_corruption"].goodput_floor
    assert headline["completed"] == headline["submitted"]
    assert headline["injected_total"] >= 3  # scrambled + dropped rows
    text = "\n".join([
        "D3  catalog-corruption drill (3 rows damaged, reconcile at +35 s)",
        f"  submitted        {headline['submitted']}",
        f"  completed        {headline['completed']}",
        f"  rows injected    {headline['injected_total']}",
        f"  goodput in win   {headline['goodput_in_window']}",
    ])
    print("\n" + text)
    write_report("D3", text)


def test_drills_same_seed_byte_identical():
    """Two same-seed D2 runs (the drill with the most moving parts:
    staggered node loss, preempt/resume, brownout, delayed messages)
    agree on the full fault-leg account, byte for byte."""
    spec = DRILLS["d2_fta_pool_loss"]
    a, b = run_drill(spec), run_drill(spec)
    for res in (a, b):
        assert res["seed"] == a["seed"]
    fa, fb = a["fault"], b["fault"]
    assert fa["summary"] == fb["summary"]
    assert fa["degraded"] == fb["degraded"]
    assert fa["digests"] == fb["digests"]
    assert fa["goodput_in_window"] == fb["goodput_in_window"]
    assert (
        json.dumps(sorted(fa["saw_down"]))
        == json.dumps(sorted(fb["saw_down"]))
    )
    assert fa["env"].now == fb["env"].now
