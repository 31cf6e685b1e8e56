"""A8 — TSM co-location ablation (§4.2.2, "ILM stgpool and co-location
features in the archive back-end", §4 item 5).

Co-location keeps one project's (or migration stream's) data together on
the same volumes.  Without it, projects interleave across volumes as
they arrive, and recalling one project later mounts *every* volume it
was scattered over.

Bench: four projects' files arrive interleaved and migrate to tape with
co-location on vs off; then one project is recalled.  Measured: volumes
mounted and recall makespan.
"""

from dataclasses import replace

from repro.sim import Environment
from repro.metrics import comparison_table
from repro.tapesim import TapeLibrary
from repro.tsm import TsmServer

from _common import MB, small_tape_spec, write_report

N_PROJECTS = 4
FILES_PER_PROJECT = 20
SIZE = 25 * MB


def _run_mode(collocate):
    env = Environment()
    # volumes hold ~21 files, so scattering spreads one project across
    # several tapes while co-location keeps it on one
    spec = replace(small_tape_spec(), capacity=21 * SIZE)
    lib = TapeLibrary(env, n_drives=2, spec=spec, n_scratch=32,
                      robot_exchange=8.0)
    tsm = TsmServer(env, lib, txn_time=0.005)
    sess = tsm.open_session("fta0")

    # interleaved arrival: p0f0, p1f0, p2f0, p3f0, p0f1, ...
    receipts_by_project = {p: [] for p in range(N_PROJECTS)}
    for i in range(FILES_PER_PROJECT):
        for p in range(N_PROJECTS):
            group = f"proj{p}" if collocate else None
            got = env.run(
                sess.store("fs", f"/p{p}/f{i:03d}", SIZE, collocation_group=group)
            )
            receipts_by_project[p].extend(got)

    # quiesce: dismount everything, as hours later when the recall comes
    for d in lib.drives:
        if d.loaded and not d.busy:
            env.run(d.unload())

    # recall project 0, in tape order
    recall = sorted(receipts_by_project[0], key=lambda r: (r.volume, r.seq))
    mounts_before = lib.total_mounts
    t0 = env.now
    env.run(sess.retrieve_many([r.object_id for r in recall]))
    volumes = {r.volume for r in recall}
    return {
        "duration": env.now - t0,
        "volumes": len(volumes),
        "mounts": lib.total_mounts - mounts_before,
    }


def _run():
    return _run_mode(True), _run_mode(False)


def test_a8_collocation():
    coll, scatter = _run()

    rows = [
        ("volumes holding project (coll.)", 1.0, float(coll["volumes"])),
        ("volumes holding project (scattered)", 1.0, float(scatter["volumes"])),
        ("recall time ratio scattered/coll", 1.5,
         scatter["duration"] / coll["duration"]),
    ]
    table = comparison_table(rows)
    report = (
        f"A8  co-location ablation ({N_PROJECTS} projects x "
        f"{FILES_PER_PROJECT} x {SIZE/MB:.0f} MB, interleaved arrival)\n"
        f"  co-located: recall {coll['duration']:6.1f}s from "
        f"{coll['volumes']} volume(s), {coll['mounts']} mounts\n"
        f"  scattered:  recall {scatter['duration']:6.1f}s from "
        f"{scatter['volumes']} volume(s), {scatter['mounts']} mounts\n\n"
        f"{table}"
    )
    print("\n" + report)
    write_report("A8", report)

    # co-location keeps the project on one volume; scattering spreads it
    # and the recall pays a mount per volume touched
    assert coll["volumes"] == 1
    assert scatter["volumes"] >= 3
    assert scatter["mounts"] >= 3 * coll["mounts"]
    assert scatter["duration"] > coll["duration"] * 1.3
