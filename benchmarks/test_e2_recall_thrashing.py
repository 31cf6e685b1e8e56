"""E2 — recall thrashing across LAN-free nodes (§6.2).

Paper: the HSM recall daemon assigns each recall to *some* machine with
no tape affinity; with LAN-free I/O the tape rewinds and re-verifies its
label every time consecutive requests come from different machines — "a
massive performance hit even though the tape is not physically
dismounted".  The asked-for fix: route all recalls for one tape to one
machine.

Bench: recall a tape's worth of files under (a) naive round-robin
routing, (b) sticky per-volume routing, and (c) naive routing on drives
with the handoff penalty disabled (quantifying the penalty itself).
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.sim import Environment
from repro.workloads import small_file_flood

from _common import MB, small_tape_spec, write_report

N_FILES = 80
SIZE = 25 * MB


def _run_one(routing, handoff_penalty):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(
            n_fta=6, n_disk_servers=2, n_tape_drives=2, n_scratch_tapes=8,
            tape_spec=small_tape_spec(), recall_routing=routing,
            handoff_penalty=handoff_penalty,
        ),
    )
    paths = small_file_flood(system.archive_fs, "/cold", N_FILES, SIZE)
    env.run(system.hsm.migrate("fta0", paths))
    t0 = env.now
    env.run(system.hsm.recall_many(paths))
    return {
        "duration": env.now - t0,
        "handoffs": system.library.total_handoff_rewinds,
        "verifies": system.library.total_label_verifies,
        "rate": N_FILES * SIZE / (env.now - t0),
    }


def _run():
    naive = _run_one("naive", True)
    sticky = _run_one("sticky", True)
    no_penalty = _run_one("naive", False)
    return naive, sticky, no_penalty


def test_e2_recall_thrashing():
    naive, sticky, no_penalty = _run()

    rows = [
        ("naive recall MB/s", 0.0, naive["rate"] / MB),
        ("sticky recall MB/s", 0.0, sticky["rate"] / MB),
        ("sticky/naive speedup", 2.0, sticky["rate"] / naive["rate"]),
        ("naive handoff rewinds", float(N_FILES) * 0.8, float(naive["handoffs"])),
        ("sticky handoff rewinds", 1.0, float(sticky["handoffs"])),
    ]
    table = comparison_table(rows)
    report = (
        "E2  LAN-free recall thrashing (§6.2)\n"
        f"  naive:      {naive['duration']:.0f}s, {naive['handoffs']} handoff rewinds\n"
        f"  sticky:     {sticky['duration']:.0f}s, {sticky['handoffs']} handoff rewinds\n"
        f"  no-penalty: {no_penalty['duration']:.0f}s (drive fix, naive routing)\n\n"
        f"{table}"
    )
    print("\n" + report)
    write_report("E2", report)

    # the paper's qualitative claims, quantified
    assert naive["handoffs"] > N_FILES / 2  # nearly every recall thrashes
    assert sticky["handoffs"] <= 4
    assert naive["duration"] > 1.5 * sticky["duration"]  # massive hit
    # sticky routing recovers what the drive-level fix would give
    assert sticky["duration"] < 1.3 * no_penalty["duration"]
