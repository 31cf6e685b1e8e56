"""A4 — restartable file transfer (§4.5).

Paper: "What about restarting a 40 Terabyte file, we don't want to start
it from the beginning... we mark regular file chunks or FUSE file chunks
as good or bad so that we don't have to re-send known good chunks.  This
is a unique incremental parallel archive feature."

Bench: copy a 64 GB chunked file; kill the job partway; restart with
(a) chunk-restart (the paper's feature) and (b) from-scratch re-copy.
Measured: bytes re-sent and time to complete after the fault.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import huge_file_campaign

from _common import GB, small_tape_spec, write_report

FILE_SIZE = 64 * GB
CHUNK = 2 * GB
FAULT_AT = 20.0  # seconds into the transfer


def _build():
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=6, n_disk_servers=3, n_tape_drives=1,
                      n_scratch_tapes=4, tape_spec=small_tape_spec()),
    )
    huge_file_campaign(system.scratch_fs, "/big", 1, FILE_SIZE)
    return env, system


def _cfg(restart):
    return PftoolConfig(
        num_workers=8, num_readdir=1, num_tapeprocs=0,
        chunk_threshold=4 * GB, copy_chunk_size=CHUNK,
        fuse_threshold=10**18, restart=restart,
    )


def _interrupted_then(resume_with_restart):
    env, system = _build()
    job = system.archive("/big", "/a", _cfg(restart=False))

    def fault():
        yield env.timeout(FAULT_AT)
        job.cancel("simulated network outage")

    env.process(fault())
    stats1 = env.run(job.done)
    assert stats1.aborted
    done_chunks = stats1.chunks_copied

    t0 = env.now
    job2 = system.archive("/big", "/a", _cfg(restart=resume_with_restart))
    stats2 = env.run(job2.done)
    assert not stats2.aborted
    assert stats2.files_copied == 1
    return {
        "chunks_before_fault": done_chunks,
        "resume_seconds": env.now - t0,
        "bytes_resent": stats2.bytes_copied,
        "bytes_skipped": stats2.bytes_skipped,
    }


def _run():
    return (
        _interrupted_then(resume_with_restart=True),
        _interrupted_then(resume_with_restart=False),
    )


def test_a4_restartable_transfer():
    with_restart, full_recopy = _run()

    rows = [
        ("resent GB (chunk restart)", 0.0, with_restart["bytes_resent"] / GB),
        ("resent GB (full recopy)", FILE_SIZE / GB, full_recopy["bytes_resent"] / GB),
        ("resume time ratio", 2.0,
         full_recopy["resume_seconds"] / with_restart["resume_seconds"]),
    ]
    table = comparison_table(rows)
    report = (
        f"A4  restartable transfer ({FILE_SIZE/GB:.0f} GB file, fault at "
        f"{FAULT_AT:.0f}s, {with_restart['chunks_before_fault']} chunks done)\n"
        f"  chunk-restart: resume {with_restart['resume_seconds']:6.1f}s, "
        f"resent {with_restart['bytes_resent']/GB:5.1f} GB, "
        f"skipped {with_restart['bytes_skipped']/GB:5.1f} GB\n"
        f"  full recopy:   resume {full_recopy['resume_seconds']:6.1f}s, "
        f"resent {full_recopy['bytes_resent']/GB:5.1f} GB\n\n{table}"
    )
    print("\n" + report)
    write_report("A4", report)

    assert with_restart["chunks_before_fault"] > 0
    # the known-good chunks were not re-sent
    assert (
        with_restart["bytes_skipped"]
        >= with_restart["chunks_before_fault"] * CHUNK * 0.99
    )
    assert with_restart["bytes_resent"] < full_recopy["bytes_resent"]
    assert with_restart["resume_seconds"] < full_recopy["resume_seconds"]
