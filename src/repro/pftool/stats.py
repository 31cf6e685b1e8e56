"""Job statistics and the WatchDog's progress history.

The Manager owns a single :class:`JobStats`; the WatchDog samples it on
an interval, keeping the windowed counters the paper describes (files /
bytes moved in the last T minutes) and detecting stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JobStats", "WatchdogSample"]


@dataclass
class WatchdogSample:
    """One WatchDog observation window."""

    t: float
    files_total: int
    bytes_total: int
    files_window: int
    bytes_window: int


class JobStats:
    """Counters for one PFTool job (the §4.1.1 'final statistics report')."""

    def __init__(self, op: str = "copy") -> None:
        self.started = 0.0
        self.finished = 0.0
        self.dirs_walked = 0
        self.files_seen = 0
        self.files_copied = 0
        self.files_skipped = 0  # restart: destination already current
        self.files_failed = 0
        self.files_compared = 0
        self.compare_mismatches = 0
        self.bytes_copied = 0
        self.bytes_skipped = 0
        self.tape_files_restored = 0
        self.tape_bytes_restored = 0
        self.tape_volumes_touched = 0
        self.chunks_copied = 0
        self.fuse_files = 0
        # restart-from-journal accounting: chunk ranges a resumed job
        # skipped because the JobJournal recorded them complete before
        # the crash
        self.journal_chunks_skipped = 0
        self.journal_bytes_skipped = 0
        self.op = op
        self.aborted = False
        self.abort_reason = ""
        #: requeued work units per failure class ('drive', 'tsm', 'fs', ...)
        self.retries_by_class: dict[str, int] = {}
        #: permanent (retry-exhausted or non-retryable) failures per class
        self.failures_by_class: dict[str, int] = {}
        #: InvariantMonitor findings by kind ('leaked-receive', ...) when the
        #: monitor runs in counting (non-strict) mode
        self.invariant_violations: dict[str, int] = {}
        self.watchdog_history: list[WatchdogSample] = []
        self.output_lines: list[str] = []

    @property
    def duration(self) -> float:
        return max(0.0, self.finished - self.started)

    @property
    def data_rate(self) -> float:
        """Average copy rate in bytes/second."""
        d = self.duration
        return self.bytes_copied / d if d > 0 else 0.0

    @property
    def avg_file_size(self) -> float:
        return self.bytes_copied / self.files_copied if self.files_copied else 0.0

    @property
    def total_retries(self) -> int:
        return sum(self.retries_by_class.values())

    def to_dict(self) -> dict:
        """Serializable record of the job (for operation logs / replays)."""
        return {
            "op": self.op,
            "started": self.started,
            "finished": self.finished,
            "duration": self.duration,
            "dirs_walked": self.dirs_walked,
            "files_seen": self.files_seen,
            "files_copied": self.files_copied,
            "files_skipped": self.files_skipped,
            "files_failed": self.files_failed,
            "files_compared": self.files_compared,
            "compare_mismatches": self.compare_mismatches,
            "bytes_copied": self.bytes_copied,
            "bytes_skipped": self.bytes_skipped,
            "data_rate": self.data_rate,
            "avg_file_size": self.avg_file_size,
            "tape_files_restored": self.tape_files_restored,
            "tape_bytes_restored": self.tape_bytes_restored,
            "tape_volumes_touched": self.tape_volumes_touched,
            "chunks_copied": self.chunks_copied,
            "fuse_files": self.fuse_files,
            "journal_chunks_skipped": self.journal_chunks_skipped,
            "journal_bytes_skipped": self.journal_bytes_skipped,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "retries_by_class": dict(self.retries_by_class),
            "failures_by_class": dict(self.failures_by_class),
            "invariant_violations": dict(self.invariant_violations),
            "watchdog_samples": len(self.watchdog_history),
        }

    def report(self) -> str:
        """The end-of-job summary PFTool prints."""
        mb = self.bytes_copied / 1e6
        rate = self.data_rate / 1e6
        lines = [
            f"pftool {self.op}: {self.files_copied} files, {mb:.1f} MB "
            f"in {self.duration:.1f}s ({rate:.1f} MB/s)",
            f"  dirs={self.dirs_walked} seen={self.files_seen} "
            f"skipped={self.files_skipped} failed={self.files_failed}",
        ]
        if self.tape_files_restored:
            lines.append(
                f"  tape: {self.tape_files_restored} files / "
                f"{self.tape_bytes_restored / 1e6:.1f} MB from "
                f"{self.tape_volumes_touched} volumes"
            )
        if self.files_compared:
            lines.append(
                f"  compare: {self.files_compared} files, "
                f"{self.compare_mismatches} mismatches"
            )
        if self.journal_chunks_skipped:
            lines.append(
                f"  resume: {self.journal_chunks_skipped} chunks / "
                f"{self.journal_bytes_skipped / 1e6:.1f} MB from journal"
            )
        if self.retries_by_class:
            by_class = " ".join(
                f"{k}={v}" for k, v in sorted(self.retries_by_class.items())
            )
            lines.append(f"  retries: {self.total_retries} ({by_class})")
        if self.aborted:
            lines.append(f"  ABORTED: {self.abort_reason}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<JobStats {self.op} files={self.files_copied} "
            f"bytes={self.bytes_copied} failed={self.files_failed}>"
        )
