"""Inodes: the metadata record for every file system object.

An inode tracks the attributes the archive's machinery relies on:

* size / timestamps / owner — policy rule inputs;
* the **storage pool** holding the data;
* the **HSM state** (resident / premigrated / migrated) and the TSM
  object id once a copy exists on tape;
* a **content token** — a deterministic fingerprint standing in for file
  bytes, letting ``pfcm``-style compares verify copies without simulating
  actual data.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

__all__ = ["FileKind", "HsmState", "Inode"]


class FileKind(enum.Enum):
    FILE = "file"
    DIRECTORY = "directory"


class HsmState(enum.Enum):
    """DMAPI managed-region state of a file's data (TSM HSM semantics)."""

    #: all data on the file system disk
    RESIDENT = "resident"
    #: data on disk *and* on tape (safe to punch quickly)
    PREMIGRATED = "premigrated"
    #: stub only — data lives on tape, a read triggers a recall
    MIGRATED = "migrated"


class Inode:
    """Metadata record.  Directories carry a dict of children."""

    __slots__ = (
        "ino",
        "kind",
        "size",
        "pool",
        "hsm_state",
        "tsm_object_id",
        "content_token",
        "uid",
        "ctime",
        "mtime",
        "atime",
        "children",
        "nlink",
        "xattrs",
    )

    def __init__(
        self,
        kind: FileKind,
        now: float,
        uid: str = "root",
        pool: Optional[str] = None,
        ino: int = 0,
    ) -> None:
        self.ino = ino
        self.kind = kind
        self.size = 0
        #: storage pool name holding the data (None until first write)
        self.pool = pool
        self.hsm_state = HsmState.RESIDENT
        #: TSM object id once the file has a tape copy
        self.tsm_object_id: Optional[int] = None
        #: fingerprint of the (virtual) data
        self.content_token: int = 0
        self.uid = uid
        self.ctime = now
        self.mtime = now
        self.atime = now
        self.children: Optional[dict[str, "Inode"]] = (
            {} if kind is FileKind.DIRECTORY else None
        )
        self.nlink = 2 if kind is FileKind.DIRECTORY else 1
        #: extended attributes (used by restart markers, trashcan metadata)
        self.xattrs: dict[str, Any] = {}

    # -- convenience -----------------------------------------------------
    @property
    def is_dir(self) -> bool:
        return self.kind is FileKind.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.kind is FileKind.FILE

    @property
    def is_stub(self) -> bool:
        return self.hsm_state is HsmState.MIGRATED

    #: bytes actually occupying file system disk
    @property
    def resident_bytes(self) -> int:
        return 0 if self.is_stub else self.size

    def touch_data(self, now: float, new_size: int, token: int) -> None:
        """Record a data modification (write / truncate)."""
        self.size = int(new_size)
        self.content_token = token
        self.mtime = now
        self.atime = now
        # Any data change invalidates the tape copy's currency.
        if self.hsm_state is not HsmState.RESIDENT:
            self.hsm_state = HsmState.RESIDENT

    def __repr__(self) -> str:
        return (
            f"<Inode #{self.ino} {self.kind.value} size={self.size} "
            f"pool={self.pool} hsm={self.hsm_state.value}>"
        )
