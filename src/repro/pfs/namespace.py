"""Hierarchical namespace over inodes.

Pure data structure (no simulated time) — the *time* of metadata
operations is charged by the callers that model them (e.g. the policy
engine's inode-scan rate, PFTool's readdir costs).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from repro.pfs.inode import FileKind, Inode

__all__ = ["Namespace", "PathError"]


class PathError(OSError):
    """Raised for ENOENT / EEXIST / ENOTDIR / EISDIR-class failures."""


def split_path(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p and p != "."]
    for p in parts:
        if p == "..":
            raise PathError(f"'..' not supported in archive paths: {path!r}")
    return parts


class Namespace:
    """A rooted tree of :class:`Inode` s with POSIX-flavoured operations."""

    def __init__(
        self, now: float = 0.0, next_ino: Optional[Callable[[], int]] = None
    ) -> None:
        #: inode-number allocator; a file system passes its simulation's
        self._next_ino = next_ino or itertools.count(1).__next__
        self.root = Inode(FileKind.DIRECTORY, now, ino=self._next_ino())
        self._ino_index: dict[int, tuple[Inode, str]] = {
            self.root.ino: (self.root, "/")
        }
        self.n_files = 0
        self.n_dirs = 1

    # -- resolution --------------------------------------------------------
    def lookup(self, path: str) -> Inode:
        node = self.root
        for part in split_path(path):
            if not node.is_dir:
                raise PathError(f"not a directory on the way to {path!r}")
            child = node.children.get(part)
            if child is None:
                raise PathError(f"no such file or directory: {path!r}")
            node = child
        return node

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except PathError:
            return False

    def by_ino(self, ino: int) -> Inode:
        try:
            return self._ino_index[ino][0]
        except KeyError:
            raise PathError(f"no inode {ino}") from None

    def path_of(self, ino: int) -> str:
        try:
            return self._ino_index[ino][1]
        except KeyError:
            raise PathError(f"no inode {ino}") from None

    def _parent_and_name(self, path: str) -> tuple[Inode, str]:
        parts = split_path(path)
        if not parts:
            raise PathError("cannot operate on the root directory")
        parent = self.root
        for part in parts[:-1]:
            child = parent.children.get(part) if parent.is_dir else None
            if child is None:
                raise PathError(f"no such directory component in {path!r}")
            parent = child
        if not parent.is_dir:
            raise PathError(f"parent of {path!r} is not a directory")
        return parent, parts[-1]

    # -- mutation ------------------------------------------------------
    def mkdir(self, path: str, now: float, parents: bool = False) -> Inode:
        if parents:
            parts = split_path(path)
            cur = ""
            node = self.root
            for part in parts:
                cur = f"{cur}/{part}"
                if node.is_dir and part in node.children:
                    node = node.children[part]
                    if not node.is_dir:
                        raise PathError(f"{cur!r} exists and is not a directory")
                else:
                    node = self.mkdir(cur, now)
            return node
        parent, name = self._parent_and_name(path)
        if name in parent.children:
            raise PathError(f"file exists: {path!r}")
        node = Inode(FileKind.DIRECTORY, now, ino=self._next_ino())
        parent.children[name] = node
        parent.nlink += 1
        self._index(node, path)
        self.n_dirs += 1
        return node

    def create(self, path: str, now: float, uid: str = "root") -> Inode:
        parent, name = self._parent_and_name(path)
        if name in parent.children:
            raise PathError(f"file exists: {path!r}")
        node = Inode(FileKind.FILE, now, uid=uid, ino=self._next_ino())
        parent.children[name] = node
        self._index(node, path)
        self.n_files += 1
        return node

    def unlink(self, path: str) -> Inode:
        parent, name = self._parent_and_name(path)
        node = parent.children.get(name)
        if node is None:
            raise PathError(f"no such file: {path!r}")
        if node.is_dir:
            if node.children:
                raise PathError(f"directory not empty: {path!r}")
            parent.nlink -= 1
            self.n_dirs -= 1
        else:
            self.n_files -= 1
        del parent.children[name]
        self._ino_index.pop(node.ino, None)
        return node

    def rename(self, src: str, dst: str) -> Inode:
        """Atomic move; refuses to clobber an existing destination or to
        move a directory into its own subtree (EINVAL, as POSIX)."""
        sparent, sname = self._parent_and_name(src)
        node = sparent.children.get(sname)
        if node is None:
            raise PathError(f"no such file: {src!r}")
        nsrc, ndst = self._norm(src), self._norm(dst)
        if node.is_dir and (ndst == nsrc or ndst.startswith(nsrc + "/")):
            raise PathError(
                f"cannot move {src!r} into its own subtree {dst!r}"
            )
        dparent, dname = self._parent_and_name(dst)
        if dname in dparent.children:
            raise PathError(f"destination exists: {dst!r}")
        del sparent.children[sname]
        dparent.children[dname] = node
        if node.is_dir:
            sparent.nlink -= 1
            dparent.nlink += 1
        self._reindex_subtree(node, self._norm(dst))
        return node

    # -- iteration -----------------------------------------------------
    def readdir(self, path: str) -> list[tuple[str, Inode]]:
        node = self.lookup(path)
        if not node.is_dir:
            raise PathError(f"not a directory: {path!r}")
        return sorted(node.children.items())

    def walk(
        self, path: str = "/", filter: Optional[Callable[[Inode], bool]] = None  # noqa: A002
    ) -> Iterator[tuple[str, Inode]]:
        """Depth-first traversal yielding (path, inode) for every entry."""
        start = self.lookup(path)
        base = self._norm(path)
        stack: list[tuple[str, Inode]] = [(base, start)]
        while stack:
            p, node = stack.pop()
            if filter is None or filter(node):
                yield p, node
            if node.is_dir:
                for name in sorted(node.children, reverse=True):
                    child = node.children[name]
                    cp = f"{p.rstrip('/')}/{name}"
                    stack.append((cp, child))

    def iter_inodes(self) -> Iterator[tuple[str, Inode]]:
        """Flat inode-order iteration — the GPFS fast metadata scan.

        Streaming and O(1)-memory: inos are allocated from a monotonic
        counter and ``_ino_index`` is insertion-ordered (creates append,
        renames overwrite in place, unlinks delete), so plain dict order
        *is* ino order — no sort, no materialised copy.  Like any dict
        iteration, the namespace must not gain or lose entries while a
        scan is open; scans run in zero simulated time, so only a caller
        that itself mutates mid-loop can trip this (and gets Python's
        RuntimeError rather than silent corruption).
        """
        for node, path in self._ino_index.values():
            yield path, node

    # -- internals -----------------------------------------------------
    @staticmethod
    def _norm(path: str) -> str:
        return "/" + "/".join(split_path(path))

    def _index(self, node: Inode, path: str) -> None:
        self._ino_index[node.ino] = (node, self._norm(path))

    def _reindex_subtree(self, node: Inode, new_path: str) -> None:
        self._ino_index[node.ino] = (node, new_path)
        if node.is_dir:
            for name, child in node.children.items():
                self._reindex_subtree(child, f"{new_path}/{name}")

    def __len__(self) -> int:
        return len(self._ino_index)

    def __repr__(self) -> str:
        return f"<Namespace files={self.n_files} dirs={self.n_dirs}>"
