"""Common simulated-filesystem behaviour.

Files hold real ``bytes`` (snapshot images are actual pickles), and
every read/write is a blocking generator operation whose duration is
``size / bandwidth + op_latency``.  Directories are implicit (a path
prefix exists if any file lives under it) with an explicit-creation
option via ``mkdir`` markers, which snapshot directories use so that
empty snapshot dirs are visible before files land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simenv.kernel import Delay, SimGen
from repro.util.errors import VFSError
from repro.vfs import path as vpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel


@dataclass(frozen=True)
class FileStat:
    path: str
    size: int
    mtime: float


class FS:
    """Base simulated filesystem."""

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        bandwidth_Bps: float = 100e6,
        op_latency_s: float = 1e-4,
    ):
        if bandwidth_Bps <= 0:
            raise VFSError("bandwidth must be positive")
        self.kernel = kernel
        self.name = name
        self.bandwidth_Bps = bandwidth_Bps
        self.op_latency_s = op_latency_s
        self.reachable = True
        self._files: dict[str, bytes] = {}
        self._mtimes: dict[str, float] = {}
        self._dirs: set[str] = {"/"}
        #: refcount of files living under each implicit directory, so
        #: ``isdir``/``exists`` misses are O(depth) dict probes instead
        #: of a scan over every file (the CAS probes absent blob paths
        #: constantly)
        self._file_dirs: dict[str, int] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        #: transient fault windows (sim-time horizons; see
        #: ``inject_write_failures`` / ``inject_slowdown``)
        self._write_fail_until = 0.0
        self._slow_until = 0.0
        self._slow_factor = 1.0

    def _index_file(self, norm: str) -> None:
        d = vpath.dirname(norm)
        while d and d != "/":
            self._file_dirs[d] = self._file_dirs.get(d, 0) + 1
            d = vpath.dirname(d)

    def _unindex_file(self, norm: str) -> None:
        d = vpath.dirname(norm)
        while d and d != "/":
            count = self._file_dirs.get(d, 0) - 1
            if count <= 0:
                self._file_dirs.pop(d, None)
            else:
                self._file_dirs[d] = count
            d = vpath.dirname(d)

    # -- availability ---------------------------------------------------------

    def mark_unreachable(self) -> None:
        """The backing node died; all contents are lost to the job."""
        self.reachable = False

    def _check(self) -> None:
        if not self.reachable:
            raise VFSError(f"filesystem {self.name} is unreachable")

    # -- transient fault windows -----------------------------------------------

    def inject_write_failures(self, duration_s: float) -> None:
        """Writes fail with :class:`VFSError` for *duration_s* sim-seconds.

        Reads are unaffected (the disk array is degraded, not gone) and
        the window expires on its own — this models the transient
        stable-storage faults a staging pipeline must retry through,
        not permanent loss (``mark_unreachable``).
        """
        self._write_fail_until = max(
            self._write_fail_until, self.kernel.now + duration_s
        )

    def inject_slowdown(self, duration_s: float, factor: float) -> None:
        """Timed operations cost *factor*× for *duration_s* sim-seconds."""
        if factor <= 0:
            raise VFSError("slowdown factor must be positive")
        self._slow_until = max(self._slow_until, self.kernel.now + duration_s)
        self._slow_factor = factor

    def _check_write(self) -> None:
        if self.kernel.now < self._write_fail_until:
            raise VFSError(
                f"{self.name}: write failed (injected fault window)"
            )

    def _io_time(self, nbytes: int) -> float:
        """Cost of one timed operation moving *nbytes*.

        Subclasses override this (not ``read``/``write``) so batched
        operations price each file identically to a per-file loop.
        """
        base = self.op_latency_s + nbytes / self.bandwidth_Bps
        if self.kernel.now < self._slow_until:
            return base * self._slow_factor
        return base

    # -- blocking (timed) operations -------------------------------------------

    def write(self, path: str, data: bytes) -> SimGen:
        """Write (create or replace) a file."""
        self._check()
        self._check_write()
        if not isinstance(data, (bytes, bytearray)):
            raise VFSError(f"file data must be bytes, got {type(data).__name__}")
        norm = vpath.normalize(path)
        yield Delay(self._io_time(len(data)))
        self._check()
        self._check_write()
        if norm not in self._files:
            self._index_file(norm)
        self._files[norm] = bytes(data)
        self._mtimes[norm] = self.kernel.now
        self._dirs.add(vpath.dirname(norm))
        self.bytes_written += len(data)
        return len(data)

    def read(self, path: str) -> SimGen:
        """Read a whole file."""
        self._check()
        norm = vpath.normalize(path)
        if norm not in self._files:
            raise VFSError(f"{self.name}: no such file {norm}")
        data = self._files[norm]
        yield Delay(self._io_time(len(data)))
        self._check()
        self.bytes_read += len(data)
        return data

    def write_many(self, items: "list[tuple[str, bytes]]") -> SimGen:
        """Write several files under one aggregate delay.

        Total simulated time equals the per-file loop (each file still
        pays its own ``_io_time``), but the kernel processes one event
        instead of N — the batching half of the fast-path work (see
        docs/SIMULATOR.md).
        """
        self._check()
        self._check_write()
        normed: list[tuple[str, bytes]] = []
        total_time = 0.0
        for path, data in items:
            if not isinstance(data, (bytes, bytearray)):
                raise VFSError(
                    f"file data must be bytes, got {type(data).__name__}"
                )
            normed.append((vpath.normalize(path), bytes(data)))
            total_time += self._io_time(len(data))
        if total_time:
            yield Delay(total_time)
        self._check()
        self._check_write()
        written = 0
        for norm, data in normed:
            if norm not in self._files:
                self._index_file(norm)
            self._files[norm] = data
            self._mtimes[norm] = self.kernel.now
            self._dirs.add(vpath.dirname(norm))
            written += len(data)
        self.bytes_written += written
        return written

    def read_many(self, paths: "list[str]") -> SimGen:
        """Read several files under one aggregate delay.

        Returns the contents in input order; same total simulated time
        as a per-file ``read`` loop.
        """
        self._check()
        blobs: list[bytes] = []
        total_time = 0.0
        for path in paths:
            norm = vpath.normalize(path)
            if norm not in self._files:
                raise VFSError(f"{self.name}: no such file {norm}")
            data = self._files[norm]
            blobs.append(data)
            total_time += self._io_time(len(data))
        if total_time:
            yield Delay(total_time)
        self._check()
        self.bytes_read += sum(len(b) for b in blobs)
        return blobs

    def remove(self, path: str) -> SimGen:
        """Remove one file (a filesystem lost during the delay keeps it)."""
        self._check()
        norm = vpath.normalize(path)
        if norm not in self._files:
            raise VFSError(f"{self.name}: no such file {norm}")
        yield Delay(self.op_latency_s)
        self._check()
        if norm in self._files:
            self._unindex_file(norm)
        self._files.pop(norm, None)
        self._mtimes.pop(norm, None)
        return None

    def remove_tree(self, prefix: str) -> SimGen:
        """Remove every file under *prefix* (and the dir markers); a
        filesystem lost during the delay keeps them."""
        self._check()
        victims = self.list_tree(prefix)
        yield Delay(self.op_latency_s * max(1, len(victims)))
        self._check()
        for path in victims:
            if path in self._files:
                self._unindex_file(path)
            self._files.pop(path, None)
            self._mtimes.pop(path, None)
        norm = vpath.normalize(prefix)
        inside = norm.rstrip("/") + "/"
        self._dirs = {
            d for d in self._dirs if not (d == norm or d.startswith(inside))
        }
        return len(victims)

    def listdir(self, path: str) -> SimGen:
        """The names directly under *path*, sorted: one metadata operation."""
        self._check()
        inside = vpath.normalize(path).rstrip("/") + "/"
        yield Delay(self.op_latency_s)
        return sorted({
            entry[len(inside):].split("/", 1)[0]
            for entries in (self._files, self._dirs)
            for entry in entries if entry.startswith(inside)
        })

    # -- instantaneous metadata operations --------------------------------------

    def mkdir(self, path: str) -> None:
        self._check()
        self._dirs.add(vpath.normalize(path))

    def exists(self, path: str) -> bool:
        self._check()
        norm = vpath.normalize(path)
        return norm in self._files or self.isdir(norm)

    def isdir(self, path: str) -> bool:
        self._check()
        norm = vpath.normalize(path)
        return norm in self._dirs or norm in self._file_dirs

    def stat(self, path: str) -> FileStat:
        self._check()
        norm = vpath.normalize(path)
        if norm not in self._files:
            raise VFSError(f"{self.name}: no such file {norm}")
        return FileStat(norm, len(self._files[norm]), self._mtimes[norm])

    def list_tree(self, prefix: str = "/") -> list[str]:
        """All file paths under *prefix*, sorted."""
        self._check()
        # vpath.is_under, minus re-normalising keys that already are
        norm = vpath.normalize(prefix)
        inside = norm.rstrip("/") + "/"
        return sorted(
            f for f in self._files if f == norm or f.startswith(inside)
        )

    def size_tree(self, prefix: str = "/") -> int:
        return sum(len(self._files[f]) for f in self.list_tree(prefix))

    # -- test/tool conveniences (untimed) --------------------------------------

    def peek(self, path: str) -> bytes:
        """Untimed read for tools and assertions."""
        self._check()
        norm = vpath.normalize(path)
        if norm not in self._files:
            raise VFSError(f"{self.name}: no such file {norm}")
        return self._files[norm]

    def poke(self, path: str, data: bytes) -> None:
        """Untimed write for test setup."""
        self._check()
        norm = vpath.normalize(path)
        if norm not in self._files:
            self._index_file(norm)
        self._files[norm] = bytes(data)
        self._mtimes[norm] = self.kernel.now
        self._dirs.add(vpath.dirname(norm))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} files={len(self._files)}>"
