"""Timed copies between simulated filesystems.

These are the primitives the FILEM components compose: ``copy_file``
reads from the source FS and writes to the destination FS (both
timed), optionally paying an extra per-byte network cost when the copy
crosses nodes — which is how the ``rsh`` FILEM component's remote
copies become more expensive than the ``shared`` component's
direct-to-stable-storage writes.
"""

from __future__ import annotations

from typing import Callable

from repro.simenv.kernel import Delay, SimGen
from repro.vfs.fsbase import FS
from repro.vfs import path as vpath


def copy_file(
    src_fs: FS,
    src_path: str,
    dst_fs: FS,
    dst_path: str,
    extra_net_Bps: float | None = None,
    extra_latency_s: float = 0.0,
    link_ok: Callable[[], None] | None = None,
) -> SimGen:
    """Copy one file; returns bytes copied.

    ``extra_net_Bps``/``extra_latency_s`` model an interposed network
    link (e.g. an rsh/scp stream between two nodes).  ``link_ok``, when
    given, is called before the stream and again before the destination
    write; it raises :class:`~repro.util.errors.NetworkError` when the
    link is partitioned, failing the copy mid-stage.
    """
    if link_ok is not None:
        link_ok()
    data = yield from src_fs.read(src_path)
    if extra_latency_s:
        yield Delay(extra_latency_s)
    if extra_net_Bps:
        yield Delay(len(data) / extra_net_Bps)
    if link_ok is not None:
        link_ok()
    yield from dst_fs.write(dst_path, data)
    return len(data)


def copy_tree(
    src_fs: FS,
    src_prefix: str,
    dst_fs: FS,
    dst_prefix: str,
    extra_net_Bps: float | None = None,
    extra_latency_s: float = 0.0,
    link_ok: Callable[[], None] | None = None,
) -> SimGen:
    """Copy every file under *src_prefix*; returns total bytes copied.

    The destination layout mirrors the source subtree under
    *dst_prefix*.  The whole tree moves under three aggregate delays
    (batched read, network stream, batched write) whose total equals
    a per-file :func:`copy_file` loop exactly — N files cost O(1)
    kernel events instead of O(N).
    """
    src_norm = vpath.normalize(src_prefix)
    paths = src_fs.list_tree(src_norm)
    dst_paths = []
    for path in paths:
        rel = path[len(src_norm):].lstrip("/")
        dst_paths.append(
            vpath.join(dst_prefix, rel)
            if rel
            else vpath.join(dst_prefix, vpath.basename(path))
        )

    if not paths:
        return 0
    if link_ok is not None:
        link_ok()
    blobs = yield from src_fs.read_many(paths)
    total = sum(len(b) for b in blobs)
    net_time = extra_latency_s * len(paths)
    if extra_net_Bps:
        net_time += total / extra_net_Bps
    if net_time:
        yield Delay(net_time)
    pairs = list(zip(dst_paths, blobs))
    # The last destination file doubles as the "copy completed" marker
    # (the staging retry logic relies on this): write everything but
    # the last file, re-check the source, and only then write the
    # marker — a source that died at any point during the copy leaves
    # the destination incomplete and fails the copy.
    yield from dst_fs.write_many(pairs[:-1])
    src_fs._check()
    if link_ok is not None:
        link_ok()
    yield from dst_fs.write_many(pairs[-1:])
    return total
