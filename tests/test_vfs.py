"""Unit tests for the storage substrate."""

import pytest

from repro.simenv.kernel import Kernel
from repro.vfs import path as vpath
from repro.vfs.fsbase import FS
from repro.vfs.sharedfs import SharedFS
from repro.vfs.transfer import copy_file, copy_tree
from repro.util.errors import VFSError
from tests.conftest import run_gen


class TestPath:
    def test_normalize(self):
        assert vpath.normalize("/a/b/c") == "/a/b/c"
        assert vpath.normalize("a/b") == "/a/b"
        assert vpath.normalize("/a//b/./c") == "/a/b/c"
        assert vpath.normalize("/a/b/../c") == "/a/c"
        assert vpath.normalize("/") == "/"

    def test_escape_rejected(self):
        with pytest.raises(VFSError):
            vpath.normalize("/../x")
        with pytest.raises(VFSError):
            vpath.normalize("")

    def test_join(self):
        assert vpath.join("/a", "b", "c") == "/a/b/c"
        assert vpath.join("/a/", "/b/") == "/a/b"

    def test_split_dirname_basename(self):
        assert vpath.split("/a/b/c") == ("/a/b", "c")
        assert vpath.dirname("/a/b") == "/a"
        assert vpath.basename("/a/b") == "b"
        assert vpath.split("/") == ("/", "")
        assert vpath.dirname("/x") == "/"

    def test_is_under(self):
        assert vpath.is_under("/a/b/c", "/a/b")
        assert vpath.is_under("/a/b", "/a/b")
        assert not vpath.is_under("/a/bc", "/a/b")
        assert not vpath.is_under("/a", "/a/b")


class TestFS:
    @pytest.fixture
    def fs(self, kernel):
        return FS(kernel, "test", bandwidth_Bps=1e6, op_latency_s=0.001)

    def test_write_read_roundtrip(self, kernel, fs):
        def main():
            n = yield from fs.write("/d/f", b"hello")
            data = yield from fs.read("/d/f")
            return n, data

        n, data = run_gen(kernel, main())
        assert (n, data) == (5, b"hello")
        assert fs.bytes_written == 5 and fs.bytes_read == 5

    def test_io_is_timed(self, kernel, fs):
        def main():
            yield from fs.write("/f", b"x" * 1_000_000)

        run_gen(kernel, main())
        assert kernel.now == pytest.approx(0.001 + 1.0)

    def test_read_missing_raises(self, kernel, fs):
        def main():
            yield from fs.read("/nope")

        with pytest.raises(VFSError):
            run_gen(kernel, main())

    def test_non_bytes_write_rejected(self, kernel, fs):
        def main():
            yield from fs.write("/f", "not bytes")

        with pytest.raises(VFSError):
            run_gen(kernel, main())

    def test_remove(self, kernel, fs):
        fs.poke("/f", b"x")

        def main():
            yield from fs.remove("/f")

        run_gen(kernel, main())
        assert not fs.exists("/f")

    def test_remove_tree(self, kernel, fs):
        for name in ("a", "b", "c"):
            fs.poke(f"/dir/{name}", b"1")
        fs.poke("/other", b"2")

        def main():
            count = yield from fs.remove_tree("/dir")
            return count

        assert run_gen(kernel, main()) == 3
        assert fs.list_tree("/") == ["/other"]
        assert not fs.isdir("/dir")

    def test_dirs_implicit_and_explicit(self, kernel, fs):
        fs.poke("/a/b/file", b"x")
        assert fs.isdir("/a/b")
        assert fs.exists("/a/b")
        assert not fs.isdir("/a/c")
        fs.mkdir("/a/c")
        assert fs.isdir("/a/c")

    def test_stat(self, kernel, fs):
        fs.poke("/f", b"abc")
        stat = fs.stat("/f")
        assert stat.size == 3 and stat.path == "/f"
        with pytest.raises(VFSError):
            fs.stat("/missing")

    def test_list_and_size_tree(self, kernel, fs):
        fs.poke("/d/x", b"12")
        fs.poke("/d/sub/y", b"345")
        fs.poke("/e", b"6")
        assert fs.list_tree("/d") == ["/d/sub/y", "/d/x"]
        assert fs.size_tree("/d") == 5

    def test_tree_prefix_root_trailing_slash_and_siblings(self, kernel, fs):
        for path in ("/d/x", "/d/sub/y", "/dx", "/d2/z", "/e"):
            fs.poke(path, b"1")
        fs.mkdir("/d/empty")
        fs.mkdir("/d2/empty")
        everything = ["/d/sub/y", "/d/x", "/d2/z", "/dx", "/e"]
        assert fs.list_tree("/") == fs.list_tree() == everything
        # a trailing slash or an unnormalised prefix names the same tree
        assert fs.list_tree("/d/") == fs.list_tree("d//./") == ["/d/sub/y", "/d/x"]
        # a file is "under" its own path; a sibling sharing the prefix
        # string ("/dx", "/d2") is not under "/d"
        assert fs.list_tree("/dx") == ["/dx"]
        assert all(
            vpath.is_under(f, "/d") == (f in fs.list_tree("/d")) for f in everything
        )

        def main():
            count = yield from fs.remove_tree("/d/")
            return count

        assert run_gen(kernel, main()) == 2
        assert fs.list_tree("/") == ["/d2/z", "/dx", "/e"]
        assert not fs.isdir("/d") and not fs.isdir("/d/empty")
        assert fs.isdir("/d2/empty")

        def wipe():
            count = yield from fs.remove_tree("/")
            return count

        assert run_gen(kernel, wipe()) == 3
        assert fs.list_tree("/") == [] and not fs.isdir("/d2/empty")

    def test_unreachable_fs_rejects_everything(self, kernel, fs):
        fs.poke("/f", b"x")
        fs.mark_unreachable()
        with pytest.raises(VFSError):
            fs.exists("/f")
        with pytest.raises(VFSError):
            fs.peek("/f")

        def main():
            yield from fs.read("/f")

        with pytest.raises(VFSError):
            run_gen(kernel, main())

    def test_crash_mid_write_loses_data(self, kernel, fs):
        def main():
            yield from fs.write("/f", b"x" * 500_000)

        thread = kernel.spawn(main(), "w")
        kernel.call_later(0.1, fs.mark_unreachable)
        kernel.run()
        assert thread.done.fired
        assert not thread.alive


class TestBatchedEqualsLoop:
    """The batched forms cost exactly the sum of the single-item calls
    they replace, and move the same bytes.  Parameters are powers of
    two so every delay sums without rounding."""

    FILES = [(f"/snap/d{i % 2}/f{i}", bytes([i]) * (512 * (i + 1))) for i in range(5)]

    @staticmethod
    def _fs(kernel, name):
        return FS(kernel, name, bandwidth_Bps=2.0**20, op_latency_s=2.0**-10)

    def test_write_many_read_many(self):
        loop, batch = self._fs(Kernel(), "loop"), self._fs(Kernel(), "batch")
        paths = [path for path, _ in self.FILES]

        def one_by_one():
            for path, data in self.FILES:
                yield from loop.write(path, data)
            written_at = loop.kernel.now
            blobs = []
            for path in paths:
                blobs.append((yield from loop.read(path)))
            return written_at, blobs

        def batched():
            yield from batch.write_many(self.FILES)
            written_at = batch.kernel.now
            blobs = yield from batch.read_many(paths)
            return written_at, blobs

        assert run_gen(batch.kernel, batched()) == run_gen(loop.kernel, one_by_one())
        assert batch.kernel.now == loop.kernel.now > 0
        assert batch.bytes_written == loop.bytes_written
        assert batch.bytes_read == loop.bytes_read
        assert batch._files == loop._files

    def test_copy_tree(self):
        link = {"extra_net_Bps": 2.0**18, "extra_latency_s": 2.0**-6}

        def file_by_file(src, dst):
            total = 0
            for path, _ in self.FILES:
                total += yield from copy_file(
                    src, path, dst, path.replace("/snap", "/out"), **link
                )
            return total

        def whole_tree(src, dst):
            return copy_tree(src, "/snap", dst, "/out", **link)

        def outcome(copier):
            kernel = Kernel()
            src, dst = self._fs(kernel, "src"), self._fs(kernel, "dst")
            for path, data in self.FILES:
                src.poke(path, data)
            moved = run_gen(kernel, copier(src, dst))
            return moved, kernel.now, src.bytes_read, dst.bytes_written, dst._files

        expected = outcome(file_by_file)
        assert outcome(whole_tree) == expected
        assert expected[0] == sum(len(data) for _, data in self.FILES)


class TestSharedFS:
    def test_survives_forever(self, kernel):
        fs = SharedFS(kernel)
        with pytest.raises(AssertionError):
            fs.mark_unreachable()

    def test_network_hop_cost(self, kernel):
        fs = SharedFS(kernel, bandwidth_Bps=1e6, op_latency_s=0.001, net_hop_s=0.01)

        def main():
            yield from fs.write("/f", b"x")
            data = yield from fs.read("/f")
            return data

        assert run_gen(kernel, main()) == b"x"
        assert kernel.now >= 2 * 0.01


class TestTransfer:
    def test_copy_file(self, kernel):
        src = FS(kernel, "src")
        dst = FS(kernel, "dst")
        src.poke("/a/f", b"data!")

        def main():
            n = yield from copy_file(src, "/a/f", dst, "/b/g")
            return n

        assert run_gen(kernel, main()) == 5
        assert dst.peek("/b/g") == b"data!"

    def test_copy_file_extra_network_cost(self, kernel):
        src = FS(kernel, "src", bandwidth_Bps=1e9, op_latency_s=0)
        dst = FS(kernel, "dst", bandwidth_Bps=1e9, op_latency_s=0)
        src.poke("/f", b"x" * 1_000_000)

        def main():
            yield from copy_file(src, "/f", dst, "/f", extra_net_Bps=1e6, extra_latency_s=0.5)

        run_gen(kernel, main())
        assert kernel.now >= 0.5 + 1.0

    def test_copy_tree_preserves_layout(self, kernel):
        src = FS(kernel, "src")
        dst = FS(kernel, "dst")
        src.poke("/snap/meta", b"m")
        src.poke("/snap/img/data", b"d")

        def main():
            n = yield from copy_tree(src, "/snap", dst, "/out")
            return n

        assert run_gen(kernel, main()) == 2
        assert dst.peek("/out/meta") == b"m"
        assert dst.peek("/out/img/data") == b"d"
