"""Unit tests for snapshot references and metadata (paper section 4)."""

import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opal.crs.chunks import ChunkManifest, hash_chunk
from repro.snapshot import (
    CODEC,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    LocalSnapshotMeta,
    LocalSnapshotRef,
    global_snapshot_dirname,
    read_global_meta,
    read_local_meta,
    write_global_meta,
    write_local_meta,
)
from repro.util.errors import SnapshotError
from repro.vfs.fsbase import FS
from tests.conftest import run_gen


def _local_meta(**overrides) -> LocalSnapshotMeta:
    base = dict(
        rank=3,
        jobid=1,
        crs_component="simcr",
        origin_node="node02",
        os_tag="linux-x86_64",
        interval=2,
        sim_time=1.25,
    )
    base.update(overrides)
    return LocalSnapshotMeta(**base)


class TestLocalMeta:
    def test_json_roundtrip(self):
        meta = _local_meta(app_params={"opt": "1"}, files=["image.pkl"])
        clone = LocalSnapshotMeta.from_json(meta.to_json())
        assert clone == meta

    def test_bad_json_raises(self):
        with pytest.raises(SnapshotError):
            LocalSnapshotMeta.from_json(b"not json")
        with pytest.raises(SnapshotError):
            LocalSnapshotMeta.from_json(b'{"rank": 1}')

    def test_truncated_packed_digests_are_rejected_at_decode(self):
        """A packed digest string that lost characters is still valid
        JSON; it must not decode to digests of length [64, 59].  The
        digests travel in the manifest alone: the local metadata of
        the same image lists none."""
        hashes = [hash_chunk(b"a"), hash_chunk(b"b")]
        packed = "".join(hashes)
        manifest = ChunkManifest(
            kind="full", chunk_bytes=1, total_bytes=2, hashes=hashes, present=[0, 1]
        )
        raw = manifest.to_json()
        assert packed.encode() in raw
        assert ChunkManifest.from_json(raw) == manifest
        short = raw.replace(packed.encode(), packed[:-5].encode())
        json.loads(short)  # still JSON
        with pytest.raises(SnapshotError, match="bad chunk manifest"):
            ChunkManifest.from_json(short)
        local = _local_meta(chunk_bytes=1, total_bytes=2).to_json()
        assert hashes[0][:8].encode() not in local and b"hashes" not in local

    def test_short_fixture_digests_round_trip_unpacked(self):
        # one full-width digest among short ones: 64 + 60 + 68 characters
        # would split back into three different "digests" if packed
        for hashes in (["a", "b"], ["a" * 64, "b" * 60, "c" * 68], []):
            manifest = ChunkManifest(
                kind="delta", chunk_bytes=4, total_bytes=8, hashes=hashes, present=[]
            )
            assert ChunkManifest.from_json(manifest.to_json()) == manifest

    def test_local_meta_is_a_plain_parse_outside_the_codec(self):
        """The local metadata no longer grows with the chunk count, so
        the codec never sees it: a parse per read, each reader its own
        document, and nothing memoised."""
        CODEC.clear()
        meta = _local_meta(app_params={"opt": {"nested": [1]}}, chunk_bytes=32, total_bytes=64)
        raw = meta.to_json()
        first = LocalSnapshotMeta.from_json(raw)
        first.app_params["opt"]["nested"].append(2)
        assert LocalSnapshotMeta.from_json(raw) == meta
        assert CODEC.stats() == {
            "hits": 0, "decode_misses": 0, "encode_misses": 0, "entries": 0
        }

    def test_ref_paths(self):
        ref = LocalSnapshotRef(fs_name="local:node00", path="/ckpt/r0")
        assert ref.meta_path == "/ckpt/r0/metadata.json"
        assert ref.image_path == "/ckpt/r0/image.pkl"


class TestGlobalMeta:
    def test_json_roundtrip_with_int_rank_keys(self):
        meta = GlobalSnapshotMeta(
            jobid=4,
            interval=1,
            n_procs=2,
            sim_time=0.5,
            app_name="jacobi",
            app_args={"iters": 10},
            mca_params={"crs": "simcr"},
            locals={
                0: {"path": "/s/rank0", "node": "node00", "crs": "simcr",
                    "os_tag": "linux-x86_64", "portable": True, "last_rank": 0},
                1: {"path": "/s/rank1", "node": "node01", "crs": "simcr",
                    "os_tag": "linux-x86_64", "portable": True, "last_rank": 1},
            },
        )
        clone = GlobalSnapshotMeta.from_json(meta.to_json())
        assert clone == meta
        assert set(clone.locals) == {0, 1}  # keys back to ints

    def test_to_json_is_what_asdict_encoded(self):
        """The dict is built shallowly (``asdict`` deep-copies every
        nested value per write); the bytes — a simulated write's size —
        are the ones ``asdict`` gave."""
        meta = GlobalSnapshotMeta(
            jobid=4, interval=12, n_procs=11, sim_time=0.5, app_name="churn",
            app_args={"loops": 10, "nested": {"deep": [1, 2, {"k": None}]}},
            mca_params={"crs": "simcr", "snapc_full_cas": "1"},
            # 11 ranks: int keys sort numerically (2 before 10), not as text
            locals={
                rank: {"path": f"/s/rank{rank}", "node": f"node{rank:02d}",
                       "crs": "simcr", "portable": True, "last_rank": rank}
                for rank in reversed(range(11))
            },
            kind="delta", base_interval=11,
            base_chain=["/snapshots/g.10", "/snapshots/g.11"], cas=True,
            staging={"state": "failed", "committed_sim_time": None, "error": "x"},
        )
        expected = json.dumps(asdict(meta), sort_keys=True, indent=1).encode()
        assert meta.to_json() == expected
        assert GlobalSnapshotMeta.from_json(expected) == meta
        # the encoder copies nothing and keeps nothing
        meta.staging["state"] = "committed"
        assert b'"state": "committed"' in meta.to_json()

    def test_dirname_has_job_and_interval(self):
        assert global_snapshot_dirname(7, 3) == "ompi_global_snapshot_7.3"

    def test_ref_local_dirs(self):
        ref = GlobalSnapshotRef("/snapshots/g")
        assert ref.local_dir(2) == "/snapshots/g/rank2"
        assert ref.meta_path == "/snapshots/g/metadata.json"


class TestTimedIO:
    def test_local_meta_fs_roundtrip(self, kernel):
        fs = FS(kernel, "t")
        ref = LocalSnapshotRef(fs_name="t", path="/snap")
        meta = _local_meta()

        def main():
            yield from write_local_meta(fs, ref, meta)
            loaded = yield from read_local_meta(fs, ref)
            return loaded

        assert run_gen(kernel, main()) == meta

    def test_global_meta_fs_roundtrip(self, kernel):
        fs = FS(kernel, "t")
        ref = GlobalSnapshotRef("/snapshots/g")
        meta = GlobalSnapshotMeta(
            jobid=1, interval=1, n_procs=1, sim_time=0.0, app_name="ring"
        )

        def main():
            yield from write_global_meta(fs, ref, meta)
            loaded = yield from read_global_meta(fs, ref)
            return loaded

        assert run_gen(kernel, main()) == meta

    def test_read_missing_global_snapshot(self, kernel):
        fs = FS(kernel, "t")

        def main():
            yield from read_global_meta(fs, GlobalSnapshotRef("/nope"))

        with pytest.raises(SnapshotError):
            run_gen(kernel, main())


# ---------------------------------------------------------------------------
# The document codec: one bounded, content-keyed memo
# ---------------------------------------------------------------------------

DIGESTS = [hash_chunk(bytes([n])) for n in range(6)]


def _manifest(n: int = 4, **overrides) -> ChunkManifest:
    base = dict(
        kind="full", chunk_bytes=32, total_bytes=32 * n,
        hashes=DIGESTS[:n], present=list(range(n)), interval=1,
    )
    base.update(overrides)
    return ChunkManifest(**base)


class TestDocumentCodec:
    def test_each_reader_owns_its_lists(self):
        """What one reader does to its document is invisible to the next
        reader of the same bytes, on the miss and on every hit."""
        CODEC.clear()
        raw_manifest = _manifest().to_json()
        raw_local = _local_meta(
            app_params={"opt": {"nested": [1]}}, files=["image.pkl"],
        ).to_json()
        for _ in range(3):
            manifest = ChunkManifest.from_json(raw_manifest)
            assert manifest == _manifest()
            assert type(manifest.hashes) is list and type(manifest.present) is list
            manifest.hashes.append("junk")
            manifest.present.clear()
            manifest.hashes[0] = "junk"

            local = LocalSnapshotMeta.from_json(raw_local)
            assert local.app_params == {"opt": {"nested": [1]}}
            assert local.files == ["image.pkl"]
            local.app_params["opt"]["nested"].append(2)
            local.app_params["more"] = 1
            local.files.clear()
        # a writer's own lists are not the memo's either
        doc = _manifest()
        raw = doc.to_json()
        doc.hashes[0] = "junk"
        assert ChunkManifest.from_json(raw) == _manifest()
        assert doc.to_json() != raw
        stats = CODEC.stats()
        # the local metadata is parsed on every read, outside the codec
        # (it was its one decode miss while it listed the digests too)
        assert stats["decode_misses"] == 0
        assert stats["encode_misses"] == 2

    def test_bounded_and_evicts_oldest_first(self):
        CODEC.clear()
        bound = CODEC.BOUND
        docs = [_manifest(interval=n) for n in range(bound)]
        raws = [doc.to_json() for doc in docs]  # two entries each
        assert CODEC.stats() == {
            "hits": 0, "decode_misses": 0, "encode_misses": bound, "entries": bound
        }
        # the older half was evicted, oldest first; it still decodes right
        assert ChunkManifest.from_json(raws[-1]) == docs[-1]
        assert CODEC.stats()["hits"] == 1
        assert ChunkManifest.from_json(raws[0]) == docs[0]
        assert ChunkManifest.from_json(raws[0]) == docs[0]
        stats = CODEC.stats()
        assert (stats["decode_misses"], stats["hits"]) == (1, 2)
        assert stats["entries"] == bound
        # a hit makes an entry the newest: raws[-1] outlives a refill
        for n in range(bound - 2):
            ChunkManifest.from_json(_manifest(interval=-1 - n, present=[]).to_json())
            ChunkManifest.from_json(raws[-1])
        before = CODEC.stats()["decode_misses"]
        assert ChunkManifest.from_json(raws[-1]) == docs[-1]
        assert CODEC.stats()["decode_misses"] == before
        assert CODEC.stats()["entries"] <= bound

    def test_bad_bytes_are_never_cached(self):
        CODEC.clear()
        for _ in range(2):
            with pytest.raises(SnapshotError, match="bad chunk manifest"):
                ChunkManifest.from_json(b'{"kind": "full"}')
        assert CODEC.stats() == {
            "hits": 0, "decode_misses": 2, "encode_misses": 0, "entries": 0
        }
        # the same bytes are one document kind's error and not the other's
        raw = _manifest().to_json()
        with pytest.raises(SnapshotError, match="bad local snapshot metadata"):
            LocalSnapshotMeta.from_json(raw)
        assert ChunkManifest.from_json(raw) == _manifest()


short_digests = st.lists(st.text("0123456789abcdef", max_size=70), max_size=6)
full_digests = st.lists(st.sampled_from(DIGESTS), max_size=12)
digest_lists = st.one_of(full_digests, short_digests)


@st.composite
def manifests(draw):
    hashes = draw(digest_lists)
    everything = list(range(len(hashes)))
    present = draw(
        st.one_of(
            st.just(everything),
            st.just([]),
            st.lists(st.sampled_from(everything), unique=True).map(sorted)
            if everything else st.just([]),
        )
    )
    kind = draw(st.sampled_from(["full", "delta"]))
    return ChunkManifest(
        kind=kind,
        chunk_bytes=draw(st.integers(1, 1 << 20)),
        total_bytes=draw(st.integers(0, 1 << 30)),
        hashes=hashes,
        present=present,
        base_interval=draw(st.integers(0, 50)) if kind == "delta" else None,
        interval=draw(st.integers(0, 50)),
    )


@st.composite
def local_metas(draw):
    manifest = draw(manifests())
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )
    return _local_meta(
        rank=draw(st.integers(0, 64)),
        sim_time=draw(st.floats(0, 1e3, allow_nan=False)),
        portable=draw(st.booleans()),
        app_params=draw(st.dictionaries(st.text(max_size=4), json_values, max_size=3)),
        files=draw(st.lists(st.text(max_size=8), max_size=3)),
        kind=manifest.kind,
        base_interval=manifest.base_interval,
        written_bytes=draw(st.integers(0, 1 << 30)),
        chunk_bytes=manifest.chunk_bytes,
        total_bytes=manifest.total_bytes,
    )


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(manifests(), local_metas()))
def test_round_trip_cold_and_warm(doc):
    """``from_json(to_json(doc)) == doc`` whether the codec has seen the
    document, its bytes, both or neither — and the bytes are the same."""
    kind = type(doc)
    CODEC.clear()
    raw = doc.to_json()
    warm = kind.from_json(raw)  # seeded by the writer, or a real parse
    assert warm == doc
    assert kind.from_json(raw) == doc  # a hit either way
    assert doc.to_json() == raw
    CODEC.clear()
    cold = kind.from_json(raw)  # a real parse of the bytes
    assert cold == doc == warm
    assert cold.to_json() == raw
    assert CODEC.stats()["entries"] <= 3


def test_probe_shape_round_trip_compares_lists():
    """``bench/probes.py`` compares the decoded ``hashes`` with the
    encoded ``list`` using ``!=``: lists out, on hits too."""
    rng = random.Random(2)
    hashes = [hash_chunk(rng.randbytes(32)) for _ in range(2048)]
    manifest = ChunkManifest(
        kind="full", chunk_bytes=32, total_bytes=32 * len(hashes),
        hashes=hashes, present=list(range(len(hashes))),
    )
    for _ in range(3):
        assert not ChunkManifest.from_json(manifest.to_json()).hashes != hashes
