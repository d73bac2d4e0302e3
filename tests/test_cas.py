"""Content-addressed snapshot store: unit tests for the chunk store,
the offer/ship staging path, restart-time chunk verification, and
garbage collection across interval retirement.

Integration timings follow the churn conventions of
``test_errmgr_recovery``: a 4 MB-per-rank interval requested at ``t``
is committed well before ``t + 0.25`` sim-seconds (the CAS path ships
only unique chunks, so it commits even faster than plain staging).
"""

from __future__ import annotations

import sys

import pytest

from repro.opal.crs import chunks as chunkstore
from repro.orte import oob
from repro.simenv.campaign import _drain_background
from repro.simenv.kernel import Kernel
from repro.snapshot import CODEC, read_global_meta
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_restart,
    ompi_run,
)
from repro.util.errors import RestartError, SnapshotError
from repro.vfs import path as vpath
from repro.vfs.cas import ChunkStore, chunk_digest
from repro.vfs.fsbase import FS
from tests.conftest import make_universe, run_gen
from tests.test_failover import settle_lineage
from tests.test_filem import restart_staging

CAS = {"snapc_full_cas": "1", "filem": "rsh"}
#: ~0.55 sim-seconds of runtime, 4 MB of (mostly zero) state per rank
CHURN = {"loops": 50, "compute_s": 0.01, "state_bytes": 4 << 20}
JACOBI = {"n_global": 256, "iters": 500, "iter_compute_s": 6e-4}


def _read_manifest(universe, ref, rank):
    stable = universe.cluster.stable_fs
    return run_gen(
        universe.kernel,
        chunkstore.read_manifest(stable, ref.local_dir(rank)),
    )


def _stager(universe):
    return universe.hnp.snapc.stager(universe.hnp)


def _cas_backend(universe):
    return _stager(universe).backends[True]


class TestChunkStore:
    @pytest.fixture
    def fs(self, kernel):
        return FS(kernel, "stable", bandwidth_Bps=1e8, op_latency_s=0.001)

    @pytest.fixture
    def store(self, fs):
        return ChunkStore(fs, root="/cas")

    def test_put_get_roundtrip_and_dedup(self, kernel, store):
        data = b"chunk payload"
        digest = chunk_digest(data)

        def main():
            first = yield from store.put(digest, data)
            second = yield from store.put(digest, data)
            blob = yield from store.get(digest)
            return first, second, blob

        first, second, blob = run_gen(kernel, main())
        assert first == len(data)
        assert second == 0  # dedup hit: no bytes written
        assert blob == data
        assert store.has(digest)

    def test_put_many_get_many_cost_the_single_item_loop(self):
        """Batching preserves sim time and bytes: ``put_many`` equals a
        ``put`` per chunk (a stored chunk and an in-batch repeat are
        both dedup hits), ``get_many`` a ``get`` per *unique* digest.
        Power-of-two FS parameters make every delay sum exactly."""
        payloads = [b"a" * 1024, b"b" * 2048, b"a" * 1024, b"c" * 512]
        chunks = [(chunk_digest(p), p) for p in payloads]
        digests = [d for d, _ in chunks]
        stores = []
        for _ in range(2):
            fs = FS(Kernel(), "stable", bandwidth_Bps=2.0**20, op_latency_s=2.0**-10)
            store = ChunkStore(fs, root="/cas")
            run_gen(fs.kernel, store.put(*chunks[1]))  # pre-stored: a dedup hit
            stores.append(store)
        loop, batch = stores

        def one_by_one():
            written = 0
            for digest, data in chunks:
                written += yield from loop.put(digest, data)
            put_at = loop.fs.kernel.now
            blobs = {}
            for digest in dict.fromkeys(digests):
                blobs[digest] = yield from loop.get(digest)
            return written, put_at, [blobs[d] for d in digests]

        def batched():
            written = yield from batch.put_many(chunks)
            put_at = batch.fs.kernel.now
            blobs = yield from batch.get_many(digests)
            return written, put_at, blobs

        expected = run_gen(loop.fs.kernel, one_by_one())
        assert run_gen(batch.fs.kernel, batched()) == expected
        assert expected[0] == 1024 + 512 and expected[2] == payloads
        assert batch.fs.kernel.now == loop.fs.kernel.now
        assert batch.fs.bytes_written == loop.fs.bytes_written
        assert batch.fs.bytes_read == loop.fs.bytes_read
        assert batch.fs._files == loop.fs._files

    @pytest.mark.parametrize("root", ["/cas", "/", "pool//cas/", "/a/./b/../c"])
    def test_blob_path_is_what_vpath_join_builds(self, kernel, root):
        """``blob_path`` formats onto an objects root normalised once;
        the strings are the ones ``vpath.join`` built per chunk."""
        store = ChunkStore(FS(kernel, "stable"), root=root)
        for digest in (chunk_digest(b""), chunk_digest(b"x"), "ab" * 32, "0" * 64):
            assert store.blob_path(digest) == vpath.join(
                root, "objects", digest[:2], digest
            )

    def test_put_rejects_mismatched_digest(self, kernel, store):
        def main():
            yield from store.put(chunk_digest(b"expected"), b"actual")

        with pytest.raises(SnapshotError, match="does not match"):
            run_gen(kernel, main())

    def test_put_many_rejects_mismatched_digest(self, kernel, store):
        good = (chunk_digest(b"good"), b"good")

        def main():
            yield from store.put_many([good, (chunk_digest(b"expected"), b"actual")])

        with pytest.raises(SnapshotError, match="does not match"):
            run_gen(kernel, main())

    def test_get_absent_chunk_raises(self, kernel, store):
        def main():
            yield from store.get(chunk_digest(b"never stored"))

        with pytest.raises(SnapshotError, match="absent"):
            run_gen(kernel, main())

    def test_get_verifies_content(self, kernel, fs, store):
        data = b"to be corrupted"
        digest = chunk_digest(data)
        run_gen(kernel, store.put(digest, data))
        fs.poke(store.blob_path(digest), b"garbage")

        def main():
            yield from store.get(digest)

        with pytest.raises(SnapshotError, match="verification"):
            run_gen(kernel, main())

    def test_missing_answers_offer_in_order(self, kernel, store):
        held = b"already here"
        run_gen(kernel, store.put(chunk_digest(held), held))
        d_a, d_b = chunk_digest(b"aa"), chunk_digest(b"bb")
        offer = [d_a, chunk_digest(held), d_b, d_a]  # duplicates collapse
        assert store.missing(offer) == [d_a, d_b]
        assert store.missing([chunk_digest(held)]) == []

    def test_refcounts_and_gc(self, kernel, store):
        shared, only_a = b"shared", b"only-a"
        d_shared, d_only = chunk_digest(shared), chunk_digest(only_a)

        def setup():
            yield from store.put(d_shared, shared)
            yield from store.put(d_only, only_a)
            yield from store.add_refs("/snap/a", [d_shared, d_only])
            yield from store.add_refs("/snap/b", [d_shared])
            # idempotent merge: re-adding does not duplicate anything
            yield from store.add_refs("/snap/b", [d_shared])

        run_gen(kernel, setup())
        assert store.refcount(d_shared) == 2
        assert store.refcount(d_only) == 1
        assert store.owners() == ["/snap/a", "/snap/b"]

        removed, freed = run_gen(kernel, store.gc())
        assert (removed, freed) == (0, 0)  # everything still referenced

        run_gen(kernel, store.release("/snap/a"))
        removed, freed = run_gen(kernel, store.gc())
        assert removed == 1 and freed == len(only_a)
        assert store.has(d_shared) and not store.has(d_only)

        run_gen(kernel, store.release("/snap/b"))
        removed, _ = run_gen(kernel, store.gc())
        assert removed == 1
        assert store.stats()["blobs"] == 0

    def test_stats(self, kernel, store):
        data = b"x" * 100
        run_gen(kernel, store.put(chunk_digest(data), data))
        run_gen(kernel, store.add_refs("/snap/a", [chunk_digest(data)]))
        stats = store.stats()
        assert stats == {
            "blobs": 1, "stored_bytes": 100, "owners": 1, "referenced": 1
        }


def _write_full(fs, directory, blob, n, hashes, interval):
    """A full directory as ``CRSComponent.checkpoint`` lays it out
    (minus ``metadata.json``); returns its manifest."""
    manifest = chunkstore.ChunkManifest(
        kind="full", chunk_bytes=n, total_bytes=len(blob), hashes=hashes,
        present=list(range(len(hashes))), interval=interval,
    )
    yield from fs.write(f"{directory}/image.pkl", blob)
    yield from chunkstore.write_manifest(fs, directory, manifest)
    return manifest


class TestManifestEdgeCases:
    def test_split_chunks_empty_blob(self):
        # An empty image is one empty chunk, not zero chunks — the
        # manifest always has at least one hash to verify against.
        assert chunkstore.split_chunks(b"", 4) == [b""]
        assert chunkstore.split_chunks(b"", 1 << 20) == [b""]

    def test_empty_image_round_trips_through_chunks(self, kernel):
        fs = FS(kernel, "t", bandwidth_Bps=1e8, op_latency_s=0.001)
        chunks = chunkstore.split_chunks(b"", 64)
        hashes = [chunkstore.hash_chunk(c) for c in chunks]

        def main():
            manifest = yield from _write_full(fs, "/s/1", b"", 64, hashes, 1)
            payloads = yield from chunkstore.load_chunks(fs, "/s/1", manifest, [0])
            blob, _ = yield from chunkstore.reconstruct_chain(fs, ["/s/1"])
            return payloads, blob

        payloads, blob = run_gen(kernel, main())
        assert payloads == {0: b""}
        assert blob == b""

    def test_manifest_unknown_keys_raise_snapshot_error(self):
        good = chunkstore.ChunkManifest(
            kind="full", chunk_bytes=4, total_bytes=8,
            hashes=["a", "b"], present=[0, 1], interval=1,
        )
        raw = good.to_json()
        assert chunkstore.ChunkManifest.from_json(raw).hashes == ["a", "b"]
        tampered = raw.replace(b'"kind"', b'"bogus_key": 1, "kind"')
        with pytest.raises(SnapshotError, match="bad chunk manifest"):
            chunkstore.ChunkManifest.from_json(tampered)

    def test_manifest_garbage_json_raises_snapshot_error(self):
        with pytest.raises(SnapshotError):
            chunkstore.ChunkManifest.from_json(b"not json at all")


class TestChunkSizeChangeAcrossChain:
    """Regression: ``reconstruct_chain`` used the *newest* manifest's
    chunk geometry to split the base image, corrupting any chain whose
    ``crs_base_chunk_bytes`` changed between intervals."""

    @staticmethod
    def _hashes(blob, chunk_bytes):
        return [
            chunkstore.hash_chunk(c)
            for c in chunkstore.split_chunks(blob, chunk_bytes)
        ]

    @classmethod
    def _write_delta(cls, fs, directory, blob, base_blob, n, interval, base):
        """A delta directory as ``CRSComponent.checkpoint`` lays it out:
        the chunks of *blob* that differ from *base_blob* at *n*-byte
        chunks, plus the manifest."""
        hashes, dirty = chunkstore.hash_chunks(
            blob, n,
            {"chunk_bytes": n, "hashes": cls._hashes(base_blob, n), "blob": base_blob},
        )
        for i in dirty:
            yield from fs.write(
                f"{directory}/{chunkstore.chunk_filename(i)}", blob[i * n : (i + 1) * n]
            )
        yield from chunkstore.write_manifest(fs, directory, chunkstore.ChunkManifest(
            kind="delta", chunk_bytes=n, total_bytes=len(blob), hashes=hashes,
            present=dirty, base_interval=base, interval=interval,
        ))

    def test_delta_with_different_chunk_bytes_mid_chain(self, kernel):
        fs = FS(kernel, "t", bandwidth_Bps=1e8, op_latency_s=0.001)
        blob_a = bytes(range(20))
        blob_b = blob_a[:5] + b"\xff" + blob_a[6:]
        blob_c = blob_b[:17] + b"\xee" + blob_b[18:]

        def build():
            # interval 1: full image at 4-byte chunks
            yield from _write_full(fs, "/c/1", blob_a, 4, self._hashes(blob_a, 4), 1)
            # interval 2: delta at the same geometry
            yield from self._write_delta(fs, "/c/2", blob_b, blob_a, 4, 2, 1)
            # interval 3: the operator changed crs_base_chunk_bytes —
            # this delta's indices are relative to 3-byte chunks
            yield from self._write_delta(fs, "/c/3", blob_c, blob_b, 3, 3, 2)
            blob, manifest = yield from chunkstore.reconstruct_chain(
                fs, ["/c/1", "/c/2", "/c/3"]
            )
            return blob, manifest

        blob, manifest = run_gen(kernel, build())
        assert blob == blob_c
        assert manifest.chunk_bytes == 3

    def test_corrupted_delta_chunk_fails_verification(self, kernel):
        """Capture may take digests over from its own previous image;
        reconstruction hashes every byte it is handed back."""
        fs = FS(kernel, "t", bandwidth_Bps=1e8, op_latency_s=0.001)
        blob_a = bytes(range(20))
        blob_b = blob_a[:5] + b"\xff" + blob_a[6:]

        def build(corrupt):
            yield from _write_full(fs, "/c/1", blob_a, 4, self._hashes(blob_a, 4), 1)
            yield from self._write_delta(fs, "/c/2", blob_b, blob_a, 4, 2, 1)
            if corrupt:
                fs.poke(f"/c/2/{chunkstore.chunk_filename(1)}", b"\x04\xfe\x06\x07")
            return (yield from chunkstore.reconstruct_chain(fs, ["/c/1", "/c/2"]))

        assert run_gen(kernel, build(False))[0] == blob_b
        with pytest.raises(RestartError, match="chunk 1 .* fails verification"):
            run_gen(kernel, build(True))

    def test_legacy_base_adopts_first_delta_geometry(self, kernel):
        fs = FS(kernel, "t", bandwidth_Bps=1e8, op_latency_s=0.001)
        blob_a = bytes(range(20))
        blob_b = blob_a[:5] + b"\xff" + blob_a[6:]

        def build():
            # pre-incremental layout: image only, no chunks.json
            yield from fs.write("/c/1/image.pkl", blob_a)
            yield from self._write_delta(fs, "/c/2", blob_b, blob_a, 3, 2, 1)
            blob, _ = yield from chunkstore.reconstruct_chain(fs, ["/c/1", "/c/2"])
            return blob

        assert run_gen(kernel, build()) == blob_b


class TestCASStaging:
    def test_dedup_across_ranks_and_intervals(self):
        universe = make_universe(4, params=CAS)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.35, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"

        stager = _stager(universe)
        records = stager.job_records(job.jobid)
        assert len(records) == 2
        assert all(r.cas and r.state == "committed" for r in records)
        r1, r2 = records
        # every rank's 4 MB image counts toward the logical size...
        assert r1.bytes_logical >= 4 * (4 << 20)
        # ...but the zero ballast collapses to a handful of unique
        # chunks: identical chunks across ranks ship exactly once
        assert r1.bytes_moved < r1.bytes_logical / 2
        # the second interval re-ships only chunks the store lacks
        assert r2.bytes_moved <= r1.bytes_moved
        assert r2.bytes_moved < r2.bytes_logical / 2

        # rank directories on stable storage hold metadata only — the
        # bytes live in the store, referenced per directory
        stable = universe.cluster.stable_fs
        store = _cas_backend(universe).store
        for ref in job.snapshots:
            for rank in range(4):
                local = ref.local_dir(rank)
                assert stable.exists(f"{local}/chunks.json")
                assert stable.exists(f"{local}/metadata.json")
                assert not stable.exists(f"{local}/image.pkl")
                assert store.refcount(_read_manifest(
                    universe, ref, rank
                ).hashes[0]) >= 1
        stats = store.stats()
        assert stats["blobs"] > 0
        assert stats["owners"] == 8  # 2 intervals x 4 rank dirs
        # stored bytes stay well under the logical bytes (the dedup
        # contract E10 measures)
        assert stats["stored_bytes"] < (r1.bytes_logical + r2.bytes_logical) / 2

    def test_global_meta_marks_cas_interval(self):
        universe = make_universe(4, params=CAS)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        meta = run_gen(
            universe.kernel,
            read_global_meta(universe.cluster.stable_fs, ref),
        )
        assert meta.cas is True
        # CAS intervals are self-contained: restart never walks a chain
        assert meta.base_chain == []

    def test_the_store_lives_under_its_configured_root(self):
        universe = make_universe(4, params={**FINE, "snapc_full_cas_root": "/stores/chunks"})
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        stable = universe.cluster.stable_fs
        assert _cas_backend(universe).store.root == "/stores/chunks"
        assert stable.list_tree("/stores/chunks/objects")
        assert stable.list_tree("/cas") == []
        restarted = ompi_restart(universe, checkpoint_ref(handle))
        assert restarted.results == job.results

    def test_shared_filem_falls_back_to_plain_staging(self):
        # The shared-FS FILEM writes directly to stable storage; it
        # cannot negotiate with the store, so CAS must quietly disable.
        universe = make_universe(
            4, params=dict(CAS, filem="shared")
        )
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        records = _stager(universe).job_records(job.jobid)
        assert records and not any(r.cas for r in records)
        assert universe.cluster.stable_fs.exists(
            f"{ref.local_dir(0)}/image.pkl"
        )


class TestCASRestart:
    def test_restart_from_cas_snapshot_matches_baseline(self):
        baseline = ompi_run(
            make_universe(4), "jacobi", 4, args=JACOBI
        ).results
        universe = make_universe(4, params=CAS)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.08, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        # every rank one node along, so each is fetched from the store
        moved = {rank: f"node0{(rank + 1) % 4}" for rank in range(4)}
        new_job = ompi_restart(universe, checkpoint_ref(handle), placement=moved)
        assert new_job.state.value == "finished"
        assert new_job.results == baseline

    def test_chunk_loss_is_retryable_and_repaired_by_restaging(self):
        """Losing a blob makes restart fail with a *retryable* error;
        any later checkpoint that ships the chunk repairs the store and
        the original snapshot restarts cleanly — nothing is ever
        permanently blacklisted."""
        universe = make_universe(4, params=CAS)
        job1 = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        h1 = ompi_checkpoint(universe, job1.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job1)
        ref1 = checkpoint_ref(h1)

        stable = universe.cluster.stable_fs
        store = _cas_backend(universe).store
        # the most frequent digest is the all-zero ballast chunk, which
        # any later churn checkpoint is guaranteed to contain again
        hashes = _read_manifest(universe, ref1, 0).hashes
        victim = max(set(hashes), key=hashes.count)
        assert store.has(victim)
        run_gen(universe.kernel, stable.remove(store.blob_path(victim)))

        with pytest.raises(RestartError, match="absent from the store"):
            ompi_restart(universe, ref1)

        # repair by re-staging: a new job's checkpoint offers the same
        # digest, the store reports it missing, FILEM ships it again
        job2 = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        ompi_checkpoint(
            universe, job2.jobid, at=universe.kernel.now + 0.1, wait=False
        )
        universe.run_job_to_completion(job2)
        assert store.has(victim)

        new_job = ompi_restart(universe, ref1)
        assert new_job.state.value == "finished"


#: 32-byte chunks: a churn rank's 16 KiB image is ~530 chunks, ~27
#: distinct, most of them (the zero ballast) shared by every rank
FINE = {**CAS, "crs_base_chunk_bytes": "32"}
SMALL = {"loops": 80, "compute_s": 0.01, "state_bytes": 16 << 10}


def _peek_manifest(universe, ref, rank):
    """Untimed: usable inside a kernel callback."""
    raw = universe.cluster.stable_fs.peek(chunkstore.manifest_path(ref.local_dir(rank)))
    return chunkstore.ChunkManifest.from_json(raw)


def two_intervals(**params):
    """A 4-rank churn job checkpointed at 0.1 and 0.3 by CAS with
    32-byte chunks, autorecover on, tracer on; node03 crashes at 0.55."""
    universe = make_universe(4, {**FINE, "orte_errmgr_autorecover": "1", **params})
    universe.kernel.tracer.enable()
    job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
    for at in (0.1, 0.3):
        ompi_checkpoint(universe, job.jobid, at=at, wait=False)
    universe.cluster.failures.crash_node_at(0.55, "node03")
    return universe, job


def only_in_newest(universe, job) -> str:
    """The store path of a chunk interval 2 holds and interval 1 does not:
    one of rank 3's, whose node dies, so a recovery fetches it (ranks 0-2
    reuse the images their nodes kept)."""
    older = {d for r in range(4) for d in _peek_manifest(universe, job.snapshots[0], r).hashes}
    newest = _peek_manifest(universe, job.snapshots[1], 3).hashes
    return _cas_backend(universe).store.blob_path(next(d for d in newest if d not in older))


def rot_newest_at(universe, job, at: float) -> None:
    """Zero a chunk only interval 2 holds, in the store, at *at*."""
    stable = universe.cluster.stable_fs

    def rot():
        victim = only_in_newest(universe, job)
        stable.poke(victim, bytes(len(stable.peek(victim))))

    universe.kernel.call_at(at, rot)


def recover_spans(universe):
    return [s for s in universe.kernel.tracer.spans if s.name == "errmgr.recover"]


class TestCASRestartReadsEachChunkOnce:
    def test_a_restart_reads_the_union_of_its_ranks_digests_once(self):
        """Four ranks whose images share most of their chunks: the store
        is read once per distinct digest of the restart, not once per
        rank, and every rank lands the image it checkpointed."""
        universe = make_universe(4, FINE)
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False, terminate=True)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        backend = _cas_backend(universe)
        backend.drop_preload = lambda *attempt: None  # keep what landed to look at
        store, reads = backend.store, []
        get_many = store.get_many

        def spy(digests):
            reads.extend(digests)
            return (yield from get_many(digests))

        store.get_many = spy
        universe.kernel.tracer.enable()
        # every rank one node along: none reuses what its node kept
        moved = {rank: f"node0{(rank + 1) % 4}" for rank in range(4)}
        restarted = ompi_restart(universe, ref, placement=moved)
        assert restarted.results == ompi_run(make_universe(4), "churn", 4, args=SMALL).results

        manifests = [_peek_manifest(universe, ref, rank) for rank in range(4)]
        union = list(dict.fromkeys(d for m in manifests for d in m.hashes))
        assert sorted(reads) == sorted(union)  # each distinct chunk once
        # what each rank read on its own before
        assert len(union) < sum(len(set(m.hashes)) for m in manifests)
        landed = 0
        for rank, node in restarted.placements.items():
            fs = universe.cluster.node(node).local_fs
            dst = f"/restart/job{restarted.jobid}/rank{rank}"
            image = fs.peek(f"{dst}/image.pkl")
            assert chunkstore.hash_chunks(image, 32, None)[0] == manifests[rank].hashes
            landed += fs.size_tree(dst)
        [span] = [s for s in universe.kernel.tracer.spans if s.name == "filem.fetch"]
        stable = universe.cluster.stable_fs
        assert span.attrs == {
            "entries": 4, "chunks": sum(len(m.hashes) for m in manifests),
            "reads": len(union), "bytes": landed,
            "read_bytes": sum(stable.stat(store.blob_path(d)).size for d in union),
        }
        assert universe.kernel.tracer.counters["filem.sessions"] == 4

    def test_a_rotten_chunk_fails_before_any_rank_lands_and_recovery_walks_back(self):
        """Interval 2 holds a chunk that rotted in the store: the fetch
        refuses it before a file of job 2 exists, recovery skips the
        interval and restarts from interval 1 on its second attempt, and
        no restart staging outlives the episode."""
        universe, job = two_intervals()
        backend = _cas_backend(universe)
        drop, staged = backend.drop_preload, {}

        def spy(entries, *attempt):
            jobdir = vpath.dirname(entries[0][2])
            staged[jobdir] = {p for p in restart_staging(universe) if p.startswith(jobdir)}
            drop(entries, *attempt)

        backend.drop_preload = spy
        rot_newest_at(universe, job, 0.5)
        final = settle_lineage(universe, job)
        errmgr = universe.hnp.errmgr
        [record] = errmgr.recovery_log
        assert record.attempts == 2 <= errmgr.max_recoveries
        assert record.snapshot == job.snapshots[0].path
        refused = universe.job(job.jobid + 1)
        assert refused.state.value == "failed" and refused.procs == {}
        assert staged["/restart/job2"] == set() and staged["/restart/job3"] != set()
        first, second = recover_spans(universe)
        assert first.attrs["snapshot"] == job.snapshots[1].path
        assert "fails verification" in first.attrs["error"] and second.attrs["ok"]
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=SMALL).results
        assert restart_staging(universe) == set()

    def test_a_chunk_lost_after_the_check_is_caught_by_the_fetch(self):
        """The restart takes the walk-back's verdict without checking
        again, so a chunk removed between the check and the fetch must
        still be caught — by the fetch, which reads every chunk."""
        universe, job = two_intervals()
        snapc, stable = universe.hnp.snapc, universe.cluster.stable_fs
        usable, lost = snapc.usable_snapshot, []

        def spy(hnp, ref, skip):
            verdict = yield from usable(hnp, ref, skip)
            if ref.path == job.snapshots[1].path and verdict[0] is not None and not lost:
                lost.append(only_in_newest(universe, job))
                yield from stable.remove(lost[0])
            return verdict

        snapc.usable_snapshot = spy
        final = settle_lineage(universe, job)
        [record] = universe.hnp.errmgr.recovery_log
        assert lost and record.attempts == 2
        assert record.snapshot == job.snapshots[0].path
        first, second = recover_spans(universe)
        assert first.attrs["snapshot"] == job.snapshots[1].path
        assert "absent from store" in first.attrs["error"] and second.attrs["ok"]
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=SMALL).results

    def test_one_presence_check_and_one_meta_read_per_restart(self):
        """Recovery checks its snapshot once (the walk-back) and the
        restart runs on that plan; ``ompi-restart`` checks once too
        (through the same ``usable_snapshot``).  Before, a recovery paid
        two presence checks and two reads of the global metadata."""
        universe, job = two_intervals()
        backend, stable = _cas_backend(universe), universe.cluster.stable_fs
        unusable, read, checks, reads = backend.unusable, stable.read, [], []

        def spy_unusable(ref, *rest):
            checks.append(ref.path)
            return (yield from unusable(ref, *rest))

        def spy_read(path):
            reads.append(path)
            return (yield from read(path))

        backend.unusable, stable.read = spy_unusable, spy_read
        final = settle_lineage(universe, job)
        [record] = universe.hnp.errmgr.recovery_log
        newest = job.snapshots[1]
        assert record.attempts == 1 and record.snapshot == newest.path
        metas = {ref.meta_path for ref in job.snapshots + final.snapshots}

        def meta_reads():
            return [path for path in reads if path in metas]

        assert (checks, meta_reads()) == ([newest.path], [newest.meta_path])
        del checks[:], reads[:]
        assert ompi_restart(universe, newest).results == final.results
        assert (checks, meta_reads()) == ([newest.path], [newest.meta_path])


    def test_a_recovery_attempt_reads_each_rank_manifest_once(self, monkeypatch):
        """The walk-back's check reads every rank's ``chunks.json`` and
        the fetch lands the manifests it read, through the plan: one
        read per rank per attempt (two while the fetch read them again)."""
        universe, job = two_intervals()
        read, reads, stable = chunkstore.read_manifest, [], universe.cluster.stable_fs

        def spy(fs, directory):
            if fs is stable:  # not the restarted rank reading what landed
                reads.append(directory)
            return (yield from read(fs, directory))

        monkeypatch.setattr(chunkstore, "read_manifest", spy)
        settle_lineage(universe, job)
        [record] = universe.hnp.errmgr.recovery_log
        newest = job.snapshots[1]
        assert record.attempts == 1 and record.snapshot == newest.path
        assert sorted(reads) == [newest.local_dir(rank) for rank in range(4)]


class TestDocumentCodecOnTheRestartPath:
    """A restart reads each rank's ``chunks.json`` once (``unusable``,
    whose manifests the fetch reuses; the rank finds only its image and
    metadata); the codec parses each distinct document at most once per
    process."""

    PARAMS = {**CAS, "crs_base_chunk_bytes": "32", "orte_errmgr_autorecover": "1"}
    ARGS = {"loops": 120, "compute_s": 0.01, "state_bytes": 16 << 10}

    def test_second_restart_decodes_nothing(self, monkeypatch):
        """Exact-count gate: np=4, 528 chunks per image, one checkpoint,
        two crash-restarts from it."""
        reply_sizes = []
        sized = oob.payload_nbytes

        def spy(payload):
            nbytes = sized(payload)
            if isinstance(payload, dict) and "hashes" in payload:
                reply_sizes.append(nbytes)
            return nbytes

        monkeypatch.setattr(oob, "payload_nbytes", spy)
        CODEC.clear()
        universe = make_universe(8, self.PARAMS)
        kernel = universe.kernel
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        kernel.run(until=0.3)
        # written: 4 capture-side manifests + 4 store-side ones (present
        # = []), every one seeding its own decode; 8 local metadata files,
        # which the codec never sees
        written = 8 + 8
        assert CODEC.stats() == {
            "hits": 0, "decode_misses": 0, "encode_misses": 8, "entries": 16
        }
        # the checkpoint reply carries lists: a tuple would pickle to a
        # different length and move simulated time (parent: 36 937 each)
        assert reply_sizes == [36937] * 4

        universe.cluster.failures.crash_node_now(job.placements[3])
        kernel.run(until=0.8)
        (second,) = [j for j in universe.jobs.values() if j.state.value == "running"]
        # per rank, the check's read of its stable manifest hits; nothing
        # lands or reads a manifest on the rank's node, and its local
        # metadata is parsed outside the codec.  Re-derived when the
        # digests left the local metadata: 12 hits and 4 decode misses
        # (entries 20) while the fetch landed a full manifest the rank
        # read back and the metadata was the codec's; 16 hits while the
        # fetch read each manifest again, 20 while the recovery checked
        # its snapshot twice, 24 while ``reconstruct_chain`` also read
        # each manifest twice.
        assert CODEC.stats() == {
            "hits": 4, "decode_misses": 0, "encode_misses": 8, "entries": 16
        }

        universe.cluster.failures.crash_node_now(second.placements[2])
        final = settle_lineage(universe, job)
        assert final.state.value == "finished" and final.jobid == 3
        assert [r.snapshot for r in universe.hnp.errmgr.recovery_log] == [
            "/snapshots/ompi_global_snapshot_1.1"
        ] * 2
        stats = CODEC.stats()
        # the second restart is the first again: 4 hits (28 hits and 4
        # decode misses before the digests left the local metadata; 36,
        # 44 and 52 hits before that, for the reasons above)
        assert stats == {
            "hits": 8, "decode_misses": 0, "encode_misses": 8, "entries": 16
        }
        assert stats["decode_misses"] + stats["encode_misses"] <= written

    def test_warm_codec_still_sees_corruption(self):
        """The memo is keyed by content, never by path: truncating a
        ``chunks.json`` that was just read is a miss and a real parse."""
        universe = make_universe(4, params=CAS)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        stable = universe.cluster.stable_fs
        backend = _cas_backend(universe)
        meta = run_gen(universe.kernel, read_global_meta(stable, ref))
        assert run_gen(universe.kernel, backend.unusable(ref, meta, (), {})) is None
        good = _read_manifest(universe, ref, 2)  # warm

        path = chunkstore.manifest_path(ref.local_dir(2))
        data = stable.peek(path)
        stable.poke(path, data[: max(1, len(data) // 3)])
        with pytest.raises(SnapshotError, match="bad chunk manifest"):
            _read_manifest(universe, ref, 2)
        why = run_gen(universe.kernel, backend.unusable(ref, meta, (), {}))
        assert why.startswith("rank 2 manifest unreadable")
        with pytest.raises(RestartError, match="rank 2 manifest unreadable"):
            ompi_restart(universe, ref)

        stable.poke(path, data)
        assert _read_manifest(universe, ref, 2) == good
        assert ompi_restart(universe, ref).state.value == "finished"


class TestSkipSetWalkBack:
    def test_pick_checks_delta_deps_against_skip_set(self):
        """A delta interval whose base failed a restart this episode
        must not be picked — its chain runs through a known-bad ref."""
        universe = make_universe(
            4, params={"snapc_full_interval_every": "3"}
        )
        job = ompi_run(
            universe, "churn", 4, args=dict(CHURN, loops=200), wait=False
        )
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.5, wait=False)
        universe.run_job_to_completion(job)
        ref1, ref2 = job.snapshots
        m2 = run_gen(
            universe.kernel,
            read_global_meta(universe.cluster.stable_fs, ref2),
        )
        assert m2.kind == "delta" and ref1.path in m2.base_chain

        errmgr = universe.hnp.errmgr
        picked = run_gen(universe.kernel, errmgr._pick_snapshot(job))
        assert picked is not None and picked.ref.path == ref2.path
        # skipping the newest ref walks back to the base
        picked = run_gen(
            universe.kernel, errmgr._pick_snapshot(job, {ref2.path})
        )
        assert picked is not None and picked.ref.path == ref1.path
        # skipping the *base* poisons every chain through it: the delta
        # interval is rejected even though its own ref is not skipped
        picked = run_gen(
            universe.kernel, errmgr._pick_snapshot(job, {ref1.path})
        )
        assert picked is None


class TestCASGarbageCollection:
    def test_purge_interval_keeps_shared_chunks(self):
        universe = make_universe(4, params=CAS)
        job = ompi_run(
            universe, "churn", 4, args=dict(CHURN, loops=80), wait=False
        )
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.35, wait=False)
        universe.run_job_to_completion(job)
        ref1, ref2 = job.snapshots

        backend = _cas_backend(universe)
        store = backend.store
        stable = universe.cluster.stable_fs
        blobs_before = store.stats()["blobs"]
        shared = _read_manifest(universe, ref1, 0).hashes
        victim_digest = max(set(shared), key=shared.count)
        assert store.refcount(victim_digest) >= 2

        def purge(ref):
            meta = yield from read_global_meta(stable, ref)
            removed, freed = yield from backend.purge(ref, meta)
            return removed, freed

        run_gen(universe.kernel, purge(ref2))
        # interval 1 still references the shared ballast chunk
        assert store.has(victim_digest)
        assert not stable.exists(ref2.path)
        assert store.stats()["owners"] == 4
        assert store.stats()["blobs"] <= blobs_before
        # interval 1 must still restart after its sibling's teardown
        new_job = ompi_restart(universe, ref1)
        assert new_job.state.value == "finished"

        removed, freed = run_gen(universe.kernel, purge(ref1))
        assert removed > 0 and freed > 0
        stats = store.stats()
        assert stats == {
            "blobs": 0, "stored_bytes": 0, "owners": 0, "referenced": 0
        }


def _spy_removals(universe, during=None) -> list:
    """Record ``(start, end, node, tree)`` of every node-local removal
    FILEM runs; *during(node, tree)* is called as each one starts."""
    filem, kernel, removals = universe.hnp.filem, universe.kernel, []
    remove = filem.remove

    def spy(hnp, pairs):
        start = kernel.now
        for node, tree in pairs:
            if during is not None:
                during(node, tree)
        moved = yield from remove(hnp, pairs)
        removals.extend((start, kernel.now, node, tree) for node, tree in pairs)
        return moved

    filem.remove = spy
    return removals


class TestCASCleanupOffTheCommitPath:
    def test_an_interval_commits_before_its_local_sources_are_removed(self):
        universe = make_universe(4, FINE)
        removals = _spy_removals(universe)
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        for at in (0.1, 0.3):
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        universe.run_job_to_completion(job)
        records = _stager(universe).job_records(job.jobid)
        assert [r.state for r in records] == ["committed", "committed"]
        for record in records:
            sources = {(node, src) for node, src, _dst in record.gather_entries}
            ends = [end for _s, end, node, tree in removals if (node, tree) in sources]
            assert len(ends) == 4
            # the commit did not wait for any of them
            assert all(record.committed_at < end for end in ends)

    def test_no_local_source_of_a_committed_interval_outlives_the_drain(self):
        universe, job = two_intervals()
        settle_lineage(universe, job)
        records = [r for jobid in universe.jobs for r in _stager(universe).job_records(jobid)]
        committed = [r for r in records if r.state == "committed"]
        assert [(r.jobid, r.interval) for r in committed] == [(1, 1), (1, 2)]
        for record in committed:
            for node_name, src, _dst in record.gather_entries:
                node = universe.cluster.node(node_name)
                if node.up:
                    assert not node.local_fs.exists(src), (node_name, src)

    def test_a_source_node_dying_during_cleanup_keeps_the_commit_and_the_restart(self):
        """node03 dies 5 sim-ms into removing its interval-1 source (a
        removal takes 15), which interval 2's commit set off: both
        intervals stay committed, no thread crashes, and recovery
        restarts from the newest to the undisturbed answers."""
        universe = make_universe(4, {**FINE, "orte_errmgr_autorecover": "1"})
        failures, crashed = universe.cluster.failures, []

        def during(node, tree):
            if node == "node03" and not crashed:
                crashed.append(tree)
                universe.kernel.call_later(0.005, lambda: failures.crash_node_now("node03"))

        _spy_removals(universe, during)
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        for at in (0.1, 0.3):
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        final = settle_lineage(universe, job)
        record, newest = _stager(universe).job_records(job.jobid)
        assert crashed == [record.gather_entries[3][1]]
        assert record.state == newest.state == "committed" and record.committed_at < 0.3
        [episode] = universe.hnp.errmgr.recovery_log
        assert episode.recovered and episode.snapshot == newest.ref.path
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=SMALL).results

    def test_a_node_dying_mid_removal_keeps_its_disk(self):
        """node03 dies 5 sim-ms into removing ``/ckpt/job1/interval1/rank3``
        (a removal takes 15): the removal fails instead of emptying the
        dead node's disk, and FILEM skips the node as if it had been down."""
        universe = make_universe(4, FINE)
        failures, crashed = universe.cluster.failures, []
        node03 = universe.cluster.node("node03")

        def during(node, tree):
            if node == "node03" and not crashed:
                crashed.append((tree, sorted(node03.local_fs.list_tree(tree))))
                universe.kernel.call_later(0.005, lambda: failures.crash_node_now("node03"))

        removals = _spy_removals(universe, during)
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        _drain_background(universe)
        [(tree, files)] = crashed
        assert tree == "/ckpt/job1/interval1/rank3" and files
        assert all(path in node03.local_fs._files for path in files)
        assert [t for _s, _e, node, t in removals if node == "node03"] == [tree]


class TestCASConcurrentCheck:
    @staticmethod
    def _checkpointed(**params):
        universe = make_universe(4, {**FINE, **params})
        job = ompi_run(universe, "churn", 4, args=SMALL, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        return universe, checkpoint_ref(handle)

    @staticmethod
    def _unusable(universe, ref) -> tuple[str | None, dict]:
        stable, checked = universe.cluster.stable_fs, {}

        def check():
            meta = yield from read_global_meta(stable, ref)
            return (yield from _cas_backend(universe).unusable(ref, meta, set(), checked))

        return run_gen(universe.kernel, check()), checked

    @pytest.mark.parametrize("unreadable,absent,reason,checked_ranks", [
        (1, 3, "rank 1 manifest unreadable", [0]),
        (3, 1, "rank 1: 1 chunk(s) absent from the store", [0, 1]),
    ])
    def test_two_bad_ranks_report_the_lower_ranks_reason(
        self, unreadable, absent, reason, checked_ranks
    ):
        """The manifests are read side by side, yet the verdict (and what
        *checked* holds) is what a rank-by-rank check finds first."""
        universe, ref = self._checkpointed()
        stable, store = universe.cluster.stable_fs, _cas_backend(universe).store
        manifests = [_peek_manifest(universe, ref, rank) for rank in range(4)]
        others = {d for rank, m in enumerate(manifests) if rank != absent for d in m.hashes}
        victim = next(d for d in manifests[absent].hashes if d not in others)
        run_gen(universe.kernel, stable.remove(store.blob_path(victim)))
        stable.poke(chunkstore.manifest_path(ref.local_dir(unreadable)), b"{not json")
        why, checked = self._unusable(universe, ref)
        assert why.startswith(reason)
        assert sorted(checked) == [ref.local_dir(rank) for rank in checked_ranks]
        plan, refused = run_gen(
            universe.kernel, universe.hnp.snapc.usable_snapshot(universe.hnp, ref, set())
        )
        assert plan is None and refused == why

    def test_the_manifests_are_read_at_most_max_concurrent_at_a_time(self, monkeypatch):
        universe, ref = self._checkpointed(filem_rsh_max_concurrent="2")
        read, flight = chunkstore.read_manifest, {"now": 0, "peak": 0, "reads": 0}

        def spy(fs, directory):
            flight["now"] += 1
            flight["reads"] += 1
            flight["peak"] = max(flight["peak"], flight["now"])
            try:
                return (yield from read(fs, directory))
            finally:
                flight["now"] -= 1

        monkeypatch.setattr(chunkstore, "read_manifest", spy)
        why, checked = self._unusable(universe, ref)
        assert why is None and len(checked) == 4
        assert flight == {"now": 0, "peak": 2, "reads": 4}


#: 1.2 sim-seconds of churn, so a recovered job outlives a checkpoint
LONG = {**SMALL, "loops": 120}


def kept_lineage(flip_at: float | None = None):
    """A 4-rank CAS churn job on six nodes, checkpointed at 0.1, 0.25 and
    0.4; node03 dies at 0.5, so interval 3 commits after the job failed
    and recovery restarts job 2 from interval 2.  With *flip_at*, one bit
    of the image node01 kept for rank 1 flips then (same length)."""
    universe = make_universe(6, {**FINE, "orte_errmgr_autorecover": "1"})
    universe.kernel.tracer.enable()
    job = ompi_run(universe, "churn", 4, args=LONG, wait=False)
    for at in (0.1, 0.25, 0.4):
        ompi_checkpoint(universe, job.jobid, at=at, wait=False)
    universe.cluster.failures.crash_node_at(0.5, "node03")
    if flip_at is not None:
        fs, path = universe.cluster.node("node01").local_fs, "/ckpt/job1/interval2/rank1/image.pkl"

        def flip():
            image = bytearray(fs.peek(path))
            image[len(image) // 2] ^= 0x01
            fs.poke(path, bytes(image))

        universe.kernel.call_at(flip_at, flip)
    return universe, job


def kept_on_disk(universe) -> list[tuple[int, int]]:
    """``(jobid, interval)`` of every node-local snapshot tree on an up node."""
    return sorted({
        (int(job[3:]), int(interval[8:]))
        for node in universe.cluster.nodes if node.up
        for _root, job, interval, *_rest in (
            path.split("/")[1:] for path in node.local_fs.list_tree("/ckpt")
        )
    })


def fetch_spans(universe):
    return [s for s in universe.kernel.tracer.spans if s.name == "filem.fetch"]


class TestKeptLocalLevel:
    """The newest committed CAS interval's node-local trees stay on the
    nodes that wrote them, and a recovered rank back on its own node
    restarts from its tree instead of from stable storage."""

    def test_only_the_rank_whose_node_died_is_fetched(self):
        universe, job = kept_lineage()
        final = settle_lineage(universe, job)
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=LONG).results
        [episode] = universe.hnp.errmgr.recovery_log
        assert episode.snapshot == job.snapshots[1].path and episode.attempts == 1
        # rank 3 goes to a node that is no rank's origin; 0-2 stay home
        assert universe.job(2).placements == {0: "node00", 1: "node01", 2: "node02", 3: "node04"}
        [recovery] = fetch_spans(universe)
        assert recovery.attrs["entries"] == 1

    def test_a_flipped_bit_in_a_kept_image_falls_back_to_stable_storage(self):
        """The flipped image is refused by its rank before it is
        unpickled; the retry restarts the same interval with that rank
        fetched, and the lineage finishes with the undisturbed answers."""
        universe, job = kept_lineage(flip_at=0.45)
        final = settle_lineage(universe, job)
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=LONG).results
        [episode] = universe.hnp.errmgr.recovery_log
        assert episode.attempts == 2 and episode.snapshot == job.snapshots[1].path
        first, second = recover_spans(universe)
        assert first.attrs["snapshot"] == second.attrs["snapshot"] == job.snapshots[1].path
        assert "kept image at /ckpt/job1/interval2/rank1 does not match" in first.attrs["error"]
        assert [s.attrs["entries"] for s in fetch_spans(universe)] == [1, 2]

    def test_each_kept_rank_directory_is_folded_once(self, monkeypatch):
        """The flipped-bit lineage restarts interval 2 twice: ranks 0-2
        reuse their kept trees the first time, ranks 0 and 2 the second.
        Each reused rank directory's committed digests are folded into one
        once, by the first restart, and the second reuses the value."""
        fold, callers = chunkstore.fold_digests, []

        def spy(hashes):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return fold(hashes)

        monkeypatch.setattr(chunkstore, "fold_digests", spy)
        universe, job = kept_lineage(flip_at=0.45)
        settle_lineage(universe, job)
        first, second = recover_spans(universe)
        assert first.attrs["snapshot"] == second.attrs["snapshot"] == job.snapshots[1].path
        assert callers.count("repro.orte.snapc.backends") == 3

    def test_a_lineage_keeps_one_interval_and_none_once_it_finished(self):
        """Sampled 30 sim-ms after each interval settles (its cleanup takes
        15): the trees on disk are the kept interval's alone — interval 3,
        committed after its job failed, drops its own at once — and a
        checkpoint of the recovered job drops the interval it restarted
        from.  Nothing is left once the lineage finished."""
        universe, job = kept_lineage()
        ompi_checkpoint(universe, 2, at=0.9, wait=False)
        backend, seen = _cas_backend(universe), []
        settled = backend.settled

        def spy(record):
            settled(record)
            universe.kernel.call_later(0.03, lambda: seen.append(kept_on_disk(universe)))

        backend.settled = spy
        final = settle_lineage(universe, job)
        assert final.jobid == 2 and final.state.value == "finished"
        assert seen == [[(1, 1)], [(1, 2)], [(1, 2)], [(2, 1)]]
        assert kept_on_disk(universe) == []
        assert backend.kept(final) is None

    def test_an_interval_committing_mid_restart_keeps_the_trees_it_reads(self):
        """A tool restart of interval 1 while the job runs on: interval 2
        commits while the restarted ranks are reading interval 1's kept
        trees, and their removal waits for the restart to end."""
        universe = make_universe(6, FINE)
        universe.kernel.tracer.enable()
        job = ompi_run(universe, "churn", 4, args=LONG, wait=False)
        first = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.25, wait=False)
        universe.kernel.run(until=0.22)
        restarted = ompi_restart(universe, checkpoint_ref(first), at=0.348)
        assert restarted.results == ompi_run(make_universe(4), "churn", 4, args=LONG).results
        assert fetch_spans(universe) == []  # every rank read its node's copy
        _first, second = _stager(universe).job_records(job.jobid)
        assert 0.348 < second.committed_at
        universe.run_job_to_completion(job)
        _drain_background(universe)
        assert kept_on_disk(universe) == []
