"""Unit tests for the INC stack, ft_event protocol, and CRS components,
and the compare-before-hash pass of ``CRSComponent.checkpoint``."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ft_event import FTState, drive_ft_event
from repro.core.inc import INCStack
from repro.mca.params import MCAParams
from repro.mca.registry import default_registry
from repro.opal.crs import base as crs_base
from repro.opal.crs import chunks as chunkstore
from repro.opal.crs.none_crs import NoneCRS
from repro.opal.crs.self_cb import SELF_STATE_KEY, SelfCRS
from repro.opal.crs.simcr import SimCR
from repro.opal.layer import CheckpointRequest, OpalLayer
from repro.orte.job import JobState
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.simenv.process import SimProcess
from repro.snapshot import pack_hashes
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run
from repro.util.errors import CheckpointError, NotCheckpointableError
from repro.util.ids import ProcessName
from repro.vfs.fsbase import FS
from tests.conftest import make_universe, run_gen


class TestINCStack:
    def test_stack_like_ordering(self, kernel):
        """Registration returns the previous INC; calls nest LIFO
        (paper section 5.5)."""
        stack = INCStack()
        order = []

        def make(name):
            def inc(state, down):
                order.append(f"{name}:pre")
                yield from down(state)
                order.append(f"{name}:post")

            return inc

        stack.register("opal", make("opal"))
        stack.register("orte", make("orte"))
        stack.register("ompi", make("ompi"))
        run_gen(kernel, stack.invoke(FTState.CHECKPOINT))
        assert order == [
            "ompi:pre",
            "orte:pre",
            "opal:pre",
            "opal:post",
            "orte:post",
            "ompi:post",
        ]

    def test_register_returns_previous(self, kernel):
        stack = INCStack()
        called = []

        def bottom(state, down):
            called.append("bottom")
            yield from down(state)

        stack.register("bottom", bottom)

        def top(state, down):
            called.append("top")
            # The new INC is responsible for calling the previous one.
            yield from down(state)

        down = stack.register("top", top)
        run_gen(kernel, down(FTState.CONTINUE))  # call just the old stack
        assert called == ["bottom"]

    def test_layers_listing(self):
        stack = INCStack()
        stack.register("a", lambda s, d: d(s))
        stack.register("b", lambda s, d: d(s))
        assert stack.layers == ["a", "b"]

    def test_trace_recording(self, kernel):
        stack = INCStack()
        stack.register("opal", lambda s, d: d(s))
        stack.record_trace = True
        run_gen(kernel, stack.invoke(FTState.RESTART))
        assert ("opal", "enter", FTState.RESTART) in stack.trace
        assert ("opal", "exit", FTState.RESTART) in stack.trace

    def test_empty_stack_invocable(self, kernel):
        assert run_gen(kernel, INCStack().invoke(FTState.CHECKPOINT)) is None


class TestDriveFtEvent:
    def test_plain_function(self, kernel):
        class Sub:
            def __init__(self):
                self.seen = []

            def ft_event(self, state):
                self.seen.append(state)
                return "plain"

        sub = Sub()
        assert run_gen(kernel, drive_ft_event(sub, FTState.CHECKPOINT)) == "plain"
        assert sub.seen == [FTState.CHECKPOINT]

    def test_generator_function(self, kernel):
        from repro.simenv.kernel import Delay

        class Sub:
            def ft_event(self, state):
                yield Delay(0.25)
                return "gen"

        assert run_gen(kernel, drive_ft_event(Sub(), FTState.CHECKPOINT)) == "gen"
        assert kernel.now == pytest.approx(0.25)

    def test_missing_ft_event_is_noop(self, kernel):
        assert run_gen(kernel, drive_ft_event(object(), FTState.HALT)) is None


def _opal_on(cluster, crs="simcr"):
    proc = SimProcess(cluster.nodes[0], ProcessName(1, 0), label="t")
    params = MCAParams({"crs": crs})
    return OpalLayer(proc, default_registry(), params), proc


class FakeContributor:
    def __init__(self, key, state):
        self.image_key = key
        self.state = state
        self.restored = None

    def capture_image_state(self, crs_name):
        return self.state

    def restore_image_state(self, state):
        self.restored = state


class TestOpalLayer:
    def test_crs_selection_defaults_to_simcr(self, cluster):
        opal, _ = _opal_on(cluster, crs="simcr")
        assert isinstance(opal.crs, SimCR)

    def test_enable_disable(self, cluster):
        opal, _ = _opal_on(cluster)
        assert not opal.checkpoint_enabled
        opal.enable_checkpoint()
        assert opal.checkpoint_enabled
        opal.disable_checkpoint()
        assert not opal.checkpoint_enabled

    def test_entry_point_requires_enabled(self, cluster):
        opal, _ = _opal_on(cluster)
        request = CheckpointRequest(1, cluster.stable_fs, "/snap/r0")

        def main():
            yield from opal.entry_point(request)

        with pytest.raises(NotCheckpointableError):
            run_gen(cluster.kernel, main())

    def test_entry_point_writes_local_snapshot(self, cluster):
        opal, proc = _opal_on(cluster)
        opal.register_contributor(FakeContributor("sub.a", {"x": 1}))
        opal.enable_checkpoint()
        request = CheckpointRequest(3, cluster.stable_fs, "/snap/r0")

        def main():
            return (yield from opal.entry_point(request))

        ref, meta, manifest = run_gen(cluster.kernel, main())
        assert cluster.stable_fs.exists(ref.image_path)
        assert cluster.stable_fs.exists(ref.meta_path)
        assert meta.interval == 3
        assert meta.crs_component == "simcr"
        assert meta.origin_node == proc.node.name
        # the caller gets the manifest it wrote: the one list of digests
        written = cluster.stable_fs.peek(f"{ref.path}/chunks.json")
        assert manifest.to_json() == written
        assert (manifest.interval, manifest.total_bytes) == (3, meta.total_bytes)

    def test_duplicate_contributor_rejected(self, cluster):
        opal, _ = _opal_on(cluster)
        opal.register_contributor(FakeContributor("k", 1))
        with pytest.raises(ValueError):
            opal.register_contributor(FakeContributor("k", 2))

    def test_restore_unknown_contributor_rejected(self, cluster):
        opal, _ = _opal_on(cluster)
        with pytest.raises(CheckpointError):
            opal.restore_contributors({"ghost": 1})

    def test_capture_restore_roundtrip(self, cluster):
        opal, _ = _opal_on(cluster)
        contributor = FakeContributor("sub.a", {"n": 42})
        opal.register_contributor(contributor)
        opal.enable_checkpoint()
        request = CheckpointRequest(1, cluster.stable_fs, "/snap/r1")

        def do_ckpt():
            ref, _meta, _manifest = yield from opal.entry_point(request)
            return ref

        ref = run_gen(cluster.kernel, do_ckpt())

        opal2, _ = _opal_on(cluster)
        target = FakeContributor("sub.a", None)
        opal2.register_contributor(target)

        def do_restore():
            meta, image = yield from opal2.crs.restart_extract_chain(
                cluster.stable_fs, [ref]
            )
            opal2.crs.restore(opal2, image)
            return meta

        meta = run_gen(cluster.kernel, do_restore())
        assert target.restored == {"n": 42}
        assert meta.rank == 0


class TestCRSComponents:
    def test_none_declines(self, cluster):
        opal, _ = _opal_on(cluster, crs="none")
        assert isinstance(opal.crs, NoneCRS)
        assert not opal.crs.can_checkpoint(opal)
        with pytest.raises(CheckpointError):
            opal.crs.capture(opal, None)

    def test_self_requires_callback(self, cluster):
        opal, _ = _opal_on(cluster, crs="self")
        assert isinstance(opal.crs, SelfCRS)
        assert not opal.crs.can_checkpoint(opal)
        opal.self_callbacks["checkpoint"] = lambda: {"phase": 1}
        assert opal.crs.can_checkpoint(opal)

    def test_self_capture_includes_user_state(self, cluster):
        opal, _ = _opal_on(cluster, crs="self")
        opal.self_callbacks["checkpoint"] = lambda: {"phase": 7}
        request = CheckpointRequest(1, cluster.stable_fs, "/s")
        image = opal.crs.capture(opal, request)
        assert image[SELF_STATE_KEY] == {"phase": 7}

    def test_self_restore_stashes_state_and_restart_cb(self, cluster):
        opal, _ = _opal_on(cluster, crs="self")
        seen = []
        opal.self_callbacks["restart"] = lambda state: seen.append(state)
        opal.crs.restore(opal, {SELF_STATE_KEY: {"phase": 3}})
        opal.crs.ft_event(FTState.RESTART)
        assert seen == [{"phase": 3}]

    def test_self_continue_callback(self, cluster):
        opal, _ = _opal_on(cluster, crs="self")
        seen = []
        opal.self_callbacks["continue"] = lambda: seen.append("cont")
        opal.crs.ft_event(FTState.CONTINUE)
        assert seen == ["cont"]

    def test_simcr_restart_extract_wrong_component(self, cluster):
        from repro.util.errors import RestartError

        opal, _ = _opal_on(cluster, crs="simcr")
        opal.enable_checkpoint()
        request = CheckpointRequest(1, cluster.stable_fs, "/s2")

        def do_ckpt():
            ref, _meta, _manifest = yield from opal.entry_point(request)
            return ref

        ref = run_gen(cluster.kernel, do_ckpt())
        other = SelfCRS(MCAParams())

        def do_extract():
            yield from other.restart_extract_chain(cluster.stable_fs, [ref])

        with pytest.raises(RestartError):
            run_gen(cluster.kernel, do_extract())

    def test_unpicklable_image_rejected(self, cluster):
        opal, _ = _opal_on(cluster)
        opal.register_contributor(FakeContributor("bad", lambda: None))
        opal.enable_checkpoint()
        request = CheckpointRequest(1, cluster.stable_fs, "/s3")

        def main():
            yield from opal.entry_point(request)

        with pytest.raises(CheckpointError, match="not picklable"):
            run_gen(cluster.kernel, main())


# -- compare before hash ------------------------------------------------------


def _reference(blob, n):
    return [chunkstore.hash_chunk(c) for c in chunkstore.split_chunks(blob, n)]


def _cache_of(blob, n):
    return {"interval": 1, "chunk_bytes": n, "hashes": _reference(blob, n), "blob": blob}


@st.composite
def _blob_pairs(draw):
    """(previous blob, next blob): equal, one byte flipped anywhere,
    grown, shrunk, emptied, or unrelated."""
    prev = draw(st.binary(max_size=40))
    edit = draw(st.sampled_from(["same", "flip", "grow", "shrink", "empty", "other"]))
    if edit == "flip" and prev:
        at = draw(st.integers(0, len(prev) - 1))
        return prev, prev[:at] + bytes([prev[at] ^ 0xFF]) + prev[at + 1 :]
    if edit == "grow":
        return prev, prev + draw(st.binary(min_size=1, max_size=12))
    if edit == "shrink":
        return prev, prev[: draw(st.integers(0, len(prev)))]
    if edit == "empty":
        return prev, b""
    if edit == "other":
        return prev, draw(st.binary(max_size=40))
    return prev, prev


class TestHashChunks:
    """``hash_chunks`` against the definition it replaced: split the
    image, hash every chunk, diff the digests against the base's."""

    @settings(max_examples=400, deadline=None)
    @given(
        blobs=_blob_pairs(),
        n=st.integers(1, 9),
        cached_at=st.one_of(st.none(), st.integers(1, 9)),
    )
    def test_equals_split_then_hash_and_reports_what_differs(
        self, blobs, n, cached_at
    ):
        prev, blob = blobs
        cache = None if cached_at is None else _cache_of(prev, cached_at)
        hashes, hashed = chunkstore.hash_chunks(blob, n, cache)
        assert hashes == _reference(blob, n)
        chunks = chunkstore.split_chunks(blob, n)
        old = chunkstore.split_chunks(prev, n) if cached_at == n else []
        assert hashed == [
            i for i, c in enumerate(chunks) if i >= len(old) or old[i] != c
        ]

    def test_reuses_the_cached_digest_objects(self):
        prev = bytes(range(20))
        cache = _cache_of(prev, 4)
        blob = prev[:9] + b"\xff" + prev[10:] + b"tail"
        hashes, hashed = chunkstore.hash_chunks(blob, 4, cache)
        assert hashed == [2, 5]
        for i in (0, 1, 3, 4):
            assert hashes[i] is cache["hashes"][i]
        # a short trailing chunk that grew is not its shorter predecessor
        assert chunkstore.hash_chunks(b"abcdef", 4, _cache_of(b"abcde", 4))[1] == [1]
        # the empty image is one empty chunk, and equal to itself
        assert chunkstore.hash_chunks(b"", 4, _cache_of(b"", 4)) == (
            [chunkstore.hash_chunk(b"")], [],
        )
        assert chunkstore.hash_chunks(b"", 4, None)[1] == [0]

    def test_rejects_a_non_positive_chunk_size(self):
        for n in (0, -4):
            with pytest.raises(ValueError):
                chunkstore.hash_chunks(b"abc", n, None)


CHURN16 = {"loops": 80, "compute_s": 0.01, "state_bytes": 60 << 10}  # 16 chunks
INCR = {"snapc_full_interval_every": "3", "crs_base_chunk_bytes": "4096"}


def _opals(job):
    return [proc.service("opal") for proc in job.procs.values()]


class TestCompareBeforeHashEndToEnd:
    def test_documents_are_byte_identical_to_the_parents(self):
        """full, delta, delta, full, delta of 4 ranks: every
        ``chunks.json`` hashes to what the commit before compare-before-hash
        wrote (pinned from a run of it; the image is a pickle of NumPy
        arrays, so the pin moves with their pickle format), and the last
        interval restarts to the uninterrupted result.

        Every ``metadata.json`` is the one that commit wrote minus the two
        keys that listed the manifest's digests a second time
        (``chunk_hashes``, ``present_chunks``): put back from the
        manifest beside it, the documents hash to the old pin again, and
        only then is the new one pinned."""
        universe = make_universe(4, params=INCR)
        job = ompi_run(universe, "churn", 4, args=CHURN16, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False, terminate=last)
            for at, last in zip((0.1, 0.25, 0.4, 0.55, 0.7), [False] * 4 + [True])
        ]
        universe.run_job_to_completion(job)
        assert job.state is JobState.HALTED and len(job.snapshots) == 5
        stable = universe.cluster.stable_fs
        digests = {"chunks.json": hashlib.sha256(), "metadata.json": hashlib.sha256()}
        parents_metadata = hashlib.sha256()
        kinds = []
        for ref in job.snapshots:
            for rank in range(4):
                for name, digest in digests.items():
                    digest.update(stable.peek(f"{ref.local_dir(rank)}/{name}"))
                manifest = chunkstore.ChunkManifest.from_json(
                    stable.peek(f"{ref.local_dir(rank)}/chunks.json")
                )
                doc = json.loads(stable.peek(f"{ref.local_dir(rank)}/metadata.json"))
                assert doc.keys().isdisjoint({"chunk_hashes", "present_chunks"})
                doc.update(
                    chunk_hashes=pack_hashes(manifest.hashes), present_chunks=manifest.present
                )
                parents_metadata.update(json.dumps(doc, sort_keys=True).encode())
            kinds.append(manifest.kind)
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        assert parents_metadata.hexdigest() == (
            "2ae17450d092bf4f110676891a5b44e2a0beb5b38608bda834df19df04c8dfe1"
        )
        assert {name: d.hexdigest() for name, d in digests.items()} == {
            "chunks.json":
                "7d3af5b9cef0ec55c25ed9c90ed24d5de2df2db501c0dcc00c3c63ff115cf80f",
            "metadata.json":
                "c06fb9a073998dbf9b483f01bf51e72515ec8f245cb20e38d4f57221fa1677d7",
        }
        baseline = ompi_run(make_universe(4), "churn", 4, args=CHURN16).results
        assert ompi_restart(universe, checkpoint_ref(handles[-1])).results == baseline

    @pytest.mark.parametrize("cas", [False, True], ids=["tree", "cas"])
    def test_rank_metadata_does_not_grow_with_the_chunk_count(self, cas):
        """A rank's ``metadata.json`` on stable storage and where a
        restart lands it is the same document at 32-byte chunks (1,900+
        per image) as at 4096-byte ones (15), once the two numbers that
        name the geometry and the instant are set aside: every digest is
        in ``chunks.json`` alone.  And the restart lands two files."""
        seen: dict[int, list[tuple[int, dict]]] = {}
        for chunk_bytes in (32, 4096):
            params = {"filem": "rsh", "crs_base_chunk_bytes": str(chunk_bytes)}
            if cas:
                params["snapc_full_cas"] = "1"
            universe = make_universe(4, params=params)
            job = ompi_run(universe, "churn", 2, args=CHURN16, wait=False)
            handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False, terminate=True)
            universe.run_job_to_completion(job)
            ref = checkpoint_ref(handle)
            backend = universe.hnp.snapc.stager(universe.hnp).backends[cas]
            backend.drop_preload = lambda *attempt: None  # keep what landed
            # both ranks two nodes along: none reuses what its node kept
            restarted = ompi_restart(universe, ref, placement={0: "node02", 1: "node03"})
            stable = universe.cluster.stable_fs
            manifest = chunkstore.ChunkManifest.from_json(
                stable.peek(f"{ref.local_dir(0)}/chunks.json")
            )
            assert manifest.n_chunks == -(-manifest.total_bytes // chunk_bytes)
            for rank, node in restarted.placements.items():
                fs = universe.cluster.node(node).local_fs
                dst = f"/restart/job{restarted.jobid}/rank{rank}"
                assert fs.list_tree(dst) == [f"{dst}/image.pkl", f"{dst}/metadata.json"]
                for raw in (fs.peek(f"{dst}/metadata.json"),
                            stable.peek(f"{ref.local_dir(rank)}/metadata.json")):
                    doc = json.loads(raw)
                    assert doc["chunk_bytes"] == chunk_bytes
                    doc.update(chunk_bytes=0, sim_time=0.0)
                    seen.setdefault(chunk_bytes, []).append(
                        (len(json.dumps(doc, sort_keys=True)), doc)
                    )
        assert seen[32] == seen[4096]

    def test_only_changed_chunks_are_hashed_after_the_first_interval(self):
        """The counted budget: interval 1 hashes all 16 chunks of each
        rank; every later interval — delta *and* the periodic full —
        hashes exactly the chunks whose bytes changed."""
        universe = make_universe(2, params=INCR)
        tracer = universe.kernel.tracer
        tracer.enable()
        job = ompi_run(universe, "churn", 2, args=CHURN16, wait=False)
        previous, seen, kinds = {}, {"crs.chunks_hashed": 0, "crs.chunks_reused": 0}, []
        for at in (0.1, 0.2, 0.3, 0.4, 0.5):
            ompi_checkpoint(universe, job.jobid, at=at, wait=False).wait_stepped(0.005)
            hashed, reused = (
                tracer.counters[name] - seen[name] for name in sorted(seen)
            )
            seen = {name: tracer.counters[name] for name in seen}
            changed = n_chunks = 0
            for opal in _opals(job):
                cache = opal.incr_chunk_cache
                assert cache["interval"] == len(kinds) + 1
                old = previous.get(opal, [])
                changed += sum(
                    i >= len(old) or old[i] != digest
                    for i, digest in enumerate(cache["hashes"])
                )
                n_chunks += len(cache["hashes"])
                previous[opal] = cache["hashes"]
            spans = [s for s in tracer.spans if s.name == "crs.write"][-2:]
            kinds.append(spans[0].attrs["kind"])
            assert n_chunks == 32 and hashed + reused == n_chunks
            assert hashed == changed
            if kinds[-1] == "delta":
                assert hashed == sum(s.attrs["chunks"] for s in spans)
            assert (hashed == n_chunks) if len(kinds) == 1 else (0 < hashed < 8)
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        universe.run_job_to_completion(job)
        assert job.state is JobState.FINISHED

    def test_nothing_is_counted_with_the_tracer_off(self):
        universe = make_universe(2, params=INCR)
        job = ompi_run(universe, "churn", 2, args=CHURN16, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        assert len(job.snapshots) == 1 and universe.kernel.tracer.counters == {}


class TestChunkCacheLifetime:
    def test_one_blob_per_rank_and_it_is_the_local_disks(self):
        """While the job runs each rank pins exactly one image — for a
        full interval the very object its local disk holds — and the
        cache is gone once nothing can checkpoint again."""
        universe = make_universe(2, params=INCR)
        job = ompi_run(universe, "churn", 2, args=CHURN16, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False).wait_stepped(0.005)
        blobs = []
        for rank, proc in job.procs.items():
            cache = proc.service("opal").incr_chunk_cache
            assert sorted(cache) == ["blob", "chunk_bytes", "hashes", "interval"]
            on_disk = proc.node.local_fs._files[
                f"/ckpt/job{job.jobid}/interval1/rank{rank}/image.pkl"
            ]
            assert cache["blob"] is on_disk
            blobs.append(cache["blob"])
        ompi_checkpoint(universe, job.jobid, at=0.2, wait=False).wait_stepped(0.005)
        for opal, first in zip(_opals(job), blobs):
            assert opal.incr_chunk_cache["interval"] == 2
            assert opal.incr_chunk_cache["blob"] is not first
            # the digest list is shared with the manifest, the metadata
            # and the reply to the HNP: nobody may have written to it
            assert opal.incr_chunk_cache["hashes"] == _reference(
                opal.incr_chunk_cache["blob"], 4096
            )
        universe.run_job_to_completion(job)
        assert job.state is JobState.FINISHED  # MPI_FINALIZE disabled checkpointing
        assert [opal.incr_chunk_cache for opal in _opals(job)] == [None, None]

    def test_halt_drops_the_cache(self):
        universe = make_universe(2, params=INCR)
        job = ompi_run(universe, "churn", 2, args=CHURN16, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.2, wait=False, terminate=True)
        universe.run_job_to_completion(job)
        assert job.state is JobState.HALTED and len(job.snapshots) == 2
        assert [opal.incr_chunk_cache for opal in _opals(job)] == [None, None]


class TestHashRate:
    """``HASH_BPS`` prices the modelled hash pass over every byte of the
    image; what the host re-hashes does not enter it."""

    N_CHUNKS = 64

    def _spans(self, monkeypatch, hash_Bps, churn):
        """Three checkpoints of one 256 KiB image on a disk whose costs
        are powers of two (exact float times); *churn* rewrites the whole
        image between them.  Returns ``(crs.hash durations, reused)``."""
        cluster = Cluster(ClusterSpec(n_nodes=1))
        kernel = cluster.kernel
        kernel.tracer.enable()
        proc = SimProcess(cluster.nodes[0], ProcessName(1, 0), label="t")
        monkeypatch.setattr(crs_base, "HASH_BPS", hash_Bps)
        params = MCAParams({"crs": "simcr", "crs_base_chunk_bytes": "4096"})
        opal = OpalLayer(proc, default_registry(), params)
        state = FakeContributor("sub.a", bytes(self.N_CHUNKS * 4096 - 64))
        opal.register_contributor(state)
        opal.enable_checkpoint()
        fs = FS(kernel, "t", bandwidth_Bps=2.0**27, op_latency_s=2.0**-10)

        def main():
            for interval in (1, 2, 3):
                request = CheckpointRequest(interval, fs, f"/s/{interval}")
                yield from opal.entry_point(request)
                if churn:
                    state.state = bytes([interval]) * len(state.state)

        run_gen(kernel, main())
        spans = [s for s in kernel.tracer.spans if s.name == "crs.hash"]
        assert len(spans) == 3 and {s.attrs["bytes"] for s in spans} == {
            len(fs.peek("/s/1/image.pkl"))
        }
        return [s.t1 - s.t0 for s in spans], kernel.tracer.counters["crs.chunks_reused"]

    def test_halving_the_rate_doubles_every_hash_span(self, monkeypatch):
        full, _ = self._spans(monkeypatch, 2.0**22, churn=False)
        half, _ = self._spans(monkeypatch, 2.0**21, churn=False)
        assert all(d > 0 for d in full) and half == [2 * d for d in full]
        # an infinitely fast hash pass costs nothing
        assert self._spans(monkeypatch, math.inf, churn=False)[0] == [0, 0, 0]

    def test_the_span_does_not_follow_the_host_saving(self, monkeypatch):
        still, reused_still = self._spans(monkeypatch, 2.0**22, churn=False)
        moved, reused_moved = self._spans(monkeypatch, 2.0**22, churn=True)
        assert reused_still == 2 * self.N_CHUNKS and reused_moved == 0
        assert still == moved
