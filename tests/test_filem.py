"""The ``rsh`` FILEM restart preload: one rsh session per destination
node, one full image tree (``image.pkl`` + ``metadata.json``) landed per
rank, every chain rebuilt at the source; for CAS, each distinct chunk of
the restart read once.

``RshFILEM.broadcast`` is priced here against the primitives it is
built from (``reconstruct_chain`` + ``full_image_tree``, a full
interval's one directory included, on a second kernel), counted
through the ``filem.sessions`` tracer counter, and failed at every
point a rank's landing can fail.  ``RshFILEM.fetch_chunks`` is priced
in closed form on a filesystem whose every cost is a power of two.  The
write side (``gather``/``stage_out``) keeps its per-file sessions;
``tests/test_orte.py::TestFILEM`` covers its basics.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.opal.crs import chunks as chunkstore
from repro.orte.filem import rsh as filem_rsh
from repro.orte.job import JobState
from repro.simenv.kernel import Delay, WaitAll
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run
from repro.util.errors import NetworkError, RestartError, SnapshotError, VFSError
from repro.vfs.cas import ChunkStore, chunk_digest
from tests.conftest import make_universe, run_gen

SESSION_S = 0.020  # the rsh session cost, ``filem_rsh.SESSION_COST_S``
MARKER = "metadata.json"  # the last file of a rank directory to land
TREE = ("image.pkl", MARKER)  # what a landed rank holds
SNAPSHOT = ("image.pkl", "chunks.json", MARKER)  # what a rank's checkpoint writes
CHUNK = 4096


def seed_chain(universe, dirs: list[str], image_bytes: int) -> bytes:
    """full + one delta per further directory, laid out on stable
    storage as ``CRSComponent.checkpoint`` does; every delta rewrites
    chunk 0 (so the base's chunk 0 is superseded twice over a 3-link
    chain) and one chunk of its own.  Returns the newest image."""
    stable = universe.cluster.stable_fs
    blob, cache = bytes(i % 251 for i in range(image_bytes)), None
    for interval, directory in enumerate(dirs, 1):
        if cache is not None:
            image = bytearray(blob)
            image[0] = image[interval * CHUNK] = 255 - interval
            blob = bytes(image)
        hashes, dirty = chunkstore.hash_chunks(blob, CHUNK, cache)
        if cache is None:
            stable.poke(f"{directory}/image.pkl", blob)
        for i in dirty if cache is not None else ():
            stable.poke(
                f"{directory}/{chunkstore.chunk_filename(i)}",
                blob[i * CHUNK : (i + 1) * CHUNK],
            )
        manifest = chunkstore.ChunkManifest(
            kind="delta" if cache else "full", chunk_bytes=CHUNK,
            total_bytes=len(blob), hashes=hashes, present=dirty,
            base_interval=interval - 1 if cache else None, interval=interval,
        )
        stable.poke(f"{directory}/chunks.json", manifest.to_json())
        stable.poke(f"{directory}/{MARKER}", b"m%d" % interval * 100)
        cache = {"chunk_bytes": CHUNK, "hashes": hashes, "blob": blob}
    return blob


def seeded(entries, sizes=None, n_nodes=4, params=None, trace=True):
    """A universe with every entry's chain on stable storage: a full
    interval for one link, full + deltas for more (sizes differ so that
    no two ranks cost the same)."""
    universe = make_universe(n_nodes, params=params)
    for i, (_node, chain, _dst) in enumerate(entries):
        seed_chain(universe, chain, (sizes or {}).get(chain[-1], 50_000 * (i + 1)))
    if trace:
        universe.kernel.tracer.enable()
    return universe


def broadcast(universe, entries):
    hnp = universe.hnp
    return run_gen(universe.kernel, hnp.filem.broadcast(hnp, entries))


def reference_broadcast(twin, entries):
    """``broadcast`` rebuilt from its primitives on a second kernel: per
    node one session, then per rank in entry order ``reconstruct_chain``
    on stable storage + the newest ``metadata.json`` + the wire for the
    two files + two local writes; the nodes in parallel.  Returns the
    bytes landed."""
    stable = twin.cluster.stable_fs
    eth = twin.cluster.eth.model.bandwidth_Bps

    def stream(node):
        local = twin.cluster.node(node).local_fs
        yield Delay(SESSION_S)
        total = 0
        for entry_node, chain, dst in entries:
            if entry_node != node:
                continue
            blob, _manifest = yield from chunkstore.reconstruct_chain(stable, chain)
            meta_raw = yield from stable.read(f"{chain[-1]}/{MARKER}")
            tree = chunkstore.full_image_tree(blob, meta_raw)
            yield Delay(sum(map(len, tree.values())) / eth)
            for name, data in tree.items():
                total += yield from local.write(f"{dst}/{name}", data)
        return total

    def run():
        nodes = dict.fromkeys(node for node, _chain, _dst in entries)
        threads = [twin.kernel.spawn(stream(node), name=node) for node in nodes]
        return sum((yield WaitAll([t.done for t in threads])))

    return run_gen(twin.kernel, run())


def transfers(universe, node=None):
    return [
        s for s in universe.kernel.tracer.spans
        if s.name == "filem.transfer" and node in (None, s.attrs["node"])
    ]


def whole_span(universe):
    [span] = [s for s in universe.kernel.tracer.spans if s.name == "filem.broadcast"]
    return span


def peak_open_streams(universe) -> int:
    """Most node streams moving trees at one instant (a stream's window
    is its first tree's start to its last tree's end)."""
    edges = []
    for node in {s.attrs["node"] for s in transfers(universe)}:
        spans = transfers(universe, node)
        edges.append((min(s.t0 for s in spans), 1))
        edges.append((max(s.t1 for s in spans), -1))
    peak = live = 0
    for _t, step in sorted(edges):
        live += step
        peak = max(peak, live)
    return peak


def local_files(universe, node: str) -> set[str]:
    """A node's disk, read behind the filesystem's back (a crashed
    node's ``local_fs`` refuses every public call)."""
    return set(universe.cluster.node(node).local_fs._files)


def chains(entries, links=3):
    """The same ranks restarting from *links*-long chains: the source
    ``/g/iK/rankR`` becomes ``/g/iK.1/rankR`` … ``/g/iK.<links>/rankR``."""
    return [
        (node, [src.replace("/rank", f".{k}/rank") for k in range(1, links + 1)], dst)
        for node, (src,), dst in entries
    ]


FIVE_TREES = [
    ("node01", ["/g/i1/rank0"], "/restart/i1/rank0"),
    ("node02", ["/g/i1/rank1"], "/restart/i1/rank1"),
    ("node01", ["/g/i2/rank0"], "/restart/i2/rank0"),
    ("node02", ["/g/i2/rank1"], "/restart/i2/rank1"),
    ("node01", ["/g/i3/rank0"], "/restart/i3/rank0"),
]
FIVE_CHAINS = chains(FIVE_TREES)


class TestPricing:
    def test_broadcast_costs_one_session_per_node_plus_its_trees(self):
        """2 nodes, 5 full-interval ranks: exactly ``session + Σ (the
        rank's rebuild + its two files landed)`` per node, the nodes in
        parallel — ``reference_broadcast`` on a second kernel ends at the
        same instant.  Restated when a full interval started landing
        through the chain path: it was ``session + Σ copy_tree`` and
        landed three files per rank (``files`` 15), each read as moved."""
        universe = seeded(FIVE_TREES)
        stable = universe.cluster.stable_fs
        read_before = stable.bytes_read
        moved = broadcast(universe, FIVE_TREES)

        twin = seeded(FIVE_TREES, trace=False)
        assert moved == reference_broadcast(twin, FIVE_TREES)
        assert universe.kernel.now == twin.kernel.now
        for node in ("node01", "node02"):
            assert local_files(universe, node) == local_files(twin, node) == {
                f"{dst}/{name}" for entry_node, _chain, dst in FIVE_TREES
                if entry_node == node for name in TREE
            }
        tracer = universe.kernel.tracer
        assert tracer.counters["filem.sessions"] == 2
        # a full interval reads its manifest too, and lands without it
        read = stable.bytes_read - read_before
        assert read > moved
        assert whole_span(universe).attrs == {
            "entries": 5, "links": 5, "streams": 2, "sessions": 2,
            "bytes": moved, "files": 10, "read_bytes": read,
        }
        assert len(transfers(universe)) == 5

    def test_a_chain_costs_its_stable_reads_plus_one_flattened_tree(self):
        """Two ranks of one node, full + delta + delta each: the stream
        is ``session + Σ (reconstruct_chain on stable storage + the
        newest metadata.json + the wire for two files + two local
        writes)`` — ``reference_broadcast`` on a second kernel — and a
        chunk a later delta overwrote is read but not shipped."""
        entries = FIVE_CHAINS[0::2][:2]
        universe = seeded(entries)
        moved = broadcast(universe, entries)

        twin = seeded(entries, trace=False)
        stable = twin.cluster.stable_fs
        read_before = stable.bytes_read
        assert moved == reference_broadcast(twin, entries)
        assert universe.kernel.now == twin.kernel.now
        assert local_files(universe, "node01") == local_files(twin, "node01") == {
            f"{dst}/{name}" for _node, _chain, dst in entries for name in TREE
        }
        read = stable.bytes_read - read_before
        assert whole_span(universe).attrs == {
            "entries": 2, "links": 6, "streams": 1, "sessions": 1,
            "bytes": moved, "files": 4, "read_bytes": read,
        }
        # each delta carries its own chunk 0: two superseded copies per rank
        assert read > moved + 2 * 2 * CHUNK
        assert universe.kernel.tracer.counters["filem.sessions"] == 1
        spans = transfers(universe)
        assert [s.attrs["links"] for s in spans] == [3, 3]
        assert sum(s.attrs["bytes"] for s in spans) == moved
        assert sum(s.attrs["read_bytes"] for s in spans) == read

    def test_the_landed_tree_is_the_newest_image_and_its_metadata(self):
        """What a chain lands is what ``fetch_chunks`` lands for CAS: the
        newest image and the newest metadata, no manifest (restated: it
        landed a ``kind="full"`` manifest listing every digest too)."""
        [entry] = chains([FIVE_TREES[0]])
        universe = make_universe(4)
        image = seed_chain(universe, entry[1], 60_000)
        broadcast(universe, [entry])
        stable = universe.cluster.stable_fs
        fs = universe.cluster.node("node01").local_fs
        dst = entry[2]
        assert fs.list_tree(dst) == sorted(f"{dst}/{name}" for name in TREE)
        assert fs.peek(f"{dst}/image.pkl") == image
        assert fs.peek(f"{dst}/{MARKER}") == stable.peek(f"{entry[1][-1]}/{MARKER}")
        newest = chunkstore.ChunkManifest.from_json(stable.peek(f"{entry[1][-1]}/chunks.json"))
        assert newest.kind == "delta" and len(newest.present) == 2
        assert newest.total_bytes == len(image)
        # and a rank restarting from it reads exactly that image back
        blob, manifest = run_gen(universe.kernel, chunkstore.reconstruct_chain(fs, [dst]))
        assert (blob, manifest) == (image, None)

    def test_session_cost_moves_a_single_wave_by_exactly_its_delta(self, monkeypatch):
        """``SESSION_COST_S`` is charged once per stream: four
        streams in one wave end Δ later, four streams one at a time
        4 × Δ later."""
        entries = [(f"node0{i}", [f"/g/rank{i}"], f"/restart/rank{i}") for i in range(4)]
        delta = 0.125  # a power of two, so the float sums stay comparable

        def end(session: float, limit: int) -> float:
            monkeypatch.setattr(filem_rsh, "SESSION_COST_S", session)
            universe = seeded(
                entries, trace=False, params={"filem_rsh_max_concurrent": str(limit)},
            )
            broadcast(universe, entries)
            return universe.kernel.now

        assert end(SESSION_S + delta, 4) - end(SESSION_S, 4) == pytest.approx(
            delta, abs=1e-12
        )
        assert end(SESSION_S + delta, 1) - end(SESSION_S, 1) == pytest.approx(
            4 * delta, abs=1e-12
        )

    def test_write_side_still_pays_a_session_per_file(self):
        universe = make_universe()
        universe.kernel.tracer.enable()
        fs = universe.cluster.node("node01").local_fs
        for name in SNAPSHOT:
            fs.poke(f"/ckpt/r1/{name}", b"x" * 100)
        hnp = universe.hnp
        start = universe.kernel.now
        run_gen(
            universe.kernel,
            hnp.filem.gather(hnp, [("node01", "/ckpt/r1", "/snapshots/g/rank1")]),
        )
        assert universe.kernel.tracer.counters["filem.sessions"] == 3
        assert universe.kernel.now - start > 3 * SESSION_S

    def test_nothing_is_recorded_with_the_tracer_off(self):
        universe = seeded(FIVE_CHAINS, trace=False)
        broadcast(universe, FIVE_CHAINS)
        tracer = universe.kernel.tracer
        assert tracer.spans == [] and tracer.counters == {}


def halted_chain_job(n_nodes=8, np=16, state_bytes=60 << 10, **params):
    """full + delta + delta of a churn job, halted on the third;
    returns ``(universe, job, reference, baseline results)``."""
    params = {
        "filem": "rsh", "snapc_full_interval_every": "3",
        "crs_base_chunk_bytes": str(CHUNK), **params,
    }
    universe = make_universe(n_nodes, params=params)
    args = {"loops": 60, "compute_s": 0.01, "state_bytes": state_bytes}
    job = ompi_run(universe, "churn", np, args=args, wait=False)
    handles = [
        ompi_checkpoint(universe, job.jobid, at=at, wait=False, terminate=last)
        for at, last in ((0.1, False), (0.25, False), (0.4, True))
    ]
    universe.run_job_to_completion(job)
    assert job.state is JobState.HALTED
    baseline = ompi_run(make_universe(n_nodes), "churn", np, args=args).results
    return universe, job, checkpoint_ref(handles[-1]), baseline


def restart_staging(universe) -> set[str]:
    return {
        path
        for node in universe.cluster.nodes
        for path in node.local_fs._files
        if path.startswith("/restart/")
    }


class TestChainRestart:
    def test_sixteen_ranks_three_links_open_eight_sessions(self):
        """full + delta + delta of 16 ranks on 8 nodes: 16 flattened
        trees move through 8 sessions and each rank finds 2 files.
        Re-pinned: before, 48 trees (one per link) landed as
        ``part0..2`` and each rank read 12 files to rebuild its image;
        192 sessions when each file paid one; 3 files a rank (a full
        manifest too) until the digests stayed on stable storage."""
        universe, job, reference, baseline = halted_chain_job()
        stable = universe.cluster.stable_fs
        backend = universe.hnp.snapc.stager(universe.hnp).backends[False]
        backend.drop_preload = lambda *attempt: None  # keep what landed to look at

        tracer = universe.kernel.tracer
        tracer.enable()
        restarted = ompi_restart(universe, reference)
        assert restarted.results == baseline
        assert tracer.counters["filem.sessions"] == 8
        spans = transfers(universe)
        assert len(spans) == 16 and {s.attrs["op"] for s in spans} == {"broadcast"}
        assert {s.attrs["links"] for s in spans} == {3}

        shipped = 0
        for rank, node in restarted.placements.items():
            fs = universe.cluster.node(node).local_fs
            dst = f"/restart/job{restarted.jobid}/rank{rank}"
            assert fs.list_tree(dst) == sorted(f"{dst}/{name}" for name in TREE)
            shipped += sum(len(fs.peek(f"{dst}/{name}")) for name in TREE)
            newest = reference.local_dir(rank)
            wanted = chunkstore.ChunkManifest.from_json(stable.peek(f"{newest}/chunks.json"))
            assert wanted.kind == "delta"
            assert len(fs.peek(f"{dst}/image.pkl")) == wanted.total_bytes
            assert fs.peek(f"{dst}/{MARKER}") == stable.peek(f"{newest}/{MARKER}")
            # the marker is the last file down
            assert fs.stat(f"{dst}/{MARKER}").mtime > fs.stat(f"{dst}/image.pkl").mtime
        assert restart_staging(universe) == {
            f"/restart/job{restarted.jobid}/rank{rank}/{name}"
            for rank in range(16) for name in TREE
        }
        whole = whole_span(universe)
        assert whole.attrs["bytes"] == shipped
        assert (whole.attrs["entries"], whole.attrs["links"], whole.attrs["files"]) == (16, 48, 32)
        assert whole.attrs["streams"] == whole.attrs["sessions"] == 8
        # chunks a later delta overwrote were read and stayed behind
        assert whole.attrs["read_bytes"] > shipped

    def test_staging_is_removed_once_the_job_is_running(self):
        """No ``/restart/job<J>`` file outlives the launch (it used to
        stay for the life of the universe), and nobody waits for the
        removal: the reply is back before the files are gone."""
        universe, job, reference, baseline = halted_chain_job(4, 4)
        handle = ompi_restart(universe, reference, wait=False)
        reply = handle.wait_stepped(0.001)
        assert reply["ok"] and restart_staging(universe) != set()
        restarted = universe.job(reply["jobid"])
        universe.run_job_to_completion(restarted)
        assert restarted.results == baseline
        assert restart_staging(universe) == set()

    def test_full_interval_restart_is_removed_too(self):
        universe = make_universe(4)
        args = {"loops": 40, "compute_s": 0.01, "state_bytes": 64 << 10}
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False, terminate=True)
        universe.run_job_to_completion(job)
        universe.kernel.tracer.enable()
        restarted = ompi_restart(universe, checkpoint_ref(handle))
        assert restarted.state is JobState.FINISHED
        assert {s.attrs["links"] for s in transfers(universe)} == {1}
        assert restart_staging(universe) == set()

    def test_corrupt_delta_on_stable_storage_is_refused_before_any_launch(self):
        """Verification moved from each rank to the HNP's stream: a
        delta chunk that rotted on stable storage fails the preload, no
        process of the new job ever exists, the job ends FAILED and its
        partial staging is removed."""
        universe, job, reference, _baseline = halted_chain_job(4, 4)
        stable = universe.cluster.stable_fs
        newest = job.snapshots[2].local_dir(2)
        [victim, *_] = [p for p in stable.list_tree(newest) if "chunk_" in p]
        stable.poke(victim, bytes(len(stable.peek(victim))))
        with pytest.raises(RestartError, match="fails verification"):
            ompi_restart(universe, reference)
        half_built = universe.job(max(universe.jobs))
        assert half_built.restarted_from == reference
        assert half_built.state is JobState.FAILED and half_built.procs == {}
        universe.kernel.run()
        assert restart_staging(universe) == set()


    def test_autorecovery_walks_back_past_a_chain_that_fails_verification(self):
        """The corrupt interval costs the lineage one attempt: the
        preload refuses it, recovery skips it for the episode and
        restarts from the previous usable interval."""
        universe = make_universe(
            4, params={
                "filem": "rsh", "snapc_full_interval_every": "3",
                "crs_base_chunk_bytes": str(CHUNK), "orte_errmgr_autorecover": "1",
            },
        )
        args = {"loops": 200, "compute_s": 0.01, "state_bytes": 60 << 10}
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        for at in (0.1, 0.35, 0.6):
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        stable = universe.cluster.stable_fs

        def rot():
            newest = job.snapshots[2].local_dir(1)
            [victim, *_] = [p for p in stable.list_tree(newest) if "chunk_" in p]
            stable.poke(victim, bytes(len(stable.peek(victim))))

        universe.kernel.call_at(0.85, rot)
        universe.cluster.failures.crash_node_at(0.9, "node03")
        universe.run_job_to_completion(job)
        errmgr = universe.hnp.errmgr
        [record] = errmgr.recovery_log
        assert record.recovered and record.attempts == 2 <= errmgr.max_recoveries
        assert record.snapshot == job.snapshots[1].path
        refused = universe.job(job.jobid + 1)
        assert refused.state is JobState.FAILED and refused.procs == {}
        final = universe.job(errmgr.recoveries[-1][1])
        universe.run_job_to_completion(final)
        assert final.state is JobState.FINISHED
        assert final.results == ompi_run(make_universe(4), "churn", 4, args=args).results
        assert restart_staging(universe) == set()

    def test_shared_filem_reads_its_chain_off_stable_storage(self):
        """``filem=shared`` plans no preload: every rank is handed the
        three stable directories and rebuilds the image itself."""
        universe, job, reference, baseline = halted_chain_job(4, 4, filem="shared")
        backend = universe.hnp.snapc.stager(universe.hnp).backends[False]
        plan, planned = backend.plan_restart, []

        def spy(*args):
            planned.append((yield from plan(*args)))
            return planned[-1]

        backend.plan_restart = spy
        universe.kernel.tracer.enable()
        restarted = ompi_restart(universe, reference)
        assert restarted.results == baseline
        assert not [s for s in universe.kernel.tracer.spans if s.name.startswith("filem.")]
        assert restart_staging(universe) == set()
        [(specs, entries)] = planned
        assert entries == [] and [spec.restart_from for spec in specs] == [
            {"fs": "stable", "chain": [ref.local_dir(rank) for ref in job.snapshots]}
            for rank in range(4)
        ]

    def test_chains_no_two_links_of_which_look_alike(self):
        """Results equal the uninterrupted run when the operator changed
        ``crs_base_chunk_bytes`` between intervals (the ranks answer the
        planned delta with a full image: a chain of mixed kinds), when
        the image grew from link to link (two logged messages per loop),
        and when the base predates manifests (``chunks.json`` removed)."""
        universe = make_universe(
            4, params={
                "filem": "rsh", "snapc_full_interval_every": "4",
                "crs_base_chunk_bytes": str(CHUNK),
            },
        )
        args = {
            "loops": 60, "compute_s": 0.01, "state_bytes": 60 << 10,
            "msgs_per_loop": 2, "payload_bytes": 512,
        }
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False, terminate=last)
            for at, last in ((0.1, False), (0.2, False), (0.3, False), (0.4, True))
        ]

        def rechunk():
            for proc in job.procs.values():
                proc.service("opal").crs.params.set("crs_base_chunk_bytes", CHUNK // 2)

        universe.kernel.call_at(0.25, rechunk)
        universe.run_job_to_completion(job)
        assert job.state is JobState.HALTED
        stable = universe.cluster.stable_fs
        manifests = [
            chunkstore.ChunkManifest.from_json(stable.peek(f"{ref.local_dir(0)}/chunks.json"))
            for ref in job.snapshots
        ]
        assert [(m.kind, m.chunk_bytes) for m in manifests] == [
            ("full", CHUNK), ("delta", CHUNK), ("full", CHUNK // 2), ("delta", CHUNK // 2),
        ]
        sizes = [m.total_bytes for m in manifests]
        assert sizes == sorted(sizes) and len(set(sizes)) == 4
        baseline = ompi_run(make_universe(4), "churn", 4, args=args).results
        assert ompi_restart(universe, checkpoint_ref(handles[3])).results == baseline
        # interval 2 hangs off a base whose manifests are gone
        for rank in range(4):
            run_gen(universe.kernel, stable.remove(f"{job.snapshots[0].local_dir(rank)}/chunks.json"))
        universe.kernel.tracer.enable()
        assert ompi_restart(universe, checkpoint_ref(handles[1])).results == baseline
        assert {s.attrs["links"] for s in transfers(universe)} == {2}

    @pytest.mark.parametrize("shape", ["rechunked", "grew_and_shrank", "legacy_base"])
    def test_odd_chains_land_the_image_their_newest_manifest_describes(self, shape):
        """Hand-built chains no application here produces: a delta cut
        at another chunk size than its base, an image that grew and then
        shrank, a base without a manifest."""
        images = {
            "rechunked": [bytes(range(200)), bytes(range(200)), bytes(range(200))],
            "grew_and_shrank": [bytes(range(100)), bytes(range(250)), bytes(range(60))],
            "legacy_base": [bytes(range(200)), bytes(range(200))],
        }[shape]
        cuts = {"rechunked": [16, 16, 24]}.get(shape, [16] * len(images))
        universe = make_universe(4)
        stable = universe.cluster.stable_fs
        chain, previous = [], None
        for interval, (image, n) in enumerate(zip(images, cuts), 1):
            image = image[:7] + bytes([interval]) + image[8:]
            directory = f"/g/odd{interval}/rank0"
            chain.append(directory)
            if previous is None:
                hashes, dirty = chunkstore.hash_chunks(image, n, None)
                stable.poke(f"{directory}/image.pkl", image)
            else:  # the delta against the previous image, cut at this link's size
                seen = chunkstore.hash_chunks(previous, n, None)[0]
                hashes, dirty = chunkstore.hash_chunks(
                    image, n, {"chunk_bytes": n, "hashes": seen, "blob": previous}
                )
                assert 0 < len(dirty) < len(hashes) or len(image) < len(previous)
                for i in dirty:
                    stable.poke(
                        f"{directory}/{chunkstore.chunk_filename(i)}", image[i * n : (i + 1) * n]
                    )
            if previous is not None or shape != "legacy_base":
                stable.poke(f"{directory}/chunks.json", chunkstore.ChunkManifest(
                    kind="delta" if previous else "full", chunk_bytes=n,
                    total_bytes=len(image), hashes=hashes, present=dirty,
                    base_interval=interval - 1 if previous else None, interval=interval,
                ).to_json())
            stable.poke(f"{directory}/{MARKER}", b"meta%d" % interval)
            previous = image
        broadcast(universe, [("node02", chain, "/restart/odd/rank0")])
        fs = universe.cluster.node("node02").local_fs
        assert fs.list_tree("/restart/odd/rank0") == [
            f"/restart/odd/rank0/{name}" for name in sorted(TREE)
        ]
        assert fs.peek("/restart/odd/rank0/image.pkl") == image
        assert fs.peek(f"/restart/odd/rank0/{MARKER}") == b"meta%d" % len(images)
        blob, _ = run_gen(universe.kernel, chunkstore.reconstruct_chain(fs, ["/restart/odd/rank0"]))
        assert blob == image


class TestLandedImageSize:
    """Nothing lands a manifest, so a rank checks the image it reads
    against the ``total_bytes`` of the metadata that landed beside it: an
    image cut short between the preload and the rank's read is refused
    by name, not left to the unpickler."""

    @staticmethod
    def _truncate_after_preload(universe, cas: bool, rank: int = 1) -> None:
        backend = universe.hnp.snapc.stager(universe.hnp).backends[cas]
        preload = backend.preload

        def truncating(plan, entries):
            yield from preload(plan, entries)
            node, _chain, dst = entries[rank]
            fs = universe.cluster.node(node).local_fs
            fs.poke(f"{dst}/image.pkl", fs.peek(f"{dst}/image.pkl")[:-100])

        backend.preload = truncating

    def _refused(self, universe, reference, cas: bool, **options) -> None:
        self._truncate_after_preload(universe, cas)
        with pytest.raises(RestartError, match=r"image at /restart/job\d+/rank1 is \d+ "
                           r"bytes, its metadata says \d+"):
            ompi_restart(universe, reference, **options)
        refused = universe.job(max(universe.jobs))
        assert refused.restarted_from == reference
        assert refused.state is JobState.FAILED

    def test_after_a_tree_chain_broadcast(self):
        universe, _job, reference, _baseline = halted_chain_job(4, 4)
        self._refused(universe, reference, cas=False)

    def test_after_a_cas_fetch(self):
        universe = make_universe(4, params={"filem": "rsh", "snapc_full_cas": "1"})
        args = {"loops": 40, "compute_s": 0.01, "state_bytes": 64 << 10}
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False, terminate=True)
        universe.run_job_to_completion(job)
        assert job.state is JobState.HALTED
        # every rank one node along: none reuses what its node kept
        moved = {rank: f"node0{(rank + 1) % 4}" for rank in range(4)}
        self._refused(universe, checkpoint_ref(handle), cas=True, placement=moved)


class TestConcurrency:
    @pytest.mark.parametrize("limit, peak", [(1, 1), (2, 2), (8, 4)])
    def test_max_concurrent_bounds_node_streams(self, limit, peak):
        """Two ranks on each of four nodes: the knob bounds how many
        *nodes* stream at once, never how many ranks."""
        entries = [
            (f"node0{i}", [f"/g/i{link}/rank{i}"], f"/restart/i{link}/rank{i}")
            for link in (1, 2)
            for i in range(4)
        ]
        universe = seeded(
            entries, params={"filem_rsh_max_concurrent": str(limit)}
        )
        broadcast(universe, entries)
        assert peak_open_streams(universe) == peak
        assert universe.kernel.tracer.counters["filem.sessions"] == 4


class TestOrdering:
    def _ranks_of_one_stream_land_in_entry_order(self, links):
        entries = chains(
            [
                ("node01", ["/g/i1/rank0"], "/restart/i1/rank0"),
                ("node02", ["/g/i1/rank1"], "/restart/i1/rank1"),
                ("node01", ["/g/i3/rank0"], "/restart/i3/rank0"),
                ("node01", ["/g/i2/rank0"], "/restart/i2/rank0"),
            ],
            links,
        )
        universe = seeded(entries, sizes={entries[0][1][-1]: 900_000})
        broadcast(universe, entries)
        fs = universe.cluster.node("node01").local_fs
        landed = sorted(
            (fs.stat(f"{dst}/{MARKER}").mtime, dst)
            for node, _chain, dst in entries
            if node == "node01"
        )
        assert [dst for _t, dst in landed] == [
            "/restart/i1/rank0", "/restart/i3/rank0", "/restart/i2/rank0",
        ]
        spans = transfers(universe, "node01")
        assert all(a.t1 <= b.t0 for a, b in zip(spans, spans[1:]))
        # within a tree the marker is the last file down
        first = "/restart/i1/rank0"
        assert fs.stat(f"{first}/{MARKER}").mtime > fs.stat(f"{first}/image.pkl").mtime

    def test_trees_of_one_stream_are_written_in_entry_order(self):
        """Entry order survives both the grouping by node and uneven
        tree sizes."""
        self._ranks_of_one_stream_land_in_entry_order(1)

    def test_chains_of_one_stream_are_rebuilt_in_entry_order(self):
        """… and a rank's chain is rebuilt and landed before the next
        rank's is read."""
        self._ranks_of_one_stream_land_in_entry_order(3)


class TestFailures:
    def test_dead_destination_is_refused_before_any_file_lands(self):
        universe = seeded(FIVE_TREES)
        universe.cluster.node("node02").crash()
        start = universe.kernel.now
        with pytest.raises(VFSError, match="node02"):
            broadcast(universe, FIVE_TREES)
        assert universe.kernel.now == start
        assert local_files(universe, "node01") == set()
        assert "filem.sessions" not in universe.kernel.tracer.counters

    def _second_rank_window(self, entries, node: str) -> tuple[float, float]:
        probe = seeded(entries)
        broadcast(probe, entries)
        second = transfers(probe, node)[1]
        return second.t0, second.t1

    def test_node_crash_mid_stream_keeps_earlier_trees_whole(self):
        """node01 dies while its second tree is on the wire: the first
        tree is complete (marker and all), the second has no marker, the
        third never started — and the broadcast fails."""
        t0, t1 = self._second_rank_window(FIVE_TREES, "node01")
        universe = seeded(FIVE_TREES)
        universe.cluster.failures.crash_node_at((t0 + t1) / 2, "node01")
        with pytest.raises(VFSError, match="node01"):
            broadcast(universe, FIVE_TREES)
        landed = local_files(universe, "node01")
        assert {f"/restart/i1/rank0/{name}" for name in TREE} <= landed
        assert f"/restart/i2/rank0/{MARKER}" not in landed
        assert not any(path.startswith("/restart/i3/") for path in landed)
        assert universe.kernel.tracer.counters["filem.sessions"] == 2

    def test_node_crash_mid_rebuild_leaves_the_second_rank_absent(self):
        """The same crash while the second rank's *chain* is being read
        off stable storage: the first rank landed whole, nothing of the
        second or third exists, same ``VFSError``."""
        t0, _t1 = self._second_rank_window(FIVE_CHAINS, "node01")
        universe = seeded(FIVE_CHAINS)
        universe.cluster.failures.crash_node_at(t0 + 1e-3, "node01")
        with pytest.raises(VFSError, match="node01"):
            broadcast(universe, FIVE_CHAINS)
        assert local_files(universe, "node01") == {
            f"/restart/i1/rank0/{name}" for name in TREE
        }
        assert universe.kernel.tracer.counters["filem.sessions"] == 2

    def _partition_between_two_ranks_fails_the_second(self, entries):
        t0, _t1 = self._second_rank_window(entries, "node01")
        universe = seeded(entries)
        failures = universe.cluster.failures
        # t0 is where rank 1 ended; the probe before rank 2's first
        # write is the first to see a partition opened just after it
        universe.kernel.call_at(
            t0 + 1e-9, lambda: failures.partition_node_now("node01", 10.0)
        )
        with pytest.raises(NetworkError, match="node01"):
            broadcast(universe, entries)
        fs = universe.cluster.node("node01").local_fs
        assert fs.exists(f"/restart/i1/rank0/{MARKER}")
        assert not fs.exists(f"/restart/i2/rank0/{MARKER}")
        assert not fs.exists("/restart/i3/rank0")
        assert fs.list_tree("/restart/i2") == []

    def test_partition_between_two_trees_fails_the_second(self):
        """The link probe runs around every rank, not only when the
        session opens: a partition that starts after the first rank
        landed raises from the second."""
        self._partition_between_two_ranks_fails_the_second(FIVE_TREES)

    def test_partition_between_two_chains_leaves_the_second_absent(self):
        self._partition_between_two_ranks_fails_the_second(FIVE_CHAINS)

    def test_partitioned_node_is_refused_when_its_session_opens(self):
        universe = seeded(FIVE_TREES)
        universe.cluster.failures.partition_node_now("node01", 10.0)
        with pytest.raises(NetworkError, match="node01"):
            broadcast(universe, FIVE_TREES)
        assert local_files(universe, "node01") == set()

    def test_a_failed_preload_stops_its_other_streams(self):
        """Once one stream has failed nobody will read what the others
        land: they stop where they are instead of racing the cleanup."""
        entries = [
            (f"node0{i}", [f"/g/a{k}/rank{i}" for k in (1, 2, 3)], f"/restart/job9/rank{i}")
            for i in range(4)
        ]
        universe = seeded(entries, sizes={chain[-1]: 400_000 for _n, chain, _d in entries})
        stable = universe.cluster.stable_fs
        stable.poke("/g/a2/rank0/chunk_000002.bin", bytes(CHUNK))
        with pytest.raises(RestartError, match="chunk 2 of /g/a3/rank0 fails verification"):
            broadcast(universe, entries)
        failed_at = universe.kernel.now
        universe.kernel.run()
        assert universe.kernel.now == failed_at
        assert restart_staging(universe) == set()

    def test_restart_whose_node_dies_mid_preload_marks_the_job_failed(self):
        """The error surface ``FullSNAPC.global_restart`` had: the
        half-built job is FAILED and the tool gets the reason — and what
        had landed on the surviving nodes is removed."""

        def halted_job():
            universe = make_universe(4)
            job = ompi_run(
                universe, "churn", 8, wait=False,
                args={"loops": 40, "compute_s": 0.01, "state_bytes": 256 << 10},
            )
            handle = ompi_checkpoint(
                universe, job.jobid, at=0.1, wait=False, terminate=True
            )
            universe.run_job_to_completion(job)
            return universe, checkpoint_ref(handle)

        probe, reference = halted_job()
        probe.kernel.tracer.enable()
        ompi_restart(probe, reference)
        second = transfers(probe, "node02")[1]

        universe, reference = halted_job()
        universe.cluster.failures.crash_node_at((second.t0 + second.t1) / 2, "node02")
        handle = ompi_restart(universe, reference, wait=False)
        reply = handle.wait()
        assert not reply["ok"] and "node02" in reply["error"]
        half_built = universe.job(max(universe.jobs))
        assert half_built.restarted_from == reference
        assert half_built.state is JobState.FAILED
        survivors = restart_staging(universe) - local_files(universe, "node02")
        assert survivors == set()


# ---------------------------------------------------------------------------
# CAS restart preload: ``fetch_chunks``
# ---------------------------------------------------------------------------

CAS_CHUNK = 32
#: every simulated cost of the fetch universes is a power of two, so a
#: sum of them is exact in any order
POW2_HOP, POW2_STABLE, POW2_LOCAL = 2.0**-12, 2.0**-9, 2.0**-8
POW2_BPS, POW2_SESSION = 2.0**27, 2.0**-6


#: 6 ranks whose 17-chunk images share their first 9 chunks; 4 slots
RANKS, SHARED, OWN, SLOTS = 6, 9, 8, 4
UNION = SHARED + RANKS * OWN  # 57 distinct chunks


@pytest.fixture
def pow2_session(monkeypatch):
    """An rsh session of ``POW2_SESSION``, for ``cas_universe``."""
    monkeypatch.setattr(filem_rsh, "SESSION_COST_S", POW2_SESSION)


def cas_universe(trace=True):
    """``RANKS`` CAS rank directories ``/g/rank<R>`` on stable storage
    and their chunks in the store: the first ``SHARED`` chunks of every
    image are the same, the next ``OWN`` are the rank's alone.  Ranks
    alternate between node01 and node02; every cost is a power of two
    (the session too, under the ``pow2_session`` fixture).  Returns
    ``(universe, store, entries)``."""
    assert filem_rsh.SESSION_COST_S == POW2_SESSION, "use the pow2_session fixture"
    universe = make_universe(
        4, params={"filem_rsh_max_concurrent": str(SLOTS)},
        stable_Bps=POW2_BPS, local_disk_Bps=POW2_BPS,
    )
    cluster = universe.cluster
    stable = cluster.stable_fs
    stable.op_latency_s, stable.net_hop_s = POW2_STABLE, POW2_HOP
    for node in cluster.nodes:
        node.local_fs.op_latency_s = POW2_LOCAL
    cluster.eth.model = dataclasses.replace(cluster.eth.model, bandwidth_Bps=POW2_BPS)
    store = ChunkStore(stable)
    entries = []
    for rank in range(RANKS):
        chunks = [bytes([i, 255]) * 16 for i in range(SHARED)]
        chunks += [bytes([i, rank]) * 16 for i in range(SHARED, SHARED + OWN)]
        for data in chunks:
            stable.poke(store.blob_path(chunk_digest(data)), data)
        src = f"/g/rank{rank}"
        stable.poke(f"{src}/chunks.json", chunkstore.ChunkManifest(
            kind="full", chunk_bytes=CAS_CHUNK, total_bytes=CAS_CHUNK * len(chunks),
            hashes=[chunk_digest(data) for data in chunks], present=[], interval=1,
        ).to_json())
        stable.poke(f"{src}/{MARKER}", b"m" * 200)
        entries.append((f"node0{1 + rank % 2}", [src], f"/restart/job9/rank{rank}"))
    if trace:
        universe.kernel.tracer.enable()
    return universe, store, entries


def fetch(universe, store, entries):
    """``fetch_chunks`` handed the manifests a restart's check read."""
    hnp, stable = universe.hnp, universe.cluster.stable_fs
    manifests = {
        chain[-1]: chunkstore.ChunkManifest.from_json(stable.peek(f"{chain[-1]}/chunks.json"))
        for _node, chain, _dst in entries
    }
    return run_gen(universe.kernel, hnp.filem.fetch_chunks(hnp, store, entries, manifests))


def cas_tree(universe, store, src: str) -> dict:
    """What ``fetch_chunks`` is to land for the rank directory *src*."""
    stable = universe.cluster.stable_fs
    manifest = chunkstore.ChunkManifest.from_json(stable.peek(f"{src}/chunks.json"))
    image = b"".join(stable.peek(store.blob_path(d)) for d in manifest.hashes)
    return chunkstore.full_image_tree(image, stable.peek(f"{src}/{MARKER}"))


@pytest.mark.usefixtures("pow2_session")
class TestFetch:
    def test_reads_then_the_longest_stripe_then_landing_waves(self):
        """6 ranks sharing 9 of their 17 chunks, 4 transfer slots: two
        waves of metadata reads (the manifests are the ones the restart's
        check read); the 57 distinct chunks in four stripes, the longest
        (15 reads) setting the time; two waves of (session + the wire for
        the whole tree + two local writes).  Before, every rank read its
        own 17 chunks: 102 reads, and its manifest a second time; and it
        landed a full manifest as a third file."""
        universe, store, entries = cas_universe()
        stable = universe.cluster.stable_fs
        read_before = stable.bytes_read
        moved = fetch(universe, store, entries)

        def stable_read(nbytes):
            return POW2_HOP + POW2_STABLE + nbytes / POW2_BPS

        def local_write(nbytes):
            return POW2_LOCAL + nbytes / POW2_BPS

        trees = [cas_tree(universe, store, chain[-1]) for _node, chain, _dst in entries]
        sizes = {tuple(map(len, tree.values())) for tree in trees}
        assert len(sizes) == 1  # every rank costs the same: the waves are clean
        (image, meta), = sizes
        waves = math.ceil(RANKS / SLOTS)
        expected = (
            waves * stable_read(meta)
            + math.ceil(UNION / SLOTS) * stable_read(CAS_CHUNK)
            + waves * (
                POW2_SESSION + (image + meta) / POW2_BPS
                + local_write(image) + local_write(meta)
            )
        )
        assert universe.kernel.now == expected
        assert moved == RANKS * (image + meta)
        assert stable.bytes_read - read_before == RANKS * meta + UNION * CAS_CHUNK

        tracer = universe.kernel.tracer
        assert tracer.counters["filem.sessions"] == RANKS
        [span] = [s for s in tracer.spans if s.name == "filem.fetch"]
        assert span.attrs == {
            "entries": RANKS, "chunks": RANKS * (SHARED + OWN), "reads": UNION,
            "read_bytes": UNION * CAS_CHUNK, "bytes": moved,
        }
        spans = transfers(universe)
        assert {s.attrs["op"] for s in spans} == {"fetch"} and len(spans) == RANKS
        assert [s.attrs["bytes"] for s in spans] == [image + meta] * RANKS

    def test_each_rank_lands_its_image_and_its_metadata(self):
        """Two files a rank, the marker last (restated: a ``kind="full"``
        manifest listing every digest landed between them)."""
        universe, store, entries = cas_universe(trace=False)
        fetch(universe, store, entries)
        for node, chain, dst in entries:
            fs = universe.cluster.node(node).local_fs
            tree = cas_tree(universe, store, chain[-1])
            assert fs.list_tree(dst) == sorted(f"{dst}/{name}" for name in TREE)
            assert {name: fs.peek(f"{dst}/{name}") for name in TREE} == tree
            assert len(tree["image.pkl"]) == CAS_CHUNK * (SHARED + OWN)
            assert fs.stat(f"{dst}/{MARKER}").mtime > fs.stat(f"{dst}/image.pkl").mtime

    def test_nothing_is_recorded_with_the_tracer_off(self):
        universe, store, entries = cas_universe(trace=False)
        fetch(universe, store, entries)
        tracer = universe.kernel.tracer
        assert tracer.spans == [] and tracer.counters == {}


@pytest.mark.usefixtures("pow2_session")
class TestFetchFailures:
    @pytest.mark.parametrize(
        "harm, error",
        [
            ("rotten", "fails verification"),
            ("absent", "absent from store"),
            ("short", "manifest says 545"),
        ],
    )
    def test_a_bad_chunk_or_size_fails_before_any_rank_lands(self, harm, error):
        """A chunk that rotted in the store, one that is gone, an image
        that is not its manifest's size: the fetch raises before the
        first session opens, and the other stripes stop."""
        universe, store, entries = cas_universe()
        stable = universe.cluster.stable_fs
        victim = store.blob_path(chunk_digest(bytes([12, 5]) * 16))  # rank 5's own
        if harm == "rotten":
            stable.poke(victim, bytes(CAS_CHUNK))
        elif harm == "absent":
            run_gen(universe.kernel, stable.remove(victim))
        else:
            path = "/g/rank3/chunks.json"
            manifest = chunkstore.ChunkManifest.from_json(stable.peek(path))
            manifest.total_bytes += 1
            stable.poke(path, manifest.to_json())
        with pytest.raises(SnapshotError, match=error):
            fetch(universe, store, entries)
        failed_at = universe.kernel.now
        universe.kernel.run()
        assert universe.kernel.now == failed_at
        assert restart_staging(universe) == set()
        assert "filem.sessions" not in universe.kernel.tracer.counters

    def test_dead_destination_is_refused_before_a_byte_is_read(self):
        universe, store, entries = cas_universe()
        universe.cluster.node("node02").crash()
        stable = universe.cluster.stable_fs
        read_before, start = stable.bytes_read, universe.kernel.now
        with pytest.raises(VFSError, match="node02"):
            fetch(universe, store, entries)
        assert (universe.kernel.now, stable.bytes_read) == (start, read_before)
        assert universe.kernel.tracer.spans == []

    def _rank4_landing(self) -> tuple[float, float]:
        """node01's third rank, alone on node01 in the second landing wave."""
        probe, store, entries = cas_universe()
        fetch(probe, store, entries)
        span = transfers(probe, "node01")[2]
        return span.t0, span.t1

    def test_node_crash_mid_landing_keeps_the_first_wave_whole(self):
        _t0, t1 = self._rank4_landing()
        universe, store, entries = cas_universe()
        universe.cluster.failures.crash_node_at(t1 - 2.0**-10, "node01")  # its last write
        with pytest.raises(VFSError, match="node01"):
            fetch(universe, store, entries)
        landed = local_files(universe, "node01")
        assert {f"/restart/job9/rank{r}/{name}" for r in (0, 2) for name in TREE} <= landed
        assert "/restart/job9/rank4/image.pkl" in landed
        assert f"/restart/job9/rank4/{MARKER}" not in landed

    def test_partition_before_the_first_file_lands_nothing_of_the_rank(self):
        t0, _t1 = self._rank4_landing()
        universe, store, entries = cas_universe()
        failures = universe.cluster.failures
        universe.kernel.call_at(  # while its session opens
            t0 + 2.0**-10, lambda: failures.partition_node_now("node01", 10.0)
        )
        with pytest.raises(NetworkError, match="node01"):
            fetch(universe, store, entries)
        fs = universe.cluster.node("node01").local_fs
        assert all(fs.exists(f"/restart/job9/rank{r}/{MARKER}") for r in (0, 2))
        assert fs.list_tree("/restart/job9/rank4") == []
