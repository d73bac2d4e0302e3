"""The ``rsh`` FILEM restart preload: one rsh session per destination
node, that node's trees streamed through it in entry order.

``RshFILEM.broadcast`` is priced here against the vfs primitives it is
built from (``copy_tree`` on a second kernel), counted through the
``filem.sessions`` tracer counter, and failed at every point a tree
copy can fail.  The write side (``gather``/``stage_out``) keeps its
per-file sessions; ``tests/test_orte.py::TestFILEM`` covers its basics.
"""

from __future__ import annotations

import pytest

from repro.orte.job import JobState
from repro.simenv.kernel import Delay, WaitAll
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run
from repro.util.errors import NetworkError, VFSError
from repro.vfs.transfer import copy_tree
from tests.conftest import make_universe, run_gen

SESSION_S = 0.020  # the filem_rsh_session_cost default
MARKER = "metadata.json"  # sorts last in a rank directory: lands last


def seed_tree(universe, src_dir: str, image_bytes: int) -> None:
    stable = universe.cluster.stable_fs
    stable.poke(f"{src_dir}/image.pkl", b"I" * image_bytes)
    stable.poke(f"{src_dir}/chunks.json", b"{}" * 40)
    stable.poke(f"{src_dir}/{MARKER}", b"m" * 200)


def seeded(entries, sizes=None, n_nodes=4, params=None, trace=True):
    """A universe with one stable tree per entry (sizes differ so that
    no two trees cost the same)."""
    universe = make_universe(n_nodes, params=params)
    for i, (_node, src, _dst) in enumerate(entries):
        seed_tree(universe, src, (sizes or {}).get(src, 50_000 * (i + 1)))
    if trace:
        universe.kernel.tracer.enable()
    return universe


def broadcast(universe, entries):
    hnp = universe.hnp
    return run_gen(universe.kernel, hnp.filem.broadcast(hnp, entries))


def transfers(universe, node=None):
    return [
        s for s in universe.kernel.tracer.spans
        if s.name == "filem.transfer" and node in (None, s.attrs["node"])
    ]


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


FIVE_TREES = [
    ("node01", "/g/i1/rank0", "/restart/i1/rank0"),
    ("node02", "/g/i1/rank1", "/restart/i1/rank1"),
    ("node01", "/g/i2/rank0", "/restart/i2/rank0"),
    ("node02", "/g/i2/rank1", "/restart/i2/rank1"),
    ("node01", "/g/i3/rank0", "/restart/i3/rank0"),
]


class TestPricing:
    def test_broadcast_costs_one_session_per_node_plus_its_trees(self):
        """2 nodes, 5 trees: exactly ``session + Σ copy_tree(latency 0)``
        per node, the nodes in parallel — the loop below, run on a
        second kernel, ends at the same instant."""
        universe = seeded(FIVE_TREES)
        moved = broadcast(universe, FIVE_TREES)

        twin = seeded(FIVE_TREES, trace=False)
        stable = twin.cluster.stable_fs
        eth = twin.cluster.eth.model.bandwidth_Bps

        def stream(node):
            yield Delay(SESSION_S)
            total = 0
            for entry_node, src, dst in FIVE_TREES:
                if entry_node == node:
                    total += yield from copy_tree(
                        stable, src, twin.cluster.node(node).local_fs, dst,
                        extra_net_Bps=eth, extra_latency_s=0,
                    )
            return total

        def reference():
            threads = [
                twin.kernel.spawn(stream(node), name=node)
                for node in ("node01", "node02")
            ]
            return sum((yield WaitAll([t.done for t in threads])))

        assert moved == run_gen(twin.kernel, reference())
        assert universe.kernel.now == twin.kernel.now
        for node in ("node01", "node02"):
            assert local_files(universe, node) == local_files(twin, node)
        tracer = universe.kernel.tracer
        assert tracer.counters["filem.sessions"] == 2
        [span] = [s for s in tracer.spans if s.name == "filem.broadcast"]
        assert span.attrs == {
            "entries": 5, "bytes": moved, "streams": 2, "sessions": 2, "files": 15,
        }
        assert len(transfers(universe)) == 5

    def test_session_cost_moves_a_single_wave_by_exactly_its_delta(self):
        """``filem_rsh_session_cost`` is charged once per stream: four
        streams in one wave end Δ later, four streams one at a time
        4 × Δ later."""
        entries = [(f"node0{i}", f"/g/rank{i}", f"/restart/rank{i}") for i in range(4)]
        delta = 0.125  # a power of two, so the float sums stay comparable

        def end(session: float, limit: int) -> float:
            universe = seeded(
                entries, trace=False,
                params={
                    "filem_rsh_session_cost": repr(session),
                    "filem_rsh_max_concurrent": str(limit),
                },
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
        for name in ("image.pkl", "chunks.json", MARKER):
            fs.poke(f"/ckpt/r1/{name}", b"x" * 100)
        hnp = universe.hnp
        start = universe.kernel.now
        run_gen(
            universe.kernel,
            hnp.filem.gather(hnp, [("node01", "/ckpt/r1", "/snapshots/g/rank1")]),
        )
        assert universe.kernel.tracer.counters["filem.sessions"] == 3
        assert universe.kernel.now - start > 3 * SESSION_S


class TestChainRestart:
    def test_sixteen_ranks_three_links_open_eight_sessions(self):
        """full + delta + delta of 16 ranks on 8 nodes: 48 trees move
        through 8 sessions (192 sessions when each file paid one)."""
        universe = make_universe(
            8, params={"filem": "rsh", "snapc_full_interval_every": "3"}
        )
        args = {"loops": 60, "compute_s": 0.01, "state_bytes": 32 << 10}
        job = ompi_run(universe, "churn", 16, args=args, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False, terminate=last)
            for at, last in ((0.1, False), (0.25, False), (0.4, True))
        ]
        universe.run_job_to_completion(job)
        assert job.state is JobState.HALTED
        reference = checkpoint_ref(handles[-1])
        baseline = ompi_run(make_universe(8), "churn", 16, args=args).results

        tracer = universe.kernel.tracer
        tracer.enable()
        restarted = ompi_restart(universe, reference)
        assert restarted.results == baseline
        assert tracer.counters["filem.sessions"] == 8
        spans = transfers(universe)
        assert len(spans) == 48 and {s.attrs["op"] for s in spans} == {"broadcast"}
        [whole] = [s for s in tracer.spans if s.name == "filem.broadcast"]
        assert whole.attrs["entries"] == 48
        assert whole.attrs["streams"] == whole.attrs["sessions"] == 8
        # every rank's chain landed oldest link first
        for rank, node in restarted.placements.items():
            fs = universe.cluster.node(node).local_fs
            landed = [
                fs.stat(f"/restart/job{restarted.jobid}/rank{rank}/part{k}/{MARKER}").mtime
                for k in range(3)
            ]
            assert landed == sorted(landed) and len(set(landed)) == 3


class TestConcurrency:
    @pytest.mark.parametrize("limit, peak", [(1, 1), (2, 2), (8, 4)])
    def test_max_concurrent_bounds_node_streams(self, limit, peak):
        """Two trees on each of four nodes: the knob bounds how many
        *nodes* stream at once, never how many trees."""
        entries = [
            (f"node0{i}", f"/g/i{link}/rank{i}", f"/restart/i{link}/rank{i}")
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
    def test_trees_of_one_stream_are_written_in_entry_order(self):
        """Entry order is chain order (oldest link first) and survives
        both the grouping and uneven tree sizes."""
        entries = [
            ("node01", "/g/i1/rank0", "/restart/i1/rank0"),
            ("node02", "/g/i1/rank1", "/restart/i1/rank1"),
            ("node01", "/g/i3/rank0", "/restart/i3/rank0"),
            ("node01", "/g/i2/rank0", "/restart/i2/rank0"),
        ]
        universe = seeded(entries, sizes={"/g/i1/rank0": 900_000})
        broadcast(universe, entries)
        fs = universe.cluster.node("node01").local_fs
        landed = sorted(
            (fs.stat(f"{dst}/{MARKER}").mtime, dst)
            for node, _src, dst in entries
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

    def _second_tree_window(self, node: str) -> tuple[float, float]:
        probe = seeded(FIVE_TREES)
        broadcast(probe, FIVE_TREES)
        second = transfers(probe, node)[1]
        return second.t0, second.t1

    def test_node_crash_mid_stream_keeps_earlier_trees_whole(self):
        """node01 dies while its second tree is on the wire: the first
        tree is complete (marker and all), the second has no marker, the
        third never started — and the broadcast fails."""
        t0, t1 = self._second_tree_window("node01")
        universe = seeded(FIVE_TREES)
        universe.cluster.failures.crash_node_at((t0 + t1) / 2, "node01")
        with pytest.raises(VFSError, match="node01"):
            broadcast(universe, FIVE_TREES)
        landed = local_files(universe, "node01")
        assert {
            f"/restart/i1/rank0/{name}"
            for name in ("image.pkl", "chunks.json", MARKER)
        } <= landed
        assert f"/restart/i2/rank0/{MARKER}" not in landed
        assert not any(path.startswith("/restart/i3/") for path in landed)
        assert universe.kernel.tracer.counters["filem.sessions"] == 2

    def test_partition_between_two_trees_fails_the_second(self):
        """The link probe runs around every tree, not only when the
        session opens: a partition that starts after the first tree
        landed raises from the second."""
        t0, _t1 = self._second_tree_window("node01")
        universe = seeded(FIVE_TREES)
        failures = universe.cluster.failures
        # t0 is where tree 1 ended; the probe before tree 2's marker
        # write is the first to see a partition opened just after it
        universe.kernel.call_at(
            t0 + 1e-9, lambda: failures.partition_node_now("node01", 10.0)
        )
        with pytest.raises(NetworkError, match="node01"):
            broadcast(universe, FIVE_TREES)
        fs = universe.cluster.node("node01").local_fs
        assert fs.exists(f"/restart/i1/rank0/{MARKER}")
        assert not fs.exists(f"/restart/i2/rank0/{MARKER}")
        assert not fs.exists("/restart/i3/rank0")

    def test_partitioned_node_is_refused_when_its_session_opens(self):
        universe = seeded(FIVE_TREES)
        universe.cluster.failures.partition_node_now("node01", 10.0)
        with pytest.raises(NetworkError, match="node01"):
            broadcast(universe, FIVE_TREES)
        assert local_files(universe, "node01") == set()

    def test_restart_whose_node_dies_mid_preload_marks_the_job_failed(self):
        """The error surface ``FullSNAPC.global_restart`` had: the
        half-built job is FAILED and the tool gets the reason."""

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
