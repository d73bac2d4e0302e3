"""Same-seed determinism regression for the kernel and everything above it.

Runs an E9-style fault-injection campaign (periodic checkpoints,
autorecovery, MTBF-driven node crashes) twice from identical seeds and
asserts the two runs are indistinguishable: identical kernel event
sequences, identical final clocks, identical campaign reports.
"""

from __future__ import annotations

import json

from repro.simenv import CampaignSpec, FaultSpec, run_campaign
from repro.snapshot import CODEC
from repro.tools.api import ompi_restart, ompi_run
from repro.util.errors import ReproError
from tests.conftest import make_universe
from tests.test_failover import settle_lineage

CHURN = {"loops": 150, "compute_s": 0.01, "state_bytes": 1 << 20}
N_NODES = 6
NP = 4


def _campaign_run() -> tuple[list, float, dict]:
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "snapc_full_checkpoint_every": "0.15",
        },
    )
    kernel = universe.kernel
    events: list = []
    kernel.trace = lambda t, name, ev: events.append((round(t, 12), name, ev))
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    spec = CampaignSpec(mtbf_s=0.3, max_failures=1, start_at=0.3)
    report = run_campaign(universe, job, spec)
    return events, kernel.now, report.to_dict()


def test_same_seed_campaign_runs_identically():
    events_a, clock_a, report_a = _campaign_run()
    events_b, clock_b, report_b = _campaign_run()

    assert report_a["completed"], report_a
    assert report_a["restarts"] >= 1
    # the campaign exercised real work: thousands of kernel events
    assert len(events_a) > 100

    assert clock_a == clock_b
    assert events_a == events_b
    assert report_a == report_b


def _mixed_fault_run() -> tuple[list, float, dict]:
    """An adaptive-cadence run under the full fault vocabulary — every
    new RNG consumer (weighted fault draw, partition victim choice,
    persistent campaign stream) is in the replayed path."""
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "snapc_full_checkpoint_every": "0.15",
            "snapc_sched_adaptive": "1",
        },
    )
    kernel = universe.kernel
    events: list = []
    kernel.trace = lambda t, name, ev: events.append((round(t, 12), name, ev))
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    spec = CampaignSpec(
        mtbf_s=0.25,
        max_failures=3,
        start_at=0.3,
        faults=(
            FaultSpec("node_crash", weight=2.0),
            FaultSpec("stable_write_fail", duration_s=0.1),
            FaultSpec("stable_slow", duration_s=0.15, factor=6.0),
            FaultSpec("net_partition", duration_s=0.1),
            FaultSpec("meta_corrupt"),
        ),
    )
    report = run_campaign(universe, job, spec)
    return events, kernel.now, report.to_dict()


def test_same_seed_mixed_fault_campaign_runs_identically():
    """Persistent RNG streams stay deterministic: the stream is seeded
    by (cluster seed, stream name) and advanced only by draws, so a
    same-seed replay of a hostile mixed-fault campaign is bitwise
    identical — while its inter-arrivals are NOT a fixed-period clock."""
    events_a, clock_a, report_a = _mixed_fault_run()
    events_b, clock_b, report_b = _mixed_fault_run()

    assert report_a["completed"], report_a
    assert len(report_a["failures"]) == 3
    fire_times = [f["at"] for f in report_a["failures"]]
    deltas = [b - a for a, b in zip(fire_times, fire_times[1:])]
    assert len(set(round(d, 12) for d in deltas)) == len(deltas), deltas

    assert clock_a == clock_b
    assert events_a == events_b
    assert report_a == report_b


def _failover_campaign_run() -> tuple[list, float, dict, int]:
    """An HNP-crash campaign under the durable control plane — the
    election, store replay, and rehydration paths are all replayed."""
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "orte_hnp_failover": "1",
            "snapc_full_checkpoint_every": "0.15",
        },
    )
    kernel = universe.kernel
    events: list = []
    kernel.trace = lambda t, name, ev: events.append((round(t, 12), name, ev))
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    spec = CampaignSpec(
        mtbf_s=0.3,
        max_failures=1,
        start_at=0.3,
        faults=(FaultSpec("hnp_crash"),),
    )
    report = run_campaign(universe, job, spec)
    return events, kernel.now, report.to_dict(), universe.failovers


def test_same_seed_failover_campaign_runs_identically():
    """HNP failover is deterministic end to end: same seed, same crash
    instant, same election winner, same rehydration — two runs are
    bitwise identical down to the kernel event sequence."""
    events_a, clock_a, report_a, failovers_a = _failover_campaign_run()
    events_b, clock_b, report_b, failovers_b = _failover_campaign_run()

    assert report_a["completed"], report_a
    assert failovers_a == 1
    assert len(events_a) > 100

    assert clock_a == clock_b
    assert events_a == events_b
    assert report_a == report_b
    assert failovers_a == failovers_b


def test_fleet_parallel_run_is_byte_identical_to_serial():
    """Sharding a fleet grid across worker processes must not change a
    single simulation outcome: per-cell seeds are a pure function of
    the fleet seed and grid coordinates, and cells share nothing, so
    the per-cell campaign reports of an N-worker run serialize to the
    exact same JSON as a serial run of the same spec."""
    import json

    from repro.fleet import FleetRunner
    from repro.fleet.presets import demo_fleet

    spec = demo_fleet()
    quiet = lambda line: None  # noqa: E731
    serial = FleetRunner(spec, progress=quiet).run(workers=1)
    parallel = FleetRunner(spec, progress=quiet).run(workers=2)

    assert [c.key for c in serial.cells] == [c.key for c in parallel.cells]
    blob_serial = json.dumps(serial.reports_by_key(), sort_keys=True)
    blob_parallel = json.dumps(parallel.reports_by_key(), sort_keys=True)
    assert blob_serial == blob_parallel
    assert (
        serial.kernel_stats()["events"] == parallel.kernel_stats()["events"]
    )


# ---------------------------------------------------------------------------
# Storage-seam referee: values pinned at the commit before tree and CAS
# staging moved behind ``StagingBackend`` (parent 8906a1e).  A change to
# any of them means a yield moved, not that the pin is stale.
# ---------------------------------------------------------------------------


def _seam_fingerprint(universe) -> dict:
    stats = universe.kernel.stats
    stager = universe.hnp.snapc.stager(universe.hnp)
    return {
        "now": universe.kernel.now,
        "events": stats.events,
        "threads_spawned": stats.threads_spawned,
        "waits_any": stats.waits_any,
        "waits_all": stats.waits_all,
        "records": [
            (r.jobid, r.interval, r.kind, r.state, r.bytes_moved, r.committed_at)
            for jobid in sorted(universe.jobs)
            for r in stager.job_records(jobid)
        ],
    }


def _tree_seam_run() -> dict:
    """Tree staging with delta chains: ``max_chain=2`` compacts every
    second delta on stable storage, a node crash fails the interval
    mid-gather, and recovery restarts through a full + delta chain."""
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "snapc_full_checkpoint_every": "0.15",
            "snapc_full_interval_every": "3",
            "snapc_full_max_chain": "2",
        },
    )
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    universe.cluster.failures.crash_node_at(0.6, "node03")
    assert settle_lineage(universe, job).state.value == "finished"
    (episode,) = universe.hnp.errmgr.recovery_log
    assert episode.snapshot.endswith("_1.2")  # a delta: chain restart
    return _seam_fingerprint(universe)


def _cas_seam_run(whole_node: bool) -> dict:
    """CAS staging across an HNP failover landing mid-stage, then an
    explicit restart.  Killing only mpirun leaves every source node up,
    so the in-flight interval is restaged from rebuilt manifests; the
    ``hnp_crash`` fault takes rank 0's node too, so the rebuild fails,
    the interval is failed durably and recovery restarts from CAS."""
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "orte_hnp_failover": "1",
            "snapc_full_checkpoint_every": "0.15",
            "snapc_full_cas": "1",
            "filem": "rsh",
            # deltas too, so compaction by reference is on the path
            "snapc_full_interval_every": "3",
            "snapc_full_max_chain": "2",
        },
    )
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    if whole_node:
        crash = lambda: universe.cluster.failures.crash_hnp_node_now(universe)  # noqa: E731
    else:
        crash = lambda: universe.hnp.proc.kill(ReproError("mpirun killed"))  # noqa: E731
    universe.kernel.call_at(0.4, crash)
    final = settle_lineage(universe, job)
    assert final.state.value == "finished" and universe.failovers == 1
    restarted = ompi_restart(universe, final.snapshots[-1])
    assert restarted.results == final.results
    return _seam_fingerprint(universe)


SEAM_PINS = {
    # Re-pinned when a CAS restart started reading each distinct chunk
    # once and a recovery started handing its walk-back's verdict to
    # ``global_restart`` (each value from two identical runs).  Every
    # record of job 1 is as before: the write side is untouched.
    #
    # "tree": a recovery no longer reads the picked interval's global
    # metadata a second time, so job 2's seven ``committed_at`` each fall
    # by one stable read (2.107 ms); ``now`` 2.2942 -> 2.2921, ``events``
    # 2870 -> 2869.
    #
    # Re-pinned when ``coord`` started filing bookmarks from an RML
    # handler and waking its coordinating thread once per attempt, not
    # once per peer bookmark: every simulated value as before, ``events``
    # 2869 -> 2789.
    #
    # Re-pinned when the chunk digests left the local ``metadata.json``
    # (each value from two identical runs).  Every rank's metadata is
    # ~1.1-1.2 kB smaller, so each interval moves 4,538-4,744 B less and
    # job 1's commits are ~25 us earlier; job 2's recovery lands two files a
    # rank, not three, through the one rebuild path: it is 15.10 ms
    # shorter, so job 2's seven ``committed_at`` each move by that
    # (interval 1 1.0543 -> 1.0392, interval 7 2.2921 -> 2.2769);
    # ``now`` 2.2921 -> 2.2769, ``events`` 2789 -> 2781 (one landed
    # write fewer per rank).
    #
    # Re-pinned when a displaced rank started going to an up node that is
    # no rank's origin (each value from two identical runs): job 2's rank
    # 3 lands on node04, not on node00 behind rank 0 in node00's one
    # preload stream, so the recovery is 40.97 ms shorter and job 2's
    # seven ``committed_at`` each move by that (interval 1 1.0392 ->
    # 0.9982, interval 7 2.2769 -> 2.2359); its metadata names the other
    # node and instants, so its intervals move -3 to +2 B.  Job 2 spans
    # five nodes, not four: one more preload stream, launch contact and
    # preload cleanup, and one more contact and orted worker (and
    # ``WaitAll``) for each of its seven checkpoints.  ``events`` 2781 ->
    # 2854, ``threads_spawned`` 307 -> 324, ``waits_all`` 57 -> 64.
    "tree": {
        "now": 2.2359061734999983,
        "events": 2854,
        "threads_spawned": 324,
        "waits_any": 63,
        "waits_all": 64,
        "records": [
            (1, 1, "full", "committed", 4202902, 0.31863337608333325),
            (1, 2, "delta", "committed", 271618, 0.4847678778333332),
            (1, 3, "delta", "failed", 0, None),
            (2, 1, "full", "committed", 4204472, 0.9981924134999995),
            (2, 2, "delta", "committed", 273188, 1.1643269002500003),
            (2, 3, "full", "committed", 273967, 1.443091859000001),
            (2, 4, "delta", "committed", 274745, 1.5768853058333343),
            (2, 5, "full", "committed", 275525, 1.8394740951666677),
            (2, 6, "delta", "committed", 276307, 1.9732742870000013),
            (2, 7, "full", "committed", 277452, 2.2359061734999983),
        ],
    },
    # "cas_restage": all seven records as before (no restart precedes
    # them); the explicit restart at the end is 2.41 ms shorter (the four
    # ranks' chunks read once each, in stripes): ``now`` 1.8580 ->
    # 1.8556, ``events`` 2543 -> 2553, ``threads_spawned`` 282 -> 290 and
    # ``waits_all`` 45 -> 47 (a fetch runs three bounded phases — reads,
    # stripes, landings — where it ran one).
    #
    # Re-pinned again when the fetch started landing the manifests the
    # restart's own check read (``RestartPlan``) instead of reading every
    # rank's ``chunks.json`` a second time: the four ranks' metadata
    # reads are one wave, which loses one stable read (2.106 ms) and
    # four kernel events; ``now`` 1.8556 -> 1.8535, ``events`` 2553 -> 2549.
    #
    # Re-pinned twice more (each value from two identical runs).  Bookmark
    # filing (one wake per coordination) changed only ``events``, 2549 ->
    # 2493.  Then a CAS interval stopped waiting for the removal of its
    # node-local sources before it commits, and the restart's check
    # started reading the ranks' manifests concurrently: every
    # ``committed_at`` is earlier (interval 1 0.3329 -> 0.2729, interval
    # 7 1.6257 -> 1.5432), ``now`` 1.8535 -> 1.7805, ``events`` 2493 ->
    # 2531, ``threads_spawned`` 290 -> 322 (a cleanup thread per rank
    # tree, a reader per rank), ``waits_all`` 47 -> 48 (the check's wave).
    #
    # Re-pinned when every control-plane change started journalling its
    # own record through one funnel (each value from two identical runs).
    # The WAL the successor replays at 0.65 holds 16 records, not 14 (the
    # job row is journalled at each checkpoint's start and commit; no
    # unchanged rewrites; no ``universe`` row), so the replay takes two
    # stable reads longer (29.42 -> 33.63 ms) and every later instant
    # moves by 4.21 ms: interval 2 commits at 0.7350 -> 0.7392, interval
    # 7 at 1.5432 -> 1.5475.  ``now`` is the journal writer's last
    # append, and the restarted job's rank exits no longer append a job
    # and a ready row each: 1.7805 -> 1.7642.  ``events`` 2531 -> 2532
    # (fewer appends, and four events for the two compactions, which now
    # journal the interval's new kind).  Captured at those later
    # instants, intervals 3-7 each ship 65,510 B less (one chunk more is
    # already in the store).
    #
    # Re-pinned when the chunk digests left the local ``metadata.json``
    # (each value from two identical runs): every capture-side and
    # stable metadata write is smaller, so each ``committed_at`` is
    # 28-32 us earlier; the explicit restart lands two files a rank,
    # not three: ``now`` 1.7642 -> 1.7541, ``events`` 2532 -> 2524.
    #
    # Re-pinned when a lineage started keeping its newest committed
    # interval's node-local trees: each interval's trees go when the next
    # one commits, the last one's when job 1 finishes, so the drain before
    # the explicit restart ends 2.107 ms later and ``now`` moves by that,
    # 1.7541 -> 1.7562.  The restart itself (job 1 finished, nothing kept)
    # fetches all four ranks as before; every other value is unchanged.
    #
    # Re-pinned when the interval's global metadata became its one durable
    # record (each value from two identical runs).  The WAL the successor
    # replays at 0.65 holds 12 records, not 16 (no ``staging`` rows, and a
    # commit no longer rewrites the job row): 33.63 -> 25.21 ms.  It lists
    # ``/snapshots`` (2.0 ms) and reads intervals 1 and 2's metadata instead
    # of interval 2's alone, so the failover is 55.76 -> 51.45 ms and every
    # later instant moves by -4.31 ms: interval 2 commits at 0.7392 ->
    # 0.7349, interval 7 at 1.5474 -> 1.5431.  Captured that much earlier,
    # intervals 3-7 each ship 65,510 B more (one chunk fewer is already in
    # the store).  Interval 1, adopted, takes ``committed_at`` from its
    # metadata's ``committed_sim_time``, stamped when the commit write
    # starts: 0.27292 -> 0.27081 (one metadata write, 2.107 ms).  ``now``
    # 1.7562 -> 1.7577, ``events`` 2524 -> 2498 (fewer appends).
    "cas_restage": {
        "now": 1.7577250324166678,
        "events": 2498,
        "threads_spawned": 322,
        "waits_any": 45,
        "waits_all": 48,
        "records": [
            (1, 1, "full", "committed", 0, 0.27080824425),
            (1, 2, "delta", "committed", 0, 0.7348998583333335),
            (1, 3, "full", "committed", 136970, 0.94129062925),
            (1, 4, "delta", "committed", 137750, 1.0931038140000007),
            (1, 5, "full", "committed", 138530, 1.2431079985833342),
            (1, 6, "delta", "committed", 139310, 1.3931122223333339),
            (1, 7, "full", "committed", 140090, 1.5431164502500005),
        ],
    },
    # "cas_lost": job 1 as before; the recovery is 12.94 ms shorter (one
    # presence check and one global-metadata read fewer, the chunks read
    # once), so job 2's eight ``committed_at`` each fall by that; ``now``
    # 2.5087 -> 2.4933 (two restarts), ``events`` 3669 -> 3684,
    # ``threads_spawned`` 403 -> 419, ``waits_all`` 67 -> 71.
    #
    # Re-pinned again with "cas_restage": each of the two restarts loses
    # the fetch's manifest read (one wave, 2.106 ms, four events), so job
    # 2's eight ``committed_at`` each fall by 2.106 ms; ``now`` 2.4933 ->
    # 2.4891, ``events`` 3684 -> 3676.
    #
    # Re-pinned with "cas_restage" twice more.  Bookmark filing changed
    # only ``events``, 3676 -> 3580.  Cleanup off the commit path and the
    # concurrent check made every ``committed_at`` earlier (job 1
    # interval 1 0.3329 -> 0.2729, job 2 interval 1 1.0950 -> 1.0287,
    # interval 8 2.1748 -> 2.0835), ``now`` 2.4891 -> 2.4744, ``events``
    # 3580 -> 3638, ``threads_spawned`` 419 -> 463, ``waits_all`` 71 -> 73.
    #
    # Re-pinned with "cas_restage" for the one journal funnel: the same
    # replay is two WAL records (4.21 ms) longer, so job 2's eight
    # ``committed_at`` each move by 4.21 ms (interval 1 1.0287 -> 1.0329,
    # interval 8 2.0835 -> 2.0877); ``now`` (the last append, as there)
    # 2.4744 -> 2.4492, ``events`` 3638 -> 3653 (six of them for the
    # three compactions' appends); bytes, threads and waits as before.
    #
    # Re-pinned with "cas_restage" when the digests left the local
    # metadata: job 1's interval 1 commits 28 us earlier; the recovery
    # lands two files a rank and smaller metadata, 10.07 ms shorter, so
    # job 2's eight ``committed_at`` each move by that (interval 1
    # 1.0329 -> 1.0229, interval 8 2.0877 -> 2.0776); ``now`` 2.4492 ->
    # 2.4291, ``events`` 3653 -> 3637 (two restarts, one landed write
    # fewer per rank each).
    #
    # Re-pinned when a recovered rank started reusing the CAS snapshot its
    # own node kept, and a displaced rank going to a node that is no
    # rank's origin (each value from two identical runs).  The recovery
    # fetches rank 0 alone (ranks 1-3 read the interval-1 trees their
    # nodes kept) and lands it on node04, not node01: 1.85 ms shorter, so
    # job 2's eight ``committed_at`` each move by that (interval 1 1.0229
    # -> 1.0210, interval 8 2.0776 -> 2.0758).  Job 2's last interval is
    # dropped when it finishes, so the explicit restart starts 16.1 ms
    # later, and ``now`` 2.4291 -> 2.4451.  The recovery's fetch runs 17
    # threads, not 24, and job 2 spans four nodes, not three: one more
    # launch contact per restart, and one more contact, orted worker and
    # ``WaitAll`` for each of its ten checkpoint requests.  ``events``
    # 3637 -> 3726, ``threads_spawned`` 463 -> 477, ``waits_all`` 73 -> 83.
    #
    # Re-pinned with "cas_restage" when the interval's global metadata
    # became its one durable record: the same 12-record replay, the listing
    # and two metadata reads make the failover 37.84 -> 33.54 ms, so job
    # 2's eight ``committed_at`` each move by -4.31 ms (interval 1 1.0210
    # -> 1.0167, interval 8 2.0758 -> 2.0715); job 1's interval 1 is
    # adopted at its ``committed_sim_time``, 0.27292 -> 0.27081.  The
    # successor sweeps the lost interval 2's trees on the three surviving
    # nodes (``threads_spawned`` 477 -> 480).  ``now`` 2.4451 -> 2.4408,
    # ``events`` 3726 -> 3685.
    "cas_lost": {
        "now": 2.4408172871666634,
        "events": 3685,
        "threads_spawned": 480,
        "waits_any": 73,
        "waits_all": 83,
        "records": [
            (1, 1, "full", "committed", 0, 0.27080824425),
            (1, 2, "delta", "failed", 0, None),
            (2, 1, "full", "committed", 3180, 1.0166959379999996),
            (2, 2, "delta", "committed", 69496, 1.1714610907500003),
            (2, 3, "full", "committed", 70276, 1.321465245333334),
            (2, 4, "delta", "committed", 71056, 1.4714695082500004),
            (2, 5, "full", "committed", 71836, 1.6214737270000001),
            (2, 6, "delta", "committed", 72616, 1.77147792575),
            (2, 7, "full", "committed", 73396, 1.9214821145),
            (2, 8, "delta", "committed", 74176, 2.0714863382499993),
        ],
    },
}


def test_storage_seam_referee_tree():
    assert _tree_seam_run() == SEAM_PINS["tree"]


def test_storage_seam_referee_cas_restage():
    assert _cas_seam_run(whole_node=False) == SEAM_PINS["cas_restage"]


def test_storage_seam_referee_cas_lost():
    assert _cas_seam_run(whole_node=True) == SEAM_PINS["cas_lost"]


# ---------------------------------------------------------------------------
# Codec referee: a warm document codec is host-only
# ---------------------------------------------------------------------------


def _cas_restart_run() -> tuple[dict, list, bytes]:
    """Finely chunked CAS staging, a node crash recovered from the
    store, then an explicit restart of the final snapshot — every reader
    of ``chunks.json`` is on the path."""
    universe = make_universe(
        N_NODES,
        {
            "orte_errmgr_autorecover": "1",
            "snapc_full_checkpoint_every": "0.15",
            "snapc_full_cas": "1",
            "filem": "rsh",
            "crs_base_chunk_bytes": "64",
            "snapc_full_interval_every": "3",
        },
    )
    kernel = universe.kernel
    kernel.tracer.enable()
    events: list = []
    kernel.trace = lambda t, name, ev: events.append((t, name, ev))
    args = {"loops": 80, "compute_s": 0.01, "state_bytes": 32 << 10}
    job = ompi_run(universe, "churn", NP, args=args, wait=False)
    universe.cluster.failures.crash_node_at(0.5, "node03")
    final = settle_lineage(universe, job)
    assert final.state.value == "finished" and final.jobid == 2
    restarted = ompi_restart(universe, final.snapshots[-1])
    assert restarted.results == final.results
    spans = [
        (span.name, span.cat, span.t0, span.t1, sorted(span.attrs.items()))
        for span in kernel.tracer.spans
    ]
    return _seam_fingerprint(universe), events, json.dumps(spans).encode()


def test_warm_codec_changes_nothing_simulated():
    """The same seeded scenario twice in one process: the first run
    starts with an empty document codec, the second finds every
    document of the first already decoded.  Clock, kernel counts,
    staging records, the kernel's event sequence and the span trace are
    equal — the memo saves host parses, never a simulated read."""
    CODEC.clear()
    cold = _cas_restart_run()
    after_cold = CODEC.stats()
    warm = _cas_restart_run()
    after_warm = CODEC.stats()
    assert after_cold["decode_misses"] + after_cold["encode_misses"] > 0
    # two restarts of four ranks, one hit per rank each: the check's read
    # of its stable manifest.  8 observed once a rank landed no manifest
    # and its metadata left the codec (20 while the fetch landed a full
    # manifest the rank read back, 28 when the fetch read the manifests
    # again, 32 when ``unusable`` ran twice per recovery, 40 when
    # ``reconstruct_chain`` also read every manifest twice)
    assert after_cold["hits"] >= 8
    # the warm run met nothing new, and looked up exactly as often
    assert after_warm["decode_misses"] == after_cold["decode_misses"]
    assert after_warm["encode_misses"] == after_cold["encode_misses"]
    lookups = sum(after_cold[k] for k in ("hits", "decode_misses", "encode_misses"))
    assert after_warm["hits"] - after_cold["hits"] == lookups

    assert cold[0] == warm[0]
    assert len(cold[1]) > 100 and cold[1] == warm[1]
    assert cold[2] == warm[2]
