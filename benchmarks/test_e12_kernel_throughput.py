"""E12 — kernel hot-path throughput on a 1000-node multi-job campaign.

The fleet-scale experiment behind the scheduler: a 1000-node cluster
runs four concurrent checkpointing jobs (periodic scheduler, CAS
staging, finely chunked images, autorecovery) through twenty
deterministic crash/recover waves.

Crashes are *state-triggered* rather than scheduled at absolute sim
times: a driver thread waits until every job lineage is a freshly
recovered incarnation with a committed snapshot, then kills one of its
compute nodes (never the HNP's).

The sweep is fully deterministic, so its kernel counters are pinned
below as constants: a changed count is either a bug or an intended
change that updates the constant in the same PR.  The one host-time
gate is throughput in events per CPU-second — the simulator is one
CPU-bound thread, so process time is the work done and is immune to
co-tenant scheduling noise that makes wall-clock flaky on shared
runners (wall is still reported).  It must stay above
``REGRESSION_FLOOR`` of the committed ``BASELINE_EVENTS_PER_SEC`` (set
conservatively below developer-laptop numbers to absorb runner-class
variance); commit-to-commit regressions are caught by the
``scale_1000`` workload of ``bench/run.py`` + ``bench/compare.py``.
"""

from benchmarks.conftest import kernel_event_throughput
from repro.bench.harness import Row, format_table, fresh_universe, write_bench_json
from repro.simenv.campaign import follow_lineage
from repro.simenv.kernel import DeadlockError, Delay, KernelStats
from repro.tools.api import ompi_run

N_NODES = 1000
N_JOBS = 4
NP = 8
#: crash/recover waves the fault driver puts every job through
WAVES = 20
CHURN = {"loops": 100, "compute_s": 0.01, "state_bytes": 64 * 1024}
PARAMS = {
    "orte_errmgr_autorecover": "1",
    "snapc_full_checkpoint_every": "0.3",
    "snapc_full_cas": "1",
    # finely chunked images stress the batched per-chunk paths
    # (2048 chunks per 64 KiB rank image)
    "crs_base_chunk_bytes": "32",
    "orte_errmgr_max_recoveries": str(WAVES + 2),
}

#: committed sweep throughput baseline (events per CPU-second);
#: deliberately below typical developer-machine numbers (~15k/s) so
#: slower CI runner classes pass, while a >30% regression of the kernel
#: itself still trips the gate
BASELINE_EVENTS_PER_SEC = 8_000.0
REGRESSION_FLOOR = 0.7
#: the sweep's deterministic kernel counters (``KernelStats`` fields),
#: also asserted by ``tests/test_bench_pins.py``.  Re-pinned once for
#: three changes, each delta taken from per-thread step counts of the
#: sweep before and after it (80 restarts of 8 ranks, 9,597 timer and
#: dead-thread events throughout):
#:
#: * One landed image per rank (``7ac6d17``), 49,487 -> 49,664 events and
#:   6,529 -> 6,937 threads: the preload is removed after the restart by
#:   one daemon thread per destination node (``drop_preload``; 408 over
#:   the 80 restarts, two events each: +816), and a restarted rank reads
#:   its landed ``chunks.json`` once instead of twice
#:   (``reconstruct_chain``; rank steps -639).
#: * Each distinct chunk read once (``0303345``), 49,664 -> 49,583
#:   events, threads +960, ``waits_all`` 304 -> 464: a fetch runs three
#:   bounded phases where it ran one (20 threads and 3 ``WaitAll`` per fetch, was 8 and 1;
#:   fetch steps +1,080); a recovery checks its snapshot once (errmgr
#:   steps -560); recoveries 110 ms shorter move the crash instants (the
#:   driver's polls -114, rank steps -607, other +120).
#: * Handing the check's manifests to the fetch (``RestartPlan``),
#:   49,583 -> 49,551 events: the fetch no longer reads a manifest per
#:   rank (fetch steps -640); the crash instants stay, so each restarted
#:   rank runs 5.5 ms longer before the next crash (rank steps +608).
#:
#: Re-pinned again for two changes, each measured on its own:
#:
#: * ``coord`` files bookmarks from an RML handler and wakes its
#:   coordinating thread once per attempt, not once per peer bookmark:
#:   49,551 -> 48,785 events, nothing else moves.
#: * A CAS interval commits without waiting for the removal of its local
#:   sources (a daemon thread per rank tree: 96 over 12 intervals of 8
#:   ranks), and a recovery's check reads its 8 manifests concurrently
#:   (640 reader threads and 80 ``WaitAll`` over 80 recoveries): the sweep
#:   ends at 5.93 sim-s instead of 6.56, so it takes 12 checkpoints where
#:   it took 16 (ticks, fan-outs and ships fewer).  48,785 -> 47,828
#:   events, 7,897 -> 8,453 threads, ``waits_any`` 244 -> 204,
#:   ``waits_all`` 464 -> 500.
#: * The chunk digests left the local ``metadata.json`` (they stay in
#:   ``chunks.json``) and every restart lands two files per rank, not
#:   three: each of the 80 recoveries' fetch is shorter, so the sweep ends
#:   at 5.52 sim-s instead of 5.93 and runs fewer ticks.  47,828 -> 46,713
#:   events; threads and waits as before.
#:
#: Re-pinned when a recovered rank started reusing the CAS snapshot its
#: own node kept, and a displaced rank started going to a node that is
#: no rank's origin (thread counts by name, before and after): 560 of
#: the 640 recovered ranks reuse, so each of the 80 fetches lands one
#: rank, 6 threads where it ran 20 (-1,120), and its preload cleanup
#: touches one node (-328); every launch contacts 8 nodes, not ~5.5
#: (+232); the final incarnations' 12 checkpoints fan out to 8 nodes, not
#: 6 (+24 contacts, +24 orted workers, +24 ``WaitAll``); and 12 fewer ranks
#: die with a crashed node, so 12 more exits are handled (+12).  The
#: sweep ends at 4.33 sim-s instead of 5.52 (fewer driver polls).
#: 46,713 -> 43,300 events, 8,453 -> 7,297 threads, ``waits_all`` 500 ->
#: 524.
PINNED_COUNTS = {
    "events": 43300,
    "threads_spawned": 7297,
    "waits_any": 204,
    "waits_all": 524,
}


def fault_driver(universe, lineages):
    """Crash one compute node per wave, each time every lineage has
    settled into a *new* incarnation holding a committed snapshot.

    Polling sim state on a fixed 0.02s tick keeps the injection fully
    deterministic while adapting to the sim-time trajectory.  The HNP's
    node is never a victim — that
    would kill recovery itself.  Returns ``[(sim_time, node), ...]``.
    """
    kernel = universe.kernel
    head = universe.hnp.proc.node.name
    crashed = []
    last_max_jobid = 0
    for _wave in range(WAVES):
        while True:
            if not any(t.alive for t in lineages):
                return crashed  # campaign over (or recovery exhausted)
            live = [
                j
                for j in universe.jobs.values()
                if j.state.value in ("running", "checkpointing")
            ]
            if (
                len(live) == N_JOBS
                and all(j.snapshots for j in live)
                and min(j.jobid for j in live) > last_max_jobid
            ):
                break
            yield Delay(0.02)
        yield Delay(0.05)
        live = [
            j
            for j in universe.jobs.values()
            if j.state.value in ("running", "checkpointing")
        ]
        if not live:
            continue
        last_max_jobid = max(j.jobid for j in universe.jobs.values())
        victim = next(
            node
            for rank in range(NP - 1, -1, -1)
            for node in [live[0].placements[rank]]
            if node != head
        )
        universe.cluster.failures.crash_node_now(victim)
        crashed.append((round(kernel.now, 4), victim))
    return crashed


def fleet_sweep() -> dict:
    """One full campaign; returns kernel stats + outcome summary."""
    universe = fresh_universe(N_NODES, PARAMS)
    kernel = universe.kernel
    # Measure the campaign, not the 1000-orted boot.
    kernel.stats = KernelStats()
    jobs = [
        ompi_run(universe, "churn", NP, args=CHURN, wait=False)
        for _ in range(N_JOBS)
    ]
    lineages = [
        kernel.spawn(follow_lineage(universe, job), name=f"lineage-{job.jobid}")
        for job in jobs
    ]
    driver = kernel.spawn(fault_driver(universe, lineages), name="fault-driver")
    kernel.run_until_complete(lineages)
    finals = [thread.result for thread in lineages]
    try:
        kernel.run()  # drain in-flight background staging
    except DeadlockError:
        pass
    stats = kernel.stats_snapshot()
    return {
        "sim_time_s": kernel.now,
        "jobs_completed": sum(
            1 for job in finals if job.state.value == "finished"
        ),
        "jobs": N_JOBS,
        "restarts": len(universe.hnp.errmgr.recoveries),
        "crashes": [
            {"at": at, "node": node} for at, node in (driver.result or [])
        ],
        "stats": stats,
    }


def test_e12_fleet_sweep_throughput(benchmark):
    def run():
        return {
            "sweep": fleet_sweep(),
            "micro_ready": kernel_event_throughput(),
            "micro_heap": kernel_event_throughput(zero_delay=False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    sweep = results["sweep"]
    stats = sweep["stats"]
    eps = stats["events_per_cpu_sec"]

    print()
    print(
        format_table(
            f"E12: {N_NODES}-node fleet sweep ({N_JOBS} jobs x np={NP}, "
            f"{WAVES} crash waves)",
            ["events", "cpu (s)", "wall (s)", "events/s", "ready hits",
             "threads", "sim (s)", "done"],
            [
                Row(
                    "sweep",
                    {
                        "events": stats["events"],
                        "cpu (s)": stats["run_cpu_s"],
                        "wall (s)": stats["run_wall_s"],
                        "events/s": eps,
                        "ready hits": stats["ready_hits"],
                        "threads": stats["threads_spawned"],
                        "sim (s)": sweep["sim_time_s"],
                        "done": f"{sweep['jobs_completed']}/{sweep['jobs']}",
                    },
                )
            ],
        )
    )
    write_bench_json(
        "BENCH_E12.json",
        {
            "experiment": "e12_kernel_throughput",
            "n_nodes": N_NODES,
            "n_jobs": N_JOBS,
            "np": NP,
            "waves": WAVES,
            "app_args": CHURN,
            "mca_params": PARAMS,
            "sweep": sweep,
            "pinned_counts": PINNED_COUNTS,
            "micro_ready_path": results["micro_ready"],
            "micro_heap_path": results["micro_heap"],
            "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC,
            "regression_floor": REGRESSION_FLOOR,
            "regression_ok": eps >= BASELINE_EVENTS_PER_SEC * REGRESSION_FLOOR,
        },
    )

    # the campaign must run to completion through every wave
    assert sweep["jobs_completed"] == N_JOBS, sweep
    assert len(sweep["crashes"]) == WAVES, sweep["crashes"]
    assert sweep["restarts"] == WAVES * N_JOBS
    # deterministic counters: exact, or updated here in the same PR
    assert {key: stats[key] for key in PINNED_COUNTS} == PINNED_COUNTS
    # regression gate against the committed baseline (CI fails >30% drop)
    assert eps >= BASELINE_EVENTS_PER_SEC * REGRESSION_FLOOR, (
        f"events/sec regressed: {eps:,.0f} < "
        f"{REGRESSION_FLOOR:.0%} of committed baseline "
        f"{BASELINE_EVENTS_PER_SEC:,.0f}"
    )
