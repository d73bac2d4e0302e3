"""The five benchmark workloads and their correctness oracles.

Closed loop, one client, one process: the simulator is a batch program,
so "load" is scenario size.  Every size constant below is frozen; a
change to one is its own PR and re-measures the baseline.  The
workloads drive only the public surface (``repro.tools.api``,
``Universe`` / ``Cluster`` / ``ClusterSpec`` / ``MCAParams``,
``run_campaign``, ``FleetRunner``, ``read_global_meta``, ``kernel.now``,
``kernel.stats``, ``kernel.tracer``) and import nothing from
``repro.bench``, ``repro.fleet.presets`` or ``benchmarks/``, so they
cannot drift when those are retuned or deleted.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import Cluster, ClusterSpec, MCAParams
from repro.fleet import FleetRunner, FleetSpec, GridCell
from repro.orte.universe import Universe
from repro.simenv.campaign import CampaignSpec, FaultSpec, follow_lineage, run_campaign
from repro.simenv.kernel import DeadlockError, Delay, KernelStats, WaitEvent
from repro.snapshot import STAGE_COMMITTED, read_global_meta
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run

from bench.measure import Recorder

MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# Inputs generated from the seed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Machine:
    """The simulated hardware, drawn from the benchmark seed.

    The seed is the cluster's RNG seed (fault arrivals, victims) and
    also wobbles the disk bandwidths and the rsh session cost by at
    most 1 part in 10 000 — far too little to reorder events, enough
    that two seeds never describe the same machine, so simulated times
    are exact for a seed and distinct across seeds.
    """

    seed: int
    cluster: dict
    params: dict

    @classmethod
    def from_seed(cls, seed: int) -> "Machine":
        rng = random.Random(f"bench-machine:{seed}")

        def wobble(value: float) -> float:
            return value * (1.0 + rng.uniform(-1e-4, 1e-4))

        return cls(
            seed=seed,
            cluster={
                "seed": seed,
                "stable_Bps": wobble(200e6),
                "local_disk_Bps": wobble(240e6),
            },
            params={"plm_rsh_session_cost": repr(wobble(0.030))},
        )


# ---------------------------------------------------------------------------
# Operations and outcomes
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Operations attempted and failed in one repetition."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def absorb(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class Outcome:
    """What one repetition produced."""

    ops: Ops
    #: simulated-time results; exact for a seed
    sim: dict[str, float]
    #: merged ``KernelStats.to_dict()`` of the repetition's universes
    kernel: dict
    #: deterministic outputs; their hash must equal repetition 1's
    outputs: Any
    #: the universes, kept only for the traced pass (spans, adapters)
    universes: list = field(default_factory=list)
    #: workload-specific exact counts (per-layer ``kernel.events_per_msg``)
    extra: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            {"sim": self.sim, "events": self.kernel["events"], "outputs": self.outputs},
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def build(rec: Recorder, machine: Machine, n_nodes: int, params: dict) -> Universe:
    """A fresh cluster + universe on *machine*.

    The tracer is switched on with ``enable()``, never through the
    ``obs_trace_enabled`` MCA param: the param is saved into every
    global snapshot's metadata and lengthens simulated writes, so a
    traced run would no longer reproduce the untraced one.
    """
    universe = Universe(
        Cluster(ClusterSpec(n_nodes=n_nodes, **machine.cluster)),
        MCAParams({**machine.params, **params}),
    )
    if rec.trace:
        universe.kernel.tracer.enable()
    return universe


def drain(universe: Universe) -> None:
    """Let background staging settle once the jobs have."""
    try:
        universe.kernel.run()
    except DeadlockError:
        # the expected end state: killed incarnations leave threads
        # parked on events that will never fire
        pass


def staging_records(universe: Universe) -> list:
    """Every job's ``StagingRecord`` s, in (jobid, interval) order."""
    stager_fn = getattr(universe.hnp.snapc, "stager", None)
    if stager_fn is None:
        return []
    stager = stager_fn(universe.hnp)
    return [
        record
        for jobid in sorted(universe.jobs)
        for record in stager.job_records(jobid)
    ]


def staging_sim(records: list) -> dict[str, float]:
    """``sim_stable_commit_ms`` and ``staged_mib`` from staging records."""
    commits = [
        rec.committed_at - rec.enqueued_at
        for rec in records
        if rec.state == STAGE_COMMITTED and rec.committed_at is not None
    ]
    return {
        "sim_stable_commit_ms": 1e3 * statistics.fmean(commits),
        "staged_mib": sum(rec.bytes_moved for rec in records) / MIB,
    }


def app_blocked_ms(universes: list) -> float:
    """Mean ``snapc.checkpoint`` span (Figure 1 A->F); traced pass only."""
    spans = [
        span.t1 - span.t0
        for universe in universes
        for span in universe.kernel.tracer.spans
        if span.name == "snapc.checkpoint"
    ]
    return 1e3 * statistics.fmean(spans)


def churn_expected(np_ranks: int, args: dict) -> dict:
    """What an uninterrupted churn run returns, worked out from its
    arguments rather than from a second run of the program."""
    loops = args["loops"]
    if args["state_bytes"] < loops:
        raise ValueError("churn ballast slots would wrap: state_bytes < loops")
    received = loops * args.get("msgs_per_loop", 0) if np_ranks > 1 else 0
    checksum = sum(loop % 256 for loop in range(loops))
    return {
        rank: {"rank": rank, "received": received, "checksum": checksum}
        for rank in range(np_ranks)
    }


def check_intervals_readable(universe: Universe, records: list, ops: Ops) -> None:
    """Every requested interval is COMMITTED and its metadata reads back."""
    fs = universe.cluster.stable_fs

    def read_all():
        metas = []
        for record in records:
            if record.state == STAGE_COMMITTED:
                metas.append((yield from read_global_meta(fs, record.ref)))
            else:
                metas.append(None)
        return metas

    thread = universe.kernel.spawn(read_all(), name="bench-read-meta")
    metas = universe.kernel.run_until_complete(thread)
    for record, meta in zip(records, metas):
        ops.check(
            meta is not None
            and meta.interval == record.interval
            and meta.jobid == record.jobid,
            f"job {record.jobid} interval {record.interval}: {record.state}, "
            f"metadata {'unreadable' if meta is None else 'mismatch'}",
        )


# ---------------------------------------------------------------------------
# mpi_dataplane
# ---------------------------------------------------------------------------


def jacobi_reference(n_global: int, iters: int) -> float:
    """Serial 1-D Jacobi with the app's boundary values; the checksum."""
    u = np.zeros(n_global + 2, dtype=np.float64)
    u[0] = 1.0
    for _ in range(iters):
        u[1:-1] = 0.5 * (u[:-2] + u[2:])
    return float(u[1:-1].sum())


def mpi_dataplane_prepare(size: dict, machine: Machine) -> dict:
    return {"checksum": jacobi_reference(size["n_global"], size["iters"])}


def mpi_dataplane(rec: Recorder, size: dict, machine: Machine, prepared: dict) -> Outcome:
    ops = Ops()
    ft = {"crcp": "coord"}
    with rec.setup():
        pipe_universe = build(rec, machine, 2, ft)
        jacobi_universe = build(rec, machine, 4, ft)
    with rec.timed():
        pipe = ompi_run(
            pipe_universe,
            "netpipe",
            2,
            args={"sizes": [64], "reps_per_size": size["round_trips"]},
        )
        jacobi = ompi_run(
            jacobi_universe,
            "jacobi",
            4,
            args={"n_global": size["n_global"], "iters": size["iters"]},
        )
    series = pipe.results.get(0, {}).get("series", [])
    ops.check(
        pipe.state.value == "finished" and len(series) == 1 and series[0][0] == 64,
        f"netpipe {pipe.state.value}, series {series}",
    )
    ranks = [jacobi.results.get(rank, {}) for rank in range(4)]
    ops.check(
        jacobi.state.value == "finished"
        and all(r.get("iters") == size["iters"] for r in ranks)
        and all(
            abs(r["checksum"] - prepared["checksum"]) <= 1e-9 * abs(prepared["checksum"])
            for r in ranks
        ),
        f"jacobi {jacobi.state.value}, rank 0 {ranks[0]}, "
        f"reference checksum {prepared['checksum']}",
    )
    stats = KernelStats().merge(pipe_universe.kernel.stats)
    stats.merge(jacobi_universe.kernel.stats)
    return Outcome(
        ops=ops,
        sim={
            "sim_makespan_s": pipe_universe.kernel.now + jacobi_universe.kernel.now,
            "sim_half_rtt_us": 1e6 * series[0][1] if series else float("nan"),
        },
        kernel=stats.to_dict(),
        outputs={"netpipe": pipe.results, "jacobi": jacobi.results},
        universes=[pipe_universe, jacobi_universe] if rec.trace else [],
        extra={
            "events_per_msg": pipe_universe.kernel.stats.events / size["round_trips"]
        },
    )


# ---------------------------------------------------------------------------
# ckpt_write
# ---------------------------------------------------------------------------


def ckpt_write(rec: Recorder, size: dict, machine: Machine, prepared: dict) -> Outcome:
    ops = Ops()
    params = {
        "filem": "rsh",
        "snapc_full_checkpoint_every": "0.05",
        "snapc_full_interval_every": "3",
    }
    args = {
        "loops": size["loops"],
        "compute_s": size["compute_s"],
        "state_bytes": size["state_bytes"],
    }
    expected = churn_expected(size["np"], args)
    universes, records, results = [], [], []
    makespan, stats = 0.0, KernelStats()
    for _ in range(size["universes"]):
        with rec.setup():
            universe = build(rec, machine, size["nodes"], params)
        with rec.timed():
            job = ompi_run(universe, "churn", size["np"], args=args)
            drain(universe)
        makespan += universe.kernel.now
        stats.merge(universe.kernel.stats)
        results.append(job.results)
        ops.check(
            job.state.value == "finished" and job.results == expected,
            f"churn {job.state.value}, rank 0 {job.results.get(0)}",
        )
        mine = staging_records(universe)
        records.extend(mine)
        ops.check(len(mine) >= 2, f"only {len(mine)} interval(s) were requested")
        check_intervals_readable(universe, mine, ops)
        if rec.trace:
            universes.append(universe)
        # a settled universe is cyclic garbage holding every image it
        # staged: collect it before the next is built, so that peak RSS
        # is one universe's footprint
        del universe, job
        gc.collect()
    sim = {"sim_makespan_s": makespan, **staging_sim(records)}
    if rec.trace:
        sim["sim_app_blocked_ms"] = app_blocked_ms(universes)
    return Outcome(
        ops=ops,
        sim=sim,
        kernel=stats.to_dict(),
        outputs={
            "results": results,
            "intervals": [(r.jobid, r.interval, r.kind, r.state) for r in records],
        },
        universes=universes,
    )


# ---------------------------------------------------------------------------
# restart_read
# ---------------------------------------------------------------------------

RESTART_PARAMS = {"filem": "rsh", "snapc_full_interval_every": "3"}


def restart_read_args(size: dict) -> dict:
    return {
        "loops": size["loops"],
        "compute_s": 0.01,
        "state_bytes": size["state_bytes"],
        "msgs_per_loop": 2,
    }


def restart_read_prepare(size: dict, machine: Machine) -> dict:
    """The fault-free makespan the checkpoint times are a share of."""
    universe = build(Recorder(), machine, size["nodes"], RESTART_PARAMS)
    job = ompi_run(universe, "churn", size["np"], args=restart_read_args(size))
    if job.results != churn_expected(size["np"], restart_read_args(size)):
        raise RuntimeError(f"fault-free churn run returned {job.results.get(0)}")
    return {"makespan_s": universe.kernel.now}


def restart_read(rec: Recorder, size: dict, machine: Machine, prepared: dict) -> Outcome:
    ops = Ops()
    args = restart_read_args(size)
    expected = churn_expected(size["np"], args)
    fault_free_s = prepared["makespan_s"]
    universes, replies, results, kinds = [], [], [], []
    makespan, stats = 0.0, KernelStats()
    for _ in range(size["rounds"]):
        with rec.setup():
            universe = build(rec, machine, size["nodes"], RESTART_PARAMS)
            kernel = universe.kernel
            job = ompi_run(universe, "churn", size["np"], args=args, wait=False)
            handles = [
                ompi_checkpoint(
                    universe,
                    job.jobid,
                    at=share * fault_free_s,
                    wait=False,
                    terminate=last,
                )
                for share, last in ((0.45, False), (0.65, False), (0.85, True))
            ]
            universe.run_job_to_completion(job)
            drain(universe)
            reference = checkpoint_ref(handles[-1])
            taken = staging_records(universe)
        ops.check(job.state.value == "halted", f"reference job {job.state.value}")
        kinds.append([r.kind for r in taken])
        check_intervals_readable(universe, taken, ops)
        for _ in range(size["restarts"]):
            marks: list[float] = []
            with rec.timed():
                requested = kernel.now
                handle = ompi_restart(universe, reference, wait=False)

                def watch(handle=handle, marks=marks):
                    yield WaitEvent(handle.done)
                    marks.append(kernel.now)

                kernel.spawn(watch(), name="bench-reply", daemon=True)
                reply = handle.wait()
                restarted = universe.job(reply["jobid"]) if reply.get("ok") else None
                if restarted is not None:
                    universe.run_job_to_completion(restarted)
            if restarted is None:
                ops.check(False, f"restart refused: {reply.get('error')}")
            else:
                ops.check(
                    restarted.state.value == "finished" and restarted.results == expected,
                    f"restarted job {restarted.state.value}, rank 0 {restarted.results.get(0)}",
                )
                results.append(restarted.results)
            replies.append(marks[0] - requested)
        makespan += kernel.now
        stats.merge(kernel.stats)
        if rec.trace:
            universes.append(universe)
    return Outcome(
        ops=ops,
        sim={
            "sim_makespan_s": makespan,
            "sim_restart_ms": 1e3 * statistics.fmean(replies),
        },
        kernel=stats.to_dict(),
        outputs={"results": results, "kinds": kinds},
        universes=universes,
    )


# ---------------------------------------------------------------------------
# fault_campaign
# ---------------------------------------------------------------------------


def fault_campaign_spec(size: dict, machine: Machine) -> FleetSpec:
    """The bench-owned fleet grid.

    Per replica seed: the hostile mix on plain and on CAS staging, one
    HNP crash (alternating plain / CAS), and the fault-free baseline
    whose makespan is the replica's effective-progress denominator.

    ``hnp_crash`` has a campaign of its own with a budget of one: drawn
    from the hostile mix it can land while a recovery is in flight, and
    the resumed recovery then relaunches the lineage a second time
    beside the first (jobs 2 and 3 both from job 1) and the campaign
    deadlocks following the wrong one — a simulator fault this PR may
    not fix, on a workload that must have no failing operation.

    The cold-start cadence (0.15 s) commits the first interval before
    ``start_at``, so no fault can arrive while nothing is recoverable.
    """
    base = {
        **machine.params,
        "filem": "rsh",
        "orte_errmgr_autorecover": "1",
        "orte_errmgr_max_recoveries": "12",
        "orte_hnp_failover": "1",
        "orte_hnp_heartbeat_s": "0.25",
        "snapc_full_checkpoint_every": "0.15",
        "snapc_sched_adaptive": "1",
        "snapc_sched_min_every": "0.05",
        "snapc_sched_max_every": "0.6",
    }
    hostile = CampaignSpec(
        mtbf_s=0.5,
        max_failures=5,
        start_at=0.35,
        faults=(
            FaultSpec("node_crash", weight=3.0),
            FaultSpec("stable_write_fail", duration_s=0.1),
            FaultSpec("net_partition", duration_s=0.1),
            FaultSpec("meta_corrupt"),
        ),
    )
    failover = CampaignSpec(
        mtbf_s=0.5, max_failures=1, start_at=0.35, faults=(FaultSpec("hnp_crash"),)
    )
    seeds = tuple(range(size["replicas"]))
    cells = []
    for seed in seeds:
        cells += [
            GridCell(seed, "default", "plain", "hostile"),
            GridCell(seed, "default", "cas", "hostile"),
            GridCell(seed, "default", "cas" if seed % 2 else "plain", "failover"),
            GridCell(seed, "default", "none", "baseline"),
        ]
    cluster = dict(machine.cluster, n_nodes=size["nodes"])
    cluster.pop("seed")  # every cell gets its own, derived from the fleet seed
    return FleetSpec(
        name="bench-fault-campaign",
        app="churn",
        np=size["np"],
        app_args={
            "loops": size["loops"],
            "compute_s": 0.01,
            "state_bytes": size["state_bytes"],
        },
        seeds=seeds,
        clusters={"default": cluster},
        params={"plain": {}, "cas": {"snapc_full_cas": "1"}, "none": {}},
        campaigns={
            "hostile": hostile,
            "failover": failover,
            "baseline": CampaignSpec(mtbf_s=1.0, max_failures=0),
        },
        base_params=base,
        fleet_seed=machine.seed,
        timeout_s=120.0,
        retries=0,
        cells_override=tuple(cells),
    )


def fault_campaign(rec: Recorder, size: dict, machine: Machine, prepared: dict) -> Outcome:
    ops = Ops()
    spec = fault_campaign_spec(size, machine)
    cells = spec.cells()
    universes: list = []
    if rec.trace:
        # FleetRunner builds its universes out of reach; the traced pass
        # runs the same payloads through the same public calls so it can
        # switch each tracer on, and must reproduce the fleet's event
        # count and makespan exactly.
        reports, stats = [], KernelStats()
        for cell in cells:
            payload = spec.payload(cell)
            with rec.timed():
                universe = Universe(
                    Cluster(
                        ClusterSpec(
                            seed=payload["cluster_seed"], **payload["cluster_kwargs"]
                        )
                    ),
                    MCAParams(dict(payload["mca_params"])),
                )
                universe.kernel.tracer.enable()
                job = ompi_run(
                    universe,
                    payload["app"],
                    payload["np"],
                    args=dict(payload["app_args"]),
                    wait=False,
                )
                report = run_campaign(universe, job, payload["campaign"]).to_dict()
            reports.append(report)
            stats.merge(universe.kernel.stats)
            universes.append(universe)
        kernel = stats.to_dict()
        errors = [None] * len(cells)
    else:
        with rec.timed():
            # the runner reports after every settled cell: collect the dead
            # cell's universe there, or garbage from a seed-dependent number
            # of cells piles up and peak RSS swings by a third across seeds
            fleet = FleetRunner(spec, progress=lambda line: gc.collect()).run(workers=1)
        reports = [cell.report for cell in fleet.cells]
        errors = [None if cell.ok else cell.error for cell in fleet.cells]
        kernel = fleet.kernel_stats()

    baseline = {
        cell.seed: report["makespan_s"]
        for cell, report in zip(cells, reports)
        if report is not None and cell.campaign == "baseline"
    }
    episodes, progress = [], []
    for cell, report, error in zip(cells, reports, errors):
        # every cell has a checkpoint cadence, so every lineage must finish
        # (a cell's results stay inside it; completion is the oracle)
        ops.check(
            report is not None and report["completed"],
            f"cell {cell.key}: {error or 'lineage ' + report['final_state']}",
        )
        if report is None:
            continue
        episodes += [r for r in report["recoveries"] if r["new_jobid"] is not None]
        if cell.campaign != "baseline":
            progress.append(baseline[cell.seed] / report["makespan_s"])
    done = [r for r in reports if r is not None]
    sim = {
        "sim_makespan_s": sum(r["makespan_s"] for r in done),
        "sim_recovery_latency_ms": 1e3 * statistics.fmean(e["latency_s"] for e in episodes),
        "sim_work_lost_s": sum(e["work_lost_s"] or 0.0 for e in episodes),
        "sim_effective_progress": statistics.fmean(progress),
    }
    if rec.trace:
        records = [rec_ for universe in universes for rec_ in staging_records(universe)]
        sim["staged_mib"] = sum(r.bytes_moved for r in records) / MIB
        sim["sim_app_blocked_ms"] = app_blocked_ms(universes)
    return Outcome(
        ops=ops,
        sim=sim,
        kernel=kernel,
        outputs={"reports": {cell.key: report for cell, report in zip(cells, reports)}},
        universes=universes,
    )


# ---------------------------------------------------------------------------
# scale_1000
# ---------------------------------------------------------------------------


def crash_waves(universe: Universe, lineages: list, size: dict, crashed: list):
    """Crash one compute node per wave, each time every lineage is a
    freshly recovered incarnation holding a committed snapshot.

    State-triggered, not scheduled at absolute times, so the campaign is
    the same whatever the simulated trajectory; never the HNP's node.
    """
    head = universe.hnp.proc.node.name
    last_max_jobid = 0

    def live_jobs():
        return [
            job
            for job in universe.jobs.values()
            if job.state.value in ("running", "checkpointing")
        ]

    for _wave in range(size["waves"]):
        while True:
            if not any(thread.alive for thread in lineages):
                return
            live = live_jobs()
            if (
                len(live) == size["jobs"]
                and all(job.snapshots for job in live)
                and min(job.jobid for job in live) > last_max_jobid
            ):
                break
            yield Delay(0.02)
        yield Delay(0.05)
        live = live_jobs()
        if not live:
            continue
        last_max_jobid = max(universe.jobs)
        victim = next(
            node
            for rank in range(size["np"] - 1, -1, -1)
            for node in [live[0].placements[rank]]
            if node != head
        )
        universe.cluster.failures.crash_node_now(victim)
        crashed.append((universe.kernel.now, victim))


def scale_1000(rec: Recorder, size: dict, machine: Machine, prepared: dict) -> Outcome:
    ops = Ops()
    params = {
        "orte_errmgr_autorecover": "1",
        "orte_errmgr_max_recoveries": str(size["waves"] + 2),
        "snapc_full_checkpoint_every": "0.3",
        "snapc_full_cas": "1",
        # finely chunked images: 2048 chunks per 64 KiB rank image
        "crs_base_chunk_bytes": "32",
    }
    args = {"loops": size["loops"], "compute_s": 0.01, "state_bytes": size["state_bytes"]}
    expected = churn_expected(size["np"], args)
    with rec.setup():
        universe = build(rec, machine, size["nodes"], params)
    kernel = universe.kernel
    crashed: list = []
    with rec.timed():
        jobs = [
            ompi_run(universe, "churn", size["np"], args=args, wait=False)
            for _ in range(size["jobs"])
        ]
        lineages = [
            kernel.spawn(follow_lineage(universe, job), name=f"lineage-{job.jobid}")
            for job in jobs
        ]
        kernel.spawn(crash_waves(universe, lineages, size, crashed), name="crash-waves")
        kernel.run_until_complete(lineages)
        drain(universe)
    finals = [thread.result for thread in lineages]
    for final in finals:
        ops.check(
            final.state.value == "finished" and final.results == expected,
            f"lineage ended in job {final.jobid} {final.state.value}",
        )
    ops.check(
        len(crashed) == size["waves"], f"{len(crashed)} of {size['waves']} waves fired"
    )
    episodes = [r for r in universe.hnp.errmgr.recovery_log if r.recovered]
    sim = {
        "sim_makespan_s": kernel.now,
        "sim_recovery_latency_ms": 1e3 * statistics.fmean(e.latency_s for e in episodes),
    }
    sim.update(staging_sim(staging_records(universe)))
    if rec.trace:
        sim["sim_app_blocked_ms"] = app_blocked_ms([universe])
    return Outcome(
        ops=ops,
        sim=sim,
        kernel=kernel.stats.to_dict(),
        outputs={
            "results": [final.results for final in finals],
            "crashed": crashed,
            "restarts": len(episodes),
        },
        universes=[universe] if rec.trace else [],
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    repetition: Callable[[Recorder, dict, Machine, dict], Outcome]
    #: frozen size constants; ``quick`` is for the smoke test only
    full: dict
    quick: dict
    #: once per process, untimed, counted in ``setup_s``
    prepare: Callable[[dict, Machine], dict] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mpi_dataplane",
            why="ompi.* + simenv.kernel + netsim do ~70% of the host work and the C/R path "
            "does none: data-plane gains show here, C/R-path changes must show no change",
            repetition=mpi_dataplane,
            prepare=mpi_dataplane_prepare,
            full={"round_trips": 12000, "n_global": 256, "iters": 3000},
            quick={"round_trips": 300, "n_global": 64, "iters": 100},
        ),
        Workload(
            name="ckpt_write",
            why="hashing, pickling and CRS are ~65% of host time and MPI traffic is one "
            "sendrecv per rank: the write use of CRS -> FILEM -> vfs -> SNAPC staging",
            repetition=ckpt_write,
            full={
                "universes": 2, "np": 16, "nodes": 8, "state_bytes": 4 << 20,
                "loops": 800, "compute_s": 0.01,
            },
            quick={
                "universes": 1, "np": 4, "nodes": 4, "state_bytes": 64 << 10,
                "loops": 40, "compute_s": 0.01,
            },
        ),
        Workload(
            name="restart_read",
            why="the read use of the layers ckpt_write writes through (broadcast, chain "
            "reconstruction, CRS restore, replay, relaunch), so a write-side gain that "
            "costs restart shows",
            repetition=restart_read,
            prepare=restart_read_prepare,
            full={
                "rounds": 6, "restarts": 4, "np": 16, "nodes": 8,
                "state_bytes": 512 << 10, "loops": 100,
            },
            quick={
                "rounds": 1, "restarts": 2, "np": 4, "nodes": 4,
                "state_bytes": 64 << 10, "loops": 40,
            },
        ),
        Workload(
            name="fault_campaign",
            why="the control plane does the work (errmgr, scheduler, state store, staging "
            "failover, fault injection, fleet); the only workload with the real state store",
            repetition=fault_campaign,
            full={"replicas": 6, "np": 4, "nodes": 8, "state_bytes": 1 << 20, "loops": 300},
            quick={"replicas": 1, "np": 4, "nodes": 8, "state_bytes": 64 << 10, "loops": 120},
        ),
        Workload(
            name="scale_1000",
            why="width, not depth: host time is per-chunk and per-node metadata (json, path "
            "handling, manifests) rather than payload hashing, on 1000 nodes",
            repetition=scale_1000,
            full={
                "nodes": 1000, "jobs": 4, "np": 8, "waves": 20,
                "state_bytes": 64 << 10, "loops": 100,
            },
            quick={
                "nodes": 60, "jobs": 2, "np": 4, "waves": 2,
                "state_bytes": 16 << 10, "loops": 60,
            },
        ),
    )
}
