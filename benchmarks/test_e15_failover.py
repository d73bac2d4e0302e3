"""E15 — durable control plane: HNP failover latency and zero-loss
interval adoption.

Crashes the HNP's node mid-campaign (the checkpointing job keeps
staging intervals throughout) and measures the cost of the control
plane's recovery:

* **detection** — crash instant to the start of the new incarnation's
  rehydration, dominated by the orted watchers' heartbeat probe
  cadence (``orte_hnp_heartbeat_s``).
* **rehydration** — the ``hnp.failover`` span: state-store replay,
  budget/cadence restore, staging adoption and restage dispatch,
  orphaned-failure hand-off, job re-attachment.
* **adoption economics** — how many COMMITTED intervals the successor
  adopted without re-shipping a byte, versus in-flight intervals it
  had to restage or durably fail.

Gates: the campaign completes through exactly one failover, detection
and rehydration stay within their bounds, and — the paper's promise —
not one interval the store calls COMMITTED is lost or corrupt on
stable storage afterwards.  Machine-readable results land in
``BENCH_E15.json``.
"""

from repro.bench.harness import Row, format_table, write_bench_json
from repro.mca.params import MCAParams
from repro.obs.report import filter_spans, summarize
from repro.orte.universe import Universe
from repro.simenv.campaign import (
    FAULT_HNP_CRASH,
    CampaignSpec,
    FaultSpec,
    run_campaign,
)
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.snapshot import STAGE_COMMITTED, read_global_meta
from repro.tools.api import ompi_run

N_NODES = 6
NP = 4
CHURN = {"loops": 150, "compute_s": 0.01, "state_bytes": 1 << 20}
HEARTBEAT_S = 0.25

#: gates, in sim seconds — generous multiples of the measured costs so
#: the bench flags regressions, not scheduling jitter
MAX_DETECTION_S = 2 * HEARTBEAT_S
MAX_REHYDRATION_S = 0.2


def _run_failover_campaign():
    params = MCAParams(
        {
            "filem": "rsh",
            "obs_trace_enabled": "1",
            "orte_errmgr_autorecover": "1",
            "orte_hnp_failover": "1",
            "orte_hnp_heartbeat_s": str(HEARTBEAT_S),
            "snapc_full_checkpoint_every": "0.15",
        }
    )
    universe = Universe(Cluster(ClusterSpec(n_nodes=N_NODES)), params)
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    spec = CampaignSpec(
        mtbf_s=0.3,
        max_failures=1,
        start_at=0.3,
        faults=(FaultSpec(kind=FAULT_HNP_CRASH),),
    )
    report = run_campaign(universe, job, spec)
    return universe, report


def _verify_committed_intact(universe) -> int:
    """Every interval the successor holds COMMITTED parses from stable
    storage with committed staging metadata.  Returns the count."""
    kernel = universe.kernel
    stable = universe.cluster.stable_fs
    stager = universe.hnp.snapc.stager(universe.hnp)
    committed = [
        record
        for jobid in universe.jobs
        for record in stager.job_records(jobid)
        if record.state == STAGE_COMMITTED
    ]
    for record in committed:
        thread = kernel.spawn(read_global_meta(stable, record.ref), name="verify-meta")
        kernel.run_until_complete(thread)
        meta = thread.result
        assert meta.staging["state"] == STAGE_COMMITTED, record.ref.path
    return len(committed)


def test_e15_hnp_failover_latency_and_zero_loss(benchmark):
    universe, report = benchmark.pedantic(
        _run_failover_campaign, rounds=1, iterations=1
    )

    # -- hard gates ---------------------------------------------------------
    assert report.completed, report.to_dict()
    assert universe.failovers == 1
    assert report.fault_counts == {"hnp_crash": 1}

    trace = universe.kernel.tracer.to_dict()
    (span,) = filter_spans(trace, name="hnp.failover")
    (fault,) = report.to_dict()["failures"]
    detection_s = span["t0"] - fault["at"]
    rehydration_s = span["dur"]
    assert 0.0 < detection_s <= MAX_DETECTION_S, detection_s
    assert rehydration_s <= MAX_REHYDRATION_S, rehydration_s

    # zero lost COMMITTED intervals: adopted without re-shipping, and
    # every one of them still intact on stable storage
    assert span["attrs"]["lost"] == 0
    assert span["attrs"]["committed_adopted"] >= 1
    committed = _verify_committed_intact(universe)
    assert committed >= span["attrs"]["committed_adopted"]

    # -- report -------------------------------------------------------------
    summary = summarize(trace)
    store = universe.statestore
    append = summary.get("statestore.append", {"count": 0, "sim_s": 0.0})
    replay = summary.get("statestore.replay", {"count": 0, "sim_s": 0.0})
    rows = [
        Row(
            "hnp_crash",
            {
                "done": str(report.completed),
                "detect (sim ms)": detection_s * 1e3,
                "rehydrate (sim ms)": rehydration_s * 1e3,
                "adopted": span["attrs"]["committed_adopted"],
                "restaged": span["attrs"]["restaged"],
                "lost": span["attrs"]["lost"],
                "appends": append["count"],
                "replay (sim ms)": replay["sim_s"] * 1e3,
            },
        )
    ]
    print()
    print(
        format_table(
            f"E15: HNP failover (heartbeat {HEARTBEAT_S:g}s, "
            f"{committed} committed interval(s) verified intact)",
            [
                "done",
                "detect (sim ms)",
                "rehydrate (sim ms)",
                "adopted",
                "restaged",
                "lost",
                "appends",
                "replay (sim ms)",
            ],
            rows,
        )
    )
    write_bench_json(
        "BENCH_E15.json",
        {
            "experiment": "e15_hnp_failover",
            "heartbeat_s": HEARTBEAT_S,
            "gates": {
                "max_detection_s": MAX_DETECTION_S,
                "max_rehydration_s": MAX_REHYDRATION_S,
            },
            "fault": fault,
            "detection_s": detection_s,
            "rehydration_s": rehydration_s,
            "failover_span": span,
            "committed_verified": committed,
            "statestore": {
                "appended": store.appended,
                "compactions": store.compactions,
                "append_sim_s": append["sim_s"],
                "replay_sim_s": replay["sim_s"],
            },
            "campaign": report.to_dict(),
        },
    )
