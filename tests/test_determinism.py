"""Same-seed determinism regression for the kernel and everything above it.

Runs an E9-style fault-injection campaign (periodic checkpoints,
autorecovery, MTBF-driven node crashes) twice from identical seeds and
asserts the two runs are indistinguishable: identical kernel event
sequences, identical final clocks, identical campaign reports.
"""

from __future__ import annotations

from repro.simenv import CampaignSpec, FaultSpec, run_campaign
from repro.tools.api import ompi_run
from tests.conftest import make_universe

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
