"""The metric catalogue: every name the benchmark prints, with its unit,
direction, bound, the pass it comes from and what it is expected to move.

``BENCHMARK.json`` is this catalogue in the driver's fixed schema
(``bench/test_bench_smoke.py`` holds the two together).  That schema
wants every end-to-end metric from every workload, never 0, so its
``end_to_end`` list is the four metrics every workload has; the nine
workload-specific end-to-end metrics ride in its ``per_layer`` list
(printed by the ``--trace 1`` run), and ``failed_share`` is the
``failed`` / ``attempted`` pair of the result line.  ``bench/compare.py``
gates all 14 with the bounds below.

"sim" = simulated time of the modelled system, exact for a seed;
"host" = what the simulator costs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from bench.layers import ALL_LAYERS
from bench.probes import PROBES
from bench.workloads import WORKLOADS

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the baseline median the metric may worsen by
    bound: float
    workloads: tuple[str, ...]
    what: str
    #: exact for a seed: compared for equality, not against the bound
    exact: bool = True
    #: absolute slack, in the metric's unit, on top of ``bound``
    slack: float = 0.0


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "wall: imports + one-off preparation + median per-repetition set-up",
             exact=False, slack=0.25),
    EndToEnd("host_user_cpu_s", "s", "lower", 0.10, ALL,
             "user CPU per repetition around the calls into the program", exact=False),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.10, ALL,
             "ru_maxrss of the workload process", exact=False),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL, "failed ops / attempted ops"),
    EndToEnd("sim_makespan_s", "sim_s", "lower", 0.01, ALL,
             "simulated seconds, summed over the workload's universes"),
    EndToEnd("sim_half_rtt_us", "sim_us", "lower", 0.01, ("mpi_dataplane",),
             "64 B half round trip"),
    EndToEnd("ft_call_overhead_pct", "%", "lower", 0.0, ("mpi_dataplane",),
             "extra Python calls per 64 B ping-pong, crcp=coord vs ompi_cr_enabled=0 "
             "(paper: ~3%)", slack=0.25),
    EndToEnd("sim_app_blocked_ms", "sim_ms", "lower", 0.01,
             ("ckpt_write", "fault_campaign", "scale_1000"),
             "mean checkpoint request -> reply per interval (Figure 1 A->F)"),
    EndToEnd("sim_stable_commit_ms", "sim_ms", "lower", 0.01, ("ckpt_write", "scale_1000"),
             "mean enqueue -> COMMITTED per interval"),
    EndToEnd("staged_mib", "MiB", "lower", 0.01,
             ("ckpt_write", "fault_campaign", "scale_1000"),
             "MiB shipped to stable storage"),
    EndToEnd("sim_restart_ms", "sim_ms", "lower", 0.01, ("restart_read",),
             "mean ompi_restart request -> reply"),
    EndToEnd("sim_recovery_latency_ms", "sim_ms", "lower", 0.01,
             ("fault_campaign", "scale_1000"),
             "mean detection -> running per recovered episode"),
    EndToEnd("sim_work_lost_s", "sim_s", "lower", 0.01, ("fault_campaign",),
             "simulated seconds rolled back, summed"),
    EndToEnd("sim_effective_progress", "ratio", "higher", 0.01, ("fault_campaign",),
             "baseline makespan / campaign makespan, mean over faulty cells"),
)

#: what the driver's schema can take as end-to-end: on every workload, never 0.
#: Its seeds differ run to run, and the fault campaign's makespan moves ~4%
#: with the seed (IQR / median), so there ``sim_makespan_s`` gets 0.10; at one
#: seed ``compare.py`` holds it to 1%.  ``host_user_cpu_s`` is 0.25 there, not
#: 0.10, and is the run's *fastest* repetition, not its median: a busy
#: neighbour shows as more user CPU (steal stays ~0), for minutes on end.
#: Over ten full runs in one such stretch the per-run medians spread by 28%
#: and 29% (IQR / median) on two workloads, the per-run minima by 8% and 17%;
#: ten seeds in a quiet stretch spread by 4-8%, in a busy one by 5-16%, and
#: the two sets' medians sat up to 23% apart.  ``peak_rss_mib`` is 0.15 for
#: the fault campaign's 4%.
DRIVER_END_TO_END = {
    "setup_s": 0.25,
    "host_user_cpu_s": 0.25,
    "peak_rss_mib": 0.15,
    "sim_makespan_s": 0.10,
}


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: T traced, P profiled, C call-counted, X probe, U untraced repetition
    source: str
    moves: str


SIM_SPANS = (
    "snapc.checkpoint", "snapc.fanout", "snapc.local", "snapc.meta", "snapc.stage",
    "snapc.admission", "crcp.coordinate", "crcp.bookmark", "crcp.drain",
    "crcp.quiesce", "crs.capture", "crs.serialize", "crs.hash", "crs.write",
    "filem.transfer", "filem.stage_out", "filem.broadcast", "filem.offer",
    "filem.ship", "filem.fetch", "errmgr.detect", "errmgr.recover",
    "statestore.append", "statestore.replay", "hnp.election", "hnp.failover", "inc",
)

CALL_LAYERS = (
    "ompi.pml", "ompi.btl", "ompi.crcp", "ompi.core", "netsim", "simenv.kernel", "apps",
)


def _cpu_share_moves(layer: str) -> str:
    for workload, layers in {
        "mpi_dataplane": ("ompi.", "netsim", "simenv.kernel"),
        "ckpt_write + restart_read": ("std.hashlib", "std.pickle", "std.numpy", "opal.crs"),
        "scale_1000": ("std.json", "vfs.fs", "snapshot", "orte.filem"),
        "fault_campaign": (
            "orte.errmgr", "orte.statestore", "orte.snapc", "simenv.faults", "fleet",
        ),
    }.items():
        if layer.startswith(layers):
            return f"host_user_cpu_s on {workload}"
    return "host_user_cpu_s where its share is large"


def _sim_span_moves(span: str) -> str:
    if span in ("snapc.fanout", "inc") or span.startswith(("crcp.", "crs.")):
        return "bounds sim_app_blocked_ms"
    if span in (
        "snapc.stage", "snapc.meta", "snapc.admission", "filem.transfer",
        "filem.stage_out", "filem.offer", "filem.ship",
    ):
        return "bounds sim_stable_commit_ms on ckpt_write, scale_1000"
    if span in ("filem.broadcast", "filem.fetch"):
        return "bounds sim_restart_ms on restart_read"
    if span.startswith(("errmgr.", "hnp.")) or span == "statestore.replay":
        return "bounds sim_recovery_latency_ms on fault_campaign"
    if span == "snapc.checkpoint":
        return "is sim_app_blocked_ms, summed"
    return "sim_makespan_s where the span is on the blocking path"


def per_layer() -> tuple[PerLayer, ...]:
    rows = [
        PerLayer(f"cpu_share.{layer}", "share", "lower", layer, "P",
                 _cpu_share_moves(layer))
        for layer in ALL_LAYERS
    ]
    rows += [
        PerLayer("calls_per_msg.total", "calls/msg", "lower", "ompi", "C",
                 "ft_call_overhead_pct, host_user_cpu_s on mpi_dataplane"),
        PerLayer("calls_per_msg.noft_total", "calls/msg", "lower", "ompi", "C",
                 "ft_call_overhead_pct (its base)"),
        PerLayer("calls_per_msg.large_total", "calls/msg", "lower", "ompi", "C",
                 "1 MiB rendezvous: an eager-path cut that lengthens rendezvous shows here"),
    ]
    rows += [
        PerLayer(f"calls_per_msg.{layer}", "calls/msg", "lower", layer, "C",
                 "host_user_cpu_s on mpi_dataplane; flat everywhere else")
        for layer in CALL_LAYERS
    ]
    kernel = "host_user_cpu_s on every workload, as events x host time per event"
    rows += [
        PerLayer("kernel.events", "count", "lower", "simenv.kernel", "U", kernel),
        PerLayer("kernel.events_per_cpu_s", "1/s", "higher", "simenv.kernel", "U",
                 "compare host time per event, never raw events/s"),
        PerLayer("kernel.ready_hit_ratio", "ratio", "higher", "simenv.kernel", "U", kernel),
        PerLayer("kernel.heap_pushes", "count", "lower", "simenv.kernel", "U", kernel),
        PerLayer("kernel.peak_heap", "count", "lower", "simenv.kernel", "U", "peak_rss_mib"),
        PerLayer("kernel.threads_spawned", "count", "lower", "simenv.kernel", "U", kernel),
        PerLayer("kernel.waits", "count", "lower", "simenv.kernel", "U", kernel),
        PerLayer("kernel.events_per_msg", "events/msg", "lower", "simenv.kernel", "U",
                 "host_user_cpu_s on mpi_dataplane (0 elsewhere)"),
    ]
    rows += [
        PerLayer(f"sim_ms.{span}", "sim_ms", "lower", span.split(".")[0], "T",
                 _sim_span_moves(span))
        for span in SIM_SPANS
    ]
    counts = "staged_mib, sim_work_lost_s, sim_effective_progress, failed_share"
    rows += [
        PerLayer("snapc.intervals_requested", "count", "higher", "orte.snapc", "T", counts),
        PerLayer("snapc.intervals_committed", "count", "higher", "orte.snapc", "T", counts),
        PerLayer("snapc.intervals_failed", "count", "lower", "orte.snapc", "T", counts),
        PerLayer("filem.moved_mib", "MiB", "lower", "orte.filem", "T", "staged_mib"),
        PerLayer("filem.dedup_ratio", "ratio", "higher", "vfs.cas", "T", "staged_mib"),
        PerLayer("crs.delta_write_ratio", "ratio", "lower", "opal.crs", "T", "staged_mib"),
        PerLayer("errmgr.recoveries", "count", "lower", "orte.errmgr", "T", counts),
        PerLayer("errmgr.attempts_per_recovery", "ratio", "lower", "orte.errmgr", "T",
                 "sim_recovery_latency_ms"),
        PerLayer("hnp.failovers", "count", "lower", "orte.runtime", "T",
                 "sim_recovery_latency_ms on fault_campaign"),
        PerLayer("statestore.appended", "count", "lower", "orte.statestore", "T",
                 "host_user_cpu_s on fault_campaign"),
        PerLayer("statestore.compactions", "count", "lower", "orte.statestore", "T",
                 "host_user_cpu_s on fault_campaign"),
        PerLayer("statestore.dropped", "count", "lower", "orte.statestore", "T",
                 "sim_work_lost_s on fault_campaign"),
        PerLayer("pml.eager_sent", "count", "lower", "ompi.pml", "T",
                 "host_user_cpu_s on mpi_dataplane"),
        PerLayer("pml.rndv_sent", "count", "lower", "ompi.pml", "T",
                 "host_user_cpu_s on mpi_dataplane"),
        PerLayer("pml.unexpected", "count", "lower", "ompi.pml", "T",
                 "host_user_cpu_s on mpi_dataplane"),
    ]
    rows += [
        PerLayer(name, f"{unit}/cpu_s"[:16], "higher", name.split(".", 1)[1].rsplit(".", 1)[0],
                 "X", "the matching cpu_share row's workload")
        for name, (unit, _fixture) in PROBES.items()
    ]
    rows += [
        PerLayer("obs.trace_overhead_pct", "%", "lower", "obs", "T",
                 "user CPU of the traced pass vs the untraced repetition"),
        PerLayer("obs.spans", "count", "lower", "obs", "T", "obs.trace_overhead_pct"),
        PerLayer("obs.sim_drift_ns", "sim_ns", "lower", "obs", "T",
                 "must be 0: observability never perturbs the simulation"),
        PerLayer("profile.overhead_x", "x", "lower", "bench", "P",
                 "how far cProfile stretches the run the shares come from"),
        PerLayer("host.sys_cpu_s", "s", "lower", "host", "U", "not gated: allocator noise"),
        PerLayer("host.minor_faults", "count", "lower", "host", "U", "not gated"),
        PerLayer("host.wall_s", "s", "lower", "host", "U", "not gated"),
    ]
    return tuple(rows)


PER_LAYER = per_layer()

#: end-to-end metrics that only some workloads have; the driver sees them
#: in the ``--trace 1`` run (0 where a workload does not have the metric)
DRIVER_EXTRA = tuple(
    metric
    for metric in END_TO_END
    if metric.name not in DRIVER_END_TO_END and metric.name != "failed_share"
)


def catalogue() -> dict:
    """The whole catalogue as plain data, for the result file: what the
    driver's schema has no room for (workloads, layer, source pass, which
    end-to-end metric each per-layer metric should move, and where)."""
    return {
        "end_to_end": [asdict(metric) for metric in END_TO_END],
        "per_layer": [asdict(metric) for metric in PER_LAYER],
    }


def benchmark_json() -> dict:
    """``BENCHMARK.json``, in the driver's schema, from the catalogue."""
    by_name = {metric.name: metric for metric in END_TO_END}
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 15,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS.values()
        ],
        "end_to_end": [
            {
                "name": name,
                "unit": by_name[name].unit,
                "better": by_name[name].better,
                "bound": bound,
            }
            for name, bound in DRIVER_END_TO_END.items()
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in (*DRIVER_EXTRA, *PER_LAYER)
        ],
    }
