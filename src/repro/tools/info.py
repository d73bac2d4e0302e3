"""``ompi-info`` analogue: inspect frameworks, components, parameters.

Open MPI ships ``ompi_info`` so users can see which components a build
offers and which MCA parameters steer them.  This reproduction's
version introspects the component registry and the conventional
parameter surface — handy in examples and for validating that a forced
selection (``--mca crs self``) names something real before launching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mca.registry import FrameworkRegistry, default_registry

#: parameters each component/framework documents (name, default, help)
KNOWN_PARAMS: dict[str, list[tuple[str, str, str]]] = {
    "crs": [
        ("crs", "simcr", "force CRS component selection"),
        ("crs_simcr_portable", "1", "allow simcr images to restart across OS tags"),
        ("crs_base_chunk_bytes", "65536", "chunk size images are split into for hashing, deltas and CAS staging (bytes)"),
        ("crs_base_hash_Bps", "4e9", "simulated chunk-hashing throughput, bytes/sec (0 = free)"),
    ],
    "snapc": [
        ("snapc", "full", "force SNAPC component selection"),
        ("snapc_full_stage_depth", "2", "intervals one job may have in flight (queued or staging) before a new checkpoint request blocks"),
        ("snapc_full_interval_every", "1", "full-image cadence: every Nth interval is full, the rest are deltas (1 = always full)"),
        ("snapc_full_max_chain", "4", "delta-chain length past which the newest interval is compacted to a full image at commit"),
        ("snapc_full_cas", "0", "stage intervals through the content-addressed store (needs a FILEM component with CAS support)"),
        ("snapc_full_cas_root", "/cas", "stable-storage directory of the content-addressed chunk store"),
        ("snapc_full_checkpoint_every", "0", "periodic checkpoint cadence in sim seconds (0 = off; the adaptive scheduler's cold-start fallback)"),
        ("snapc_sched_adaptive", "0", "re-tune the cadence per tick to the Young/Daly interval sqrt(2*MTBF*C)"),
        ("snapc_sched_min_every", "0.05", "lower clamp of the adaptive cadence (sim seconds)"),
        ("snapc_sched_max_every", "1.0", "upper clamp of the adaptive cadence (sim seconds; 0 = uncapped)"),
        ("snapc_stage_admission_tokens", "0", "universe-wide cap on concurrent staging transfers across all jobs (0 = unlimited)"),
    ],
    "filem": [
        ("filem", "rsh", "force FILEM component selection"),
        ("filem_rsh_session_cost", "0.020", "rsh session setup latency (s): per file on gather/stage-out, per node stream on broadcast"),
        ("filem_rsh_max_concurrent", "4", "concurrent remote copies: trees on gather/stage-out, node streams on broadcast"),
    ],
    "plm": [
        ("plm", "rsh", "force PLM component selection"),
        ("plm_rsh_session_cost", "0.030", "rsh launch session latency (s)"),
        ("plm_slurm_jobid", "", "set to select the slurm launcher"),
    ],
    "pml": [
        ("pml", "ob1", "force PML component selection"),
        ("pml_ob1_eager_limit", "65536", "eager/rendezvous threshold (bytes)"),
    ],
    "btl": [
        ("btl", "tcp,ib,sm", "BTL include list"),
        ("btl_ib_disable", "0", "disable the InfiniBand BTL"),
    ],
    "crcp": [
        ("crcp", "coord", "force CRCP component selection"),
    ],
    "coll": [
        ("coll", "basic", "force COLL component selection"),
        ("coll_basic_bcast_algorithm", "binomial", "bcast: binomial|linear"),
        ("coll_basic_reduce_algorithm", "binomial", "reduce: binomial|linear"),
    ],
}

#: non-framework (base) parameters
BASE_PARAMS: list[tuple[str, str, str]] = [
    ("ompi_cr_enabled", "1", "build with C/R support (wrapper PML installed)"),
    ("obs_trace_enabled", "0", "enable the structured span/counter tracer at universe start"),
    ("orte_errmgr_autorecover", "0", "restart failed jobs from their last snapshot"),
    ("orte_errmgr_max_recoveries", "5", "restart attempts allowed per job lineage"),
    ("orte_errmgr_backoff", "0.05", "base recovery retry backoff in sim seconds (doubles per retry)"),
    ("orte_hnp_failover", "0", "surviving orteds elect a new HNP when the HNP's node dies (and control-plane state is journalled to stable storage)"),
    ("orte_hnp_heartbeat_s", "0.25", "failover-window probe cadence in sim seconds (no timers while the HNP is healthy)"),
    ("statestore_root", "/universe/statestore", "stable-storage directory of the control-plane store (base.json + wal/)"),
]


@dataclass
class FrameworkInfo:
    name: str
    components: list[str]
    params: list[tuple[str, str, str]] = field(default_factory=list)


def collect_info(registry: FrameworkRegistry | None = None) -> list[FrameworkInfo]:
    """Gather the framework/component/parameter inventory."""
    registry = registry or default_registry()
    out = []
    for name in registry.framework_names:
        out.append(
            FrameworkInfo(
                name=name,
                components=registry.framework(name).component_names,
                params=list(KNOWN_PARAMS.get(name, [])),
            )
        )
    return out


def component_exists(framework: str, component: str) -> bool:
    registry = default_registry()
    if framework not in registry:
        return False
    return component in registry.framework(framework).component_names


def render_info(infos: list[FrameworkInfo] | None = None) -> str:
    """Human-readable ompi_info-style listing."""
    infos = infos if infos is not None else collect_info()
    lines = ["MCA frameworks and components:"]
    for info in infos:
        lines.append(f"  {info.name}: {', '.join(info.components)}")
        for key, default, help_text in info.params:
            lines.append(f"      {key} (default {default!r}) — {help_text}")
    lines.append("base parameters:")
    for key, default, help_text in BASE_PARAMS:
        lines.append(f"      {key} (default {default!r}) — {help_text}")
    return "\n".join(lines)
