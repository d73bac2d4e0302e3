"""Aggregation and rendering of trace exports.

All helpers operate on the JSON-shaped dict produced by
:meth:`~repro.obs.trace.TraceRecorder.to_dict` (or loaded back from a
file), so post-mortem analysis of a written trace and live analysis of
a just-finished run share one code path.
"""

from __future__ import annotations

import json
from typing import Any

#: the canonical per-phase breakdown order used by the benchmarks
DEFAULT_PHASES = [
    "crcp.bookmark",
    "crcp.drain",
    "crcp.quiesce",
    "crcp.round",
    "crs.hash",
    "crs.serialize",
    "crs.write",
    "filem.transfer",
    "filem.stage_out",
    "filem.offer",
    "filem.ship",
    "filem.fetch",
    "snapc.fanout",
    "snapc.meta",
    "snapc.stage",
    "errmgr.detect",
    "errmgr.recover",
    "statestore.append",
    "statestore.replay",
    "hnp.failover",
]

#: the control-plane failover breakdown (``ompi-trace failover``)
FAILOVER_PHASES = [
    "statestore.append",
    "statestore.compact",
    "statestore.replay",
    "hnp.election",
    "hnp.failover",
    "errmgr.detect",
    "errmgr.recover",
    "snapc.stage",
    "snapc.meta",
]


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def filter_spans(
    trace: dict, name: str | None = None, cat: str | None = None, **attrs: Any
) -> list[dict]:
    """Spans matching a name, a category, and/or attribute values."""
    out = []
    for span in trace.get("spans", []):
        if name is not None and span["name"] != name:
            continue
        if cat is not None and span["cat"] != cat:
            continue
        span_attrs = span.get("attrs", {})
        if any(span_attrs.get(k) != v for k, v in attrs.items()):
            continue
        out.append(span)
    return out


def summarize(trace: dict) -> dict[str, dict]:
    """Aggregate spans by name: ``{name: {count, sim_s, wall_s}}``."""
    out: dict[str, dict] = {}
    for span in trace.get("spans", []):
        entry = out.setdefault(
            span["name"], {"count": 0, "sim_s": 0.0, "wall_s": 0.0}
        )
        entry["count"] += 1
        entry["sim_s"] += span["dur"]
        entry["wall_s"] += span["wall"]
    return out


def phase_rows(
    trace: dict, phases: list[str] | None = None
) -> list[tuple[str, int, float, float]]:
    """``(phase, count, sim_s, wall_s)`` rows for the requested phases.

    Phases absent from the trace appear with zero counts so tables stay
    shape-stable across configurations (e.g. ``shared`` FILEM moving no
    bytes).
    """
    summary = summarize(trace)
    rows = []
    for phase in phases or DEFAULT_PHASES:
        entry = summary.get(phase, {"count": 0, "sim_s": 0.0, "wall_s": 0.0})
        rows.append((phase, entry["count"], entry["sim_s"], entry["wall_s"]))
    return rows


def render_phase_report(
    trace: dict, title: str = "per-phase breakdown", phases: list[str] | None = None
) -> str:
    """Monospace per-phase table, the benchmarks' standard block."""
    rows = phase_rows(trace, phases)
    name_w = max([len("phase")] + [len(name) for name, *_ in rows])
    lines = [f"== {title} =="]
    header = (
        "phase".ljust(name_w) + "  " + "count".rjust(6)
        + "  " + "sim (ms)".rjust(10) + "  " + "wall (ms)".rjust(10)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, count, sim_s, wall_s in rows:
        lines.append(
            name.ljust(name_w)
            + f"  {count:>6d}  {sim_s * 1e3:>10.3f}  {wall_s * 1e3:>10.3f}"
        )
    counters = trace.get("counters") or {}
    for key in sorted(counters):
        lines.append(f"counter {key} = {counters[key]:g}")
    stats = trace.get("kernel_stats")
    if stats:
        lines.append(render_kernel_stats(stats))
    return "\n".join(lines)


def render_kernel_stats(stats: dict, title: str = "kernel stats") -> str:
    """Monospace block over a ``kernel_stats`` dict (see SIMULATOR.md)."""
    lines = [f"== {title} =="]
    order = [
        "events", "ready_hits", "heap_pushes", "heap_pops",
        "peak_heap", "peak_ready", "threads_spawned", "threads_reaped",
        "threads_live", "threads_dead", "waits_any", "waits_all",
        "run_wall_s", "run_cpu_s", "events_per_sec", "events_per_cpu_sec",
    ]
    keys = order + sorted(set(stats) - set(order))
    for key in keys:
        if key not in stats:
            continue
        value = stats[key]
        shown = f"{value:.3f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:<18} {shown:>14}")
    return "\n".join(lines)


def render_fleet_report(fleet: dict, title: str | None = None) -> str:
    """Monospace meta-report over a fleet-run dict.

    Accepts the shape of :meth:`repro.fleet.report.FleetReport.to_dict`
    (also written to ``FLEET_E13.json``): one row per grid cell, the
    cross-run aggregate block, and the merged fleet-wide kernel stats.
    """
    cells = fleet.get("cells", {})
    key_w = max([len("cell")] + [len(key) for key in cells])
    header = (
        "cell".ljust(key_w) + "  " + "ok".rjust(2) + "  "
        + "done".rjust(5) + "  " + "faults".rjust(6) + "  "
        + "restarts".rjust(8) + "  " + "ckpts".rjust(5) + "  "
        + "makespan (s)".rjust(12) + "  " + "tries".rjust(5) + "  "
        + "wall (s)".rjust(8)
    )
    shown_title = title or (
        f"fleet {fleet.get('fleet', '?')}: "
        f"{fleet.get('workers', '?')} worker(s), "
        f"{fleet.get('wall_s', 0.0):.1f}s wall"
    )
    lines = [f"== {shown_title} ==", header, "-" * len(header)]
    for key in sorted(cells):
        cell = cells[key]
        report = cell.get("report") or {}
        lines.append(
            key.ljust(key_w)
            + f"  {'y' if cell.get('ok') else 'N':>2}"
            + f"  {str(bool(report.get('completed'))):>5}"
            + f"  {len(report.get('failures', [])):>6}"
            + f"  {report.get('restarts', 0):>8}"
            + f"  {report.get('committed_checkpoints', 0):>5}"
            + (
                f"  {report['makespan_s']:>12.4f}"
                if "makespan_s" in report
                else f"  {'-':>12}"
            )
            + f"  {cell.get('attempts', 1):>5}"
            + f"  {cell.get('wall_s', 0.0):>8.2f}"
        )
        if cell.get("error"):
            lines.append(" " * key_w + f"  ! {cell['error']}")
    if not cells:
        lines.append("(no cells)")
    agg = fleet.get("aggregate")
    if agg:
        lines.append(
            f"aggregate: {agg['ok']}/{agg['runs']} ok, "
            f"{agg['completed']} completed, {agg['faults']} faults, "
            f"{agg['restarts']} restarts, "
            f"{agg['committed_checkpoints']} ckpts committed, "
            f"{agg['work_lost_s'] * 1e3:.1f}ms work lost"
        )
    stats = fleet.get("kernel_stats")
    if stats:
        lines.append(render_kernel_stats(stats, title="fleet kernel stats"))
    return "\n".join(lines)


def render_recovery_report(
    records: list[dict], title: str = "recovery episodes"
) -> str:
    """Monospace table over recovery-episode dicts.

    Accepts the dict shape of
    :meth:`repro.orte.errmgr.RecoveryRecord.to_dict` (also embedded in
    ``CampaignReport.recoveries`` and ``BENCH_E9.json``).
    """
    header = (
        "failed".rjust(6) + "  " + "new".rjust(5) + "  "
        + "attempts".rjust(8) + "  " + "latency (ms)".rjust(12) + "  "
        + "lost (ms)".rjust(10) + "  " + "snapshot / error"
    )
    lines = [f"== {title} ==", header, "-" * len(header)]
    for rec in records:
        latency = rec.get("latency_s")
        lost = rec.get("work_lost_s")
        outcome = rec.get("snapshot") or rec.get("error") or "-"
        lines.append(
            f"{rec.get('failed_jobid', '?'):>6}  "
            + f"{rec.get('new_jobid') if rec.get('new_jobid') is not None else '-':>5}  "
            + f"{rec.get('attempts', 0):>8}  "
            + (f"{latency * 1e3:>12.3f}  " if latency is not None else f"{'-':>12}  ")
            + (f"{lost * 1e3:>10.3f}  " if lost is not None else f"{'-':>10}  ")
            + str(outcome)
        )
    if not records:
        lines.append("(no recovery episodes)")
    return "\n".join(lines)
