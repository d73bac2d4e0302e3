"""Shared measurement utilities for the experiment suite."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mca.params import MCAParams
from repro.obs.report import filter_spans, phase_rows
from repro.orte.universe import Universe
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.simenv.kernel import WaitEvent
from repro.tools.api import ompi_checkpoint, ompi_run


@dataclass
class Row:
    """One output row of an experiment table."""

    label: str
    values: dict[str, Any] = field(default_factory=dict)


def format_table(title: str, columns: list[str], rows: list[Row]) -> str:
    """Render a monospace table like the paper's result listings."""
    widths = {col: len(col) for col in columns}
    label_width = max([len("config")] + [len(r.label) for r in rows])
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.values.get(col, "")
            text = f"{value:.4g}" if isinstance(value, float) else str(value)
            widths[col] = max(widths[col], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = [f"== {title} =="]
    header = "config".ljust(label_width) + "  " + "  ".join(
        col.rjust(widths[col]) for col in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cells, row in zip(rendered, rows):
        lines.append(
            row.label.ljust(label_width)
            + "  "
            + "  ".join(cell.rjust(widths[col]) for cell, col in zip(cells, columns))
        )
    return "\n".join(lines)


def fresh_universe(
    n_nodes: int = 4, params: dict | None = None, **spec_kwargs
) -> Universe:
    spec = ClusterSpec(n_nodes=n_nodes, **spec_kwargs)
    return Universe(Cluster(spec), MCAParams(params or {}))


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run a closure and return (result, wall_clock_seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def phase_table_rows(trace: dict, phases: list[str] | None = None) -> list[Row]:
    """Per-phase breakdown of a trace export as table :class:`Row` s."""
    return [
        Row(
            phase,
            {"count": count, "sim (ms)": sim_s * 1e3, "wall (ms)": wall_s * 1e3},
        )
        for phase, count, sim_s, wall_s in phase_rows(trace, phases)
    ]


PHASE_COLUMNS = ["count", "sim (ms)", "wall (ms)"]


def write_bench_json(filename: str, payload: dict) -> str:
    """Persist an experiment's machine-readable results.

    Written into the current working directory (the repo root under
    CI, which uploads ``BENCH_*.json`` as build artifacts).
    """
    path = os.path.join(os.getcwd(), filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def stable_commit_latency_s(trace: dict, at: float) -> float:
    """Request-to-stable-commit latency from a traced run.

    The checkpoint reply returns as soon as the job resumes (the
    app-blocked window); the interval is only durable when its
    background ``snapc.stage`` span closes.  Returns the time from the
    request to the end of the last stage span, or NaN if none ran.
    """
    stages = filter_spans(trace, name="snapc.stage")
    if not stages:
        return float("nan")
    return max(s["t0"] + s["dur"] for s in stages) - at


def run_and_checkpoint(
    app: str,
    np: int,
    app_args: dict,
    at: float,
    n_nodes: int = 4,
    params: dict | None = None,
    trace: bool = False,
    **ckpt_options,
) -> tuple[Universe, dict]:
    """Launch *app*, checkpoint it at sim-time *at*, run to completion.

    Returns ``(universe, measurement)`` where the measurement carries
    the *simulated* checkpoint latency — request departure to
    global-snapshot-reference reply.  Under asynchronous staging that
    reply arrives once every local snapshot is written and the job has
    resumed, so this is the **app-blocked** window (also exposed as
    ``"app_blocked_s"``).  With ``trace=True`` the universe runs with
    the span recorder on and the measurement gains a ``"trace"`` key
    plus ``"stable_commit_s"`` — request to the end of the background
    ``snapc.stage`` span, the end-to-end durability latency.
    """
    if trace:
        params = dict(params or {})
        params.setdefault("obs_trace_enabled", "1")
    universe = fresh_universe(n_nodes, params)
    job = ompi_run(universe, app, np, args=app_args, wait=False)
    handle = ompi_checkpoint(universe, job.jobid, at=at, wait=False, **ckpt_options)
    finish: dict[str, float] = {}

    def watch():
        yield WaitEvent(handle.done)
        finish["t"] = universe.kernel.now
        return None

    universe.kernel.spawn(watch(), name="bench-watch", daemon=True)
    universe.run_job_to_completion(job)
    reply = handle.result()
    latency = finish.get("t", float("nan")) - at
    measurement = {
        "ok": reply.get("ok", False),
        "error": reply.get("error"),
        "snapshot": reply.get("snapshot"),
        "sim_latency_s": latency,
        "app_blocked_s": latency,
        "job_state": job.state.value,
    }
    if trace:
        measurement["trace"] = universe.kernel.tracer.to_dict()
        measurement["stable_commit_s"] = stable_commit_latency_s(
            measurement["trace"], at
        )
    return universe, measurement
