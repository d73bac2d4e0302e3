#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads.

    python3 bench/run.py [--seed N] [--repeats 5] [--workload W] [--out FILE] [--quick]

runs every workload in its own fresh subprocess, one after the other
(never two at once), prints every end-to-end metric by name with its
unit, checks the outputs, then makes the traced / profiled / call-counted
/ probe passes for the per-layer numbers, and exits non-zero when any
operation failed.  Each of those subprocesses is this same file in
*worker* mode, which is also what the benchmark driver calls:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

One worker = set-up (imports, one-off preparation), one discarded
warm-up repetition, then timed repetitions with ``gc.collect()`` before
each; its last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import logging
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict

#: set-up is timed from here: the imports above are the interpreter's own,
#: the program's (numpy, repro) happen in load_program()
_STARTED = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 20070326
#: a worker that has not finished by then is killed
WORKER_TIMEOUT_S = 170


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, help="timed repetitions (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="worker: keep repeating until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="worker mode: 0 = timed repetitions, 1 = per-layer passes")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; every oracle checked, numbers not comparable")
    parser.add_argument("--out", help="write the merged result here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--no-shared", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: one workload, in this process
# ---------------------------------------------------------------------------


def load_program() -> float:
    """Import the program under test and the benchmark's own modules;
    returns the wall seconds since this process started."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    sys.path[:0] = [ROOT, src]
    import repro  # noqa: F401
    import bench.adapters  # noqa: F401
    import bench.metrics  # noqa: F401

    # the simulator logs every injected fault as a warning
    logging.getLogger("repro").setLevel(logging.ERROR)
    return time.perf_counter() - _STARTED


def emit(name: str, value: float | None, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<38} {shown:>14} {unit:<16} {note}".rstrip())


def run_repetition(workload, size, machine, prepared, rec):
    gc.collect()
    return workload.repetition(rec, size, machine, prepared), rec.clocks()


def worker_timed(args, workload, size, machine, prepared, once_s: float) -> dict:
    from bench.measure import Recorder, noise_verdict, peak_rss_mib, summarize
    from bench.metrics import END_TO_END
    from bench.workloads import Ops

    run_repetition(workload, size, machine, prepared, Recorder())  # warm-up, discarded
    reps, ops = [], Ops()
    first = first_digest = None
    started = time.perf_counter()
    while True:
        outcome, clocks = run_repetition(workload, size, machine, prepared, Recorder())
        if first is None:
            first, first_digest = outcome, outcome.digest()
        # the hash of the deterministic outputs must equal repetition 1's
        outcome.ops.check(
            outcome.digest() == first_digest,
            f"repetition {len(reps) + 1} produced different outputs than repetition 1",
        )
        ops.absorb(outcome.ops)
        reps.append(clocks)
        if args.repeats is not None:
            if len(reps) >= args.repeats:
                break
        elif len(reps) >= 2 and time.perf_counter() - started >= (args.seconds or 0):
            break

    user = [rep["user_s"] for rep in reps]
    noise = noise_verdict(user)
    stats = {
        "setup_s": summarize([once_s + rep["setup_s"] for rep in reps]),
        "host_user_cpu_s": summarize(user),
    }
    end_to_end = {
        "setup_s": stats["setup_s"]["median"],
        "host_user_cpu_s": stats["host_user_cpu_s"]["median"],
        "peak_rss_mib": peak_rss_mib(),
        "failed_share": ops.failed / ops.attempted,
        **first.sim,
    }
    print(f"{workload.name}: {len(reps)} timed repetitions, seed {args.seed}"
          + (" (quick: not comparable)" if args.quick else ""))
    units = {m.name: m.unit for m in END_TO_END}
    for name, value in end_to_end.items():
        note = ""
        if name in stats:
            s = stats[name]
            note = f"median of {s['n']} (min {s['min']:.4g}, max {s['max']:.4g}, iqr {s['iqr']:.3g})"
        emit(name, value, units[name], note)
    for index in noise["flagged_repetitions"]:
        print(f"  repetition {index + 1} is > 10% off the median user CPU ({user[index]:.3f} s)")
    for failure in ops.failures:
        print(f"  FAILED: {failure}")
    return {
        **asdict(ops),
        "end_to_end": end_to_end,
        "stats": stats,
        "repetitions": reps,
        "noise": noise,
        "kernel_events": first.kernel["events"],
    }


def span_sums(universes: list) -> tuple[dict[str, float], int]:
    """Summed simulated duration per span name (ms), and the span count."""
    from bench.metrics import SIM_SPANS

    sums = dict.fromkeys(SIM_SPANS, 0.0)
    count = 0
    for universe in universes:
        for span in universe.kernel.tracer.spans:
            count += 1
            name = "inc" if span.name.startswith("inc.") else span.name
            if name in sums:
                sums[name] += 1e3 * (span.t1 - span.t0)
    return sums, count


def netpipe_calls_per_msg(machine, layer_map, quick: bool) -> dict[str, float]:
    """Pass C: Python function activations per ping-pong, by the
    marginal-repetitions method — ``calls(2n) - calls(n)`` over n round
    trips, so launch and teardown cancel out."""
    from bench.layers import count_calls
    from bench.measure import Recorder
    from bench.metrics import CALL_LAYERS
    from bench.workloads import build
    from repro.tools.api import ompi_run

    n = 20 if quick else 200

    def calls(params: dict, nbytes: int, reps: int) -> dict[str, int]:
        universe = build(Recorder(), machine, 2, params)
        args = {"sizes": [nbytes], "reps_per_size": reps}
        return count_calls(lambda: ompi_run(universe, "netpipe", 2, args=args), layer_map)

    def marginal(params: dict, nbytes: int) -> dict[str, float]:
        calls(params, nbytes, 2)  # lazy imports must not land in the margin
        once, twice = calls(params, nbytes, n), calls(params, nbytes, 2 * n)
        return {layer: (twice[layer] - once[layer]) / n for layer in once}

    ft = marginal({"crcp": "coord"}, 64)
    noft = sum(marginal({"ompi_cr_enabled": "0"}, 64).values())
    large = sum(marginal({"crcp": "coord"}, 1 << 20).values())
    total = sum(ft.values())
    out = {
        "calls_per_msg.total": total,
        "calls_per_msg.noft_total": noft,
        "calls_per_msg.large_total": large,
        "ft_call_overhead_pct": 100.0 * (total - noft) / noft,
    }
    out.update({f"calls_per_msg.{layer}": ft[layer] for layer in CALL_LAYERS})
    return out


def design_claims(name: str, shares: dict[str, float]) -> list[tuple[bool, str]]:
    """Each workload's reason to exist, as a bound on its profile."""
    dataplane = sum(
        share for layer, share in shares.items()
        if layer.startswith("ompi.") or layer in ("netsim", "simenv.kernel")
    )
    payload = sum(
        shares[layer] for layer in ("std.hashlib", "std.pickle", "std.numpy", "opal.crs")
    )
    claims = {
        "mpi_dataplane": [
            (dataplane >= 0.50, f"ompi.* + netsim + simenv.kernel = {dataplane:.1%}, want >= 50%"),
            (payload <= 0.10, f"hashing + pickling + numpy + opal.crs = {payload:.1%}, want <= 10%"),
        ],
        "ckpt_write": [
            (payload >= 0.50, f"hashing + pickling + numpy + opal.crs = {payload:.1%}, want >= 50%"),
            (dataplane <= 0.20, f"ompi.* + netsim + simenv.kernel = {dataplane:.1%}, want <= 20%"),
        ],
    }
    return claims.get(name, [])


def worker_trace(args, workload, size, machine, prepared) -> dict:
    from bench.adapters import counts
    from bench.layers import LayerMap, cpu_shares
    from bench.measure import Recorder
    from bench.metrics import DRIVER_EXTRA, PER_LAYER
    from bench.probes import run_probes

    values: dict[str, float | None] = {}
    run_repetition(workload, size, machine, prepared, Recorder())  # warm-up, discarded
    plain, plain_clocks = run_repetition(workload, size, machine, prepared, Recorder())
    ops = plain.ops
    kernel = plain.kernel
    values.update({
        "kernel.events": kernel["events"],
        "kernel.events_per_cpu_s": kernel["events"] / plain_clocks["user_s"],
        "kernel.ready_hit_ratio": kernel["ready_hits"] / kernel["events"],
        "kernel.heap_pushes": kernel["heap_pushes"],
        "kernel.peak_heap": kernel["peak_heap"],
        "kernel.threads_spawned": kernel["threads_spawned"],
        "kernel.waits": kernel["waits_any"] + kernel["waits_all"],
        "kernel.events_per_msg": plain.extra.get("events_per_msg"),
        "host.sys_cpu_s": plain_clocks["sys_s"],
        "host.minor_faults": plain_clocks["minor_faults"],
        "host.wall_s": plain_clocks["wall_s"],
    })

    # pass T: same calls, tracer on; must reproduce the untraced run
    traced, traced_clocks = run_repetition(
        workload, size, machine, prepared, Recorder(trace=True)
    )
    sums, n_spans = span_sums(traced.universes)
    drift_ns = 1e9 * (traced.sim["sim_makespan_s"] - plain.sim["sim_makespan_s"])
    ops.check(drift_ns == 0, f"tracing moved the simulated makespan by {drift_ns} ns")
    ops.check(
        traced.kernel["events"] == kernel["events"],
        f"traced pass ran {traced.kernel['events']} events, untraced {kernel['events']}",
    )
    for name, value in plain.sim.items():
        ops.check(traced.sim[name] == value, f"traced pass changed {name}")
    values.update({f"sim_ms.{span}": total for span, total in sums.items()})
    values.update(counts(traced.universes))
    values.update({
        "obs.trace_overhead_pct": 100.0 * (traced_clocks["user_s"] / plain_clocks["user_s"] - 1.0),
        "obs.spans": n_spans,
        "obs.sim_drift_ns": drift_ns,
    })
    values.update(traced.sim)
    ops.absorb(traced.ops)
    del traced

    # pass P: cProfile inside the timed sections, self time bucketed by layer
    profiler = cProfile.Profile()
    profiled, profiled_clocks = run_repetition(
        workload, size, machine, prepared, Recorder(profiler=profiler)
    )
    layer_map = LayerMap()
    shares = cpu_shares(profiler, layer_map)
    ops.check(abs(sum(shares.values()) - 1.0) <= 0.01, "cpu_share.* does not sum to 1")
    ops.check(profiled.digest() == plain.digest(), "profiled pass produced different outputs")
    if not args.quick:
        for ok, claim in design_claims(workload.name, shares):
            ops.check(ok, f"design claim broken: {claim}")
    values.update({f"cpu_share.{layer}": share for layer, share in shares.items()})
    values["profile.overhead_x"] = profiled_clocks["user_s"] / plain_clocks["user_s"]
    del profiled

    if not args.no_shared:
        # passes C and X do not depend on the workload
        values.update(netpipe_calls_per_msg(machine, layer_map, args.quick))
        values.update(run_probes(0.03 if args.quick else 0.3))

    wanted = [*DRIVER_EXTRA, *PER_LAYER]
    print(f"{workload.name}: per-layer passes, seed {args.seed}"
          + (" (quick: not comparable)" if args.quick else ""))
    for metric in wanted:
        if metric.name in values:
            emit(metric.name, values[metric.name], metric.unit)
    for failure in ops.failures:
        print(f"  FAILED: {failure}")
    return {
        **asdict(ops),
        "values": {m.name: values[m.name] for m in wanted if m.name in values},
    }


def finite(value: float | None) -> float:
    """A number for the result line: a metric a workload does not have is 0."""
    return 0.0 if value is None or not math.isfinite(value) else float(value)


def worker(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    import_s = load_program()
    from bench.measure import hygiene
    from bench.metrics import DRIVER_END_TO_END, DRIVER_EXTRA, END_TO_END, PER_LAYER
    from bench.workloads import WORKLOADS, Machine

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"bench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})")
    host = hygiene(ROOT)
    size = workload.quick if args.quick else workload.full
    machine = Machine.from_seed(args.seed)
    prepare_started = time.perf_counter()
    prepared = workload.prepare(size, machine) if workload.prepare else {}
    once_s = import_s + time.perf_counter() - prepare_started

    if args.trace:
        result = worker_trace(args, workload, size, machine, prepared)
        units = {m.name: m.unit for m in (*DRIVER_EXTRA, *PER_LAYER)}
        if args.no_shared:
            units = {name: units[name] for name in result["values"]}
        metrics = {
            name: {"value": finite(result["values"].get(name)), "unit": unit}
            for name, unit in units.items()
        }
    else:
        result = worker_timed(args, workload, size, machine, prepared, once_s)
        units = {m.name: m.unit for m in END_TO_END}
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": units[name]}
            for name in DRIVER_END_TO_END
        }
        # a busy neighbour only ever adds user time, for minutes on end: from
        # run to run the fastest repetition holds where the median does not
        metrics["host_user_cpu_s"]["value"] = result["stats"]["host_user_cpu_s"]["min"]
    if args.detail:
        detail = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "quick": args.quick,
            "size": size,
            "machine": {"cluster": machine.cluster, "params": machine.params},
            "host": host,
            **result,
        }
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# The whole benchmark: every workload, each in its own subprocess
# ---------------------------------------------------------------------------


def run_worker(args, name: str, trace: int, detail: str, shared: bool) -> dict | None:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace), "--detail", detail,
    ]
    if not trace:
        command += ["--repeats", str(args.repeats or (2 if args.quick else 5))]
    if args.quick:
        command.append("--quick")
    if trace and not shared:
        command.append("--no-shared")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: worker killed after {WORKER_TIMEOUT_S} s")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if not os.path.exists(detail):
        print(f"{name}: worker exited {done.returncode} without a result")
        return None
    with open(detail, encoding="utf-8") as fh:
        result = json.load(fh)
    result["worker_wall_s"] = time.perf_counter() - started
    return result


def merge(name: str, timed: dict, trace: dict, shared: dict) -> dict:
    """One workload's entry in the result file."""
    from bench.metrics import END_TO_END, PER_LAYER
    from bench.workloads import Ops

    values = {**shared, **trace["values"]}
    # the two workers ran the same simulation: every simulated number agrees
    ops = Ops(
        timed["attempted"] + trace["attempted"],
        timed["failed"] + trace["failed"],
        timed["failures"] + trace["failures"],
    )
    for key, value in timed["end_to_end"].items():
        if key in values and key.startswith("sim_"):
            ops.check(values[key] == value,
                      f"traced pass reports {key} = {values[key]}, timed {value}")
    ops.check(trace["values"]["kernel.events"] == timed["kernel_events"],
              "per-layer passes ran a different number of kernel events")
    end_to_end = {}
    for metric in END_TO_END:
        if name not in metric.workloads:
            continue
        value = timed["end_to_end"].get(metric.name, values.get(metric.name))
        entry = {
            "value": value, "unit": metric.unit, "exact": metric.exact,
            "better": metric.better, "bound": metric.bound, "slack": metric.slack,
        }
        entry.update(timed["stats"].get(metric.name, {}))
        end_to_end[metric.name] = entry
    end_to_end["failed_share"]["value"] = ops.failed / ops.attempted
    return {
        "why": timed["why"],
        "size": timed["size"],
        "machine": timed["machine"],
        "host": timed["host"],
        "end_to_end": end_to_end,
        "per_layer": {
            m.name: {"value": values.get(m.name), "unit": m.unit, "source": m.source}
            for m in PER_LAYER
        },
        "ops": asdict(ops),
        "noise": timed["noise"],
        "repetitions": timed["repetitions"],
        "worker_wall_s": timed["worker_wall_s"] + trace["worker_wall_s"],
    }


def main_all(args) -> int:
    started = time.perf_counter()
    load_program()
    from bench.layers import check_complete
    from bench.measure import REP_SPREAD_LIMIT, hygiene
    from bench.metrics import PER_LAYER, catalogue
    from bench.workloads import WORKLOADS

    check_complete()
    host = hygiene(ROOT)
    if host["loadavg_warning"]:
        # read once, before the first worker: the workers load one core themselves
        print(f"bench: 1-min load average is {host['loadavg_1min']:.2f}; timings will be noisy",
              file=sys.stderr)
    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        sys.exit(f"bench: unknown workload {unknown[0]!r} (have {', '.join(WORKLOADS)})")
    out_dir = os.path.join(BENCH_DIR, "out")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(out_dir, f"{stamp}-seed{args.seed}" + ("-quick" if args.quick else ""))
    os.makedirs(run_dir, exist_ok=True)

    shared_names = {m.name for m in PER_LAYER if m.source in ("C", "X")} | {"ft_call_overhead_pct"}
    shared: dict = {}
    workloads: dict = {}
    broken: list[str] = []
    for name in names:
        timed = run_worker(args, name, 0, os.path.join(run_dir, f"{name}.timed.json"), False)
        trace = run_worker(args, name, 1, os.path.join(run_dir, f"{name}.trace.json"), not shared)
        if timed is None or trace is None:
            broken.append(name)
            continue
        if not shared:
            shared = {k: v for k, v in trace["values"].items() if k in shared_names}
        workloads[name] = merge(name, timed, trace, shared)

    result = {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "comparable": not args.quick,
        "host": host,
        "wall_s": time.perf_counter() - started,
        "catalogue": catalogue(),
        "workloads": workloads,
    }
    out = args.out or os.path.join(run_dir, "result.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print()
    print(f"{'workload':<16} {'failed/attempted':>17} {'host_user_cpu_s':>16} "
          f"{'sim_makespan_s':>15} {'setup_s':>8} {'rss MiB':>8}  timing")
    status = 0
    for name, entry in workloads.items():
        e2e, noise = entry["end_to_end"], entry["noise"]
        verdict = "ok"
        if noise["noisy"] and not args.quick:
            verdict = f"NOISY: repetitions spread {noise['spread']:.0%} > {REP_SPREAD_LIMIT:.0%}"
            status = max(status, 2)
        print(f"{name:<16} {entry['ops']['failed']:>8}/{entry['ops']['attempted']:<8} "
              f"{e2e['host_user_cpu_s']['value']:>16.4f} {e2e['sim_makespan_s']['value']:>15.6f} "
              f"{e2e['setup_s']['value']:>8.3f} {e2e['peak_rss_mib']['value']:>8.1f}  {verdict}")
        for failure in entry["ops"]["failures"]:
            print(f"  FAILED: {failure}")
        if entry["ops"]["failed"]:
            status = 1
    for name in broken:
        print(f"{name:<16} produced no result")
        status = 1
    if status == 2:
        print("bench: timed repetitions disagree by more than 10%: rerun on a quiet host, or "
              "raise the workload's size constant (its own PR)")
    print(f"bench: result in {os.path.relpath(out)}; "
          f"{result['wall_s']:.0f} s wall" + ("; --quick numbers are not comparable" if args.quick else ""))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.trace is not None:
        if not args.workload:
            sys.exit("bench: --trace needs --workload")
        return worker(args)
    return main_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
