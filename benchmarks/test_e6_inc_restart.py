"""E6 — INC traversal (Figure 2 as an executable trace) and restart
end-to-end time.

* The INC stack traversal for a checkpoint must follow Figure 2's
  order exactly: app/ompi/orte/opal enter top-down, exit bottom-up,
  once for CHECKPOINT and once for CONTINUE, with the CRS in between.
* The span recorder turns the same traversal into per-layer *costs*:
  each layer's ``inc.<layer>`` span is inclusive of the layers below
  it, so the difference between adjacent layers is that layer's own
  contribution (CRCP coordination for ompi, CRS for opal, ...).
* Restart end-to-end: simulated time from the ompi-restart request to
  its reply (the restarted job is RUNNING), versus image size (FILEM
  broadcast is the size-dependent part), from a full interval and from
  a full + delta + delta chain.
"""

from repro.bench.harness import Row, format_table, fresh_universe
from repro.simenv.kernel import WaitEvent
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run
from tests.test_pml import define_app


def trace_inc_sequence() -> list:
    """Run one checkpoint with INC tracing on; return the trace."""
    universe = fresh_universe(2)
    traces = {}

    def main(ctx):
        stack = ctx._runner.opal.inc_stack
        stack.record_trace = True

        def app_inc(state, down):
            result = yield from down(state)
            return result

        ctx.register_inc(app_inc)
        yield ctx.compute(seconds=0.001)
        yield from ctx.barrier()
        if ctx.rank == 0:
            yield ctx.checkpoint()
        yield from ctx.barrier()
        traces[ctx.rank] = list(stack.trace)
        return "ok"

    define_app("bench_inc_trace", main)
    job = ompi_run(universe, "bench_inc_trace", 2)
    assert job.state.value == "finished"
    return traces[0]


def traced_inc_costs() -> dict:
    """Run one traced checkpoint; return rank 0's CHECKPOINT-descent
    ``inc.*`` spans keyed by layer name."""
    universe = fresh_universe(2, {"obs_trace_enabled": "1"})
    job = ompi_run(
        universe,
        "churn",
        2,
        args={"loops": 60, "compute_s": 0.01, "state_bytes": 1 << 20},
        wait=False,
    )
    handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
    universe.run_job_to_completion(job)
    assert handle.result()["ok"], handle.result().get("error")
    trace = universe.kernel.tracer.to_dict()
    owner = sorted(
        {
            s["attrs"]["owner"]
            for s in trace["spans"]
            if s["cat"] == "inc" and s["attrs"].get("state") == "CHECKPOINT"
        }
    )[0]
    return {
        s["name"].removeprefix("inc."): s
        for s in trace["spans"]
        if s["cat"] == "inc"
        and s["attrs"].get("state") == "CHECKPOINT"
        and s["attrs"]["owner"] == owner
    }


def measure_restart(state_bytes: int, links: int = 1) -> float:
    """Restart from the checkpoint taken at 0.1 s: a full interval, or
    the newest of a *links*-long full + delta + … chain."""
    universe = fresh_universe(4, {"snapc_full_interval_every": str(links)})
    job = ompi_run(
        universe,
        "churn",
        4,
        args={"loops": 40, "compute_s": 0.01, "state_bytes": state_bytes},
        wait=False,
    )
    for k in range(links - 1, 0, -1):
        ompi_checkpoint(universe, job.jobid, at=0.1 - 0.025 * k, wait=False)
    handle = ompi_checkpoint(
        universe, job.jobid, at=0.1, terminate=True, wait=False
    )
    universe.run_job_to_completion(job)
    ref = checkpoint_ref(handle)
    kernel = universe.kernel
    start = kernel.now
    restart_handle = ompi_restart(universe, ref, wait=False)
    replied_at = []

    def watch():
        # ``wait()`` drains the kernel, far past the reply: note when it came
        yield WaitEvent(restart_handle.done)
        replied_at.append(kernel.now)

    kernel.spawn(watch(), name="e6b-reply", daemon=True)
    reply = restart_handle.wait()
    assert reply["ok"], reply.get("error")
    new_job = universe.job(reply["jobid"])
    universe.run_job_to_completion(new_job)
    assert new_job.state.value == "finished"
    return replied_at[0] - start


def test_e6_inc_figure2_ordering(benchmark):
    trace = benchmark.pedantic(trace_inc_sequence, rounds=1, iterations=1)
    from repro.core.ft_event import FTState

    def phase(state):
        return [
            (layer, step) for layer, step, s in trace if s == state
        ]

    ckpt = phase(FTState.CHECKPOINT)
    cont = phase(FTState.CONTINUE)
    expected = [
        ("app", "enter"),
        ("ompi", "enter"),
        ("orte", "enter"),
        ("opal", "enter"),
        ("opal", "exit"),
        ("orte", "exit"),
        ("ompi", "exit"),
        ("app", "exit"),
    ]
    assert ckpt == expected, ckpt
    assert cont == expected, cont
    rows = [Row(f"{layer}:{step}", {"order": i}) for i, (layer, step) in enumerate(ckpt)]
    print()
    print(format_table("E6a: Figure-2 INC traversal (CHECKPOINT)", ["order"], rows))


def test_e6_inc_per_layer_cost(benchmark):
    spans = benchmark.pedantic(traced_inc_costs, rounds=1, iterations=1)
    layers = ["ompi", "orte", "opal"]
    assert set(layers) <= set(spans), spans.keys()
    rows = []
    for i, layer in enumerate(layers):
        inclusive = spans[layer]["dur"]
        below = spans[layers[i + 1]]["dur"] if i + 1 < len(layers) else 0.0
        rows.append(
            Row(
                f"inc.{layer}",
                {
                    "inclusive (sim ms)": inclusive * 1e3,
                    "own cost (sim ms)": (inclusive - below) * 1e3,
                },
            )
        )
    print()
    print(
        format_table(
            "E6c: per-layer INC cost (CHECKPOINT descent, rank 0)",
            ["inclusive (sim ms)", "own cost (sim ms)"],
            rows,
        )
    )
    # Inclusive timing: every layer's span covers the layers below it.
    assert spans["ompi"]["dur"] >= spans["orte"]["dur"] >= spans["opal"]["dur"]
    assert spans["ompi"]["t0"] <= spans["orte"]["t0"] <= spans["opal"]["t0"]
    assert spans["ompi"]["t1"] >= spans["orte"]["t1"] >= spans["opal"]["t1"]
    # The OMPI layer's own cost is the CRCP coordination — with traffic
    # in flight it dominates the descent.
    assert spans["ompi"]["dur"] > 0.0


def test_e6_restart_time_vs_image_size(benchmark):
    columns = {"full interval (sim ms)": 1, "3-link chain (sim ms)": 3}

    def run():
        return {
            size: {name: measure_restart(size, links) for name, links in columns.items()}
            for size in (1 << 16, 1 << 20, 4 << 20)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        Row(f"{size >> 10} KiB/rank", {name: t * 1e3 for name, t in latency.items()})
        for size, latency in results.items()
    ]
    print()
    print(
        format_table(
            "E6b: ompi-restart end-to-end time vs image size",
            list(columns),
            rows,
        )
    )
    sizes = sorted(results)
    full, chain = columns
    assert results[sizes[-1]][full] > results[sizes[0]][full]
    # the chain is flattened at the source: it lands the same two
    # files, and costs its extra stable reads, not a multiple
    for size in sizes:
        assert results[size][full] < results[size][chain] < 1.25 * results[size][full]
