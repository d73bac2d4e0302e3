"""E4 — bookmark-exchange drain cost (paper section 6.3).

The ``coord`` protocol must drain every in-flight message into the
receivers' unexpected queues before the image is cut.  The workload
makes the drain do real work: rank 0 bursts K messages at a receiver
that is busy computing, and the checkpoint lands inside that window —
so the bookmarks disagree until the drain pulls the burst in.
Expected shape: drained count tracks K and coordination latency grows
with the drained bytes.
"""

import numpy as np

from repro.apps.registry import _APPS
from repro.bench.harness import Row, format_table, fresh_universe
from repro.obs.report import summarize
from repro.tools.api import ompi_checkpoint, ompi_run
from repro.util.ids import ProcessName

#: above the eager limit: each message is an RTS the receiver has not
#: matched when the checkpoint lands, so the drain must force-CTS it
PAYLOAD = 131072
TAG = 13


def _burst_app(ctx):
    """rank0 bursts rendezvous sends; rank1 sleeps through the
    checkpoint (and the gather, so statistics stay readable), leaving
    the whole burst in flight at coordination time."""
    burst = int(ctx.args["burst"])
    if ctx.rank == 0:
        payload = np.zeros(PAYLOAD, dtype=np.uint8)
        reqs = []
        for _ in range(burst):
            reqs.append((yield ctx.isend(payload, 1, TAG)))
        yield ctx.compute(seconds=2.0)  # stay alive through ckpt+gather
        yield from ctx.waitall(reqs)
        return "sent"
    yield ctx.compute(seconds=2.0)
    for _ in range(burst):
        yield from ctx.recv(0, TAG)
    return "received"


_APPS["bench_burst"] = _burst_app


def measure(burst: int) -> dict:
    universe = fresh_universe(2, {"obs_trace_enabled": "1"})
    job = ompi_run(universe, "bench_burst", 2, args={"burst": burst}, wait=False)
    handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
    finish: dict = {}

    def watch():
        from repro.simenv.kernel import WaitEvent

        yield WaitEvent(handle.done)
        finish["t"] = universe.kernel.now
        proc = universe.lookup(ProcessName(job.jobid, 1))
        if proc is not None:
            finish["drained"] = proc.service("ompi").crcp.stats["drained_msgs"]

    universe.kernel.spawn(watch(), name="watch", daemon=True)
    universe.run_job_to_completion(job)
    reply = handle.result()
    assert reply["ok"], reply.get("error")
    assert job.state.value == "finished"
    trace = universe.kernel.tracer.to_dict()
    phases = summarize(trace)
    return {
        "sim_latency_s": finish["t"] - 0.1,
        "drained": finish.get("drained", 0),
        "bookmark_s": phases.get("crcp.bookmark", {}).get("sim_s", 0.0),
        "drain_s": phases.get("crcp.drain", {}).get("sim_s", 0.0),
        "counted": trace["counters"].get("crcp.drained_msgs", 0),
    }


def test_e4_drain_cost_vs_inflight_burst(benchmark):
    def run():
        return {burst: measure(burst) for burst in (0, 8, 32, 128)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        Row(
            f"burst={burst}",
            {
                "ckpt latency (sim ms)": r["sim_latency_s"] * 1e3,
                "drained msgs": r["drained"],
                "bookmark (sim ms)": r["bookmark_s"] * 1e3,
                "drain (sim ms)": r["drain_s"] * 1e3,
            },
        )
        for burst, r in results.items()
    ]
    print()
    print(
        format_table(
            "E4: coordination drain cost vs in-flight burst",
            [
                "ckpt latency (sim ms)",
                "drained msgs",
                "bookmark (sim ms)",
                "drain (sim ms)",
            ],
            rows,
        )
    )
    assert results[128]["drained"] > results[8]["drained"] > 0
    assert results[0]["drained"] == 0
    assert results[128]["sim_latency_s"] > results[0]["sim_latency_s"]
    # The trace tells the same story: the drain phase is where the
    # latency goes, and its counter agrees with the PML statistics.
    assert results[128]["drain_s"] > results[0]["drain_s"]
    for r in results.values():
        assert r["counted"] == r["drained"]
