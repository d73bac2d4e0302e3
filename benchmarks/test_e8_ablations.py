"""E8 — ablations of design knobs the paper calls out.

* **FILEM concurrency** (§5.2: "grouping remote file movement request
  as to avoid network congestion"): the rsh FILEM component's
  ``filem_rsh_max_concurrent`` trades per-transfer serialization
  against head-node NIC congestion — over trees when an interval is
  staged out, over node streams when a restart is preloaded.  Each
  doubling halves the number of waves, so the gain halves with it.
* **Collective algorithms** (§3.1's point-to-point layering makes them
  swappable): binomial vs linear broadcast latency vs np.
* **Eager limit** (ob1 protocol switch): simulated mid-size message
  latency vs the rendezvous threshold.
"""

from repro.bench.harness import Row, format_table, fresh_universe, run_and_checkpoint
from repro.tools.api import ompi_restart, ompi_run


def filem_latencies(concurrency: int) -> tuple[float, float]:
    """What the knob bounds on each side of one interval: enqueue ->
    COMMITTED from the interval's staging record (the stage-out: eight
    trees, a session per file) and request -> reply of an
    ``ompi_restart`` of it (the preload: eight node streams, a session
    each).  The checkpoint reply itself no longer waits for either."""
    universe, m = run_and_checkpoint(
        "churn",
        8,
        {"loops": 60, "compute_s": 0.01, "state_bytes": 1 << 20},
        at=0.1,
        n_nodes=8,
        params={"filem_rsh_max_concurrent": str(concurrency)},
        terminate=True,
    )
    assert m["ok"], m["error"]
    [record] = universe.hnp.snapc.stager(universe.hnp).job_records(1)
    requested = universe.kernel.now
    reply = ompi_restart(universe, m["snapshot"], wait=False).wait()
    assert reply["ok"], reply.get("error")
    return record.committed_at - record.enqueued_at, universe.kernel.now - requested


def test_e8_gather_concurrency(benchmark):
    def run():
        return {c: filem_latencies(c) for c in (1, 2, 4, 8)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    columns = ["stage-out (sim ms)", "restart (sim ms)"]
    rows = [
        Row(f"concurrency={c}", dict(zip(columns, (t * 1e3 for t in pair))))
        for c, pair in results.items()
    ]
    print()
    print(
        format_table(
            "E8a: FILEM rsh concurrency (8 ranks x 1 MiB on 8 nodes)", columns, rows
        )
    )
    # Serial is worst and returns diminish (every doubling leaves half
    # as many waves to save) — for trees on the write side, for node
    # streams on restart.
    for side in (0, 1):
        t = {c: pair[side] for c, pair in results.items()}
        assert t[1] > t[4]
        assert t[1] - t[2] > t[4] - t[8]


def bcast_time(algorithm: str, np_procs: int) -> float:
    universe = fresh_universe(
        8, {"coll_basic_bcast_algorithm": algorithm}
    )
    from tests.test_pml import define_app

    def main(ctx):
        start = yield ctx.now()
        for _ in range(20):
            yield from ctx.bcast(b"x" * 1024, root=0)
        end = yield ctx.now()
        return (end - start) / 20

    define_app("bench_bcast", main)
    job = ompi_run(universe, "bench_bcast", np_procs)
    return max(job.results.values())


def test_e8_bcast_algorithms(benchmark):
    def run():
        return {
            alg: {np_procs: bcast_time(alg, np_procs) for np_procs in (4, 16)}
            for alg in ("binomial", "linear")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for np_procs in (4, 16):
        rows.append(
            Row(
                f"np={np_procs}",
                {
                    "binomial (sim us)": results["binomial"][np_procs] * 1e6,
                    "linear (sim us)": results["linear"][np_procs] * 1e6,
                },
            )
        )
    print()
    print(
        format_table(
            "E8b: bcast algorithm (1 KiB payload)",
            ["binomial (sim us)", "linear (sim us)"],
            rows,
        )
    )
    # Trees win at scale (log vs linear fan-out from the root NIC).
    assert results["binomial"][16] < results["linear"][16]


def coordination_latency(crcp: str, np_procs: int) -> float:
    _universe, m = run_and_checkpoint(
        "churn",
        np_procs,
        {"loops": 80, "compute_s": 0.01},
        at=0.1,
        n_nodes=8,
        params={"crcp": crcp, "filem": "shared"},
    )
    assert m["ok"], m["error"]
    return m["sim_latency_s"]


def test_e8_protocol_comparison(benchmark):
    """The framework's raison d'être (paper section 6.3): two
    coordination protocols compared with everything else constant.
    ``filem=shared`` removes gather costs so the protocol dominates."""

    def run():
        return {
            crcp: {np_procs: coordination_latency(crcp, np_procs) for np_procs in (4, 16)}
            for crcp in ("coord", "twophase")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for np_procs in (4, 16):
        rows.append(
            Row(
                f"np={np_procs}",
                {
                    "coord (sim ms)": results["coord"][np_procs] * 1e3,
                    "twophase (sim ms)": results["twophase"][np_procs] * 1e3,
                },
            )
        )
    print()
    print(
        format_table(
            "E8d: CRCP protocol comparison (bookmarks vs quiescence rounds)",
            ["coord (sim ms)", "twophase (sim ms)"],
            rows,
        )
    )
    # Both complete; twophase pays its extra aggregation rounds.
    for crcp in ("coord", "twophase"):
        assert results[crcp][16] > 0


def midsize_latency(eager_limit: int) -> float:
    universe = fresh_universe(2, {"pml_ob1_eager_limit": str(eager_limit)})
    job = ompi_run(
        universe,
        "netpipe",
        2,
        args={"sizes": [32768], "reps_per_size": 10},
    )
    return job.results[0]["series"][0][1]


def test_e8_eager_limit(benchmark):
    def run():
        return {limit: midsize_latency(limit) for limit in (1024, 65536)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        Row(
            f"eager_limit={limit}",
            {"32 KiB latency (sim us)": latency * 1e6},
        )
        for limit, latency in results.items()
    ]
    print()
    print(
        format_table(
            "E8c: eager limit vs 32 KiB message latency",
            ["32 KiB latency (sim us)"],
            rows,
        )
    )
    # Below the limit the message goes rendezvous: an extra RTS/CTS
    # round trip shows up directly in latency.
    assert results[1024] > results[65536]
