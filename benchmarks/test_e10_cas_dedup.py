"""E10 — content-addressed snapshot store deduplication.

Three checkpoints of a 4-rank churn job (8 MB of mostly-zero state per
rank) staged through the CAS offer/ship protocol against the same run
with plain staging.  Persisted into ``BENCH_E10.json``:

* **Dedup ratio** — logical snapshot bytes over bytes actually shipped
  into the store.  Identical chunks across ranks and intervals ship
  once, so the ratio is far above the 2x acceptance floor.
* **Savings vs plain staging** — bytes moved by the non-CAS pipeline
  over bytes moved by the CAS pipeline for the same workload.
* **Chunk-loss repair** — restart from a CAS snapshot fails with a
  retryable error once a blob is lost, and succeeds again after a
  later checkpoint re-ships the chunk (nothing is blacklisted).
"""

from repro.bench.harness import (
    Row,
    format_table,
    fresh_universe,
    write_bench_json,
)
from repro.opal.crs import chunks as chunkstore
from repro.tools.api import checkpoint_ref, ompi_checkpoint, ompi_restart, ompi_run
from repro.util.errors import RestartError

CHURN = {"loops": 120, "compute_s": 0.01, "state_bytes": 8 << 20}
CKPT_TIMES = (0.1, 0.45, 0.8)
NP = 4


def run_staged(cas: bool) -> dict:
    params = {"filem": "rsh"}
    if cas:
        params["snapc_full_cas"] = "1"
    universe = fresh_universe(4, params)
    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    handles = [
        ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        for at in CKPT_TIMES
    ]
    universe.run_job_to_completion(job)
    for handle in handles:
        assert handle.result().get("ok"), handle.result().get("error")

    stager = universe.hnp.snapc.stager(universe.hnp)
    records = stager.job_records(job.jobid)
    out = {
        "universe": universe,
        "job": job,
        "first_ref": checkpoint_ref(handles[0]),
        "intervals": [
            {
                "interval": r.interval,
                "cas": r.cas,
                "bytes_logical": r.bytes_logical,
                "bytes_moved": r.bytes_moved,
            }
            for r in records
        ],
        "bytes_moved": sum(r.bytes_moved for r in records),
        "bytes_logical": sum(r.bytes_logical for r in records),
    }
    if cas:
        out["store"] = stager.backends[True].store.stats()
    return out


def run_gen(universe, gen):
    thread = universe.kernel.spawn(gen, name="bench-gen")
    return universe.kernel.run_until_complete(thread)


def chunk_loss_repair(cas_run: dict) -> dict:
    """Lose one blob, show the failure is retryable, repair it by
    re-staging (a later checkpoint re-ships the chunk)."""
    universe = cas_run["universe"]
    ref = cas_run["first_ref"]
    stable = universe.cluster.stable_fs
    store = universe.hnp.snapc.stager(universe.hnp).backends[True].store
    manifest = run_gen(
        universe, chunkstore.read_manifest(stable, ref.local_dir(0))
    )
    victim = max(set(manifest.hashes), key=manifest.hashes.count)
    run_gen(universe, stable.remove(store.blob_path(victim)))

    failed_retryable = False
    try:
        ompi_restart(universe, ref)
    except RestartError as exc:
        failed_retryable = "absent from the store" in str(exc)

    job = ompi_run(universe, "churn", NP, args=CHURN, wait=False)
    ompi_checkpoint(
        universe, job.jobid, at=universe.kernel.now + 0.1, wait=False
    )
    universe.run_job_to_completion(job)
    repaired = store.has(victim)
    restarted = ompi_restart(universe, ref)
    return {
        "restart_failed_retryable_on_chunk_loss": failed_retryable,
        "repaired_by_restaging": repaired,
        "restart_ok_after_repair": restarted.state.value == "finished",
    }


def test_e10_cas_dedup(benchmark):
    def run():
        cas = run_staged(cas=True)
        plain = run_staged(cas=False)
        repair = chunk_loss_repair(cas)
        return cas, plain, repair

    cas, plain, repair = benchmark.pedantic(run, rounds=1, iterations=1)
    dedup_ratio = cas["bytes_logical"] / max(cas["bytes_moved"], 1)
    savings = plain["bytes_moved"] / max(cas["bytes_moved"], 1)

    rows = []
    for entry, baseline in zip(cas["intervals"], plain["intervals"]):
        rows.append(
            Row(
                f"interval {entry['interval']}",
                {
                    "logical (MiB)": entry["bytes_logical"] / (1 << 20),
                    "shipped (KiB)": entry["bytes_moved"] / (1 << 10),
                    "plain moved (MiB)": baseline["bytes_moved"] / (1 << 20),
                },
            )
        )
    print()
    print(
        format_table(
            "E10: CAS dedup, 4 ranks x 8 MiB x 3 intervals",
            ["logical (MiB)", "shipped (KiB)", "plain moved (MiB)"],
            rows,
        )
    )
    print(
        f"dedup ratio {dedup_ratio:.1f}x, "
        f"{savings:.1f}x fewer bytes than plain staging, "
        f"store holds {cas['store']['blobs']} blobs / "
        f"{cas['store']['stored_bytes'] >> 10} KiB"
    )

    write_bench_json(
        "BENCH_E10.json",
        {
            "app": "churn",
            "np": NP,
            "app_args": CHURN,
            "checkpoints_at": list(CKPT_TIMES),
            "cas": {
                "intervals": cas["intervals"],
                "bytes_logical": cas["bytes_logical"],
                "bytes_moved": cas["bytes_moved"],
                "store": cas["store"],
            },
            "plain": {
                "intervals": plain["intervals"],
                "bytes_moved": plain["bytes_moved"],
            },
            "dedup_ratio": dedup_ratio,
            "savings_vs_plain": savings,
            "repair": repair,
        },
    )

    # Acceptance: identical chunks across ranks/intervals ship once.
    assert all(entry["cas"] for entry in cas["intervals"])
    assert not any(entry["cas"] for entry in plain["intervals"])
    assert dedup_ratio > 2
    assert cas["bytes_moved"] < plain["bytes_moved"]
    # Chunk loss is retryable and repaired by re-staging.
    assert repair["restart_failed_retryable_on_chunk_loss"]
    assert repair["repaired_by_restaging"]
    assert repair["restart_ok_after_repair"]
