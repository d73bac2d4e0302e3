"""A checkpointing scheduler service + live process migration.

Run:  python examples/scheduler_service.py

The paper positions asynchronous checkpointing as something *support
services* drive ("e.g., schedulers", §1) and lists process migration
as an intended extension (§8).  This example plays the scheduler:

1. a Jacobi solver job runs under a universe whose HNP checkpoints
   every running job every 100 simulated ms
   (``snapc_full_checkpoint_every``);
2. mid-run, the scheduler decides node01 must be vacated and migrates
   the whole job onto the remaining nodes with ``ompi-migrate``
   (checkpoint-terminate + placed restart under the hood);
3. the migrated job keeps being checkpointed on the same cadence and
   finishes with exactly the baseline results.
"""

from repro.mca.params import MCAParams
from repro.orte.universe import Universe
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.tools.api import ompi_migrate, ompi_ps, ompi_run
from repro.tools.info import render_info

ARGS = {"n_global": 512, "iters": 500, "iter_compute_s": 0.002}


def main() -> None:
    print(render_info().splitlines()[0])  # what this build offers
    baseline = ompi_run(
        Universe(Cluster(ClusterSpec(n_nodes=4)), MCAParams()),
        "jacobi",
        4,
        args=ARGS,
    )
    print(f"baseline: iters={baseline.results[0]['iters']} "
          f"checksum={baseline.results[0]['checksum']:.6f}")

    # 1. the HNP's periodic checkpoint service
    params = MCAParams({"snapc_full_checkpoint_every": "0.1"})
    universe = Universe(Cluster(ClusterSpec(n_nodes=4)), params)
    job = ompi_run(universe, "jacobi", 4, args=ARGS, wait=False)

    # 2. vacate node01 mid-run: migrate every rank it hosts to node02
    handle = ompi_migrate(
        universe, job.jobid, {1: "node02", 3: "node02"}, at=0.3, wait=False
    )
    reply = handle.wait_stepped()
    assert reply["ok"], reply
    migrated = universe.job(reply["jobid"])
    universe.run_job_to_completion(migrated)

    taken = universe.hnp.ckpt_scheduler.taken
    before = [path for jobid, path in taken if jobid == job.jobid]
    after = [path for jobid, path in taken if jobid == migrated.jobid]
    print(f"\nperiodic snapshots taken before migration: {len(before)}")
    print(f"periodic snapshots taken after migration: {len(after)}")
    assert before and after
    print(f"old job {job.jobid}: {job.state.value}")
    print(f"migrated job {migrated.jobid}: {migrated.state.value}")
    print(f"placements: {migrated.placements}  (node01 vacated)")
    assert "node01" not in {migrated.placements[1], migrated.placements[3]}

    # 3. results unchanged
    match = migrated.results[0] == baseline.results[0]
    print(f"results identical to baseline: {match}")
    assert match

    print("\nompi-ps:")
    for row in ompi_ps(universe):
        print(f"  job {row['jobid']}: {row['app']} {row['state']} "
              f"snapshots={len(row['snapshots'])}")


if __name__ == "__main__":
    main()
