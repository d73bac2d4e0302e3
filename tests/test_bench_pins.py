"""The deterministic pins of ``benchmarks/``, checked where tier-1 runs.

A benchmark file keeps its host-time floor for the CI ``bench`` job;
the counts it pins are a property of the simulation alone, so a change
that moves one fails here, with the rest of tier-1, before merge.
"""

from benchmarks.test_e12_kernel_throughput import N_JOBS, PINNED_COUNTS, WAVES, fleet_sweep


def test_e12_sweep_kernel_counts():
    sweep = fleet_sweep()
    assert sweep["jobs_completed"] == N_JOBS
    assert len(sweep["crashes"]) == WAVES and sweep["restarts"] == WAVES * N_JOBS
    assert {key: sweep["stats"][key] for key in PINNED_COUNTS} == PINNED_COUNTS
