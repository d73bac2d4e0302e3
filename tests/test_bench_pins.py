"""The deterministic pins of ``benchmarks/`` and ``bench/``, checked where
tier-1 runs.

A benchmark file keeps its host-time floor for the CI ``bench`` job;
the counts it pins are a property of the simulation alone, so a change
that moves one fails here, with the rest of tier-1, before merge.  The
same holds for the benchmark's layer map: a source file it does not
map crashes every profiled (``--trace 1``) worker of ``bench/run.py``.
"""

import pytest

from bench.test_bench_smoke import (
    test_layer_map_covers_every_source_file as check_layer_map,
)
from benchmarks.test_e6_inc_restart import measure_restart
from benchmarks.test_e12_kernel_throughput import N_JOBS, PINNED_COUNTS, WAVES, fleet_sweep


def test_e12_sweep_kernel_counts():
    sweep = fleet_sweep()
    assert sweep["jobs_completed"] == N_JOBS
    assert len(sweep["crashes"]) == WAVES and sweep["restarts"] == WAVES * N_JOBS
    assert {key: sweep["stats"][key] for key in PINNED_COUNTS} == PINNED_COUNTS


def test_e6_chain_restart_costs_its_reads_not_a_multiple():
    """E6's ordering at its smallest size: a 3-link chain restart costs
    more than a full one (its extra stable reads), and less than 1.25×
    (it lands the same two files a rank)."""
    full, chain = (measure_restart(64 << 10, links) for links in (1, 3))
    assert full < chain < 1.25 * full


def test_bench_layer_map_covers_every_source_file():
    try:
        check_layer_map()
    except RuntimeError as exc:
        pytest.fail(
            f"{exc}. Put the module under an already-mapped path of "
            "src/repro (bench/layers.py changes only with the benchmark)"
        )
