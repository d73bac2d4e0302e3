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
from benchmarks.test_e12_kernel_throughput import N_JOBS, PINNED_COUNTS, WAVES, fleet_sweep


def test_e12_sweep_kernel_counts():
    sweep = fleet_sweep()
    assert sweep["jobs_completed"] == N_JOBS
    assert len(sweep["crashes"]) == WAVES and sweep["restarts"] == WAVES * N_JOBS
    assert {key: sweep["stats"][key] for key in PINNED_COUNTS} == PINNED_COUNTS


def test_bench_layer_map_covers_every_source_file():
    try:
        check_layer_map()
    except RuntimeError as exc:
        pytest.fail(
            f"{exc}. Put the module under an already-mapped path of "
            "src/repro (bench/layers.py changes only with the benchmark)"
        )
