"""Smoke test of the benchmark: ``pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``).  Runs the whole
command in ``--quick`` mode — tiny sizes, every oracle still checked —
and holds ``BENCHMARK.json`` to the names the workers print.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_the_catalogue():
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.metrics import END_TO_END, PER_LAYER, benchmark_json as generated

    assert benchmark_json() == generated()
    assert len(END_TO_END) == 14
    assert len(PER_LAYER) == 113
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(set(names)) == len(names)


def test_layer_map_covers_every_source_file():
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.layers import REPO_LAYERS, check_complete, layers_of

    mapping = check_complete()
    assert len(REPO_LAYERS) == 30
    assert set(mapping.values()) == set(REPO_LAYERS)
    assert layers_of("brand/new_module.py") == []


def test_quick_run_checks_every_oracle_and_prints_every_name(tmp_path):
    out = tmp_path / "result.json"
    done = run(RUN, "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert result["comparable"] is False
    spec = benchmark_json()
    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    printed: set[str] = set()
    for name, entry in result["workloads"].items():
        assert entry["ops"]["failed"] == 0, entry["ops"]["failures"]
        assert entry["ops"]["attempted"] > 0
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["per_layer"]["obs.sim_drift_ns"]["value"] == 0
        shares = [
            row["value"] for key, row in entry["per_layer"].items()
            if key.startswith("cpu_share.")
        ]
        assert abs(sum(shares) - 1.0) <= 0.01
        for metric in spec["end_to_end"]:
            assert metric["name"] in entry["end_to_end"], (name, metric["name"])
        printed |= {*entry["end_to_end"], *entry["per_layer"]}
    # end-to-end metrics that only some workloads have ride in per_layer
    assert {metric["name"] for metric in spec["per_layer"]} <= printed

    # the same result compared with itself: exit 0, no row "worse"; a timing
    # whose quick repetitions spread wider than its bound is "unresolved"
    same = run(os.path.join(BENCH_DIR, "compare.py"), str(out), str(out))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "differs" not in same.stdout
    assert "same (identical)" in same.stdout


def test_compare_looks_at_the_spread_before_the_median():
    sys.path[:0] = [ROOT]
    from bench.compare import verdict

    def row(value, lo, hi, iqr):
        return {"value": value, "min": lo, "max": hi, "iqr": iqr,
                "bound": 0.10, "slack": 0.0, "better": "lower"}

    steady = row(2.00, 1.98, 2.02, 0.02)
    assert verdict(steady, row(2.05, 2.03, 2.07, 0.02)) == "same"
    assert verdict(steady, row(2.50, 2.45, 2.55, 0.05)) == "worse"
    assert verdict(steady, row(1.50, 1.45, 1.55, 0.05)) == "better"
    # spread wider than the bound, repetitions overlap: the median cannot tell
    wide = row(2.00, 1.70, 2.40, 0.30)
    assert verdict(wide, row(2.01, 1.75, 2.35, 0.30)) == "unresolved"
    assert verdict(wide, row(2.30, 2.00, 2.60, 0.30)) == "unresolved"
    # ... unless every repetition of B is on one side of every one of A
    assert verdict(wide, row(1.40, 1.20, 1.60, 0.30)) == "better"
    assert verdict(wide, row(2.90, 2.50, 3.20, 0.30)) == "worse"
    # exact metrics carry no repetitions; a baseline of 0 has no share to worsen by
    zero = {"value": 0.0, "bound": 0.0, "slack": 0.0, "better": "lower"}
    assert verdict(zero, dict(zero)) == "same"
    assert verdict(zero, dict(zero, value=0.01)) == "worse"


def test_adapter_with_a_renamed_field_costs_one_metric(capsys):
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from types import SimpleNamespace

    from bench.adapters import counts

    # a staging record that lost ``cas`` and ``bytes_logical``
    record = SimpleNamespace(state="committed", kind="full", bytes_moved=1 << 20)
    stager = SimpleNamespace(job_records=lambda jobid: [record])
    hnp = SimpleNamespace(snapc=SimpleNamespace(stager=lambda hnp: stager))
    values = counts([SimpleNamespace(hnp=hnp, jobs={1: SimpleNamespace(procs={})})])
    assert len(values) == 15
    assert values["snapc.intervals_requested"] == 1
    assert values["filem.moved_mib"] == 1.0
    assert values["pml.eager_sent"] == 0
    assert values["filem.dedup_ratio"] is None
    assert values["errmgr.recoveries"] is None
    assert "adapter filem.dedup_ratio unavailable" in capsys.readouterr().err


def test_worker_speaks_the_drivers_protocol():
    spec = benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run(
            RUN, "--workload", "ckpt_write", "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--quick",
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in spec[key]}
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name, row in line["metrics"].items():
            assert row["unit"] == units[name]
            assert isinstance(row["value"], (int, float))
            if key == "end_to_end":
                assert row["value"] > 0


def test_no_program_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run(
        "bench/run.py", "--workload", "ckpt_write", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
