"""Asynchronous staged aggregation + incremental checkpoints.

Covers the background staging coordinator (Figure 1-F made true):
checkpoint replies return at D/E while the gather/cleanup/commit run in
a per-job worker; backpressure bounds the pipeline; restart waits for
commit; a node death mid-stage fails the interval without touching the
application; and delta intervals restart through their base-chain,
with compaction bounding chain length.

The coordinator reaches storage only through a ``StagingBackend``, so
its FIFO / slot / abort machinery is also run against a backend whose
``stage`` merely takes time, and the contract every backend owes
recovery (an interval whose bytes are gone is named, refused and walked
back past) is run once per backend.
"""

import pytest

from repro.obs.report import filter_spans
from repro.opal.crs import chunks as chunkstore
from repro.orte.snapc import staging
from repro.orte.snapc.backends import StagingBackend
from repro.simenv.kernel import Delay
from repro.snapshot import (
    STAGE_COMMITTED,
    STAGE_FAILED,
    parse_global_dirname,
    read_global_meta,
)
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_restart,
    ompi_run,
)
from repro.util.errors import RestartError
from tests.conftest import make_universe, run_gen
from tests.test_filem import restart_staging

CHURN = {"loops": 80, "compute_s": 0.01, "state_bytes": 4 << 20}
TRACED = {"obs_trace_enabled": "1"}


@pytest.fixture
def depth_one(monkeypatch):
    """One interval in flight per job: the next request waits for it."""
    monkeypatch.setattr(staging, "STAGE_DEPTH", 1)


def churn_baseline(np: int = 4, args: dict | None = None) -> dict:
    universe = make_universe(4)
    job = ompi_run(universe, "churn", np, args=dict(args or CHURN))
    assert job.state.value == "finished"
    return job.results


@pytest.fixture(scope="module")
def baseline():
    return churn_baseline()


def read_meta(universe, ref):
    def gen():
        meta = yield from read_global_meta(universe.cluster.stable_fs, ref)
        return meta

    return run_gen(universe.kernel, gen())


def stage_spans(universe) -> list[dict]:
    spans = filter_spans(
        universe.kernel.tracer.to_dict(), name="snapc.stage"
    )
    spans.sort(key=lambda s: s["attrs"]["interval"])
    return spans


def ckpt_spans(universe) -> list[dict]:
    spans = filter_spans(
        universe.kernel.tracer.to_dict(), name="snapc.checkpoint"
    )
    spans.sort(key=lambda s: s["attrs"]["interval"])
    return spans


class DelayBackend(StagingBackend):
    """Stages nothing, slowly: the coordinator with no bytes behind it."""

    def __init__(self, stager, delay_s: float):
        super().__init__(stager)
        self.delay_s = delay_s
        self.staged: list[int] = []

    def stage(self, record):
        yield Delay(self.delay_s)
        self.staged.append(record.interval)
        return None


def delay_only(universe, delay_s: float = 0.15) -> DelayBackend:
    """Swap the tree backend of *universe*'s coordinator for a fake."""
    stager = universe.hnp.snapc.stager(universe.hnp)
    stager.backends[False] = DelayBackend(stager, delay_s)
    return stager.backends[False]


def check_pipeline_overlap(universe):
    """With the default stage depth, a second interval fans out while
    the first is still staging."""
    job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
    h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
    h2 = ompi_checkpoint(universe, job.jobid, at=0.16, wait=False)
    universe.run_job_to_completion(job)
    assert h1.result()["ok"] and h2.result()["ok"]
    assert h1.result()["interval"] == 1
    assert h2.result()["interval"] == 2
    stages = stage_spans(universe)
    ckpts = ckpt_spans(universe)
    # Interval 2's request phase ran while interval 1 still staged...
    assert ckpts[1]["t0"] < stages[0]["t0"] + stages[0]["dur"]
    # ...but commits stay FIFO: stage 1 closed before stage 2.
    assert stages[0]["t0"] + stages[0]["dur"] <= stages[1]["t0"] + stages[1]["dur"]
    assert [r.path for r in job.snapshots] == [
        h1.result()["snapshot"],
        h2.result()["snapshot"],
    ]


def check_backpressure_serializes(universe):
    """depth=1: the next request blocks (before the app is touched)
    until the previous interval settles, so stages never overlap."""
    job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
    h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
    # 0.2: the app has resumed but interval 1 is still staging.
    h2 = ompi_checkpoint(universe, job.jobid, at=0.2, wait=False)
    universe.run_job_to_completion(job)
    assert h1.result()["ok"] and h2.result()["ok"]
    stages = stage_spans(universe)
    ckpts = ckpt_spans(universe)
    # Interval 2's request phase only started once interval 1 had
    # fully settled (its slot freed at stage close).
    assert ckpts[1]["t0"] >= stages[0]["t0"] + stages[0]["dur"]
    assert stages[1]["t0"] >= stages[0]["t0"] + stages[0]["dur"]


class TestAsyncStaging:
    def test_reply_before_commit_and_job_resumes(self, baseline):
        """The checkpoint reply returns at D/E; the gather and the
        metadata commit happen in the background stage span."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        assert job.results == baseline
        assert handle.result()["ok"]
        (stage,) = stage_spans(universe)
        ckpt = filter_spans(
            universe.kernel.tracer.to_dict(), name="snapc.checkpoint"
        )[0]
        # The request span (ends when the app resumes) closes before the
        # background stage does.
        assert ckpt["t0"] + ckpt["dur"] < stage["t0"] + stage["dur"]
        assert stage["attrs"]["ok"] is True
        assert stage["attrs"]["bytes"] > 0
        ref = checkpoint_ref(handle)
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_COMMITTED
        assert meta.staging["committed_sim_time"] is not None
        assert job.snapshots == [ref]

    def test_pipeline_overlap_with_depth_two(self):
        check_pipeline_overlap(
            make_universe(4, params={"obs_trace_enabled": "1"})
        )

    def test_backpressure_depth_one_serializes_stages(self, depth_one):
        check_backpressure_serializes(make_universe(4, params=TRACED))

    def test_wait_stable_restores_synchronous_reply(self):
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.1, wait=False, wait_stable=True
        )
        reply_time = {}

        def watch():
            from repro.simenv.kernel import WaitEvent

            yield WaitEvent(handle.done)
            reply_time["t"] = universe.kernel.now
            return None

        universe.kernel.spawn(watch(), name="watch", daemon=True)
        universe.run_job_to_completion(job)
        assert handle.result()["ok"]
        (stage,) = stage_spans(universe)
        # The reply only left after the background commit finished.
        assert reply_time["t"] >= stage["t0"] + stage["dur"]

    def test_terminate_halts_at_de_and_commits_in_background(self, baseline):
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.1, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        assert handle.result()["ok"]
        ref = checkpoint_ref(handle)
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_COMMITTED
        assert job.snapshots == [ref]
        new_job = ompi_restart(universe, ref)
        assert new_job.state.value == "finished"
        assert new_job.results == baseline


class TestCoordinatorAlone:
    """The ordering and backpressure checks above, and abort, with a
    backend that stages nothing: what they pin is the coordinator."""

    def test_pipeline_overlap_without_storage(self):
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        fake = delay_only(universe)
        check_pipeline_overlap(universe)
        assert fake.staged == [1, 2]
        assert not universe.cluster.stable_fs.exists(
            "/snapshots/ompi_global_snapshot_1.1/rank0"
        )

    def test_backpressure_without_storage(self, depth_one):
        universe = make_universe(4, params=TRACED)
        fake = delay_only(universe)
        check_backpressure_serializes(universe)
        assert fake.staged == [1, 2]

    def test_abort_fails_queued_intervals_and_frees_their_slots(self, monkeypatch):
        """Intervals still queued when the job is aborted fail at once
        and give their slots back; the one already staging settles on
        its own merits but is never appended to ``job.snapshots``."""
        monkeypatch.setattr(staging, "STAGE_DEPTH", 3)
        universe = make_universe(4)
        fake = delay_only(universe, delay_s=0.5)
        stager = universe.hnp.snapc.stager(universe.hnp)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.2, 0.3)
        ]
        seen = {}

        def abort():
            seen["inflight_before"] = stager._jobs[job.jobid].inflight
            stager.abort_job(job.jobid)
            seen["inflight_after"] = stager._jobs[job.jobid].inflight
            seen["states"] = [
                r.state for r in stager.job_records(job.jobid)
            ]

        # 0.4: interval 1 is inside its 0.5 s stage, 2 and 3 are queued.
        universe.kernel.call_at(0.4, abort)
        universe.run_job_to_completion(job)
        assert all(h.result()["ok"] for h in handles)
        assert seen == {
            "inflight_before": 3,
            "inflight_after": 1,
            "states": ["staging", STAGE_FAILED, STAGE_FAILED],
        }
        r1, r2, r3 = stager.job_records(job.jobid)
        assert r1.state == STAGE_COMMITTED and fake.staged == [1]
        assert r2.error == r3.error == "staging aborted: job failed"
        assert r2.done.fired and r3.done.fired
        assert job.snapshots == []
        assert stager._jobs[job.jobid].inflight == 0
        # the persisted metadata agrees, and the next plan is forced full
        assert read_meta(universe, r2.ref).staging["state"] == STAGE_FAILED
        assert stager.plan_interval(job.jobid)["kind"] == "full"


class TestStageFailure:
    def test_node_death_mid_stage_fails_interval_only(self):
        """A source node dying mid-gather exhausts the retries and marks
        the interval FAILED; restart from it is refused."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        # After the reply (~0.135) but before the gather finishes (~0.3).
        universe.cluster.failures.crash_node_at(0.17, "node03")
        universe.run_job_to_completion(job)
        # The reply had already returned OK; the app was never aborted —
        # it died because its own rank's node crashed, not because of
        # the staging machinery.
        assert handle.result()["ok"]
        ref = checkpoint_ref(handle)
        (stage,) = stage_spans(universe)
        assert stage["attrs"]["ok"] is False
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_FAILED
        assert meta.staging["error"]
        # Never committed: not in the job's usable snapshot list.
        assert job.snapshots == []
        with pytest.raises(RestartError):
            ompi_restart(universe, ref)

    def test_autorecover_uses_last_committed_interval(self):
        """With an earlier committed interval, recovery after a
        mid-stage node death restarts from the committed one."""
        args = dict(CHURN, loops=100)
        expected = churn_baseline(4, args)
        universe = make_universe(
            4,
            params={
                "obs_trace_enabled": "1",
                "orte_errmgr_autorecover": "1",
            },
        )
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        h2 = ompi_checkpoint(universe, job.jobid, at=0.5, wait=False)
        universe.cluster.failures.crash_node_at(0.57, "node03")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        assert h1.result()["ok"] and h2.result()["ok"]
        stages = stage_spans(universe)
        assert stages[0]["attrs"]["ok"] is True
        assert stages[1]["attrs"]["ok"] is False
        # Only the committed interval is recoverable, and it was used.
        assert job.snapshots == [checkpoint_ref(h1)]
        assert universe.hnp.errmgr.recoveries
        recovered = universe.job(universe.hnp.errmgr.recoveries[0][1])
        universe.run_job_to_completion(recovered)
        assert recovered.state.value == "finished"
        assert recovered.results == expected

    def test_restart_of_failed_metadata_refused(self):
        """Even without a live staging record (coordinator restarted),
        FAILED metadata on stable storage refuses the restart."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.cluster.failures.crash_node_at(0.17, "node03")
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        # Forget the in-memory record; the metadata alone must decide.
        universe.hnp.snapc._stager._jobs.clear()
        with pytest.raises(RestartError, match="stable storage"):
            ompi_restart(universe, ref)


class TestIncrementalChain:
    ARGS = dict(CHURN, loops=100)
    PARAMS = {
        "obs_trace_enabled": "1",
        "snapc_full_interval_every": "99",
        "snapc_full_max_chain": "3",
    }

    def take_four(self):
        universe = make_universe(4, params=dict(self.PARAMS))
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.3, 0.5, 0.7)
        ]
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        for handle in handles:
            assert handle.result()["ok"], handle.result()["error"]
        return universe, job, handles

    def test_chain_kinds_and_compaction(self):
        universe, job, handles = self.take_four()
        metas = [
            read_meta(universe, checkpoint_ref(h)) for h in handles
        ]
        # 1 full, 2-3 deltas; 4 would push the chain past max_chain=3,
        # so it was compacted back to a full image during its commit.
        assert [m.kind for m in metas] == ["full", "delta", "delta", "full"]
        assert metas[1].base_interval == 1
        assert metas[2].base_interval == 2
        assert len(metas[1].base_chain) == 1
        assert len(metas[2].base_chain) == 2
        assert metas[3].base_chain == []
        assert metas[3].base_interval is None
        # Compacted interval carries a standalone image per rank.
        stable = universe.cluster.stable_fs
        ref4 = checkpoint_ref(handles[3])
        for rank in range(4):
            assert stable.exists(f"{ref4.local_dir(rank)}/image.pkl")
        # Deltas move a small fraction of the full interval's bytes.
        stages = stage_spans(universe)
        full_bytes = stages[0]["attrs"]["bytes"]
        for delta in stages[1:3]:
            assert delta["attrs"]["bytes"] < 0.5 * full_bytes

    def test_restart_through_base_plus_two_deltas(self):
        expected = churn_baseline(4, self.ARGS)
        universe, job, handles = self.take_four()
        # Interval 3 = full base + 2 delta overlays.
        new_job = ompi_restart(universe, checkpoint_ref(handles[2]))
        assert new_job.state.value == "finished"
        assert new_job.results == expected

    def test_restart_of_compacted_interval(self):
        expected = churn_baseline(4, self.ARGS)
        universe, job, handles = self.take_four()
        new_job = ompi_restart(universe, checkpoint_ref(handles[3]))
        assert new_job.state.value == "finished"
        assert new_job.results == expected

    def test_shared_filem_incremental_restart(self):
        """Direct-to-stable snapshots restart through their chain too."""
        expected = churn_baseline(4, self.ARGS)
        params = dict(self.PARAMS, filem="shared")
        universe = make_universe(4, params=params)
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.4)
        ]
        universe.run_job_to_completion(job)
        for handle in handles:
            assert handle.result()["ok"], handle.result()["error"]
        meta = read_meta(universe, checkpoint_ref(handles[1]))
        assert meta.kind == "delta"
        new_job = ompi_restart(universe, checkpoint_ref(handles[1]))
        assert new_job.state.value == "finished"
        assert new_job.results == expected


class _TreeCase:
    """Interval 3 is a delta on 2 on 1: losing interval 2's directory
    breaks the chain of 3 and leaves only 1 usable."""

    params = {"snapc_full_interval_every": "3"}
    checkpoints_at = (0.1, 0.35, 0.6)
    why = "broken base chain"

    @staticmethod
    def break_newest(universe, job):
        yield from universe.cluster.stable_fs.remove_tree(job.snapshots[1].path)


class _CasCase:
    """Interval 2 loses a chunk only it references; interval 1 shares
    none of the damage."""

    params = {"snapc_full_cas": "1", "filem": "rsh"}
    checkpoints_at = (0.1, 0.5)
    why = "absent from the store"

    @staticmethod
    def break_newest(universe, job):
        stable = universe.cluster.stable_fs
        store = universe.hnp.snapc.stager(universe.hnp).backends[True].store
        ref1, ref2 = job.snapshots
        held = set()
        for rank in range(4):
            manifest = yield from chunkstore.read_manifest(
                stable, ref1.local_dir(rank)
            )
            held.update(manifest.hashes)
        manifest = yield from chunkstore.read_manifest(stable, ref2.local_dir(0))
        unique = [d for d in manifest.hashes if d not in held]
        assert unique, "interval 2 shares every chunk with interval 1"
        yield from stable.remove(store.blob_path(unique[0]))


@pytest.mark.parametrize("case", [_TreeCase, _CasCase], ids=["tree", "cas"])
class TestUnusableInterval:
    """What every backend owes recovery: a COMMITTED interval whose
    bytes have since gone is named unusable, refused by restart, and
    walked back past — for this episode only, nothing is blacklisted."""

    ARGS = dict(CHURN, loops=200)  # ~2 sim-seconds of runtime

    def test_named_refused_and_walked_back_past(self, case):
        universe = make_universe(4, params=case.params)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        for at in case.checkpoints_at:
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        universe.run_job_to_completion(job)
        assert len(job.snapshots) == len(case.checkpoints_at)
        oldest, newest = job.snapshots[0], job.snapshots[-1]
        hnp = universe.hnp

        def usable(ref):
            return run_gen(
                universe.kernel, hnp.snapc.usable_snapshot(hnp, ref, set())
            )

        assert usable(newest)[1] is None
        run_gen(universe.kernel, case.break_newest(universe, job))
        meta, why = usable(newest)
        assert meta is None and case.why in why
        with pytest.raises(RestartError):
            ompi_restart(universe, newest)
        picked = run_gen(universe.kernel, hnp.errmgr._pick_snapshot(job))
        assert picked is not None and picked.ref == oldest
        assert ompi_restart(universe, oldest).state.value == "finished"

    def test_tool_restart_is_refused_before_a_job_exists(self, case):
        """``ompi-restart`` asks the same check recovery does, before it
        builds anything: the refused restart adds no job and starts no
        preload (a tree delta's broken base chain included)."""
        universe = make_universe(4, params=case.params)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        for at in case.checkpoints_at:
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        universe.run_job_to_completion(job)
        run_gen(universe.kernel, case.break_newest(universe, job))
        jobs, filem, preloads = set(universe.jobs), universe.hnp.filem, []
        for op in ("broadcast", "fetch_chunks"):
            setattr(filem, op, lambda *args, op=op: preloads.append(op))
        with pytest.raises(RestartError, match=case.why):
            ompi_restart(universe, job.snapshots[-1])
        assert set(universe.jobs) == jobs and preloads == []
        assert restart_staging(universe) == set()

    def test_autorecover_walks_back_past_it(self, case):
        """Recovery pre-verifies: the damaged interval costs no restart
        attempt and the walk-back lands on the older intact one."""
        universe = make_universe(
            4, params=dict(case.params, orte_errmgr_autorecover="1")
        )
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        for at in case.checkpoints_at:
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        universe.kernel.call_at(
            0.8,
            lambda: universe.hnp.proc.spawn_thread(
                case.break_newest(universe, job), name="sabotage", daemon=True
            ),
        )
        universe.cluster.failures.crash_node_at(0.9, "node03")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        [record] = errmgr.recovery_log
        assert record.recovered and record.attempts == 1
        assert parse_global_dirname(record.snapshot) == (job.jobid, 1)
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"
