"""Universe-level admission control for checkpoint staging traffic.

Multi-job universes used to give every job a private staging pipeline:
each job's FIFO worker respected only its own ``snapc_full_stage_depth``,
so ten jobs could aggregate ten intervals at once as if stable storage
scaled with the job count (and ``filem_rsh_max_concurrent`` bounds
transfers *within* one FILEM call, not across jobs).  The
:class:`StagingAdmission` gate restores the shared-medium reality: a
token bucket bounds how many staging transfers may touch stable storage
concurrently across **all** jobs of the universe
(``snapc_stage_admission_tokens``; 0 = unlimited, the default), so a
burst of checkpoints from one job back-pressures every other job's
drain the way a shared RAID head does.

Waiters are woken strictly FIFO — a freed token is handed directly to
the oldest queued transfer, never returned to the pool while anyone
waits, so a chatty job cannot starve a quiet one.  A job that dies with
tokens held has them force-released (:meth:`release_job`, called from
the staging coordinator's ``abort_job``), so a crashed job cannot leak
the universe's staging capacity; the holder's own later ``release``
then becomes a no-op.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.simenv.kernel import SimGen, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel, SimEvent


class StagingAdmission:
    """Token-bucket gate over staging transfers."""

    def __init__(self, kernel: "Kernel", tokens: int = 0):
        self.kernel = kernel
        #: concurrent-transfer budget (0 = unlimited)
        self.tokens = max(0, int(tokens))
        self._available = self.tokens
        #: tokens currently held, per jobid
        self._held: dict[int, int] = {}
        #: FIFO of ``(event, jobid)`` waiting for a token
        self._waiters: deque[tuple["SimEvent", int]] = deque()
        # counters (meta-reports, tests)
        self.admitted = 0
        self.queued = 0

    @property
    def unlimited(self) -> bool:
        return self.tokens <= 0

    def held_by(self, jobid: int) -> int:
        return self._held.get(jobid, 0)

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    # -- token bucket --------------------------------------------------------

    def acquire(self, jobid: int) -> SimGen:
        """Block until a transfer token is granted to *jobid*.

        Immediate when unlimited or a token is free with nobody queued
        (no kernel event is posted, so the default configuration leaves
        event traces byte-identical).
        """
        if self.unlimited:
            return None
        if self._available > 0 and not self._waiters:
            self._available -= 1
            self._held[jobid] = self._held.get(jobid, 0) + 1
            self.admitted += 1
            return None
        event = self.kernel.event(f"snapc.admission.job{jobid}")
        self._waiters.append((event, jobid))
        self.queued += 1
        span = self.kernel.tracer.begin(
            "snapc.admission", cat="snapc", jobid=jobid
        )
        t0 = self.kernel.now
        yield WaitEvent(event)
        span.end(waited_s=self.kernel.now - t0)
        self.admitted += 1
        return None

    def release(self, jobid: int) -> None:
        """Return *jobid*'s token; hand it straight to the oldest waiter.

        A no-op when the job holds nothing — either admission is
        unlimited, or :meth:`release_job` already force-released after
        the job died (the double-release guard).
        """
        held = self._held.get(jobid, 0)
        if held <= 0:
            return
        if held == 1:
            del self._held[jobid]
        else:
            self._held[jobid] = held - 1
        self._grant_next()

    def _grant_next(self) -> None:
        if self._waiters:
            event, next_job = self._waiters.popleft()
            # Direct handoff: the token never touches the pool, so FIFO
            # order cannot be jumped by a fresh acquire at the same time.
            self._held[next_job] = self._held.get(next_job, 0) + 1
            if not event.fired:
                event.fire(None)
        else:
            self._available = min(self.tokens, self._available + 1)

    def release_job(self, jobid: int) -> int:
        """Free every token *jobid* holds (job death); returns the count.

        Queued waiters of the dead job are left queued: they are granted
        in turn and their staging then fails fast against the aborted
        pipeline, releasing the token again — simpler than surgically
        unlinking them, and the FIFO stays intact.
        """
        freed = self._held.pop(jobid, 0)
        for _ in range(freed):
            self._grant_next()
        return freed

    def holders(self) -> list[int]:
        """Jobids currently holding tokens (diagnostics, failover)."""
        return sorted(j for j, n in self._held.items() if n > 0)

    def reclaim_all(self) -> int:
        """HNP failover: return every held token to the pool.

        Every holder and every queued waiter was a thread of the dead
        HNP process, so unlike :meth:`release_job` the freed tokens
        must *not* be handed to waiters — those threads will never run
        again, and a direct handoff would park the capacity on a corpse
        forever.  Clears the holder table and the waiter FIFO and
        refills the pool; returns how many tokens were reclaimed.
        """
        reclaimed = sum(self._held.values())
        self._held.clear()
        self._waiters.clear()
        self._available = self.tokens
        return reclaimed
