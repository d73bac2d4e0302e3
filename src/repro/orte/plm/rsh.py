"""``rsh`` PLM component: remote-shell launch.

Each node contact opens an rsh/ssh session (tens of milliseconds), at
most eight at once, like Open MPI's ``plm_rsh_num_concurrent`` default.
"""

from __future__ import annotations

from repro.mca.component import component_of
from repro.mca.params import Param
from repro.orte.plm.base import PLMComponent

SESSION_COST = Param("plm_rsh_session_cost", 0.030, "rsh launch session latency (s)")


@component_of("plm", "rsh", priority=10)
class RshPLM(PLMComponent):
    max_concurrency = 8

    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.per_node_cost_s = SESSION_COST.read(self.params)
