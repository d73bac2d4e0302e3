"""``slurm`` PLM component: batch-scheduler launch.

One cheap allocation call covers all nodes (the scheduler already has
daemons everywhere), so node contacts are fast and fully concurrent.
Selected automatically when the environment advertises a SLURM
allocation (``plm_slurm_jobid`` parameter set), mirroring Open MPI's
environment-sensing selection.
"""

from __future__ import annotations

from repro.mca.component import component_of
from repro.orte.plm.base import PLMComponent


@component_of("plm", "slurm", priority=20)
class SlurmPLM(PLMComponent):
    per_node_cost_s = 0.005  # one slurm step
    max_concurrency = 64

    def query(self, context: object | None = None) -> bool:
        return "plm_slurm_jobid" in self.params
