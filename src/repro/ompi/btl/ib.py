"""``ib`` BTL: InfiniBand transport; NOT checkpointable.

HCA/queue-pair state lives outside the process image, so this BTL must
be torn down before a checkpoint and re-established on continue/restart
— the concrete case behind the paper's statement that the PML
``ft_event`` involves "shutting down interconnect libraries that cannot
be checkpointed and reconnecting peers when restarting in new process
topologies" (section 6.3).
"""

from __future__ import annotations

from repro.mca.component import component_of
from repro.ompi.btl.base import BTLComponent


@component_of("btl", "ib", priority=50)
class IbBTL(BTLComponent):
    fabric_name = "ib"
    checkpointable = False
