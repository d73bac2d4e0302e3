"""Application kit and sample workloads.

Applications are generator functions ``main(ctx)`` that *yield*
:class:`repro.ompi.ops.MPIOp` descriptors (built via the
:class:`AppContext` API) and compose helper generators with
``yield from``.  They are registered by name
(:mod:`repro.apps.registry`) so that global snapshot metadata can name
them and ``ompi-restart`` can re-instantiate them.
"""

from repro.apps.appkit import AppContext, AppRunner
from repro.apps.registry import app, get_app, has_app, registered_apps

__all__ = [
    "AppContext",
    "AppRunner",
    "app",
    "get_app",
    "has_app",
    "registered_apps",
]

# Importing the workload modules registers them.
from repro.apps import churn, jacobi, master_worker, netpipe, pi, ring  # noqa: E402,F401
