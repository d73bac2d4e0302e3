"""1-D Jacobi heat diffusion with halo exchange.

The canonical long-running HPC workload the paper's fault tolerance
targets: iterative stencil sweeps, nearest-neighbour halo exchanges,
periodic residual allreduce, and optional periodic checkpoints.  The
domain state lives in NumPy arrays — real bytes on the simulated wire
and in the process image.
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import app
from repro.ompi.coll.base import MAX

TAG_LEFT = 11
TAG_RIGHT = 12


@app("jacobi")
def jacobi_main(ctx):
    """args: n_global (default 1024), iters (default 50),
    checkpoint_every (optional int: rank 0 checkpoints every N iters),
    tol (optional float: stop early when residual < tol),
    iter_compute_s (optional: override per-iteration compute time)."""
    n_global = int(ctx.args.get("n_global", 1024))
    iters = int(ctx.args.get("iters", 50))
    checkpoint_every = ctx.args.get("checkpoint_every")
    tol = ctx.args.get("tol")
    iter_compute_s = ctx.args.get("iter_compute_s")
    rank, size = ctx.rank, ctx.size

    n_local = n_global // size + (1 if rank < n_global % size else 0)
    step_s = max(n_local, 1) * 2e-9 if iter_compute_s is None else float(iter_compute_s)
    # Local slab with two ghost cells; fixed boundary values 1.0 / 0.0.
    u = np.zeros(n_local + 2, dtype=np.float64)
    if rank == 0:
        u[0] = 1.0

    residual = np.inf
    completed = 0
    for it in range(iters):
        # Halo exchange with neighbours.
        reqs = []
        if rank > 0:
            reqs.append((yield ctx.isend(u[1:2].copy(), rank - 1, TAG_LEFT)))
            right_req = yield ctx.irecv(rank - 1, TAG_RIGHT)
        if rank < size - 1:
            reqs.append((yield ctx.isend(u[-2:-1].copy(), rank + 1, TAG_RIGHT)))
            left_req = yield ctx.irecv(rank + 1, TAG_LEFT)
        if rank > 0:
            result = yield ctx.wait(right_req)
            u[0] = result[0][0]
        if rank < size - 1:
            result = yield ctx.wait(left_req)
            u[-1] = result[0][0]
        yield from ctx.waitall(reqs)

        # Sweep (~2 flops/cell at 1 GFLOP/s effective).
        new_interior = 0.5 * (u[:-2] + u[2:])
        residual = float(np.max(np.abs(new_interior - u[1:-1]))) if n_local else 0.0
        u[1:-1] = new_interior
        yield ctx.compute(seconds=step_s)
        completed = it + 1

        if tol is not None and it % 10 == 9:
            residual = yield from ctx.allreduce(residual, op=MAX)
            if residual < float(tol):
                break
        if (
            checkpoint_every
            and rank == 0
            and (it + 1) % int(checkpoint_every) == 0
            and it + 1 < iters
        ):
            yield ctx.checkpoint()

    checksum = float(u[1:-1].sum()) if n_local else 0.0
    total = yield from ctx.allreduce(checksum)
    return {
        "rank": rank,
        "iters": completed,
        "checksum": total,
        "residual": residual,
    }
