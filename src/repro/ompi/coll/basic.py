"""``basic`` collective component: textbook algorithms over p2p.

Tree-based broadcast/reduce (binomial), dissemination barrier, ring
allgather, linear gather/scatter/alltoall, linear scan.  The bcast
algorithm can be forced to ``linear`` via ``coll_basic_bcast_algorithm``
for the algorithm-choice ablation bench.
"""

from __future__ import annotations

from typing import Any

from repro.mca.component import component_of
from repro.mca.params import Param
from repro.ompi.coll.base import (
    SUM,
    TAG_ALLGATHER,
    TAG_ALLTOALL,
    TAG_BARRIER,
    TAG_BCAST,
    TAG_GATHER,
    TAG_REDUCE,
    TAG_SCAN,
    TAG_SCATTER,
    CollComponent,
)
from repro.ompi.datatype import copy_payload
from repro.ompi.ops import OpIRecv, OpISend, OpWait
from repro.util.errors import MPIError

BCAST_ALGORITHM = Param("coll_basic_bcast_algorithm", "binomial", "bcast: binomial|linear")


def _send(comm, dst, tag, payload):
    """Blocking send as a sub-generator (isend + wait)."""
    req = yield OpISend(comm, dst, tag, payload)
    yield OpWait(req)
    return None


def _recv(comm, src, tag):
    """Blocking recv as a sub-generator; returns the payload."""
    req = yield OpIRecv(comm, src, tag)
    result = yield OpWait(req)
    payload, _status = result
    return payload


@component_of("coll", "basic", priority=10)
class BasicColl(CollComponent):
    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.bcast_algorithm = BCAST_ALGORITHM.read(self.params)

    # -- barrier: dissemination --------------------------------------------------

    def barrier(self, comm):
        size, rank = comm.size, comm.rank
        if size == 1:
            return None
        distance = 1
        while distance < size:
            dst = (rank + distance) % size
            src = (rank - distance) % size
            send_req = yield OpISend(comm, dst, TAG_BARRIER, None)
            recv_req = yield OpIRecv(comm, src, TAG_BARRIER)
            yield OpWait(send_req)
            yield OpWait(recv_req)
            distance *= 2
        return None

    # -- bcast ---------------------------------------------------------------------

    def bcast(self, comm, value: Any, root: int = 0):
        size, rank = comm.size, comm.rank
        if size == 1:
            return value
        if not (0 <= root < size):
            raise MPIError(f"bcast: bad root {root}")
        if self.bcast_algorithm == "linear":
            if rank == root:
                for dst in range(size):
                    if dst != root:
                        yield from _send(comm, dst, TAG_BCAST, value)
                return value
            received = yield from _recv(comm, root, TAG_BCAST)
            return received
        # Binomial tree on virtual ranks (root -> vrank 0), MPICH style:
        # receive from the parent across the lowest set bit, then send
        # to children across decreasing bit positions.
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = (rank - mask) % size
                value = yield from _recv(comm, parent, TAG_BCAST)
                break
            mask *= 2
        mask //= 2
        while mask > 0:
            if vrank + mask < size:
                child = (rank + mask) % size
                yield from _send(comm, child, TAG_BCAST, value)
            mask //= 2
        return value

    # -- reduce ---------------------------------------------------------------------

    def reduce(self, comm, value: Any, op=SUM, root: int = 0):
        size, rank = comm.size, comm.rank
        if size == 1:
            return copy_payload(value)
        if not (0 <= root < size):
            raise MPIError(f"reduce: bad root {root}")
        acc = copy_payload(value)
        # Binomial tree fold toward vrank 0.
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = ((vrank & ~mask) + root) % size
                yield from _send(comm, parent, TAG_REDUCE, acc)
                return None
            vchild = vrank | mask
            if vchild < size:
                child = (vchild + root) % size
                contrib = yield from _recv(comm, child, TAG_REDUCE)
                acc = op(acc, contrib)
            mask *= 2
        return acc if rank == root else None

    # -- allreduce: reduce + bcast ------------------------------------------------

    def allreduce(self, comm, value: Any, op=SUM):
        reduced = yield from self.reduce(comm, value, op=op, root=0)
        result = yield from self.bcast(comm, reduced, root=0)
        return result

    # -- gather / scatter (linear) -----------------------------------------------

    def gather(self, comm, value: Any, root: int = 0):
        size, rank = comm.size, comm.rank
        if rank == root:
            out: list[Any] = [None] * size
            out[root] = copy_payload(value)
            for src in range(size):
                if src == root:
                    continue
                out[src] = yield from _recv(comm, src, TAG_GATHER)
            return out
        yield from _send(comm, root, TAG_GATHER, value)
        return None

    def scatter(self, comm, values, root: int = 0):
        size, rank = comm.size, comm.rank
        if rank == root:
            if values is None or len(values) != size:
                raise MPIError(
                    f"scatter: root needs a list of {size} values"
                )
            for dst in range(size):
                if dst != root:
                    yield from _send(comm, dst, TAG_SCATTER, values[dst])
            return copy_payload(values[root])
        received = yield from _recv(comm, root, TAG_SCATTER)
        return received

    # -- allgather (ring) ------------------------------------------------------------

    def allgather(self, comm, value: Any):
        size, rank = comm.size, comm.rank
        out: list[Any] = [None] * size
        out[rank] = copy_payload(value)
        if size == 1:
            return out
        right = (rank + 1) % size
        left = (rank - 1) % size
        current = value
        for step in range(size - 1):
            send_req = yield OpISend(comm, right, TAG_ALLGATHER, current)
            incoming = yield from _recv(comm, left, TAG_ALLGATHER)
            yield OpWait(send_req)
            src_rank = (rank - step - 1) % size
            out[src_rank] = incoming
            current = incoming
        return out

    # -- alltoall (posted-all linear) -------------------------------------------------

    def alltoall(self, comm, values):
        size, rank = comm.size, comm.rank
        if values is None or len(values) != size:
            raise MPIError(f"alltoall: needs a list of {size} values")
        out: list[Any] = [None] * size
        out[rank] = copy_payload(values[rank])
        recv_reqs: dict[int, int] = {}
        send_reqs: list[int] = []
        for peer in range(size):
            if peer == rank:
                continue
            recv_reqs[peer] = yield OpIRecv(comm, peer, TAG_ALLTOALL)
        for peer in range(size):
            if peer == rank:
                continue
            send_reqs.append((yield OpISend(comm, peer, TAG_ALLTOALL, values[peer])))
        for peer, req in recv_reqs.items():
            result = yield OpWait(req)
            out[peer] = result[0]
        for req in send_reqs:
            yield OpWait(req)
        return out

    # -- scan (linear pipeline) -----------------------------------------------------

    def scan(self, comm, value: Any, op=SUM):
        size, rank = comm.size, comm.rank
        acc = copy_payload(value)
        if rank > 0:
            prefix = yield from _recv(comm, rank - 1, TAG_SCAN)
            acc = op(prefix, acc)
        if rank + 1 < size:
            yield from _send(comm, rank + 1, TAG_SCAN, acc)
        return acc
