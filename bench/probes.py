"""Probes: direct timed calls into one layer's public functions.

No stack around them — each probe builds the smallest fixture its layer
needs, repeats a fixed piece of that layer's work, and reports work per
user-CPU-second.  A probe that moves while its workload's
``host_user_cpu_s`` does not says the layer was not on that workload's
blocking path.
"""

from __future__ import annotations

import gc
import random
import resource
from typing import Callable

from repro import Cluster, ClusterSpec, MCAParams
from repro.opal.crs.chunks import (
    DEFAULT_CHUNK_BYTES,
    ChunkManifest,
    hash_chunk,
    split_chunks,
)
from repro.orte.oob import RML
from repro.orte.universe import Universe
from repro.simenv.kernel import Delay, Kernel
from repro.simenv.process import SimProcess
from repro.snapshot import (
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    read_global_meta,
    write_global_meta,
)
from repro.util.ids import ProcessName
from repro.vfs.cas import ChunkStore, chunk_digest
from repro.vfs.sharedfs import SharedFS

MIB = 1 << 20
#: jobid of the probe's own echo processes (clear of daemons and tools)
PROBE_JOBID = 777


def per_cpu_second(work: float, fn: Callable[[], None], min_cpu_s: float) -> float:
    """*work* units per second of user CPU spent inside *fn*, which is
    called again until *min_cpu_s* has been spent: ``ru_utime`` ticks in
    milliseconds, so one short call would measure the tick."""
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    calls, spent = 0, 0.0
    while spent < min_cpu_s or calls == 0:
        fn()
        calls += 1
        spent = resource.getrusage(resource.RUSAGE_SELF).ru_utime - before
    return calls * work / spent if spent > 0 else float("inf")


def run_sim(kernel: Kernel, gen) -> object:
    return kernel.run_until_complete(kernel.spawn(gen, name="bench-probe"))


def kernel_events(zero_delay: bool) -> tuple[float, Callable[[], None]]:
    """200 threads x 500 delays: all ``Delay(0)`` (ready deque) or
    staggered positive delays (the heap) — one scheduler, both ways."""

    def worker(index: int):
        pause = 0.0 if zero_delay else 1e-6 * (index + 1)
        for _ in range(500):
            yield Delay(pause)

    def work():
        kernel = Kernel()
        for index in range(200):
            kernel.spawn(worker(index), name=f"w{index}")
        kernel.run()

    return 200 * 500, work


def crs_hash_mib() -> tuple[float, Callable[[], None]]:
    blob = random.Random(1).randbytes(16 * MIB)

    def work():
        for chunk in split_chunks(blob, DEFAULT_CHUNK_BYTES):
            hash_chunk(chunk)

    return len(blob) / MIB, work


def crs_manifest_roundtrips() -> tuple[float, Callable[[], None]]:
    rng = random.Random(2)
    hashes = [hash_chunk(rng.randbytes(32)) for _ in range(2048)]
    manifest = ChunkManifest(
        kind="full",
        chunk_bytes=32,
        total_bytes=32 * len(hashes),
        hashes=hashes,
        present=list(range(len(hashes))),
    )

    def work():
        if ChunkManifest.from_json(manifest.to_json()).hashes != hashes:
            raise RuntimeError("manifest round trip changed the hashes")

    return 1, work


def cas_put_get_mib() -> tuple[float, Callable[[], None]]:
    rng = random.Random(3)
    blobs = [rng.randbytes(DEFAULT_CHUNK_BYTES) for _ in range(64)]
    chunks = [(chunk_digest(blob), blob) for blob in blobs]

    def work():
        kernel = Kernel()
        store = ChunkStore(SharedFS(kernel))

        def session():
            yield from store.put_many(chunks)
            back = yield from store.get_many([digest for digest, _ in chunks])
            return back

        if run_sim(kernel, session()) != blobs:
            raise RuntimeError("chunk store returned different bytes")

    return 2 * sum(map(len, blobs)) / MIB, work


def fs_files() -> tuple[float, Callable[[], None]]:
    items = [(f"/probe/d{i % 10}/f{i}.bin", bytes([i % 256]) * 64) for i in range(1000)]
    paths = [path for path, _ in items]
    datas = [data for _, data in items]

    def work():
        kernel = Kernel()
        fs = SharedFS(kernel)

        def session():
            yield from fs.write_many(items)
            back = yield from fs.read_many(paths)
            return back

        if run_sim(kernel, session()) != datas:
            raise RuntimeError("filesystem returned different bytes")

    return len(items), work


def statestore_records() -> tuple[float, Callable[[], None]]:
    def work():
        universe = Universe(
            Cluster(ClusterSpec(n_nodes=2)), MCAParams({"orte_hnp_failover": "1"})
        )
        store = universe.statestore
        for index in range(1000):
            store.put("probe", str(index % 50), {"index": index, "state": "committed"})

        def session():
            yield from store.flush()
            tables = yield from store.replay()
            return tables

        if len(run_sim(universe.kernel, session()).get("probe", {})) != 50:
            raise RuntimeError("state store replay lost records")

    return 1000, work


def oob_rpcs() -> tuple[float, Callable[[], None]]:
    universe = Universe(Cluster(ClusterSpec(n_nodes=2)))
    procs = []
    for vpid, node in enumerate(universe.cluster.nodes):
        proc = SimProcess(node, ProcessName(PROBE_JOBID, vpid), label=f"probe{vpid}")
        universe.register(proc)
        procs.append(proc)
    client, server = RML(universe, procs[0]), RML(universe, procs[1])

    def serve():
        while True:
            sender, request = yield from server.recv("probe.echo")
            yield from server.send(
                sender, "probe.reply", server.reply_to(request, {"n": request["n"]})
            )

    procs[1].spawn_thread(serve(), name="echo", daemon=True)

    def work():
        def session():
            for n in range(500):
                _, reply = yield from client.rpc(
                    procs[1].name, "probe.echo", {"n": n}, "probe.reply"
                )
                if reply["n"] != n:
                    raise RuntimeError("rpc echo returned the wrong payload")

        run_sim(universe.kernel, session())

    return 500, work


def netsim_datagrams() -> tuple[float, Callable[[], None]]:
    cluster = Cluster(ClusterSpec(n_nodes=2))
    fabric = cluster.eth
    src = fabric.bind(cluster.nodes[0].name, "probe.src")
    dst = fabric.bind(cluster.nodes[1].name, "probe.dst")

    def work():
        def sender():
            for n in range(2000):
                yield from fabric.send(src, dst, n, 64)

        def receiver():
            for n in range(2000):
                dgram = yield from fabric.recv(dst)
                if dgram.payload != n:
                    raise RuntimeError("datagram arrived out of order")

        cluster.kernel.spawn(sender(), name="probe-send")
        run_sim(cluster.kernel, receiver())

    return 2000, work


def snapshot_meta_roundtrips() -> tuple[float, Callable[[], None]]:
    meta = GlobalSnapshotMeta(
        jobid=1,
        interval=1,
        n_procs=16,
        sim_time=1.0,
        app_name="churn",
        app_args={"loops": 800, "state_bytes": MIB},
        mca_params={"filem": "rsh", "snapc_full_interval_every": "3"},
        locals={
            rank: {
                "path": f"/snapshots/ompi_global_snapshot_1.1/rank{rank}",
                "node": f"node{rank % 8:02d}",
                "crs": "simcr",
                "os_tag": "linux-x86_64",
            }
            for rank in range(16)
        },
    )

    def work():
        kernel = Kernel()
        fs = SharedFS(kernel)

        def session():
            for interval in range(50):
                ref = GlobalSnapshotRef(f"/snapshots/ompi_global_snapshot_1.{interval}")
                yield from write_global_meta(fs, ref, meta)
                back = yield from read_global_meta(fs, ref)
                if back.locals != meta.locals:
                    raise RuntimeError("global metadata round trip changed")

        run_sim(kernel, session())

    return 50, work


#: name -> (unit of work, fixture); a fixture returns ``(work per call, call)``
PROBES: dict[str, tuple[str, Callable[[], tuple[float, Callable[[], None]]]]] = {
    "probe.simenv.kernel.ready_events": ("events", lambda: kernel_events(True)),
    "probe.simenv.kernel.heap_events": ("events", lambda: kernel_events(False)),
    "probe.opal.crs.hash_mib": ("MiB", crs_hash_mib),
    "probe.opal.crs.manifest_roundtrips": ("roundtrips", crs_manifest_roundtrips),
    "probe.vfs.cas.put_get_mib": ("MiB", cas_put_get_mib),
    "probe.vfs.fs.files": ("files", fs_files),
    "probe.orte.statestore.records": ("records", statestore_records),
    "probe.orte.oob.rpcs": ("rpcs", oob_rpcs),
    "probe.netsim.datagrams": ("datagrams", netsim_datagrams),
    "probe.snapshot.meta_roundtrips": ("roundtrips", snapshot_meta_roundtrips),
}


def run_probes(min_cpu_s: float) -> dict[str, float]:
    """Every probe's rate; each spends at least *min_cpu_s* of user CPU."""
    return {
        name: per_cpu_second(*fixture(), min_cpu_s)
        for name, (_unit, fixture) in PROBES.items()
    }
