"""The layer map: which file is which layer, for profiles and call counts.

Layers are this repo's modules.  Every ``src/repro/**/*.py`` belongs to
exactly one of the 30 repo layers below; :func:`check_complete` fails,
listing the files, when one is unmapped or doubly mapped, so a new
module cannot fall silently into ``std.other``.  Host work outside the
repo is bucketed into five ``std.*`` families plus ``bench`` (this
directory's own frames).
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
from fnmatch import fnmatchcase

#: layer -> patterns over paths relative to ``src/repro`` (``*`` crosses ``/``)
REPO_LAYERS: dict[str, tuple[str, ...]] = {
    "simenv.kernel": ("simenv/kernel.py",),
    "simenv.cluster": (
        "simenv/__init__.py", "simenv/cluster.py", "simenv/node.py",
        "simenv/process.py", "simenv/rng.py",
    ),
    "simenv.faults": ("simenv/failure.py", "simenv/campaign.py"),
    "netsim": ("netsim/*",),
    "vfs.fs": (
        "vfs/__init__.py", "vfs/fsbase.py", "vfs/localfs.py",
        "vfs/sharedfs.py", "vfs/path.py",
    ),
    "vfs.transfer": ("vfs/transfer.py",),
    "vfs.cas": ("vfs/cas.py",),
    "mca": ("mca/*",),
    "core": ("core/*",),
    "opal.crs": ("opal/crs/*",),
    "opal.layer": ("opal/__init__.py", "opal/layer.py"),
    "orte.oob": ("orte/oob.py",),
    "orte.plm": ("orte/plm/*",),
    "orte.runtime": (
        "orte/__init__.py", "orte/hnp.py", "orte/orted.py", "orte/universe.py",
        "orte/job.py", "orte/proc_layer.py",
    ),
    "orte.snapc": ("orte/snapc/*",),
    "orte.filem": ("orte/filem/*",),
    "orte.errmgr": ("orte/errmgr.py",),
    "orte.scheduler": ("orte/scheduler.py",),
    "orte.statestore": ("orte/statestore.py",),
    "ompi.pml": ("ompi/pml/*",),
    "ompi.btl": ("ompi/btl/*",),
    "ompi.crcp": ("ompi/crcp/*",),
    "ompi.coll": ("ompi/coll/*",),
    "ompi.core": (
        "ompi/__init__.py", "ompi/request.py", "ompi/ops.py",
        "ompi/communicator.py", "ompi/datatype.py", "ompi/group.py",
        "ompi/layer.py", "ompi/constants.py", "ompi/status.py",
        "ompi/errors_map.py", "ompi/launch.py",
    ),
    "apps": ("apps/*",),
    "snapshot": ("snapshot.py",),
    "obs": ("obs/*",),
    "fleet": ("fleet/*",),
    "tools": ("tools/*", "bench/*"),
    "util": ("util/*", "__init__.py"),
}

STD_LAYERS = ("std.pickle", "std.hashlib", "std.json", "std.numpy", "std.other")
ALL_LAYERS = (*REPO_LAYERS, *STD_LAYERS, "bench")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src", "repro")


def layers_of(relpath: str) -> list[str]:
    """Every repo layer whose patterns match *relpath* (want exactly one)."""
    return [
        layer
        for layer, patterns in REPO_LAYERS.items()
        if any(fnmatchcase(relpath, pattern) for pattern in patterns)
    ]


def check_complete(repro_dir: str = REPRO_DIR) -> dict[str, str]:
    """Map every source file to its layer; raise if the map has a hole."""
    mapping, unmapped, doubled = {}, [], []
    for dirpath, _dirs, files in os.walk(repro_dir):
        for name in files:
            if not name.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(dirpath, name), repro_dir)
            relpath = relpath.replace(os.sep, "/")
            found = layers_of(relpath)
            if not found:
                unmapped.append(relpath)
            elif len(found) > 1:
                doubled.append(f"{relpath} -> {', '.join(found)}")
            else:
                mapping[relpath] = found[0]
    if unmapped or doubled:
        raise RuntimeError(
            "bench/layers.py is out of date: "
            f"unmapped files {sorted(unmapped)}; doubly mapped {sorted(doubled)}"
        )
    return mapping


class LayerMap:
    """Resolve a code object's file (and a builtin's name) to a layer."""

    def __init__(self) -> None:
        self._by_relpath = check_complete()
        self._cache: dict[tuple[str, str], str] = {}

    def layer(self, filename: str, funcname: str = "") -> str:
        key = (filename, funcname if filename == "~" else "")
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = self._resolve(filename, funcname)
        return found

    def _resolve(self, filename: str, funcname: str) -> str:
        if filename.startswith(REPRO_DIR + os.sep):
            relpath = filename[len(REPRO_DIR) + 1 :].replace(os.sep, "/")
            return self._by_relpath[relpath]
        if filename.startswith(BENCH_DIR + os.sep):
            return "bench"
        # cProfile files builtins under "~" and names them by module
        text = (funcname if filename == "~" else filename).lower()
        text = text.replace(os.sep, "/")
        if "pickle" in text:
            return "std.pickle"
        if "hashlib" in text or "sha256" in text or "_hashlib" in text:
            return "std.hashlib"
        if "/json/" in text or "_json" in text:
            return "std.json"
        if "numpy" in text:
            return "std.numpy"
        return "std.other"


def cpu_shares(profile: cProfile.Profile, layer_map: LayerMap) -> dict[str, float]:
    """Share of profiled self time (``tottime``) per layer; sums to 1.

    Raw cProfile numbers: the profiler charges every call but not the
    work inside native code, so call-heavy Python layers (the simulator
    kernel) read larger against native payload work (hashing, pickling)
    than they cost unwatched.  A share finds where the time goes;
    ``host_user_cpu_s``, measured with the profiler off, says how much.
    """
    totals = dict.fromkeys(ALL_LAYERS, 0.0)
    for (filename, _line, funcname), row in pstats.Stats(profile).stats.items():
        totals[layer_map.layer(filename, funcname)] += row[2]
    whole = sum(totals.values())
    return {layer: value / whole for layer, value in totals.items()}


def count_calls(fn, layer_map: LayerMap) -> dict[str, int]:
    """Python function activations per layer while *fn* runs.

    The cyclic collector is off meanwhile: when it fires depends on the
    process's allocation history, and the generators it finalizes run
    their ``finally`` blocks — Python calls that would land in the count
    on one run and not on the next.
    """
    counts = dict.fromkeys(ALL_LAYERS, 0)
    layer = layer_map.layer

    def profiler(frame, event, arg):
        if event == "call":
            counts[layer(frame.f_code.co_filename)] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts
