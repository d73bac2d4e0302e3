"""Structure budgets: the storage seam stays one seam, and small.

How an interval's bytes reach stable storage (a FILEM-gathered tree or
the content-addressed store) is known to ``orte/snapc/backends.py``
alone.  These checks fail when a second module starts to know it again,
when the files around the seam grow back past what they were before it
existed, or when a catch-everything ``except`` appears outside the
places that have a reason for one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SNAPC = SRC / "orte" / "snapc"

#: words only storage code needs: the chunk store and its manifests, the
#: FILEM chunk operations, and any branch on which backend is in play
STORAGE_WORDS = (
    r"supports_cas|ChunkStore|ChunkManifest|read_manifest|rank_manifests"
    r"|fetch_chunks|ship_chunks|\.missing\(|if .*\.cas\b|cas_active"
    r"|_verify_cas_chunks"
)
#: the record may carry its backend's manifests as an opaque field
COORDINATOR_WORDS = STORAGE_WORDS.replace(
    "|ChunkManifest", ""
).replace("|rank_manifests", "")


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _hits(path: Path, pattern: str) -> list[str]:
    return [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(_lines(path), 1)
        if re.search(pattern, line)
    ]


def test_storage_decision_is_known_in_one_place():
    assert _hits(SNAPC / "full.py", STORAGE_WORDS) == []
    assert _hits(SRC / "orte" / "errmgr.py", STORAGE_WORDS) == []
    assert _hits(SNAPC / "staging.py", COORDINATOR_WORDS) == []
    for path in (SNAPC / "full.py", SRC / "orte" / "errmgr.py"):
        assert _hits(path, r"repro\.opal\.crs") == []
    assert _hits(SRC / "orte" / "errmgr.py", r"getattr\(.*\"stager\"") == []
    # the FILEM capability is probed once, the store opened once
    for word in ("supports_cas", r"ChunkStore\("):
        readers = [
            hit
            for path in sorted(SRC.rglob("*.py"))
            if "filem" not in path.parts and path.name != "cas.py"
            for hit in _hits(path, word)
        ]
        assert len(readers) == 1 and readers[0].startswith("backends.py"), readers


def test_line_budgets():
    """No file over 800 lines; the coordinator at most 650; and the seam
    paid for itself: with ``backends.py`` the four files are smaller
    than the three were without it (2 387), the tree than it was
    (17 386).  Both budgets were lowered to the sizes the one restart
    plan left (2 359 and 17 372): deleted lines are not headroom.  One
    periodic checkpointer, one stencil solver and four fewer knobs left
    2 357 and 17 136; the tree's budget holds 200 lines more, granted
    to the invariant oracle (ROADMAP item 1(a)) and to nothing else."""
    sizes = {path: len(_lines(path)) for path in SRC.rglob("*.py")}
    assert {p.name: n for p, n in sizes.items() if n > 800} == {}
    assert sizes[SNAPC / "staging.py"] <= 650
    around_the_seam = sum(
        sizes[path]
        for path in (
            SNAPC / "staging.py",
            SNAPC / "backends.py",
            SNAPC / "full.py",
            SRC / "orte" / "errmgr.py",
        )
    )
    assert around_the_seam <= 2357
    assert sum(sizes.values()) <= 17136 + 200


def test_snapshot_documents_have_one_memo_and_one_json_site_each():
    """The chunk-bearing documents are parsed and encoded in their own
    ``from_json`` / ``to_json`` and nowhere else, behind the one
    content-keyed memo of ``snapshot.py`` — the per-substring
    ``_split_packed`` cache it replaced stays gone."""
    documents = (SRC / "snapshot.py", SRC / "opal" / "crs" / "chunks.py")
    for path in sorted(SRC.rglob("*.py")):
        assert _hits(path, r"_split_packed") == []
    for path in documents:
        assert _hits(path, r"lru_cache|functools|\bcache\(") == []
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            ):
                continue
            owners = []
            while hasattr(node, "parent"):
                node = node.parent
                if isinstance(node, ast.FunctionDef):
                    owners.append(node.name)
            assert owners and owners[-1] in ("to_json", "from_json"), (path.name, owners)
    assert len(_hits(documents[0], r"OrderedDict\(|\bdict\(\)|= \{\}")) == 1
    assert _hits(documents[1], r"OrderedDict|_memo") == []
    assert len(_hits(documents[0], r"^CODEC = DocumentCodec\(\)$")) == 1
    users = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if _hits(path, r"\bCODEC\b|DocumentCodec")
    ]
    assert users == ["opal/crs/chunks.py", "snapshot.py"]


#: every ``except Exception`` / ``except BaseException`` in the tree, as
#: (file, what the guarded statement is) — each re-raises SimInterrupt
#: or sits at a boundary that must keep running; see the comment there
BROAD_EXCEPTS = {
    ("fleet/runner.py", "Exception"): 3,  # worker-process boundary
    ("ompi/ops.py", "BaseException"): 1,  # forwarded into the app generator
    ("opal/crs/base.py", "Exception"): 1,  # unpickling bytes from storage
    ("orte/orted.py", "BaseException"): 2,  # a dying child / a dying HNP
    ("simenv/kernel.py", "BaseException"): 1,  # a thread crashing
    ("simenv/process.py", "BaseException"): 2,  # a process dying
}


def test_broad_except_sites_are_the_known_ones():
    found: dict[tuple[str, str], int] = {}
    for path in SRC.rglob("*.py"):
        for line in _lines(path):
            match = re.search(r"except (BaseException|Exception)\b", line)
            if match:
                key = (path.relative_to(SRC).as_posix(), match.group(1))
                found[key] = found.get(key, 0) + 1
    assert found == BROAD_EXCEPTS


def test_every_module_compiles_and_uses_what_it_imports():
    """The part of CI's ``ruff check`` a container without ``ruff`` can
    still run: every ``src/repro`` module compiles, and every name a
    module imports is used in it (F401) — ``__init__.py`` re-exports,
    ``TYPE_CHECKING`` blocks (their names live in quoted annotations)
    and ``# noqa`` lines aside."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        compile(source, str(path), "exec")
        if path.name == "__init__.py":
            continue
        lines = source.splitlines()
        typing_only = {
            id(node)
            for block in ast.walk(tree)
            if isinstance(block, ast.If) and "TYPE_CHECKING" in ast.unparse(block.test)
            for node in ast.walk(block)
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):  # quoted annotations name things too
            for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                for part in ast.walk(hint) if hint is not None else ():
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        used |= set(re.findall(r"[A-Za-z_]\w*", part.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in typing_only:
                continue
            if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno}: {bound}")
    assert unused == []


def test_a_restart_plan_has_one_producer():
    """Every restart — ``ompi-restart``, migration, recovery — runs on a
    plan ``usable_snapshot`` returned; nothing else builds one."""
    sites = [
        hit for path in sorted(SRC.rglob("*.py")) for hit in _hits(path, r"RestartPlan\(")
    ]
    assert len(sites) == 1 and sites[0].startswith("full.py"), sites


def test_every_benchmark_pin_is_asserted_in_tier1():
    """A deterministic count pinned in ``benchmarks/`` (a ``PINNED_*``
    constant) is asserted by a test under ``tests/``, which tier-1
    collects: a pin that only the CI ``bench`` job reads is checked by
    nobody before merge."""
    root = SRC.parents[1]
    pins = {
        (f"benchmarks.{path.stem}", name)
        for path in sorted((root / "benchmarks").glob("*.py"))
        for name in re.findall(r"^(PINNED_\w+)\s*=", path.read_text(), re.M)
    }
    asserted = set()
    for path in sorted((root / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        asserted |= {
            imported[name.id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            for name in ast.walk(node)
            if isinstance(name, ast.Name) and name.id in imported
        }
    assert pins and pins <= asserted, sorted(pins - asserted)
