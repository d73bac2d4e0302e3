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
import dataclasses
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
    2 357 and 17 136; one journal funnel in place of five hand-wired
    writers left 2 289 and 17 119; chunk digests listed in ``chunks.json``
    alone and one restart landing path left 2 281 and 17 093; the kept
    local level, paid for by deleting the staging admission gate (and
    restart placement moving next to launch placement in ``hnp.py``),
    left 2 280 and 17 031; each interval's global metadata as its one
    durable record (no ``staging`` journal table) left 2 253 and
    17 023.  The tree's budget holds 200 lines more,
    granted to the invariant oracle (ROADMAP item 1(a)) and to nothing
    else."""
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
    assert around_the_seam <= 2253
    assert sum(sizes.values()) <= 17023 + 200


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


def _functions(path: Path):
    """``(function name, node)`` for every node inside a function."""
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                yield fn.name, node


def _durable_fields() -> set[str]:
    """Attribute names a durable record journals."""
    from repro.mca.params import MCAParams
    from repro.orte.errmgr import RecoveryRecord
    from repro.orte.job import AppSpec, Job
    from repro.orte.scheduler import DalyEstimator

    job = Job(1, AppSpec("churn"), 1, MCAParams())
    names = {name for name in job.to_durable() if hasattr(job, name)}
    names |= set(DalyEstimator(0.1, 0.1, 0.1).to_durable())
    names |= {f.name for f in dataclasses.fields(RecoveryRecord)}
    return names


def _names_field(node: ast.AST, fields: set[str]) -> bool:
    """``name.field`` for a journalled field (``record.meta.kind`` is the
    metadata document's, not the record's)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.attr in fields
    )


MUTATORS = {"append", "extend", "insert", "add", "discard", "remove", "pop",
            "update", "clear", "setdefault", "sort"}


def test_the_journal_has_one_funnel():
    """Durable control-plane state changes in one act.  The state store's
    ``put`` is called from one place, the funnel ``StateStore.journal``;
    ``setattr`` in ``orte`` only in ``Durable.change``; and a journalled
    field (a job's or an interval's ``state`` among them) is assigned or
    mutated in place nowhere but in its record's constructor.  (An
    interval's state is its ``meta.staging``, changed only by
    ``StagingRecord.move``.)"""
    puts, setattrs, assigned = [], [], []
    fields = _durable_fields()
    assert {"state", "next_interval", "costs", "error"} <= fields
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for name, node in _functions(path):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "put" and len(node.args) == 3:
                    puts.append((where, name))
                target = node.func.value
                if node.func.attr in MUTATORS and _names_field(target, fields) \
                        and where.startswith("orte/"):
                    assigned.append((where, name, ast.unparse(node.func)))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr" \
                    and where.startswith("orte/"):
                setattrs.append((where, name))
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for target in targets:
                target = target.value if isinstance(target, ast.Subscript) else target
                if _names_field(target, fields) and where.startswith("orte/") \
                        and name != "__init__":
                    assigned.append((where, name, ast.unparse(target)))
    assert puts == [("orte/statestore.py", "journal")]
    assert setattrs == [("orte/statestore.py", "change")]
    assert assigned == []
    staged = {
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name, node in _functions(path) if isinstance(node, ast.Assign)
        for target in node.targets
        for one in (target.elts if isinstance(target, ast.Tuple) else [target])
        if ast.unparse(one).endswith("meta.staging")
    }
    assert staged == {("orte/snapc/staging.py", "move"), ("orte/snapc/staging.py", "_commit")}


def test_the_docs_name_the_declared_tables_and_edges():
    """``docs/CONTROLPLANE.md`` §1's table lists exactly the journal's
    declared tables, in replay order, and the state graphs in
    ``docs/STAGING.md`` and ``docs/RECOVERY.md`` are the declared ones,
    edge for edge."""
    from repro.orte.job import JOB_LIFECYCLE
    from repro.orte.snapc.staging import STAGE_LIFECYCLE
    from repro.orte.statestore import TABLES

    docs = SRC.parents[1] / "docs"
    section = (docs / "CONTROLPLANE.md").read_text().split("\n## 1.")[1].split("\n## ")[0]
    assert re.findall(r"^\| `(\w+)` \|", section, re.M) == list(TABLES)
    for doc, graph in (("STAGING.md", STAGE_LIFECYCLE), ("RECOVERY.md", JOB_LIFECYCLE)):
        name = lambda state: getattr(state, "value", state).upper()  # noqa: E731
        declared = {(name(old), name(new)) for old, news in graph.items() for new in news}
        drawn = re.findall(r"^([A-Z]+) +-> ([A-Z]+) ", (docs / doc).read_text(), re.M)
        assert len(drawn) == len(set(drawn)) and set(drawn) == declared, doc
