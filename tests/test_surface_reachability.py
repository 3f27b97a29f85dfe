"""Every public definition in ``src/repro`` is reached by an entry point.

The entry points are the ``repro`` CLI and the experiment registry
(module-level code in ``src/``), the host-time benchmark (``bench/``),
the gate scripts (``benchmarks/``) and the runnable
``examples/``; CI (``.github/``) only invokes those.  A public
top-level function or class is *live* when a live body refers to its
name (as a name or an attribute); a public method of a live class is
live when a live body reads an attribute of that name (a bare name is a
local or a global, never a method); module-level code is live by
definition.  Imports, package re-exports
and ``__all__`` are not references, and neither are the tests: a
definition only its own tests call is dead weight to maintain.

The scan is by name, not by type, so it can only err towards calling
something live.  What it still flags must go, or join :data:`KEEP` with
the reason it stays.

Its blind spot is a name collision: a method stays live whenever *any*
live body reads an attribute of that name, whoever owns it.  A classmethod
``random`` looks called because code calls ``np.random``, a property
``empty`` because of ``np.empty``, a ``from_dict`` or ``reset`` because
another class has one.  Finding those takes recording the calls the entry
points actually make (``sys.setprofile`` plus ``threading.setprofile``,
forked children included) and reading the definitions that never ran.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
from typing import Iterable, List, Set

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_DIRS = ("bench", "benchmarks", "examples")

#: Definitions no entry point reaches that stay on purpose, with the reason.
#: (The bench-pinned compatibility names -- ``SimEngine(backend=)``,
#: ``resolve_engine``'s string branch, ``make_guard(single_thread=)`` and
#: ``Tracer.dropped`` -- are parameters and attributes, outside this scan.)
KEEP = (
    # Eq. 3 / 4 / 9 closed forms: tests check the integrated costs against them.
    ("repro.core.costs.model_parallel_cost", "Eq. 3 oracle for the integrated cost"),
    ("repro.core.costs.batch_parallel_cost", "Eq. 4 oracle for the integrated cost"),
    ("repro.core.costs.domain_parallel_cost", "Eq. 9 oracle for the integrated cost"),
    # A small network for the property tests.
    ("repro.nn.zoo.lenet_like", "small conv workload for the property tests"),
    # The checkpoint traffic audit: executed checkpoint bytes vs the cost
    # model's checkpoint terms, which it calls.
    ("repro.telemetry.audit.audit_checkpoint_events", "checkpoint traffic audit"),
    ("repro.core.costs.checkpoint_state_bytes", "full checkpoint size, checked against the erasure layout"),
    # Read-side views the tests observe results through.
    ("repro.core.results.ResultTable.columns", "column order of an experiment table"),
    ("repro.core.results.ResultTable.column", "one column of an experiment table"),
    ("repro.simmpi.communicator.Comm.world_ranks", "the membership a split produced"),
    # The non-blocking halo path of ROADMAP item 4(iii).
    ("repro.dist.conv_domain.DomainConv2D.forward_timed", "overlapped halo exchange (item 4(iii))"),
    ("repro.simmpi.communicator.Comm.isend", "non-blocking send (item 4(iii))"),
    ("repro.simmpi.communicator.Comm.irecv", "non-blocking receive (item 4(iii))"),
    ("repro.simmpi.communicator.Request", "non-blocking handle (item 4(iii))"),
    ("repro.simmpi.communicator.Request.wait", "non-blocking handle (item 4(iii))"),
    ("repro.simmpi.communicator.Request.test", "non-blocking handle (item 4(iii))"),
    ("repro.simmpi.communicator.Request.completed", "non-blocking handle (item 4(iii))"),
)
KEPT = {name for name, _ in KEEP}


class _Def:
    def __init__(self, qual: str, name: str, body: List[ast.AST], parent=None):
        self.qual = qual
        self.name = name
        self.body = body
        self.parent = parent
        self.public = not name.startswith("_") and (parent is None or parent.public)
        self.dunder = name.startswith("__") and name.endswith("__")


def _refs(nodes: Iterable[ast.AST]) -> Set[str]:
    """Names read anywhere under ``nodes``: ``name`` for a bare name,
    ``.name`` for an attribute ``x.name``."""
    out: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add("." + sub.attr)
    return out


def _is_all(stmt: ast.AST) -> bool:
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _scan():
    """``(definitions, names read by module-level and entry-point code)``."""
    defs: List[_Def] = []
    roots: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(_Def(f"{module}.{stmt.name}", stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                cls = _Def(f"{module}.{stmt.name}", stmt.name, [])
                cls.body = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append(_Def(f"{cls.qual}.{item.name}", item.name, [item], cls))
                    else:
                        cls.body.append(item)
                defs.append(cls)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not _is_all(stmt):
                roots |= _refs([stmt])
    for entry in ENTRY_DIRS:
        for path in sorted((ROOT / entry).rglob("*.py")):
            roots |= _refs([ast.parse(path.read_text())])
    return defs, roots


def _live(defs: List[_Def], roots: Set[str], keep: Iterable[str]) -> Set[str]:
    """Qualified names of the live definitions (a fixpoint over bodies)."""
    names = set(roots)
    keep = set(keep)
    live: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for d in defs:
            if d.qual in live:
                continue
            if d.qual in keep:
                reached = True
            elif d.parent is None:
                reached = d.name in names or "." + d.name in names
            elif d.parent.qual not in live:
                reached = False
            else:
                reached = d.dunder or "." + d.name in names
            if reached:
                live.add(d.qual)
                names |= _refs(d.body)
                changed = True
    return live


@pytest.fixture(scope="module")
def scan():
    return _scan()


def test_every_public_definition_is_reached(scan):
    defs, roots = scan
    live = _live(defs, roots, KEPT)
    dead = [d.qual for d in defs if d.public and d.qual not in live]
    assert dead == [], "reached by no entry point (delete, or add to KEEP):\n" + "\n".join(dead)


def test_keep_list_names_unreached_definitions(scan):
    """Every kept name exists and would be dead without the keep-list."""
    defs, roots = scan
    quals = {d.qual for d in defs}
    assert sorted(KEPT - quals) == []
    live = _live(defs, roots, ())
    assert sorted(KEPT & live) == []


def _packages() -> List[str]:
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


@pytest.mark.parametrize("package", _packages())
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
