"""No entry point without a caller.

Every public function, method and class in ``src/repro`` must be reached
by some code in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/``:
its name has to appear in one of those files somewhere other than its own
``def``/``class`` line, an ``__all__`` entry or an import line.  A
definition only its own tests call is surplus API; delete it with its
tests, or list it in :data:`ALLOWED` with the reason it stays.  Scenario
functions registered with ``@_register`` are reached through the
scenario registry and are exempt.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: Definitions no code calls that stay: test tools and oracles, and
#: documented API.
ALLOWED = {
    "Cache.resident_sectors": "test oracle: the L2 model's resident set",
    "SpanTracer.spans_named": "test tool: look spans up by name",
    "NetworkFabric.link_between": "test tool: the link joining two nodes",
    "FaultPlan.for_links": "test tool: a plan that faults chosen links",
    "join_result": "test tool: a finished process's return value",
    "ibarrier": "documented MPI API (README)",
    "ibcast": "documented MPI API (README)",
}

_WORD = re.compile(r"\w+")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sources():
    """``{path: (source, tree)}`` of every Python file a caller may be in."""
    return {path: (source, ast.parse(source))
            for top in CALLER_DIRS
            for path in sorted((ROOT / top).rglob("*.py"))
            for source in [path.read_text(encoding="utf-8")]}


def _uses(sources) -> Counter:
    """How often each identifier occurs in the caller directories, outside
    import lines, ``__all__`` and the ``def``/``class`` lines that define
    that same name."""
    uses: Counter = Counter()
    for source, tree in sources.values():
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skip.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in targets):
                    skip.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, _DEFS):
                uses[node.name] -= 1        # its own def/class line
        uses.update(_WORD.findall("\n".join(
            line for lineno, line in enumerate(source.splitlines(), 1)
            if lineno not in skip)))
    return uses


def _registered(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "_register":
            return True
    return False


def _public_definitions(sources):
    """``(qualified name, name, where)`` of every public module-level
    function or class and every public method."""
    for path, (_source, tree) in sources.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        members = [(None, node) for node in tree.body]
        while members:
            owner, node = members.pop(0)
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                members += [(node.name, child) for child in node.body]
            if _registered(node):
                continue
            qualname = f"{owner}.{node.name}" if owner else node.name
            yield (qualname, node.name,
                   f"{path.relative_to(ROOT)}:{node.lineno}")


@functools.lru_cache(maxsize=None)
def _uncalled():
    """``{qualified name: where}`` of every public definition no caller
    directory mentions."""
    sources = _sources()
    uses = _uses(sources)
    return {qualname: where
            for qualname, name, where in _public_definitions(sources)
            if uses[name] <= 0}


def test_every_public_definition_has_a_caller():
    surplus = [f"{where} {qualname}"
               for qualname, where in sorted(_uncalled().items())
               if qualname not in ALLOWED]
    assert not surplus, ("public definitions no code in src/, bench/, "
                         "benchmarks/ or examples/ calls (delete them, or "
                         "list them in ALLOWED with a reason):\n  "
                         + "\n  ".join(surplus))


def test_allowed_lists_only_uncalled_definitions():
    stale = sorted(set(ALLOWED) - set(_uncalled()))
    assert not stale, f"ALLOWED entries that now have a caller: {stale}"
