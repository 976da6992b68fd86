"""No entry point without a caller, no knob without a setter.

Every public function, method and class in ``src/repro`` must be reached
by some code in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/``:
the syntax tree of one of those files has to load its name, as an
``ast.Name`` or as an ``ast.Attribute``.  Strings, docstrings, comments,
``__all__`` and import lines are not code that reaches anything.

Every defaulted parameter of a public function or method (and of a
public class's ``__init__``) must be set by some call in those
directories: by keyword, by position, or through ``*args``/``**kw``.
Calls are matched by the bare callee name (``f(...)`` and ``x.f(...)``
both match every ``f``); a class's ``__init__`` is matched by the class
name and by any ``__init__(...)`` call.  A callable whose name is also
loaded as a value (passed on, aliased, stored, used in an annotation or
an ``isinstance`` check) counts as setting all of its parameters.

A definition or a knob only its own tests reach is surplus API: delete
it with its tests (a deleted keyword's value becomes the constant it
always was), or list it in :data:`ALLOWED` or :data:`ALLOWED_KEYWORDS`
with the reason it stays.  Scenario functions registered with
``@_register`` are reached through the scenario registry and are exempt;
dataclass fields are not parameters of any ``def`` and are not checked.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path

import pytest

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

#: Defaulted parameters no code sets that stay, as ``"Owner.name.param"``
#: (or ``"name.param"``): test tools and oracles, and documented API.
ALLOWED_KEYWORDS = {
    "FaultPlan.for_links.seed": "test tool: the seed of a test's plan",
    "ibcast.data": "documented MPI API (README): the root's payload",
    "ibcast.root": "documented MPI API (README): the broadcasting rank",
    "iallreduce.op": "documented API (README 'Collectives'): the MPI layer "
                     "runs the reduction table's ops bit-identically",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sources():
    """``{path: tree}`` of every Python file a caller may be in."""
    return {str(path.relative_to(ROOT)):
            ast.parse(path.read_text(encoding="utf-8"))
            for top in CALLER_DIRS
            for path in sorted((ROOT / top).rglob("*.py"))}


def _registered(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "_register":
            return True
    return False


def _is_static(node) -> bool:
    return any(isinstance(deco, ast.Name) and deco.id == "staticmethod"
               for deco in node.decorator_list)


def _definitions(library):
    """``(qualified name, node, owner class, where)`` of every public
    module-level function or class, every public method, and the
    ``__init__`` of every public class, in the *library* trees."""
    for path, tree in library.items():
        members = [(None, node) for node in tree.body]
        while members:
            owner, node = members.pop(0)
            if not isinstance(node, _DEFS):
                continue
            if node.name.startswith("_") and not (
                    owner and node.name == "__init__"):
                continue
            if isinstance(node, ast.ClassDef):
                members += [(node, child) for child in node.body]
            if _registered(node):
                continue
            qualname = f"{owner.name}.{node.name}" if owner else node.name
            yield qualname, node, owner, f"{path}:{node.lineno}"


def _bare_name(node) -> str | None:
    """``f`` for ``f`` and for ``x.f``; None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan(callers):
    """What the *callers* trees do with names: ``(loaded, values, calls)``.

    *loaded* is every name the code loads (as a variable or an attribute),
    *values* those it loads other than as the callee of a call, and
    *calls* maps a bare callee name to its calls' ``(positional count,
    has *args, keyword names, has **kw)``."""
    loaded, values, callees = set(), set(), set()
    calls = defaultdict(list)
    for tree in callers:
        # ast.walk visits a call before its callee expression.
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = _bare_name(node.func)
                if name is not None:
                    calls[name].append((
                        len(node.args),
                        any(isinstance(a, ast.Starred) for a in node.args),
                        {kw.arg for kw in node.keywords if kw.arg},
                        any(kw.arg is None for kw in node.keywords)))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)):
                name = _bare_name(node)
                loaded.add(name)
                if id(node) not in callees:
                    values.add(name)
    return loaded, values, calls


def _defaulted(node, method: bool):
    """``(index or None, name)`` of each defaulted parameter of a function
    *node*: positional ones with their index among the parameters a call
    fills (``self``/``cls`` dropped for a method), keyword-only ones with
    ``None``."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and not _is_static(node):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for index in range(max(first, 0), len(positional)):
        yield index, positional[index]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _sets(call, index, name) -> bool:
    count, starred, keywords, splat = call
    return splat or name in keywords or (
        index is not None and (starred or index < count))


def _report(sources):
    """``(uncalled, unset)`` for the public definitions in ``src/repro`` of
    *sources* (``{repo-relative path: tree}``) as reached from the files
    in :data:`CALLER_DIRS`: ``{qualified name: where}`` of each definition
    whose name no caller loads, and ``{qualified name.param: where}`` of
    each defaulted parameter no call sets."""
    library = {path: tree for path, tree in sources.items()
               if path.startswith("src/repro/")}
    loaded, values, calls = _scan(
        tree for path, tree in sources.items()
        if path.split("/")[0] in CALLER_DIRS)
    uncalled, unset = {}, {}
    for qualname, node, owner, where in _definitions(library):
        if node.name not in loaded:
            uncalled[qualname] = where
        if isinstance(node, ast.ClassDef):
            continue
        if node.name == "__init__":
            if owner.name in values:
                continue
            matching = calls[owner.name] + calls["__init__"]
        else:
            if node.name in values:
                continue
            matching = calls[node.name]
        for index, param in _defaulted(node, method=owner is not None):
            if not any(_sets(call, index, param) for call in matching):
                unset[f"{qualname}.{param}"] = where
    return uncalled, unset


@functools.lru_cache(maxsize=None)
def _findings():
    return _report(_sources())


def test_every_public_definition_has_a_caller():
    surplus = [f"{where} {qualname}"
               for qualname, where in sorted(_findings()[0].items())
               if qualname not in ALLOWED]
    assert not surplus, ("public definitions no code in src/, bench/, "
                         "benchmarks/ or examples/ calls (delete them, or "
                         "list them in ALLOWED with a reason):\n  "
                         + "\n  ".join(surplus))


def test_every_defaulted_parameter_has_a_setter():
    surplus = [f"{where} {knob}"
               for knob, where in sorted(_findings()[1].items())
               if knob not in ALLOWED_KEYWORDS]
    assert not surplus, ("defaulted parameters no call in src/, bench/, "
                         "benchmarks/ or examples/ sets (delete them, or "
                         "list them in ALLOWED_KEYWORDS with a reason):\n  "
                         + "\n  ".join(surplus))


def test_allowed_tables_list_only_findings():
    uncalled, unset = _findings()
    stale = sorted(set(ALLOWED) - set(uncalled))
    stale += sorted(set(ALLOWED_KEYWORDS) - set(unset))
    assert not stale, ("ALLOWED / ALLOWED_KEYWORDS entries that now have a "
                       f"caller or a setter: {stale}")


# -- the guard's own rules, on small in-memory sources ---------------------------

def _run(library: str, *callers: str, tests: str = ""):
    sources = {"src/repro/m.py": library, "tests/test_m.py": tests}
    sources.update((f"bench/c{i}.py", text)
                   for i, text in enumerate(callers))
    return _report({path: ast.parse(text) for path, text in sources.items()})


def test_prose_is_not_a_caller():
    uncalled, _ = _run(
        "def f():\n    pass\n",
        '"""Call f() to do it."""\n# f is handy\nprint("f")\n',
        "from repro.m import f\n__all__ = ['f']\n")
    assert uncalled == {"f": "src/repro/m.py:1"}


def test_keyword_set_only_by_a_test_is_reported():
    _, unset = _run("def f(a, x=1, *, y=2):\n    pass\n", "f(0)\n",
                    tests="f(0, x=3, y=4)\nf(0, 3)\nf(**kw)\n")
    assert unset == {"f.x": "src/repro/m.py:1", "f.y": "src/repro/m.py:1"}


@pytest.mark.parametrize("caller", [
    "f(0, 3)\nf(0, y=4)\n",
    "f(0, *rest, y=4)\n",              # *args covers the positional tail
    "f(**kw)\n",                       # **kw covers every parameter
    "run(f)\n",
    "g = partial(f, 0)\n",
    "def h(cb: f):\n    cb()\n",
], ids=["position", "starred", "splat", "value", "partial", "annotation"])
def test_keyword_set_by_position_splat_or_value_is_not_reported(caller):
    uncalled, unset = _run("def f(a, x=1, *, y=2):\n    pass\n", caller)
    assert uncalled == {} and unset == {}


def test_init_is_matched_by_class_name_and_init_calls():
    library = ("class C:\n    def __init__(self, a, x=1):\n        pass\n"
               "    def m(self, z=0):\n        pass\n")
    _, unset = _run(library, "C(0).m(5)\n")
    assert set(unset) == {"C.__init__.x"}
    _, unset = _run(library, "C(0, 2).m(z=5)\n")
    assert unset == {}
    _, unset = _run(library, "super().__init__(0, x=2)\nC(0).m(1)\n")
    assert unset == {}
