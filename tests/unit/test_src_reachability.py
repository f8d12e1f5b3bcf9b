"""Dead-code guard: every ``src/repro`` definition is named by production code.

The unit under scan is each top-level function and class of ``src/repro``
and each non-dunder method of a top-level class.  A definition counts as
*reached* when its bare name appears in production code other than its own
definition:

* in ``src/repro`` as a loaded name, an attribute, an import in an ordinary
  module (a package ``__init__`` only re-exports), or an identifier-shaped
  string constant (registries, ``getattr``, the e2e tracer's targets) --
  never as an ``__all__`` entry and never inside a docstring;
* anywhere in the text of ``benchmarks/``, ``examples/``, README.md or
  ``tests/golden/regenerate.py``.

A ``classmethod`` or ``staticmethod`` is matched by its qualname instead:
it is reached only through ``Cls.meth`` (in ``src/repro`` or in the external
text), or through ``cls.meth`` / ``self.meth`` inside its own class ``Cls``;
a subclass's ``Sub.meth`` or ``self.meth`` reaches the inherited method.  So
an alternate constructor does not hide behind a live method of the same name
on another class.

A definition reached only by ``tests/`` fails this test unless
:data:`ALLOWLIST` names it with a reason.  Apart from those qualified
methods the scan matches bare names, so it is lenient (one ``run``
anywhere keeps every ``run`` method); what it catches is a definition
nothing outside the tests and itself mentions.
"""

from __future__ import annotations

import ast
import re
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Production text outside ``src/`` that may keep a definition alive.
EXTERNAL_GLOBS = (
    "benchmarks/**/*.py",
    "examples/**/*.py",
    "README.md",
    "tests/golden/regenerate.py",
)

#: Definitions kept although only tests reach them: name -> reason.
ALLOWLIST = {
    "matmul_reference": "oracle: the property suite holds matmul byte-identical to it",
    "active_flow_count": "test probe: flow-index checks on FluidNetwork and "
    "ExclusivePathNetwork",
    "scenario_strategy": "test probe: the Hypothesis face of the fuzzer's scenario "
    "space, driven by tests/property/test_sanitizer_properties.py",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
#: ``Cls.meth`` in free text: the only way that text reaches a qualified method.
_QUALIFIED = re.compile(r"(?=\b([A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*))")
_BINDERS = {"staticmethod", "classmethod"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_bound_to_class(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id in _BINDERS
        for decorator in function.decorator_list
    )


def _definitions(tree: ast.Module):
    """Yield ``(name, qualname, lineno, qualified)`` for every scanned definition.

    ``qualified`` marks a classmethod or staticmethod, matched by qualname.
    """
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not _is_dunder(node.name):
            yield node.name, node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    _is_dunder(member.name)
                ):
                    yield (
                        member.name,
                        f"{node.name}.{member.name}",
                        member.lineno,
                        _is_bound_to_class(member),
                    )


def _all_constants(tree: ast.Module) -> set[int]:
    """Ids of the string constants inside ``__all__`` assignments."""
    ids: set[int] = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            ids.update(id(child) for child in ast.walk(node) if isinstance(child, ast.Constant))
    return ids


def _docstring_constants(tree: ast.Module) -> set[int]:
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _references(tree: ast.Module, is_package_init: bool) -> tuple[set[str], set[str]]:
    """Names and ``Cls.meth`` pairs one module mentions, less definitions and ``__all__``.

    A name used inside a definition of that same name (recursion, a class
    annotating its own methods, ``Foo.from_dict`` building ``Foo``) does not
    count: a definition must be reached from outside itself.  The second set
    holds qualified mentions: ``X.meth`` as written, and ``cls.meth`` /
    ``self.meth`` inside class ``Cls`` as ``Cls.meth``, except inside
    ``Cls.meth`` itself.
    """
    skipped = _all_constants(tree) | _docstring_constants(tree)
    names: set[str] = set()
    qualified: set[str] = set()

    def visit(
        node: ast.AST, enclosing: frozenset[str], owner: str | None, inside: frozenset[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
            if isinstance(node, ast.ClassDef):
                owner = node.name
            elif owner is not None:
                inside = inside | {f"{owner}.{node.name}"}
        mentioned: list[str] = []
        dotted: list[str] = []
        if isinstance(node, ast.Name):
            mentioned = [node.id]
        elif isinstance(node, ast.Attribute):
            mentioned = [node.attr]
            if isinstance(node.value, ast.Name):
                holder = node.value.id
                if holder in ("cls", "self") and owner is not None:
                    holder = owner
                dotted = [f"{holder}.{node.attr}"]
        elif isinstance(node, ast.ImportFrom) and not is_package_init:
            mentioned = [alias.name for alias in node.names]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _DOTTED.fullmatch(node.value)
        ):
            mentioned = node.value.split(".")
            dotted = [f"{a}.{b}" for a, b in zip(mentioned, mentioned[1:])]
        names.update(name for name in mentioned if name not in enclosing)
        qualified.update(name for name in dotted if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, owner, inside)

    visit(tree, frozenset(), None, frozenset())
    return names, qualified


def unreferenced(sources: dict[str, str], external_texts: list[str]) -> list[str]:
    """``path:line qualname`` of every definition no production code names."""
    parsed = {path: ast.parse(text, path) for path, text in sources.items()}
    referenced: set[str] = set()
    mentions: set[str] = set()
    for path, tree in parsed.items():
        names, dotted = _references(tree, is_package_init=path.endswith("__init__.py"))
        referenced |= names
        mentions |= dotted
    for text in external_texts:
        referenced.update(_IDENTIFIER.findall(text))
        mentions.update(_QUALIFIED.findall(text))
    # ``Sub.meth`` (or ``self.meth`` inside ``Sub``) reaches an inherited
    # ``Base.meth``: credit the mention to every ancestor by class name.
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for tree in parsed.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    qualified: set[str] = set()
    for mention in mentions:
        holder, meth = mention.split(".")
        pending, seen = [holder], set()
        while pending:
            klass = pending.pop()
            if klass not in seen:
                seen.add(klass)
                qualified.add(f"{klass}.{meth}")
                pending.extend(bases.get(klass, ()))
    return [
        f"{path}:{lineno} {qualname}"
        for path, tree in parsed.items()
        for name, qualname, lineno, is_qualified in _definitions(tree)
        if (qualname not in qualified if is_qualified else name not in referenced)
    ]


def _production_inputs() -> tuple[dict[str, str], list[str]]:
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    external = [
        path.read_text(encoding="utf-8")
        for pattern in EXTERNAL_GLOBS
        for path in sorted(ROOT.glob(pattern))
    ]
    return sources, external


def _unreferenced_in_production() -> list[str]:
    return unreferenced(*_production_inputs())


def test_every_definition_is_named_by_production_code():
    started = time.perf_counter()
    dead = [
        entry for entry in _unreferenced_in_production()
        if entry.rsplit(" ", 1)[1].rsplit(".", 1)[-1] not in ALLOWLIST
    ]
    assert time.perf_counter() - started < 2.0, "the reachability scan must stay cheap"
    assert not dead, (
        "definitions that only tests reach (delete them, or add an ALLOWLIST"
        " entry with its reason):\n  " + "\n  ".join(dead)
    )


def test_allowlist_entries_are_still_unreached():
    flagged = {
        entry.rsplit(" ", 1)[1].rsplit(".", 1)[-1] for entry in _unreferenced_in_production()
    }
    stale = sorted(set(ALLOWLIST) - flagged)
    assert not stale, f"production code now reaches these; drop them from ALLOWLIST: {stale}"


def test_a_synthetic_dead_definition_is_flagged():
    module = '''
"""Docstrings naming orphan() keep nothing alive."""

__all__ = ["used", "orphan"]


def used():
    return Holder().called()


def orphan():
    return orphan  # a self-reference keeps nothing alive


class Holder:
    def called(self):
        return 2

    def never_called(self):
        return 3

    def __repr__(self):
        return "Holder()"


used()
'''
    flagged = unreferenced({"pkg/mod.py": module}, external_texts=[])
    assert flagged == ["pkg/mod.py:11 orphan", "pkg/mod.py:19 Holder.never_called"]
    # A mention in production text outside src/ keeps the definition.
    assert unreferenced({"pkg/mod.py": module}, ["orphan never_called"]) == []
    # A package __init__'s import is a re-export, not a use.
    assert unreferenced(
        {"pkg/__init__.py": "from pkg.mod import orphan\n", "pkg/mod.py": module}, []
    ) == ["pkg/mod.py:11 orphan", "pkg/mod.py:19 Holder.never_called"]


def test_a_classmethod_is_matched_by_its_qualname():
    module = '''
class Live:
    @classmethod
    def from_dict(cls, payload):
        return cls()


class Child(Live):
    pass


class Dead:
    @classmethod
    def from_dict(cls, payload):
        return cls()

    @classmethod
    def again(cls):
        return cls.again()  # a self-reference keeps nothing alive

    @staticmethod
    def helper():
        return 1

    def build(self):
        return self.helper()


Child.from_dict({})
Dead().build()
'''
    # Live.from_dict is reached through its subclass, Dead.helper through
    # self inside its class; Dead.from_dict shares a name with a live method
    # but nothing names it by its qualname.
    assert unreferenced({"pkg/mod.py": module}, external_texts=[]) == [
        "pkg/mod.py:14 Dead.from_dict",
        "pkg/mod.py:18 Dead.again",
    ]
    assert unreferenced({"pkg/mod.py": module}, ["Dead.from_dict(x)", "Dead.again"]) == []
