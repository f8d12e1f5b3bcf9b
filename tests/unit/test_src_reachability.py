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

Two more scans look inside the definitions, with the same lenient
bare-name matching:

* a *defaulted parameter* is reached when production text passes it by
  keyword (``name=`` in any call), or when a call of the function's bare
  name (the class name, for ``__init__``) passes it by position.  A pass
  that only forwards the caller's own parameter of that name counts once
  the caller's parameter is reached itself, so a knob threaded through
  several layers is flagged at every layer when nobody sets it at the top;
* a ``self.`` *attribute* assigned in ``src/repro`` is reached when
  production code loads an attribute of that name (an augmented
  assignment stores; it is not a read).

Anything any scan flags fails its test unless :data:`ALLOWLIST` names it
with a reason: a definition by its bare name, a parameter as
``qualname(param)``, an attribute as ``Cls.attr``.  Apart from the
qualified methods the scans match bare names, so they are lenient (one
``run`` anywhere keeps every ``run`` method, one ``seed=`` every ``seed``
parameter); what they catch is what nothing outside the tests mentions.
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
    "main(argv)": "the console entry point: installed scripts and `python -m repro.cli` "
    "read sys.argv; tests pass argv",
    "run_fig7a(codes)": "tier-1 runs 7(a) over codes that fit its eight-node quick "
    "cluster (test_figure_tables, test_experiments_quick)",
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


def _units(tree: ast.Module):
    """Yield ``(qualname, owner, function)`` for each function the parameter scan covers.

    Top-level functions, and the methods of top-level classes, ``__init__``
    included (it is called through the class name); ``owner`` is the class.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    member.name == "__init__" or not _is_dunder(member.name)
                ):
                    yield f"{node.name}.{member.name}", node, member


def _defaulted(function: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """Yield ``(name, position)`` of each defaulted parameter; keyword-only has none.

    ``position`` counts the call's positional arguments, so a method's
    ``self`` / ``cls`` is not one of them.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    ) else 0
    first_defaulted = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_defaulted:
            yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _parameter_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = function.args
    return {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


class _Passes:
    """What calls pass, each pass guarded by the parameter it forwards (or ``None``).

    A keyword ``x=x`` or a positional ``x`` whose value is the enclosing
    unit's own parameter ``x`` only forwards that parameter: it counts once
    the forwarding unit's ``x`` is reached itself.
    """

    def __init__(self) -> None:
        self.keywords: dict[str, set] = {}
        self.positions: dict[tuple[str, int], set] = {}
        #: Callee names some call passes ``*args`` / ``**kwargs`` to.
        self.splatted: set[str] = set()

    def add_tree(self, tree: ast.Module, bases: dict[str, list[str]]) -> None:
        units = {id(function): (qualname, owner) for qualname, owner, function in _units(tree)}

        def visit(node: ast.AST, unit: str | None, params: set[str], owner: str | None) -> None:
            if id(node) in units:
                unit, klass = units[id(node)]
                params = _parameter_names(node)
                owner = klass.name if klass is not None else None
            if isinstance(node, ast.Call):
                self._add_call(node, unit, params, owner, bases)
            for child in ast.iter_child_nodes(node):
                visit(child, unit, params, owner)

        visit(tree, None, set(), None)

    def add_text(self, text: str) -> None:
        """Keyword passes in text that is not Python (README.md's snippets)."""
        for name in re.findall(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*=(?!=)", text):
            self.keywords.setdefault(name, set()).add(None)

    def _add_call(self, call: ast.Call, unit, params, owner, bases) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            callees = [func.id]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            callees = bases.get(owner, [])
        elif isinstance(func, ast.Attribute):
            callees = [func.attr]
        else:
            callees = []

        def guard(value: ast.expr):
            if unit is not None and isinstance(value, ast.Name) and value.id in params:
                return (unit, value.id)
            return None

        for keyword in call.keywords:
            if keyword.arg is None:
                self.splatted.update(callees)
            else:
                self.keywords.setdefault(keyword.arg, set()).add(guard(keyword.value))
        for index, value in enumerate(call.args):
            if isinstance(value, ast.Starred):
                self.splatted.update(callees)
                break
            for callee in callees:
                self.positions.setdefault((callee, index), set()).add(guard(value))


def unpassed_parameters(sources: dict[str, str], external_texts: list[str]) -> list[str]:
    """``path:line qualname(param)`` of every defaulted parameter no production call passes."""
    parsed = {path: ast.parse(text, path) for path, text in sources.items()}
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for tree in parsed.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    subclasses: dict[str, set[str]] = {}
    for name, parents in bases.items():
        for parent in parents:
            subclasses.setdefault(parent, set()).add(name)

    def called_as(owner: ast.ClassDef | None, function) -> set[str]:
        if owner is None or function.name != "__init__":
            return {function.name}
        names, pending = set(), [owner.name]
        while pending:
            klass = pending.pop()
            if klass not in names:
                names.add(klass)
                pending.extend(subclasses.get(klass, ()))
        return names

    passes = _Passes()
    for tree in parsed.values():
        passes.add_tree(tree, bases)
    for text in external_texts:
        try:
            tree = ast.parse(text)
        except SyntaxError:
            passes.add_text(text)
        else:
            passes.add_tree(tree, {})

    candidates = [
        (path, function.lineno, qualname, name, position, called_as(owner, function))
        for path, tree in parsed.items()
        for qualname, owner, function in _units(tree)
        for name, position in _defaulted(function, owner is not None)
    ]
    reached: set[tuple[str, str]] = set()

    def passed(guards) -> bool:
        return any(g is None or g in reached for g in guards)

    changed = True
    while changed:
        changed = False
        for _path, _line, qualname, name, position, callees in candidates:
            if (qualname, name) in reached:
                continue
            if (
                passed(passes.keywords.get(name, ()))
                or callees & passes.splatted
                or position is not None and any(
                    passed(passes.positions.get((callee, position), ())) for callee in callees
                )
            ):
                reached.add((qualname, name))
                changed = True
    return [
        f"{path}:{line} {qualname}({name})"
        for path, line, qualname, name, _position, _callees in candidates
        if (qualname, name) not in reached
    ]


def _slots_constants(tree: ast.Module) -> set[int]:
    """Ids of the string constants in ``__slots__`` assignments."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
        ):
            ids.update(id(child) for child in ast.walk(node) if isinstance(child, ast.Constant))
    return ids


def _loaded_names(tree: ast.Module) -> set[str]:
    """Attributes a module loads, and identifier-shaped strings (``getattr``)."""
    skipped = _docstring_constants(tree) | _all_constants(tree) | _slots_constants(tree)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _DOTTED.fullmatch(node.value)
        ):
            names.update(node.value.split("."))
    return names


def unread_attributes(sources: dict[str, str], external_texts: list[str]) -> list[str]:
    """``path:line Cls.attr`` of every ``self.attr`` that production code never loads.

    An augmented assignment (``self.count += 1``) stores; it is not a read.
    """
    loaded: set[str] = set()
    assigned: dict[tuple[str, str], tuple[str, int]] = {}
    for path, text in sources.items():
        tree = ast.parse(text, path)
        loaded |= _loaded_names(tree)
        for klass in tree.body:
            if not isinstance(klass, ast.ClassDef):
                continue
            for node in ast.walk(klass):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    assigned.setdefault((klass.name, node.attr), (path, node.lineno))
    for text in external_texts:
        try:
            loaded |= _loaded_names(ast.parse(text))
        except SyntaxError:
            loaded.update(re.findall(r"\.([A-Za-z_][A-Za-z0-9_]*)", text))
    return [
        f"{path}:{line} {klass}.{attr}"
        for (klass, attr), (path, line) in assigned.items()
        if attr not in loaded
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


def _definition_key(entry: str) -> str:
    return entry.rsplit(" ", 1)[1].rsplit(".", 1)[-1]


def _qualified_key(entry: str) -> str:
    return entry.rsplit(" ", 1)[1]


def _unallowed(scan, key) -> list[str]:
    started = time.perf_counter()
    flagged = [entry for entry in scan(*_production_inputs()) if key(entry) not in ALLOWLIST]
    assert time.perf_counter() - started < 2.0, "the reachability scan must stay cheap"
    return flagged


def test_every_definition_is_named_by_production_code():
    dead = _unallowed(unreferenced, _definition_key)
    assert not dead, (
        "definitions that only tests reach (delete them, or add an ALLOWLIST"
        " entry with its reason):\n  " + "\n  ".join(dead)
    )


def test_every_defaulted_parameter_is_passed_by_production_code():
    unpassed = _unallowed(unpassed_parameters, _qualified_key)
    assert not unpassed, (
        "defaulted parameters that only tests pass (make the value a constant and"
        " delete what only other values reach, or add an ALLOWLIST entry with its"
        " reason):\n  " + "\n  ".join(unpassed)
    )


def test_every_attribute_is_read_by_production_code():
    unread = _unallowed(unread_attributes, _qualified_key)
    assert not unread, (
        "attributes that production code writes but never reads (delete them,"
        " or add an ALLOWLIST entry with its reason):\n  " + "\n  ".join(unread)
    )


def test_allowlist_entries_are_still_unreached():
    sources, external = _production_inputs()
    flagged = (
        {_definition_key(entry) for entry in unreferenced(sources, external)}
        | {_qualified_key(entry) for entry in unpassed_parameters(sources, external)}
        | {_qualified_key(entry) for entry in unread_attributes(sources, external)}
    )
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


def test_a_synthetic_unpassed_parameter_is_flagged():
    module = '''
def used(a, b=1, *, c=2, d=3):
    return a


def forwards(x, depth=0):
    return used(x, c=depth)  # only forwards: c counts once depth is reached


class Base:
    def __init__(self, size=4):
        self.size = size


class Child(Base):
    def __init__(self, size=4, label=""):
        super().__init__(size)
        self.label = label


used(1, 2)
used(1, d=5)
Child(8)
'''
    # b by position, d by keyword, Child's size by position through the
    # class name, Base's size forwarded from the reached Child size.
    assert unpassed_parameters({"pkg/mod.py": module}, external_texts=[]) == [
        "pkg/mod.py:2 used(c)",
        "pkg/mod.py:6 forwards(depth)",
        "pkg/mod.py:16 Child.__init__(label)",
    ]
    # A keyword in external Python reaches depth, and so the c it forwards;
    # text that is not Python (README prose) is read for ``name=``.
    assert unpassed_parameters(
        {"pkg/mod.py": module}, ["forwards(1, depth=2)", "Call `Child(label='x')`."]
    ) == []


def test_a_synthetic_unread_attribute_is_flagged():
    module = '''
class Tally:
    __slots__ = ("hits", "misses", "label")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.label = "tally"

    def record(self, hit):
        self.hits += hit
        self.misses += not hit

    def describe(self):
        return f"{self.label}: {getattr(self, 'hits')}"
'''
    # misses is only ever stored (``+=`` is no read, a slot name no use).
    assert unread_attributes({"pkg/mod.py": module}, external_texts=[]) == [
        "pkg/mod.py:7 Tally.misses"
    ]
    assert unread_attributes({"pkg/mod.py": module}, ["print(tally.misses)"]) == []
    assert unread_attributes({"pkg/mod.py": module}, ["`tally.misses` counts"]) == []
