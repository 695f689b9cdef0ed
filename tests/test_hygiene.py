"""Lint steps: every name a module imports is referenced in that module,
no function in `src/dbrb` imports anything, every function, class and
method defined in `src/dbrb` is named somewhere else in it, every field
`Node.__init__` sets is read somewhere in it, no code but
`Node.__init__` and `_set_phase` assigns `self.phase`, and no record in
`messages` repeats a message kind's fields.

Uses only the stdlib `ast` module.  Package `__init__.py` files, which
import to re-export, and `from __future__` imports are exempt.  Imports
in `src/dbrb` belong at module level, where they run once; the package
has no import cycle that would need a deferred import.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "dbrb").glob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
SOURCE_MODULES = sorted((ROOT / "src" / "dbrb").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import json\nimport os\nfrom typing import Optional, Any\nos.getcwd()\nx: Any\n"
    assert unused_imports(source) == ["line 1: json", "line 3: Optional"]


def function_local_imports(source: str) -> list[int]:
    """Line numbers of the imports made inside a function (or method)."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def test_function_local_import_is_reported():
    source = ("import os\n\ndef f():\n    from json import dumps\n    return dumps\n\n"
              "class C:\n    def g(self):\n        import re\n")
    assert function_local_imports(source) == [4, 9]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source: str):
    """Names of the top-level functions and classes, and of the methods
    other than dunders."""
    for node in ast.parse(source).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, FUNCTIONS) and not item.name.startswith("__"))


def unnamed_definitions(sources: list[str]) -> list[str]:
    """Definitions whose name appears in the sources only where defined."""
    defined: dict[str, int] = {}
    for source in sources:
        for name in definitions(source):
            defined[name] = defined.get(name, 0) + 1
    text = "\n".join(sources)
    return sorted(name for name, count in defined.items()
                  if len(re.findall(rf"\b{name}\b", text)) <= count)


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions([p.read_text() for p in SOURCE_MODULES]) == []


def test_unnamed_definition_is_reported():
    used = "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    def m(self):\n        pass\n"
    other = "class D:\n    def __init__(self):\n        f()\n\n    def m(self):\n        pass\n"
    assert unnamed_definitions([used, other]) == ["C", "D", "m"]


def init_fields(source: str, cls: str) -> list[str]:
    """The `self.<name>` attributes that `cls.__init__` assigns, in order."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            init = next(item for item in node.body
                        if isinstance(item, FUNCTIONS) and item.name == "__init__")
            return list(dict.fromkeys(
                n.attr for n in ast.walk(init)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"))
    raise LookupError(cls)


def unread_fields(init_source: str, sources: list[str], cls: str = "Node") -> list[str]:
    """Fields `cls.__init__` sets that no source reads as `self.<name>`.

    An augmented assignment such as `self.n += 1` writes its target, so a
    field that is only ever incremented still counts as unread.
    """
    read = {n.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return [name for name in init_fields(init_source, cls) if name not in read]


def test_every_node_field_is_read():
    engine = (ROOT / "src" / "dbrb" / "engine.py").read_text()
    assert unread_fields(engine, [p.read_text() for p in SOURCE_MODULES]) == []


def test_unread_field_is_reported():
    node = ("class Node:\n    def __init__(self, x):\n        self.a = x\n"
            "        self.b: int = 0\n        self.c = self.d = 1\n        self.n = 0\n\n"
            "    def f(self):\n        self.c = self.a\n        self.n += 1\n")
    other = "class M:\n    def g(self):\n        return self.d\n"
    assert unread_fields(node, [node, other]) == ["b", "c", "n"]


PHASE_WRITERS = {"Node.__init__", "MembershipMixin._set_phase"}


def phase_writes(source: str) -> list[str]:
    """The functions other than `PHASE_WRITERS` that assign `self.phase`,
    named `Class.method` or, at module level, `function`."""
    scopes = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, FUNCTIONS)]
        elif isinstance(node, FUNCTIONS):
            scopes.append((node.name, node))
    return [name for name, fn in scopes if name not in PHASE_WRITERS
            and any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and n.attr == "phase" and isinstance(n.value, ast.Name)
                    and n.value.id == "self" for n in ast.walk(fn))]


def test_only_set_phase_writes_the_phase():
    # `_set_phase` wakes every scan that reads the phase; a write elsewhere
    # could leave one of them with work
    assert [name for p in SOURCE_MODULES for name in phase_writes(p.read_text())] == []


def test_phase_write_is_reported():
    source = ("class Node:\n    def __init__(self):\n        self.phase = 0\n\n"
              "    def f(self):\n        self.phase = 1\n\n"
              "    def g(self):\n        def h():\n            self.phase += 1\n"
              "        other.phase = 2\n\n"
              "class MembershipMixin:\n    def _set_phase(self, p):\n        self.phase = p\n\n"
              "    def __init__(self):\n        self.phase = 0\n\n"
              "def k(self):\n    self.phase = 3\n")
    assert phase_writes(source) == ["Node.f", "Node.g", "MembershipMixin.__init__", "k"]


def kind_copies(source: str) -> list[str]:
    """The dataclasses other than message kinds (the classes with a `TAG`)
    whose field types, in order, are those of a kind with fields, alone or
    followed by `bytes`: a second record of that kind's message, or of it
    with a signature, where `Signed` and the kind itself would do."""
    kinds, records = {}, {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or not any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            continue
        layout = tuple(ast.unparse(item.annotation) for item in node.body
                       if isinstance(item, ast.AnnAssign))
        is_kind = any(isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TAG" for t in item.targets) for item in node.body)
        (kinds if is_kind else records)[node.name] = layout
    return sorted(name for name, layout in records.items()
                  if any(kind and layout in (kind, kind + ("bytes",)) for kind in kinds.values()))


def test_no_record_copies_a_message_kind():
    assert kind_copies((ROOT / "src" / "dbrb" / "messages.py").read_text()) == []


def test_kind_copy_is_reported():
    source = ("@dataclass(frozen=True)\nclass Ping:\n    TAG = 1\n    view: View\n    n: int\n\n"
              "@dataclass\nclass Empty:\n    TAG = 2\n\n"
              "@dataclass(frozen=True)\nclass PingCopy:\n    view: View\n    n: int\n\n"
              "@dataclass\nclass SignedPing:\n    view: View\n    n: int\n    sig: bytes\n\n"
              "@dataclass\nclass Other:\n    n: int\n    view: View\n\n"
              "@dataclass\nclass Signature:\n    sig: bytes\n\n"
              "class Plain:\n    view: View\n    n: int\n")
    assert kind_copies(source) == ["PingCopy", "SignedPing"]
