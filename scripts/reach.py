#!/usr/bin/env python3
"""List the definitions in src/negwit that the product cannot reach, the
dataclass fields that no reached code reads, and the defaulted parameters
that no reached call sets.

A function or method stays in the package only if the product reaches it or
README names it as library API.  The product is the CLI, `scripts/`,
`perfbench/` and the acceptance suite, so the starting points are:

- `src/negwit/cli.py`, every file in `scripts/` and `perfbench/`, and
  `tests/test_acceptance.py`;
- the top-level code of each package module (constants, dispatch tables,
  class bodies) and every dunder method, which Python calls implicitly;
- every identifier inside a README backtick span.

From there the closure is static and by name: a definition is reached when
its bare name is referenced by reached code, as a name, an attribute or a
string constant (`perfbench/tracing.py` patches functions by name).  An
import only binds a name, so it is no reference of its own.  Matching bare
names over-approximates, never under: a definition listed here has no
reference at all from the reached code.

A field of a package dataclass is read when reached code names it as an
attribute it loads (`obj.field`, not `obj.field = ...`) or as an identifier
string (`getattr`, `__setattr__` and JSON keys go by string).  Passing it
to the constructor is no read.

A defaulted parameter of a function is set when a reached call to the
function's bare name passes it, by keyword or by position; a call with
`*args` or `**kwargs` may set any.  Only functions that some reached call
names are judged: one that README names and the product never calls is
library API, whose parameters are its callers' to set.

    python3 scripts/reach.py

prints one `file:line name (lines)` line per unreached definition, methods
as `Class.name`, then one `file:line Class.field (field)` line per unread
field, then one `file:line name(parameter) (parameter)` line per unset
parameter, and exits 1 when it prints any; it prints nothing and exits 0
when every definition is reached, every field read and every parameter set.
It reads the sources only and imports nothing from the package.
"""

import ast
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "negwit"


def _names(node) -> set:
    """Every bare name ``node`` refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                out.add(n.value)
    return out


def _reads(node) -> set:
    """Every attribute ``node`` loads, and every identifier string in it."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                out.add(n.value)
    return out


def _calls(node) -> list:
    """(bare name, positional count, keywords) of every call in ``node``.  A
    ``*args`` makes the count infinite and a ``**kwargs`` adds the keyword
    None: either may set any parameter."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            keywords = {k.arg for k in n.keywords}
            out.append((name, math.inf if starred else len(n.args), keywords))
    return out


def _defaulted(node, method: bool) -> list:
    """(parameter, position in a call or None) of each defaulted parameter
    of the def ``node``; a method's calls do not pass self or cls."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and not any("staticmethod" in _names(d) for d in node.decorator_list):
        positional = positional[1:]
    out = [(name, i) for i, name in enumerate(positional)]
    out = out[len(out) - len(args.defaults):]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return out


def _unset(defaulted, calls) -> list:
    """The parameters in ``defaulted`` that none of ``calls`` sets."""
    return [
        name
        for name, position in defaulted
        if not any(
            name in keywords or None in keywords
            or (position is not None and count > position)
            for count, keywords in calls
        )
    ]


def _readme_names(text: str) -> set:
    """The identifiers inside README's backtick spans, fenced blocks aside."""
    text = re.sub(r"^```.*$", "", text, flags=re.M)
    spans = re.findall(r"`([^`]+)`", text)
    return {w for s in spans for w in re.findall(r"[A-Za-z_]\w*", s)}


def _definitions(path: Path):
    """(qualified name, def node) for every top-level function and method of
    the module at ``path``, and the module's code outside them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs, rest = [], []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            rest.extend([*stmt.decorator_list, *stmt.bases, *stmt.keywords])
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((f"{stmt.name}.{item.name}", item))
                else:
                    rest.append(item)
        else:
            rest.append(stmt)
    return defs, rest


def _fields(path: Path):
    """(line, Class.field) for every field of a dataclass in ``path``."""
    out = []
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(stmt, ast.ClassDef) and any(
            "dataclass" in _names(d) for d in stmt.decorator_list
        ):
            for item in stmt.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out.append((item.lineno, f"{stmt.name}.{item.target.id}"))
    return out


def _audit():
    """(unreached definitions, unread fields, unset parameters), as
    :func:`main` prints them."""
    roots = [ROOT / "tests" / "test_acceptance.py"]
    roots += sorted((ROOT / "scripts").glob("*.py"))
    roots += sorted((ROOT / "perfbench").glob("*.py"))
    reached = _readme_names((ROOT / "README.md").read_text())
    reads = set()
    calls = {}

    def visit(node):
        """Mark what ``node`` refers to, reads and calls; return the new names."""
        new = _names(node) - reached
        reached.update(new)
        reads.update(_reads(node))
        for name, count, keywords in _calls(node):
            calls.setdefault(name, []).append((count, keywords))
        return new

    for path in roots:
        if path.resolve() != Path(__file__).resolve():
            visit(ast.parse(path.read_text(), filename=str(path)))

    by_name = {}
    candidates = []
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        defs, rest = _definitions(path)
        for node in rest:
            visit(node)
        for qualname, node in defs:
            name = node.name
            # the CLI is a root, and Python calls dunder methods itself
            if path.name == "cli.py" or (name.startswith("__") and name.endswith("__")):
                visit(node)
            else:
                by_name.setdefault(name, []).append(node)
                candidates.append((path, qualname, node))
        fields += [(path, line, name) for line, name in _fields(path)]

    todo = list(reached)
    while todo:
        for node in by_name.pop(todo.pop(), ()):
            todo.extend(visit(node))

    definitions = [
        (path.relative_to(ROOT), node.lineno, name, node.end_lineno - node.lineno + 1)
        for path, name, node in candidates
        if node.name not in reached
    ]
    unread = [
        (path.relative_to(ROOT), line, name)
        for path, line, name in fields
        if name.split(".")[1] not in reads
    ]
    unset = [
        (path.relative_to(ROOT), node.lineno, f"{qualname}({param})")
        for path, qualname, node in candidates
        if node.name in calls
        for param in _unset(_defaulted(node, "." in qualname), calls[node.name])
    ]
    return definitions, unread, unset


def unreached() -> list:
    """(file, line, qualified name, line count) of each unreached definition."""
    return _audit()[0]


def unread_fields() -> list:
    """(file, line, Class.field) of each dataclass field no reached code reads."""
    return _audit()[1]


def unset_parameters() -> list:
    """(file, line, name(parameter)) of each defaulted parameter of a called
    function that no reached call sets."""
    return _audit()[2]


def main() -> int:
    definitions, fields, params = _audit()
    for path, line, name, lines in definitions:
        print(f"{path}:{line} {name} ({lines})")
    for path, line, name in fields:
        print(f"{path}:{line} {name} (field)")
    for path, line, name in params:
        print(f"{path}:{line} {name} (parameter)")
    return 1 if definitions or fields or params else 0


if __name__ == "__main__":
    sys.exit(main())
