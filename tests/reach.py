"""The statements of src/qgrass/ that tier-1 never runs.

A line tracer (sys.settrace, and threading.settrace for new threads) is
installed before qgrass is imported; then tier-1 runs in this process,
through pytest.main with tier-1's arguments.  Each statement of
src/qgrass/ that got no line event is listed with its file, line, scope
and first line of text.  A simple statement is run when any of its lines
got an event, a compound one (def, class, if, for, try, ...) when a line
of its header did.  Docstrings and the statements that compile to no
code (global, nonlocal, an annotation without a value in a function) are
skipped.  Standard library and pytest only:

    python tests/reach.py

It exits 1 when a statement outside ALLOWED is unrun, when an ALLOWED
entry no longer names an unrun statement, or when tier-1 fails.  Traced,
tier-1 runs about three times slower than untraced.
"""

import ast
import collections
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgrass"
TIER1 = ["-q", "--continue-on-collection-errors"]

# (module, scope, first line) of each statement that tier-1 cannot run
ALLOWED = collections.Counter(
    [
        # main is the console entry point: only the tests that start a
        # subprocess run it, and the tracer does not follow them
        ("cli", "main", "try:"),
        ("cli", "main", "code = run()"),
        ("cli", "main", "sys.stdout.flush()"),
        ("cli", "main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
        ("cli", "main", "sys.exit(1)"),
        ("cli", "main", "sys.exit(code)"),
        ("cli", "<module>", "main()"),
    ]
)


def statements(tree):
    """(scope, statement) of each statement of a parsed module that
    compiles to code, docstrings skipped."""
    def walk(node, scope):
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                docstring = (
                    isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and child is body[0]
                    and isinstance(child, ast.Expr)
                    and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)
                )
                declaration = isinstance(child, (ast.Global, ast.Nonlocal)) or (
                    isinstance(child, ast.AnnAssign)
                    and child.value is None
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                if not docstring and not declaration:
                    yield scope, child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                yield from walk(child, inner)
            else:
                yield from walk(child, scope)

    return walk(tree, "<module>")


def lines_of(stmt):
    """The lines whose line events run stmt: a compound statement's header,
    decorators included, or all of a simple statement."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, max(body[0].lineno, stmt.lineno + 1))
    return range(first, stmt.end_lineno + 1)


def unrun(hits):
    """(path, line, (module, scope, first line)) of each statement under
    src/qgrass/ none of whose lines is in hits[path]."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        seen = hits.get(str(path), set())
        for scope, stmt in statements(ast.parse(text)):
            if seen.isdisjoint(lines_of(stmt)):
                key = (path.stem, scope, source[stmt.lineno - 1].strip())
                out.append((path, stmt.lineno, key))
    return out


def main() -> int:
    hits = collections.defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # tier-1 reads its options from pyproject.toml and imports qgrass from src/
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    found = unrun(hits)
    counts = collections.Counter(key for _, _, key in found)
    extra, stale = counts - ALLOWED, ALLOWED - counts
    print(f"\n{len(found)} statements of src/qgrass/ never ran:")
    for path, line, (_, scope, text) in found:
        print(f"  {path.relative_to(ROOT)}:{line}: {scope}: {text}")
    for key in sorted(extra.elements()):
        print("not allowed: %s %s: %s" % key)
    for key in sorted(stale.elements()):
        print("allowed, but ran or gone: %s %s: %s" % key)
    if status != 0:
        print(f"tier-1 failed: pytest exit status {int(status)}")
    return 1 if extra or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
