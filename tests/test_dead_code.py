"""Every top-level function, class and method under src/ has a user.

A definition whose name appears on no line of src/ or tests/ other than the
line that defines it is dead: nothing calls it, and no test holds it as a
reference.  Dunder methods are exempt, since the language calls them.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qgrass").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(path):
    """(name, line) of each top-level definition and each method in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, DEFINITIONS):
                    yield child.name, child.lineno


def test_every_definition_is_referenced():
    # the number of lines of src/ and tests/ on which each word appears
    lines_with = Counter(
        word
        for path in SOURCES + TESTS
        for line in path.read_text().splitlines()
        for word in set(re.findall(r"\w+", line))
    )
    orphans = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path in SOURCES
        for name, lineno in definitions(path)
        if not (name.startswith("__") and name.endswith("__")) and lines_with[name] < 2
    ]
    assert not orphans, "defined but never referenced: " + ", ".join(orphans)
