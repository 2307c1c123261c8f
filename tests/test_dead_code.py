"""Every top-level function, class and method under src/ has a user.

A definition whose name is an identifier on no line of src/ or tests/ other
than the line that defines it is dead: nothing calls it, and no test holds
it as a reference.  Only identifiers count, so a name that appears in a
docstring, a comment or a string is not a use.  A definition named on no
other line of src/ is used by the tests alone; that set is pinned, so it
may shrink but not grow.  Dunder methods are exempt, since the language
calls them, and so is cli._Parser.error, which argparse calls.
"""

import ast
import io
import pathlib
import tokenize
from collections import Counter

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qgrass").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(path):
    """(name, qualified name, line) of each top-level definition and each
    method in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, DEFINITIONS):
                    yield child.name, f"{node.name}.{child.name}", child.lineno


# called by the argparse machinery, not by name
EXEMPT = {"_Parser.error"}


# the definitions that only the tests call (ROADMAP item 18)
TEST_ONLY = {
    "is_standard",
    "standardize",
    "column_multisets",
    "young_image",
    "leading_term",
    "parse_text",
    "parse_json",
    "hibi_binomial",
    "standard_monomials",
    "factor_initial",
    "weight_initial_r",
    "compare",
    "variable",
    "psi_invert",
    "apply_hom",
    "solve_in_span",
}


def identifier_lines(path):
    """(identifier, line) of each NAME token in path."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME}


def named_once(paths):
    """name -> "path:line qualified name" of each non-dunder definition
    under src/ whose name is an identifier on no line of paths other than
    its own."""
    # the number of lines of paths on which each identifier appears
    lines_with = Counter(name for path in paths for name, _ in identifier_lines(path))
    return {
        name: f"{path.relative_to(ROOT)}:{lineno} {qualname}"
        for path in SOURCES
        for name, qualname, lineno in definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
        and qualname not in EXEMPT
        and lines_with[name] < 2
    }


def test_every_definition_is_referenced():
    orphans = named_once(SOURCES + TESTS).values()
    assert not orphans, "defined but never referenced: " + ", ".join(orphans)


def test_no_new_definition_is_used_by_the_tests_alone():
    new = [where for name, where in named_once(SOURCES).items() if name not in TEST_ONLY]
    assert not new, "named on no other line of src/: " + ", ".join(new)
