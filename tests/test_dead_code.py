"""Every top-level function, class, method and assignment under src/ has a user.

A top-level definition, or a module-level assignment to a name, whose name
is an identifier on no line of src/ or tests/ other than the line that
defines it is dead: nothing calls or reads it, and no test holds it as a
reference.  Only identifiers count, so a name that appears in a
docstring, a comment or a string is not a use.  A method is reached
through an attribute, so it counts as used only where its name follows a
dot on something other than a module or an argparse namespace:
lattice.rank and args.rank are no use of a method named rank, and a bare
local named rows is no use of a method named rows.  A definition used on
no other line of src/ is used by the tests alone, and so is one whose
every use on another line of src/ lies inside the body of a definition
used by the tests alone; that set is pinned exactly, so a new member
fails and so does a pinned name that is gone or has a user in src/ again.
Dunder names are exempt, since the language uses them.  (cli's argparse
subclass, whose error method only argparse calls, is defined inside a
function, so it is none of these definitions.)

Every name that an import binds in a test module is read by some
expression of that module, so imports do not outlive the references
they were for.
"""

import ast
import io
import pathlib
import tokenize
from collections import Counter
from importlib.util import find_spec

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qgrass").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(path):
    """(name, qualified name, line, last line, is a method) of each
    top-level definition, each module-level assignment to a name and each
    method in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name, node.lineno, node.end_lineno, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, DEFINITIONS):
                    qualname = f"{node.name}.{child.name}"
                    yield child.name, qualname, child.lineno, child.end_lineno, True


# the definitions that only the tests use (ROADMAP item 18), each group
# with the reason it stays under src/
TEST_ONLY = {
    # read by perfbench's per-layer metrics (item 1), with their helpers
    "compare",
    "leading_term",
    "standard_monomials",
    "factor_initial",
    "psi_invert",
    "solve_in_span",
    "mono_deg",
    "covers",
    "from_young",
    # paper content: the Hibi binomials (item 23), the weight initial forms
    # of the syzygies (item 5) and the tableau helpers
    "hibi_binomial",
    "weight_initial_r",
    "is_standard",
    "standardize",
    "column_multisets",
}


def identifier_lines(path):
    """(identifier, line) of each NAME token in path."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME}


def module_names(tree):
    """The names that the imports of a parsed file bind to modules: a
    from-import binds one when its base is a package with a module of that
    name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = f"qgrass.{node.module or ''}".rstrip(".") if node.level else node.module
            package = find_spec(base)
            if package and package.submodule_search_locations:
                names.update(a.asname or a.name for a in node.names if find_spec(f"{base}.{a.name}"))
    return names


def namespace_names(tree):
    """The names that a parsed file binds to an argparse namespace: the
    targets of an assignment from a parse_args call.  The file's other
    uses of such a name (cli passes it on as a parameter of the same name)
    read options, not methods."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "parse_args"
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def attribute_lines(path):
    """(attribute, line) of each attribute access in path whose object is
    neither a module nor an argparse namespace."""
    tree = ast.parse(path.read_text())
    skipped = module_names(tree) | namespace_names(tree)
    return {
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in skipped)
    }


def named_once(paths):
    """name -> "path:line qualified name" of each non-dunder definition
    under src/ with no use on the lines of paths: a top-level name that is
    an identifier on no line but its own, or a method name that follows a
    dot, on something other than a module or a namespace, on no line."""
    # the number of lines of paths on which each identifier, and each
    # attribute of something other than a module, appears
    lines_with = Counter(name for path in paths for name, _ in identifier_lines(path))
    attribute_of = Counter(name for path in paths for name, _ in attribute_lines(path))
    return {
        name: f"{path.relative_to(ROOT)}:{lineno} {qualname}"
        for path in SOURCES
        for name, qualname, lineno, _, method in definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
        and (not attribute_of[name] if method else lines_with[name] < 2)
    }


def used_by_tests_alone():
    """name -> "path:line qualified name" of each definition under src/
    that only the tests use: one that no other line of src/ names, or one
    whose every mention on another line of src/ lies inside the body of a
    test-only definition, applied until nothing changes.  A mention is an
    identifier, or for a method an attribute, as in named_once."""
    found = named_once(SOURCES)
    spans = [(path, *span) for path in SOURCES for span in definitions(path)]
    idents = {path: identifier_lines(path) for path in SOURCES}
    attributes = {path: attribute_lines(path) for path in SOURCES}
    while True:
        inside = {
            (path, line)
            for path, name, _, first, last, _ in spans
            if name in found
            for line in range(first, last + 1)
        }
        more = {
            name: f"{path.relative_to(ROOT)}:{first} {qualname}"
            for path, name, qualname, first, _, method in spans
            if name not in found
            and not (name.startswith("__") and name.endswith("__"))
            and all(
                (other, line) in inside
                for other in SOURCES
                for mention, line in (attributes if method else idents)[other]
                if mention == name and (other, line) != (path, first)
            )
        }
        if not more:
            return found
        found.update(more)


def test_every_definition_is_referenced():
    orphans = named_once(SOURCES + TESTS).values()
    assert not orphans, "defined but never referenced: " + ", ".join(orphans)


def test_no_new_definition_is_used_by_the_tests_alone():
    found = used_by_tests_alone()
    new = [where for name, where in found.items() if name not in TEST_ONLY]
    assert not new, "used by the tests alone: " + ", ".join(new)
    stale = sorted(TEST_ONLY - found.keys())
    assert not stale, "pinned but gone or used in src/: " + ", ".join(stale)


def unread_imports(path):
    """The names that the imports of path bind and that no expression of
    path reads (an ast.Name in load context); __future__ imports bind none."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_every_test_import_is_read():
    unread = [f"{path.name}: {name}" for path in TESTS for name in unread_imports(path)]
    assert not unread, "imported but never read: " + ", ".join(unread)
