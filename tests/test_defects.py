"""The planted-defect table (tests/defects.py) still fits the code.

Each defect's old text occurs exactly once in its file and differs from
its new text, and each recorded killer names a test function that its
module defines.  Planting the defects and running their killers is the
table's own script, outside tier-1.
"""

import ast
import pathlib

import pytest

from defects import DEFECTS, PACKAGE, ROOT


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.label)
def test_each_defect_edits_one_place(defect):
    assert defect.old != defect.new
    assert (PACKAGE / defect.path).read_text().count(defect.old) == 1


def defined_tests(path: pathlib.Path) -> set:
    return {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.label)
def test_each_killer_is_a_test(defect):
    assert defect.killers
    for killer in defect.killers:
        path, name = killer.split("::")
        assert path != "tests/test_defects.py", killer
        assert name.split("[")[0] in defined_tests(ROOT / path), killer
