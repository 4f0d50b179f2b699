"""No test file defines a module-level function or class name twice.

A second `def test_x` in one module rebinds the name, so pytest collects only the
last definition and the first stops running without a word.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def duplicate_names(source: str) -> list[str]:
    """The module-level function and class names that source defines more than once."""
    defined = Counter(node.name for node in ast.parse(source).body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, count in defined.items() if count > 1)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda path: path.stem)
def test_no_test_file_defines_a_name_twice(path):
    assert duplicate_names(path.read_text(encoding="utf-8")) == []


DUPLICATED = '''
def test_a():
    pass

class Case:
    def test_a(self):
        pass

async def test_b():
    pass

class Other:
    def test_a(self):
        pass

def test_a():
    assert False

class Case:
    pass
'''


def test_duplicate_guard_sees_a_rebinding():
    # Two top-level test_a and two Case count; the methods of distinct classes do not.
    assert duplicate_names(DUPLICATED) == ["Case", "test_a"]
    assert duplicate_names("def test_a():\n    pass\n") == []
