"""Import layering: the core reads no sieve, the oracles call no core code.

The counting and gcd-sum modules take mu, phi and the divisors from one
factorisation of n; the sieve is the oracles' independent table.  The
oracles in turn must not lean on the code they check, so they may import
only the MemoCache container from the core.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "menon_subsets"


def imported_names(module: str) -> set[tuple[str, str]]:
    """(source module, name) for every `from X import name` in the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            out.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.rpartition(".")[::2] for alias in node.names)
    return out


@pytest.mark.parametrize("module", ["counts", "menon", "cli"])
def test_core_modules_use_no_sieve(module):
    names = {name for _, name in imported_names(module)}
    # "sieve" would be the module itself, e.g. `from . import sieve`.
    assert not names & {"build_sieve", "SieveTables", "sieve"}


def test_oracle_imports_only_memocache_from_the_core():
    core = {(source, name) for source, name in imported_names("oracle")
            if source in ("counts", "menon")}
    assert core == {("counts", "MemoCache")}


def test_guard_sees_imports():
    assert ("sieve", "build_sieve") in imported_names("verification")
    assert ("sieve", "factorize") in imported_names("counts")
