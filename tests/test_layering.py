"""Import layering: the core reads no sieve, the oracles call no core code.

The counting and gcd-sum modules take mu, phi and the divisors from one
factorisation of n; the sieve is the oracles' independent table.  The
oracles in turn must not lean on the code they check, so they may import
only the MemoCache container from the core.  No module imports decimal when
it is imported: only the table command uses it, and every process that
imports the package would pay for its import.  Likewise importing cli loads
neither the verify battery nor json nor dataclasses: compute and table load
only the code they run.  One function of the counts
and the gcd sums takes single binomials by comb, so that none is taken twice.
"""

import ast
import subprocess
import sys
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


def test_cli_imports_no_private_core_name():
    # cli reads the core through its public names only; a private helper it needs
    # is a fact with two owners.
    private = {(source, name) for source, name in imported_names("cli")
               if source in ("counts", "menon", "sieve") and name.startswith("_")}
    assert private == set()


def test_private_import_guard_sees_underscore_names():
    assert ("counts", "_adjoint") in imported_names("menon")


def test_guard_sees_imports():
    assert ("sieve", "build_sieve") in imported_names("verification")
    assert ("sieve", "factorize") in imported_names("counts")


def module_level_imports(path: Path) -> set[str]:
    """Top-level names of the modules a module imports when it is imported itself:
    every import outside a function body, relative ones as ""."""
    out, stack = set(), list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("" if node.level else node.module.partition(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_decimal_when_imported(path):
    assert "decimal" not in module_level_imports(path)


def test_decimal_guard_sees_imports():
    assert {"argparse", "sys", ""} <= module_level_imports(PACKAGE / "cli.py")
    # cli imports decimal inside the table path, which the guard must not count.
    assert ("", "decimal") in imported_names("cli")


# Imports, in a fresh interpreter, cli and then runs a tiny verify, and prints after
# each which of the modules that no compute may load are loaded.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
LAZY = ("dataclasses", "inspect", "json", "decimal", "menon_subsets.verification")
import menon_subsets.cli as cli
print(*[m for m in LAZY if m in sys.modules])
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--n-max-enum", "2", "--n-max-formula", "2", "--json"])
print(*[m for m in LAZY if m in sys.modules])
"""


def test_compute_and_table_import_only_what_they_run():
    # Every compute or table process imports cli; the verify battery, dataclasses (and
    # its inspect), json and decimal belong to verify, the JSON writers and the f|phi tables.
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    on_import, after_verify = (set(line.split()) for line in proc.stdout.splitlines())
    assert on_import == set()
    # The probe sees the imports that verify does make, so an empty set is no accident.
    assert {"json", "menon_subsets.verification"} <= after_verify


def functions_calling(module: str, target: str) -> set[str]:
    """Names of the functions of a module whose own body calls `target` (math.comb, say),
    however the module imports it: by name, under an alias, or as an attribute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    source, _, name = target.rpartition(".")
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == source
               for alias in node.names if alias.name == name}

    def calls(node) -> bool:
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in aliases or isinstance(f, ast.Attribute)
                    and f.attr == name and getattr(f.value, "id", None) == source):
                return True
        return any(calls(child) for child in ast.iter_child_nodes(node)
                   if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls(node)}


def test_one_function_takes_binomials():
    # The counts and the gcd sums take every single binomial in one term evaluator,
    # so that a sum over several term lists takes each C(r, k) once; the columns step theirs.
    assert {(module, fn) for module in ("counts", "menon")
            for fn in functions_calling(module, "math.comb")} == {("counts", "_term_sum")}


def test_binomial_guard_sees_calls():
    assert functions_calling("oracle", "math.comb")
    assert functions_calling("verification", "math.comb")
