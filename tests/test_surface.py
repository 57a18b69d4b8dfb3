"""Every public function, class and method in the library has a caller outside the tests.

A public module-level name in src/recdiv, and a public method or property of
a public class there, must be referenced by library code (its own module or
another; the re-exports in __init__ do not count), by a script in scripts/,
or by bench/run.py. A method counts as referenced when an attribute of that
name is. The only exceptions are listed below with a reason each, so code
that only the tests call cannot grow back unnoticed. Reference
implementations that only the tests call live in tests/oracles.py, and the
package re-exports none of the listed names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "recdiv").glob("*.py") if p.name != "__init__.py")
CALLERS = [*LIBRARY, *sorted((ROOT / "scripts").glob("*.py")), ROOT / "bench" / "run.py"]

# All three stay in the library while bench/run.py traces them by name.
TEST_ORACLES = {
    "factor_mod_p": "full factorization mod p, checked against pattern and fp_root",
    "solve_gamma": "the Vandermonde solve that build_context's closed-form gamma1 must match",
    "artin_fraction": "the primitive-root fraction that order-stats --base must print",
}


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_definitions():
    """(module, name) of each public function and class, and (module,
    "Class.method") of each public method or property of a public class."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if _public(node):
                yield path.stem, node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and _public(item):
                            yield path.stem, f"{node.name}.{item.name}"


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _referenced_names(CALLERS)
    unused = sorted(
        f"{module}.{name}"
        for module, name in _public_definitions()
        if name.rpartition(".")[2] not in used and name not in TEST_ORACLES
    )
    assert not unused, f"public names only the tests call: {unused}"


def test_oracle_allow_list_is_exact():
    # each entry is defined, has no caller outside the tests, and a test calls it
    defined = {name for _, name in _public_definitions()}
    used = _referenced_names(CALLERS)
    tested = _referenced_names(sorted((ROOT / "tests").glob("test_*.py")))
    bare = {name.rpartition(".")[2] for name in TEST_ORACLES}
    assert TEST_ORACLES.keys() <= defined
    assert not bare & used
    assert bare <= tested


def test_package_reexports_no_oracle():
    init = ast.parse((ROOT / "src" / "recdiv" / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bare = {name.rpartition(".")[2] for name in TEST_ORACLES}
    assert not bare & exported, f"recdiv re-exports test oracles: {sorted(bare & exported)}"
