"""Every public function, class and method in the library has a caller
outside the tests, and every dataclass field a reader.

A public module-level name in src/recdiv, and a public method or property of
a public class there, must be referenced by library code (its own module or
another; the re-exports in __init__ do not count), by a script in scripts/,
or by bench/run.py. A method counts as referenced when an attribute of that
name is. The only exceptions are listed below with a reason each, so code
that only the tests call cannot grow back unnoticed. Reference
implementations that only the tests call live in tests/oracles.py, and the
package re-exports none of the listed names. Each field of a dataclass in
src/recdiv must likewise be read, as an attribute, by the library, a script,
bench/run.py or bench/trace_run.py. Reads are matched by attribute name, so
a field that shares its name with an attribute read elsewhere passes.
Every name that a module of the library (bar __init__), of scripts/ or of
tests/ imports is used in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "recdiv").glob("*.py") if p.name != "__init__.py")
CALLERS = [*LIBRARY, *sorted((ROOT / "scripts").glob("*.py")), ROOT / "bench" / "run.py"]
# bench/trace_run.py is the one reader of BruteResult.steps; it counts as a
# reader of dataclass fields only, not as a caller of public names.
FIELD_READERS = [*CALLERS, ROOT / "bench" / "trace_run.py"]

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


def _dataclass_fields():
    """(module, "Class.field") of each annotated field of a dataclass."""
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path.stem, f"{node.name}.{item.target.id}"


def _read_attributes(paths):
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    # a field only its constructor writes is a placeholder
    read = _read_attributes(FIELD_READERS)
    unread = sorted(
        f"{module}.{field}"
        for module, field in _dataclass_fields()
        if field.rpartition(".")[2] not in read
    )
    assert not unread, f"dataclass fields nothing outside the tests reads: {unread}"


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


def test_no_unused_imports():
    # the name an import binds must occur as a name in the module; __init__
    # imports to re-export, and a __future__ import binds nothing
    paths = [
        *LIBRARY,
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
    ]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unused.append(f"{path.relative_to(ROOT)}: {alias.name}")
    assert not unused, f"imported but never used: {unused}"
