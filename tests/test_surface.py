"""Every public function, class and method in the library has a caller
outside the tests, and every dataclass field a reader.

A public module-level name in src/recdiv, and a public method or property of
a public class there, must be referenced by library code (its own module or
another), by a script in scripts/, or by bench/run.py. A method counts as
referenced when an attribute of that name is. The only exceptions are listed
below with a reason each, so code that only the tests call cannot grow back
unnoticed. Reference implementations that only the tests call live in
tests/oracles.py. Each field of a dataclass in src/recdiv must likewise be
read, as an attribute, by the library, a script, bench/run.py or
bench/trace_run.py. Reads are matched by attribute name, so a field that
shares its name with an attribute read elsewhere passes; a second check
therefore runs the golden commands with every library dataclass's attribute
reads recorded, and each field must be read there by library code, bar an
allow-list with a reason each. Every name that a module of the library, of
scripts/ or of tests/ imports is used in that module. The package root
imports nothing, and nothing imports from it: each name comes from the
module that defines it.
"""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

from recdiv.cli import cli
from test_golden import COMMANDS, ORDER_STATS, SPECS, _outputs

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "recdiv").glob("*.py"))
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


# fields the golden commands never read, each with its reader
UNREAD_BY_THE_CLI = {
    "BruteResult.steps": "bench/trace_run.py sums it to count brute-force steps by kind",
}


def test_every_dataclass_field_is_read_by_the_library_while_the_cli_runs(
        monkeypatch, tmp_path, capsys):
    # a read counts when the frame doing it runs a library file, so the
    # generated __init__, __eq__, __hash__ and __repr__ (compiled from
    # strings) and the tests do not count, and neither does a read of
    # another type's attribute of the same name
    library = {str(path) for path in LIBRARY}
    fields = set()
    reads = set()
    for path in LIBRARY:
        if path.stem.startswith("__"):  # __main__ would run the CLI on import
            continue
        module = importlib.import_module(f"recdiv.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            names = {f.name for f in dataclasses.fields(cls)}
            fields |= {f"{cls.__name__}.{name}" for name in names}

            def recorded(self, name, _get=cls.__getattribute__, _names=names, _cls=cls.__name__):
                if name in _names and sys._getframe(1).f_code.co_filename in library:
                    reads.add(f"{_cls}.{name}")
                return _get(self, name)

            monkeypatch.setattr(cls, "__getattribute__", recorded)
    monkeypatch.chdir(tmp_path)
    for name in sorted(SPECS):
        _outputs(name, lambda: capsys.readouterr().out)
    for argv in [*(("order-stats", *args) for args in ORDER_STATS.values()), *COMMANDS.values()]:
        assert cli(list(argv)) == 0
    assert sorted(fields - reads) == sorted(UNREAD_BY_THE_CLI)


def test_oracle_allow_list_is_exact():
    # each entry is defined, has no caller outside the tests, and a test calls it
    defined = {name for _, name in _public_definitions()}
    used = _referenced_names(CALLERS)
    tested = _referenced_names(sorted((ROOT / "tests").glob("test_*.py")))
    bare = {name.rpartition(".")[2] for name in TEST_ORACLES}
    assert TEST_ORACLES.keys() <= defined
    assert not bare & used
    assert bare <= tested


def test_package_root_imports_nothing():
    init = ast.parse((ROOT / "src" / "recdiv" / "__init__.py").read_text())
    imports = [
        ast.unparse(node) for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"the package root imports: {imports}"
    from_root = [
        str(path.relative_to(ROOT))
        for top in ("src", "scripts", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "recdiv"
    ]
    assert not from_root, f"names imported from the package root: {from_root}"


def test_no_unused_imports():
    # the name an import binds must occur as a name in the module; a
    # __future__ import binds nothing
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
