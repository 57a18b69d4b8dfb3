"""Every public function and class in the library has a caller outside the tests.

A public module-level name in src/recdiv must be referenced by library code
(its own module or another; the re-exports in __init__ do not count), by a
script in scripts/, or by bench/run.py. The only exceptions are the test
oracles below, so code that only the tests call cannot grow back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "recdiv").glob("*.py") if p.name != "__init__.py")
CALLERS = [*LIBRARY, *sorted((ROOT / "scripts").glob("*.py")), ROOT / "bench" / "run.py"]

TEST_ORACLES = {
    "factor_mod_p": "full factorization mod p, checked against pattern and fp_root",
    "solve_gamma": "the Vandermonde solve that build_context's closed-form gamma1 must match",
    "period_mod": "the period mod p by orbit walk and by root orders: the period law",
    "cross_validate": "the structural and brute deciders side by side on small ranges",
    "term_int": "exact terms, against which term_mod is checked",
    "euler_phi": "phi(m) by factorization, the oracle for the totient sieve",
    "nondegeneracy": "the degeneracy verdict alone; analyze_poly takes it from the shared helper",
    "artin_fraction": "the primitive-root fraction that order-stats --base must print",
}


def _public_definitions():
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


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
        if name not in used and name not in TEST_ORACLES
    )
    assert not unused, f"public names only the tests call: {unused}"


def test_oracle_allow_list_is_exact():
    # each entry is defined, has no caller outside the tests, and a test calls it
    defined = {name for _, name in _public_definitions()}
    used = _referenced_names(CALLERS)
    tested = _referenced_names(sorted((ROOT / "tests").glob("test_*.py")))
    assert TEST_ORACLES.keys() <= defined
    assert not TEST_ORACLES.keys() & used
    assert TEST_ORACLES.keys() <= tested
