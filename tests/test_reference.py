"""``reference.py`` takes only data types from ``coinv``, and the formulas
it states do not come back into the package, where nothing would run them."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCE_ONLY = {
    "symmetrize", "antisymmetrize", "exact_divide", "eps_nu", "eps_pair", "eps_full",
    "block_group", "antiinv_divide", "is_fixed_by_block_group", "is_block_invariant",
    # the orbit-sum quotient, the package's former second route
    "_slice", "_coordinatize", "_is_canonical", "block_spans", "canonical_exponents",
    "orbit_sum", "insert_integer_row", "orbit_sum_slice", "OrbitSumQuotient",
    # the tableau references: Lusztig's q-analogue and the brute-force count
    "q_kostant", "lusztig_kostka_foulkes", "brute_force_fillings",
}


def test_reference_takes_only_data_types_from_coinv():
    taken = set()
    for node in ast.walk(ast.parse((TESTS / "reference.py").read_text())):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "coinv" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "coinv":
            taken.update(a.name for a in node.names)
    assert taken <= {"Poly", "Q", "grlex_key", "Composition"}


def test_package_defines_no_reference_formula():
    defined = [
        f"{path.name}: {node.name}"
        for path in sorted((TESTS.parent / "src" / "coinv").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REFERENCE_ONLY
    ]
    assert not defined
