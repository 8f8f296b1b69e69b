"""Every memo keyed on a polynomial has a finite size.

A memo whose key holds a ``Poly`` grows with the input: one sweep can
feed it hundreds of thousands of distinct polynomials.  So every
``lru_cache`` in the package on a function with a parameter annotated
``Poly`` must set a finite ``maxsize``.  A memo is either a decorator or
a module-level ``name = lru_cache(...)(callable)`` assignment; the
latter takes a Poly when the callable (a function, or a class through
its ``__init__``) does, and counts as taking one when the guard cannot
see the callable.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coinv"


def _names(node) -> set:
    """Every name and attribute name inside an annotation."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(_names(ast.parse(sub.value, mode="eval")))
    return out


def _takes_poly(fn: ast.FunctionDef) -> bool:
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    return any(
        "Poly" in _names(p.annotation)
        for p in params
        if p is not None and p.annotation is not None
    )


def _is_bounded(dec) -> bool | None:
    """True for a finite lru_cache, False for an unbounded memo, None for
    a decorator that is not a memo."""
    call = dec if isinstance(dec, ast.Call) else None
    target = call.func if call else dec
    if isinstance(target, ast.Attribute):
        name = target.attr
    else:
        name = getattr(target, "id", None)
    if name == "cache":
        return False
    if name != "lru_cache":
        return None
    if call is None:
        return True  # the default maxsize, 128
    size = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "maxsize"), None
    )
    if size is None:
        return True
    return isinstance(size, ast.Constant) and type(size.value) is int


def _assigned_memos(tree: ast.Module):
    """(name, bounded, wrapped callable) of each module-level
    ``name = lru_cache(...)(callable)`` or ``name = cache(callable)``."""
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and len(node.value.args) == 1
        ):
            continue
        # lru_cache(maxsize=...)(fn), or lru_cache(fn) and cache(fn) bare
        bounded = _is_bounded(node.value.func)
        if bounded is not None:
            yield node.targets[0].id, bounded, node.value.args[0]


def _callable_takes_poly(tree: ast.Module, target) -> bool:
    """Whether the named function or class of the module takes a Poly;
    True for a callable the guard cannot see."""
    name = getattr(target, "id", None)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return _takes_poly(node)
        if isinstance(node, ast.ClassDef) and node.name == name:
            return any(
                isinstance(sub, ast.FunctionDef)
                and sub.name == "__init__"
                and _takes_poly(sub)
                for sub in node.body
            )
    return True


def memos(source: str) -> dict:
    """{name: (bounded, takes Poly)} for every memo of a module."""
    tree = ast.parse(source)
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for d in node.decorator_list:
                bounded = _is_bounded(d)
                if bounded is not None:
                    out[node.name] = (bounded, _takes_poly(node))
    for name, bounded, target in _assigned_memos(tree):
        out[name] = (bounded, _callable_takes_poly(tree, target))
    return out


def unbounded_poly_memos(source: str) -> list:
    """Memos that take a Poly and are unbounded."""
    return sorted(
        name
        for name, (bounded, takes_poly) in memos(source).items()
        if takes_poly and not bounded
    )


def _package_memos() -> dict:
    out = {}
    for path in SRC.glob("*.py"):
        out.update(memos(path.read_text()))
    return out


def test_checker_finds_unbounded_memos():
    source = (
        "from functools import cache, lru_cache\n"
        "import functools\n"
        "@lru_cache(maxsize=None)\n"
        "def a(f: Poly): pass\n"
        "@lru_cache(maxsize=64)\n"
        "def b(f: Poly): pass\n"
        "@functools.lru_cache(None)\n"
        "def c(n: int, *, f: 'Poly | None' = None): pass\n"
        "@lru_cache\n"
        "def d(f: Poly): pass\n"
        "@cache\n"
        "def e(gens: tuple, f: coinv.polynomials.Poly): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def g(gens: tuple): pass\n"
        "@lru_cache(maxsize=SIZE)\n"
        "def h(f: Poly): pass\n"
        "class K:\n"
        "    @lru_cache(maxsize=None)\n"
        "    def m(self, f: Poly): pass\n"
        "    def __init__(self, f: Poly): pass\n"
        "class L:\n"
        "    def __init__(self, i: int): pass\n"
        "k_memo = lru_cache(maxsize=None)(K)\n"
        "k_bounded = lru_cache(maxsize=32)(K)\n"
        "l_memo = lru_cache(maxsize=None)(L)\n"
        "a_memo = functools.lru_cache(None)(a)\n"
        "b_memo = lru_cache(b)\n"
        "g_memo = cache(g)\n"
        "unseen_memo = lru_cache(maxsize=None)(imported)\n"
        "not_a_memo = sorted(a)\n"
    )
    assert unbounded_poly_memos(source) == [
        "a", "a_memo", "c", "e", "h", "k_memo", "m", "unseen_memo"
    ]
    found = memos(source)
    assert found["k_bounded"] == (True, True)
    assert found["l_memo"] == (False, False)
    assert found["b_memo"] == (True, True)
    assert found["g_memo"] == (False, False)
    assert "not_a_memo" not in found


def test_package_memos_on_polynomials_are_bounded():
    unbounded = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unbounded_poly_memos(path.read_text()))
    }
    assert not unbounded


def test_guard_covers_the_package_memos_on_polynomials():
    # the guard must see the memos it exists for
    covered = {name for name, (_, takes_poly) in _package_memos().items() if takes_poly}
    assert {"_component_image", "_normal_form_rep"} <= covered


# Memos of the operator path that are bounded although they take no Poly:
# their keys grow with the key situations, kernels and exponents a sweep
# visits.  The assignment-form memo of key situations is among them.
BOUNDED_WITHOUT_POLY = {"_canonical", "_kernel", "_key_situation", "_unit_reps"}


def test_operator_path_memos_have_a_finite_size():
    found = _package_memos()
    assert {name: found.get(name) for name in BOUNDED_WITHOUT_POLY} == {
        name: (True, False) for name in BOUNDED_WITHOUT_POLY
    }
