"""Every memo keyed on a polynomial has a finite size.

A memo whose key holds a ``Poly`` grows with the input: one sweep can
feed it hundreds of thousands of distinct polynomials.  So every
``lru_cache`` in the package on a function with a parameter annotated
``Poly`` must set a finite ``maxsize``.
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


def unbounded_poly_memos(source: str) -> list:
    """Functions that take a Poly and carry an unbounded memo."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or not _takes_poly(node):
            continue
        if any(_is_bounded(d) is False for d in node.decorator_list):
            out.append(node.name)
    return sorted(out)


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
    )
    assert unbounded_poly_memos(source) == ["a", "c", "e", "h", "m"]


def test_package_memos_on_polynomials_are_bounded():
    unbounded = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unbounded_poly_memos(path.read_text()))
    }
    assert not unbounded


def test_guard_covers_the_package_memos_on_polynomials():
    # the guard must see the memos it exists for
    covered = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _takes_poly(node) and any(
                _is_bounded(d) is not None for d in node.decorator_list
            ):
                covered.add(node.name)
    assert {"_component_image", "_normal_form_rep"} <= covered
