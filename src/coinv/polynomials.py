"""Exact sparse multivariate polynomials over the rationals.

Polynomials live in a fixed number of variables x_1..x_n with arbitrary
precision rational coefficients.  Each variable carries cohomological
degree two, so every externally reported degree is twice the exponent
sum; internal bookkeeping uses plain exponent sums throughout.

Coefficient rule: a coefficient is a Python int when it is integral and
a Q (``fractions.Fraction``, the only rational type) only when it is
genuinely fractional.  ``_coef`` states the rule once; every
constructor and every operation that can turn a fraction integral goes
through it, and every division goes through Q, so no float can appear.
Q(3) == 3 with equal hashes, so the rule changes no comparison; it only
keeps the common integer case off the slow rational arithmetic.

The canonical term order is graded lexicographic: compare total exponent
first, then exponent vectors left to right (so x_1 beats x_2 within a
degree).
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction as Q
from functools import lru_cache, partial
from typing import Iterable, Sequence

from .reporting import Report
from .shapes import Composition

QONE = Q(1)


def _coef(c):
    """The coefficient rule: c as an int when integral, as a Q otherwise."""
    if type(c) is int:
        return c
    c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _all_int(terms: dict) -> bool:
    """Whether every coefficient of a term dict is an int."""
    return set(map(type, terms.values())) <= {int}


def _coefs(terms: dict) -> dict:
    """The non-zero terms of a dict, every coefficient under the rule."""
    return {
        e: c if type(c) is int else _coef(c) for e, c in terms.items() if c != 0
    }


def grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


class Poly:
    """Immutable sparse polynomial: exponent tuple -> non-zero rational.

    ``_clean=True`` skips validation: the caller promises valid exponents
    and non-zero coefficients that already follow the coefficient rule.
    The hash is computed on first use and kept in the ``_hash`` slot, so
    a memo keyed on a polynomial builds its frozenset of terms once.
    Slots are set through their member descriptors (``_set_n`` and the
    others below the class), which bypass the refusing ``__setattr__``
    more cheaply than ``object.__setattr__`` does.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict | None = None, *, _clean: bool = False):
        if _clean:
            _set_n(self, n)
            _set_terms(self, terms)
            return
        terms = _coefs({tuple(e): c for e, c in (terms or {}).items()})
        for e in terms:
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for n={n}")
        _set_n(self, int(n))
        _set_terms(self, terms)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {}, _clean=True)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = _coef(c)
        if c == 0:
            return cls.zero(n)
        return cls(n, {(0,) * n: c}, _clean=True)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls.const(n, 1)

    @classmethod
    def var(cls, n: int, i: int) -> "Poly":
        """The generator x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {exp: 1}, _clean=True)

    @classmethod
    def monomial(cls, n: int, exp: Sequence[int], c=1) -> "Poly":
        c = _coef(c)
        if c == 0:
            return cls.zero(n)
        exp = tuple(int(x) for x in exp)
        if len(exp) != n or any(x < 0 for x in exp):
            raise ValueError(f"bad exponent vector {exp} for n={n}")
        return cls(n, {exp: c}, _clean=True)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Top reported (doubled) degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return 2 * max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant(self):
        return self.terms.get((0,) * self.n, 0)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        return Poly.const(self.n, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s == 0:
                    del terms[e]
                else:
                    terms[e] = s if type(s) is int else _coef(s)
        return Poly(self.n, terms, _clean=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _coef(other)
            if c == 0:
                return Poly.zero(self.n)
            if c == 1:
                return self
            terms = {e: k * c for e, k in self.terms.items()}
            if type(c) is not int or not _all_int(terms):
                terms = _coefs(terms)
            return Poly(self.n, terms, _clean=True)
        if other.n != self.n:
            raise ValueError("mixed variable counts")
        if not self.terms or not other.terms:
            return Poly.zero(self.n)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial shifts b's exponents apart, so nothing collides
            # and no product of non-zero coefficients cancels
            [(e1, c1)] = a.items()
            out = {tuple(map(operator.add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
            if not (type(c1) is int and _all_int(b)):
                out = _coefs(out)
            return Poly(self.n, out, _clean=True)
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
        if not (_all_int(a) and _all_int(b)):
            out = _coefs(out)
        return Poly(self.n, out, _clean=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        c = Q(scalar)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * (QONE / c)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, frozenset(self.terms.items())))
            _set_hash(self, h)
            return h

    # ------------------------------------------------------------------
    # presentation

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self!s})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{j + 1}" if k == 1 else f"x{j + 1}^{k}"
                for j, k in enumerate(e)
                if k
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            bits.append(piece)
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def to_json(self) -> list:
        out = []
        for e in sorted(self.terms, key=grlex_key):
            c = self.terms[e]
            out.append(
                {
                    "exp": list(e),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
            )
        return out

    @classmethod
    def from_json(cls, n: int, data: list) -> "Poly":
        """Inverse of ``to_json``.  ``data`` must be a list of terms, and
        every number an integer, as a JSON integer or a base-10 string;
        anything else is a ``ValueError`` rather than being truncated."""
        if not isinstance(data, list):
            raise ValueError(
                f"expected a list of terms, got {type(data).__name__}"
            )
        terms = {}
        for item in data:
            if not isinstance(item["exp"], (list, tuple)):
                raise ValueError(f"exponent must be a list, got {item['exp']!r}")
            exp = tuple(_json_int(x) for x in item["exp"])
            c = Q(_json_int(item["num"]), _json_int(item["den"]))
            terms[exp] = terms.get(exp, 0) + c
        return cls(n, terms)


_set_n = Poly.n.__set__
_set_terms = Poly.terms.__set__
_set_hash = Poly._hash.__set__


def _json_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


# ----------------------------------------------------------------------
# divided differences


def divided_difference(f: Poly, j: int) -> Poly:
    """The divided difference (f - s_j f) / (x_j - x_{j+1}), 1-based j.

    Term by term, with no division: for p > q the monomial
    x_j^p x_{j+1}^q goes to the sum of x_j^{p-1-t} x_{j+1}^{q+t} over
    t = 0..p-q-1; for p == q it goes to 0, and for p < q to the negative
    of the image of the swapped monomial.
    """
    n = f.n
    if not 1 <= j < n:
        raise ValueError(f"divided difference index {j} out of range 1..{n - 1}")
    out: dict = {}
    for e, c in f.terms.items():
        p, q = e[j - 1], e[j]
        if p == q:
            continue
        if p < q:
            p, q, c = q, p, -c
        head, tail = e[: j - 1], e[j + 1 :]
        for t in range(p - q):
            e2 = head + (p - 1 - t, q + t) + tail
            out[e2] = out.get(e2, 0) + c
    return Poly(n, _coefs(out), _clean=True)


# ----------------------------------------------------------------------
# symmetric polynomials on chosen variables


@lru_cache(maxsize=None)
def _e_cached(n: int, vars_: tuple, r: int) -> Poly:
    if r < 0:
        return Poly.zero(n)
    if r == 0:
        return Poly.one(n)
    if r > len(vars_):
        return Poly.zero(n)
    terms = {}
    for combo in itertools.combinations(vars_, r):
        exp = [0] * n
        for j in combo:
            exp[j - 1] = 1
        terms[tuple(exp)] = 1
    return Poly(n, terms, _clean=True)


@lru_cache(maxsize=None)
def _h_cached(n: int, vars_: tuple, r: int) -> Poly:
    if r < 0:
        return Poly.zero(n)
    if r == 0:
        return Poly.one(n)
    if not vars_:
        return Poly.zero(n)
    terms = {}
    for combo in itertools.combinations_with_replacement(vars_, r):
        exp = [0] * n
        for j in combo:
            exp[j - 1] += 1
        terms[tuple(exp)] = 1
    return Poly(n, terms, _clean=True)


def _check_vars(n: int, vars_: Iterable[int]) -> tuple:
    out = tuple(sorted(int(v) for v in vars_))
    if any(not 1 <= v <= n for v in out):
        raise ValueError(f"variable index out of range 1..{n}: {out}")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated variable index in {out}")
    return out

def e_sym(n: int, vars_: Iterable[int], r: int) -> Poly:
    """Elementary symmetric polynomial of degree r in chosen variables.

    Conventions: zero for r < 0 and for r beyond the variable count; one
    for r = 0.
    """
    return _e_cached(n, _check_vars(n, vars_), int(r))


def h_sym(n: int, vars_: Iterable[int], r: int) -> Poly:
    """Complete homogeneous symmetric polynomial of degree r in chosen variables.

    Conventions: zero for r < 0, one for r = 0.
    """
    return _h_cached(n, _check_vars(n, vars_), int(r))


def _block_union(nu: Composition, indices: Iterable[int]) -> tuple:
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated block index in {idx}")
    out = []
    for i in idx:
        out.extend(nu.block_range(i))
    return tuple(sorted(out))


def e_block(nu: Composition, indices: Iterable[int], r: int) -> Poly:
    """Elementary symmetric polynomial on a union of blocks of ``nu``."""
    return e_sym(nu.n, _block_union(nu, indices), r)


def h_block(nu: Composition, indices: Iterable[int], r: int) -> Poly:
    """Complete symmetric polynomial on a union of blocks of ``nu``."""
    return h_sym(nu.n, _block_union(nu, indices), r)


# ----------------------------------------------------------------------
# identity suite


def _convolution(first, second, r: int, alternating: bool = False) -> Poly:
    """sum_{s=0..r} first(s) * second(r - s), each term signed (-1)^s when
    ``alternating``; ``first`` and ``second`` map a degree to a Poly."""
    acc = first(0) * second(r)
    for s in range(1, r + 1):
        term = first(s) * second(r - s)
        acc = acc - term if alternating and s % 2 else acc + term
    return acc


def verify_identity_suite(n: int, r_max: int) -> Report:
    """Exact checks of the classical e/h identities in n variables.

    Splits range over all disjoint pairs of subsets of {1..n}; every check
    compares polynomials exactly and failures are reported, not raised.
    """
    report = Report(f"symmetric-function identities, n={n}, r_max={r_max}")
    universe = list(range(1, n + 1))
    full = tuple(universe)
    subsets = [
        tuple(s)
        for size in range(n + 1)
        for s in itertools.combinations(universe, size)
    ]
    # e(vars_)(r) and h(vars_)(r) are e_r and h_r of the chosen variables
    e = partial(partial, e_sym, n)
    h = partial(partial, h_sym, n)

    ok = all(
        _convolution(e(sub), h(sub), r, alternating=True).is_zero
        for sub in subsets
        for r in range(1, r_max + 1)
    )
    report.add("eh_alternating_sum_vanishes", ok)

    cases = []
    for a_set in subsets:
        rest = [j for j in universe if j not in a_set]
        for size in range(len(rest) + 1):
            for b_set in itertools.combinations(rest, size):
                union = tuple(sorted(a_set + b_set))
                cases.extend((a_set, b_set, union, r) for r in range(r_max + 1))
    ok = all(h(u)(r) == _convolution(h(a), h(b), r) for a, b, u, r in cases)
    report.add("h_splits_over_disjoint_union", ok)
    ok = all(e(u)(r) == _convolution(e(a), e(b), r) for a, b, u, r in cases)
    report.add("e_splits_over_disjoint_union", ok)
    ok = all(
        h(a)(r) == _convolution(e(b), h(u), r, alternating=True)
        for a, b, u, r in cases
    )
    report.add("h_of_subset_via_complement", ok)
    ok = all(
        e(a)(r) == _convolution(h(b), e(u), r, alternating=True)
        for a, b, u, r in cases
    )
    report.add("e_of_subset_via_complement", ok)

    ok = all(
        _convolution(
            e(full), partial(pow, Poly.var(n, j)), n, alternating=True
        ).is_zero
        for j in universe
    )
    report.add("generator_annihilates_characteristic_sum", ok)

    # e_s of the n - 1 other variables vanishes for s >= n, so the sum up
    # to m is the sum up to n - 1
    ok = all(
        Poly.var(n, j) ** m
        == _convolution(
            e([v for v in universe if v != j]), h(full), m, alternating=True
        )
        for j in universe
        for m in range(r_max + 1)
    )
    report.add("power_reduces_to_e_h_combination", ok)

    return report
