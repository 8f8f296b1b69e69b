"""Graded ideals and quotient algebras of block-invariant polynomial rings.

A presentation couples the invariant ring P_nu (polynomials fixed by the
block subgroup of a composition) with a homogeneous ideal J given by an
explicit generator list.  Per-degree data is computed lazily: the
orbit-sum monomial basis of P_nu in that degree and the canonical basis
columns of the quotient.  The canonical basis is the non-pivot set of
the echelon of J's degree slice that pivots on the smallest column in
the global graded-lex order.

Each (nu, mu) has one standard presentation, ``presentation(nu, mu)``,
on the e-form shape-cut (Tanisaki) generators.  For mu = 1^n those are
e_1..e_n of all variables, so the plain partial coinvariant algebra
P_nu / Lambda+ is that quotient, and ``presentation(nu)`` is the same
object as ``presentation(nu, 1^n)``.  The canonical basis and every
normal form depend only on the ideal, not on the list that generates
it, so the h-form list
(``tanisaki_generators_h``) given to ``QuotientPresentation`` directly
gives the same answers.

Every generator list must contain Lambda+, the ideal of symmetric
polynomials without constant term: it must hold e_1..e_n or h_1..h_n of
all variables, either of which generates Lambda+.  The standard
presentations hold e_1..e_n, the h-form lists h_1..h_n, and
``QuotientPresentation`` refuses any other list with a ValueError.
Every quotient is then computed in the coinvariant algebra
R = C[x]/(Lambda+), which has dimension n! and vanishes above
degree n(n-1)/2.  That bound holds for every quotient, whatever its
generators: ``hilbert`` sweeps the degrees up to it and ``_r_slice``
returns an empty degree above it.  Monomials have memoised normal forms
modulo the staircase Groebner basis, J R is built degree by degree, and
the basis columns are the orbit sums independent modulo J R.

The algebra depends on nu only through its variable blocks.  So each
(block layout, generator list) has one shared ``_Graded`` object, which
keeps every degree built and the Hilbert series, and presentations over
translated or zero-padded compositions (``1,2@1``, ``1,2@4``,
``1,0,2@1``) share it and its normal-form memo entries.  A presentation
adds only its weight, shape, label and the identity of its elements.
``_Echelon`` is the only elimination in the package; the tests check it
against an orbit-sum echelon of P_nu kept in ``tests/reference.py``.

Coordinates are read one way, by ``_Echelon.solve``: a degree keeps the
rows of J R and its basis columns' tagged rows, and a normal form is one
reduction on them.  ``glaction`` reads power-basis coordinates so too.

Three echelons only answer rank questions, and they are kept fully
reduced (``_Echelon.insert_reduced``): the echelon of (JR)_d, the span
echelon of W_d and the test echelon that decides each scanned orbit
column in ``_r_slice``.  Most rows they see are dependent, and a fully
reduced echelon clears such a row in one pass.  The canonical basis
does not change: a span has one set of leading columns however its rows
are reduced, so every pivot set, and every verdict on a column, is the
one the lazy ``insert`` gives.  The tagged echelons, a degree's and
``glaction``'s, stay lazy and get a row only for a kept column: fully
reducing them would spread the tag entries.

Translates and zero-padded copies of nu share more than the algebra:
``_layout_generators`` keeps one e-form generator tuple per (shape,
block layout), and the generator checks run once per list, when
``_graded`` builds its algebra.

An invariant polynomial's orbit-sum coordinates are its canonical terms,
since each orbit sum has coefficient one on its canonical monomial.
``_orbit_terms`` checks block invariance and reads those coordinates in
one pass over the terms.  ``glaction.decompose_over`` reads them;
``normal_form`` and the generator checks use the same pass as their
invariance check, so every input is checked.
"""
from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import NoSolutionError, NotInvariantError
from .polynomials import (
    Poly,
    QONE,
    _coef,
    _coefs,
    e_sym,
    grlex_key,
    h_sym,
)
from .reporting import Report
from .shapes import (
    Composition,
    Partition,
    dominates,
    sort_to_partition,
    transpose,
)
from .tableaux import IntPoly


# ----------------------------------------------------------------------
# block combinatorics of exponent vectors


# Unbounded: one small tuple per composition looked up, so it grows with
# the weights a run visits, not with the polynomials reduced.  It holds
# 71 entries after ``verify --suite all --n 4`` and 266 after ``--n 5``
# (cold, in process).
@lru_cache(maxsize=None)
def _blocks_of(nu: Composition) -> tuple:
    """Half-open 0-based (start, stop) spans of the non-empty blocks."""
    out = []
    for i in nu.indices():
        if nu[i] > 0:
            rng = nu.block_range(i)
            out.append((rng.start - 1, rng.stop - 1))
        # empty blocks own no variables
    return tuple(out)


# One operator-calculus pass makes 7 407 lookups on 461 distinct pairs;
# ``verify --suite all --n 4`` makes 159 898 on 3 999, which 4 096 entries
# hold, while 1 024 entries miss 915 of its repeats.
@lru_cache(maxsize=4096)
def _canonical(exp: tuple, blocks: tuple) -> tuple:
    """(canonical exponent, orbit size) of exp under the block subgroup.

    The canonical exponent sorts each block's segment decreasingly; the
    orbit size is 0 unless exp is itself canonical.
    """
    out = list(exp)
    for start, stop in blocks:
        out[start:stop] = sorted(out[start:stop], reverse=True)
    canon = tuple(out)
    if canon != exp:
        return canon, 0
    total = 1
    for start, stop in blocks:
        seg = exp[start:stop]
        count = math.factorial(len(seg))
        for v in set(seg):
            count //= math.factorial(seg.count(v))
        total *= count
    return exp, total


@lru_cache(maxsize=None)
def _wd_tuples(length: int, total: int) -> tuple:
    """Weakly decreasing non-negative integer tuples of fixed length/sum."""
    if length == 0:
        return ((),) if total == 0 else ()
    out = []

    def gen(rest: int, slots: int, bound: int, acc: tuple):
        if slots == 0:
            if rest == 0:
                out.append(acc)
            return
        for v in range(min(bound, rest), -1, -1):
            if v * slots < rest:
                break
            gen(rest - v, slots - 1, v, acc + (v,))

    gen(total, length, total, ())
    return tuple(out)


# Unbounded: one tuple per (block layout, degree), so it grows with the
# layouts and degrees a run visits, not with the polynomials reduced.  It
# holds 78 entries after ``verify --suite all --n 4`` and 230 after
# ``--n 5`` (cold, in process).
@lru_cache(maxsize=None)
def _canonical_exps(blocks: tuple, n: int, d: int) -> tuple:
    """Canonical exponent vectors of internal degree d, ascending order."""
    sizes = [stop - start for start, stop in blocks]
    out = []

    def gen(b: int, rest: int, acc: list):
        if b == len(blocks):
            if rest == 0:
                out.append(tuple(acc))
            return
        start, stop = blocks[b]
        for s in range(rest + 1):
            for seg in _wd_tuples(sizes[b], s):
                acc[start:stop] = seg
                gen(b + 1, rest - s, acc)
        acc[start:stop] = [0] * sizes[b]

    if sum(sizes) == 0:
        return ((0,) * n,) if d == 0 else ()
    gen(0, d, [0] * n)
    out.sort(key=grlex_key)
    return tuple(out)


# Unbounded: one orbit sum per (block layout, canonical exponent), the
# columns of the degree slices and power systems built, so it grows with
# the layouts and degrees a run visits, not with the polynomials reduced.
# It holds 405 entries after ``verify --suite all --n 4`` and 4 613 after
# ``--n 5`` (cold, in process).
@lru_cache(maxsize=None)
def _orbit_poly(blocks: tuple, n: int, exp: tuple) -> Poly:
    """Sum of the distinct block-rearrangements of a canonical monomial."""
    per_block = []
    for start, stop in blocks:
        seg = exp[start:stop]
        per_block.append((start, stop, sorted(set(itertools.permutations(seg)))))
    terms = {}

    def gen(b: int, acc: list):
        if b == len(per_block):
            terms[tuple(acc)] = 1
            return
        start, stop, arrangements = per_block[b]
        for seg in arrangements:
            acc[start:stop] = seg
            gen(b + 1, acc)

    gen(0, list(exp))
    return Poly(n, terms, _clean=True)


def _orbit_terms(f: Poly, blocks: tuple) -> dict:
    """The canonical terms {canonical exp: coef} of a block-invariant f.

    ``blocks`` are the variable spans of ``_blocks_of``.  One pass over
    the terms checks invariance and collects the orbit coordinates.
    Each term's coefficient must equal its canonical term's, so every
    orbit present has one coefficient; the term count then equals the
    sum of those orbits' sizes exactly when every orbit is complete.
    Raises NotInvariantError otherwise, naming the blocks' variables.
    """
    terms = f.terms
    canon_terms = {}
    count = 0
    for exp, c in terms.items():
        canon, size = _canonical(exp, blocks)
        if terms.get(canon) != c:
            break
        if size:
            canon_terms[exp] = c
            count += size
    else:
        if count == len(terms):
            return canon_terms
    spans = " | ".join(
        " ".join(f"x{j + 1}" for j in range(start, stop)) for start, stop in blocks
    )
    raise NotInvariantError(f"polynomial is not invariant for the blocks {spans}")


# ----------------------------------------------------------------------
# generator sets


def coinvariant_generators(nu: Composition) -> list:
    """Elementary symmetric polynomials of all variables, degrees 1..n."""
    n = nu.n
    full = range(1, n + 1)
    return [e_sym(n, full, r) for r in range(1, n + 1)]


def _nonzero_blocks(nu: Composition) -> list:
    return [i for i in nu.indices() if nu[i] > 0]


def _sorted_gens(gens: Iterable[Poly]) -> list:
    uniq = {}
    for g in gens:
        if not g.is_zero:
            key = tuple(sorted(g.terms, key=grlex_key))
            uniq.setdefault((sum(key[0]) if key else 0, key), g)
    return [g for _, g in sorted(uniq.items())]


def tanisaki_generators_h(mu, nu: Composition) -> list:
    """Complete-symmetric generating set for the shape-cut ideal.

    For each subset of non-zero blocks, the h_r on the union S of those
    blocks lies in the ideal whenever r exceeds the transpose head sum
    minus |S|.  Only the first |S| such r enter, from max(bound + 1, 0)
    to max(bound, 0) + |S|: for r >= 1,
    h_r(X_S) = sum_{j=1..|S|} (-1)^(j+1) e_j(X_S) h_{r-j}(X_S),
    so each later h_r is a combination of the |S| before it and the
    shorter list generates the same ideal.  For the full variable set
    the list holds h_1..h_n.
    """
    lam = transpose(mu)
    n = nu.n
    gens = []
    support = _nonzero_blocks(nu)
    for m in range(0, len(support) + 1):
        for combo in itertools.combinations(support, m):
            union = sorted(v for i in combo for v in nu.block_range(i))
            bound = lam.head_sum(m) - len(union)
            for r in range(max(bound + 1, 0), max(bound, 0) + len(union) + 1):
                gens.append(h_sym(n, union, r))
    return _sorted_gens(gens)


def tanisaki_generators_e(mu, nu: Composition) -> list:
    """Elementary-symmetric generating set for the shape-cut ideal.

    For each subset of non-zero blocks, the e_r on the union enters when
    r exceeds the subset's variable count minus the transpose tail sum
    over the blocks left outside.
    """
    lam = transpose(mu)
    n = nu.n
    gens = []
    support = _nonzero_blocks(nu)
    for m in range(0, len(support) + 1):
        for combo in itertools.combinations(support, m):
            union = sorted(v for i in combo for v in nu.block_range(i))
            outside = len(support) - m
            tail = n - lam.head_sum(outside)
            bound = len(union) - tail
            for r in range(max(bound + 1, 0), len(union) + 1):
                gens.append(e_sym(n, union, r))
    return _sorted_gens(gens)


# ----------------------------------------------------------------------
# sparse echelon rows: sorted (column, coefficient) lists


def _row_sub(a: list, coef, b: list) -> list:
    """a - coef*b for sorted sparse rows."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ca, cb = a[i][0], b[j][0]
        if ca < cb:
            out.append(a[i])
            i += 1
        elif ca > cb:
            out.append((cb, -coef * b[j][1]))
            j += 1
        else:
            v = a[i][1] - coef * b[j][1]
            if v != 0:
                out.append((ca, v))
            i += 1
            j += 1
    out.extend(a[i:])
    for k in range(j, len(b)):
        out.append((b[k][0], -coef * b[k][1]))
    return out


class _Echelon:
    """Incremental sparse echelon with smallest-column pivoting."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: list) -> bool:
        """Reduce the leading entry until it lands on a free column."""
        while row:
            col, coef = row[0]
            piv = self.pivots.get(col)
            if piv is None:
                if coef != 1:
                    inv = QONE / coef
                    row = [(c, _coef(v * inv)) for c, v in row]
                self.pivots[col] = row
                return True
            row = _row_sub(row, coef, piv)
        return False

    def insert_reduced(self, row: list) -> bool:
        """``insert`` for an echelon kept fully reduced; False for a dependent row.

        Every pivot row is 1 at its pivot column and 0 at every other
        pivot column.  So the row is cleared of all its pivot columns in
        one pass, each pivot row subtracted once with the row's own entry
        there, and a new pivot row is cleared from the rows already held.
        The pivot set is the one ``insert`` gives: a fixed span has one
        set of leading columns, the smallest columns of its non-zero
        vectors, however its rows are reduced.  So the canonical basis,
        the non-pivot columns, does not change; only the rows do.
        """
        pivots = self.pivots
        acc = dict(row)
        for col, coef in row:
            piv = pivots.get(col)
            if piv is not None:
                for c, v in piv:
                    acc[c] = acc.get(c, 0) - coef * v
        red = sorted((c, v) for c, v in acc.items() if v != 0)
        if not red:
            return False
        col, coef = red[0]
        if coef != 1:
            inv = QONE / coef
            red = [(c, _coef(v * inv)) for c, v in red]
        for key, piv in pivots.items():
            if key < col:
                i = bisect.bisect_left(piv, (col,))
                if i < len(piv) and piv[i][0] == col:
                    pivots[key] = _row_sub(piv, piv[i][1], red)
        pivots[col] = red
        return True

    def reduce(self, row: list) -> list:
        """Canonical representative with no pivot columns remaining."""
        out = []
        while row:
            col, coef = row[0]
            piv = self.pivots.get(col)
            if piv is None:
                out.append(row[0])
                row = row[1:]
            else:
                row = _row_sub(row, coef, piv)
        return out

    def solve(self, row: list, ncols: int) -> tuple:
        """Coordinates of an untagged row on the tagged rows.

        Unknown u's row was inserted with a tag entry 1 at ncols + u.  A
        row in the span reduces to tag entries alone, and it is then the
        sum of c_u times unknown u's row, modulo the untagged rows, with
        c_u minus the entry at ncols + u.  Returns the (u, c_u) pairs;
        raises NoSolutionError when a column below ncols is left.
        """
        red = self.reduce(row)
        if red and red[0][0] < ncols:
            raise NoSolutionError("the row is not in the span of the echelon")
        return tuple((col - ncols, _coef(-v)) for col, v in red)


# ----------------------------------------------------------------------
# the coinvariant algebra R = C[x]/(Lambda+)
#
# The complete symmetric polynomials g_c = h_{n-c+1}(x_1..x_c), c = 1..n,
# are a Groebner basis of the ideal Lambda+ under lex order with
# x_n > ... > x_1: the lead of g_c is x_c^{n-c+1}, and pure powers of
# distinct variables pass Buchberger's criterion.  The standard
# monomials x^a with a_c <= n-c, n! of them, are a basis of R, which
# vanishes above degree n(n-1)/2.  Rows over R are sorted sparse lists
# indexed by the position of a standard monomial in the mixed radix of
# _radix_weights, so columns 0..n!-1 are R and tags start at n!.


@lru_cache(maxsize=None)
def _radix_weights(n: int) -> tuple:
    """Place values of the mixed radix a_1 + n a_2 + n(n-1) a_3 + ..."""
    out = [1]
    for j in range(1, n):
        out.append(out[-1] * (n - j + 1))
    return tuple(out)


def _exp_at(n: int, col: int) -> tuple:
    """The standard monomial at position col, 0 <= col < n!."""
    return tuple((col // w) % (n - j) for j, w in enumerate(_radix_weights(n)))


@lru_cache(maxsize=None)
def _r_dims(n: int) -> tuple:
    """dim R_d for d = 0..n(n-1)/2: the coefficients of [n]_q!."""
    dims = [1]
    for k in range(2, n + 1):
        dims = [sum(dims[max(d - k + 1, 0) : d + 1]) for d in range(len(dims) + k - 1)]
    return tuple(dims)


@lru_cache(maxsize=None)
def _staircase_rest(n: int, i: int) -> tuple:
    """Terms of g_{i+1} other than its lead, as exponents of x_1..x_{i+1}."""
    r = n - i
    return tuple(
        head + (r - sum(head),)
        for head in itertools.product(range(r + 1), repeat=i)
        if 0 < sum(head) <= r
    )


# _nf_monomial stays unbounded although normal_form inputs reach it: its
# monomials have degree at most n(n-1)/2, since _r_ideal and _r_slice build
# only R's degrees and _normal_form_rep skips a degree with an empty
# _r_slice, every degree above n(n-1)/2 among them, before _nf_row.  It
# holds 230 entries after ``verify --suite all --n 4``, 16 982 after
# ``dim --nu 1,1,1,1,1,1``.
@lru_cache(maxsize=None)
def _nf_monomial(n: int, exp: tuple) -> dict:
    """Normal form of x^exp in R: standard position -> integer coefficient.

    The lead of the highest variable that is too high is replaced by
    minus the rest of its g_c.  Higher variables are untouched and x_c
    drops, so each rewrite is lex-smaller and the recursion ends.  No
    division occurs, since every g_c is monic.
    """
    high = [j for j in range(n) if exp[j] >= n - j]
    if not high:
        return {sum(a * w for a, w in zip(exp, _radix_weights(n))): 1}
    out: dict = {}
    if sum(exp) > n * (n - 1) // 2:
        return out
    i = high[-1]
    low = list(exp[: i + 1])
    low[i] -= n - i
    for rest in _staircase_rest(n, i):
        m = tuple(a + b for a, b in zip(low, rest)) + exp[i + 1 :]
        for c, v in _nf_monomial(n, m).items():
            out[c] = out.get(c, 0) - v
    return {c: v for c, v in out.items() if v}


def _nf_row(n: int, f: Poly) -> list:
    """Row over R of the normal form of f."""
    acc: dict = {}
    for exp, c in f.terms.items():
        for col, v in _nf_monomial(n, exp).items():
            acc[col] = acc.get(col, 0) + c * v
    return sorted((col, v) for col, v in acc.items() if v != 0)


# Unbounded: one entry per (n, variable, standard monomial), and _r_ideal
# asks only for j < n - 1, so it holds at most n!(n-1) entries per n:
# 30 240 at n = 7.  It holds 44 after ``verify --suite all --n 4``.
@lru_cache(maxsize=None)
def _var_times_col(n: int, j: int, col: int) -> tuple:
    """Normal form of x_j (0-based) times the standard monomial at col."""
    exp = _exp_at(n, col)
    return tuple(_nf_monomial(n, exp[:j] + (exp[j] + 1,) + exp[j + 1 :]).items())


def _times_var(n: int, row: list, j: int) -> list:
    """Row over R of x_j (0-based) times a row."""
    acc: dict = {}
    for col, c in row:
        for k, v in _var_times_col(n, j, col):
            acc[k] = acc.get(k, 0) + c * v
    return sorted((k, v) for k, v in acc.items() if v != 0)


# _r_ideal stays unbounded although its keys hold tuples of Poly (the
# generators): it keeps one entry per (generator list, degree), so it grows
# with the presentations built, not with the polynomials reduced.  After
# ``verify --suite all --n 4`` it holds 213 entries.
@lru_cache(maxsize=None)
def _r_ideal(n: int, gens: tuple, d: int) -> _Echelon:
    """Echelon of (JR)_d, the degree-d part of the ideal of R that gens generate.

    (JR)_d is spanned by the normal forms of the degree-d generators and
    by x_j (JR)_{d-1} for j < n, since x_n = -(x_1 + ... + x_{n-1}) in R;
    rows stop once they fill R_d.
    """
    ech = _Echelon()
    full = _r_dims(n)[d]
    below = _r_ideal(n, gens, d - 1).pivots.values() if d else ()
    rows = itertools.chain(
        (_nf_row(n, g) for g in gens if g.degree() == 2 * d),
        (_times_var(n, row, j) for row in below for j in range(n - 1)),
    )
    for row in rows:
        if ech.rank == full:
            break
        ech.insert_reduced(row)
    return ech


class _DegreeData(NamedTuple):
    """One degree of a quotient, computed in R.

    ``exps`` are the canonical exponents of the orbit-sum columns and
    ``basis_cols`` the canonical basis columns.  ``echelon`` holds (JR)_d
    and the basis columns' rows, column c's row tagged at n! + c; its
    rows span W_d (see ``_r_slice``), so ``echelon.solve(row, n!)`` reads
    an invariant's coordinates on the basis columns off its row in R.
    """

    exps: tuple
    echelon: _Echelon
    basis_cols: tuple


_EMPTY_DEGREE = _DegreeData((), None, ())


class _Graded:
    """The graded algebra P_nu / J of one block layout and generator list.

    It depends on nu only through the variable blocks, so every
    presentation over a translate or a zero-padded copy of nu, with the
    same generators, shares one object (``_graded``).  Each degree is
    built once, by ``_r_slice``, and kept in ``_degrees``; the Hilbert
    series is swept once and kept too.  Identity is the hash, so the
    object keys the normal-form memo.

    The generator checks run here, so once per list: each generator must
    have n variables, be homogeneous and be block invariant, or this
    raises (and ``_graded`` keeps nothing).  Whether the list holds
    e_1..e_n or h_1..h_n of all variables is kept in
    ``has_lambda_plus``; ``QuotientPresentation`` refuses the list when
    it does not, naming itself in the message.
    """

    __slots__ = (
        "blocks", "n", "gens", "has_lambda_plus", "is_zero_algebra",
        "_degrees", "_hilbert",
    )

    def __init__(self, blocks: tuple, n: int, gens: tuple):
        for g in gens:
            if g.n != n:
                raise ValueError("generator has wrong variable count")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            _orbit_terms(g, blocks)
        full = range(1, n + 1)
        self.has_lambda_plus = any(
            all(sym(n, full, r) in gens for r in full) for sym in (e_sym, h_sym)
        )
        self.is_zero_algebra = any(g.constant() != 0 for g in gens)
        self.blocks = blocks
        self.n = n
        self.gens = gens
        self._degrees: dict = {}
        self._hilbert = None

    def degree(self, d: int) -> _DegreeData:
        """Degree d in the exponent-sum grading."""
        data = self._degrees.get(d)
        if data is None:
            data = self._degrees[d] = _r_slice(self, d)
        return data

    def hilbert(self) -> IntPoly:
        """Graded dimensions, doubled grading, up to R's top n(n-1)."""
        if self._hilbert is None:
            self._hilbert = IntPoly(
                0 if d % 2 else len(self.degree(d // 2).basis_cols)
                for d in range(self.n * (self.n - 1) + 1)
            )
        return self._hilbert


# Unbounded although its keys hold tuples of Poly (the generators): it
# keeps one entry per (block layout, generator list), so it grows with the
# presentations built, not with the polynomials reduced.  After ``verify
# --suite all --n 4`` it holds 84 algebras with 489 degrees between them.
_graded = lru_cache(maxsize=None)(_Graded)


def _r_slice(alg: _Graded, d: int) -> _DegreeData:
    """Degree d of P_nu / J computed inside R, for J containing Lambda+.

    An invariant f lies in J iff its normal form lies in JR.  The normal
    form lies in JR iff f lies in J C[x] + Lambda+ C[x], which is J C[x]
    as J contains Lambda+.  And J C[x] cap P_nu = J: if f = sum g_i q_i
    with g_i in J, the Reynolds operator of the block group (the average
    over it, in characteristic 0) is P_nu-linear and fixes f, so
    f = sum g_i avg(q_i) lies in J.

    W_d, the image of P_nu in R_d plus (JR)_d, is (JR)_d plus, for d > 0,
    every blockwise e_r times a basis vector of degree d - r: the
    blockwise e_r generate P_nu as an algebra, and e_r (JR) lies in JR.
    Orbit columns are then scanned from the largest down; a column is a
    basis column when its normal form is independent of (JR)_d and the
    basis columns kept so far, and the scan stops once they span W_d.
    That is the non-pivot set of the orbit echelon: column c is a pivot
    there iff its orbit sum lies in the span of the larger columns plus J.
    Only the basis columns' tagged rows are kept: with (JR)_d they span
    W_d, so ``_Echelon.solve`` reads any coordinates off them.

    High degrees cost nothing.  R_d is zero above n(n-1)/2, so those
    degrees return at once.  Below it, the spanning rows of degree d
    come from the m = max(nu.parts) degrees under d, since every
    blockwise e_r has degree r <= m; once m consecutive degrees are
    empty, every higher degree has no spanning row and is one memo
    lookup, whatever the generators of the ideal are.
    """
    blocks, n, gens = alg.blocks, alg.n, alg.gens
    if d >= len(_r_dims(n)):
        return _EMPTY_DEGREE
    if d == 0:
        spanning = [[(0, 1)]]
    else:
        spanning = [
            _nf_row(n, e_sym(n, range(start + 1, stop + 1), r) * basis_vector)
            for start, stop in blocks
            for r in range(1, min(stop - start, d) + 1)
            for basis_vector in _r_basis(alg, d - r)
        ]
    if not any(spanning):
        return _EMPTY_DEGREE
    ideal = _r_ideal(n, gens, d)
    span = _Echelon()
    span.pivots = dict(ideal.pivots)
    for row in spanning:
        span.insert_reduced(row)
    if span.rank == ideal.rank:
        return _EMPTY_DEGREE
    exps = _canonical_exps(blocks, n, d)
    tag = math.factorial(n)
    test = _Echelon()
    test.pivots = dict(ideal.pivots)
    ech = _Echelon()
    ech.pivots = dict(ideal.pivots)
    basis = []
    for c in reversed(range(len(exps))):
        if test.rank == span.rank:
            break
        row = _nf_row(n, _orbit_poly(blocks, n, exps[c]))
        if test.insert_reduced(row):
            ech.insert(row + [(tag + c, 1)])
            basis.append(c)
    return _DegreeData(exps, ech, tuple(sorted(basis)))


def _r_basis(alg: _Graded, d: int) -> list:
    data = alg.degree(d)
    return [_orbit_poly(alg.blocks, alg.n, data.exps[c]) for c in data.basis_cols]


# ----------------------------------------------------------------------
# presentations


class QuotientPresentation:
    """A block-invariant polynomial ring modulo a homogeneous ideal.

    The degree pieces are computed in R, which is right only when the
    ideal contains Lambda+.  So the generators must include e_1..e_n or
    h_1..h_n of all variables; any other list raises ValueError, after
    the per-generator checks.  ``mu``, the shape of a standard
    presentation, is kept as a Partition.  Every generator list answers
    the dimension queries: R bounds the degrees of any quotient.
    """

    def __init__(
        self,
        nu: Composition,
        generators: Sequence[Poly],
        *,
        mu=None,
        label: str = "",
    ):
        self.nu = nu
        self.n = nu.n
        self.mu = None if mu is None else sort_to_partition(mu)
        # a zero generator generates nothing
        self.generators = [g for g in generators if not g.is_zero]
        self.label = label or f"quotient over {nu!r}"
        self._alg = _graded(_blocks_of(nu), self.n, tuple(self.generators))
        if not self._alg.has_lambda_plus:
            raise ValueError(
                f"{self.label}: the generators must include e_1..e_n or "
                "h_1..h_n of all variables, so that the ideal contains Lambda+"
            )
        self.is_zero_algebra = self._alg.is_zero_algebra

    @property
    def top_degree(self):
        """Top degree (doubled grading); None for the zero algebra."""
        return self.hilbert().degree()

    # -- public queries -------------------------------------------------

    def graded_dim(self, d: int) -> int:
        """Dimension of the degree-d piece (doubled grading)."""
        if d < 0 or d % 2:
            return 0
        return len(self._alg.degree(d // 2).basis_cols)

    def dim(self) -> int:
        return sum(self.hilbert().coeffs)

    def hilbert(self) -> IntPoly:
        """Graded dimensions as a polynomial in t, doubled grading.

        R vanishes above degree n(n-1)/2, so the sweep stops there.  The
        series is swept once per shared algebra; ``top_degree``, ``dim``
        and ``basis`` read the kept one.
        """
        return self._alg.hilbert()

    def graded_basis(self, d: int) -> list:
        """Canonical orbit-sum basis of the degree-d piece (doubled grading)."""
        if d < 0 or d % 2:
            raise ValueError("degree must be even and non-negative")
        return [QuotientElement(self, v) for v in _r_basis(self._alg, d // 2)]

    def basis(self):
        """Every canonical basis vector, degree by degree."""
        for d in range(0, (self.top_degree or 0) + 1, 2):
            yield from self.graded_basis(d)

    def normal_form(self, f: Poly) -> "QuotientElement":
        """The canonical representative of f in the quotient.

        The representative comes from ``_normal_form_rep``, a bounded
        memo shared by every presentation of this algebra; a hit is
        wrapped in a new element of this presentation.
        """
        return QuotientElement(self, _normal_form_rep(self._alg, f))

    def contains(self, f: Poly) -> bool:
        """Ideal membership."""
        return self.normal_form(f).rep.is_zero

    def zero(self) -> "QuotientElement":
        return QuotientElement(self, Poly.zero(self.n))

    def one(self) -> "QuotientElement":
        return self.normal_form(Poly.one(self.n))

    def __repr__(self) -> str:
        return f"QuotientPresentation({self.label})"


# The operator checks reduce the same polynomial in the same algebra again
# and again: both routes of an operator build equal images, relation sweeps
# revisit each image, and translated weights share the algebra.  One
# operator-calculus pass makes 4 137 calls on 410 distinct (algebra,
# polynomial) pairs; of its 3 727 repeats an LRU of 256 entries catches
# 3 724, one of 64 entries 3 154.  An input that raises is not cached.
@lru_cache(maxsize=256)
def _normal_form_rep(alg: _Graded, f: Poly) -> Poly:
    """The canonical representative of f in alg, as a polynomial.

    One pass over f's terms checks block invariance (raising
    NotInvariantError).  Terms of a degree whose piece is zero are
    dropped as they are grouped, so they reach no normal form in R.  In
    each other degree, the normal form in R of f's terms of that degree
    is solved on the degree's tagged echelon for coordinates on the
    basis columns.  The key is the shared algebra, compared by
    identity, so presentations over translated or zero-padded weights
    with one generator list share entries, and two generator lists over
    one composition never do.
    """
    n = alg.n
    if f.n != n:
        raise ValueError("wrong variable count")
    _orbit_terms(f, alg.blocks)
    live: dict = {}  # degree -> its _DegreeData, or None for a zero piece
    by_degree: dict = {}
    for exp, c in f.terms.items():
        di = sum(exp)
        if di not in live:
            data = alg.degree(di)
            live[di] = data if data.basis_cols else None
        if live[di] is not None:
            by_degree.setdefault(di, {})[exp] = c
    acc: dict = {}
    for di, terms in sorted(by_degree.items()):
        data = live[di]
        row = _nf_row(n, Poly(n, terms, _clean=True))
        for col, coef in data.echelon.solve(row, math.factorial(n)):
            orbit = _orbit_poly(alg.blocks, n, data.exps[col])
            for exp, c in orbit.terms.items():
                acc[exp] = acc.get(exp, 0) + coef * c
    return Poly(n, _coefs(acc), _clean=True)


class QuotientElement:
    """Element of a quotient, stored by its canonical representative."""

    __slots__ = ("pres", "rep")

    def __init__(self, pres: QuotientPresentation, rep: Poly):
        self.pres = pres
        self.rep = rep

    def _check(self, other: "QuotientElement") -> None:
        if self.pres is not other.pres:
            raise ValueError("elements of different presentations")

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def degree(self):
        return self.rep.degree()

    def __add__(self, other):
        if isinstance(other, QuotientElement):
            self._check(other)
            return QuotientElement(self.pres, self.rep + other.rep)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QuotientElement):
            self._check(other)
            return QuotientElement(self.pres, self.rep - other.rep)
        return NotImplemented

    def __neg__(self):
        return QuotientElement(self.pres, -self.rep)

    def __mul__(self, other):
        if isinstance(other, QuotientElement):
            self._check(other)
            return self.pres.normal_form(self.rep * other.rep)
        return QuotientElement(self.pres, self.rep * other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.pres is other.pres and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.pres), self.rep))

    def __repr__(self) -> str:
        return f"<{self.rep!s}>"

    def to_json(self) -> list:
        return self.rep.to_json()


# ----------------------------------------------------------------------
# presentation factory


def presentation(nu: Composition, mu=None) -> QuotientPresentation:
    """The cached standard presentation, on the e-form shape-cut generators.

    With ``mu`` absent this is the plain partial coinvariant algebra,
    which is the shape-cut quotient of mu = 1^n and the same object.
    Other generator lists go to ``QuotientPresentation`` directly.
    """
    return _standard_presentation(
        nu, None if mu is None else sort_to_partition(mu)
    )


def _shape(mu, n: int) -> Partition:
    """The shape mu as a Partition, an absent shape read as 1^n."""
    return sort_to_partition((1,) * n if mu is None else mu)


# Unbounded: one tuple per (shape, block layout), so it grows with the
# pairs a run visits, less their translates and zero-padded copies.  It
# holds 57 entries after ``verify --suite all --n 4`` (cold, in process),
# against 291 keys of ``_standard_presentation``.
@lru_cache(maxsize=None)
def _layout_generators(mu: Partition, blocks: tuple, n: int) -> tuple:
    """The e-form generators of every composition with these blocks.

    The list depends on nu only through its non-empty blocks, so it is
    built on the composition of the block sizes, and translates and
    zero-padded copies of nu share one tuple.
    """
    nu = Composition(1, [stop - start for start, stop in blocks])
    return tuple(tanisaki_generators_e(mu, nu))


# Unbounded: one presentation per (weight, shape) pair, and the
# presentations on one block layout and ideal share one generator tuple
# and one ``_graded`` algebra, so it grows with the pairs a run visits.
# A plain call's key (nu, None) holds the presentation of (nu, 1^n).  It
# holds 291 entries after ``verify --suite all --n 4`` and 1 402 after
# ``--n 5`` (cold, in process).
@lru_cache(maxsize=None)
def _standard_presentation(nu: Composition, mu):
    if mu is None:
        # kept under both keys, so a plain call stays one memo hit and
        # builds no Partition
        return _standard_presentation(nu, _shape(None, nu.n))
    gens = _layout_generators(mu, _blocks_of(nu), nu.n)
    return QuotientPresentation(
        nu, gens, mu=mu,
        label=f"shape-cut quotient {transpose(mu).parts} over {nu!r}",
    )


def is_nonzero(mu, nu: Composition) -> bool:
    """Whether the shape-cut quotient is non-trivial (dominance test)."""
    return dominates(transpose(mu), sort_to_partition(nu))


def ideals_equal(gens_a: Sequence[Poly], gens_b: Sequence[Poly], nu: Composition) -> bool:
    """Mutual membership of two homogeneous generator lists.

    Both lists must contain Lambda+ (see ``QuotientPresentation``);
    otherwise this raises ValueError.
    """
    pres_a = QuotientPresentation(nu, gens_a, label="ideal A")
    pres_b = QuotientPresentation(nu, gens_b, label="ideal B")
    return all(pres_b.contains(g) for g in gens_a) and all(
        pres_a.contains(g) for g in gens_b
    )


# ----------------------------------------------------------------------
# in-quotient identity checks


def quotient_identity_report(n: int, r_max: int) -> Report:
    """Membership identities tying h and e over complementary block sets.

    For every composition of n on the window (1, n) and every split
    of its non-empty blocks into two complementary groups I and J,
    checks inside the plain quotient that h_r over the I variables is
    congruent to (-1)^r e_r over the J variables: H_I(t) = 1 / E_I(-t),
    and E_I(t) E_J(t) = E(t) is 1 modulo the ideal.
    """
    from .shapes import compositions_of

    report = Report(f"quotient-level identities, n={n}, r_max={r_max}")
    ok_pair = True
    seen = set()
    for nu in compositions_of(n, (1, max(n, 1))):
        # interior zero blocks change nothing here
        shape = tuple(p for p in nu.parts if p > 0)
        if shape in seen:
            continue
        seen.add(shape)
        pres = presentation(nu)
        support = _nonzero_blocks(nu)
        for size in range(0, len(support) + 1):
            for group in itertools.combinations(support, size):
                u_vars = sorted(
                    v for i in group for v in nu.block_range(i)
                )
                j_vars = sorted(
                    v
                    for i in support
                    if i not in group
                    for v in nu.block_range(i)
                )
                for r in range(1, r_max + 1):
                    lhs = h_sym(n, u_vars, r)
                    rhs = e_sym(n, j_vars, r) * ((-1) ** (r + 1))
                    if not pres.contains(lhs + rhs):
                        ok_pair = False
    report.add("h_matches_signed_e_of_complement_in_quotient", ok_pair)
    return report
