"""Reference checks that only the tests use.

They restate a definition directly, so the package's own constructions
can be checked against something that shares no code with them.  From
``coinv`` they take only the data types ``Poly``, ``Q``, ``grlex_key``
and ``Composition``.

Block invariance is restated as being fixed by every block permutation,
both as a whole and term by term.

The orbit-sum quotient echelons an ideal's degree slices in the orbit-sum
basis of P_nu, which is right for any homogeneous ideal.  The package
computes every quotient inside the coinvariant algebra instead, which
needs Lambda+ in the ideal; the tests check one against the other.

The orbit-sum formula antisymmetrizes over the block group of a
composition, then divides by the block difference product.  It equals
the divided-difference chains of ``glaction.apply_F_poly`` and
``apply_E_poly`` by the coset argument of Bernstein, Gelfand and
Gelfand (Russian Math. Surveys 28, 1973); no program path runs it.

Two tableau counts restate their definitions too.  Lusztig's q-analogue
of weight multiplicity is the Kostka-Foulkes polynomial with no charge in
it, and the brute-force filling count tries every arrangement of the
content in the boxes.
"""

import functools
import itertools
import math
from types import SimpleNamespace

from coinv.polynomials import Poly, Q, grlex_key
from coinv.shapes import Composition


class NotDivisibleError(Exception):
    """Exact polynomial division left a non-zero remainder."""


class NotAntiInvariantError(Exception):
    """A polynomial expected to be block-anti-symmetric is not."""


def is_column_strict(t) -> bool:
    """Entries of the tableau ``t`` strictly increase down every column."""
    for r in range(1, len(t.rows)):
        for c in range(len(t.rows[r])):
            if t.rows[r][c] <= t.rows[r - 1][c]:
                return False
    return True


def is_row_weak(t) -> bool:
    """Entries of the tableau ``t`` weakly increase along every row."""
    return all(
        row[c] <= row[c + 1] for row in t.rows for c in range(len(row) - 1)
    )


def brute_force_fillings(shape, content: Composition) -> tuple:
    """(column-strict, semistandard) fillings of ``shape`` with ``content``.

    Every distinct arrangement of the letters in the boxes, read row by
    row, is filtered by ``is_column_strict`` and then ``is_row_weak``.
    """
    shape = list(shape)
    letters = [i for i in content.indices() for _ in range(content[i])]
    if sum(shape) != len(letters):
        return 0, 0
    cuts = list(itertools.accumulate([0] + shape))
    column_strict = semistandard = 0
    for word in set(itertools.permutations(letters)):
        t = SimpleNamespace(rows=[word[a:b] for a, b in zip(cuts, cuts[1:])])
        if is_column_strict(t):
            column_strict += 1
            semistandard += is_row_weak(t)
    return column_strict, semistandard


# ----------------------------------------------------------------------
# Lusztig's q-analogue of weight multiplicity
#
# K_{lam mu}(q) = sum over w in S_n of sign(w) P_q(w(lam + rho) - (mu + rho)),
# with rho = (n-1, ..., 1, 0) and P_q the q-Kostant partition function:
# the coefficient of q^k in P_q(v) counts the ways to write v as a sum of
# k positive roots e_i - e_j, i < j, repeats allowed (Lusztig, Asterisque
# 101-102, 1983; Macdonald III.6, Ex. 4).


def _poly_add(a: list, b: tuple, shift: int = 0) -> None:
    """a += q^shift b on coefficient lists."""
    a.extend([0] * (len(b) + shift - len(a)))
    for k, c in enumerate(b):
        a[k + shift] += c


@functools.lru_cache(maxsize=None)
def q_kostant(v: tuple) -> tuple:
    """Coefficients of the q-Kostant partition function at ``v``.

    The roots e_1 - e_j take the first coordinate to zero: they are
    v[0] of them, spread over j = 2..n, and what is left is a vector of
    length n - 1.
    """
    if len(v) <= 1:
        return () if any(v) else (1,)
    if v[0] < 0 or sum(v) != 0:
        return ()
    out: list = []
    rest = len(v) - 1
    for cut in itertools.combinations(range(v[0] + rest - 1), rest - 1):
        bounds = (-1, *cut, v[0] + rest - 1)
        spread = (b - a - 1 for a, b in zip(bounds, bounds[1:]))
        _poly_add(out, q_kostant(tuple(x + m for x, m in zip(v[1:], spread))), v[0])
    return tuple(out)


def lusztig_kostka_foulkes(lam, mu) -> tuple:
    """Coefficients of K_{lam mu}(q) by Lusztig's alternating sum, trimmed.

    ``lam`` and ``mu`` are partitions of one n, as sequences of parts.
    Permutations are built one place at a time, and a branch is cut once
    a partial sum of ``w(lam + rho) - (mu + rho)`` is negative, since
    P_q vanishes off the cone of positive root sums.
    """
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("lam and mu must have one total")
    a = [p + n - 1 - k for k, p in enumerate(list(lam) + [0] * (n - len(lam)))]
    b = [p + n - 1 - k for k, p in enumerate(list(mu) + [0] * (n - len(mu)))]
    out: list = []

    def place(k: int, left: list, v: tuple, partial: int, sign: int):
        if k == n:
            p = q_kostant(v)
            _poly_add(out, p if sign > 0 else tuple(-c for c in p))
            return
        for pos, j in enumerate(left):
            x = a[j] - b[k]
            if partial + x >= 0:
                # j before the pos smaller indices still left: pos inversions
                place(k + 1, left[:pos] + left[pos + 1:], v + (x,), partial + x,
                      -sign if pos % 2 else sign)

    place(0, list(range(n)), (), 0, 1)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ----------------------------------------------------------------------
# the orbit-sum formula


def permute(f: Poly, w) -> Poly:
    """Substitute x_j -> x_{w(j)} in ``f``, where ``w[j-1]`` is the image of j."""
    if sorted(w) != list(range(1, f.n + 1)):
        raise ValueError(f"not a permutation of 1..{f.n}: {w}")
    inverse = [w.index(k) for k in range(1, f.n + 1)]
    return Poly(f.n, {tuple(e[j] for j in inverse): c for e, c in f.terms.items()})


def block_group(nu: Composition) -> list:
    """(w, sign) for every permutation w of 1..n that fixes each block of ``nu``.

    Blocks tile 1..n in order, so w is its permuted blocks joined.
    """
    group = []
    blocks = (nu.block_range(i) for i in nu.indices())
    for images in itertools.product(*map(itertools.permutations, blocks)):
        w = sum(images, ())
        inversions = sum(a > b for a, b in itertools.combinations(w, 2))
        group.append((w, (-1) ** inversions))
    return group


def is_fixed_by_block_group(f: Poly, nu: Composition) -> bool:
    """Whether every permutation in the block group of ``nu`` fixes ``f``."""
    return all(permute(f, w) == f for w, _ in block_group(nu))


def is_block_invariant(f: Poly, nu: Composition) -> bool:
    """Whether ``f`` is fixed by the block group of ``nu``, term by term.

    The group permutes exponents, so ``f`` is fixed exactly when every
    rearrangement of a term's exponent within the blocks carries that
    term's coefficient.
    """
    spans = block_spans(nu)
    for exp, c in f.terms.items():
        segments = (itertools.permutations(exp[s:t]) for s, t in spans)
        for images in itertools.product(*segments):
            if f.terms.get(sum(images, ())) != c:
                return False
    return True


def symmetrize(f: Poly, nu: Composition) -> Poly:
    """Average of the orbit of ``f`` under the block group of ``nu``."""
    group = block_group(nu)
    return sum((permute(f, w) for w, _ in group), Poly.zero(f.n)) / len(group)


def antisymmetrize(f: Poly, nu: Composition) -> Poly:
    """Signed average of the orbit of ``f`` under the block group of ``nu``."""
    group = block_group(nu)
    return sum((permute(f, w) * s for w, s in group), Poly.zero(f.n)) / len(group)


def exact_divide(f: Poly, g: Poly) -> Poly:
    """f / g by long division in grlex order; NotDivisibleError on a remainder."""
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    ge = max(g.terms, key=grlex_key)
    quotient = Poly.zero(f.n)
    rem = f
    while not rem.is_zero:
        re = max(rem.terms, key=grlex_key)
        qe = tuple(a - b for a, b in zip(re, ge))
        if min(qe) < 0:
            raise NotDivisibleError(f"leading term x^{re} not divisible by x^{ge}")
        q = Poly.monomial(f.n, qe, Q(rem.terms[re]) / g.terms[ge])
        quotient = quotient + q
        rem = rem - q * g
    return quotient


def eps_nu(nu: Composition) -> Poly:
    """Product of x_a - x_b over a < b in a common block of ``nu``, over |S_nu|."""
    prod = Poly.one(nu.n)
    for i in nu.indices():
        for a, b in itertools.combinations(nu.block_range(i), 2):
            prod = prod * (Poly.var(nu.n, a) - Poly.var(nu.n, b))
    return prod / math.prod(math.factorial(p) for p in nu.parts)


def eps_pair(nu: Composition, nu_prime: Composition) -> Poly:
    """Difference product of the common stabilizer of a one-move pair.

    With ``nu_prime == nu.lower_at(i)``, the stabilizer of both block
    structures is the block group of ``nu.refine_at(i)``.
    """
    if nu.n != nu_prime.n:
        raise ValueError("totals differ")
    for i in range(min(nu.lo, nu_prime.lo) - 1, max(nu.hi, nu_prime.hi) + 1):
        if nu[i] > 0 and nu.lower_at(i) == nu_prime:
            return eps_nu(nu.refine_at(i))
    raise ValueError(f"{nu_prime!r} is not obtained from {nu!r} by one move")


def antiinv_divide(g: Poly, nu: Composition) -> Poly:
    """Divide a block-anti-invariant ``g`` by the block difference product."""
    if antisymmetrize(g, nu) != g:
        raise NotAntiInvariantError(f"polynomial is not anti-invariant for blocks of {nu!r}")
    return exact_divide(g, eps_nu(nu))


# ----------------------------------------------------------------------
# the orbit-sum quotient
#
# The orbit sums of the block group are a basis of P_nu; the one of a
# monomial whose exponent weakly decreases in every block (its canonical
# exponent) has coefficient one there, so an invariant polynomial's
# coordinates are its coefficients at the canonical exponents.  Columns
# are the canonical exponents of one degree in graded-lex order.  The
# degree-d slice of an ideal is spanned by generator times orbit sum
# products; its echelon pivots on the smallest column, and the non-pivot
# columns are the canonical basis of the quotient in degree d.  Rows are
# integer dicts {column: coefficient}, kept primitive (coprime entries,
# positive leading entry); only the normal form divides.


def block_spans(nu: Composition) -> tuple:
    """0-based (start, stop) of every non-empty block of ``nu``."""
    ranges = (nu.block_range(i) for i in nu.indices())
    return tuple((r.start - 1, r.stop - 1) for r in ranges if len(r))


@functools.lru_cache(maxsize=None)
def canonical_exponents(spans: tuple, n: int, d: int) -> tuple:
    """Degree-d exponents weakly decreasing in every block, in graded-lex order."""
    out = []
    for cut in itertools.combinations(range(d + n - 1), n - 1):
        bounds = (-1, *cut, d + n - 1)
        exp = tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))
        if all(exp[j] >= exp[j + 1] for s, t in spans for j in range(s, t - 1)):
            out.append(exp)
    return tuple(sorted(out, key=grlex_key))


@functools.lru_cache(maxsize=None)
def orbit_sum(spans: tuple, n: int, exp: tuple) -> Poly:
    """Sum of the distinct monomials got by permuting ``exp`` within each block."""
    segments = (itertools.permutations(exp[s:t]) for s, t in spans)
    return Poly(n, {sum(seg, ()): 1 for seg in itertools.product(*segments)})


def insert_integer_row(pivots: dict, row: dict) -> None:
    """Eliminate an integer ``row`` against ``pivots``; keep what is left, if anything."""
    while row:
        lead = min(row)
        g = math.gcd(*row.values())
        if row[lead] < 0:
            g = -g
        row = {c: v // g for c, v in row.items()}
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = row
            return
        g = math.gcd(row[lead], piv[lead])
        a, b = row[lead] // g, piv[lead] // g
        row = {c: v * b for c, v in row.items()}
        for c, v in piv.items():
            w = row.get(c, 0) - a * v
            if w:
                row[c] = w
            else:
                del row[c]


@functools.lru_cache(maxsize=None)
def orbit_sum_slice(spans: tuple, n: int, gens: tuple, d: int) -> tuple:
    """(columns, pivot rows) of the degree-d slice of the ideal ``gens`` generate."""
    exps = canonical_exponents(spans, n, d)
    col_of = {e: i for i, e in enumerate(exps)}
    pivots: dict = {}
    for g in gens:
        k = sum(next(iter(g.terms)))
        if k > d:
            continue
        for m in canonical_exponents(spans, n, d - k):
            if len(pivots) == len(exps):
                return exps, pivots
            prod = g * orbit_sum(spans, n, m)
            insert_integer_row(
                pivots, {col_of[e]: c for e, c in prod.terms.items() if e in col_of}
            )
    return exps, pivots


class OrbitSumQuotient:
    """P_nu modulo the ideal of a homogeneous invariant generator list.

    Degrees are exponent sums, and zero generators are dropped.  Nothing
    is checked: the generators must be homogeneous, block-invariant and
    have integer coefficients.
    """

    def __init__(self, nu: Composition, generators):
        self.n = nu.n
        self.spans = block_spans(nu)
        self.gens = tuple(g for g in generators if not g.is_zero)

    def _echelon(self, d: int) -> tuple:
        return orbit_sum_slice(self.spans, self.n, self.gens, d)

    def basis(self, d: int) -> list:
        """Orbit sums of the non-pivot columns of degree d."""
        exps, pivots = self._echelon(d)
        return [
            orbit_sum(self.spans, self.n, e)
            for i, e in enumerate(exps)
            if i not in pivots
        ]

    def graded_dim(self, d: int) -> int:
        exps, pivots = self._echelon(d)
        return len(exps) - len(pivots)

    def normal_form(self, f: Poly) -> Poly:
        """The combination of basis orbit sums congruent to an invariant ``f``."""
        out = Poly.zero(self.n)
        for d in sorted({sum(e) for e in f.terms}):
            exps, pivots = self._echelon(d)
            col_of = {e: i for i, e in enumerate(exps)}
            vec = {col_of[e]: Q(c) for e, c in f.terms.items() if e in col_of}
            while True:
                live = [c for c in vec if c in pivots]
                if not live:
                    break
                lead = min(live)
                piv = pivots[lead]
                scale = vec[lead] / piv[lead]
                for c, v in piv.items():
                    w = vec.get(c, 0) - scale * v
                    if w:
                        vec[c] = w
                    else:
                        del vec[c]
            for c, v in vec.items():
                out = out + orbit_sum(self.spans, self.n, exps[c]) * v
        return out
