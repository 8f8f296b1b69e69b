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
"""

import functools
import itertools
import math

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
