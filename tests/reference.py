"""Reference checks that only the tests use.

They restate a definition directly, so the package's own constructions
can be checked against something that shares no code with them.  From
``coinv`` they take only the data types ``Poly``, ``Q``, ``grlex_key``
and ``Composition``.

Block invariance is restated as being fixed by every block permutation.

The orbit-sum formula antisymmetrizes over the block group of a
composition, then divides by the block difference product.  It equals
the divided-difference chains of ``glaction.apply_F_poly`` and
``apply_E_poly`` by the coset argument of Bernstein, Gelfand and
Gelfand (Russian Math. Surveys 28, 1973); no program path runs it.
"""

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
