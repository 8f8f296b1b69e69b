"""Graded ideals and quotient algebras of block-invariant polynomial rings.

A presentation couples the invariant ring P_nu (polynomials fixed by the
block subgroup of a composition) with a homogeneous ideal given by an
explicit generator list.  Per-degree data is computed lazily: an
orbit-sum monomial basis of P_nu in that degree, a sparse echelon of the
ideal's degree slice, and the complement (non-pivot) columns which serve
as the canonical graded basis of the quotient.

Every ideal slice is built by the one cached function ``_slice``, keyed
on the variable blocks and the generator supply, so presentations over
translated or zero-padded compositions share their slices.  ``_Echelon``
is the only elimination in the package; it pivots on the smallest
column in the global graded-lex order.  Row supply happens in two
phases: first a near-triangular accelerator family (complete symmetric
polynomials on block-prefix variable sets, which always lie in the base
coinvariant ideal), then products of the actual generators, which alone
span the degree slice.  Insertion stops early once the echelon reaches
full rank.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    NonTerminatingError,
    NotAntiInvariantError,
    NotInvariantError,
)
from .polynomials import (
    Poly,
    Q,
    QONE,
    antisymmetrize,
    e_sym,
    eps_nu,
    exact_divide,
    grlex_key,
    h_sym,
)
from .reporting import Report
from .shapes import (
    Composition,
    canonical_shape,
    coinvariant_top_degree,
    dominates,
    quotient_top_degree,
    transpose,
)
from .tableaux import IntPoly


# ----------------------------------------------------------------------
# block combinatorics of exponent vectors


def _blocks_of(nu: Composition) -> tuple:
    """Half-open 0-based (start, stop) spans of the non-empty blocks."""
    out = []
    for i in nu.indices():
        if nu[i] > 0:
            rng = nu.block_range(i)
            out.append((rng.start - 1, rng.stop - 1))
        # empty blocks own no variables
    return tuple(out)


def _canonical_exp(exp: tuple, blocks: tuple) -> tuple:
    out = list(exp)
    for start, stop in blocks:
        seg = sorted(out[start:stop], reverse=True)
        out[start:stop] = seg
    return tuple(out)


def _is_canonical(exp: tuple, blocks: tuple) -> bool:
    for start, stop in blocks:
        for j in range(start, stop - 1):
            if exp[j] < exp[j + 1]:
                return False
    return True


def _orbit_size(exp: tuple, blocks: tuple) -> int:
    total = 1
    for start, stop in blocks:
        seg = exp[start:stop]
        count = math.factorial(len(seg))
        for v in set(seg):
            count //= math.factorial(seg.count(v))
        total *= count
    return total


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
            terms[tuple(acc)] = QONE
            return
        start, stop, arrangements = per_block[b]
        for seg in arrangements:
            acc[start:stop] = seg
            gen(b + 1, acc)

    gen(0, list(exp))
    return Poly(n, terms, _clean=True)


def is_block_invariant(f: Poly, nu: Composition) -> bool:
    blocks = _blocks_of(nu)
    groups: dict = {}
    for exp, c in f.terms.items():
        groups.setdefault(_canonical_exp(exp, blocks), []).append(c)
    for canon, coeffs in groups.items():
        if len(coeffs) != _orbit_size(canon, blocks):
            return False
        if any(c != coeffs[0] for c in coeffs[1:]):
            return False
    return True


def ensure_block_invariant(f: Poly, nu: Composition) -> None:
    if not is_block_invariant(f, nu):
        raise NotInvariantError(f"polynomial is not invariant for blocks of {nu!r}")


# ----------------------------------------------------------------------
# generator sets


def coinvariant_generators(nu: Composition) -> list:
    """Elementary symmetric polynomials of all variables, degrees 1..n."""
    n = nu.n
    full = range(1, n + 1)
    return [e_sym(n, full, r) for r in range(1, n + 1)]


def _nonzero_blocks(nu: Composition) -> list:
    return [i for i in nu.indices() if nu[i] > 0]


def _degree_cap(nu: Composition, mu) -> int:
    lam = transpose(mu)
    raw = sum(q * (q - 1) for q in lam) - sum(p * (p - 1) for p in nu.parts)
    return max(raw // 2, nu.n)


def _sorted_gens(gens: Iterable[Poly]) -> list:
    uniq = {}
    for g in gens:
        if not g.is_zero:
            key = tuple(sorted(g.terms, key=grlex_key))
            uniq.setdefault((sum(key[0]) if key else 0, key), g)
    return [g for _, g in sorted(uniq.items())]


def tanisaki_generators_h(mu, nu: Composition) -> list:
    """Complete-symmetric generating set for the shape-cut ideal.

    For each subset of non-zero blocks, the h_r on the union of those
    blocks enters whenever r exceeds the transpose head sum minus the
    subset's variable count; r is capped by the global degree bound.
    """
    lam = transpose(mu)
    n = nu.n
    cap = _degree_cap(nu, mu)
    gens = []
    support = _nonzero_blocks(nu)
    for m in range(0, len(support) + 1):
        for combo in itertools.combinations(support, m):
            union = sorted(v for i in combo for v in nu.block_range(i))
            bound = lam.head_sum(m) - len(union)
            for r in range(max(bound + 1, 0), cap + 1):
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
    cap = _degree_cap(nu, mu)
    gens = []
    support = _nonzero_blocks(nu)
    for m in range(0, len(support) + 1):
        for combo in itertools.combinations(support, m):
            union = sorted(v for i in combo for v in nu.block_range(i))
            outside = len(support) - m
            tail = n - lam.head_sum(outside)
            bound = len(union) - tail
            hi = min(cap, len(union))
            for r in range(max(bound + 1, 0), hi + 1):
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
                inv = QONE / coef
                self.pivots[col] = [(c, v * inv) for c, v in row]
                return True
            row = _row_sub(row, coef, piv)
        return False

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


class _DegreeData:
    __slots__ = ("exps", "col_of", "echelon", "basis_cols")

    def __init__(self, exps, col_of, echelon, basis_cols):
        self.exps = exps
        self.col_of = col_of
        self.echelon = echelon
        self.basis_cols = basis_cols


def _coordinatize(f: Poly, col_of: dict, blocks: tuple) -> list:
    """Coefficients of an invariant polynomial on the orbit-sum basis.

    Each orbit sum has coefficient one on its canonical monomial, so the
    coordinates are read off the canonical terms directly.
    """
    vec: dict = {}
    for exp, c in f.terms.items():
        if _is_canonical(exp, blocks):
            vec[col_of[exp]] = c
    return sorted(vec.items())


@lru_cache(maxsize=None)
def _slice(blocks: tuple, n: int, supply: tuple, d: int) -> _DegreeData:
    """Echelon of the degree-d slice of the ideal generated by ``supply``.

    Rows are generator times orbit-sum products, fed in supply order
    until the echelon reaches full rank; a constant generator fills
    every column by itself.
    """
    exps = _canonical_exps(blocks, n, d)
    col_of = {e: i for i, e in enumerate(exps)}
    ech = _Echelon()
    products = (
        g * _orbit_poly(blocks, n, mexp)
        for g in supply
        for mexp in _canonical_exps(blocks, n, d - g.degree() // 2)
    )
    for f in products:
        if ech.rank == len(exps):
            break
        ech.insert(_coordinatize(f, col_of, blocks))
    basis_cols = tuple(i for i in range(len(exps)) if i not in ech.pivots)
    return _DegreeData(exps, col_of, ech, basis_cols)


# ----------------------------------------------------------------------
# presentations


@lru_cache(maxsize=None)
def _base_supply(nu_key: tuple) -> tuple:
    """Short generating set for the coinvariant ideal of ``nu``.

    Starts from the staircase family h_{n-c+1} on the first c variables,
    c running over the block prefix sums.  Each member lies in the ideal
    because h_r of a leading block union expands over the complementary
    blocks with positive-degree full symmetric factors once r exceeds
    the complement size.  Membership of every full e_r in the family
    ideal is then certified degree by degree; any e_r that fails the
    check is appended, so the returned set generates the ideal exactly.
    """
    nu = Composition(nu_key[0], list(nu_key[1]))
    n = nu.n
    blocks = _blocks_of(nu)
    prefixes = sorted({stop for _, stop in blocks})
    family = tuple(
        h_sym(n, tuple(range(1, c + 1)), n - c + 1) for c in prefixes
    )
    if not family:
        return ()
    extras = []
    for r in range(1, n + 1):
        data = _slice(blocks, n, family, r)
        target = e_sym(n, range(1, n + 1), r)
        if data.echelon.reduce(_coordinatize(target, data.col_of, blocks)):
            extras.append(target)
    return family + tuple(extras)


class QuotientPresentation:
    """A block-invariant polynomial ring modulo a homogeneous ideal."""

    def __init__(
        self,
        nu: Composition,
        generators: Sequence[Poly],
        *,
        mu=None,
        top_degree=None,
        accelerated: bool = False,
        label: str = "",
    ):
        self.nu = nu
        self.n = nu.n
        self.mu = mu
        # a zero generator generates nothing
        self.generators = [g for g in generators if not g.is_zero]
        self.label = label or f"quotient over {nu!r}"
        self._blocks = _blocks_of(nu)
        self._accelerated = accelerated
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator has wrong variable count")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            ensure_block_invariant(g, nu)
        self.is_zero_algebra = any(
            g.constant() != 0 for g in self.generators
        )
        # top degree in the doubled grading, None when unknown or zero
        self._top = top_degree
        # vanishing certificate length; see _verify_vanishing
        self._window = max(nu.parts, default=0)
        self._cache: dict = {}
        # only the zero algebra and P_nu with no variables are finite
        # without a certificate; an empty generator list is not
        self._verified_above = self.is_zero_algebra or self.n == 0

    # -- degree bookkeeping (internal = exponent-sum degrees) ----------

    @property
    def top_degree(self):
        """Predicted top degree (doubled grading); None for the zero algebra."""
        if self.is_zero_algebra:
            return None
        return self._top

    def _top_int(self) -> int:
        if self._top is None:
            raise ValueError(
                f"{self.label}: no degree bound available; "
                "dimension queries need a top_degree hint"
            )
        return self._top // 2

    # -- echelon construction ------------------------------------------

    def _degree_data(self, d: int) -> _DegreeData:
        data = self._cache.get(d)
        if data is None:
            data = _slice(self._blocks, self.n, self._supply(), d)
            self._cache[d] = data
        return data

    def _supply(self) -> tuple:
        """Generators actually fed to the echelon.

        Accelerated presentations prepend the short certified base
        supply, whose ideal equals the plain coinvariant ideal; for a
        shape-cut quotient that ideal is contained in the one generated
        here (the generator list always includes the full-variable e or
        h sequence), so the span per degree is unchanged while pivots
        arrive from near-triangular rows.
        """
        if not self._accelerated:
            return tuple(self.generators)
        base = _base_supply(self.nu.key())
        if self.mu is None:
            return base
        return base + tuple(self.generators)

    # -- public queries -------------------------------------------------

    def graded_dim(self, d: int) -> int:
        """Dimension of the degree-d piece (doubled grading)."""
        if d < 0 or d % 2:
            return 0
        if self.is_zero_algebra:
            return 0
        di = d // 2
        top = self._top_int()
        if di <= top + self._window:
            data = self._degree_data(di)
            return len(data.basis_cols)
        self._verify_vanishing()
        return 0

    def _verify_vanishing(self) -> None:
        """Certify that every degree above the top vanishes.

        The ring P_nu is a tensor product of symmetric-polynomial rings,
        one per block, so as an algebra it is generated by the blockwise
        e_r, all of degree at most m = max(nu.parts).  A product of such
        generators of degree d > top has partial products rising in steps
        of at most m, so one of them has degree in [top+1, top+m]; if those
        m slices are zero in the quotient, that partial product lies in the
        ideal and so does the whole product.  Checking the m slices above
        the top therefore certifies every higher degree, whatever the
        generators of the ideal are.
        """
        if self._verified_above:
            return
        top = self._top_int()
        for w in range(1, self._window + 1):
            data = self._degree_data(top + w)
            if data.basis_cols:
                raise NonTerminatingError(
                    f"{self.label}: degree {2 * (top + w)} should vanish "
                    f"but has dimension {len(data.basis_cols)}"
                )
        self._verified_above = True

    def dim(self) -> int:
        if self.is_zero_algebra:
            return 0
        top = self._top_int()
        total = sum(len(self._degree_data(di).basis_cols) for di in range(top + 1))
        self._verify_vanishing()
        return total

    def hilbert(self) -> IntPoly:
        """Graded dimensions as a polynomial in t, doubled grading."""
        if self.is_zero_algebra:
            return IntPoly()
        top = self._top_int()
        coeffs = [0] * (2 * top + 1)
        for di in range(top + 1):
            coeffs[2 * di] = len(self._degree_data(di).basis_cols)
        self._verify_vanishing()
        return IntPoly(coeffs)

    def graded_basis(self, d: int) -> list:
        """Canonical orbit-sum basis of the degree-d piece (doubled grading)."""
        if d < 0 or d % 2:
            raise ValueError("degree must be even and non-negative")
        if self.graded_dim(d) == 0:
            return []
        data = self._degree_data(d // 2)
        return [
            QuotientElement(self, _orbit_poly(self._blocks, self.n, data.exps[i]))
            for i in data.basis_cols
        ]

    def normal_form(self, f: Poly) -> "QuotientElement":
        if f.n != self.n:
            raise ValueError("wrong variable count")
        ensure_block_invariant(f, self.nu)
        if self.is_zero_algebra:
            return QuotientElement(self, Poly.zero(self.n))
        # beyond the verified window every component reduces to zero;
        # without a degree bound just work at the component's own degree
        cutoff = None if self._top is None else self._top_int() + self._window
        acc: dict = {}
        for di, comp in f.homogeneous_components().items():
            if cutoff is not None and di > cutoff:
                self._verify_vanishing()
                continue
            data = self._degree_data(di)
            vec = _coordinatize(comp, data.col_of, self._blocks)
            red = data.echelon.reduce(vec)
            for col, coef in red:
                orbit = _orbit_poly(self._blocks, self.n, data.exps[col])
                for exp, c in orbit.terms.items():
                    acc[exp] = acc.get(exp, 0) + coef * c
        rep = Poly(self.n, {e: c for e, c in acc.items() if c != 0}, _clean=True)
        return QuotientElement(self, rep)

    def contains(self, f: Poly) -> bool:
        """Ideal membership."""
        return self.normal_form(f).rep.is_zero

    def element(self, f: Poly) -> "QuotientElement":
        return self.normal_form(f)

    def zero(self) -> "QuotientElement":
        return QuotientElement(self, Poly.zero(self.n))

    def one(self) -> "QuotientElement":
        return self.normal_form(Poly.one(self.n))

    def __repr__(self) -> str:
        return f"QuotientPresentation({self.label})"


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


def presentation(
    nu: Composition,
    mu=None,
    *,
    form: str = "e",
    generators: Sequence[Poly] | None = None,
    top_degree=None,
) -> QuotientPresentation:
    """Cached standard presentations; custom generator lists bypass the cache.

    With ``mu`` absent this is the plain partial coinvariant algebra;
    otherwise the shape-cut quotient with the chosen generator form.
    """
    if generators is not None:
        return QuotientPresentation(
            nu, generators, top_degree=top_degree, label="custom"
        )
    if mu is None:
        return _standard_presentation(nu, None, "")
    return _standard_presentation(nu, canonical_shape(mu), form)


@lru_cache(maxsize=None)
def _standard_presentation(nu: Composition, mu_c, form: str):
    if mu_c is None:
        return QuotientPresentation(
            nu,
            coinvariant_generators(nu),
            top_degree=coinvariant_top_degree(nu),
            accelerated=True,
            label=f"coinvariants of {nu!r}",
        )
    if form == "h":
        gens = tanisaki_generators_h(mu_c, nu)
    elif form == "e":
        gens = tanisaki_generators_e(mu_c, nu)
    else:
        raise ValueError(f"unknown form {form!r}")
    lam = transpose(mu_c)
    if dominates(lam, nu.sorted_partition()):
        top = quotient_top_degree(nu, mu_c)
    else:
        top = None  # zero algebra; generators contain a constant
    return QuotientPresentation(
        nu,
        gens,
        mu=mu_c,
        top_degree=top,
        accelerated=True,
        label=f"shape-cut quotient {lam.parts} over {nu!r}",
    )


def is_nonzero(mu, nu: Composition) -> bool:
    """Whether the shape-cut quotient is non-trivial (dominance test)."""
    return dominates(transpose(mu), nu.sorted_partition())


def ideals_equal(gens_a: Sequence[Poly], gens_b: Sequence[Poly], nu: Composition) -> bool:
    """Mutual membership of two homogeneous generator lists."""
    pres_a = QuotientPresentation(nu, gens_a, label="ideal A")
    pres_b = QuotientPresentation(nu, gens_b, label="ideal B")
    return all(pres_b.contains(g) for g in gens_a) and all(
        pres_a.contains(g) for g in gens_b
    )


def antiinv_divide(g: Poly, nu: Composition) -> Poly:
    """Divide a block-anti-invariant polynomial by the block difference product."""
    if antisymmetrize(g, nu) != g:
        raise NotAntiInvariantError(
            f"polynomial is not anti-invariant for blocks of {nu!r}"
        )
    return exact_divide(g, eps_nu(nu))


# ----------------------------------------------------------------------
# in-quotient identity checks


def quotient_identity_report(n: int, r_max: int, window=None) -> Report:
    """Membership identities tying h and e over complementary block sets.

    For every composition of n supported in the window and every split
    of its non-empty blocks into two complementary groups I and J,
    checks inside the plain quotient that h_r over the I variables is
    congruent to (-1)^(r+1) e_r over the J variables, and that the
    alternating e/h convolution over the I variables lies in the ideal.
    """
    from .shapes import compositions_of

    report = Report(f"quotient-level identities, n={n}, r_max={r_max}")
    if window is None:
        window = (1, max(n, 1))
    ok_pair = ok_conv = True
    seen = set()
    for nu in compositions_of(n, window):
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
                    acc = Poly.zero(n)
                    for s in range(0, r + 1):
                        term = e_sym(n, u_vars, s) * h_sym(n, u_vars, r - s)
                        acc = acc + (term if s % 2 == 0 else -term)
                    if not pres.contains(acc):
                        ok_conv = False
    report.add("h_matches_signed_e_of_complement_in_quotient", ok_pair)
    report.add("alternating_convolution_in_ideal", ok_conv)
    return report
