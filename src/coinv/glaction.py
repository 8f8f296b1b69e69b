"""Chevalley-type raising and lowering operators between quotients.

The lowering operator F_i moves one unit of a composition from index i
to index i+1; E_i moves it back.  Both come in two independent
realizations: a polynomial-level formula that multiplies by a kernel and
applies a chain of simple divided differences, and a module-level
formula that decomposes an element over the free basis 1, x_k, ..., x_k^m
of the refined invariant ring and pushes each power through an explicit
e/h expression.  Agreement of the two routes is part of the test surface,
not an assumption.

Both operators come from one induction/restriction pair between the
sides "nu" and "nu_prime" of a key situation.  KeySituation builds one
Side record per side; the pushforward, the power image and the power
basis decomposition are each written once over such a record.

The decomposition is block-local.  The refinement rho and a side's
composition differ only in the block that holds x_k, so only that
block's factor of each orbit sum is decomposed, over a small system in
the block's own variables.  The system is built from exponents alone and
memoised per block size, end of the block and degree.

Operators on whole weight families (finitely supported sums over
compositions in an index window) apply componentwise and add up
collisions; an operator whose non-zero image would leave the window
raises WindowOverflowError rather than truncating.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import NoSolutionError, NotInvariantError, WindowOverflowError
from .polynomials import (
    Poly,
    _coefs,
    divided_difference,
    e_block,
    h_block,
)
from .quotients import (
    QuotientElement,
    _blocks_of,
    _canonical_exps,
    _Echelon,
    _orbit_poly,
    _orbit_terms,
    _shape,
    _wd_tuples,
    presentation,
    tanisaki_generators_h,
)
from .reporting import Report
from .shapes import (
    Composition,
    compositions_of,
    partitions_of,
    quotient_top_degree,
    sort_to_partition,
)
from .tableaux import kostka, kostka_foulkes


class Side(NamedTuple):
    """One side of a key situation, as the operator formulas read it.

    The refined invariant ring is free over the invariants of base on
    1, x_k, ..., x_k^top; x_k sits in block ``block`` of base, and other
    is the opposite side's composition.  The pushforward to this side
    sends x_k^r to sign * h_{r-top} over that block.
    """

    name: str
    base: Composition
    other: Composition
    top: int
    block: int
    sign: int


class KeySituation:
    """The local data of one lowering step at index i.

    nu must have a non-zero part at i; nu_prime is nu with that part
    lowered and the next raised.  a and b are the sizes of the two
    blocks that the moving variable x_k sits between: block i of
    nu_prime keeps a variables, block i+1 of nu keeps b.  The two sides
    are the Side records "nu" (top a, block i, sign (-1)^a) and
    "nu_prime" (top b, block i+1, sign +1).
    """

    __slots__ = ("i", "nu", "nu_prime", "a", "b", "k", "rho", "_sides")

    def __init__(self, i: int, nu: Composition):
        if nu[i] <= 0:
            raise ValueError(f"composition has no part to lower at index {i}")
        self.i = i
        self.nu = nu
        self.nu_prime = nu.lower_at(i)
        self.a = nu[i] - 1
        self.b = nu[i + 1]
        self.k = nu.partial_sum(i)
        self.rho = nu.refine_at(i)
        sign = -1 if self.a % 2 else 1
        self._sides = {
            "nu": Side("nu", nu, self.nu_prime, self.a, i, sign),
            "nu_prime": Side("nu_prime", self.nu_prime, nu, self.b, i + 1, 1),
        }

    def side(self, name: str) -> Side:
        """The Side record named "nu" or "nu_prime"."""
        try:
            return self._sides[name]
        except KeyError:
            raise ValueError("side must be 'nu' or 'nu_prime'") from None

    def opposite(self, side: Side) -> Side:
        """The Side record of the other side."""
        nu_side, prime_side = self._sides.values()
        return prime_side if side is nu_side else nu_side

    @property
    def n(self) -> int:
        return self.nu.n

    def f_kernel(self) -> Poly:
        """Product of (x_{k-j} - x_k) for j = 1..a."""
        return _kernel(self.n, self.k, -self.a)

    def e_kernel(self) -> Poly:
        """Product of (x_k - x_{k+j}) for j = 1..b."""
        return _kernel(self.n, self.k, self.b)

    def __repr__(self) -> str:
        return f"KeySituation(i={self.i}, nu={self.nu!r})"


# The memoised constructor of the operator path: one operator-calculus pass
# makes 855 lookups on 72 distinct (i, nu).  A KeySituation holds only
# compositions and integers, so an entry keeps no presentation alive.  The
# default verify window at n = 5 gives 126 compositions times 4 indices,
# 504 keys, which 1 024 entries hold; a wider window evicts, and each
# family's steps revisit only the keys of its own weight's neighbours.
_key_situation = lru_cache(maxsize=1024)(KeySituation)


@lru_cache(maxsize=1024)
def _kernel(n: int, k: int, span: int) -> Poly:
    """Product of (x_{k-j} - x_k) for j = 1..-span when span < 0, and of
    (x_k - x_{k+j}) for j = 1..span otherwise.

    Key situations in n variables give at most n^2 keys, so the memo
    holds every kernel of the operator sweeps up to n = 8.
    """
    out = Poly.one(n)
    for j in range(1, abs(span) + 1):
        if span < 0:
            out = out * (Poly.var(n, k - j) - Poly.var(n, k))
        else:
            out = out * (Poly.var(n, k) - Poly.var(n, k + j))
    return out


# ----------------------------------------------------------------------
# polynomial-level operators


def apply_F_poly(ks: KeySituation, f: Poly) -> Poly:
    """Lowering operator on S_rho-invariant f: d_{k+b-1} ... d_k (f_kernel * f).

    The orbit-sum formula (signed sum over S_nu' of eps_pair * f_kernel * f,
    over eps_nu(nu')) is d_w0 of S_nu'.  Write w0 = u * w0(S_rho), lengths
    adding: d_w0(S_rho) strips eps_pair off the S_rho-symmetric f_kernel * f,
    and d_u is the chain above.  The tests check the chain against that
    formula, which ``tests/reference.py`` states.
    """
    g = ks.f_kernel() * f
    for j in range(ks.k, ks.k + ks.b):
        g = divided_difference(g, j)
    return g


def apply_E_poly(ks: KeySituation, f: Poly) -> Poly:
    """Raising operator on S_rho-invariant f: d_{k-a} ... d_{k-1} (e_kernel * f).

    The coset argument of apply_F_poly, with S_nu in place of S_nu'.
    """
    g = ks.e_kernel() * f
    for j in range(ks.k - 1, ks.k - ks.a - 1, -1):
        g = divided_difference(g, j)
    return g


# ----------------------------------------------------------------------
# free-module decomposition over one side of a key situation


@lru_cache(maxsize=None)
def _power_system(m: int, last: bool, deg: int):
    """Tagged echelon of the power basis of one block in one degree slice.

    The block has m variables y = x_1..x_m, and the moving variable is
    its last (last=True) or its first.  The power basis is y^r m_lam for
    r < m and lam a partition of deg - r with at most m parts; it is a
    free basis of the degree slice of the invariants of the block's
    refinement {moving} + rest, so the system is square.  Columns are
    the refined canonical exponents.  The entry of y^r m_lam at column e
    is 1 exactly when e[pos] >= r and e - r at pos rearranges to lam, so
    rows come from exponents alone.  Unknown u carries one tag entry 1
    at column ncols + u; freeness puts every pivot on a slice column.
    Returns (echelon, unknowns, col_of), unknown u being the pair (r, lam).
    """
    pos = m - 1 if last else 0
    cut = m - 1 if last else 1
    blocks = tuple(b for b in ((0, cut), (cut, m)) if b[0] < b[1])
    col_of = {e: j for j, e in enumerate(_canonical_exps(blocks, m, deg))}
    unknowns = [
        (r, lam)
        for r in range(min(m - 1, deg) + 1)
        for lam in _wd_tuples(m, deg - r)
    ]
    cols_of_unknown: dict = {u: [] for u in unknowns}
    for e, j in col_of.items():
        for r in range(min(m - 1, e[pos]) + 1):
            moved = e[:pos] + (e[pos] - r,) + e[pos + 1 :]
            cols_of_unknown[(r, tuple(sorted(moved, reverse=True)))].append(j)
    ech = _Echelon()
    ncols = len(col_of)
    for u, unknown in enumerate(unknowns):
        row = [(j, 1) for j in sorted(cols_of_unknown[unknown])]
        ech.insert(row + [(ncols + u, 1)])
    return ech, tuple(unknowns), col_of


@lru_cache(maxsize=None)
def _power_coords(m: int, last: bool, e: tuple) -> tuple:
    """The refined orbit sum of e over the block's power basis.

    Pairs ((r, lam), c) with sum c y^r m_lam equal to that orbit sum.
    The coefficients are integers: the power basis is a Z-basis, since
    prod (t - x_j) over the block is monic.
    """
    ech, unknowns, col_of = _power_system(m, last, sum(e))
    return tuple(
        (unknowns[u], v) for u, v in ech.solve([(col_of[e], 1)], len(col_of))
    )


def decompose_over(ks: KeySituation, f: Poly, side: str) -> list:
    """Coefficients of f over the power basis of x_k for one side.

    Returns polynomials z_0..z_top in the side's invariant ring with
    f = sum z_r x_k^r (top is a on side "nu", b on side "nu_prime").
    Raises NoSolutionError when f is not invariant under the common
    refinement rho of the two sides.

    rho and the side's base composition differ only in the base block B
    that holds x_k; B has m = top + 1 variables and x_k is its last on
    side "nu" and its first on side "nu_prime".  So every rho orbit sum
    is (orbit sum outside B) * (orbit sum of B's refinement {x_k} + rest),
    and the base orbit sum of exponent (e_out, lam) is (orbit sum outside
    B) * m_lam(B).  The decomposition is linear over the variables
    outside B, so only the B factor of each rho-canonical term of f is
    decomposed (``_power_coords``), and lam is spliced back into the
    exponent.
    """
    s = ks.side(side)
    if f.n != ks.n:
        raise ValueError("wrong variable count")
    try:
        canon_terms = _orbit_terms(f, _blocks_of(ks.rho))
    except NotInvariantError as exc:
        raise NoSolutionError(str(exc)) from exc
    block = s.base.block_range(s.block)
    start, stop = block.start - 1, block.stop - 1
    last = ks.k == block[-1]
    coords = [dict() for _ in range(s.top + 1)]
    for exp, c in canon_terms.items():
        head, tail = exp[:start], exp[stop:]
        for (r, lam), v in _power_coords(s.top + 1, last, exp[start:stop]):
            key = head + lam + tail
            coords[r][key] = coords[r].get(key, 0) + v * c
    n = ks.n
    base_blocks = _blocks_of(s.base)
    out = []
    for acc in coords:
        terms = {}
        for mexp, v in acc.items():
            if v:
                for e in _orbit_poly(base_blocks, n, mexp).terms:
                    terms[e] = v
        out.append(Poly(n, _coefs(terms), _clean=True))
    return out


# ----------------------------------------------------------------------
# module-level (basis formula) operators


# Unbounded: one entry per key situation (nu, i), side and power r up to
# the opposite side's top, so it grows with the weights a run visits, not
# with the elements moved.  It holds 210 entries after ``verify --suite
# all --n 4`` and 1 008 after ``--n 5`` (cold, in process).
@lru_cache(maxsize=None)
def _power_image(nu: Composition, i: int, r: int, side: str) -> Poly:
    """Image of x_k^r under the pushforward composite off the named side.

    With src the named side of KeySituation(i, nu) and dst the other:
    (-1)^a sum_j (-1)^j e_j(Y) h_{r-j+top_src-top_dst}(X), with Y and X
    the blocks src.block and dst.block of the target ring dst.base; one
    of the two signs is (-1)^a and the other +1.
    """
    ks = _key_situation(i, nu)
    src = ks.side(side)
    dst = ks.opposite(src)
    shift = r + src.top - dst.top
    out = Poly.zero(ks.n)
    # h of negative degree is zero, so j stops at the shift
    for j in range(0, min(src.top, shift) + 1):
        term = e_block(dst.base, [src.block], j) * h_block(
            dst.base, [dst.block], shift - j
        )
        out = out + (term if j % 2 == 0 else -term)
    return out * (src.sign * dst.sign)


def _apply_oracle(ks: KeySituation, z: QuotientElement, src: Side):
    """Move z off side src via decomposition over the target's power basis."""
    dst = ks.opposite(src)
    target = presentation(dst.base, z.pres.mu)
    acc = Poly.zero(ks.n)
    for r, zr in enumerate(decompose_over(ks, z.rep, dst.name)):
        if not zr.is_zero:
            acc = acc + zr * _power_image(ks.nu, ks.i, r, src.name)
    return target.normal_form(acc)


def apply_F_oracle(ks: KeySituation, z: QuotientElement) -> QuotientElement:
    """Lowering via decomposition over the target side's power basis."""
    return _apply_oracle(ks, z, ks.side("nu"))


def apply_E_oracle(ks: KeySituation, z: QuotientElement) -> QuotientElement:
    """Raising via decomposition over the target side's power basis."""
    return _apply_oracle(ks, z, ks.side("nu_prime"))


# ----------------------------------------------------------------------
# pushforwards


def push_poly(ks: KeySituation, f, side: str) -> Poly:
    """Pushforward to a side: x_k^r maps to sign * h_{r-top} of its block.

    r runs up to top, and h of negative degree is zero, so only the top
    coefficient of the decomposition survives.
    """
    s = ks.side(side)
    return decompose_over(ks, f, side)[s.top] * s.sign


def push(ks: KeySituation, f, side: str) -> QuotientElement:
    """The pushforward, reduced in the side's plain quotient."""
    return presentation(ks.side(side).base).normal_form(push_poly(ks, f, side))


# ----------------------------------------------------------------------
# single-component operator application, memoized


def apply_D(i: int, nu: Composition, z: QuotientElement) -> QuotientElement:
    """Diagonal operator: multiplication by the weight entry at i."""
    return z * nu[i]


def _apply_component(op: str, i: int, nu: Composition, z: QuotientElement):
    """Returns (target_nu, image element) or None for the zero map.

    The image may itself be zero; None only means the operator is not
    defined at this weight (lowering an empty part, raising into one).
    """
    if op == "D":
        return nu, apply_D(i, nu, z)
    mu = z.pres.mu
    res = _component_image(op, i, nu, mu, z.rep)
    if res is None:
        return None
    target_nu, rep = res
    return target_nu, QuotientElement(presentation(target_nu, mu), rep)


@lru_cache(maxsize=32768)
def _component_image(op: str, i: int, nu: Composition, mu, rep: Poly):
    """(target_nu, normal-form rep of the image), or None for the zero map.

    The image lies in the standard presentation of the target weight and
    the source's shape.

    The memo holds reps, not elements, so it keeps no presentation alive
    and stays valid when the presentation cache is cleared.  It is
    bounded because its keys are the source reps themselves: a sweep over
    many elements (``verify --suite relations --n 5``) would otherwise
    keep every image it ever computed: 192 017 of them, against 412 in
    one operator-calculus pass.  Of that suite's 325 029 repeats, 307 346
    fall within the last 32 768 entries.
    """
    if op == "F":
        if nu[i] == 0:
            return None
        ks = _key_situation(i, nu)
        target_nu = ks.nu_prime
        image = apply_F_poly(ks, rep)
    elif op == "E":
        if nu[i + 1] == 0:
            return None
        ks = _key_situation(i, nu.raise_at(i))
        target_nu = ks.nu
        image = apply_E_poly(ks, rep)
    else:
        raise ValueError(f"unknown operator {op!r}")
    return target_nu, presentation(target_nu, mu).normal_form(image).rep


# ----------------------------------------------------------------------
# weight families


class WeightFamily:
    """Finitely supported element of a direct sum of quotients.

    Components map compositions (supported inside the window) to
    elements of the corresponding shape-cut quotient, each in
    ``presentation(nu, mu)``; the checked constructor refuses any other.
    An absent shape is 1^n, whose quotients are the plain algebras.
    Families combine only when n, window and shape all agree.

    ``_clean=True`` skips the checks, for results built from checked
    families: the caller promises a Partition shape and weights of size
    n inside the window.  Zero components are still dropped.
    """

    __slots__ = ("n", "window", "mu", "components")

    def __init__(
        self,
        n: int,
        window: tuple,
        mu=None,
        components=None,
        *,
        _clean: bool = False,
    ):
        if _clean:
            self.n, self.window, self.mu = n, window, mu
            self.components = {
                nu: z for nu, z in components.items() if not z.is_zero
            }
            return
        self.n = n
        self.window = (int(window[0]), int(window[1]))
        # the shape as presentation() stores it
        self.mu = _shape(mu, n)
        comps = {}
        for nu, z in (components or {}).items():
            # checked before zeros are dropped: a weight outside is an
            # error whatever its element
            if not self._in_window(nu):
                lo, hi = self.window
                raise WindowOverflowError(
                    f"weight {nu!r} leaves the window [{lo}, {hi}]"
                )
            if z.is_zero:
                continue
            if nu.n != n:
                raise ValueError("component weight has wrong size")
            # operator images land in the standard presentation, so a
            # component anywhere else could never add to one
            if z.pres is not presentation(nu, self.mu):
                raise ValueError(
                    f"component at weight {nu!r} is not an element of "
                    f"presentation({nu!r}, {self.mu!r})"
                )
            comps[nu] = z
        self.components = comps

    def _in_window(self, nu: Composition) -> bool:
        lo, hi = self.window
        return not nu.parts or lo <= nu.lo and nu.hi <= hi

    @classmethod
    def unit(cls, nu: Composition, window: tuple, mu=None, elem=None):
        """Family supported at one weight; elem defaults to 1."""
        pres = presentation(nu, mu)
        if elem is None:
            elem = pres.one()
        elif isinstance(elem, Poly):
            elem = pres.normal_form(elem)
        return cls(nu.n, window, mu, {nu: elem})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "WeightFamily") -> "WeightFamily":
        self._compat(other)
        comps = dict(self.components)
        for nu, z in other.components.items():
            cur = comps.get(nu)
            comps[nu] = z if cur is None else cur + z
        return WeightFamily(self.n, self.window, self.mu, comps, _clean=True)

    def __sub__(self, other: "WeightFamily") -> "WeightFamily":
        return self + (other * -1)

    def __mul__(self, scalar) -> "WeightFamily":
        comps = {nu: z * scalar for nu, z in self.components.items()}
        return WeightFamily(self.n, self.window, self.mu, comps, _clean=True)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightFamily):
            return NotImplemented
        return (
            self._settings() == other._settings()
            and self.components == other.components
        )

    def _settings(self) -> tuple:
        return self.n, self.window, self.mu

    def _compat(self, other: "WeightFamily") -> None:
        if self._settings() != other._settings():
            raise ValueError("families from different settings")

    def apply(self, op: str, i: int) -> "WeightFamily":
        """One operator step; images leaving the window raise."""
        out: dict = {}
        for nu, z in self.components.items():
            res = _apply_component(op, i, nu, z)
            if res is None:
                continue
            target_nu, image = res
            if image.is_zero:
                continue
            if not self._in_window(target_nu):
                lo, hi = self.window
                raise WindowOverflowError(
                    f"{op}_{i} sends weight {nu!r} outside [{lo}, {hi}]"
                )
            cur = out.get(target_nu)
            out[target_nu] = image if cur is None else cur + image
        return WeightFamily(self.n, self.window, self.mu, out, _clean=True)

    def to_json(self) -> list:
        out = []
        for nu in sorted(self.components, key=lambda c: c.key()):
            out.append(
                {
                    "weight": nu.to_json(),
                    "element": self.components[nu].to_json(),
                }
            )
        return out

    def __repr__(self) -> str:
        body = ", ".join(
            f"{nu.key()}: {z!r}" for nu, z in sorted(
                self.components.items(), key=lambda t: t[0].key()
            )
        )
        return f"WeightFamily({{{body}}})"


def parse_op_word(word: str) -> list:
    """Parse \"F_2 F_1 E_2\" into [(op, index), ...] left to right."""
    out = []
    for tok in word.split():
        op, _, idx = tok.partition("_")
        if op not in ("D", "E", "F") or not idx.lstrip("-").isdigit():
            raise ValueError(f"bad operator token {tok!r}")
        out.append((op, int(idx)))
    return out


def apply_operator_family(word, wf: WeightFamily) -> WeightFamily:
    """Apply an operator word, rightmost operator first."""
    ops = parse_op_word(word)
    for op, i in reversed(ops):
        wf = wf.apply(op, i)
    return wf


# ----------------------------------------------------------------------
# reports


def relation_report(n: int, window: tuple, mu=None) -> Report:
    """Commutation and Serre relations on every basis vector in range.

    An absent shape is 1^n: the relations on the plain algebras.
    """
    mu = _shape(mu, n)
    report = Report(f"gl relations, n={n}, window={window}, shape {mu.parts}")
    lo, hi = window
    move_idx = range(lo, hi)  # E_i/F_i use the pair (i, i+1)
    families = []
    for nu in compositions_of(n, window):
        pres = presentation(nu, mu)
        if pres.is_zero_algebra:
            continue
        for z in pres.basis():
            families.append(WeightFamily(n, window, mu, {nu: z}))

    ok_ef = ok_comm = ok_serre = True
    ok_d = {"E": True, "F": True}
    for fam in families:
        # every single step off fam, built once and shared by the checks
        step = {
            "E": {i: fam.apply("E", i) for i in move_idx},
            "F": {i: fam.apply("F", i) for i in move_idx},
            "D": {i: fam.apply("D", i) for i in range(lo, hi + 1)},
        }
        for i in move_idx:
            for j in move_idx:
                ef = step["F"][j].apply("E", i)
                fe = step["E"][i].apply("F", j)
                comm = ef - fe
                if i == j:
                    rhs = step["D"][i] - step["D"][i + 1]
                else:
                    rhs = fam * 0
                if comm != rhs:
                    ok_ef = False
                if abs(i - j) >= 2:
                    for op in ("E", "F"):
                        swap = step[op][j].apply(op, i) - step[op][i].apply(op, j)
                        if not swap.is_zero:
                            ok_comm = False
        for i in range(lo, hi + 1):
            for j in move_idx:
                # [D_i, E_j] = (d_ij - d_i,j+1) E_j, and minus that for F_j
                scal = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                for op, sign in (("E", 1), ("F", -1)):
                    moved = step[op][j]
                    comm = moved.apply("D", i) - step["D"][i].apply(op, j)
                    if comm != moved * (sign * scal):
                        ok_d[op] = False
        for i in move_idx:
            for j in (i - 1, i + 1):
                if j not in move_idx:
                    continue
                for op in ("E", "F"):
                    aab = step[op][j].apply(op, i).apply(op, i)
                    aba = step[op][i].apply(op, j).apply(op, i)
                    baa = step[op][i].apply(op, i).apply(op, j)
                    serre = aab - 2 * aba + baa
                    if not serre.is_zero:
                        ok_serre = False
    report.add("commutator_EF_is_weight_difference", ok_ef)
    report.add("commutator_DE_scales_E", ok_d["E"])
    report.add("commutator_DF_scales_F", ok_d["F"])
    report.add("distant_EE_FF_commute", ok_comm)
    report.add("serre_relations", ok_serre)
    return report


def _module_basis(base: Composition, i: int) -> list:
    """A free basis of P_base over P_sigma, sigma merging blocks i and i+1.

    The monomial symmetric functions m_lam of block i's variables, lam in
    the base[i] x base[i+1] box: C(base[i]+base[i+1], base[i]) elements
    of degree at most base[i]*base[i+1], in ascending degree.  They are
    unitriangular to the Schur functions of that box, the classical free
    basis of the Grassmannian, so they are a free basis too.
    """
    n = base.n
    rows, width = base[i], base[i + 1]
    block = base.block_range(i)
    start, stop = block.start - 1, block.stop - 1
    zeros = (0,) * n
    return [
        _orbit_poly(_blocks_of(base), n, zeros[:start] + lam + zeros[stop:])
        for s in range(rows * width + 1)
        for lam in _wd_tuples(rows, s)
        if not lam or lam[0] <= width
    ]


def ideal_invariance_check(mu, window: tuple) -> Report:
    """Operators map each cut ideal into the neighbouring cut ideal.

    Fix a source composition nu and an index i, and let sigma merge
    blocks i and i+1 of nu.  F_i and E_i are P_sigma-linear: each
    divided difference of their chains acts on two variables of the
    merged block, and multiplying by the kernel commutes with P_sigma.
    P_nu is free over P_sigma on ``_module_basis(nu, i)``, and the cut
    ideal J_nu is generated by its h-form generators g, so J_nu is the
    P_sigma-span of the products g*m with m in that basis.  Hence
    F(J_nu) lies in J_nu' exactly when every F(g*m) does, and likewise
    for E; the check is complete, with no degree cap.

    Each image is homogeneous, of degree deg g + deg m + 2(a-b) for F
    and deg g + deg m + 2(b-a) for E (a, b those of the key situation).
    A pair whose target piece of that degree is zero, as every piece of
    a zero algebra is, passes whatever the operator does; it is skipped
    before g*m is built.  The other products are built once per (nu, i)
    and shared by the lowering and the raising step.
    """
    mu = sort_to_partition(mu)
    n = mu.n
    report = Report(f"ideal invariance, shape {mu.parts}, window {window}")
    lo, hi = window
    ok = [True, True]
    for base in compositions_of(n, window):
        gens = [(g, g.degree()) for g in tanisaki_generators_h(mu, base)]
        for i in range(lo, hi):
            steps = []
            if base[i] > 0:
                ks = _key_situation(i, base)
                steps.append((0, ks, ks.nu_prime, apply_F_poly, ks.a - ks.b))
            if base[i + 1] > 0:
                ks = _key_situation(i, base.raise_at(i))
                steps.append((1, ks, ks.nu, apply_E_poly, ks.b - ks.a))
            if not steps:
                continue
            basis = [(m, m.degree()) for m in _module_basis(base, i)]
            products: dict = {}
            for half, ks, target, op, shift in steps:
                dst = presentation(target, mu)
                for gi, (g, dg) in enumerate(gens):
                    for mi, (m, dm) in enumerate(basis):
                        if dst.graded_dim(dg + dm + 2 * shift) == 0:
                            continue
                        prod = products.get((gi, mi))
                        if prod is None:
                            prod = products[(gi, mi)] = g * m
                        if not dst.contains(op(ks, prod)):
                            ok[half] = False
    report.add("lowering_preserves_cut_ideals", ok[0])
    report.add("raising_preserves_cut_ideals", ok[1])
    return report


def hilbert_identity_check(mu, nu: Composition) -> bool:
    """Graded dimensions against the charge generating function.

    The Hilbert polynomial of the cut quotient must match
    t^top * sum over transpose pairs (kappa, tau) of partitions of n of
    the Kostka number K_{kappa nu} (semistandard kappa-tableaux of
    content nu) times the charge polynomial of tau over mu evaluated at
    t^(-2).
    """
    mu = sort_to_partition(mu)
    pres = presentation(nu, mu)
    left = pres.hilbert()
    top = quotient_top_degree(nu, mu)
    right = [0] * (top + 1)
    for tau in partitions_of(nu.n):
        kappa = tau.transpose()
        mult = kostka(kappa, nu)
        if mult == 0:
            continue
        charge_poly = kostka_foulkes(tau, mu)
        for j, c in enumerate(charge_poly.coeffs):
            if c == 0:
                continue
            e = top - 2 * j
            if e < 0:
                return False
            right[e] += mult * c
    return list(left.coeffs) == right
