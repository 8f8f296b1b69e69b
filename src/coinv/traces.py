"""Bimodule adjunction calculus for one raising/lowering step.

The refined quotient sits over both neighbouring quotients as a free
module of rank a+1 (over the nu side) and b+1 (over the nu_prime side).
Each side carries a perfect pairing given by multiplying and pushing
forward; the units of the two adjunctions are the Casimir elements of
these pairings and the counits are the pairings themselves.  Trace maps
close a unit against the opposite pushforward and must reproduce the
Chevalley operators; that equality is the module's main test surface.
The unit pairs and the counit are each written once over a side's Side
record (see glaction); the public nu/nu_prime functions name a side.

All natural transformations are evaluated on regular modules only, and
tensor elements are canonicalized eagerly over the power bases so that
equality is decidable.
"""

from __future__ import annotations

from functools import lru_cache

from .glaction import (
    KeySituation,
    Side,
    _key_situation,
    apply_E_oracle,
    apply_F_oracle,
    decompose_over,
    push,
    push_poly,
)
from .polynomials import Poly, e_block
from .quotients import QuotientElement, presentation
from .reporting import Report
from .shapes import compositions_of


def _as_poly(x) -> Poly:
    return x.rep if isinstance(x, QuotientElement) else x


class ModuleHom:
    """Map out of the refined quotient, linear over the nu side's base ring.

    It is recorded by its values on the basis powers x_k^0..x_k^a.
    """

    __slots__ = ("ks", "values")

    def __init__(self, ks: KeySituation, values):
        values = tuple(values)
        if len(values) != ks.a + 1:
            raise ValueError(f"expected {ks.a + 1} basis values, got {len(values)}")
        self.ks = ks
        self.values = values

    def evaluate(self, y) -> QuotientElement:
        """Apply the map to an arbitrary element of the refined quotient."""
        ks = self.ks
        base = presentation(ks.nu)
        coeffs = decompose_over(ks, _as_poly(y), "nu")
        acc = Poly.zero(ks.n)
        for w, val in zip(coeffs, self.values):
            if not w.is_zero:
                acc = acc + w * val.rep
        return base.normal_form(acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleHom):
            return NotImplemented
        return (
            self.ks.nu == other.ks.nu
            and self.ks.i == other.ks.i
            and self.values == other.values
        )

    def __repr__(self) -> str:
        vals = ", ".join(repr(v) for v in self.values)
        return f"ModuleHom([{vals}])"


class PowerBasisTensor:
    """Canonicalized element of a two-factor tensor product.

    shape names the coefficient side: the tensor is joined over the
    opposite side, its entries are x_k^r (r up to the opposite side's
    top) times a coefficient in the shape side's quotient times x_k^s
    (s up to the shape side's top).
    """

    __slots__ = ("ks", "shape", "coeffs")

    def __init__(self, ks: KeySituation, shape: str, coeffs: dict):
        ks.side(shape)  # rejects a bad side name
        self.ks = ks
        self.shape = shape
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero}

    @classmethod
    def from_pairs(cls, ks: KeySituation, shape: str, pairs):
        """Canonicalize a sum of left x right factor pairs.

        Left factors are decomposed over the junction side and slid
        across; the collected right factors are then decomposed over the
        coefficient side.
        """
        coeff_side = ks.side(shape)
        junction = ks.opposite(coeff_side)
        n = ks.n
        collected = [Poly.zero(n) for _ in range(junction.top + 1)]
        for left, right in pairs:
            left, right = _as_poly(left), _as_poly(right)
            for r, z in enumerate(decompose_over(ks, left, junction.name)):
                if not z.is_zero:
                    collected[r] = collected[r] + z * right
        base = presentation(coeff_side.base)
        coeffs = {}
        for r, y in enumerate(collected):
            if y.is_zero:
                continue
            for s, c in enumerate(decompose_over(ks, y, shape)):
                val = base.normal_form(c)
                if not val.is_zero:
                    coeffs[(r, s)] = val
        return cls(ks, shape, coeffs)

    def pairs(self) -> list:
        """The canonical entries as explicit factor pairs."""
        n, k = self.ks.n, self.ks.k
        xk = Poly.var(n, k)
        return [
            (xk**r, c.rep * xk**s) for (r, s), c in sorted(self.coeffs.items())
        ]

    def multiply_middle(self, z, *, factor: str = "right") -> "PowerBasisTensor":
        """Multiply one tensor factor by a ring element and recanonicalize.

        The two factor choices must give the same closed evaluations;
        that agreement is a tested invariant, not an assumption.
        """
        if factor not in ("left", "right"):
            raise ValueError("factor must be 'left' or 'right'")
        z = _as_poly(z)
        n, k = self.ks.n, self.ks.k
        xk = Poly.var(n, k)
        pairs = []
        for (r, s), c in self.coeffs.items():
            if factor == "right":
                pairs.append((xk**r, c.rep * xk**s * z))
            else:
                pairs.append((xk**r * z, c.rep * xk**s))
        return PowerBasisTensor.from_pairs(self.ks, self.shape, pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerBasisTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.ks.nu == other.ks.nu
            and self.ks.i == other.ks.i
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{rs}: {c!r}" for rs, c in sorted(self.coeffs.items())
        )
        return f"PowerBasisTensor({self.shape}; {{{body}}})"


# ----------------------------------------------------------------------
# the duality isomorphism


def delta(ks: KeySituation, g) -> ModuleHom:
    """Pair against g: the basis power x_k^s maps to push(g x_k^s)."""
    g = _as_poly(g)
    xk = Poly.var(ks.n, ks.k)
    values = [push(ks, g * xk**s, "nu") for s in range(ks.a + 1)]
    return ModuleHom(ks, values)


def delta_inv(ks: KeySituation, f: ModuleHom):
    """Reconstruct the pairing element from a hom's basis values.

    Contracts the nu-side unit: each pair's left factor times the hom's
    value on the pair's right power.
    """
    pairs = _unit_pairs(ks, ks.side("nu"))  # right powers x_k^a .. x_k^0
    acc = Poly.zero(ks.n)
    for (left, _), value in zip(pairs, reversed(f.values)):
        acc = acc + left * value.rep
    return presentation(ks.rho).normal_form(acc)


# ----------------------------------------------------------------------
# units and counits


def _unit_pairs(ks: KeySituation, side: Side) -> list:
    """Defining factor pairs of one side's unit, before canonicalization.

    The pairs are (sign * (-1)^r e_r, x_k^(top-r)) for r = 0..top, with
    e_r taken over block side.block of the opposite composition.
    """
    xk = Poly.var(ks.n, ks.k)
    pairs = []
    for r in range(side.top + 1):
        left = e_block(side.other, [side.block], r) * side.sign
        if r % 2:
            left = -left
        pairs.append((left, xk ** (side.top - r)))
    return pairs


def _counit(ks: KeySituation, side: str, t: PowerBasisTensor) -> QuotientElement:
    """One side's pairing on a canonical tensor: multiply and push down.

    On basis powers the values are sign * h_{r+s-top} over the side's
    block; on an explicit pair (f, g) the pairing is push(ks, f * g, side).
    """
    acc = Poly.zero(ks.n)
    for left, right in t.pairs():
        acc = acc + push_poly(ks, left * right, side)
    return presentation(ks.side(side).base).normal_form(acc)


# The trace maps close the same unit against every basis vector: one
# operator-calculus pass asks for 24 units 100 times.  The memo holds the
# canonical coefficient reps, not elements, so it keeps no presentation
# alive and stays valid when the presentation cache is cleared.  Its keys
# are a key situation's (nu, i) and a side: 2 * 504 on the default verify
# window at n = 5, which 1 024 entries hold.
@lru_cache(maxsize=1024)
def _unit_reps(nu, i: int, side: str) -> tuple:
    """((r, s), rep) of the canonical entries of one side's unit."""
    ks = _key_situation(i, nu)
    unit = PowerBasisTensor.from_pairs(ks, side, _unit_pairs(ks, ks.side(side)))
    return tuple((rs, c.rep) for rs, c in unit.coeffs.items())


def _unit(ks: KeySituation, side: str) -> PowerBasisTensor:
    """One side's unit, its memoised reps wrapped in the current presentation."""
    base = presentation(ks.side(side).base)
    coeffs = {
        rs: QuotientElement(base, rep) for rs, rep in _unit_reps(ks.nu, ks.i, side)
    }
    return PowerBasisTensor(ks, side, coeffs)


def unit_iota_prime(ks: KeySituation) -> PowerBasisTensor:
    """Casimir element of the nu-side pairing, canonicalized."""
    return _unit(ks, "nu")


def unit_iota(ks: KeySituation) -> PowerBasisTensor:
    """Casimir element of the nu_prime-side pairing, canonicalized."""
    return _unit(ks, "nu_prime")


def counit_eps(ks: KeySituation, t: PowerBasisTensor) -> QuotientElement:
    """The nu-side pairing; values (-1)^a h_{r+s-a} over block i."""
    return _counit(ks, "nu", t)


def counit_eps_prime(ks: KeySituation, t: PowerBasisTensor) -> QuotientElement:
    """The nu_prime-side pairing; values h_{r+s-b} over block i+1."""
    return _counit(ks, "nu_prime", t)


# ----------------------------------------------------------------------
# trace maps


def trace_F(ks: KeySituation, z) -> QuotientElement:
    """Close the nu-side unit against the nu_prime-side pairing."""
    t = unit_iota_prime(ks).multiply_middle(z)
    return counit_eps_prime(ks, t)


def trace_E(ks: KeySituation, z) -> QuotientElement:
    """Close the nu_prime-side unit against the nu-side pairing."""
    t = unit_iota(ks).multiply_middle(z)
    return counit_eps(ks, t)


# ----------------------------------------------------------------------
# verification


def triangle_identity_check(ks: KeySituation) -> bool:
    """Both triangle identities for both unit/counit pairs.

    Each unit is the Casimir element of its pairing, so contracting its
    defining factor pairs against any element through either slot must
    reconstruct the element.  Checked on the powers x_k^t for t up to
    a+b, which span the refined quotient over either base ring.
    """
    n, k = ks.n, ks.k
    xk = Poly.var(n, k)
    rho = presentation(ks.rho)
    units = [(s, _unit_pairs(ks, ks.side(s))) for s in ("nu", "nu_prime")]
    for t in range(ks.a + ks.b + 1):
        u = xk**t
        want = rho.normal_form(u)
        for side, pairs in units:
            first_slot = Poly.zero(n)
            second_slot = Poly.zero(n)
            for left, right in pairs:
                first_slot += left * push_poly(ks, right * u, side)
                second_slot += push_poly(ks, u * left, side) * right
            if rho.normal_form(first_slot) != want:
                return False
            if rho.normal_form(second_slot) != want:
                return False
    return True


def trace_map_report(n: int, window) -> Report:
    """Trace maps against the Chevalley operators on every basis vector."""
    report = Report(f"trace maps vs operators, n={n}, window={window}")
    lo, hi = window
    ok = [True, True]
    for nu in compositions_of(n, window):
        for i in range(lo, hi):
            if nu[i] == 0:
                continue
            ks = KeySituation(i, nu)
            halves = (
                (ks.side("nu"), trace_F, apply_F_oracle),
                (ks.side("nu_prime"), trace_E, apply_E_oracle),
            )
            for half, (side, trace, oracle) in enumerate(halves):
                for z in presentation(side.base).basis():
                    if trace(ks, z) != oracle(ks, z):
                        ok[half] = False
    report.add("trace_F_matches_lowering_oracle", ok[0])
    report.add("trace_E_matches_raising_oracle", ok[1])
    return report


def adjunction_report(n: int, window) -> Report:
    """Duality isomorphism, triangles, centrality and linearity checks."""
    report = Report(f"adjunction calculus, n={n}, window={window}")
    lo, hi = window
    ok_iso = ok_tri = ok_central = ok_linear = True
    for nu in compositions_of(n, window):
        for i in range(lo, hi):
            if nu[i] == 0:
                continue
            ks = KeySituation(i, nu)
            rho = presentation(ks.rho)
            base = presentation(ks.nu)
            # delta_inv(delta(g)) == g over the whole refined quotient
            for g in rho.basis():
                if delta_inv(ks, delta(ks, g)) != g:
                    ok_iso = False
            # delta(delta_inv(f)) == f on an exhaustive hom basis
            for s in range(ks.a + 1):
                for w in base.basis():
                    values = [
                        w if t == s else base.zero() for t in range(ks.a + 1)
                    ]
                    f = ModuleHom(ks, values)
                    if delta(ks, delta_inv(ks, f)) != f:
                        ok_iso = False
            if not triangle_identity_check(ks):
                ok_tri = False
            # centrality: multiplying either tensor factor gives one trace
            halves = (
                (ks.side("nu"), unit_iota_prime, counit_eps_prime),
                (ks.side("nu_prime"), unit_iota, counit_eps),
            )
            for side, unit_of, counit in halves:
                unit = unit_of(ks)
                for z in presentation(side.base).basis():
                    left = counit(ks, unit.multiply_middle(z, factor="left"))
                    right = counit(ks, unit.multiply_middle(z, factor="right"))
                    if left != right:
                        ok_central = False
            # naturality of the hom-space isomorphism under multiplication
            xk = Poly.var(ks.n, ks.k)
            delta_xk = delta(ks, xk)
            for c in base.basis():
                lhs = delta(ks, xk * c.rep)
                rhs = ModuleHom(
                    ks, [base.normal_form(v.rep * c.rep) for v in delta_xk.values]
                )
                if lhs != rhs:
                    ok_linear = False
    report.add("duality_map_is_isomorphism", ok_iso)
    report.add("triangle_identities", ok_tri)
    report.add("middle_multiplication_side_independent", ok_central)
    report.add("duality_map_base_linear", ok_linear)
    return report
