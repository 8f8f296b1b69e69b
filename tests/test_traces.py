import pytest

import coinv.traces as traces
from coinv.glaction import (
    KeySituation,
    apply_E_oracle,
    apply_F_oracle,
    push,
)
from coinv.polynomials import Poly, Q
from coinv.quotients import _standard_presentation, presentation
from coinv.shapes import Composition, compositions_of
from coinv.traces import (
    ModuleHom,
    PowerBasisTensor,
    adjunction_report,
    trace_map_report,
    counit_eps,
    counit_eps_prime,
    delta,
    delta_inv,
    trace_E,
    trace_F,
    triangle_identity_check,
    unit_iota,
    unit_iota_prime,
)


def comp(*parts):
    return Composition(1, list(parts))


def key_situations(n):
    seen = set()
    for nu in compositions_of(n, (1, n)):
        if nu.key() in seen:
            continue
        seen.add(nu.key())
        for i in range(1, n):
            if nu[i] > 0:
                yield KeySituation(i, nu)


# ----------------------------------------------------------------------
# duality map


def test_delta_trivial_rank_one():
    ks = KeySituation(1, comp(1))
    hom = delta(ks, Poly.one(1))
    assert [v.rep for v in hom.values] == [Poly.one(1)]


def test_delta_worked_values():
    ks = KeySituation(1, comp(2))
    hom = delta(ks, Poly.one(2))
    assert hom.values[0].is_zero
    assert hom.values[1].rep == Poly.const(2, -1)


def test_delta_inverse_both_ways():
    for n in (2, 3):
        for ks in key_situations(n):
            rho = presentation(ks.rho)
            base = presentation(ks.nu)
            for g in rho.basis():
                assert delta_inv(ks, delta(ks, g)) == g
            for s in range(ks.a + 1):
                for w in base.basis():
                    values = [
                        w if t == s else base.zero() for t in range(ks.a + 1)
                    ]
                    hom = ModuleHom(ks, values)
                    assert delta(ks, delta_inv(ks, hom)) == hom


def test_module_hom_validates_rank():
    ks = KeySituation(1, comp(2))
    with pytest.raises(ValueError):
        ModuleHom(ks, [presentation(ks.nu).one()])


def test_hom_evaluation_extends_by_linearity():
    for ks in key_situations(3):
        rho = presentation(ks.rho)
        xk = Poly.var(3, ks.k)
        for g in rho.basis():
            hom = delta(ks, g)
            for t in range(ks.a + 2):
                assert hom.evaluate(xk**t) == push(ks, g.rep * xk**t, "nu")


# ----------------------------------------------------------------------
# units, counits, canonical tensors


def test_unit_canonical_form_worked_example():
    ks = KeySituation(1, comp(2))
    t = unit_iota_prime(ks)
    assert set(t.coeffs) == {(0, 1)}
    assert t.coeffs[(0, 1)].rep == Poly.const(2, -2)


def test_unit_other_side_worked_example():
    ks = KeySituation(1, comp(1, 1))
    t = unit_iota(ks)
    assert set(t.coeffs) == {(0, 1)}
    assert t.coeffs[(0, 1)].rep == Poly.const(2, 2)


def test_rank_one_units_are_one_tensor_one():
    ks = KeySituation(1, comp(1))
    assert unit_iota_prime(ks).coeffs[(0, 0)].rep == Poly.one(1)
    assert unit_iota(ks).coeffs[(0, 0)].rep == Poly.one(1)


def test_counit_values_on_extreme_powers():
    for ks in key_situations(3):
        xk = Poly.var(3, ks.k)
        sign = Q(-1 if ks.a % 2 else 1)
        # the pairing of an explicit pair (f, g) is push(ks, f * g, side)
        assert push(ks, xk**ks.a, "nu").rep == Poly.const(3, sign)
        assert push(ks, xk**ks.b, "nu_prime").rep == Poly.one(3)


def test_tensor_rejects_bad_shape():
    ks = KeySituation(1, comp(2))
    with pytest.raises(ValueError):
        PowerBasisTensor(ks, "sideways", {})
    with pytest.raises(ValueError):
        PowerBasisTensor.from_pairs(ks, "sideways", [(Poly.one(2), Poly.one(2))])


def test_tensor_canonicalization_ignores_representatives():
    ks = KeySituation(1, comp(1, 1, 1))
    rho = presentation(ks.rho)
    xk = Poly.var(3, ks.k)
    g = rho.generators[0]
    base = PowerBasisTensor.from_pairs(ks, "nu", [(Poly.one(3), xk)])
    shifted = PowerBasisTensor.from_pairs(
        ks, "nu", [(Poly.one(3), xk + g), (g, Poly.one(3))]
    )
    assert base == shifted


def test_tensor_pairs_roundtrip():
    for ks in key_situations(3):
        t = unit_iota_prime(ks)
        again = PowerBasisTensor.from_pairs(ks, "nu", t.pairs())
        assert again == t
        t = unit_iota(ks)
        again = PowerBasisTensor.from_pairs(ks, "nu_prime", t.pairs())
        assert again == t


def test_unit_cache_survives_presentation_cache_clear():
    ks = KeySituation(1, comp(2, 1))
    units = (
        (ks.side("nu"), unit_iota_prime, trace_F, apply_F_oracle),
        (ks.side("nu_prime"), unit_iota, trace_E, apply_E_oracle),
    )

    def block_sum(side):
        return sum(
            (Poly.var(3, v) for v in side.base.block_range(side.block)),
            Poly.zero(3),
        )

    before = [(unit(ks), trace(ks, block_sum(side))) for side, unit, trace, _ in units]
    _standard_presentation.cache_clear()
    for (side, unit, trace, oracle), (old_unit, old_trace) in zip(units, before):
        new_unit, new_trace = unit(ks), trace(ks, block_sum(side))
        # the memoised reps come back in the presentation built after the clear
        base = presentation(side.base)
        assert new_unit.coeffs
        assert all(c.pres is base for c in new_unit.coeffs.values())
        assert new_unit == PowerBasisTensor.from_pairs(ks, side.name, new_unit.pairs())
        assert new_unit.pairs() == old_unit.pairs()
        assert new_unit != old_unit  # its elements' presentation is gone
        assert new_trace.rep == old_trace.rep
        assert new_trace.pres is not old_trace.pres
        assert new_trace == oracle(ks, base.normal_form(block_sum(side)))


def test_middle_multiplication_side_independent():
    for ks in key_situations(3):
        unit = unit_iota_prime(ks)
        for z in presentation(ks.nu).basis():
            left = counit_eps_prime(
                ks, unit.multiply_middle(z.rep, factor="left")
            )
            right = counit_eps_prime(
                ks, unit.multiply_middle(z.rep, factor="right")
            )
            assert left == right


# ----------------------------------------------------------------------
# traces and triangles


def test_trace_values_single_variable():
    ks = KeySituation(1, comp(1))
    assert trace_F(ks, Poly.one(1)).rep == Poly.one(1)


def test_trace_worked_example():
    ks = KeySituation(1, comp(2))
    assert trace_F(ks, Poly.one(2)).rep == Poly.var(2, 1) * 2
    assert trace_E(ks, Poly.one(2)).is_zero


def test_traces_match_operators_small():
    situations = [KeySituation(1, comp(1))]
    for n in (2, 3):
        situations.extend(key_situations(n))
    for ks in situations:
        src = presentation(ks.nu)
        for z in src.basis():
            assert trace_F(ks, z.rep) == apply_F_oracle(ks, z)
        dst = presentation(ks.nu_prime)
        for z in dst.basis():
            assert trace_E(ks, z.rep) == apply_E_oracle(ks, z)


def test_traces_are_linear_and_graded():
    ks = KeySituation(2, comp(1, 2))
    src = presentation(ks.nu)
    vecs = list(src.basis())
    shift = 2 * (ks.a - ks.b)
    for z in vecs:
        image = trace_F(ks, z.rep)
        if not image.is_zero:
            assert image.degree() == z.degree() + shift
        assert trace_F(ks, z.rep * 3) == image * Q(3)
    total = trace_F(ks, sum((z.rep for z in vecs), Poly.zero(3)))
    acc = trace_F(ks, vecs[0].rep)
    for z in vecs[1:]:
        acc = acc + trace_F(ks, z.rep)
    assert total == acc


def test_triangle_identities_small():
    for n in (2, 3):
        for ks in key_situations(n):
            assert triangle_identity_check(ks)


def test_trace_map_report_small():
    rep = trace_map_report(3, (1, 3))
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "trace_F_matches_lowering_oracle",
        "trace_E_matches_raising_oracle",
    ]


def test_adjunction_report_small():
    rep = adjunction_report(3, (1, 3))
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "duality_map_is_isomorphism",
        "triangle_identities",
        "middle_multiplication_side_independent",
        "duality_map_base_linear",
    ]


def _doubled(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * 2


def _doubled_on_sums(push_poly):
    # the first slot of a triangle pushes x_k^r * x_k^t, one monomial; the
    # second pushes x_k^t times a unit's left factor, a sum once a >= 2
    def push_poly_mutant(ks, f, side):
        out = push_poly(ks, f, side)
        return out * 2 if len(f.terms) > 1 else out

    return push_poly_mutant


def _doubled_left_factor(multiply_middle):
    def mutant(self, z, *, factor="right"):
        out = multiply_middle(self, z, factor=factor)
        if factor == "left":
            doubled = {rs: c * 2 for rs, c in out.coeffs.items()}
            out = PowerBasisTensor(out.ks, out.shape, doubled)
        return out

    return mutant


def _doubled_off_normal_forms(true_delta):
    # the isomorphism checks pair only normal forms of the refined
    # quotient; the linearity check pairs x_k * c, which need not be one
    def mutant(ks, g):
        out = true_delta(ks, g)
        g = traces._as_poly(g)
        if presentation(ks.rho).normal_form(g).rep != g:
            out = ModuleHom(ks, [v * 2 for v in out.values])
        return out

    return mutant


@pytest.mark.parametrize(
    "name, broken",
    [
        ("trace_F", "trace_F_matches_lowering_oracle"),
        ("trace_E", "trace_E_matches_raising_oracle"),
    ],
)
def test_trace_map_report_can_fail(monkeypatch, name, broken):
    monkeypatch.setattr(traces, name, _doubled(getattr(traces, name)))
    rep = trace_map_report(3, (1, 3))
    assert {c.name for c in rep.checks if not c.passed} == {broken}


@pytest.mark.parametrize(
    "owner, name, mutant, broken",
    [
        (traces, "delta_inv", _doubled, {"duality_map_is_isomorphism"}),
        # the counits of both tensors push with the same function
        (traces, "push_poly", _doubled, {"triangle_identities"}),
        (
            PowerBasisTensor,
            "multiply_middle",
            _doubled_left_factor,
            {"middle_multiplication_side_independent"},
        ),
        (
            traces,
            "delta",
            _doubled_off_normal_forms,
            {"duality_map_base_linear"},
        ),
    ],
)
def test_adjunction_report_can_fail(monkeypatch, owner, name, mutant, broken):
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    rep = adjunction_report(3, (1, 3))
    assert {c.name for c in rep.checks if not c.passed} == broken


@pytest.mark.parametrize("mutant", [_doubled, _doubled_on_sums])
def test_triangle_identity_check_can_fail(monkeypatch, mutant):
    # doubling every pushforward breaks the first slot; doubling only the
    # pushforwards of sums leaves it and breaks the second
    monkeypatch.setattr(traces, "push_poly", mutant(traces.push_poly))
    assert not triangle_identity_check(KeySituation(1, comp(3)))
