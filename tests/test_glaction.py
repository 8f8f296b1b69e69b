import random
from functools import reduce
from math import comb

import pytest

from coinv.errors import NoSolutionError, NotInvariantError, WindowOverflowError
import coinv.glaction as glaction
from coinv.glaction import (
    KeySituation,
    WeightFamily,
    _power_system,
    apply_D,
    apply_E_oracle,
    apply_E_poly,
    apply_F_oracle,
    apply_F_poly,
    apply_operator_family,
    decompose_over,
    hilbert_identity_check,
    ideal_invariance_check,
    parse_op_word,
    push,
    push_poly,
    relation_report,
)
from coinv.polynomials import Poly, Q, e_block
from coinv.quotients import (
    QuotientPresentation,
    _standard_presentation,
    presentation,
    tanisaki_generators_h,
)
from coinv.shapes import (
    Composition,
    Partition,
    coinvariant_top_degree,
    compositions_of,
    partitions_of,
    sort_to_partition,
    transpose,
)
from coinv.tableaux import count_column_strict, kostka

from reference import (
    antisymmetrize,
    block_spans,
    canonical_exponents,
    eps_nu,
    eps_pair,
    exact_divide,
    insert_integer_row,
    is_block_invariant,
    orbit_sum,
    symmetrize,
)


def comp(*parts):
    return Composition(1, list(parts))


def key_situations(n):
    for nu in compositions_of(n, (1, n)):
        for i in range(1, n):
            if nu[i] > 0:
                yield KeySituation(i, nu)


# ----------------------------------------------------------------------
# key situations


def test_key_situation_fields():
    ks = KeySituation(1, comp(2))
    assert ks.nu_prime == comp(1, 1)
    assert (ks.a, ks.b, ks.k) == (1, 0, 2)
    assert ks.rho == comp(1, 1)

    ks = KeySituation(2, comp(1, 2, 1))
    assert ks.nu_prime == comp(1, 1, 2)
    assert (ks.a, ks.b, ks.k) == (1, 1, 3)
    assert ks.rho == comp(1, 1, 1, 1)


def test_key_situation_rejects_empty_part():
    with pytest.raises(ValueError):
        KeySituation(2, comp(2))


def test_side_records_match_key_situation():
    for n in range(2, 5):
        for ks in key_situations(n):
            nu_side, prime_side = ks.side("nu"), ks.side("nu_prime")
            assert nu_side == (
                "nu", ks.nu, ks.nu_prime, ks.a, ks.i, (-1) ** ks.a
            )
            assert prime_side == (
                "nu_prime", ks.nu_prime, ks.nu, ks.b, ks.i + 1, 1
            )
            assert ks.opposite(nu_side) is prime_side
            assert ks.opposite(prime_side) is nu_side
            for side in (nu_side, prime_side):
                # x_k is in the side's block and leaves the other's
                assert ks.k in side.base.block_range(side.block)
                assert ks.k not in side.other.block_range(side.block)
                assert side.top == side.base[side.block] - 1


def test_bad_side_name_rejected():
    ks = KeySituation(1, comp(2))
    for bad in ("left", "nu'", "", None):
        with pytest.raises(ValueError):
            ks.side(bad)
        with pytest.raises(ValueError):
            push(ks, Poly.one(2), bad)
        with pytest.raises(ValueError):
            push_poly(ks, Poly.one(2), bad)


def test_kernels():
    ks = KeySituation(1, comp(3))
    x1, x2, x3 = (Poly.var(3, i) for i in (1, 2, 3))
    assert ks.f_kernel() == (x2 - x3) * (x1 - x3)
    assert ks.e_kernel() == Poly.one(3)
    ks = KeySituation(1, comp(1, 2))
    assert ks.f_kernel() == Poly.one(3)
    assert ks.e_kernel() == (x1 - x2) * (x1 - x3)


# ----------------------------------------------------------------------
# polynomial-level operators, frozen values


def test_memoised_kernels_match_the_product_formula():
    checked = 0
    for n in range(1, 6):
        x = [None] + [Poly.var(n, j) for j in range(1, n + 1)]
        for ks in key_situations(n):
            k = ks.k
            f_kernel = reduce(
                Poly.__mul__, (x[k - j] - x[k] for j in range(1, ks.a + 1)), Poly.one(n)
            )
            e_kernel = reduce(
                Poly.__mul__, (x[k] - x[k + j] for j in range(1, ks.b + 1)), Poly.one(n)
            )
            assert ks.f_kernel() == f_kernel, ks
            assert ks.e_kernel() == e_kernel, ks
            assert KeySituation(ks.i, ks.nu).f_kernel() is ks.f_kernel()
            checked += 1
    assert checked == 2 + 12 + 60 + 280


def test_operator_images_are_invariant_for_their_target():
    # every image the polynomial route hands to normal_form passes the
    # invariance check that normal_form makes
    checked = 0
    for n in range(1, 5):
        for mu in [None] + list(partitions_of(n)):
            for ks in key_situations(n):
                for z in presentation(ks.nu, mu).basis():
                    assert is_block_invariant(apply_F_poly(ks, z.rep), ks.nu_prime)
                    checked += 1
                for z in presentation(ks.nu_prime, mu).basis():
                    assert is_block_invariant(apply_E_poly(ks, z.rep), ks.nu)
                    checked += 1
    assert checked == 2958


def test_lowering_of_one_is_root_difference():
    ks = KeySituation(1, comp(2))
    assert apply_F_poly(ks, Poly.one(2)) == Poly.var(2, 1) - Poly.var(2, 2)


def test_lowering_single_variable():
    ks = KeySituation(1, comp(1))
    assert apply_F_poly(ks, Poly.one(1)) == Poly.one(1)


def test_raising_of_one_vanishes_when_no_room():
    # b = 0 forces the antisymmetrization of a constant kernel to zero
    ks = KeySituation(1, comp(2))
    assert apply_E_poly(ks, Poly.one(2)).is_zero


def test_raising_of_one_nontrivial():
    ks = KeySituation(1, comp(1, 1))
    assert apply_E_poly(ks, Poly.one(2)) == Poly.var(2, 1) - Poly.var(2, 2)


def test_poly_routes_match_orbit_sum_formula():
    """The divided-difference chains equal the orbit-sum formula.

    The formula antisymmetrizes eps_pair * kernel * f over the side's block
    group and divides by the side's difference product; it holds for
    every S_rho-invariant f, so f is a symmetrized random polynomial.
    """
    rng = random.Random(43)
    checked = 0
    for n in range(1, 5):
        for ks in key_situations(n):
            pair = eps_pair(ks.nu, ks.nu_prime)
            for _ in range(3):
                f = Poly.zero(n)
                for _ in range(4):
                    exp = tuple(rng.randint(0, 3) for _ in range(n))
                    c = Q(rng.randint(-5, 5), rng.randint(1, 4))
                    f = f + Poly.monomial(n, exp, c)
                f = symmetrize(f, ks.rho)
                assert apply_F_poly(ks, f) == exact_divide(
                    antisymmetrize(pair * ks.f_kernel() * f, ks.nu_prime),
                    eps_nu(ks.nu_prime),
                )
                assert apply_E_poly(ks, f) == exact_divide(
                    antisymmetrize(pair * ks.e_kernel() * f, ks.nu),
                    eps_nu(ks.nu),
                )
                checked += 1
    assert checked > 100


# ----------------------------------------------------------------------
# free-module decomposition


def test_decompose_matches_worked_example():
    ks = KeySituation(1, comp(2))
    x1 = Poly.var(2, 1)
    z0, z1 = decompose_over(ks, x1, "nu")
    assert z0 == Poly.var(2, 1) + Poly.var(2, 2)
    assert z1 == -Poly.one(2)


def test_decompose_reconstructs_both_sides():
    """f = sum z_r x_k^r with every z_r invariant for the side's base.

    The power basis is free, so reconstruction plus invariance pins the
    unique answer.
    """
    rng = random.Random(7)
    situations = [ks for n in (3, 4) for ks in key_situations(n)]
    situations += rng.sample(list(key_situations(5)), 8)
    for ks in situations:
        n = ks.n
        xk = Poly.var(n, ks.k)
        for z in presentation(ks.rho).basis():
            f = z.rep * Q(rng.randint(1, 5))
            for side in ("nu", "nu_prime"):
                base = ks.side(side).base
                coeffs = decompose_over(ks, f, side)
                assert len(coeffs) == ks.side(side).top + 1
                rebuilt = Poly.zero(n)
                for r, zr in enumerate(coeffs):
                    assert is_block_invariant(zr, base), (ks, side, r)
                    rebuilt = rebuilt + zr * xk**r
                assert rebuilt == f, (ks, side)


def test_power_basis_systems_are_free():
    """Each block-local decomposition slice is square and pivots only on
    slice columns.

    decompose_over reads its coefficients off the tag columns of the
    reduced element, which is sound only when the power basis is a basis
    of the refined slice: one unknown per slice column, and no row left
    with nothing but tag entries.  Block sizes up to 6, with the moving
    variable at either end, and degrees up to 12 include every slice that
    the rho basis vectors of key situations with n <= 4 reach (at most 4
    variables, degree at most 6).
    """
    checked = 0
    for m in range(1, 7):
        for last in (True, False):
            for deg in range(13):
                ech, unknowns, col_of = _power_system(m, last, deg)
                where = (m, last, deg)
                assert len(unknowns) == len(col_of), where
                assert ech.rank == len(col_of), where
                assert all(c < len(col_of) for c in ech.pivots), where
                checked += 1
    assert checked == 6 * 2 * 13


def test_decompose_rejects_non_invariant():
    ks = KeySituation(1, comp(3))  # refined blocks still glue x1, x2
    with pytest.raises(NoSolutionError):
        decompose_over(ks, Poly.var(3, 1), "nu")


@pytest.mark.parametrize(
    "terms",
    [{(1, 0, 0): 1}, {(2, 0, 0): 1, (0, 2, 0): 2}, {(2, 0, 0): 1, (0, 1, 0): 1}],
)
def test_decompose_turns_non_invariance_into_no_solution(terms):
    ks = KeySituation(1, comp(3))
    for side in ("nu", "nu_prime"):
        with pytest.raises(NoSolutionError) as info:
            decompose_over(ks, Poly(3, terms), side)
        assert isinstance(info.value.__cause__, NotInvariantError)


def test_decompose_rejects_bad_side_and_size():
    ks = KeySituation(1, comp(2))
    with pytest.raises(ValueError):
        decompose_over(ks, Poly.one(2), "left")
    with pytest.raises(ValueError):
        decompose_over(ks, Poly.one(3), "nu")


# ----------------------------------------------------------------------
# oracle route against the polynomial route


def test_oracle_lowering_worked_example():
    ks = KeySituation(1, comp(2))
    image = apply_F_oracle(ks, presentation(comp(2)).one())
    assert image.rep == Poly.var(2, 1) * 2


def test_routes_agree_everywhere_small():
    for n in (2, 3):
        for ks in key_situations(n):
            src = presentation(ks.nu)
            dst = presentation(ks.nu_prime)
            for z in src.basis():
                assert dst.normal_form(apply_F_poly(ks, z.rep)) == (
                    apply_F_oracle(ks, z)
                )
            for z in dst.basis():
                assert src.normal_form(apply_E_poly(ks, z.rep)) == (
                    apply_E_oracle(ks, z)
                )


def test_routes_agree_with_shape_cut():
    for mu in partitions_of(3):
        mu_c = Composition(1, list(mu.parts))
        for ks in key_situations(3):
            src = presentation(ks.nu, mu_c)
            dst = presentation(ks.nu_prime, mu_c)
            if src.is_zero_algebra:
                continue
            for z in src.basis():
                assert dst.normal_form(apply_F_poly(ks, z.rep)) == (
                    apply_F_oracle(ks, z)
                )
            if dst.is_zero_algebra:
                continue
            for z in dst.basis():
                assert src.normal_form(apply_E_poly(ks, z.rep)) == (
                    apply_E_oracle(ks, z)
                )


def test_degree_shift_is_block_size_difference():
    for ks in key_situations(3):
        src = presentation(ks.nu)
        dst = presentation(ks.nu_prime)
        shift = 2 * (ks.a - ks.b)
        for z in src.basis():
            image = apply_F_oracle(ks, z)
            if not image.is_zero:
                assert image.degree() == z.degree() + shift
        for z in dst.basis():
            image = apply_E_oracle(ks, z)
            if not image.is_zero:
                assert image.degree() == z.degree() - shift


def test_degree_endpoints_correspond():
    # top degrees differ by exactly the operator's degree shift
    for ks in key_situations(4):
        d_src = coinvariant_top_degree(ks.nu)
        d_dst = coinvariant_top_degree(ks.nu_prime)
        assert d_dst - d_src == 2 * (ks.a - ks.b)


def test_lowering_intertwines_shape_cut_reduction():
    mu = comp(2, 1)
    for ks in key_situations(3):
        plain = presentation(ks.nu)
        cut_src = presentation(ks.nu, mu)
        cut_dst = presentation(ks.nu_prime, mu)
        for z in plain.basis():
            direct = cut_dst.normal_form(apply_F_poly(ks, z.rep))
            reduced_first = cut_dst.normal_form(
                apply_F_poly(ks, cut_src.normal_form(z.rep).rep)
            )
            assert direct == reduced_first


def test_result_independent_of_representative():
    mu = comp(2, 1)
    ks = KeySituation(1, comp(1, 1, 1))
    cut_src = presentation(ks.nu, mu)
    cut_dst = presentation(ks.nu_prime, mu)
    z = cut_src.one()
    g = cut_src.generators[0]
    shifted = z.rep + g  # same class, different representative
    assert cut_dst.normal_form(apply_F_poly(ks, shifted)) == (
        cut_dst.normal_form(apply_F_poly(ks, z.rep))
    )


# ----------------------------------------------------------------------
# pushforwards


def test_push_worked_example():
    ks = KeySituation(1, comp(2))
    f = exact_divide(eps_nu(ks.nu), eps_pair(ks.nu, ks.nu_prime))
    assert push(ks, f, "nu").rep == Poly.one(2)
    assert push(ks, Poly.one(2), "nu_prime").rep == Poly.one(2)


def test_push_agrees_with_antisymmetrization():
    for n in (2, 3):
        for ks in key_situations(n):
            xk = Poly.var(n, ks.k)
            pair = eps_pair(ks.nu, ks.nu_prime)
            for t in range(ks.a + ks.b + 2):
                f = xk**t
                assert push_poly(ks, f, "nu") == exact_divide(
                    antisymmetrize(pair * f, ks.nu), eps_nu(ks.nu)
                )
                assert push_poly(ks, f, "nu_prime") == exact_divide(
                    antisymmetrize(pair * f, ks.nu_prime),
                    eps_nu(ks.nu_prime),
                )


def test_push_kills_low_powers():
    ks = KeySituation(1, comp(3))  # a = 2
    xk = Poly.var(3, ks.k)
    assert push_poly(ks, Poly.one(3), "nu").is_zero
    assert push_poly(ks, xk, "nu").is_zero
    assert push_poly(ks, xk**2, "nu") == Poly.one(3)


# ----------------------------------------------------------------------
# diagonal operator and weight families


def test_apply_D_scales_by_part():
    nu = comp(1, 2)
    z = presentation(nu).one()
    assert apply_D(2, nu, z) == z * Q(2)
    assert apply_D(5, nu, z).is_zero


def test_family_construction_drops_zeros():
    nu = comp(2)
    pres = presentation(nu)
    wf = WeightFamily(2, (1, 2), None, {nu: pres.zero()})
    assert wf.is_zero
    assert wf.components == {}


def test_family_refuses_components_of_other_presentations():
    window, mu = (1, 2), Partition([1, 1])
    nu = comp(1, 1)
    h_form = QuotientPresentation(nu, tanisaki_generators_h(mu, nu), mu=mu)
    # the shape-cut quotient at 1,1 with its h-form list
    foreign = h_form.one()
    assert foreign.pres is not presentation(nu, mu)
    with pytest.raises(ValueError, match=r"weight Composition\(1, \[1, 1\]\)"):
        WeightFamily(2, window, mu, {nu: foreign})
    # the same element in the standard presentation adds to an image there
    lowered = WeightFamily.unit(comp(2), window, mu).apply("F", 1)
    total = WeightFamily(2, window, mu, {nu: presentation(nu, mu).one()}) + lowered
    assert total == WeightFamily.unit(nu, window, mu) + lowered
    assert not total.is_zero


def test_plain_family_is_the_regular_shape_family():
    # the plain algebra is the shape-cut quotient of 1^n, so an absent
    # shape and 1^n are one setting
    for nu in (comp(2), comp(1, 1), comp(2, 1), Composition(0, [1, 0, 2])):
        window = (min(1, nu.lo), max(nu.n, nu.hi))
        plain = WeightFamily.unit(nu, window)
        regular = WeightFamily.unit(nu, window, [1] * nu.n)
        assert plain == regular
        assert plain.mu == Partition([1] * nu.n)
        assert plain + regular == plain * 2


def test_family_rejects_weight_outside_window():
    with pytest.raises(WindowOverflowError):
        WeightFamily.unit(Composition(3, [2]), (1, 2))


def test_family_linear_algebra():
    wf = WeightFamily.unit(comp(2), (1, 2))
    two = wf + wf
    assert two == wf * Q(2)
    assert (two - wf) == wf
    assert (wf - wf).is_zero
    assert wf != WeightFamily.unit(comp(1, 1), (1, 2))
    # families combine only over one window and one shape
    for other in (
        WeightFamily.unit(comp(2), (1, 3)),
        WeightFamily.unit(comp(2), (1, 2), comp(2)),
    ):
        assert wf != other
        with pytest.raises(ValueError, match="different settings"):
            wf + other


def test_family_results_match_the_checked_constructor():
    """Results of apply, +, - and * skip the constructor's checks; each
    equals the family rebuilt through them, zero components dropped."""
    window = (1, 3)
    mu = comp(2, 1)
    base = WeightFamily.unit(comp(2, 1), window, mu)
    other = WeightFamily.unit(comp(1, 2), window, mu)
    lowered = base.apply("F", 1)
    results = [
        lowered,
        base.apply("E", 1),
        base.apply("F", 2),
        lowered.apply("E", 1),
        base + other,
        base + lowered,
        lowered - lowered,
        base - other,
        base * 3,
        base * 0,
        3 * lowered,
        WeightFamily.unit(comp(2), (1, 2)).apply("D", 1),
    ]
    assert any(r.is_zero for r in results)
    assert any(len(r.components) > 1 for r in results)
    for r in results:
        # equality compares n, window, shape and the components
        assert r == WeightFamily(r.n, r.window, r.mu, r.components)


def test_family_apply_moves_weight():
    w1 = WeightFamily.unit(comp(2), (1, 2))
    out = w1.apply("F", 1)
    assert list(out.components) == [comp(1, 1)]
    assert out.components[comp(1, 1)].rep == Poly.var(2, 1) * 2


def test_family_addition_merges_components():
    a = WeightFamily.unit(comp(2), (1, 2))
    b = WeightFamily.unit(comp(1, 1), (1, 2))
    both = a + b
    assert set(both.components) == {comp(2), comp(1, 1)}
    cancel = both - a - b
    assert cancel.is_zero


def test_family_shape_given_as_list():
    nu = comp(2, 1)
    wf = WeightFamily.unit(nu, (1, 2), [2, 1])
    assert wf.mu == Partition([2, 1])
    assert wf + wf == wf * Q(2)


def test_family_shape_order_does_not_matter():
    nu = comp(2, 1)
    a = WeightFamily.unit(nu, (1, 2), comp(1, 2))
    b = WeightFamily.unit(nu, (1, 2), comp(2, 1))
    assert a == b
    assert a.mu == b.mu == Partition([2, 1])
    assert a + b == b * Q(2)


def test_component_cache_survives_presentation_cache_clear():
    window = (1, 2)
    lowered = WeightFamily.unit(comp(2), window).apply("F", 1)
    _standard_presentation.cache_clear()
    again = WeightFamily.unit(comp(2), window).apply("F", 1)
    assert again.components[comp(1, 1)].rep == (
        lowered.components[comp(1, 1)].rep
    )
    total = again + WeightFamily.unit(comp(1, 1), window)
    assert total.components[comp(1, 1)].rep == (
        Poly.var(2, 1) * 2 + Poly.one(2)
    )


def test_window_overflow_on_nonzero_images_only():
    wf = WeightFamily.unit(comp(1), (1, 1))
    with pytest.raises(WindowOverflowError):
        wf.apply("F", 1)
    # raising out of an empty part is the zero map, not an overflow
    assert wf.apply("E", 1).is_zero


def test_operator_word_parsing():
    assert parse_op_word("F_2 F_1 E_2") == [("F", 2), ("F", 1), ("E", 2)]
    with pytest.raises(ValueError):
        parse_op_word("G_1")
    with pytest.raises(ValueError):
        parse_op_word("F_x")


def test_operator_word_applies_rightmost_first():
    wf = WeightFamily.unit(comp(2), (1, 2))
    via_word = apply_operator_family("E_1 F_1", wf)
    by_hand = wf.apply("F", 1).apply("E", 1)
    assert via_word == by_hand
    assert not via_word.is_zero
    # the other order acts on an empty part first and dies
    assert apply_operator_family("F_1 E_1", wf).is_zero


def test_commutator_reproduces_weight_on_singleton():
    # [E_1, F_1] acts as multiplication by nu_1 - nu_2 on weight (2)
    wf = WeightFamily.unit(comp(2), (1, 2))
    ef = apply_operator_family("E_1 F_1", wf)
    fe = apply_operator_family("F_1 E_1", wf)
    assert ef - fe == wf * Q(2)


# ----------------------------------------------------------------------
# reports


def test_relation_report_accepts_shape_as_list():
    rep = relation_report(2, (1, 2), [1, 1])
    assert rep.passed
    assert rep.title.endswith("shape (1, 1)")


def test_relation_report_names_the_regular_shape_when_absent():
    assert relation_report(2, (1, 2)).title == (
        "gl relations, n=2, window=(1, 2), shape (1, 1)"
    )


def test_relation_report_small():
    for n in (2, 3):
        rep = relation_report(n, (1, n))
        assert rep.passed
    names = [c.name for c in relation_report(2, (1, 2)).checks]
    assert names == [
        "commutator_EF_is_weight_difference",
        "commutator_DE_scales_E",
        "commutator_DF_scales_F",
        "distant_EE_FF_commute",
        "serre_relations",
    ]


def test_relation_report_shape_cut():
    for mu in partitions_of(3):
        rep = relation_report(3, (1, 3), Composition(1, list(mu.parts)))
        assert rep.passed


def _D_off_by_one(true_D):
    # D_i read off the part at i + 1
    return lambda i, nu, z: true_D(i + 1, nu, z)


def _doubled_F(true_step):
    def step(op, i, nu, z):
        res = true_step(op, i, nu, z)
        if op == "F" and res is not None:
            return res[0], res[1] * 2
        return res

    return step


@pytest.mark.parametrize(
    "name, mutant, broken",
    [
        (
            "apply_D",
            _D_off_by_one,
            {
                "commutator_EF_is_weight_difference",
                "commutator_DE_scales_E",
                "commutator_DF_scales_F",
            },
        ),
        # every check but [E, F] is homogeneous in F, so only it sees a 2
        ("_apply_component", _doubled_F, {"commutator_EF_is_weight_difference"}),
    ],
)
def test_relation_report_can_fail(monkeypatch, name, mutant, broken):
    # each check reads the single steps built once per family; a wrong
    # step must still fail the checks that depend on it, and only those
    monkeypatch.setattr(glaction, name, mutant(getattr(glaction, name)))
    rep = relation_report(3, (1, 3))
    assert {c.name for c in rep.checks if not c.passed} == broken


def _F_doubled_where(cond):
    """F_i doubled on the source weights nu with cond(i, nu)."""

    def mutant(true_step):
        def step(op, i, nu, z):
            res = true_step(op, i, nu, z)
            if op == "F" and res is not None and cond(i, nu):
                return res[0], res[1] * 2
            return res

        return step

    return mutant


@pytest.mark.parametrize(
    "cond, broken",
    [
        # F_{i+2} moves the part that scales F_i, and F_i none of the part
        # that scales F_{i+2}; the steps next to i leave nu[i + 3] alone
        (lambda i, nu: nu[i + 3] > 0, "distant_EE_FF_commute"),
        # F_i and the steps two or more away keep nu[i] + nu[i + 1]; the
        # steps next to i change it
        (lambda i, nu: (nu[i] + nu[i + 1]) % 2 == 1, "serre_relations"),
    ],
)
def test_relation_report_distant_and_serre_checks_can_fail(monkeypatch, cond, broken):
    # a weight-dependent scale of F is no change of basis, so [E, F] fails
    # too; D_i only reads the weight, so [D, E] and [D, F] still hold
    mutant = _F_doubled_where(cond)
    monkeypatch.setattr(glaction, "_apply_component", mutant(glaction._apply_component))
    # distant indices need a window of width 4 or more
    rep = relation_report(2, (1, 4))
    assert {c.name for c in rep.checks if not c.passed} == {
        "commutator_EF_is_weight_difference", broken,
    }


def test_ideal_invariance_small():
    for mu in partitions_of(3):
        rep = ideal_invariance_check(Composition(1, list(mu.parts)), (1, 3))
        assert rep.passed


@pytest.mark.parametrize(
    "op, broken",
    [
        ("apply_F_poly", "lowering_preserves_cut_ideals"),
        ("apply_E_poly", "raising_preserves_cut_ideals"),
    ],
)
def test_ideal_invariance_check_can_fail(monkeypatch, op, broken):
    true_op = getattr(glaction, op)

    def shifted(ks, f):
        # the constant 1 lies in no cut ideal of a non-zero quotient
        return true_op(ks, f) + Poly.one(ks.n)

    monkeypatch.setattr(glaction, op, shifted)
    rep = ideal_invariance_check(comp(2, 1), (1, 3))
    results = {c.name: c.passed for c in rep.checks}
    assert results == {
        "lowering_preserves_cut_ideals": broken != "lowering_preserves_cut_ideals",
        "raising_preserves_cut_ideals": broken != "raising_preserves_cut_ideals",
    }


def _merged(nu: Composition, i: int) -> Composition:
    """nu with block i+1 moved into block i."""
    parts = [nu[j] for j in range(1, nu.n + 1)]
    parts[i - 1] += parts[i]
    parts[i] = 0
    return Composition(1, parts)


def test_module_basis_is_free_over_the_merged_invariants():
    # P_nu is free over P_sigma, sigma merging blocks i and i+1, on the
    # basis the ideal invariance check multiplies its generators by: in
    # every degree, the products m * (sigma orbit sum) are independent
    # and exactly as many as the canonical exponents of P_nu
    for n in range(1, 5):
        for nu in compositions_of(n, (1, n)):
            spans = block_spans(nu)
            for i in range(1, n):
                basis = glaction._module_basis(nu, i)
                assert len(basis) == comb(nu[i] + nu[i + 1], nu[i])
                sigma = block_spans(_merged(nu, i))
                for d in range(n * (n - 1) // 2 + 1):
                    col_of = {
                        e: j for j, e in enumerate(canonical_exponents(spans, n, d))
                    }
                    rows = [
                        m * orbit_sum(sigma, n, e)
                        for m in basis
                        if m.degree() // 2 <= d
                        for e in canonical_exponents(sigma, n, d - m.degree() // 2)
                    ]
                    assert len(rows) == len(col_of), (nu, i, d)
                    pivots: dict = {}
                    for row in rows:
                        insert_integer_row(
                            pivots,
                            {col_of[e]: c for e, c in row.terms.items() if e in col_of},
                        )
                    assert len(pivots) == len(rows), (nu, i, d)


def test_ideal_invariance_check_reaches_past_the_generator_degrees(monkeypatch):
    # a lowering step that goes wrong only on inputs above the largest
    # generator degree of its source; a sweep whose products stop at that
    # degree never sees it.  At mu = 1^4 it bites at nu = (2,1,1), i = 1:
    # a degree-3 generator times the basis element x1*x2 has degree 5,
    # against a largest generator degree of 4
    mu = comp(1, 1, 1, 1)
    true_F = glaction.apply_F_poly

    def wrong_above_cap(ks, f):
        image = true_F(ks, f)
        cap = max(g.degree() for g in presentation(ks.nu, mu).generators)
        if f.degree() > cap:
            d = f.degree() + 2 * (ks.a - ks.b)
            basis = presentation(ks.nu_prime, mu).graded_basis(d)
            if basis:
                image = image + basis[0].rep
        return image

    monkeypatch.setattr(glaction, "apply_F_poly", wrong_above_cap)
    rep = ideal_invariance_check(mu, (1, 3))
    assert {c.name: c.passed for c in rep.checks} == {
        "lowering_preserves_cut_ideals": False,
        "raising_preserves_cut_ideals": True,
    }


def test_hilbert_identity_worked_example():
    assert hilbert_identity_check(comp(1, 2, 1), comp(1, 2, 1))


def test_hilbert_identity_small_sweep():
    for n in (1, 2, 3):
        for mu in partitions_of(n):
            mu_c = Composition(1, list(mu.parts))
            for nu in compositions_of(n, (1, 3)):
                if not presentation(nu, mu_c).is_zero_algebra:
                    assert hilbert_identity_check(mu_c, nu)


def test_hilbert_identity_weighs_by_kostka_numbers(monkeypatch):
    """The multiplicity of each charge polynomial is K_{kappa nu}, the
    semistandard count; the column-strict count is a different number."""
    kappa = Partition([2, 1])
    assert kostka(kappa, comp(1, 1, 1)) == 2
    assert count_column_strict(kappa, comp(1, 1, 1)) == 3
    monkeypatch.setattr(glaction, "kostka", count_column_strict)
    broken = []
    for n in (1, 2, 3):
        for mu in partitions_of(n):
            for nu in compositions_of(n, (1, n)):
                if presentation(nu, mu).is_zero_algebra:
                    continue
                if not hilbert_identity_check(mu, nu):
                    broken.append((mu, nu))
    assert broken[0] == (Partition([1, 1]), comp(1, 1))
    assert len(broken) == 9


def test_hilbert_identity_rejects_zero_algebra():
    with pytest.raises(ValueError):
        hilbert_identity_check(comp(3), comp(3))


def test_extreme_weight_spaces_are_lines():
    # arrangements of the transpose shape carry one-dimensional spaces
    for mu in partitions_of(3):
        mu_c = Composition(1, list(mu.parts))
        lam = transpose(mu_c)
        for nu in compositions_of(3, (1, 3)):
            if sort_to_partition(nu) != lam:
                continue
            pres = presentation(nu, mu_c)
            assert pres.dim() == 1
            wf = WeightFamily.unit(nu, (1, 3), mu_c)
            for i in range(1, 3):
                if nu[i + 1] == 0:
                    assert wf.apply("E", i).is_zero


def test_block_e_requires_valid_indices():
    with pytest.raises(ValueError):
        e_block(comp(2, 1), [1, 1], 1)
