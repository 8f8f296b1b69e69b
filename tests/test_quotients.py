import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinv import cli, glaction, quotients
from coinv.errors import NotInvariantError
from coinv.polynomials import Poly, Q, e_sym, h_sym
from coinv.quotients import (
    QuotientPresentation,
    _Echelon,
    _canonical_exps,
    _blocks_of,
    _graded,
    _layout_generators,
    _nf_monomial,
    _normal_form_rep,
    _orbit_poly,
    _orbit_terms,
    _r_dims,
    coinvariant_generators,
    ideals_equal,
    is_nonzero,
    presentation,
    quotient_identity_report,
    tanisaki_generators_e,
    tanisaki_generators_h,
)
from coinv.shapes import (
    Composition,
    Partition,
    compositions_of,
    coinvariant_top_degree,
    partitions_of,
    quotient_top_degree,
    transpose,
)
from coinv.tableaux import IntPoly, count_column_strict, kostka

from reference import (
    NotAntiInvariantError,
    OrbitSumQuotient,
    antiinv_divide,
    canonical_exponents,
    eps_nu,
    insert_integer_row,
    is_block_invariant,
    is_fixed_by_block_group,
    orbit_sum,
    symmetrize,
)


def comp(*parts):
    return Composition(1, list(parts))


@functools.lru_cache(maxsize=None)
def h_presentation(nu, mu):
    """The shape-cut quotient on the h-form generator list, built once."""
    return QuotientPresentation(nu, tanisaki_generators_h(mu, nu), mu=mu)


def positive_compositions(n):
    out = []
    for c in compositions_of(n, (1, max(n, 1))):
        if all(p > 0 for p in c.parts):
            out.append(c)
    return out


def rank_of(polys):
    """Rank of a list of polynomials over the rationals."""
    cols = sorted({e for p in polys for e in p.terms})
    index = {e: i for i, e in enumerate(cols)}
    rows = []
    for p in polys:
        vec = {index[e]: c for e, c in p.terms.items()}
        for piv, prow in rows:
            if piv in vec:
                coef = vec[piv]
                for c, v in prow.items():
                    vec[c] = vec.get(c, 0) - coef * v
                    if vec[c] == 0:
                        del vec[c]
        if vec:
            piv = min(vec)
            inv = Q(1) / vec[piv]
            rows.append((piv, {c: v * inv for c, v in vec.items()}))
    return len(rows)


# ----------------------------------------------------------------------
# generators


def test_coinvariant_generators_n2():
    gens = coinvariant_generators(comp(1, 1))
    assert gens == [e_sym(2, [1, 2], 1), e_sym(2, [1, 2], 2)]


def test_tanisaki_e_generators_one_singular_step():
    nu = comp(1, 2, 1)
    gens = tanisaki_generators_e(nu, nu)
    expected = {
        e_sym(4, [1, 2, 3, 4], 1),
        e_sym(4, [1, 2, 3, 4], 2),
        e_sym(4, [1, 2, 3, 4], 3),
        e_sym(4, [1, 2, 3, 4], 4),
        e_sym(4, [1, 4], 2),
        e_sym(4, [1, 2, 3], 3),
        e_sym(4, [2, 3, 4], 3),
    }
    assert set(gens) == expected


def test_tanisaki_generators_sorted_by_degree():
    nu = comp(1, 2, 1)
    for gens in (tanisaki_generators_e(nu, nu), tanisaki_generators_h(nu, nu)):
        degs = [g.degree() for g in gens]
        assert degs == sorted(degs)


def test_trimmed_h_list_generates_the_untrimmed_ideal():
    """Each block set S contributes h_r(X_S) for the first |S| degrees r
    above its bound; every r up to past the top degree gives the same ideal."""
    for n in range(1, 5):
        for mu in partitions_of(n):
            lam = transpose(mu)
            for nu in compositions_of(n, (1, n)):
                top = max(n, coinvariant_top_degree(nu) // 2 + 1)
                support = [i for i in nu.indices() if nu[i] > 0]
                untrimmed = []
                for m in range(len(support) + 1):
                    for combo in itertools.combinations(support, m):
                        union = sorted(v for i in combo for v in nu.block_range(i))
                        bound = lam.head_sum(m) - len(union)
                        untrimmed.extend(
                            h_sym(n, union, r) for r in range(max(bound + 1, 0), top + 1)
                        )
                trimmed = tanisaki_generators_h(mu, nu)
                assert set(trimmed) <= set(untrimmed)
                assert ideals_equal(trimmed, untrimmed, nu), (mu, nu)


def test_tanisaki_zero_block_variant_same_ideal():
    nu = comp(1, 2, 1)
    nu_z = comp(1, 0, 2, 1)
    mu = comp(2, 2)
    ge = tanisaki_generators_e(mu, nu)
    ge_z = tanisaki_generators_e(mu, nu_z)
    assert set(ge) == set(ge_z)
    gh = tanisaki_generators_h(mu, nu)
    gh_z = tanisaki_generators_h(mu, nu_z)
    assert set(gh) == set(gh_z)
    assert ideals_equal(ge, gh_z, nu)
    assert presentation(nu, mu).dim() == presentation(nu_z, mu).dim()


def test_dominance_failure_yields_constant_generator():
    # transpose((2)) = (1,1) does not dominate (2)
    nu = comp(2)
    mu = comp(2)
    for gens in (tanisaki_generators_e(mu, nu), tanisaki_generators_h(mu, nu)):
        assert any(g.constant() != 0 for g in gens)


# ----------------------------------------------------------------------
# plain coinvariant algebras


def test_full_coinvariants_dimension_small():
    assert presentation(comp(1, 1)).dim() == 2
    assert presentation(comp(1, 1, 1)).dim() == 6
    assert presentation(comp(1, 2, 1)).dim() == 12


def test_dimension_is_multinomial_up_to_n4():
    for n in range(0, 5):
        for nu in positive_compositions(n):
            expect = math.factorial(n)
            for p in nu.parts:
                expect //= math.factorial(p)
            assert presentation(nu).dim() == expect, nu


def q_binomial_factorial(k):
    """Product of 1 + t^2 + ... + t^(2(j-1)) for j = 1..k."""
    out = IntPoly([1])
    for j in range(1, k + 1):
        coeffs = [0] * (2 * (j - 1) + 1)
        for i in range(j):
            coeffs[2 * i] = 1
        out = out * IntPoly(coeffs)
    return out


def test_hilbert_series_against_q_multinomial():
    # Hilb(C_nu) * prod [nu_i]! == [n]! in the doubled variable
    for n in range(0, 5):
        for nu in positive_compositions(n):
            prod = presentation(nu).hilbert()
            for p in nu.parts:
                prod = prod * q_binomial_factorial(p)
            assert prod == q_binomial_factorial(n), nu


def test_hilbert_palindromic():
    for n in range(1, 5):
        for nu in positive_compositions(n):
            coeffs = presentation(nu).hilbert().coeffs
            assert list(coeffs) == list(reversed(coeffs)), nu


def test_top_degree_matches_formula():
    for n in range(1, 5):
        for nu in positive_compositions(n):
            h = presentation(nu).hilbert()
            assert len(h.coeffs) - 1 == coinvariant_top_degree(nu)
            assert h.coeffs[-1] == 1
    # R alone bounds these top degrees, so the formula is an independent check
    nonzero = 0
    for n in range(1, 6):
        for nu in compositions_of(n, (1, n)):
            for mu in partitions_of(n):
                flag = is_nonzero(mu, nu)
                for pres in (presentation(nu, mu), h_presentation(nu, mu)):
                    assert pres.is_zero_algebra == (not flag), pres.label
                    top = quotient_top_degree(nu, mu) if flag else None
                    assert pres.top_degree == top, pres.label
                    assert pres.one().is_zero == (not flag), pres.label
                    nonzero += flag
    assert nonzero == 1248


def test_graded_dim_odd_or_negative_is_zero():
    p = presentation(comp(1, 1))
    assert p.graded_dim(1) == 0
    assert p.graded_dim(-2) == 0
    assert p.graded_dim(100) == 0


def test_degrees_far_above_r_vanish_at_once():
    pres = presentation(comp(1, 1))
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    assert pres.normal_form(x1**3000 + x2**3000).is_zero
    assert pres.graded_dim(6000) == 0


# ----------------------------------------------------------------------
# normal forms


def test_normal_form_examples_n2():
    p = presentation(comp(1, 1))
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    assert p.normal_form(x2).rep == -x1
    assert p.normal_form(x1 + x2).is_zero
    assert p.contains(x1 + x2)
    assert not p.contains(x1)
    assert p.contains((x1 + x2) * x1)


def test_normal_form_rejects_non_invariant():
    p = presentation(comp(2))
    with pytest.raises(NotInvariantError):
        p.normal_form(Poly.var(2, 1))


def test_normal_form_memo_caches_no_error():
    p = presentation(comp(2))
    before = _normal_form_rep.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotInvariantError):
            p.normal_form(Poly.var(2, 1))
        with pytest.raises(ValueError, match="wrong variable count"):
            p.normal_form(Poly.var(3, 1))
    assert _normal_form_rep.cache_info().currsize == before


def test_normal_form_memo_hit_belongs_to_the_caller():
    nu = comp(1, 1)
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    f = x2 * x2 + x1
    p = presentation(nu)
    first = p.normal_form(f)
    hits = _normal_form_rep.cache_info().hits
    again = p.normal_form(f)
    assert _normal_form_rep.cache_info().hits == hits + 1
    assert again.pres is p and again == first and again is not first
    # a second presentation with the same generators shares the key
    twin = QuotientPresentation(nu, coinvariant_generators(nu))
    hits = _normal_form_rep.cache_info().hits
    assert twin.normal_form(f).pres is twin
    assert _normal_form_rep.cache_info().hits == hits + 1
    assert twin.normal_form(f).rep == first.rep


def test_translates_share_one_graded_algebra():
    """One graded algebra per block layout and generator list."""
    plain = [
        presentation(Composition(1, [1, 2])),
        presentation(Composition(4, [1, 2])),
        presentation(Composition(1, [1, 0, 2])),
    ]
    cut = [
        presentation(Composition(1, [2, 1]), comp(2, 1)),
        presentation(Composition(3, [2, 0, 0, 1]), comp(1, 2)),
    ]
    for group in (plain, cut):
        assert len({p.nu for p in group}) == len(group)
        assert all(p._alg is group[0]._alg for p in group)
    assert plain[0]._alg is not cut[0]._alg
    # the h-form list over the same weight is another generator list
    nu, mu = cut[0].nu, cut[0].mu
    h_form = QuotientPresentation(nu, tanisaki_generators_h(mu, nu), mu=mu)
    assert h_form._alg is not cut[0]._alg
    assert h_form.hilbert() == cut[0].hilbert()

    x = [Poly.var(3, i) for i in (1, 2, 3)]
    f = x[0] * x[0] + x[1] * x[2] * 2 + x[1] * x[1] + x[2] * x[2]
    _normal_form_rep.cache_clear()
    results = []
    for p in plain:
        results.append(p.normal_form(f))
        info = _normal_form_rep.cache_info()
        assert (info.misses, info.hits) == (1, len(results) - 1)
    for p, z in zip(plain, results):
        assert z.pres is p and z.rep == results[0].rep
    assert not results[0].is_zero
    # elements of different presentations never compare equal or add
    assert results[0] != results[1]
    with pytest.raises(ValueError, match="different presentations"):
        results[0] + results[1]
    with pytest.raises(NotInvariantError):
        plain[1].normal_form(x[1])


def test_translates_and_padded_copies_build_one_generator_list(monkeypatch):
    built = []

    def counting(mu, nu):
        built.append(nu)
        return tanisaki_generators_e(mu, nu)

    monkeypatch.setattr(quotients, "tanisaki_generators_e", counting)
    _layout_generators.cache_clear()
    mu = comp(2, 2, 1)
    # weights no other test asks for, so each call builds a presentation
    group = [
        presentation(Composition(23, [2, 1, 2]), mu),
        presentation(Composition(31, [2, 1, 2]), mu),
        presentation(Composition(37, [2, 0, 1, 0, 2]), mu),
    ]
    assert len(built) == 1
    assert all(p._alg is group[0]._alg for p in group)
    assert all(p.generators == group[0].generators for p in group)
    assert group[0].generators == tanisaki_generators_e(mu, group[2].nu)


def test_bad_generator_list_raises_on_every_construction():
    """The checks run once per list, and a bad list is refused every time."""
    nu = comp(1, 1)
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    gens = coinvariant_generators(nu)
    wide = comp(2)  # x1 is not invariant once x1 and x2 share a block
    bad = [
        (nu, gens + [Poly.var(3, 1)], ValueError, "generator has wrong variable count"),
        (nu, gens + [x1 + x1 * x2], ValueError, "generators must be homogeneous"),
        (wide, coinvariant_generators(wide) + [x1], NotInvariantError,
         "polynomial is not invariant for the blocks x1 x2"),
    ]
    size = _graded.cache_info().currsize
    for block, gens_bad, kind, message in bad:
        for _ in range(2):
            with pytest.raises(kind) as info:
                QuotientPresentation(block, gens_bad)
            assert str(info.value) == message
    assert _graded.cache_info().currsize == size
    # without Lambda+, each construction names its own presentation
    short = [e_sym(2, [1, 2], 2)]
    for label in ("first list", "second list", "first list"):
        with pytest.raises(ValueError) as info:
            QuotientPresentation(nu, short, label=label)
        assert str(info.value) == (
            f"{label}: the generators must include e_1..e_n or h_1..h_n of "
            "all variables, so that the ideal contains Lambda+"
        )


def test_normal_form_memo_keeps_presentations_over_one_nu_apart():
    nu = comp(1, 1)
    x1 = Poly.var(2, 1)
    plain = QuotientPresentation(nu, coinvariant_generators(nu))
    cut = QuotientPresentation(nu, coinvariant_generators(nu) + [x1])
    f = x1 * 3 + Poly.one(2)
    # x1 lies in the second ideal only
    expected = {plain: f, cut: Poly.one(2)}
    for first, second in ((plain, cut), (cut, plain)):
        _normal_form_rep.cache_clear()
        assert first.normal_form(f).rep == expected[first]
        got = second.normal_form(f)
        assert got.pres is second and got.rep == expected[second]


def test_constructor_rejects_non_invariant_generator():
    with pytest.raises(NotInvariantError):
        QuotientPresentation(comp(2), [Poly.var(2, 1)])


def test_constructor_rejects_inhomogeneous_generator():
    x1 = Poly.var(1, 1)
    with pytest.raises(ValueError):
        QuotientPresentation(comp(1), [x1 + Poly.one(1)])


def test_is_block_invariant():
    nu = comp(2)
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    assert is_block_invariant(x1 + x2, nu)
    assert is_block_invariant(x1 * x2, nu)
    assert not is_block_invariant(x1, nu)
    assert not is_block_invariant(x1 * x1 + x2, nu)


def weakly_decreasing_in_blocks(exp: tuple, nu: Composition) -> bool:
    return all(
        exp[v - 1] >= exp[v]
        for i in nu.indices()
        for v in list(nu.block_range(i))[:-1]
    )


@st.composite
def polys_over_compositions(draw):
    """A composition of n <= 5 and a polynomial in n variables: random,
    invariant (a combination of symmetrized monomials), or invariant with
    one term dropped, rescaled or added."""
    n = draw(st.integers(0, 5))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    bounds = [0] + cuts + [n]
    nu = Composition(draw(st.integers(-1, 2)), [b - a for a, b in zip(bounds, bounds[1:])])
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    coefs = st.integers(-3, 3).filter(bool)
    pairs = draw(st.lists(st.tuples(exps, coefs), max_size=4))
    mode = draw(st.sampled_from(["random", "invariant", "perturbed"]))
    if mode == "random":
        return Poly(n, dict(pairs)), nu
    f = sum(
        (symmetrize(Poly.monomial(n, e, c), nu) for e, c in pairs), Poly.zero(n)
    )
    if mode == "invariant" or f.is_zero:
        return f, nu
    terms = dict(f.terms)
    exp = draw(st.sampled_from(sorted(terms)))
    edit = draw(st.sampled_from(["drop", "rescale", "add"]))
    if edit == "drop":
        del terms[exp]
    elif edit == "rescale":
        terms[exp] *= 2
    else:
        extra = draw(exps)
        terms[extra] = terms.get(extra, 0) + 1
    return Poly(n, terms), nu


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys_over_compositions())
def test_orbit_terms_matches_the_definition_of_invariance(case):
    f, nu = case
    if is_fixed_by_block_group(f, nu):
        assert _orbit_terms(f, _blocks_of(nu)) == {
            e: c for e, c in f.terms.items() if weakly_decreasing_in_blocks(e, nu)
        }
        assert is_block_invariant(f, nu)
    else:
        with pytest.raises(NotInvariantError):
            _orbit_terms(f, _blocks_of(nu))
        assert not is_block_invariant(f, nu)


def test_orbit_terms_edge_cases():
    blocks = _blocks_of(comp(2))
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    assert _orbit_terms(Poly.zero(2), blocks) == {}
    assert _orbit_terms(Poly.const(2, Q(3, 2)), blocks) == {(0, 0): Q(3, 2)}
    assert _orbit_terms(x1 * x1 + x2 * x2 - x1 * x2 * 3, blocks) == {(2, 0): 1, (1, 1): -3}
    # a complete orbit with unequal coefficients
    with pytest.raises(NotInvariantError):
        _orbit_terms(x1 * x1 + x2 * x2 * 2, blocks)
    # incomplete orbits with equal coefficients
    with pytest.raises(NotInvariantError):
        _orbit_terms(x1 * x1 + x2, blocks)
    # only the canonical term of an orbit
    with pytest.raises(NotInvariantError):
        _orbit_terms(x1, blocks)
    # singleton blocks fix everything
    assert _orbit_terms(x1 * x1 + x2, _blocks_of(comp(1, 1))) == {(2, 0): 1, (0, 1): 1}


@pytest.mark.parametrize(
    "terms",
    [{(1, 0): 1}, {(2, 0): 1, (0, 2): 2}, {(2, 0): 1, (0, 1): 1}],
)
def test_non_invariant_input_raises_in_every_quotient_query(terms):
    f = Poly(2, terms)
    for pres in (presentation(comp(2)), h_presentation(comp(2), comp(1, 1))):
        with pytest.raises(NotInvariantError):
            pres.normal_form(f)
        with pytest.raises(NotInvariantError):
            pres.contains(f)


def test_normal_form_is_algebra_map():
    rng = random.Random(7)
    nu = comp(2, 1)
    pres = presentation(nu)
    x1, x2, x3 = (Poly.var(3, i) for i in (1, 2, 3))
    pool = [
        x1 + x2,
        x3,
        x1 * x2,
        (x1 + x2) * x3,
        x1 * x1 + x2 * x2,
        Poly.one(3),
    ]
    for _ in range(25):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        lhs = pres.normal_form(f * g)
        rhs = pres.normal_form(pres.normal_form(f).rep * pres.normal_form(g).rep)
        assert lhs == rhs


def test_normal_form_fixes_basis_representatives():
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    for d in (0, 2, 4):
        for b in pres.graded_basis(d):
            assert pres.normal_form(b.rep) == b


# ----------------------------------------------------------------------
# the one-singular-step quotient, frozen values


def test_one_singular_step_dimension_and_hilbert():
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    assert pres.dim() == 5
    assert tuple(pres.hilbert().coeffs) == (1, 0, 2, 0, 2)
    assert pres.top_degree == 4
    assert quotient_top_degree(comp(1, 2, 1), comp(1, 2, 1)) == 4


def test_one_singular_step_reductions():
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    x1, x4 = Poly.var(4, 1), Poly.var(4, 4)
    assert pres.normal_form(x1**3).is_zero
    assert pres.normal_form(x4**3).is_zero
    assert pres.normal_form(x1 * x4).is_zero


def test_one_singular_step_power_basis_independent():
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    x1, x4 = Poly.var(4, 1), Poly.var(4, 4)
    reps = [
        pres.normal_form(f).rep
        for f in (Poly.one(4), x1, x1**2, x4, x4**2)
    ]
    assert rank_of(reps) == 5


def test_graded_basis_examples():
    p2 = presentation(comp(1, 1))
    assert [b.rep for b in p2.graded_basis(2)] == [Poly.var(2, 1)]
    assert [b.rep for b in p2.graded_basis(0)] == [Poly.one(2)]
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    assert len(pres.graded_basis(4)) == 2
    assert pres.graded_basis(6) == []
    with pytest.raises(ValueError):
        pres.graded_basis(3)


# ----------------------------------------------------------------------
# shape-cut sweeps against tableau counts


def test_dimension_equals_column_strict_count_n_le_3():
    for n in range(0, 4):
        mus = list(partitions_of(n)) if n else [None]
        for nu in positive_compositions(n):
            for mu in mus:
                mu_c = comp(*mu.parts) if mu else comp()
                pres = presentation(nu, mu_c)
                assert pres.dim() == count_column_strict(transpose(mu_c), nu)


def test_nonzero_iff_dominance():
    for n in range(1, 5):
        for nu in positive_compositions(n):
            for mu in partitions_of(n):
                mu_c = comp(*mu.parts)
                pres = presentation(nu, mu_c)
                flag = is_nonzero(mu_c, nu)
                assert (pres.dim() > 0) == flag
                assert pres.is_zero_algebra == (not flag)


def test_top_dimension_is_kostka_n3():
    for nu in positive_compositions(3):
        for mu in partitions_of(3):
            mu_c = comp(*mu.parts)
            pres = presentation(nu, mu_c)
            if pres.is_zero_algebra:
                continue
            h = pres.hilbert()
            lam = transpose(mu_c)
            assert len(h.coeffs) - 1 == quotient_top_degree(nu, mu_c)
            assert h.coeffs[-1] == kostka(lam, nu)


def test_dims_depend_only_on_sorted_shapes():
    mu = comp(2, 1, 1)
    dims = {
        presentation(comp(*p), mu).dim()
        for p in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    }
    assert len(dims) == 1
    # mu rearranged through its sorted partition
    nu = comp(1, 2, 1)
    assert presentation(nu, comp(1, 1, 2)).dim() == presentation(nu, comp(2, 1, 1)).dim()


def test_h_and_e_forms_same_dimensions():
    """The h-form list presents the standard quotient: the same Hilbert
    series, graded bases, zero test and normal forms, for every pair
    with n <= 5."""
    started = time.monotonic()
    rng = random.Random(17)
    pairs = 0
    for n in range(1, 6):
        for nu in compositions_of(n, (1, n)):
            for mu in partitions_of(n):
                std, h_pres = presentation(nu, mu), h_presentation(nu, mu)
                assert h_pres.is_zero_algebra == std.is_zero_algebra, (nu, mu)
                assert h_pres.hilbert() == std.hilbert(), (nu, mu)
                h_basis = [b.rep for b in h_pres.basis()]
                assert h_basis == [b.rep for b in std.basis()], (nu, mu)
                top = (std.top_degree or 0) // 2
                for _ in range(2):
                    f = random_invariant(rng, nu, top)
                    got = h_pres.normal_form(f).rep
                    assert got == std.normal_form(f).rep, (nu, mu)
                pairs += 1
    assert pairs == 1094
    assert time.monotonic() - started < 15


def test_zero_algebra_behaviour():
    pres = presentation(comp(2), comp(2))
    assert pres.is_zero_algebra
    assert pres.dim() == 0
    assert pres.hilbert() == IntPoly()
    assert pres.graded_dim(0) == 0
    assert pres.graded_basis(0) == []
    assert pres.top_degree is None
    assert pres.normal_form(Poly.one(2)).is_zero
    assert pres.contains(Poly.one(2))


# ----------------------------------------------------------------------
# ideal comparison


def test_ideals_equal_rejects_proper_containment():
    # x1 is invariant for singleton blocks and not in Lambda+
    nu = comp(1, 1)
    gens = coinvariant_generators(nu)
    larger = gens + [Poly.var(2, 1)]
    assert not ideals_equal(gens, larger, nu)
    assert not ideals_equal(larger, gens, nu)
    assert ideals_equal(larger, larger, nu)
    x1 = Poly.var(1, 1)
    assert ideals_equal([x1], [x1], comp(1))


def test_ideals_equal_refuses_a_list_without_lambda_plus():
    # (x1^2) lacks e_1 = x1; the route in R would wrongly call the ideals equal
    x1 = Poly.var(1, 1)
    for a, b in (([x1], [x1 * x1]), ([x1 * x1], [x1])):
        with pytest.raises(ValueError, match="Lambda\\+"):
            ideals_equal(a, b, comp(1))


def test_ideals_equal_e_h_generators():
    n = 3
    nu = comp(1, 1, 1)
    es = [e_sym(n, range(1, n + 1), r) for r in range(1, n + 1)]
    hs = [h_sym(n, range(1, n + 1), r) for r in range(1, n + 1)]
    assert ideals_equal(es, hs, nu)


def test_ideals_equal_tanisaki_forms_n3():
    for n in range(1, 4):
        for nu in positive_compositions(n):
            for mu in partitions_of(n):
                mu_c = comp(*mu.parts)
                gh = tanisaki_generators_h(mu_c, nu)
                ge = tanisaki_generators_e(mu_c, nu)
                assert ideals_equal(gh, ge, nu), (nu, mu_c)


# ----------------------------------------------------------------------
# termination and error handling


def test_non_terminating_quotient_detected():
    nu = comp(1, 1)
    gens = [e_sym(2, [1, 2], 2)]  # x1*x2 alone leaves an infinite quotient
    with pytest.raises(ValueError, match="Lambda\\+"):
        QuotientPresentation(nu, gens)


def test_non_terminating_custom_presentation_detected():
    # e_1, e_2 generate an ideal whose quotient C[e_3] is infinite, yet
    # every slice up to the largest generator degree vanishes
    nu = comp(3)
    gens = [e_sym(3, [1, 2, 3], 1), e_sym(3, [1, 2, 3], 2)]
    with pytest.raises(ValueError, match="Lambda\\+"):
        QuotientPresentation(nu, gens)
    ref = OrbitSumQuotient(nu, gens)
    assert ref.graded_dim(1) == ref.graded_dim(2) == 0
    assert not ref.normal_form(e_sym(3, [1, 2, 3], 3)).is_zero


def test_form_label_does_not_pick_the_route():
    # e_1 alone leaves C[e_2]; a shape label must not let it through
    gens = [e_sym(2, [1, 2], 1)]
    for mu in (comp(2), None):
        with pytest.raises(ValueError, match="Lambda\\+"):
            QuotientPresentation(comp(2), gens, mu=mu)


def test_non_terminating_empty_generator_list_detected():
    # no generators leave all of C[e_1, e_2], which is infinite
    with pytest.raises(ValueError, match="Lambda\\+"):
        QuotientPresentation(comp(2), [])


def test_vanishing_window_covers_generator_degrees():
    """Every slice up to n degrees above the top is zero.

    ``_r_slice`` finds a degree empty at once when the max(nu.parts)
    degrees under it are, fewer than the largest generator degree n of
    the standard presentations; the slices in between must vanish too.
    """
    checked = 0
    for n in range(1, 5):
        cuts = [None, *partitions_of(n)]
        for nu in compositions_of(n, (1, n)):
            for mu in cuts:
                standard = presentation(nu, mu)
                if standard.is_zero_algebra:
                    continue
                # that argument holds for any ideal, so check it on the
                # orbit-sum reference, which does not need Lambda+
                ref = OrbitSumQuotient(nu, standard.generators)
                top = standard.top_degree // 2
                for w in range(1, n + 1):
                    assert not ref.graded_dim(top + w), (nu, mu, w)
                checked += 1
    assert checked == 171


def test_zero_generator_is_ignored():
    nu = comp(1, 1)
    gens = coinvariant_generators(nu)
    padded = gens + [Poly.zero(2)]
    pres = QuotientPresentation(nu, padded)
    assert pres.generators == gens
    assert pres.dim() == 2
    assert pres.contains(gens[0]) and not pres.contains(Poly.var(2, 1))
    assert ideals_equal(padded, gens, nu)
    ref = OrbitSumQuotient(nu, padded)
    assert [ref.graded_dim(d) for d in range(4)] == [1, 1, 0, 0]
    assert ref.normal_form(gens[0]).is_zero
    assert not ref.normal_form(Poly.var(2, 1)).is_zero
    # a zero generator adds nothing, so it cannot stand in for Lambda+
    zero, empty = OrbitSumQuotient(nu, [Poly.zero(2)]), OrbitSumQuotient(nu, [])
    assert all(zero.basis(d) == empty.basis(d) for d in range(4))
    with pytest.raises(ValueError, match="Lambda\\+"):
        ideals_equal([Poly.zero(2)], [], nu)


def test_presentation_stores_sorted_shape():
    # a weight no other test asks for, so the first call builds it
    nu = Composition(7, [2, 1])
    pres = presentation(nu, comp(1, 2))
    assert pres.mu == Partition([2, 1])
    assert presentation(nu, [2, 1]) is pres
    assert presentation(nu, comp(2, 1)).mu == Partition([2, 1])


def test_custom_presentation_answers_dim():
    x1 = Poly.var(1, 1)
    with pytest.raises(ValueError, match="Lambda\\+"):
        QuotientPresentation(comp(1), [x1 * x1])
    pres = QuotientPresentation(comp(1), [x1])
    assert pres.dim() == 1
    assert pres.contains(x1 * x1)
    assert not pres.contains(Poly.one(1))
    full = [h_sym(3, [1, 2, 3], r) for r in (1, 2, 3)]
    pres = QuotientPresentation(comp(1, 1, 1), full)
    assert pres.hilbert().coeffs == (1, 0, 2, 0, 2, 0, 1)
    assert pres.top_degree == 6


def test_antiinv_divide():
    nu = comp(2)
    eps = eps_nu(nu)
    assert antiinv_divide(eps, nu) == Poly.one(2)
    x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
    assert antiinv_divide(x1 - x2, nu) == Poly.const(2, 2)
    sym = x1 + x2
    assert antiinv_divide(eps * sym, nu) == sym
    with pytest.raises(NotAntiInvariantError):
        antiinv_divide(sym, nu)


# ----------------------------------------------------------------------
# element arithmetic


def test_quotient_element_algebra():
    pres = presentation(comp(1, 2, 1), comp(1, 2, 1))
    x1 = pres.normal_form(Poly.var(4, 1))
    x4 = pres.normal_form(Poly.var(4, 4))
    assert (x1 + x4) - x4 == x1
    assert (x1 * x4).is_zero
    assert (2 * x1).rep == Poly.var(4, 1) * 2
    assert (-x1).rep == -Poly.var(4, 1)
    assert x1.degree() == 2
    assert (x1 * x1 * x1).is_zero
    other = presentation(comp(1, 1))
    with pytest.raises(ValueError):
        x1 + other.one()


def test_elements_of_zero_algebra_collapse():
    pres = presentation(comp(2), comp(2))
    one = pres.one()
    assert one.is_zero
    assert one == pres.zero()


# ----------------------------------------------------------------------
# identity report


def test_quotient_identity_report_small():
    for n in range(0, 4):
        rep = quotient_identity_report(n, max(2 * n, 1))
        assert rep.passed, str(rep)
    names = [c.name for c in quotient_identity_report(2, 2).checks]
    assert names == [
        "h_matches_signed_e_of_complement_in_quotient",
    ]


def test_quotient_identity_report_can_fail(monkeypatch):
    # 2 h_1(x1) + e_1(x2, x3) is x1 modulo e_1, not zero
    true_h = quotients.h_sym
    monkeypatch.setattr(quotients, "h_sym", lambda *args: true_h(*args) * 2)
    rep = quotient_identity_report(3, 2)
    assert {c.name for c in rep.checks if not c.passed} == {
        "h_matches_signed_e_of_complement_in_quotient",
    }


# ----------------------------------------------------------------------
# the coinvariant algebra R = C[x]/(Lambda+)


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_poly_div(a, b):
    """Exact quotient of integer coefficient lists; b is monic."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = a[i + len(b) - 1]
        for j, y in enumerate(b):
            a[i + j] -= out[i] * y
    assert not any(a), "division not exact"
    return out


def q_factorial(k):
    out = [1]
    for j in range(1, k + 1):
        out = int_poly_mul(out, [1] * j)
    return out


def q_multinomial_t2(parts):
    """[n; parts] in q = t^2, as coefficients of t^0, t^1, ..."""
    q = q_factorial(sum(parts))
    for p in parts:
        q = int_poly_div(q, q_factorial(p))
    out = [0] * (2 * len(q) - 1)
    out[::2] = q
    return out


def test_plain_hilbert_series_is_q_multinomial():
    shapes = {tuple(nu.parts) for n in range(1, 6) for nu in positive_compositions(n)}
    shapes |= {(2, 2, 2), (3, 3)}
    assert len(shapes) == 33
    for parts in sorted(shapes):
        series = presentation(comp(*parts)).hilbert()
        assert list(series.coeffs) == q_multinomial_t2(parts), parts


def test_plain_series_on_window_is_q_multinomial():
    """[n; nu] at q = t^2 for every composition on the window, zero parts included."""
    checked = 0
    for n in range(1, 6):
        for nu in compositions_of(n, (1, 3)):
            series = presentation(nu).hilbert()
            assert list(series.coeffs) == q_multinomial_t2(nu.parts), nu
            checked += 1
    assert checked == 55


def test_staircase_normal_form():
    for n in range(1, 6):
        assert list(_r_dims(n)) == q_factorial(n)
        full = range(1, n + 1)
        for r in range(1, n + 1):
            total = {}
            for exp in e_sym(n, full, r).terms:
                for col, v in _nf_monomial(n, exp).items():
                    total[col] = total.get(col, 0) + v
            assert not any(total.values()), (n, r)
        # x_1^n = h_n(x_1) lies in the ideal, and so does anything above n(n-1)/2
        assert _nf_monomial(n, (n,) + (0,) * (n - 1)) == {}
        assert _nf_monomial(n, (0,) * (n - 1) + (n * (n - 1) // 2 + 1,)) == {}


def standard_pairs(n):
    """(nu, mu, form) for every shape-cut presentation over (1, n), on both
    generator lists; the e-form one of mu = 1^n is the plain algebra."""
    for nu in compositions_of(n, (1, n)):
        for mu in partitions_of(n):
            for form in ("e", "h"):
                yield nu, mu, form


def build(nu, mu, form):
    """The presentation that a ``standard_pairs`` triple names."""
    return h_presentation(nu, mu) if form == "h" else presentation(nu, mu)


def test_standard_presentations_contain_lambda_plus():
    """The route in R needs Lambda+ inside J.  Every standard generator list
    holds e_1..e_n or h_1..h_n of all n variables, and either generates it."""
    started = time.monotonic()
    checked = 0
    for n in range(1, 6):
        full = range(1, n + 1)
        e_all = {e_sym(n, full, r) for r in range(1, n + 1)}
        h_all = {h_sym(n, full, r) for r in range(1, n + 1)}
        for nu, mu, form in standard_pairs(n):
            gens = set(build(nu, mu, form).generators)
            assert e_all <= gens or h_all <= gens, (nu, mu, form)
            checked += 1
    assert checked == 2188
    assert time.monotonic() - started < 10


def test_plain_algebra_is_the_shape_cut_quotient_of_the_regular_shape():
    """For mu = 1^n the e-form list is e_1..e_n of all variables, so the
    plain algebra P_nu / Lambda+ is that shape-cut quotient, one object."""
    started = time.monotonic()
    checked = 0
    for n in range(0, 8):
        regular = Partition([1] * n)
        for window in ((1, max(n, 1)), (0, n + 1)):
            for nu in compositions_of(n, window):
                assert tanisaki_generators_e(regular, nu) == (
                    coinvariant_generators(nu)
                ), nu
                if n <= 5:
                    pres = presentation(nu)
                    assert pres is presentation(nu, [1] * n), nu
                    assert pres is presentation(nu, Composition(1, [1] * n)), nu
                    assert pres.mu == regular
                checked += 1
    assert checked == 11142
    assert time.monotonic() - started < 10


def random_invariant(rng, nu, top):
    """Integer combination of orbit sums of degree at most top + 1."""
    blocks = _blocks_of(nu)
    f = Poly.zero(nu.n)
    for d in range(0, top + 2):
        for exp in _canonical_exps(blocks, nu.n, d):
            if rng.random() < 0.3:
                f = f + _orbit_poly(blocks, nu.n, exp) * rng.randint(-3, 3)
    return f


def assert_engines_agree(nu, mu, form, rng):
    pres = build(nu, mu, form)
    if pres.is_zero_algebra:
        return False
    ref = OrbitSumQuotient(nu, pres.generators)
    top = pres.top_degree // 2
    series = [0] * (2 * top + 1)
    series[::2] = [ref.graded_dim(d) for d in range(top + 1)]
    assert pres.hilbert() == IntPoly(series), (nu, mu, form)
    assert not any(ref.graded_dim(top + w) for w in range(1, max(nu.parts) + 1))
    for d in range(top + 1):
        got = [b.rep for b in pres.graded_basis(2 * d)]
        assert got == ref.basis(d), (nu, mu, form, d)
    # every orbit-sum column, dependent ones past the scan's early stop
    # included, and one degree past the top, where all of them vanish
    for d in range(top + 2):
        for exp in canonical_exponents(ref.spans, nu.n, d):
            orbit = orbit_sum(ref.spans, nu.n, exp)
            assert pres.normal_form(orbit).rep == ref.normal_form(orbit), (
                nu, mu, form, exp
            )
    for _ in range(3):
        f = random_invariant(rng, nu, top)
        assert pres.normal_form(f).rep == ref.normal_form(f), (nu, mu, form)
    return True


def test_r_route_matches_orbit_sum_route():
    """Standard presentations (computed in R) against the orbit-sum
    echelon of tests/reference.py."""
    rng = random.Random(11)
    checked = sum(
        assert_engines_agree(nu, mu, form, rng)
        for n in range(1, 5)
        for nu, mu, form in standard_pairs(n)
    )
    assert checked == 244
    # every generator list stays within degree 2n (the h-form list is
    # trimmed), so the n = 5 sample is drawn from all non-zero pairs
    nonzero_pairs = [
        (nu, mu, form) for nu, mu, form in standard_pairs(5)
        if is_nonzero(mu, nu)
    ]
    assert all(
        max(g.degree() for g in build(nu, mu, form).generators) <= 2 * nu.n
        for nu, mu, form in nonzero_pairs
    )
    for pair in random.Random(5).sample(nonzero_pairs, 12):
        assert assert_engines_agree(*pair, rng)


STANDARD_N4 = [
    triple for n in range(1, 5) for triple in standard_pairs(n)
    if not build(*triple).is_zero_algebra
]


@st.composite
def presentation_and_invariants(draw):
    nu, mu, form = draw(st.sampled_from(STANDARD_N4))
    pres = build(nu, mu, form)
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=2))
    f, g = (
        random_invariant(random.Random(s), nu, pres.top_degree // 2) for s in seeds
    )
    return pres, f, g


@settings(max_examples=40, deadline=None, derandomize=True)
@given(presentation_and_invariants(), st.integers(-4, 4), st.integers(-4, 4))
def test_normal_form_properties(case, a, b):
    pres, f, g = case
    nf = pres.normal_form(f)
    assert pres.normal_form(nf.rep) == nf
    combo = pres.normal_form(f * a + g * b)
    assert combo == nf * a + pres.normal_form(g) * b
    for gen in pres.generators:
        assert pres.normal_form(gen).is_zero


def test_basis_sweeps_every_degree():
    nu = comp(1, 2, 1)
    for pres in [presentation(nu), h_presentation(nu, comp(2, 2))]:
        sweep = [
            b for d in range(0, pres.top_degree + 1, 2) for b in pres.graded_basis(d)
        ]
        assert list(pres.basis()) == sweep
        assert len(sweep) == pres.dim()
    assert list(presentation(comp(2), comp(2)).basis()) == []


def _garsia_procesi(mu: tuple) -> list:
    """Hilbert series of the Springer fiber ring by the Garsia-Procesi recursion.

    H_mu(q) = sum over rows i of q^(i-1) H_{mu minus a cell of row i},
    re-sorted, with H_(1) = 1 (Garsia-Procesi 1992, Adv. Math. 94).
    Coefficient lists, lowest degree first.
    """
    if sum(mu) <= 1:
        return [1]
    out = []
    for i in range(len(mu)):
        smaller = sorted((p - (j == i) for j, p in enumerate(mu)), reverse=True)
        sub = _garsia_procesi(tuple(p for p in smaller if p))
        out += [0] * (i + len(sub) - len(out))
        for d, c in enumerate(sub):
            out[i + d] += c
    return out


def test_regular_series_matches_garsia_procesi_recursion():
    # a third route for nu = 1^n, sharing no code with the tableaux or
    # with the quotient engine
    started = time.monotonic()
    pairs = 0
    for n in range(1, 7):
        for mu in partitions_of(n):
            series = presentation(Composition(1, [1] * n), mu).hilbert().coeffs
            assert not any(series[1::2]), mu
            assert list(series[::2]) == _garsia_procesi(mu.parts), mu
            pairs += 1
    assert pairs == 29
    assert time.monotonic() - started < 30


def combine(a, scale, b):
    """a + scale * b for sorted sparse rows."""
    acc = dict(a)
    for col, v in b:
        acc[col] = acc.get(col, 0) + scale * v
    return sorted((c, v) for c, v in acc.items() if v != 0)


def random_sparse_rows(rng, ncols, count):
    """Sparse sorted rows with Fraction entries; every third one is a
    combination of two earlier rows, so the list holds dependent rows."""
    rows = []
    for k in range(count):
        if k % 3 == 2:
            a, b = rng.sample(rows, 2)
            rows.append(combine(a, Q(rng.randint(1, 5), rng.randint(1, 4)), b))
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
            values = [Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in cols]
            rows.append(sorted(zip(cols, values)))
    return rows


def integer_row(row):
    """A sparse Fraction row scaled by its common denominator, as a dict."""
    scale = math.lcm(*(Q(v).denominator for _, v in row))
    return {c: int(v * scale) for c, v in row}


def assert_fully_reduced(ech, where):
    """Every pivot row is 1 at its pivot and 0 at every other pivot column."""
    for col, row in ech.pivots.items():
        assert row[0] == (col, 1), where
        assert not any(c in ech.pivots for c, _ in row[1:]), where


def test_echelon_matches_integer_elimination():
    """``_Echelon`` against ``insert_integer_row`` of tests/reference.py on
    seeded rows with dependent ones: the same rank, pivot columns and
    in-span verdicts, and every pivot row fully reduced.  With tag columns
    from ncols on, a row that reduces to tags alone is refused, a reduction
    cut at ncols is the full one's untagged part, and ``solve`` reads back
    the weights of a combination of the tagged rows."""
    rng = random.Random(31)
    verdicts = []
    for trial in range(40):
        ncols = rng.randint(4, 30)
        rows = random_sparse_rows(rng, ncols, rng.randint(3, 3 * ncols // 2))
        ech, ref = _Echelon(), {}
        for row in rows:
            rank = len(ref)
            insert_integer_row(ref, integer_row(row))
            assert ech.insert(row) == (len(ref) > rank), trial
        assert ech.rank == len(ref) < len(rows)
        assert set(ech.pivots) == set(ref), trial
        assert_fully_reduced(ech, trial)
        # random rows, mostly outside the span, and combinations inside it
        probes = random_sparse_rows(rng, ncols, 10) + [[]]
        probes += [combine(a, Q(-2, 3), b) for a, b in zip(rows, rows[1:])]
        for probe in probes:
            copy = dict(ref)
            insert_integer_row(copy, integer_row(probe))
            in_span = len(copy) == len(ref)
            assert in_span == (not ech.reduce(probe)), (trial, probe)
            verdicts.append(in_span)
        # untagged rows first, then unknown u's row tagged at ncols + u
        half = len(rows) // 2
        tagged = _Echelon()
        for row in rows[:half]:
            tagged.insert(row, ncols)
        unknowns = rows[half:]
        kept = [
            u for u, row in enumerate(unknowns)
            if tagged.insert(row + [(ncols + u, 1)], ncols)
        ]
        assert tagged.rank == ech.rank, trial
        assert_fully_reduced(tagged, trial)
        # the untagged columns of a reduction come from untagged entries alone
        for u, probe in enumerate(probes):
            probe = probe + [(ncols + u, 1)]
            assert tagged.reduce(probe, ncols) == [
                cv for cv in tagged.reduce(probe) if cv[0] < ncols
            ], (trial, probe)
        weights ={u: Q(rng.randint(-4, 4), rng.randint(1, 3)) for u in kept}
        combo = []
        for u, w in weights.items():
            combo = combine(combo, w, unknowns[u])
        for row in rows[:half]:
            combo = combine(combo, Q(rng.randint(-3, 3)), row)
        assert dict(tagged.solve(combo, ncols)) == {
            u: w for u, w in weights.items() if w
        }, trial
        assert not tagged.insert(combo + [(ncols + len(unknowns), 1)], ncols)
        assert tagged.rank == ech.rank, trial
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_held_echelons_are_fully_reduced(monkeypatch, capsys):
    """Every echelon the program keeps is fully reduced: (JR)_d and every
    degree of every standard presentation with n <= 4, and the power
    systems that ``verify --suite traces --n 3`` solves."""
    for n in range(1, 5):
        for nu, mu, form in standard_pairs(n):
            alg = build(nu, mu, form)._alg
            alg.hilbert()
            for d in range(len(_r_dims(n))):
                assert_fully_reduced(
                    quotients._r_ideal(n, alg.gens, d), (nu, mu, form, d)
                )
            for d, data in alg._degrees.items():
                if data.echelon is not None:
                    assert_fully_reduced(data.echelon, (nu, mu, form, d))
    # a fresh coordinate memo, so that every system the suite uses is asked for
    systems = set()
    power_system = glaction._power_system

    def recorded(m, last, deg):
        systems.add((m, last, deg))
        return power_system(m, last, deg)

    monkeypatch.setattr(glaction, "_power_system", recorded)
    monkeypatch.setattr(
        glaction, "_power_coords",
        functools.lru_cache(maxsize=None)(glaction._power_coords.__wrapped__),
    )
    assert cli.main(["verify", "--suite", "traces", "--n", "3"]) == 0
    capsys.readouterr()
    assert len(systems) == 23
    for key in systems:
        assert_fully_reduced(power_system(*key)[0], key)


def test_dimension_and_top_coefficient_on_an_n6_sample():
    """Evidence at n = 6: dim against the column-strict count and the top
    Hilbert coefficient against the Kostka number, on a seeded sample of
    non-zero shape-cut quotients and two plain algebras (mu = 1^6)."""
    started = time.monotonic()
    pairs = [
        (nu, mu) for nu in positive_compositions(6) for mu in partitions_of(6)
        if is_nonzero(mu, nu)
    ]
    sample = random.Random(6).sample(pairs, 13)
    plain = [(comp(1, 1, 1, 1, 1, 1), None), (comp(2, 2, 1, 1), None)]
    for nu, mu in sample + plain:
        pres = presentation(nu, mu)
        lam = transpose(mu or Partition([1] * 6))
        assert pres.dim() == count_column_strict(lam, nu), (nu, mu)
        series = pres.hilbert()
        assert series.degree() == quotient_top_degree(nu, mu or Partition([1] * 6))
        assert series.coeff(series.degree()) == kostka(lam, nu), (nu, mu)
    elapsed = time.monotonic() - started
    assert elapsed < 20, f"n = 6 sample over budget: {elapsed:.1f}s"
