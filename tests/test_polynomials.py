import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinv.polynomials import (
    Poly,
    Q,
    _convolution,
    divided_difference,
    e_block,
    e_sym,
    grlex_key,
    h_block,
    h_sym,
    verify_identity_suite,
)
from coinv.shapes import Composition

from reference import (
    NotDivisibleError,
    antisymmetrize,
    block_group,
    eps_nu,
    eps_pair,
    exact_divide,
    permute,
    symmetrize,
)


def x(n, i):
    return Poly.var(n, i)


def random_poly(rng, n, max_deg=3, terms=4):
    p = Poly.zero(n)
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        p = p + Poly.monomial(n, exp, Q(rng.randint(-5, 5), rng.randint(1, 4)))
    return p


class TestArithmetic:
    def test_products(self):
        n = 2
        assert x(n, 1) * x(n, 1) == Poly.monomial(n, (2, 0))
        f = random_poly(random.Random(0), 3)
        assert (f + (-f)).is_zero
        lhs = (x(n, 1) + x(n, 2)) * (x(n, 1) - x(n, 2))
        assert lhs == Poly.monomial(n, (2, 0)) - Poly.monomial(n, (0, 2))

    def test_ring_axioms_sampled(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 4)
            f, g, h = (random_poly(rng, n) for _ in range(3))
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert (f * g) * h == f * (g * h)
            assert f + g == g + f

    def test_scalars(self):
        n = 2
        f = x(n, 1) + 2 * x(n, 2)
        assert f * 0 == Poly.zero(n)
        assert f / 2 == f * Q(1, 2)
        assert (f * 3) / 3 == f

    def test_pow(self):
        n = 2
        assert (x(n, 1) + x(n, 2)) ** 2 == (
            Poly.monomial(n, (2, 0)) + 2 * Poly.monomial(n, (1, 1)) + Poly.monomial(n, (0, 2))
        )

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            x(2, 1) + x(3, 1)

    def test_degree_doubled(self):
        n = 3
        assert Poly.monomial(n, (2, 0, 0)).degree() == 4
        assert (x(n, 1) * x(n, 2) * x(n, 3)).degree() == 6
        assert Poly.one(n).degree() == 0
        assert Poly.zero(n).degree() is None

    def test_leading_grlex(self):
        n = 2
        # within a degree x_1 beats x_2
        assert max((x(n, 1) + x(n, 2)).terms, key=grlex_key) == (1, 0)
        f = x(n, 2) ** 3 + x(n, 1)
        assert max(f.terms, key=grlex_key) == (0, 3)
        assert f.terms[(0, 3)] == Q(1)


class TestJson:
    def test_sorted_ascending(self):
        n = 2
        f = x(n, 1) + x(n, 2) * 3 + Poly.one(n)
        data = f.to_json()
        assert data == [
            {"exp": [0, 0], "num": "1", "den": "1"},
            {"exp": [0, 1], "num": "3", "den": "1"},
            {"exp": [1, 0], "num": "1", "den": "1"},
        ]

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 4)
            f = random_poly(rng, n)
            assert Poly.from_json(n, f.to_json()) == f

    def test_accepts_json_integers_and_integer_strings(self):
        data = [{"exp": [2, 0], "num": -3, "den": "4"}, {"exp": [0, 1], "num": "5", "den": 1}]
        assert Poly.from_json(2, data) == x(2, 1) ** 2 * Q(-3, 4) + x(2, 2) * 5

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, False, "1.5", "2e1", " 1", None])
    @pytest.mark.parametrize("field", ["exp", "num", "den"])
    def test_rejects_non_integers(self, field, bad):
        item = {"exp": [1, 0], "num": "1", "den": "1"}
        if field == "exp":
            item["exp"] = [bad, 0]
        else:
            item[field] = bad
        with pytest.raises(ValueError):
            Poly.from_json(2, [item])

    def test_rejects_exponent_string(self):
        with pytest.raises(ValueError):
            Poly.from_json(2, [{"exp": "10", "num": "1", "den": "1"}])


class TestPermutation:
    def test_examples(self):
        n = 2
        swap = (2, 1)
        assert permute(x(n, 1), swap) == x(n, 2)
        f = random_poly(random.Random(3), 2)
        assert permute(f, (1, 2)) == f
        m = Poly.monomial(n, (1, 1))
        assert permute(m, swap) == m

    def test_ring_homomorphism_sampled(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            w = list(range(1, n + 1))
            rng.shuffle(w)
            w = tuple(w)
            f, g = random_poly(rng, n), random_poly(rng, n)
            assert permute(f * g, w) == permute(f, w) * permute(g, w)
            assert permute(f + g, w) == permute(f, w) + permute(g, w)
            assert permute(f, w).degree() == f.degree()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            permute(x(2, 1), (1, 1))


class TestSymmetrize:
    def test_examples(self):
        two = Composition(1, [2])
        assert symmetrize(x(2, 1), two) == (x(2, 1) + x(2, 2)) / 2
        assert symmetrize(x(2, 1) ** 2, two) == (x(2, 1) ** 2 + x(2, 2) ** 2) / 2
        f = random_poly(random.Random(5), 3)
        assert symmetrize(f, Composition(1, [1, 1, 1])) == f

    def test_antisymmetrize_examples(self):
        two = Composition(1, [2])
        assert antisymmetrize(x(2, 1), two) == (x(2, 1) - x(2, 2)) / 2
        sym = x(2, 1) * x(2, 2)
        assert antisymmetrize(sym, two).is_zero
        assert antisymmetrize(x(2, 1) ** 2, two) == (x(2, 1) ** 2 - x(2, 2) ** 2) / 2

    def test_projections_idempotent(self):
        rng = random.Random(13)
        for parts in [(2,), (2, 1), (3,), (1, 2)]:
            nu = Composition(1, parts)
            for _ in range(5):
                f = random_poly(rng, nu.n)
                s = symmetrize(f, nu)
                assert symmetrize(s, nu) == s
                a = antisymmetrize(f, nu)
                assert antisymmetrize(a, nu) == a

    def test_symmetrize_lands_in_invariants(self):
        rng = random.Random(17)
        nu = Composition(1, [2, 2])
        for _ in range(5):
            s = symmetrize(random_poly(rng, 4), nu)
            for w, _ in block_group(nu):
                assert permute(s, w) == s

    def test_block_group_orders(self):
        assert len(block_group(Composition(1, [2, 1]))) == 2
        assert len(block_group(Composition(1, [2, 2]))) == 4
        assert len(block_group(Composition(1, [3, 1]))) == 6
        signs = [s for _, s in block_group(Composition(1, [3]))]
        assert sum(signs) == 0


class TestExactDivide:
    def test_examples(self):
        n = 2
        q = exact_divide(x(n, 1) ** 2 - x(n, 2) ** 2, x(n, 1) - x(n, 2))
        assert q == x(n, 1) + x(n, 2)
        f = random_poly(random.Random(19), 3)
        assert exact_divide(f, Poly.one(3)) == f
        with pytest.raises(NotDivisibleError):
            exact_divide(x(n, 1), x(n, 2))

    def test_roundtrip_sampled(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            if g.is_zero:
                continue
            assert exact_divide(f * g, g) == f

    def test_chevalley_divisibility(self):
        # anti-invariants are divisible by the block difference product
        rng = random.Random(29)
        for parts in [(2,), (3,), (2, 1), (1, 2), (2, 2)]:
            nu = Composition(1, parts)
            eps = eps_nu(nu)
            for _ in range(4):
                a = antisymmetrize(random_poly(rng, nu.n), nu)
                q = exact_divide(a, eps)
                assert q * eps == a


def swap(n, j):
    """The simple transposition s_j as a permutation of 1..n."""
    w = list(range(1, n + 1))
    w[j - 1], w[j] = j + 1, j
    return tuple(w)


class TestDividedDifference:
    def test_examples(self):
        assert divided_difference(x(2, 1), 1) == Poly.one(2)
        assert divided_difference(x(2, 2), 1) == -Poly.one(2)
        assert divided_difference(x(2, 1) ** 2, 1) == x(2, 1) + x(2, 2)
        assert divided_difference(x(2, 1) * x(2, 2), 1).is_zero
        f = x(3, 1) * x(3, 2) ** 3
        assert divided_difference(f, 2) == x(3, 1) * (
            x(3, 2) ** 2 + x(3, 2) * x(3, 3) + x(3, 3) ** 2
        )

    def test_matches_exact_divide(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 4)
            f = random_poly(rng, n, terms=6)
            for j in range(1, n):
                expected = exact_divide(
                    f - permute(f, swap(n, j)), x(n, j) - x(n, j + 1)
                )
                assert divided_difference(f, j) == expected

    def test_square_vanishes(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_poly(rng, n, terms=6)
            for j in range(1, n):
                assert divided_difference(divided_difference(f, j), j).is_zero

    def test_braid_relations(self):
        rng = random.Random(41)
        dd = divided_difference
        for _ in range(10):
            n = rng.randint(3, 4)
            f = random_poly(rng, n, max_deg=4, terms=6)
            for j in range(1, n - 1):
                assert dd(dd(dd(f, j), j + 1), j) == dd(dd(dd(f, j + 1), j), j + 1)
            if n == 4:
                assert dd(dd(f, 1), 3) == dd(dd(f, 3), 1)

    def test_rejects_bad_index(self):
        for j in (0, 2):
            with pytest.raises(ValueError):
                divided_difference(x(2, 1), j)


class TestSymmetricPolynomials:
    def test_e_examples(self):
        n = 3
        got = e_sym(n, [1, 2, 3], 2)
        want = (
            Poly.monomial(n, (1, 1, 0))
            + Poly.monomial(n, (1, 0, 1))
            + Poly.monomial(n, (0, 1, 1))
        )
        assert got == want
        assert e_sym(2, [1], 2).is_zero

    def test_h_examples(self):
        got = h_sym(2, [1, 2], 2)
        want = Poly.monomial(2, (2, 0)) + Poly.monomial(2, (1, 1)) + Poly.monomial(2, (0, 2))
        assert got == want

    def test_conventions(self):
        assert e_sym(3, [1, 2], 0) == Poly.one(3)
        assert h_sym(3, [1, 2], 0) == Poly.one(3)
        assert e_sym(3, [1, 2], -1).is_zero
        assert h_sym(3, [1, 2], -2).is_zero
        assert h_sym(3, [], 1).is_zero

    def test_repeated_vars_rejected(self):
        with pytest.raises(ValueError):
            e_sym(3, [1, 1], 1)

    def test_block_examples(self):
        nu = Composition(1, [1, 2, 1])
        n = nu.n
        assert e_block(nu, [1, 2], 1) == x(n, 1) + x(n, 2) + x(n, 3)
        for i in (1, 2, 3):
            assert h_block(nu, [i], 0) == Poly.one(n)
        assert e_block(nu, [2], 3).is_zero

    def test_block_repeats_rejected(self):
        with pytest.raises(ValueError):
            e_block(Composition(1, [1, 2, 1]), [2, 2], 1)

    def test_block_convolution(self):
        # union value equals the convolution over the parts of the union
        for parts in [(1, 2, 1), (2, 2), (3, 1, 1)]:
            nu = Composition(1, parts)
            idx = [i for i in nu.indices()]
            for m in (2, len(idx)):
                for combo in itertools.combinations(idx, m):
                    for r in range(0, nu.n + 1):
                        conv_e = Poly.zero(nu.n)
                        conv_h = Poly.zero(nu.n)
                        for split in itertools.product(range(r + 1), repeat=m):
                            if sum(split) != r:
                                continue
                            te = Poly.one(nu.n)
                            th = Poly.one(nu.n)
                            for i, ri in zip(combo, split):
                                te = te * e_block(nu, [i], ri)
                                th = th * h_block(nu, [i], ri)
                            conv_e = conv_e + te
                            conv_h = conv_h + th
                        assert conv_e == e_block(nu, combo, r)
                        assert conv_h == h_block(nu, combo, r)


class TestEps:
    def test_eps_full(self):
        # one block: the product of all differences x_i - x_j, i < j, over n!
        assert eps_nu(Composition(1, [2])) == (x(2, 1) - x(2, 2)) / 2
        full = (x(3, 1) - x(3, 2)) * (x(3, 1) - x(3, 3)) * (x(3, 2) - x(3, 3))
        assert eps_nu(Composition(1, [3])) == full / 6

    def test_eps_nu_regular(self):
        assert eps_nu(Composition(1, [1, 1, 1])) == Poly.one(3)

    def test_eps_nu_block(self):
        nu = Composition(1, [1, 2])
        assert eps_nu(nu) == (x(3, 2) - x(3, 3)) / 2
        assert eps_nu(Composition(1, [2])) == (x(2, 1) - x(2, 2)) / 2

    def test_eps_pair(self):
        assert eps_pair(Composition(1, [2]), Composition(1, [1, 1])) == Poly.one(2)
        nu = Composition(1, [3])
        nup = Composition(1, [2, 1])
        # common refinement keeps the first two variables in a block
        assert eps_pair(nu, nup) == (x(3, 1) - x(3, 2)) / 2

    def test_eps_pair_rejects_non_move(self):
        with pytest.raises(ValueError):
            eps_pair(Composition(1, [2, 1]), Composition(1, [1, 1, 1]))

    def test_move_index(self):
        # the move is at index 2, and refining there leaves only singletons;
        # refining at index 1 would keep the block {x2, x3}
        assert eps_pair(Composition(1, [1, 2, 1]), Composition(1, [1, 1, 2])) == Poly.one(4)
        # offset pair: the unit at index 1 moves to index 2
        assert eps_pair(Composition(1, [1]), Composition(2, [1])) == Poly.one(1)

    def test_antisymmetrized_power_is_eps_multiple(self):
        # the full antisymmetrization of the staircase monomial is the
        # one-block difference product
        for n in (2, 3):
            stair = Poly.monomial(n, tuple(range(n - 1, -1, -1)))
            nu = Composition(1, [n])
            assert antisymmetrize(stair, nu) == eps_nu(nu)


class TestIdentitySuite:
    def test_power_reduction_frozen(self):
        # n=2: x_2^3 equals (h_2 - e_1({x_1}) h_1) x_2 and also h_3 - x_1 h_2
        n = 2
        full = [1, 2]
        x2 = x(n, 2)
        lhs = x2 ** 3
        assert lhs == (h_sym(n, full, 2) - e_sym(n, [1], 1) * h_sym(n, full, 1)) * x2
        assert lhs == h_sym(n, full, 3) - x(n, 1) * h_sym(n, full, 2)

    def test_alternating_sum_frozen(self):
        # n=2, r=1: h_1 - e_1 = 0
        n = 2
        assert (h_sym(n, [1, 2], 1) - e_sym(n, [1, 2], 1)).is_zero

    def test_h_split_frozen(self):
        n = 2
        lhs = h_sym(n, [1, 2], 2)
        rhs = h_sym(n, [1], 2) + h_sym(n, [1], 1) * h_sym(n, [2], 1) + h_sym(n, [2], 2)
        assert lhs == rhs

    def test_convolution_order_and_sign(self):
        x = Poly.var(1, 1)

        def first(s):
            return x**s

        def second(k):
            return Poly.const(1, k + 1)

        assert _convolution(first, second, 2) == 3 + 2 * x + x**2
        assert _convolution(first, second, 2, alternating=True) == 3 - 2 * x + x**2
        assert _convolution(first, second, 0, alternating=True) == Poly.one(1)

    def test_suite_passes(self):
        for n, r_max in [(1, 3), (2, 4), (3, 4)]:
            report = verify_identity_suite(n, r_max)
            assert report.passed, str(report)
        names = [c.name for c in verify_identity_suite(2, 2).checks]
        assert len(names) == 7


# ----------------------------------------------------------------------
# properties: ring axioms and the coefficient rule

N = 3
# coefficients drawn both as ints and as Q values, integral or not
COEFFS = st.one_of(
    st.integers(-6, 6), st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
)
POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * N), COEFFS, max_size=4
).map(lambda terms: Poly(N, terms))
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def follows_coefficient_rule(f):
    """Every coefficient is an int, or a Q that is not integral."""
    return all(
        type(c) is int or (isinstance(c, Q) and c.denominator != 1)
        for c in f.terms.values()
    )


@PROPERTY
@given(POLYS, POLYS, POLYS)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f + (-f)).is_zero
    assert f - f == Poly.zero(N)


@PROPERTY
@given(POLYS)
def test_int_and_q_spellings_agree(f):
    as_q = {e: Q(c) for e, c in f.terms.items()}
    # the constructor puts Q spellings under the rule
    assert Poly(N, as_q).terms == f.terms
    assert follows_coefficient_rule(Poly(N, as_q))
    # a Q that skipped the rule still compares and hashes as its int
    raw = Poly(N, as_q, _clean=True)
    assert raw == f and hash(raw) == hash(f)


def test_cached_hash_is_stable_and_follows_the_terms():
    f = Poly(3, {(1, 0, 2): 3, (0, 1, 0): Q(-1, 2), (0, 0, 0): 1})
    first = hash(f)
    assert hash(f) == first
    assert first == hash((3, frozenset(f.terms.items())))
    # the same polynomial built in another term order, and with Q(3)
    # where f has 3, hashes equal
    g = Poly(3, {(0, 0, 0): 1, (0, 1, 0): Q(-1, 2), (1, 0, 2): Q(3)})
    assert list(g.terms) != list(f.terms)
    assert g == f and hash(g) == first
    h = Poly(3, {(0, 1, 0): Q(-1, 2)}) + Poly.const(3, 1) + Poly.monomial(
        3, (1, 0, 2), 3
    )
    assert h == f and hash(h) == first
    # a polynomial used as a key before and after its hash is cached
    memo = {g: "g"}
    assert memo[f] == memo[h] == "g"


@PROPERTY
@given(POLYS, POLYS, st.integers(1, 6), st.integers(1, N - 1), st.sampled_from([(2, 1), (1, 2), (3,)]))
def test_no_float_coefficients(f, g, k, j, parts):
    nu = Composition(1, list(parts))
    results = [
        f + g,
        f * g,
        f * Q(k, 2),
        f / k,
        f / Q(k, 3),
        divided_difference(f, j),
        symmetrize(f, nu),
        antisymmetrize(f, nu),
    ]
    if not g.is_zero:
        results.append(exact_divide(f * g, g))
    for r in results:
        assert not any(isinstance(c, float) for c in r.terms.values())
        assert follows_coefficient_rule(r)
    if not g.is_zero:
        assert results[-1] == f


@PROPERTY
@given(POLYS)
def test_json_roundtrip_property(f):
    back = Poly.from_json(N, f.to_json())
    assert back == f
    assert back.terms == f.terms
    assert follows_coefficient_rule(back)


def test_exact_divide_keeps_fractional_quotient_exact():
    # rc / gc on two ints would give the float 1.5 here
    q = exact_divide(Poly.monomial(2, (2, 0), 3), Poly.monomial(2, (1, 0), 2))
    assert q == Poly.monomial(2, (1, 0), Q(3, 2))
    assert q.terms == {(1, 0): Q(3, 2)}
    assert isinstance(q.terms[(1, 0)], Q)
    # and here a float that no exact conversion can repair
    third = exact_divide(Poly.monomial(2, (2, 0), 1), Poly.monomial(2, (1, 0), 3))
    assert third.terms == {(1, 0): Q(1, 3)}


def test_integral_results_become_ints():
    half = Poly.monomial(2, (1, 0), Q(1, 2))
    x1, x2 = x(2, 1), x(2, 2)
    results = [
        half + half,
        half * 2,
        half * Poly.const(2, 2),
        half / Q(1, 2),
        divided_difference((x1 * x1 - x2 * x2) * Q(1, 2), 1),
        symmetrize(x1 + x2, Composition(1, [2])),
    ]
    for r in results:
        assert not r.is_zero
        assert all(type(c) is int for c in r.terms.values()), r.terms


def convolve(f, g) -> dict:
    """The product's terms by plain dict convolution, zeros dropped."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def test_monomial_products_match_convolution():
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 4)
        exp = tuple(rng.randint(0, 3) for _ in range(n))
        c = rng.choice([1, -2, 3, Q(3, 2), Q(-2, 3)])
        cases.append((Poly.monomial(n, exp, c), random_poly(rng, n, terms=rng.randint(1, 6))))
    # Q coefficients whose products are all integers: 3/2 * 2/3, 3/2 * 4/3
    cases.append((
        Poly.monomial(2, (1, 0), Q(3, 2)),
        Poly(2, {(0, 1): Q(2, 3), (2, 0): Q(4, 3), (0, 0): Q(-2, 3)}),
    ))
    assert any(len(p.terms) > 1 for _, p in cases)
    for m, p in cases:
        for product in (m * p, p * m):
            assert product.terms == convolve(m, p)
            assert follows_coefficient_rule(product), product.terms
    last = cases[-1][0] * cases[-1][1]
    assert last.terms == {(1, 1): 1, (3, 0): 2, (1, 0): -1}
    assert all(type(c) is int for c in last.terms.values())


def test_product_by_one_is_the_same_polynomial():
    f = random_poly(random.Random(3), 3)
    for one in (1, Q(1), Q(2, 2)):
        assert f * one is f
        assert one * f is f
    assert (f * Poly.one(3)).terms == f.terms
    assert (Poly.one(3) * f).terms == f.terms
    assert f * -1 == -f and (f * 0).is_zero


def test_poly_stays_immutable():
    f = Poly(2, {(1, 0): 1})
    g = f * Poly.monomial(2, (0, 1), 2)
    hash(g)
    for p in (f, g, Poly.monomial(2, (1, 1), Q(1, 2))):
        for name, value in (("n", 3), ("terms", {}), ("_hash", 0), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
    assert g.n == 2 and g.terms == {(1, 1): 2}
