import itertools
import re

import pytest

from coinv.glaction import WeightFamily
from coinv.quotients import presentation
from coinv.shapes import (
    Composition,
    Partition,
    coinvariant_top_degree,
    compositions_of,
    dominates,
    partitions_of,
    quotient_top_degree,
    sort_to_partition,
    transpose,
)


def all_compositions(n, max_width=None):
    width = max_width or max(n, 1)
    seen = set()
    for c in compositions_of(n, (1, width)):
        if c not in seen:
            seen.add(c)
            yield c


class TestComposition:
    def test_offset_equality(self):
        assert Composition(0, [0, 1, 2, 1]) == Composition(1, [1, 2, 1])
        assert Composition(1, [1, 2, 1, 0, 0]) == Composition(1, [1, 2, 1])
        assert Composition(0, [1, 2, 1]) != Composition(1, [1, 2, 1])
        assert Composition(0, [0, 0]) == Composition(5, [])

    def test_hash_consistent(self):
        assert hash(Composition(0, [0, 2, 0])) == hash(Composition(1, [2]))

    def test_function_semantics(self):
        c = Composition(1, [1, 2, 1])
        assert [c[i] for i in range(-1, 6)] == [0, 0, 1, 2, 1, 0, 0]
        assert c.n == 4
        assert c.lo == 1 and c.hi == 3

    def test_interior_zero_kept(self):
        c = Composition(1, [2, 0, 2])
        assert c.parts == (2, 0, 2)
        assert c[2] == 0

    def test_partial_sum(self):
        c = Composition(1, [1, 2, 1])
        assert [c.partial_sum(i) for i in range(0, 5)] == [0, 1, 3, 4, 4]

    def test_block_range(self):
        c = Composition(1, [1, 2, 1])
        assert list(c.block_range(1)) == [1]
        assert list(c.block_range(2)) == [2, 3]
        assert list(c.block_range(3)) == [4]
        assert list(c.block_range(7)) == []

    def test_lower_raise_roundtrip(self):
        c = Composition(1, [1, 2, 1])
        down = c.lower_at(2)
        assert down == Composition(1, [1, 1, 2])
        assert down.raise_at(2) == c

    def test_lower_extends_support(self):
        assert Composition(1, [1]).lower_at(1) == Composition(2, [1])
        assert Composition(1, [2]).lower_at(1) == Composition(1, [1, 1])

    def test_lower_requires_positive_part(self):
        with pytest.raises(ValueError):
            Composition(1, [1, 2]).lower_at(5)
        with pytest.raises(ValueError):
            Composition(1, [1, 2]).raise_at(2)

    def test_refine_splits_block(self):
        c = Composition(1, [1, 2, 1])
        r = c.refine_at(2)
        assert r == Composition(1, [1, 1, 1, 1])
        # singleton lands at index i+1, later blocks shift up
        assert r[3] == 1
        assert r.block_range(2) == range(2, 3)
        assert r.block_range(3) == range(3, 4)

    def test_refine_unit_block(self):
        r = Composition(1, [1, 2, 1]).refine_at(1)
        assert r == Composition(1, [0, 1, 2, 1])
        assert r[1] == 0 and r[2] == 1
        assert r.block_range(2) == range(1, 2)

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError, match=re.escape("negative part in (1, -1)")):
            Composition(0, [1, -1])

    def test_json_roundtrip(self):
        c = Composition(-2, [1, 0, 3])
        assert c.to_json() == {"lo": -2, "parts": [1, 0, 3]}
        assert Composition.from_json(c.to_json()) == c


class TestPartition:
    def test_trailing_zeros_trimmed(self):
        assert Partition([2, 1, 0, 0]) == Partition([2, 1])
        assert Partition([3, 1, 0, 0]).parts == (3, 1)

    def test_rejects_increase(self):
        with pytest.raises(ValueError, match=re.escape("parts not weakly decreasing: (1, 2)")):
            Partition([1, 2])
        # the sign is checked first, wherever the negative part sits
        with pytest.raises(ValueError, match=re.escape("negative part in (2, -1)")):
            Partition([2, -1])
        with pytest.raises(ValueError, match=re.escape("negative part in (-1, 2)")):
            Partition([-1, 2])

    def test_part_indexing(self):
        p = Partition([3, 1])
        assert p.head_sum(1) == 3
        assert p.head_sum(5) == 4

    def test_json(self):
        assert Partition([3, 1]).to_json() == [3, 1]


class TestTranspose:
    def test_small(self):
        assert transpose([1, 2, 1]).parts == (3, 1)

    def test_row_and_column(self):
        for n in range(1, 7):
            assert transpose([n]).parts == (1,) * n
            assert transpose([1] * n).parts == (n,)

    def test_ignores_order_and_zeros(self):
        assert transpose([0, 3, 0]) == transpose([3])
        assert transpose(Composition(1, [1, 2, 1])) == transpose([2, 1, 1])

    def test_involution_on_partitions(self):
        for n in range(0, 7):
            for mu in partitions_of(n):
                assert mu.transpose().transpose() == mu

    def test_transpose_of_composition_matches_sorted(self):
        for n in range(0, 7):
            for mu in all_compositions(n):
                assert transpose(mu) == transpose(sort_to_partition(mu))


class TestSortToPartition:
    def test_examples(self):
        assert sort_to_partition(Composition(1, [1, 2, 1])) == Partition([2, 1, 1])
        assert sort_to_partition(Composition(0, [0, 3, 0])) == Partition([3])
        assert sort_to_partition(Composition(1, [2, 2])) == Partition([2, 2])


class TestCanonicalShape:
    def test_every_spelling_gives_one_key(self):
        want = Partition([2, 1, 1])
        nu, window = Composition(1, [1, 2, 1]), (1, 3)
        pres = presentation(nu, want)
        family = WeightFamily.unit(nu, window, want)
        for mu in (
            [1, 2, 1],
            (2, 1, 1),
            Partition([2, 1, 1]),
            Composition(3, [1, 0, 1, 2]),
            [0, 1, 1, 2, 0],
            Composition(1, [1, 2, 1]),
        ):
            assert sort_to_partition(mu) == want
            assert presentation(nu, mu) is pres
            assert type(presentation(nu, mu).mu) is Partition
            assert WeightFamily.unit(nu, window, mu) == family

    def test_partition_is_its_own_shape(self):
        mu = Partition([2, 1, 1])
        assert sort_to_partition(mu) is mu

    def test_empty(self):
        assert sort_to_partition([]) == Partition([])
        assert sort_to_partition([0, 0]) == Partition([])


class TestDominates:
    def test_examples(self):
        assert dominates(Partition([3, 1]), Partition([2, 1, 1]))
        assert not dominates(Partition([2, 2]), Partition([3, 1]))
        for lam in partitions_of(5):
            assert dominates(Partition([5]), lam)

    def test_totals_must_match(self):
        with pytest.raises(ValueError):
            dominates(Partition([2]), Partition([2, 1]))

    def test_partial_order(self):
        for n in range(0, 7):
            ps = list(partitions_of(n))
            for a in ps:
                assert dominates(a, a)
            for a, b in itertools.permutations(ps, 2):
                if dominates(a, b) and dominates(b, a):
                    assert a == b
            for a, b, c in itertools.product(ps, repeat=3):
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


class TestDegreeConstants:
    def test_coinvariant_examples(self):
        assert coinvariant_top_degree(Composition(1, [1, 1, 1])) == 6
        assert coinvariant_top_degree(Composition(1, [5])) == 0
        assert coinvariant_top_degree(Composition(1, [1, 2, 1])) == 10

    def test_coinvariant_even_nonnegative(self):
        for n in range(0, 6):
            for nu in all_compositions(n):
                d = coinvariant_top_degree(nu)
                assert d >= 0 and d % 2 == 0

    def test_quotient_examples(self):
        c121 = Composition(1, [1, 2, 1])
        assert quotient_top_degree(c121, c121) == 4
        for n in range(1, 6):
            reg = Composition(1, [1] * n)
            assert quotient_top_degree(reg, reg) == n * (n - 1)
            # single-row mu cuts the quotient down to scalars
            assert quotient_top_degree(reg, Composition(1, [n])) == 0

    def test_quotient_undefined_without_dominance(self):
        with pytest.raises(ValueError):
            quotient_top_degree(Composition(1, [4]), Composition(1, [2, 2]))

    def test_quotient_equals_difference_of_coinvariant_degrees(self):
        # top degree of the mu-quotient is d(nu-shape) - d(transpose(mu)-shape)
        for n in range(0, 6):
            for mu in partitions_of(n):
                lam = mu.transpose()
                gamma = Composition(1, reversed(lam.parts))
                for nu in all_compositions(n):
                    if not dominates(lam, sort_to_partition(nu)):
                        continue
                    expect = coinvariant_top_degree(nu) - coinvariant_top_degree(gamma)
                    mu_c = Composition(1, mu.parts)
                    assert quotient_top_degree(nu, mu_c) == expect

    def test_quotient_invariant_under_rearrangement(self):
        nu = Composition(1, [1, 2, 1])
        for perm in itertools.permutations([1, 2, 1]):
            assert quotient_top_degree(nu, Composition(1, perm)) == 4
            assert quotient_top_degree(Composition(0, perm), nu) == 4
        # replacing mu by a composition with the same transpose
        assert transpose([2, 1, 1]) == transpose([1, 2, 1])
        assert quotient_top_degree(nu, Composition(1, [2, 1, 1])) == 4


class TestEnumeration:
    def test_compositions_of_window_order(self):
        got = list(compositions_of(2, (0, 1)))
        assert got == [Composition(0, [2, 0]), Composition(0, [1, 1]), Composition(0, [0, 2])]

    def test_compositions_of_zero(self):
        got = list(compositions_of(0, (-3, 4)))
        assert got == [Composition(0, [])]

    def test_compositions_counts(self):
        import math

        assert len(list(compositions_of(3, (0, 1)))) == 4
        for n, width in [(3, 3), (4, 2), (5, 3)]:
            got = list(compositions_of(n, (1, width)))
            assert len(got) == math.comb(n + width - 1, width - 1)
            assert len(set(got)) == len(got)

    def test_partitions_of(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert [p.parts for p in partitions_of(0)] == [()]
