import math
import random
import time

import pytest

from coinv.shapes import Composition, Partition, compositions_of, dominates, partitions_of, sort_to_partition
from coinv.tableaux import (
    IntPoly,
    Tableau,
    _vanishes,
    charge,
    count_column_strict,
    enumerate_column_strict,
    enumerate_semistandard,
    kostka,
    kostka_foulkes,
)

from reference import brute_force_fillings, is_column_strict, is_row_weak, lusztig_kostka_foulkes


def comps(n, width=None):
    seen = set()
    for c in compositions_of(n, (1, width or max(n, 1))):
        if c not in seen:
            seen.add(c)
            yield c


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_div(a, b):
    """Quotient of integer polynomials by a monic divisor; asserts no remainder."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1]
        for j, y in enumerate(b):
            a[k + j] -= q[k] * y
    assert not any(a), "division not exact"
    return q


class TestIntPoly:
    def test_trim_and_zero(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero
        assert IntPoly().degree() is None

    def test_arithmetic(self):
        a = IntPoly([1, 1])
        b = IntPoly([0, 2, 3])
        assert (a + b).coeffs == (1, 3, 3)
        assert (a * b).coeffs == (0, 2, 5, 3)

    def test_evaluate(self):
        p = IntPoly([1, 0, 2])
        assert p.evaluate(1) == 3
        assert p.evaluate(2) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IntPoly([1, -1])

    def test_monomial_and_json(self):
        assert IntPoly.monomial(3).coeffs == (0, 0, 0, 1)
        assert IntPoly([1, 0, 2]).to_json() == [1, 0, 2]

    def test_str(self):
        assert str(IntPoly([1, 0, 2])) == "1 + 2*t^2"
        assert str(IntPoly()) == "0"


class TestTableau:
    def test_basic(self):
        t = Tableau([[1, 1, 2], [3]])
        assert t.shape == Partition([3, 1])
        assert t.content() == Composition(1, [2, 1, 1])
        assert is_column_strict(t) and is_row_weak(t)
        assert t.row_word() == (3, 1, 1, 2)
        assert t.to_json() == [[1, 1, 2], [3]]

    def test_violations(self):
        assert not is_column_strict(Tableau([[1, 2], [1]]))
        assert not is_row_weak(Tableau([[2, 1]]))

    def test_bad_row_lengths(self):
        # the row lengths are checked as a partition
        for rows in ([[1], [2, 3]], [[], [1]]):
            with pytest.raises(ValueError, match="parts not weakly decreasing"):
                Tableau(rows)
        # trailing empty rows are zero parts and are dropped
        assert Tableau([[1, 2], []]) == Tableau([[1, 2]])


class TestCountColumnStrict:
    def test_example_shape_31(self):
        assert count_column_strict(Partition([3, 1]), Composition(1, [1, 2, 1])) == 5

    def test_single_column(self):
        for n in range(1, 6):
            lam = Partition([1] * n)
            nu = Composition(1, [1] * n)
            assert count_column_strict(lam, nu) == 1

    def test_single_row(self):
        for n in range(1, 6):
            lam = Partition([n])
            nu = Composition(1, [1] * n)
            assert count_column_strict(lam, nu) == math.factorial(n)

    def test_mismatched_total(self):
        assert count_column_strict(Partition([2]), Composition(1, [1])) == 0

    def test_empty(self):
        assert count_column_strict(Partition([]), Composition(1, [])) == 1


class TestEnumerate:
    def test_tiny(self):
        got = enumerate_column_strict(Partition([1]), Composition(1, [1]))
        assert got == [Tableau([[1]])]

    def test_two_singleton_columns(self):
        got = enumerate_column_strict(Partition([2]), Composition(1, [2]))
        assert got == [Tableau([[1, 1]])]

    def test_example_shape_31(self):
        got = enumerate_column_strict(Partition([3, 1]), Composition(1, [1, 2, 1]))
        assert len(got) == 5
        assert all(is_column_strict(t) for t in got)
        assert all(t.content() == Composition(1, [1, 2, 1]) for t in got)
        keys = [tuple(v for row in t.rows for v in row) for t in got]
        assert keys == sorted(keys)

    def test_matches_count(self):
        # enumeration never sorts the content, so it is an independent
        # route to the count, which works on sorted letter counts
        for n in range(0, 6):
            windows = [(1, max(n, 1))] + [(lo, lo + n) for lo in (-2, 0, 3)]
            for window in windows:
                for lam in partitions_of(n):
                    for nu in compositions_of(n, window):
                        got = enumerate_column_strict(lam, nu)
                        assert len(got) == count_column_strict(lam, nu), (lam, nu)
                        assert len(set(got)) == len(got)


class TestBruteForceCounts:
    def test_counts_match_brute_force(self):
        # every arrangement of the content in the boxes, filtered by the
        # definitions; about 0.4 s on a 2-core host, zero answers included
        started = time.perf_counter()
        pairs = [
            (lam, nu)
            for n in range(0, 6)
            for lam in partitions_of(n)
            for nu in compositions_of(n, (-1, n - 1))
        ]
        pairs += [(lam, Composition(1, mu.parts)) for lam in partitions_of(6) for mu in partitions_of(6)]
        zeros = 0
        for lam, nu in pairs:
            cs, ss = brute_force_fillings(lam, nu)
            zeros += cs == 0
            assert count_column_strict(lam, nu) == cs, (lam, nu)
            assert len(enumerate_column_strict(lam, nu)) == cs, (lam, nu)
            assert kostka(lam, nu) == ss, (lam, nu)
            assert len(enumerate_semistandard(lam, nu)) == ss, (lam, nu)
        assert zeros and zeros < len(pairs)
        assert time.perf_counter() - started < 10

    def test_vanishing_rule_matches_brute_force(self):
        # the enumerators answer 0 on their own, so a rule that misses zero
        # requests shows only here; permuted contents such as lam = (2, 2),
        # nu = (1, 3) included, and sizes that differ
        assert _vanishes(Partition([2, 2]), Composition(1, [1, 3]))
        for n in range(1, 6):
            for lam in partitions_of(n):
                for m in range(1, 6):
                    for nu in comps(m):
                        cs, ss = brute_force_fillings(lam, nu)
                        assert _vanishes(lam, nu) == (cs == 0) == (ss == 0), (lam, nu)


class TestEnumerateAtSeven:
    """The sizes the benchmark runs: every shape of 7 against every content
    of 7 with at most four letters, each in a seeded random order, plus one
    content with an offset and an interior zero."""

    @staticmethod
    def _contents():
        rng = random.Random(7)
        out = [
            Composition(1, rng.sample(mu.parts, len(mu.parts)))
            for mu in partitions_of(7)
            if len(mu.parts) <= 4
        ]
        out.append(Composition(-2, [2, 0, 1, 3, 1]))
        return out

    def _check(self, enumerate_fn, count_fn, condition):
        started = time.perf_counter()
        total = 0
        for nu in self._contents():
            for lam in partitions_of(7):
                got = enumerate_fn(lam, nu)
                assert len(got) == count_fn(lam, nu), (lam, nu)
                assert len(set(got)) == len(got), (lam, nu)
                keys = [tuple(v for row in t.rows for v in row) for t in got]
                assert all(a < b for a, b in zip(keys, keys[1:])), (lam, nu)
                for t in got:
                    checked = Tableau(t.rows)
                    assert t == checked and checked.shape == lam, t
                    assert checked.content() == nu and condition(checked), t
                total += len(got)
        assert total
        return time.perf_counter() - started

    def test_column_strict(self):
        # 3 879 fillings, 107 requests with none; about 0.05 s on a 2-core host
        assert self._check(enumerate_column_strict, count_column_strict, is_column_strict) < 10

    def test_semistandard(self):
        def semistandard(t):
            return is_column_strict(t) and is_row_weak(t)

        # 138 fillings
        assert self._check(enumerate_semistandard, kostka, semistandard) < 10


class TestTrustedConstruction:
    def test_enumerated_tableaux_revalidate(self):
        # the enumerators skip Tableau's checks; every result must pass them
        for n in range(0, 7):
            for nu in comps(n):
                for lam in partitions_of(n):
                    for t in enumerate_column_strict(lam, nu) + enumerate_semistandard(lam, nu):
                        checked = Tableau(t.rows)
                        assert t == checked and hash(t) == hash(checked), t
                        assert t.shape == lam and t.content() == nu, (t, lam, nu)


class TestEnumerateSemistandard:
    def test_matches_column_strict_filter(self):
        # reference route: the definition, with the order included
        for n in range(0, 6):
            windows = [(1, max(n, 1))] + [(lo, lo + n) for lo in (-2, 0, 3)]
            for window in windows:
                for lam in partitions_of(n):
                    for nu in compositions_of(n, window):
                        want = [
                            t for t in enumerate_column_strict(lam, nu) if is_row_weak(t)
                        ]
                        assert enumerate_semistandard(lam, nu) == want, (lam, nu)


class TestKostka:
    def test_examples(self):
        assert kostka(Partition([3, 1]), Composition(1, [1, 2, 1])) == 2
        assert kostka(Partition([1, 1]), Composition(1, [2])) == 0
        for n in range(1, 6):
            for lam in partitions_of(n):
                assert kostka(lam, Composition(1, lam.parts)) == 1

    def test_brute_force_oracle(self):
        for n in range(0, 5):
            for lam in partitions_of(n):
                for nu in comps(n):
                    brute = len(enumerate_semistandard(lam, nu))
                    assert kostka(lam, nu) == brute

    def test_bounded_by_column_strict(self):
        for n in range(0, 5):
            for lam in partitions_of(n):
                for nu in comps(n):
                    assert kostka(lam, nu) <= count_column_strict(lam, nu)

    def test_content_rearrangement_invariance(self):
        for n in range(0, 5):
            for lam in partitions_of(n):
                for nu in comps(n):
                    sorted_nu = Composition(1, sort_to_partition(nu).parts)
                    assert kostka(lam, nu) == kostka(lam, sorted_nu)
                    assert count_column_strict(lam, nu) == count_column_strict(lam, sorted_nu)

    def test_nonzero_iff_dominates(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for nu in comps(n):
                    nz = kostka(lam, nu) != 0
                    assert nz == dominates(lam, sort_to_partition(nu))


class TestCharge:
    def test_single_row(self):
        for n in range(1, 6):
            t = Tableau([list(range(1, n + 1))])
            assert charge(t) == n * (n - 1) // 2

    def test_single_column(self):
        t = Tableau([[1], [2], [3], [4]])
        assert charge(t) == 0

    def test_needs_partition_content(self):
        with pytest.raises(ValueError):
            charge(Tableau([[2, 2], [3]]))


class TestKostkaFoulkes:
    def test_diagonal(self):
        for n in range(1, 6):
            for tau in partitions_of(n):
                assert kostka_foulkes(tau, Composition(1, tau.parts)) == IntPoly([1])

    def test_single_row_content_regular(self):
        for n in range(1, 6):
            got = kostka_foulkes(Partition([n]), Composition(1, [1] * n))
            assert got == IntPoly.monomial(n * (n - 1) // 2)

    def test_frozen_small_values(self):
        assert kostka_foulkes(Partition([2, 1]), Composition(1, [1, 1, 1])) == IntPoly([0, 1, 1])
        assert kostka_foulkes(Partition([2, 2]), Composition(1, [1, 1, 1, 1])) == IntPoly(
            [0, 0, 1, 0, 1]
        )
        assert kostka_foulkes(Partition([3, 1]), Composition(1, [2, 1, 1])) == IntPoly([0, 1, 1])
        assert kostka_foulkes(Partition([2, 2]), Composition(1, [2, 1, 1])) == IntPoly([0, 1])

    def test_t_equals_one_gives_kostka(self):
        for n in range(0, 5):
            for tau in partitions_of(n):
                for mu in comps(n):
                    kf = kostka_foulkes(tau, mu)
                    assert kf.evaluate(1) == kostka(tau, mu)

    def test_standard_content_hook_formula(self):
        # t^{n(lam')} [n]_t! / prod over boxes of [h(x)]_t (Macdonald III.6, Ex. 2)
        for n in range(0, 8):
            for lam in partitions_of(n):
                cols = lam.transpose().parts
                num = [0] * sum((j - 1) * c for j, c in enumerate(cols, 1)) + [1]
                for k in range(1, n + 1):
                    num = _mul(num, [1] * k)
                for r, row in enumerate(lam.parts):
                    for c in range(row):
                        hook = row - c + cols[c] - r - 1
                        num = _exact_div(num, [1] * hook)
                assert kostka_foulkes(lam, Composition(1, [1] * n)) == IntPoly(num), lam

    def test_matches_validated_charge_sum(self):
        # the public charge re-reads each Tableau and checks its content
        for n in range(0, 8):
            for tau in partitions_of(n):
                for mu in partitions_of(n):
                    coeffs = [0] * (n * (n - 1) // 2 + 1)
                    for t in enumerate_semistandard(tau, Composition(1, mu.parts)):
                        coeffs[charge(t)] += 1
                    assert kostka_foulkes(tau, Composition(1, mu.parts)) == IntPoly(coeffs), (
                        tau, mu,
                    )

    def test_matches_lusztig_q_analogue(self):
        # a route with no charge in it; about 0.35 s on a 2-core host
        started = time.perf_counter()
        zeros = 0
        for n in range(0, 8):
            for tau in partitions_of(n):
                for mu in partitions_of(n):
                    want = lusztig_kostka_foulkes(tau.parts, mu.parts)
                    zeros += not want
                    assert kostka_foulkes(tau, mu.parts).coeffs == want, (tau, mu)
        assert zeros == 201
        assert time.perf_counter() - started < 10

    def test_content_sorted_first(self):
        a = kostka_foulkes(Partition([3, 1]), Composition(1, [1, 2, 1]))
        b = kostka_foulkes(Partition([3, 1]), Composition(1, [2, 1, 1]))
        assert a == b
