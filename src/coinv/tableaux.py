"""Tableau enumeration, Kostka numbers, and Kostka-Foulkes polynomials.

Tableaux are stored in the standard orientation: rows listed top to
bottom, entries weakly increase along rows (when the row condition is in
force) and strictly increase down columns.  Sources that grow columns in
the opposite direction describe the same objects with each column
flipped; all counts here are orientation-independent.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .shapes import Composition, Partition, sort_to_partition


class IntPoly:
    """Polynomial in one variable t with non-negative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = [int(c) for c in coeffs]
        if any(c < 0 for c in coeffs):
            raise ValueError(f"negative coefficient in {coeffs}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPoly":
        return cls([0] * power + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            return None
        return len(self.coeffs) - 1

    def coeff(self, r: int) -> int:
        if 0 <= r < len(self.coeffs):
            return self.coeffs[r]
        return 0

    def evaluate(self, t: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for r, c in enumerate(b):
            out[r] += c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for r, c in enumerate(self.coeffs):
            if not c:
                continue
            if r == 0:
                bits.append(str(c))
            elif r == 1:
                bits.append("t" if c == 1 else f"{c}*t")
            else:
                bits.append(f"t^{r}" if c == 1 else f"{c}*t^{r}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return list(self.coeffs)


class Tableau:
    """A filling of a partition shape, rows stored top to bottom."""

    __slots__ = ("shape", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        shape = Partition([len(row) for row in rows])
        if tuple(len(r) for r in rows if r) != shape.parts:
            raise ValueError("rows must have weakly decreasing positive lengths")
        object.__setattr__(self, "rows", tuple(r for r in rows if r))
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def entry(self, r: int, c: int) -> int:
        """Entry in row r, column c (both 1-based)."""
        return self.rows[r - 1][c - 1]

    def content(self) -> Composition:
        values = [v for row in self.rows for v in row]
        if not values:
            return Composition(1, [])
        lo = min(values)
        counts = [0] * (max(values) - lo + 1)
        for v in values:
            counts[v - lo] += 1
        return Composition(lo, counts)

    def is_column_strict(self) -> bool:
        for r in range(1, len(self.rows)):
            for c in range(len(self.rows[r])):
                if self.rows[r][c] <= self.rows[r - 1][c]:
                    return False
        return True

    def is_row_weak(self) -> bool:
        return all(
            row[c] <= row[c + 1] for row in self.rows for c in range(len(row) - 1)
        )

    def row_word(self) -> tuple:
        """Reading word: rows from last to first, each left to right."""
        out = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]})"

    def to_json(self) -> list:
        return [list(r) for r in self.rows]


# ----------------------------------------------------------------------
# column-strict fillings via one strict column per column of the shape


def _column_lengths(lam: Partition) -> list:
    return list(lam.transpose().parts)


def _support_and_counts(nu: Composition) -> tuple:
    support = [i for i in nu.indices() if nu[i] > 0]
    return support, tuple(nu[i] for i in support)


def count_column_strict(lam: Partition, nu: Composition) -> int:
    """Fillings of the shape with content ``nu``, strict down columns only.

    Counted column by column: each column of the shape independently
    carries a strictly increasing filling, i.e. a subset of the alphabet,
    and the subsets must jointly use entry i exactly ``nu[i]`` times.
    """
    if lam.n != nu.n:
        return 0
    cols = _column_lengths(lam)
    support, counts = _support_and_counts(nu)
    if not cols:
        return 1 if nu.n == 0 else 0
    states = {counts: 1}
    for length in cols:
        new: dict = {}
        for state, ways in states.items():
            avail = [j for j, c in enumerate(state) if c > 0]
            for combo in itertools.combinations(avail, length):
                nxt = list(state)
                for j in combo:
                    nxt[j] -= 1
                key = tuple(nxt)
                new[key] = new.get(key, 0) + ways
        states = new
        if not states:
            return 0
    return states.get((0,) * len(support), 0)


def enumerate_column_strict(lam: Partition, nu: Composition) -> list:
    """All column-strict fillings counted by count_column_strict.

    Returned sorted lexicographically by row-major entry sequence.
    """
    if lam.n != nu.n:
        return []
    cols = _column_lengths(lam)
    support, counts = _support_and_counts(nu)
    if not cols:
        return [Tableau([])] if nu.n == 0 else []

    results = []

    def fill(c: int, remaining: list, chosen: list):
        if c == len(cols):
            if any(remaining):
                return
            n_rows = max(len(s) for s in chosen)
            rows = [
                [chosen[j][r] for j in range(len(chosen)) if len(chosen[j]) > r]
                for r in range(n_rows)
            ]
            results.append(Tableau(rows))
            return
        length = cols[c]
        avail = [j for j, k in enumerate(remaining) if k > 0]
        for combo in itertools.combinations(avail, length):
            for j in combo:
                remaining[j] -= 1
            chosen.append(tuple(support[j] for j in combo))
            fill(c + 1, remaining, chosen)
            chosen.pop()
            for j in combo:
                remaining[j] += 1

    fill(0, list(counts), [])
    results.sort(key=lambda t: tuple(v for row in t.rows for v in row))
    return results


# ----------------------------------------------------------------------
# semistandard tableaux and Kostka numbers by horizontal-strip growth


def _horizontal_extensions(shape: tuple, size: int, bound: tuple) -> Iterator[tuple]:
    """Shapes obtained by adding a horizontal strip of the given size.

    ``bound`` caps the result componentwise (the target shape).
    """
    rows = len(bound)

    def grow(row: int, left: int, acc: tuple) -> Iterator[tuple]:
        if row == rows:
            if left == 0:
                yield acc
            return
        cur = shape[row] if row < len(shape) else 0
        hi = bound[row]
        if row > 0:
            hi = min(hi, acc[row - 1])
        # no two added boxes in a column: new row stops at old previous row
        if row > 0:
            prev_old = shape[row - 1] if row - 1 < len(shape) else 0
            hi = min(hi, prev_old)
        if cur > hi:
            return
        for new in range(cur, min(hi, cur + left) + 1):
            yield from grow(row + 1, left - (new - cur), acc + (new,))

    yield from grow(0, size, ())


def kostka(lam: Partition, nu: Composition) -> int:
    """Semistandard fillings of the shape with content ``nu``.

    Grown entry by entry: the boxes holding the i-th smallest entry form
    a horizontal strip.
    """
    if lam.n != nu.n:
        return 0
    target = lam.parts
    states = {(): 1}
    for i in [j for j in nu.indices() if nu[j] > 0]:
        size = nu[i]
        new: dict = {}
        for shape, ways in states.items():
            for ext in _horizontal_extensions(shape, size, target):
                trimmed = tuple(p for p in ext if p)
                new[trimmed] = new.get(trimmed, 0) + ways
        states = new
        if not states:
            return 0
    return states.get(target, 0)


def enumerate_semistandard(lam: Partition, nu: Composition) -> list:
    """All semistandard fillings of the shape with content ``nu``.

    Grown one letter at a time, like ``kostka``: the boxes holding the
    i-th smallest entry form a horizontal strip of size ``nu[i]``, and
    each strip appends that entry to the rows it extends.  Returned
    sorted lexicographically by row-major entry sequence, the order of
    ``enumerate_column_strict``.
    """
    if lam.n != nu.n:
        return []
    target = lam.parts
    letters = [i for i in nu.indices() if nu[i] > 0]
    results = []

    def grow(k: int, shape: tuple, rows: list):
        if k == len(letters):
            results.append(Tableau(rows))
            return
        i = letters[k]
        for ext in _horizontal_extensions(shape, nu[i], target):
            grow(
                k + 1,
                ext,
                [row + [i] * (new - old) for row, old, new in zip(rows, shape, ext)],
            )

    grow(0, (0,) * len(target), [[] for _ in target])
    results.sort(key=lambda t: tuple(v for row in t.rows for v in row))
    return results


# ----------------------------------------------------------------------
# charge


def _standard_charge(word: Sequence[int]) -> int:
    """Charge of a word using each of 1..m exactly once."""
    pos = {v: i for i, v in enumerate(word)}
    index = 0
    total = 0
    for v in range(2, len(word) + 1):
        if pos[v] > pos[v - 1]:
            index += 1
        total += index
    return total


def charge(t: Tableau) -> int:
    """Charge statistic of the reading word; needs partition content."""
    word = list(t.row_word())
    content = t.content()
    if content.parts and (
        content.lo != 1
        or any(content.parts[j] < content.parts[j + 1] for j in range(len(content.parts) - 1))
    ):
        raise ValueError("charge needs content forming a partition on 1..m")
    total = 0
    while word:
        m = max(word)
        # extract one standard subword scanning right to left, cyclically
        picked = {}
        start = len(word) - 1
        for v in range(1, m + 1):
            i = start
            found = None
            for _ in range(len(word)):
                if word[i] == v and i not in picked:
                    found = i
                    break
                i = (i - 1) % len(word)
            if found is None:
                raise ValueError("content is not a partition")
            picked[found] = v
            start = (found - 1) % len(word)
        sub = [word[i] for i in sorted(picked)]
        total += _standard_charge(sub)
        word = [w for i, w in enumerate(word) if i not in picked]
    return total


def kostka_foulkes(tau: Partition, mu: Composition) -> IntPoly:
    """Graded Kostka refinement: sum of t^charge over semistandard fillings.

    The content composition is sorted first; the polynomial only depends
    on the sorted content.  The fillings come from
    ``enumerate_semistandard``, grown by one horizontal strip per letter;
    their order does not affect the sum.
    """
    mu_sorted = sort_to_partition(mu)
    content = Composition(1, mu_sorted.parts)
    coeffs: dict = {}
    for t in enumerate_semistandard(tau, content):
        c = charge(t)
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPoly()
    out = [0] * (max(coeffs) + 1)
    for c, k in coeffs.items():
        out[c] = k
    return IntPoly(out)
