"""Tableau enumeration, Kostka numbers, and Kostka-Foulkes polynomials.

Tableaux are stored in the standard orientation: rows listed top to
bottom, entries weakly increase along rows (when the row condition is in
force) and strictly increase down columns.  Sources that grow columns in
the opposite direction describe the same objects with each column
flipped; all counts here are orientation-independent.

Two memos, both ``functools.lru_cache``, share work across requests in
one process:

- ``_horizontal_extensions(shape, size, target)``: the shapes reached by
  adding a horizontal strip.  ``kostka``, ``enumerate_semistandard`` and
  ``kostka_foulkes`` grow their fillings one strip per letter through
  it, with every shape zero-padded to the length of the target, so
  requests for the same target shape share entries.
- ``_column_strict_completions(cols, counts)``: the number of ways to
  fill the remaining columns.  A column-strict filling is one set of
  distinct letters per column, and no condition links the letters of
  different columns.  Renaming letters maps such fillings one to one
  onto fillings with the counts permuted alike, so the number of
  completions depends only on the multiset of remaining letter counts;
  the state keeps them sorted in decreasing order with zeros dropped.
  ``kostka`` does not sort its content: the row condition ties a letter
  to the ones before it, and that its count is still symmetric in the
  content is a theorem the tests check.

Both enumerators place one letter at a time, in increasing order.
``enumerate_semistandard`` adds a horizontal strip per letter, as
``kostka`` does.  ``enumerate_column_strict`` gives each letter the next
free cell of as many distinct columns as its count, so every column
increases strictly by construction and the search is as deep as the
number of letters, not the number of columns; it never sorts the
content, which keeps it a route to the count independent of the memo.
Both sort their fillings with plain tuple comparison on the tuples of
rows: all fillings of one shape have the same row lengths, so that is
the lexicographic order of the row-major entry sequences.

Each request first asks ``_vanishes`` whether it has any filling at all:
it has none exactly when the shape does not dominate the sorted content
(see there), and then it is answered before any strip is grown or any
letter placed.  The enumerators build each ``Tableau``
through ``Tableau._clean``, with the shape they were asked for and the
row tuples as grown, and skip the checks of ``Tableau(rows)``; the
public constructor, which the CLI, JSON input and the tests use, keeps
all of them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .shapes import Composition, Partition, dominates, sort_to_partition


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
    """A filling of a partition shape, rows stored top to bottom.

    Slots are set through their member descriptors (``_set_rows`` and
    ``_set_shape`` below the class), which bypass the refusing
    ``__setattr__`` more cheaply than ``object.__setattr__`` does.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        shape = Partition([len(row) for row in rows])
        _set_rows(self, tuple(r for r in rows if r))
        _set_shape(self, shape)

    @classmethod
    def _clean(cls, shape: Partition, rows: tuple) -> "Tableau":
        """The enumerators' path, with no checks: the caller promises that
        ``rows`` is a tuple of non-empty int tuples whose lengths are the
        parts of ``shape``."""
        t = object.__new__(cls)
        _set_rows(t, rows)
        _set_shape(t, shape)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def content(self) -> Composition:
        values = [v for row in self.rows for v in row]
        if not values:
            return Composition(1, [])
        lo = min(values)
        counts = [0] * (max(values) - lo + 1)
        for v in values:
            counts[v - lo] += 1
        return Composition(lo, counts)

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


_set_rows = Tableau.rows.__set__
_set_shape = Tableau.shape.__set__


# ----------------------------------------------------------------------
# column-strict fillings: counted column by column, grown letter by letter


def _column_lengths(lam: Partition) -> tuple:
    return lam.transpose().parts


def _vanishes(lam: Partition, nu: Composition) -> bool:
    """Whether no filling of shape ``lam`` has content ``nu``, of either kind.

    Semistandard: ``K_{lam nu} != 0`` exactly when ``lam`` dominates the
    sorted content (Macdonald I.7).  Column-strict: a filling is a 0-1
    matrix with a row per letter, summing to ``nu``, and a column per
    column of the shape, summing to ``lam'``; by Gale-Ryser such a matrix
    exists exactly when ``lam'' = lam`` dominates the sorted ``nu``.  So
    one test decides both, and it is exact: no answer changes.
    """
    return lam.n != nu.n or not dominates(lam.parts, sorted(nu.parts, reverse=True))


def count_column_strict(lam: Partition, nu: Composition) -> int:
    """Fillings of the shape with content ``nu``, strict down columns only.

    Counted column by column: each column of the shape carries a set of
    distinct letters, and the sets must jointly use entry i exactly
    ``nu[i]`` times.  The count depends only on the multiset of the
    letter counts (see the module docstring).
    """
    if _vanishes(lam, nu):
        return 0
    counts = sorted((nu[i] for i in nu.indices() if nu[i] > 0), reverse=True)
    return _column_strict_completions(_column_lengths(lam), tuple(counts))


# Unbounded: its keys are a suffix of a shape's column lengths and a sorted
# multiset of letter counts, so it grows with the sizes asked for, not with
# the requests.  One charge-tables pass leaves 360 entries, which is every
# request of size 8; every request of size at most 8 (the CLI's cap) leaves
# 491.  The largest single request at n = 8, (8,) with counts 4,2,1,1,
# adds 26; no CLI command counts column-strict fillings at n = 8.
@lru_cache(maxsize=None)
def _column_strict_completions(cols: tuple, counts: tuple) -> int:
    """Ways to fill columns of lengths ``cols`` with sets of distinct letters.

    ``counts`` holds how often each letter is still to be used, in
    decreasing order with zeros dropped; the first column takes one of
    each of ``cols[0]`` letters.
    """
    if not cols:
        return 0 if counts else 1
    if counts[0] > len(cols):
        return 0  # a letter appears at most once in each column
    length, rest = cols[0], cols[1:]
    total = 0
    for combo in itertools.combinations(range(len(counts)), length):
        left = list(counts)
        for j in combo:
            left[j] -= 1
        total += _column_strict_completions(
            rest, tuple(sorted((c for c in left if c), reverse=True))
        )
    return total


def enumerate_column_strict(lam: Partition, nu: Composition) -> list:
    """All column-strict fillings counted by count_column_strict.

    Grown one letter at a time, in increasing order: letter ``v`` takes
    the next free cell of ``nu[v]`` distinct columns that still have
    room, so every column increases strictly down by construction and
    each filling is reached once.  The content is never sorted, so this
    is a route to the count independent of ``count_column_strict``.
    Returned sorted lexicographically by row-major entry sequence.
    """
    if _vanishes(lam, nu):
        return []
    cols = _column_lengths(lam)
    letters = [(v, nu[v]) for v in nu.indices() if nu[v] > 0]
    rows = [[0] * k for k in lam.parts]
    height = [0] * len(cols)
    found = []

    def place(k: int):
        if k == len(letters):
            # the letters took n cells, one per cell of the shape: all are full
            found.append(tuple(map(tuple, rows)))
            return
        v, count = letters[k]
        room = [c for c in range(len(cols)) if height[c] < cols[c]]
        for combo in itertools.combinations(room, count):
            for c in combo:
                rows[height[c]][c] = v
                height[c] += 1
            place(k + 1)
            for c in combo:
                height[c] -= 1

    place(0)
    # the fillings share their row lengths, so comparing tuples of rows
    # compares the row-major entry sequences
    found.sort()
    return [Tableau._clean(lam, rows) for rows in found]


# ----------------------------------------------------------------------
# semistandard tableaux and Kostka numbers by horizontal-strip growth


# Unbounded: its keys are a shape inside the target, a strip size and the
# target, so it grows with the sizes asked for, not with the requests.  One
# charge-tables pass (seed 1) leaves 1 278 entries; every request of size
# at most 8 (the CLI's cap), in every order of its letters, leaves 2 107.
# No single n = 8 request (``kostka``, ``kf`` or ``tableaux --kind
# semistandard``, any content) leaves more than 25, which shape 4,2,1,1
# with content 1^8 reaches.
@lru_cache(maxsize=None)
def _horizontal_extensions(shape: tuple, size: int, bound: tuple) -> tuple:
    """Shapes obtained by adding a horizontal strip of ``size`` boxes.

    ``bound`` is the target shape and caps the result row by row; both
    ``shape`` and the results are zero-padded to its length, so equal
    shapes share one memo entry.
    """
    out = []

    def grow(row: int, left: int, acc: tuple):
        if row == len(bound):
            if left == 0:
                out.append(acc)
            return
        cur = shape[row]
        hi = bound[row]
        if row > 0:
            # no two added boxes in a column: the row stops at the old row above
            hi = min(hi, shape[row - 1])
        for new in range(cur, min(hi, cur + left) + 1):
            grow(row + 1, left - (new - cur), acc + (new,))

    grow(0, size, ())
    return tuple(out)


def kostka(lam: Partition, nu: Composition) -> int:
    """Semistandard fillings of the shape with content ``nu``.

    Grown entry by entry, in the order of the content: the boxes holding
    the i-th smallest entry form a horizontal strip.
    """
    if _vanishes(lam, nu):
        return 0
    target = lam.parts
    states = {(0,) * len(target): 1}
    for i in [j for j in nu.indices() if nu[j] > 0]:
        new: dict = {}
        for shape, ways in states.items():
            for ext in _horizontal_extensions(shape, nu[i], target):
                new[ext] = new.get(ext, 0) + ways
        states = new
    return states.get(target, 0)


def _semistandard_rows(lam: Partition, nu: Composition) -> list:
    """Row tuples of the semistandard fillings, unsorted.

    Grown one letter at a time, like ``kostka``: the boxes holding the
    i-th smallest entry form a horizontal strip of size ``nu[i]``, and
    each strip appends that entry to the rows it extends.
    """
    if _vanishes(lam, nu):
        return []
    target = lam.parts
    letters = [i for i in nu.indices() if nu[i] > 0]
    results = []

    def grow(k: int, shape: tuple, rows: tuple):
        if k == len(letters):
            results.append(rows)
            return
        i = letters[k]
        for ext in _horizontal_extensions(shape, nu[i], target):
            grow(
                k + 1,
                ext,
                tuple(row + (i,) * (new - old) for row, old, new in zip(rows, shape, ext)),
            )

    grow(0, (0,) * len(target), ((),) * len(target))
    return results


def enumerate_semistandard(lam: Partition, nu: Composition) -> list:
    """All semistandard fillings of the shape with content ``nu``.

    Returned sorted lexicographically by row-major entry sequence, the
    order of ``enumerate_column_strict``, by the same tuple comparison.
    """
    found = _semistandard_rows(lam, nu)
    found.sort()
    return [Tableau._clean(lam, rows) for rows in found]


# ----------------------------------------------------------------------
# charge


def _word_charge(word: list) -> int:
    """Charge of a word whose content is a partition on 1..m; consumes ``word``.

    Standard subwords are taken out one at a time: the rightmost 1, then
    the nearest 2 to its left, wrapping round to the right end when there
    is none, and so on up to the largest letter left.  The index of a
    letter is the number of wraps so far, and the charge is the sum of
    all indices.  Partition content guarantees every letter up to the
    largest is present in each round.
    """
    total = 0
    while word:
        pos = len(word)
        index = 0
        for v in range(1, max(word) + 1):
            i = pos - 1
            while i >= 0 and word[i] != v:
                i -= 1
            if i < 0:
                index += 1
                i = len(word) - 1
                while word[i] != v:
                    i -= 1
            total += index
            word[i] = 0
            pos = i
        word = [w for w in word if w]
    return total


def charge(t: Tableau) -> int:
    """Charge statistic of the reading word; needs partition content."""
    content = t.content()
    if content.parts and (
        content.lo != 1
        or any(content.parts[j] < content.parts[j + 1] for j in range(len(content.parts) - 1))
    ):
        raise ValueError("charge needs content forming a partition on 1..m")
    return _word_charge(list(t.row_word()))


def kostka_foulkes(tau: Partition, mu: Iterable[int]) -> IntPoly:
    """Graded Kostka refinement: sum of t^charge over semistandard fillings.

    The content composition is sorted first; the polynomial only depends
    on the sorted content.  The charge is taken of the reading word of
    each filling's rows as strip growth builds them; their order does not
    affect the sum.
    """
    content = Composition(1, sort_to_partition(mu).parts)
    coeffs: dict = {}
    for rows in _semistandard_rows(tau, content):
        c = _word_charge([v for row in reversed(rows) for v in row])
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPoly()
    out = [0] * (max(coeffs) + 1)
    for c, k in coeffs.items():
        out[c] = k
    return IntPoly(out)
