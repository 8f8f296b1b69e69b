"""Integer-indexed compositions, partitions, and degree statistics.

A composition here is a finitely supported function from the integers to
the non-negative integers, stored as an offset ``lo`` plus a tuple of
parts.  Leading and trailing zero parts carry no meaning: two compositions
are equal when they agree as functions.  Interior zeros are significant
for block bookkeeping and are kept.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence


class Composition:
    """Finitely supported map from integer indices to non-negative parts.

    ``parts[0]`` sits at absolute index ``lo``.  Instances are immutable
    and hashable; equality ignores leading and trailing zeros.  The hash
    is computed on first use and kept in the ``_hash`` slot, as ``Poly``
    keeps its own: the operator memos hash compositions in every key.
    """

    __slots__ = ("lo", "parts", "n", "_hash")

    def __init__(self, lo: int, parts: Iterable[int]):
        parts = tuple(map(int, parts))
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        # canonical form: strip zero margins, keeping absolute indices
        start, stop = 0, len(parts)
        while start < stop and parts[start] == 0:
            start += 1
        while stop > start and parts[stop - 1] == 0:
            stop -= 1
        object.__setattr__(self, "lo", int(lo) + start if stop > start else 1)
        object.__setattr__(self, "parts", parts[start:stop])
        object.__setattr__(self, "n", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    @property
    def hi(self) -> int:
        """Largest index of the stored part range (``lo - 1`` when empty)."""
        return self.lo + len(self.parts) - 1

    def __getitem__(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.parts[i - self.lo]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Composition):
            return NotImplemented
        return self.lo == other.lo and self.parts == other.parts

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.lo, self.parts))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Composition({self.lo}, {list(self.parts)})"

    def key(self) -> tuple:
        return (self.lo, self.parts)

    def indices(self) -> range:
        """Absolute indices of the stored (trimmed) part range."""
        return range(self.lo, self.hi + 1)

    def partial_sum(self, i: int) -> int:
        """Sum of all parts at indices <= i."""
        if i < self.lo:
            return 0
        if i >= self.hi:
            return self.n
        return sum(self.parts[: i - self.lo + 1])

    def block_range(self, i: int) -> range:
        """1-based variable indices covered by block ``i``.

        Blocks tile ``1..n`` consecutively in index order, the block at
        index ``i`` receiving ``self[i]`` variables.
        """
        stop = self.partial_sum(i)
        return range(stop - self[i] + 1, stop + 1)

    def lower_at(self, i: int) -> "Composition":
        """Move one unit from index ``i`` to ``i + 1``."""
        if self[i] == 0:
            raise ValueError(f"part at index {i} is zero in {self!r}")
        return self._shift(i, -1)

    def raise_at(self, i: int) -> "Composition":
        """Move one unit from index ``i + 1`` to ``i``."""
        if self[i + 1] == 0:
            raise ValueError(f"part at index {i + 1} is zero in {self!r}")
        return self._shift(i, +1)

    def _shift(self, i: int, sign: int) -> "Composition":
        lo = min(self.lo, i)
        hi = max(self.hi, i + 1)
        vals = [self[j] for j in range(lo, hi + 1)]
        vals[i - lo] += sign
        vals[i + 1 - lo] -= sign
        return Composition(lo, vals)

    def refine_at(self, i: int) -> "Composition":
        """Split block ``i`` into a block of size ``self[i] - 1`` plus a singleton.

        In the result the shrunken block keeps index ``i``, the singleton
        sits at ``i + 1``, and every later block shifts up by one.
        """
        m = self[i]
        if m == 0:
            raise ValueError(f"part at index {i} is zero in {self!r}")
        vals = [self[j] for j in range(min(self.lo, i), i)]
        vals += [m - 1, 1]
        vals += [self[j] for j in range(i + 1, self.hi + 1)]
        return Composition(min(self.lo, i), vals)

    def to_json(self) -> dict:
        return {"lo": self.lo, "parts": list(self.parts)}

    @classmethod
    def from_json(cls, data: dict) -> "Composition":
        return cls(data["lo"], data["parts"])


class Partition:
    """Weakly decreasing tuple of positive integers.

    Trailing zeros are accepted on input and trimmed.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable[int]):
        parts = tuple(map(int, parts))
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        if not all(map(operator.ge, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and not parts[-1]:
            parts = parts[: parts.index(0)]  # the zeros are a tail
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def head_sum(self, m: int) -> int:
        """Sum of the first ``m`` parts."""
        return sum(self.parts[:m])

    def transpose(self) -> "Partition":
        return transpose(self.parts)

    def to_json(self) -> list:
        return list(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def transpose(parts: Iterable[int]) -> Partition:
    """Transpose of the partition obtained by sorting the given parts.

    The ``j``-th part counts input parts of size >= ``j``; the input may
    be any composition since the count ignores order.
    """
    parts = [p for p in parts if p > 0]
    if not parts:
        return Partition(())
    return Partition(
        sum(1 for p in parts if p >= j) for j in range(1, max(parts) + 1)
    )


def sort_to_partition(parts: Iterable[int]) -> Partition:
    """The shape of any iterable of parts: positive parts sorted decreasing.

    Accepts a list, tuple, Composition (at any offset) or Partition, so
    every spelling of one shape gives one key; a Partition is returned
    unchanged.
    """
    if isinstance(parts, Partition):
        return parts
    return Partition(sorted((p for p in parts if p > 0), reverse=True))


def dominates(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Dominance order on partitions of the same total: head sums never smaller."""
    la = list(lam)
    mb = list(mu)
    if sum(la) != sum(mb):
        raise ValueError("dominance needs equal totals")
    acc_l = acc_m = 0
    for m in range(max(len(la), len(mb))):
        acc_l += la[m] if m < len(la) else 0
        acc_m += mb[m] if m < len(mb) else 0
        if acc_l < acc_m:
            return False
    return True


def coinvariant_top_degree(nu: Composition) -> int:
    """Top cohomological degree of the full graded quotient for ``nu``."""
    n = nu.n
    return n * (n - 1) - sum(p * (p - 1) for p in nu.parts)


def quotient_top_degree(nu: Composition, mu: Iterable[int]) -> int:
    """Top cohomological degree of the graded quotient cut out by ``mu``.

    Defined only when ``transpose(mu)`` dominates the sorted rearrangement
    of ``nu``; outside that range the quotient is the zero algebra and a
    ValueError is raised.
    """
    lam = transpose(mu)
    if not dominates(lam, sort_to_partition(nu)):
        raise ValueError("quotient is zero: transpose(mu) does not dominate nu")
    return sum(q * (q - 1) for q in lam) - sum(p * (p - 1) for p in nu.parts)


def compositions_of(total: int, window: Sequence[int]) -> Iterator[Composition]:
    """All compositions of ``total`` supported on ``window = (lo, hi)``.

    Ordered reverse-lexicographically: the part at ``lo`` decreases first.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError("empty window")
    width = hi - lo + 1

    def gen(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in gen(remaining - first, slots - 1):
                yield (first,) + rest

    for parts in gen(int(total), width):
        yield Composition(lo, parts)


def partitions_of(total: int) -> Iterator[Partition]:
    """Partitions of ``total`` in reverse-lexicographic order."""

    def gen(remaining: int, bound: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(int(total), int(total)):
        yield Partition(parts)
