"""Answer checks that share no code with the package under test.

Every function here works on plain integers, tuples and lists, so a
defect in ``coinv`` cannot also hide in the value it is compared with.
The counters are deliberately naive; at the sizes the benchmark uses
(n <= 8) they cost far less than the answers they check.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial


def multinomial(parts) -> int:
    """Orbit count n! / prod(p!), the dimension of a plain partial coinvariant algebra."""
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def conjugate(parts) -> tuple:
    """Conjugate (transpose) of the partition obtained by sorting ``parts``."""
    parts = sorted((p for p in parts if p > 0), reverse=True)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def column_strict_count(column_lengths, content) -> int:
    """Coefficient of x^content in the product of e_c(x) over the column lengths.

    A column-strict filling picks, for each column, a set of distinct
    letters; expanding the product of elementary symmetric polynomials
    enumerates exactly those choices.  Exponent vectors are pruned as
    soon as they exceed the content.
    """
    content = tuple(c for c in content if c > 0)
    if sum(column_lengths) != sum(content):
        return 0
    m = len(content)
    poly = {(0,) * m: 1}
    for c in column_lengths:
        nxt: dict = {}
        for exp, coeff in poly.items():
            for chosen in combinations(range(m), c):
                e = list(exp)
                for j in chosen:
                    e[j] += 1
                    if e[j] > content[j]:
                        break
                else:
                    key = tuple(e)
                    nxt[key] = nxt.get(key, 0) + coeff
        poly = nxt
    return poly.get(content, 0)


def kostka_count(shape, content) -> int:
    """Semistandard tableaux of ``shape`` and ``content``, by cell-by-cell backtracking.

    Cells are filled in row-major order; each takes a letter at least its
    left neighbour, above its upper neighbour, and with copies left.
    """
    shape = tuple(p for p in shape if p > 0)
    content = [c for c in content if c > 0]
    if sum(shape) != sum(content):
        return 0
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    grid = [[0] * length for length in shape]
    m = len(content)

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        low = grid[r][c - 1] if c else 0
        if r:
            low = max(low, grid[r - 1][c] + 1)
        total = 0
        for v in range(low, m):
            if content[v]:
                content[v] -= 1
                grid[r][c] = v
                total += fill(k + 1)
                content[v] += 1
        return total

    return fill(0)


def hilbert_problems(coeffs, dim: int, *, palindromic: bool) -> list:
    """What is wrong with a Hilbert series given as doubled-grading coefficients."""
    problems = []
    if any(c < 0 for c in coeffs):
        problems.append("negative coefficient")
    if sum(coeffs) != dim:
        problems.append(f"coefficients sum to {sum(coeffs)}, dim is {dim}")
    if any(coeffs[d] for d in range(1, len(coeffs), 2)):
        problems.append("non-zero odd degree")
    if palindromic and list(coeffs) != list(coeffs)[::-1]:
        problems.append("series is not palindromic")
    return problems


def top_degree(mu, content) -> int:
    """Doubled top degree of the quotient cut by ``mu``.

    The sum of q(q-1) over the conjugate of ``mu`` minus the sum of
    p(p-1) over the content; ``mu = 1^n`` gives the plain algebra.
    """
    lam = conjugate(mu)
    return sum(q * (q - 1) for q in lam) - sum(p * (p - 1) for p in content)


def tableau_problems(rows, shape, content, *, row_weak: bool) -> list:
    """What is wrong with one filling: shape, content, column strictness, row order."""
    rows = [list(r) for r in rows]
    problems = []
    if tuple(len(r) for r in rows) != tuple(p for p in shape if p > 0):
        problems.append(f"shape {[len(r) for r in rows]} is not {list(shape)}")
    counts: dict = {}
    for row in rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    want = {i + 1: c for i, c in enumerate(content) if c > 0}
    if counts != want:
        problems.append(f"content {counts} is not {want}")
    for r in range(1, len(rows)):
        if any(rows[r][c] <= rows[r - 1][c] for c in range(len(rows[r]))):
            problems.append("column not strictly increasing")
            break
    if row_weak and any(
        row[c] > row[c + 1] for row in rows for c in range(len(row) - 1)
    ):
        problems.append("row not weakly increasing")
    return problems
