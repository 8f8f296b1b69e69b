"""Reference checks that only the tests use.

They restate a definition directly, so the package's own constructions
can be checked against something that shares no code with them.
"""


def is_column_strict(t) -> bool:
    """Entries of the tableau ``t`` strictly increase down every column."""
    for r in range(1, len(t.rows)):
        for c in range(len(t.rows[r])):
            if t.rows[r][c] <= t.rows[r - 1][c]:
                return False
    return True


def is_row_weak(t) -> bool:
    """Entries of the tableau ``t`` weakly increase along every row."""
    return all(
        row[c] <= row[c + 1] for row in t.rows for c in range(len(row) - 1)
    )
