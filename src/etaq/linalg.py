"""Dense exact linear algebra over Fraction.  Nothing in etaq calls it:
matching and the search run in integers.  The tests use it as a
reference, and the benchmark's tracer wraps solve_unique and mat_inverse
by name.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rref", "solve_unique", "mat_inverse"]

Row = list[Fraction]
Matrix = list[Row]


def _as_matrix(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = _as_matrix(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_unique(a, b) -> list[Fraction] | None:
    """Solve A x = b.  Returns the unique solution, None if inconsistent,
    and raises ValueError if the system is underdetermined."""
    aug = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:
        return None  # pivot in the constant column: inconsistent
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x


def mat_inverse(a) -> Matrix:
    n = len(a)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]

