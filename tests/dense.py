"""Dense boxed-matrix helpers that only the tests use: they restate the
library's entry-by-entry results as plain matrix algebra, and multiply
elements of an algebra, tuples of scalars in the natural basis."""

from evoalg.algebra import Matrix
from evoalg.groups import MonomialMap


def rank(rows: Matrix) -> int:
    """Rank over the field by plain elimination."""
    if not rows:
        return 0
    work = [list(row) for row in rows]
    n_rows, n_cols = len(work), len(work[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if not work[i][c].is_zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, n_rows):
            if not work[i][c].is_zero:
                f = work[i][c] / work[r][c]
                for k in range(c, n_cols):
                    work[i][k] = work[i][k] - f * work[r][k]
        r += 1
        if r == n_rows:
            break
    return r


def mat_equal(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def entrywise_square(a: Matrix) -> Matrix:
    return tuple(tuple(x * x for x in row) for row in a)


def matrix(m: MonomialMap) -> Matrix:
    """Rows of P_sigma * D: column i holds d_i in row sigma(i)."""
    zero = m.field.zero
    rows = [[zero] * m.n for _ in range(m.n)]
    for i in range(m.n):
        rows[m.sigma[i]][i] = m.d[i]
    return tuple(tuple(row) for row in rows)


def basis_element(alg, i: int) -> tuple:
    field = alg.field
    return tuple(field.one if k == i else field.zero for k in range(alg.n))


def element(alg, coords) -> tuple:
    return tuple(alg.field.scalar(x) for x in coords)


def multiply(alg, x, y) -> tuple:
    """Bilinear product: distinct basis vectors annihilate, squares come
    from the matrix columns, so the result is A * (x .* y)."""
    had = [xi * yi for xi, yi in zip(x, y)]
    return tuple(
        sum((a * h for a, h in zip(row[1:], had[1:])), row[0] * had[0]) for row in alg.rows
    )
