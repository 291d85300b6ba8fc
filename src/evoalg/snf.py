"""Smith normal form of integer matrices and homogeneous congruence solving.

Matrices are lists of lists of ints. ``smith_normal_form`` returns (S, V)
with U*A*V == S for some unimodular U that is not built, V unimodular, and
the diagonal of S a divisibility chain s_1 | s_2 | ... of nonnegative
integers.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap_rows(mat, i, j):
    mat[i], mat[j] = mat[j], mat[i]


def _swap_cols(mat, i, j):
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_row(mat, src, dst, factor):
    row_s, row_d = mat[src], mat[dst]
    for k in range(len(row_d)):
        row_d[k] += factor * row_s[k]


def _add_col(mat, src, dst, factor):
    for row in mat:
        row[dst] += factor * row[src]


def smith_normal_form(mat: list[list[int]]):
    """Diagonalize by unimodular row and column operations, keeping the
    column transform V only."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    v = _identity(n)
    t = 0
    while t < min(m, n):
        # locate a smallest-magnitude nonzero pivot in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        _swap_rows(a, t, pivot[0])
        _swap_cols(a, t, pivot[1])
        _swap_cols(v, t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                _add_row(a, t, i, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                _add_col(a, t, j, -q)
                _add_col(v, t, j, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivots
        # pivot must divide every remaining entry for the invariant-factor form
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, offender, t, 1)
            continue
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
        t += 1
    return a, v


class CongruenceSolution(NamedTuple):
    """Solution subgroup of M*x = 0 (mod modulus) inside (Z/modulus)^n_vars,
    described by independent generators with their orders."""

    modulus: int
    n_vars: int
    generators: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    order: int

    def elements(self):
        """Yield every solution vector, deterministically ordered."""
        for combo in itertools.product(*(range(o) for o in self.orders)):
            x = [0] * self.n_vars
            for gen, c in zip(self.generators, combo):
                for i in range(self.n_vars):
                    x[i] = (x[i] + c * gen[i]) % self.modulus
            yield tuple(x)


def solve_homogeneous_mod(mat: list[list[int]], n_vars: int, modulus: int) -> CongruenceSolution:
    """All x in (Z/modulus)^n_vars with mat*x = 0 (mod modulus)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if not mat:
        gens = tuple(
            tuple(int(i == j) for i in range(n_vars)) for j in range(n_vars)
        )
        return CongruenceSolution(
            modulus, n_vars, gens, (modulus,) * n_vars, modulus**n_vars
        )
    s, v = smith_normal_form(mat)
    diag = [s[i][i] for i in range(min(len(s), n_vars))]
    diag += [0] * (n_vars - len(diag))
    gens, orders = [], []
    order = 1
    for i, si in enumerate(diag):
        gi = math.gcd(si, modulus) if si else modulus
        order *= gi
        if gi == 1:
            continue
        scale = modulus // gi
        gens.append(tuple(v[r][i] * scale % modulus for r in range(n_vars)))
        orders.append(gi)
    return CongruenceSolution(modulus, n_vars, tuple(gens), tuple(orders), order)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hermite_basis(vectors, dim: int, modulus: int) -> list[list[int]]:
    """A triangular basis of the lattice spanned by ``vectors`` and
    modulus * Z^dim: row i is zero before column i and holds h_i > 0 at
    column i, h_i dividing modulus, with its later entries reduced mod
    modulus.

    Each x in Z^dim reduces to exactly one vector with 0 <= x_i < h_i by
    subtracting multiples of the rows in order, so these vectors are the
    cosets of the lattice, prod h_i of them. Column i starts from the row
    modulus * e_i and takes in each vector with a nonzero i-th entry by one
    unimodular step of the extended Euclid algorithm on that entry, which
    leaves the vector's combination with a zero there for the later columns.
    """
    pool = [[x % modulus for x in v] for v in vectors]
    basis = []
    for i in range(dim):
        pivot = [0] * dim
        pivot[i] = modulus
        rest = []
        for v in pool:
            b = v[i]
            if b:
                a = pivot[i]
                g, s, t = _ext_gcd(a, b)
                # [[s, t], [b/g, -a/g]] has determinant -1
                pivot, v = (
                    [(s * x + t * y) % modulus for x, y in zip(pivot, v)],
                    [(b // g * x - a // g * y) % modulus for x, y in zip(pivot, v)],
                )
            if any(v):
                rest.append(v)
        basis.append(pivot)
        pool = rest
    return basis
