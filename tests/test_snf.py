import itertools
import math
import random
from fractions import Fraction

from evoalg.snf import hermite_basis, smith_normal_form, solve_homogeneous_mod


def int_det(mat):
    n = len(mat)
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            for k in range(c, n):
                rows[r][k] -= f * rows[c][k]
    return det


def minors_gcd(mat, k):
    """gcd of all k x k minors of an integer matrix."""
    g = 0
    for rows in itertools.combinations(range(len(mat)), k):
        for cols in itertools.combinations(range(len(mat[0])), k):
            g = math.gcd(g, int(int_det([[mat[r][c] for c in cols] for r in rows])))
    return g


def check_snf(mat):
    # U is not built: S is pinned by the invariant factors instead, since
    # s_1 * ... * s_k is the gcd of the k x k minors of mat
    s, v = smith_normal_form(mat)
    m, n = len(mat), len(mat[0])
    assert abs(int_det(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    for k in range(1, min(m, n) + 1):
        assert math.prod(diag[:k]) == minors_gcd(mat, k)
    return diag


def test_known_matrix():
    # invariant factors from gcds of k x k minors: d1 = 2, d2 = 4, d3 = 624,
    # giving 2, 4/2 = 2, 624/4 = 156
    diag = check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]


def test_zero_matrix():
    diag = check_snf([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_random_matrices():
    rng = random.Random(321)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(mat)


def brute_solutions(mat, n_vars, modulus):
    out = set()
    for x in itertools.product(range(modulus), repeat=n_vars):
        if all(sum(r * xi for r, xi in zip(row, x)) % modulus == 0 for row in mat):
            out.add(x)
    return out


def test_congruence_solutions_match_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        n_vars = rng.randint(1, 3)
        rows = rng.randint(0, 3)
        modulus = rng.choice([2, 3, 4, 6, 7, 10])
        mat = [[rng.randint(-4, 4) for _ in range(n_vars)] for _ in range(rows)]
        sol = solve_homogeneous_mod(mat, n_vars, modulus)
        got = set(sol.elements())
        expected = brute_solutions(mat, n_vars, modulus)
        assert got == expected
        assert sol.order == len(expected)


def test_no_constraints():
    sol = solve_homogeneous_mod([], 2, 5)
    assert sol.order == 25
    assert len(set(sol.elements())) == 25


def reduce_mod_basis(basis, x):
    x = list(x)
    for i, row in enumerate(basis):
        q = x[i] // row[i]
        x = [a - q * b for a, b in zip(x, row)]
    return tuple(x)


def test_hermite_basis_reduces_to_one_vector_per_coset():
    # brute force: the subgroup of (Z/m)^dim that the vectors generate, by
    # closing under addition; its cosets are the lattice's
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(1, 4)
        modulus = rng.randint(1, 6)
        vectors = [
            [rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(0, 3))
        ]
        basis = hermite_basis(vectors, dim, modulus)
        heights = [row[i] for i, row in enumerate(basis)]
        for i, row in enumerate(basis):
            assert row[:i] == [0] * i and modulus % row[i] == 0
        subgroup = {(0,) * dim}
        todo = list(subgroup)
        for x in todo:
            for v in vectors:
                y = tuple((a + b) % modulus for a, b in zip(x, v))
                if y not in subgroup:
                    subgroup.add(y)
                    todo.append(y)
        assert math.prod(heights) * len(subgroup) == modulus**dim
        cosets = {}
        for x in itertools.product(range(modulus), repeat=dim):
            r = reduce_mod_basis(basis, x)
            assert all(0 <= a < h for a, h in zip(r, heights))
            cosets.setdefault(r, set()).add(x)
        # every coset of the subgroup reduces to one vector of its own
        assert len(cosets) == math.prod(heights)
        for members in cosets.values():
            x = min(members)
            assert members == {
                tuple((a + b) % modulus for a, b in zip(x, y)) for y in subgroup
            }
