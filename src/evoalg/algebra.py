"""Evolution algebras defined by structure matrices.

Column convention: column j of the structure matrix holds the coordinates of
the square of the j-th natural basis vector, so e_j^2 = sum_i A[i][j] e_i.
The transpose convention also appears in the wild; everything here sticks to
the column one.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Sequence

from .digraph import Digraph, check_dimension, cycles, min_transversal_order, transversals
from .errors import FieldMismatchError, ParseError, SingularMatrixError
from .fields import Field, Scalar, parse_field
from .groups import MonomialMap
from .lazy import lazy

Matrix = tuple[tuple[Scalar, ...], ...]
# a constraint component: its transversal cycles and its other edges (j, k)
Component = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]


def read_json(path: str, what: str):
    """The JSON document in the file at path. A file that cannot be opened,
    is not UTF-8 JSON, nests too deeply for the decoder or holds an integer
    past Python's digit limit is a ParseError naming what it should hold."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def write_file(path: str, text: str) -> None:
    """Writes text to the file at path; a failed write is a ParseError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def determinant(rows, field: Optional[Field] = None) -> Scalar:
    """Exact determinant by fraction-free Bareiss elimination. ``rows`` holds
    Scalars, or raw values of ``field`` when it is given.

    The elimination runs on raw field values and boxes only the result. Each
    step divides by the previous pivot, so that pivot is inverted once and
    every entry is multiplied by the inverse: an n x n determinant makes at
    most n - 2 field inversions.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ParseError("determinant needs a square matrix")
    if field is None:
        field = rows[0][0].field
        work = [[x.value for x in row] for row in rows]
    else:
        work = [list(row) for row in rows]
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    negate = False
    prev_inv = None  # the first step divides by one
    for c in range(n - 1):
        pivot_row = next((r for r in range(c, n) if not is_zero(work[r][c])), None)
        if pivot_row is None:
            return field.zero
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            negate = not negate
        top = work[c]
        pivot = top[c]
        for row in work[c + 1 :]:
            x = None if is_zero(row[c]) else row[c]
            for k in range(c + 1, n):
                v = mul(pivot, row[k])
                if x is not None:
                    v = sub(v, mul(x, top[k]))
                row[k] = v if prev_inv is None else mul(v, prev_inv)
        if c < n - 2:
            prev_inv = field._inv(pivot)
    det = work[n - 1][n - 1]
    return Scalar(field, field._neg(det) if negate else det)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner = len(b)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(1, inner)), a[i][0] * b[0][j])
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


class LoopInvariants(NamedTuple):
    """The scaling invariants between looped basis vectors, as raw values.

    A map (sigma, d) gives b_{sigma k sigma j} = d_k * a_kj / d_j^2, so
    I_kj = a_kj * a_kk / a_jj^2 is the same in A and in B at
    (sigma k, sigma j) whenever k and j both carry loops.
    """

    entries: tuple[tuple[int, int, object], ...]  # (k, j, I_kj), k != j, a_kj != 0
    matrix: tuple[tuple, ...]  # I_kj at (k, j) for the entries, None elsewhere


class EvolutionAlgebra:
    """An evolution algebra with its structure matrix and zero-pattern
    digraph. Immutable.

    The entries are held as raw field values, which are canonical, so
    equality and hashing read them. Building an algebra takes O(n^2) work;
    the determinant, and with it idempotence, is taken on first read, and
    the boxed ``rows`` are built on first read. An n past the dimension cap
    is refused before any entry is read."""

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        n = len(entries)
        check_dimension(n)
        raw = []
        for row in entries:
            if len(row) != n:
                raise ParseError("structure matrix must be square")
            raw.append(tuple(map(field.raw, row)))
        if n == 0:
            raise ParseError("structure matrix must have dimension >= 1")
        self.field = field
        self.n = n
        self.raw_rows: tuple[tuple, ...] = tuple(raw)
        self.digraph = Digraph.from_raw_rows(self.raw_rows, field._is_zero)

    @lazy
    def det(self) -> Scalar:
        return determinant(self.raw_rows, self.field)

    @lazy
    def is_idempotent(self) -> bool:
        return not self.det.is_zero

    def require_idempotent(self) -> "EvolutionAlgebra":
        if not self.is_idempotent:
            raise SingularMatrixError(
                "structure matrix is singular; the algebra is not idempotent"
            )
        return self

    @lazy
    def rows(self) -> Matrix:
        """The structure matrix as Scalars."""
        field = self.field
        return tuple(tuple(Scalar(field, x) for x in row) for row in self.raw_rows)

    @lazy
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Per row k, the columns j with a_kj != 0, read off the digraph."""
        return tuple(
            tuple(j for j in range(self.n) if row >> j & 1) for row in self.digraph.rows
        )

    @lazy
    def components(self) -> tuple[Component, ...]:
        """The part of solving d_k * a_kj = d_j^2 * b_{sigma k sigma j} that
        depends only on A's zero pattern: one transversal and the constraint
        components. Needs a nonsingular matrix, which always has a
        transversal.

        An edge (j, k) stands for a nonzero entry a_kj. Each weakly connected
        component of the edges is listed with its transversal cycles in
        ascending order and its edges in row-major order of (k, j), leaving
        out the transversal's own edges: the cycle solve satisfies those by
        construction.
        """
        n, support = self.n, self.support
        tau = next(transversals(self.digraph))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k, cols in enumerate(support):
            for j in cols:
                parent[find(k)] = find(j)
        # cycles() lists cycles by their least vertex, so each component's
        # cycles come out sorted
        parts: dict[int, tuple[list, list]] = {}
        for cycle in cycles(tau):
            parts.setdefault(find(cycle[0]), ([], []))[0].append(cycle)
        for k, cols in enumerate(support):
            for j in cols:
                if tau[j] != k:
                    parts[find(j)][1].append((j, k))
        return tuple((tuple(cycles), tuple(edges)) for cycles, edges in parts.values())

    @lazy
    def inverses(self) -> tuple[tuple, ...]:
        """Raw a_kj^-1, None where a_kj = 0: the part of the solve that reads
        A's entries. Built on first use, at most once per algebra;
        `solve_monomial` asks for it only for a sigma that passes its
        zero-pattern and loop-invariant screens."""
        field = self.field
        return tuple(
            tuple(None if field._is_zero(x) else field._inv(x) for x in row)
            for row in self.raw_rows
        )

    @lazy
    def loop_invariants(self) -> LoopInvariants:
        """Built on first use, once per algebra; inverts only the loops that
        some entry divides by."""
        field, raw, pattern = self.field, self.raw_rows, self.digraph.rows
        mul = field._mul
        looped = [k for k in range(self.n) if pattern[k] >> k & 1]
        inv_sq: dict[int, object] = {}
        entries = []
        matrix = [[None] * self.n for _ in range(self.n)]
        for k in looped:
            for j in looped:
                if j == k or not pattern[k] >> j & 1:
                    continue
                if j not in inv_sq:
                    inv = field._inv(raw[j][j])
                    inv_sq[j] = mul(inv, inv)
                value = mul(mul(raw[k][j], raw[k][k]), inv_sq[j])
                entries.append((k, j, value))
                matrix[k][j] = value
        return LoopInvariants(tuple(entries), tuple(map(tuple, matrix)))

    @lazy
    def min_transversal_order(self) -> int:
        return min_transversal_order(self.digraph)

    @property
    def conductor_sufficient(self) -> bool:
        """Whether the field already contains every root of unity that the
        transversal bound 2^t - 1 allows; when False the diagonal group, and
        Aut, over a larger cyclotomic field can be strictly bigger."""
        bound = 2**self.min_transversal_order - 1
        return self.field.unity_group().order % bound == 0

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "n": self.n,
            "entries": [[self.field.format(x) for x in row] for row in self.raw_rows],
        }

    @classmethod
    def from_json(cls, data: dict, field: Optional[Field] = None) -> "EvolutionAlgebra":
        if not isinstance(data, dict):
            raise ParseError("matrix JSON must be an object")
        for key in ("field", "n", "entries"):
            if key not in data:
                raise ParseError(f"matrix JSON is missing {key!r}")
        fld = field
        if fld is None:
            if not isinstance(data["field"], str):
                raise ParseError("matrix JSON field must be a string")
            fld = parse_field(data["field"])
        if type(data["n"]) is not int:
            raise ParseError("matrix JSON n must be an integer")
        entries = data["entries"]
        if not isinstance(entries, list) or len(entries) != data["n"]:
            raise ParseError("matrix JSON entries do not match n")
        if not all(
            isinstance(row, list) and all(isinstance(x, str) for x in row)
            for row in entries
        ):
            raise ParseError("matrix JSON entries must be lists of strings")
        # the field parses the strings, after the dimension is checked
        return cls(fld, entries)

    @classmethod
    def load(cls, path: str, field: Optional[Field] = None) -> "EvolutionAlgebra":
        return cls.from_json(read_json(path, "matrix"), field)

    def dump(self, path: str) -> None:
        write_file(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    def __eq__(self, other):
        return (
            isinstance(other, EvolutionAlgebra)
            and self.field == other.field
            and self.raw_rows == other.raw_rows
        )

    def __hash__(self):
        return hash((self.field, self.raw_rows))

    def __repr__(self):
        return f"EvolutionAlgebra({self.field.descriptor()}, n={self.n})"


def transport_structure(algebra: EvolutionAlgebra, p: MonomialMap) -> EvolutionAlgebra:
    """Structure matrix of the same algebra after the natural-basis change by
    the monomial matrix P = P_sigma * D: B = P * A * (P entrywise-squared)^{-1},
    written entry by entry as b_{sigma k sigma j} = d_k * a_kj / d_j^2 on raw
    values, with n field inversions.
    """
    algebra.require_idempotent()
    if p.n != algebra.n or p.field != algebra.field:
        raise FieldMismatchError("monomial map does not match the algebra")
    field, sigma = algebra.field, p.sigma
    mul = field._mul
    d = [x.value for x in p.d]
    inv_sq = [field._inv(mul(x, x)) for x in d]
    b = [[None] * algebra.n for _ in range(algebra.n)]
    for d_k, a_row, b_row in zip(d, algebra.raw_rows, (b[s] for s in sigma)):
        for j, a_kj in enumerate(a_row):
            b_row[sigma[j]] = Scalar(field, mul(mul(d_k, a_kj), inv_sq[j]))
    out = EvolutionAlgebra(field, b)
    if not out.is_idempotent:
        raise SingularMatrixError("transport produced a singular matrix")
    return out
