"""Constructors for the concrete algebra families the library ships, plus the
diagonal maps that normalize cycle-patterned algebras."""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import EvolutionAlgebra, read_json
from .digraph import check_dimension
from .errors import EvoAlgError, ParseError, SingularMatrixError
from .fields import Field
from .solver import SolveOutcome, solve_monomial


def complete_graph_algebra(n: int, field: Field) -> EvolutionAlgebra:
    """Zero diagonal, ones elsewhere; singular exactly when the characteristic
    divides n - 1."""
    if n < 2:
        raise ParseError("complete-graph algebra needs n >= 2")
    check_dimension(n)
    alg = EvolutionAlgebra(
        field, [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    )
    if not alg.is_idempotent:
        raise SingularMatrixError(
            f"complete-graph matrix is singular over {field.descriptor()}: "
            f"the characteristic divides {n - 1}"
        )
    return alg


def two_param_algebra(n: int, a, b, field: Field) -> EvolutionAlgebra:
    """Diagonal a, off-diagonal b; the determinant (a + (n-1)b)(a-b)^(n-1)
    must not vanish."""
    if n < 1:
        raise ParseError("dimension must be >= 1")
    check_dimension(n)
    a = field.scalar(a)
    b = field.scalar(b)
    alg = EvolutionAlgebra(
        field, [[a if i == j else b for j in range(n)] for i in range(n)]
    )
    if not alg.is_idempotent:
        raise SingularMatrixError(
            "two-parameter matrix is singular: need a != b and a != (1-n) b"
        )
    return alg


def cycle_algebra(
    n: int, field: Field, b: Optional[Sequence] = None
) -> EvolutionAlgebra:
    """Structure matrix P_sigma * diag(b) for the n-cycle sigma = (1 2 ... n);
    b defaults to all ones."""
    if n < 1:
        raise ParseError("dimension must be >= 1")
    check_dimension(n)
    values = [field.one] * n if b is None else [field.scalar(x) for x in b]
    if len(values) != n:
        raise ParseError("b-vector length must equal n")
    if any(x.is_zero for x in values):
        raise SingularMatrixError("cycle algebra needs every b entry nonzero")
    rows = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = values[j]
    return EvolutionAlgebra(field, rows)


def frucht_lift(graph_rows: Sequence[Sequence[int]], field: Field) -> tuple[EvolutionAlgebra, int]:
    """Turn an undirected simple graph into an idempotent algebra with the
    same pattern automorphisms by adding the smallest m >= 0 with
    det(B + m I) != 0; some m in {0, ..., n} always works since the
    determinant is a degree-n polynomial in m.

    Returns the algebra together with the chosen m.
    """
    if field.characteristic != 0:
        raise ParseError("graph lift needs a characteristic-zero field")
    if not isinstance(graph_rows, (list, tuple)):
        raise ParseError("adjacency matrix must be a list of rows")
    n = len(graph_rows)
    for row in graph_rows:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ParseError("adjacency matrix must be square")
        if not all(type(x) is int and x in (0, 1) for x in row):
            raise ParseError("adjacency entries must be 0 or 1")
    for i, row in enumerate(graph_rows):
        for j, x in enumerate(row):
            if graph_rows[j][i] != x:
                raise ParseError("adjacency matrix must be symmetric")
        if row[i] != 0:
            raise ParseError("simple graphs carry no loops")
    for m in range(n + 1):
        alg = EvolutionAlgebra(
            field,
            [
                [graph_rows[i][j] + (m if i == j else 0) for j in range(n)]
                for i in range(n)
            ],
        )
        if alg.is_idempotent:
            return alg, m
    raise RuntimeError("no shift in 0..n made the matrix nonsingular")


def load_graph(path: str) -> list[list[int]]:
    """Graph JSON: {"n": int, "adjacency": [[0/1, ...], ...]}, symmetric."""
    data = read_json(path, "graph")
    if not isinstance(data, dict) or "n" not in data or "adjacency" not in data:
        raise ParseError("graph JSON needs keys n and adjacency")
    if type(data["n"]) is not int:
        raise ParseError("graph JSON n must be an integer")
    adjacency = data["adjacency"]
    if not isinstance(adjacency, list) or len(adjacency) != data["n"]:
        raise ParseError("graph adjacency must be a list of n rows")
    return adjacency


class LabeledAlgebra:
    __slots__ = ("label", "algebra")

    def __init__(self, label: str, algebra: EvolutionAlgebra):
        self.label = label
        self.algebra = algebra


class OmittedRepresentative:
    __slots__ = ("label", "reason")

    def __init__(self, label: str, reason: str):
        self.label = label
        self.reason = reason


def sn_representatives(
    n: int, field: Field, c_samples: Sequence = (2, 3, -1)
) -> tuple[list[LabeledAlgebra], list[OmittedRepresentative]]:
    """Representatives of the algebras whose automorphism group is the full
    symmetric group on n letters, instantiated at the sampled family
    parameters admissible over the field. Inadmissible items are returned as
    labeled omissions rather than raised."""
    if n < 1:
        raise ParseError("dimension must be >= 1")
    included: list[LabeledAlgebra] = []
    omitted: list[OmittedRepresentative] = []
    cube_roots = len(field.roots_of_unity(3))

    if n == 1:
        included.append(LabeledAlgebra("unit", EvolutionAlgebra(field, [[1]])))
        return included, omitted

    for c in c_samples:
        label = f"diag1-offdiag{c}"
        if n == 3 and field.characteristic == 2:
            omitted.append(
                OmittedRepresentative(label, "family undefined in characteristic 2")
            )
            continue
        try:
            included.append(LabeledAlgebra(label, two_param_algebra(n, 1, c, field)))
        except SingularMatrixError:
            omitted.append(OmittedRepresentative(label, "parameter makes the matrix singular"))

    if n == 2:
        if cube_roots == 1:
            included.append(LabeledAlgebra("swap", complete_graph_algebra(2, field)))
        else:
            omitted.append(
                OmittedRepresentative(
                    "swap",
                    "x^3 - 1 has several roots here, which enlarges the group",
                )
            )
        return included, omitted

    if n == 3:
        if cube_roots == 3:
            included.append(
                LabeledAlgebra(
                    "swap-plus-loop",
                    EvolutionAlgebra(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                )
            )
        else:
            omitted.append(
                OmittedRepresentative(
                    "swap-plus-loop", "needs three distinct roots of x^3 - 1"
                )
            )

    try:
        included.append(LabeledAlgebra("complete", complete_graph_algebra(n, field)))
    except SingularMatrixError:
        omitted.append(
            OmittedRepresentative("complete", f"characteristic divides {n - 1}")
        )
    return included, omitted


def cycle_normalizer(b: Sequence, field: Field) -> SolveOutcome:
    """Diagonal maps carrying the all-ones cycle algebra onto the one scaled
    by b: the first scaling solves (prod_i b_i^(2^(n-i))) x^(2^n - 1) = 1 and
    the rest follow the doubling recurrence d_{j+1} = b_j d_j^2. Every
    returned map D satisfies B D^(2) = D P_sigma for B = P_sigma diag(b)."""
    n = len(b)
    return solve_monomial(
        cycle_algebra(n, field), cycle_algebra(n, field, b), tuple(range(n))
    )


# ---------------------------------------------------------------------------
# CLI family-spec grammar: complete:n=4 | twoparam:n=4,a=1,b=2
#                          | cycle:n=3,b=128;1;1 | frucht:<graph.json>


def build_family(spec: str, field: Field) -> tuple[EvolutionAlgebra, dict]:
    """Parse a family spec string and construct the algebra; the second
    return value holds extra report fields (such as the chosen shift)."""
    if ":" not in spec:
        raise ParseError(f"family spec {spec!r} needs a family:arguments shape")
    name, _, args = spec.partition(":")
    if name == "frucht":
        alg, m = frucht_lift(load_graph(args), field)
        return alg, {"family": "frucht", "m": m, "graph": args}
    kv: dict[str, str] = {}
    for part in args.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad family argument {part!r}")
        key, _, value = part.partition("=")
        kv[key] = value
    try:
        if name == "complete":
            n = int(kv.pop("n"))
            _reject_extras(kv)
            return complete_graph_algebra(n, field), {"family": "complete", "n": n}
        if name == "twoparam":
            n = int(kv.pop("n"))
            a = field.parse(kv.pop("a"))
            b = field.parse(kv.pop("b"))
            _reject_extras(kv)
            return (
                two_param_algebra(n, a, b, field),
                {"family": "twoparam", "n": n, "a": str(a), "b": str(b)},
            )
        if name == "cycle":
            n = int(kv.pop("n"))
            b_text = kv.pop("b", None)
            b = [field.parse(x) for x in b_text.split(";")] if b_text else None
            _reject_extras(kv)
            return (
                cycle_algebra(n, field, b),
                {
                    "family": "cycle",
                    "n": n,
                    "b": [str(x) for x in b] if b else ["1"] * n,
                },
            )
    except KeyError as exc:
        raise ParseError(f"family {name!r} is missing argument {exc}") from exc
    except EvoAlgError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad family arguments in {spec!r}: {exc}") from exc
    raise ParseError(f"unknown family {name!r}")


def _reject_extras(kv: dict) -> None:
    if kv:
        raise ParseError(f"unexpected family arguments {sorted(kv)}")
