"""Monomial matrix maps e_i -> d_i e_{sigma(i)}, finite groups of them, and
recognition against the handful of named targets this library cares about."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Optional, Sequence

from .digraph import Permutation
from .errors import (
    CapExceededError,
    FieldMismatchError,
    ParseError,
    UnclosedGroupError,
)
from .fields import Field, Scalar

CLOSURE_CAP = 10**6
RECOGNITION_CAP = 10**5


class MonomialMap:
    """A permutation together with nonzero scalings; matrix form P_sigma * D."""

    __slots__ = ("sigma", "d")

    def __init__(self, sigma: Permutation, d: Sequence[Scalar]):
        d = tuple(d)
        if len(d) != sigma.n:
            raise ParseError("scaling vector length does not match permutation")
        if any(x.is_zero for x in d):
            raise ZeroDivisionError("monomial map needs nonzero scalings")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("MonomialMap is immutable")

    @classmethod
    def identity(cls, field: Field, n: int) -> "MonomialMap":
        return cls(Permutation.identity(n), (field.one,) * n)

    @classmethod
    def diagonal(cls, d: Sequence[Scalar]) -> "MonomialMap":
        return cls(Permutation.identity(len(tuple(d))), d)

    @property
    def n(self) -> int:
        return self.sigma.n

    @property
    def field(self) -> Field:
        return self.d[0].field

    @property
    def is_diagonal(self) -> bool:
        return self.sigma.is_identity()

    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """Rows of P_sigma * D: column i holds d_i in row sigma(i)."""
        zero = self.field.zero
        rows = [[zero] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[self.sigma(i)][i] = self.d[i]
        return tuple(tuple(row) for row in rows)

    def __mul__(self, other: "MonomialMap") -> "MonomialMap":
        """Map composition applying the right factor first, matching the
        matrix product of the P_sigma * D forms."""
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if self.n != other.n:
            raise ParseError("monomial map size mismatch")
        if self.field != other.field:
            raise FieldMismatchError("monomial maps over different fields")
        d = tuple(self.d[other.sigma(i)] * other.d[i] for i in range(self.n))
        return MonomialMap(self.sigma * other.sigma, d)

    def inverse(self) -> "MonomialMap":
        inv = self.sigma.inverse()
        d = tuple(self.d[inv(j)].inverse() for j in range(self.n))
        return MonomialMap(inv, d)

    def order(self) -> int:
        """Exact order: with m the permutation order, the m-th power is
        diagonal, so the order is m times the lcm of the entry orders."""
        m = self.sigma.order()
        power = self
        for _ in range(m - 1):
            power = power * self
        total = 1
        for x in power.d:
            k = x.multiplicative_order()
            if k is None:
                raise CapExceededError(
                    "a scaling entry is not a root of unity; infinite order"
                )
            total = math.lcm(total, k)
        return m * total

    def sort_key(self):
        return (self.sigma.images, tuple(x.sort_key() for x in self.d))

    def to_json(self) -> dict:
        return {"sigma": self.sigma.to_json(), "d": [str(x) for x in self.d]}

    @classmethod
    def from_json(cls, data: dict, field: Field) -> "MonomialMap":
        if not isinstance(data, dict) or "sigma" not in data or "d" not in data:
            raise ParseError(f"bad monomial map JSON {data!r}")
        sigma = Permutation.from_json(data["sigma"])
        return cls(sigma, tuple(field.parse(s) for s in data["d"]))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMap)
            and self.sigma == other.sigma
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.sigma, self.d))

    def __repr__(self):
        return f"MonomialMap({self.sigma.to_json()}, [{', '.join(map(str, self.d))}])"


def compose(g: MonomialMap, h: MonomialMap) -> MonomialMap:
    return g * h


def inverse(g: MonomialMap) -> MonomialMap:
    return g.inverse()


@dataclass(frozen=True)
class GroupProfile:
    order: int
    is_abelian: bool
    element_order_histogram: dict
    diagonal_order: int
    quotient_order: int


class MonomialGroup:
    """An explicit duplicate-free set of monomial maps, sorted for
    deterministic serialization.

    ``complete`` is False when the construction had to stop early (some
    solve came back undecided), in which case ``closed`` is not claimed.
    A complete set is proven closed by a Dimino closure of its sorted
    elements that must stay inside the set; ``generators`` is the greedy
    generating set that closure keeps (each sorted element not generated by
    the ones before it), and ``()`` for an incomplete group.
    """

    def __init__(
        self,
        field: Field,
        n: int,
        elements: Iterable[MonomialMap],
        *,
        complete: bool = True,
    ):
        elems = sorted(set(elements), key=MonomialMap.sort_key)
        self.field = field
        self.n = n
        self.elements = tuple(elems)
        self.complete = complete
        for g in self.elements:
            if g.n != n or g.field != field:
                raise FieldMismatchError("group elements disagree on n or field")
        self.closed = False
        self.generators: tuple[MonomialMap, ...] = ()
        if complete:
            # the closure lies inside the finite set and contains all of it,
            # so the set is closed under products and hence a group
            closure = _dimino(field, n, self.elements, within=set(self.elements))
            if closure is None:
                raise UnclosedGroupError("element set is not closed under the group laws")
            self.generators = closure[1]
            self.closed = True

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in set(self.elements)

    def diagonal_part(self) -> tuple[MonomialMap, ...]:
        """The kernel of the map onto permutations: elements with sigma = id."""
        return tuple(g for g in self.elements if g.is_diagonal)

    def permutation_image(self) -> tuple[Permutation, ...]:
        return tuple(sorted({g.sigma for g in self.elements}))

    def profile(self) -> GroupProfile:
        if not self.closed:
            raise UnclosedGroupError("profile requires a closed group")
        hist: dict[int, int] = {}
        for g in self.elements:
            hist[g.order()] = hist.get(g.order(), 0) + 1
        abelian = all(
            g * h == h * g for g, h in itertools.combinations(self.generators, 2)
        )
        diag = len(self.diagonal_part())
        return GroupProfile(
            order=self.order,
            is_abelian=abelian,
            element_order_histogram=dict(sorted(hist.items())),
            diagonal_order=diag,
            quotient_order=self.order // diag,
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.descriptor(),
            "order": self.order,
            "complete": self.complete,
            "elements": [g.to_json() for g in self.elements],
        }


def _dimino(
    field: Field,
    n: int,
    candidates: Iterable[MonomialMap],
    *,
    within: Optional[set] = None,
    cap: int = CLOSURE_CAP,
):
    """Dimino's closure (Butler 1991; Seress 2003) in O(|G| * |S|) products.

    Walks the candidates in order and keeps each one not yet generated as a
    new generator s. The group then grows by whole right cosets H*x of the
    previous subgroup H: every coset representative is multiplied by every
    generator so far, and a product outside the group found so far starts a
    new coset. Returns ``(elements, generators)`` with the elements in
    generation order, or None when ``within`` is given and the identity is
    missing from it or a product falls outside it.
    """
    ident = MonomialMap.identity(field, n)
    if within is not None and ident not in within:
        return None
    elements = [ident]
    have = {ident}
    gens: list[MonomialMap] = []
    for s in candidates:
        if s in have:
            continue
        gens.append(s)
        sub = elements[1:]  # H without its identity
        reps = [ident]
        for rep in reps:  # grows while it is walked
            for t in gens:
                x = rep * t
                if x in have:
                    continue
                coset = [x] + [h * x for h in sub]
                if within is not None and not within.issuperset(coset):
                    return None
                reps.append(x)
                elements.extend(coset)
                have.update(coset)
                if len(elements) > cap:
                    raise CapExceededError(f"closure passed the cap {cap}")
    return elements, tuple(gens)


def close_generators(
    gens: Sequence[MonomialMap],
    *,
    cap: int = CLOSURE_CAP,
    field: Optional[Field] = None,
    n: Optional[int] = None,
) -> MonomialGroup:
    """The group generated by ``gens``. Empty generator lists need the field
    and dimension spelled out."""
    if gens:
        field = gens[0].field
        n = gens[0].n
    elif field is None or n is None:
        raise ParseError("empty generator list needs explicit field and n")
    elements, _ = _dimino(field, n, gens, cap=cap)
    return MonomialGroup(field, n, elements)


# ---------------------------------------------------------------------------
# recognition against named targets


@dataclass(frozen=True)
class Trivial:
    def name(self) -> str:
        return "trivial"


@dataclass(frozen=True)
class Cyclic:
    k: int

    def name(self) -> str:
        return f"C{self.k}"


@dataclass(frozen=True)
class Symmetric:
    k: int

    def name(self) -> str:
        return f"S{self.k}"


@dataclass(frozen=True)
class Dihedral:
    k: int  # order 2k, k >= 3

    def name(self) -> str:
        return f"Dih{self.k}"


@dataclass(frozen=True)
class SemidirectCyclic:
    m: int
    k: int  # normal C_m extended by C_k

    def name(self) -> str:
        return f"C{self.m}:C{self.k}"


@dataclass(frozen=True)
class RecognitionReport:
    target: object
    matched: bool
    witness: dict = dataclass_field(default_factory=dict)


def _symmetric_histogram(k: int) -> dict[int, int]:
    """Element-order histogram of the symmetric group on k letters, counted
    from cycle types."""
    hist: dict[int, int] = {}

    def partitions(rest, most):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, most), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    for ptn in partitions(k, k):
        counts: dict[int, int] = {}
        for part in ptn:
            counts[part] = counts.get(part, 0) + 1
        size = math.factorial(k)
        for length, cnt in counts.items():
            size //= length**cnt * math.factorial(cnt)
        order = math.lcm(*ptn)
        hist[order] = hist.get(order, 0) + size
    return hist


def _normal_in(group: MonomialGroup, subgroup: set[MonomialMap]) -> bool:
    """Conjugation by the generators is enough: for a finite set S,
    g S g^-1 inside S forces equality, so every word in them fixes S."""
    for g in group.generators:
        g_inv = g.inverse()
        if any(g * s * g_inv not in subgroup for s in subgroup):
            return False
    return True


def recognize(group: MonomialGroup, target) -> RecognitionReport:
    """Decide whether the group matches a named target, with a witness.

    Cyclic and dihedral matches exhibit generators; the semidirect match
    exhibits the normal cyclic diagonal part, a cyclic complement, and the
    exponent of the conjugation action. Symmetric groups are matched either
    through a faithful full image in the permutation quotient or through the
    exact element-order histogram.
    """
    if not group.closed:
        raise UnclosedGroupError("recognition requires a closed group")
    if group.order > RECOGNITION_CAP:
        raise CapExceededError(f"recognition capped at order {RECOGNITION_CAP}")

    if isinstance(target, Trivial):
        return RecognitionReport(target, group.order == 1)

    if isinstance(target, Cyclic):
        if group.order != target.k:
            return RecognitionReport(target, False)
        gen = next((g for g in group.elements if g.order() == target.k), None)
        if gen is None:
            return RecognitionReport(target, False)
        return RecognitionReport(target, True, {"generator": gen.to_json()})

    if isinstance(target, Symmetric):
        if group.order != math.factorial(target.k):
            return RecognitionReport(target, False)
        if target.k == group.n:
            kernel = [g for g in group.elements if g.is_diagonal]
            image = {g.sigma for g in group.elements}
            if len(kernel) == 1 and len(image) == math.factorial(target.k):
                return RecognitionReport(target, True, {"method": "faithful image"})
        hist = {
            order: cnt
            for order, cnt in group.profile().element_order_histogram.items()
        }
        if hist == _symmetric_histogram(target.k):
            return RecognitionReport(target, True, {"method": "order histogram"})
        return RecognitionReport(target, False)

    if isinstance(target, Dihedral):
        k = target.k
        if k < 3 or group.order != 2 * k:
            return RecognitionReport(target, False)
        for rot in group.elements:
            if rot.order() != k:
                continue
            cyc = {MonomialMap.identity(group.field, group.n)}
            cur = rot
            while cur not in cyc:
                cyc.add(cur)
                cur = cur * rot
            if not _normal_in(group, cyc):
                continue
            rot_inv = rot.inverse()
            for flip in group.elements:
                if flip in cyc or flip.order() != 2:
                    continue
                if flip * rot * flip.inverse() == rot_inv:
                    return RecognitionReport(
                        target,
                        True,
                        {"rotation": rot.to_json(), "reflection": flip.to_json()},
                    )
        return RecognitionReport(target, False)

    if isinstance(target, SemidirectCyclic):
        m, k = target.m, target.k
        if group.order != m * k:
            return RecognitionReport(target, False)
        diag = set(group.diagonal_part())
        if len(diag) != m:
            return RecognitionReport(target, False)
        gen = next((g for g in diag if g.order() == m), None)
        if gen is None or not _normal_in(group, diag):
            return RecognitionReport(target, False)
        for comp in group.elements:
            if comp.order() != k:
                continue
            powers = {MonomialMap.identity(group.field, group.n)}
            cur = comp
            while cur not in powers:
                powers.add(cur)
                cur = cur * comp
            if len(powers & diag) != 1:
                continue
            # conjugation action of the complement on the normal generator
            conj = comp * gen * comp.inverse()
            exponent, cur = None, MonomialMap.identity(group.field, group.n)
            for e in range(m):
                if cur == conj:
                    exponent = e
                    break
                cur = cur * gen
            if exponent is None or conj not in diag:
                continue
            return RecognitionReport(
                target,
                True,
                {
                    "normal_generator": gen.to_json(),
                    "complement_generator": comp.to_json(),
                    "action_exponent": exponent,
                },
            )
        return RecognitionReport(target, False)

    raise ParseError(f"unknown recognition target {target!r}")


@dataclass(frozen=True)
class QuotientEmbeddingReport:
    kernel_order: int
    diagonal_order: int
    kernel_equals_diagonal: bool
    kernel_normal: bool
    image_order: int
    image_in_graph_automorphisms: bool
    image_is_subgroup: bool
    counts_consistent: bool

    @property
    def ok(self) -> bool:
        return (
            self.kernel_equals_diagonal
            and self.kernel_normal
            and self.image_in_graph_automorphisms
            and self.image_is_subgroup
            and self.counts_consistent
        )


def quotient_embedding_check(group: MonomialGroup, algebra) -> QuotientEmbeddingReport:
    """Confirm that the diagonal maps form the kernel of the permutation
    quotient, that they are normal, and that the quotient lands inside the
    pattern automorphisms of the algebra."""
    from .digraph import graph_automorphisms
    from .solver import diagonal_subgroup

    if not group.closed:
        raise UnclosedGroupError("quotient check requires a closed group")
    kernel = set(group.diagonal_part())
    lattice = diagonal_subgroup(algebra)
    diag_maps = set(lattice.maps())
    image = {g.sigma for g in group.elements}
    graph_auts = set(graph_automorphisms(algebra.digraph))
    image_subgroup = all(
        a * b.inverse() in image for a in image for b in image
    )
    return QuotientEmbeddingReport(
        kernel_order=len(kernel),
        diagonal_order=lattice.order,
        kernel_equals_diagonal=kernel == diag_maps,
        kernel_normal=_normal_in(group, kernel),
        image_order=len(image),
        image_in_graph_automorphisms=image <= graph_auts,
        image_is_subgroup=image_subgroup,
        counts_consistent=group.order == len(kernel) * len(image),
    )
