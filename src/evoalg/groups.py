"""Monomial matrix maps e_i -> d_i e_{sigma(i)}, finite groups of them, and
recognition against the handful of named targets this library cares about."""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
        """Exact order from the cycles of sigma. On the span of a cycle C of
        length L, the L-th power acts as the scalar pi_C, the product of the
        d_v over C, so the order there is L * ord(pi_C); the order of the map
        is the lcm of these over the cycles."""
        total = 1
        for cycle in self.sigma.cycles():
            pi = functools.reduce(operator.mul, (self.d[v] for v in cycle))
            k = pi.multiplicative_order()
            if k is None:
                raise CapExceededError(
                    "a cycle product of scalings is not a root of unity; infinite order"
                )
            total = math.lcm(total, len(cycle) * k)
        return total

    def sort_key(self):
        return (self.sigma.images, tuple(x.sort_key() for x in self.d))

    def to_json(self) -> dict:
        return {"sigma": self.sigma.to_json(), "d": [str(x) for x in self.d]}

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


class MonomialGroup:
    """An explicit duplicate-free set of monomial maps, sorted for
    deterministic serialization.

    ``complete`` is False when some solve came back undecided and left a
    pattern automorphism unsettled: the set is then not claimed to be the
    whole group, and its closure is not checked here. A complete set is
    proven closed by a Dimino closure of its sorted elements that must stay
    inside the set, or the constructor raises UnclosedGroupError.
    ``generators`` is the greedy generating set that closure keeps (each
    sorted element not generated by the ones before it), and ``()`` for an
    incomplete group.
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
        self.generators: tuple[MonomialMap, ...] = ()
        if complete:
            # the closure lies inside the finite set and contains all of it,
            # so the set is closed under products and hence a group
            within = set(self.elements)
            closure = Closure(field, n, within=within)
            if closure.identity not in within or not all(
                map(closure.add, self.elements)
            ):
                raise UnclosedGroupError("element set is not closed under the group laws")
            self.generators = tuple(closure.generators)

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of each element, aligned with ``elements``; computed
        once per group and read by ``recognize``."""
        return tuple(g.order() for g in self.elements)

    def diagonal_part(self) -> tuple[MonomialMap, ...]:
        """The kernel of the map onto permutations: elements with sigma = id."""
        return tuple(g for g in self.elements if g.is_diagonal)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.descriptor(),
            "order": self.order,
            "complete": self.complete,
            "elements": [g.to_json() for g in self.elements],
        }


class Closure:
    """Dimino's closure (Butler 1991; Seress 2003), grown one generator at
    a time in O(|G| * |S|) products for the generators S it keeps.

    ``add(s)`` keeps s as a new generator unless the group found so far
    already holds it. The group then grows by whole right cosets H*x of the
    previous subgroup H: every coset representative is multiplied by every
    generator so far, and a product outside the group found so far starts a
    new coset. ``elements`` lists the group in generation order, identity
    first. With ``within`` given, ``add`` returns False as soon as a product
    falls outside that set, leaving the closure unfinished. The constructor
    of MonomialGroup proves sets closed with it, ``close_generators`` closes
    generator lists, and ``automorphism_group`` grows it by lifts.
    """

    def __init__(
        self,
        field: Field,
        n: int,
        *,
        within: Optional[set] = None,
        cap: int = CLOSURE_CAP,
    ):
        self.identity = MonomialMap.identity(field, n)
        self.elements = [self.identity]
        self.generators: list[MonomialMap] = []
        self._have = {self.identity}
        self._within = within
        self._cap = cap

    def add(self, s: MonomialMap) -> bool:
        if s in self._have:
            return True
        gens = self.generators
        gens.append(s)
        elements, have, within = self.elements, self._have, self._within
        sub = elements[1:]  # H without its identity
        reps = [self.identity]
        for rep in reps:  # grows while it is walked
            for t in gens:
                x = rep * t
                if x in have:
                    continue
                coset = [x] + [h * x for h in sub]
                if within is not None and not within.issuperset(coset):
                    return False
                reps.append(x)
                elements.extend(coset)
                have.update(coset)
                if len(elements) > self._cap:
                    raise CapExceededError(f"closure passed the cap {self._cap}")
        return True


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
    closure = Closure(field, n, cap=cap)
    for g in gens:
        closure.add(g)
    return MonomialGroup(field, n, closure.elements)


# ---------------------------------------------------------------------------
# recognition against named targets


# Targets are tuples: Cyclic(6) == Symmetric(6) and Trivial() is falsy, so
# `recognize` tells them apart by isinstance and nothing compares, hashes or
# truth-tests one.


class Trivial(NamedTuple):
    def name(self) -> str:
        return "trivial"


class Cyclic(NamedTuple):
    k: int

    def name(self) -> str:
        return f"C{self.k}"


class Symmetric(NamedTuple):
    k: int

    def name(self) -> str:
        return f"S{self.k}"


class Dihedral(NamedTuple):
    k: int  # order 2k, k >= 3

    def name(self) -> str:
        return f"Dih{self.k}"


class SemidirectCyclic(NamedTuple):
    m: int
    k: int  # normal C_m extended by C_k

    def name(self) -> str:
        return f"C{self.m}:C{self.k}"


class RecognitionReport(NamedTuple):
    target: object
    matched: bool
    # the default is shared by every report, so it is read-only
    witness: Mapping = MappingProxyType({})


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


def _of_order(group: MonomialGroup, k: int) -> list[MonomialMap]:
    """The elements of order k, in element order; none without a scan when
    k is absent from the cached orders."""
    orders = group.element_orders
    if k not in orders:
        return []
    return [g for g, o in zip(group.elements, orders) if o == k]


def recognize(group: MonomialGroup, target) -> RecognitionReport:
    """Decide whether the group matches a named target, with a witness.

    Cyclic and dihedral matches exhibit generators; the semidirect match
    exhibits the normal cyclic diagonal part, a cyclic complement, and the
    exponent of the conjugation action. Symmetric groups are matched either
    through a faithful full image in the permutation quotient or through the
    exact element-order histogram.

    Facts that follow from the order are not re-checked: a rotation subgroup
    of index 2 is normal; a flip that inverts a rotation of order k >= 3
    does not commute with it, so it lies outside the rotations; the diagonal
    part is normal as the kernel of g -> sigma; and a trivial kernel with
    |G| = k! on k letters forces the image to be all of S_k.
    """
    if not group.complete:
        raise UnclosedGroupError("recognition requires a closed group")
    if group.order > RECOGNITION_CAP:
        raise CapExceededError(f"recognition capped at order {RECOGNITION_CAP}")

    if isinstance(target, Trivial):
        return RecognitionReport(target, group.order == 1)

    if isinstance(target, Cyclic):
        orders = group.element_orders
        if group.order != target.k or target.k not in orders:
            return RecognitionReport(target, False)
        gen = group.elements[orders.index(target.k)]
        return RecognitionReport(target, True, {"generator": gen.to_json()})

    if isinstance(target, Symmetric):
        if group.order != math.factorial(target.k):
            return RecognitionReport(target, False)
        if target.k == group.n and len(group.diagonal_part()) == 1:
            return RecognitionReport(target, True, {"method": "faithful image"})
        if Counter(group.element_orders) == _symmetric_histogram(target.k):
            return RecognitionReport(target, True, {"method": "order histogram"})
        return RecognitionReport(target, False)

    if isinstance(target, Dihedral):
        k = target.k
        if k < 3 or group.order != 2 * k:
            return RecognitionReport(target, False)
        flips = _of_order(group, 2)
        for rot in _of_order(group, k):
            rot_inv = rot.inverse()
            for flip in flips:
                if flip * rot * flip == rot_inv:
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
        diag = group.diagonal_part()
        if len(diag) != m:
            return RecognitionReport(target, False)
        gen = next((g for g in _of_order(group, m) if g.is_diagonal), None)
        if gen is None:
            return RecognitionReport(target, False)
        gen_powers = [MonomialMap.identity(group.field, group.n)]
        while len(gen_powers) < m:
            gen_powers.append(gen_powers[-1] * gen)
        for comp in _of_order(group, k):
            # comp^j is diagonal exactly when sigma^j is the identity, so
            # <comp> meets the diagonal part trivially iff sigma has order k
            if comp.sigma.order() != k:
                continue
            # conjugation action of the complement on the normal generator;
            # the conjugate is diagonal, so it is a power of gen
            conj = comp * gen * comp.inverse()
            return RecognitionReport(
                target,
                True,
                {
                    "normal_generator": gen.to_json(),
                    "complement_generator": comp.to_json(),
                    "action_exponent": gen_powers.index(conj),
                },
            )
        return RecognitionReport(target, False)

    raise ParseError(f"unknown recognition target {target!r}")


class QuotientEmbeddingReport(NamedTuple):
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
    pattern automorphisms of the algebra.

    Each image sigma is tested directly: it is a pattern automorphism when
    relabelling the pattern by sigma gives the pattern back. Closure is
    checked on the generators: every element is a word in them, so the
    image lies in the subgroup their permutations generate, and an image
    that holds the identity and is mapped into itself by each of those
    permutations contains that subgroup; |image| * |generators| products.
    """
    # imported here: solver imports this module, so a module-level import
    # would close the groups <-> solver cycle
    from .solver import diagonal_subgroup

    if not group.complete:
        raise UnclosedGroupError("quotient check requires a closed group")
    kernel = set(group.diagonal_part())
    lattice = diagonal_subgroup(algebra)
    image = {g.sigma for g in group.elements}
    pattern = algebra.digraph
    image_subgroup = Permutation.identity(group.n) in image and all(
        s * g.sigma in image for g in group.generators for s in image
    )
    return QuotientEmbeddingReport(
        kernel_order=len(kernel),
        diagonal_order=lattice.order,
        kernel_equals_diagonal=kernel == set(lattice.maps()),
        kernel_normal=_normal_in(group, kernel),
        image_order=len(image),
        image_in_graph_automorphisms=all(pattern.relabel(s) == pattern for s in image),
        image_is_subgroup=image_subgroup,
        counts_consistent=group.order == len(kernel) * len(image),
    )
