"""Monomial matrix maps e_i -> d_i e_{sigma(i)}, finite groups of them, and
the names of the handful of groups this library recognizes."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

from .digraph import check_size, inverse
from .errors import (
    CapExceededError,
    FieldMismatchError,
    ParseError,
    UnclosedGroupError,
)
from .fields import Field, Scalar
from .lazy import lazy


class MonomialMap:
    """A permutation together with nonzero scalings; matrix form P_sigma * D.
    ``sigma`` is the image tuple (sigma(0), ..., sigma(n-1))."""

    __slots__ = ("sigma", "d")

    def __init__(self, sigma: Sequence[int], d: Sequence[Scalar]):
        sigma, d = tuple(sigma), tuple(d)
        if sorted(sigma) != list(range(len(sigma))):
            raise ParseError(f"not a permutation: {sigma!r}")
        if len(d) != len(sigma):
            raise ParseError("scaling vector length does not match permutation")
        if any(x.is_zero for x in d):
            raise ZeroDivisionError("monomial map needs nonzero scalings")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("MonomialMap is immutable")

    @classmethod
    def identity(cls, field: Field, n: int) -> "MonomialMap":
        return cls(range(n), (field.one,) * n)

    @classmethod
    def diagonal(cls, d: Sequence[Scalar]) -> "MonomialMap":
        d = tuple(d)
        return cls(range(len(d)), d)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def field(self) -> Field:
        return self.d[0].field

    def __mul__(self, other: "MonomialMap") -> "MonomialMap":
        """Map composition applying the right factor first, matching the
        matrix product of the P_sigma * D forms."""
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if self.n != other.n:
            raise ParseError("monomial map size mismatch")
        if self.field != other.field:
            raise FieldMismatchError("monomial maps over different fields")
        d = tuple(self.d[other.sigma[i]] * other.d[i] for i in range(self.n))
        return MonomialMap(compose(self.sigma, other.sigma), d)

    def inverse(self) -> "MonomialMap":
        inv = inverse(self.sigma)
        d = tuple(self.d[inv[j]].inverse() for j in range(self.n))
        return MonomialMap(inv, d)

    def order(self) -> int:
        return _cycle_order(self.field, self.sigma, [x.value for x in self.d], {})

    def sort_key(self):
        return (self.sigma, tuple(x.sort_key() for x in self.d))

    def to_json(self) -> dict:
        """The wire form: sigma as a 1-based image array."""
        return {"sigma": [v + 1 for v in self.sigma], "d": [str(x) for x in self.d]}

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMap)
            and self.sigma == other.sigma
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.sigma, self.d))

    def __repr__(self):
        return f"MonomialMap({self.sigma}, [{', '.join(map(str, self.d))}])"


# ---------------------------------------------------------------------------
# the int form: elements of a finite group as their basis images in Omega
#
# Omega is a list of points (v, c), c a raw nonzero field value, whose first
# n points are the basis points (v, 1); the map (sigma, d) sends the point
# (v, c) to (sigma(v), c * d_v). An element is held as the tuple of the
# indices of its n basis images, its key, which reads off sigma and d, so a
# group costs n ints per element however large Omega is.


def compose(a, b) -> tuple:
    """The image tuple of a*b, applying b first: b's images looked up in
    a's."""
    return tuple(map(a.__getitem__, b))


def sigma_of(points: list, key: tuple) -> tuple[int, ...]:
    """The permutation part of an element, as its image tuple."""
    return tuple([points[i][0] for i in key])


def _cycle_order(field: Field, images, scalings, orders: dict) -> int:
    """Exact order of the map with permutation ``images`` and raw
    ``scalings``, None for one. On the span of a cycle C of length L, the
    L-th power acts as the scalar pi_C, the product of the scalings on C,
    so the order there is L * ord(pi_C); the order of the map is the lcm of
    these over the cycles. ``orders`` caches ord(pi_C) by value."""
    order, seen = 1, [False] * len(images)
    for v in range(len(images)):
        if seen[v]:
            continue
        length, pi, w = 0, None, v
        while not seen[w]:
            seen[w] = True
            length += 1
            c = scalings[w]
            if c is not None:
                pi = c if pi is None else field._mul(pi, c)
            w = images[w]
        if pi is not None:
            k = orders.get(pi)
            if k is None:
                k = Scalar(field, pi).multiplicative_order()
                if k is None:
                    raise CapExceededError(
                        "a cycle product of scalings is not a root of unity; infinite order"
                    )
                orders[pi] = k
            length *= k
        order = math.lcm(order, length)
    return order


def _apply(field: Field, points: list, point, n: int, x: tuple, js) -> tuple:
    """The images of the points ``js`` under the element with key x: it
    sends (w, c) to c times its image of e_w, one field product unless c is
    one. ``point`` gives a point's position in ``points``."""
    mul = field._mul
    out = []
    for j in js:
        if j < n:
            out.append(x[j])
        else:
            w, c = points[j]
            v, d = points[x[w]]
            out.append(point((v, mul(c, d))))
    return tuple(out)


def _columns(g: MonomialMap) -> tuple:
    """The basis images (sigma(v), d_v) of g as points, d_v raw."""
    return tuple(zip(g.sigma, [x.value for x in g.d]))


class MonomialGroup:
    """An explicit duplicate-free set of monomial maps, sorted for
    deterministic serialization.

    The elements are held as keys into Omega, the orbit of the basis: a
    Closure hands over its Omega and keys, and a set of MonomialMaps is keyed
    by ``Closure.key`` of a fresh closure, with Omega the set of their basis
    images. MonomialMaps are built from the keys only for what is read:
    ``generators`` and ``elements`` on first access.

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
        elements: Iterable[MonomialMap] | Closure,
        *,
        complete: bool = True,
    ):
        """``elements`` are MonomialMaps, or a Closure whose elements are
        taken as keys."""
        self.field = field
        self.n = n
        self.complete = complete
        self._unity_orders: dict = {}
        if isinstance(elements, Closure):
            closure, keys = elements, elements.elements
        else:
            closure = Closure(field, n)
            keys = set(map(closure.key, elements))
        points = self._points = closure.points
        self._index = closure.index
        vertex = [v for v, _ in points]
        raw_key = [field._sort_key(c) for _, c in points]
        keys = sorted(
            keys,
            key=lambda k: (
                tuple(map(vertex.__getitem__, k)),
                tuple(map(raw_key.__getitem__, k)),
            ),
        )
        self._keys = tuple(keys)
        generators = ()
        if complete:
            # the closure lies inside the finite set and contains all of it,
            # so the set is closed under products and hence a group
            within = set(keys)
            proof = Closure(field, n, index=self._index, within=within)
            if tuple(range(n)) not in within or not all(map(proof._add, keys)):
                raise UnclosedGroupError("element set is not closed under the group laws")
            generators = proof.generators
        self._generator_keys = tuple(generators)

    @property
    def order(self) -> int:
        return len(self._keys)

    @lazy
    def elements(self) -> tuple[MonomialMap, ...]:
        return tuple(map(self._box, self._keys))

    @lazy
    def generators(self) -> tuple[MonomialMap, ...]:
        return tuple(map(self._box, self._generator_keys))

    @lazy
    def element_orders(self) -> tuple[int, ...]:
        """The order of each element, aligned with ``elements``; computed
        once per group and read by ``recognize``."""
        return tuple(map(self._order, self._keys))

    def _order(self, key: tuple) -> int:
        n, points = self.n, self._points
        return _cycle_order(
            self.field,
            sigma_of(points, key),
            [points[j][1] if j >= n else None for j in key],
            self._unity_orders,
        )

    def _box(self, key: tuple) -> MonomialMap:
        points = self._points
        return MonomialMap(
            sigma_of(points, key), [Scalar(self.field, points[i][1]) for i in key]
        )

    def _product(self, a: tuple, b: tuple) -> tuple:
        """The key of a*b; Omega holds every image, being the orbit of the
        basis."""
        return _apply(self.field, self._points, self._index.__getitem__, self.n, a, b)

    @lazy
    def diagonal_order(self) -> int:
        """The order of the diagonal part; sigma = id is the least image
        tuple, so the diagonal elements sort first."""
        ident = tuple(range(self.n))
        count = 0
        for key in self._keys:
            if sigma_of(self._points, key) != ident:
                break
            count += 1
        return count


class Closure:
    """Dimino's closure (Butler 1991; Seress 2003) on keys, grown one
    generator at a time.

    ``add(s)`` keeps s as a new generator unless the group found so far
    already holds it; membership is read off s's n basis images. The group
    then grows by whole left cosets x*H of the previous subgroup H: each
    coset representative is multiplied on the left by every generator so
    far, and a product outside the group found so far starts a new coset.
    A product of keys costs n lookups and a field product for each scaled
    point. A new representative is taken to the points that H's keys
    reach, which gives its products with H by lookups alone: |G| products
    for the cosets and |S| per representative for the generators S.

    Omega starts as the basis points and grows by the images these
    products reach, so it is the orbit of the basis. A key indexes points
    that never move, so the elements found so far stay valid as Omega
    grows. Omega's size counts against the closure cap, as the group's
    does; an element of infinite order grows Omega without end.

    ``elements`` lists the keys in generation order, identity first,
    ``keys`` holds them as a set and ``generators`` the keys of the kept
    generators. With ``index`` (each point's position) and ``within`` (a
    set of keys) given, Omega is fixed, and ``_add`` returns False as soon
    as an image leaves Omega or a product falls outside ``within``, leaving
    the closure unfinished. The constructor of MonomialGroup proves sets
    closed with it, ``close_generators`` closes generator lists, and
    ``automorphism_group`` grows it by lifts.
    """

    def __init__(
        self,
        field: Field,
        n: int,
        *,
        index: Optional[dict] = None,
        within: Optional[set] = None,
    ):
        self.field = field
        self.n = n
        if index is None:
            one = field.one.value
            index = {(v, one): v for v in range(n)}
        # the points of Omega in order, and each point's position
        self.index = index
        self.points = list(index)
        self._within = within
        self.elements = [tuple(range(n))]
        self.keys = set(self.elements)
        self.generators: list[tuple] = []

    def key(self, s: MonomialMap) -> tuple:
        """The key of s: the positions of its basis images, which join Omega
        when new."""
        if s.n != self.n or s.field is not self.field:
            raise FieldMismatchError("monomial map disagrees with the closure on n or field")
        return tuple(map(self._point, _columns(s)))

    def add(self, s: MonomialMap) -> bool:
        return self._add(self.key(s))

    def _add(self, key: tuple) -> bool:
        return key in self.keys or self._extend(key)

    def _point(self, p) -> Optional[int]:
        """The position of point p, which joins Omega if it is new; None
        when Omega is fixed and p is new."""
        i = self.index.get(p)
        if i is None and self._within is None:
            i = self.index[p] = len(self.points)
            self.points.append(p)
            check_size(len(self.points), "the orbit of the basis")
        return i

    def _extend(self, s: tuple) -> bool:
        """Dimino's step for a generator s outside the group found so far."""
        n, points, point = self.n, self.points, self._point
        gens = self.generators
        gens.append(s)
        elements, keys, within = self.elements, self.keys, self._within
        # H acts on the points its keys reach; the basis points come first
        support = sorted(set().union(*elements))
        at = {j: i for i, j in enumerate(support)}
        sub = [tuple(map(at.__getitem__, h)) for h in elements]
        reps = [tuple(range(n))]
        for rep in reps:  # grows while it is walked
            for t in gens:
                x = _apply(self.field, points, point, n, t, rep)
                if x in keys:
                    continue
                # off a fixed Omega a point is None, and the coset leaves
                # ``within``
                on_support = _apply(self.field, points, point, n, x, support)
                coset = [compose(on_support, h) for h in sub]
                if within is not None and not within.issuperset(coset):
                    return False
                reps.append(x)
                elements.extend(coset)
                keys.update(coset)
                check_size(len(elements), "closure")
        return True


def close_generators(
    gens: Sequence[MonomialMap],
    *,
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
    closure = Closure(field, n)
    for g in gens:
        closure.add(g)
    return MonomialGroup(field, n, closure)


# ---------------------------------------------------------------------------
# recognition by name


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


def _normal_in(group: MonomialGroup, keys: Sequence[tuple]) -> bool:
    """Whether the elements with these keys form a normal subset. Conjugation
    by the generators is enough: for a finite set S, g S g^-1 inside S
    forces equality, so every word in them fixes S; and g S g^-1 = S exactly
    when g S = S g, which needs no inverse."""
    product = group._product
    return all(
        {product(g, s) for s in keys} == {product(s, g) for s in keys}
        for g in group._generator_keys
    )


def _of_order(group: MonomialGroup, k: int) -> list[tuple]:
    """The keys of the elements of order k, in element order; none without
    a scan when k is absent from the cached orders."""
    orders = group.element_orders
    if k not in orders:
        return []
    return [p for p, o in zip(group._keys, orders) if o == k]


def _is_dihedral(group: MonomialGroup, k: int) -> bool:
    """Whether the group of order 2k holds a rotation of order k and a flip
    of order 2 that inverts it."""
    identity, product = tuple(range(group.n)), group._product
    rotations = _of_order(group, k)
    flips = _of_order(group, 2) if rotations else []
    for rot in rotations:
        for flip in flips:
            # flip*rot*flip = rot^-1 exactly when (flip*rot)^2 = 1
            turn = product(flip, rot)
            if product(turn, turn) == identity:
                return True
    return False


def _is_cyclic_by_cyclic(group: MonomialGroup, m: int, k: int) -> bool:
    """Whether the group of order mk with diagonal part of order m is C_m:C_k:
    the diagonal part, its first m elements, is cyclic, and an element of
    order k generates a complement."""
    if m not in group.element_orders[:m]:
        return False
    # comp^j is diagonal exactly when sigma^j is the identity, so <comp>
    # meets the diagonal part trivially iff sigma has order k
    unscaled = [None] * group.n
    return any(
        _cycle_order(group.field, sigma_of(group._points, comp), unscaled, {}) == k
        for comp in _of_order(group, k)
    )


def recognize(group: MonomialGroup) -> list[str]:
    """The names of the group, in this order: ``trivial``; ``C|G|``; ``Sk``
    for k! = |G|; ``Dihk`` for 2k = |G|, k >= 3; and ``Cm:Ck`` for the
    diagonal part of order m > 1 and mk = |G|. A partial group gets none.

    Symmetric groups are matched either through a faithful full image in
    the permutation quotient or through the exact element-order histogram.
    A trivial diagonal part (the kernel of g -> sigma) with |G| = k! on
    k = n letters forces the image to be all of S_k. For k >= 4 no element
    of S_k has order k! or k!/2, so neither C|G| nor Dih(|G|/2) can match,
    no Cm:Ck applies with m = 1, and the name is read off without a single
    element order.

    Facts that follow from the order are not re-checked: a rotation subgroup
    of index 2 is normal; a flip that inverts a rotation of order k >= 3
    does not commute with it, so it lies outside the rotations; and the
    diagonal part is normal as the kernel of g -> sigma.
    """
    if not group.complete:
        return []
    order = group.order
    k = 2
    while math.factorial(k) < order:
        k += 1
    symmetric = math.factorial(k) == order
    diagonal = group.diagonal_order
    faithful = symmetric and k == group.n and diagonal == 1
    if faithful and k >= 4:
        return [f"S{k}"]

    names = ["trivial"] if order == 1 else []
    orders = group.element_orders
    if order in orders:
        names.append(f"C{order}")
    if symmetric and (faithful or Counter(orders) == _symmetric_histogram(k)):
        names.append(f"S{k}")
    if order % 2 == 0 and order >= 6 and _is_dihedral(group, order // 2):
        names.append(f"Dih{order // 2}")
    if 1 < diagonal < order and _is_cyclic_by_cyclic(group, diagonal, order // diagonal):
        names.append(f"C{diagonal}:C{order // diagonal}")
    return names


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


def quotient_embedding_check(
    group: MonomialGroup, algebra, lattice
) -> QuotientEmbeddingReport:
    """Confirm that the diagonal maps form the kernel of the permutation
    quotient, that they are normal, and that the quotient lands inside the
    pattern automorphisms of the algebra.

    ``lattice`` is the algebra's ``diagonal_subgroup``, D solved in exponent
    space. The kernel is compared with it on keys: a map of D whose basis
    image is missing from Omega gets a key holding None, which no element
    has.

    Each image sigma is tested directly: it is a pattern automorphism when
    relabelling the pattern by sigma gives the pattern back. Closure is
    checked on the generators: every element is a word in them, so the
    image lies in the subgroup their permutations generate, and an image
    that holds the identity and is mapped into itself by each of those
    permutations contains that subgroup; |image| * |generators| products.
    """
    if not group.complete:
        raise UnclosedGroupError("quotient check requires a closed group")
    kernel = group._keys[: group.diagonal_order]
    diagonal = {tuple(map(group._index.get, _columns(m))) for m in lattice.maps()}
    image = {sigma_of(group._points, key) for key in group._keys}
    pattern = algebra.digraph
    gens = [sigma_of(group._points, key) for key in group._generator_keys]
    image_subgroup = tuple(range(group.n)) in image and all(
        compose(s, g) in image for g in gens for s in image
    )
    return QuotientEmbeddingReport(
        kernel_order=len(kernel),
        diagonal_order=lattice.order,
        kernel_equals_diagonal=set(kernel) == diagonal,
        kernel_normal=_normal_in(group, kernel),
        image_order=len(image),
        image_in_graph_automorphisms=all(
            pattern.relabel(s) == pattern for s in image
        ),
        image_is_subgroup=image_subgroup,
        counts_consistent=group.order == len(kernel) * len(image),
    )
