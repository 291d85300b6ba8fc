"""Solving for the scalings that extend a permutation to an algebra map,
assembling automorphism groups, diagonal subgroups, isomorphism decisions,
and the small brute-force oracle used to cross-check everything.

A monomial map (sigma, d) carries the source algebra A onto the target B
exactly when

    d_k * a_kj = d_j^2 * b_{sigma(k) sigma(j)}   for all k, j,

which forces the zero patterns to correspond and turns, along any transversal
cycle of length L, into a single equation x^(2^L - 1) = c for the scaling at
the cycle root. Remaining constraints are cross-checked afterwards.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple, Optional

from .algebra import EvolutionAlgebra
from .digraph import (
    AutomorphismChain,
    automorphism_chain,
    check_size,
    greedy_generators,
    inverse,
    pattern_isomorphisms,
)
from .errors import CapExceededError, FieldMismatchError, ParseError
from .fields import PrimeField, Scalar
from .groups import Closure, MonomialGroup, MonomialMap, compose, sigma_of
from .snf import CongruenceSolution, solve_homogeneous_mod

ORACLE_PRIME_CAP = 13
ORACLE_DIMENSION_CAP = 4


class SolveStatus(enum.Enum):
    COMPLETE = "complete"
    INDETERMINATE = "indeterminate"


class SolveOutcome(NamedTuple):
    status: SolveStatus
    maps: tuple[MonomialMap, ...] = ()
    unsolved: tuple[str, ...] = ()


def _check_pair(a: EvolutionAlgebra, b: EvolutionAlgebra) -> None:
    if a.n != b.n:
        raise ParseError("algebras have different dimensions")
    if a.field != b.field:
        raise FieldMismatchError("algebras live over different fields")
    a.require_idempotent()
    b.require_idempotent()


def solve_monomial(
    a: EvolutionAlgebra, b: EvolutionAlgebra, sigma: tuple[int, ...]
) -> SolveOutcome:
    """All scaling vectors d making (sigma, d) a map of E(A) onto E(B),
    sigma an image tuple.

    Steps: reject, as COMPLETE with no maps, on a zero-pattern mismatch or
    when a loop invariant I_kj = a_kj * a_kk / a_jj^2 of A differs from B's
    at (sigma k, sigma j); then solve d_k = d_j^2 * r_kj at the nonzero
    entries with `_solve_components`. The screens read A's support off its
    digraph, and A's `inverses` are built on the first sigma that passes
    both, so an algebra whose every sigma is screened out never builds them.
    """
    _check_pair(a, b)
    if len(sigma) != a.n:
        raise ParseError("permutation size mismatch")

    b_pattern = b.digraph.rows
    for k, cols in enumerate(a.support):
        image = 0
        for j in cols:
            image |= 1 << sigma[j]
        if image != b_pattern[sigma[k]]:
            return SolveOutcome(SolveStatus.COMPLETE)
    return _solve_matched(a, b, sigma)


def _solve_matched(
    a: EvolutionAlgebra, b: EvolutionAlgebra, sigma: tuple[int, ...]
) -> SolveOutcome:
    """``solve_monomial`` for a sigma that carries A's zero pattern onto
    B's, as every pattern automorphism does: the loop-invariant screen, then
    `_solve_components`."""
    # the patterns correspond, so B has an invariant wherever A has one
    entries = a.loop_invariants.entries
    if entries:
        target = b.loop_invariants.matrix
        for k, j, value in entries:
            if target[sigma[k]][sigma[j]] != value:
                return SolveOutcome(SolveStatus.COMPLETE)

    mul, b_raw, inverses = a.field._mul, b.raw_rows, a.inverses

    def ratio(j, k):
        # d_k = d_j^2 * ratio(j, k)
        return mul(b_raw[sigma[k]][sigma[j]], inverses[k][j])

    return _solve_components(a, sigma, ratio)


def _solve_components(a: EvolutionAlgebra, sigma: tuple[int, ...], ratio) -> SolveOutcome:
    """The maps (sigma, d) with d_k = d_j^2 * ratio(j, k) on every edge
    (j, k) of A's pattern, on raw field values; a ratio is computed only
    when a cycle or a check reaches it.

    For each of A's constraint components, root every transversal cycle in
    it, solve its closing equation with kth_roots, and combine the cycle
    candidates, checking the component's other edges; multiply the
    components out, sorted by scaling vector. Components are independent:
    one with an undecided cycle equation is skipped and its equation
    reported, and the outcome is INDETERMINATE only if no component settles
    it. An unsatisfiable cycle, or a decided component with no solution,
    settles it as COMPLETE with no maps.
    """
    field, mul = a.field, a.field._mul
    indeterminate: list[str] = []
    component_solutions: list[list[dict]] = []
    for cycles, edges in a.components:
        cycle_options = []
        for cycle in cycles:
            # d at the idx-th cycle vertex is coeff[idx] * root^(2^idx);
            # coeff[0] is one (None here), and the edge back to the start
            # closes the cycle as root = closing * root^(2^L), that is
            # root^(2^L - 1) = 1 / closing
            coeff = [None]
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                r, c = ratio(v, w), coeff[-1]
                coeff.append(r if c is None else mul(r, mul(c, c)))
            closing = coeff.pop()
            k_exp = 2 ** len(cycle) - 1
            roots = field.kth_roots(Scalar(field, field._inv(closing)), k_exp)
            if not roots.complete:
                indeterminate.append(roots.equation or f"x^{k_exp} = ?")
                continue
            if not roots.roots:
                # one unsatisfiable cycle settles the whole solve, even if some
                # other cycle equation was left undecided
                return SolveOutcome(SolveStatus.COMPLETE, ())
            options = []
            for root in roots.roots:
                t_pow = root.value
                values = [(cycle[0], t_pow)]
                for v, c in zip(cycle[1:], coeff[1:]):
                    t_pow = mul(t_pow, t_pow)
                    values.append((v, mul(c, t_pow)))
                options.append(values)
            cycle_options.append(options)
        if len(cycle_options) < len(cycles):
            continue  # an open cycle equation leaves this component undecided

        ratios = [None] * len(edges)
        solutions = []
        for combo in itertools.product(*cycle_options):
            merged = dict(itertools.chain.from_iterable(combo))
            for idx, (j, k) in enumerate(edges):
                r = ratios[idx]
                if r is None:
                    r = ratios[idx] = ratio(j, k)
                d_j = merged[j]
                if merged[k] != mul(mul(d_j, d_j), r):
                    break
            else:
                solutions.append(merged)
        if not solutions:
            # components are independent: a decided one without solutions
            # settles the solve, even beside an undecided one
            return SolveOutcome(SolveStatus.COMPLETE, ())
        component_solutions.append(solutions)

    if indeterminate:
        return SolveOutcome(
            SolveStatus.INDETERMINATE, unsolved=tuple(sorted(set(indeterminate)))
        )

    maps = []
    for combo in itertools.product(*component_solutions):
        merged = {}
        for part in combo:
            merged.update(part)
        d = tuple(Scalar(field, merged[v]) for v in range(a.n))
        maps.append(MonomialMap(sigma, d))
    maps = sorted(set(maps), key=MonomialMap.sort_key)
    return SolveOutcome(SolveStatus.COMPLETE, tuple(maps))


# ---------------------------------------------------------------------------
# diagonal automorphism subgroup in root-of-unity exponent space


class DiagonalLattice:
    """The diagonal automorphisms d_i = g^(x_i), described by the solution
    subgroup of the congruences 2 x_j = x_i (mod N) at nonzero entries."""

    __slots__ = ("generator", "exponents")

    def __init__(self, generator: Scalar, exponents: CongruenceSolution):
        self.generator = generator
        self.exponents = exponents

    @property
    def modulus(self) -> int:
        return self.exponents.modulus

    @property
    def order(self) -> int:
        return self.exponents.order

    def maps(self) -> tuple[MonomialMap, ...]:
        check_size(self.order, f"diagonal subgroup of order {self.order}")
        # only the exponents that occur are raised: the modulus can be p - 1
        vecs = list(self.exponents.elements())
        powers = {e: self.generator**e for e in set(itertools.chain.from_iterable(vecs))}
        out = [MonomialMap.diagonal(tuple(powers[e] for e in vec)) for vec in vecs]
        return tuple(sorted(set(out), key=MonomialMap.sort_key))


def diagonal_subgroup(a: EvolutionAlgebra) -> DiagonalLattice:
    """Diagonal automorphisms of E(A), solved in exponent space.

    Every nonzero entry (i, j) forces d_j^2 = d_i; writing d_i = g^(x_i) over
    the root-of-unity group of order N turns that into 2 x_j - x_i = 0
    (mod N), solved via the Smith normal form of the constraint matrix.
    """
    a.require_idempotent()
    n = a.n
    rows = []
    for i, cols in enumerate(a.support):
        for j in cols:
            row = [0] * n
            row[j] += 2
            row[i] -= 1
            rows.append(row)
    unity = a.field.unity_group()
    return DiagonalLattice(
        generator=unity.generator,
        exponents=solve_homogeneous_mod(rows, n, unity.order),
    )


# ---------------------------------------------------------------------------
# full automorphism group


class PatternSolve(NamedTuple):
    """What the automorphism search of E(A) reads that depends only on A's
    zero pattern and the field, so every algebra with that pattern can share
    it. Aut(P) is held as its stabilizer chain, and never as a list of
    sigma."""

    chain: AutomorphismChain  # automorphism_chain(a.digraph)
    diagonal: tuple[MonomialMap, ...]  # D, sorted


def _loops_reach_all(rows: tuple[int, ...]) -> bool:
    """Whether every vertex of the pattern with row bitmasks ``rows`` can be
    reached from a loop along the edges j -> k, a_kj != 0."""
    reached = 0
    for v, row in enumerate(rows):
        reached |= (row >> v & 1) << v
    grown = True
    while grown:
        grown = False
        for k, row in enumerate(rows):
            if row & reached and not reached >> k & 1:
                reached |= 1 << k
                grown = True
    return reached == (1 << len(rows)) - 1


def _pattern_solve(a: EvolutionAlgebra) -> PatternSolve:
    a.require_idempotent()
    chain = automorphism_chain(a.digraph)
    field = a.field
    # D is trivial by either of two rules, and the first builds no
    # component. A loop at v gives d_v = d_v^2, so d_v = 1, and an edge
    # j -> k gives d_k = d_j^2, which carries d_j = 1 on to d_k. And 1 is the
    # only root of x^(2^L - 1) = 1 among the field's N roots of unity when
    # gcd(2^L - 1, N) = 1; then every cycle root is 1, and so is every d_v
    unity = field.unity_group().order
    if _loops_reach_all(a.digraph.rows) or all(
        math.gcd(2 ** len(c) - 1, unity) == 1 for cycles, _ in a.components for c in cycles
    ):
        diagonal = (MonomialMap.identity(field, a.n),)
    else:
        one = field.one.value
        diagonal = _solve_components(a, tuple(range(a.n)), lambda j, k: one).maps
    return PatternSolve(chain, diagonal)


class PatternMemo:
    """One run's ``pattern_solve`` results, keyed by field and zero pattern
    (the digraph's row bitmasks).

    A record holds Aut(P) as a stabilizer chain, at most n^2 image tuples
    however large the group, and no list of sigma. Equal chains, diagonal
    groups and records are stored once, so the memo costs little beyond its
    keys on runs over many patterns. It also holds, for each D that some
    algebra's whole Aut(E) equals, that group as a ``MonomialGroup``, built
    and proven closed once.
    """

    def __init__(self):
        self._by_pattern: dict[tuple, PatternSolve] = {}
        self._shared: dict = {}
        self._groups: dict[tuple[MonomialMap, ...], MonomialGroup] = {}

    def __len__(self) -> int:
        return len(self._by_pattern)

    def __call__(self, a: EvolutionAlgebra) -> PatternSolve:
        key = (a.field, a.digraph.rows)
        pattern = self._by_pattern.get(key)
        if pattern is None:
            share = self._shared.setdefault
            chain, diagonal = _pattern_solve(a)
            pattern = PatternSolve(share(chain, chain), share(diagonal, diagonal))
            pattern = self._by_pattern[key] = share(pattern, pattern)
        return pattern

    def diagonal_group(self, field, n: int, diagonal: tuple[MonomialMap, ...]) -> MonomialGroup:
        """The group D, built and proven closed once per run for each D."""
        group = self._groups.get(diagonal)
        if group is None:
            group = self._groups[diagonal] = MonomialGroup(field, n, diagonal)
        return group


# the memo of the current run, set only by pattern_run; library calls
# outside a run see None
RUN_PATTERNS: ContextVar[Optional[PatternMemo]] = ContextVar("run_patterns", default=None)


@contextmanager
def pattern_run() -> Iterator[None]:
    """One run: inside the block ``pattern_solve`` answers from a fresh
    memo, which is dropped when the block ends, also when it raises. A
    nested run gets its own memo."""
    token = RUN_PATTERNS.set(PatternMemo())
    try:
        yield
    finally:
        RUN_PATTERNS.reset(token)


def pattern_solve(a: EvolutionAlgebra) -> PatternSolve:
    """The pattern automorphisms of A, as a chain, and its diagonal group
    D, from the run's memo inside a run and computed afresh outside one.

    D is read off the zero pattern: it is the solve of A against itself
    under sigma = id, where every ratio b_kj * a_kj^-1 is one. So each cycle
    equation reads x^(2^L - 1) = 1, which every field decides, the edge
    checks read d_k = d_j^2, and no entry of A is read or inverted. D is
    trivial, and nothing is solved, when every vertex can be reached from a
    loop along the edges j -> k (a_kj != 0), or when no cycle length L has
    gcd(2^L - 1, N) > 1 for the field's N roots of unity, as over Q and
    GF(3). The first rule reads only the pattern's rows, so it builds no
    constraint components.
    """
    memo = RUN_PATTERNS.get()
    return _pattern_solve(a) if memo is None else memo(a)


def automorphism_group(a: EvolutionAlgebra) -> MonomialGroup:
    """The group of all monomial self-maps of E(A); every automorphism is one.

    Aut(E) is an extension of the diagonal group D, the lifts of the
    identity, by the subgroup L of pattern automorphisms that lift, and the
    lifts of each sigma in L form one coset of D. So D, with the pattern
    automorphisms as a chain, comes first from ``pattern_solve``.

    The strong generators of the chain are solved first, up to the first
    that does not lift or is left open. When every one lifts, L is all of
    Aut(P), and the group is held as D, the chain and a lift of each strong
    generator, of order |D| |Aut(P)|, with no element listed
    (``_lifted_group``).

    Otherwise one walk over the pattern automorphisms, which are refused
    past CLOSURE_CAP first, goes off their chain in lexicographic order and
    reuses the solves already made. It keeps a closure of D and the lifts
    found so far, with its image H in L; until a first sigma lifts, H is
    {id} and no closure is built. A sigma in H is skipped: its lifts are
    already products in the closure. A sigma without lifts marks its coset
    H*sigma dead, since h*sigma lifting would make sigma lift, and a sigma
    in a dead coset is skipped too; while H is {id} that coset is sigma
    alone, which the walk has passed. Every other sigma is solved once, and
    its lifts extend the closure. The walk stops as soon as H is all of
    Aut(P).

    A sigma whose solve leaves a cycle equation open is recorded and the
    walk goes on. At the end it is settled when it lies in the final image
    H (it lifts), or when its double coset H*sigma*H holds a tau without
    lifts or the inverse of one (it does not: lifts of h, sigma and h'
    multiply to a lift of h*sigma*h', and the inverse of a lift lifts the
    inverse). The group is complete when every open sigma is settled.
    Either way its elements are the closure of D and the lifts found, so
    its diagonal part is D; a partial group is a subgroup of Aut(E), not
    claimed to be all of it.

    When no sigma != id lifts and none is left open, Aut(E) = D, and the
    group is the run's group of D (``PatternMemo.diagonal_group``), shared
    by every such algebra with an equal D; outside a run it is built
    afresh.
    """
    a.require_idempotent()
    pattern = pattern_solve(a)
    chain = pattern.chain
    solved: dict[tuple[int, ...], SolveOutcome] = {}
    for s in chain.generators:
        outcome = solved[s] = _solve_matched(a, a, s)
        if not outcome.maps:
            break
    else:
        group = _lifted_group(a, pattern, solved)
        if group is not None:
            return group
    check_size(chain.order, "pattern automorphisms")
    closure = None
    image = {tuple(range(a.n))}
    barren: list[tuple[int, ...]] = []
    dead: set[tuple[int, ...]] = set()
    unsettled: list[tuple[int, ...]] = []
    for s in chain.walk():
        if s in image or s in dead:
            continue
        outcome = solved.get(s) or _solve_matched(a, a, s)
        if outcome.status is SolveStatus.INDETERMINATE:
            unsettled.append(s)
        elif outcome.maps:
            if closure is None:
                closure = _closure_of(a, pattern.diagonal)
            # the closure only appends, so the elements past the old count
            # are the new ones
            listed = len(closure.elements)
            for g in outcome.maps:
                closure.add(g)
            image.update(sigma_of(closure.points, p) for p in closure.elements[listed:])
            if len(image) == chain.order:
                break  # H = Aut(P): every sigma still to come is in H
        else:
            barren.append(s)
            if closure is not None:
                dead.update(compose(h, s) for h in image)
    if closure is None:
        if not unsettled:
            return _diagonal_group(a, pattern.diagonal)
        closure = _closure_of(a, pattern.diagonal)
    complete = True
    if unsettled:
        gens = [sigma_of(closure.points, p) for p in closure.generators]
        seeds = barren + [inverse(t) for t in barren]
        ruled_out = _double_cosets(seeds, gens)
        complete = all(s in image or s in ruled_out for s in unsettled)
    return MonomialGroup(a.field, a.n, closure, complete=complete)


def _diagonal_group(a: EvolutionAlgebra, diagonal: tuple[MonomialMap, ...]) -> MonomialGroup:
    """The group D: the run's, or afresh outside a run."""
    memo = RUN_PATTERNS.get()
    if memo is None:
        return MonomialGroup(a.field, a.n, diagonal)
    return memo.diagonal_group(a.field, a.n, diagonal)


def _lifted_group(
    a: EvolutionAlgebra, pattern: PatternSolve, solved: dict
) -> Optional[MonomialGroup]:
    """Aut(E) when every strong generator of Aut(P) lifts, so that L is
    Aut(P): held as D, the chain and the first lift of each strong
    generator, with no element listed. Its greedy generators are D's and
    then the least lift of each greedy generator of Aut(P), read off the
    chain (``greedy_generators``); a sigma not solved yet is solved here.
    None when such a solve leaves a cycle equation open, and the walk then
    decides."""
    chain = pattern.chain
    if not chain.generators:
        return _diagonal_group(a, pattern.diagonal)
    least = []
    for s in greedy_generators(chain):
        outcome = solved[s] = solved.get(s) or _solve_matched(a, a, s)
        if not outcome.maps:
            return None
        least.append(outcome.maps[0])
    return MonomialGroup(
        a.field,
        a.n,
        _closure_of(a, pattern.diagonal),
        lifts=[solved[s].maps[0] for s in chain.generators],
        image_order=chain.order,
        image_generators=least,
    )


def _closure_of(a: EvolutionAlgebra, diagonal: tuple[MonomialMap, ...]) -> Closure:
    """A closure holding D, which the lifts then extend."""
    closure = Closure(a.field, a.n)
    for g in diagonal:
        closure.add(g)
    return closure


def _double_cosets(seeds: list[tuple], gens: list[tuple]) -> set[tuple]:
    """The union of the double cosets H*tau*H of the seeds, H generated by
    ``gens``: a search by one generator on either side, 2 |gens| products
    per member rather than |H|^2 per seed. Words in the generators reach
    all of H, which is finite. Its size counts against the closure cap."""
    seen = set(seeds)
    todo = list(seen)
    for x in todo:  # grows while it is walked
        for h in gens:
            for y in (compose(h, x), compose(x, h)):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        check_size(len(seen), "double cosets")
    return seen


# ---------------------------------------------------------------------------
# isomorphism testing with certificates


class IsoStatus(enum.Enum):
    ISOMORPHIC = "isomorphic"
    NOT_ISOMORPHIC = "non-isomorphic"
    INDETERMINATE = "indeterminate"


class IsomorphismResult:
    __slots__ = ("status", "witness", "certificate", "candidates_exhausted", "unsolved")

    def __init__(
        self,
        status: IsoStatus,
        witness: Optional[MonomialMap] = None,
        certificate: Optional[dict] = None,
        candidates_exhausted: int = 0,
        unsolved: tuple[str, ...] = (),
    ):
        self.status = status
        self.witness = witness
        self.certificate = certificate
        self.candidates_exhausted = candidates_exhausted
        self.unsolved = unsolved

    @property
    def found(self) -> bool:
        return self.status is IsoStatus.ISOMORPHIC


def verify_map(a: EvolutionAlgebra, b: EvolutionAlgebra, m: MonomialMap) -> bool:
    """Check both matrix identities of an algebra map E(A) -> E(B) for
    P = P_sigma * D: the squared-column identity B P^(2) = P A, entry by
    entry, and the annihilation B (P * P) = 0, read off sigma."""
    checks = certificate_checks(a, b, m)
    return all(checks.values())


def certificate_checks(
    a: EvolutionAlgebra, b: EvolutionAlgebra, m: MonomialMap
) -> dict[str, bool]:
    """Both identities for P = P_sigma * D, read off (sigma, d) on raw field
    values. Row sigma(k) of P A is d_k times row k of A and column j of
    B P^(2) is d_j^2 times column sigma(j) of B, so B P^(2) = P A, on all
    n^2 entries with zeros included, reads
    b_{sigma k sigma j} * d_j^2 = d_k * a_kj for every k and j."""
    if m.n != a.n or a.n != b.n:
        raise ParseError("shape mismatch in verify_map")
    if a.field != b.field or m.field != a.field:
        raise FieldMismatchError("certificate over different fields")
    mul, sigma = a.field._mul, m.sigma
    d = [x.value for x in m.d]
    d_sq = [mul(x, x) for x in d]
    b_rows = [b.raw_rows[s] for s in sigma]  # row sigma(k) of B at k
    return {
        "BP2_eq_PA": all(
            mul(b_row[sigma[j]], d_sq[j]) == mul(d_k, a_kj)
            for d_k, a_row, b_row in zip(d, a.raw_rows, b_rows)
            for j, a_kj in enumerate(a_row)
        ),
        # column (i, j), i < j, of P * P holds p_ki * p_kj, nonzero only in
        # row k = sigma(i) = sigma(j); so P * P, and with it B (P * P), is
        # zero when sigma is injective
        "B_PstarP_zero": len(set(sigma)) == m.n,
    }


def make_certificate(
    a: EvolutionAlgebra, b: EvolutionAlgebra, m: MonomialMap
) -> dict:
    cert = m.to_json()
    cert["checked"] = certificate_checks(a, b, m)
    return cert


def isomorphism(a: EvolutionAlgebra, b: EvolutionAlgebra) -> IsomorphismResult:
    """Search the pattern isomorphisms of the associated digraphs and solve
    for scalings; the first witness comes with a machine-checkable
    certificate.

    A pattern isomorphism sigma carries the entries of A that hold a loop
    invariant one to one onto B's, so when the two multisets of invariant
    values differ, every sigma fails the invariant screen of the solve.
    Then no sigma is walked: the answer is non-isomorphic after all of
    them, |Iso(P_A, P_B)|, which is 0 or |Aut(P_A)|."""
    _check_pair(a, b)
    if _invariant_values(a) != _invariant_values(b):
        none = next(pattern_isomorphisms(a.digraph, b.digraph), None) is None
        count = 0 if none else automorphism_chain(a.digraph).order
        return IsomorphismResult(IsoStatus.NOT_ISOMORPHIC, candidates_exhausted=count)
    unsolved: list[str] = []
    count = 0
    for sigma in pattern_isomorphisms(a.digraph, b.digraph):
        count += 1
        check_size(count, "pattern isomorphisms")
        outcome = solve_monomial(a, b, sigma)
        if outcome.status is SolveStatus.INDETERMINATE:
            unsolved.extend(outcome.unsolved)
            continue
        if outcome.maps:
            witness = outcome.maps[0]
            return IsomorphismResult(
                IsoStatus.ISOMORPHIC,
                witness=witness,
                certificate=make_certificate(a, b, witness),
                candidates_exhausted=count,
            )
    if unsolved:
        return IsomorphismResult(
            IsoStatus.INDETERMINATE,
            candidates_exhausted=count,
            unsolved=tuple(sorted(set(unsolved))),
        )
    return IsomorphismResult(IsoStatus.NOT_ISOMORPHIC, candidates_exhausted=count)


def _invariant_values(a: EvolutionAlgebra) -> Counter:
    """The multiset of A's loop invariant values."""
    return Counter(value for _, _, value in a.loop_invariants.entries)


# ---------------------------------------------------------------------------
# brute-force oracle over small prime fields


def _entry_pairs(
    rows: tuple[tuple[int, ...], ...], sigma: tuple[int, ...]
) -> Optional[list[tuple[int, int, int, int]]]:
    """The entries (k, i, a_ki, a_{sigma k sigma i}) with both values
    nonzero, or None when some entry has exactly one of them zero."""
    pairs = []
    for k, a_row in enumerate(rows):
        b_row = rows[sigma[k]]
        for i, x in enumerate(a_row):
            y = b_row[sigma[i]]
            if x and y:
                pairs.append((k, i, x, y))
            elif x or y:
                return None
    return pairs


def brute_force_automorphisms(a: EvolutionAlgebra) -> MonomialGroup:
    """Oracle: enumerate every nonsingular monomial matrix G over GF(p) and
    keep those with A G^(2) = G A, on int residues mod p.

    Let G send e_k to d_k e_{sigma k}. Then every entry of both products is
    one product: at (sigma k, i), G A holds d_k a_ki and A G^(2) holds
    a_{sigma k sigma i} d_i^2. So each sigma pairs the n^2 entries
    (a_ki, a_{sigma k sigma i}) once. A pair of zeros holds for every d and
    is dropped; a pair with one zero fails for every unit d and settles
    sigma with no scaling tried. For every other sigma each d in
    (GF(p)^*)^n is tried, entry by entry through (sigma, d) until an entry
    differs. Only the maps that pass are built as MonomialMaps, so each has
    had all n^2 entries compared.

    For n <= 2 and p <= 3 additionally sweeps every invertible matrix with
    dense products: the same predicate plus the annihilation A (G * G) = 0,
    and confirms that nothing non-monomial shows up.
    """
    a.require_idempotent()
    field = a.field
    if not isinstance(field, PrimeField) or field.p > ORACLE_PRIME_CAP:
        raise CapExceededError("oracle runs over GF(p) with p <= 13 only")
    if a.n > ORACLE_DIMENSION_CAP:
        raise CapExceededError("oracle capped at n <= 4")
    n, p = a.n, field.p
    rows = a.raw_rows

    found = []  # (sigma, d) on raw values
    for images in itertools.permutations(range(n)):
        pairs = _entry_pairs(rows, images)
        if pairs is None:
            continue
        for d in itertools.product(range(1, p), repeat=n):
            for k, i, x, y in pairs:
                if (d[k] * x - y * d[i] * d[i]) % p:
                    break
            else:
                found.append((images, d))

    if n <= 2 and p <= 3:
        mul = operator.mul
        cols = tuple(zip(*rows))

        def commutes(g, g_sq_cols):
            # row r of A G^(2) against row r of G A, up to the first row
            # that differs
            return all(
                [sum(map(mul, a_row, col)) % p for col in g_sq_cols]
                == [sum(map(mul, g_row, col)) % p for col in cols]
                for a_row, g_row in zip(rows, g)
            )

        monomial_matrices = set()
        for images, d in found:
            g = [[0] * n for _ in range(n)]
            for i, x in enumerate(d):
                g[images[i]][i] = x
            monomial_matrices.add(tuple(map(tuple, g)))
        for flat in itertools.product(range(p), repeat=n * n):
            g = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            # n <= 2, so the determinant is written out
            det = g[0][0] if n == 1 else g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if det % p == 0:
                continue
            g_cols = tuple(zip(*g))
            if not commutes(g, [[x * x for x in col] for col in g_cols]):
                continue
            # A (G * G) = 0, G * G with column (i, j), i < j, holding the
            # products of columns i and j of G
            star_cols = [
                list(map(mul, g_cols[i], g_cols[j]))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            if any(sum(map(mul, a_row, col)) % p for a_row in rows for col in star_cols):
                continue
            if g not in monomial_matrices:
                raise RuntimeError(
                    "an invertible non-monomial automorphism appeared; "
                    "this contradicts the monomial form of algebra maps"
                )
    maps = [MonomialMap(s, tuple(Scalar(field, x) for x in d)) for s, d in found]
    return MonomialGroup(field, n, maps)
