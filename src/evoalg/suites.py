"""Named verification suites runnable from the command line.

Each suite replays a bundle of exact desk-scale claims about the shipped
constructions and reports one pass/fail line per assertion. Random inputs are
drawn from fixed seeds so reruns are identical.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import EvolutionAlgebra
from .digraph import Digraph, cycles, graph_automorphisms
from .errors import ParseError
from .families import (
    complete_graph_algebra,
    cycle_algebra,
    cycle_normalizer,
    frucht_lift,
    sn_representatives,
    two_param_algebra,
)
from .fields import CyclotomicField, Field, PrimeField, RationalField
from .groups import (
    MonomialMap,
    close_generators,
    quotient_embedding_check,
    recognize,
)
from .solver import (
    SolveStatus,
    automorphism_group,
    brute_force_automorphisms,
    diagonal_subgroup,
    isomorphism,
    pattern_run,
    pattern_solve,
    verify_map,
)

Q = RationalField()

SEED_THM22 = 2202
SEED_THM23 = 2303
SEED_ORACLE = 2704
SEED_THM41_ISO = 4107
SEED_THM41_BOUND = 4108


class Assertion(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    indeterminate: bool = False


class SuiteResult(NamedTuple):
    """A suite's assertions, appended by ``check``; each suite passes its
    own empty list, since a NamedTuple default would be shared."""

    suite: str
    assertions: list[Assertion]

    def check(self, name: str, ok: bool, detail: str = "", indeterminate: bool = False):
        self.assertions.append(Assertion(name, bool(ok), detail, indeterminate))

    @property
    def passed(self) -> int:
        return sum(1 for a in self.assertions if a.ok)

    @property
    def failed(self) -> int:
        return sum(1 for a in self.assertions if not a.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def any_indeterminate(self) -> bool:
        return any(a.indeterminate and not a.ok for a in self.assertions)


# ---------------------------------------------------------------------------
# shared random generators


def _nonsingular(field: Field, n: int, draw: Callable[[], object]) -> EvolutionAlgebra:
    """Draw n x n entries in row-major order until the matrix is nonsingular."""
    while True:
        alg = EvolutionAlgebra(field, [[draw() for _ in range(n)] for _ in range(n)])
        if alg.is_idempotent:
            return alg


def random_idempotent(field: Field, n: int, rng: random.Random) -> EvolutionAlgebra:
    """Uniform entries over GF(p), rejection-sampled to a nonsingular matrix."""
    return _nonsingular(field, n, lambda: rng.randrange(field.p))


_CYCLO_COEFFS = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2), -3]


def random_cyclotomic_idempotent(
    field: CyclotomicField, n: int, rng: random.Random
) -> EvolutionAlgebra:
    """Nonsingular matrices with entries q * zeta^j (q rational), a family the
    scaling solver decides exactly."""
    z = field.zeta

    def draw():
        if rng.random() < 0.3:
            return field.zero
        return field.scalar(rng.choice(_CYCLO_COEFFS)) * z ** rng.randrange(field.m)

    return _nonsingular(field, n, draw)


def random_01_nonsingular(n: int, rng: random.Random) -> EvolutionAlgebra:
    return _nonsingular(Q, n, lambda: 1 if rng.random() < 0.5 else 0)


def random_orbit_b(n: int, rng: random.Random) -> list[Fraction]:
    """A rational b-vector built from a random scaling vector, so the scaled
    cycle algebra is isomorphic to the all-ones one by construction."""
    choices = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(1, 4), Fraction(-3, 2)]
    d = [Fraction(rng.choice(choices)) for _ in range(n)]
    return [d[(j + 1) % n] / d[j] ** 2 for j in range(n)]


def random_multicycle_algebra(rng: random.Random):
    """An algebra whose pattern is a disjoint union of at least two cycles,
    over a cyclotomic field big enough to realize every allowed scaling."""
    n = rng.choice([3, 4, 5])
    while True:
        sigma = list(range(n))
        rng.shuffle(sigma)
        lengths = [len(c) for c in cycles(sigma)]
        if len(lengths) >= 2 and max(lengths) >= 2:
            break
    conductor = math.lcm(*(2**length - 1 for length in lengths))
    field = CyclotomicField(conductor)
    rows = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        rows[sigma[j]][j] = field.scalar(
            Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        )
    return EvolutionAlgebra(field, rows), lengths


# ---------------------------------------------------------------------------
# suites


def suite_example31() -> SuiteResult:
    res = SuiteResult("example31", [])
    for n in (3, 4, 5):
        order = automorphism_group(complete_graph_algebra(n, Q)).order
        res.check(
            f"complete n={n} over Q has {math.factorial(n)} automorphisms",
            order == math.factorial(n),
            f"got {order}",
        )
    order = automorphism_group(complete_graph_algebra(2, Q)).order
    res.check("complete n=2 over Q has 2 automorphisms", order == 2, f"got {order}")

    z3 = CyclotomicField(3)
    grp = automorphism_group(complete_graph_algebra(2, z3))
    res.check("complete n=2 over Q(zeta_3) has 6 automorphisms", grp.order == 6)
    res.check(
        "complete n=2 over Q(zeta_3) recognized as S3",
        "S3" in recognize(grp),
    )
    lattice = diagonal_subgroup(complete_graph_algebra(2, z3))
    res.check("diagonal part has order 3", lattice.order == 3)
    z = z3.zeta
    gen = MonomialMap.diagonal((z, z * z))
    generated = set(close_generators([gen]).elements)
    res.check(
        "diagonal part is generated by diag(zeta, zeta^2)",
        generated == set(lattice.maps()),
    )
    return res


def _thm22_sample_ok(alg: EvolutionAlgebra) -> tuple[bool, bool]:
    """(passed, indeterminate) for one sample: odd diagonal orders dividing
    2^t - 1, normal kernel equal to the diagonal part, quotient embedded in
    the pattern automorphisms."""
    bound = 2**alg.min_transversal_order - 1
    lattice = diagonal_subgroup(alg)
    orders_ok = all(
        m.order() % 2 == 1 and bound % m.order() == 0 for m in lattice.maps()
    )
    grp = automorphism_group(alg)
    if not grp.complete:
        return False, True
    return orders_ok and quotient_embedding_check(grp, alg, lattice).ok, False


def suite_thm22() -> SuiteResult:
    res = SuiteResult("thm22", [])
    rng = random.Random(SEED_THM22)
    combos = [(p, n) for p in (3, 5, 7) for n in (2, 3)]
    failures, undecided = [], 0
    for i in range(200):
        p, n = combos[i % len(combos)]
        alg = random_idempotent(PrimeField(p), n, rng)
        ok, indeterminate = _thm22_sample_ok(alg)
        if not ok:
            failures.append((f"GF({p})", n, i))
            undecided += indeterminate
    res.check(
        "200 prime-field samples: odd diagonal orders dividing 2^t - 1, "
        "normal kernel, quotient inside the pattern automorphisms",
        not failures,
        f"failures: {failures}",
        indeterminate=undecided > 0,
    )
    z7 = CyclotomicField(7)
    failures, undecided = [], 0
    for i in range(50):
        alg = random_cyclotomic_idempotent(z7, 3, rng)
        ok, indeterminate = _thm22_sample_ok(alg)
        if not ok:
            failures.append(i)
            undecided += indeterminate
    res.check(
        "50 cyclotomic samples: odd diagonal orders dividing 2^t - 1, "
        "normal kernel, quotient inside the pattern automorphisms",
        not failures,
        f"failures: {failures}",
        indeterminate=undecided > 0,
    )

    rng_oracle = random.Random(SEED_ORACLE)
    mismatches = 0
    for i in range(200):
        p = (3, 5)[i % 2]
        n = (2, 3)[(i // 2) % 2]
        alg = random_idempotent(PrimeField(p), n, rng_oracle)
        fast = automorphism_group(alg)
        slow = brute_force_automorphisms(alg)
        if fast.elements != slow.elements:
            mismatches += 1
    res.check(
        "200 samples over GF(3)/GF(5): solver group equals brute-force group",
        mismatches == 0,
        f"{mismatches} mismatches",
    )
    return res


def suite_thm23() -> SuiteResult:
    res = SuiteResult("thm23", [])
    rng = random.Random(SEED_THM23)
    bad = []
    for i in range(30):
        n = rng.randint(2, 5)
        alg = random_01_nonsingular(n, rng)
        grp = automorphism_group(alg)
        lattice = diagonal_subgroup(alg)
        count = len(pattern_solve(alg).sigmas)
        if grp.order != lattice.order * count:
            bad.append((i, grp.order, lattice.order, count))
    res.check(
        "30 random nonsingular 0/1 matrices over Q: |Aut(E)| = |D| * |Aut(pattern)|",
        not bad,
        f"failures: {bad}",
    )
    return res


def suite_thm31() -> SuiteResult:
    res = SuiteResult("thm31", [])
    five_cycle = [
        [0, 1, 0, 0, 1],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0],
    ]
    path4 = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    k4 = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    for label, rows, expected in (
        ("5-cycle", five_cycle, 10),
        ("path on 4", path4, 2),
        ("complete on 4", k4, 24),
    ):
        graph_count = len(graph_automorphisms(Digraph.from_bool_rows(rows)))
        res.check(
            f"{label}: input graph has {expected} automorphisms",
            graph_count == expected,
            f"got {graph_count}",
        )
        alg, shift = frucht_lift(rows, Q)
        res.check(f"{label}: lifted algebra is idempotent", alg.is_idempotent)
        pattern = pattern_solve(alg)
        res.check(
            f"{label}: lift keeps the pattern automorphisms",
            len(pattern.sigmas) == expected,
            f"shift m={shift}, got {len(pattern.sigmas)}",
        )
        order = automorphism_group(alg).order
        res.check(
            f"{label}: algebra automorphism count equals {expected}",
            order == expected,
            f"got {order}",
        )
        res.check(
            f"{label}: trivial diagonal part",
            diagonal_subgroup(alg).order == 1,
        )
    return res


def suite_thm32() -> SuiteResult:
    res = SuiteResult("thm32", [])
    samples = (2, 3, -1)
    for n in (2, 3, 4, 5):
        included, _ = sn_representatives(n, Q, samples)
        for item in included:
            order = automorphism_group(item.algebra).order
            res.check(
                f"n={n} representative {item.label} has {math.factorial(n)} automorphisms",
                order == math.factorial(n),
                f"got {order}",
            )
        for one, two in itertools.combinations(included, 2):
            found = isomorphism(one.algebra, two.algebra).found
            res.check(
                f"n={n}: {one.label} and {two.label} are non-isomorphic",
                not found,
            )
        for a, b in ((2, 4), (3, -3), (2, 6)):
            try:
                src = two_param_algebra(n, a, b, Q)
                dst = two_param_algebra(n, 1, Fraction(b, a), Q)
            except Exception:
                continue
            outcome = isomorphism(src, dst)
            ok = (
                outcome.found
                and outcome.witness.sigma == tuple(range(n))
                and all(x == Q.scalar(a) for x in outcome.witness.d)
                and all(outcome.certificate["checked"].values())
            )
            res.check(
                f"n={n}: scaling by {a} carries diag {a},offdiag {b} onto the "
                "unit-diagonal form",
                ok,
            )
    return res


def suite_thm41() -> SuiteResult:
    res = SuiteResult("thm41", [])
    rng_iso = random.Random(SEED_THM41_ISO)
    for n in (2, 3, 4):
        modulus = 2**n - 1
        field = CyclotomicField(modulus)
        ones = cycle_algebra(n, field)
        lattice = diagonal_subgroup(ones)
        res.check(
            f"n={n}: diagonal part over Q(zeta_{modulus}) has order {modulus}",
            lattice.order == modulus,
            f"got {lattice.order}",
        )
        grp = automorphism_group(ones)
        res.check(
            f"n={n}: automorphism group has order {n * modulus}",
            grp.order == n * modulus,
            f"got {grp.order}",
        )
        res.check(
            f"n={n}: recognized as C{modulus}:C{n}",
            f"C{modulus}:C{n}" in recognize(grp),
        )
        failures = 0
        for _ in range(10):
            b = random_orbit_b(n, rng_iso)
            scaled = cycle_algebra(n, field, b)
            outcome = isomorphism(ones, scaled)
            if not (outcome.found and all(outcome.certificate["checked"].values())):
                failures += 1
        res.check(
            f"n={n}: 10 random in-orbit b-vectors give certified isomorphisms",
            failures == 0,
            f"{failures} failures",
        )

    rng_bound = random.Random(SEED_THM41_BOUND)
    bad = []
    for i in range(50):
        alg, lengths = random_multicycle_algebra(rng_bound)
        bound = 1
        for length in lengths:
            bound *= 2**length - 1
        order = diagonal_subgroup(alg).order
        if not (order <= bound < 2**alg.n - 1):
            bad.append((i, lengths, order, bound))
    res.check(
        "50 multi-cycle patterns: diagonal order at most the per-cycle product, "
        "strictly below 2^n - 1",
        not bad,
        f"failures: {bad}",
    )

    out = cycle_normalizer([128, 1, 1], Q)
    wanted = MonomialMap.diagonal(
        (Q.scalar(Fraction(1, 16)), Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 4)))
    )
    res.check(
        "b = (128, 1, 1) over Q: scalings (1/16, 1/2, 1/4) solve the recurrence",
        out.status is SolveStatus.COMPLETE and wanted in out.maps,
    )
    res.check(
        "the worked-example certificate satisfies B D^(2) = D P",
        verify_map(cycle_algebra(3, Q), cycle_algebra(3, Q, [128, 1, 1]), wanted),
    )
    return res


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "example31": suite_example31,
    "thm22": suite_thm22,
    "thm23": suite_thm23,
    "thm31": suite_thm31,
    "thm32": suite_thm32,
    "thm41": suite_thm41,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise ParseError(f"unknown suite {name!r}; pick one of {sorted(SUITES)}")
    with pattern_run():
        return SUITES[name]()
