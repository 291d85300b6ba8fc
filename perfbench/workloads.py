"""The benchmark's workloads: fixed lists of evoalg CLI jobs and the input
files they read, built from a seed.

A seed selects one of ``VARIANTS`` input variants (seed mod VARIANTS), so the
stdout reference in ``reference.json`` covers every seed. The seed changes the
inputs of the jobs marked ``seeded`` and never the correct answers, which
each job states in ``expect`` in closed form.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 8

WHY = {
    "aut": (
        "the group-building path: the closure check dominates at |G| = 720 "
        "and cyclotomic recognize at |G| = 60, while determinant, SNF and "
        "per-sigma solving barely show"
    ),
    "iso": (
        "the search path (pattern_isomorphisms, solve_monomial, kth_roots, "
        "certificates) with no group closure; exhausted non-isomorphic pairs "
        "and early-exit in-orbit pairs separate pruning from early exit"
    ),
    "census": (
        "thousands of tiny algebras, where per-matrix construction, "
        "determinant, SNF and scalar boxing dominate and automorphism_group "
        "runs in the opposite regime to aut; two thread counts must agree"
    ),
    "verify": (
        "the self-check path that no other workload reaches: the brute-force "
        "oracle, mat_mul, quotient_embedding_check and cyclotomic recognition "
        "at scale; the suites use fixed internal seeds"
    ),
}

# values used for seeded rational parameters and scalings
_RATIONALS = [2, 3, -2, -3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)]


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    expect: dict
    seeded: bool = False


@dataclass
class Plan:
    """What one workload runs for one variant: the ``make`` commands and
    derived files that build its inputs, and the timed jobs. A workload that
    reads no input files sets up with one empty argv, a cold start of the
    CLI."""

    makes: list[tuple[str, ...]] = field(default_factory=lambda: [()])
    derived: list = field(default_factory=list)  # callables taking workdir
    jobs: list[Job] = field(default_factory=list)


def _q(x) -> str:
    return str(Fraction(x))


def _cyclo_term(q: Fraction, e: int) -> str:
    return _q(q) if e == 0 else f"{_q(q)}*z^{e}"


def _in_orbit_b(n: int, m: int, rng: random.Random) -> str:
    """b-vector of a cycle algebra in the orbit of the all-ones one: for
    scalings d_j = q_j zeta_m^(e_j), b_j = d_(j+1) / d_j^2, so the diagonal map
    d carries the all-ones cycle algebra onto the scaled one."""
    q = [Fraction(rng.choice(_RATIONALS)) for _ in range(n)]
    e = [rng.randrange(m) for _ in range(n)]
    terms = []
    for j in range(n):
        k = (j + 1) % n
        terms.append(_cyclo_term(q[k] / (q[j] * q[j]), (e[k] - 2 * e[j]) % m))
    return ";".join(terms)


def _transport_file(src: str, dst: str, p: int, rng: random.Random):
    """A derived input: the GF(p) algebra in ``src`` moved by a random
    monomial map (sigma, d), b_(sigma k)(sigma j) = d_k a_kj / d_j^2. The
    result is isomorphic to the source, so its group has the same order."""
    sigma_seed, d_seed = rng.random(), rng.random()

    def build(workdir: str) -> None:
        with open(os.path.join(workdir, src), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        a = [[int(Fraction(x)) % p for x in row] for row in data["entries"]]
        n = len(a)
        sigma = list(range(n))
        random.Random(sigma_seed).shuffle(sigma)
        d_rng = random.Random(d_seed)
        d = [d_rng.randrange(1, p) for _ in range(n)]
        b = [[0] * n for _ in range(n)]
        for k in range(n):
            for j in range(n):
                b[sigma[k]][sigma[j]] = d[k] * a[k][j] * pow(d[j], -2, p) % p
        out = {"entries": [[str(x) for x in row] for row in b],
               "field": f"GF({p})", "n": n}
        with open(os.path.join(workdir, dst), "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return build


def _aut(variant: int) -> Plan:
    rng = random.Random(1000 + variant)
    plan = Plan(makes=[])
    for n in (4, 5, 6):
        plan.makes.append(("make", "--family", f"complete:n={n}", "--out", f"k{n}.json"))
        plan.jobs.append(Job(
            f"aut-K{n}", ("aut", "--in", f"k{n}.json"),
            {"kind": "aut", "field": "Q", "order": math.factorial(n),
             "name": f"S{n}", "diagonal_order": 1,
             "graph_automorphism_count": math.factorial(n)},
        ))
    plan.makes.append(("make", "--family", "complete:n=5", "--field", "GF(7)",
                       "--out", "k5_gf7.json"))
    plan.derived.append(_transport_file("k5_gf7.json", "k5_gf7_moved.json", 7, rng))
    plan.jobs.append(Job(
        "aut-K5-GF7-moved", ("aut", "--in", "k5_gf7_moved.json"),
        {"kind": "aut", "field": "GF(7)", "order": 120, "name": "S5",
         "diagonal_order": 1, "graph_automorphism_count": 120},
        seeded=True,
    ))
    b = _in_orbit_b(4, 15, rng)
    plan.makes.append(("make", "--family", f"cycle:n=4,b={b}", "--field",
                       "Q(zeta_15)", "--out", "cycle4.json"))
    plan.jobs.append(Job(
        "aut-cycle4-Qz15", ("aut", "--in", "cycle4.json"),
        {"kind": "aut", "field": "Q(zeta_15)", "order": 60, "name": "C15:C4",
         "diagonal_order": 15, "graph_automorphism_count": 4},
        seeded=True,
    ))
    return plan


def _iso(variant: int) -> Plan:
    rng = random.Random(2000 + variant)
    plan = Plan(makes=[])
    for n in (6, 7):
        # (1, b1) and (s, s b2) with b1 != b2 are never isomorphic: the
        # diagonal forces every scaling to 1/s, and then b1 = b2
        b1, b2 = (Fraction(x) for x in rng.sample(_RATIONALS, 2))
        s = Fraction(rng.choice(_RATIONALS))
        for name, a, b in (("a", 1, b1), ("b", s, s * b2)):
            plan.makes.append(("make", "--family", f"twoparam:n={n},a={_q(a)},b={_q(b)}",
                               "--out", f"twoparam{n}{name}.json"))
        plan.jobs.append(Job(
            f"iso-twoparam{n}", ("iso", "--in", f"twoparam{n}a.json",
                                 "--b", f"twoparam{n}b.json"),
            {"kind": "iso", "isomorphic": False, "exhausted": math.factorial(n)},
            seeded=True,
        ))
    for n in (3, 4):
        m = 2**n - 1
        for name in ("a", "b"):
            plan.makes.append(("make", "--family", f"cycle:n={n},b={_in_orbit_b(n, m, rng)}",
                               "--field", f"Q(zeta_{m})", "--out", f"cycle{n}{name}.json"))
        plan.jobs.append(Job(
            f"iso-cycle{n}-Qz{m}", ("iso", "--in", f"cycle{n}a.json",
                                    "--b", f"cycle{n}b.json"),
            {"kind": "iso", "isomorphic": True, "field": f"Q(zeta_{m})",
             "a": f"cycle{n}a.json", "b": f"cycle{n}b.json"},
            seeded=True,
        ))
    return plan


CENSUS_RANDOM_SAMPLES = 1500


def _census(variant: int) -> Plan:
    plan = Plan()
    exhaustive = {"kind": "census", "mode": "exhaustive", "p": 3, "n": 3,
                  "scanned": 3**9, "nonsingular": 26 * 24 * 18}  # |GL_3(F_3)|
    plan.jobs.append(Job(
        "census-GF3-n3-threads1",
        ("census", "--field", "GF(3)", "--n", "3", "--threads", "1"), exhaustive,
    ))
    threads = len(os.sched_getaffinity(0))
    plan.jobs.append(Job(
        "census-GF3-n3-threadsN",
        ("census", "--field", "GF(3)", "--n", "3", "--threads", str(threads)),
        dict(exhaustive, same_as="census-GF3-n3-threads1"),
    ))
    k = CENSUS_RANDOM_SAMPLES
    plan.jobs.append(Job(
        "census-GF7-n4-random",
        ("census", "--field", "GF(7)", "--n", "4", "--mode", f"random:{k}",
         "--seed", str(variant)),
        {"kind": "census", "mode": "random", "p": 7, "n": 4, "scanned": k,
         "nonsingular": k, "samples": k, "seed": variant},
        seeded=True,
    ))
    return plan


# assertions each suite makes; see suite_thm22, suite_thm41 and suite_thm32
VERIFY_PASSED = {"thm22": 3, "thm41": 15, "thm32": 47}


def _verify(variant: int) -> Plan:
    plan = Plan()
    for suite, passed in VERIFY_PASSED.items():
        plan.jobs.append(Job(
            f"verify-{suite}", ("verify", "--suite", suite),
            {"kind": "verify", "suite": suite, "passed": passed},
        ))
    return plan


PLANS = {"aut": _aut, "iso": _iso, "census": _census, "verify": _verify}


def plan_for(workload: str, seed: int) -> Plan:
    return PLANS[workload](seed % VARIANTS)
