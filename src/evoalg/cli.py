"""Command-line front-end.

Machine-readable JSON goes to standard output (and to --out when given);
human summaries go to standard error, so stdout stays parseable. Reports are
byte-identical for identical inputs, seeds, and flags other than census's
--threads.

Exit codes: 0 success, 1 parse or usage error, 2 singular input,
3 indeterminate, 4 negative decision (non-isomorphic or failed
verification), 5 cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

from .algebra import EvolutionAlgebra
from .digraph import SEARCH_DIMENSION_CAP, graph_automorphisms
from .errors import (
    CapExceededError,
    DimensionCapError,
    EvoAlgError,
    ParseError,
    SingularMatrixError,
)
from .families import build_family
from .fields import Field, PrimeField, parse_field
from .groups import recognize
from .solver import (
    RUN_PATTERNS,
    IsoStatus,
    automorphism_group,
    diagonal_subgroup,
    isomorphism,
    pattern_run,
    pattern_solve,
)
from .suites import SUITES, random_idempotent, run_suite

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SINGULAR = 2
EXIT_INDETERMINATE = 3
EXIT_NEGATIVE = 4
EXIT_CAP = 5

CENSUS_EXHAUSTIVE_CAP = 10**8
DIAG_ELEMENT_REPORT_CAP = 128


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load_algebra(path: str, field_text: str | None) -> EvolutionAlgebra:
    field = parse_field(field_text) if field_text else None
    return EvolutionAlgebra.load(path, field)


# ---------------------------------------------------------------------------
# subcommands


def cmd_aut(args) -> int:
    alg = _load_algebra(args.infile, args.field).require_idempotent()
    t0 = time.monotonic()
    group = automorphism_group(alg)
    # the diagonal part of every group, partial ones included, is D
    diagonal_order = group.diagonal_order
    # the run's memo holds the pattern automorphisms the group was built from
    graph_count = len(pattern_solve(alg).sigmas)
    report = {
        "command": "aut",
        "status": "ok" if group.complete else "indeterminate",
        "field": alg.field.descriptor(),
        "n": alg.n,
        "order": group.order,
        "complete": group.complete,
        "recognized": recognize(group),
        "generators": [g.to_json() for g in group.generators],
        "diagonal_order": diagonal_order,
        "t_A": alg.min_transversal_order,
        "graph_automorphism_count": graph_count,
        "conductor_sufficient": alg.conductor_sufficient,
    }
    _emit(report, args)
    _say(
        f"|Aut| = {group.order}{'' if group.complete else ' (partial)'}, "
        f"|D| = {diagonal_order}, t_A = {alg.min_transversal_order}, "
        f"|Aut(pattern)| = {graph_count}, names: {report['recognized'] or '-'} "
        f"[{time.monotonic() - t0:.2f}s]"
    )
    return EXIT_OK if group.complete else EXIT_INDETERMINATE


def cmd_diag(args) -> int:
    alg = _load_algebra(args.infile, args.field).require_idempotent()
    lattice = diagonal_subgroup(alg)
    report = {
        "command": "diag",
        "status": "ok",
        "field": alg.field.descriptor(),
        "n": alg.n,
        "order": lattice.order,
        "modulus": lattice.modulus,
        "generator": str(lattice.generator),
        "exponent_generators": [
            {"exponents": list(vec), "order": order}
            for vec, order in zip(lattice.exponents.generators, lattice.exponents.orders)
        ],
        "t_A": alg.min_transversal_order,
        "conductor_sufficient": alg.conductor_sufficient,
    }
    if lattice.order <= DIAG_ELEMENT_REPORT_CAP:
        report["elements"] = [m.to_json() for m in lattice.maps()]
    _emit(report, args)
    _say(f"|D| = {lattice.order} over {alg.field.descriptor()}")
    return EXIT_OK


def cmd_graph_aut(args) -> int:
    alg = _load_algebra(args.infile, args.field)
    auts = graph_automorphisms(alg.digraph)
    report = {
        "command": "graph-aut",
        "status": "ok",
        "n": alg.n,
        "count": len(auts),
        "automorphisms": [[v + 1 for v in sigma] for sigma in auts],
    }
    _emit(report, args)
    _say(f"|Aut(pattern)| = {len(auts)}")
    return EXIT_OK


def cmd_iso(args) -> int:
    field = parse_field(args.field) if args.field else None
    a = EvolutionAlgebra.load(args.infile, field).require_idempotent()
    b = EvolutionAlgebra.load(args.bfile, field).require_idempotent()
    result = isomorphism(a, b)
    report = {
        "command": "iso",
        "status": result.status.value,
        "field": a.field.descriptor(),
        "n": a.n,
        "sigma_candidates_exhausted": result.candidates_exhausted,
    }
    if result.found:
        report["certificate"] = result.certificate
    if result.unsolved:
        report["unsolved"] = list(result.unsolved)
    _emit(report, args)
    _say(f"{result.status.value} after {result.candidates_exhausted} pattern maps")
    if result.found:
        return EXIT_OK
    if result.status is IsoStatus.INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_NEGATIVE


def cmd_make(args) -> int:
    field = parse_field(args.field)
    alg, info = build_family(args.family, field)
    alg.dump(args.out)
    report = {
        "command": "make",
        "status": "ok",
        "written": args.out,
        "field": field.descriptor(),
        "n": alg.n,
        "determinant": str(alg.det),
    }
    report.update(info)
    # --out is the matrix destination here; the report goes to stdout only
    _emit(report, argparse.Namespace(out=None))
    _say(f"wrote {args.out} ({info['family']}, n = {alg.n})")
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_suite(args.suite)
    for assertion in result.assertions:
        status = "ok" if assertion.ok else "FAIL"
        detail = f" ({assertion.detail})" if assertion.detail and not assertion.ok else ""
        _say(f"  [{status}] {assertion.name}{detail}")
    report = {
        "command": "verify",
        "suite": result.suite,
        "status": "ok" if result.ok else "failed",
        "passed": result.passed,
        "failed": result.failed,
        "assertions": [
            {"name": a.name, "ok": a.ok, "detail": a.detail}
            for a in result.assertions
        ],
    }
    _emit(report, args)
    _say(f"suite {result.suite}: {result.passed} passed, {result.failed} failed")
    if result.ok:
        return EXIT_OK
    return EXIT_INDETERMINATE if result.any_indeterminate else EXIT_NEGATIVE


def _census_algebra(field: Field, n: int, flat) -> EvolutionAlgebra:
    return EvolutionAlgebra(field, [flat[i * n : (i + 1) * n] for i in range(n)])


def _census_entry(alg: EvolutionAlgebra):
    """(|Aut|, |D|, whether Aut is complete) for a nonsingular algebra, or
    None for a singular one.

    The pattern automorphisms and D depend only on the zero pattern and the
    field, so the algebras of a run that share a pattern compute them once,
    through the run's memo. |D| is read off the group: a complete group's
    diagonal part is D, and the census tallies complete groups only.
    """
    if not alg.is_idempotent:
        return None
    group = automorphism_group(alg)
    return group.order, group.diagonal_order, group.complete


def _unit_vectors(p: int, n: int):
    """Every d in (GF(p)^*)^n, lazily and in itertools.product order.

    itertools.product copies its input into a tuple first, and for n = 1 the
    p - 1 units can number 10^8.
    """
    units = range(1, p)
    return ((u,) for u in units) if n == 1 else itertools.product(units, repeat=n)


def _orbit_census(field: PrimeField, n: int, tally) -> int:
    """Exhaustive census of the n x n matrices over GF(p), one solve per
    orbit of the monomial group M; returns the number of nonsingular orbits,
    that is, of isomorphism classes of idempotent algebras.

    Every isomorphism of idempotent evolution algebras is monomial, so |Aut|,
    |D| and singularity are constant on an orbit of M, of order n!(p-1)^n.
    (sigma, d) carries A to B[sigma k][sigma j] = d_k a_kj d_j^-2. Codes are
    base-p numbers in itertools.product order, and a bitmap marks those seen.
    `tally(entry, weight)` receives each class entry weighted by its orbit
    size.

    Self-checks, exact: every nonsingular class has a complete group (kth_roots
    decides every equation the cap admits: x^1 = c at n = 1, p <= 100 above),
    |orbit| * |Aut(A)| = |M| for it (orbit-stabilizer), and the orbits cover
    all p^(n^2) matrices. A failure raises RuntimeError.
    """
    p, cells = field.p, n * n
    total = p**cells
    place = [p ** (cells - 1 - i) for i in range(cells)]
    perms = list(itertools.permutations(range(n)))
    monomial_order = len(perms) * (p - 1) ** n
    seen = bytearray((total + 7) // 8)

    def decode(code):
        digits = [0] * cells
        for i in range(cells - 1, -1, -1):
            code, digits[i] = divmod(code, p)
        return digits

    classes = covered = 0
    for code in range(total):
        if seen[code >> 3] >> (code & 7) & 1:
            continue
        seen[code >> 3] |= 1 << (code & 7)
        flat = decode(code)
        entry = _census_entry(_census_algebra(field, n, flat))
        classes += entry is not None
        if entry is not None and not entry[2]:
            raise RuntimeError(
                f"automorphism group of the class of {list(flat)} over "
                f"{field.descriptor()} is incomplete"
            )
        size = 1
        support = [
            (k, j, flat[k * n + j]) for k in range(n) for j in range(n) if flat[k * n + j]
        ]
        weights = [[place[s[k] * n + s[j]] for k, j, _ in support] for s in perms]
        # the zero matrix (empty support) is its own orbit
        for d in _unit_vectors(p, n) if support else ():
            inv_sq = [pow(x, -2, p) for x in d]
            values = [d[k] * a * inv_sq[j] % p for k, j, a in support]
            for w in weights:
                image = sum(map(int.__mul__, values, w))
                byte, bit = image >> 3, 1 << (image & 7)
                if seen[byte] & bit:
                    continue
                seen[byte] |= bit
                size += 1
        if entry is not None:
            if size * entry[0] != monomial_order:
                raise RuntimeError(
                    f"orbit-stabilizer fails for the class of {list(flat)} over "
                    f"{field.descriptor()}: |orbit| {size} * |Aut| {entry[0]} "
                    f"!= {monomial_order}"
                )
            tally(entry, size)
        covered += size
    if covered != total:
        raise RuntimeError(
            f"census orbits cover {covered} of {total} matrices over {field.descriptor()}"
        )
    return classes


def cmd_census(args) -> int:
    field = parse_field(args.field)
    if not isinstance(field, PrimeField):
        raise ParseError("census runs over prime fields GF(p)")
    n = args.n
    if n is None or n < 1:
        raise ParseError("census needs --n >= 1")
    if n > SEARCH_DIMENSION_CAP:
        # every class goes through automorphism_group, which refuses it;
        # refuse before p^(n^2) or a first sample is built
        raise DimensionCapError(f"census capped at n = {SEARCH_DIMENSION_CAP}")
    p = field.p
    mode = args.mode
    t0 = time.monotonic()
    aut_hist: dict[int, int] = {}
    diag_hist: dict[int, int] = {}
    nonsingular = incomplete = 0

    def tally(entry, weight):
        nonlocal nonsingular
        if entry is None:
            return
        nonsingular += weight
        aut_order, diag_order, _ = entry
        aut_hist[aut_order] = aut_hist.get(aut_order, 0) + weight
        diag_hist[diag_order] = diag_hist.get(diag_order, 0) + weight

    if mode == "exhaustive":
        scanned = p ** (n * n)
        if scanned > CENSUS_EXHAUSTIVE_CAP:
            raise CapExceededError(
                f"exhaustive census of {scanned} matrices exceeds the cap"
            )
        samples = None
        classes = _orbit_census(field, n, tally)
    else:
        if not mode.startswith("random:"):
            raise ParseError("census --mode must be exhaustive or random:<k>")
        try:
            samples = int(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad sample count in {mode!r}") from exc
        if samples < 0:
            raise ParseError(f"negative sample count in {mode!r}")
        rng = random.Random(args.seed)
        scanned = samples
        for _ in range(samples):
            entry = _census_entry(random_idempotent(field, n, rng))
            if entry is not None and not entry[2]:
                # a partial group's order is not |Aut|: count, never tally
                incomplete += 1
            else:
                tally(entry, 1)
        classes = None

    report = {
        "command": "census",
        "status": "indeterminate" if incomplete else "ok",
        "field": field.descriptor(),
        "n": n,
        "mode": "exhaustive" if mode == "exhaustive" else "random",
        "scanned": scanned,
        "nonsingular": nonsingular,
        "aut_histogram": {str(k): v for k, v in sorted(aut_hist.items())},
        "diag_histogram": {str(k): v for k, v in sorted(diag_hist.items())},
    }
    if samples is not None:
        report["samples"] = samples
        report["seed"] = args.seed
    if incomplete:
        report["incomplete"] = incomplete
    _emit(report, args)
    in_classes = "" if classes is None else f" in {classes} classes"
    left_out = f", {incomplete} undecided left out" if incomplete else ""
    _say(
        f"census: {nonsingular} algebras{in_classes}{left_out} over "
        f"{field.descriptor()}, n = {n}, {len(RUN_PATTERNS.get())} patterns "
        f"[{time.monotonic() - t0:.2f}s, {args.threads} threads]"
    )
    return EXIT_INDETERMINATE if incomplete else EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE: argparse's own code 2 means a singular
    structure matrix here. Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evoalg",
        description=(
            "Exact automorphism groups, diagonal subgroups, and isomorphism "
            "certificates for idempotent evolution algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, infile=True):
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
        p.add_argument("--field", help="field descriptor: Q, GF(p), Q(zeta_m)")
        p.add_argument("--out", help="also write the JSON report to this file")

    p_aut = sub.add_parser("aut", help="automorphism group of an algebra")
    add_common(p_aut)
    p_aut.set_defaults(func=cmd_aut)

    p_diag = sub.add_parser("diag", help="diagonal automorphism subgroup")
    add_common(p_diag)
    p_diag.set_defaults(func=cmd_diag)

    p_gaut = sub.add_parser("graph-aut", help="pattern automorphisms of the digraph")
    add_common(p_gaut)
    p_gaut.set_defaults(func=cmd_graph_aut)

    p_iso = sub.add_parser("iso", help="isomorphism test with certificate")
    add_common(p_iso)
    p_iso.add_argument("--b", dest="bfile", required=True, help="second matrix JSON file")
    p_iso.set_defaults(func=cmd_iso)

    p_make = sub.add_parser("make", help="construct a family member")
    p_make.add_argument("--family", required=True, help=(
        "complete:n=4 | twoparam:n=4,a=1,b=2 | cycle:n=3,b=128;1;1 "
        "| frucht:<graph.json>"
    ))
    p_make.add_argument("--field", default="Q")
    p_make.add_argument("--out", required=True)
    p_make.set_defaults(func=cmd_make)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--out", help="also write the JSON report to this file")
    p_verify.set_defaults(func=cmd_verify)

    p_census = sub.add_parser("census", help="classify matrices over GF(p)")
    p_census.add_argument("--field", required=True)
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--mode", default="exhaustive", help="exhaustive | random:<k>")
    p_census.add_argument("--seed", type=int, default=0)
    p_census.add_argument(
        "--threads", type=int, default=1,
        help="accepted and echoed on stderr; the census runs in one thread and "
        "its output never depends on this value",
    )
    p_census.add_argument("--out", help="also write the JSON report to this file")
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with pattern_run():
            return args.func(args)
    except ParseError as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE
    except SingularMatrixError as exc:
        _say(f"error: {exc}")
        return EXIT_SINGULAR
    except (DimensionCapError, CapExceededError) as exc:
        _say(f"error: {exc}")
        return EXIT_CAP
    except EvoAlgError as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
