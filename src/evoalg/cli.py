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
import math
import random
import sys
import time

from .algebra import EvolutionAlgebra, write_file
from .digraph import Digraph, check_dimension, graph_automorphisms, transversals
from .errors import CapExceededError, EvoAlgError, ParseError
from .families import build_family
from .fields import Field, PrimeField, parse_field
from .groups import recognize
from .snf import hermite_basis
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

# errors exit with their class's exit_code: 1 parse, 2 singular, 5 cap
EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INDETERMINATE = 3
EXIT_NEGATIVE = 4

CENSUS_EXHAUSTIVE_CAP = 10**8
DIAG_ELEMENT_REPORT_CAP = 128


def _emit(report: dict, out: str | None = None) -> None:
    """The report to the file out, when given, and then to stdout, so a
    failed write leaves stdout empty."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        write_file(out, text)
    sys.stdout.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load_algebra(path: str, field_text: str | None) -> EvolutionAlgebra:
    """The algebra of a matrix file. Loading refuses an n past the
    dimension cap before it parses an entry, and takes no determinant."""
    field = parse_field(field_text) if field_text else None
    return EvolutionAlgebra.load(path, field)


# ---------------------------------------------------------------------------
# subcommands


def cmd_aut(args) -> int:
    alg = _load_algebra(args.infile, args.field)
    t0 = time.monotonic()
    group = automorphism_group(alg)
    # the diagonal part of every group, partial ones included, is D
    diagonal_order = group.diagonal_order
    # the run's memo holds the chain of pattern automorphisms the group was
    # built from
    graph_count = pattern_solve(alg).chain.order
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
    _emit(report, args.out)
    _say(
        f"|Aut| = {group.order}{'' if group.complete else ' (partial)'}, "
        f"|D| = {diagonal_order}, t_A = {alg.min_transversal_order}, "
        f"|Aut(pattern)| = {graph_count}, names: {report['recognized'] or '-'} "
        f"[{time.monotonic() - t0:.2f}s]"
    )
    return EXIT_OK if group.complete else EXIT_INDETERMINATE


def cmd_diag(args) -> int:
    alg = _load_algebra(args.infile, args.field)
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
    _emit(report, args.out)
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
    _emit(report, args.out)
    _say(f"|Aut(pattern)| = {len(auts)}")
    return EXIT_OK


def cmd_iso(args) -> int:
    a = _load_algebra(args.infile, args.field)
    b = _load_algebra(args.bfile, args.field)
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
    _emit(report, args.out)
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
    _emit(report)
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
    _emit(report, args.out)
    _say(f"suite {result.suite}: {result.passed} passed, {result.failed} failed")
    if result.ok:
        return EXIT_OK
    return EXIT_INDETERMINATE if result.any_indeterminate else EXIT_NEGATIVE


def _census_algebra(field: Field, n: int, flat) -> EvolutionAlgebra:
    return EvolutionAlgebra(field, [flat[i * n : (i + 1) * n] for i in range(n)])


def _census_entry(alg: EvolutionAlgebra):
    """(|Aut|, |D|) for a nonsingular algebra, or None for a singular one.

    The pattern automorphisms and D depend only on the zero pattern and the
    field, so the algebras of a run that share a pattern compute them once,
    through the run's memo, and the algebras whose Aut(E) is D share the
    run's group of D. |D| is read off the group, whose diagonal part is D.

    Self-check, exact: kth_roots decides every equation over GF(p), so every
    group is complete; an incomplete one raises RuntimeError in either mode.
    """
    if not alg.is_idempotent:
        return None
    group = automorphism_group(alg)
    if not group.complete:
        rows = [list(row) for row in alg.raw_rows]
        raise RuntimeError(
            f"automorphism group of {rows} over {alg.field.descriptor()} is incomplete"
        )
    return group.order, group.diagonal_order


def _pattern_classes(n: int):
    """One zero pattern per class of S_n, which moves entry (k, j) to
    (sigma k, sigma j): yields the least code of each class as its row
    masks, with the class size and the pattern automorphisms.

    Bit k*n + j of a code is entry (k, j), so row k of a code is the
    digraph's row mask k. A bitmap of 2^(n^2) bits marks the codes seen.
    """
    mask = (1 << n) - 1
    perms = list(itertools.permutations(range(n)))
    # moved[s][r]: the row mask r with its columns moved by s
    moved = [
        [sum(1 << s[j] for j in range(n) if r >> j & 1) for r in range(mask + 1)]
        for s in perms
    ]
    seen = bytearray(((1 << n * n) + 7) // 8)
    for code in range(1 << n * n):
        if seen[code >> 3] >> (code & 7) & 1:
            continue
        rows = [code >> k * n & mask for k in range(n)]
        size, automorphisms = 0, []
        for s, row_image in zip(perms, moved):
            image = 0
            for k, r in enumerate(rows):
                image |= row_image[r] << s[k] * n
            if image == code:
                automorphisms.append(s)
            byte, bit = image >> 3, 1 << (image & 7)
            if not seen[byte] & bit:
                seen[byte] |= bit
                size += 1
        yield rows, size, automorphisms


def _torus_classes(cells, automorphisms, modulus: int):
    """The orbits of the monomial maps that fix a zero pattern on the
    matrices with that pattern over GF(p), modulus = p - 1, one exponent
    vector each (entry (k, j) = g^x for the field's generator g) with the
    number of matrices in the orbit.

    Over exponents, (sigma, g^y) adds y_k - 2 y_j to x_kj and then moves
    entry (k, j) to (sigma k, sigma j). The diagonal maps sweep out the
    cosets of L = im(vertex-edge matrix) + modulus * Z^E, each holding
    modulus^|E| / |Z^E / L| matrices; the cosets are the reduced vectors of
    a Hermite basis of L, and the orbits are those of the pattern
    automorphisms on them. ``cells`` lists the pattern's entries (k, j) and
    ``automorphisms`` its automorphisms, identity first.
    """
    dim = len(cells)
    vertices = range(len(automorphisms[0]))
    basis = hermite_basis(
        [[(k == v) - 2 * (j == v) for k, j in cells] for v in vertices], dim, modulus
    )
    heights = [row[i] for i, row in enumerate(basis)]
    tails = [
        [(j, row[j]) for j in range(i + 1, dim) if row[j]] for i, row in enumerate(basis)
    ]
    place = [math.prod(heights[i + 1 :]) for i in range(dim)]
    at = {cell: e for e, cell in enumerate(cells)}
    moves = [[at[s[k], s[j]] for k, j in cells] for s in automorphisms[1:]]
    cosets = math.prod(heights)
    coset_size = modulus**dim // cosets
    seen = bytearray(cosets)
    for code, x in enumerate(itertools.product(*map(range, heights))):
        if seen[code]:
            continue
        seen[code] = size = 1
        for move in moves:
            y = [0] * dim
            for e, value in zip(move, x):
                y[e] = value
            image = 0
            for i, h in enumerate(heights):
                q, r = divmod(y[i], h)
                if q:
                    for j, c in tails[i]:
                        y[j] -= q * c
                image += r * place[i]
            if not seen[image]:
                seen[image] = 1
                size += 1
        yield x, size * coset_size


def _orbit_census(field: PrimeField, n: int, tally) -> int:
    """Exhaustive census of the n x n matrices over GF(p), one solve per
    orbit of the monomial group M; returns the number of nonsingular orbits,
    that is, of isomorphism classes of idempotent algebras.

    Every isomorphism of idempotent evolution algebras is monomial, so |Aut|,
    |D| and singularity are constant on an orbit of M, of order n!(p-1)^n.
    (sigma, d) carries A to B[sigma k][sigma j] = d_k a_kj d_j^-2, so it
    moves the zero pattern by sigma. The orbits are enumerated by class
    (Kerber, Applied Finite Group Actions, 1999): one pattern P per class of
    S_n, and the orbits of the maps fixing P on the matrices with pattern P
    (`_torus_classes`); an orbit holds |S_n P| times as many matrices as it
    has with pattern P. A pattern without a transversal holds only singular
    matrices and is not walked. `tally(entry, weight)` receives each class
    entry weighted by its orbit size.

    Self-checks, exact: |orbit| * |Aut(A)| = |M| for every nonsingular class
    (orbit-stabilizer, with |orbit| from the lattice and |Aut| from the
    solver), the orbits cover all p^(n^2) matrices, and the nonsingular ones
    number |GL_n(F_p)|. A failure raises RuntimeError.
    """
    p, g = field.p, field.generator
    modulus = p - 1
    monomial_order = math.factorial(n) * modulus**n
    classes = covered = nonsingular = 0
    for rows, pattern_size, automorphisms in _pattern_classes(n):
        cells = [(k, j) for k in range(n) for j in range(n) if rows[k] >> j & 1]
        if next(transversals(Digraph(n, rows)), None) is None:
            covered += pattern_size * modulus ** len(cells)
            continue
        for exponents, size in _torus_classes(cells, automorphisms, modulus):
            flat = [0] * (n * n)
            for (k, j), e in zip(cells, exponents):
                flat[k * n + j] = pow(g, e, p)
            entry = _census_entry(_census_algebra(field, n, flat))
            size *= pattern_size
            covered += size
            if entry is None:
                continue
            if size * entry[0] != monomial_order:
                raise RuntimeError(
                    f"orbit-stabilizer fails for the class of {flat} over "
                    f"{field.descriptor()}: |orbit| {size} * |Aut| {entry[0]} "
                    f"!= {monomial_order}"
                )
            classes += 1
            nonsingular += size
            tally(entry, size)
    total = p ** (n * n)
    if covered != total:
        raise RuntimeError(
            f"census orbits cover {covered} of {total} matrices over {field.descriptor()}"
        )
    general_linear = math.prod(p**n - p**i for i in range(n))
    if nonsingular != general_linear:
        raise RuntimeError(
            f"census finds {nonsingular} nonsingular matrices over "
            f"{field.descriptor()}, not |GL_{n}| = {general_linear}"
        )
    return classes


def cmd_census(args) -> int:
    field = parse_field(args.field)
    if not isinstance(field, PrimeField):
        raise ParseError("census runs over prime fields GF(p)")
    n = args.n
    if n is None or n < 1:
        raise ParseError("census needs --n >= 1")
    # before p^(n^2) is computed or a first sample is drawn
    check_dimension(n)
    p = field.p
    mode = args.mode
    t0 = time.monotonic()
    aut_hist: dict[int, int] = {}
    diag_hist: dict[int, int] = {}
    nonsingular = 0

    def tally(entry, weight):
        nonlocal nonsingular
        if entry is None:
            return
        nonsingular += weight
        aut_order, diag_order = entry
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
            tally(_census_entry(random_idempotent(field, n, rng)), 1)
        classes = None

    report = {
        "command": "census",
        "status": "ok",
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
    _emit(report, args.out)
    in_classes = "" if classes is None else f" in {classes} classes"
    _say(
        f"census: {nonsingular} algebras{in_classes} over "
        f"{field.descriptor()}, n = {n}, {len(RUN_PATTERNS.get())} patterns "
        f"[{time.monotonic() - t0:.2f}s, {args.threads} threads]"
    )
    return EXIT_OK


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
    except EvoAlgError as exc:
        _say(f"error: {exc}")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
