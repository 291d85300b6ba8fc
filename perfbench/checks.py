"""Answer checker for the benchmark's CLI jobs.

Every job carries an ``expect`` record of answers known in closed form: group
orders such as n! for complete-graph algebras, |GL_3(F_3)| for the census, the
number of assertions a suite makes. The checker compares reports with those
facts and never with a stored copy of the program's own output. Isomorphism
certificates are re-verified here with a small field arithmetic of this
module's own, which shares no code with the program under test.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

EXIT_OK = 0
EXIT_NEGATIVE = 4


# ---------------------------------------------------------------------------
# independent exact arithmetic over Q, GF(p) and Q(zeta_m)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (lowest degree first), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, cyclotomic(d))
    return poly


class Arith:
    """Canonical values of one field: Fraction for Q, int for GF(p), and a
    tuple of Fractions reduced modulo Phi_m for Q(zeta_m)."""

    _TERM = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?\*?(z(?:\^(\d+))?)?$")

    def __init__(self, descriptor: str):
        self.descriptor = descriptor
        self.p = None
        self.phi = None
        gf = re.fullmatch(r"GF\((\d+)\)", descriptor)
        cyc = re.fullmatch(r"Q\(zeta_(\d+)\)", descriptor)
        if gf:
            self.p = int(gf.group(1))
        elif cyc and int(cyc.group(1)) > 1:
            self.phi = cyclotomic(int(cyc.group(1)))
        elif descriptor != "Q" and not cyc:
            raise ValueError(f"unknown field {descriptor!r}")

    def parse(self, text: str):
        s = str(text).replace(" ", "")
        if self.p is not None:
            return int(Fraction(s)) % self.p
        if self.phi is None:
            return Fraction(s)
        terms = re.findall(r"[+-]?[^+-]+", s)
        if not terms or "".join(terms) != s:
            raise ValueError(f"bad scalar {text!r}")
        coeffs: dict[int, Fraction] = {}
        for term in terms:
            mt = self._TERM.match(term)
            if not mt or (mt.group(2) is None and mt.group(3) is None):
                raise ValueError(f"bad term {term!r}")
            coef = Fraction(mt.group(2)) if mt.group(2) else Fraction(1)
            if mt.group(1) == "-":
                coef = -coef
            power = 0 if mt.group(3) is None else int(mt.group(4) or 1)
            coeffs[power] = coeffs.get(power, Fraction(0)) + coef
        poly = [Fraction(0)] * (max(coeffs) + 1)
        for power, coef in coeffs.items():
            poly[power] += coef
        return self._reduce(poly)

    def _reduce(self, poly: list[Fraction]) -> tuple[Fraction, ...]:
        deg = len(self.phi) - 1
        poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
        for t in range(len(poly) - 1, deg - 1, -1):
            c = poly[t]
            if c:
                for i, ph in enumerate(self.phi):
                    poly[t - deg + i] -= c * ph
        return tuple(poly[:deg])

    def mul(self, a, b):
        if self.p is not None:
            return a * b % self.p
        if self.phi is None:
            return a * b
        conv = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self._reduce(conv)

    def is_zero(self, a) -> bool:
        return not any(a) if isinstance(a, tuple) else a == 0


def certificate_holds(a_rows, b_rows, certificate: dict, arith: Arith) -> bool:
    """True when (sigma, d) maps E(A) onto E(B): every d_i is nonzero and
    d_k a_kj = d_j^2 b_{sigma(k) sigma(j)} for all k, j. For a monomial P this
    is the identity B P^(2) = P A; the annihilation B (P * P) = 0 holds
    automatically because each row of P has one nonzero entry."""
    n = len(a_rows)
    sigma = [v - 1 for v in certificate["sigma"]]
    if sorted(sigma) != list(range(n)) or len(certificate["d"]) != n:
        return False
    d = [arith.parse(x) for x in certificate["d"]]
    if any(arith.is_zero(x) for x in d):
        return False
    a = [[arith.parse(x) for x in row] for row in a_rows]
    b = [[arith.parse(x) for x in row] for row in b_rows]
    return all(
        arith.mul(d[k], a[k][j])
        == arith.mul(arith.mul(d[j], d[j]), b[sigma[k]][sigma[j]])
        for k in range(n)
        for j in range(n)
    )


# ---------------------------------------------------------------------------
# per-job checks


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def _divides(k: int, m: int) -> bool:
    return k > 0 and m % k == 0


def check_aut(report: dict, rc: int, expect: dict) -> list[str]:
    problems = []
    if rc != EXIT_OK:
        problems.append(f"exit code {rc}, wanted {EXIT_OK}")
    if report.get("complete") is not True:
        problems.append("group not complete")
    for key in ("order", "diagonal_order", "graph_automorphism_count"):
        if report.get(key) != expect[key]:
            problems.append(f"{key} {report.get(key)}, wanted {expect[key]}")
    if expect["name"] not in report.get("recognized", []):
        problems.append(f"not recognized as {expect['name']}")
    if report.get("field") != expect["field"]:
        problems.append(f"field {report.get('field')}, wanted {expect['field']}")
    return problems


def check_iso(report: dict, rc: int, expect: dict, workdir: str = ".") -> list[str]:
    problems = []
    exhausted = report.get("sigma_candidates_exhausted")
    if not expect["isomorphic"]:
        if rc != EXIT_NEGATIVE:
            problems.append(f"exit code {rc}, wanted {EXIT_NEGATIVE}")
        if report.get("status") != "non-isomorphic":
            problems.append(f"status {report.get('status')}, wanted non-isomorphic")
        if exhausted != expect["exhausted"]:
            problems.append(f"{exhausted} sigma candidates, wanted {expect['exhausted']}")
        if "certificate" in report:
            problems.append("a negative answer carries a certificate")
        return problems
    if rc != EXIT_OK:
        problems.append(f"exit code {rc}, wanted {EXIT_OK}")
    if report.get("status") != "isomorphic":
        problems.append(f"status {report.get('status')}, wanted isomorphic")
    if not isinstance(exhausted, int) or exhausted < 1:
        problems.append(f"bad candidate count {exhausted!r}")
    cert = report.get("certificate")
    if not isinstance(cert, dict):
        return problems + ["no certificate"]
    checked = cert.get("checked", {})
    if set(checked) != {"BP2_eq_PA", "B_PstarP_zero"} or not all(
        v is True for v in checked.values()
    ):
        problems.append(f"certificate flags {checked}")
    arith = Arith(expect["field"])
    a_rows = _read_rows(f"{workdir}/{expect['a']}")
    b_rows = _read_rows(f"{workdir}/{expect['b']}")
    try:
        holds = certificate_holds(a_rows, b_rows, cert, arith)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        holds = False
    if not holds:
        problems.append("certificate fails d_k a_kj = d_j^2 b_(sk)(sj)")
    return problems


def check_census(report: dict, rc: int, expect: dict) -> list[str]:
    problems = []
    if rc != EXIT_OK:
        problems.append(f"exit code {rc}, wanted {EXIT_OK}")
    p, n = expect["p"], expect["n"]
    for key in ("scanned", "nonsingular", "mode"):
        if report.get(key) != expect[key]:
            problems.append(f"{key} {report.get(key)}, wanted {expect[key]}")
    if expect["mode"] == "random":
        for key in ("samples", "seed"):
            if report.get(key) != expect[key]:
                problems.append(f"{key} {report.get(key)}, wanted {expect[key]}")
    # orders divide |monomial group| = n! (p-1)^n; diagonal ones divide (p-1)^n
    bounds = {
        "aut_histogram": math.factorial(n) * (p - 1) ** n,
        "diag_histogram": (p - 1) ** n,
    }
    for key, bound in bounds.items():
        hist = report.get(key, {})
        try:
            total = sum(hist.values())
            orders_ok = all(_divides(int(k), bound) for k in hist)
        except (AttributeError, TypeError, ValueError):
            total, orders_ok = None, False
        if total != expect["nonsingular"]:
            problems.append(f"{key} sums to {total}, wanted {expect['nonsingular']}")
        if not orders_ok:
            problems.append(f"{key} has an order not dividing {bound}")
    return problems


def check_verify(report: dict, rc: int, expect: dict) -> list[str]:
    problems = []
    if rc != EXIT_OK:
        problems.append(f"exit code {rc}, wanted {EXIT_OK}")
    if report.get("suite") != expect["suite"] or report.get("status") != "ok":
        problems.append(f"suite {report.get('suite')} status {report.get('status')}")
    if report.get("failed") != 0:
        problems.append(f"{report.get('failed')} failed assertions")
    assertions = report.get("assertions", [])
    if report.get("passed") != expect["passed"] or len(assertions) != expect["passed"]:
        problems.append(
            f"{report.get('passed')} passed of {len(assertions)}, wanted {expect['passed']}"
        )
    if not all(a.get("ok") is True for a in assertions):
        problems.append("an assertion is not ok")
    return problems


CHECKERS = {
    "aut": check_aut,
    "census": check_census,
    "verify": check_verify,
}


def check_job(expect: dict, rc: int, stdout: bytes, workdir: str = ".") -> list[str]:
    """Problems with one job's exit code and stdout report; empty when right."""
    try:
        report = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return [f"stdout is not one JSON report (exit code {rc})"]
    if not isinstance(report, dict):
        return ["stdout report is not an object"]
    kind = expect["kind"]
    if report.get("command") != kind:
        return [f"command {report.get('command')}, wanted {kind}"]
    if kind == "iso":
        return check_iso(report, rc, expect, workdir)
    return CHECKERS[kind](report, rc, expect)


def check_pass(jobs, results, workdir: str = ".") -> list[list[str]]:
    """Problems per job for one pass. A job whose expect names ``same_as``
    must also print exactly the bytes of that earlier job."""
    stdout_of = {}
    problems = []
    for job, res in zip(jobs, results):
        found = check_job(job.expect, res.rc, res.stdout, workdir)
        twin = job.expect.get("same_as")
        if twin is not None and res.stdout != stdout_of.get(twin):
            found.append(f"stdout differs from job {twin}")
        stdout_of[job.label] = res.stdout
        problems.append(found)
    return problems
