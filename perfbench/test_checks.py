"""Tests of the benchmark's answer checker: right reports pass, tampered
ones each count as a failure.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import Arith, certificate_holds, check_job, check_pass  # noqa: E402
from tracing import Aggregate  # noqa: E402
from workloads import Job  # noqa: E402

K5 = {"kind": "aut", "field": "Q", "order": 120, "name": "S5",
      "diagonal_order": 1, "graph_automorphism_count": 120}
GF3 = {"kind": "census", "mode": "exhaustive", "p": 3, "n": 3,
       "scanned": 19683, "nonsingular": 11232}
THM41 = {"kind": "verify", "suite": "thm41", "passed": 15}


def dumps(report) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def aut_report(**changes):
    report = {"command": "aut", "complete": True, "field": "Q", "order": 120,
              "recognized": ["S5"], "diagonal_order": 1,
              "graph_automorphism_count": 120}
    report.update(changes)
    return report


def census_report(**changes):
    report = {"command": "census", "mode": "exhaustive", "scanned": 19683,
              "nonsingular": 11232, "status": "ok", "field": "GF(3)", "n": 3,
              "aut_histogram": {"1": 10656, "2": 504, "3": 48, "6": 24},
              "diag_histogram": {"1": 11232}}
    report.update(changes)
    return report


def verify_report(passed=15, failed=0):
    assertions = [{"name": f"a{i}", "ok": True, "detail": ""} for i in range(passed)]
    assertions += [{"name": f"f{i}", "ok": False, "detail": ""} for i in range(failed)]
    return {"command": "verify", "suite": "thm41", "status": "ok" if not failed else "failed",
            "passed": passed, "failed": failed, "assertions": assertions}


class CycleCertificate:
    """An in-orbit pair of 3-cycle algebras over Q(zeta_7) and its witness:
    d = (q_j zeta^(e_j)) carries the all-ones algebra A onto B with
    b_j = d_(j+1) / d_j^2."""

    m, n = 7, 3
    q = [Fraction(2), Fraction(1, 2), Fraction(-3)]
    e = [0, 1, 3]

    def __init__(self):
        n, m, q, e = self.n, self.m, self.q, self.e

        def term(c, k):
            return str(c) if k % m == 0 else f"{c}*z^{k % m}"

        self.a = [["0"] * n for _ in range(n)]
        self.b = [["0"] * n for _ in range(n)]
        for j in range(n):
            k = (j + 1) % n
            self.a[k][j] = "1"
            self.b[k][j] = term(q[k] / (q[j] * q[j]), e[k] - 2 * e[j])
        self.d = [term(q[j], e[j]) for j in range(n)]

    def report(self, **cert_changes):
        cert = {"sigma": [1, 2, 3], "d": list(self.d),
                "checked": {"BP2_eq_PA": True, "B_PstarP_zero": True}}
        cert.update(cert_changes)
        return {"command": "iso", "status": "isomorphic", "field": f"Q(zeta_{self.m})",
                "n": self.n, "sigma_candidates_exhausted": 1, "certificate": cert}


class ArithTest(unittest.TestCase):
    def test_cyclotomic_degrees(self):
        for m in (3, 7, 15):
            arith = Arith(f"Q(zeta_{m})")
            self.assertEqual(len(arith.phi) - 1, sum(
                1 for k in range(1, m + 1) if math.gcd(k, m) == 1))
            self.assertEqual(arith.parse(f"z^{m}"), arith.parse("1"))

    def test_products(self):
        arith = Arith("Q(zeta_15)")
        z7 = arith.parse("z^7")
        self.assertEqual(arith.mul(z7, arith.parse("z^8")), arith.parse("1"))
        self.assertEqual(Arith("GF(7)").mul(3, 5), 1)


class CheckerTest(unittest.TestCase):
    def test_aut_right_and_wrong_order(self):
        self.assertEqual(check_job(K5, 0, dumps(aut_report())), [])
        self.assertTrue(check_job(K5, 0, dumps(aut_report(order=119))))
        self.assertTrue(check_job(K5, 0, dumps(aut_report(recognized=["C120"]))))
        self.assertTrue(check_job(K5, 3, dumps(aut_report())))

    def test_not_a_report(self):
        self.assertTrue(check_job(K5, 0, b"Traceback\n"))
        self.assertTrue(check_job(K5, 0, dumps({"command": "iso"})))

    def test_negative_iso(self):
        expect = {"kind": "iso", "isomorphic": False, "exhausted": 720}
        report = {"command": "iso", "status": "non-isomorphic",
                  "sigma_candidates_exhausted": 720}
        self.assertEqual(check_job(expect, 4, dumps(report)), [])
        self.assertTrue(check_job(expect, 0, dumps(report)))
        report["sigma_candidates_exhausted"] = 719
        self.assertTrue(check_job(expect, 4, dumps(report)))

    def test_certificate(self):
        pair = CycleCertificate()
        arith = Arith("Q(zeta_7)")
        good = pair.report()["certificate"]
        self.assertTrue(certificate_holds(pair.a, pair.b, good, arith))
        self.assertFalse(certificate_holds(pair.b, pair.a, good, arith))
        moved = dict(good, d=["4"] + good["d"][1:])
        self.assertFalse(certificate_holds(pair.a, pair.b, moved, arith))
        swapped = dict(good, sigma=[2, 1, 3])
        self.assertFalse(certificate_holds(pair.a, pair.b, swapped, arith))

    def test_positive_iso_and_flipped_flag(self):
        pair = CycleCertificate()
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
            for name, rows in (("a.json", pair.a), ("b.json", pair.b)):
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    json.dump({"field": "Q(zeta_7)", "n": 3, "entries": rows}, fh)
            expect = {"kind": "iso", "isomorphic": True, "field": "Q(zeta_7)",
                      "a": "a.json", "b": "b.json"}
            self.assertEqual(check_job(expect, 0, dumps(pair.report()), tmp), [])
            flipped = pair.report(checked={"BP2_eq_PA": False, "B_PstarP_zero": True})
            self.assertTrue(check_job(expect, 0, dumps(flipped), tmp))
            wrong_d = pair.report(d=["1", "1", "1"])
            self.assertTrue(check_job(expect, 0, dumps(wrong_d), tmp))

    def test_census_histograms(self):
        self.assertEqual(check_job(GF3, 0, dumps(census_report())), [])
        altered = census_report(aut_histogram={"1": 10655, "2": 504, "3": 48, "6": 24})
        self.assertTrue(check_job(GF3, 0, dumps(altered)))
        self.assertTrue(check_job(GF3, 0, dumps(census_report(diag_histogram={"1": 11233}))))
        odd_order = census_report(aut_histogram={"1": 10656, "2": 504, "5": 48, "6": 24})
        self.assertTrue(check_job(GF3, 0, dumps(odd_order)))
        self.assertTrue(check_job(GF3, 0, dumps(census_report(nonsingular=11231))))

    def test_census_threads_must_agree(self):
        jobs = [Job("one", (), GF3), Job("many", (), dict(GF3, same_as="one"))]

        class Res:
            def __init__(self, stdout):
                self.rc, self.stdout = 0, stdout

        same = [Res(dumps(census_report())), Res(dumps(census_report()))]
        self.assertEqual(check_pass(jobs, same), [[], []])
        spaced = dumps(census_report()).replace(b",", b", ")
        differ = [Res(dumps(census_report())), Res(spaced)]
        self.assertEqual(check_pass(jobs, differ)[0], [])
        self.assertTrue(check_pass(jobs, differ)[1])

    def test_random_census(self):
        expect = {"kind": "census", "mode": "random", "p": 7, "n": 4, "scanned": 50,
                  "nonsingular": 50, "samples": 50, "seed": 3}
        report = {"command": "census", "mode": "random", "scanned": 50, "nonsingular": 50,
                  "samples": 50, "seed": 3, "aut_histogram": {"1": 49, "2": 1},
                  "diag_histogram": {"1": 50}}
        self.assertEqual(check_job(expect, 0, dumps(report)), [])
        report["aut_histogram"] = {"1": 50, "2": 1}
        self.assertTrue(check_job(expect, 0, dumps(report)))

    def test_verify(self):
        self.assertEqual(check_job(THM41, 0, dumps(verify_report())), [])
        self.assertTrue(check_job(THM41, 0, dumps(verify_report(passed=14))))
        self.assertTrue(check_job(THM41, 4, dumps(verify_report(passed=14, failed=1))))


class MetricListTest(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        reported = set(Aggregate().metrics()) | {"cli.stdout_changed", "trace.overhead_s"}
        listed = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(listed, reported)


if __name__ == "__main__":
    unittest.main()
