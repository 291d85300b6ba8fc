import json
import os
import subprocess
import sys
import time

import pytest

import evoalg
from evoalg import algebra, digraph, solver
from evoalg.algebra import EvolutionAlgebra
from evoalg.cli import main
from evoalg.digraph import graph_automorphisms
from evoalg.errors import CapExceededError
from evoalg.fields import CyclotomicField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out) if out else None


def run_process(*argv, timeout=None):
    """The CLI in a fresh interpreter, for what only a process shows: its
    stderr on an uncaught error, or a run that never ends."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evoalg.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "evoalg.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_matrix(path, field_text, entries):
    path.write_text(
        json.dumps({"field": field_text, "n": len(entries), "entries": entries})
    )
    return str(path)


def k_file(path, n, loop):
    """K_n over Q with ``loop`` on the diagonal: "0" is loopless, "2" gives
    every vertex a loop and a nonsingular matrix."""
    return write_matrix(
        path, "Q", [[loop if k == j else "1" for j in range(n)] for k in range(n)]
    )


def k4_moved(path):
    """K4 moved by diag(1, 1, 1, 1 + zeta_5): u = 1 + zeta_5 is a unit of
    infinite order, so some sigma meet cycle equations kth_roots leaves open."""
    z5 = CyclotomicField(5)
    d = (z5.one,) * 3 + (z5.one + z5.zeta,)
    rows = [[d[k] * d[j] ** -2 if k != j else 0 for j in range(4)] for k in range(4)]
    EvolutionAlgebra(z5, rows).dump(str(path))
    return str(path)


@pytest.fixture
def k4_file(tmp_path, capsys):
    path = tmp_path / "k4.json"
    code, _ = run_json(capsys, "make", "--family", "complete:n=4", "--out", str(path))
    assert code == 0
    return str(path)


class TestMake:
    def test_complete(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, report = run_json(
            capsys, "make", "--family", "complete:n=4", "--out", str(path)
        )
        assert code == 0 and report["determinant"] == "-3"
        data = json.loads(path.read_text())
        assert data["n"] == 4 and data["entries"][0][1] == "1"

    def test_singular_twoparam_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "make", "--family", "twoparam:n=3,a=1,b=1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_frucht_records_shift(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(
            json.dumps({"n": 3, "adjacency": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]})
        )
        out = tmp_path / "lift.json"
        code, report = run_json(
            capsys, "make", "--family", f"frucht:{graph}", "--out", str(out)
        )
        assert code == 0 and report["m"] == 2

    # JSON true and false load as bools, which Python counts as ints 1 and 0
    @pytest.mark.parametrize(
        "adjacency",
        [5, [5, 6], [[0, 1], [1, "1"]], [[0, 1.5], [1.5, 0]], [[0, True], [True, 0]]],
    )
    def test_malformed_graph_is_a_parse_error(self, tmp_path, capsys, adjacency):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 2, "adjacency": adjacency}))
        code, out, err = run(
            capsys, "make", "--family", f"frucht:{graph}", "--out", str(tmp_path / "x.json")
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, adjacency", [(True, [[0]]), (2.0, [[0, 1], [1, 0]])], ids=["bool", "float"]
    )
    def test_graph_n_must_be_an_int(self, tmp_path, capsys, n, adjacency):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": n, "adjacency": adjacency}))
        code, out, err = run(
            capsys, "make", "--family", f"frucht:{graph}", "--out", str(tmp_path / "x.json")
        )
        assert code == 1 and out == ""
        assert err == "error: graph JSON n must be an integer\n"

    def test_bad_family_exits_1(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "make", "--family", "nope:n=1", "--out", str(tmp_path / "x.json")
        )
        assert code == 1


class TestAut:
    def test_k4(self, k4_file, capsys):
        code, report = run_json(capsys, "aut", "--in", k4_file)
        assert code == 0
        assert report["order"] == 24
        assert "S4" in report["recognized"]
        assert report["diagonal_order"] == 1
        assert report["t_A"] == 2
        assert report["graph_automorphism_count"] == 24

    def test_pattern_automorphisms_listed_once(self, k4_file, capsys, monkeypatch):
        # one chain per run, whose order is the count; nothing lists the
        # pattern automorphisms
        calls = {"chain": 0, "listing": 0}
        real_chain, real_listing = solver.automorphism_chain, digraph.pattern_isomorphisms

        def chain(g):
            calls["chain"] += 1
            return real_chain(g)

        def listing(g, h):
            calls["listing"] += 1
            return real_listing(g, h)

        monkeypatch.setattr(solver, "automorphism_chain", chain)
        monkeypatch.setattr(digraph, "pattern_isomorphisms", listing)
        code, report = run_json(capsys, "aut", "--in", k4_file)
        assert code == 0 and report["graph_automorphism_count"] == 24
        assert calls == {"chain": 1, "listing": 0}

    def test_k7_is_s7(self, tmp_path, capsys):
        # six solves (one per new generator; D is read off the pattern), not 5,040
        path = tmp_path / "k7.json"
        run_json(capsys, "make", "--family", "complete:n=7", "--out", str(path))
        code, report = run_json(capsys, "aut", "--in", str(path))
        assert code == 0 and report["complete"]
        assert report["order"] == 5040 and report["recognized"] == ["S7"]
        assert report["graph_automorphism_count"] == 5040

    def test_walk_stops_once_every_pattern_automorphism_lifts(
        self, tmp_path, capsys, monkeypatch
    ):
        # S7 is generated by the sigma solved at walk positions 1, 2, 6, 24,
        # 120 and 720; the walk ends there, at 6! + 1 of 5,040 sigma
        path = k_file(tmp_path / "k7.json", 7, "0")
        counts = {"walked": 0, "solved": 0}
        real_walk, real_solve = digraph.AutomorphismChain.walk, solver._solve_matched

        def walk(chain):
            for sigma in real_walk(chain):
                counts["walked"] += 1
                yield sigma

        def solve(a, b, sigma):
            counts["solved"] += 1
            return real_solve(a, b, sigma)

        monkeypatch.setattr(digraph.AutomorphismChain, "walk", walk)
        monkeypatch.setattr(solver, "_solve_matched", solve)
        code, report = run_json(capsys, "aut", "--in", path)
        assert code == 0 and report["recognized"] == ["S7"]
        assert counts == {"walked": 721, "solved": 6}

    def test_field_override(self, tmp_path, capsys):
        path = tmp_path / "k2.json"
        run_json(capsys, "make", "--family", "complete:n=2", "--out", str(path))
        code, report = run_json(
            capsys, "aut", "--in", str(path), "--field", "Q(zeta_3)"
        )
        assert code == 0 and report["order"] == 6
        assert "S3" in report["recognized"]

    def test_cycle_over_zeta7(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        run_json(capsys, "make", "--family", "cycle:n=3", "--out", str(path))
        code, report = run_json(
            capsys, "aut", "--in", str(path), "--field", "Q(zeta_7)"
        )
        assert code == 0 and report["order"] == 21
        assert "C7:C3" in report["recognized"]

    def test_singular_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps({"field": "Q", "n": 2, "entries": [["1", "1"], ["1", "1"]]})
        )
        code, _, _ = run(capsys, "aut", "--in", str(path))
        assert code == 2

    def test_indeterminate_exits_3(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {"field": "Q(zeta_5)", "n": 2, "entries": [["0", "1"], ["1 + z", "0"]]}
            )
        )
        code, report = run_json(capsys, "aut", "--in", str(path))
        assert code == 3 and report["status"] == "indeterminate"

    def test_large_prime_1x1_is_decided(self, tmp_path, capsys):
        # x^1 = c has the one root c, whatever the prime
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"field": "GF(1000003)", "n": 1, "entries": [["5"]]}))
        code, report = run_json(capsys, "aut", "--in", str(path))
        assert code == 0
        assert report["order"] == 1 and report["status"] == "ok"

    def test_large_prime_k2_is_s3(self, tmp_path, capsys):
        # D solves x^3 = 1, and the swap lifts with c = 1
        path = write_matrix(
            tmp_path / "k2.json", "GF(1000003)", [["0", "1"], ["1", "0"]]
        )
        code, report = run_json(capsys, "aut", "--in", path)
        assert code == 0 and report["complete"]
        assert report["order"] == 6 and report["diagonal_order"] == 3
        assert report["recognized"] == ["S3", "Dih3", "C3:C2"]

    def test_k4_moved_is_s4(self, tmp_path, capsys):
        code, report = run_json(capsys, "aut", "--in", k4_moved(tmp_path / "k4m.json"))
        assert code == 0 and report["status"] == "ok"
        assert report["order"] == 24 and "S4" in report["recognized"]

    def test_double_coset_settles_to_order_two(self, tmp_path, capsys):
        # [[0,2,1],[1,0,1],[1,2,0]] moved by diag(1, (1 + zeta_5)^2, 1): the
        # two open sigma lie in the double coset of a sigma without lifts
        path = write_matrix(
            tmp_path / "m.json", "Q(zeta_5)",
            [["0", "6 + 6*z + 10*z^3", "1"],
             ["1 + 2*z + z^2", "0", "1 + 2*z + z^2"],
             ["1", "6 + 6*z + 10*z^3", "0"]],
        )
        code, report = run_json(capsys, "aut", "--in", path)
        assert code == 0 and report["status"] == "ok" and report["complete"]
        assert report["order"] == 2 and report["recognized"] == ["C2", "S2"]

    def test_diagonal_order_is_read_off_the_group(self, tmp_path, capsys, monkeypatch):
        # the last two groups are partial; their diagonal part is still D
        paths = [
            write_matrix(tmp_path / "k2.json", "GF(1000003)", [["0", "1"], ["1", "0"]]),
            write_matrix(
                tmp_path / "c3.json", "Q(zeta_7)",
                [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
            ),
            write_matrix(
                tmp_path / "c4.json", "Q(zeta_15)",
                [["0", "0", "0", "1"], ["1/2", "0", "0", "0"],
                 ["0", "3", "0", "0"], ["0", "0", "-5", "0"]],
            ),
            k4_moved(tmp_path / "k4m.json"),
            write_matrix(tmp_path / "p2.json", "Q(zeta_3)", [["0", "1"], ["2 + z", "0"]]),
            write_matrix(
                tmp_path / "p4.json", "Q(zeta_7)",
                [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                 ["0", "0", "0", "1"], ["0", "0", "1 + z^3", "0"]],
            ),
        ]
        calls = []
        real = solver.solve_homogeneous_mod

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "solve_homogeneous_mod", counted)
        codes = []
        for path in paths:
            code, aut = run_json(capsys, "aut", "--in", path)
            codes.append(code)
            assert calls == []
            _, diag = run_json(capsys, "diag", "--in", path)
            assert aut["diagonal_order"] == diag["order"]
            assert aut["conductor_sufficient"] == diag["conductor_sufficient"]
            calls.clear()
        assert codes == [0, 0, 0, 0, 3, 3]

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "aut", "--in", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "matrix",
        [
            {"field": "Q", "n": 1, "entries": [[2]]},
            {"field": "Q", "n": 1, "entries": [[None]]},
            {"field": 5, "n": 1, "entries": [["2"]]},
        ],
        ids=["number-entry", "null-entry", "number-field"],
    )
    def test_non_string_input_exits_1(self, tmp_path, capsys, matrix):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix))
        code, out, err = run(capsys, "aut", "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: matrix JSON")

    @pytest.mark.parametrize("n", [True, 1.0], ids=["bool", "float"])
    def test_matrix_n_must_be_an_int(self, tmp_path, capsys, n):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": "Q", "n": n, "entries": [["2"]]}))
        code, out, err = run(capsys, "aut", "--in", str(path))
        assert code == 1 and out == ""
        assert err == "error: matrix JSON n must be an integer\n"

    @pytest.mark.parametrize(
        "field_text, exit_code",
        [("Q(zeta_4096)", 5), ("Q(zeta_" + "9" * 5000 + ")", 5), ("GF(" + "9" * 5000 + ")", 1)],
        ids=["conductor-over-cap", "long-conductor", "long-modulus"],
    )
    def test_descriptor_numbers_are_bounded(self, tmp_path, capsys, field_text, exit_code):
        # the field is built before any entry is read
        path = write_matrix(tmp_path / "m.json", field_text, [["1"]])
        code, out, err = run(capsys, "aut", "--in", path)
        assert code == exit_code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field_text", ["GF(7)", "Q"])
    @pytest.mark.parametrize(
        "literal, exit_code",
        [("1e3", 0), ("1e4300", 0), ("1e4301", 1), ("1e-9999999", 1), ("1.5e99999999", 1)],
    )
    def test_literal_exponent_is_bounded(self, tmp_path, capsys, field_text, literal, exit_code):
        # Fraction("1e9999999") would expand ten million digits before any check
        path = write_matrix(tmp_path / "m.json", field_text, [[literal]])
        t0 = time.monotonic()
        code, out, err = run(capsys, "aut", "--in", path)
        assert time.monotonic() - t0 < 2
        assert code == exit_code
        assert (out == "") == (exit_code != 0)

    def test_large_power_of_zeta_parses(self, tmp_path, capsys):
        # z^4 = z over Q(zeta_3); a 1x1 algebra has only the identity map
        path = tmp_path / "z4.json"
        path.write_text(json.dumps({"field": "Q(zeta_3)", "n": 1, "entries": [["z^4"]]}))
        code, report = run_json(capsys, "aut", "--in", str(path))
        assert code == 0 and report["order"] == 1

    def test_zero_denominator_over_cyclotomic_exits_1(self, tmp_path):
        path = tmp_path / "zero-den.json"
        path.write_text(json.dumps({"field": "Q(zeta_3)", "n": 1, "entries": [["1/0"]]}))
        done = run_process("aut", "--in", str(path))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "entry", ["z^" + "9" * 5000, "9" * 5000 + "*z"], ids=["exponent", "coefficient"]
    )
    def test_oversized_cyclotomic_term_exits_1(self, tmp_path, entry):
        # past Python's 4,300-digit int limit, int() and Fraction() raise
        # ValueError
        path = write_matrix(tmp_path / "long.json", "Q(zeta_3)", [[entry]])
        done = run_process("aut", "--in", path)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: bad term ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_threads_is_a_usage_error(self, k4_file, capsys):
        # only census takes --threads
        with pytest.raises(SystemExit) as exc:
            main(["aut", "--in", k4_file, "--threads", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert "unrecognized arguments: --threads" in captured.err


class TestDiag:
    def test_k2_over_zeta3(self, tmp_path, capsys):
        path = tmp_path / "k2.json"
        run_json(capsys, "make", "--family", "complete:n=2", "--out", str(path))
        code, report = run_json(
            capsys, "diag", "--in", str(path), "--field", "Q(zeta_3)"
        )
        assert code == 0
        assert report["order"] == 3
        assert report["modulus"] == 6
        assert len(report["elements"]) == 3
        assert report["conductor_sufficient"]


@pytest.mark.parametrize(
    "argv",
    [
        ["aut", "--in", "{loopless}"],
        ["iso", "--in", "{loopless}", "--b", "{loopless}"],
        ["graph-aut", "--in", "{loopless}"],
        ["diag", "--in", "{loopless}"],
        ["diag", "--in", "{loops}"],
        ["make", "--family", "complete:n=13", "--out", "{out}"],
        ["make", "--family", "twoparam:n=13,a=1,b=2", "--out", "{out}"],
        ["make", "--family", "cycle:n=13", "--out", "{out}"],
        ["make", "--family", "frucht:{graph}", "--out", "{out}"],
        ["census", "--field", "GF(2)", "--n", "13"],
        ["census", "--field", "GF(2)", "--n", "13", "--mode", "random:1"],
    ],
    ids=[
        "aut", "iso", "graph-aut", "diag-loopless", "diag-all-loops", "make-complete",
        "make-twoparam", "make-cycle", "make-frucht", "census-exhaustive", "census-random",
    ],
)
def test_dimension_cap_is_checked_before_the_determinant(tmp_path, capsys, monkeypatch, argv):
    # every entry point refuses n = 13 before it decides idempotence, an
    # all-loops pattern included
    graph = tmp_path / "k13-graph.json"
    adjacency = [[int(i != j) for j in range(13)] for i in range(13)]
    graph.write_text(json.dumps({"n": 13, "adjacency": adjacency}))
    paths = {
        "loopless": k_file(tmp_path / "k13.json", 13, "0"),
        "loops": k_file(tmp_path / "k13-loops.json", 13, "2"),
        "graph": str(graph),
        "out": str(tmp_path / "made.json"),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("determinant was called")

    monkeypatch.setattr(algebra, "determinant", refuse)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 5 and out == ""
    assert err == "error: dimension capped at n = 12\n"
    assert not os.path.exists(paths["out"])


def test_make_refuses_a_huge_dimension_at_once(tmp_path):
    done = run_process(
        "make", "--family", "complete:n=99999999", "--out", str(tmp_path / "m.json"),
        timeout=30,
    )
    assert done.returncode == 5 and done.stdout == ""
    assert done.stderr == "error: dimension capped at n = 12\n"


@pytest.mark.parametrize("cap", [719, 720])
def test_listing_cap_trips_at_k6(tmp_path, capsys, monkeypatch, cap):
    # K6 has 720 pattern automorphisms, and its group 720 elements
    path = k_file(tmp_path / "k6.json", 6, "0")
    monkeypatch.setattr(digraph, "CLOSURE_CAP", cap)
    pattern = EvolutionAlgebra.load(path).digraph
    if cap < 720:
        with pytest.raises(CapExceededError):
            graph_automorphisms(pattern)
    else:
        assert len(graph_automorphisms(pattern)) == 720
    for command in ("graph-aut", "aut"):
        code, out, err = run(capsys, command, "--in", path)
        if cap < 720:
            assert code == 5 and out == ""
            assert err == "error: pattern automorphisms passed the cap 719\n"
        else:
            assert code == 0 and out != ""


def test_k10_is_refused_before_the_walk(tmp_path, capsys, monkeypatch):
    # 10! is read off the chain and refused before its walk yields a sigma
    path = k_file(tmp_path / "k10.json", 10, "0")
    yielded = 0
    real = digraph.AutomorphismChain.walk

    def walk(chain):
        nonlocal yielded
        for sigma in real(chain):
            yielded += 1
            yield sigma

    monkeypatch.setattr(digraph.AutomorphismChain, "walk", walk)
    for command in ("aut", "graph-aut"):
        code, out, err = run(capsys, command, "--in", path)
        assert code == 5 and out == ""
        assert err == "error: pattern automorphisms passed the cap 1000000\n"
    assert yielded == 0


class TestGraphAut:
    def test_takes_no_determinant(self, k4_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("determinant was called")

        monkeypatch.setattr(algebra, "determinant", refuse)
        code, report = run_json(capsys, "graph-aut", "--in", k4_file)
        assert code == 0 and report["count"] == 24

    def test_k4_pattern(self, k4_file, capsys):
        code, report = run_json(capsys, "graph-aut", "--in", k4_file)
        assert code == 0 and report["count"] == 24
        assert report["automorphisms"][0] == [1, 2, 3, 4]


class TestIso:
    def make(self, capsys, tmp_path, name, family):
        path = tmp_path / name
        run_json(capsys, "make", "--family", family, "--out", str(path))
        return str(path)

    def test_scaled_cycle_certificate(self, tmp_path, capsys):
        ones = self.make(capsys, tmp_path, "ones.json", "cycle:n=3")
        scaled = self.make(capsys, tmp_path, "scaled.json", "cycle:n=3,b=128;1;1")
        code, report = run_json(capsys, "iso", "--in", ones, "--b", scaled)
        assert code == 0
        cert = report["certificate"]
        assert cert["sigma"] == [1, 2, 3]
        assert cert["d"] == ["1/16", "1/2", "1/4"]
        assert cert["checked"] == {"BP2_eq_PA": True, "B_PstarP_zero": True}

    def test_non_isomorphic_exits_4(self, tmp_path, capsys):
        a = self.make(capsys, tmp_path, "a.json", "twoparam:n=4,a=1,b=2")
        b = self.make(capsys, tmp_path, "b.json", "twoparam:n=4,a=1,b=3")
        code, report = run_json(capsys, "iso", "--in", a, "--b", b)
        assert code == 4
        assert report["status"] == "non-isomorphic"
        assert report["sigma_candidates_exhausted"] == 24

    def test_first_power_cycle_is_decided(self, tmp_path, capsys):
        # the 1-cycle closes to x^1 = 1 / (2z^3 + z^5), which is no rational
        # times a root of unity; it has the one root c all the same
        paths = []
        for name, entry in (("one.json", "1"), ("c.json", "2*z^3 + z^5")):
            path = tmp_path / name
            path.write_text(
                json.dumps({"field": "Q(zeta_7)", "n": 1, "entries": [[entry]]})
            )
            paths.append(str(path))
        code, report = run_json(capsys, "iso", "--in", paths[0], "--b", paths[1])
        assert code == 0 and report["status"] == "isomorphic"
        assert "unsolved" not in report
        cert = report["certificate"]
        assert cert["checked"] == {"BP2_eq_PA": True, "B_PstarP_zero": True}

    def test_self_isomorphism(self, k4_file, capsys):
        code, report = run_json(capsys, "iso", "--in", k4_file, "--b", k4_file)
        assert code == 0 and report["certificate"]["sigma"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("cap", [719, 720])
    def test_sigma_walk_is_capped(self, tmp_path, capsys, monkeypatch, cap):
        # the n = 6 pair is non-isomorphic after all 720 pattern maps
        a = self.make(capsys, tmp_path, "a.json", "twoparam:n=6,a=1,b=2")
        b = self.make(capsys, tmp_path, "b.json", "twoparam:n=6,a=1,b=3")
        monkeypatch.setattr(digraph, "CLOSURE_CAP", cap)
        code, out, err = run(capsys, "iso", "--in", a, "--b", b)
        if cap < 720:
            assert code == 5 and out == ""
            assert err == "error: pattern isomorphisms passed the cap 719\n"
        else:
            assert code == 4
            assert json.loads(out)["sigma_candidates_exhausted"] == 720


class TestCensus:
    def test_gf2_exhaustive(self, capsys):
        code, report = run_json(
            capsys, "census", "--field", "GF(2)", "--n", "2", "--mode", "exhaustive"
        )
        assert code == 0
        assert report["nonsingular"] == 6
        assert sum(report["aut_histogram"].values()) == 6

    def test_random_mode_conserves_count(self, capsys):
        code, report = run_json(
            capsys,
            "census", "--field", "GF(3)", "--n", "2",
            "--mode", "random:200", "--seed", "42",
        )
        assert code == 0
        assert report["seed"] == 42
        assert report["status"] == "ok" and "incomplete" not in report
        assert sum(report["aut_histogram"].values()) == 200
        assert sum(report["diag_histogram"].values()) == 200

    def test_diagonal_orders_all_odd(self, capsys):
        _, report = run_json(
            capsys, "census", "--field", "GF(7)", "--n", "2", "--mode", "exhaustive"
        )
        assert all(int(k) % 2 == 1 for k in report["diag_histogram"])

    def test_byte_identical_across_threads(self, tmp_path, capsys):
        args = ["census", "--field", "GF(3)", "--n", "2", "--mode", "exhaustive"]
        _, out1, _ = run(capsys, *args, "--threads", "1")
        _, out8, _ = run(capsys, *args, "--threads", "8")
        assert out1 == out8

    def test_seed_changes_random_output(self, capsys):
        base = ["census", "--field", "GF(3)", "--n", "2", "--mode", "random:50"]
        _, a, _ = run(capsys, *base, "--seed", "1")
        _, b, _ = run(capsys, *base, "--seed", "1")
        _, c, _ = run(capsys, *base, "--seed", "2")
        assert a == b
        assert json.loads(a)["seed"] != json.loads(c)["seed"]

    def test_negative_sample_count_rejected(self, capsys):
        code, out, _ = run(
            capsys, "census", "--field", "GF(3)", "--n", "2", "--mode", "random:-5"
        )
        assert code == 1 and out == ""

    def test_non_prime_field_rejected(self, capsys):
        code, _, _ = run(
            capsys, "census", "--field", "Q", "--n", "2", "--mode", "exhaustive"
        )
        assert code == 1

    def test_cap(self, capsys):
        code, _, _ = run(
            capsys, "census", "--field", "GF(13)", "--n", "3", "--mode", "exhaustive"
        )
        assert code == 5


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        for suite in ("example31", "thm23", "thm31"):
            code, report = run_json(capsys, "verify", "--suite", suite)
            assert code == 0
            assert report["failed"] == 0

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "census", "--field", "GF(2)", "--n", "2",
            "--mode", "exhaustive", "--out", str(path),
        )
        assert code == 0
        assert path.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["aut", "--in", "{latin1}"],
        ["aut", "--in", "{nested}"],
        ["aut", "--in", "{long_n}"],
        ["aut", "--in", "{k3}", "--out", "{missing}"],
        ["make", "--family", "complete:n=3", "--out", "{missing}"],
        ["make", "--family", "frucht:{latin1}", "--out", "{made}"],
    ],
    ids=["not-utf8", "nested", "long-int", "aut-out", "make-out", "frucht-not-utf8"],
)
def test_file_faults_exit_1(tmp_path, argv):
    # reading: bad UTF-8, nesting past the decoder's recursion limit and an
    # integer past Python's digit limit; writing: a directory that is missing
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff\xfe{}")
    nested = tmp_path / "nested.json"
    nested.write_text('{"field": "Q", "n": 1, "entries": ' + "[" * 10**5 + "]" * 10**5 + "}")
    long_n = tmp_path / "long-n.json"
    long_n.write_text('{"field": "Q", "n": ' + "1" * 5000 + ', "entries": []}')
    paths = {
        "latin1": str(latin1),
        "nested": str(nested),
        "long_n": str(long_n),
        "k3": k_file(tmp_path / "k3.json", 3, "0"),
        "missing": str(tmp_path / "missing" / "out.json"),
        "made": str(tmp_path / "made.json"),
    }
    done = run_process(*(arg.format(**paths) for arg in argv))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: cannot ")
    assert "Traceback" not in done.stderr


def test_cli_import_loads_no_thread_pool():
    # every CLI run pays for what `import evoalg.cli` loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(evoalg.__file__)))
    # dataclasses and inspect (with dis, ast, tokenize) cost a cold start more
    # than any module of the package
    heavy = ["concurrent.futures", "dataclasses", "inspect", "dis", "ast", "tokenize"]
    probe = f"import sys, evoalg.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_usage_errors_exit_1(capsys):
    # argparse exits 2 by default, which here means a singular matrix
    for argv in (
        ["census", "--field", "GF(3)", "--n", "x"],
        ["aut"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: evoalg" in capsys.readouterr().err
