"""The exhaustive census solves one algebra per monomial orbit; these tests
hold it to a per-matrix scan and to its orbit-stabilizer self-check."""

import functools
import itertools
import json
import os
import subprocess
import sys
import types

import pytest

import evoalg
from evoalg import cli, snf, solver, suites
from evoalg.algebra import EvolutionAlgebra
from evoalg.fields import PrimeField


def per_matrix_census(p, n):
    """Reference: one solve for every matrix, as the census did before orbits."""
    field = PrimeField(p)
    aut, diag, nonsingular = {}, {}, 0
    for flat in itertools.product(range(p), repeat=n * n):
        entry = cli._census_entry(cli._census_algebra(field, n, flat))
        if entry is None:
            continue
        nonsingular += 1
        aut[entry[0]] = aut.get(entry[0], 0) + 1
        diag[entry[1]] = diag.get(entry[1], 0) + 1
    return {
        "nonsingular": nonsingular,
        "aut_histogram": {str(k): v for k, v in sorted(aut.items())},
        "diag_histogram": {str(k): v for k, v in sorted(diag.items())},
    }


def census(capsys, p, n):
    code = cli.main(["census", "--field", f"GF({p})", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 0
    return json.loads(captured.out), captured.err


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_orbit_sweep_matches_per_matrix_scan(capsys, p, n):
    report, _ = census(capsys, p, n)
    expected = per_matrix_census(p, n)
    assert {key: report[key] for key in expected} == expected
    assert report["scanned"] == p ** (n * n)


def test_gf3_n3_golden(capsys):
    report, err = census(capsys, 3, 3)
    assert report["nonsingular"] == 11232  # |GL_3(F_3)|
    assert report["aut_histogram"] == {"1": 10656, "2": 504, "3": 48, "6": 24}
    assert report["diag_histogram"] == {"1": 11232}
    assert "census: 11232 algebras in 249 classes over GF(3), n = 3" in err


def test_one_automorphism_solve_per_class(monkeypatch, capsys):
    real = cli.automorphism_group
    calls = []

    def counted(alg, *args, **kwargs):
        calls.append(alg)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(cli, "automorphism_group", counted)
    census(capsys, 3, 3)
    assert len(calls) == 249  # a per-matrix scan solves all 11232


def test_wrong_order_fails_orbit_stabilizer(monkeypatch):
    real = cli.automorphism_group

    def doubled(alg, *args, **kwargs):
        group = real(alg, *args, **kwargs)
        return types.SimpleNamespace(
            order=2 * group.order, complete=True, diagonal_order=group.diagonal_order
        )

    monkeypatch.setattr(cli, "automorphism_group", doubled)
    with pytest.raises(RuntimeError, match="orbit-stabilizer fails"):
        cli.main(["census", "--field", "GF(3)", "--n", "2"])


def test_incomplete_group_fails_self_check(monkeypatch):
    real = cli.automorphism_group

    def undecided(alg, *args, **kwargs):
        # an undecided group's order need not be constant on an orbit
        group = real(alg, *args, **kwargs)
        return types.SimpleNamespace(
            order=group.order, complete=False, diagonal_order=group.diagonal_order
        )

    monkeypatch.setattr(cli, "automorphism_group", undecided)
    with pytest.raises(RuntimeError, match="is incomplete"):
        cli.main(["census", "--field", "GF(3)", "--n", "2"])


@pytest.mark.parametrize(
    "argv, aut, diag",
    [
        (["--field", "GF(3)", "--n", "2"], {"1": 40, "2": 8}, {"1": 48}),
        (
            ["--field", "GF(7)", "--n", "2", "--mode", "random:60", "--seed", "11"],
            {"1": 52, "2": 5, "3": 2, "6": 1},
            {"1": 57, "3": 3},
        ),
    ],
)
def test_diagonal_order_is_read_off_the_group(monkeypatch, capsys, argv, aut, diag):
    # |D| is the diagonal part of the complete group, so no Smith normal
    # form runs
    calls = []
    real = snf.solve_homogeneous_mod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "solve_homogeneous_mod", counted)
    code = cli.main(["census", *argv])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["aut_histogram"] == aut
    assert report["diag_histogram"] == diag
    assert calls == []


def test_zero_matrix_orbit_is_not_walked(monkeypatch, capsys):
    real = cli._unit_vectors
    walks = []

    def counted(p, n):
        walks.append((p, n))
        return real(p, n)

    monkeypatch.setattr(cli, "_unit_vectors", counted)
    report, _ = census(capsys, 5, 1)
    assert report["aut_histogram"] == {"1": 4}
    assert walks == [(5, 1)]  # the class of [1]; the zero matrix needs none


def test_random_sample_builds_each_algebra_once(monkeypatch, capsys):
    built, solved = [], []

    class Recorded(suites.EvolutionAlgebra):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    real = cli.automorphism_group

    def recorded(alg, *args, **kwargs):
        solved.append(alg)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(suites, "EvolutionAlgebra", Recorded)
    monkeypatch.setattr(cli, "automorphism_group", recorded)
    code = cli.main(["census", "--field", "GF(3)", "--n", "2", "--mode", "random:40"])
    assert code == 0
    capsys.readouterr()
    assert len(solved) == 40
    assert [alg for alg in built if alg.is_idempotent] == solved


def test_random_sample_with_partial_group_is_left_out(monkeypatch, capsys):
    # x^3 = c over GF(1000003) has no discrete-log table and gcd(3, p - 1) = 3,
    # so the swap's solve stays open and the group of this sample is partial
    field = PrimeField(1000003)
    partial = suites.EvolutionAlgebra(field, [[0, 1], [2, 0]])
    decided = suites.EvolutionAlgebra(field, [[1, 0], [0, 1]])
    draws = iter([partial, decided, partial])
    monkeypatch.setattr(cli, "random_idempotent", lambda *_: next(draws))
    code = cli.main(
        ["census", "--field", "GF(1000003)", "--n", "2", "--mode", "random:3"]
    )
    captured = capsys.readouterr()
    assert code == 3
    report = json.loads(captured.out)
    assert report["status"] == "indeterminate"
    assert report["incomplete"] == 2
    assert report["nonsingular"] == 1
    assert report["aut_histogram"] == {"2": 1}
    assert "2 undecided left out" in captured.err



def group_summary(group):
    return (
        group.order,
        group.diagonal_order,
        group.complete,
        [g.to_json() for g in group.generators],
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "GF(3)", "--n", "2"],
        ["--field", "GF(2)", "--n", "3"],
        ["--field", "GF(7)", "--n", "4", "--mode", "random:200", "--seed", "5"],
    ],
)
def test_memoized_group_matches_a_fresh_solve(monkeypatch, capsys, argv):
    # every class (or sample) the census solves through the run's memo gets
    # the group that automorphism_group builds for it alone
    real = cli.automorphism_group
    seen = []

    def recorded(alg):
        group = real(alg)
        # inside the run, pattern_solve answers from the run's memo
        seen.append((alg, solver.pattern_solve(alg), group))
        return group

    monkeypatch.setattr(cli, "automorphism_group", recorded)
    assert cli.main(["census", *argv]) == 0
    capsys.readouterr()
    assert seen
    # algebras that share a pattern share one record
    assert len({id(pattern) for _, pattern, _ in seen}) < len(seen)
    for alg, pattern, group in seen:
        # the entry may come from another algebra with the same pattern;
        # outside the run, pattern_solve computes afresh
        fresh = solver.pattern_solve(alg)
        assert fresh is not pattern
        assert pattern.sigmas == tuple(fresh.sigmas)
        assert pattern.diagonal == fresh.diagonal
        assert group_summary(group) == group_summary(solver.automorphism_group(alg))


@pytest.mark.parametrize("mode", ["exhaustive", "random:1"])
@pytest.mark.parametrize("n", [13, 120])
def test_census_refuses_n_above_the_search_cap(monkeypatch, capsys, mode, n):
    # every class would meet automorphism_group's cap, so the census stops
    # before it computes 2^(n^2) (4,335 digits at n = 120) or builds a sample
    def built(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(EvolutionAlgebra, "__init__", built)
    code = cli.main(["census", "--field", "GF(2)", "--n", str(n), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "census capped at n = 12" in captured.err


def test_pattern_memo_belongs_to_one_run(monkeypatch, capsys):
    # back-to-back runs in one process print what fresh processes print,
    # verify included, and no pattern memo is left behind in a module or in
    # the context, also by a suite run alone or by a suite that raises
    runs = [
        ["census", "--field", "GF(3)", "--n", "2"],
        ["census", "--field", "GF(5)", "--n", "2"],
        ["census", "--field", "GF(2)", "--n", "3"],
        ["census", "--field", "GF(3)", "--n", "3"],
        ["verify", "--suite", "thm22"],
        ["census", "--field", "GF(3)", "--n", "3"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(evoalg.__file__)))
    for argv in runs:
        assert cli.main(argv) == 0
        in_process = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "evoalg.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert in_process.out == fresh.stdout
        if argv[0] == "census":
            # the pattern count, with the timing cut off
            assert in_process.err.split("[")[0] == fresh.stderr.split("[")[0]
        assert solver.RUN_PATTERNS.get() is None
    assert suites.run_suite("thm31").ok
    assert solver.RUN_PATTERNS.get() is None

    memos = []

    def raising():
        memos.append(solver.RUN_PATTERNS.get())
        raise RuntimeError("suite raised")

    monkeypatch.setitem(suites.SUITES, "thm31", raising)
    with pytest.raises(RuntimeError, match="suite raised"):
        suites.run_suite("thm31")
    assert solver.RUN_PATTERNS.get() is None
    with pytest.raises(RuntimeError, match="suite raised"):
        cli.main(["verify", "--suite", "thm31"])
    assert solver.RUN_PATTERNS.get() is None
    assert all(isinstance(memo, solver.PatternMemo) for memo in memos)
    assert len(memos) == 2
    for module in (cli, solver, suites):
        for name, value in vars(module).items():
            assert not isinstance(value, solver.PatternMemo), name
            if isinstance(value, dict):
                assert all(isinstance(k, str) for k in value), name


def count_pattern_work(monkeypatch):
    """Counters of graph_automorphisms calls, D solves, sigma = id solves of
    an algebra against itself, and builds of an algebra's entry inverses."""
    counts = {
        "graph_automorphisms": 0,
        "diagonal_solves": 0,
        "identity_solves": 0,
        "inverses": 0,
    }
    real_auts, real_solve = solver.graph_automorphisms, solver.solve_monomial
    real_diagonal = solver._pattern_solve
    real_inverses = EvolutionAlgebra.inverses.func

    def auts(g):
        counts["graph_automorphisms"] += 1
        return real_auts(g)

    def diagonal(alg):
        counts["diagonal_solves"] += 1
        return real_diagonal(alg)

    def solve(a, b, sigma):
        counts["identity_solves"] += a is b and sigma == tuple(range(a.n))
        return real_solve(a, b, sigma)

    def inverses(alg):
        counts["inverses"] += 1
        return real_inverses(alg)

    cached = functools.cached_property(inverses)
    cached.__set_name__(EvolutionAlgebra, "inverses")
    monkeypatch.setattr(solver, "graph_automorphisms", auts)
    monkeypatch.setattr(solver, "_pattern_solve", diagonal)
    monkeypatch.setattr(solver, "solve_monomial", solve)
    monkeypatch.setattr(EvolutionAlgebra, "inverses", cached)
    return counts


@pytest.mark.parametrize(
    "argv, patterns, inverses",
    [
        # 1,500 samples over 654 patterns
        (["--field", "GF(7)", "--n", "4", "--mode", "random:1500", "--seed", "7"], 654, 34),
        # 249 classes over 57 patterns
        (["--field", "GF(3)", "--n", "3"], 57, 36),
    ],
    ids=["gf7-n4-random", "gf3-n3-exhaustive"],
)
def test_pattern_work_runs_once_per_pattern(monkeypatch, capsys, argv, patterns, inverses):
    counts = count_pattern_work(monkeypatch)
    assert cli.main(["census", *argv]) == 0
    err = capsys.readouterr().err
    assert counts == {
        "graph_automorphisms": patterns,
        "diagonal_solves": patterns,
        # D is read off the pattern, never solved as A against A
        "identity_solves": 0,
        # one per algebra with a sigma != id that passes the screens
        "inverses": inverses,
    }
    assert f", {patterns} patterns [" in err


def verify_through_cli(suite):
    return cli.main(["verify", "--suite", suite]) == 0


def verify_alone(suite):
    return suites.run_suite(suite).ok


@pytest.mark.parametrize("run", [verify_through_cli, verify_alone], ids=["cli-main", "run-suite"])
@pytest.mark.parametrize(
    "suite, groups, patterns",
    [
        # 450 groups over 194 zero patterns
        ("thm22", 450, 194),
        # thm23 and thm31 ask pattern_solve for the count after
        # automorphism_group has listed the same automorphisms
        ("thm23", 30, 28),
        ("thm31", 3, 3),
    ],
    ids=["thm22", "thm23", "thm31"],
)
def test_verify_solves_each_pattern_once(monkeypatch, capsys, run, suite, groups, patterns):
    # run_suite opens its own run, so the tests and the CLI do the same work
    counts = count_pattern_work(monkeypatch)
    built = []
    real = solver.automorphism_group

    def counted(alg):
        built.append(alg)
        return real(alg)

    monkeypatch.setattr(suites, "automorphism_group", counted)
    assert run(suite)
    capsys.readouterr()
    assert len(built) == groups
    assert counts["graph_automorphisms"] == counts["diagonal_solves"] == patterns
    assert counts["identity_solves"] == 0
