"""The exhaustive census solves one algebra per monomial orbit; these tests
hold it to a per-matrix scan and to its orbit-stabilizer self-check."""

import itertools
import json
import types

import pytest

from evoalg import cli, snf, solver, suites
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

