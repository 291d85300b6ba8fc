"""Aut(E) held as D, the pattern chain and a lift of each strong generator,
with no element listed, against the group the walk lists; Schreier-Sims and
the greedy generators against a listed closure; and the answers this makes
reachable, aut on K10-K12, with the caps that still bound a listing."""

import contextlib
import io
import itertools
import json
import math
import random

import pytest

from evoalg import cli, digraph, solver, suites
from evoalg.algebra import EvolutionAlgebra
from evoalg.digraph import compose, greedy_generators, stabilizer_chain
from evoalg.families import build_family
from evoalg.fields import CyclotomicField, PrimeField, RationalField
from evoalg.groups import recognize
from evoalg.solver import automorphism_group, verify_map


def listed_closure(n, gens):
    identity = tuple(range(n))
    group, todo = {identity}, [identity]
    for x in todo:  # grows while it is walked
        for g in gens:
            y = compose(g, x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def listed_greedy(elements):
    """Each element, in the given order, that the ones before it do not
    generate."""
    kept, inside = [], {tuple(range(len(elements[0])))}
    for g in elements:
        if g not in inside:
            kept.append(g)
            inside = listed_closure(len(g), kept)
    return kept


def random_generators(n, rng):
    gens = []
    for _ in range(rng.randint(0, 3)):
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            p = list(range(n))
            p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
        else:
            gens.append(tuple(rng.sample(range(n), n)))
    return gens


def test_schreier_sims_matches_a_listed_closure():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 7)
        gens = random_generators(n, rng)
        chain = stabilizer_chain(n, gens)
        group = listed_closure(n, gens)
        assert chain.order == len(group)
        for g in chain.generators:
            assert g in group
        if n <= 6:
            candidates = itertools.permutations(range(n))
        else:
            candidates = [tuple(rng.sample(range(n), n)) for _ in range(300)] + list(group)
        for p in candidates:
            assert chain.contains(p) == (p in group)
        elements = sorted(group)
        assert list(chain.walk()) == elements
        assert greedy_generators(chain) == listed_greedy(elements)


def algebras_up_to_n7(monkeypatch):
    """Every algebra with n <= 7 whose group a verification suite asks for,
    and the family members the benchmark and the tests build."""
    seen = {}
    real = solver.pattern_solve

    def recorded(a):
        if a.n <= 7:
            seen[a] = None
        return real(a)

    monkeypatch.setattr(solver, "pattern_solve", recorded)
    for name in suites.SUITES:
        assert suites.run_suite(name).ok
    monkeypatch.undo()
    q = RationalField()
    for n in range(2, 8):
        for spec in (f"complete:n={n}", f"cycle:n={n}", f"twoparam:n={n},a=1,b=2"):
            seen[build_family(spec, q)[0]] = None
    for spec, field in (
        ("complete:n=5", PrimeField(7)),
        ("cycle:n=4", CyclotomicField(15)),
        ("cycle:n=3", CyclotomicField(7)),
        ("complete:n=2", CyclotomicField(3)),
    ):
        seen[build_family(spec, field)[0]] = None
    return list(seen)


def test_the_chain_held_group_is_the_listed_one(monkeypatch):
    held_count = 0
    for alg in algebras_up_to_n7(monkeypatch):
        held = automorphism_group(alg)
        if "_unlisted" in vars(held):
            held_count += 1
            names = recognize(held)
            faithful = held.diagonal_order == 1 and held.order == math.factorial(alg.n)
            # S_k for k >= 4 is named without an element
            assert ("_keys" in vars(held)) == (not faithful or alg.n < 4)
        else:
            names = recognize(held)
        summary = (
            held.order,
            [g.to_json() for g in held.generators],
            held.diagonal_order,
            names,
        )
        with monkeypatch.context() as patched:
            patched.setattr(solver, "_lifted_group", lambda *args: None)
            listed = automorphism_group(alg)
        assert "_unlisted" not in vars(listed)
        assert summary == (
            listed.order,
            [g.to_json() for g in listed.generators],
            listed.diagonal_order,
            recognize(listed),
        )
        assert held.elements == listed.elements
        assert held.complete == listed.complete
    assert held_count > 30


@pytest.mark.parametrize("n", [10, 11, 12])
def test_k_n_up_to_12_is_named_with_checked_generators(tmp_path, n):
    path = tmp_path / f"k{n}.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["make", "--family", f"complete:n={n}", "--out", str(path)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["aut", "--in", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert report["order"] == report["graph_automorphism_count"] == math.factorial(n)
    assert report["recognized"] == [f"S{n}"] and report["diagonal_order"] == 1
    alg = EvolutionAlgebra.load(str(path))
    group = automorphism_group(alg)
    assert [g.to_json() for g in group.generators] == report["generators"]
    assert len(group.generators) == n - 1
    assert all(verify_map(alg, alg, g) for g in group.generators)
    assert "_keys" not in vars(group)


@pytest.mark.parametrize("cap", [59, 60])
def test_an_on_demand_listing_still_trips_the_cap(tmp_path, monkeypatch, cap):
    # the 4-cycle over Q(zeta_15) is held by its chain, 15 * 4 = 60
    # elements; naming it C15:C4 needs element orders, and so a listing
    path = tmp_path / "cycle4.json"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(["make", "--family", "cycle:n=4", "--field", "Q(zeta_15)", "--out", str(path)])
    monkeypatch.setattr(digraph, "CLOSURE_CAP", cap)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["aut", "--in", str(path)])
    if cap < 60:
        assert code == 5 and out.getvalue() == ""
        assert "passed the cap 59" in err.getvalue()
    else:
        report = json.loads(out.getvalue())
        assert code == 0 and report["order"] == 60
        assert "C15:C4" in report["recognized"]


def test_census_solves_no_more_than_the_walk_alone(monkeypatch):
    # the random census job of the benchmark, seed 3: 4,159 solves when
    # every algebra took the walk, which reused no solve
    calls = 0
    real = solver._solve_matched

    def counted(a, b, sigma):
        nonlocal calls
        calls += 1
        return real(a, b, sigma)

    monkeypatch.setattr(solver, "_solve_matched", counted)
    argv = ["census", "--field", "GF(7)", "--n", "4", "--mode", "random:1500", "--seed", "3"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls <= 4159


def test_an_open_greedy_solve_leaves_the_group_to_the_walk(monkeypatch):
    # every strong generator of K4's pattern lifts; a greedy generator that
    # is not one of them, here the product of the first two, is left open,
    # so the held group is refused and the walk lists the group itself. The
    # backtrack finds the greedy generators of a pattern as its strong
    # generators, so the extra generator and its open solve are patched in
    alg = build_family("complete:n=4", RationalField())[0]
    unpatched = automorphism_group(alg)
    strong = solver.pattern_solve(alg).chain.generators
    extra = compose(strong[0], strong[1])
    assert extra not in strong
    real_greedy, real_solve, real_lifted = (
        solver.greedy_generators, solver._solve_matched, solver._lifted_group
    )
    returned = []

    def solve(a, b, sigma):
        if sigma == extra:
            return solver.SolveOutcome(solver.SolveStatus.INDETERMINATE, (), ("open",))
        return real_solve(a, b, sigma)

    def lifted(*args):
        returned.append(real_lifted(*args))
        return returned[-1]

    monkeypatch.setattr(solver, "greedy_generators", lambda chain: real_greedy(chain) + [extra])
    monkeypatch.setattr(solver, "_solve_matched", solve)
    monkeypatch.setattr(solver, "_lifted_group", lifted)
    walked = automorphism_group(alg)
    assert returned == [None]
    assert "_unlisted" not in vars(walked)
    assert walked.elements == unpatched.elements
    assert [g.to_json() for g in walked.generators] == [g.to_json() for g in unpatched.generators]
    assert walked.complete == unpatched.complete is True
