"""Bundled exact solver: propagation, integer search, real arithmetic,
and the stdio protocol."""

import random
import subprocess
import sys
from fractions import Fraction

from mathmorph.minisolver import solve_exact
from mathmorph.parser import parse
from conftest import load_problem, random_seed_problem, read_fixture


def run(p):
    status, model = solve_exact(p)
    return status, {n: v.value for n, v in model.items()}


def test_propagation_chain():
    status, model = run(load_problem("sara.smt2"))
    assert status == "sat"
    assert model["rachel_budget"] == 500


def test_integer_search_finds_unique_triple():
    status, model = run(load_problem("m1.smt2"))
    assert status == "sat"
    assert (model["a"], model["b"], model["c"]) == (8, 9, 10)


def test_unsat_contradiction():
    p = parse("(declare-fun x () Int)(assert (= x 1))"
              "(assert (= x 2))(check-sat)")
    assert run(p)[0] == "unsat"


def test_strict_bounds_get_midpoint_witness():
    p = parse("(declare-fun x () Real)(assert (> x 0))"
              "(assert (<= x 1))(check-sat)(get-value (x))")
    status, model = run(p)
    assert status == "sat"
    assert Fraction(0) < model["x"] <= 1


def test_equality_inversion_through_division():
    # 1/z = 4 has no linear form in z; structural inversion must solve it
    p = parse("(declare-fun z () Real)(assert (= (/ 1 z) 4))"
              "(check-sat)(get-value (z))")
    status, model = run(p)
    assert status == "sat"
    assert model["z"] == Fraction(1, 4)


def test_equality_inversion_through_subtraction():
    p = parse("(declare-fun z () Int)(assert (= (- 10 z) 3))"
              "(check-sat)(get-value (z))")
    status, model = run(p)
    assert status == "sat"
    assert model["z"] == 7


def test_linear_system_pinned_by_elimination():
    # unbounded integers, solvable only by linear elimination
    p = parse("(declare-fun x () Int)(declare-fun y () Int)"
              "(assert (= (+ x y) 1794))(assert (= (- x y) -1852))"
              "(check-sat)(get-value (x y))")
    status, model = run(p)
    assert status == "sat"
    assert (model["x"], model["y"]) == (-29, 1823)


def test_linear_system_unsat_by_elimination():
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              "(assert (= (+ x y) 1))(assert (= (+ x y) 2))(check-sat)")
    assert run(p)[0] == "unsat"


def test_disjunction_branches():
    p = parse("(declare-fun x () Int)"
              "(assert (or (= x 5) (= x -5)))(assert (> x 0))"
              "(check-sat)(get-value (x))")
    status, model = run(p)
    assert status == "sat"
    assert model["x"] == 5


def test_gave_up_never_claims_unsat():
    # satisfiable but with an unenumerable nonlinear search space; the
    # solver may answer unknown, never unsat
    p = parse("(declare-fun x () Int)(declare-fun y () Int)"
              "(assert (= (* x y) 1000003))(check-sat)")
    assert run(p)[0] in ("sat", "unknown")


def test_min_goal_without_pinned_model_is_not_sat_claimed():
    p = parse("(declare-fun x () Int)(assert (> x 0))"
              "(check-sat)(minimize x)")
    assert run(p)[0] in ("sat", "unknown")


def test_random_chain_problems_all_solved():
    rng = random.Random(20240823)
    for _ in range(25):
        assert run(random_seed_problem(rng))[0] == "sat"


def test_solver_is_deterministic():
    p = load_problem("m1.smt2")
    assert run(p) == run(p)


MINISOLVER = [sys.executable, "-m", "mathmorph.minisolver"]


def stdio(script):
    proc = subprocess.run(MINISOLVER, input=script, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    return proc.stdout


def test_stdio_protocol_round_trip():
    out = stdio(read_fixture("sara.smt2") + "(exit)\n")
    assert out.startswith("sat\n")
    assert "((rachel_budget 500))" in out


def test_one_session_answers_reset_separated_scripts_like_fresh_ones():
    # the subprocess gateway keeps one solver process alive and frames
    # each question by (reset) and an (echo) of a sentinel
    scripts = [read_fixture("sara.smt2"), read_fixture("m1.smt2"),
               "(declare-fun x () Int)(assert (> x 2))(assert (< x 3))"
               "(check-sat)(get-value (x))\n"]
    fresh = [stdio(s) for s in scripts]
    session = stdio("".join(f'(reset)\n{s}(echo "x")\n' for s in scripts))
    replies = session.split('"x"\n')
    assert replies == fresh + [""]
    assert [r.split("\n")[0] for r in fresh] == ["sat", "sat", "unsat"]
