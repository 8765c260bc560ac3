"""Solver gateway: script construction, subprocess protocol and numeric
fallback."""

import itertools
import math
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mathmorph import minisolver, solver
from mathmorph.funcs import Num, eval_constraint
from mathmorph.parser import parse
from mathmorph.solver import (SolverConfig, SolverError, build_script,
                              parse_reply, solve)
from conftest import load_problem, read_fixture


def test_build_script_emits_guards_and_goal():
    script = build_script(load_problem("m1.smt2"))
    assert "(declare-fun a () Int)" in script
    assert "(assert (>= a 1))" in script
    assert script.rstrip().endswith("(exit)")
    assert "(get-value (a b c))" in script


def test_parse_reply_reads_model():
    status, model = parse_reply("sat\n((x 3) (y (/ 1 2)))\n")
    assert status == "sat"
    assert model["x"].value == 3
    assert model["y"].value == Fraction(1, 2)


@pytest.mark.parametrize("value, want, exact", [
    ("(- 3)", -3, True),
    ("(/ 1 3)", Fraction(1, 3), True),
    ("2.5", Fraction(5, 2), True),
    ("(/ 1.0 3.0)", Fraction(1, 3), True),
    ("(to_real 2)", 2, True),
    ("1.5e3", 1500, False),
])
def test_parse_reply_reads_the_value_forms_of_smt_solvers(value, want, exact):
    _, model = parse_reply(f"sat\n((x {value}))\n")
    assert (model["x"].value, model["x"].exact) == (want, exact)


def test_parse_reply_leaves_a_root_object_out_of_the_model():
    reply = "sat\n((x (root-obj (+ (^ x 2) (- 2)) 1)) (y 1))\n"
    assert parse_reply(reply)[1].keys() == {"y"}


@pytest.mark.parametrize("reply", [
    "sat\n((x (sqrt 2)))\n", "sat\n((x foo))\n", "sat\n((x (/ 1 0)))\n",
    "((x 1))\n", "sat\n((x 1)\n",
], ids=["unknown-head", "symbol", "zero-divisor", "no-status", "malformed"])
def test_parse_reply_refuses_what_it_cannot_read(reply):
    with pytest.raises(SolverError):
        parse_reply(reply)


def test_a_fraction_for_an_integer_makes_the_result_unknown():
    p = parse("(declare-fun x () Int)(check-sat)")
    r = solver._result(p, *parse_reply("sat\n((x (/ 5 2)))\n"), "smt")
    assert (r.status, r.model) == ("unknown", {})


GATEWAY = [sys.executable, "-m", "mathmorph.minisolver"]

CUBE = ("(declare-fun x () Real)(assert (= (^ x 3) 8))"
        "(assert (>= x 0))(assert (<= x 5))(check-sat)(get-value (x))")


@pytest.mark.parametrize("source, fallback, status, goals", [
    (read_fixture("sara.smt2"), True, "sat", [500]),
    (read_fixture("m1.smt2"), True, "sat", [8, 9, 10]),
    ("(declare-fun x () Int)(assert (> x 2))(assert (< x 3))"
     "(check-sat)(get-value (x))", True, "unsat", []),
    (CUBE, False, "unknown", []),
], ids=["sara", "m1", "unsat", "cube-no-fallback"])
def test_in_process_solve_matches_subprocess_solve(source, fallback, status,
                                                   goals):
    p = parse(source)
    fast = solve(p, SolverConfig(fallback_enabled=fallback))
    slow = solve(p, SolverConfig(command=GATEWAY, fallback_enabled=fallback))
    assert fast.status == slow.status == status
    assert fast.model == slow.model
    assert fast.goal_values == slow.goal_values
    assert [v.value for _, v in fast.goal_values] == goals


@pytest.mark.parametrize("command,provenance",
                         [(None, "exact"), (GATEWAY, "smt")],
                         ids=["in-process", "gateway"])
def test_summation_index_shadows_model_value(command, provenance):
    # the index i of the summation is bound: i = 10 outside must not
    # reach the body, so n = 10 + (1 + 2 + 3)
    p = parse("(declare-fun i () Int)(declare-fun n () Int)"
              "(assert (= i 10))(assert (= n (+ i (summation i 1 3 i))))"
              "(check-sat)(get-value (n))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "sat"
    assert r.provenance == provenance
    assert r.goal_values[0][1].value == 16


def test_goal_values_follow_get_value_order():
    r = solve(load_problem("m1.smt2"))
    assert [n for n, _ in r.goal_values] == ["a", "b", "c"]


def test_missing_solver_binary_raises():
    with pytest.raises(SolverError):
        solve(load_problem("sara.smt2"),
              SolverConfig(command=["/nonexistent/solver"]))


def test_dead_solver_reports_exit_code_and_stderr_then_respawns():
    dying = [sys.executable, "-c",
             "import sys; sys.stderr.write('boom'); sys.exit(3)"]
    with pytest.raises(SolverError) as info:
        solve(load_problem("sara.smt2"), SolverConfig(command=dying))
    assert "code 3" in str(info.value) and "boom" in str(info.value)
    assert (info.value.returncode, info.value.stderr) == (3, "boom")
    assert not any(cmd == tuple(dying) for _, cmd in solver._SOLVERS)
    r = solve(load_problem("sara.smt2"), SolverConfig(command=GATEWAY))
    assert r.status == "sat"


@pytest.fixture
def spawned(monkeypatch):
    """Every process started through ``subprocess.Popen`` in the test."""
    procs = []

    def recording_popen(*args, real=subprocess.Popen, **kwargs):
        procs.append(real(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return procs


def test_gateway_keeps_one_process_per_command(spawned):
    # a command of its own, so no earlier test has started its process
    cmd = [sys.executable, "-B", "-m", "mathmorph.minisolver"]
    for name in ("sara.smt2", "m1.smt2", "sara.smt2"):
        p = load_problem(name)
        r = solve(p, SolverConfig(command=cmd))
        assert r.goal_values == solve(p).goal_values
    [proc] = spawned
    assert proc.poll() is None


def test_gateway_timeout_kills_and_reaps_the_solver(spawned):
    hung = [sys.executable, "-c",
            "import sys, time; sys.stdin.readline(); time.sleep(60)"]
    start = time.monotonic()
    r = solve(load_problem("sara.smt2"),
              SolverConfig(command=hung, timeout_ms=300,
                           fallback_enabled=False))
    assert r.status == "timeout"
    assert time.monotonic() - start < 5
    [proc] = spawned
    assert proc.returncode == -signal.SIGKILL
    assert proc.stdin.closed and proc.stdout.closed and proc.stderr.closed


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("sort, atom, status", [
    ("Int", "(= (/ 0 a) 5)", "unsat"), ("Int", "(= (/ 0 a) 0)", "sat"),
    ("Int", "(= (/ 6 a) 0)", "unsat"), ("Real", "(= (/ 1 a) 0)", "unsat")],
    ids=["5-unsat", "0-sat", "6/a=0-unsat", "1/a=0-real-unsat"])
def test_zero_over_an_unknown_meets_only_zero(sort, atom, status, command):
    # 0 / a is 0 wherever it is defined, so no a gives 5, and k / a with
    # k != 0 is never 0
    p = parse(f"(declare-fun a () {sort})(assert {atom})"
              "(check-sat)(get-value (a))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == status
    assert status == "unsat" or r.model["a"].value != 0


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
def test_zero_to_a_negative_power_is_unknown(command):
    cfg = SolverConfig(command=command, fallback_enabled=False)
    for value in ("(^ 0 -1)", "(/ 1 0)"):
        p = parse(f"(declare-fun x () Real)(assert (= x {value}))"
                  "(check-sat)(get-value (x))")
        assert solve(p, cfg).status == "unknown"


def test_numeric_fallback_solves_nonlinear_real(monkeypatch):
    # x^3 = 8 defeats the exact stages; the root step finds x = 2 on its
    # grid, inside the one pass of the bundled solver
    built = []
    init = minisolver.ExactSolver.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(minisolver.ExactSolver, "__init__", counting)
    r = solve(parse(CUBE))
    assert r.status == "sat"
    assert r.provenance == "numeric-fallback"
    assert abs(float(r.goal_values[0][1].value) - 2.0) < 1e-3
    assert built == ["RootSolver"]


# z * z = -1 - x has no real root at any of the 1,000 leaves: the root
# step's search runs until the node budget stops it, about a quarter of a
# second.  The exact stages alone take a fifth of that, and with a second
# integer they too run until the node budget stops them.
NO_REAL_ROOT = ("(declare-fun x () Int)(declare-fun z () Real)"
                "(assert (>= x 0))(assert (<= x 999))"
                "(assert (= (* z z) (- 0 1 x)))(check-sat)(get-value (x))")
NO_REAL_ROOT_2 = ("(declare-fun x () Int)(declare-fun y () Int)"
                  "(declare-fun z () Real)(assert (>= x 0))"
                  "(assert (<= x 999))(assert (>= y 0))(assert (<= y 999))"
                  "(assert (= (* z z) (- 0 1 x y)))(check-sat)")


@pytest.mark.parametrize("script, fallback",
                         [(NO_REAL_ROOT, True), (NO_REAL_ROOT_2, False)],
                         ids=["fallback", "no-fallback"])
def test_in_process_solve_keeps_to_its_timeout(script, fallback):
    start = time.monotonic()
    r = solve(parse(script),
              SolverConfig(timeout_ms=100, fallback_enabled=fallback))
    assert r.status == "timeout" and r.model == {}
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("negated", [
    "(not (and (> x 0) (< x 1)))",
    "(=> (and (> x 0) (< x 10)) (> x 1))",
], ids=["not-and", "implies-and"])
def test_the_fallback_reads_a_negated_connective(negated, command):
    # x * x = 2 leaves the problem to the fallback, which splits the
    # negated connective into branches and finds a root of x * x - 2 in
    # one of them
    p = parse(f"(declare-fun x () Real)(assert (= (* x x) 2))"
              f"(assert {negated})(check-sat)(get-value (x))")
    r = solve(p, SolverConfig(command=command))
    assert r.status == "sat" and r.provenance == "numeric-fallback"
    assert abs(float(r.model["x"].value) ** 2 - 2) < 1e-6


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("script", [
    "(declare-fun x () Real)(assert (>= x 3))(minimize x)",
    "(declare-fun x () Int)(assert (>= x 3))(assert (<= x 10))(maximize x)",
], ids=["minimize-real", "maximize-int"])
def test_an_optimization_goal_never_takes_the_fallback(script, command):
    # the root step finds a feasible point, not the optimum
    r = solve(parse(script), SolverConfig(command=command))
    assert r.status == "unknown" and r.model == {}


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
def test_the_root_step_bisects_a_transcendental_equation(command):
    # exp x - 5 changes sign between two grid points of the box [-2, 2]
    p = parse("(declare-fun x () Real)(assert (= (exp x) 5))"
              "(check-sat)(get-value (x))")
    r = solve(p, SolverConfig(command=command))
    assert r.status == "sat" and r.provenance == "numeric-fallback"
    [(_, x)] = r.goal_values
    assert not x.exact
    assert abs(x.value - Fraction(math.log(5))) < Fraction(1, 10 ** 9)


def test_a_pole_is_not_taken_for_a_root():
    # 1/x^3 changes sign at x = 0, where it is undefined, and nowhere
    # equals 0; with x in both factors, no inversion refutes it
    p = parse("(declare-fun x () Real)(assert (= (/ 1 (* x x x)) 0))"
              "(check-sat)(get-value (x))")
    assert solve(p).status == "unknown"


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("asserts, x", [
    ("(assert (> x 1))(assert (< (* x x) 2))", Fraction(65, 64)),
    # the real stage's midpoint 1/200 is excluded, and so are its bumps
    ("(assert (> x 0))(assert (< x (/ 1 100)))"
     "(assert (distinct x (/ 1 200)))", Fraction(1, 6400)),
], ids=["x>1", "0<x<1/100"])
def test_the_root_step_keeps_a_strict_bound(asserts, x, command):
    # with no equality the root step tries the box's grid from the end a
    # strict bound gives, and judges each point as the exact value it is
    p = parse(f"(declare-fun x () Real){asserts}(check-sat)(get-value (x))")
    assert solve(p, SolverConfig(command=command,
                                 fallback_enabled=False)).status == "unknown"
    r = solve(p, SolverConfig(command=command))
    assert r.status == "sat" and r.provenance == "numeric-fallback"
    assert r.model["x"] == Num(x)
    assert all(eval_constraint(c, r.model) for c in p.constraints)


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
def test_an_inexact_value_never_refutes_a_leaf(command):
    # y = sqrt 2 is pinned inexact, and z + y*y <= 2 holds at z = 0 only
    # by y's slack; read as an exact rational it excludes z >= 0
    p = parse("(declare-fun k () Int)(declare-fun y () Real)"
              "(declare-fun z () Real)(assert (= y (sqrt 2)))"
              "(assert (>= k 1))(assert (<= k 1))"
              "(assert (<= (+ z (* y y)) 2))(assert (>= z 0))"
              "(check-sat)(get-value (k y z))")
    assert minisolver.solve_exact(p)[0] == "unknown"
    for fallback in (False, True):
        r = solve(p, SolverConfig(command=command, fallback_enabled=fallback))
        assert r.status != "unsat"
        assert r.status != "sat" or all(eval_constraint(c, r.model)
                                        for c in p.constraints)


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("script", [
    "(declare-fun x () Int)(declare-fun y () Int)"
    "(assert (= (+ (* 2 x) (* 4 y)) 3))",
    "(declare-fun x () Int)(declare-fun y () Int)"
    "(assert (= (+ x y) (/ 1 2)))",
    "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
    "(assert (= y (* 3 x)))(assert (= y (+ (* 3 z) 1)))",
    "(declare-fun x () Int)(declare-fun y () Int)(declare-fun r () Real)"
    "(assert (= (+ x r) (/ 1 2)))(assert (= r (* 2 y)))",
    # a nonlinear atom beside the system does not block the refutation
    "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Real)"
    "(assert (= (+ (* 2 x) (* 4 y)) 3))(assert (= (* z z) 2))",
], ids=["gcd", "half", "system", "real-then-int", "beside-nonlinear"])
def test_linear_equalities_with_no_integer_point_are_unsat(script, command):
    p = parse(script + "(check-sat)")
    for fallback in (False, True):
        r = solve(p, SolverConfig(command=command, fallback_enabled=fallback))
        assert r.status == "unsat"


def test_the_root_step_runs_in_each_branch():
    # x * x = -1 has no root; the second branch has the root x = 2
    p = parse("(declare-fun x () Real)"
              "(assert (or (= (* x x) -1) (= (* x x x) 8)))"
              "(check-sat)(get-value (x))")
    r = solve(p)
    assert r.status == "sat" and r.model["x"].value == 2


def test_two_real_unknowns_are_left_unknown_at_once():
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              "(assert (= (* x y) 6))(check-sat)(get-value (x))")
    start = time.monotonic()
    assert solve(p).status == "unknown"
    assert time.monotonic() - start < 1


RELATIONS = ("=", "distinct", "<", "<=", ">", ">=")


def _connective_problem(rng):
    """Up to three variables in 0..4 and one constraint: comparisons
    joined by and/or/not/=>/ite up to depth 3, so that the constraint's
    disjunctive normal form stays within the solver's branch cap."""
    names = ["a", "b", "c"][:rng.randint(1, 3)]

    def atom():
        lhs = rng.choice(names)
        if rng.random() < 0.4:
            lhs = f"(+ {lhs} {rng.choice(names)})"
        rhs = rng.choice(names) if rng.random() < 0.3 \
            else str(rng.randint(0, 6))
        return f"({rng.choice(RELATIONS)} {lhs} {rhs})"

    def formula(depth):
        op = rng.choice(("and", "or", "not", "=>", "ite", "atom")) \
            if depth else "atom"
        if op == "atom":
            return atom()
        args = [formula(depth - 1)
                for _ in range({"not": 1, "ite": 3}.get(op, 2))]
        return f"({op} {' '.join(args)})"

    text = "".join(f"(declare-fun {v} () Int)(assert (>= {v} 0))"
                   f"(assert (<= {v} 4))" for v in names)
    return parse(f"{text}(assert {formula(3)})(check-sat)"), names


def test_connectives_agree_with_brute_force():
    for seed in range(200):
        p, names = _connective_problem(random.Random(seed))
        feasible = any(
            all(eval_constraint(c, dict(zip(names, map(Fraction, point))))
                for c in p.constraints)
            for point in itertools.product(range(5), repeat=len(names)))
        for command in (None, GATEWAY):
            r = solve(p, SolverConfig(command=command,
                                      fallback_enabled=False))
            assert r.status == ("sat" if feasible else "unsat"), seed
            if feasible:
                model = {n: v.value for n, v in r.model.items()}
                assert all(eval_constraint(c, model)
                           for c in p.constraints), seed


def test_fallback_disabled_reports_unknown():
    p = parse("(declare-fun x () Real)(assert (= (^ x 3) 8))"
              "(assert (>= x 0))(assert (<= x 5))(check-sat)(get-value (x))")
    r = solve(p, SolverConfig(fallback_enabled=False))
    assert r.status == "unknown"


def test_solver_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SolverConfig(timeout_ms=0)


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("asserts", [
    "(assert (= n (* y y)))",
    "(declare-fun w () Int)(assert (= (+ n w) (* y y)))"
    "(assert (= (- n w) 2))",
    # once y and n are pinned, n = y·y has no unknown left, and linear
    # pinning must not refute it for the slack of y
    "(declare-fun w () Int)(assert (>= w 1))(assert (= n (* y y)))",
], ids=["propagated", "linear-pinned", "beside-an-unknown"])
def test_an_integer_forced_from_an_inexact_value_rounds(asserts, command):
    # y * y is 2 only within the precision of sqrt 2, so the integer n it
    # forces is inexact and rounds to 2 within APPROX_TOL instead of being
    # refuted as a fraction
    p = parse("(declare-fun y () Real)(declare-fun n () Int)"
              f"(assert (= y (sqrt 2))){asserts}(check-sat)(get-value (n))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "sat" and r.answer.value == 2
    # over stdio every value comes back as the exact rational printed
    assert r.answer.exact == (command is not None)


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("asserts", [
    "(assert (= (+ a b) y))(assert (= (- a b) 0))"
    "(assert (= (+ n m) (/ 1000000000001 1000000000000)))"
    "(assert (= (- n m) 1))",
    "(assert (= (+ m a) y))"
    "(assert (= (+ n m) (/ 1000000000001 1000000000000)))"
    "(assert (= (- n m) 1))",
], ids=["apart", "linked"])
def test_a_value_that_reads_no_inexact_value_stays_exact(asserts, command):
    # only a (and b) depend on y, which is inexact; n = 1 + 5e-13 depends
    # on exact constants alone, even where an equality links m to a, so it
    # is refuted, not rounded to 1
    p = parse("(declare-fun y () Real)(declare-fun a () Real)"
              "(declare-fun b () Real)(declare-fun n () Int)"
              f"(declare-fun m () Int)(assert (= y (sqrt 2))){asserts}"
              "(check-sat)(get-value (n))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "unsat"
