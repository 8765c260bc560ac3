"""Solver gateway: script construction, subprocess protocol, numeric
fallback, and projected equivalence checking."""

import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mathmorph import solver
from mathmorph.ast import ValidationError
from mathmorph.parser import parse
from mathmorph.solver import (SolverConfig, SolverError, build_script,
                              parse_reply, solve, verify_equivalence)
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


@pytest.mark.parametrize("command", [None, GATEWAY],
                         ids=["in-process", "gateway"])
def test_summation_index_shadows_model_value(command):
    # the index i of the summation is bound: i = 10 outside must not
    # reach the body, so n = 10 + (1 + 2 + 3)
    p = parse("(declare-fun i () Int)(declare-fun n () Int)"
              "(assert (= i 10))(assert (= n (+ i (summation i 1 3 i))))"
              "(check-sat)(get-value (n))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "sat"
    assert r.provenance == "smt"
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
def test_zero_to_a_negative_power_is_unknown(command):
    cfg = SolverConfig(command=command, fallback_enabled=False)
    for value in ("(^ 0 -1)", "(/ 1 0)"):
        p = parse(f"(declare-fun x () Real)(assert (= x {value}))"
                  "(check-sat)(get-value (x))")
        assert solve(p, cfg).status == "unknown"


def test_numeric_fallback_solves_nonlinear_real():
    # x^3 = 8 defeats the exact stages; differential evolution finds x=2
    p = parse("(declare-fun x () Real)(assert (= (^ x 3) 8))"
              "(assert (>= x 0))(assert (<= x 5))(check-sat)(get-value (x))")
    r = solve(p)
    assert r.status == "sat"
    assert r.provenance == "numeric-fallback"
    assert abs(float(r.goal_values[0][1].value) - 2.0) < 1e-3


def test_fallback_disabled_reports_unknown():
    p = parse("(declare-fun x () Real)(assert (= (^ x 3) 8))"
              "(assert (>= x 0))(assert (<= x 5))(check-sat)(get-value (x))")
    r = solve(p, SolverConfig(fallback_enabled=False))
    assert r.status == "unknown"


def test_verify_equivalence_accepts_renamed_private_variable():
    a = parse("(declare-fun x () Real)(declare-fun t () Real)"
              "(assert (= t 3))(assert (= x (* 2 t)))"
              "(check-sat)(get-value (x))")
    b = parse("(declare-fun x () Real)(declare-fun u () Real)"
              "(assert (= u 6))(assert (= x u))(check-sat)(get-value (x))")
    assert verify_equivalence(a, b, {"x"}).verdict == "equivalent"


def test_verify_equivalence_flags_different_solutions():
    a = parse("(declare-fun x () Real)(assert (= x 6))(check-sat)")
    b = parse("(declare-fun x () Real)(assert (= x 7))(check-sat)")
    v = verify_equivalence(a, b, {"x"})
    assert v.verdict == "counterexample"
    assert v.counterexample["x"].value in (6, 7)


def test_verify_equivalence_keeps_integrality_of_private_variables():
    # x = 2t and x = 2u + 1 over Int share no x; eliminating u by
    # u = (x - 1)/2 would forget that u is an integer
    a = parse("(declare-fun x () Int)(declare-fun t () Int)"
              "(assert (= x (* 2 t)))(check-sat)")
    b = parse("(declare-fun x () Int)(declare-fun u () Int)"
              "(assert (= x (+ (* 2 u) 1)))(check-sat)")
    assert verify_equivalence(a, b, {"x"}).verdict == "unknown"
    assert verify_equivalence(b, a, {"x"}).verdict == "unknown"
    # an integral definition still projects
    c = parse("(declare-fun x () Int)(declare-fun t () Int)"
              "(assert (= t 2))(assert (= x (+ t 1)))(check-sat)")
    d = parse("(declare-fun x () Int)(assert (= x 3))(check-sat)")
    assert verify_equivalence(c, d, {"x"}).verdict == "equivalent"


def test_verify_equivalence_requires_shared_declared():
    a = parse("(declare-fun x () Real)(assert (= x 1))(check-sat)")
    with pytest.raises(ValidationError):
        verify_equivalence(a, a, {"ghost"})


def test_solver_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SolverConfig(timeout_ms=0)
