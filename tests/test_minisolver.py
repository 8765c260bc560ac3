"""Bundled exact solver: propagation, integer search, real arithmetic,
and the stdio protocol."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mathmorph import minisolver
from mathmorph.ast import BinOp, Compare, Const, Domain, Problem, Var
from mathmorph.complicate import mutate_to_level
from mathmorph.funcs import Num, eval_constraint
from mathmorph.minisolver import DEFAULT_NODE_BUDGET, ExactSolver, solve_exact
from mathmorph.parser import MAX_DEPTH, parse
from mathmorph.solver import SolverConfig, solve
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


def test_an_atom_false_whatever_its_unknown_is_unsat():
    # x - x compiles to 0*x + 0, so x > x empties x's range, which no
    # bound could make finite
    p = parse("(declare-fun x () Int)(assert (> x x))(check-sat)")
    assert solve_exact(p) == ("unsat", {})


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


REALS = "(declare-fun x () Real)(declare-fun y () Real)"


@pytest.mark.parametrize("script", [
    "(assert false)",
    REALS + "(assert (> x 1))(assert (< x 0))",
    REALS + "(assert (>= x 1))(assert (< x 1))",
    # elimination turns x + y into 2, so the disequality reads 2 != 2
    REALS + "(assert (= (+ x y) 2))(assert (distinct (+ x y) 2))",
    # propagation pins x, and y is left to the real stage
    REALS + "(assert (= x 1))(assert (distinct x 1))",
], ids=["false", "x>1,x<0", "x>=1,x<1", "eliminated", "constant-diseq"])
def test_the_real_stage_refutes(script):
    assert run(parse(script + "(check-sat)")) == ("unsat", {})


@pytest.mark.parametrize("script, x", [
    ("(assert (>= x 2))(assert (<= x 2))", 2),
    ("(assert (<= x 5))", 5),
    # a true atom beside them reads as no bound
    ("(assert true)(assert (<= x 5))", 5),
])
def test_the_real_stage_takes_a_closed_bound(script, x):
    p = parse("(declare-fun x () Real)" + script + "(check-sat)")
    assert run(p) == ("sat", {"x": x})


def test_a_dnf_past_its_cap_is_unknown():
    # nine two-way disjunctions make 512 branches, past the cap of 256
    ors = "".join(f"(assert (or (= x {i}) (= x {-i})))" for i in range(1, 10))
    assert run(parse("(declare-fun x () Int)" + ors + "(check-sat)")) \
        == ("unknown", {})


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


def test_string_literals_do_not_split_commands():
    # a ';' or a parenthesis inside a string literal neither starts a
    # comment nor opens a command
    script = ('(echo "a;b")\n' + read_fixture("sara.smt2")
              + '(echo "done (really)")\n')
    out = stdio(script).splitlines()
    assert out[0] == '"a;b"'
    assert out[1] == "sat"
    assert "(rachel_budget 500)" in out[2]
    assert out[3:] == ['"done (really)"']


def test_a_bare_atom_is_answered_with_an_error_and_reading_goes_on():
    out = stdio("foo\n" + read_fixture("sara.smt2")).splitlines()
    assert out == ['(error "not a command: foo")', "sat",
                   "((rachel_budget 500))"]


def test_a_bad_command_is_answered_at_each_check_sat_until_reset():
    good = read_fixture("sara.smt2")
    out = stdio("(declare-fun x () Int)(assert (> y 0))(assert (> x 0))\n"
                "(check-sat)\n(check-sat)\n(reset)\n" + good).splitlines()
    assert out[0].startswith('(error "undeclared variable: y')
    assert out[1:4] == ["unknown", out[0], "unknown"]
    assert out[4:] == stdio(good).splitlines()


def test_get_value_of_a_compound_term_and_of_a_macro_use():
    out = stdio("(declare-fun x () Int)"
                "(define-fun twice ((a Int)) Int (* 2 a))"
                "(assert (= x 3))(check-sat)(get-value ((+ x 1) (twice x)))")
    assert out == "sat\n(((+ x 1) 4) ((* 2 x) 6))\n"


def test_deep_input_is_an_error_and_reading_goes_on():
    deep = "(+ 1 " * 3000 + "x" + ")" * 3000
    out = stdio(f"(declare-fun x () Int)(assert (= x {deep}))(check-sat)\n"
                '(echo "a")\n'
                "(reset)(declare-fun x () Int)(assert (= x 1))(check-sat)\n"
                f"(get-value ({deep}))\n" + '(echo "b")\n')
    too_deep = f'(error "nested deeper than {2 * MAX_DEPTH} levels")'
    assert out.splitlines() == [too_deep, "unknown", '"a"',
                                "sat", too_deep, '"b"']


def test_a_deep_echo_prints_and_reading_goes_on():
    deep = "(a " * 3000 + "b" + ")" * 3000
    out = stdio(f"(echo {deep})\n" + '(echo "ok")\n')
    assert out.splitlines() == [deep, '"ok"']


@pytest.mark.parametrize("head, line", [
    ("(declare-fun x () Int)\n(assert (> x 0))\n", 3),
    ('(echo "a\n\nb")(declare-fun x () Int)\n', 4),
], ids=["three-lines", "after-a-literal"])
def test_an_error_position_counts_lines_from_the_start_of_input(head, line):
    out = stdio(head + "(assert (> y x))(check-sat)\n")
    assert out.splitlines()[-2:] == [
        f'(error "undeclared variable: y (line {line}, column 12)")',
        "unknown"]


@pytest.mark.parametrize("constraint", [
    "(exists ((y Int)) (= x (* 2 y)))",
    "(not (forall ((y Int)) (distinct x (* 2 y))))",
    "(or (< x 0) (exists ((y Int)) (= x (* 2 y))))",
], ids=["top", "under-not", "under-or"])
def test_a_quantifier_anywhere_in_a_constraint_is_unknown(constraint):
    script = ("(declare-fun x () Int)(assert (= x 4))"
              f"(assert {constraint})(check-sat)")
    assert run(parse(script)) == ("unknown", {})
    assert stdio(script) == "unknown\n"


@pytest.mark.parametrize("command", [None, MINISOLVER],
                         ids=["in-process", "gateway"])
def test_a_disequality_at_the_chosen_real_point_steps_off_it(command):
    # the real stage picks the midpoint 1 of [0, 2], which the
    # disequality refutes, and then tries 1 + 1/7
    p = parse("(declare-fun x () Real)(assert (>= x 0))(assert (<= x 2))"
              "(assert (distinct x 1))(check-sat)(get-value (x))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "sat"
    assert r.model["x"].value == Fraction(8, 7)


def test_an_equality_left_with_one_unknown_bounds_it_from_both_sides():
    # propagation skips the equality, since 0*c still names c; once a is
    # assigned, the folded atom reads 3b = 24 and pins b to 8
    p = parse("(declare-fun a () Int)(declare-fun b () Int)"
              "(declare-fun c () Int)(assert (>= a 0))(assert (>= b 0))"
              "(assert (>= c 0))"
              "(assert (= (+ (* 0 c) (* 2 a) (* 3 b)) 26))(check-sat)")
    solver = ExactSolver(p)
    assert solver._int_bounds("b", {"a": Num(Fraction(1))}) \
        == (8, 8, True, 0)


def test_a_side_over_its_target_at_the_lower_bound_empties_the_range():
    # v·w + 7 is already 8 > 3 at v = w = 1, so no value of v fits
    p = parse("(declare-fun v () Int)(declare-fun w () Int)"
              "(assert (>= v 1))(assert (>= w 1))"
              "(assert (= (+ (* v w) 7) 3))(check-sat)")
    solver = ExactSolver(p)
    assert solver.solve() == ("unsat", {})
    assert solver.nodes == 0


def _divisor_problem(rng):
    """``v·E = k`` over small Int and NAT boxes, with ``E`` integer-valued
    or not, ``k`` of either sign or 0, and a second atom that moves the
    first solution; returns the problem and its box per variable."""
    boxes, text = {}, ""
    for n in ("v", "w", "u"):
        lo = 0 if rng.random() < 0.4 else rng.randint(-8, 2)
        boxes[n] = range(lo, lo + rng.randint(2, 10) + 1)
        text += (f"(declare-fun {n} () Int)(assert (>= {n} {lo}))"
                 f"(assert (<= {n} {boxes[n][-1]}))")
    e = rng.choice(("w", "(+ w u)", "(- w 3)", "(* 2 w)", "(- u w)",
                    "(+ (* w u) 1)", "(/ w 2)"))
    product = rng.choice((f"(* v {e})", f"(* {e} v)", f"(* v {e} 2)"))
    k = rng.randint(-24, 24)
    eq = f"(= {product} {k})" if rng.random() < 0.7 \
        else f"(= {k} {product})"
    other = rng.choice(("(> (+ v w u) 2)", "(distinct v w)", "(< u v)",
                        "(>= (- v u) 1)"))
    return parse(f"{text}(assert {eq})(assert {other})(check-sat)"), boxes


def _solved(p, monkeypatch, divisors):
    """``(answer, nodes)`` with the divisor filter on or off."""
    with monkeypatch.context() as mp:
        if not divisors:
            mp.setattr(minisolver, "_dividend", lambda side: None)
        solver = ExactSolver(p)
        return solver.solve(), solver.nodes


def test_the_divisor_filter_never_drops_a_solution(monkeypatch):
    filtered = 0
    for seed in range(60):
        p, boxes = _divisor_problem(random.Random(seed))
        (status, model), nodes = _solved(p, monkeypatch, True)
        off, off_nodes = _solved(p, monkeypatch, False)
        assert (status, model) == off, seed
        assert nodes <= off_nodes, seed
        filtered += nodes < off_nodes
        # brute force, in the search's order: declaration order, each
        # variable ascending
        names = list(boxes)
        first = next((point for point in itertools.product(
            *(boxes[n] for n in names))
            if all(eval_constraint(c, dict(zip(names, map(Fraction, point))))
                   for c in p.constraints)), None)
        if first is None:
            assert status == "unsat", seed
        else:
            assert status == "sat", seed
            assert tuple(model[n].value for n in names) == first, seed
    assert filtered >= 20


def test_the_divisor_filter_reads_no_real_factor():
    # v·x = 6 holds at v = 4 with x = 3/2, a value that v | 6 would skip
    p = parse("(declare-fun v () Int)(declare-fun x () Real)"
              "(assert (> v 3))(assert (< v 9))(assert (= (* v x) 6))"
              "(check-sat)")
    status, model = solve_exact(p)
    assert status == "sat"
    assert (model["v"].value, model["x"].value) == (4, Fraction(3, 2))


def test_the_divisor_filter_reads_no_quotient():
    # v·(w/2) = 3 holds at v = 2 with w = 3, a value that v | 3 would skip
    # if w/2 were read as integer-valued; v is branched first
    p = parse("(declare-fun v () Int)(declare-fun w () Int)"
              "(assert (> v 1))(assert (< v 9))(assert (>= w 0))"
              "(assert (<= w 9))(assert (= (* v (/ w 2)) 3))(check-sat)")
    status, model = solve_exact(p)
    assert status == "sat"
    assert (model["v"].value, model["w"].value) == (2, 3)


def test_the_divisor_filter_reads_no_inexact_constant(monkeypatch):
    # 3n is 6 in both problems, but n = y·y is only 2 within the
    # precision of sqrt 2, so only the exact 6 may skip v = 4 and v = 5
    def problem(n_is):
        return parse("(declare-fun y () Real)(declare-fun n () Int)"
                     "(declare-fun v () Int)(declare-fun w () Int)"
                     "(assert (>= v 1))(assert (>= w 1))"
                     f"(assert (= n {n_is}))(assert (= y (sqrt 2)))"
                     "(assert (= (* v w) (* 3 n)))(assert (> v 3))"
                     "(check-sat)")
    for n_is, exact in (("(* y y)", False), ("2", True)):
        (status, model), nodes = _solved(problem(n_is), monkeypatch, True)
        off, off_nodes = _solved(problem(n_is), monkeypatch, False)
        assert (status, model) == off
        assert (model["v"].value, model["w"].value) == (6, 1)
        assert (nodes < off_nodes) == exact


@pytest.mark.parametrize("nonlinear", ["(> (* z z) 1)", "(> (/ x z) 1)"])
def test_an_unknown_leaf_blocks_unsat(nonlinear):
    # every leaf leaves a nonlinear real part to the real stage, which
    # answers unknown; both problems are satisfiable, so the exhaustive
    # search over x may not claim unsat, and solve() goes on to the
    # numeric fallback
    p = parse("(declare-fun x () Int)(declare-fun z () Real)"
              f"(assert (>= x 1))(assert (<= x 3))(assert {nonlinear})"
              "(check-sat)(get-value (x))")
    assert run(p)[0] == "unknown"
    assert solve(p).status == "sat"


# w is pinned by an equality once the integers are assigned; z is not
NO_PIN_DIVISOR = ("(declare-fun a () Int)(declare-fun b () Int)"
                  "(declare-fun c () Int)(declare-fun d () Int)"
                  "(declare-fun w () Real)(declare-fun z () Real)"
                  "(assert (>= a 1))(assert (>= b 1))(assert (>= c 1))"
                  "(assert (>= d 1))(assert (= w (+ a b c d)))"
                  "(assert (distinct (/ w z) 2))")


def test_a_divisor_no_equality_can_pin_ends_the_search_at_once():
    # every leaf divides by z, which no leaf can assign, so the search
    # would probe 13^4 leaves without ever reaching sat
    solver = ExactSolver(parse(NO_PIN_DIVISOR + "(check-sat)"),
                         node_budget=5_000)
    assert solver.solve() == ("unknown", {})
    assert solver.nodes < 50
    assert solver.stopped_by == "cut"


def test_without_the_cut_the_same_search_burns_its_budget(monkeypatch):
    monkeypatch.setattr(ExactSolver, "_no_leaf_can_be_sat",
                        lambda self, model: False)
    solver = ExactSolver(parse(NO_PIN_DIVISOR + "(check-sat)"),
                         node_budget=300)
    assert solver.solve() == ("unknown", {})
    assert solver.nodes > 300
    assert solver.stopped_by == "budget"


@pytest.mark.parametrize("script", [
    # a later equality pins the divisor once a is assigned
    NO_PIN_DIVISOR + "(assert (= z (+ a 1)))",
    # the division sits under a product that folds to 0 at x = 2
    "(declare-fun x () Int)(declare-fun z () Real)(assert (>= x 0))"
    "(assert (> z 0))(assert (> (+ (* (- x 2) (/ 1 z)) x) 1))",
])
def test_the_cut_spares_a_divisor_that_a_leaf_can_remove(script):
    p = parse(script + "(check-sat)")
    solver = ExactSolver(p, node_budget=5_000)
    status, model = solver.solve()
    assert status == "sat"
    assert solver.stopped_by is None
    assert all(eval_constraint(c, model) for c in p.constraints)


# t >= 2 follows from the two equalities, but no bound is read off them,
# so the search probes t in [-500, -488] only; the equalities have an
# integer point (t = 2), so linear pinning does not refute them
WINDOW = ("(declare-fun t () Int)(declare-fun w_1 () Int)"
          "(declare-fun w_2 () Int)(assert (= (* 48 t) (+ 144 w_1)))"
          "(assert (= (- (* 2 w_2) w_1) 88))(assert (>= w_2 1))")


def test_an_unknown_from_the_probe_window_says_so():
    solver = ExactSolver(parse(WINDOW + "(check-sat)"))
    assert solver.solve() == ("unknown", {})
    assert (solver.nodes, solver.stopped_by) == (13, "window")
    # the first branch probes the same window, and the second is sat
    solver = ExactSolver(parse(WINDOW + "(assert (or (< t 0) (= t 2)))"
                               "(check-sat)"))
    assert solver.solve()[0] == "sat"
    assert (solver.nodes, solver.stopped_by) == (13, None)


@pytest.mark.parametrize("cls", [ExactSolver, minisolver.RootSolver])
def test_an_unknown_from_a_nonlinear_real_atom_says_so(cls):
    # no search runs, and no linear form reads the product of two reals;
    # with two real unknowns the root step does not apply either
    solver = cls(parse("(declare-fun x () Real)(declare-fun z () Real)"
                       "(assert (= (* (- x 50) z) 200.0))(check-sat)"))
    assert solver.solve() == ("unknown", {})
    assert (solver.nodes, solver.stopped_by) == (0, "nonlinear")


def disjunctions(n):
    """``n`` two-way disjunctions: 2**n branches, past _DNF_CAP = 256 from
    n = 9 on."""
    return "".join(f"(declare-fun x{i} () Int)(assert (or (= x{i} 0)"
                   f" (= x{i} 1)))" for i in range(n)) + "(check-sat)"


@pytest.mark.parametrize("cls", [ExactSolver, minisolver.RootSolver])
@pytest.mark.parametrize("script, reason", [
    ("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 5))(minimize x)",
     "goal"),
    (disjunctions(9), "dnf"),
    ("(declare-fun x () Int)(assert (forall ((k Int)) (>= (* k k) x)))"
     "(check-sat)", "dnf"),
    ("(declare-fun z () Complex)(assert (= z 1))(check-sat)", "complex"),
], ids=["goal", "dnf-cap", "dnf-quantifier", "complex"])
def test_an_unknown_before_any_search_says_why(cls, script, reason):
    solver = cls(parse(script))
    assert solver.solve() == ("unknown", {})
    assert (solver.nodes, solver.stopped_by) == (0, reason)


def test_a_goal_left_open_in_one_branch_gives_no_reason_to_a_sat_one():
    # the first branch leaves x open, the second pins it
    solver = ExactSolver(parse("(declare-fun x () Int)(assert (>= x 0))"
                               "(assert (or (< x 5) (= x 7)))(minimize x)"))
    assert solver.solve() == ("sat", {"x": Num(Fraction(7))})
    assert solver.stopped_by is None


def test_the_cap_itself_expands():
    solver = ExactSolver(parse(disjunctions(8)))
    assert solver.solve()[0] == "sat" and solver.stopped_by is None


@pytest.mark.parametrize("cls, status, stopped_by", [
    (ExactSolver, "unknown", "nonlinear"),
    (minisolver.RootSolver, "sat", None),
])
def test_a_sat_answer_from_the_root_step_gives_no_reason(cls, status,
                                                           stopped_by):
    solver = cls(parse("(declare-fun z () Real)(assert (= (* z z) 4))"
                       "(check-sat)"))
    assert solver.solve()[0] == status
    assert solver.stopped_by == stopped_by


@pytest.mark.parametrize("cls", [ExactSolver, minisolver.RootSolver])
def test_the_branches_of_a_disjunction_share_one_node_budget(cls):
    # no leaf of either branch can decide z * z = -k - x, so each branch
    # alone would spend the whole budget
    p = parse("(declare-fun x () Int)(declare-fun z () Real)"
              "(assert (>= x 0))(assert (<= x 999))"
              "(assert (or (= (* z z) (- 0 1 x)) (= (* z z) (- 0 2 x))))"
              "(check-sat)")
    solver = cls(p, node_budget=300)
    assert solver.solve() == ("unknown", {})
    assert 0 < solver.nodes <= 300 + minisolver.GRID
    assert solver.stopped_by == "budget"


@pytest.fixture(scope="module")
def mcmc_solves():
    """Every exact query of the criterion-5 mutations of 20 chain seeds,
    with its answer, node count and ``stopped_by``."""
    calls = []

    def recording(problem, node_budget=DEFAULT_NODE_BUDGET, timeout_s=None):
        solver = ExactSolver(problem, node_budget, timeout_s)
        answer = solver.solve()
        calls.append((problem, node_budget, answer, solver.nodes,
                      solver.stopped_by))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minisolver, "solve_exact", recording)
        for s in range(20):
            for level in (1, 2, 3):
                mutate_to_level(random_seed_problem(random.Random(1000 + s)),
                                level, random.Random(2000 + 10 * s + level))
    return calls


def test_the_cut_moves_no_answer_of_the_mcmc_solves(mcmc_solves,
                                                     monkeypatch):
    # solve every query again with the cut switched off
    assert sum(stop == "cut" for *_, stop in mcmc_solves) >= 10
    monkeypatch.setattr(ExactSolver, "_no_leaf_can_be_sat",
                        lambda self, model: False)
    for problem, node_budget, answer, *_ in mcmc_solves:
        assert ExactSolver(problem, node_budget).solve() == answer


def test_every_value_the_solver_makes_is_a_fraction(mcmc_solves,
                                                    monkeypatch):
    # the linear algebra and the closures run on ints where a value is
    # integral; what leaves them for a Num is a Fraction, never an int or
    # a float (a Const, built only from a Num's value, makes a Fraction of
    # what it is given)
    nums = []

    def num(value, *args):
        assert type(value) is Fraction, value
        nums.append(value)
        return Num(value, *args)

    monkeypatch.setattr(minisolver, "Num", num)
    scripts = [
        # a real stage midpoint, x = 1/2 of the ints 0 and 1, and y = x/3
        "(declare-fun y () Real)(declare-fun x () Real)"
        "(assert (> x 0))(assert (< x 1))(assert (= (* 3 y) x))",
        # values pinned by elimination
        REALS + "(assert (= (+ x y) 4))(assert (= (- x y) 1))"]
    assert [solve_exact(parse(script + "(check-sat)"))
            for script in scripts] == [
        ("sat", {"x": Num(Fraction(1, 2)), "y": Num(Fraction(1, 6))}),
        ("sat", {"x": Num(Fraction(5, 2)), "y": Num(Fraction(3, 2))})]
    for problem, node_budget, *_ in mcmc_solves[::4]:
        _, model = ExactSolver(problem, node_budget).solve()
        assert all(type(x.value) is Fraction for x in model.values())
    assert len(nums) >= 1000


def solved_without_closures(problem, monkeypatch, node_budget):
    """``(answer, nodes, stopped_by)`` by the reference route: every atom
    left to the symbolic steps, with no affine or inversion closure, and
    every node deciding and propagating over all atoms."""
    decide = ExactSolver._decide
    with monkeypatch.context() as mp:
        mp.setattr(minisolver, "_affine", lambda term, v: None)
        mp.setattr(ExactSolver, "_decide", lambda self, model, atoms:
                   (decide(self, model, self.atoms)[0], self.atoms))
        solver = ExactSolver(problem, node_budget)
        return solver.solve(), solver.nodes, solver.stopped_by


def test_the_compiled_search_moves_no_answer_of_the_mcmc_solves(
        mcmc_solves, monkeypatch):
    assert sum(nodes > 0 for _, _, _, nodes, _ in mcmc_solves) >= 100
    for problem, node_budget, answer, nodes, stop in mcmc_solves:
        assert solved_without_closures(problem, monkeypatch, node_budget) \
            == (answer, nodes, stop)


def test_the_closed_form_bound_moves_no_answer_of_m1s_mcmc_solves(
        monkeypatch):
    # m1's products are affine in each of their factors, so with closures
    # on the monotone bound is read off them, and with closures off it is
    # probed; both must end every search alike
    queries, bounds = [], []
    inner = ExactSolver._monotone_bound

    def spy(self, *args):
        bounds.append(inner(self, *args))
        return bounds[-1]

    def recording(problem, node_budget=DEFAULT_NODE_BUDGET, timeout_s=None):
        queries.append((problem, node_budget))
        return ExactSolver(problem, node_budget, timeout_s).solve()

    with monkeypatch.context() as mp:
        mp.setattr(minisolver, "solve_exact", recording)
        mutate_to_level(load_problem("m1.smt2"), 1, random.Random(0))
    monkeypatch.setattr(ExactSolver, "_monotone_bound", spy)
    assert len(queries) >= 10
    for problem, node_budget in queries:
        solver = ExactSolver(problem, node_budget)
        assert (solver.solve(), solver.nodes, solver.stopped_by) \
            == solved_without_closures(problem, monkeypatch, node_budget)
    assert sum(b is not None for b in bounds) >= 100


def shape_problem(atom, order):
    """``atom`` over Ints ``a`` in [0, 4], ``b`` >= 0 and ``c`` in [0, 2],
    declared, and so assigned by the search, in ``order``."""
    return parse("".join(f"(declare-fun {x} () Int)" for x in order)
                 + "(assert (>= a 0))(assert (<= a 4))(assert (>= b 0))"
                 "(assert (>= c 0))(assert (<= c 2))"
                 f"(assert {atom})(assert (> (+ a b c) 6))(check-sat)")


# with b assigned before a, each node pins a through its divisor
DIVISOR_SHAPES = [
    "(= (/ 12 a) b)",
    "(= (/ 6 (- a 2)) b)",                  # a zero divisor at a = 2
    "(= (/ 6 a) (- b b))",                  # no value of a at any b
    "(= (/ 12 a) (/ 6 b))",                 # 6 / b has no value at b = 0
    "(= (/ -12 (+ a 1)) b)",
    "(= (* b (/ 6 a)) 6)",
    "(= (/ (* 2 b) a) 1)",                  # 0 / a = 1 at b = 0
]


@pytest.mark.parametrize("order, atom", [
    *(pytest.param("abc", atom, id=atom) for atom in [
        "(= (+ a (^ b 1)) 5)",                  # lin refuses a power
        "(= (+ a (- b b)) 2)",                  # b cancels
        "(= (* b (/ 6 (- a 2))) 6)",            # a zero divisor at a = 2
        "(= (+ b (* 0 (/ 1 (- a a)))) 4)",      # a zero divisor folded away
        "(< (+ b pi) 7)",                       # a named constant
        "(= (+ (* 0 c) (* 2 a) (* 3 b)) 26)",   # c dropped by folding
    ]),
    *(pytest.param("bac", atom, id=atom) for atom in DIVISOR_SHAPES)])
def test_the_compiled_search_agrees_on_shapes_it_leaves_to_the_symbolic_step(
        order, atom, monkeypatch):
    p = shape_problem(atom, order)
    solver = ExactSolver(p, 5_000)
    answer = solver.solve()
    assert solver.nodes > 0
    assert (answer, solver.nodes, solver.stopped_by) \
        == solved_without_closures(p, monkeypatch, 5_000)


def test_the_inversion_closure_pins_an_unknown_in_a_divisor(monkeypatch):
    # each value of b pins a of 12 / a = b by the closure, with no
    # symbolic step; no a gives b = 0, and b = 3 gives a = 4
    pins, symbolic = [], []
    build, invert = minisolver._inverse, ExactSolver._invert_equality

    def spying(c, v):
        f = build(c, v)

        def spy(model):
            try:
                pins.append(f(model))
            except minisolver._NoValue:
                pins.append(None)
                raise
            return pins[-1]
        return spy

    def inverting(self, c, v):
        symbolic.append(self._closures is not None)
        return invert(self, c, v)

    monkeypatch.setattr(minisolver, "_inverse", spying)
    monkeypatch.setattr(ExactSolver, "_invert_equality", inverting)
    status, model = ExactSolver(shape_problem(DIVISOR_SHAPES[0], "bac"),
                                5_000).solve()
    assert status == "sat" and model["a"].value == 4
    assert None in pins and Num(Fraction(4)) in pins
    assert not any(symbolic)


def test_an_inexact_root_at_an_integer_leaf_is_judged_with_slack():
    # at each leaf k is exact and the root step's z is an inexact root of
    # z * z = k + 1, which holds only within the slack of an inexact value
    p = parse("(declare-fun k () Int)(declare-fun z () Real)"
              "(assert (>= k 1))(assert (<= k 2))"
              "(assert (= (* z z) (+ k 1)))(check-sat)")
    r = solve(p)
    assert r.status == "sat" and r.provenance == "numeric-fallback"


@pytest.mark.parametrize("true_atom", ["true", "(or true (> x 5))"],
                         ids=["true", "or-true"])
def test_the_root_step_reads_a_true_atom_as_no_bound(true_atom):
    # the branch keeps the true atom, which the root step's bound reader
    # meets beside x * x = 2
    p = parse(f"(declare-fun x () Real)(assert {true_atom})"
              "(assert (= (* x x) 2))(check-sat)")
    r = solve(p)
    assert r.status == "sat" and r.provenance == "numeric-fallback"
    assert abs(float(r.model["x"].value) ** 2 - 2) < 1e-6


@pytest.mark.parametrize("script, status", [
    ("(assert (= (/ 0 a) 5))", "unsat"),
    # in the search, at each b, by the inversion closure
    ("(assert (= (+ 1 (/ (- b b) a)) 0))", "unsat"),
    ("(assert (= (/ 0 a) 0))", "sat"),
    # y - 1.4142135623730951 reads an inexact y, whose slack may make it 0
    ("(declare-fun y () Real)(assert (= y (sqrt 2)))(assert (>= a 1))"
     "(assert (<= a 3))(assert (= (/ 0 a) (- y 1.4142135623730951)))",
     "sat"),
], ids=["0/a=5", "1+0/a=0", "0/a=0", "0/a=inexact-0"])
def test_a_divisor_that_no_value_meets_refutes_the_branch(script, status):
    # 0 / a is 0 for every a but 0, where it is undefined, so it never
    # meets 5; that once pinned a = 0 and the check answered unknown
    p = parse("(declare-fun b () Int)(declare-fun a () Int)"
              f"(assert (>= b 0))(assert (<= b 2)){script}(check-sat)")
    assert solve_exact(p)[0] == status


# one row per _INVERT entry: (term T, pinned b, planted a) with
# 6 / T = 2, so T = 3 and inverting T's node for a gives the planted a
INVERT_ROWS = [("(+ a b)", 1, 2), ("(+ b a)", 1, 2), ("(- a b)", 1, 4),
               ("(- b a)", 1, -2), ("(* a b)", 3, 1), ("(* b a)", 3, 1),
               ("(/ a b)", 2, 6), ("(/ b a)", 6, 2)]


@pytest.mark.parametrize("command", [None, MINISOLVER],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("term, b, a", INVERT_ROWS,
                         ids=[t for t, _, _ in INVERT_ROWS])
def test_each_inversion_step_pins_the_planted_value(term, b, a, command):
    p = parse("(declare-fun a () Int)(declare-fun b () Int)"
              f"(assert (= b {b}))(assert (= (/ 6 {term}) 2))"
              "(check-sat)(get-value (a))")
    r = solve(p, SolverConfig(command=command, fallback_enabled=False))
    assert r.status == "sat"
    assert r.model["a"].value == a


DOMAINS = {"v": Domain.NAT, "w": Domain.POS, "x": Domain.INT,
           "y": Domain.NAT, "z": Domain.INT}


def _random_term(rng, depth):
    """A term over DOMAINS' variables by ``+``, ``-``, ``*`` and ``/`` by
    a constant; some factors read ``x - 1``, which is 0 at x = 1."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return BinOp("-", Var("x"), Const(Fraction(1)))
        if rng.random() < 0.65:
            return Var(rng.choice(list(DOMAINS)))
        return Const(Fraction(rng.choice([0, 1, 2, 3, -2, 5]),
                              rng.choice([1, 1, 1, 2])))
    op = rng.choice("+-*/")
    right = Const(Fraction(rng.choice([1, 1, 2, -3]))) if op == "/" \
        else _random_term(rng, depth - 1)
    return BinOp(op, _random_term(rng, depth - 1), right)


def _random_atom(rng):
    """An atom with ``v`` in it: ``v`` a factor of a top product (with a
    term added or subtracted on either side or not), or anywhere in a
    comparison."""
    if rng.random() < 0.5:
        side = BinOp("*", Var("v"), _random_term(rng, 2))
        if rng.random() < 0.5:
            side = BinOp("*", _random_term(rng, 1), side)
        if rng.random() < 0.5:
            term = rng.choice([Const(Fraction(0)), _random_term(rng, 1),
                               BinOp("-", Var("x"), Const(Fraction(1)))])
            side = BinOp(rng.choice("+-"), *((side, term) if rng.random()
                                             < 0.5 else (term, side)))
        other = Const(Fraction(rng.choice([-12, 0, 6, 12, 24, 30])))
        sides = (side, other) if rng.random() < 0.7 else (other, side)
        return Compare(sides[0], "=", sides[1])
    rel = rng.choice(["=", "=", "!=", "<", "<=", ">", ">="])
    return Compare(BinOp("+", Var("v"), _random_term(rng, 2)), rel,
                   _random_term(rng, 2))


def _bounds(problem, model, monkeypatch, plans):
    """``_int_bounds("v", model)`` as inside the search, with the plans
    on or off; the atoms that took the symbolic step; the monotone bounds
    found."""
    symbolic, monotone = [], []
    substitute, bound = ExactSolver._substitute_model, \
        ExactSolver._monotone_bound
    with monkeypatch.context() as mp:
        if not plans:
            mp.setattr(minisolver, "_plan", lambda c, v, unknown, domains:
                       None)
        mp.setattr(ExactSolver, "_substitute_model", lambda self, c, m:
                   symbolic.append(c) or substitute(self, c, m))
        mp.setattr(ExactSolver, "_monotone_bound", lambda self, *args:
                   monotone.append(bound(self, *args)) or monotone[-1])
        solver = ExactSolver(problem)
        solver._closures, solver._watch = {}, {}
        return (solver._int_bounds("v", dict(model)), symbolic,
                [m for m in monotone if m is not None])


def test_the_plans_give_the_bounds_of_the_symbolic_step(monkeypatch):
    planned = divisors = monotone = 0
    for seed in range(240):
        rng = random.Random(seed)
        atoms = tuple(_random_atom(rng) for _ in range(rng.randint(1, 2)))
        problem = Problem(tuple(DOMAINS.items()), atoms)
        model = {}
        for n in rng.sample(["w", "x", "y", "z"], rng.randint(0, 3)):
            lo = DOMAINS[n].lower_bound
            model[n] = Num(Fraction(rng.randint(-3 if lo is None else lo, 4)),
                           exact=rng.random() > 0.05)
        on, symbolic, bounds = _bounds(problem, model, monkeypatch, True)
        assert on == _bounds(problem, model, monkeypatch, False)[0], seed
        planned += len(atoms) - len(symbolic)
        divisors += on[3] != 0
        monotone += len(bounds)
    assert planned >= 200 and divisors >= 20 and monotone >= 20


@pytest.mark.parametrize("x, planned", [
    (Num(Fraction(2)), True),
    (Num(Fraction(1)), False),              # x - 1 is a zero factor
    (Num(Fraction(2), exact=False), False),
], ids=["planned", "zero-factor", "inexact"])
def test_a_plan_refuses_a_zero_factor_and_an_inexact_value(
        x, planned, monkeypatch):
    # v·(x - 1)·w = 12: at x = 1 folding drops w, and leaves 0 = 12
    atom = Compare(BinOp("*", BinOp("*", Var("v"), BinOp(
        "-", Var("x"), Const(Fraction(1)))), Var("w")), "=",
        Const(Fraction(12)))
    problem = Problem(tuple(DOMAINS.items()), (atom,))
    on, symbolic, _ = _bounds(problem, {"x": x}, monkeypatch, True)
    assert on == _bounds(problem, {"x": x}, monkeypatch, False)[0]
    assert symbolic == ([] if planned else [atom])
    assert on[3] == (12 if x.exact and x.value == 2 else 0)


def test_the_search_folds_no_atom_its_closures_compile_on_m1(monkeypatch):
    # every atom of m1's proposals compiles, so _int_bounds reads each
    # one off its plan, and substitutes none
    queries, watched, symbolic = [], [], []
    bounds, substitute = ExactSolver._int_bounds, \
        ExactSolver._substitute_model

    def recording(problem, node_budget=DEFAULT_NODE_BUDGET, timeout_s=None):
        queries.append((problem, node_budget))
        return ExactSolver(problem, node_budget, timeout_s).solve()

    def bounding(self, v, model):
        self.bounding = v
        try:
            return bounds(self, v, model)
        finally:
            self.bounding = None
            watched.append(len(self._watch[v]))

    def substituting(self, c, model):
        v = getattr(self, "bounding", None)
        if v is not None and minisolver._affine(c, v) is not None:
            symbolic.append(c)
        return substitute(self, c, model)

    with monkeypatch.context() as mp:
        mp.setattr(minisolver, "solve_exact", recording)
        mutate_to_level(load_problem("m1.smt2"), 1, random.Random(0))
    monkeypatch.setattr(ExactSolver, "_int_bounds", bounding)
    monkeypatch.setattr(ExactSolver, "_substitute_model", substituting)
    for problem, node_budget in queries:
        ExactSolver(problem, node_budget).solve()
    assert len(watched) >= 50 and sum(watched) >= 150
    assert symbolic == []
