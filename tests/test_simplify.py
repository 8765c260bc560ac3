"""Rewriting tactics: golden rewrites, soundness, and level-0 driver."""

import random
from fractions import Fraction

import pytest

from mathmorph.ast import (BinOp, BoolConst, Compare, Const, Var, node_count)
from mathmorph.funcs import Num, eval_constraint
from mathmorph.parser import parse
from mathmorph.printer import print_smtlib
from mathmorph.simplify import (QE_INT_ENUM_CAP, TacticError, _qe_int_enum,
                                simplify_level0, tactic_elim_term_ite,
                                tactic_gaussian_elim, tactic_qe,
                                tactic_simplify)
from mathmorph.solver import solve
from conftest import load_problem


def asserts(p):
    return [line for line in print_smtlib(p).splitlines()
            if line.startswith("(assert")]


def test_simplify_drops_additive_identity():
    p = parse("(declare-fun w () Real)(declare-fun x () Real)"
              "(assert (= w (+ x 0)))(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == ["(assert (= w x))"]


@pytest.mark.parametrize("sum_, want", [
    ("(- (+ y x) x)", "(assert (= w y))"),
    ("(+ 1 (- x x))", "(assert (= w 1))"),      # every term cancels
])
def test_simplify_cancels_opposite_terms(sum_, want):
    p = parse("(declare-fun w () Real)(declare-fun x () Real)"
              f"(declare-fun y () Real)(assert (= w {sum_}))(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == [want]


def test_simplify_expands_binomial_square():
    p = parse("(declare-fun w () Real)(declare-fun x () Real)"
              "(assert (= w (^ (+ x 1) 2)))(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == ["(assert (= w (+ (+ (^ x 2) (* 2 x)) 1)))"]


def test_simplify_propagates_constants_into_functions():
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              "(assert (= x 2))(assert (= y (log x)))(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == ["(assert (= x 2))", "(assert (= y (log 2)))"]


def test_simplify_extracts_gcd_content():
    p = parse("(declare-fun g () Int)(declare-fun x () Int)"
              "(declare-fun y () Int)"
              "(assert (= g (gcd (* 2 x) (* 6 y))))(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == ["(assert (= g (* 2 (gcd x (* 3 y)))))"]


def test_simplify_folds_exact_trigonometry():
    p = parse("(declare-fun s () Real)(assert (= s (sin (/ pi 6))))"
              "(check-sat)")
    out, _ = tactic_simplify(p)
    assert asserts(out) == ["(assert (= s (/ 1 2)))"]


def test_simplify_never_increases_node_count():
    rng = random.Random(5)
    from conftest import random_seed_problem
    for _ in range(20):
        p = random_seed_problem(rng)
        out, _ = tactic_simplify(p)
        assert sum(map(node_count, out.constraints)) <= \
            sum(map(node_count, p.constraints))


def test_gaussian_elim_substitutes_and_drops_declaration():
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              "(declare-fun z () Real)(assert (= x 2))"
              "(assert (<= y (+ x z)))(check-sat)(get-value (y))")
    out, rec = tactic_gaussian_elim(p, random.Random(0))
    assert asserts(out) == ["(assert (<= y (+ 2 z)))"]
    assert len(out.declarations) == len(p.declarations) - 1
    assert rec.parameters["variable"] == "x"


def test_gaussian_elim_protects_goal_variables():
    p = parse("(declare-fun x () Real)(assert (= x 2))"
              "(check-sat)(get-value (x))")
    with pytest.raises(TacticError):
        tactic_gaussian_elim(p, random.Random(0))


def test_elim_term_ite_introduces_definitional_split():
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              "(declare-fun z () Real)"
              "(assert (> (ite (> x y) x y) z))(check-sat)")
    out, rec = tactic_elim_term_ite(p)
    assert asserts(out) == ["(assert (> k z))",
                            "(assert (=> (> x y) (= k x)))",
                            "(assert (=> (<= x y) (= k y)))"]
    assert rec.parameters["fresh"] == ["k"]


def test_elim_term_ite_without_ite_is_a_no_op():
    p = parse("(declare-fun x () Real)(assert (> x 0))(check-sat)")
    out, rec = tactic_elim_term_ite(p)
    assert out is p or print_smtlib(out) == print_smtlib(p)
    assert "fresh" not in rec.parameters


def test_qe_eliminates_existential_by_substitution():
    p = parse("(declare-fun x () Real)"
              "(assert (exists ((y Real)) (and (> y 0) (= x (+ y 2)))))"
              "(check-sat)")
    out, _ = tactic_qe(p)
    assert asserts(out) == ["(assert (> x 2))"]


@pytest.mark.parametrize("conjunct, expected", [
    ("true", []), ("false", ["(assert false)"])])
def test_qe_substitution_keeps_a_boolean_conjunct(conjunct, expected):
    # a true conjunct drops out and a false one refutes the body
    p = parse("(declare-fun x () Real)(declare-fun w () Real)"
              f"(assert (exists ((k Real)) (and (= k x) {conjunct})))"
              "(assert (> w 1))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"eliminated": [0]}
    assert asserts(out) == expected + ["(assert (> w 1))"]


def test_qe_discharges_trivially_true_universal():
    p = parse("(declare-fun w () Real)"
              "(assert (forall ((x Real)) (= (+ x 0) x)))"
              "(assert (> w 1))(check-sat)")
    out, _ = tactic_qe(p)
    assert asserts(out) == ["(assert (> w 1))"]


def test_qe_flags_quantifiers_it_cannot_remove():
    p = parse("(declare-fun w () Real)"
              "(assert (forall ((x Real)) (>= (^ x 2) w)))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters.get("flagged")
    assert "(forall" in asserts(out)[0]


def test_qe_combines_a_strict_lower_and_an_upper_real_bound():
    # exists y. x < y <= (w + 4) / 2  <=>  x < (w + 4) / 2
    p = parse("(declare-fun x () Real)(declare-fun w () Real)"
              "(assert (exists ((y Real))"
              " (and (< x y) (<= (* 2 y) (+ w 4)) (> w 0))))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"eliminated": [0]}
    (c,) = out.constraints
    assert "exists" not in asserts(out)[0]
    cases = [(2, 1, True), (3, 2, False), (Fraction(5, 2), 1, False)]
    for x, w, expected in cases:
        env = {"x": Num(Fraction(x)), "w": Num(Fraction(w))}
        assert eval_constraint(c, env) is expected


def test_qe_enumerates_an_integer_between_strict_bounds():
    # 2k > 3 and k < 4 leave k in {2, 3}
    p = parse("(declare-fun x () Int)"
              "(assert (exists ((k Int)) (and (> (* 2 k) 3) (< k 4)"
              " (> x 0))))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"eliminated": [0]}
    assert asserts(out) == ["(assert (or (and (> 4 3) (< 2 4) (> x 0))"
                            " (and (> 6 3) (< 3 4) (> x 0))))"]


def test_qe_int_enum_refutes_a_non_integral_equality():
    two_k_is_3 = Compare(BinOp("*", Const(2), Var("k")), "=", Const(3))
    assert _qe_int_enum("k", [two_k_is_3]) == BoolConst(False)


def test_qe_flags_an_integer_range_wider_than_the_enumeration_cap():
    p = parse("(declare-fun x () Int)"
              "(assert (exists ((k Int)) (and (>= k 0)"
              f" (<= k {QE_INT_ENUM_CAP + 1}))))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"flagged": [0]}
    assert out == p


def test_qe_refutes_an_integer_existential_with_a_non_integral_definition():
    # no integer k has 2k = 3
    p = parse("(declare-fun x () Int)"
              "(assert (exists ((k Int)) (= (* 2 k) 3)))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"eliminated": [0]}
    assert asserts(out) == ["(assert false)"]


def test_qe_discharges_an_integer_universal_with_a_non_integral_definition():
    p = parse("(declare-fun x () Int)"
              "(assert (forall ((k Int)) (distinct (* 2 k) 3)))"
              "(assert (> x 0))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"eliminated": [0]}
    assert asserts(out) == ["(assert (> x 0))"]


def test_qe_flags_an_integer_binder_defined_only_by_a_fraction():
    # exists k. 2k = x says that x is even; substituting k = x/2 would
    # drop that
    p = parse("(declare-fun x () Int)"
              "(assert (exists ((k Int)) (= (* 2 k) x)))(check-sat)")
    out, rec = tactic_qe(p)
    assert rec.parameters == {"flagged": [0]}
    assert out == p


def test_tactics_preserve_goal_value():
    p = load_problem("sara.smt2")
    before = solve(p).goal_values[0][1].value
    for fn in (tactic_simplify,):
        out, _ = fn(p)
        assert solve(out).goal_values[0][1].value == before
    out, _ = tactic_gaussian_elim(p, random.Random(1))
    assert solve(out).goal_values[0][1].value == before


def test_level0_driver_is_seeded_and_bounded():
    p = load_problem("sara.smt2")
    out1, recs1 = simplify_level0(p, random.Random(7))
    out2, recs2 = simplify_level0(p, random.Random(7))
    assert print_smtlib(out1) == print_smtlib(out2)
    assert len(recs1) <= 2
    assert solve(out1).goal_values[0][1].value == 500


def test_level0_early_stop_when_nothing_applies():
    p = parse("(declare-fun x () Real)(assert (> x 0))(check-sat)")
    out, recs = simplify_level0(p, random.Random(3))
    assert len(recs) <= 2
    assert asserts(out) == ["(assert (> x 0))"]


def test_simplify_folds_inside_a_term_ite():
    p = parse("(declare-fun x () Int)(declare-fun y () Int)(assert (= x 5))"
              "(assert (= y (ite (> x (+ 1 2)) (* 2 3) x)))"
              "(check-sat)(get-value (y))")
    out, record = tactic_simplify(p)
    assert asserts(out)[1] == "(assert (= y (ite (> x 3) 6 x)))"
    assert record.parameters == {"passes": 1}
    assert solve(out).answer == solve(p).answer == Num(Fraction(6))
