"""Interpreted function registry: evaluation and symbolic reduction."""

from fractions import Fraction

import pytest

from mathmorph.funcs import (APPROX_TOL, MAX_DIGITS, DomainError, Num,
                             UnknownFunctionError, eval_constraint,
                             eval_expression, lookup, power, reduce_app)
from mathmorph.parser import parse
from mathmorph.printer import expr_to_sexpr, print_smtlib


def _expr(rhs: str, decls=""):
    base = "(declare-fun r () Real)(declare-fun x () Int)(declare-fun y () Int)"
    p = parse(f"{base}{decls}(assert (= r {rhs}))(check-sat)")
    return p.constraints[0].rhs


def ev(rhs: str, **assignment):
    return eval_expression(_expr(rhs), {k: Fraction(v)
                                        for k, v in assignment.items()})


def test_gcd_lcm_exact():
    assert ev("(gcd 12 18)").value == 6
    assert ev("(lcm 4 6)").value == 12


def test_binomial_and_factorial():
    assert ev("(binomial 5 2)").value == 10
    assert ev("(factorial 6)").value == 720


def test_power_refuses_zero_to_a_negative_power_and_a_huge_result():
    assert power(Fraction(2, 3), -2) == Fraction(9, 4)
    assert power(Fraction(-1), 10 ** 400) == 1
    for q, k in ((Fraction(0), -1), (Fraction(10), MAX_DIGITS),
                 (Fraction(1, 10), -MAX_DIGITS)):
        with pytest.raises(DomainError):
            power(q, k)


def test_summation_over_bound_index():
    # sum_{i=1..4} i^2 = 30
    assert ev("(summation i 1 4 (^ i 2))").value == 30


def test_sin_of_pi_sixth_is_exact():
    out = ev("(sin (/ pi 6))")
    assert out.exact and out.value == Fraction(1, 2)


def test_log_is_approximate():
    out = ev("(log 2)")
    assert not out.exact
    assert abs(float(out.value) - 0.6931471805599453) < 1e-12


def test_log_of_nonpositive_rejected():
    with pytest.raises(DomainError):
        ev("(log 0)")


def test_arcsin_out_of_range_rejected():
    with pytest.raises(DomainError):
        ev("(arcsin 2)")


def test_gcd_requires_integers():
    with pytest.raises(DomainError):
        ev("(gcd (/ 1 2) 3)")


def test_unknown_function_rejected():
    with pytest.raises(UnknownFunctionError):
        lookup("frobnicate")


def test_eval_with_assignment():
    assert ev("(gcd x y)", x=21, y=14).value == 7


def test_eval_constraint_ground():
    p = parse("(declare-fun x () Int)(assert (> (gcd 4 6) 1))(check-sat)")
    assert eval_constraint(p.constraints[0], {}) is True


@pytest.mark.parametrize("negated", ["(not (< x 3))", "(=> (< x 3) (> x 5))"])
def test_a_negation_keeps_the_slack_of_an_inexact_value(negated):
    p = parse(f"(declare-fun x () Real)(assert {negated})(assert (>= x 3))"
              "(check-sat)")
    x = {"x": Num(3 - Fraction(1, 10 ** 12), exact=False)}
    assert [eval_constraint(c, x) for c in p.constraints] == [True, True]


def test_reduce_app_extracts_gcd_content():
    e = _expr("(gcd (* 2 x) (* 6 y))")
    reduced = reduce_app(e)
    p = parse("(declare-fun r () Real)(declare-fun x () Int)"
              "(declare-fun y () Int)(assert (= r 0))(check-sat)")
    text = print_smtlib(type(p)(p.declarations,
                                (type(p.constraints[0])(p.constraints[0].lhs,
                                                        "=", reduced),),
                                p.goal, p.recursive_defs))
    assert "(* 2 (gcd x (* 3 y)))" in text


def test_reduce_app_folds_closed_applications():
    e = _expr("(binomial 4 2)")
    reduced = reduce_app(e)
    assert getattr(reduced, "value", None) == Fraction(6)


def test_num_tracks_exactness():
    assert Num(Fraction(1, 2), True).exact
    assert not ev("(exp 1)").exact


# at x = 2 and k = 5: (term, its reduction or None, value, exact)
INTERPRETED = [
    ("(derivative (^ x 3) x)", "(* 3 (^ x 2))", 12, True),
    ("(derivative (- (* 3 (^ x 2)) (/ x 2)) x)", "(- (* 6 x) (/ 1 2))",
     Fraction(23, 2), True),
    ("(integral (* 2 x) x 0 3)", "9", 9, True),
    ("(summation i 1 3 (* i k))", "(+ (+ (* 1 k) (* 2 k)) (* 3 k))", 30,
     True),
    ("(sqrt (/ 16 9))", "(/ 4 3)", Fraction(4, 3), True),
    ("(sqrt 2)", "(sqrt 2)", Fraction(14142135623731, 10 ** 13), False),
    ("(^ 4 (/ 1 2))", None, 2, False),
    ("(abs (- 3))", "3", 3, True),
    ("(cos (* 2 pi))", "1", 1, True),
    ("(sin (* pi (/ 1 2)))", "1", 1, True),
    ("(ite (> x 1) (* k 2) k)", None, 10, True),
    ("(ite (< x 1) (* k 2) k)", None, 5, True),
]


@pytest.mark.parametrize("term, reduced, value, exact", INTERPRETED,
                         ids=[t for t, *_ in INTERPRETED])
def test_interpreted_function_reduces_and_evaluates(term, reduced, value,
                                                    exact):
    e = _expr(term, "(declare-fun k () Int)")
    at = {"x": Fraction(2), "k": Fraction(5)}
    out = eval_expression(e, at)
    assert out.exact is exact
    assert abs(out.value - value) < APPROX_TOL
    if reduced is not None:
        r = reduce_app(e)
        assert expr_to_sexpr(r) == reduced
        assert eval_expression(r, at) == out


def test_derivative_of_a_non_polynomial_is_a_domain_error():
    with pytest.raises(DomainError):
        eval_expression(_expr("(derivative (* x k) x)",
                              "(declare-fun k () Int)"),
                        {"x": Fraction(2), "k": Fraction(5)})


@pytest.mark.parametrize("constraint, holds", [
    ("(or (> x 5) (= y 3))", True),
    ("(or (> x 5) (= y 4))", False),
    ("(not (> x 1))", False),
    ("(not (and (> x 1) (= y 4)))", True),
    ("(=> (> x 5) (= y 4))", True),
    ("(=> (> x 1) (= y 4))", False),
    ("(ite (> x 1) (= y 3) (= y 4))", True),
    ("(ite (< x 1) (= y 3) (= y 4))", False),
])
def test_eval_constraint_over_connectives(constraint, holds):
    p = parse("(declare-fun x () Int)(declare-fun y () Int)"
              f"(assert {constraint})(check-sat)")
    assert eval_constraint(p.constraints[0],
                           {"x": Fraction(2), "y": Fraction(3)}) is holds
