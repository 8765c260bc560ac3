"""Exact symbolic arithmetic helpers: folding, linearization, solving."""

from fractions import Fraction

from mathmorph.algebra import (LinearForm, bound, eliminate, fold_constants,
                               fold_constraint, int_range, lin, linear_form,
                               solve_for)
from mathmorph.ast import (BinOp, Compare, Const, TermIte, Var, free_variables,
                          substitute_all)
from mathmorph.parser import parse


def _expr(rhs: str, decls="(declare-fun x () Real)(declare-fun y () Real)"):
    p = parse(f"{decls}(assert (= x {rhs}))(check-sat)")
    return p.constraints[0].rhs


def test_fold_constants_is_exact():
    assert fold_constants(_expr("(+ (/ 1 3) (/ 1 6))")) == Const(Fraction(1, 2))


def test_fold_constants_keeps_free_variables():
    folded = fold_constants(_expr("(+ y (* 2 3))"))
    assert isinstance(folded, BinOp)
    assert folded.right == Const(Fraction(6))


def test_a_power_past_the_digit_cap_stays_unfolded():
    e = _expr("(^ 10 100000000)")
    assert fold_constants(e) == e
    assert linear_form(e, {"x"}) is None


def test_fold_constraint_folds_both_sides():
    p = parse("(declare-fun x () Real)"
              "(assert (> (+ 1 2) (* x 1)))(check-sat)")
    out = fold_constraint(p.constraints[0])
    assert out.lhs == Const(Fraction(3))
    assert out.rhs == Var("x")


def test_lin_extracts_coefficient_and_rest():
    a, rest = lin(_expr("(+ (* 3 y) 5)"), "y")
    assert a == Fraction(3)
    assert fold_constants(rest) == Const(Fraction(5))


def test_lin_rejects_nonlinear():
    assert lin(_expr("(* y y)"), "y") is None


def test_solve_for_linear_equality():
    # x = 2y + 6 solved for y gives an expression over x only
    sol = solve_for(Var("x"), _expr("(+ (* 2 y) 6)"), "y")
    assert sol is not None
    assert free_variables(sol) == {"x"}


def test_solve_for_evaluates_pinned_variable():
    from mathmorph.funcs import eval_expression
    sol = solve_for(Var("x"), _expr("(+ (* 2 y) 6)"), "y")
    # with x = 10, y must be 2
    assert eval_expression(sol, {"x": Fraction(10)}).value == Fraction(2)


def test_solve_for_rejects_nonlinear_occurrence():
    assert solve_for(Var("x"), _expr("(* y y)"), "y") is None


def test_linear_form_collects_coefficients():
    f = linear_form(_expr("(+ (* 2 y) (- (* 3 x) 7))"), {"x", "y"})
    assert isinstance(f, LinearForm)
    assert f.coeffs == {"y": Fraction(2), "x": Fraction(3)}
    assert f.const == Fraction(-7)


def test_linear_form_none_for_products_of_variables():
    assert linear_form(_expr("(* x y)"), {"x", "y"}) is None


def test_linear_form_arithmetic():
    f = LinearForm({"x": Fraction(2)}, Fraction(1))
    g = LinearForm({"x": Fraction(-2), "y": Fraction(1)}, Fraction(3))
    s = f + g
    assert s.coeffs == {"y": Fraction(1)}
    assert s.const == Fraction(4)
    assert (f - f).is_constant()


def _lf(const, **coeffs):
    return LinearForm({v: Fraction(c) for v, c in coeffs.items()},
                      Fraction(const))


def test_eliminate_solves_a_determined_system():
    # x + y = 5, x - y = 1: pivot x in the first equation, then y
    chain, residual, free = eliminate([_lf(-5, x=1, y=1), _lf(-1, x=1, y=-1)],
                                      ["x", "y"])
    assert [v for v, _ in chain] == ["x", "y"]
    assert chain[1][1].is_constant() and chain[1][1].const == 2
    assert chain[0][1].coeffs == {"y": -1} and chain[0][1].const == 5
    assert residual == [] and free == []


def test_eliminate_leaves_inconsistent_constant_residual():
    # x + y = 1 and 2x + 2y = 3 cannot both hold
    chain, residual, free = eliminate([_lf(-1, x=1, y=1), _lf(-3, x=2, y=2)],
                                      ["x", "y"])
    assert [v for v, _ in chain] == ["x"]
    assert len(residual) == 1
    assert residual[0].is_constant() and residual[0].const != 0
    assert free == ["y"]


def test_eliminate_keeps_free_variables_in_order():
    # one equation over three unknowns: z is the first in order that occurs
    chain, residual, free = eliminate([_lf(-4, x=1, z=2)], ["w", "z", "x"])
    assert [v for v, _ in chain] == ["z"]
    assert chain[0][1].coeffs == {"x": Fraction(-1, 2)}
    assert chain[0][1].const == 2
    assert residual == []
    assert free == ["w", "x"]


def test_linear_form_substitute_replaces_one_variable():
    f = _lf(1, x=2, y=1)
    g = _lf(3, y=-1)                        # x = 3 - y
    s = f.substitute("x", g)
    assert s.coeffs == {"y": -1} and s.const == 7
    assert f.substitute("w", g) is f


def _compare(text, decls="(declare-fun x () Real)(declare-fun y () Real)"):
    return parse(f"{decls}(assert {text})(check-sat)").constraints[0]


def test_bound_flips_the_relation_for_a_negative_coefficient():
    # 3 - 2x < y  <=>  x > (3 - y) / 2
    rel, rest = bound(_compare("(< (- 3 (* 2 x)) y)"), "x")
    assert rel == ">"
    assert "x" not in free_variables(rest)
    assert fold_constants(substitute_all(rest, {"y": Const(Fraction(1))})) \
        == Const(Fraction(1))


def test_bound_folds_a_constant_rest():
    assert bound(_compare("(<= (+ (* 4 x) 1) 7)"), "x") \
        == ("<=", Const(Fraction(3, 2)))


def test_bound_is_none_for_nonlinear_or_cancelling_input():
    assert bound(_compare("(<= (* x x) 4)"), "x") is None
    assert bound(_compare("(= (+ x y) (+ x 1))"), "x") is None


def test_int_range_rounds_strict_bounds_inward():
    assert int_range("<", Fraction(3)) == (None, 2)
    assert int_range("<", Fraction(5, 2)) == (None, 2)
    assert int_range("<=", Fraction(5, 2)) == (None, 2)
    assert int_range(">", Fraction(3)) == (4, None)
    assert int_range(">=", Fraction(-5, 2)) == (-2, None)
    assert int_range("!=", Fraction(3)) == (None, None)


def test_int_range_of_an_equality_is_empty_off_the_integers():
    assert int_range("=", Fraction(4)) == (4, 4)
    lo, hi = int_range("=", Fraction(3, 2))
    assert (lo, hi) == (2, 1) and lo > hi


def test_linear_form_isolate_solves_for_one_variable():
    # 2x - 4y + 6 = 0  <=>  x = 2y - 3
    g = LinearForm({"x": Fraction(2), "y": Fraction(-4)}, Fraction(6)) \
        .isolate("x")
    assert (g.coeffs, g.const) == ({"y": Fraction(2)}, Fraction(-3))


def test_fold_constants_folds_each_part_of_a_term_ite():
    folded = fold_constants(_expr("(ite (> y (+ 1 2)) (* 2 3) y)"))
    assert folded == TermIte(Compare(Var("y"), ">", Const(Fraction(3))),
                             Const(Fraction(6)), Var("y"))


def test_fold_constants_keeps_a_term_past_the_decimal_range():
    # exp of a huge integer has an exponent Decimal cannot hold: the term
    # has no exact value, so it stays as it is
    term = _expr("(exp 99999999999999999999999999999)")
    assert fold_constants(term) == term
