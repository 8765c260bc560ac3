"""Exact symbolic arithmetic helpers: folding, linearization, solving."""

import random
from fractions import Fraction

import pytest

from mathmorph.algebra import (LinearForm, bound, const_bound, eliminate,
                               fold_constants, fold_constraint, int_range, lin,
                               linear_form, solve_for)
from mathmorph.ast import (BinOp, Compare, Const, FuncApp, NamedConst, Pow,
                          TermIte, Var, children, free_variables,
                          substitute_all)
from mathmorph.funcs import Num
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


def test_const_bound_reads_only_a_constant_rest():
    assert const_bound(_compare("(<= (+ (* 4 x) 1) 7)"), "x") \
        == ("<=", Fraction(3, 2))
    assert const_bound(_compare("(> (- 3 (* 2 x)) 5)"), "x") \
        == ("<", Fraction(-1))
    # another variable stays in the rest; no bound, no constant
    assert const_bound(_compare("(< (- 3 (* 2 x)) y)"), "x") is None
    assert const_bound(_compare("(<= (* x x) 4)"), "x") is None


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


def _parts(f):
    """``(coeffs, const)`` of the form ``f``, each value checked to be an
    int where it is integral and a Fraction otherwise; None for None."""
    if f is None:
        return None
    for k in (*f.coeffs.values(), f.const):
        assert type(k) is int or (type(k) is Fraction and k.denominator != 1)
    return f.coeffs, f.const


NAMES = ("x", "y", "z")
ZERO_DIVISOR = BinOp("/", Var("y"), BinOp("-", Var("x"), Var("x")))
Y_MINUS_Y = BinOp("-", Var("y"), Var("y"))
OTHER_SHAPES = (NamedConst("pi"), FuncApp("abs", (Var("z"),)),
                TermIte(Compare(Var("x"), ">", Const(Fraction(0))), Var("y"),
                        Const(Fraction(1))))
EXPONENTS = tuple(Const(Fraction(k)) for k in (1, 1, 2, -1, 0)) \
    + (Const(Fraction(1, 2)), Var("x"), Y_MINUS_Y)


def _random_term(rng, depth):
    """A term over NAMES with the shapes folding treats apart: zero
    factors beside nonlinear ones, zero divisors, ``y - y``, ``* 1``,
    ``/ 1`` and ``+ 0``, negative and non-integral constants, powers, and
    now and then a named constant, a function application or an ``ite``."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(NAMES))
        return Const(Fraction(rng.choice([0, 0, 1, 1, 2, -3, 5, -1]),
                              rng.choice([1, 1, 1, 2, 3])))
    if r < 0.3:
        return rng.choice([ZERO_DIVISOR, Y_MINUS_Y,
                           BinOp("*", Var("y"), Var("z"))])
    if r < 0.33:
        return rng.choice(OTHER_SHAPES)
    t = _random_term(rng, depth - 1)
    if r < 0.38:
        return Pow(t, rng.choice(EXPONENTS))
    if r < 0.43:
        op, unit = rng.choice([("*", 1), ("/", 1), ("+", 0), ("-", 0)])
        return BinOp(op, t, Const(Fraction(unit))) if rng.random() < 0.5 \
            or op in "/-" else BinOp(op, Const(Fraction(unit)), t)
    return BinOp(rng.choice("+-*/"), t, _random_term(rng, depth - 1))


def _nodes(node):
    yield node
    for k in children(node):
        yield from _nodes(k)


def test_the_reader_at_a_model_gives_the_form_of_the_folded_atom():
    made_linear = powers = apps = 0
    for seed in range(400):
        rng = random.Random(seed)
        c = Compare(_random_term(rng, 3), rng.choice(["=", "<", ">="]),
                    _random_term(rng, 3))
        model = {n: Num(Fraction(rng.choice([0, 1, 2, -2, 3, 7]),
                                 rng.choice([1, 1, 2, 3])))
                 for n in rng.sample(NAMES, rng.randint(0, 3))}
        variables = set(NAMES) - model.keys()
        env = {n: Const(x.value) for n, x in model.items()}
        sub = fold_constraint(substitute_all(c, env))
        want = [_parts(linear_form(sub.lhs, variables)),
                _parts(linear_form(sub.rhs, variables))]
        got = [_parts(linear_form(c.lhs, variables, model)),
               _parts(linear_form(c.rhs, variables, model))]
        assert got == want, seed
        # the model or folding makes a side linear that the tree is not
        made_linear += None in (linear_form(c.lhs, variables),
                                linear_form(c.rhs, variables)) \
            and None not in got
        powers += any(type(n) is Pow for n in _nodes(c))
        apps += any(type(n) is FuncApp for n in _nodes(c))
    assert made_linear >= 50 and powers >= 50 and apps >= 15


@pytest.mark.parametrize("term, model, form", [
    # a factor that folds to 0 zeroes a nonlinear product
    ("(* (- x 2) (* y z))", {"x": 2}, ({}, 0)),
    ("(* (* y z) (- x x))", {"x": -1}, ({}, 0)),
    # a side whose form is 0 but is no Const does not
    ("(* (- y y) (* y z))", {}, None),
    ("(* (- y y) z)", {}, ({}, 0)),
    # a divisor that folds to 0 keeps the quotient
    ("(/ y (- x x))", {"x": 3}, None),
    ("(/ 2 (- x 2))", {"x": 2}, None),
    ("(+ (* (- x 2) (/ 1 z)) x)", {"x": 2}, ({}, 2)),
    # units and non-integral values
    ("(/ (+ (* 1 y) 0) 1)", {}, ({"y": 1}, 0)),
    ("(/ (- y x) 2)", {"x": Fraction(1, 3)}, ({"y": Fraction(1, 2)},
                                              Fraction(-1, 6))),
    ("(* (/ x 2) (- 0 y))", {"x": -4}, ({"y": 2}, 0)),
    # powers: a Const folds, a base that is no Const is read as a form
    ("(* (^ (- x 1) 2) (* y z))", {"x": 1}, ({}, 0)),
    ("(^ (- y y) 2)", {}, ({}, 0)),
    ("(* (^ (- y y) 2) (* y z))", {}, None),
    ("(^ (+ y x) 1)", {"x": 2}, ({"y": 1}, 2)),
    ("(^ y x)", {"x": 2}, None),
    ("(^ x -1)", {"x": 0}, None),
    # past the digit cap the power stays, but reads its base to the first
    ("(^ x 1)", {"x": 10 ** 4000}, ({}, 10 ** 4000)),
    ("(+ y pi)", {}, None),
])
def test_the_reader_folds_zero_factors_and_zero_divisors(term, model, form):
    decls = "".join(f"(declare-fun {n} () Real)" for n in NAMES)
    expr = parse(f"{decls}(assert (= x {term}))(check-sat)").constraints[0].rhs
    nums = {n: Num(Fraction(x)) for n, x in model.items()}
    assert _parts(linear_form(expr, set(NAMES) - model.keys(), nums)) == form


def test_the_reader_folds_a_function_application_at_a_model():
    # at a model the application is substituted and folded alone; without
    # one it is nonlinear
    app = BinOp("+", Var("y"), FuncApp("abs", (Var("x"),)))
    assert _parts(linear_form(app, {"y"}, {"x": Num(Fraction(-2))})) \
        == ({"y": 1}, 2)
    assert _parts(linear_form(app, {"y"}, {"x": Num(Fraction(1, 2))})) \
        == ({"y": 1}, Fraction(1, 2))
    ground = BinOp("+", Var("y"), FuncApp("abs", (Const(Fraction(-2)),)))
    assert _parts(linear_form(ground, {"y"}, {})) == ({"y": 1}, 2)
    # an unassigned variable, an inexact value or a domain error keeps it
    for model in ({}, {"x": Num(Fraction(2))}):
        sqrt = BinOp("*", Var("y"), FuncApp("sqrt", (Var("x"),)))
        assert linear_form(sqrt, {"y"}, model) is None
    log = BinOp("+", Var("y"), FuncApp("log", (Var("x"),)))
    assert linear_form(log, {"y"}, {"x": Num(Fraction(-1))}) is None
    assert linear_form(app, {"y"}) is None
    assert linear_form(ground, {"y"}) is None


def _reference_eliminate(rows, order):
    """``eliminate`` on Fractions alone: rows ``(coeffs, const)``."""
    rows, free, chain = list(rows), list(order), []
    while True:
        pick = next(((r, v) for r in rows for v in free if v in r[0]), None)
        if pick is None:
            return chain, rows, free
        (coeffs, const), v = pick
        a = coeffs[v]
        g = {u: -k / a for u, k in coeffs.items() if u != v}, -const / a
        out = []
        for r in rows:
            k = r[0].get(v)
            if r is pick[0] or not k:
                if r is not pick[0]:
                    out.append(r)
                continue
            merged = {u: c for u, c in r[0].items() if u != v}
            for u, c in g[0].items():
                merged[u] = merged.get(u, Fraction(0)) + k * c
            out.append(({u: c for u, c in merged.items() if c},
                        r[1] + k * g[1]))
        rows = out
        chain.append((v, g))
        free.remove(v)


def test_eliminate_on_ints_matches_fractions_and_holds_no_float():
    fractional = 0
    for seed in range(300):
        rng = random.Random(seed)
        names = ["a", "b", "c", "d"][:rng.randint(2, 4)]
        rows = [({n: rng.choice([0, 1, -1, 2, 3, -4, 6]) for n in names},
                 rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))]
        order = rng.sample(names, len(names))
        chain, residual, free = eliminate(
            [LinearForm(*r) for r in rows], order)
        ref = _reference_eliminate(
            [({n: Fraction(k) for n, k in coeffs.items() if k},
              Fraction(const)) for coeffs, const in rows], order)
        assert [(v, _parts(g)) for v, g in chain] == ref[0], seed
        assert [_parts(e) for e in residual] == ref[1], seed
        assert free == ref[2], seed
        fractional += any(type(k) is Fraction for _, g in chain
                          for k in (*g.coeffs.values(), g.const))
    assert fractional >= 50
