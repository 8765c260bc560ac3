"""Parser / printer round trips and error reporting."""

import sys
from fractions import Fraction

import pytest

from mathmorph.ast import (BinOp, Compare, Const, Domain, NamedConst,
                           Quantifier, Var, free_variables)
from mathmorph.parser import (MAX_DEPTH, ArityMismatchError, ParseError,
                              UndeclaredVariableError,
                              UnsupportedCommandError, parse, tokenize)
from mathmorph.printer import (canonical_print, constraint_to_sexpr,
                               print_smtlib, render_infix)
from mathmorph.simplify import tactic_qe
from mathmorph.solver import SolverConfig, solve
from conftest import deep_script, read_fixture


def test_round_trip_preserves_source_lexemes():
    text = read_fixture("sara.smt2")
    assert print_smtlib(parse(text)) == text
    assert "50.0" in print_smtlib(parse(text))


def test_canonical_print_normalizes_lexemes():
    text = read_fixture("sara.smt2")
    out = canonical_print(parse(text))
    assert "50.0" not in out
    assert "(= sara_shoes_cost 50)" in out
    # canonical form is a fixpoint
    assert canonical_print(parse(out)) == out


def test_floats_parse_to_exact_rationals():
    p = parse("(declare-fun x () Real)(assert (= x 0.1))(check-sat)")
    c = p.constraints[0]
    assert c.rhs.value == Fraction(1, 10)


def test_a_token_that_is_no_numeral_is_a_name():
    p = parse("(declare-fun inf () Real)(declare-fun nan () Real)"
              "(declare-fun --1 () Real)(assert (= inf (+ nan --1)))"
              "(check-sat)")
    assert free_variables(p.constraints[0]) == {"inf", "nan", "--1"}


def test_positive_guard_absorbed_into_domain():
    p = parse("(declare-fun n () Int)(assert (>= n 1))"
              "(assert (= n 3))(check-sat)")
    assert dict(p.declarations)["n"] == Domain.POS
    assert len(p.constraints) == 1
    # the guard reappears on printing
    assert "(assert (>= n 1))" in print_smtlib(p)


def test_nat_guard_absorbed_into_domain():
    p = parse("(declare-fun n () Int)(assert (>= n 0))(check-sat)")
    assert dict(p.declarations)["n"] == Domain.NAT


def test_rational_literal_prints_as_division():
    p = parse("(declare-fun x () Real)(assert (= x (/ 1 2)))(check-sat)")
    assert "(/ 1 2)" in print_smtlib(p)


@pytest.mark.parametrize("term, tree", [
    ("(- x y 1)", BinOp("-", BinOp("-", Var("x"), Var("y")), Const(1))),
    ("(* x y 2)", BinOp("*", BinOp("*", Var("x"), Var("y")), Const(2))),
    ("(- x)", BinOp("-", Const(0), Var("x"))),
    ("(- 3)", Const(-3)),
    ("(/ 6 3 x)", BinOp("/", Const(2), Var("x"))),
    ("(/ 1 0)", BinOp("/", Const(1), Const(0))),
])
def test_arithmetic_folds_left(term, tree):
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              f"(assert (= x {term}))(check-sat)")
    assert p.constraints[0].rhs == tree


@pytest.mark.parametrize("term", ["(+ x)", "(/ x)", "(-)"])
def test_arithmetic_with_too_few_arguments_raises(term):
    with pytest.raises(ParseError):
        parse(f"(declare-fun x () Real)(assert (= x {term}))(check-sat)")


def test_undeclared_variable_raises():
    with pytest.raises(UndeclaredVariableError):
        parse("(assert (> x 0))(check-sat)")


def test_define_fun_substitutes_arguments_simultaneously():
    # the argument y for x must not be rewritten again by the binding y := 1
    p = parse("(declare-fun y () Int)(declare-fun r () Int)"
              "(define-fun f ((x Int) (y Int)) Int (+ x (* 10 y)))"
              "(assert (= y 3))(assert (= r (f y 1)))"
              "(check-sat)(get-value (r))")
    r = solve(p, SolverConfig(fallback_enabled=False))
    assert r.status == "sat"
    assert r.goal_values[0][1].value == 13


def chain(n, body):
    """``n`` macros ``m_i``, each defined by ``body`` over ``m_{i-1}``,
    after ``m_0 = x``; then an assert on the last."""
    lines = ["(declare-fun x () Int)(define-fun m_0 () Int x)"]
    lines += [f"(define-fun m_{i} () Int {body.format(f'm_{i - 1}')})"
              for i in range(1, n)]
    return "".join(lines) + f"(assert (= m_{n - 1} 3))(check-sat)"


def test_a_long_chain_of_alias_macros_parses():
    assert parse(chain(1200, "{}")) == parse(
        "(declare-fun x () Int)(assert (= x 3))(check-sat)")


def test_a_macro_body_deeper_than_the_cap_is_a_parse_error():
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels"):
        parse(chain(1200, "(+ {} 1)"))


def test_a_macro_body_resolves_names_where_it_is_defined():
    with pytest.raises(UndeclaredVariableError):
        parse("(define-fun m () Int y)(declare-fun y () Int)"
              "(assert (= m 1))(check-sat)")


def test_a_binder_at_the_use_site_does_not_capture_the_body_s_names():
    p = parse("(declare-fun x () Int)(define-fun m () Int (+ x 1))"
              "(assert (forall ((x Int)) (> m x)))(check-sat)")
    assert free_variables(p.constraints[0]) == {"x"}
    # a name the body cannot resolve is not bound by the use site either
    with pytest.raises(UndeclaredVariableError):
        parse("(declare-fun x () Int)(define-fun m () Int y)"
              "(assert (forall ((y Int)) (> m x)))(check-sat)")


@pytest.mark.parametrize("definition, error", [
    ("(define-fun pos () Bool (> x 0))", UnsupportedCommandError),
    ("(define-fun f (((a) Int)) Int 1)", ParseError),
], ids=["bool-sort", "list-parameter"])
def test_a_non_numeric_or_malformed_macro_is_refused(definition, error):
    with pytest.raises(error):
        parse(f"(declare-fun x () Int){definition}(assert (= x 1))"
              "(check-sat)")


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        parse("(declare-fun x () Int)(assert (= x (gcd 3)))(check-sat)")


def test_unsupported_command_raises():
    with pytest.raises(UnsupportedCommandError):
        parse("(declare-sort Weird 0)(check-sat)")


def test_unbalanced_input_raises():
    with pytest.raises(ParseError):
        parse("(declare-fun x () Int")


@pytest.mark.parametrize("shape", ["nested", "flat"])
def test_a_tree_at_the_depth_cap_parses_prints_and_solves(shape):
    p = parse(deep_script(shape, MAX_DEPTH))
    assert parse(print_smtlib(p)) == p
    for command in (None, [sys.executable, "-m", "mathmorph.minisolver"]):
        r = solve(p, SolverConfig(command=command))
        assert r.status == "sat"
        assert r.model["x"].value == MAX_DEPTH - 1


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3000])
@pytest.mark.parametrize("shape", ["nested", "flat"])
def test_a_tree_beyond_the_depth_cap_is_a_parse_error(shape, levels):
    with pytest.raises(ParseError):
        parse(deep_script(shape, levels))


def test_comment_rendering_marks_complex_constraints():
    text = read_fixture("pages.smt2")
    out = print_smtlib(parse(text), with_comments=True)
    assert "; (time_hours = " in out


@pytest.mark.parametrize("assertion, infix", [
    ("(= y (* 2 (+ x 1)))", "(y = (2 * (x + 1)))"),
    ("(distinct x (- y 2))", "(x != (y - 2))"),
    ("(< x (/ 1 3))", "(x < 1/3)"),
    ("(< x pi)", "(x < pi)"),
    ("(= y (^ x 2))", "(y = (x ^ 2))"),
    ("(= y (sqrt (+ x 1)))", "(y = sqrt((x + 1)))"),
    ("(= y (gcd k 4))", "(y = gcd(k, 4))"),
    ("(= y (ite (> x 0) x (- 1)))", "(y = ite((x > 0), x, -1))"),
    ("true", "true"),
    ("(and (> x 0) (< y 1))", "((x > 0) and (y < 1))"),
    ("(or (> x 0) (< y 0))", "((x > 0) or (y < 0))"),
    ("(not (= x y))", "(not (x = y))"),
    ("(=> (> x 0) (> y 0))", "((x > 0) => (y > 0))"),
    ("(ite (> x 0) (> y 0) (< y 0))", "ite((x > 0), (y > 0), (y < 0))"),
    ("(forall ((j Int)) (>= (* j j) 0))", "(forall j in Z. ((j * j) >= 0))"),
    ("(exists ((r Real)) (= x (* r r)))", "(exists r in R. (x = (r * r)))"),
], ids=["BinOp", "distinct", "Const", "NamedConst", "Pow", "FuncApp",
        "FuncApp-2", "TermIte", "BoolConst", "And", "Or", "Not", "Implies",
        "ConstraintIte", "forall", "exists"])
def test_render_infix_renders_every_node_type(assertion, infix):
    # these strings reach the prompts, as the comment above each assert
    p = parse("(declare-fun x () Real)(declare-fun y () Real)"
              f"(declare-fun k () Int)(assert {assertion})(check-sat)")
    assert render_infix(p.constraints[0]) == infix


def test_a_named_constant_prints_and_parses_back():
    text = ("(declare-fun x () Real)\n"
            "(assert (< (* 2 pi) x))\n"
            "(check-sat)\n")
    p = parse(text)
    assert p.constraints[0].lhs.right == NamedConst("pi")
    assert print_smtlib(p) == text


def test_a_nat_or_pos_binder_prints_its_guard():
    body = Compare(Var("k"), "!=", Const(Fraction(3)))
    forall = Quantifier("forall", (("k", Domain.NAT),), body)
    exists = Quantifier("exists", (("k", Domain.POS),), body)
    assert constraint_to_sexpr(forall) \
        == "(forall ((k Int)) (=> (>= k 0) (distinct k 3)))"
    assert constraint_to_sexpr(exists) \
        == "(exists ((k Int)) (and (>= k 1) (distinct k 3)))"
    # the text parses back to a quantifier that prints the same
    for q in (forall, exists):
        text = constraint_to_sexpr(q)
        back = parse(f"(declare-fun x () Real)(assert {text})(check-sat)")
        assert constraint_to_sexpr(back.constraints[0]) == text


def test_quantifier_round_trip():
    text = ("(declare-fun x () Real)\n"
            "(assert (exists ((y Real)) (and (> y 0) (= x (+ y 2)))))\n"
            "(check-sat)\n")
    assert print_smtlib(parse(text)) == text


def test_golden_chain_fixtures_round_trip():
    for name in ("m1.smt2", "m3_golden.smt2", "m4_golden.smt2"):
        text = read_fixture(name)
        assert print_smtlib(parse(text)) == text


def test_tokenize_reads_a_string_literal_as_one_atom():
    text = '(echo "a ;b ""q""\n(c")) x'
    assert [a.text for a in tokenize(text)] \
        == ["(", "echo", '"a ;b ""q""\n(c"', ")", ")", "x"]
    assert [(a.line, a.col) for a in tokenize(text)][-2:] == [(2, 5), (2, 7)]
    with pytest.raises(ParseError, match="unterminated"):
        list(tokenize('(echo "a)'))


ITE_SCRIPT = ("(declare-fun x () Int)\n"
              "(declare-fun y () Int)\n"
              "(assert (= x 5))\n"
              "(assert (= y (ite (> x (+ 1 2)) (* 2 3) x)))\n"
              "(check-sat)\n"
              "(get-value (y))\n")


def test_a_term_ite_prints_with_its_infix_comment_and_round_trips():
    p = parse(ITE_SCRIPT)
    lines = print_smtlib(p, with_comments=True).splitlines()
    assert lines[3:5] == ["; (y = ite((x > (1 + 2)), (2 * 3), x))",
                          "(assert (= y (ite (> x (+ 1 2)) (* 2 3) x)))"]
    assert print_smtlib(p) == ITE_SCRIPT
    assert solve(p).answer.value == 6


REC_SCRIPT = ("(define-fun-rec f ((n Int)) Int "
              "(ite (= n 0) 0 (+ n (f (- n 1)))))\n"
              "(declare-fun x () Int)\n"
              "(assert (= x (f 3)))\n"
              "(check-sat)\n"
              "(get-value (x))\n")


def test_define_fun_rec_is_kept_verbatim_and_answers_unknown():
    # kept for a solver command that can unfold it; the bundled solver
    # cannot evaluate the recursive function
    p = parse(REC_SCRIPT)
    assert p.recursive_defs == (REC_SCRIPT.splitlines()[0],)
    assert print_smtlib(p) == REC_SCRIPT
    for fallback in (True, False):
        r = solve(p, SolverConfig(fallback_enabled=fallback))
        assert r.status == "unknown" and r.answer is None


def test_binders_that_shadow_declarations_get_distinct_fresh_names():
    p = parse("(declare-fun x () Int)(declare-fun y () Int)"
              "(assert (= x 2))"
              "(assert (exists ((x Real) (y Real))"
              " (and (= x (+ y 1)) (= y (* 2 x)))))"
              "(assert (= y (+ x 1)))(check-sat)(get-value (y))")
    names = [n for n, _ in p.constraints[1].bindings]
    assert len(set(names)) == 2 and not set(names) & {"x", "y"}
    assert free_variables(p.constraints[1]) == set()
    assert solve(p).status == "unknown"
    out, record = tactic_qe(p)
    assert record.parameters == {"eliminated": [1]}
    assert solve(out).answer.value == 3
    # a fresh name avoids the enclosing binders too
    nested = parse("(declare-fun x () Real)(assert (exists ((x_1 Real))"
                   " (exists ((x Real)) (= x x_1))))").constraints[0]
    assert nested.body.bindings[0][0] not in ("x", "x_1")
    assert free_variables(nested.body) == {"x_1"}
