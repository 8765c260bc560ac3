"""AST invariants: traversal, substitution, negation, validation."""

from dataclasses import replace
from fractions import Fraction

import pytest

from mathmorph.ast import (And, BinOp, BoolConst, Compare, Const,
                           ConstraintIte, Domain, FuncApp, Goal, Implies,
                           Not, Or, Pow, Problem, Quantifier, TermIte,
                           ValidationError, Var, children, conjuncts,
                           free_variables, make_and, negate, node_count,
                           rebuild, substitute_all, validate)
from mathmorph.parser import parse
from mathmorph.printer import print_smtlib
from conftest import read_fixture


def test_node_count_counts_every_node():
    e = BinOp("+", Var("x"), BinOp("*", Const(Fraction(2)), Var("y")))
    assert node_count(e) == 5


def test_free_variables_skips_bound_names():
    q = Quantifier("exists", (("y", Domain.REAL),),
                   Compare(Var("x"), "=",
                           BinOp("+", Var("y"), Const(Fraction(2)))))
    assert free_variables(q) == {"x"}


def test_free_variables_are_kept_on_the_node_out_of_its_fields():
    e = BinOp("*", Var("x"), BinOp("+", Var("y"), Const(Fraction(2))))
    fv = free_variables(e)
    assert type(fv) is frozenset and fv == {"x", "y"}
    assert free_variables(e) is fv
    # the kept set takes no part in equality, hashing, repr or replace
    twin = BinOp("*", Var("x"), BinOp("+", Var("y"), Const(Fraction(2))))
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    assert free_variables(replace(e, left=Var("z"))) == {"y", "z"}


def test_substitute_replaces_all_occurrences():
    e = BinOp("+", Var("x"), Var("x"))
    out = substitute_all(e, {"x": Const(Fraction(3))})
    assert node_count(out) == 3
    assert free_variables(out) == set()


def test_substitute_respects_shadowing():
    q = Quantifier("forall", (("x", Domain.REAL),),
                   Compare(Var("x"), ">", Var("y")))
    out = substitute_all(q, {"x": Const(Fraction(1))})
    assert out == q


def test_substitute_all_renames_free_occurrences():
    c = Compare(Var("a"), "=", BinOp("+", Var("a"), Var("b")))
    out = substitute_all(c, {"a": Var("d")})
    assert free_variables(out) == {"d", "b"}


def test_summation_index_is_bound():
    p = parse("(declare-fun n () Int)"
              "(assert (= n (summation i 1 4 (^ i 2))))(check-sat)")
    assert free_variables(p.constraints[0]) == {"n"}
    # substitution must not touch the bound index
    out = substitute_all(p.constraints[0].rhs, {"i": Const(Fraction(9))})
    assert out == p.constraints[0].rhs


def test_substitute_all_is_simultaneous_and_keeps_unchanged_subtrees():
    e = BinOp("+", Var("x"), BinOp("*", Const(Fraction(10)), Var("y")))
    out = substitute_all(e, {"x": Var("y"), "y": Const(Fraction(1))})
    assert out == BinOp("+", Var("y"),
                        BinOp("*", Const(Fraction(10)), Const(Fraction(1))))
    c = Compare(Var("z"), "=", e)
    assert substitute_all(c, {"w": Var("y")}) is c


def _node_types(v):
    """One node of each type without a binder, over the variable ``v``."""
    x, one = Var(v), Const(Fraction(1))
    lt = Compare(x, "<", one)
    return {"Pow": Pow(x, one), "FuncApp": FuncApp("gcd", (x, one)),
            "TermIte": TermIte(lt, x, one),
            "ConstraintIte": ConstraintIte(lt, BoolConst(True), lt),
            "And": And((lt, BoolConst(True))),
            "Or": Or((BoolConst(False), lt)),
            "Not": Not(lt), "Implies": Implies(lt, lt)}


@pytest.mark.parametrize("kind", list(_node_types("x")))
def test_substitute_all_rebuilds_every_node_type(kind):
    node = _node_types("x")[kind]
    assert substitute_all(node, {"x": Var("y")}) == _node_types("y")[kind]
    assert substitute_all(node, {"z": Var("y")}) is node


def test_substitute_all_rejects_a_non_ast_node():
    with pytest.raises(TypeError):
        substitute_all("x", {"x": Var("y")})


def test_substitute_renames_binders_that_would_capture():
    q = Quantifier("forall", (("y", Domain.REAL),),
                   Compare(Var("y"), ">", Var("x")))
    out = substitute_all(q, {"x": Var("y")})
    assert out.bindings[0][0] != "y"
    assert free_variables(out) == {"y"}
    p = parse("(declare-fun i () Int)(declare-fun k () Int)"
              "(assert (= k (summation i 1 3 (+ i k))))(check-sat)")
    s = p.constraints[0].rhs
    out = substitute_all(s, {"k": Var("i")})
    assert out.args[0] != Var("i")
    assert free_variables(out) == {"i"}


def test_negate_flips_comparisons():
    c = Compare(Var("x"), "<", Const(Fraction(1)))
    assert negate(c) == Compare(Var("x"), ">=", Const(Fraction(1)))
    assert negate(negate(c)) == c


def test_negate_pushes_through_every_connective():
    a = Compare(Var("x"), "=", Const(Fraction(0)))
    b = Compare(Var("y"), "<", Const(Fraction(1)))
    na, nb = negate(a), negate(b)
    binding = (("y", Domain.REAL),)
    assert negate(And((a, b))) == Or((na, nb))
    assert negate(Or((a, b))) == And((na, nb))
    assert negate(Implies(a, b)) == And((a, nb))
    assert negate(ConstraintIte(a, b, BoolConst(True))) \
        == ConstraintIte(a, nb, BoolConst(False))
    assert negate(Not(Or((a, b)))) == Or((a, b))
    assert negate(Quantifier("forall", binding, Or((a, b)))) \
        == Quantifier("exists", binding, And((na, nb)))
    assert negate(Quantifier("exists", binding, Implies(a, b))) \
        == Quantifier("forall", binding, And((a, nb)))


def test_and_requires_two_children():
    with pytest.raises(ValidationError):
        And((Compare(Var("x"), "=", Const(Fraction(0))),))


def test_conjuncts_and_make_and_round_trip():
    parts = [Compare(Var("x"), ">", Const(Fraction(0))),
             Compare(Var("y"), ">", Const(Fraction(0)))]
    assert conjuncts(make_and(parts)) == parts


def test_validate_rejects_undeclared_goal_target():
    p = parse("(declare-fun x () Real)(assert (> x 0))(check-sat)")
    with pytest.raises(ValidationError):
        bad = Problem(p.declarations, p.constraints,
                      Goal("get-value", (Var("ghost"),)), p.recursive_defs)
        validate(bad)


def test_validate_accepts_fixture_problems():
    for name in ("sara.smt2", "pages.smt2", "m1.smt2"):
        validate(parse(read_fixture(name)))


def test_problem_is_immutable():
    p = parse("(declare-fun x () Real)(assert (> x 0))(check-sat)")
    with pytest.raises(Exception):
        p.constraints = ()


def test_print_after_rename_stays_parseable():
    p = parse(read_fixture("sara.smt2"))
    env = {"rachel_budget": Var("cash")}
    renamed = Problem(
        tuple(("cash" if n == "rachel_budget" else n, d)
              for n, d in p.declarations),
        tuple(substitute_all(c, env) for c in p.constraints),
        Goal(p.goal.kind, tuple(substitute_all(t, env)
                                for t in p.goal.targets)),
        p.recursive_defs)
    parse(print_smtlib(renamed))


def test_rebuild_inverts_children():
    p = parse("(declare-fun x () Int)(declare-fun y () Real)"
              "(assert (exists ((k Int)) (and (=> (> x k) (not (= y pi)))"
              " (ite (< x 1) (>= (^ y 2) (summation k 1 3 (+ k x)))"
              " (<= (ite (> y 0) y (- y)) 5)))))(check-sat)")
    seen = set()

    def walk(node):
        seen.add(type(node).__name__)
        kids = list(children(node))
        assert rebuild(node, kids) == node
        for k in kids:
            walk(k)
    walk(p.constraints[0])
    assert seen >= {"Quantifier", "And", "Implies", "Not", "Compare",
                    "ConstraintIte", "Pow", "FuncApp", "TermIte", "BinOp",
                    "NamedConst", "Var", "Const"}
    leaf = Var("x")
    assert rebuild(leaf, []) is leaf
