"""Deterministic SMT-LIB and infix printers."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .ast import (And, BinOp, BoolConst, Compare, Const, ConstraintIte,
                  FuncApp, Goal, Implies, NamedConst, Not, Or, Pow, Problem,
                  Quantifier, TermIte, Var, children, make_and, rebuild)

_SMT_REL = {"=": "=", "!=": "distinct", ">=": ">=", "<=": "<=",
            ">": ">", "<": "<"}


def _rational_sexpr(q: Fraction) -> str:
    if q < 0:
        return f"(- {_rational_sexpr(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def expr_to_sexpr(e) -> str:
    if isinstance(e, Const):
        if e.lexeme is not None:
            return e.lexeme
        return _rational_sexpr(e.value)
    if isinstance(e, NamedConst):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        if e.op == "-" and isinstance(e.left, Const) and e.left.value == 0:
            return f"(- {expr_to_sexpr(e.right)})"
        return f"({e.op} {expr_to_sexpr(e.left)} {expr_to_sexpr(e.right)})"
    if isinstance(e, Pow):
        return f"(^ {expr_to_sexpr(e.base)} {expr_to_sexpr(e.exponent)})"
    if isinstance(e, FuncApp):
        if not e.args:
            return e.name
        return f"({e.name} {' '.join(expr_to_sexpr(a) for a in e.args)})"
    if isinstance(e, TermIte):
        return (f"(ite {constraint_to_sexpr(e.cond)} "
                f"{expr_to_sexpr(e.then)} {expr_to_sexpr(e.els)})")
    raise TypeError(f"not an expression: {e!r}")


def constraint_to_sexpr(c) -> str:
    if isinstance(c, BoolConst):
        return "true" if c.value else "false"
    if isinstance(c, Compare):
        return (f"({_SMT_REL[c.rel]} {expr_to_sexpr(c.lhs)} "
                f"{expr_to_sexpr(c.rhs)})")
    if isinstance(c, And):
        return f"(and {' '.join(constraint_to_sexpr(i) for i in c.items)})"
    if isinstance(c, Or):
        return f"(or {' '.join(constraint_to_sexpr(i) for i in c.items)})"
    if isinstance(c, Not):
        return f"(not {constraint_to_sexpr(c.child)})"
    if isinstance(c, Implies):
        return (f"(=> {constraint_to_sexpr(c.antecedent)} "
                f"{constraint_to_sexpr(c.consequent)})")
    if isinstance(c, ConstraintIte):
        return (f"(ite {constraint_to_sexpr(c.cond)} "
                f"{constraint_to_sexpr(c.then)} {constraint_to_sexpr(c.els)})")
    if isinstance(c, Quantifier):
        body = c.body
        binds = [f"({name} {dom.smt_sort})" for name, dom in c.bindings]
        guards = [g for g in (dom.guard(name) for name, dom in c.bindings)
                  if g is not None]
        if guards:
            guard = make_and(guards)
            body = (Implies(guard, body) if c.kind == "forall"
                    else make_and(guards + [body]))
        return f"({c.kind} ({' '.join(binds)}) {constraint_to_sexpr(body)})"
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Infix rendering
# ---------------------------------------------------------------------------

def _rational_infix(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render_infix(node) -> str:
    """Fully parenthesized infix rendering of an expression or constraint."""
    if isinstance(node, Const):
        return _rational_infix(node.value)
    if isinstance(node, NamedConst):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, BinOp):
        return f"({render_infix(node.left)} {node.op} {render_infix(node.right)})"
    if isinstance(node, Pow):
        return f"({render_infix(node.base)} ^ {render_infix(node.exponent)})"
    if isinstance(node, FuncApp):
        return f"{node.name}({', '.join(render_infix(a) for a in node.args)})"
    if isinstance(node, TermIte):
        return (f"ite({render_infix(node.cond)}, {render_infix(node.then)}, "
                f"{render_infix(node.els)})")
    if isinstance(node, BoolConst):
        return "true" if node.value else "false"
    if isinstance(node, Compare):
        return f"({render_infix(node.lhs)} {node.rel} {render_infix(node.rhs)})"
    if isinstance(node, And):
        return f"({' and '.join(render_infix(i) for i in node.items)})"
    if isinstance(node, Or):
        return f"({' or '.join(render_infix(i) for i in node.items)})"
    if isinstance(node, Not):
        return f"(not {render_infix(node.child)})"
    if isinstance(node, Implies):
        return (f"({render_infix(node.antecedent)} => "
                f"{render_infix(node.consequent)})")
    if isinstance(node, ConstraintIte):
        return (f"ite({render_infix(node.cond)}, {render_infix(node.then)}, "
                f"{render_infix(node.els)})")
    if isinstance(node, Quantifier):
        binds = ", ".join(f"{n} in {d.value}" for n, d in node.bindings)
        return f"({node.kind} {binds}. {render_infix(node.body)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Whole-problem printing
# ---------------------------------------------------------------------------

def _operator_weight(node) -> int:
    own = 1 if isinstance(node, (BinOp, Pow, FuncApp, TermIte)) else 0
    return own + sum(_operator_weight(c) for c in children(node))


def _wants_comment(c) -> bool:
    # Comment only nontrivial asserts; simple bindings like (= x 144)
    # stay uncommented, matching the infix-comment style of the fixtures.
    return _operator_weight(c) >= 2


def print_smtlib(p: Problem, with_comments: bool = False) -> str:
    """Deterministic SMT-LIB 2 text for a Problem.

    NAT / POS domains emit an Int declaration followed by their
    ``(>= v k)`` side constraint; with ``with_comments`` every nontrivial
    assert is preceded by a ``;`` comment holding its infix rendering.
    """
    lines = []
    for raw in p.recursive_defs:
        lines.append(raw)
    for name, dom in p.declarations:
        lines.append(f"(declare-fun {name} () {dom.smt_sort})")
        guard = dom.guard(name)
        if guard is not None:
            lines.append(f"(assert {constraint_to_sexpr(guard)})")
    for c in p.constraints:
        if with_comments and _wants_comment(c):
            lines.append(f"; {render_infix(c)}")
        lines.append(f"(assert {constraint_to_sexpr(c)})")
    goal = p.goal
    if goal.kind in ("minimize", "maximize"):
        lines.append(f"({goal.kind} {expr_to_sexpr(goal.targets[0])})")
        lines.append("(check-sat)")
    else:
        lines.append("(check-sat)")
        if goal.targets:
            inner = " ".join(expr_to_sexpr(t) for t in goal.targets)
            lines.append(f"(get-value ({inner}))")
    return "\n".join(lines) + "\n"


def canonical_print(p: Problem) -> str:
    """Canonical text used for structural hashing: no comments, no
    source lexemes."""
    stripped = _strip_lexemes_problem(p)
    return print_smtlib(stripped, with_comments=False)


def _strip_lexemes(node):
    if isinstance(node, Const):
        return Const(node.value)
    return rebuild(node, [_strip_lexemes(k) for k in children(node)])


def _strip_lexemes_problem(p: Problem) -> Problem:
    return replace(p,
                   constraints=tuple(_strip_lexemes(c) for c in p.constraints),
                   goal=Goal(p.goal.kind, tuple(_strip_lexemes(t)
                                                for t in p.goal.targets)))
