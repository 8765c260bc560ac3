"""Symbolic helpers shared by the tactics and the bundled solver:
constant folding, linear decompositions, and closed-form equation solving.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .ast import (And, BinOp, BoolConst, Compare, Const, ConstraintIte,
                  FuncApp, NamedConst, Not, Or, Implies, Pow, Quantifier,
                  TermIte, Var, free_variables)
from .funcs import eval_expression


# ---------------------------------------------------------------------------
# Folding expression builders
# ---------------------------------------------------------------------------

def add_e(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return BinOp("+", a, b)


def sub_e(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    return BinOp("-", a, b)


def mul_e(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 1:
            return b
        if a.value == 0:
            return Const(Fraction(0))
    if isinstance(b, Const):
        if b.value == 1:
            return a
        if b.value == 0:
            return Const(Fraction(0))
    return BinOp("*", a, b)


def div_e(a, b):
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    return BinOp("/", a, b)


def neg_e(a):
    if isinstance(a, Const):
        return Const(-a.value)
    return BinOp("-", Const(Fraction(0)), a)


def scale_e(c: Fraction, e):
    if c == 0:
        return Const(Fraction(0))
    if c == 1:
        return e
    if c == -1:
        return neg_e(e)
    return mul_e(Const(c), e)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_constants(expr):
    """Bottom-up numeric folding; function applications with fully
    constant arguments fold through their exact evaluators."""
    if isinstance(expr, (Const, NamedConst, Var)):
        return expr
    if isinstance(expr, BinOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if expr.op == "/" and isinstance(right, Const) and right.value == 0:
            return BinOp(expr.op, left, right)
        return {"+": add_e, "-": sub_e, "*": mul_e,
                "/": div_e}[expr.op](left, right)
    if isinstance(expr, Pow):
        base = fold_constants(expr.base)
        expo = fold_constants(expr.exponent)
        if isinstance(base, Const) and isinstance(expo, Const) \
                and expo.value.denominator == 1:
            k = int(expo.value)
            if not (base.value == 0 and k < 0):
                return Const(base.value ** k)
        return Pow(base, expo)
    if isinstance(expr, FuncApp):
        args = tuple(fold_constants(a) for a in expr.args)
        app = FuncApp(expr.name, args)
        if not free_variables(app):
            try:
                v = eval_expression(app, {})
                if v.exact:
                    return Const(v.value)
            except Exception:
                pass
        return app
    if isinstance(expr, TermIte):
        return TermIte(fold_constraint(expr.cond), fold_constants(expr.then),
                       fold_constants(expr.els))
    raise TypeError(f"not an expression: {expr!r}")


def fold_constraint(c):
    if isinstance(c, BoolConst):
        return c
    if isinstance(c, Compare):
        return Compare(fold_constants(c.lhs), c.rel, fold_constants(c.rhs))
    if isinstance(c, And):
        return And(tuple(fold_constraint(i) for i in c.items))
    if isinstance(c, Or):
        return Or(tuple(fold_constraint(i) for i in c.items))
    if isinstance(c, Not):
        return Not(fold_constraint(c.child))
    if isinstance(c, Implies):
        return Implies(fold_constraint(c.antecedent),
                       fold_constraint(c.consequent))
    if isinstance(c, ConstraintIte):
        return ConstraintIte(fold_constraint(c.cond), fold_constraint(c.then),
                             fold_constraint(c.els))
    if isinstance(c, Quantifier):
        return Quantifier(c.kind, c.bindings, fold_constraint(c.body))
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Univariate linear decomposition: e == a*v + rest
# ---------------------------------------------------------------------------

def lin(expr, var: str):
    """Decompose ``expr`` as (a, rest) with expr == a*var + rest, ``a`` a
    rational constant and ``rest`` free of ``var``.  None if not of this
    shape."""
    if isinstance(expr, Var):
        if expr.name == var:
            return Fraction(1), Const(Fraction(0))
        return Fraction(0), expr
    if isinstance(expr, (Const, NamedConst)):
        return Fraction(0), expr
    if var not in free_variables(expr):
        return Fraction(0), expr
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            l = lin(expr.left, var)
            r = lin(expr.right, var)
            if l is None or r is None:
                return None
            la, lb = l
            ra, rb = r
            if expr.op == "+":
                return la + ra, add_e(lb, rb)
            return la - ra, sub_e(lb, rb)
        if expr.op == "*":
            if isinstance(expr.left, Const):
                r = lin(expr.right, var)
                if r is None:
                    return None
                ra, rb = r
                return expr.left.value * ra, scale_e(expr.left.value, rb)
            if isinstance(expr.right, Const):
                l = lin(expr.left, var)
                if l is None:
                    return None
                la, lb = l
                return expr.right.value * la, scale_e(expr.right.value, lb)
            return None
        if expr.op == "/":
            if isinstance(expr.right, Const) and expr.right.value != 0:
                l = lin(expr.left, var)
                if l is None:
                    return None
                la, lb = l
                return la / expr.right.value, div_e(lb, expr.right)
            return None
    return None


def solve_for(lhs, rhs, var: str):
    """Solve the equation lhs = rhs for ``var`` in closed form when the
    variable occurs linearly; returns the defining expression or None.
    The expression is free of ``var``, because ``lin`` only accepts a
    remainder that is."""
    l = lin(lhs, var)
    r = lin(rhs, var)
    if l is None or r is None:
        return None
    la, lb = l
    ra, rb = r
    a = la - ra
    if a == 0:
        return None
    if a == 1:
        sol = sub_e(rb, lb)
    elif a == -1:
        sol = sub_e(lb, rb)
    else:
        sol = div_e(sub_e(rb, lb), Const(a))
    return fold_constants(sol)


# ---------------------------------------------------------------------------
# Multivariate linear forms (for Gaussian / Fourier-Motzkin reasoning)
# ---------------------------------------------------------------------------

class LinearForm:
    """sum(coeffs[v] * v) + const, with rational coefficients."""

    def __init__(self, coeffs=None, const=Fraction(0)):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self.const = Fraction(const)

    def __add__(self, other):
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, Fraction(0)) + c
        return LinearForm(out, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, k: Fraction):
        return LinearForm({v: c * k for v, c in self.coeffs.items()},
                          self.const * k)

    def is_constant(self):
        return not self.coeffs

    def substitute(self, v: str, g: "LinearForm") -> "LinearForm":
        """Replace variable ``v`` by the linear form ``g``."""
        c = self.coeffs.get(v)
        if not c:
            return self
        reduced = LinearForm({u: k for u, k in self.coeffs.items() if u != v},
                             self.const)
        return reduced + g.scale(c)


def eliminate(eqs, order):
    """Gaussian elimination over the equations ``f = 0``.

    The pivot is the first equation in list order that has a variable
    left in ``order``, on the first such variable in ``order``.  Returns
    ``(chain, residual, free)``: the chain lists ``(v, g)`` with ``v = g``
    in elimination order, each ``g`` over the variables still free at
    that step; the residual holds the equations left with no variable of
    ``order`` (a nonzero constant one is inconsistent); ``free`` keeps the
    variables of ``order`` that were not eliminated, in order.
    """
    eqs, free, chain = list(eqs), list(order), []
    while True:
        pick = next(((f, v) for f in eqs for v in free if v in f.coeffs),
                    None)
        if pick is None:
            return chain, eqs, free
        f, v = pick
        a = f.coeffs[v]
        g = LinearForm({u: -k / a for u, k in f.coeffs.items() if u != v},
                       -f.const / a)
        eqs = [e.substitute(v, g) for e in eqs if e is not f]
        chain.append((v, g))
        free.remove(v)


def linear_form(expr, variables) -> Optional[LinearForm]:
    """Linear form of ``expr`` over ``variables``; other symbols must not
    occur.  None when nonlinear."""
    if isinstance(expr, Const):
        return LinearForm(const=expr.value)
    if isinstance(expr, Var):
        if expr.name in variables:
            return LinearForm({expr.name: Fraction(1)})
        return None
    if isinstance(expr, BinOp):
        a = linear_form(expr.left, variables)
        b = linear_form(expr.right, variables)
        if a is None or b is None:
            return None
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            if a.is_constant():
                return b.scale(a.const)
            if b.is_constant():
                return a.scale(b.const)
            return None
        if b.is_constant() and b.const != 0:
            return a.scale(1 / b.const)
        return None
    if isinstance(expr, Pow):
        if isinstance(expr.exponent, Const) and expr.exponent.value == 1:
            return linear_form(expr.base, variables)
        inner = linear_form(expr.base, variables)
        if inner is not None and inner.is_constant() \
                and isinstance(expr.exponent, Const) \
                and expr.exponent.value.denominator == 1:
            k = int(expr.exponent.value)
            if inner.const == 0 and k < 0:
                return None
            return LinearForm(const=inner.const ** k)
        return None
    return None
