"""Symbolic helpers shared by the tactics and the bundled solver:
constant folding, linear decompositions, and closed-form equation solving.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .ast import (BinOp, Compare, Const, FuncApp, NamedConst, Pow, TermIte,
                  Var, children, free_variables, rebuild, substitute_all)
from .funcs import DomainError, exact_value, power


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
            try:
                return Const(power(base.value, int(expo.value)))
            except DomainError:
                pass
        return Pow(base, expo)
    if isinstance(expr, FuncApp):
        args = tuple(fold_constants(a) for a in expr.args)
        app = FuncApp(expr.name, args)
        v = None if free_variables(app) else exact_value(app)
        return app if v is None else Const(v)
    if isinstance(expr, TermIte):
        return TermIte(fold_constraint(expr.cond), fold_constants(expr.then),
                       fold_constants(expr.els))
    raise TypeError(f"not an expression: {expr!r}")


def fold_constraint(c):
    """``fold_constants`` applied to both sides of every comparison."""
    if isinstance(c, Compare):
        return Compare(fold_constants(c.lhs), c.rel, fold_constants(c.rhs))
    return rebuild(c, [fold_constraint(k) for k in children(c)])


def substitute_model(node, model):
    """``node``, unfolded, with a ``Const`` for each variable ``model``
    values, in one walk; ``node`` itself when ``model`` values none."""
    hit = free_variables(node) & model.keys()
    return substitute_all(node, {v: Const(model[v].value) for v in hit}) \
        if hit else node


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


FLIPPED = {">=": "<=", "<=": ">=", ">": "<", "<": ">", "=": "=", "!=": "!="}


def bound(c: Compare, v: str):
    """Read ``c`` as ``v rel rest``: returns ``(rel, rest)`` with ``rest``
    folded and free of ``v``, the relation flipped when ``v``'s
    coefficient is negative.  None when ``v`` is not linear on both sides
    or its coefficient cancels."""
    l = lin(c.lhs, v)
    r = lin(c.rhs, v)
    if l is None or r is None:
        return None
    a = l[0] - r[0]
    if a == 0:
        return None
    rest = fold_constants(div_e(sub_e(r[1], l[1]), Const(a)))
    return (FLIPPED[c.rel] if a < 0 else c.rel), rest


def const_bound(c, v: str):
    """``bound(c, v)`` as ``(rel, value)`` when the rest is a ``Const``,
    else None, as for an atom folded to a ``BoolConst``.  On a folded atom,
    a variable other than ``v`` stays in the rest, which is no ``Const``."""
    b = bound(c, v) if type(c) is Compare else None
    return (b[0], b[1].value) if b and type(b[1]) is Const else None


def int_range(rel: str, value: Fraction):
    """Integers ``n`` with ``n rel value`` as ``(lo, hi)``, None for an
    open side (both sides for ``!=``).  ``=`` gives ``(ceil, floor)``, an
    empty range when ``value`` is not an integer."""
    lo = hi = None
    if rel in ("<", "<=", "="):
        hi = math.floor(value)
        if rel == "<" and hi == value:
            hi -= 1
    if rel in (">", ">=", "="):
        lo = math.ceil(value)
        if rel == ">" and lo == value:
            lo += 1
    return lo, hi


# ---------------------------------------------------------------------------
# Multivariate linear forms (for Gaussian / Fourier-Motzkin reasoning)
# ---------------------------------------------------------------------------

class LinearForm:
    """sum(coeffs[v] * v) + const.  Each coefficient and the constant is
    an int where it is integral, else a Fraction, never a float; a form is
    never changed in place, so an operation may return an operand."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {v: exact(c) for v, c in (coeffs or {}).items() if c}
        self.const = exact(const)

    def __add__(self, other):
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0) + c
        return LinearForm(out, self.const + other.const)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0) - c
        return LinearForm(out, self.const - other.const)

    def scale(self, k):
        if k == 1:
            return self
        return LinearForm({v: c * k for v, c in self.coeffs.items()},
                          self.const * k)

    def is_constant(self):
        return not self.coeffs

    def isolate(self, v: str) -> "LinearForm":
        """The form ``g`` with ``v = g`` wherever ``self = 0``."""
        a = -self.coeffs[v]
        return LinearForm({u: quotient(k, a) for u, k in self.coeffs.items()
                           if u != v}, quotient(self.const, a))

    def substitute(self, v: str, g: "LinearForm") -> "LinearForm":
        """Replace variable ``v`` by the linear form ``g``."""
        c = self.coeffs.get(v)
        if not c:
            return self
        reduced = LinearForm({u: k for u, k in self.coeffs.items() if u != v},
                             self.const)
        return reduced + g.scale(c)


def exact(q):
    """The rational ``q`` as an int where it is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def quotient(p, q):
    """``p / q`` exactly: an int where it is integral, else a Fraction."""
    if type(p) is int and type(q) is int and not p % q:
        return p // q
    return exact(Fraction(p, q))


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
        g = f.isolate(v)
        eqs = [e.substitute(v, g) for e in eqs if e is not f]
        chain.append((v, g))
        free.remove(v)


def has_integer_point(eqs, ints) -> bool:
    """False when the equations ``f = 0`` have no point at which every
    variable of ``ints`` is an integer.  The other variables are eliminated
    over the rationals; each equation left is scaled to integers and
    reduced over Z by unimodular column steps (the equality step of Pugh's
    Omega test), which refutes ``Σ aᵢxᵢ = k`` with ``gcd(aᵢ) ∤ k``."""
    rows = []
    reals = dict.fromkeys(v for f in eqs for v in f.coeffs if v not in ints)
    for f in eliminate(eqs, reals)[1]:
        m = math.lcm(*(k.denominator for k in (f.const, *f.coeffs.values())))
        rows.append([{v: int(k * m) for v, k in f.coeffs.items()},
                     int(f.const * m)])
    while rows:
        row, k = rows.pop()
        g = math.gcd(*row.values())
        if (k % g if g else k):
            return False
        # writing x_v - q·x_u for x_v in every row takes row[u] to
        # row[u] mod row[v], as Euclid's algorithm does, until one
        # variable is left, with coefficient ±g: it is fixed at -k / a
        while len(row) > 1:
            v = min(row, key=lambda u: abs(row[u]))
            for u in [u for u in row if u != v]:
                q = row[u] // row[v]
                for r, _ in [*rows, (row, k)]:
                    if v in r:
                        r[u] = r.get(u, 0) - q * r[v]
                        if not r[u]:
                            del r[u]
        for v, a in row.items():
            for r in rows:
                if v in r[0]:
                    r[1] += r[0].pop(v) * (-k // a)
    return True


def linear_form(expr, variables, model=None) -> Optional[LinearForm]:
    """Linear form over ``variables`` of what folding (``fold_constants``)
    leaves of ``expr``, read in one walk; other symbols must not occur.
    None when nonlinear.  With ``model``, a variable it assigns reads as
    its value, as if substituted before folding, and a function
    application is substituted and folded alone, which is what folding
    the whole term leaves of it; without one it reads as nonlinear."""
    f = _read(expr, variables, model)
    return f if f is None or type(f) is LinearForm else LinearForm(const=f)


def _read(expr, variables, model):
    """``linear_form``, but a value where folding leaves a ``Const``: a
    ``Const`` 0 factor zeroes a product, a ``Const`` 0 divisor keeps a
    nonlinear quotient, and a side whose form is 0 is no ``Const``."""
    t = type(expr)
    if t is Const:
        return exact(expr.value)
    if t is Var:
        if model and expr.name in model:
            return exact(model[expr.name].value)
        return LinearForm({expr.name: 1}) if expr.name in variables else None
    if t is Pow:
        b = _read(expr.base, variables, model)
        k = _read(expr.exponent, variables, model)
        if k is None or type(k) is LinearForm or k.denominator != 1:
            return None
        if b is not None and type(b) is not LinearForm:
            try:
                return exact(power(Fraction(b), k))
            except DomainError:
                b = LinearForm(const=b)     # the power stays
        if k == 1 or b is None or not b.is_constant():
            return b if k == 1 else None
        try:
            return LinearForm(const=power(Fraction(b.const), k))
        except DomainError:
            return None
    if t is not BinOp:
        if t is not FuncApp or model is None:
            return None
        folded = fold_constants(substitute_model(expr, model))
        return exact(folded.value) if type(folded) is Const else None
    a = _read(expr.left, variables, model)
    b = _read(expr.right, variables, model)
    op = expr.op
    a_k = a is not None and type(a) is not LinearForm
    b_k = b is not None and type(b) is not LinearForm
    if op == "*" and (a_k and not a or b_k and not b):
        return 0
    if a_k and b_k and (b or op != "/"):
        if op == "/":
            return quotient(a, b)
        return exact(a + b if op == "+" else a - b if op == "-" else a * b)
    if a is None or b is None:
        return None
    a, b = (LinearForm(const=a) if a_k else a), \
        (LinearForm(const=b) if b_k else b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        if a.is_constant():
            return b.scale(a.const)
        return a.scale(b.const) if b.is_constant() else None
    if b.is_constant() and b.const != 0:
        return a.scale(quotient(1, b.const))
    return None


def is_integral(expr, int_vars) -> bool:
    """True when ``expr`` is a linear form with integer coefficients over
    ``int_vars`` and an integer constant, so it is an integer wherever
    they are."""
    f = linear_form(expr, int_vars)
    return f is not None and all(type(k) is int
                                 for k in (f.const, *f.coeffs.values()))
