"""Table and semantics of the pre-defined interpreted functions.

Each function carries a numeric evaluator (exact rationals wherever the
result is representable, high-precision decimals otherwise), a symbolic
reduction rule and, where ``math`` has one, a float twin.  Transcendental
results are computed with mpmath at 30 significant digits and converted
back to rationals; the documented precision of such values is 1e-25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import mpmath

from .ast import (BinOp, BoolConst, Compare, Const, ConstraintIte, Domain,
                  FuncApp, MathMorphError, NamedConst, Not, And, Or, Implies,
                  Pow, Quantifier, TermIte, Var, free_variables, negate,
                  node_count, substitute_all)

mpmath.mp.dps = 30

#: absolute slack used when comparing inexact (transcendental) values
APPROX_TOL = Fraction(1, 10 ** 9)

#: a float value's sign is trusted beyond FLOAT_MARGIN times its scale
FLOAT_MARGIN = 1e-9

#: most digits the numerator or denominator of an exact number may have;
#: under Python's 4,300-digit limit for printing an int
MAX_DIGITS = 4_000


class DomainError(MathMorphError):
    """Argument outside a function's domain of definition."""


class UnknownFunctionError(MathMorphError):
    pass


class UnboundVariableError(MathMorphError):
    pass


class Num(NamedTuple):
    """A numeric value: exact rational, or rational approximation."""
    value: Fraction
    exact: bool = True


def coerce_to_domain(dom: Domain, val: Num):
    """``val`` as a value of ``dom``, or None when it breaks the domain.
    Integer domains reject an exact fraction, round an inexact value
    lying within APPROX_TOL of an integer, and apply the lower bound."""
    if dom.is_integer:
        if val.exact:
            if val.value.denominator != 1:
                return None
        else:
            rounded = Fraction(round(val.value))
            if abs(rounded - val.value) > APPROX_TOL:
                return None
            val = Num(rounded, exact=False)
        lb = dom.lower_bound
        if lb is not None and val.value < lb:
            return None
    return val


def _approx(x) -> Num:
    """High-precision mpmath value converted to a rational approximation;
    raises ``DomainError`` when that rational would have more than
    ``MAX_DIGITS`` digits, or an exponent past ``Decimal``'s range."""
    try:
        d = Decimal(mpmath.nstr(x, 25))
    except InvalidOperation:
        raise DomainError(f"value exceeds {MAX_DIGITS} digits") from None
    if not d.is_finite() or abs(d.adjusted()) >= MAX_DIGITS:
        raise DomainError(f"value exceeds {MAX_DIGITS} digits")
    return Num(Fraction(d), exact=False)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _require_int(v: Num, fn: str) -> int:
    if not v.exact or v.value.denominator != 1:
        raise DomainError(f"{fn} expects integer arguments, got {v.value}")
    return int(v.value)


# ---------------------------------------------------------------------------
# Special-angle table for exact trig (multiples of pi/6 and pi/4)
# ---------------------------------------------------------------------------

# sin at k*pi/12 for the multiples where the value is rational; other
# special angles (sqrt(2)/2 etc.) are irrational and handled numerically.
_SIN_TABLE = {
    Fraction(0): Fraction(0),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
    Fraction(7, 6): Fraction(-1, 2),
    Fraction(11, 6): Fraction(-1, 2),
    Fraction(1, 2): Fraction(1),
    Fraction(3, 2): Fraction(-1),
    Fraction(1): Fraction(0),
}


def _pi_multiple(expr) -> Optional[Fraction]:
    """If ``expr`` is an exact rational multiple of pi, return the ratio."""
    if isinstance(expr, NamedConst) and expr.name == "pi":
        return Fraction(1)
    if isinstance(expr, BinOp):
        if expr.op == "/" and isinstance(expr.right, Const):
            m = _pi_multiple(expr.left)
            if m is not None and expr.right.value != 0:
                return m / expr.right.value
        if expr.op == "*":
            if isinstance(expr.left, Const):
                m = _pi_multiple(expr.right)
                if m is not None:
                    return m * expr.left.value
            if isinstance(expr.right, Const):
                m = _pi_multiple(expr.left)
                if m is not None:
                    return m * expr.right.value
    if isinstance(expr, Const) and expr.value == 0:
        return Fraction(0)
    return None


def _sin_exact(ratio: Fraction) -> Optional[Fraction]:
    return _SIN_TABLE.get(ratio % 2)


def _cos_exact(ratio: Fraction) -> Optional[Fraction]:
    return _sin_exact(ratio + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionDescriptor:
    arity: int
    evaluator: Callable            # (app, assignment) -> Num
    reducer: Callable              # (app) -> Expression
    twin: Optional[Callable] = None    # (x, scale) -> (y, scale) on floats


# ---------------------------------------------------------------------------
# Generic expression / constraint evaluation
# ---------------------------------------------------------------------------

def eval_expression(expr, assignment) -> Num:
    """Evaluate an expression under ``assignment`` (name -> Fraction/Num)."""
    if isinstance(expr, Const):
        return Num(expr.value)
    if isinstance(expr, NamedConst):
        return _approx(mpmath.pi if expr.name == "pi" else mpmath.e)
    if isinstance(expr, Var):
        if expr.name not in assignment:
            raise UnboundVariableError(f"unbound variable: {expr.name}")
        v = assignment[expr.name]
        return v if isinstance(v, Num) else Num(Fraction(v))
    if isinstance(expr, BinOp):
        a = eval_expression(expr.left, assignment)
        b = eval_expression(expr.right, assignment)
        exact = a.exact and b.exact
        if expr.op == "+":
            return Num(a.value + b.value, exact)
        if expr.op == "-":
            return Num(a.value - b.value, exact)
        if expr.op == "*":
            return Num(a.value * b.value, exact)
        if b.value == 0:
            raise DomainError("division by zero")
        return Num(a.value / b.value, exact)
    if isinstance(expr, Pow):
        base = eval_expression(expr.base, assignment)
        expo = eval_expression(expr.exponent, assignment)
        if expo.exact and expo.value.denominator == 1:
            return Num(power(base.value, int(expo.value)), base.exact)
        if base.value < 0:
            raise DomainError("negative base with non-integer exponent")
        return _approx(mpmath.power(_mpf(base.value), _mpf(expo.value)))
    if isinstance(expr, FuncApp):
        desc = lookup(expr.name)
        if desc.arity != len(expr.args):
            raise MathMorphError(
                f"{expr.name} expects {desc.arity} argument(s)")
        return desc.evaluator(expr, assignment)
    if isinstance(expr, TermIte):
        if eval_constraint(expr.cond, assignment):
            return eval_expression(expr.then, assignment)
        return eval_expression(expr.els, assignment)
    raise TypeError(f"not an expression: {expr!r}")


def exact_value(expr) -> Optional[Fraction]:
    """The exact value of the ground term ``expr``; None when its value is
    inexact or evaluating it raises a ``MathMorphError``."""
    try:
        num = eval_expression(expr, {})
    except MathMorphError:
        return None
    return num.value if num.exact else None


def power(q: Fraction, k: int) -> Fraction:
    """``q ** k``; raises ``DomainError`` for zero to a negative power and,
    before computing, for a result of more than ``MAX_DIGITS`` digits."""
    if q == 0 and k < 0:
        raise DomainError("zero to a negative power")
    largest = max(abs(q.numerator), q.denominator)
    if largest > 1 and abs(k) >= MAX_DIGITS / math.log10(largest):
        raise DomainError(f"power exceeds {MAX_DIGITS} digits")
    return q ** k


def eval_constraint(c, assignment) -> bool:
    """Evaluate a constraint to a truth value under a total assignment.

    Comparisons between inexact values allow an absolute slack of
    ``APPROX_TOL``, under a negation too: ``Not`` and the antecedent of
    ``Implies`` are negated down to the comparisons.  Quantifiers cannot
    be evaluated and raise.
    """
    if isinstance(c, BoolConst):
        return c.value
    if isinstance(c, Compare):
        a = eval_expression(c.lhs, assignment)
        b = eval_expression(c.rhs, assignment)
        diff = a.value - b.value
        tol = Fraction(0) if (a.exact and b.exact) else APPROX_TOL
        if c.rel == "=":
            return abs(diff) <= tol
        if c.rel == "!=":
            return abs(diff) > tol
        if c.rel == ">=":
            return diff >= -tol
        if c.rel == "<=":
            return diff <= tol
        if c.rel == ">":
            return diff > -tol
        return diff < tol
    if isinstance(c, And):
        return all(eval_constraint(i, assignment) for i in c.items)
    if isinstance(c, Or):
        return any(eval_constraint(i, assignment) for i in c.items)
    if isinstance(c, Not):
        return eval_constraint(negate(c.child), assignment)
    if isinstance(c, Implies):
        return (eval_constraint(negate(c.antecedent), assignment)
                or eval_constraint(c.consequent, assignment))
    if isinstance(c, ConstraintIte):
        if eval_constraint(c.cond, assignment):
            return eval_constraint(c.then, assignment)
        return eval_constraint(c.els, assignment)
    if isinstance(c, Quantifier):
        raise MathMorphError("cannot evaluate a quantified constraint")
    raise TypeError(f"not a constraint: {c!r}")


# ---------------------------------------------------------------------------
# Polynomials (derivative / integral reductions, tactic_simplify's power
# expansion) and the content helpers of the gcd reduction
# ---------------------------------------------------------------------------

def polynomial(expr, max_exponent=None) -> Optional[dict]:
    """``expr`` as ``{monomial: coeff}`` with rational coefficients, where
    a monomial is a sorted tuple of ``(variable, power)`` pairs; None when
    it is not a polynomial.  Division is by a nonzero constant only, and
    an exponent must be a non-negative integer constant, at most
    ``max_exponent`` when one is given."""
    if isinstance(expr, Const):
        return {(): expr.value} if expr.value else {}
    if isinstance(expr, Var):
        return {((expr.name, 1),): Fraction(1)}
    if isinstance(expr, BinOp):
        a = polynomial(expr.left, max_exponent)
        b = polynomial(expr.right, max_exponent)
        if a is None or b is None:
            return None
        if expr.op == "*":
            return _poly_mul(a, b)
        if expr.op == "/":
            if set(b) != {()}:
                return None
            return {m: c / b[()] for m, c in a.items()}
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + (c if expr.op == "+" else -c)
        return {m: c for m, c in out.items() if c}
    if isinstance(expr, Pow):
        k = expr.exponent.value if isinstance(expr.exponent, Const) else None
        if k is None or k.denominator != 1 or k < 0 \
                or (max_exponent is not None and k > max_exponent):
            return None
        base = polynomial(expr.base, max_exponent)
        if base is None:
            return None
        out = {(): Fraction(1)}
        for _ in range(int(k)):
            out = _poly_mul(out, base)
        return out
    return None


def _poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            powers = dict(m1)
            for v, k in m2:
                powers[v] = powers.get(v, 0) + k
            key = tuple(sorted(powers.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_expr(poly: dict):
    """The expression of a ``polynomial``: terms by total degree
    descending, then by monomial, left-associated additions and
    subtractions, and a leading negative term as ``(- 0 t)``."""
    acc = None
    for m, c in sorted(poly.items(),
                       key=lambda it: (-sum(k for _, k in it[0]), it[0])):
        t = None
        for v, k in m:
            f = Var(v) if k == 1 else Pow(Var(v), Const(Fraction(k)))
            t = f if t is None else BinOp("*", t, f)
        if t is None or abs(c) != 1:
            t = Const(abs(c)) if t is None else BinOp("*", Const(abs(c)), t)
        if acc is None:
            acc = BinOp("-", Const(Fraction(0)), t) if c < 0 else t
        else:
            acc = BinOp("-" if c < 0 else "+", acc, t)
    return Const(Fraction(0)) if acc is None else acc


def _univariate(expr, var) -> Optional[dict]:
    """``{degree: coeff}`` of ``expr`` as a polynomial in the variable
    ``var`` with constant coefficients, or None."""
    if not (isinstance(var, Var) and free_variables(expr) <= {var.name}):
        return None
    poly = polynomial(expr)
    return None if poly is None else \
        {(m[0][1] if m else 0): c for m, c in poly.items()}


def _content(expr):
    """Numeric content of an expression: (c, residual) with
    expr == c * residual and c a positive rational."""
    if isinstance(expr, Const):
        if expr.value == 0:
            return Fraction(1), expr
        return abs(expr.value), Const(Fraction(1 if expr.value > 0 else -1))
    if isinstance(expr, BinOp):
        if expr.op == "*":
            ca, ra = _content(expr.left)
            cb, rb = _content(expr.right)
            return ca * cb, _mul(ra, rb)
        if expr.op in ("+", "-"):
            ca, ra = _content(expr.left)
            cb, rb = _content(expr.right)
            g = _frac_gcd(ca, cb)
            return g, BinOp(expr.op, _scale(ca / g, ra), _scale(cb / g, rb))
    return Fraction(1), expr


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator,
                             b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _mul(a, b):
    if isinstance(a, Const) and a.value == 1:
        return b
    if isinstance(b, Const) and b.value == 1:
        return a
    return BinOp("*", a, b)


def _scale(c: Fraction, expr):
    if c == 1:
        return expr
    if isinstance(expr, Const):
        return Const(c * expr.value)
    return BinOp("*", Const(c), expr)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

def _ev_args(app, assignment):
    return [eval_expression(a, assignment) for a in app.args]


def _ev_identity(app, assignment):
    return eval_expression(app.args[0], assignment)


def _ev_log(app, assignment):
    (v,) = _ev_args(app, assignment)
    if v.value <= 0:
        raise DomainError("log of non-positive value")
    if v.value == 1:
        return Num(Fraction(0), v.exact)
    return _approx(mpmath.log(_mpf(v.value)))


def _ev_exp(app, assignment):
    (v,) = _ev_args(app, assignment)
    if v.value == 0:
        return Num(Fraction(1), v.exact)
    return _approx(mpmath.exp(_mpf(v.value)))


def _ev_trig(fn, exact_table):
    def ev(app, assignment):
        ratio = _pi_multiple(app.args[0])
        if ratio is not None:
            exact = exact_table(ratio)
            if exact is not None:
                return Num(exact)
        (v,) = _ev_args(app, assignment)
        return _approx(fn(_mpf(v.value)))
    return ev


def _ev_arcsin(app, assignment):
    (v,) = _ev_args(app, assignment)
    if not -1 <= v.value <= 1:
        raise DomainError("arcsin argument outside [-1, 1]")
    if v.value == 0:
        return Num(Fraction(0), v.exact)
    return _approx(mpmath.asin(_mpf(v.value)))


def _ev_sqrt(app, assignment):
    (v,) = _ev_args(app, assignment)
    if v.value < 0:
        raise DomainError("sqrt of negative value")
    r = _exact_sqrt(v.value)
    if v.exact and r is not None:
        return Num(r)
    return _approx(mpmath.sqrt(_mpf(v.value)))


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    n = math.isqrt(q.numerator)
    d = math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def _ev_abs(app, assignment):
    (v,) = _ev_args(app, assignment)
    return Num(abs(v.value), v.exact)


def _ev_gcd(app, assignment):
    a, b = (_require_int(v, "gcd") for v in _ev_args(app, assignment))
    return Num(Fraction(math.gcd(a, b)))


def _ev_lcm(app, assignment):
    a, b = (_require_int(v, "lcm") for v in _ev_args(app, assignment))
    return Num(Fraction(math.lcm(a, b)))


def _ev_binomial(app, assignment):
    n, k = (_require_int(v, "binomial")
            for v in _ev_args(app, assignment))
    if n < 0 or k < 0:
        raise DomainError("binomial expects nonnegative arguments")
    digits = 0.0
    for i in range(min(k, n - k)):      # log10 C(n, i + 1), increasing
        digits += math.log10(n - i) - math.log10(i + 1)
        if digits >= MAX_DIGITS:
            raise DomainError(f"binomial exceeds {MAX_DIGITS} digits")
    return Num(Fraction(math.comb(n, k)))


def _ev_factorial(app, assignment):
    (v,) = _ev_args(app, assignment)
    n = _require_int(v, "factorial")
    if n < 0:
        raise DomainError("factorial of a negative value")
    # MAX_DIGITS! has far more than MAX_DIGITS digits
    if math.lgamma(min(n, MAX_DIGITS) + 1) / math.log(10) >= MAX_DIGITS:
        raise DomainError(f"factorial exceeds {MAX_DIGITS} digits")
    return Num(Fraction(math.factorial(n)))


_SUMMATION_CAP = 100_000


def _ev_summation(app, assignment):
    idx, lo_e, hi_e, body = app.args
    if not isinstance(idx, Var):
        raise DomainError("summation index must be a variable")
    lo = eval_expression(lo_e, assignment)
    hi = eval_expression(hi_e, assignment)
    lo_i, hi_i = _require_int(lo, "summation"), _require_int(hi, "summation")
    if hi_i - lo_i > _SUMMATION_CAP:
        raise DomainError("summation range too large")
    total, exact = Fraction(0), True
    inner = dict(assignment)
    for i in range(lo_i, hi_i + 1):
        inner[idx.name] = Num(Fraction(i))
        v = eval_expression(body, inner)
        total += v.value
        exact = exact and v.exact
    return Num(total, exact)


def _ev_derivative(app, assignment):
    reduced = _red_derivative(app)
    if isinstance(reduced, FuncApp) and reduced.name == "derivative":
        raise DomainError("derivative only defined for polynomial expressions")
    return eval_expression(reduced, assignment)


def _ev_integral(app, assignment):
    reduced = _red_integral(app)
    if isinstance(reduced, FuncApp) and reduced.name == "integral":
        raise DomainError("integral only defined for polynomial expressions"
                          " with rational bounds")
    return eval_expression(reduced, assignment)


# ---------------------------------------------------------------------------
# Reducers
# ---------------------------------------------------------------------------

def _red_identity(app):
    return app.args[0]


def _red_gcd(app):
    folded = _fold_exact(app)
    if folded is not app:
        return folded
    a, b = app.args
    ca, ra = _content(a)
    cb, rb = _content(b)
    g = _frac_gcd(ca, cb)
    if g.denominator != 1 or g <= 1:
        return app
    reduced = _mul(Const(g), FuncApp("gcd", (_scale(ca / g, ra),
                                             _scale(cb / g, rb))))
    return reduced if node_count(reduced) <= node_count(app) else app


def _fold_exact(app):
    """``app`` as the constant of its exact value, else unchanged."""
    v = exact_value(app)
    return app if v is None else Const(v)


def _red_derivative(app):
    expr, var = app.args
    coeffs = _univariate(expr, var)
    if coeffs is None:
        return app
    return poly_expr({((var.name, k - 1),) if k > 1 else (): c * k
                      for k, c in coeffs.items() if k})


def _red_integral(app):
    expr, var, lo, hi = app.args
    if not (isinstance(lo, Const) and isinstance(hi, Const)):
        return app
    coeffs = _univariate(expr, var)
    if coeffs is None:
        return app
    anti = {k + 1: v / (k + 1) for k, v in coeffs.items()}

    def at(x: Fraction) -> Fraction:
        return sum((c * x ** k for k, c in anti.items()), Fraction(0))
    return Const(at(hi.value) - at(lo.value))


_UNROLL_CAP = 50


def _red_summation(app):
    folded = _fold_exact(app)
    if folded is not app:
        return folded
    idx, lo, hi, body = app.args
    if not (isinstance(idx, Var) and isinstance(lo, Const)
            and isinstance(hi, Const)):
        return app
    if lo.value.denominator != 1 or hi.value.denominator != 1:
        return app
    lo_i, hi_i = int(lo.value), int(hi.value)
    if not lo_i <= hi_i or hi_i - lo_i + 1 > _UNROLL_CAP:
        return app
    terms = [substitute_all(body, {idx.name: Const(Fraction(i))})
             for i in range(lo_i, hi_i + 1)]
    acc = terms[0]
    for t in terms[1:]:
        acc = BinOp("+", acc, t)
    return acc


def reduce_app(app: FuncApp):
    """Value-preserving rewrite of one function application; returns the
    input unchanged when no rule applies."""
    return lookup(app.name).reducer(app)


# ---------------------------------------------------------------------------
# Function table
# ---------------------------------------------------------------------------

_ev_sin = _ev_trig(mpmath.sin, _sin_exact)
_ev_cos = _ev_trig(mpmath.cos, _cos_exact)

# a twin refuses (math raises) log's or sqrt's argument within FLOAT_MARGIN
# times its scale of 0; exp's underflow, whose value _approx may refuse,
# gets an infinite scale, which decides no sign
FUNCTIONS = {
    "identity": FunctionDescriptor(1, _ev_identity, _red_identity),
    "log": FunctionDescriptor(1, _ev_log, _fold_exact, lambda x, s: (
        y := math.log(x if x > FLOAT_MARGIN * s else 0), s / x + abs(y))),
    "exp": FunctionDescriptor(1, _ev_exp, _fold_exact, lambda x, s: (
        y := math.exp(x), 1 + y * (s + 1) if y else math.inf)),
    "sin": FunctionDescriptor(1, _ev_sin, _fold_exact,
                              lambda x, s: (math.sin(x), s + 1)),
    "cos": FunctionDescriptor(1, _ev_cos, _fold_exact,
                              lambda x, s: (math.cos(x), s + 1)),
    "arcsin": FunctionDescriptor(1, _ev_arcsin, _fold_exact, None),
    "sqrt": FunctionDescriptor(1, _ev_sqrt, _fold_exact, lambda x, s: (
        y := math.sqrt(x if x > FLOAT_MARGIN * s else -1), s / y + y)),
    "abs": FunctionDescriptor(1, _ev_abs, _fold_exact,
                              lambda x, s: (abs(x), s)),
    "gcd": FunctionDescriptor(2, _ev_gcd, _red_gcd),
    "lcm": FunctionDescriptor(2, _ev_lcm, _fold_exact),
    "binomial": FunctionDescriptor(2, _ev_binomial, _fold_exact),
    "factorial": FunctionDescriptor(1, _ev_factorial, _fold_exact),
    "summation": FunctionDescriptor(4, _ev_summation, _red_summation),
    "derivative": FunctionDescriptor(2, _ev_derivative, _red_derivative),
    "integral": FunctionDescriptor(4, _ev_integral, _red_integral),
}


def lookup(name: str) -> FunctionDescriptor:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise UnknownFunctionError(f"unknown function: {name}") from None
