"""The root step of ``RootSolver``: its answers on the fallback shapes, and
its float filter, which decides a residual's sign in floats only where
the exact value cannot have another sign."""

import random
import sys
from fractions import Fraction

import pytest

from mathmorph import minisolver
from mathmorph.ast import (BinOp, Compare, Const, FuncApp, MathMorphError,
                           NamedConst, Pow, Var)
from mathmorph.funcs import (FLOAT_MARGIN, Num, eval_expression, poly_expr,
                             polynomial)
from mathmorph.parser import parse
from mathmorph.solver import SolverConfig, solve

GATEWAY = [sys.executable, "-m", "mathmorph.minisolver"]

# the fallback shapes with their bounds: the exact root each answers, and
# the nodes its search spends (64 per box tried)
SHAPES = {
    "square": ("x", "(assert (> x 0))(assert (= (* x x) 2))",
               Fraction(788693419663, 557690465321), 128),
    "sine": ("x", "(assert (>= x 0))(assert (<= x 1))"
                  "(assert (= (sin x) (/ 1 2)))",
             Fraction(61491864970, 117440811239), 64),
    "circle": ("r", "(assert (> r 0))(assert (= (* 3 (* r r)) 10))",
               Fraction(43392071711, 23766816493), 128),
    "cube": ("a", "(assert (> a 0))(assert (= (* a (* a a)) 5))",
             Fraction(550813395896, 322117628009), 128),
    "root3": ("y", "(assert (> y 0))(assert (= (* y y) 3))",
              Fraction(1141056662195, 658789371079), 128),
    "cos": ("t", "(assert (>= t 0))(assert (<= t 1.5))"
                 "(assert (= (cos t) (/ 1 3)))",
            Fraction(610529655241, 495978702986), 64),
    "quad": ("q", "(assert (> q 0))(assert (= (+ (* q q) q) 4))",
             Fraction(314610386443, 201472780083), 128),
    "log": ("u", "(assert (>= u 1))(assert (<= u 10))(assert (= (log u) 1))",
            Fraction(2625335421962, 965806927919), 64),
    "exp": ("x", "(assert (= (exp x) 5))",
            Fraction(184611359579, 114705487023), 128),
}


def shape_script(name):
    v, asserts, _, _ = SHAPES[name]
    return f"(declare-fun {v} () Real){asserts}(check-sat)(get-value ({v}))"


@pytest.mark.parametrize("name", SHAPES)
def test_the_root_step_answers_each_shape_exactly_as_pinned(name):
    v, _, root, nodes = SHAPES[name]
    solver = minisolver.RootSolver(parse(shape_script(name)))
    assert solver.solve() == ("sat", {v: Num(root, exact=False)})
    assert (solver.rooted, solver.nodes, solver.stopped_by) \
        == (True, nodes, None)


@pytest.mark.parametrize("name", SHAPES)
def test_the_gateway_falls_back_to_the_pinned_root(name):
    v, _, root, _ = SHAPES[name]
    r = solve(parse(shape_script(name)), SolverConfig(command=GATEWAY))
    assert (r.status, r.provenance) == ("sat", "numeric-fallback")
    assert r.model == {v: Num(root, exact=False)}


# -- the float filter against exact evaluation --------------------------------

X = Var("x")


def const(rng, top=20):
    return Const(Fraction(rng.randint(-top, top), rng.randint(1, top)))


def random_polynomial(rng, degree):
    """A random polynomial in x, its powers written as ``^`` or as
    products."""
    out = const(rng)
    for k in range(1, degree + 1):
        power = Pow(X, Const(Fraction(k))) if rng.random() < 0.5 else X
        for _ in range(k - 1 if type(power) is Var else 0):
            power = BinOp("*", power, X)
        out = BinOp(rng.choice("+-"), out, BinOp("*", const(rng), power))
    return out


def composition(rng):
    """A function of a polynomial, combined with another polynomial; the
    argument of ``log`` and ``sqrt`` crosses 0, and a divisor may too."""
    app = FuncApp(rng.choice(["sin", "cos", "exp", "log", "sqrt"]),
                  (random_polynomial(rng, rng.randint(1, 2)),))
    other = random_polynomial(rng, rng.randint(0, 2))
    op = rng.choice("+-*/")
    if rng.random() < 0.3:                 # a ground subterm beside x
        other = BinOp("*", NamedConst("pi"), other)
    return BinOp(op, app, other) if rng.random() < 0.5 \
        else BinOp(op, other, app)


def grid(lo, hi):
    step = (hi - lo) / minisolver.GRID
    return [lo + step * i for i in range(minisolver.GRID + 1)]


def exact_sign(diff, x):
    try:
        d = eval_expression(diff, {"x": Num(x)}).value
    except MathMorphError:
        return None
    return (d > 0) - (d < 0)


def residuals(rng):
    """``(diff, points)``: a residual and the exact points to try it at."""
    lo = Fraction(rng.randint(-40, 40), rng.randint(1, 4))
    hi = lo + rng.choice([1, 2, 8, 64, 2 ** 14])
    points = grid(lo, hi)
    points = rng.sample(points, 12) + [lo, hi]
    for _ in range(6):              # bisection midpoints, down to 1e-12
        a = rng.choice(points[:-1])
        b = a + (hi - lo) / minisolver.GRID
        for _ in range(rng.randint(1, 40)):
            a, b = (a, (a + b) / 2) if rng.random() < 0.5 \
                else ((a + b) / 2, b)
        points.append((a + b) / 2)
    kind = rng.randrange(5)
    if kind == 0:
        diff = random_polynomial(rng, rng.randint(1, 4))
    elif kind == 1:
        diff = composition(rng)
    elif kind == 2:                 # exact rational roots among the points
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                 for _ in range(rng.randint(1, 3))]
        diff = const(rng)
        for r in roots:
            diff = BinOp("*", diff, BinOp("-", X, Const(r)))
        if rng.random() < 0.5:      # expanded, floats leave a residue
            diff = poly_expr(polynomial(diff))
            if rng.random() < 0.5:  # which may pass sqrt's edge
                diff = BinOp("-", FuncApp("sqrt", (diff,)), const(rng))
        tiny = Fraction(1, 10 ** 30)
        points += roots + [r + d for r in roots for d in (tiny, -tiny)]
    else:                           # a pole, or log's edge, on a grid point
        p = rng.choice(grid(lo, hi))
        shifted = BinOp("-", X, Const(p))
        diff = BinOp("+", BinOp("/", const(rng), shifted), const(rng)) \
            if kind == 3 else BinOp("-", FuncApp("log", (shifted,)),
                                    const(rng))
        points += [p, p + Fraction(1, 10 ** 12), p - Fraction(1, 10 ** 12)]
    if rng.random() < 0.2:          # huge values: exp overflows, underflows
        diff = BinOp("+", FuncApp("exp", (BinOp("*", X, const(rng)),)),
                     diff)
    elif rng.random() < 0.1:        # a float product overflows to inf - inf
        big = Pow(X, Const(Fraction(16)))
        for _ in range(4):
            big = BinOp("*", big, Pow(X, Const(Fraction(16))))
        diff = BinOp("+", BinOp("-", big, big), diff)
    return diff, points


def test_the_float_filter_agrees_with_exact_evaluation_or_defers():
    rng = random.Random(39)
    decided = deferred = 0
    for _ in range(200):
        diff, points = residuals(rng)
        image = minisolver._float_image(diff, "x")
        assert image is not None
        sign = minisolver._residual(Compare(diff, "=", Const(Fraction(0))),
                                    "x")
        for x in points:
            want = exact_sign(diff, x)
            try:
                y, s = image(float(x))
            except (ArithmeticError, ValueError):
                y, s = 0.0, 1.0
            if abs(y) > FLOAT_MARGIN * s:
                decided += 1
                assert want == (1 if y > 0 else -1), (diff, x, y, s)
            elif want is not None:
                deferred += 1
            assert sign(x) == want, (diff, x)
            assert sign(x) == want          # and again, from the memo
    # the filter decides most points where the residual is defined, so the
    # check is not vacuous
    assert decided > 3 * deferred > 0


@pytest.mark.parametrize("term", [
    FuncApp("arcsin", (X,)),
    FuncApp("gcd", (X, X)),
    Pow(X, Const(Fraction(17))),
    Pow(X, Const(Fraction(1, 2))),
    Pow(X, Const(Fraction(-1))),
    BinOp("+", X, Var("y")),
])
def test_a_term_the_float_image_does_not_cover_is_left_exact(term):
    assert minisolver._float_image(term, "x") is None
    sign = minisolver._residual(Compare(term, "=", Const(Fraction(1, 3))),
                                "x")
    for x in (Fraction(1, 2), Fraction(-3, 4), Fraction(0)):
        assert sign(x) == exact_sign(BinOp("-", term, Const(Fraction(1, 3))),
                                     x)
