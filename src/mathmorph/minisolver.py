"""Bundled SMT-LIB solver executable.

Speaks a useful subset of the SMT-LIB 2 protocol on stdin/stdout
(declarations, assert, check-sat, get-value, reset, exit) so the solver
gateway can drive it exactly like an external SMT solver.  Solving is
exact and deterministic:

1. propagate defining equalities (chains of ``v = expr``),
2. bounded depth-first search over undetermined integer variables with
   constraint-derived bounds,
3. Gaussian elimination plus Fourier-Motzkin projection for the
   remaining linear real part, with witness extraction.

Unsat is only reported when the search was exhaustive with sound
bounds; anything undecidable is answered ``unknown``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .ast import (And, BinOp, BoolConst, Compare, Const, ConstraintIte,
                  Domain, Implies, MathMorphError, Not, Or, Problem,
                  Quantifier, Var, conjuncts, contains_complex,
                  free_variables, is_quantifier_free, negate, substitute_all)
from .algebra import (LinearForm, eliminate, fold_constraint, lin,
                      linear_form, solve_for)
from .funcs import (DomainError, Num, UnboundVariableError,
                    coerce_to_domain, eval_constraint, eval_expression)
from .parser import ParseError, parse, read_sexprs, sexpr_to_text, Atom
from .printer import _rational_sexpr, expr_to_sexpr

DEFAULT_ENUM_SPAN = 1000
DEFAULT_NODE_BUDGET = 100_000
PROBE_WIDTH = 12


class ExactSolver:
    def __init__(self, problem: Problem, enum_span=DEFAULT_ENUM_SPAN,
                 node_budget=DEFAULT_NODE_BUDGET):
        self.problem = problem
        self.enum_span = enum_span
        self.node_budget = node_budget
        self.nodes = 0
        self.domains = dict(problem.declarations)
        self._atom_cache = {}
        self.atoms = []
        for c in problem.constraints:
            self.atoms.extend(conjuncts(c))

    # -- public -------------------------------------------------------------

    def solve(self):
        """Returns (status, model) with model mapping names to Num."""
        if contains_complex(self.problem):
            return "unknown", {}
        if not is_quantifier_free(self.problem):
            return "unknown", {}
        branches = _dnf_branches(self.atoms)
        if branches is None:
            return "unknown", {}
        if len(branches) > 1:
            saw_unknown = False
            for branch in branches:
                sub = ExactSolver(
                    Problem(self.problem.declarations,
                            tuple(branch) or (BoolConst(True),),
                            self.problem.goal, self.problem.recursive_defs),
                    self.enum_span, self.node_budget)
                status, model = sub.solve()
                if status == "sat":
                    return status, model
                if status == "unknown":
                    saw_unknown = True
            return ("unknown" if saw_unknown else "unsat"), {}
        self.atoms = branches[0]
        if any(isinstance(a, BoolConst) and not a.value for a in self.atoms):
            return "unsat", {}
        model = {}
        status = self._propagate(model)
        if status == "unsat":
            return "unsat", {}
        unassigned = [n for n, _ in self.problem.declarations if n not in model]
        if not unassigned:
            return self._final_check(model)
        # an optimization goal is only answerable when propagation pins
        # down the whole model; otherwise defer to a real optimizer
        if self.problem.goal.kind in ("minimize", "maximize"):
            return "unknown", {}
        status, out = self._linear_pin(model, unassigned)
        if status is not None:
            return status, out
        # _linear_pin may have pinned part of the model; re-run defining
        # equality propagation over the smaller remainder
        if self._propagate(model) == "unsat":
            return "unsat", {}
        unassigned = [n for n, _ in self.problem.declarations
                      if n not in model]
        if not unassigned:
            return self._final_check(model)
        int_vars = [v for v in unassigned if self.domains[v].is_integer]
        real_vars = [v for v in unassigned if self.domains[v] is Domain.REAL]
        if int_vars:
            return self._int_search(model, int_vars, real_vars)
        return self._real_stage(model, real_vars)

    # -- linear pinning -------------------------------------------------------

    def _linear_pin(self, model, unassigned):
        """Solve the linear equalities by Gaussian elimination.  Fully
        determined problems are answered outright; otherwise variables the
        linear system forces are written into ``model`` and (None, {})
        defers the rest to the search stages."""
        var_set = set(unassigned)
        eqs = []
        for c in self.atoms:
            sub = self._substitute_model(c, model)
            if not (isinstance(sub, Compare) and sub.rel == "="):
                continue
            lf_l = linear_form(sub.lhs, var_set)
            lf_r = linear_form(sub.rhs, var_set)
            if lf_l is None or lf_r is None:
                continue                    # nonlinear: final check covers it
            eqs.append(lf_l - lf_r)        # constraint: f = 0
        chain, residual, free = eliminate(eqs, unassigned)
        if any(e.is_constant() and e.const != 0 for e in residual):
            return "unsat", {}
        # back-substitute; values stay linear forms over the free variables
        forms = {v: LinearForm({v: Fraction(1)}, Fraction(0)) for v in free}
        for v, g in reversed(chain):
            acc = LinearForm({}, g.const)
            for u, k in g.coeffs.items():
                acc = acc + forms[u].scale(k)
            forms[v] = acc
        if free:
            # keep whatever the system forces regardless of the free part
            for v, g in chain:
                f = forms[v]
                if f.is_constant():
                    ok = coerce_to_domain(self.domains[v],
                                          Num(f.const, exact=True))
                    if ok is None:
                        return "unsat", {}
                    model[v] = ok
            return None, {}
        pinned = dict(model)
        for v, _ in chain:
            ok = coerce_to_domain(self.domains[v],
                                  Num(forms[v].const, exact=True))
            if ok is None:
                return "unsat", {}
            pinned[v] = ok
        status, out = self._final_check(pinned)
        if status == "sat":
            return status, out
        if status == "unsat":
            # the equalities admit exactly this one solution, so a failed
            # full check refutes the whole conjunction
            return "unsat", {}
        return None, {}

    # -- propagation --------------------------------------------------------

    def _atom(self, c):
        """``(c, free variables, folded c)``, computed once per atom; the
        entry keeps ``c`` alive so its id cannot be reused."""
        cached = self._atom_cache.get(id(c))
        if cached is None:
            cached = (c, free_variables(c), fold_constraint(c))
            self._atom_cache[id(c)] = cached
        return cached

    def _propagate(self, model):
        """Assign variables forced by equalities with a single unknown."""
        progress = True
        while progress:
            progress = False
            for c in self.atoms:
                if not (isinstance(c, Compare) and c.rel == "="):
                    continue
                if len(self._atom(c)[1] - model.keys()) != 1:
                    continue
                sub = self._substitute_model(c, model)
                fv = free_variables(sub)
                if len(fv) != 1:
                    continue
                (v,) = fv
                if v in model:
                    continue
                sol = solve_for(sub.lhs, sub.rhs, v)
                if sol is None or free_variables(sol):
                    val = self._invert_equality(sub, v)
                    if val is None:
                        continue
                else:
                    try:
                        val = eval_expression(sol, {})
                    except (DomainError, UnboundVariableError,
                            MathMorphError):
                        continue
                ok = coerce_to_domain(self.domains[v], val)
                if ok is None:
                    return "unsat"
                model[v] = ok
                progress = True
        return "open"

    def _invert_equality(self, c, v):
        """Solve an equation with one unknown by structurally inverting
        +, -, *, / along the unique path to the variable; None when the
        shape is not invertible."""
        lf, rf = free_variables(c.lhs), free_variables(c.rhs)
        if v in lf and not rf:
            expr, target = c.lhs, c.rhs
        elif v in rf and not lf:
            expr, target = c.rhs, c.lhs
        else:
            return None

        def ground(e):
            try:
                num = eval_expression(e, {})
            except (DomainError, UnboundVariableError, MathMorphError):
                return None
            return num.value if num.exact else None

        t = ground(target)
        if t is None:
            return None
        while True:
            if isinstance(expr, Var):
                return Num(t, exact=True) if expr.name == v else None
            if not isinstance(expr, BinOp):
                return None
            in_left = v in free_variables(expr.left)
            in_right = v in free_variables(expr.right)
            if in_left == in_right:
                return None
            k = ground(expr.right if in_left else expr.left)
            if k is None:
                return None
            op = expr.op
            if in_left:
                if op == "+":
                    t = t - k
                elif op == "-":
                    t = t + k
                elif op == "*":
                    if k == 0:
                        return None
                    t = t / k
                elif op == "/":
                    if k == 0:
                        return None
                    t = t * k
                else:
                    return None
                expr = expr.left
            else:
                if op == "+":
                    t = t - k
                elif op == "-":                  # k - x = t
                    t = k - t
                elif op == "*":
                    if k == 0:
                        return None
                    t = t / k
                elif op == "/":                  # k / x = t
                    if t == 0:
                        return None
                    t = k / t
                else:
                    return None
                expr = expr.right

    def _substitute_model(self, c, model):
        # the same atoms are re-substituted at every search node, so skip
        # atoms the model cannot touch and walk the rest in a single pass
        _, fvs, folded = self._atom(c)
        hit = fvs & model.keys()
        if not hit:
            return folded
        env = {v: Const(model[v].value) for v in hit}
        return fold_constraint(substitute_all(c, env))

    # -- final check --------------------------------------------------------

    def _final_check(self, model):
        env = dict(model)
        try:
            for c in self.problem.constraints:
                if not eval_constraint(c, env):
                    return "unsat", {}
        except (DomainError, UnboundVariableError, MathMorphError):
            return "unknown", {}
        return "sat", model

    # -- integer search -----------------------------------------------------

    def _int_search(self, model, int_vars, real_vars):
        self.unsound = False
        self.gave_up = False
        result = self._dfs(dict(model), list(int_vars), real_vars)
        if result is not None:
            return "sat", result
        if self.nodes >= self.node_budget or self.unsound or self.gave_up:
            return "unknown", {}
        return "unsat", {}

    def _int_bounds(self, v, model):
        dom = self.domains[v]
        lo = dom.lower_bound
        hi = None
        sound_lo = lo is not None
        sound_hi = False
        for c in self.atoms:
            if v not in self._atom(c)[1]:
                continue
            sub = self._substitute_model(c, model)
            if not isinstance(sub, Compare):
                continue
            b = self._compare_bound(sub, v)
            if b is not None:
                kind, value = b
                if kind == "hi":
                    hi = value if hi is None else min(hi, value)
                    sound_hi = True
                else:
                    lo = value if lo is None else max(lo, value)
                    sound_lo = True
            m = self._monotone_bound(sub, v, model)
            if m is not None:
                hi = m if hi is None else min(hi, m)
                sound_hi = True
        if lo is None:
            lo = -self.enum_span // 2
        if hi is None:
            hi = lo + self.enum_span
        return lo, hi, sound_lo and sound_hi

    def _compare_bound(self, c: Compare, v):
        """Bound from a linear comparison with only ``v`` free."""
        if free_variables(c) != {v}:
            return None
        l = lin(c.lhs, v)
        r = lin(c.rhs, v)
        if l is None or r is None:
            return None
        a = l[0] - r[0]
        if a == 0:
            return None
        rest_l, rest_r = l[1], r[1]
        if not (isinstance(rest_l, Const) and isinstance(rest_r, Const)):
            return None
        bound = (rest_r.value - rest_l.value) / a
        rel = c.rel
        if a < 0:
            rel = {">=": "<=", "<=": ">=", ">": "<", "<": ">", "=": "=",
                   "!=": "!="}[rel]
        if rel in ("<=", "<", "="):
            hi = math.floor(bound) if rel != "<" or bound != int(bound) \
                else int(bound) - 1
            if rel == "=":
                return ("hi", math.floor(bound))
            return ("hi", hi)
        if rel in (">=", ">"):
            lo = math.ceil(bound) if rel != ">" or bound != int(bound) \
                else int(bound) + 1
            return ("lo", lo)
        return None

    def _monotone_bound(self, c: Compare, v, model):
        """Upper bound for a NAT/POS variable from an equality whose side
        is monotone increasing in the unassigned nonnegative variables."""
        if c.rel != "=":
            return None
        for expr, other in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
            if not isinstance(other, Const):
                continue
            fv = free_variables(expr)
            if v not in fv:
                continue
            if not all(self.domains.get(u, Domain.REAL) in
                       (Domain.NAT, Domain.POS) for u in fv):
                continue
            if not _monotone_positive(expr):
                continue
            # evaluate with all other vars at their domain minimum
            floor_env = {u: Num(Fraction(self.domains[u].lower_bound))
                         for u in fv if u != v}
            target = other.value

            def g(x):
                env = dict(floor_env)
                env[v] = Num(Fraction(x))
                return eval_expression(expr, env).value
            if g(self.domains[v].lower_bound or 0) > target:
                return (self.domains[v].lower_bound or 0)
            hi = 1
            while g(hi) <= target and hi < 10 ** 9:
                hi *= 2
            lo = hi // 2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if g(mid) <= target:
                    lo = mid
                else:
                    hi = mid - 1
            return lo
        return None

    def _dfs(self, model, todo, real_vars):
        # propagate after each assignment; prune on ground falsities
        if self._prune(model) == "unsat":
            return None
        status = self._propagate(model)
        if status == "unsat":
            return None
        todo = [v for v in todo if v not in model]
        if not todo:
            remaining = [v for v, _ in self.problem.declarations
                         if v not in model]
            if remaining:
                status, out = self._real_stage(model, remaining)
                return out if status == "sat" else None
            status, out = self._final_check(model)
            return out if status == "sat" else None
        v = todo[0]
        # bounds tighten as outer variables get assigned, so derive them
        # per level from the partially substituted constraints
        lo, hi, sound = self._int_bounds(v, model)
        if not sound:
            self.unsound = True
        if hi - lo > self.enum_span or (not sound and hi - lo > 200):
            # the range cannot be enumerated exhaustively; probe a small
            # window anyway so underdetermined problems still get a
            # witness, and remember that unsat can no longer be claimed
            self.gave_up = True
            hi = lo + PROBE_WIDTH
        for val in range(lo, hi + 1):
            self.nodes += 1
            if self.nodes > self.node_budget:
                return None
            child = dict(model)
            child[v] = Num(Fraction(val))
            found = self._dfs(child, todo[1:], real_vars)
            if found is not None:
                return found
        return None

    def _prune(self, model):
        for c in self.atoms:
            if self._atom(c)[1] - model.keys():
                continue
            sub = self._substitute_model(c, model)
            if not free_variables(sub):
                try:
                    if not eval_constraint(sub, {}):
                        return "unsat"
                except (DomainError, MathMorphError):
                    return None
        return None

    # -- linear real stage --------------------------------------------------

    def _real_stage(self, model, real_vars):
        if any(self.domains[v].is_integer for v in real_vars):
            return "unknown", {}
        var_set = set(real_vars)
        eqs, ineqs, diseqs = [], [], []
        for c in self.atoms:
            sub = self._substitute_model(c, model)
            if isinstance(sub, BoolConst):
                if not sub.value:
                    return "unsat", {}
                continue
            if not isinstance(sub, Compare):
                return "unknown", {}
            lf_l = linear_form(sub.lhs, var_set)
            lf_r = linear_form(sub.rhs, var_set)
            if lf_l is None or lf_r is None:
                return "unknown", {}
            f = lf_l - lf_r          # constraint: f rel 0
            rel = sub.rel
            if rel == "=":
                eqs.append(f)
            elif rel == "!=":
                if f.is_constant():
                    if f.const == 0:
                        return "unsat", {}
                    continue
                diseqs.append(f)
            else:
                # normalize to f <= 0 / f < 0
                if rel in (">=", ">"):
                    f = f.scale(Fraction(-1))
                ineqs.append((f, rel in (">", "<")))

        # Gaussian elimination on equalities
        chain, residual, order = eliminate(eqs, real_vars)
        for v, g in chain:
            ineqs = [(i.substitute(v, g), s) for i, s in ineqs]
            diseqs = [d.substitute(v, g) for d in diseqs]
        if any(e.is_constant() and e.const != 0 for e in residual):
            return "unsat", {}
        for d in diseqs:
            if d.is_constant() and d.const == 0:
                return "unsat", {}
        # Fourier-Motzkin elimination with bound recording
        record = []
        for v in list(order):
            with_v = [(f, s) for f, s in ineqs if v in f.coeffs]
            ineqs = [(f, s) for f, s in ineqs if v not in f.coeffs]
            lowers, uppers = [], []
            for f, strict in with_v:
                a = f.coeffs[v]
                rest = LinearForm({u: -k / a for u, k in f.coeffs.items()
                                   if u != v}, -f.const / a)
                if a > 0:
                    uppers.append((rest, strict))     # v <= rest
                else:
                    lowers.append((rest, strict))     # v >= rest
            for lo_f, ls in lowers:
                for up_f, us in uppers:
                    ineqs.append((lo_f - up_f, ls or us))
            record.append((v, lowers, uppers))
        for f, strict in ineqs:
            if f.is_constant():
                if f.const > 0 or (strict and f.const == 0):
                    return "unsat", {}
            else:
                return "unknown", {}

        # witness extraction, innermost first
        values = {}

        def form_value(f):
            return f.const + sum(c * values[u] for u, c in f.coeffs.items())

        for v, lowers, uppers in reversed(record):
            lo = max((form_value(f) for f, _ in lowers), default=None)
            hi = min((form_value(f) for f, _ in uppers), default=None)
            lo_strict = any(s for f, s in lowers
                            if form_value(f) == lo) if lowers else False
            hi_strict = any(s for f, s in uppers
                            if form_value(f) == hi) if uppers else False
            if lo is not None and hi is not None:
                if lo < hi:
                    values[v] = (lo + hi) / 2
                elif lo == hi and not (lo_strict or hi_strict):
                    values[v] = lo
                else:
                    return "unsat", {}
            elif lo is not None:
                values[v] = lo + 1 if lo_strict else lo
            elif hi is not None:
                values[v] = hi - 1 if hi_strict else hi
            else:
                values[v] = Fraction(0)
        for v, g in reversed(chain):
            values[v] = form_value(g)

        candidate = dict(model)
        for v, x in values.items():
            candidate[v] = Num(x)
        status, out = self._final_check(candidate)
        if status == "sat":
            return status, out
        # disequalities may have landed exactly on the chosen point
        if diseqs:
            for delta in (Fraction(1, 7), Fraction(-1, 7), Fraction(1),
                          Fraction(-1), Fraction(3, 11)):
                for v in values:
                    bumped = dict(candidate)
                    bumped[v] = Num(candidate[v].value + delta)
                    status, out = self._final_check(bumped)
                    if status == "sat":
                        return status, out
        return "unknown", {}


def solve_exact(problem: Problem, enum_span=DEFAULT_ENUM_SPAN,
                node_budget=DEFAULT_NODE_BUDGET):
    return ExactSolver(problem, enum_span, node_budget).solve()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_DNF_CAP = 256


def _dnf_branches(atoms):
    """Disjunctive normal form of a conjunction of constraints as a list
    of Compare/BoolConst conjunction branches; None when the expansion
    exceeds the cap or hits a quantifier."""

    def norm(c):
        """List of branches for a single constraint."""
        if isinstance(c, (Compare, BoolConst)):
            return [[c]]
        if isinstance(c, And):
            return combine([norm(i) for i in c.items])
        if isinstance(c, Or):
            out = []
            for i in c.items:
                b = norm(i)
                if b is None:
                    return None
                out.extend(b)
            return out
        if isinstance(c, Not):
            inner = c.child
            if isinstance(inner, Compare):
                return [[negate(inner)]]
            if isinstance(inner, BoolConst):
                return [[BoolConst(not inner.value)]]
            if isinstance(inner, And):
                return norm(Or(tuple(Not(i) for i in inner.items)))
            if isinstance(inner, Or):
                return norm(And(tuple(Not(i) for i in inner.items)))
            if isinstance(inner, Not):
                return norm(inner.child)
            if isinstance(inner, Implies):
                return norm(And((inner.antecedent, Not(inner.consequent))))
            if isinstance(inner, ConstraintIte):
                return norm(ConstraintIte(inner.cond, Not(inner.then),
                                          Not(inner.els)))
            return None
        if isinstance(c, Implies):
            return norm(Or((Not(c.antecedent), c.consequent)))
        if isinstance(c, ConstraintIte):
            return norm(Or((And((c.cond, c.then)),
                            And((Not(c.cond), c.els)))))
        if isinstance(c, Quantifier):
            return None
        return None

    def combine(branch_lists):
        acc = [[]]
        for bl in branch_lists:
            if bl is None:
                return None
            nxt = []
            for prefix in acc:
                for b in bl:
                    nxt.append(prefix + b)
                    if len(nxt) > _DNF_CAP:
                        return None
            acc = nxt
        return acc

    return combine([norm(a) for a in atoms])


def _monotone_positive(expr) -> bool:
    """True when expr is built only from +, * over variables and
    nonnegative constants (hence monotone increasing in every var)."""
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Const):
        return expr.value >= 0
    if isinstance(expr, BinOp) and expr.op in ("+", "*"):
        return _monotone_positive(expr.left) and _monotone_positive(expr.right)
    return False


# ---------------------------------------------------------------------------
# stdio protocol
# ---------------------------------------------------------------------------

def _format_value(num: Num) -> str:
    if num.exact:
        return _rational_sexpr(num.value)
    return repr(float(num.value))


class _Session:
    def __init__(self, out):
        self.out = out
        self.commands = []
        self.model = None
        self.status = None

    def handle(self, sexpr):
        head = sexpr[0].text if sexpr and isinstance(sexpr[0], Atom) else ""
        if head in ("set-option", "set-info", "set-logic"):
            return
        if head == "echo":
            print(" ".join(sexpr_to_text(a) for a in sexpr[1:]),
                  file=self.out)
            return
        if head == "reset":
            self.commands = []
            self.model = None
            self.status = None
            return
        if head == "check-sat":
            self._check_sat()
            return
        if head == "get-value":
            self._get_value(sexpr)
            return
        self.commands.append(sexpr_to_text(sexpr))

    def _script(self, extra=""):
        return "\n".join(self.commands) + "\n" + extra

    def _check_sat(self):
        try:
            problem = parse(self._script("(check-sat)\n"))
        except (ParseError, MathMorphError) as exc:
            print(f'(error "{exc}")', file=self.out)
            print("unknown", file=self.out)
            self.status = "unknown"
            return
        status, model = solve_exact(problem)
        self.status = status
        self.model = model if status == "sat" else None
        print(status, file=self.out)

    def _get_value(self, sexpr):
        if self.model is None:
            print('(error "no model available")', file=self.out)
            return
        try:
            targets_text = sexpr_to_text(sexpr)
            problem = parse(self._script(f"(check-sat)\n{targets_text}\n"))
        except (ParseError, MathMorphError) as exc:
            print(f'(error "{exc}")', file=self.out)
            return
        parts = []
        for t in problem.goal.targets:
            try:
                v = eval_expression(t, self.model)
            except MathMorphError as exc:
                print(f'(error "{exc}")', file=self.out)
                return
            parts.append(f"({expr_to_sexpr(t)} {_format_value(v)})")
        print(f"({' '.join(parts)})", file=self.out)


def main(argv=None) -> int:
    session = _Session(sys.stdout)
    buf = ""
    depth = 0
    for line in sys.stdin:
        stripped = line.split(";", 1)[0]
        buf += stripped
        depth += stripped.count("(") - stripped.count(")")
        if depth > 0 or not buf.strip():
            continue
        try:
            sexprs = read_sexprs(buf)
        except ParseError as exc:
            print(f'(error "{exc}")')
            buf, depth = "", 0
            sys.stdout.flush()
            continue
        buf, depth = "", 0
        for s in sexprs:
            if isinstance(s, list) and s and isinstance(s[0], Atom) \
                    and s[0].text == "exit":
                sys.stdout.flush()
                return 0
            session.handle(s)
        sys.stdout.flush()
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
