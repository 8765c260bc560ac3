"""Simplification tactics.

Four solution-preserving problem rewrites: ``tactic_simplify`` (folding,
expansion, function application), ``tactic_gaussian_elim`` (equality
substitution), ``tactic_elim_term_ite`` (ite decomposition via fresh
variables) and ``tactic_qe`` (partial linear quantifier elimination),
plus ``simplify_level0`` which chains random tactics.  Every tactic
returns a MutationRecord that replays bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .ast import (And, BinOp, BoolConst, Compare, Const, ConstraintIte,
                  Domain, FuncApp, Goal, Implies, MathMorphError, NamedConst,
                  Not, Or, Pow, Problem, Quantifier, TermIte, Var,
                  _FreshNames, children, conjuncts, constant_binding,
                  free_variables, make_and, negate, rebuild, substitute_all,
                  substitute_in_problem)
from .algebra import (add_e, bound, const_bound, fold_constants,
                      fold_constraint, int_range, is_integral, solve_for,
                      sub_e)
from .funcs import poly_expr, polynomial, reduce_app
from .printer import expr_to_sexpr


class TacticError(MathMorphError):
    pass


@dataclass
class MutationRecord:
    tactic: str
    site: tuple = ()
    parameters: dict = field(default_factory=dict)
    seed: Optional[int] = None


# ---------------------------------------------------------------------------
# tactic_simplify
# ---------------------------------------------------------------------------

MAX_PASSES = 100
EXPAND_MAX_EXPONENT = 4


def _flatten_sum(e, sign=1):
    """Flatten nested +/- into [(sign, term)]."""
    if isinstance(e, BinOp) and e.op == "+":
        return _flatten_sum(e.left, sign) + _flatten_sum(e.right, sign)
    if isinstance(e, BinOp) and e.op == "-":
        return _flatten_sum(e.left, sign) + _flatten_sum(e.right, -sign)
    return [(sign, e)]


def _rebuild_sum(terms):
    if not terms:
        return Const(Fraction(0))
    sign, first = terms[0]
    acc = first if sign > 0 else sub_e(Const(Fraction(0)), first)
    for sign, t in terms[1:]:
        acc = add_e(acc, t) if sign > 0 else sub_e(acc, t)
    return acc


def _cancel_terms(e):
    """y + x - x -> y: remove structurally equal terms of opposite sign
    (source lexemes take no part in structural equality)."""
    terms = _flatten_sum(e)
    if len(terms) < 2:
        return e
    dead = [False] * len(terms)
    for i in range(len(terms)):
        if dead[i]:
            continue
        for j in range(i + 1, len(terms)):
            if dead[j]:
                continue
            if terms[i][1] == terms[j][1] and terms[i][0] == -terms[j][0]:
                dead[i] = dead[j] = True
                break
    if not any(dead):
        return e
    kept = [t for t, d in zip(terms, dead) if not d]
    return _rebuild_sum(kept)


def _expand_pow(e: Pow):
    """(x+1)^2 -> x^2 + 2x + 1 for small integer exponents of sums."""
    if not (isinstance(e.exponent, Const)
            and e.exponent.value.denominator == 1
            and 2 <= e.exponent.value <= EXPAND_MAX_EXPONENT):
        return e
    if not (isinstance(e.base, BinOp) and e.base.op in ("+", "-")):
        return e
    poly = polynomial(e, EXPAND_MAX_EXPONENT)
    return e if poly is None else poly_expr(poly)


class _SimplifyPass:
    def __init__(self, bindings, rng=None, site_prob=1.0):
        self.bindings = bindings
        self.rng = rng
        self.site_prob = site_prob

    def _fire(self) -> bool:
        if self.site_prob >= 1.0 or self.rng is None:
            return True
        return self.rng.random() < self.site_prob

    def expr(self, e):
        if isinstance(e, (Const, NamedConst, Var)):
            return e
        if isinstance(e, BinOp):
            out = BinOp(e.op, self.expr(e.left), self.expr(e.right))
            if self._fire():
                folded = fold_constants(out)
                if isinstance(folded, BinOp):
                    folded = _cancel_terms(folded)
                return folded
            return out
        if isinstance(e, Pow):
            out = Pow(self.expr(e.base), self.expr(e.exponent))
            if self._fire():
                expanded = _expand_pow(out)
                return fold_constants(expanded)
            return out
        if isinstance(e, FuncApp):
            args = tuple(self.expr(a) for a in e.args)
            if self._fire():
                args = tuple(substitute_all(a, self.bindings) for a in args)
            out = FuncApp(e.name, args)
            if self._fire():
                out = reduce_app(out)
                out = fold_constants(out)
            return out
        if isinstance(e, TermIte):
            return TermIte(self.constraint(e.cond), self.expr(e.then),
                           self.expr(e.els))
        raise TypeError(f"not an expression: {e!r}")

    def constraint(self, c):
        if isinstance(c, Compare):
            return Compare(self.expr(c.lhs), c.rel, self.expr(c.rhs))
        return rebuild(c, [self.constraint(k) for k in children(c)])


def _constant_bindings(p: Problem) -> Dict[str, Const]:
    """var -> Const from the constant bindings among the conjuncts of p's
    constraints; the first binding of a variable wins."""
    out = {}
    for c in p.constraints:
        for binding in map(constant_binding, conjuncts(c)):
            if binding is not None:
                out.setdefault(binding[0], Const(binding[1]))
    return out


def tactic_simplify(p: Problem, rng=None,
                    site_prob: float = 1.0) -> Tuple[Problem, MutationRecord]:
    """Fold constants and variables, expand small integer powers of sums,
    apply interpreted-function reductions, and push known constant
    bindings into function arguments.  Runs to fixpoint unless a partial
    ``site_prob`` < 1 is given."""
    passes = 0
    current = p
    limit = MAX_PASSES if site_prob >= 1.0 else 1
    while passes < limit:
        bindings = _constant_bindings(current)
        walker = _SimplifyPass(bindings, rng, site_prob)
        new_constraints = tuple(walker.constraint(c)
                                for c in current.constraints)
        new_targets = tuple(walker.expr(t) for t in current.goal.targets)
        candidate = replace(current, constraints=new_constraints,
                            goal=Goal(current.goal.kind, new_targets))
        passes += 1
        if candidate == current:
            passes -= 1
            break
        current = candidate
    params = {"passes": passes} if passes else {}
    if site_prob < 1.0:
        params["site_prob"] = site_prob
    return current, MutationRecord("simplify", (), params)


# ---------------------------------------------------------------------------
# tactic_gaussian_elim
# ---------------------------------------------------------------------------

def _gaussian_candidates(p: Problem):
    goal_vars = set()
    for t in p.goal.targets:
        goal_vars |= free_variables(t)
    declared = {n for n, _ in p.declarations}
    out = []
    for i, c in enumerate(p.constraints):
        if not (isinstance(c, Compare) and c.rel == "="):
            continue
        vars_here = []
        for v in sorted(free_variables(c)):
            if v not in declared:
                continue
            if v in goal_vars:
                continue
            sol = solve_for(c.lhs, c.rhs, v)
            if sol is None:
                continue
            vars_here.append((v, sol))
        if vars_here:
            out.append((i, vars_here))
    return out


def tactic_gaussian_elim(p: Problem, rng) -> Tuple[Problem, MutationRecord]:
    """Pick a random equality solvable for a variable that the goal does
    not mention, substitute its solution everywhere and drop the
    variable."""
    candidates = _gaussian_candidates(p)
    if not candidates:
        raise TacticError("no eliminable equality")
    idx, vars_here = candidates[rng.randrange(len(candidates))]
    v, sol = vars_here[rng.randrange(len(vars_here))]
    remaining = tuple(c for j, c in enumerate(p.constraints) if j != idx)
    out = substitute_in_problem(replace(p, constraints=remaining), {v: sol})
    out = replace(out, constraints=tuple(fold_constraint(c)
                                         for c in out.constraints))
    record = MutationRecord("gaussian_elim", (idx,),
                            {"variable": v,
                             "definition": expr_to_sexpr(sol),
                             "retargeted": False})
    return out, record


# ---------------------------------------------------------------------------
# tactic_elim_term_ite
# ---------------------------------------------------------------------------

def _find_ite(node, path=()):
    """Innermost-first TermIte search; returns (path, node) or None."""
    for i, ch in enumerate(children(node)):
        found = _find_ite(ch, path + (i,))
        if found is not None:
            return found
    if isinstance(node, TermIte):
        return path, node
    return None


def _replace_at(node, path, replacement):
    if not path:
        return replacement
    kids = list(children(node))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], replacement)
    return rebuild(node, kids)


def tactic_elim_term_ite(p: Problem) -> Tuple[Problem, MutationRecord]:
    """Replace every if-then-else term by a fresh variable constrained by
    an implication pair; innermost occurrences first."""
    fresh = _FreshNames([n for n, _ in p.declarations])
    current = p
    introduced = []
    while True:
        hit = None
        for i, c in enumerate(current.constraints):
            found = _find_ite(c)
            if found is not None:
                hit = (i, found[0], found[1])
                break
        if hit is None:
            break
        i, path, ite = hit
        k = fresh.fresh("k")
        rewritten = _replace_at(current.constraints[i], path, Var(k))
        side = (Implies(ite.cond, Compare(Var(k), "=", ite.then)),
                Implies(negate(ite.cond), Compare(Var(k), "=", ite.els)))
        constraints = (current.constraints[:i] + (rewritten,)
                       + current.constraints[i + 1:] + side)
        decls = current.declarations + ((k, Domain.REAL),)
        current = replace(current, declarations=decls,
                          constraints=constraints)
        introduced.append(k)
    params = {"fresh": introduced} if introduced else {}
    return current, MutationRecord("elim_term_ite", (), params)


# ---------------------------------------------------------------------------
# tactic_qe
# ---------------------------------------------------------------------------

QE_INT_ENUM_CAP = 200


def _normalize_compare(c):
    """(x - 2 > 0) -> (x > 2) and similar single-step normalizations;
    a Boolean constant passes through."""
    if not isinstance(c, Compare):
        return c
    lhs, rhs = c.lhs, c.rhs
    if isinstance(rhs, Const) and rhs.value == 0 and isinstance(lhs, BinOp) \
            and lhs.op == "-" and isinstance(lhs.right, Const):
        return Compare(lhs.left, c.rel, lhs.right)
    if isinstance(rhs, Const) and rhs.value == 0 and isinstance(lhs, BinOp) \
            and lhs.op == "+" and isinstance(lhs.right, Const):
        return Compare(lhs.left, c.rel, Const(-lhs.right.value))
    return c


def _trivially_true(c) -> bool:
    if isinstance(c, BoolConst):
        return c.value
    if isinstance(c, Compare) and c.rel in ("=", "<=", ">="):
        return c.lhs == c.rhs
    if isinstance(c, And):
        return all(_trivially_true(i) for i in c.items)
    return False


def _qe_exists(q: Quantifier, int_vars):
    """Eliminate one existential binding; None when not eligible.
    ``int_vars`` names the integer variables free in ``q``."""
    (name, dom), *rest = q.bindings
    body = q.body if not rest else Quantifier("exists", tuple(rest), q.body)
    int_vars = int_vars | {name} if dom.is_integer else int_vars - {name}
    if rest:
        inner = _qe_exists(body, int_vars)
        if inner is None:
            return None
        body = inner
    guard = dom.guard(name)
    atoms = ([] if guard is None else [guard]) + conjuncts(body)
    if any(isinstance(a, (Quantifier, Or, Not, Implies, ConstraintIte))
           for a in atoms):
        return None
    # try defining-equality substitution first; an integer binder only
    # through an integral definition, or the substitution would drop its
    # integrality
    for a in atoms:
        if not (isinstance(a, Compare) and a.rel == "="):
            continue
        sol = solve_for(a.lhs, a.rhs, name)
        if sol is None:
            continue
        if dom.is_integer and not is_integral(sol, int_vars):
            continue
        kept = [substitute_all(o, {name: sol}) for o in atoms if o is not a]
        kept = [_normalize_compare(fold_constraint(k)) for k in kept]
        if BoolConst(False) in kept:
            return BoolConst(False)
        kept = [k for k in kept if not _trivially_true(k)]
        return make_and(kept) if kept else BoolConst(True)
    if dom.is_integer:
        return _qe_int_enum(name, atoms)
    return _qe_fm(name, atoms)


def _qe_fm(name, atoms):
    """Fourier-Motzkin projection of a real existential variable."""
    lowers, uppers, others = [], [], []
    for a in atoms:
        if not isinstance(a, Compare):
            return None
        if name not in free_variables(a):
            others.append(a)
            continue
        b = bound(a, name)
        if b is None or b[0] in ("=", "!="):
            return None
        rel, rest = b
        if rel in ("<=", "<"):
            uppers.append((rest, rel == "<"))
        else:
            lowers.append((rest, rel == ">"))
    out = list(others)
    for lo, ls in lowers:
        for hi, hs in uppers:
            rel = "<" if (ls or hs) else "<="
            out.append(_normalize_compare(
                fold_constraint(Compare(lo, rel, hi))))
    out = [c for c in out if not _trivially_true(c)]
    return make_and(out) if out else BoolConst(True)


def _qe_int_enum(name, atoms):
    """Existential integer variable via bounded enumeration."""
    lo = hi = None
    for a in atoms:
        if name not in free_variables(a):
            continue
        if not isinstance(a, Compare):
            return None
        b = const_bound(a, name)
        if b is None or b[0] == "!=":
            return None
        b_lo, b_hi = int_range(*b)
        if b_lo is not None and b_hi is not None and b_lo > b_hi:
            return BoolConst(False)         # = with a non-integral value
        if b_lo is not None:
            lo = b_lo if lo is None else max(lo, b_lo)
        if b_hi is not None:
            hi = b_hi if hi is None else min(hi, b_hi)
    if lo is None or hi is None or hi - lo > QE_INT_ENUM_CAP:
        return None
    disjuncts = []
    for val in range(lo, hi + 1):
        env = {name: Const(Fraction(val))}
        kept = [fold_constraint(substitute_all(a, env)) for a in atoms]
        kept = [k for k in kept if not _trivially_true(k)]
        if any(isinstance(k, BoolConst) and not k.value for k in kept):
            continue
        disjuncts.append(make_and(kept) if kept else BoolConst(True))
    if not disjuncts:
        return BoolConst(False)
    if any(isinstance(d, BoolConst) and d.value for d in disjuncts):
        return BoolConst(True)
    return disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))


def tactic_qe(p: Problem) -> Tuple[Problem, MutationRecord]:
    """Eliminate top-level quantifiers where the bound variable occurs
    linearly; ineligible quantifiers are left in place and flagged."""
    new_constraints = []
    eliminated, flagged = [], []
    int_vars = {n for n, d in p.declarations if d.is_integer}
    for i, c in enumerate(p.constraints):
        if not isinstance(c, Quantifier):
            new_constraints.append(c)
            continue
        result = None
        if c.kind == "exists":
            result = _qe_exists(c, int_vars)
        else:
            # forall x. phi: valid iff exists x. not(phi) is unsat
            body = fold_constraint(c.body)
            if _trivially_true(body):
                result = BoolConst(True)
            else:
                neg = _qe_exists(Quantifier("exists", c.bindings,
                                            negate(body)), int_vars)
                if isinstance(neg, BoolConst):
                    result = BoolConst(not neg.value)
        if result is None:
            flagged.append(i)
            new_constraints.append(c)
            continue
        eliminated.append(i)
        if not (isinstance(result, BoolConst) and result.value):
            new_constraints.append(result)
    params = {}
    if eliminated:
        params["eliminated"] = eliminated
    if flagged:
        params["flagged"] = flagged
    return (replace(p, constraints=tuple(new_constraints)),
            MutationRecord("qe", (), params))


# ---------------------------------------------------------------------------
# level-0 driver
# ---------------------------------------------------------------------------

TACTIC_NAMES = ("simplify", "gaussian_elim", "elim_term_ite", "qe")
ROUNDS = 2
MAX_RESAMPLES = 10


def simplify_level0(p: Problem, rng) -> Tuple[Problem, List[MutationRecord]]:
    """Apply ``ROUNDS`` random applicable tactics; inapplicable draws are
    resampled up to 10 times, then the chain stops early."""
    current = p
    records: List[MutationRecord] = []
    for _ in range(ROUNDS):
        applied = False
        for _ in range(MAX_RESAMPLES):
            name = TACTIC_NAMES[rng.randrange(len(TACTIC_NAMES))]
            try:
                if name == "simplify":
                    prob = 0.5 + rng.random() * 0.5
                    out, rec = tactic_simplify(current, rng, site_prob=prob)
                elif name == "gaussian_elim":
                    out, rec = tactic_gaussian_elim(current, rng)
                elif name == "elim_term_ite":
                    out, rec = tactic_elim_term_ite(current)
                else:
                    out, rec = tactic_qe(current)
            except TacticError:
                continue
            if out == current:
                continue
            current = out
            records.append(rec)
            applied = True
            break
        if not applied:
            break
    return current, records
