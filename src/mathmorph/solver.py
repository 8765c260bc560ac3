"""Uniform solving facade.

Drives any SMT-LIB-2-conformant solver executable over a textual
stdin/stdout protocol (the bundled ``mathmorph-minisolver`` by default,
overridable via the ``MATHMORPH_SOLVER`` environment variable), with a
loss-minimizing numerical fallback for problems the symbolic route
answers ``unknown`` on.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ast import (And, BoolConst, Compare, Const, ConstraintIte, Goal,
                  Implies, MathMorphError, Not, Or, Problem, Quantifier,
                  ValidationError, Var, conjuncts, contains_complex,
                  free_variables, make_and, negate, substitute_in_problem,
                  validate)
from .algebra import fold_constraint, linear_form, solve_for
from .funcs import Num, coerce_to_domain, eval_expression
from .parser import Atom, ParseError, read_sexprs
from .printer import constraint_to_sexpr, expr_to_sexpr

STRICT_EPS = 1e-9


class SolverError(MathMorphError):
    """Process spawn or protocol failure; raw reply attached when present."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


def default_command() -> List[str]:
    override = os.environ.get("MATHMORPH_SOLVER")
    if override:
        return shlex.split(override)
    return [sys.executable, "-m", "mathmorph.minisolver"]


@dataclass
class SolverConfig:
    command: Optional[Sequence[str]] = None
    timeout_ms: int = 20_000
    logic: Optional[str] = None
    seed: Optional[int] = None
    fallback_enabled: bool = True
    fallback_tolerance: float = 1e-6
    fallback_popsize: int = 20
    fallback_maxiter: int = 300
    enum_span: int = 1000
    node_budget: int = 100_000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.fallback_tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def resolved_command(self) -> List[str]:
        if self.command:
            return list(self.command)
        return default_command()


@dataclass
class SolverResult:
    status: str                                   # sat/unsat/unknown/timeout/error
    model: Dict[str, Num] = field(default_factory=dict)
    goal_values: List[Tuple[str, Num]] = field(default_factory=list)
    provenance: str = "smt"
    elapsed: float = 0.0
    raw: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


# ---------------------------------------------------------------------------
# script construction and reply parsing
# ---------------------------------------------------------------------------

def build_script(p: Problem, logic: Optional[str] = None) -> str:
    lines = []
    if logic:
        lines.append(f"(set-logic {logic})")
    for raw in p.recursive_defs:
        lines.append(raw)
    for name, dom in p.declarations:
        lines.append(f"(declare-fun {name} () {dom.smt_sort})")
        lb = dom.lower_bound
        if lb is not None:
            lines.append(f"(assert (>= {name} {lb}))")
    for c in p.constraints:
        lines.append(f"(assert {constraint_to_sexpr(c)})")
    if p.goal.kind in ("minimize", "maximize"):
        lines.append(f"({p.goal.kind} {expr_to_sexpr(p.goal.targets[0])})")
    lines.append("(check-sat)")
    if p.declarations:
        names = " ".join(name for name, _ in p.declarations)
        lines.append(f"(get-value ({names}))")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


def _parse_value(node) -> Num:
    if isinstance(node, Atom):
        t = node.text
        if "." in t or "e" in t.lower():
            return Num(Fraction(t), exact="e" not in t.lower())
        return Num(Fraction(int(t)))
    if isinstance(node, list) and node and isinstance(node[0], Atom):
        head = node[0].text
        if head == "-" and len(node) == 2:
            inner = _parse_value(node[1])
            return Num(-inner.value, inner.exact)
        if head == "/" and len(node) == 3:
            a, b = _parse_value(node[1]), _parse_value(node[2])
            return Num(a.value / b.value, a.exact and b.exact)
        if head == "to_real" and len(node) == 2:
            return _parse_value(node[1])
        if head == "root-obj":
            # algebraic irrational: approximate and flag as inexact
            raise _RootObj()
    raise SolverError(f"unparseable model value: {node!r}")


class _RootObj(Exception):
    pass


def parse_reply(raw: str) -> Tuple[str, Dict[str, Num]]:
    """Extract the check-sat status and any model pairs from solver output."""
    status = None
    model: Dict[str, Num] = {}
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    sexpr_text = []
    for ln in lines:
        s = ln.strip()
        if s in ("sat", "unsat", "unknown") and status is None:
            status = s
        elif s.startswith("(error"):
            continue
        else:
            sexpr_text.append(ln)
    if status is None:
        raise SolverError("no check-sat status in solver reply", raw=raw)
    if sexpr_text:
        try:
            groups = read_sexprs("\n".join(sexpr_text))
        except ParseError as exc:
            raise SolverError(f"malformed get-value reply: {exc}", raw=raw)
        for group in groups:
            if not isinstance(group, list):
                continue
            for pair in group:
                if not (isinstance(pair, list) and len(pair) == 2
                        and isinstance(pair[0], Atom)):
                    continue
                try:
                    model[pair[0].text] = _parse_value(pair[1])
                except _RootObj:
                    pass
    return status, model


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve(p: Problem, cfg: Optional[SolverConfig] = None) -> SolverResult:
    cfg = cfg or SolverConfig()
    validate(p)
    if contains_complex(p):
        raise ValidationError("complex-domain problems are not solvable")
    start = time.monotonic()
    status, model, raw = _exact_stage(p, cfg)
    elapsed = time.monotonic() - start
    if status == "timeout":
        if cfg.fallback_enabled:
            return numeric_fallback_solve(p, cfg)
        return SolverResult("timeout", elapsed=elapsed)
    if status == "sat":
        model = _coerce_domains(p, model)
        if model is None:
            status = "unknown"
    if status == "unknown" and cfg.fallback_enabled:
        fb = numeric_fallback_solve(p, cfg)
        if fb.status != "unknown":
            return fb
        return SolverResult("unknown", elapsed=elapsed, raw=raw)
    if status != "sat":
        return SolverResult(status, elapsed=elapsed, raw=raw)
    return SolverResult("sat", model, _goal_values(p, model), "smt",
                        elapsed, raw)


def _exact_stage(p: Problem, cfg: SolverConfig):
    """``(status, model, raw reply)`` of the exact solver: the bundled one
    in process, or the configured executable over stdio, where a timeout
    gives the status ``"timeout"``."""
    if cfg.command is None and not os.environ.get("MATHMORPH_SOLVER"):
        # bundled solver: skip the subprocess round trip; imported on
        # first use so that importing the package does not load it
        from .minisolver import solve_exact
        status, model = solve_exact(p, cfg.enum_span, cfg.node_budget)
        return status, model, ""
    script = build_script(p, cfg.logic)
    cmd = cfg.resolved_command()
    try:
        proc = subprocess.run(cmd, input=script, capture_output=True,
                              text=True, timeout=cfg.timeout_ms / 1000.0)
    except subprocess.TimeoutExpired:
        return "timeout", {}, ""
    except OSError as exc:
        raise SolverError(f"failed to spawn solver {cmd!r}: {exc}")
    status, model = parse_reply(proc.stdout)
    return status, model, proc.stdout


def _coerce_domains(p: Problem, model: Dict[str, Num]):
    """The model with each value coerced to its declared domain; None when
    a value is missing or breaks its domain."""
    out = {}
    for name, dom in p.declarations:
        v = coerce_to_domain(dom, model[name]) if name in model else None
        if v is None:
            return None
        out[name] = v
    return out


def _goal_values(p: Problem, model: Dict[str, Num]) -> List[Tuple[str, Num]]:
    out = []
    for t in p.goal.targets:
        try:
            out.append((expr_to_sexpr(t), eval_expression(t, model)))
        except MathMorphError:
            pass
    return out


# ---------------------------------------------------------------------------
# numerical fallback (loss minimization)
# ---------------------------------------------------------------------------

def _penalty(c, env) -> float:
    """Fuzzy-logic penalty: zero iff the constraint holds."""
    if isinstance(c, BoolConst):
        return 0.0 if c.value else 1.0
    if isinstance(c, Compare):
        try:
            d = float(eval_expression(c.lhs, env).value
                      - eval_expression(c.rhs, env).value)
        except MathMorphError:
            return 1e12
        rel = c.rel
        if rel == "=":
            return d * d
        if rel == "!=":
            gap = STRICT_EPS - abs(d)
            return gap * gap if gap > 0 else 0.0
        if rel == "<=":
            return max(0.0, d) ** 2
        if rel == "<":
            return max(0.0, d + STRICT_EPS) ** 2
        if rel == ">=":
            return max(0.0, -d) ** 2
        return max(0.0, -d + STRICT_EPS) ** 2
    if isinstance(c, And):
        return sum(_penalty(i, env) for i in c.items)
    if isinstance(c, Or):
        return min(_penalty(i, env) for i in c.items)
    if isinstance(c, Not):
        return _penalty(negate(c.child), env)
    if isinstance(c, Implies):
        return min(_penalty(negate(c.antecedent), env),
                   _penalty(c.consequent, env))
    if isinstance(c, ConstraintIte):
        return min(_penalty(c.cond, env) + _penalty(c.then, env),
                   _penalty(negate(c.cond), env) + _penalty(c.els, env))
    if isinstance(c, Quantifier):
        raise ValidationError("quantified constraint in numeric fallback")
    raise TypeError(f"not a constraint: {c!r}")


def numeric_fallback_solve(p: Problem,
                           cfg: Optional[SolverConfig] = None) -> SolverResult:
    cfg = cfg or SolverConfig()
    from scipy.optimize import differential_evolution

    start = time.monotonic()
    names = [n for n, _ in p.declarations]
    if not names:
        env: Dict[str, Num] = {}
        ok = all(_penalty(c, env) < cfg.fallback_tolerance
                 for c in p.constraints)
        return SolverResult("sat" if ok else "unknown", {}, [],
                            "numeric-fallback", time.monotonic() - start)
    doms = dict(p.declarations)
    bounds = []
    for n in names:
        lb = doms[n].lower_bound
        bounds.append((float(lb) if lb is not None else -1e4, 1e4))

    def loss(x) -> float:
        vals = []
        for n, xi in zip(names, x):
            if doms[n].is_integer:
                xi = round(xi)
            vals.append(Fraction(float(xi)).limit_denominator(10 ** 12))
        env = {n: Num(v, exact=False) for n, v in zip(names, vals)}
        try:
            return sum(_penalty(c, env) for c in p.constraints)
        except MathMorphError:
            return 1e12

    seed = cfg.seed if cfg.seed is not None else 0
    res = differential_evolution(loss, bounds, seed=seed, tol=1e-12,
                                 popsize=cfg.fallback_popsize,
                                 maxiter=cfg.fallback_maxiter,
                                 polish=True)
    x = res.x
    model = {}
    for n, xi in zip(names, x):
        if doms[n].is_integer:
            model[n] = Num(Fraction(round(xi)), exact=True)
        else:
            model[n] = Num(Fraction(float(xi)).limit_denominator(10 ** 12),
                           exact=False)
    residual = sum(_penalty(c, model) for c in p.constraints)
    elapsed = time.monotonic() - start
    if residual < cfg.fallback_tolerance:
        return SolverResult("sat", model, _goal_values(p, model),
                            "numeric-fallback", elapsed)
    return SolverResult("unknown", {}, [], "numeric-fallback", elapsed)


# ---------------------------------------------------------------------------
# projected equivalence checking
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceVerdict:
    verdict: str                                  # equivalent/counterexample/unknown
    counterexample: Dict[str, Num] = field(default_factory=dict)
    detail: str = ""


def project_onto(p: Problem, shared) -> Optional[Problem]:
    """Eliminate private variables that are defined by equalities; None
    when some private variable resists elimination.  An integer variable
    is eliminated only by an integral definition (see ``_integral``), so
    the projection keeps integrality."""
    current = p
    pending = [n for n, _ in current.declarations if n not in shared]
    changed = True
    while pending and changed:
        changed = False
        int_vars = {n for n, d in current.declarations if d.is_integer}
        for v in list(pending):
            for c in _atoms(current):
                if not (isinstance(c, Compare) and c.rel == "="):
                    continue
                if v not in free_variables(c):
                    continue
                sol = solve_for(c.lhs, c.rhs, v)
                if sol is None:
                    continue
                if v in int_vars and not _integral(sol, int_vars):
                    continue
                current = _eliminate(current, v, sol, c)
                pending.remove(v)
                changed = True
                break
            if changed:
                break
    return None if pending else current


def _atoms(p: Problem) -> list:
    return [a for c in p.constraints for a in conjuncts(c)]


def _integral(sol, int_vars) -> bool:
    """True when ``sol`` is a linear form with integer coefficients over
    ``int_vars`` and an integer constant, so it is an integer wherever
    they are."""
    f = linear_form(sol, int_vars)
    return f is not None and f.const.denominator == 1 \
        and all(k.denominator == 1 for k in f.coeffs.values())


def _eliminate(p: Problem, v: str, sol, defining) -> Problem:
    """Drop the defining equality, substitute ``sol`` for ``v`` and keep
    ``v``'s domain bound as a constraint on ``sol``."""
    atoms = _atoms(p)
    atoms.remove(defining)
    stripped = Problem(p.declarations, tuple(atoms), p.goal, p.recursive_defs)
    out = substitute_in_problem(stripped, v, sol, drop_declaration=True)
    constraints = [fold_constraint(c) for c in out.constraints]
    lb = p.domain_of(v).lower_bound
    if lb is not None:
        constraints.append(fold_constraint(
            Compare(sol, ">=", Const(Fraction(lb)))))
    return Problem(out.declarations, tuple(constraints), out.goal,
                   out.recursive_defs)


def verify_equivalence(p1: Problem, p2: Problem, shared,
                       cfg: Optional[SolverConfig] = None) -> EquivalenceVerdict:
    """Check that p1 and p2 have the same solution set projected onto
    ``shared``, by asking the solver for a witness of one side that the
    other side rejects."""
    cfg = cfg or SolverConfig()
    shared = set(shared)
    for p in (p1, p2):
        declared = {n for n, _ in p.declarations}
        if not shared <= declared:
            raise ValidationError("shared variables must be declared in both")
    for a, b, tag in ((p1, p2, "p1-not-p2"), (p2, p1, "p2-not-p1")):
        proj_b = project_onto(b, shared)
        if proj_b is None:
            return EquivalenceVerdict("unknown",
                                      detail=f"{tag}: projection failed")
        neg = negate(make_and(list(_all_atoms(proj_b))))
        combined = Problem(a.declarations,
                           a.constraints + (fold_constraint(neg),),
                           Goal("solve", ()), a.recursive_defs)
        result = solve(combined, cfg)
        if result.status == "sat":
            witness = {k: v for k, v in result.model.items() if k in shared}
            return EquivalenceVerdict("counterexample", witness, tag)
        if result.status not in ("unsat",):
            return EquivalenceVerdict("unknown", detail=f"{tag}: {result.status}")
    return EquivalenceVerdict("equivalent")


def _all_atoms(p: Problem):
    for c in p.constraints:
        yield c
    for name, dom in p.declarations:
        lb = dom.lower_bound
        if lb is not None:
            yield Compare(Var(name), ">=", Const(Fraction(lb)))
