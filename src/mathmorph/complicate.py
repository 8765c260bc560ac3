"""Complication mutations.

``complicate_expression`` grafts auxiliary-variable terms onto random
constraints and instantiates them by projected MCMC (perturb a subset,
let the solver repair the rest).  ``complicate_constraint`` reverses
Gaussian elimination: constant equalities are re-encoded as a random
invertible integer linear system over fresh variables.
``mutate_to_level`` chains both on top of level-0 simplification; each
step's one solve, ``_certify``, proves its mutant and is returned with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ast import (BinOp, Compare, Const, Domain, FuncApp, MathMorphError,
                  Problem, Var, _FreshNames, constant_binding,
                  substitute_in_problem)
from .algebra import LinearForm, add_e, eliminate, scale_e, sub_e
from .simplify import MutationRecord, TacticError, simplify_level0
from .solver import SolverConfig, SolverResult, solve


class ComplicationError(MathMorphError):
    pass


class SamplingError(ComplicationError):
    pass


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxSite:
    constraint_index: int
    side: str                     # "lhs" | "rhs"
    op: str                       # "+", "-", "*", "/"
    foo: str                      # "id" or an interpreted function name
    aux: str                      # auxiliary variable name
    domain: Domain = Domain.REAL


@dataclass(frozen=True)
class AuxScheme:
    sites: Tuple[AuxSite, ...]

    def aux_names(self) -> List[str]:
        return [s.aux for s in self.sites]


# an MCMC step moves an integer aux value by 1..INT_STEP_MAX either way,
# and a real one by a Gaussian draw of deviation REAL_SIGMA
INT_STEP_MAX = 50
REAL_SIGMA = 10.0
# fresh variables of each reverse-Gaussian linear system
REVERSE_GAUSS_VARS = 2


@dataclass
class McmcConfig:
    max_iters: int = 20
    solver: SolverConfig = field(default_factory=SolverConfig)
    foo_pool: Tuple[str, ...] = ("id",)

    def __post_init__(self):
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


# ---------------------------------------------------------------------------
# scheme application
# ---------------------------------------------------------------------------

def _foo_expr(foo: str, aux: str):
    if foo == "id":
        return Var(aux)
    return FuncApp(foo, (Var(aux),))


def _is_identity(site: AuxSite, value: Fraction) -> bool:
    if site.foo != "id":
        return False
    if site.op in ("+", "-"):
        return value == 0
    return value == 1


def _domain_for(value: Fraction) -> Domain:
    if value.denominator == 1:
        if value >= 1:
            return Domain.POS
        if value >= 0:
            return Domain.NAT
        return Domain.INT
    return Domain.REAL


def mutated_problem(p: Problem, scheme: AuxScheme) -> Problem:
    """Graft every scheme site onto ``p`` with the aux variables free
    (no value equalities yet); division sites get a nonzero guard."""
    constraints = list(p.constraints)
    guards = []
    for site in scheme.sites:
        c = constraints[site.constraint_index]
        if not isinstance(c, Compare):
            raise ComplicationError(
                f"constraint {site.constraint_index} is not atomic")
        term = _foo_expr(site.foo, site.aux)
        if site.side == "lhs":
            c = Compare(BinOp(site.op, c.lhs, term), c.rel, c.rhs)
        else:
            c = Compare(c.lhs, c.rel, BinOp(site.op, c.rhs, term))
        constraints[site.constraint_index] = c
        if site.op == "/":
            guards.append(Compare(term, "!=", Const(Fraction(0))))
    decls = p.declarations + tuple((s.aux, s.domain) for s in scheme.sites)
    return replace(p, declarations=decls,
                   constraints=tuple(constraints) + tuple(guards))


def apply_scheme(p: Problem, scheme: AuxScheme,
                 assignment: Dict[str, Fraction]) -> Tuple[Problem, AuxScheme]:
    """Deterministic core of expression complication: graft the
    non-identity sites of ``scheme`` onto ``p`` and pin each kept aux
    variable to its sampled value.  Returns the problem and the kept
    sub-scheme."""
    kept = []
    for site in scheme.sites:
        value = assignment[site.aux]
        if _is_identity(site, value):
            continue
        kept.append(replace(site, domain=_domain_for(value)))
    kept_scheme = AuxScheme(tuple(kept))
    out = mutated_problem(p, kept_scheme)
    pins = tuple(Compare(Var(s.aux), "=", Const(assignment[s.aux]))
                 for s in kept)
    return replace(out, constraints=out.constraints + pins), kept_scheme


# ---------------------------------------------------------------------------
# projected MCMC sampling
# ---------------------------------------------------------------------------

def _prefers_integers(p: Problem, aux: Sequence[str]) -> bool:
    others = [d for n, d in p.declarations if n not in set(aux)]
    return bool(others) and all(d.is_integer for d in others)


def sample_aux_solution(p_mutated: Problem, aux: Sequence[str], rng,
                        cfg: Optional[McmcConfig] = None
                        ) -> Dict[str, Fraction]:
    """Projected MCMC: walk a subset of the aux variables, pin them as
    equalities, and let the solver repair the remainder; the first
    solver-accepted state is returned."""
    cfg = cfg or McmcConfig()
    aux = list(aux)
    if not aux:
        raise ValueError("aux variable list must be nonempty")
    declared = {n for n, _ in p_mutated.declarations}
    if not set(aux) <= declared:
        raise ValueError("aux variables must be declared")
    integer_walk = _prefers_integers(p_mutated, aux)
    doms = dict(p_mutated.declarations)
    state: Dict[str, Fraction] = {}
    for a in aux:
        state[a] = Fraction(1) if doms[a] is Domain.POS else Fraction(0)
    n = len(aux)
    j = max(1, n - 1)
    for _ in range(cfg.max_iters):
        subset = rng.sample(aux, j) if j < n else list(aux)
        proposal = dict(state)
        for a in subset:
            if integer_walk or doms[a].is_integer:
                step = rng.randint(1, INT_STEP_MAX)
                if rng.random() < 0.5:
                    step = -step
                proposal[a] = state[a] + step
            else:
                proposal[a] = state[a] + Fraction(
                    rng.gauss(0.0, REAL_SIGMA)).limit_denominator(10 ** 6)
        pins = tuple(Compare(Var(a), "=", Const(proposal[a]))
                     for a in subset)
        candidate = replace(p_mutated,
                            constraints=p_mutated.constraints + pins)
        # proposals are cheap and frequent: symbolic check only with a
        # small search budget, the numeric fallback and deep enumeration
        # would dominate the walk's runtime
        result = solve(candidate, replace(cfg.solver, fallback_enabled=False,
                                          node_budget=1_500))
        if result.status == "sat":
            return {a: result.model[a].value for a in aux}
        state = proposal
    # walk exhausted: let the solver choose every aux value itself, so a
    # mutated problem whose aux values are uniquely determined still works
    config = replace(cfg.solver, fallback_enabled=False, node_budget=5_000)
    result = _certify(p_mutated, config, SamplingError("exhausted-iterations"))
    return {a: result.model[a].value for a in aux}


def _certify(p: Problem, config: SolverConfig, error) -> SolverResult:
    """``p``'s solve under ``config``, its proof if sat; else ``error``."""
    result = solve(p, config)
    if result.status != "sat":
        raise error
    return result


# ---------------------------------------------------------------------------
# expression complication
# ---------------------------------------------------------------------------

def complicate_expression(p: Problem, rng,
                          cfg: Optional[McmcConfig] = None
                          ) -> Tuple[Problem, MutationRecord, SolverResult]:
    """Graft aux terms onto random constraints, keeping their constants;
    the sampled aux values give the mutant a new answer, which the solver
    recomputes (unlike the simplification tactics, the seed's answer is
    not kept).  ``p`` must be sat and is not solved again: grafting can
    make a sat mutant of an unsat problem, so a caller proves ``p`` first
    unless, like ``mutate_to_level``, it already has."""
    cfg = cfg or McmcConfig()
    eligible = [i for i, c in enumerate(p.constraints)
                if isinstance(c, Compare)]
    if not eligible:
        raise ComplicationError("no atomic constraints to mutate")
    k = rng.randint(1, len(eligible))
    chosen = sorted(rng.sample(eligible, k))
    fresh = _FreshNames([n for n, _ in p.declarations])
    sites = []
    for i in chosen:
        sites.append(AuxSite(
            constraint_index=i,
            side="lhs" if rng.random() < 0.5 else "rhs",
            op="+-*/"[rng.randrange(4)],
            foo=cfg.foo_pool[rng.randrange(len(cfg.foo_pool))],
            aux=fresh.fresh(f"z_{len(sites) + 1}"),
        ))
    scheme = AuxScheme(tuple(sites))
    mutated = mutated_problem(p, scheme)
    assignment = sample_aux_solution(mutated, scheme.aux_names(), rng, cfg)
    out, kept = apply_scheme(p, scheme, assignment)
    proof = _certify(out, cfg.solver,
                     SamplingError("sampled instantiation is not solvable"))
    record = MutationRecord(
        "complicate_expression",
        tuple(s.constraint_index for s in kept.sites),
        {"sites": [(s.constraint_index, s.side, s.op, s.foo, s.aux,
                    s.domain.name) for s in scheme.sites],
         "assignment": {a: str(v) for a, v in assignment.items()},
         "dropped": [s.aux for s in scheme.sites
                     if _is_identity(s, assignment[s.aux])]})
    return out, record, proof


def replay_expression_record(p: Problem,
                             record: MutationRecord) -> Problem:
    sites = tuple(AuxSite(i, side, op, foo, aux, Domain[dom])
                  for i, side, op, foo, aux, dom
                  in record.parameters["sites"])
    assignment = {a: Fraction(v)
                  for a, v in record.parameters["assignment"].items()}
    out, _ = apply_scheme(p, AuxScheme(sites), assignment)
    return out


# ---------------------------------------------------------------------------
# constraint complication (reverse Gaussian elimination)
# ---------------------------------------------------------------------------

def _constant_equalities(p: Problem) -> List[Tuple[int, str, Fraction]]:
    """``(index, name, value)`` of each constraint that is a constant
    binding."""
    return [(i, *b) for i, b in enumerate(map(constant_binding,
                                              p.constraints)) if b]


def _row_expr(row: Sequence[int], names: Sequence[str]):
    expr = None
    for coeff, name in zip(row, names):
        if coeff == 0:
            continue
        if expr is None:
            expr = scale_e(Fraction(coeff), Var(name))
        elif coeff > 0:
            expr = add_e(expr, scale_e(Fraction(coeff), Var(name)))
        else:
            expr = sub_e(expr, scale_e(Fraction(-coeff), Var(name)))
    return expr if expr is not None else Const(Fraction(0))


def _invertible(matrix) -> bool:
    """A square matrix is invertible when elimination over its rows
    leaves no column free."""
    rows = [LinearForm(dict(enumerate(map(Fraction, row))))
            for row in matrix]
    return not eliminate(rows, range(len(matrix)))[2]


def apply_reverse_gauss(p: Problem, entries, fresh_names, matrix,
                        extra_values=()) -> Problem:
    """Deterministic core: drop the selected constant equalities
    (``entries`` = [(index, var, value)]), rename each var to its fresh
    counterpart, and append the linear system matrix @ fresh = matrix @
    values."""
    values = [v for _, _, v in entries] + list(extra_values)
    if not _invertible(matrix):
        raise ComplicationError("matrix is singular")
    drop = {i for i, _, _ in entries}
    kept = replace(p, constraints=tuple(
        c for i, c in enumerate(p.constraints) if i not in drop))
    # a variable picked twice keeps the first fresh name and domain
    renamed = {}
    for (_, old, value), new in zip(entries, fresh_names):
        renamed.setdefault(old, (new, _domain_for(value)))
    out = substitute_in_problem(kept, {old: Var(new) for old, (new, _)
                                       in renamed.items()})
    decls = [renamed.get(n, (n, d)) for n, d in p.declarations]
    for new, value in zip(fresh_names[len(entries):],
                          list(extra_values)):
        decls.append((new, _domain_for(value)))
    constraints = list(out.constraints)
    for row in matrix:
        rhs = sum(Fraction(a) * v for a, v in zip(row, values))
        constraints.append(Compare(_row_expr(row, fresh_names), "=",
                                   Const(rhs)))
    return replace(out, declarations=tuple(decls),
                   constraints=tuple(constraints))


def complicate_constraint(p: Problem, rng,
                          cfg: Optional[McmcConfig] = None
                          ) -> Tuple[Problem, MutationRecord, SolverResult]:
    cfg = cfg or McmcConfig()
    candidates = _constant_equalities(p)
    if not candidates:
        raise ComplicationError("no reversible equality")
    k = REVERSE_GAUSS_VARS
    m = min(k, len(candidates))
    picked = sorted(rng.sample(range(len(candidates)), m))
    entries = [candidates[i] for i in picked]
    extra_values = [Fraction(rng.randint(1, 100)) for _ in range(k - m)]
    fresh = _FreshNames([n for n, _ in p.declarations])
    names = [fresh.fresh(f"w_{i + 1}") for i in range(k)]
    matrix = None
    for _ in range(20):
        draw = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if _invertible(draw):
            matrix = draw
            break
    if matrix is None:
        raise ComplicationError("failed to build an invertible system")
    out = apply_reverse_gauss(p, entries, names, matrix, extra_values)
    proof = _certify(out, cfg.solver,
                     SamplingError("reversed system is not solvable"))
    record = MutationRecord(
        "complicate_constraint",
        tuple(i for i, _, _ in entries),
        {"entries": [(i, v, str(c)) for i, v, c in entries],
         "fresh": names,
         "matrix": matrix,
         "extra_values": [str(v) for v in extra_values]})
    return out, record, proof


def replay_constraint_record(p: Problem, record: MutationRecord) -> Problem:
    entries = [(i, v, Fraction(c))
               for i, v, c in record.parameters["entries"]]
    return apply_reverse_gauss(p, entries, record.parameters["fresh"],
                               record.parameters["matrix"],
                               [Fraction(v) for v in
                                record.parameters["extra_values"]])


# ---------------------------------------------------------------------------
# level driver
# ---------------------------------------------------------------------------

MAX_STEP_RETRIES = 5


def _mutate(seed: Problem, level: int, rng, cfg: McmcConfig):
    """``(problem, records, proof)``: ``proof`` is the solve of the last
    step that landed, None if no step changed the simplified seed."""
    if level < 0:
        raise ValueError("level must be >= 0")
    _certify(seed, cfg.solver, ComplicationError("seed problem is not sat"))
    current, records = simplify_level0(seed, rng)
    proof = None
    for _ in range(level):
        for step in (complicate_expression, complicate_constraint):
            for _ in range(MAX_STEP_RETRIES):
                try:
                    current, rec, proof = step(current, rng, cfg)
                except (ComplicationError, TacticError):
                    continue
                records.append(rec)
                break
            else:
                records.append(MutationRecord(step.__name__, (),
                                              {"skipped": True}))
    return current, records, proof


def mutate_to_level(seed: Problem, level: int, rng,
                    cfg: Optional[McmcConfig] = None
                    ) -> Tuple[Problem, List[MutationRecord]]:
    """Level 0 = random simplification rounds; each further level adds
    one expression complication and one constraint complication.  A
    step failing 5 retries is skipped with a flag in the records."""
    return _mutate(seed, level, rng, cfg or McmcConfig())[:2]
