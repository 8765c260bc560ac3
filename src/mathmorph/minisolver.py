"""Bundled SMT-LIB solver executable.

Speaks a useful subset of the SMT-LIB 2 protocol on stdin/stdout
(declarations, assert, check-sat, get-value, reset, exit) so the solver
gateway can drive it exactly like an external SMT solver.  Solving is
exact and deterministic:

1. propagate defining equalities (chains of ``v = expr``),
2. linear pinning: Gaussian elimination over the linear equalities writes
   each variable they force into the model, and propagation runs again;
   unsat when the exact ones, reals eliminated, have no integer point,
3. bounded depth-first search over undetermined integer variables with
   constraint-derived bounds, propagating after each assignment; a value
   that cannot divide the nonzero integer ``k`` of an equality
   ``v·E = k``, with ``E`` integer-valued, is skipped without a node
   (the divisor rule of domain reduction),
4. Gaussian elimination plus Fourier-Motzkin projection for the
   remaining linear real part, with witness extraction.

Propagation and pinning only infer values.  One step, ``_finish``, ends
every DNF branch and every leaf of the search on the atoms still open
there: the real stage when reals remain, else ``_decide``.

Unsat is only reported when the search was exhaustive with sound bounds
and every leaf was refuted; a leaf that answers ``unknown`` blocks it too.
Anything undecidable is answered ``unknown``.  The DNF's branches share
one node budget and one deadline.  Once the search can no longer answer
unsat, only a sat leaf can change its answer, so it stops at once when no
leaf can be sat: when a real that no equality can pin divides a side of a
comparison through ``+`` and ``-`` only, every leaf's real stage finds
that side nonlinear.  ``RootSolver`` keeps this cut, though a leaf's
inexact root step might find a point.

Each atom of ``Var``, ``Const``, ``+``, ``-``, ``*`` and ``/`` is
compiled on first use, from the root of the solve on, to a closure
(``_affine``) that gives ``lhs - rhs = a·v + b`` at a model, on ints where
a value is integral and Fractions otherwise.  It pins an equality's one
unknown and reads constant bounds; an equality whose one unknown sits in a
divisor is pinned by a closure (``_inverse``) that inverts the path down
to it, and refuted where a step has no value (``0 / d = 1``).  An equality
a closure pinned from exact values holds by construction and leaves the
open atoms.  The other bounds come from a plan (``_plan``) per atom,
branching variable and set of unknowns, which reads off the atom what
folding would leave of it: the target of the side that holds ``v``, and
whether that side is monotone, has ``v`` as a factor and is
integer-valued.  ``_monotone_bound`` reads the upper bound
``(target - b) // a`` off the side's closure, and ``_dividend`` the
divisor ``k``.  The symbolic step (substitute, fold, solve) is left to the
other shapes, to a zero factor beside an unknown and a zero divisor, to an
atom that reads an inexact value, and to one whose one unknown no closure
bounds (``a = 0``, or ``v`` in a divisor or in both factors of a
product); but an atom that ``a = 0`` makes false empties ``v``'s range
(``x > x`` is unsat).  Linear pinning and the real stage read each atom's
linear form at the model straight off the atom (``linear_form`` with a
model), which substitutes and folds a function application alone.  One pass,
``_decide``, decides each atom a model makes ground: by its closure when
every value is exact, else by ``eval_constraint``.  Each search node
decides only the atoms its assignments made ground, since an atom that
holds holds in the whole subtree, and propagates over the equalities still
open.
"""

from __future__ import annotations

import operator
import sys
import time
from fractions import Fraction
from math import gcd

from .ast import (And, BinOp, BoolConst, Compare, Const, ConstraintIte,
                  Domain, FuncApp, Implies, MathMorphError, Not, Or, Pow,
                  Problem, Var, conjuncts, contains_complex, free_variables,
                  negate)
from .algebra import (FLIPPED, LinearForm, const_bound, eliminate, exact,
                      fold_constraint, has_integer_point, int_range,
                      linear_form, quotient, solve_for, substitute_model)
from .funcs import (FLOAT_MARGIN, FUNCTIONS, Num, coerce_to_domain,
                    eval_constraint, eval_expression, exact_value)
from .parser import (Atom, ParseError, ProblemBuilder, build_sexprs,
                     sexpr_to_text, tokenize)
from .printer import _rational_sexpr, expr_to_sexpr

ENUM_SPAN = 1000
DEFAULT_NODE_BUDGET = 100_000
PROBE_WIDTH = 12
# the largest upper bound _monotone_bound gives
MONOTONE_CAP = 2 ** 30
# RootSolver's step: GRID cells over the unknown's box, whose open sides
# double from 1 up to ROOT_BOX, and each sign change bisected to ROOT_WIDTH
GRID = 64
ROOT_WIDTH = Fraction(1, 10 ** 12)
ROOT_BOX = 2 ** 14


class ExactSolver:
    def __init__(self, problem: Problem, node_budget=DEFAULT_NODE_BUDGET,
                 timeout_s=None):
        self.problem = problem
        self.node_budget = node_budget
        self.deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        self.nodes = 0
        # or "budget", "cut", "deadline", "window", "nonlinear", "goal",
        # "error" (an atom's check raised), "dnf" (past _DNF_CAP branches,
        # or a quantifier) or "complex"
        self.stopped_by = None
        self.windowed = False   # probed a range it could not bound soundly
        self.nonlinear = False  # the real stage left a nonlinear atom open
        self.goal_open = False  # propagation left a goal's model open
        self.raised = False     # the check of a ground atom raised
        self.domains = dict(problem.declarations)
        # closures by (id of atom or side, variable, builder), built on
        # first use; the keys are the branches' atoms and their sides, which
        # solve keeps alive for the whole solve, so no id is reused
        self._closures = {}
        self._watch = {}        # each variable's atoms, per branch searched
        self.atoms = []
        for c in problem.constraints:
            self.atoms.extend(conjuncts(c))

    # -- public -------------------------------------------------------------

    def solve(self):
        """Returns (status, model) with model mapping names to Num; the
        first DNF branch that answers sat decides."""
        if contains_complex(self.problem):
            self.stopped_by = "complex"
            return "unknown", {}
        branches = _dnf_branches(self.atoms)
        if branches is None:
            self.stopped_by = "dnf"
            return "unknown", {}
        saw_unknown = False
        try:
            for branch in branches:
                self.atoms = branch
                status, model = self._solve_branch()
                if status == "sat":
                    return status, model
                saw_unknown = saw_unknown or status == "unknown"
        except TimeoutError:
            self.stopped_by = "deadline"
            return "timeout", {}
        if self.stopped_by is None:
            self.stopped_by = "window" if self.windowed else "nonlinear" \
                if self.nonlinear else "goal" if self.goal_open else \
                "error" if self.raised else None
        return ("unknown" if saw_unknown else "unsat"), {}

    def _solve_branch(self):
        """(status, model) of the conjunction ``self.atoms``."""
        if any(isinstance(a, BoolConst) and not a.value for a in self.atoms):
            return "unsat", {}
        model = {}
        if self._propagate(model, self.atoms) is None:
            return "unsat", {}
        if len(model) < len(self.domains):
            # an optimization goal is only answerable when propagation
            # pins down the whole model; otherwise defer to a real optimizer
            if self.problem.goal.kind in ("minimize", "maximize"):
                self.goal_open = True
                return "unknown", {}
            # _linear_pin may pin part of the model; re-run defining
            # equality propagation over the smaller remainder
            if self._linear_pin(model) == "unsat" \
                    or self._propagate(model, self.atoms) is None:
                return "unsat", {}
            int_vars = [n for n, d in self.problem.declarations
                        if n not in model and d.is_integer]
            if int_vars:
                return self._int_search(model, int_vars)
        return self._finish(model, self.atoms)

    def _finish(self, model, atoms):
        """(status, model) at a model that leaves no integer unassigned: by
        the real stage when reals remain, else by ``_decide`` on ``atoms``."""
        reals = [n for n, _ in self.problem.declarations if n not in model]
        if reals:
            return self._real_stage(model, reals, atoms)
        return self._decide(model, atoms)[0], model

    # -- linear pinning -------------------------------------------------------

    def _linear_pin(self, model):
        """Write into ``model`` the variables that the linear equalities
        force by Gaussian elimination; "unsat" when they are inconsistent,
        have no integer point or force a value off a variable's domain."""
        unassigned = [n for n, _ in self.problem.declarations
                      if n not in model]
        var_set = set(unassigned)
        inexact = {u for u, x in model.items() if not x.exact}
        # an equality that reads an inexact value gets a mark of its own, a
        # symbol no pivot takes; a value whose form keeps a mark depends on
        # that equality, so it is inexact
        eqs, marks = [], set()
        for c in self.atoms:
            if not (isinstance(c, Compare) and c.rel == "="):
                continue
            f = self._form(c, model, var_set)       # constraint: f = 0
            if f is None:
                continue                    # nonlinear: the check covers it
            if inexact and not inexact.isdisjoint(free_variables(c)):
                mark = ("inexact", len(eqs))
                marks.add(mark)
                f = f + LinearForm({mark: 1})
            eqs.append(f)
        chain, residual, free = eliminate(eqs, unassigned)
        # a residual has no variable left, only marks; one that holds a
        # mark reads an inexact value, whose slack may close its gap
        if any(e.const != 0 and not e.coeffs for e in residual):
            return "unsat"
        # back-substitute; values stay linear forms over the free variables
        forms = {v: LinearForm({v: 1}) for v in [*free, *marks]}
        for v, g in reversed(chain):
            acc = LinearForm({}, g.const)
            for u, k in g.coeffs.items():
                acc = acc + forms[u].scale(k)
            forms[v] = acc
        # with no mark, free reals at 0 and free integers anywhere give a
        # point, integral unless an open integer's form has a fraction as its
        # constant or on a free integer; only then can the test refute (it
        # reads a mark as a real, which frees the mark's equality)
        ints = {v for v in unassigned if self.domains[v].is_integer}
        if (marks or any(type(k) is not int for v, _ in chain if v in ints
                         and forms[v].coeffs for k in (forms[v].const, *(
                             forms[v].coeffs.get(u, 0) for u in ints)))) \
                and not has_integer_point(eqs, ints):
            return "unsat"
        # pin whatever the system forces regardless of the free part;
        # with no free variable that is every variable of the chain
        for v, _ in chain:
            f = forms[v]
            if f.coeffs.keys() <= marks:
                ok = coerce_to_domain(self.domains[v], Num(
                    Fraction(f.const), f.is_constant()))
                if ok is None:
                    return "unsat"
                model[v] = ok
        return None

    # -- propagation --------------------------------------------------------

    def _form(self, c, model, var_set):
        """``lhs - rhs`` of the comparison ``c`` at ``model``, a linear form
        over ``var_set`` read off ``c``; None where a side is nonlinear."""
        lhs, rhs = (linear_form(t, var_set, model) for t in (c.lhs, c.rhs))
        return None if lhs is None or rhs is None else lhs - rhs

    def _propagate(self, model, atoms):
        """Assign each variable that an equality of ``atoms`` forces as its
        one unknown; a value from an inexact one is inexact.  None when a
        value breaks its domain or none exists, else ``atoms`` less the
        equalities a closure pinned from exact values, which hold.  An
        equality seen with one unknown has pinned it or never can, so a
        pass looks again only at those that had more."""
        inexact = {u for u, x in model.items() if not x.exact}
        held = set()
        eqs = [c for c in atoms if isinstance(c, Compare) and c.rel == "="]
        while eqs:
            later, pinned = [], False
            for c in eqs:
                fvs = free_variables(c)
                unknown = fvs - model.keys()
                if len(unknown) != 1:
                    if unknown:
                        later.append(c)
                    continue
                (v,) = unknown
                try:
                    val, closed = self._pin(c, v, model)
                except _NoValue:        # unless slack may close the gap
                    if inexact.isdisjoint(fvs):
                        return None
                    continue
                if val is None:
                    continue
                if inexact and not inexact.isdisjoint(fvs):
                    val = Num(val.value, exact=False)
                ok = coerce_to_domain(self.domains[v], val)
                if ok is None:
                    return None
                model[v] = ok
                if not ok.exact:
                    inexact.add(v)
                elif closed:
                    held.add(id(c))
                pinned = True
            eqs = later if pinned else []
        return [c for c in atoms if id(c) not in held] if held else atoms

    def _pin(self, c, v, model):
        """``(value, closed)``: the value of ``v``, the one unknown of the
        equality ``c``, or None when neither solving for it nor inverting
        ``c`` finds one (_NoValue when an inversion step has none), and
        whether a closure found it: ``c``'s affine closure, or where that
        refuses, such as ``v`` in a divisor, its ``_inverse`` closure."""
        ab = self._compiled(c, v, model)
        if ab and ab[0]:
            return Num(Fraction(-ab[1], ab[0])), True
        inverse = None if self._closure(c, v) \
            else self._closure(c, v, _inverse)
        try:
            if inverse:
                return inverse(model), True
        except (KeyError, ZeroDivisionError):
            pass                        # the symbolic step decides
        sub = self._substitute_model(c, model)
        if free_variables(sub) != {v}:
            return None, False
        sol = solve_for(sub.lhs, sub.rhs, v)
        if sol is None:
            return self._invert_equality(sub, v), False
        try:
            return eval_expression(sol, {}), False
        except MathMorphError:
            return None, False

    def _invert_equality(self, c, v):
        """Solve an equation with one unknown by inverting +, -, *, / along
        the unique path to it (``_inversion_path``); None where none is."""
        path = _inversion_path(c, v)
        if path is None:
            return None
        target, steps = path
        t = exact_value(target)
        for invert, off in steps:
            k = None if t is None else exact_value(off)
            t = None if k is None else invert(t, k)
        return None if t is None else Num(t, exact=True)

    def _substitute_model(self, c, model):
        return fold_constraint(substitute_model(c, model))

    def _closure(self, node, v, build=None):
        """``build(node, v)``, by default ``_affine(node, v)``, compiled on
        first use; None where it refuses."""
        key = (id(node), v, build)
        f = self._closures.get(key, False)
        if f is False:
            f = self._closures[key] = (build or _affine)(node, v)
        return f

    def _planned(self, c, v, unknown, model):
        """What ``_side`` reads off the atom ``c`` at ``model``, by ``c``'s
        plan for ``v`` at models that leave ``unknown`` unassigned, built on
        first use; ``()`` where no side of an equality holds ``v`` over a
        constant.  None where ``_affine`` refuses ``c`` and where the plan
        refuses the model."""
        key = (id(c), v, frozenset(unknown))
        plan = self._closures.get(key, False)
        if plan is False:
            plan = self._closures[key] = self._closure(c, None) \
                and _plan(c, v, unknown, self.domains)
        try:
            return plan and plan(model)
        except ZeroDivisionError:
            return None

    def _compiled(self, node, v, model):
        """``(a, b)`` with ``node = a·v + b`` at ``model`` by ``_affine``;
        None where the symbolic step must decide: for a shape it refuses, a
        missing variable or a zero divisor."""
        f = self._closure(node, v)
        if f is None:
            return None
        try:
            return f(model)
        except (KeyError, ZeroDivisionError):
            return None

    # -- the check at a model ------------------------------------------------

    def _check(self, model):
        """The verdict of ``_decide`` on every atom."""
        return self._decide(model, self.atoms)[0]

    def _decide(self, model, atoms):
        """``(verdict, open)`` on the atoms of ``atoms`` that ``model``
        makes ground: ``"unsat"`` at the first false one, ``"unknown"`` at
        the first that raises, else ``"sat"``; ``open`` keeps, in order,
        the atoms not known to hold.  In the integer search with every value
        exact, an atom's closure decides it; ``eval_constraint`` decides the
        rest, a shape or value the closure refuses and an inexact value,
        which keeps slack."""
        exact = all(x.exact for x in model.values())
        keys = model.keys()
        left = []
        for i, c in enumerate(atoms):
            if not keys >= free_variables(c):
                left.append(c)
                continue
            ab = self._compiled(c, None, model) if exact else None
            try:
                holds = _HOLDS[c.rel](ab[1], 0) if ab \
                    else eval_constraint(c, model)
            except MathMorphError:
                self.raised = True
                return "unknown", left + atoms[i:]
            if not holds:
                return "unsat", None
        return "sat", left

    # -- integer search -----------------------------------------------------

    def _int_search(self, model, int_vars):
        self.undecided = False          # set once unsat cannot be claimed
        self._watch = {}
        try:
            result = self._dfs(dict(model), list(int_vars), self.atoms)
        except _NoSatLeaf:
            self.stopped_by = "cut"
            return "unknown", {}
        if result is not None:
            return "sat", result
        if self.nodes > self.node_budget:
            self.stopped_by = "budget"
        if self.nodes >= self.node_budget or self.undecided:
            return "unknown", {}
        return "unsat", {}

    def _undecided(self, model):
        """Record that the search can no longer answer unsat.  The first
        time, end it if no leaf can answer sat either."""
        if self.undecided:
            return
        self.undecided = True
        if self._no_leaf_can_be_sat(model):
            raise _NoSatLeaf

    def _no_leaf_can_be_sat(self, model):
        """True when some comparison has a side that reaches, through
        ``+`` and ``-`` only, a division by a variable that no leaf can
        assign.  Folding keeps such a division and cannot cancel terms of
        a sum, so at every leaf that side has no linear form and the real
        stage answers unknown."""
        # the search assigns the integers, and propagation any variable
        # left alone in an equality
        assignable = model.keys() | {v for v, d in self.domains.items()
                                     if d.is_integer}
        equalities = [free_variables(c) for c in self.atoms
                      if isinstance(c, Compare) and c.rel == "="]
        grew = True
        while grew:
            grew = False
            for fvs in equalities:
                left = fvs - assignable
                if len(left) == 1:
                    assignable |= left
                    grew = True
        return any(isinstance(c, Compare)
                   and (_divides_by_other(c.lhs, assignable)
                        or _divides_by_other(c.rhs, assignable))
                   for c in self.atoms)

    def _int_bounds(self, v, model):
        """``(lo, hi, sound, k)``: ``v``'s range, whether it holds every
        value of ``v`` in a solution, and the gcd of the ``k`` of the
        equalities that read ``v·E = k`` (0 when there is none), which
        every such value divides."""
        dom = self.domains[v]
        lo = dom.lower_bound
        hi = None
        sound_lo = lo is not None
        sound_hi = False
        k = 0
        inexact = {u for u, x in model.items() if not x.exact}
        if v not in self._watch:
            self._watch[v] = [c for c in self.atoms if v in free_variables(c)]
        for c in self._watch[v]:
            fvs = free_variables(c)
            unknown = fvs - model.keys()
            # an atom with v its only unknown reads v rel -b/a
            ab = self._compiled(c, v, model) if len(unknown) == 1 else None
            b = None
            if ab and not ab[0] and not inexact \
                    and not _HOLDS[c.rel](ab[1], 0):
                return 0, -1, True, 0   # false whatever value v takes
            if ab and ab[0]:
                b = (FLIPPED[c.rel] if ab[0] < 0 else c.rel,
                     Fraction(-ab[1], ab[0]))
            # with two unknowns left, only a fold that drops one (a zero
            # factor, which the plan refuses) leaves a constant bound; the
            # plan reads exact values only, as _decide's closures do
            side = self._planned(c, v, unknown, model) \
                if (b or len(unknown) > 1) and inexact.isdisjoint(fvs) \
                else None
            if side is None:
                sub = self._substitute_model(c, model)
                b = b or const_bound(sub, v)
                side = _side(sub, c, v, self.domains)
            b_lo, b_hi = int_range(*b) if b else (None, None)
            if b_lo is not None:
                lo = b_lo if lo is None else max(lo, b_lo)
                sound_lo = True
            if b_hi is not None:
                hi = b_hi if hi is None else min(hi, b_hi)
                sound_hi = True
            if c.rel != "=" or not side:
                continue
            m = self._monotone_bound(side, v, model)
            if m is not None:
                hi = m if hi is None else min(hi, m)
                sound_hi = True
            # a Const read from an inexact value may be off by its slack
            if inexact.isdisjoint(fvs):
                k = gcd(k, _dividend(side) or 0)
        if lo is None:
            lo = -ENUM_SPAN // 2
        if hi is None:
            hi = lo + ENUM_SPAN
        return lo, hi, sound_lo and sound_hi, k

    def _monotone_bound(self, side, v, model):
        """Upper bound, at most MONOTONE_CAP, for a NAT/POS variable from
        an equality whose side is monotone increasing in the unassigned
        nonnegative variables; one below ``v``'s lower bound when the side
        passes its target there already.  ``side`` is what ``_side`` reads
        off the equality at ``model``.  The bound is read off the atom's
        own side there: off its closure when ``v`` is affine in it, else by
        probing."""
        target, expr, atom_side, fv, monotone = side[:5]
        if not monotone or not all(self.domains.get(u, Domain.REAL) in
                                   (Domain.NAT, Domain.POS) for u in fv):
            return None
        # evaluate with all other vars at their domain minimum
        env = {**model, **{u: Num(Fraction(self.domains[u].lower_bound))
                           for u in fv if u != v}}
        low = self.domains[v].lower_bound
        ab = self._compiled(atom_side, v, env)
        if ab and ab[0] >= 0:
            a, b = ab
            if a * low + b > target:
                return low - 1
            return min((target - b) // a, MONOTONE_CAP) if a \
                else MONOTONE_CAP

        # a side the closure refuses, such as v·v: double, then bisect
        def g(x):
            env[v] = Num(Fraction(x))
            ab = self._compiled(atom_side, None, env)
            return ab[1] if ab else eval_expression(expr, env).value
        if g(low) > target:
            return low - 1
        hi = 1
        while g(hi) <= target and hi < MONOTONE_CAP:
            hi *= 2
        lo = hi // 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if g(mid) <= target:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _dfs(self, model, todo, open_atoms):
        # decide the atoms made ground since the parent (one that holds
        # holds below, as models only grow); propagate over the open ones
        status, open_atoms = self._decide(model, open_atoms)
        if status == "unsat" or (open_atoms := self._propagate(
                model, open_atoms)) is None:
            return None
        todo = [v for v in todo if v not in model]
        if not todo:
            status, out = self._finish(model, open_atoms)
            if status == "unknown":
                self._undecided(model)
            return out if status == "sat" else None
        v = todo[0]
        # bounds tighten as outer variables get assigned, so derive them
        # per level from the partially substituted constraints
        lo, hi, sound, k = self._int_bounds(v, model)
        if hi - lo > ENUM_SPAN or (not sound and hi - lo > 200):
            # the range cannot be enumerated exhaustively; probe a small
            # window anyway so underdetermined problems still get a
            # witness
            hi = lo + PROBE_WIDTH
            sound = False
        if not sound:
            self.windowed = True
            self._undecided(model)
        for val in range(lo, hi + 1):
            if k and (not val or k % val):
                continue            # v·E = k: no other value satisfies it
            if not self._spend(1):
                return None
            child = dict(model)
            child[v] = Num(Fraction(val))
            found = self._dfs(child, todo[1:], open_atoms)
            if found is not None:
                return found
        return None

    def _spend(self, nodes):
        """Count ``nodes`` search nodes: False past the node budget, and
        TimeoutError past the deadline."""
        self.nodes += nodes
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError
        return self.nodes <= self.node_budget

    # -- linear real stage --------------------------------------------------

    def _real_stage(self, model, real_vars, atoms):
        var_set = set(real_vars)
        inexact = {u for u, x in model.items() if not x.exact}
        eqs, ineqs, diseqs = [], [], []
        for c in atoms:
            if isinstance(c, BoolConst):
                continue                # true: _solve_branch refutes false
            f = self._form(c, model, var_set)       # constraint: f rel 0
            # an atom that reads an inexact value may hold only by its slack
            if f is None or not inexact.isdisjoint(free_variables(c)):
                self.nonlinear |= f is None
                return "unknown", {}
            rel = c.rel
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
                    f = f.scale(-1)
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
                rest = f.isolate(v)
                if f.coeffs[v] > 0:
                    uppers.append((rest, strict))     # v <= rest
                else:
                    lowers.append((rest, strict))     # v >= rest
            for lo_f, ls in lowers:
                for up_f, us in uppers:
                    ineqs.append((lo_f - up_f, ls or us))
            record.append((v, lowers, uppers))
        # every real is eliminated, so what is left is constant
        for f, strict in ineqs:
            if f.const > 0 or (strict and f.const == 0):
                return "unsat", {}

        # witness extraction, innermost first
        values = {}

        def form_value(f):
            return f.const + sum(c * values[u] for u, c in f.coeffs.items())

        for v, lowers, uppers in reversed(record):
            lo = max((form_value(f) for f, _ in lowers), default=None)
            hi = min((form_value(f) for f, _ in uppers), default=None)
            lo_strict = any(s for f, s in lowers if form_value(f) == lo)
            hi_strict = any(s for f, s in uppers if form_value(f) == hi)
            if lo is not None and hi is not None:
                # every lower bound met every upper one in the projection,
                # so lo <= hi, and no bound is strict where they meet
                values[v] = quotient(lo + hi, 2) if lo < hi else lo
            elif lo is not None:
                values[v] = lo + 1 if lo_strict else lo
            elif hi is not None:
                values[v] = hi - 1 if hi_strict else hi
            else:
                values[v] = 0
        for v, g in reversed(chain):
            values[v] = form_value(g)

        candidate = {**model,
                     **{v: Num(Fraction(x)) for v, x in values.items()}}
        if self._check(candidate) == "sat":
            return "sat", candidate
        # disequalities may have landed exactly on the chosen point
        if diseqs:
            for delta in (Fraction(1, 7), Fraction(-1, 7), Fraction(1),
                          Fraction(-1), Fraction(3, 11)):
                for v in values:
                    bumped = {**candidate, v: Num(candidate[v].value + delta)}
                    if self._check(bumped) == "sat":
                        return "sat", bumped
        return "unknown", {}


class RootSolver(ExactSolver):
    """The exact solver with a root step at each leaf whose real stage is
    left undecided with one real unknown; ``rooted`` once the step answers.
    The step reads each equality's sign off a float image of it, and takes
    an exact value only where the sign is in doubt (``_residual``).  The
    full check takes a root as inexact, so a pole is never taken for one,
    and a grid point as exact, so a strict bound excludes its end."""

    rooted = False

    def _real_stage(self, model, real_vars, atoms):
        status, out = super()._real_stage(model, real_vars, atoms)
        if status != "unknown" or len(real_vars) != 1:
            return status, out
        (v,) = real_vars
        atoms = [self._substitute_model(c, model) for c in atoms]
        signs = [_residual(a, v) for a in atoms
                 if isinstance(a, Compare) and a.rel == "="]
        bounds = [b for b in (const_bound(a, v) for a in atoms) if b]
        lo = max((x for rel, x in bounds if rel in (">", ">=", "=")),
                 default=None)
        hi = min((x for rel, x in bounds if rel in ("<", "<=", "=")),
                 default=None)
        tried = set()
        widths = [1] if lo is not None and hi is not None else \
            [2 ** k for k in range(ROOT_BOX.bit_length())]
        for width in widths:
            if not self._spend(GRID):   # a box costs about a node per cell
                break
            box = (lo if lo is not None else (hi or 0) - width,
                   hi if hi is not None else (lo or 0) + width)
            for x, exact in _candidates(signs, *box):
                candidate = {**model, v: Num(x, exact)}
                if x not in tried and self._check(candidate) == "sat":
                    self.rooted = True
                    return "sat", candidate
                tried.add(x)
        return "unknown", {}


def solve_exact(problem: Problem, node_budget=DEFAULT_NODE_BUDGET,
                timeout_s=None):
    return ExactSolver(problem, node_budget, timeout_s).solve()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_DNF_CAP = 256


class _NoSatLeaf(Exception):
    """Unwinds an integer search in which no leaf can answer sat."""


class _NoValue(Exception):
    """Raised by an inversion step that no value meets, as in 0 / d = 1."""


def _side(c, atom, v, domains):
    """``(target, expr, side, unknowns, monotone, factor, integral)`` when
    one side ``expr`` of the folded equality ``c`` holds ``v`` and the
    other is the constant ``target``: ``side`` is that side of ``c``'s atom
    ``atom``, ``unknowns`` the variables of ``expr``, and the last three
    ``_shape`` of ``expr``.  None otherwise."""
    for expr, other, side in ((c.lhs, c.rhs, atom.lhs),
                              (c.rhs, c.lhs, atom.rhs)):
        fv = free_variables(expr)
        if type(other) is Const and v in fv:
            return (other.value, expr, side, fv, *_shape(expr, v, domains))
    return None


def _shape(e, v, domains):
    """``(monotone, factor, integral)`` of the folded term ``e``: whether
    it is built by ``+`` and ``*`` from variables and nonnegative
    constants, so is monotone increasing in each variable; whether ``v`` is
    a factor of its top product; whether it takes an integer value at every
    integer point (integer variables and integers under ``+``, ``-`` and
    ``*``)."""
    if type(e) is Var:
        return True, e.name == v, domains[e.name].is_integer
    if type(e) is Const:
        return e.value >= 0, False, e.value.denominator == 1
    if type(e) is not BinOp:
        return False, False, False
    return _folded(e.op, _shape(e.left, v, domains),
                   _shape(e.right, v, domains))


def _dividend(side):
    """The nonzero integer ``k`` when the equality that ``side`` reads
    (see ``_side``) is ``v·E = k``: one side a product with ``v`` as a
    factor and only integer-valued factors (integer variables, integers,
    ``+``, ``-`` and ``*``), the other the constant ``k``.  Every integer
    ``v`` that satisfies it divides ``k``.  None for any other equality."""
    k, *_, factor, integral = side
    return k.numerator if k and k.denominator == 1 and factor \
        and integral else None


# the closures keep integral values as ints, Python's fast arithmetic
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": quotient}
_HOLDS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_UNIT = (1, 0)
# an inversion step by (op, whether v is on the left): the value of
# the side that holds v, from the value t of ``left op right`` and the
# value k of the other side; None where no value, or every value, would do,
# but _NoValue where no divisor does (0 / d = t or k / d = 0, t, k ≠ 0)
_INVERT = {("+", True): lambda t, k: t - k, ("+", False): lambda t, k: t - k,
           ("-", True): lambda t, k: t + k, ("-", False): lambda t, k: k - t,
           ("*", True): lambda t, k: t / k if k else None,
           ("*", False): lambda t, k: t / k if k else None,
           ("/", True): lambda t, k: t * k if k else None,
           ("/", False): lambda t, k: k / t if t and k else _no_divisor(t, k)}


def _no_divisor(t, k):
    if t or k:
        raise _NoValue


def _inversion_path(c, v):
    """``(target, steps)`` when ``v`` sits on one side of the equality
    ``c`` only, at the end of a unique path of ``BinOp`` nodes: ``target``
    is the other side, and ``steps`` pairs each node's ``_INVERT`` step,
    from the top, with its subtree off the path.  Else None."""
    lf, rf = free_variables(c.lhs), free_variables(c.rhs)
    if (v in lf) == (v in rf):
        return None
    expr, target = (c.lhs, c.rhs) if v in lf else (c.rhs, c.lhs)
    steps = []
    while isinstance(expr, BinOp):
        in_left = v in free_variables(expr.left)
        if in_left == (v in free_variables(expr.right)):
            return None
        steps.append((_INVERT[expr.op, in_left],
                      expr.right if in_left else expr.left))
        expr = expr.left if in_left else expr.right
    return (target, steps) if isinstance(expr, Var) else None


def _inverse(c, v):
    """A closure ``model -> Num``: the value of ``v`` that
    ``_invert_equality`` finds for the equality ``c`` at the model's other
    values, or None where it finds none.  The target and the subtrees off
    the path are valued by ``_affine`` closures, whose errors it raises.
    None where ``_inversion_path`` or ``_affine`` refuses."""
    path = _inversion_path(c, v)
    fs = path and [_affine(t, None) for t in
                   (path[0], *(off for _, off in path[1]))]
    if not fs or any(f is None for f in fs):
        return None
    inverts = [invert for invert, _ in path[1]]

    def inverse(m):
        t = Fraction(fs[0](m)[1])
        for invert, f in zip(inverts, fs[1:]):
            t = invert(t, f(m)[1])
            if t is None:
                return None
        return Num(t)
    return inverse


def _affine(term, v):
    """A closure ``model -> (a, b)`` with ``term = a·v + b`` at the model's
    values of the other variables (an atom reads as ``lhs - rhs``); with
    ``v`` None, ``b`` is the term's value.  It mirrors what ``lin`` accepts
    on the folded, substituted term: Var, Const, ``+``, ``-``, a product
    with a factor free of ``v`` and a division by a divisor free of ``v``;
    any other term gives None.  ``a`` and ``b`` are exact: ints where
    integral, else Fractions.  The closure raises KeyError for a variable
    the model lacks (folding may have dropped it, as in ``(* 0 c)``) and
    ZeroDivisionError for a zero divisor."""
    if isinstance(term, Compare):
        term = BinOp("-", term.lhs, term.rhs)
    compiled = _compile(term, v)
    if compiled is None:
        return None
    f, has_v = compiled
    return f if has_v else (lambda m: (0, f(m)))


def _compile(t, v):
    """``(closure, has_v)`` for ``_affine``: the closure gives ``(a, b)``
    when ``t`` contains ``v`` and ``t``'s value otherwise."""
    if type(t) is Const:
        k = exact(t.value)
        return (lambda m: k), False
    if type(t) is Var:
        if t.name == v:
            return (lambda m: _UNIT), True
        name = t.name
        return (lambda m: exact(m[name].value)), False
    if type(t) is not BinOp:
        return None
    left, right = _compile(t.left, v), _compile(t.right, v)
    if left is None or right is None:
        return None
    (f, f_v), (g, g_v), op = left, right, _OPS[t.op]
    if not (f_v or g_v):
        return (lambda m: op(f(m), g(m))), False
    if t.op in ("*", "/"):
        if g_v and (f_v or t.op == "/"):
            return None             # v in both factors, or in the divisor
        if f_v:
            def scaled(m):
                (a, b), k = f(m), g(m)
                return op(a, k), op(b, k)
        else:
            def scaled(m):
                k, (a, b) = f(m), g(m)
                return k * a, k * b
        return scaled, True
    if not g_v:
        def shifted(m):
            a, b = f(m)
            return a, op(b, g(m))
    elif not f_v:
        def shifted(m):
            k, (a, b) = f(m), g(m)
            return op(0, a), op(k, b)
    else:
        def shifted(m):
            (a, b), (c, d) = f(m), g(m)
            return op(a, c), op(b, d)
    return shifted, True


def _plan(c, v, unknown, domains):
    """A closure ``model -> side``: what ``_side`` reads off the atom ``c``
    at a model that leaves ``unknown`` unassigned, without substituting or
    folding it; ``()`` where no side of an equality holds ``v`` over a
    constant.  A ground term compiles to its value, and a term with an
    unknown to its ``_shape`` as folded at the model, by ``_folded``.
    ``c`` must be built of what ``_affine`` accepts."""
    def read(t):
        """``(closure, open)``; ``open`` when ``t`` holds an unknown."""
        if type(t) is BinOp:
            (f, f_open), (g, g_open), op = read(t.left), read(t.right), t.op
            if f_open or g_open:
                return (lambda m: _folded(op, f(m), g(m))), True
        elif type(t) is Var and t.name in unknown:
            shape = _shape(t, v, domains)
            return (lambda m: shape), True
        return _compile(t, None)[0], False
    (f, f_open), (g, g_open) = read(c.lhs), read(c.rhs)
    if c.rel != "=" or f_open == g_open:
        return lambda m: (f(m), g(m))[:0]   # read for their refusals
    side, f, g = (c.lhs, f, g) if f_open else (c.rhs, g, f)
    fv = free_variables(side) & unknown
    return lambda m: (g(m), side, side, fv, *f(m))


def _folded(op, a, b):
    """``_shape`` of ``a op b``, where ``a`` and ``b`` are each the shape of
    a term or, for a ground one, its value, and folding (``add_e``,
    ``sub_e``, ``mul_e`` and ``div_e``) drops an operand that is 0 or 1
    where it changes nothing.  ZeroDivisionError where it would drop the
    unknowns beside a zero factor or keep a zero divisor."""
    if type(b) is not tuple:
        if b == 0 and op in "*/":
            raise ZeroDivisionError
        if b == 0 and op in "+-" or b == 1 and op in "*/":
            return a
    elif type(a) is not tuple:
        if a == 0 and op == "*":
            raise ZeroDivisionError
        if a == 0 and op == "+" or a == 1 and op == "*":
            return b
    p, q, r = a if type(a) is tuple else (a >= 0, False, a.denominator == 1)
    x, y, z = b if type(b) is tuple else (b >= 0, False, b.denominator == 1)
    return (op in "+*" and p and x, op == "*" and (q or y),
            op in "+-*" and r and z)


def _candidates(signs, lo, hi):
    """``(x, exact)`` per value in ``[lo, hi]`` to try: each equality's
    inexact roots from the sign changes on the grid of its ``_residual``,
    a float image with exact values where a sign is in doubt (skipping the
    points where it is undefined), or with no equality the exact grid."""
    # lo + step·i with step = (hi - lo) / GRID, one Fraction per point
    (p, d), (q, e) = Fraction(lo).as_integer_ratio(), \
        Fraction(hi - lo, GRID).as_integer_ratio()
    grid = [Fraction(p * e + q * d * i, d * e) for i in range(GRID + 1)]
    if not signs:
        yield from ((x, True) for x in grid)
    for f in signs:
        points = [(x, fx) for x in grid if (fx := f(x)) is not None]
        for (a, fa), (b, fb) in zip([(None, 0)] + points, points):
            if fb == 0:
                yield b, False
            elif fa and (fa < 0) != (fb < 0):
                yield _bisect(f, a, fa, b), False


def _bisect(f, a, fa, b):
    """A root between ``a`` and ``b``, where the signs ``f(a) = fa`` and
    ``f(b)`` that ``_residual`` reads (in floats, exactly where in doubt)
    differ, within ROOT_WIDTH and with a denominator of at most 10**12; a
    midpoint where ``f`` is zero or undefined ends it."""
    (p, d), (q, e) = a.as_integer_ratio(), b.as_integer_ratio()
    p, q, d = p * e, q * d, d * e               # a = p/d and b = q/d
    while (q - p) * ROOT_WIDTH.denominator > ROOT_WIDTH.numerator * d:
        m = Fraction(p + q, 2 * d)
        fm = f(m)
        if not fm:
            return m
        if (fm < 0) == (fa < 0):
            p, q, d, fa = p + q, 2 * q, 2 * d, fm
        else:
            p, q, d = 2 * p, p + q, 2 * d
    return Fraction(p + q, 2 * d).limit_denominator(10 ** 12)


def _residual(eq, v):
    """A closure ``x -> sign``: the sign (-1, 0 or 1) of ``lhs - rhs`` of
    the equality ``eq`` at the exact value ``x`` of ``v``, None where it is
    undefined, each point evaluated once: by its float image where that
    passes FLOAT_MARGIN times its scale, else by ``eval_expression``."""
    diff = BinOp("-", eq.lhs, eq.rhs)
    image, memo = _float_image(diff, v) or (lambda x: (0.0, 1.0)), {}

    def sign(x):
        key = x.as_integer_ratio()      # hashing a Fraction costs more
        if key not in memo:
            try:
                y, s = image(float(x))
            except (ArithmeticError, ValueError):
                y, s = 0.0, 1.0
            if not abs(y) > FLOAT_MARGIN * s:       # or inf, or nan
                try:
                    y = eval_expression(diff, {v: Num(x)}).value
                except MathMorphError:
                    y = None
            memo[key] = y if y is None else (y > 0) - (y < 0)
        return memo[key]
    return sign


# ``a op b`` on the (value, scale) pairs of a and b; a divisor near 0 raises
_FLOAT_OPS = {"+": lambda a, s, b, t: (a + b, s + t),
              "-": lambda a, s, b, t: (a - b, s + t),
              "*": lambda a, s, b, t: (a * b, s * t),
              "/": lambda a, s, b, t: (
                  q := a / (b if abs(b) > FLOAT_MARGIN * t else 0),
                  1 + (s + abs(q) * t) / abs(b)),
              "^": lambda a, s, n, _: (a ** n, (n + 1) * s ** n)}


def _float_image(t, v):
    """A closure ``x -> (value, scale)``: the term ``t`` at the float ``x``
    of ``v``; the scale (at least 1) bounds the size of the values it came
    from, so rounding stays far inside FLOAT_MARGIN times it.  None for an
    ``ite``, a function with no float twin, or a power but ``^ 0`` to
    ``^ 16`` (``power`` refuses none under 250 digits)."""
    if v not in free_variables(t):
        try:
            c = float(eval_expression(t, {}).value)
        except (MathMorphError, OverflowError):
            return None
        return lambda x, pair=(c, max(1.0, abs(c))): pair
    if type(t) is Var:
        return lambda x: (x, max(1.0, abs(x)))
    if type(t) is Pow and type(t.exponent) is Const \
            and t.exponent.value in range(17):
        sides, op = (t.base, t.exponent), _FLOAT_OPS["^"]
    elif type(t) is BinOp:
        sides, op = (t.left, t.right), _FLOAT_OPS[t.op]
    else:
        twin = type(t) is FuncApp and len(t.args) == 1 \
            and getattr(FUNCTIONS.get(t.name), "twin", None)
        f = twin and _float_image(t.args[0], v)
        return (lambda x: twin(*f(x))) if f else None
    f, g = _float_image(sides[0], v), _float_image(sides[1], v)
    return (lambda x: op(*f(x), *g(x))) if f and g else None


def _divides_by_other(expr, names) -> bool:
    """True when a division by a variable outside ``names`` is reached
    from ``expr`` through ``+`` and ``-`` nodes only."""
    if not isinstance(expr, BinOp):
        return False
    if expr.op in ("+", "-"):
        return (_divides_by_other(expr.left, names)
                or _divides_by_other(expr.right, names))
    return (expr.op == "/" and isinstance(expr.right, Var)
            and expr.right.name not in names)


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
            return norm(negate(c.child))
        if isinstance(c, Implies):
            return norm(Or((Not(c.antecedent), c.consequent)))
        if isinstance(c, ConstraintIte):
            return norm(Or((And((c.cond, c.then)),
                            And((Not(c.cond), c.els)))))
        return None                     # a quantifier

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


# ---------------------------------------------------------------------------
# stdio protocol
# ---------------------------------------------------------------------------

class _Session:
    """Elaborates each command as it arrives; the first one that fails is
    the answer to every ``check-sat`` until ``reset``."""

    def __init__(self, out):
        self.out = out
        self.reset()

    def reset(self):
        self.builder = ProblemBuilder()
        self.error = None
        self.model = None

    def handle(self, sexpr):
        if not isinstance(sexpr, list):
            text = sexpr_to_text(sexpr).replace('"', '""')
            print(f'(error "not a command: {text}")', file=self.out)
            return
        head = sexpr[0].text if sexpr and isinstance(sexpr[0], Atom) else ""
        if head in ("set-option", "set-info", "set-logic"):
            return
        if head == "echo":
            print(" ".join(sexpr_to_text(a) for a in sexpr[1:]),
                  file=self.out)
            return
        if head == "reset":
            self.reset()
            return
        if head == "check-sat":
            self._check_sat()
            return
        if head == "get-value":
            self._get_value(sexpr)
            return
        try:
            self.builder.feed(sexpr)
        except MathMorphError as exc:
            self.error = self.error or exc

    def _check_sat(self):
        self.model = None
        try:
            if self.error is not None:
                raise self.error.with_traceback(None)
            problem = self.builder.problem()
        except MathMorphError as exc:
            print(f'(error "{exc}")', file=self.out)
            print("unknown", file=self.out)
            return
        status, model = solve_exact(problem)
        if status == "sat":
            self.model = model
        print(status, file=self.out)

    def _get_value(self, sexpr):
        if self.model is None:
            print('(error "no model available")', file=self.out)
            return
        try:
            # an inexact value too prints as the exact rational it holds,
            # so no digit is lost on the way to the caller
            parts = []
            for t in self.builder.value_targets(sexpr):
                value = eval_expression(t, self.model).value
                parts.append(f"({expr_to_sexpr(t)} {_rational_sexpr(value)})")
        except MathMorphError as exc:
            print(f'(error "{exc}")', file=self.out)
            return
        print(f"({' '.join(parts)})", file=self.out)


def main() -> int:
    session = _Session(sys.stdout)
    tokens, depth, pending = [], 0, ""
    for lineno, line in enumerate(sys.stdin, 1):
        first = lineno - pending.count("\n")     # where pending began
        try:
            line_tokens = list(tokenize(pending + line, first))
        except ParseError:
            pending += line             # a string literal runs on
            continue
        pending = ""
        tokens += line_tokens
        depth += sum((t.text == "(") - (t.text == ")") for t in line_tokens)
        if depth > 0 or not tokens:
            continue
        try:
            sexprs = build_sexprs(tokens)
        except ParseError as exc:
            print(f'(error "{exc}")')
            tokens, depth = [], 0
            sys.stdout.flush()
            continue
        tokens, depth = [], 0
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
