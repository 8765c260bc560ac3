"""Typed AST for the supported SMT-LIB fragment.

Expressions, constraints, goals and whole problems are immutable
dataclasses.  Rational constants are exact (`fractions.Fraction`), so no
transformation ever depends on floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union


class MathMorphError(Exception):
    """Base class for all package errors."""


class ValidationError(MathMorphError):
    """Raised when a Problem violates a structural invariant."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class Domain(Enum):
    NAT = "N"        # nonnegative integers, Int + (>= v 0)
    POS = "N+"       # positive integers, Int + (>= v 1)
    INT = "Z"        # plain Int, no side constraint
    REAL = "R"
    COMPLEX = "C"    # parse-level only; solving returns unknown

    @property
    def smt_sort(self) -> str:
        if self in (Domain.NAT, Domain.POS, Domain.INT):
            return "Int"
        if self is Domain.REAL:
            return "Real"
        return "Complex"

    @property
    def is_integer(self) -> bool:
        return self in (Domain.NAT, Domain.POS, Domain.INT)

    @property
    def lower_bound(self) -> Optional[int]:
        """Side-constraint lower bound implied by the domain, if any."""
        if self is Domain.NAT:
            return 0
        if self is Domain.POS:
            return 1
        return None

    def guard(self, name: str) -> Optional["Compare"]:
        """The side constraint ``(>= name lb)`` of a NAT / POS variable
        ``name``; None for a domain without a lower bound."""
        lb = self.lower_bound
        return None if lb is None else \
            Compare(Var(name), ">=", Const(Fraction(lb)))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

BINARY_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class Const:
    """Exact rational constant.

    ``lexeme`` remembers the literal as it appeared in source (e.g. "50.0")
    so printing can reproduce the original text; it never takes part in
    structural equality.
    """
    value: Fraction
    lexeme: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class NamedConst:
    """A named mathematical constant: ``pi`` or ``e``."""
    name: str

    def __post_init__(self):
        if self.name not in ("pi", "e"):
            raise ValidationError(f"unknown named constant: {self.name}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValidationError(f"unknown operator: {self.op}")


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: "Expression"


@dataclass(frozen=True)
class FuncApp:
    name: str
    args: tuple


@dataclass(frozen=True)
class TermIte:
    """Term-level if-then-else: condition is a Constraint, branches are
    Expressions."""
    cond: "Constraint"
    then: "Expression"
    els: "Expression"


Expression = Union[Const, NamedConst, Var, BinOp, Pow, FuncApp, TermIte]


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

RELATIONS = (">=", "<=", ">", "<", "=", "!=")

_NEGATED_REL = {">=": "<", "<=": ">", ">": "<=", "<": ">=", "=": "!=", "!=": "="}


@dataclass(frozen=True)
class Compare:
    lhs: Expression
    rel: str
    rhs: Expression

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValidationError(f"unknown relation: {self.rel}")


@dataclass(frozen=True)
class And:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValidationError("And needs at least two children")


@dataclass(frozen=True)
class Or:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValidationError("Or needs at least two children")


@dataclass(frozen=True)
class Not:
    child: "Constraint"


@dataclass(frozen=True)
class Implies:
    antecedent: "Constraint"
    consequent: "Constraint"


@dataclass(frozen=True)
class ConstraintIte:
    cond: "Constraint"
    then: "Constraint"
    els: "Constraint"


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Quantifier:
    kind: str                      # "forall" | "exists"
    bindings: tuple                # ((name, Domain), ...)
    body: "Constraint"

    def __post_init__(self):
        if self.kind not in ("forall", "exists"):
            raise ValidationError(f"unknown quantifier: {self.kind}")


Constraint = Union[Compare, And, Or, Not, Implies, ConstraintIte, BoolConst,
                   Quantifier]


# ---------------------------------------------------------------------------
# Goal / Problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Goal:
    kind: str                      # "minimize" | "maximize" | "solve"
    targets: tuple = ()            # Expressions whose values are requested

    def __post_init__(self):
        if self.kind not in ("minimize", "maximize", "solve"):
            raise ValidationError(f"unknown goal kind: {self.kind}")
        if self.kind in ("minimize", "maximize") and len(self.targets) != 1:
            raise ValidationError(f"{self.kind} goal needs exactly one target")


@dataclass(frozen=True)
class Problem:
    declarations: tuple            # ((name, Domain), ...) in source order
    constraints: tuple             # (Constraint, ...)
    goal: Goal = Goal("solve", ())
    recursive_defs: tuple = ()     # raw define-fun-rec texts, forwarded verbatim

    def declared_names(self) -> tuple:
        return tuple(n for n, _ in self.declarations)


# ---------------------------------------------------------------------------
# Structural utilities
# ---------------------------------------------------------------------------

def children(node) -> Iterator:
    """Direct children of an AST node (expressions and constraints)."""
    if isinstance(node, (Const, NamedConst, Var, BoolConst)):
        return
    if isinstance(node, BinOp):
        yield node.left
        yield node.right
    elif isinstance(node, Pow):
        yield node.base
        yield node.exponent
    elif isinstance(node, FuncApp):
        yield from node.args
    elif isinstance(node, TermIte):
        yield node.cond
        yield node.then
        yield node.els
    elif isinstance(node, Compare):
        yield node.lhs
        yield node.rhs
    elif isinstance(node, (And, Or)):
        yield from node.items
    elif isinstance(node, Not):
        yield node.child
    elif isinstance(node, Implies):
        yield node.antecedent
        yield node.consequent
    elif isinstance(node, ConstraintIte):
        yield node.cond
        yield node.then
        yield node.els
    elif isinstance(node, Quantifier):
        yield node.body
    else:
        raise TypeError(f"not an AST node: {node!r}")


def rebuild(node, kids):
    """``node`` with its children replaced by ``kids``, in ``children``
    order; a leaf comes back as it is."""
    if isinstance(node, (Const, NamedConst, Var, BoolConst)):
        return node
    if isinstance(node, BinOp):
        return BinOp(node.op, *kids)
    if isinstance(node, Pow):
        return Pow(*kids)
    if isinstance(node, FuncApp):
        return FuncApp(node.name, tuple(kids))
    if isinstance(node, Compare):
        return Compare(kids[0], node.rel, kids[1])
    if isinstance(node, (And, Or)):
        return type(node)(tuple(kids))
    if isinstance(node, Not):
        return Not(kids[0])
    if isinstance(node, Implies):
        return Implies(*kids)
    if isinstance(node, (TermIte, ConstraintIte)):
        return type(node)(*kids)
    if isinstance(node, Quantifier):
        return Quantifier(node.kind, node.bindings, kids[0])
    raise TypeError(f"not an AST node: {node!r}")


def node_count(node) -> int:
    """Number of AST nodes in the tree rooted at ``node``."""
    return 1 + sum(node_count(c) for c in children(node))


# Interpreted functions whose (index-slot, body-slot) argument pair binds
# the index variable within the body.
BINDER_SLOTS = {"summation": (0, 3), "derivative": (1, 0),
                "integral": (1, 0)}


def free_variables(node) -> frozenset:
    """Names of free variables in an expression or constraint, as a
    frozenset computed once and kept on ``node``.  The attribute is no
    dataclass field, so equality, hashing, ``repr`` and ``replace`` never
    see it, and a node never changes, so it cannot go stale."""
    fv = getattr(node, "_free_variables", None)
    if fv is None:
        fv = frozenset(_free_names(node))
        object.__setattr__(node, "_free_variables", fv)
    return fv


def _free_names(node) -> set:
    """``free_variables`` walked afresh: only the node a caller asks about
    keeps its set."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Quantifier):
        bound = {n for n, _ in node.bindings}
        return _free_names(node.body) - bound
    if isinstance(node, FuncApp) and node.name in BINDER_SLOTS:
        var_idx, body_idx = BINDER_SLOTS[node.name]
        idx = node.args[var_idx]
        out = set()
        for i, a in enumerate(node.args):
            if i == var_idx:
                continue
            fv = _free_names(a)
            if i == body_idx and isinstance(idx, Var):
                fv -= {idx.name}
            out |= fv
        return out
    out = set()
    for c in children(node):
        out |= _free_names(c)
    return out


class _FreshNames:
    """Deterministic fresh-name supply: appends a numeric suffix."""

    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self.taken:
            i += 1
        name = f"{base}_{i}"
        self.taken.add(name)
        return name


def substitute_all(node, env: dict):
    """Simultaneously replace the free occurrences of each variable named
    in ``env`` with its replacement.

    Capture-avoiding: a quantifier binding, or the index of a binder
    function (``BINDER_SLOTS``), that occurs free in a replacement is
    renamed first.  Unchanged subtrees are returned as-is.
    """
    t = type(node)
    if t is Var:
        return env.get(node.name, node)
    if t is Const or t is NamedConst or t is BoolConst:
        return node
    if t is BinOp:
        l = substitute_all(node.left, env)
        r = substitute_all(node.right, env)
        return node if l is node.left and r is node.right \
            else BinOp(node.op, l, r)
    if t is Compare:
        l = substitute_all(node.lhs, env)
        r = substitute_all(node.rhs, env)
        return node if l is node.lhs and r is node.rhs \
            else Compare(l, node.rel, r)
    if t is FuncApp:
        slots = BINDER_SLOTS.get(node.name)
        if slots and type(node.args[slots[0]]) is Var:
            # the index binds its name in the body slot only
            var_idx, body_idx = slots
            index = node.args[var_idx]
            (name,), body = _substitute_under((index.name,),
                                              node.args[body_idx], env)
            args = [a if i in slots else substitute_all(a, env)
                    for i, a in enumerate(node.args)]
            args[var_idx] = index if name == index.name else Var(name)
            args[body_idx] = body
            return node if all(a is b for a, b in zip(args, node.args)) \
                else FuncApp(node.name, tuple(args))
    if t is Quantifier:
        names = tuple(n for n, _ in node.bindings)
        renamed, body = _substitute_under(names, node.body, env)
        if renamed is names and body is node.body:
            return node
        return Quantifier(node.kind,
                          tuple((n, d) for n, (_, d)
                                in zip(renamed, node.bindings)), body)
    kids = list(children(node))
    new_kids = [substitute_all(k, env) for k in kids]
    if all(a is b for a, b in zip(new_kids, kids)):
        return node
    return rebuild(node, new_kids)


def _substitute_under(names: tuple, body, env: dict):
    """Substitute ``env`` into ``body`` under a binder of ``names``; returns
    ``(names, body)``.  A bound name shadows its own replacement; one that
    occurs free in another replacement is renamed to a fresh name first,
    and ``names`` comes back as a new tuple."""
    inner = {k: v for k, v in env.items() if k not in names}
    if not inner:
        return names, body              # every name is bound here
    repl_free = set()
    for r in inner.values():
        repl_free |= free_variables(r)
    if repl_free.intersection(names):
        supply = _FreshNames(free_variables(body) | repl_free | inner.keys())
        renamed = []
        for n in names:
            if n in repl_free:
                n2 = supply.fresh(n)
                body = substitute_all(body, {n: Var(n2)})
                n = n2
            renamed.append(n)
        names = tuple(renamed)
    return names, substitute_all(body, inner)


def substitute_in_problem(p: Problem, env: dict) -> Problem:
    """``p`` with each variable named in ``env`` replaced by its
    replacement in every constraint and goal target, simultaneously as in
    ``substitute_all``, and its declaration dropped."""
    return replace(
        p, declarations=tuple((n, d) for n, d in p.declarations
                              if n not in env),
        constraints=tuple(substitute_all(c, env) for c in p.constraints),
        goal=Goal(p.goal.kind, tuple(substitute_all(t, env)
                                     for t in p.goal.targets)))


def negate(c: Constraint) -> Constraint:
    """Logical negation pushed through every connective down to the
    comparisons and Boolean constants; a ``Not`` is unwrapped, never
    added."""
    t = type(c)
    if t is Compare:
        return Compare(c.lhs, _NEGATED_REL[c.rel], c.rhs)
    if t is Not:
        return c.child
    if t is BoolConst:
        return BoolConst(not c.value)
    if t is And or t is Or:
        return (Or if t is And else And)(tuple(negate(i) for i in c.items))
    if t is Implies:
        return And((c.antecedent, negate(c.consequent)))
    if t is ConstraintIte:
        return ConstraintIte(c.cond, negate(c.then), negate(c.els))
    if t is Quantifier:
        dual = "exists" if c.kind == "forall" else "forall"
        return Quantifier(dual, c.bindings, negate(c.body))
    raise TypeError(f"not a constraint: {c!r}")


def constant_binding(c) -> Optional[tuple]:
    """``(name, value)`` when ``c`` is ``(= v k)`` or ``(= k v)`` for a
    variable ``v`` and a constant ``k``, else None."""
    if type(c) is Compare and c.rel == "=":
        if type(c.lhs) is Var and type(c.rhs) is Const:
            return c.lhs.name, c.rhs.value
        if type(c.rhs) is Var and type(c.lhs) is Const:
            return c.rhs.name, c.lhs.value
    return None


def conjuncts(c: Constraint) -> list:
    """Flatten nested conjunctions into a list."""
    if isinstance(c, And):
        out = []
        for i in c.items:
            out.extend(conjuncts(i))
        return out
    return [c]


def make_and(items) -> Constraint:
    items = list(items)
    if not items:
        return BoolConst(True)
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def contains_complex(p: Problem) -> bool:
    return any(d is Domain.COMPLEX for _, d in p.declarations)


def validate(p: Problem) -> None:
    """Check Problem invariants; raises ValidationError."""
    declared = set(p.declared_names())
    if len(declared) != len(p.declarations):
        raise ValidationError("duplicate declaration")
    for c in p.constraints:
        undeclared = free_variables(c) - declared
        if undeclared:
            raise ValidationError(
                f"undeclared variable(s): {', '.join(sorted(undeclared))}")
    for t in p.goal.targets:
        undeclared = free_variables(t) - declared
        if undeclared:
            raise ValidationError(
                f"undeclared variable(s) in goal: {', '.join(sorted(undeclared))}")
