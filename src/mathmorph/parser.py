"""SMT-LIB 2 parser for the supported fragment.

Supported commands: set-logic (ignored), declare-fun/declare-const,
define-fun (an Int or Real macro), define-fun-rec (kept verbatim), assert,
minimize, maximize, check-sat, get-value.  Comments start with ``;``.

Text is read in one pass of a compiled regex (SMT-LIB 2.6, section 3.1)
that nests each token as it matches; positions come from the offsets of the
newlines.  A command may nest ``2 * MAX_DEPTH`` levels, a term have
``MAX_DEPTH``.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .ast import (BINDER_SLOTS, And, BinOp, BoolConst, Compare, Const,
                  ConstraintIte, Domain, FuncApp, Goal, MathMorphError,
                  NamedConst, Not, Or, Implies, Pow, Problem, Quantifier,
                  TermIte, ValidationError, Var, _FreshNames, children,
                  make_and, substitute_all, validate)
from .funcs import FUNCTIONS, MAX_DIGITS

# the most levels a constraint or goal term may have: the walkers that
# print, rewrite and solve a problem recurse up to twice per level and
# must stay within Python's recursion limit.  Source text may nest twice
# as deep, since printing adds levels (a fraction's ``(- (/ p q))``, a
# binder's guard) and elaboration recurses up to three times per level.
MAX_DEPTH = 100


class ParseError(MathMorphError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class UndeclaredVariableError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


class UnsupportedCommandError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer / S-expression reader
# ---------------------------------------------------------------------------

# not frozen: a frozen one builds a token 3x slower, via object.__setattr__
@dataclass(slots=True, unsafe_hash=True)
class Atom:
    text: str
    line: int
    col: int


# one match per token: a parenthesis, a comment, a string literal (``""``
# is a quote in it; the lookahead, never backtracked into, takes the longest
# run of pairs and other characters at once), a symbol or numeral, or a lone
# ``"`` that starts no literal.  ``\s`` matches exactly what ``str.isspace``
# accepts, and that is all that no alternative matches.
_TOKEN = re.compile(r'[()]|;[^\n]*|"(?=([^"]*(?:""[^"]*)*))\1"'
                    r'|[^\s();"][^\s();]*|"')


def tokenize(text: str, line: int = 1):
    """Atoms of ``text``, whose first line is numbered ``line``, from one
    regex pass: parentheses, symbols and numerals, and each ``"..."``
    string literal whole (``""`` inside it is a quote); comments are
    skipped.  A line ends at ``\\n`` only.  An unterminated literal raises
    ParseError."""
    # newlines are counted up to ``seen`` as tokens come, not all first:
    # the solver's line loop reads a pending literal again for each line
    seen, start = 0, -1
    for m in _TOKEN.finditer(text):
        tok, p = m[0], m.start()
        newlines = text.count("\n", seen, p)
        if newlines:
            line += newlines
            start = text.rfind("\n", seen, p)
        seen = p
        if tok == '"':
            raise ParseError("unterminated string literal", line, p - start)
        if tok[0] != ";":
            yield Atom(tok, line, p - start)


def read_sexprs(text: str):
    """The top-level forms of ``text`` as nested lists of Atoms, from the
    regex pass of ``tokenize``, nesting each token as it matches and
    making no Atom for a parenthesis; it measures how deep each top-level
    form nests and marks a deep one for ``feed`` to check.  Text with
    a reading error is read again by ``build_sexprs(tokenize(text))``,
    which raises it with its position."""
    # -1, the offsets of the newlines and len(text): the two around an
    # offset give its line and column
    ends = [-1, *(m.start() for m in re.finditer("\n", text)), len(text)]
    line, start, stop = 1, -1, ends[1]      # the line read, and its ends
    top, stack, deepest = [], [], 0
    cur = top
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "(":
            stack.append(cur)
            cur = []
            if len(stack) > deepest:
                deepest = len(stack)
        elif tok == ")" and stack:
            done, cur = cur, stack.pop()
            if not stack and deepest >= 2 * MAX_DEPTH:
                done, deepest = _Deep(done), 0
            cur.append(done)
        elif tok == ")" or tok == '"':   # unbalanced, or unterminated
            return build_sexprs(tokenize(text))
        elif tok[0] != ";":
            p = m.start()
            if p > stop:                    # on a later line
                line = bisect(ends, p)
                start, stop = ends[line - 1], ends[line]
            cur.append(Atom(tok, line, p - start))
    return build_sexprs(tokenize(text)) if stack else top


def build_sexprs(tokens):
    """Nest a sequence of Atoms into lists at their parentheses, marking
    forms as ``read_sexprs`` does."""
    top, stack, deepest = [], [], 0
    cur = top
    for tok in tokens:
        if tok.text == "(":
            stack.append((cur, tok))
            cur = []
            deepest = max(deepest, len(stack))
        elif tok.text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", tok.line, tok.col)
            done, cur = cur, stack.pop()[0]
            if not stack and deepest >= 2 * MAX_DEPTH:
                done, deepest = _Deep(done), 0
            cur.append(done)
        else:
            cur.append(tok)
    if stack:
        tok = stack[-1][1]
        raise ParseError("unbalanced '('", tok.line, tok.col)
    return top


class _Deep(list):
    """A top-level form whose deepest list is ``2 * MAX_DEPTH`` or more
    levels down, as the reader marks it; an atom is a level below it."""


def sexpr_to_text(s) -> str:
    """``s`` as text; iterative, so that any nesting prints."""
    out, stack = [], [s]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            spaced = [t for x in item for t in (" ", x)][1:]
            stack += [")", *reversed(spaced), "("]
        else:
            out.append(item if isinstance(item, str) else item.text)
    return "".join(out)


# ---------------------------------------------------------------------------
# Numerals
# ---------------------------------------------------------------------------

def _parse_numeral(text: str, line, col):
    """The value of a numeral or decimal, else None (the token is a name);
    raises ``ParseError`` for one of more than ``MAX_DIGITS`` digits."""
    if text.isdecimal() and len(text) <= MAX_DIGITS:    # the common case
        return Fraction(int(text))
    if text[0].isalpha():       # Decimal reads only inf and nan from these
        return None
    try:
        d = Decimal(text)
    except InvalidOperation:
        return None
    if not d.is_finite():               # inf, nan: names
        return None
    _, digits, exponent = d.as_tuple()
    if len(digits) + abs(exponent) > MAX_DIGITS:
        raise ParseError(f"numeral longer than {MAX_DIGITS} digits", line,
                         col)
    return Fraction(d)


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

_SORTS = {"Int": Domain.INT, "Real": Domain.REAL, "Complex": Domain.COMPLEX}


class ProblemBuilder:
    """Elaborates one command at a time.  Each entry caps a command's
    nesting before elaborating it and a term's height before it is walked."""

    def __init__(self):
        self.declarations = {}          # name -> Domain, in source order
        self.constraints = []
        self.macros = {}                # name -> (params, elaborated body)
        self.rec_defs = []
        self.rec_names = set()
        self.goal_kind = None
        self.goal_targets = []

    # -- helpers ------------------------------------------------------------

    def _head(self, s):
        if not s or not isinstance(s[0], Atom):
            tok = s[0] if s else Atom("()", 0, 0)
            line = getattr(tok, "line", None)
            raise ParseError("expected a command name", line,
                             getattr(tok, "col", None))
        return s[0]

    # -- commands -----------------------------------------------------------

    def feed(self, s):
        if isinstance(s, Atom):
            raise ParseError(f"stray token {s.text!r}", s.line, s.col)
        _cap_nesting(s)
        head = self._head(s)
        cmd = head.text
        if cmd in ("set-logic", "check-sat"):
            return
        if cmd in ("declare-fun", "declare-const"):
            self._declare(s, cmd)
        elif cmd == "define-fun":
            self._define_fun(s)
        elif cmd == "define-fun-rec":
            self.rec_defs.append(sexpr_to_text(s))
            name = s[1].text if len(s) > 1 and isinstance(s[1], Atom) else None
            if name:
                self.rec_names.add(name)
        elif cmd == "assert":
            if len(s) != 2:
                raise ParseError("assert expects one argument",
                                 head.line, head.col)
            self.constraints.append(self.elab_bool(s[1], {}))
        elif cmd in ("minimize", "maximize"):
            if len(s) != 2:
                raise ParseError(f"{cmd} expects one argument",
                                 head.line, head.col)
            if self.goal_kind is not None:
                raise ParseError("multiple optimization goals",
                                 head.line, head.col)
            self.goal_kind = cmd
            self.goal_targets = [self.elab_term(s[1], {})]
        elif cmd == "get-value":
            self.goal_targets.extend(self.value_targets(s))
        else:
            raise UnsupportedCommandError(f"unsupported command: {cmd}",
                                          head.line, head.col)

    def value_targets(self, s):
        """The elaborated terms of the ``get-value`` command ``s``."""
        _cap_nesting(s)
        head = self._head(s)
        if len(s) != 2 or isinstance(s[1], Atom):
            raise ParseError("get-value expects a parenthesized list",
                             head.line, head.col)
        if self.goal_kind in ("minimize", "maximize"):
            raise ParseError("get-value cannot follow an optimization "
                             "goal", head.line, head.col)
        return [_capped(self.elab_term(t, {})) for t in s[1]]

    def problem(self) -> Problem:
        """The Problem stated by the commands fed so far."""
        decls, constraints = _absorb_side_constraints(
            self.declarations.items(), self.constraints)
        goal = Goal(self.goal_kind or "solve", tuple(self.goal_targets))
        problem = Problem(decls, constraints, goal, tuple(self.rec_defs))
        for tree in constraints + goal.targets:
            _capped(tree)
        try:
            validate(problem)
        except ValidationError as exc:
            raise UndeclaredVariableError(str(exc)) from exc
        return problem

    def _declare(self, s, cmd):
        head = self._head(s)
        if cmd == "declare-fun":
            if len(s) != 4 or not isinstance(s[1], Atom) \
                    or isinstance(s[2], Atom) or not isinstance(s[3], Atom):
                raise ParseError("malformed declare-fun", head.line, head.col)
            if s[2]:
                raise UnsupportedCommandError(
                    "declare-fun with arguments is not supported",
                    head.line, head.col)
            name_tok, sort_tok = s[1], s[3]
        else:
            if len(s) != 3 or not isinstance(s[1], Atom) \
                    or not isinstance(s[2], Atom):
                raise ParseError("malformed declare-const", head.line, head.col)
            name_tok, sort_tok = s[1], s[2]
        if sort_tok.text not in _SORTS:
            raise ParseError(f"unsupported sort: {sort_tok.text}",
                             sort_tok.line, sort_tok.col)
        if name_tok.text in self.declarations:
            raise ParseError(f"duplicate declaration: {name_tok.text}",
                             name_tok.line, name_tok.col)
        self.declarations[name_tok.text] = _SORTS[sort_tok.text]

    def _define_fun(self, s):
        # the body is elaborated once, over its parameters and the symbols
        # declared so far (SMT-LIB 2.6, section 4.2)
        head = self._head(s)
        if len(s) != 5 or not isinstance(s[1], Atom) or isinstance(s[2], Atom):
            raise ParseError("malformed define-fun", head.line, head.col)
        params = []
        for p in s[2]:
            if isinstance(p, Atom) or len(p) != 2 or isinstance(p[0], list):
                raise ParseError("malformed define-fun parameter",
                                 head.line, head.col)
            params.append(p[0].text)
        if not (isinstance(s[3], Atom) and s[3].text in ("Int", "Real")):
            raise UnsupportedCommandError("define-fun sort must be Int or "
                                          "Real", head.line, head.col)
        body = self.elab_term(s[4], {p: True for p in params})
        self.macros[s[1].text] = (params, _capped(body))

    # -- terms --------------------------------------------------------------

    def elab_term(self, s, bound):
        if isinstance(s, Atom):
            v = _parse_numeral(s.text, s.line, s.col)
            if v is not None:
                lex = s.text if "." in s.text else None
                return Const(v, lexeme=lex)
            name = s.text
            if name in bound:
                return Var(name)
            if name in self.declarations:
                return Var(name)
            macro = self.macros.get(name)
            if macro is not None and not macro[0]:
                return macro[1]
            if name in ("pi", "e"):
                return NamedConst(name)
            raise UndeclaredVariableError(f"undeclared variable: {name}",
                                          s.line, s.col)
        if not s or not isinstance(s[0], Atom):
            raise ParseError("malformed term")
        head = s[0]
        op = head.text
        args = s[1:]
        if op in ("+", "-", "*", "/"):
            if len(args) < 2 and not (op == "-" and args):
                raise ParseError(f"'{op}' expects at least two arguments",
                                 head.line, head.col)
            acc = self.elab_term(args[0], bound)
            if len(args) == 1:                  # unary minus
                return Const(-acc.value) if isinstance(acc, Const) \
                    else BinOp("-", Const(Fraction(0)), acc)
            for a in args[1:]:
                rhs = self.elab_term(a, bound)
                if op == "/" and isinstance(acc, Const) \
                        and isinstance(rhs, Const) and rhs.value != 0:
                    acc = Const(acc.value / rhs.value)
                else:
                    acc = BinOp(op, acc, rhs)
            return acc
        if op in ("^", "pow"):
            if len(args) != 2:
                raise ArityMismatchError("'^' expects two arguments",
                                         head.line, head.col)
            return Pow(self.elab_term(args[0], bound),
                       self.elab_term(args[1], bound))
        if op == "ite":
            if len(args) != 3:
                raise ArityMismatchError("ite expects three arguments",
                                         head.line, head.col)
            return TermIte(self.elab_bool(args[0], bound),
                           self.elab_term(args[1], bound),
                           self.elab_term(args[2], bound))
        if op in self.macros:
            params, body = self.macros[op]
            if len(args) != len(params):
                raise ArityMismatchError(
                    f"{op} expects {len(params)} argument(s), "
                    f"got {len(args)}", head.line, head.col)
            # simultaneous, so an argument that names a later parameter
            # is not substituted again
            return substitute_all(body, {
                p: _capped(self.elab_term(a, bound))
                for p, a in zip(params, args)})
        if op in self.rec_names:
            return FuncApp(op, tuple(self.elab_term(a, bound) for a in args))
        if op in FUNCTIONS:
            arity = FUNCTIONS[op].arity
            if len(args) != arity:
                raise ArityMismatchError(
                    f"{op} expects {arity} argument(s), got {len(args)}",
                    head.line, head.col)
            return self._elab_interpreted(op, args, bound, head)
        raise UndeclaredVariableError(f"unknown function or variable: {op}",
                                      head.line, head.col)

    def _elab_interpreted(self, op, args, bound, head):
        # summation / derivative / integral bind one variable argument.
        if op in BINDER_SLOTS:
            var_idx, body_idx = BINDER_SLOTS[op]
            var_tok = args[var_idx]
            if not isinstance(var_tok, Atom):
                raise ParseError(f"{op} binder must be a symbol",
                                 head.line, head.col)
            inner = {**bound, var_tok.text: True}
            out = []
            for i, a in enumerate(args):
                if i == var_idx:
                    out.append(Var(var_tok.text))
                elif i == body_idx:
                    out.append(self.elab_term(a, inner))
                else:
                    out.append(self.elab_term(a, bound))
            return FuncApp(op, tuple(out))
        return FuncApp(op, tuple(self.elab_term(a, bound) for a in args))

    # -- boolean terms ------------------------------------------------------

    def elab_bool(self, s, bound):
        if isinstance(s, Atom):
            if s.text == "true":
                return BoolConst(True)
            if s.text == "false":
                return BoolConst(False)
            raise ParseError(f"expected a boolean term, got {s.text!r}",
                             s.line, s.col)
        if not s or not isinstance(s[0], Atom):
            raise ParseError("malformed boolean term")
        head = s[0]
        op = head.text
        args = s[1:]
        if op in ("and", "or"):
            items = [self.elab_bool(a, bound) for a in args]
            if not items:
                raise ParseError(f"'{op}' expects arguments",
                                 head.line, head.col)
            if len(items) == 1:
                return items[0]
            return And(tuple(items)) if op == "and" else Or(tuple(items))
        if op == "not":
            if len(args) != 1:
                raise ArityMismatchError("not expects one argument",
                                         head.line, head.col)
            return Not(self.elab_bool(args[0], bound))
        if op == "=>":
            if len(args) < 2:
                raise ArityMismatchError("=> expects two arguments",
                                         head.line, head.col)
            items = [self.elab_bool(a, bound) for a in args]
            acc = items[-1]
            for a in reversed(items[:-1]):
                acc = Implies(a, acc)
            return acc
        if op == "ite":
            if len(args) != 3:
                raise ArityMismatchError("ite expects three arguments",
                                         head.line, head.col)
            return ConstraintIte(self.elab_bool(args[0], bound),
                                 self.elab_bool(args[1], bound),
                                 self.elab_bool(args[2], bound))
        if op in ("forall", "exists"):
            return self._elab_quantifier(op, args, bound, head)
        if op in ("=", ">=", "<=", ">", "<", "distinct"):
            if len(args) < 2:
                raise ArityMismatchError(f"'{op}' expects two arguments",
                                         head.line, head.col)
            rel = "!=" if op == "distinct" else op
            terms = [self.elab_term(a, bound) for a in args]
            pairs = [Compare(a, rel, b) for a, b in zip(terms, terms[1:])]
            return make_and(pairs)
        raise ParseError(f"expected a boolean operator, got {op!r}",
                         head.line, head.col)

    def _elab_quantifier(self, kind, args, bound, head):
        if len(args) != 2 or isinstance(args[0], Atom):
            raise ParseError(f"malformed {kind}", head.line, head.col)
        pairs = []
        for b in args[0]:
            if isinstance(b, Atom) or len(b) != 2 \
                    or not isinstance(b[0], Atom) or not isinstance(b[1], Atom):
                raise ParseError(f"malformed {kind} binding",
                                 head.line, head.col)
            if b[1].text not in _SORTS:
                raise ParseError(f"unsupported sort: {b[1].text}",
                                 b[1].line, b[1].col)
            pairs.append((b[0].text, _SORTS[b[1].text]))
        # a bound name must not shadow a problem declaration
        fresh = _FreshNames([*self.declarations, *bound,
                             *(n for n, _ in pairs)])
        renames = {n: fresh.fresh(n) for n, _ in pairs
                   if n in self.declarations}
        bindings = tuple((renames.get(n, n), d) for n, d in pairs)
        body_s = _rename_sexpr(args[1], renames) if renames else args[1]
        body = self.elab_bool(body_s, {**bound, **dict(bindings)})
        return Quantifier(kind, bindings, body)


def _rename_sexpr(s, renames):
    if isinstance(s, Atom):
        if s.text in renames:
            return Atom(renames[s.text], s.line, s.col)
        return s
    return [_rename_sexpr(x, renames) for x in s]


# ---------------------------------------------------------------------------
# Domain side-constraint absorption
# ---------------------------------------------------------------------------

def _absorb_side_constraints(declarations, constraints):
    """Fold into NAT or POS each Int variable's first assert that is its
    ``Domain.guard`` there, so printing and re-parsing are stable."""
    decls = list(declarations)
    unguarded = {n: i for i, (n, d) in enumerate(decls) if d is Domain.INT}
    remaining = []
    for c in constraints:
        # a guard is a ">=" with its variable itself on the left and the
        # domain's lower bound on the right
        dom = _GUARDED.get(c.rhs.value) if type(c) is Compare \
            and c.rel == ">=" and type(c.lhs) is Var \
            and c.lhs.name in unguarded and type(c.rhs) is Const else None
        if dom is None:
            remaining.append(c)
        else:
            decls[unguarded.pop(c.lhs.name)] = (c.lhs.name, dom)
    return tuple(decls), tuple(remaining)


_GUARDED = {d.lower_bound: d for d in (Domain.NAT, Domain.POS)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse(text: str) -> Problem:
    """Parse SMT-LIB source into a Problem."""
    builder = ProblemBuilder()
    for s in read_sexprs(text):
        builder.feed(s)
    return builder.problem()


def _cap_nesting(s):
    """ParseError when command ``s`` nests over ``2 * MAX_DEPTH`` levels;
    only a form the reader marked ``_Deep`` is walked."""
    if type(s) is _Deep and _height(
            [s], lambda n: n if isinstance(n, list) else ()) \
            > 2 * MAX_DEPTH:
        raise ParseError(f"nested deeper than {2 * MAX_DEPTH} levels")


def _capped(tree):
    """``tree``; ParseError when it has more than ``MAX_DEPTH`` levels."""
    if _height([tree], children) > MAX_DEPTH:
        raise ParseError(f"a term has more than {MAX_DEPTH} levels")
    return tree


def _height(roots, kids) -> int:
    """Levels of the trees under ``roots``, where ``kids`` gives a node's
    children; counted level by level, without recursion."""
    height, level = 0, list(roots)
    while level:
        height += 1
        level = [k for n in level for k in kids(n)]
    return height
