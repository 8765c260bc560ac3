"""Uniform solving facade.

Solves with the bundled exact solver in process, or drives the
SMT-LIB-2-conformant solver executable that ``SolverConfig.command``, else
the ``MATHMORPH_SOLVER`` environment variable, names over a textual
stdin/stdout protocol.  In process, the bundled solver runs once per
solve, against one node budget and one deadline.  With the fallback on and
a ``solve`` goal, that pass takes a root step where a real stage leaves one
real unknown (``minisolver.RootSolver``); it is also the fallback for what
a solver over stdio leaves ``unknown`` or times out on.  One solver process
per command stays alive for the life of the calling process; each question
to it is framed by ``(reset)`` and an ``(echo)`` of a sentinel.
"""

from __future__ import annotations

import atexit
import os
import selectors
import shlex
import subprocess
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ast import (Goal, MathMorphError, Problem, ValidationError,
                  contains_complex, validate)
from .funcs import Num, coerce_to_domain, eval_expression
from .parser import Atom, ParseError, read_sexprs
from .printer import expr_to_sexpr, print_smtlib


class SolverError(MathMorphError):
    """Process spawn or protocol failure; raw reply, exit code and stderr
    tail attached when present."""

    def __init__(self, message: str, raw: str = "",
                 returncode: Optional[int] = None, stderr: str = ""):
        super().__init__(message)
        self.raw = raw
        self.returncode = returncode
        self.stderr = stderr


@dataclass
class SolverConfig:
    command: Optional[Sequence[str]] = None
    timeout_ms: int = 20_000
    fallback_enabled: bool = True
    node_budget: int = 100_000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class SolverResult:
    status: str                                   # sat/unsat/unknown/timeout/error
    model: Dict[str, Num] = field(default_factory=dict)
    goal_values: List[Tuple[str, Num]] = field(default_factory=list)
    # "exact" (the bundled solver in process), "smt" (a solver over
    # stdio) or "numeric-fallback"
    provenance: str = "smt"

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def answer(self) -> Optional[Num]:
        """The problem's answer: the value of the first goal target that
        evaluates, None unless the solve is sat with such a value."""
        return self.goal_values[0][1] \
            if self.is_sat and self.goal_values else None


# ---------------------------------------------------------------------------
# script construction and reply parsing
# ---------------------------------------------------------------------------

def build_script(p: Problem) -> str:
    """``print_smtlib`` of ``p`` with its ``get-value`` asking for every
    declared name instead of the goal targets, then ``(exit)``."""
    goal = p.goal if p.goal.kind != "solve" else Goal("solve", ())
    lines = [print_smtlib(replace(p, goal=goal))]
    if p.declarations:
        names = " ".join(name for name, _ in p.declarations)
        lines.append(f"(get-value ({names}))\n")
    lines.append("(exit)\n")
    return "".join(lines)


def _parse_value(node) -> Num:
    if isinstance(node, Atom):
        try:
            return Num(Fraction(node.text),
                       exact="e" not in node.text.lower())
        except ValueError:
            pass                        # not a numeral: refused below
    if isinstance(node, list) and node and isinstance(node[0], Atom):
        head = node[0].text
        if head == "-" and len(node) == 2:
            inner = _parse_value(node[1])
            return Num(-inner.value, inner.exact)
        if head == "/" and len(node) == 3:
            a, b = _parse_value(node[1]), _parse_value(node[2])
            if b.value:
                return Num(a.value / b.value, a.exact and b.exact)
        if head == "to_real" and len(node) == 2:
            return _parse_value(node[1])
        if head == "root-obj":
            # algebraic irrational: the pair is left out of the model, so
            # the result is unknown and the fallback runs
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
    # the root step finds a feasible point, not an optimum, so an
    # optimization goal never falls back
    fallback = cfg.fallback_enabled and p.goal.kind == "solve"
    env = os.environ.get("MATHMORPH_SOLVER")
    command = cfg.command or (env and shlex.split(env))
    timeout_s = cfg.timeout_ms / 1000.0
    if not command and fallback:
        return numeric_fallback_solve(p, cfg)
    if not command:
        # imported on first use so that importing the package does not
        # load it
        from .minisolver import solve_exact
        return _result(p, *solve_exact(p, cfg.node_budget, timeout_s),
                       "exact")
    raw = _ask_solver(list(command), build_script(p), timeout_s)
    result = SolverResult("timeout") if raw is None \
        else _result(p, *parse_reply(raw), "smt")
    if fallback and result.status in ("unknown", "timeout"):
        fb = numeric_fallback_solve(p, cfg)
        if fb.status != "unknown" or result.status == "timeout":
            return fb
    return result


def _result(p: Problem, status: str, model: Dict[str, Num],
            provenance: str) -> SolverResult:
    """A solver's answer as a result: sat only when every declared name
    has a value within its domain (coerced to it), with the values of the
    goal targets that evaluate."""
    coerced = {}
    for name, dom in p.declarations if status == "sat" else ():
        coerced[name] = coerce_to_domain(dom, model[name]) \
            if name in model else None
        if coerced[name] is None:
            status = "unknown"
            break
    if status != "sat":
        return SolverResult(status, provenance=provenance)
    goal_values = []
    for t in p.goal.targets:
        try:
            goal_values.append((expr_to_sexpr(t), eval_expression(t, coerced)))
        except MathMorphError:
            pass
    return SolverResult("sat", coerced, goal_values, provenance)


# ---------------------------------------------------------------------------
# subprocess gateway: one long-lived solver process per command
# ---------------------------------------------------------------------------

_SENTINEL = b"mathmorph-end-of-reply"
_STDERR_TAIL = 4096

# keyed by (pid, command), so a forked worker never writes to its parent's
# pipes; holds only processes that answered their last question, and a
# process leaves the map while it answers, so no two callers share one
_SOLVERS: Dict[Tuple[int, Tuple[str, ...]], "_SolverProcess"] = {}


def _ask_solver(cmd: List[str], script: str,
                timeout_s: float) -> Optional[str]:
    """The reply of ``cmd``'s solver process to ``script``, spawning the
    process if none is alive; None on a timeout, which kills it."""
    key = (os.getpid(), tuple(cmd))
    solver = _SOLVERS.pop(key, None) or _SolverProcess(cmd)
    try:
        reply = solver.ask(script, timeout_s)
    except BaseException:
        solver.close()
        raise
    if reply is None or _SOLVERS.setdefault(key, solver) is not solver:
        solver.close()
    return reply


@atexit.register
def _close_solvers():
    for key in [k for k in _SOLVERS if k[0] == os.getpid()]:
        _SOLVERS.pop(key).close()


class _SolverProcess:
    """A solver executable that answers one script at a time on stdio."""

    def __init__(self, cmd: List[str]):
        self.cmd = cmd
        try:
            self.proc = subprocess.Popen(cmd, bufsize=0,
                                         stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE)
        except OSError as exc:
            raise SolverError(f"failed to spawn solver {cmd!r}: {exc}")
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.stderr_tail = b""

    def ask(self, script: str, timeout_s: float) -> Optional[str]:
        """Send ``script`` between ``(reset)`` and an ``(echo)`` of the
        sentinel, and return what the solver prints before the sentinel;
        None when ``timeout_s`` runs out first.  Raises ``SolverError``
        when the solver closes its output before the sentinel."""
        body = script[:script.rindex("(exit)")]
        request = f'(reset)\n{body}(echo "{_SENTINEL.decode()}")\n'.encode()
        deadline = time.monotonic() + timeout_s
        proc, out, sent = self.proc, bytearray(), 0
        readers = {proc.stdout, proc.stderr}
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdin, selectors.EVENT_WRITE)
            for f in readers:
                sel.register(f, selectors.EVENT_READ)
            while readers:
                left = deadline - time.monotonic()
                if left <= 0:
                    return None
                for sk, _ in sel.select(left):
                    f = sk.fileobj
                    if f is proc.stdin:
                        try:
                            sent += os.write(f.fileno(), request[sent:])
                        except BrokenPipeError:
                            sent = len(request)
                        if sent == len(request):
                            sel.unregister(f)
                        continue
                    chunk = os.read(f.fileno(), 65536)
                    if not chunk:
                        sel.unregister(f)
                        readers.discard(f)
                    elif f is proc.stderr:
                        self.stderr_tail = \
                            (self.stderr_tail + chunk)[-_STDERR_TAIL:]
                    else:
                        out += chunk
                        end = out.find(_SENTINEL)
                        if end >= 0 and out.find(b"\n", end) >= 0:
                            reply = out[:out.rfind(b"\n", 0, end) + 1]
                            return reply.decode(errors="replace")
        try:
            proc.wait(max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            pass
        stderr = self.stderr_tail.decode(errors="replace").strip()
        raise SolverError(
            f"solver {self.cmd!r} exited with code {proc.returncode} before "
            f"answering" + (f"; stderr: {stderr}" if stderr else ""),
            raw=out.decode(errors="replace"), returncode=proc.returncode,
            stderr=stderr)

    def close(self):
        """Kill and reap the process and close its pipes."""
        self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            f.close()


# ---------------------------------------------------------------------------
# numeric fallback: the exact solver plus its one-real root step
# ---------------------------------------------------------------------------

def numeric_fallback_solve(p: Problem, cfg: SolverConfig) -> SolverResult:
    """The bundled solver's answer with its root step on: ``provenance``
    is ``"numeric-fallback"`` when the root step answered (with an inexact
    value), else ``"exact"``."""
    from .minisolver import RootSolver

    solver = RootSolver(p, cfg.node_budget, cfg.timeout_ms / 1000.0)
    status, model = solver.solve()
    return _result(p, status, model,
                   "numeric-fallback" if solver.rooted else "exact")
