"""LLM-facing layer.

Prompt assembly for the six informalization operations (patterns P1/P2),
variable refresh, chat-completion endpoints (real HTTP and offline
replay), reasoning-path generation, answer extraction, and the
surrogate consistency-rate protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ast import (MathMorphError, Problem, ValidationError, Var,
                  substitute_in_problem)
from .printer import print_smtlib
from .solver import SolverResult

BASE_INSTRUCTION = ("Translate the math problem formulated with SMT-LIB "
                    "back to a natural language problem.")
MATH_WORD_SENTENCE = "Please ensure to be a math word problem."
ANSWER_MARKER = "The answer is"


class EndpointError(MathMorphError):
    pass


# ---------------------------------------------------------------------------
# Prompt patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PromptPattern:
    """Six informalization operations as boolean flags."""
    mutation_aware: bool = False       # (1) annotate nothing, data property
    few_shot: bool = False             # (2) prepend exemplars
    comments: bool = False             # (3) infix comments in the script
    math_word: bool = False            # (4) append the math-word sentence
    modify: bool = False               # (5) rewrite an existing informal text
    refresh: bool = False              # (6) rename variables to x_0, x_1, ...

    def __post_init__(self):
        if self.math_word and self.refresh:
            raise ValidationError(
                "math-word instruction and variable refresh are exclusive")

    def flags(self) -> Tuple[int, ...]:
        on = []
        for i, v in enumerate([self.mutation_aware, self.few_shot,
                               self.comments, self.math_word, self.modify,
                               self.refresh], start=1):
            if v:
                on.append(i)
        return tuple(on)


P1 = PromptPattern(mutation_aware=True, few_shot=True, comments=True,
                   math_word=True, modify=True)
P2 = PromptPattern(mutation_aware=True, few_shot=True, comments=True,
                   refresh=True)
PATTERNS = {"p1": P1, "p2": P2}


@dataclass
class PromptContext:
    original_text: Optional[str] = None
    few_shot_pool: Sequence[Tuple[str, str]] = ()   # (formal, informal)
    rng: Optional[object] = None
    few_shot_count: int = 2


# Exemplars for few-shot prompting: formal scripts paired with natural
# language statements, in the style the informalizer should produce.
DEFAULT_FEW_SHOT_POOL: Tuple[Tuple[str, str], ...] = (
    ("""(declare-fun sara_shoes_cost () Real)
(declare-fun sara_dress_cost () Real)
(declare-fun sara_total_cost () Real)
(declare-fun rachel_budget () Real)
(assert (= sara_shoes_cost 50.0))
(assert (= sara_dress_cost 200.0))
(assert (= sara_total_cost (+ sara_shoes_cost sara_dress_cost)))
(assert (= rachel_budget (* 2 sara_total_cost)))
(check-sat)
(get-value (rachel_budget))
""",
     "Sara bought a pair of shoes for $50.00 and a dress for $200.00. "
     "If Rachel has twice the amount that Sara spent in total, how much "
     "is Rachel's budget?"),
    ("""(declare-fun sara_dress_cost () Real)
(declare-fun sara_shoes_cost () Real)
(declare-fun sara_total_cost () Real)
(assert (= sara_dress_cost 200.0))
(assert (= sara_shoes_cost 50.0))
(assert (= sara_total_cost (+ sara_shoes_cost sara_dress_cost)))
(check-sat)
(get-value (sara_total_cost))
""",
     "Sara went shopping and bought a dress for $200.00 and a pair of "
     "shoes for $50.00. What is the total amount Sara spent on her "
     "shopping trip?"),
    ("""(declare-fun pages_per_minute () Real)
(declare-fun total_pages () Int)
(declare-fun time_hours () Int)
(assert (= pages_per_minute (/ 2 5)))
(assert (= total_pages 144))
(assert (= time_hours (* (* (/ total_pages pages_per_minute) (/ 1 60)) (/ 1 2))))
(check-sat)
(get-value (time_hours))
""",
     "Jamie has a book with 144 pages that she wants to read. She reads "
     "at a pace of 2/5 pages per minute. If she reads for half the time "
     "it would normally take her to read the book at this pace, how many "
     "hours will she have read?"),
)


def refresh_variables(p: Problem) -> Tuple[Problem, Dict[str, str]]:
    """Rename declarations to x_0, x_1, ... in declaration order."""
    mapping = {name: f"x_{i}" for i, (name, _) in enumerate(p.declarations)}
    out = substitute_in_problem(p, {n: Var(m) for n, m in mapping.items()})
    return replace(out, declarations=tuple(
        (mapping[n], d) for n, d in p.declarations)), mapping


def build_prompt(p: Problem, pattern: PromptPattern,
                 context: Optional[PromptContext] = None) -> str:
    """Deterministic prompt text for one informalization request."""
    context = context or PromptContext()
    if pattern.modify and context.original_text is None:
        raise ValidationError(
            "problem-modification requires the original informal text")
    target = p
    if pattern.refresh:
        target, _ = refresh_variables(p)
    script = print_smtlib(target, with_comments=pattern.comments)
    parts: List[str] = []
    if pattern.few_shot and context.few_shot_pool:
        pool = list(context.few_shot_pool)
        count = min(context.few_shot_count, len(pool))
        if context.rng is not None:
            picked = context.rng.sample(range(len(pool)), count)
        else:
            picked = list(range(count))
        for i in picked:
            formal, informal = pool[i]
            parts.append(f"{formal}{BASE_INSTRUCTION}\n{informal}\n")
    body = script
    if pattern.modify:
        body += ("The original natural language problem was: "
                 f"\"{context.original_text}\"\n"
                 "Modify the original problem so that it matches the "
                 "SMT-LIB problem above.")
    else:
        body += BASE_INSTRUCTION
    if pattern.math_word:
        body += f"\n{MATH_WORD_SENTENCE}"
    parts.append(body)
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------

@dataclass
class LlmEndpoint:
    """OpenAI-compatible chat-completion endpoint.

    The API key is looked up from ``api_key_env`` at call time and never
    stored or logged."""
    base_url: Optional[str] = None
    model: str = "gpt-4"
    api_key_env: str = "MATHMORPH_LLM_KEY"
    temperature: float = 0.0
    max_tokens: int = 1024
    retries: int = 3
    timeout: float = 60.0
    backoff: float = 1.0

    def _url(self) -> str:
        base = self.base_url or os.environ.get("MATHMORPH_LLM_URL")
        if not base:
            raise EndpointError("no endpoint URL configured "
                                "(set MATHMORPH_LLM_URL)")
        return base.rstrip("/") + "/chat/completions"

    def complete(self, prompt: str) -> str:
        # imported on first use: urllib.request takes 30 ms to import
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = {"model": self.model,
                   "messages": [{"role": "user", "content": prompt}],
                   "temperature": self.temperature,
                   "max_tokens": self.max_tokens}
        last = None
        for attempt in range(self.retries):
            try:
                request = urllib.request.Request(
                    self._url(), json.dumps(payload).encode(), headers)
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as resp:
                    data = json.load(resp)
                text = data["choices"][0]["message"]["content"]
                if not text:
                    raise EndpointError("empty completion")
                return text
            except EndpointError:
                raise
            except Exception as exc:  # transport or schema failure
                last = str(exc)
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()         # it holds the open response
                time.sleep(self.backoff * (attempt + 1))
        raise EndpointError(f"transport error after {self.retries} "
                            f"attempts: {last}")


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass
class ReplayEndpoint:
    """Offline endpoint answering from a request-hash -> response file."""
    fixture_path: str
    _table: Optional[Dict[str, str]] = field(default=None, repr=False)

    def _load(self) -> Dict[str, str]:
        if self._table is None:
            with open(self.fixture_path, "r", encoding="utf-8") as fh:
                self._table = json.load(fh)
        return self._table

    def complete(self, prompt: str) -> str:
        table = self._load()
        digest = prompt_digest(prompt)
        if digest in table:
            return table[digest]
        raise EndpointError(f"no recorded response for request {digest[:12]}")


class RecordingEndpoint:
    """Wraps a live endpoint and captures request-hash -> response pairs
    in the replay fixture format."""

    def __init__(self, inner):
        self.inner = inner
        self.table: Dict[str, str] = {}

    def complete(self, prompt: str) -> str:
        out = self.inner.complete(prompt)
        self.table[prompt_digest(prompt)] = out
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.table, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# High-level operations
# ---------------------------------------------------------------------------

def informalize(p: Problem, pattern: PromptPattern, endpoint,
                context: Optional[PromptContext] = None) -> str:
    return endpoint.complete(build_prompt(p, pattern, context))


REASONING_INSTRUCTION = (
    "Solve the following math problem step by step. Conclude with a "
    f'final line of the form "{ANSWER_MARKER} <value>."\n\n')


def generate_reasoning(informal_text: str, endpoint) -> str:
    return endpoint.complete(f"{REASONING_INSTRUCTION}{informal_text}")


# ---------------------------------------------------------------------------
# Answer extraction and consistency
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?[$]?\s*\d[\d,]*(?:\.\d+)?(?:\s*/\s*\d[\d,]*)?")


def extract_answer(text: str):
    """Value after the last "The answer is" marker; None when absent or
    non-numeric."""
    idx = text.rfind(ANSWER_MARKER)
    if idx < 0:
        return None
    tail = text[idx + len(ANSWER_MARKER):]
    m = _NUMBER.search(tail)
    if not m:
        return None
    token = m.group(0).replace("$", "").replace(",", "").replace(" ", "")
    num, _, den = token.partition("/")
    try:
        return Fraction(num) / Fraction(den or 1)
    except (ValueError, ZeroDivisionError):
        return None


@dataclass
class ConsistencyVerdict:
    llm_answer: Optional[Fraction]
    solver_answer: Optional[Fraction]
    consistent: bool


DEFAULT_REL_TOL = Fraction(1, 10_000)


def consistency_check(llm_text: str,
                      solver: SolverResult) -> ConsistencyVerdict:
    """Compare the extracted LLM answer against the solver's answer;
    integers are compared exactly, other values with a relative tolerance
    of 1e-4."""
    solver_answer = None if solver.answer is None else solver.answer.value
    llm_answer = extract_answer(llm_text)
    if solver_answer is None or llm_answer is None:
        return ConsistencyVerdict(llm_answer, solver_answer, False)
    tol = Fraction(0) if solver_answer.denominator == 1 else DEFAULT_REL_TOL
    bound = tol * max(Fraction(1), abs(solver_answer))
    consistent = abs(llm_answer - solver_answer) <= bound
    return ConsistencyVerdict(llm_answer, solver_answer, consistent)


def consistency_rate(verdicts: Sequence[ConsistencyVerdict]) -> float:
    if not verdicts:
        return 0.0
    return sum(1 for v in verdicts if v.consistent) / len(verdicts)
