"""Shared fixtures: fixture loading, a random solvable-problem generator,
and a deterministic stand-in endpoint that answers prompts by solving the
embedded script."""

import os
import re
import shutil

import pytest

from mathmorph.parser import parse
from mathmorph.solver import solve
from mathmorph.informalize import BASE_INSTRUCTION, REASONING_INSTRUCTION

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# pytest puts src/ on this process's path (pyproject.toml); the gateway
# tests' solver children run `python -m mathmorph.minisolver` and need it too
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.join(ROOT, "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def read_fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def load_problem(name: str):
    return parse(read_fixture(name))


def random_seed_problem(rng):
    """Solvable by construction: a chain of definitions over small
    positive integers with a get-value goal on the last variable."""
    n = rng.randint(2, 4)
    names = [f"v{i}" for i in range(n)]
    lines = [f"(declare-fun {v} () Int)" for v in names]
    lines += [f"(assert (>= {v} 1))" for v in names]
    lines.append(f"(assert (= {names[0]} {rng.randint(1, 20)}))")
    for i in range(1, n):
        kind = rng.randrange(3)
        prev = names[rng.randrange(i)]
        k = rng.randint(1, 9)
        if kind == 0:
            lines.append(f"(assert (= {names[i]} (+ {prev} {k})))")
        elif kind == 1:
            lines.append(f"(assert (= {names[i]} (* {prev} {k})))")
        else:
            other = names[rng.randrange(i)]
            lines.append(f"(assert (= {names[i]} (+ {prev} {other})))")
    lines.append("(check-sat)")
    lines.append(f"(get-value ({names[-1]}))")
    return parse("\n".join(lines))


def deep_script(shape: str, levels: int) -> str:
    """``x`` equal to a sum of ones whose constraint tree has ``levels``
    levels: nested as ``(+ 1 (+ 1 ... 1))``, or one flat ``(+ 1 1 ...)``,
    which elaborates to a left fold."""
    if shape == "nested":
        term = "1"
        for _ in range(levels - 2):
            term = f"(+ 1 {term})"
    else:
        term = f"(+ {' '.join(['1'] * (levels - 1))})"
    return (f"(declare-fun x () Int)(assert (= x {term}))"
            "(check-sat)(get-value (x))")


class FixtureEndpoint:
    """Offline endpoint: reasoning prompts are answered by echoing the
    value stated in the informal text; informalization prompts by solving
    the embedded script and weaving its answer into a synthetic word
    problem."""

    def complete(self, prompt: str) -> str:
        if prompt.startswith(REASONING_INSTRUCTION[:20]):
            m = re.search(r"computed value is ([-0-9/.]+)", prompt)
            val = m.group(1) if m else "0"
            return f"Step 1: combine the given facts. The answer is {val}."
        # the rewrite marker must win: few-shot blocks embed the base
        # instruction verbatim
        for marker in ("Modify the original problem", BASE_INSTRUCTION):
            idx = prompt.rfind(marker)
            if idx >= 0:
                break
        head = prompt[:idx]
        if "The original natural language problem was" in head:
            head = head[:head.rfind("The original natural language")]
        # few-shot blocks are separated from the target script by a blank line
        cut = head.rfind("\n\n")
        script = head[cut + 2:] if cut >= 0 else head
        result = solve(parse(script))
        if result.status == "sat" and result.goal_values:
            val = result.goal_values[0][1].value
        else:
            val = "unknown"
        return (f"A word problem derived from {len(script)} formal bytes. "
                f"The computed value is {val}.")


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("sara.smt2", "sara.txt", "pages.smt2"):
        shutil.copy(os.path.join(FIXTURES, name), d / name)
    return str(d)


@pytest.fixture
def endpoint():
    return FixtureEndpoint()
