"""Benchmark-owned inputs: the chain-seed generator, the offline stub
endpoint and the frozen pools with their fixed run lists.

These are copies, not imports, of the test helpers they mirror, so that an
edit under ``tests/`` cannot move the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
POOLS = os.path.join(HERE, "pools")
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")


def use_source_tree() -> None:
    """Import ``mathmorph`` from the checkout's ``src`` and make solver
    child processes do the same: the package is not installed.  The
    solver override is cleared so every workload takes the route it
    names."""
    if not os.path.isdir(os.path.join(SRC, "mathmorph")):
        raise SystemExit(f"no mathmorph package under {SRC}")
    sys.path.insert(0, SRC)
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ.pop("MATHMORPH_SOLVER", None)


def chain_seed_text(rng) -> str:
    """SMT-LIB text of a chain of definitions over small positive integers
    with a get-value goal on the last variable; solvable by construction.
    Same shape and same draws as the test suite's random seed problem."""
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
    return "\n".join(lines)


class StubEndpoint:
    """Offline, deterministic language-model endpoint.  Reasoning prompts
    are answered by echoing the value stated in the informal text;
    informalization prompts by solving the embedded script and weaving its
    answer into a synthetic word problem.

    ``parse`` and ``solve`` are bound when the endpoint is built, so a
    traced run attributes the stub's own solving to the endpoint."""

    def __init__(self):
        from mathmorph.informalize import BASE_INSTRUCTION, \
            REASONING_INSTRUCTION
        from mathmorph.parser import parse
        from mathmorph.solver import solve
        self._base = BASE_INSTRUCTION
        self._reasoning = REASONING_INSTRUCTION
        self._parse = parse
        self._solve = solve

    def complete(self, prompt: str) -> str:
        if prompt.startswith(self._reasoning[:20]):
            m = re.search(r"computed value is ([-0-9/.]+)", prompt)
            val = m.group(1) if m else "0"
            return f"Step 1: combine the given facts. The answer is {val}."
        # the rewrite marker must win: few-shot blocks embed the base
        # instruction verbatim
        for marker in ("Modify the original problem", self._base):
            idx = prompt.rfind(marker)
            if idx >= 0:
                break
        head = prompt[:idx]
        if "The original natural language problem was" in head:
            head = head[:head.rfind("The original natural language")]
        # few-shot blocks are separated from the target script by a blank line
        cut = head.rfind("\n\n")
        script = head[cut + 2:] if cut >= 0 else head
        result = self._solve(self._parse(script))
        if result.status == "sat" and result.goal_values:
            val = result.goal_values[0][1].value
        else:
            val = "unknown"
        return (f"A word problem derived from {len(script)} formal bytes. "
                f"The computed value is {val}.")


def load_pool(name: str) -> dict:
    with open(os.path.join(POOLS, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_run(name: str, workload: str) -> list:
    """The items of ``workload``'s fixed run list in pool ``name``, in the
    order of their recorded cost."""
    doc = load_pool(name)
    by_id = {it["id"]: it for it in doc["items"]}
    return [by_id[i] for i in doc["runs"][workload]]
