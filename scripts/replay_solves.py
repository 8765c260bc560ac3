"""Record every exact solve of one pass over the benchmark's run lists, and
compare two recordings.

    python3 scripts/replay_solves.py --out solves.json [--workload NAME ...]
    python3 scripts/replay_solves.py --compare before.json after.json
    python3 scripts/replay_solves.py --time TREE_A TREE_B [--workload NAME ...]

Recording runs each item of a workload's fixed run list once, in list
order, with the checkout's ``src`` on the path, and records each
``ExactSolver.solve`` (``RootSolver`` passes included) as it returns: a
digest of the problem, the node budget, the status, the model (each value
with its exactness), the DFS nodes, ``stopped_by``, ``rooted``,
``substitutions``, the ``_substitute_model`` calls made inside
``_int_search`` (the search's symbolic steps), and, for timing, the
problem's ``print_smtlib`` text, the seconds its deadline left it (null
without one) and its solver class.  The default workloads are the three
that solve in process; ``verify-gateway`` solves the rows of
``verify-rows`` in child processes, out of reach.  The run lists are read
from ``perfbench/``, and nothing is written there.

Comparing pairs the solves of each workload by problem: the k-th solve of
each (problem digest, budget, solver class) in A pairs with the k-th in B,
so a solve that one side drops does not shift the pairs after it.  The
solver class is read off ``rooted``, which is null for ``ExactSolver``.  The
answer of a solve is its problem, status, model and ``rooted``; a change in
any of them is an answer change.  Each workload's status moves are counted
by ``from -> to``, and the first ``MOVES_LISTED`` answer changes are
listed.  Solves left without a pair are counted as dropped (in A only) or
added (in B only), and the first ``MOVES_LISTED`` of each are listed.  An
answer change, a dropped or an added solve makes the exit status 1.
Nodes and ``stopped_by`` may move without that: they are summed, and the
first ``MOVES_LISTED`` solves whose nodes or ``stopped_by`` moved are
listed.  The substitutions are counts, not answers: each side's total per
workload is printed, and they do not move the exit status.

Timing records the solves once more and solves each text again.  Each
tree's ``src/mathmorph`` is copied into a temporary directory under a
package name of its own; every import inside the package is relative, so
both trees load side by side in one process.  Every text is parsed and
solved on both trees in an untimed pass, and any solve whose status,
model, nodes or ``stopped_by`` differ is listed, which makes the exit
status 1.  Then the solves are timed in chunks of ``CHUNK`` over
``ROUNDS`` rounds, the two trees taking turns to go first; each chunk's
texts are parsed afresh, and the parse is timed apart from the solves.
Each workload prints both trees' total seconds, the speed-up of B over A
and how many chunks each tree won, both trees' parse seconds and the
speed-up of B's parse, and each tree's per-solve p50, p90 and max: each
solve's time is its median over the rounds, and a percentile is the
nearest rank.  Runs on a shared host drift by
up to 40%, so two trees are compared in one process, chunk by chunk,
rather than across bench runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict, deque

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inputs import use_source_tree                       # noqa: E402

DEFAULT_WORKLOADS = ("mutate-chain", "generate-fixtures", "verify-rows")
ANSWER_FIELDS = ("problem", "budget", "status", "model", "rooted")
SEARCH_FIELDS = ("nodes", "stopped_by")
MOVES_LISTED = 10
CHUNK = 50
ROUNDS = 3


def record(workloads) -> dict:
    """``{workload: [solve, ...]}`` over one pass of each run list; each
    solve also keeps its problem's text, the seconds its deadline left it
    and its solver class, so ``--time`` can solve it again."""
    use_source_tree()
    from mathmorph.minisolver import ExactSolver
    from mathmorph.printer import print_smtlib
    from workloads import WORKLOADS

    solves = []
    inner, search, substitute = (ExactSolver.solve, ExactSolver._int_search,
                                 ExactSolver._substitute_model)
    # searches: the _int_search calls running; substitutions: the
    # _substitute_model calls they made in the solve running
    count = Counter()

    def searching(self, *args):
        count["searches"] += 1
        try:
            return search(self, *args)
        finally:
            count["searches"] -= 1

    def substituting(self, *args):
        count["substitutions"] += count["searches"] > 0
        return substitute(self, *args)

    def recording(self):
        count["substitutions"] = 0
        left = None if self.deadline is None \
            else self.deadline - time.monotonic()
        status, model = inner(self)
        text = print_smtlib(self.problem)
        solves.append({
            "problem": hashlib.sha256(text.encode()).hexdigest()[:16],
            "budget": self.node_budget, "status": status,
            "model": {n: [str(x.value), x.exact]
                      for n, x in sorted(model.items())},
            "nodes": self.nodes, "stopped_by": self.stopped_by,
            "rooted": getattr(self, "rooted", None),
            "substitutions": count["substitutions"], "text": text,
            "timeout_s": left, "solver": type(self).__name__})
        return status, model

    out = {}
    ExactSolver.solve, ExactSolver._int_search = recording, searching
    ExactSolver._substitute_model = substituting
    try:
        for name in workloads:
            with tempfile.TemporaryDirectory() as tmp:
                w = WORKLOADS[name](tmp)
                try:
                    for item in w.pool:
                        try:
                            w.run_item(item)
                        except Exception as exc:    # the run list's fails
                            solves.append({"raised": type(exc).__name__})
                finally:
                    w.close()
            out[name] = list(solves)
            solves.clear()
    finally:
        ExactSolver.solve, ExactSolver._int_search = inner, search
        ExactSolver._substitute_model = substitute
    return out


def summary(solves) -> dict:
    done = [s for s in solves if "raised" not in s]
    return {"solves": len(done), "raised": len(solves) - len(done),
            "nodes": sum(s["nodes"] for s in done),
            "substitutions": sum(s.get("substitutions", 0) for s in done),
            "stopped_by": dict(Counter(s["stopped_by"] for s in done
                                       if s["stopped_by"]))}


def pairing_key(s: dict) -> tuple:
    """(problem digest, budget, solver class) of a solve; every solve that
    raised shares one key."""
    if "raised" in s:
        return ("raised",)
    return (s["problem"], s["budget"],
            "ExactSolver" if s["rooted"] is None else "RootSolver")


def pair(xs, ys) -> list:
    """``(i, j)`` for the k-th solve of each key in ``xs`` and in ``ys``, in
    the order of ``xs``; then ``(i, None)`` is a dropped solve and
    ``(None, j)``, listed last, an added one."""
    slots = defaultdict(deque)
    for j, y in enumerate(ys):
        slots[pairing_key(y)].append(j)
    pairs = []
    for i, x in enumerate(xs):
        slot = slots[pairing_key(x)]
        pairs.append((i, slot.popleft() if slot else None))
    matched = {j for _, j in pairs}
    return pairs + [(None, j) for j in range(len(ys)) if j not in matched]


def compare(a: dict, b: dict) -> int:
    """Print the differences of two recordings; 1 when an answer moved or
    a solve was dropped or added."""
    moved, searches = [], []
    unpaired = {"dropped": [], "added": []}
    for name in sorted(a.keys() | b.keys()):
        xs, ys = a.get(name, []), b.get(name, [])
        print(f"{name}: {summary(xs)} -> {summary(ys)}")
        counts, statuses = Counter(), Counter()
        for i, j in pair(xs, ys):
            if i is None or j is None:
                kind, k, s = (("dropped", i, xs[i]) if j is None
                              else ("added", j, ys[j]))
                counts[kind] += 1
                unpaired[kind].append(
                    f"  {name} solve {k}: {kind} {pairing_key(s)}")
                continue
            x, y = xs[i], ys[j]
            fields = [f for f in ANSWER_FIELDS if x.get(f) != y.get(f)]
            if "raised" in x or "raised" in y:
                fields = [] if x == y else ["raised"]
            if fields:
                moved.append(f"  {name} solve {i}: answer moved in"
                             f" {', '.join(fields)}:"
                             f" {[x.get(f) for f in fields]} ->"
                             f" {[y.get(f) for f in fields]}")
                if "status" in fields:
                    statuses[f"{x['status']} -> {y['status']}"] += 1
            elif any(x.get(f) != y.get(f) for f in SEARCH_FIELDS):
                searches.append(f"  {name} solve {i}: " + ", ".join(
                    f"{f} {x.get(f)} -> {y.get(f)}" for f in SEARCH_FIELDS))
        print(f"  {counts['dropped']} dropped, {counts['added']} added")
        for move, n in sorted(statuses.items()):
            print(f"  {move}: {n}")
    print(f"{len(moved)} answer changes")
    for line in moved[:MOVES_LISTED]:
        print(line)
    for kind, lines in unpaired.items():
        print(f"{len(lines)} {kind} solves")
        for line in lines[:MOVES_LISTED]:
            print(line)
    print(f"{len(searches)} solves moved nodes or stopped_by")
    for line in searches[:MOVES_LISTED]:
        print(line)
    return 1 if moved or unpaired["dropped"] or unpaired["added"] else 0


def load_tree(tree: str, name: str, tmp: str):
    """The tree's ``src/mathmorph``, copied under ``tmp`` as the package
    ``name``: ``(parse, minisolver module)``."""
    shutil.copytree(os.path.join(tree, "src", "mathmorph"),
                    os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.parser").parse,
            importlib.import_module(f"{name}.minisolver"))


def run_chunk(tree, chunk) -> tuple:
    """``(parse seconds, seconds, outcomes)`` of the solves of ``chunk`` on
    ``tree``: the seconds that parsing the chunk's texts takes, those of
    each solve on the problems parsed, and each outcome ``(status, model,
    nodes, stopped_by)``."""
    parse, minisolver = tree
    start = time.perf_counter()
    problems = [parse(s["text"]) for s in chunk]
    parsed = time.perf_counter() - start
    solvers = [getattr(minisolver, s["solver"])(p, s["budget"], s["timeout_s"])
               for p, s in zip(problems, chunk)]
    results, seconds = [], []
    for solver in solvers:
        start = time.perf_counter()
        results.append(solver.solve())
        seconds.append(time.perf_counter() - start)
    return parsed, seconds, [
        (status, {n: [str(x.value), x.exact]
                  for n, x in sorted(model.items())},
         solver.nodes, solver.stopped_by)
        for (status, model), solver in zip(results, solvers)]


def tail(seconds) -> str:
    """The p50, p90 and max of ``seconds`` in ms, by nearest rank."""
    xs = sorted(seconds)
    rank = [xs[max(0, math.ceil(q * len(xs)) - 1)] for q in (0.5, 0.9)]
    return (f"p50 {rank[0] * 1e3:.3f} ms, p90 {rank[1] * 1e3:.3f} ms,"
            f" max {xs[-1] * 1e3:.3f} ms")


def time_trees(tree_a: str, tree_b: str, workloads) -> int:
    """Print each workload's solves that differ on the two trees and their
    timing; 1 when a solve differs."""
    recorded = record(workloads)
    names = ("mathmorph_tree_a", "mathmorph_tree_b")
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [load_tree(t, n, tmp)
                     for t, n in zip((tree_a, tree_b), names)]
            for name, solves in recorded.items():
                solves = [s for s in solves if "raised" not in s]
                chunks = [solves[i:i + CHUNK]
                          for i in range(0, len(solves), CHUNK)]
                # an untimed pass compares the answers and warms both trees
                outcomes = [run_chunk(tree, solves)[2] for tree in trees]
                differ += [f"  {name} solve {k}: {x} -> {y}" for k, (x, y)
                           in enumerate(zip(*outcomes)) if x != y]
                totals, won, parsing = [0.0, 0.0], [0, 0], [0.0, 0.0]
                # each side's seconds per solve, one entry per round
                per_solve = [[[] for _ in solves] for _ in trees]
                for r in range(ROUNDS):
                    for i, chunk in enumerate(chunks):
                        seconds = [0.0, 0.0]
                        for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                            parsed, each, _ = run_chunk(trees[side], chunk)
                            parsing[side] += parsed
                            for k, t in enumerate(each):
                                per_solve[side][i * CHUNK + k].append(t)
                            seconds[side] = sum(each)
                            totals[side] += seconds[side]
                        if seconds[0] != seconds[1]:
                            won[seconds[1] < seconds[0]] += 1
                print(f"{name}: {len(solves)} solves, A {totals[0]:.3f} s,"
                      f" B {totals[1]:.3f} s, speed-up"
                      f" {totals[0] / max(totals[1], 1e-9):.3f}x; chunks won"
                      f" A {won[0]}, B {won[1]} of {ROUNDS * len(chunks)}")
                print(f"  parse: A {parsing[0]:.3f} s, B {parsing[1]:.3f} s,"
                      f" speed-up {parsing[0] / max(parsing[1], 1e-9):.3f}x")
                for side, label in enumerate("AB"):
                    print(f"  {label} per solve: " + tail(
                        statistics.median(ts) for ts in per_solve[side]))
        finally:
            sys.path.remove(tmp)
            for mod in [m for m in sys.modules if m.split(".")[0] in names]:
                del sys.modules[mod]
    print(f"{len(differ)} solves differ")
    for line in differ[:MOVES_LISTED]:
        print(line)
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=DEFAULT_WORKLOADS)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--time", nargs=2, metavar=("TREE_A", "TREE_B"))
    args = ap.parse_args(argv)
    if args.time:
        return time_trees(*args.time, args.workload or DEFAULT_WORKLOADS)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return compare(*docs)
    if not args.out:
        ap.error("give --out to record, --compare to compare or --time to"
                 " time two trees")
    out = record(args.workload or DEFAULT_WORKLOADS)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
    for name, solves in out.items():
        print(f"{name}: {summary(solves)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
