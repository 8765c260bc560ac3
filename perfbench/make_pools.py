"""Build the frozen input pools under ``perfbench/pools``.

    python3 perfbench/make_pools.py mutate|generate|verify|all

Each candidate item is run once through the same workload code the
benchmark uses and its wall time is stored as ``cost_ms``.  A candidate
that raises stays in the pool, with the exception's type under ``fails``
for that workload: the benchmark runs it and counts the failure.  A
candidate still running after its pool's ``CAP_S`` seconds is stopped and
listed under ``excluded`` with the reason: an item longer than a whole
measuring run cannot be part of a steady throughput figure.

``runs`` holds each workload's fixed run list, chosen here by ``choose``:
the benchmark runs exactly these items, and ``--seed`` only shuffles their
order.  The pools, not this script, are the benchmark's inputs; re-running
it on other hardware gives other costs and may choose other items.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import time

from inputs import CORPUS, POOLS, TMP, chain_seed_text, use_source_tree

CAP_S = {"mutate": 10, "generate": 30, "verify": 10}
# recorded seconds of one run list: the run_seconds of BENCHMARK.json
RUN_S = 20
# items in a run list, so that ten lie beyond its p90 order statistic;
# the generate pool goes without, as its m1 rows cost seconds each and
# 101 units would take minutes
MIN_ITEMS = 101

# criterion-5 shape: chain seed s is random_seed_problem(Random(1000 + s))
# mutated with Random(2000 + 10 * s + level); 50 seeds as in the suite,
# 30 more for a finer cost ranking
MUTATE_SEEDS = range(80)
GENERATE_SEEDS = range(30)
VERIFY_CHAIN_SEEDS = range(4000, 4060)
VERIFY_GLOBAL_SEED = 11

# rows whose answer needs the numeric fallback: the exact solver answers
# unknown on irrational or transcendental roots.  Five rows each put them
# above a tenth of the pool, so verify-rows' p90 falls among them
FALLBACK_SEEDS = {
    "fb_square": "(declare-fun side () Real)(assert (> side 0))"
                 "(assert (= (* side side) 2))(check-sat)(get-value (side))",
    "fb_sine": "(declare-fun x () Real)(assert (>= x 0))(assert (<= x 1))"
               "(assert (= (sin x) (/ 1 2)))(check-sat)(get-value (x))",
    "fb_circle": "(declare-fun r () Real)(assert (> r 0))"
                 "(assert (= (* 3 (* r r)) 10))(check-sat)(get-value (r))",
    "fb_cube": "(declare-fun a () Real)(assert (> a 0))"
               "(assert (= (* a (* a a)) 5))(check-sat)(get-value (a))",
    "fb_root3": "(declare-fun y () Real)(assert (> y 0))"
                "(assert (= (* y y) 3))(check-sat)(get-value (y))",
    "fb_cos": "(declare-fun t () Real)(assert (>= t 0))(assert (<= t 1.5))"
              "(assert (= (cos t) (/ 1 3)))(check-sat)(get-value (t))",
    "fb_quad": "(declare-fun q () Real)(assert (> q 0))"
               "(assert (= (+ (* q q) q) 4))(check-sat)(get-value (q))",
    "fb_log": "(declare-fun u () Real)(assert (>= u 1))(assert (<= u 10))"
              "(assert (= (log u) 1))(check-sat)(get-value (u))",
}

# rows written by hand, because generating them fails: solving
# exp(x) = 5 raises OverflowError out of the numeric fallback.  The answer
# is left open and the reasoning states ln 5, so the row passes once the
# solver finds the root
HAND_ROWS = {
    "fb_exp-L0-0": {
        "answer": None,
        "formal": "(declare-fun x () Real)\n(assert (= (exp x) 5))\n"
                  "(check-sat)\n(get-value (x))\n",
        "informal": "A positive quantity grows as exp(x). For which x "
                    "does it reach 5?",
        "level": 0, "pattern": "p2", "provenance": [],
        "reasoning": "Step 1: take logarithms. The answer is "
                     "1.6094379124341003.",
        "rng_seed": 0, "seed_id": "fb_exp", "verified": True},
}


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun()


def timed(cap, fn, *args):
    """(seconds, result, exception), or (None, None, None) when over the
    cap."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(cap)
    t = time.perf_counter()
    result = error = None
    try:
        result = fn(*args)
    except _Overrun:
        return None, None, None
    except Exception as exc:          # recorded, the pool keeps going
        error = exc
    finally:
        signal.alarm(0)
    return time.perf_counter() - t, result, error


def measure(cap, workload, candidates):
    """(items with their cost, excluded candidates, outcome by id).  An
    item that raised keeps its cost and records the exception's type under
    ``fails``, by workload."""
    items, excluded, outcomes = [], [], {}
    for it in candidates:
        secs, result, error = timed(cap, workload.run_item, it)
        if secs is None:
            excluded.append(dict(it, reason=f"over {cap} s"))
            print("excluded", it["id"], f"over {cap} s", flush=True)
            continue
        item = dict(it, **{workload.cost_key: round(secs * 1e3, 3)})
        if error is not None:
            item["fails"] = dict(it.get("fails", {}),
                                 **{workload.name: type(error).__name__})
            print("fails", it["id"], repr(error), flush=True)
        items.append(item)
        outcomes[it["id"]] = result
    return items, excluded, outcomes


def choose(items, key, min_items=MIN_ITEMS) -> list:
    """Ids of a fixed run list: the items ranked by recorded cost and cut
    into slots of neighbours, sized so that one item per slot adds up to
    about ``RUN_S``, or smaller where that leaves under ``min_items``; each
    slot gives its middle item, so the list keeps the pool's cost profile,
    heavy tail included.  Items that fail are always in it."""
    ranked = sorted(items, key=lambda it: (it[key], it["id"]))
    total_s = sum(it[key] for it in ranked) / 1e3
    slot = max(1, round(total_s / RUN_S))
    if min_items:
        # the largest slot for which ceil(len / slot) >= min_items
        slot = min(slot, max(1, -(-len(ranked) // (min_items - 1)) - 1))
    picks = {it["id"] for it in ranked if it.get("fails")}
    for i in range(0, len(ranked), slot):
        group = ranked[i:i + slot]
        picks.add(group[len(group) // 2]["id"])
    return [it["id"] for it in ranked if it["id"] in picks]


def write_pool(name, cap, command, items, excluded, runs, **extra):
    doc = {"command": command, "cap_s": cap, "run_s": RUN_S,
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           **extra, "runs": runs, "items": items, "excluded": excluded}
    with open(os.path.join(POOLS, name), "w", encoding="utf-8") as fh:
        fh.write(pool_text(doc))


def pool_text(doc) -> str:
    """JSON with one line per pool item, so a diff shows which items
    changed."""
    parts = []
    for key in sorted(doc):
        value = doc[key]
        if key in ("items", "excluded"):
            body = ",\n".join("  " + json.dumps(it, sort_keys=True)
                              for it in value)
            text = f"[\n{body}\n ]" if value else "[]"
        else:
            text = json.dumps(value, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def build_mutate(tmp):
    from workloads import MutateChain
    candidates = [{"id": f"c{s}-L{lvl}", "gen": 1000 + s, "level": lvl,
                   "rng": 2000 + 10 * s + lvl}
                  for s in MUTATE_SEEDS for lvl in range(4)]
    items, excluded, outcomes = measure(
        CAP_S["mutate"], MutateChain(tmp, candidates), candidates)
    skipped = {lvl: 0 for lvl in range(4)}
    for it in items:
        if it["gen"] < 1050 and outcomes[it["id"]] is not None:
            skipped[it["level"]] += outcomes[it["id"]].skipped
    summary = {}
    for lvl in range(4):
        ms = sorted(i["cost_ms"] for i in items
                    if i["level"] == lvl and i["gen"] < 1050)
        summary[f"level{lvl}"] = {
            "items": len(ms), "total_s": round(sum(ms) / 1e3, 2),
            "p50_ms": ms[len(ms) // 2], "p90_ms": ms[int(len(ms) * 0.9)],
            "max_ms": ms[-1], "steps": 2 * lvl * 50,
            "skipped": skipped[lvl]}
    print(json.dumps(summary, indent=1))
    write_pool("mutate_chain.json", CAP_S["mutate"],
               "python3 perfbench/make_pools.py mutate", items, excluded,
               {MutateChain.name: choose(items, MutateChain.cost_key)},
               criterion5=summary)


def build_generate(tmp):
    from workloads import GenerateFixtures
    candidates = [{"id": f"{base}-g{g}-L{lvl}", "base": base, "g": g,
                   "level": lvl}
                  for g in GENERATE_SEEDS for base in ("sara", "pages", "m1")
                  for lvl in range(4)]
    w = GenerateFixtures(tmp, candidates)
    items, excluded, outcomes = measure(CAP_S["generate"], w, candidates)
    w.close()
    for it in items:
        if outcomes[it["id"]] is not None:
            it["sha256"] = hashlib.sha256(
                outcomes[it["id"]].output).hexdigest()
    write_pool("generate_units.json", CAP_S["generate"],
               "python3 perfbench/make_pools.py generate", items, excluded,
               {w.name: choose(items, w.cost_key, min_items=None)})


def _generate_rows(tmp, name, text, sidecar, levels):
    """Rows that ``generate_dataset`` writes for one seed file."""
    from mathmorph.pipeline import GenerationPlan, generate_dataset
    from inputs import StubEndpoint
    d = tempfile.mkdtemp(dir=tmp)
    with open(os.path.join(d, name + ".smt2"), "w") as fh:
        fh.write(text)
    if sidecar:
        with open(os.path.join(d, name + ".txt"), "w") as fh:
            fh.write(sidecar)
    out = os.path.join(d, "rows.jsonl")
    plan = GenerationPlan(corpus_path=d, level_counts=levels,
                          endpoint=StubEndpoint(),
                          global_seed=VERIFY_GLOBAL_SEED)
    generate_dataset(plan, out)
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def build_verify(tmp):
    from workloads import VerifyGateway, VerifyRows
    seeds = []
    for gen in VERIFY_CHAIN_SEEDS:
        seeds.append((f"chain{gen}", chain_seed_text(random.Random(gen)),
                      None, {0: 1, 1: 1, 2: 1, 3: 1}))
    for base in ("sara", "pages", "m1"):
        with open(os.path.join(CORPUS, base + ".smt2")) as fh:
            text = fh.read()
        sidecar = None
        if os.path.exists(os.path.join(CORPUS, base + ".txt")):
            with open(os.path.join(CORPUS, base + ".txt")) as fh:
                sidecar = fh.read()
        seeds.append((base, text, sidecar, {0: 2, 1: 2, 2: 2, 3: 1}))
    for name, text in FALLBACK_SEEDS.items():
        seeds.append((name, text, None, {0: 5}))
    candidates, excluded = [], []
    for name, text, sidecar, levels in seeds:
        for lvl, n in levels.items():
            secs, rows, error = timed(CAP_S["verify"], _generate_rows, tmp,
                                      name, text, sidecar, {lvl: n})
            if secs is None or error is not None:
                reason = repr(error) if error else f"over {CAP_S['verify']} s"
                excluded.append({"id": f"{name}-L{lvl}",
                                 "reason": "generate " + reason})
                continue
            for i, row in enumerate(rows):
                candidates.append({"id": f"{name}-L{lvl}-{i}", "row": row})
    candidates += [{"id": key, "row": row} for key, row in HAND_ROWS.items()]
    rows_dir = os.path.join(tmp, "rows")
    os.makedirs(rows_dir)
    items, more, _ = measure(CAP_S["verify"],
                             VerifyRows(rows_dir, candidates), candidates)
    # the gateway pays a process spawn per solve: rank its rows by their
    # own cost
    items, slow, _ = measure(CAP_S["verify"], VerifyGateway(rows_dir, items),
                             items)
    more += slow
    runs = {w.name: choose(items, w.cost_key)
            for w in (VerifyRows, VerifyGateway)}
    write_pool("verify_rows.json", CAP_S["verify"],
               "python3 perfbench/make_pools.py verify", items,
               excluded + more, runs, global_seed=VERIFY_GLOBAL_SEED)
    costs = [i["cost_ms"] for i in items]
    print(len(items), "rows; median", statistics.median(costs), "ms")


def main(argv):
    use_source_tree()
    which = argv[1] if len(argv) > 1 else "all"
    builders = {"mutate": build_mutate, "generate": build_generate,
                "verify": build_verify}
    if which != "all" and which not in builders:
        raise SystemExit(__doc__)
    os.makedirs(TMP, exist_ok=True)
    for name, build in builders.items():
        if which in ("all", name):
            with tempfile.TemporaryDirectory(dir=TMP) as tmp:
                build(tmp)


if __name__ == "__main__":
    main(sys.argv)
