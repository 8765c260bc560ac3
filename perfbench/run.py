"""mathmorph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop, one item at a time in one process,
over the workload's fixed run list from the frozen pools in
``perfbench/pools``; ``--seed`` shuffles the order.  Outputs are checked
after the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  The lines before it report
failures by kind, the environment and everything the run could not fit
into the metrics.

With ``--trace 0`` the loop runs whole passes over the run list, as many
as its recorded cost fits into ``--seconds`` (at least one).  With
``--trace 1`` every ``TRACE_EVERY``-th item of the cost-ranked run list,
and every item expected to fail, runs twice untraced (the first pass warms
up) and twice traced: per-layer metrics come from the first traced pass,
the tracing overhead from the traced over the untraced wall time, and the
second traced pass checks that the counts repeat exactly.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse                                              # noqa: E402
import json                                                  # noqa: E402
import os                                                    # noqa: E402
import random                                                # noqa: E402
import resource                                              # noqa: E402
import shutil                                                # noqa: E402
import statistics                                            # noqa: E402
import subprocess                                            # noqa: E402
import sys                                                   # noqa: E402
import tempfile                                              # noqa: E402

from inputs import ROOT, TMP, use_source_tree               # noqa: E402
from workloads import WORKLOADS, Outcome                     # noqa: E402

SETUP_PROBES = 9
TRACE_EVERY = 4

# hooks each workload must fire, and counts that must stay zero on it
EXPECT_FIRED = {
    "mutate-chain": ("minisolver.solve_exact", "minisolver.propagate",
                     "minisolver.int_search", "complicate.sample_aux_solution",
                     "complicate.complicate_expression",
                     "complicate.complicate_constraint",
                     "complicate.mutate_to_level",
                     "simplify.simplify_level0", "solver.solve",
                     "algebra.fold_constraint", "funcs.eval_expression"),
    "generate-fixtures": ("pipeline.generate_dataset",
                          "informalize.informalize",
                          "informalize.generate_reasoning",
                          "informalize.consistency_check",
                          "endpoint.complete", "printer.canonical_print",
                          "parser.parse", "complicate.mutate_to_level",
                          "complicate.sample_aux_solution",
                          "minisolver.solve_exact", "solver.solve"),
    "verify-rows": ("pipeline.verify_dataset", "parser.parse",
                    "solver.solve", "solver.numeric_fallback_solve",
                    "minisolver.solve_exact"),
    "verify-gateway": ("pipeline.verify_dataset", "parser.parse",
                       "solver.solve", "solver.gateway",
                       "solver.build_script", "solver.parse_reply"),
}
EXPECT_ZERO = {
    "mutate-chain": ("solver.gateway.calls",),
    "generate-fixtures": ("solver.gateway.calls",),
    "verify-rows": ("solver.gateway.calls", "complicate.mcmc.proposals",
                    "complicate.sample_aux_solution.calls"),
    "verify-gateway": ("complicate.mcmc.proposals",
                       "complicate.sample_aux_solution.calls"),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(name) -> None:
    """Child process: import the program and prepare the workload's inputs;
    print the seconds since this interpreter began running this file."""
    use_source_tree()
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    try:
        WORKLOADS[name](tmp).close()
        print(time.perf_counter() - _T0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_setup(name) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", "0", "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Tally:
    """Every item's latency and outcome, failures by kind."""

    def __init__(self):
        self.item_ms = []
        self.attempted = 0
        self.failures = {}
        self.steps = 0
        self.skipped = 0
        self.done = []            # (item, outcome) for the checks

    def add_failure(self, kind, n=1):
        self.failures[kind] = self.failures.get(kind, 0) + n

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_item(w, item, tally):
    t = time.perf_counter()
    try:
        outcome = w.run_item(item)
    except Exception as exc:      # every failure is counted, none aborts
        outcome = Outcome(w.attempts(item))
        outcome.error = type(exc).__name__
        outcome.fail(f"exception: {outcome.error}", outcome.attempted)
    dt = (time.perf_counter() - t) * 1e3
    tally.attempted += outcome.attempted
    for kind, n in outcome.failures.items():
        tally.add_failure(kind, n)
    tally.steps += outcome.steps
    tally.skipped += outcome.skipped
    if outcome.row_ms and len(outcome.row_ms) == outcome.attempted:
        tally.item_ms.extend(outcome.row_ms)
    else:
        tally.item_ms.extend([dt / outcome.attempted] * outcome.attempted)
    tally.done.append((item, outcome))


def pass_count(w, seconds) -> int:
    """Whole passes over the run list that fit into ``seconds`` by the
    pool's recorded costs; at least one."""
    cost_s = sum(it[w.cost_key] for it in w.pool) / 1e3
    return max(1, round(seconds / cost_s))


def timed_loop(w, rng, seconds):
    tally = Tally()
    n = pass_count(w, seconds)
    start = time.perf_counter()
    for _ in range(n):
        order = list(w.pool)
        rng.shuffle(order)
        for item in order:
            run_item(w, item, tally)
    return tally, time.perf_counter() - start, n


def quantile(sorted_values, q):
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of
    every order statistic.  Steadier than any single order statistic on a
    few hundred noisy, heavy-tailed samples."""
    import numpy as np
    from scipy.special import betainc
    n = len(sorted_values)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_values))


def check_outputs(w, tally) -> list:
    """An item that raised passes only if the pool records that exception
    for it; an item recorded as failing that now runs is checked like any
    other."""
    errors = []
    for item, outcome in tally.done:
        expected = item.get("fails", {}).get(w.name)
        if outcome.error is not None:
            if outcome.error != expected:
                errors.append(f"{item['id']}: raised {outcome.error}")
            continue
        try:
            err = w.check(item, outcome)
        except Exception as exc:
            err = f"{item['id']}: check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append(err)
    return errors


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def end_to_end(w, args, spec, report):
    rng = random.Random(args.seed)
    tally, elapsed, n_passes = timed_loop(w, rng, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outputs(w, tally)
    setups = measure_setup(args.workload)
    ms = sorted(tally.item_ms)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.attempted / elapsed,
        "item_p50_ms": quantile(ms, 0.5),
        "item_p90_ms": quantile(ms, 0.9),
        "peak_rss_mb": peak_mb,
    }
    report.update(
        samples=len(ms), beyond_p90=sum(1 for x in ms
                                        if x > values["item_p90_ms"]),
        passes=n_passes, wall_s=elapsed, setup_samples_s=setups,
        fail_share=tally.failed / tally.attempted,
        skip_share=tally.skipped / tally.steps if tally.steps else None,
        skipped_steps=tally.skipped, steps=tally.steps,
        failures=tally.failures, check_errors=errors[:20],
        max_ms=ms[-1])
    if hasattr(w, "digest"):
        report["output_sha256"] = w.digest()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return tally, not errors, metrics


def trace_items(w, seed):
    """Every ``TRACE_EVERY``-th item of the cost-ranked run list and every
    item expected to fail, in an order shuffled by the seed."""
    items = [it for i, it in enumerate(w.pool)
             if i % TRACE_EVERY == 0 or w.name in it.get("fails", {})]
    random.Random(seed).shuffle(items)
    return items


def traced(w, args, spec, report):
    from tracing import DETERMINISTIC, Tracer
    from inputs import StubEndpoint
    items = trace_items(w, args.seed)
    # a first pass pays one-time costs, such as the numeric fallback's
    # import of scipy, that would otherwise land on the untraced pass
    for it in items:
        run_item(w, it, Tally())
    plain = Tally()
    t = time.perf_counter()
    for it in items:
        run_item(w, it, plain)
    plain_s = time.perf_counter() - t
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(StubEndpoint)
        tally = Tally()
        t = time.perf_counter()
        try:
            for it in items:
                run_item(w, it, tally)
        finally:
            tracer.remove()
        passes.append((tracer, tally, time.perf_counter() - t))
    tracer, tally, traced_s = passes[0]
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["run.fail_share"] = plain.failed / plain.attempted
    values["run.skip_share"] = plain.skipped / plain.steps \
        if plain.steps else 0.0
    again = passes[1][0].metrics()
    repeat = {k: (values.get(k), again.get(k)) for k in DETERMINISTIC}
    fired = [k for k in EXPECT_FIRED[args.workload]
             if k not in tracer.missing
             and not tracer.stats.get(k + ".calls")]
    nonzero = [k for k in EXPECT_ZERO[args.workload] if values.get(k)]
    names = [m["name"] for m in spec["per_layer"]]
    errors = check_outputs(w, plain) + check_outputs(w, tally)
    deterministic = all(a == b for a, b in repeat.values())
    if not deterministic:
        errors.append(f"counts differ between traced passes: {repeat}")
    if nonzero:
        errors.append(f"counts expected to be zero are not: {nonzero}")
    report.update(
        items=len(items), untraced_s=plain_s, traced_s=traced_s,
        missing_hooks=tracer.missing, silent_hooks=fired,
        expected_zero_but_nonzero=nonzero, deterministic=deterministic,
        repeat_counts=repeat, rejects=dict(tracer.rejects),
        failures=plain.failures, check_errors=errors[:20],
        extra={k: v for k, v in values.items() if k not in names})
    if hasattr(w, "digest"):
        report["output_sha256"] = w.digest()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]}
               for n in names if n in values}
    return plain, not errors, metrics


def git_commit():
    """The checked-out commit, read from ``.git`` without running git; None
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"python": sys.version.split()[0],
            "executable": sys.executable, "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(), "commit": git_commit(),
            "pythonpath": os.environ.get("PYTHONPATH")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    use_source_tree()
    spec = load_spec()
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": environment()}
    try:
        w = WORKLOADS[args.workload](tmp)
        try:
            mode = traced if args.trace else end_to_end
            tally, correct, metrics = mode(w, args, spec, report)
        finally:
            w.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
