"""The four workloads.  Each one prepares its pool once (set-up), runs one
item at a time (the timed closed loop) and checks outputs afterwards.

Why these four (see also README.md):

- ``mutate-chain``: ``mutate_to_level`` at levels 0-3 on chain seeds, the
  acceptance suite's criterion-5 workload.  Nearly all of its time is MCMC
  proposals driving the exact solver's integer search; it uses no
  informalization, gateway or numeric fallback.
- ``generate-fixtures``: ``generate_dataset`` over the fixture corpus with
  the offline stub endpoint; the user's headline path, rows per second
  including informalization, consistency and the JSONL write.
- ``verify-rows``: ``verify_dataset`` in process over frozen rows; full
  budget one-shot solving, parsing and the numeric fallback, no MCMC.  The
  bypass workload for any complication or MCMC change.
- ``verify-gateway``: the same rows through the subprocess solver gateway,
  the only workload that spawns a solver process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time

from inputs import CORPUS, StubEndpoint, chain_seed_text, load_run

# generate-fixtures: rows per seed file at each level, the level counts of
# the fixture baseline
GENERATE_LEVELS = {0: 2, 1: 2, 2: 2, 3: 1}


class Workload:
    """Shared surface: ``pool`` is the workload's fixed run list, whose
    items carry their recorded cost under ``cost_key``; ``check`` returns
    an error string or None."""
    cost_key = "cost_ms"

    def attempts(self, item) -> int:
        """Items of the end-to-end count that one pool item stands for."""
        return 1

    def close(self):
        pass


class Outcome:
    """What one item produced: ``failures`` maps a failure kind to a count
    out of ``attempted``; ``steps``/``skipped`` count complication steps;
    ``error`` names the exception the item raised, if any."""

    def __init__(self, attempted=1):
        self.attempted = attempted
        self.failures = {}
        self.steps = 0
        self.skipped = 0
        self.row_ms = []
        self.output = None
        self.error = None

    def fail(self, kind, n=1):
        self.failures[kind] = self.failures.get(kind, 0) + n


class MutateChain(Workload):
    name = "mutate-chain"
    pool_file = "mutate_chain.json"

    def __init__(self, tmp, pool=None):
        from mathmorph import complicate
        from mathmorph.parser import parse
        self._complicate = complicate
        self.pool = pool or load_run(self.pool_file, self.name)
        self.problems = {it["id"]: parse(chain_seed_text(
            random.Random(it["gen"]))) for it in self.pool}

    def run_item(self, item) -> Outcome:
        out = Outcome()
        # looked up per call, so the traced run's wrapper is the one called
        problem, records = self._complicate.mutate_to_level(
            self.problems[item["id"]], item["level"],
            random.Random(item["rng"]))
        out.steps = 2 * item["level"]
        out.skipped = sum(1 for r in records
                          if r.parameters.get("skipped"))
        out.output = problem
        return out

    def check(self, item, outcome):
        """Every output solves sat and the model satisfies each of its
        constraints.  Level 0 only simplifies, so its goal value must equal
        the seed's; a complication draws new auxiliary values, which gives
        the mutant an answer of its own."""
        from mathmorph.funcs import eval_constraint
        from mathmorph.solver import solve
        got = solve(outcome.output)
        if got.status != "sat":
            return f"{item['id']}: mutated problem is {got.status}"
        for c in outcome.output.constraints:
            if not eval_constraint(c, got.model):
                return f"{item['id']}: model violates {c}"
        if item["level"] == 0:
            seed = solve(self.problems[item["id"]])
            if seed.goal_values[0][1].value != got.goal_values[0][1].value:
                return (f"{item['id']}: simplified goal value "
                        f"{got.goal_values[0][1].value} != seed "
                        f"{seed.goal_values[0][1].value}")
        return None


class GenerateFixtures(Workload):
    """One item is one attempted row.  A pool unit is one
    ``generate_dataset`` call over one corpus file at one level and one
    global seed, with that level's ``GENERATE_LEVELS`` count.  A row's
    random stream depends only on (global seed, file, level, index), so the
    units of one seed together write the rows of the full plan."""
    name = "generate-fixtures"
    pool_file = "generate_units.json"

    def __init__(self, tmp, pool=None):
        from mathmorph import pipeline
        self._pipeline = pipeline
        self.endpoint = StubEndpoint()
        self.pool = pool or load_run(self.pool_file, self.name)
        self.tmp = tmp
        self.dirs = {}
        for base in sorted({it["base"] for it in self.pool}):
            d = os.path.join(tmp, "corpus", base)
            os.makedirs(d, exist_ok=True)
            for ext in (".smt2", ".txt"):
                src = os.path.join(CORPUS, base + ext)
                if os.path.exists(src):
                    shutil.copy(src, d)
            self.dirs[base] = d
        self.outputs = {}
        self._row_ms = None
        self._hook_rows()

    def _hook_rows(self):
        """Time each row from outside: ``_generate_row`` is the per-row
        step of ``generate_dataset``.  Without it, a unit's rows share its
        time evenly."""
        inner = getattr(self._pipeline, "_generate_row", None)
        self.row_hook = inner is not None
        if inner is None:
            return

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                if self._row_ms is not None:
                    self._row_ms.append((time.perf_counter() - t) * 1e3)
        self._inner_row = inner
        self._pipeline._generate_row = timed

    def attempts(self, item) -> int:
        return GENERATE_LEVELS[item["level"]]

    def run_item(self, item) -> Outcome:
        count = self.attempts(item)
        out = Outcome(count)
        path = os.path.join(self.tmp, f"{item['id']}.jsonl")
        plan = self._pipeline.GenerationPlan(
            corpus_path=self.dirs[item["base"]],
            level_counts={item["level"]: count}, endpoint=self.endpoint,
            global_seed=item["g"])
        self._row_ms = out.row_ms
        try:
            self._pipeline.generate_dataset(plan, path)
        finally:
            self._row_ms = None
        with open(path, "rb") as fh:
            out.output = fh.read()
        with open(path + ".rejects", encoding="utf-8") as fh:
            rejects = [json.loads(line) for line in fh]
        for rej in rejects:
            out.fail("rejected: " + rej["reason"].split(":")[0])
        rows = [json.loads(line) for line in out.output.splitlines()]
        for row in rows + rejects:
            out.skipped += sum(1 for rec in row.get("provenance", ())
                               if rec["parameters"].get("skipped"))
        out.steps = 2 * item["level"] * count
        return out

    def check(self, item, outcome):
        """The unit wrote the bytes recorded in the pool (``sha256``), and
        its rows pass ``verify_dataset``."""
        digest = hashlib.sha256(outcome.output).hexdigest()
        if digest != item.get("sha256"):
            return (f"{item['id']}: output sha256 {digest} != recorded "
                    f"{item.get('sha256')}")
        if item["id"] in self.outputs:
            return None
        self.outputs[item["id"]] = outcome.output
        path = os.path.join(self.tmp, f"{item['id']}.check.jsonl")
        with open(path, "wb") as fh:
            fh.write(outcome.output)
        report = self._pipeline.verify_dataset(path)
        if not report.ok:
            return f"{item['id']}: verify mismatches {report.mismatches}"
        return None

    def digest(self) -> str:
        """sha256 over the checked units' outputs, in unit id order."""
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(self.outputs[key])
        return h.hexdigest()

    def close(self):
        if self.row_hook:
            self._pipeline._generate_row = self._inner_row


class VerifyRows(Workload):
    """One item is one row, checked by ``verify_dataset`` over a one-row
    file."""
    name = "verify-rows"
    pool_file = "verify_rows.json"

    def __init__(self, tmp, pool=None):
        from mathmorph import pipeline
        self._pipeline = pipeline
        self.pool = pool or load_run(self.pool_file, self.name)
        self.paths = {}
        for it in self.pool:
            path = os.path.join(tmp, f"{it['id']}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(it["row"], sort_keys=True,
                                    ensure_ascii=False) + "\n")
            self.paths[it["id"]] = path
        self.cfg = None

    def run_item(self, item) -> Outcome:
        out = Outcome()
        report = self._pipeline.verify_dataset(self.paths[item["id"]],
                                               self.cfg)
        out.output = (report.passed, tuple(report.mismatches))
        for _, reason in report.mismatches:
            out.fail("mismatch: " + reason.split(" ")[0])
        return out

    def check(self, item, outcome):
        if outcome.output != (1, ()):
            return f"{item['id']}: row does not pass: {outcome.output}"
        return None


class VerifyGateway(VerifyRows):
    """``verify-rows`` with every solve sent through the subprocess
    gateway to the bundled minisolver."""
    name = "verify-gateway"
    cost_key = "gateway_ms"

    def __init__(self, tmp, pool=None):
        super().__init__(tmp, pool)
        from mathmorph.solver import SolverConfig
        self.cfg = SolverConfig(command=[sys.executable, "-m",
                                         "mathmorph.minisolver"])
        self._in_process = {}

    def check(self, item, outcome):
        """Agree row by row with the in-process verifier."""
        if item["id"] not in self._in_process:
            try:
                report = self._pipeline.verify_dataset(self.paths[item["id"]])
                got = (report.passed, tuple(report.mismatches))
            except Exception as exc:
                got = f"raised {type(exc).__name__}"
            self._in_process[item["id"]] = got
        if outcome.output != self._in_process[item["id"]]:
            return (f"{item['id']}: gateway {outcome.output} != in process "
                    f"{self._in_process[item['id']]}")
        return super().check(item, outcome)


WORKLOADS = {w.name: w for w in (MutateChain, GenerateFixtures, VerifyRows,
                                 VerifyGateway)}
