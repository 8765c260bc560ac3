"""Dataset generation, verification, and training-row emission.

``generate_dataset`` walks a seed corpus of SMT-LIB files, mutates each seed to
the requested difficulty levels, keeps the solve that proved each mutant
(solving only a mutant that no step changed), asks the language-model endpoint
for an informal statement and a reasoning path, and keeps only rows whose
extracted answer matches the solver.  Output is line-delimited JSON; every byte
is a deterministic function of the plan and the global seed.
``verify_dataset`` re-checks a file from scratch, ``emit_training_rows``
renders verified rows into the instruction-tuning template.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .ast import MathMorphError, Problem, node_count
from .funcs import APPROX_TOL
from .parser import ParseError, parse
from .printer import canonical_print
from .solver import SolverConfig, SolverResult, solve
from .complicate import McmcConfig, _mutate
from .informalize import (DEFAULT_FEW_SHOT_POOL, PATTERNS, EndpointError,
                          PromptContext, consistency_check,
                          generate_reasoning, informalize)


class PipelineError(MathMorphError):
    pass


ROW_FIELDS = ("seed_id", "level", "formal", "informal", "pattern", "answer",
              "reasoning", "verified", "provenance", "rng_seed")

TRAINING_TEMPLATE = ("Below is an instruction that describes a task. "
                     "Write a response that appropriately completes the "
                     "request.\n\n### Instruction:\n{instruction}\n\n"
                     "### Response:\n")

#: reasoning paths asked of the endpoint per mutant before it is rejected
REASONING_ATTEMPTS = 3

#: the keys of a generation config; ``mathmorph generate`` reads the last two
CONFIG_KEYS = ("corpus", "levels", "seed", "pattern_ratio", "solver",
               "skip_verification", "out", "rejects")


@dataclass
class GenerationPlan:
    corpus_path: str
    level_counts: Dict[int, int]            # level -> rows per seed problem
    pattern_ratio: float = 0.5              # fraction of rows drawn as p1
    solver: SolverConfig = field(default_factory=SolverConfig)
    endpoint: Optional[object] = None
    global_seed: int = 0
    skip_verification: bool = False

    def __post_init__(self):
        if not self.level_counts:
            raise PipelineError("no levels requested")
        if any(n < 0 for n in self.level_counts.values()):
            raise PipelineError("sample counts must be >= 0")
        if any(lvl < 0 for lvl in self.level_counts):
            raise PipelineError("levels must be >= 0")
        if not 0.0 <= self.pattern_ratio <= 1.0:
            raise PipelineError("pattern ratio must lie in [0, 1]")


@dataclass
class GenerationReport:
    rows: int = 0
    rejects: int = 0
    per_level: Dict[int, int] = field(default_factory=dict)
    attempted: int = 0
    solved: int = 0
    mean_node_count: Dict[int, float] = field(default_factory=dict)

    @property
    def validity_rate(self) -> float:
        return self.solved / self.attempted if self.attempted else 0.0

    @property
    def verification_rate(self) -> float:
        return self.rows / self.solved if self.solved else 0.0


def sample_rng_seed(global_seed: int, seed_id: str, level: int,
                    index: int) -> int:
    """Stable per-sample RNG seed; independent of generation order."""
    key = f"{global_seed}:{seed_id}:{level}:{index}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def load_corpus(path: str) -> List[Tuple[str, Problem, Optional[str]]]:
    """(seed_id, problem, informal sidecar text) per .smt2 file, sorted by
    id.  A sidecar is an optional .txt file next to the script holding the
    original natural-language statement."""
    root = Path(path)
    if not root.is_dir():
        raise PipelineError(f"seed corpus is not a directory: {path}")
    out = []
    for f in sorted(root.glob("*.smt2")):
        try:
            problem = parse(f.read_text())
        except (ParseError, MathMorphError) as exc:
            raise PipelineError(f"seed {f.name} does not parse: {exc}")
        sidecar = f.with_suffix(".txt")
        text = sidecar.read_text().strip() if sidecar.exists() else None
        out.append((f.stem, problem, text))
    if not out:
        raise PipelineError(f"no .smt2 seeds under {path}")
    return out


def _pick_pattern(rng, ratio: float, has_original: bool) -> str:
    """p1 rewrites the original statement, so it needs a sidecar text."""
    if has_original and rng.random() < ratio:
        return "p1"
    return "p2"


def _generate_row(plan: GenerationPlan, seed_id: str, seed: Problem,
                  original: Optional[str], level: int,
                  index: int) -> Tuple[Optional[dict], Optional[dict],
                                       Optional[int]]:
    """(row, reject, nodes) for one sample: exactly one of row and reject
    is set; ``nodes`` counts the mutated constraints' AST nodes, None
    when mutation failed."""
    rng_seed = sample_rng_seed(plan.global_seed, seed_id, level, index)
    rng = random.Random(rng_seed)
    name = _pick_pattern(rng, plan.pattern_ratio, original is not None)
    base = {"seed_id": seed_id, "level": level, "rng_seed": rng_seed,
            "pattern": name}
    try:
        mutated, records, result = _mutate(seed, level, rng,
                                           McmcConfig(solver=plan.solver))
    except MathMorphError as exc:
        return None, dict(base, reason=f"mutation failed: {exc}"), None
    nodes = sum(node_count(c) for c in mutated.constraints)
    base["formal"] = canonical_print(mutated)
    # each record's fields as they are: asdict would deep-copy them
    base["provenance"] = [vars(r) for r in records]
    if result is None:              # no step proved the mutant: solve it
        result = solve(mutated, plan.solver)
    if result.status != "sat":      # an unsat mutant costs no endpoint call
        return None, dict(base, reason=audit_row(base, result)), nodes
    answer = result.answer
    base["answer"] = None if answer is None else str(answer.value)
    context = PromptContext(original_text=original,
                            few_shot_pool=DEFAULT_FEW_SHOT_POOL, rng=rng)
    try:
        informal = informalize(mutated, PATTERNS[name], plan.endpoint,
                               context)
    except (EndpointError, MathMorphError) as exc:
        return (None, dict(base, reason=f"informalization failed: {exc}"),
                nodes)
    base["informal"] = informal
    if plan.skip_verification:
        return None, dict(base, reasoning="", verified=False,
                          reason="verification skipped by plan"), nodes
    for _ in range(REASONING_ATTEMPTS):
        try:
            reasoning = generate_reasoning(informal, plan.endpoint)
        except (EndpointError, MathMorphError) as exc:
            return None, dict(base, reason=f"reasoning failed: {exc}"), nodes
        row = dict(base, reasoning=reasoning, verified=True)
        reason = audit_row(row, result)
        if reason is None:
            return row, None, nodes
    return None, dict(row, verified=False, reason=reason), nodes


def generate_dataset(plan: GenerationPlan, out_path: str,
                     rejects_path: Optional[str] = None) -> GenerationReport:
    """Write verified rows to ``out_path`` and failures to the rejects
    file; per-sample failures never abort the run."""
    if plan.endpoint is None:
        raise PipelineError("no language-model endpoint configured")
    corpus = load_corpus(plan.corpus_path)
    rejects_path = rejects_path or f"{out_path}.rejects"
    report = GenerationReport()
    node_totals: Dict[int, List[int]] = {}
    rows, rejects = [], []
    for seed_id, seed, original in corpus:
        for level in sorted(plan.level_counts):
            for index in range(plan.level_counts[level]):
                report.attempted += 1
                try:
                    row, reject, nodes = _generate_row(
                        plan, seed_id, seed, original, level, index)
                except Exception as exc:    # one row never aborts the run
                    row, nodes = None, None
                    reject = {"seed_id": seed_id, "level": level,
                              "rng_seed": sample_rng_seed(
                                  plan.global_seed, seed_id, level, index),
                              "reason": f"{type(exc).__name__}: {exc}"}
                if "answer" in (row or reject):
                    report.solved += 1
                if row is not None:
                    report.per_level[level] = \
                        report.per_level.get(level, 0) + 1
                    rows.append(row)
                else:
                    rejects.append(reject)
                if nodes is not None:
                    node_totals.setdefault(level, []).append(nodes)
    report.rows = len(rows)
    report.rejects = len(rejects)
    report.mean_node_count = {lvl: sum(v) / len(v)
                              for lvl, v in sorted(node_totals.items())}
    _write_jsonl(out_path, rows)
    _write_jsonl(rejects_path, rejects)
    return report


def _write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """One JSON object per line, keys sorted so a row's bytes do not depend
    on field order; returns the count.  Written whole or not at all: the
    rows go to ``<path>.tmp``, renamed onto ``path`` after the last row."""
    tmp, count = f"{path}.tmp", 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for count, row in enumerate(rows, start=1):
                fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return count


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    rows: int = 0
    passed: int = 0
    mismatches: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _is_answer(value) -> bool:
    """A stored answer is null or a string that ``Fraction`` reads."""
    if not isinstance(value, str):
        return value is None
    try:
        Fraction(value)
        return True
    except ValueError:
        return False


def _read_rows(path: str) -> Iterator[Tuple[int, object, Optional[str]]]:
    """(1-based line number, row, reason) per nonblank line; a reason says
    why the line is not a well-formed verified row."""
    with open(path, "rb") as fh:    # json.loads decodes each line itself
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row, reason = json.loads(line), None
            except (ValueError, RecursionError) as exc:
                row, reason = None, f"invalid JSON: {exc}"
            else:
                if not isinstance(row, dict):
                    reason = "schema violation: not a JSON object"
                elif set(row) != set(ROW_FIELDS):
                    reason = ("schema violation: missing "
                              f"{[k for k in ROW_FIELDS if k not in row]}, "
                              "unexpected "
                              f"{[k for k in row if k not in ROW_FIELDS]}")
                elif not all(isinstance(row[k], str)
                             for k in ("formal", "informal", "reasoning")):
                    reason = "schema violation: a text field is not a string"
                elif not _is_answer(row["answer"]):
                    reason = "schema violation: answer is not a number"
                elif row["verified"] is not True:
                    reason = "unverified row in dataset"
            yield lineno, row, reason


def audit_row(row: dict, result: SolverResult) -> Optional[str]:
    """The first reason ``row`` fails against ``result``, the solve of its
    formal, or None.  A row that ``generate`` writes passes ``verify``
    because both ask this gate."""
    if result.status != "sat":
        return f"solver status {result.status}"
    answer = result.answer
    if row["answer"] is not None and answer is not None:
        # an inexact answer holds within APPROX_TOL
        slack = 0 if answer.exact else APPROX_TOL
        if abs(Fraction(row["answer"]) - answer.value) > slack:
            return f"stored answer {row['answer']} != solver {answer.value}"
    verdict = consistency_check(row["reasoning"], result)
    if not verdict.consistent:
        return (f"answer mismatch: reasoning {verdict.llm_answer} vs solver "
                f"{verdict.solver_answer}")
    return None


def verify_dataset(path: str,
                   cfg: Optional[SolverConfig] = None) -> VerificationReport:
    """Re-parse, re-solve, and re-check every row; mismatches carry the
    1-based line number."""
    cfg = cfg or SolverConfig()
    report = VerificationReport()
    for lineno, row, reason in _read_rows(path):
        report.rows += 1
        if reason is None:
            try:
                problem = parse(row["formal"])
            except MathMorphError as exc:
                reason = f"formal does not parse: {exc}"
            else:
                reason = audit_row(row, solve(problem, cfg))
        if reason is None:
            report.passed += 1
        else:
            report.mismatches.append((lineno, reason))
    return report


# ---------------------------------------------------------------------------
# training-row emission
# ---------------------------------------------------------------------------

class UnverifiedSampleError(PipelineError):
    pass


def emit_training_rows(dataset_path: str, out_path: str) -> int:
    """Render each verified row into the instruction-tuning template with
    the informal problem as instruction and the reasoning path as
    response; returns the row count.  One bad row refuses the file."""
    return _write_jsonl(out_path, _training_rows(dataset_path))


def _training_rows(dataset_path: str) -> Iterator[dict]:
    for lineno, row, reason in _read_rows(dataset_path):
        if reason is not None:
            raise UnverifiedSampleError(
                f"line {lineno}: {reason}; cannot be emitted")
        text = TRAINING_TEMPLATE.format(instruction=row["informal"])
        yield {"text": text + row["reasoning"]}


# ---------------------------------------------------------------------------
# config files (plain key = value text)
# ---------------------------------------------------------------------------

def parse_config(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PipelineError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_level_counts(text: str) -> Dict[int, int]:
    """\"0:2,1:2,2:1\" -> {0: 2, 1: 2, 2: 1}."""
    counts: Dict[int, int] = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        lvl, _, n = chunk.partition(":")
        try:
            counts[int(lvl)] = int(n)
        except ValueError:
            raise PipelineError(f"bad level spec {chunk.strip()!r}, "
                                "expected level:count")
    return counts


def plan_from_config(cfg: Dict[str, str],
                     endpoint: Optional[object] = None) -> GenerationPlan:
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise PipelineError(f"unknown config key(s) {unknown}")
    if "corpus" not in cfg:
        raise PipelineError("config is missing the 'corpus' key")
    solver = SolverConfig()
    if cfg.get("solver"):
        solver = replace(solver, command=shlex.split(cfg["solver"]))
    return GenerationPlan(
        corpus_path=cfg["corpus"],
        level_counts=_parse_level_counts(cfg.get("levels", "0:1")),
        pattern_ratio=float(cfg.get("pattern_ratio", "0.5")),
        solver=solver,
        endpoint=endpoint,
        global_seed=int(cfg.get("seed", "0")),
        skip_verification=cfg.get("skip_verification", "false").lower()
        in ("1", "true", "yes"))
