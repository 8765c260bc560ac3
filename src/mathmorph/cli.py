"""Command-line interface.

Exit codes: 0 success, 1 when per-item failures occurred (unsat input,
verification mismatches, rejected samples), 2 on usage or fatal errors.
"""

from __future__ import annotations

import argparse
import os
import random
import shlex
import sys
from dataclasses import replace
from typing import Optional

from .ast import MathMorphError
from .parser import ParseError, parse
from .printer import canonical_print, print_smtlib
from .solver import SolverConfig, solve
from .simplify import simplify_level0
from .complicate import McmcConfig, mutate_to_level
from .informalize import (PATTERNS, LlmEndpoint, PromptContext,
                          ReplayEndpoint, build_prompt, informalize)
from . import pipeline


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mathmorph",
                                  description="Mutate, solve, and "
                                  "informalize SMT-LIB math problems.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, solver=True, out=False):
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        if solver:
            p.add_argument("--solver", default=None,
                           help="external solver command line")
        if out:
            p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("parse", help="parse a script and print it back")
    p.add_argument("file")

    p = sub.add_parser("simplify", help="apply level-0 simplification")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("complicate", help="mutate a problem to a level")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=1)
    common(p)

    p = sub.add_parser("solve", help="solve a problem and print the model")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("informalize",
                       help="translate a script to natural language")
    p.add_argument("file")
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="p2")
    p.add_argument("--prompt-only", action="store_true",
                   help="print the prompt instead of calling the endpoint")
    common(p, solver=False, out=True)

    p = sub.add_parser("generate", help="generate a dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's global seed")

    p = sub.add_parser("verify", help="re-check a generated dataset")
    p.add_argument("file")
    p.add_argument("--solver", default=None)

    p = sub.add_parser("emit", help="render verified rows for tuning")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    return top


def _solver_config(args) -> SolverConfig:
    command = getattr(args, "solver", None)
    if command:
        return SolverConfig(command=shlex.split(command))
    return SolverConfig()


def _endpoint() -> Optional[object]:
    replay = os.environ.get("MATHMORPH_LLM_REPLAY")
    if replay:
        return ReplayEndpoint(replay)
    if os.environ.get("MATHMORPH_LLM_URL"):
        return LlmEndpoint()
    return None


def _read_problem(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_parse(args) -> int:
    print(canonical_print(_read_problem(args.file)), end="")
    return 0


def _cmd_simplify(args) -> int:
    problem = _read_problem(args.file)
    simplified, _ = simplify_level0(problem, random.Random(args.seed))
    print(print_smtlib(simplified), end="")
    return 0


def _cmd_complicate(args) -> int:
    problem = _read_problem(args.file)
    cfg = McmcConfig(solver=_solver_config(args))
    mutated, records = mutate_to_level(problem, args.level,
                                       random.Random(args.seed), cfg)
    if any(r.parameters.get("skipped") for r in records):
        print("warning: some mutation steps were skipped", file=sys.stderr)
    print(print_smtlib(mutated), end="")
    return 0


def _cmd_solve(args) -> int:
    problem = _read_problem(args.file)
    result = solve(problem, _solver_config(args))
    print(result.status)
    for name, value in (result.goal_values or sorted(result.model.items())):
        print(f"{name} = {value.value}")
    return 0 if result.is_sat else 1


def _cmd_informalize(args) -> int:
    problem = _read_problem(args.file)
    pattern = PATTERNS[args.pattern]
    context = PromptContext(rng=random.Random(args.seed))
    if args.prompt_only:
        text = build_prompt(problem, pattern, context)
    else:
        endpoint = _endpoint()
        if endpoint is None:
            print("error: no endpoint configured; set MATHMORPH_LLM_URL "
                  "or MATHMORPH_LLM_REPLAY, or pass --prompt-only",
                  file=sys.stderr)
            return 2
        text = informalize(problem, pattern, endpoint, context)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_generate(args) -> int:
    cfg = pipeline.parse_config(args.config)
    endpoint = _endpoint()
    if endpoint is None:
        print("error: no endpoint configured; set MATHMORPH_LLM_URL or "
              "MATHMORPH_LLM_REPLAY", file=sys.stderr)
        return 2
    plan = pipeline.plan_from_config(cfg, endpoint)
    if args.seed is not None:
        plan = replace(plan, global_seed=args.seed)
    out = args.out or cfg.get("out", "dataset.jsonl")
    report = pipeline.generate_dataset(plan, out,
                                       cfg.get("rejects") or None)
    print(f"rows {report.rows} rejects {report.rejects} "
          f"validity {report.validity_rate:.3f} "
          f"verification {report.verification_rate:.3f}")
    for level in sorted(report.mean_node_count):
        print(f"level {level}: {report.per_level.get(level, 0)} rows, "
              f"mean node count {report.mean_node_count[level]:.2f}")
    return 0 if report.rejects == 0 else 1


def _cmd_verify(args) -> int:
    report = pipeline.verify_dataset(args.file, _solver_config(args))
    for lineno, reason in report.mismatches:
        print(f"line {lineno}: {reason}")
    print(f"{report.passed}/{report.rows} rows pass")
    return 0 if report.ok else 1


def _cmd_emit(args) -> int:
    count = pipeline.emit_training_rows(args.file, args.out)
    print(f"emitted {count} rows to {args.out}")
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "simplify": _cmd_simplify,
    "complicate": _cmd_complicate,
    "solve": _cmd_solve,
    "informalize": _cmd_informalize,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "emit": _cmd_emit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathMorphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
