"""Command line interface: subcommands and exit codes."""

import json
import os
import shlex
import sys
import time

import pytest

from mathmorph import cli
from mathmorph.informalize import RecordingEndpoint
from mathmorph.pipeline import GenerationPlan, generate_dataset
from conftest import FIXTURES, FixtureEndpoint, deep_script, read_fixture


GATEWAY = shlex.join([sys.executable, "-m", "mathmorph.minisolver"])


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def test_parse_prints_canonical_form(capsys):
    assert cli.main(["parse", fixture_path("sara.smt2")]) == 0
    out = capsys.readouterr().out
    assert "(assert (= sara_shoes_cost 50))" in out
    # canonical output re-parses to itself
    from mathmorph.parser import parse
    from mathmorph.printer import canonical_print
    assert canonical_print(parse(out)) == out


def test_simplify_outputs_script(capsys):
    assert cli.main(["simplify", fixture_path("sara.smt2"),
                     "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(declare-fun")
    assert "(check-sat)" in out


def test_solve_prints_model(capsys):
    assert cli.main(["solve", fixture_path("sara.smt2")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "sat"
    assert "rachel_budget = 500" in out


def test_solve_unsat_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(declare-fun x () Int)(assert (= x 1))"
                   "(assert (= x 2))(check-sat)\n")
    assert cli.main(["solve", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "unsat"


def test_an_unexpected_error_exits_two_with_one_line(tmp_path, capsys,
                                                    monkeypatch):
    def overflow(problem, cfg):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli, "solve", overflow)
    script = tmp_path / "exp.smt2"
    script.write_text("(declare-fun x () Real)(assert (= (exp x) 5))"
                      "(check-sat)(get-value (x))\n")
    assert cli.main(["solve", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("shape", ["nested", "flat"])
def test_parse_of_a_too_deep_tree_exits_one(tmp_path, capsys, shape):
    script = tmp_path / "deep.smt2"
    script.write_text(deep_script(shape, 3000))
    assert cli.main(["parse", str(script)]) == 1
    assert capsys.readouterr().err.startswith("parse error: ")


HUGE_NUMBERS = {
    "power": "(declare-fun x () Real)(assert (= x (^ 10 100000000)))",
    "transcendental": "(declare-fun x () Real)(assert (= x (exp 100000000)))",
    "factorial": "(declare-fun x () Int)(assert (= x (factorial 100000)))",
    "binomial": "(declare-fun x () Int)"
                "(assert (= x (binomial 200000 100000)))",
    "numeral": "(declare-fun x () Int)(assert (= x " + "9" * 5000 + "))",
}


@pytest.mark.parametrize("solver", [None, GATEWAY],
                         ids=["in-process", "gateway"])
@pytest.mark.parametrize("case", list(HUGE_NUMBERS))
def test_a_huge_number_is_refused_quickly(tmp_path, capsys, case, solver):
    script = tmp_path / f"{case}.smt2"
    script.write_text(HUGE_NUMBERS[case] + "(check-sat)(get-value (x))\n")
    argv = ["solve", str(script)] + (["--solver", solver] if solver else [])
    start = time.monotonic()
    assert cli.main(argv) == 1
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    if case == "numeral":
        assert captured.err.startswith("parse error: numeral longer than")
    else:
        assert captured.out == "unknown\n"


def test_complicate_prints_mutated_script(capsys):
    assert cli.main(["complicate", fixture_path("m1.smt2"),
                     "--level", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "(check-sat)" in out


def test_informalize_prompt_only_matches_fixture(capsys):
    assert cli.main(["informalize", fixture_path("pages.smt2"),
                     "--pattern", "p2", "--prompt-only"]) == 0
    # p2 carries comments and refresh but no few-shot context here
    out = capsys.readouterr().out
    assert "x_0" in out


def test_informalize_without_endpoint_exits_two(capsys, monkeypatch):
    monkeypatch.delenv("MATHMORPH_LLM_URL", raising=False)
    monkeypatch.delenv("MATHMORPH_LLM_REPLAY", raising=False)
    assert cli.main(["informalize", fixture_path("sara.smt2")]) == 2


def test_generate_verify_emit_flow(tmp_path, monkeypatch, corpus_dir,
                                   capsys):
    # record a replay fixture with the deterministic endpoint, then run
    # the whole flow through the CLI against it
    rec = RecordingEndpoint(FixtureEndpoint())
    plan = GenerationPlan(corpus_path=corpus_dir, level_counts={0: 1, 1: 1},
                          endpoint=rec, global_seed=3)
    generate_dataset(plan, str(tmp_path / "seed_run.jsonl"))
    replay = tmp_path / "replay.json"
    rec.dump(str(replay))

    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "cli.jsonl"
    cfg.write_text(f"corpus = {corpus_dir}\nlevels = 0:1,1:1\nseed = 3\n"
                   f"out = {out}\n")
    monkeypatch.setenv("MATHMORPH_LLM_REPLAY", str(replay))

    assert cli.main(["generate", "--config", str(cfg)]) == 0
    assert "rows" in capsys.readouterr().out
    assert cli.main(["verify", str(out)]) == 0

    train = tmp_path / "train.jsonl"
    assert cli.main(["emit", str(out), "--out", str(train)]) == 0
    rows = [json.loads(l) for l in train.read_text().splitlines()]
    assert rows and all("text" in r for r in rows)


def test_verify_tampered_exits_one(tmp_path, monkeypatch, corpus_dir,
                                   capsys):
    plan = GenerationPlan(corpus_path=corpus_dir, level_counts={0: 1},
                          endpoint=FixtureEndpoint(), global_seed=3)
    out = tmp_path / "ds.jsonl"
    generate_dataset(plan, str(out))
    lines = out.read_text().splitlines()
    row = json.loads(lines[0])
    row["reasoning"] = "The answer is 123456789."
    lines[0] = json.dumps(row, sort_keys=True, ensure_ascii=False)
    out.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", str(out)]) == 1
    assert "line 1:" in capsys.readouterr().out


def test_generate_without_endpoint_exits_two(tmp_path, monkeypatch,
                                             corpus_dir, capsys):
    monkeypatch.delenv("MATHMORPH_LLM_URL", raising=False)
    monkeypatch.delenv("MATHMORPH_LLM_REPLAY", raising=False)
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"corpus = {corpus_dir}\nlevels = 0:1\n")
    assert cli.main(["generate", "--config", str(cfg)]) == 2


def test_missing_file_exits_two(capsys):
    assert cli.main(["solve", "/nonexistent.smt2"]) == 2


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.smt2"
    bad.write_text("(assert (= x 1))(check-sat)\n")
    assert cli.main(["parse", str(bad)]) == 1


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_solve_of_a_define_fun_rec_script_exits_one(tmp_path, capsys):
    path = tmp_path / "rec.smt2"
    path.write_text("(define-fun-rec f ((n Int)) Int "
                    "(ite (= n 0) 0 (+ n (f (- n 1)))))\n"
                    "(declare-fun x () Int)(assert (= x (f 3)))\n"
                    "(check-sat)(get-value (x))\n")
    assert cli.main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "unknown\n" and captured.err == ""


def test_a_value_past_the_decimal_range_is_unknown_not_an_error(tmp_path,
                                                                capsys):
    path = tmp_path / "huge.smt2"
    path.write_text("(declare-fun x () Real)"
                    "(assert (= x (exp 99999999999999999999999999999)))"
                    "(check-sat)(get-value (x))\n")
    assert cli.main(["simplify", str(path)]) == 0
    assert cli.main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "unknown"
    assert captured.err == ""
