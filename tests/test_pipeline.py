"""Dataset generation: determinism, verification, and training export."""

import hashlib
import json
import os
import random
import re
import shutil
import sys
from fractions import Fraction

import pytest

from mathmorph.pipeline import (GenerationPlan, PipelineError,
                                TRAINING_TEMPLATE,
                                UnverifiedSampleError, emit_training_rows,
                                generate_dataset, load_corpus,
                                _parse_level_counts, parse_config,
                                plan_from_config, sample_rng_seed,
                                verify_dataset)
from mathmorph import cli, pipeline
from mathmorph.informalize import REASONING_INSTRUCTION, extract_answer
from mathmorph.parser import parse
from mathmorph.solver import SolverConfig, solve
from conftest import FIXTURES, FixtureEndpoint

GATEWAY = [sys.executable, "-m", "mathmorph.minisolver"]
ROW_FIELDS = ["seed_id", "level", "formal", "informal", "pattern", "answer",
              "reasoning", "verified", "provenance", "rng_seed"]


def make_plan(corpus_dir, **kw):
    defaults = dict(corpus_path=corpus_dir, level_counts={0: 2, 1: 1},
                    endpoint=FixtureEndpoint(), global_seed=7)
    defaults.update(kw)
    return GenerationPlan(**defaults)


def test_sample_rng_seed_is_a_hash_prefix():
    digest = hashlib.sha256(b"5:sara:1:0").digest()
    expected = int.from_bytes(digest[:8], "big")
    assert sample_rng_seed(5, "sara", 1, 0) == expected


def test_load_corpus_pairs_scripts_with_sidecars(corpus_dir):
    entries = load_corpus(corpus_dir)
    assert [e[0] for e in entries] == ["pages", "sara"]
    assert entries[1][2] is not None and "Sara" in entries[1][2]
    assert entries[0][2] is None


def test_load_corpus_rejects_empty_directory(tmp_path):
    with pytest.raises(PipelineError):
        load_corpus(str(tmp_path))


def test_generate_rows_carry_exact_schema(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    report = generate_dataset(make_plan(corpus_dir), str(out))
    assert report.rows > 0
    for line in out.read_text().splitlines():
        row = json.loads(line)
        assert list(sorted(row)) == sorted(ROW_FIELDS)
        assert row["verified"] is True


def test_generate_is_byte_deterministic(corpus_dir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_dataset(make_plan(corpus_dir), str(a))
    generate_dataset(make_plan(corpus_dir), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_seed_changes_output(corpus_dir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_dataset(make_plan(corpus_dir), str(a))
    generate_dataset(make_plan(corpus_dir, global_seed=8), str(b))
    assert a.read_bytes() != b.read_bytes()


def test_skip_verification_routes_to_rejects(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    rejects = tmp_path / "rejects.jsonl"
    report = generate_dataset(make_plan(corpus_dir, skip_verification=True),
                              str(out), str(rejects))
    assert report.rows == 0
    assert report.rejects > 0
    assert all(not json.loads(l)["verified"]
               for l in rejects.read_text().splitlines())


def test_verify_passes_clean_dataset(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    generate_dataset(make_plan(corpus_dir), str(out))
    report = verify_dataset(str(out))
    assert report.ok and report.passed == report.rows


def test_verify_flags_tampered_answer(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    generate_dataset(make_plan(corpus_dir), str(out))
    lines = out.read_text().splitlines()
    row = json.loads(lines[0])
    row["reasoning"] = "The answer is 999999."
    lines[0] = json.dumps(row, sort_keys=True, ensure_ascii=False)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    report = verify_dataset(str(tampered))
    assert not report.ok
    assert report.mismatches[0][0] == 1


# the answer differential evolution stored for this row; the root step's
# differs from it by less than 1e-12
SQUARE_ROOT = Fraction(673957363241, 476559821778)


@pytest.mark.parametrize("answer, ok", [
    (SQUARE_ROOT, True),
    (SQUARE_ROOT + Fraction(1, 10 ** 6), False),
], ids=["stored-root", "off-by-1e-6"])
def test_verify_compares_an_inexact_answer_within_a_tolerance(tmp_path,
                                                              answer, ok):
    row = {"seed_id": "square", "level": 0,
           "formal": "(declare-fun side () Real)(assert (> side 0))"
                     "(assert (= (* side side) 2))(check-sat)"
                     "(get-value (side))\n",
           "informal": "What is the side of a square of area 2?",
           "pattern": "p2", "answer": str(answer),
           "reasoning": "The answer is 1.41421356.", "verified": True,
           "provenance": [], "rng_seed": 1}
    path = tmp_path / "square.jsonl"
    path.write_text(json.dumps(row) + "\n")
    report = verify_dataset(str(path))
    assert report.ok is ok
    if not ok:
        assert report.mismatches[0][1].startswith("stored answer")


def _row(formal, answer, reasoning):
    return {"seed_id": "s", "level": 0, "formal": formal,
            "informal": "Find x.", "pattern": "p2", "answer": answer,
            "reasoning": reasoning, "verified": True, "provenance": [],
            "rng_seed": 1}


def test_gateway_and_in_process_verify_agree_on_an_inexact_answer(tmp_path):
    # the gateway prints every value as an exact rational, so no digit of
    # the 25-digit log 2 is lost on the way
    formal = ("(declare-fun x () Real)(assert (= x (log 2)))(check-sat)"
              "(get-value (x))\n")
    fast = solve(parse(formal))
    slow = solve(parse(formal), SolverConfig(command=GATEWAY))
    assert [v.value for _, v in fast.goal_values] \
        == [v.value for _, v in slow.goal_values]
    path = tmp_path / "log.jsonl"
    row = _row(formal, str(fast.goal_values[0][1].value),
               "The answer is 0.693147.")
    path.write_text(json.dumps(row) + "\n")
    assert verify_dataset(str(path)).ok
    report = verify_dataset(str(path), SolverConfig(command=GATEWAY))
    assert report.ok, report.mismatches


X_IS_3 = "(declare-fun x () Int)(assert (= x 3))(check-sat)(get-value (x))\n"
CLEAN = _row(X_IS_3, "3", "The answer is 3.")


# lines that are not a well-formed verified row, whatever their formal
MALFORMED = {
    "json": ("{not json", "invalid JSON: "),
    "not-utf-8": ('{"formal": "\udcff"}', "invalid JSON: "),
    "nested-too-deep": ("[" * 100_000, "invalid JSON: "),
    "not-an-object": ("[1, 2]", "schema violation: not a JSON object"),
    "missing": (json.dumps({k: v for k, v in CLEAN.items() if k != "answer"}),
                "schema violation: missing ['answer'], unexpected []"),
    "extra": (json.dumps({**CLEAN, "extra": 1}),
              "schema violation: missing [], unexpected ['extra']"),
    "formal-number": (json.dumps({**CLEAN, "formal": 3}),
                      "schema violation: a text field is not a string"),
    "informal-null": (json.dumps({**CLEAN, "informal": None}),
                      "schema violation: a text field is not a string"),
    "reasoning-list": (json.dumps({**CLEAN, "reasoning": ["3"]}),
                       "schema violation: a text field is not a string"),
    "answer-number": (json.dumps({**CLEAN, "answer": 3}),
                      "schema violation: answer is not a number"),
    "answer-word": (json.dumps({**CLEAN, "answer": "three"}),
                    "schema violation: answer is not a number"),
    "answer-5000-digits": (json.dumps({**CLEAN, "answer": "3" * 5000}),
                           "schema violation: answer is not a number"),
    "unverified": (json.dumps({**CLEAN, "verified": False}),
                   "unverified row in dataset"),
}


@pytest.mark.parametrize("line, reason", [
    (json.dumps(CLEAN), None),
    # json.dumps leaves U+2028 raw, and a row is one line all the same
    (json.dumps({**CLEAN, "informal": "Find\u2028x."}, ensure_ascii=False),
     None),
    *MALFORMED.values(),
    (json.dumps({**CLEAN, "formal": "(assert (= x 3))(check-sat)"}),
     "formal does not parse: "),
    (json.dumps({**CLEAN, "formal": "(declare-fun x () Int)(assert (= x 3))"
                                    "(assert (= x 4))(check-sat)"}),
     "solver status unsat"),
], ids=["clean", "line-separator", *MALFORMED, "parse", "unsat"])
def test_verify_reports_each_rejection_with_its_line(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(f"\n{line}\n".encode("utf-8", "surrogateescape"))
    report = verify_dataset(str(path))
    assert report.rows == 1
    if reason is None:
        assert report.ok and report.passed == 1
    else:
        assert report.passed == 0
        [(lineno, text)] = report.mismatches
        assert lineno == 2 and text.startswith(reason)


def test_emit_training_rows_uses_template(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    generate_dataset(make_plan(corpus_dir), str(out))
    train = tmp_path / "train.jsonl"
    n = emit_training_rows(str(out), str(train))
    assert n > 0
    first = json.loads(train.read_text().splitlines()[0])
    assert set(first) == {"text"}
    head = TRAINING_TEMPLATE.split("{instruction}")[0]
    assert first["text"].startswith(head)
    assert "### Response:\n" in first["text"]


def test_emit_refuses_unverified_rows(corpus_dir, tmp_path):
    out = tmp_path / "ds.jsonl"
    generate_dataset(make_plan(corpus_dir), str(out))
    lines = out.read_text().splitlines()
    row = json.loads(lines[0])
    row["verified"] = False
    lines[0] = json.dumps(row, sort_keys=True, ensure_ascii=False)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnverifiedSampleError):
        emit_training_rows(str(out), str(tmp_path / "train.jsonl"))


@pytest.mark.parametrize("line, reason", MALFORMED.values(), ids=MALFORMED)
def test_emit_refuses_each_malformed_line(tmp_path, capsys, line, reason):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(f"{json.dumps(CLEAN)}\n{line}\n".encode(
        "utf-8", "surrogateescape"))
    train = tmp_path / "train.jsonl"
    with pytest.raises(UnverifiedSampleError, match="line 2: "):
        emit_training_rows(str(path), str(train))
    assert cli.main(["emit", str(path), "--out", str(train)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: line 2: " + reason)


def test_a_refused_emit_leaves_out_as_it_was(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    path.write_text(f"{json.dumps(CLEAN)}\n"
                    f"{json.dumps(dict(CLEAN, verified=False))}\n")
    train = tmp_path / "train.jsonl"
    assert cli.main(["emit", str(path), "--out", str(train)]) == 2
    assert not train.exists()
    train.write_bytes(b"held before\n")
    assert cli.main(["emit", str(path), "--out", str(train)]) == 2
    assert train.read_bytes() == b"held before\n"
    assert sorted(os.listdir(tmp_path)) == ["rows.jsonl", "train.jsonl"]
    assert capsys.readouterr().err.startswith(
        "error: line 2: unverified row in dataset")


class OffByOneEndpoint(FixtureEndpoint):
    """States the solver's answer plus one in every reasoning path."""

    def complete(self, prompt):
        text = super().complete(prompt)
        if prompt.startswith(REASONING_INSTRUCTION):
            return f"The answer is {extract_answer(text) + 1}."
        return text


def test_generate_and_verify_give_a_row_the_same_reason(corpus_dir,
                                                        tmp_path):
    out, rejects = tmp_path / "ds.jsonl", tmp_path / "rejects.jsonl"
    report = generate_dataset(make_plan(corpus_dir,
                                        endpoint=OffByOneEndpoint()),
                              str(out), str(rejects))
    rows = [json.loads(l) for l in rejects.read_text().splitlines()]
    assert report.rows == 0 and len(rows) == report.attempted
    reasons = [row.pop("reason") for row in rows]
    assert all(r.startswith("answer mismatch: reasoning ") for r in reasons)
    marked = tmp_path / "marked.jsonl"
    marked.write_text("".join(json.dumps(dict(row, verified=True)) + "\n"
                              for row in rows))
    report = verify_dataset(str(marked))
    assert report.mismatches == list(enumerate(reasons, start=1))


def test_a_stated_numerator_past_float_range_does_not_abort_generate(
        tmp_path):
    # at level 3 and global seed 3, a sara mutant's answer has a numerator
    # past 1e308, which the endpoint states as a fraction
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("sara.smt2", "sara.txt"):
        shutil.copy(os.path.join(FIXTURES, name), corpus / name)
    out = tmp_path / "ds.jsonl"
    report = generate_dataset(make_plan(str(corpus), level_counts={3: 3},
                                        global_seed=3), str(out))
    assert report.rows == 3 and len(out.read_text().splitlines()) == 3


def test_a_row_that_raises_becomes_its_reject_and_the_run_goes_on(tmp_path):
    # the product folds to a 6,000-digit literal, past what str() prints
    big = ("(declare-fun x () Int)"
           f"(assert (= x (* {'7' * 3000} {'3' * 3000})))"
           "(check-sat)(get-value (x))")
    outs = {}
    for name, seeds in [("alone", {}), ("beside", {"big.smt2": big})]:
        corpus = tmp_path / name
        corpus.mkdir()
        shutil.copy(os.path.join(FIXTURES, "pages.smt2"), corpus)
        for seed, text in seeds.items():
            (corpus / seed).write_text(text)
        out = tmp_path / f"{name}.jsonl"
        generate_dataset(make_plan(str(corpus), level_counts={0: 2}),
                         str(out))
        outs[name] = out
    assert outs["beside"].read_bytes() == outs["alone"].read_bytes()
    rejects = [json.loads(l) for l in
               (tmp_path / "beside.jsonl.rejects").read_text().splitlines()]
    assert [r["seed_id"] for r in rejects] == ["big", "big"]
    assert all(r["reason"].startswith("ValueError: ") for r in rejects)


def test_report_rates(corpus_dir, tmp_path):
    report = generate_dataset(make_plan(corpus_dir),
                              str(tmp_path / "ds.jsonl"))
    assert report.validity_rate == 1.0
    assert report.verification_rate == 1.0
    assert set(report.per_level) <= {0, 1}
    assert all(v > 0 for v in report.mean_node_count.values())


def test_mean_node_count_is_pinned_for_the_fixture_corpus(corpus_dir,
                                                          tmp_path):
    plan = make_plan(corpus_dir, level_counts={0: 2, 1: 2, 2: 2, 3: 1})
    out = tmp_path / "ds.jsonl"
    report = generate_dataset(plan, str(out))
    assert report.attempted == 14
    assert report.mean_node_count == {0: 7.0, 1: 20.5, 2: 40.75, 3: 46.5}
    # pins generate's bytes (criterion 7) in tier-1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "5c3b7683a22cce5827348a0ec92c63cd94bae4b6ebc66f29a97bb870f9ef64f4"


def test_a_row_solves_only_a_mutant_that_no_step_proved(corpus_dir, tmp_path,
                                                        monkeypatch):
    # a complicated mutant's answer is the solve of the step that proved
    # it; only the 4 level-0 rows of the 14 are solved by the pipeline
    solved = []

    def recording(problem, *args, **kwargs):
        solved.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve", recording)
    plan = make_plan(corpus_dir, level_counts={0: 2, 1: 2, 2: 2, 3: 1})
    report = generate_dataset(plan, str(tmp_path / "ds.jsonl"))
    assert (report.attempted, len(solved)) == (14, 4)


def test_parse_level_counts():
    assert _parse_level_counts("0:2,1:3") == {0: 2, 1: 3}
    with pytest.raises(PipelineError):
        _parse_level_counts("0-2")


def test_plan_from_config(corpus_dir, tmp_path):
    cfg_path = tmp_path / "gen.cfg"
    cfg_path.write_text(f"corpus = {corpus_dir}\nlevels = 0:1\nseed = 3\n"
                        f"pattern_ratio = 0.25\n")
    cfg = parse_config(str(cfg_path))
    plan = plan_from_config(cfg, FixtureEndpoint())
    assert plan.corpus_path == corpus_dir
    assert plan.level_counts == {0: 1}
    assert plan.global_seed == 3
    assert plan.pattern_ratio == 0.25


@pytest.mark.parametrize("key", ["pattern_ration", "level"])
def test_an_unknown_config_key_is_an_error(corpus_dir, tmp_path, monkeypatch,
                                           capsys, key):
    cfg_path = tmp_path / "gen.cfg"
    cfg_path.write_text(f"corpus = {corpus_dir}\n{key} = 2\n")
    with pytest.raises(PipelineError, match=f"unknown config key.*{key}"):
        plan_from_config(parse_config(str(cfg_path)), FixtureEndpoint())
    # the replay file is read only once a prompt is sent
    monkeypatch.setenv("MATHMORPH_LLM_REPLAY", str(tmp_path / "none.json"))
    assert cli.main(["generate", "--config", str(cfg_path)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: unknown config key") and key in err


def test_the_readme_config_example_is_accepted(tmp_path):
    root = os.path.dirname(os.path.dirname(FIXTURES))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"A generation config is .*?```\n(.*?)```", readme,
                      re.DOTALL).group(1)
    cfg_path = tmp_path / "gen.cfg"
    cfg_path.write_text(block)
    cfg = parse_config(str(cfg_path))
    plan = plan_from_config(cfg, FixtureEndpoint())
    assert plan.corpus_path == "./seeds"
    assert plan.level_counts == {0: 2, 1: 2, 2: 1}
    assert (cfg["out"], cfg["rejects"]) == ("dataset.jsonl", "rejects.jsonl")


def test_plan_validates_inputs(corpus_dir):
    with pytest.raises(PipelineError):
        GenerationPlan(corpus_path=corpus_dir, level_counts={},
                       endpoint=FixtureEndpoint())
    with pytest.raises(PipelineError):
        GenerationPlan(corpus_path=corpus_dir, level_counts={0: 1},
                       pattern_ratio=2.0, endpoint=FixtureEndpoint())
