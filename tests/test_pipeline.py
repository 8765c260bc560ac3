"""Dataset generation: determinism, verification, and training export."""

import hashlib
import json
import random
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
from mathmorph.parser import parse
from mathmorph.solver import SolverConfig, solve
from conftest import FixtureEndpoint

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


@pytest.mark.parametrize("line, reason", [
    (json.dumps(CLEAN), None),
    ("{not json", "invalid JSON: "),
    (json.dumps({k: v for k, v in CLEAN.items() if k != "answer"}),
     "schema violation: missing ['answer'], unexpected []"),
    (json.dumps({**CLEAN, "extra": 1}),
     "schema violation: missing [], unexpected ['extra']"),
    (json.dumps({**CLEAN, "verified": False}), "unverified row in dataset"),
    (json.dumps({**CLEAN, "formal": "(assert (= x 3))(check-sat)"}),
     "formal does not parse: "),
    (json.dumps({**CLEAN, "formal": "(declare-fun x () Int)(assert (= x 3))"
                                    "(assert (= x 4))(check-sat)"}),
     "solver status unsat"),
], ids=["clean", "json", "missing", "extra", "unverified", "parse",
        "unsat"])
def test_verify_reports_each_rejection_with_its_line(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    path.write_text("\n" + line + "\n")
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
    report = generate_dataset(plan, str(tmp_path / "ds.jsonl"))
    assert report.attempted == 14
    assert report.mean_node_count == {0: 7.0, 1: 20.5, 2: 40.75, 3: 46.5}


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


def test_plan_validates_inputs(corpus_dir):
    with pytest.raises(PipelineError):
        GenerationPlan(corpus_path=corpus_dir, level_counts={},
                       endpoint=FixtureEndpoint())
    with pytest.raises(PipelineError):
        GenerationPlan(corpus_path=corpus_dir, level_counts={0: 1},
                       pattern_ratio=2.0, endpoint=FixtureEndpoint())
