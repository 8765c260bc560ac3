"""Prompt assembly, endpoints, answer extraction, and consistency."""

import json
import random
from fractions import Fraction

import pytest

from mathmorph.ast import ValidationError
from mathmorph.informalize import (BASE_INSTRUCTION, DEFAULT_FEW_SHOT_POOL,
                                   MATH_WORD_SENTENCE, P1, P2, PATTERNS,
                                   PromptContext, PromptPattern,
                                   RecordingEndpoint, ReplayEndpoint,
                                   EndpointError, build_prompt,
                                   consistency_check, consistency_rate,
                                   extract_answer, generate_reasoning,
                                   informalize, prompt_digest,
                                   refresh_variables)
from mathmorph.parser import parse
from mathmorph.solver import solve
from conftest import FixtureEndpoint, load_problem, read_fixture


def test_preset_flag_tuples():
    assert P1.flags() == (1, 2, 3, 4, 5)
    assert P2.flags() == (1, 2, 3, 6)
    assert PATTERNS == {"p1": P1, "p2": P2}


def test_math_word_and_refresh_are_exclusive():
    with pytest.raises(ValidationError):
        PromptPattern(math_word=True, refresh=True)


def test_basic_prompt_matches_fixture():
    prompt = build_prompt(load_problem("sara.smt2"), PromptPattern())
    assert prompt == read_fixture("prompt_basic.txt")


def test_math_word_prompt_matches_fixture():
    prompt = build_prompt(load_problem("pages.smt2"),
                          PromptPattern(comments=True, math_word=True))
    assert prompt == read_fixture("prompt_math_word.txt")
    assert prompt.endswith(MATH_WORD_SENTENCE)


def test_refresh_prompt_matches_fixture():
    prompt = build_prompt(load_problem("pages_mutated.smt2"),
                          PromptPattern(comments=True, refresh=True))
    assert prompt == read_fixture("prompt_refresh.txt")
    assert "pages_per_minute" not in prompt


def test_few_shot_blocks_precede_target_script():
    ctx = PromptContext(few_shot_pool=DEFAULT_FEW_SHOT_POOL,
                        rng=random.Random(0), few_shot_count=2)
    prompt = build_prompt(load_problem("sara.smt2"),
                          PromptPattern(few_shot=True), ctx)
    assert prompt.count(BASE_INSTRUCTION) == 3
    # the target script follows the final blank line
    tail = prompt[prompt.rfind("\n\n") + 2:]
    assert tail.startswith("(declare-fun sara_shoes_cost")


def test_few_shot_selection_is_seeded():
    def make():
        ctx = PromptContext(few_shot_pool=DEFAULT_FEW_SHOT_POOL,
                            rng=random.Random(4), few_shot_count=2)
        return build_prompt(load_problem("sara.smt2"),
                            PromptPattern(few_shot=True), ctx)
    assert make() == make()


def test_modify_prompt_embeds_original_text():
    ctx = PromptContext(original_text=read_fixture("sara.txt").strip())
    prompt = build_prompt(load_problem("sara.smt2"),
                          PromptPattern(modify=True), ctx)
    assert 'The original natural language problem was: "' in prompt
    assert prompt.rstrip().endswith(
        "Modify the original problem so that it matches the SMT-LIB "
        "problem above.")


def test_refresh_variables_renames_in_declaration_order():
    p = load_problem("pages.smt2")
    out, mapping = refresh_variables(p)
    assert mapping == {"pages_per_minute": "x_0", "total_pages": "x_1",
                       "time_hours": "x_2"}
    assert [n for n, _ in out.declarations] == ["x_0", "x_1", "x_2"]


def test_extract_answer_takes_last_marker():
    text = ("The answer is 3. Wait, recompute. The answer is 7.")
    assert extract_answer(text) == Fraction(7)


def test_extract_answer_handles_currency_and_commas():
    assert extract_answer("The answer is $1,234.50.") == Fraction("1234.5")


def test_extract_answer_handles_fractions():
    assert extract_answer("The answer is 3/4.") == Fraction(3, 4)


def test_extract_answer_none_without_marker():
    assert extract_answer("It is probably 12.") is None


def test_consistency_exact_for_integers():
    r = solve(load_problem("sara.smt2"))
    good = consistency_check("The answer is 500.", r)
    off = consistency_check("The answer is 500.01.", r)
    assert good.consistent and not off.consistent


def test_consistency_tolerant_for_non_integers():
    p = parse("(declare-fun x () Real)(assert (= x (/ 1 3)))"
              "(check-sat)(get-value (x))")
    r = solve(p)
    assert consistency_check("The answer is 0.3333.", r).consistent
    assert not consistency_check("The answer is 0.3.", r).consistent


def test_consistency_rate_counts_fraction():
    r = solve(load_problem("sara.smt2"))
    verdicts = [consistency_check(t, r) for t in
                ("The answer is 500.", "The answer is 499.")]
    assert consistency_rate(verdicts) == 0.5


def test_replay_endpoint_round_trip(tmp_path):
    rec = RecordingEndpoint(FixtureEndpoint())
    p = load_problem("sara.smt2")
    live = informalize(p, PromptPattern(), rec)
    path = tmp_path / "replay.json"
    rec.dump(str(path))
    replayed = informalize(p, PromptPattern(), ReplayEndpoint(str(path)))
    assert replayed == live


def test_replay_endpoint_rejects_unknown_prompt(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(EndpointError):
        informalize(load_problem("sara.smt2"), PromptPattern(),
                    ReplayEndpoint(str(path)))


def test_consistency_replay_fixture_loads():
    table = json.loads(read_fixture("consistency_replay.json"))
    assert len(table) == 4
    assert all(len(k) == 64 for k in table)


def test_generate_reasoning_uses_endpoint():
    out = generate_reasoning("What is 2 + 2? The computed value is 4.",
                             FixtureEndpoint())
    assert "The answer is 4." in out


def test_prompt_digest_is_stable():
    assert prompt_digest("abc") == prompt_digest("abc")
    assert prompt_digest("abc") != prompt_digest("abd")
