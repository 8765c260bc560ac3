"""Complication: scheme grafting, projected MCMC sampling, reverse
Gaussian re-encoding, and the level driver."""

import hashlib
import random
from fractions import Fraction

import pytest

from mathmorph import complicate
from mathmorph.ast import Domain
from mathmorph.complicate import (AuxScheme, AuxSite, ComplicationError,
                                  McmcConfig, apply_reverse_gauss,
                                  apply_scheme, complicate_constraint,
                                  complicate_expression, mutate_to_level,
                                  replay_constraint_record,
                                  replay_expression_record,
                                  sample_aux_solution)
from mathmorph.parser import parse
from mathmorph.printer import print_smtlib
from mathmorph.solver import solve
from conftest import load_problem, random_seed_problem


def test_apply_scheme_drops_identity_sites():
    p = load_problem("m1.smt2")
    scheme = AuxScheme((AuxSite(0, "lhs", "+", "id", "z_1"),
                        AuxSite(1, "lhs", "*", "id", "z_2")))
    out, kept = apply_scheme(p, scheme, {"z_1": Fraction(5),
                                         "z_2": Fraction(1)})
    # z_2 multiplies by one: an identity, so the site is dropped
    assert [s.aux for s in kept.sites] == ["z_1"]
    assert "z_2" not in print_smtlib(out)
    assert "(assert (= z_1 5))" in print_smtlib(out)


def test_apply_scheme_division_site_guards_nonzero():
    p = parse("(declare-fun x () Int)(assert (= x 12))"
              "(check-sat)(get-value (x))")
    scheme = AuxScheme((AuxSite(0, "rhs", "/", "id", "z_1"),))
    out, _ = apply_scheme(p, scheme, {"z_1": Fraction(3)})
    text = print_smtlib(out)
    assert "(/ 12 z_1)" in text
    assert "(assert (distinct z_1 0))" in text


def test_sample_aux_solution_satisfies_pins():
    p = parse("(declare-fun z_1 () Int)(assert (>= z_1 0))"
              "(declare-fun z_2 () Int)(assert (>= z_2 0))"
              "(assert (= (+ z_1 z_2) 10))(check-sat)")
    sol = sample_aux_solution(p, ["z_1", "z_2"], random.Random(11))
    assert sol["z_1"] + sol["z_2"] == 10
    assert sol["z_1"] >= 0 and sol["z_2"] >= 0


def test_complicate_expression_output_is_sat_and_replayable():
    p = load_problem("m1.smt2")
    rng = random.Random(42)
    out, record, _ = complicate_expression(p, rng)
    assert solve(out).status == "sat"
    replayed = replay_expression_record(p, record)
    assert print_smtlib(replayed) == print_smtlib(out)


def test_complicate_expression_does_not_solve_the_problem_it_is_handed(
        monkeypatch):
    p = load_problem("m1.smt2")
    solved = []

    def recording(problem, *args, **kwargs):
        solved.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(complicate, "solve", recording)
    out, _, _ = complicate_expression(p, random.Random(42))
    assert p not in solved
    assert solved[-1] == out        # the one proof of the mutant


def test_complicate_constraint_output_is_sat_and_replayable():
    p = load_problem("m3_golden.smt2")
    rng = random.Random(9)
    out, record, _ = complicate_constraint(p, rng)
    assert solve(out).status == "sat"
    replayed = replay_constraint_record(p, record)
    assert print_smtlib(replayed) == print_smtlib(out)


def test_complicate_constraint_requires_constant_equalities():
    p = parse("(declare-fun x () Real)(assert (> x 0))(check-sat)")
    with pytest.raises(ComplicationError):
        complicate_constraint(p, random.Random(0))


def test_reverse_gauss_rejects_singular_matrix():
    p = load_problem("m3_golden.smt2")
    with pytest.raises(ComplicationError):
        apply_reverse_gauss(p, [(3, "z_1", Fraction(114)),
                                (4, "z_2", Fraction(36))],
                            ["d", "e"], [[1, 1], [1, 1]], [])


@pytest.mark.parametrize("matrix", [
    [[0, 0], [0, 0]],
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],        # second row twice the first
    [[0, 1, 1], [1, 0, 1], [1, 1, 2]],        # third row the sum of two
])
def test_reverse_gauss_rejects_rank_deficient_matrices(matrix):
    p = load_problem("m3_golden.smt2")
    extra = [Fraction(7)] * (len(matrix) - 2)
    with pytest.raises(ComplicationError, match="singular"):
        apply_reverse_gauss(p, [(3, "z_1", Fraction(114)),
                                (4, "z_2", Fraction(36))],
                            ["d", "e", "f"][:len(matrix)], matrix, extra)


def test_reverse_gauss_accepts_a_matrix_that_needs_a_row_swap():
    p = load_problem("m3_golden.smt2")
    out = apply_reverse_gauss(p, [(3, "z_1", Fraction(114)),
                                  (4, "z_2", Fraction(36))],
                              ["d", "e"], [[0, 1], [1, 0]], [])
    assert solve(out).status == "sat"


def test_reverse_gauss_renames_and_appends_rows():
    p = load_problem("m3_golden.smt2")
    out = apply_reverse_gauss(p, [(3, "z_1", Fraction(114)),
                                  (4, "z_2", Fraction(36))],
                              ["d", "e"], [[1, 1], [1, -1]], [])
    text = print_smtlib(out)
    assert "z_1" not in text and "z_2" not in text
    assert "(assert (= (+ d e) 150))" in text
    assert "(assert (= (- d e) 78))" in text


def test_mutate_to_level_zero_only_simplifies():
    p = load_problem("sara.smt2")
    out, records = mutate_to_level(p, 0, random.Random(1))
    assert all(r.tactic in ("simplify", "gaussian_elim", "elim_term_ite",
                            "qe") for r in records)
    assert solve(out).status == "sat"


def test_mutate_to_level_adds_complication_steps():
    p = load_problem("m1.smt2")
    out, records = mutate_to_level(p, 2, random.Random(3))
    names = [r.tactic for r in records]
    assert names.count("complicate_expression") + \
        names.count("complicate_constraint") + \
        sum(1 for r in records if r.parameters.get("skipped")) == 4
    assert solve(out).status == "sat"


def test_mutate_to_level_is_deterministic():
    p = load_problem("m1.smt2")
    a, _ = mutate_to_level(p, 1, random.Random(8))
    b, _ = mutate_to_level(p, 1, random.Random(8))
    assert print_smtlib(a) == print_smtlib(b)


def test_mutate_to_level_outputs_match_their_golden_digest():
    # the criterion-5 mutations of six chain seeds at levels 0-3; a change
    # to the tactics, the sampler or the solver's models moves this digest
    digest = hashlib.sha256()
    for s in range(6):
        for level in range(4):
            out, _ = mutate_to_level(
                random_seed_problem(random.Random(1000 + s)), level,
                random.Random(2000 + 10 * s + level))
            digest.update(print_smtlib(out).encode())
    assert digest.hexdigest() == ("644bc160291c460b4b3e084660c13f3a"
                                  "350bb6e5c9b306b4d7cd5971dfefd0e7")


def test_a_mutants_proof_is_what_a_fresh_solve_answers():
    # the certifying solve of the last step that landed is the mutant's
    # answer: status, model, goal values and provenance all agree
    for s in range(6):
        for level in (1, 2, 3):
            out, _, proof = complicate._mutate(
                random_seed_problem(random.Random(1000 + s)), level,
                random.Random(2000 + 10 * s + level), McmcConfig())
            assert proof == solve(out)


def test_a_mutant_no_step_changed_has_no_proof(monkeypatch):
    p = load_problem("m1.smt2")
    assert complicate._mutate(p, 0, random.Random(1), McmcConfig())[2] \
        is None

    def failing(*args):
        raise ComplicationError("no step lands")

    monkeypatch.setattr(complicate, "complicate_expression", failing)
    monkeypatch.setattr(complicate, "complicate_constraint", failing)
    _, records, proof = complicate._mutate(p, 2, random.Random(1),
                                           McmcConfig())
    assert proof is None
    assert sum(1 for r in records if r.parameters.get("skipped")) == 4


def test_mutate_to_level_rejects_unsat_seed():
    p = parse("(declare-fun x () Int)(assert (= x 1))"
              "(assert (= x 2))(check-sat)")
    with pytest.raises(ComplicationError):
        mutate_to_level(p, 1, random.Random(0))


def test_mcmc_config_validates_bounds():
    with pytest.raises(ValueError):
        McmcConfig(max_iters=0)


def test_domains_assigned_from_sampled_values():
    p = parse("(declare-fun x () Int)(assert (= x 12))"
              "(check-sat)(get-value (x))")
    scheme = AuxScheme((AuxSite(0, "rhs", "+", "id", "z_1"),))
    out, _ = apply_scheme(p, scheme, {"z_1": Fraction(-3)})
    assert dict(out.declarations)["z_1"] == Domain.INT
    out2, _ = apply_scheme(p, scheme, {"z_1": Fraction(3)})
    assert dict(out2.declarations)["z_1"] == Domain.POS


def test_random_seed_problems_survive_level_one():
    rng = random.Random(77)
    for _ in range(5):
        p = random_seed_problem(rng)
        out, records = mutate_to_level(p, 1, rng)
        assert solve(out).status == "sat"
