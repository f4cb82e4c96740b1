import random
from fractions import Fraction

import pytest

from llull import verify
from llull.ballots import Ballot, CandidateSet, InterpretationRules, Unlisted, read_ballot_file
from llull.closures import Variant
from llull.generate import ProfileGenerator, candidate_names, random_matrix
from llull.matrix import LlullMatrix, aggregate
from llull.pipeline import tally
from llull.verify import (
    SUITES,
    VerificationFailure,
    approval_counts,
    check_approval_agreement,
    check_clone_consistency,
    check_condorcet_smith,
    check_continuity,
    check_decomposition,
    check_duplication_renaming,
    check_idempotence,
    check_monotonicity,
    check_order_independence,
    check_paths,
    check_single_choice,
    oracle_paths,
    run_all,
    run_suite,
)

RULES = InterpretationRules()


@pytest.fixture(scope="module")
def pcs(pcs_text):
    cands, table = read_ballot_file(pcs_text)
    return cands, table.ballots()


class TestCandidateNames:
    def test_up_to_26_single_letters(self):
        for n in (1, 6, 26):
            assert candidate_names(n).names == tuple("abcdefghijklmnopqrstuvwxyz"[:n])

    @pytest.mark.parametrize("n", [30, 60])
    def test_names_continue_past_z(self, n):
        names = candidate_names(n).names
        assert len(names) == len(set(names)) == n
        assert names[25:30] == ("z", "aa", "ab", "ac", "ad")
        if n == 60:
            assert names[50:53] == ("ay", "az", "ba")
        matrix = random_matrix(random.Random(n), n)
        assert matrix.n == len(matrix.candidates) == n


class TestChecks:
    def test_royal_order_independence_counts_orders(self, royal_text):
        cands, ballots = read_ballot_file(royal_text)
        matrix = aggregate(ballots, RULES, cands)
        assert check_order_independence(matrix) == 3

    def test_single_choice_on_handmade_profile(self):
        cands = candidate_names(4)
        ballots = [Ballot(((0,),), None, Fraction(3)), Ballot(((2,),), None, Fraction(1))]
        check_single_choice(cands, ballots)

    def test_paths_oracle_reproduces_royal_closure(self, royal_text):
        cands, ballots = read_ballot_file(royal_text)
        matrix = aggregate(ballots, RULES, cands)
        star, _ = oracle_paths(matrix)
        assert star[0][3] * matrix.total == 4  # the strengthened a-over-d score
        check_paths(matrix)

    def test_condorcet_smith_flags_a_constructed_violation(self):
        # hand-made "rates" cannot be forged, so check the detector on a real
        # majority situation instead: it must find at least one partition
        cands, ballots = read_ballot_file(
            "candidates: a b c\na>b>c\na>c>b\nb>a>c\na>b>c\nc>a>b\n"
        )
        matrix = aggregate(ballots, RULES, cands)
        assert check_condorcet_smith(matrix) >= 1

    def test_clone_consistency_rejects_non_autonomous_input(self):
        rng = random.Random(5)
        matrix = random_matrix(rng, 4)
        with pytest.raises(ValueError):
            check_clone_consistency(matrix, frozenset({0, 1}))

    def test_monotonicity_rejects_malformed_perturbation(self):
        rng = random.Random(6)
        matrix = random_matrix(rng, 3)
        scores = [list(r) for r in matrix.scores]
        scores[0][1], scores[1][0] = scores[1][0], scores[0][1]
        if scores[0][1] == scores[1][0]:
            scores[0][1] += Fraction(1, 12)
        other = LlullMatrix.from_scores(matrix.candidates, scores, matrix.total)
        with pytest.raises(ValueError):
            check_monotonicity(matrix, 2, other)

    def test_decomposition_on_handmade_profile(self):
        cands, table = read_ballot_file(
            "candidates: a b c d\na=b>c>d\nb>a>d\na>b>c\n"
        )
        check_decomposition(cands, table.ballots(), frozenset({0, 1}))

    def test_unanimous_first_gets_rate_one(self):
        cands, table = read_ballot_file("candidates: a b c\na>b>c\na>c\na\n")
        result = tally(aggregate(table, RULES, cands))
        assert result.rates.rates[0] == pytest.approx(1.0, abs=1e-9)
        check_decomposition(cands, table.ballots(), frozenset({0}))

    def test_continuity_on_a_tied_profile(self):
        rng = random.Random(7)
        matrix = random_matrix(rng, 4)
        check_continuity(matrix, {(0, 1): Fraction(1, 3)})

    def test_duplication_renaming_on_royal(self, royal_text):
        cands, table = read_ballot_file(royal_text)
        check_duplication_renaming(cands, table.ballots(), 3, (5, 4, 3, 2, 1, 0))


class TestApprovalAgreement:
    def test_pcs_fixture_passes(self, pcs):
        cands, ballots = pcs
        check_approval_agreement(cands, ballots)

    def test_pcs_approval_scores(self, pcs):
        cands, ballots = pcs
        assert approval_counts(cands, ballots) == (17, 16, 17, 14, 9)

    def test_pcs_margin_based_ranking_matches_scores(self, pcs):
        cands, ballots = pcs
        result = tally(
            aggregate(ballots, RULES, cands), Variant.MARGIN_BASED
        )
        names = [[cands.names[x] for x in g] for g in result.ranking.groups]
        assert names == [["A", "C"], ["B"], ["D"], ["E"]]

    def test_a_wrong_margin_under_tied_silent_pairs_fails(self, monkeypatch):
        # a is approved twice, b once and c never, so no margin is zero.
        cands, table = read_ballot_file("candidates: a b c\na=b/\na/\n")
        ballots = table.ballots()
        check_approval_agreement(cands, ballots)
        real = verify.aggregate

        def swap_a_and_b_when_tied(ballots, rules, candidates):
            matrix = real(ballots, rules, candidates)
            if rules.unlisted_pair is not Unlisted.TIED:
                return matrix
            v = [list(row) for row in matrix.scores]
            v[0][1], v[1][0] = v[1][0], v[0][1]
            return LlullMatrix.from_scores(candidates, v, matrix.total)

        monkeypatch.setattr(verify, "aggregate", swap_a_and_b_when_tied)
        with pytest.raises(VerificationFailure, match=r"\(0, 1\) with silent pairs tied"):
            check_approval_agreement(cands, ballots)

    def test_single_approval_ballot_ranks_approved_first(self):
        cands, table = read_ballot_file("candidates: a b c\na=b/\n")
        check_approval_agreement(cands, table.ballots())
        result = tally(aggregate(table, RULES, cands), Variant.MARGIN_BASED)
        groups = [[cands.names[x] for x in g] for g in result.ranking.groups]
        assert groups == [["a", "b"], ["c"]]


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", 1, 0)

    def test_deterministic_given_seed(self):
        a = run_suite("monotonicity", 6, seed=3)
        b = run_suite("monotonicity", 6, seed=3)
        assert a == b

    def test_every_registered_suite_runs_clean(self):
        for name in SUITES:
            report = run_suite(name, 4, seed=11)
            assert report.passed, report.failures

    def test_run_all_covers_every_suite(self):
        reports = run_all(2, seed=5)
        assert [r.suite for r in reports] == list(SUITES)
        assert all(r.passed for r in reports)

    def test_failures_carry_replay_dumps(self, monkeypatch):
        def broken(rng):
            raise VerificationFailure("synthetic", "candidates: a b\na>b\n")

        monkeypatch.setitem(SUITES, "paths", broken)
        report = run_suite("paths", 2, seed=0)
        assert not report.passed
        assert report.failures[0].replay.startswith("candidates:")

    def test_fixture_case_prepended(self, pcs_text, tmp_path):
        cands, table = read_ballot_file(pcs_text)
        report = run_suite("approval-agreement", 2, seed=0, fixture=(cands, table.ballots()))
        assert len(report.outcomes) == 3
        assert report.outcomes[0].case == "fixture"
        assert report.passed

    def test_ranked_fixture_skips_approval_agreement(self, royal_text):
        cands, table = read_ballot_file(royal_text)
        report = run_suite("approval-agreement", 1, seed=0, fixture=(cands, table.ballots()))
        assert [o.case for o in report.outcomes] == [0]
        assert report.passed

    def test_fixture_error_is_a_failed_case(self, monkeypatch, royal_text):
        def broken(matrix, variant=Variant.MAIN):
            raise ZeroDivisionError("synthetic")

        monkeypatch.setattr(verify, "check_idempotence", broken)
        cands, table = read_ballot_file(royal_text)
        report = run_suite("idempotence", 1, seed=0, fixture=(cands, table.ballots()))
        assert [o.case for o in report.failures] == ["fixture", 0]
        assert report.failures[0].detail == "ZeroDivisionError: synthetic"
