import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import FIXTURES
from llull import verify
from llull.ballots import Ballot, CandidateSet, InterpretationRules, Unlisted, read_ballot_file
from llull.closures import Variant
from llull.generate import ProfileGenerator, candidate_names, random_matrix
from llull.matrix import LlullMatrix, aggregate, read_matrix
from llull.pipeline import tally
from llull.qp import QpProblem, QpSolution
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
        # The strengthened a-over-d score, as a numerator over the matrix's den.
        assert Fraction(star[0][3], matrix.den) * matrix.total == 4
        check_paths(matrix)

    def test_condorcet_smith_flags_a_constructed_violation(self):
        # hand-made "rates" cannot be forged, so check the detector on a real
        # majority situation instead: it must find at least one partition
        cands, ballots = read_ballot_file(
            "candidates: a b c\na>b>c\na>c>b\nb>a>c\na>b>c\nc>a>b\n"
        )
        matrix = aggregate(ballots, RULES, cands)
        assert check_condorcet_smith(matrix)[0] >= 1

    def test_clone_consistency_rejects_non_autonomous_input(self):
        rng = random.Random(5)
        matrix = random_matrix(rng, 4)
        with pytest.raises(ValueError):
            check_clone_consistency(matrix, frozenset({0, 1}))

    def test_monotonicity_rejects_malformed_perturbation(self):
        rng = random.Random(6)
        matrix = random_matrix(rng, 3)
        w = matrix.w.copy()
        w[0, 1], w[1, 0] = w[1, 0], w[0, 1]
        if w[0, 1] == w[1, 0]:
            w[0, 1] += 1
        other = LlullMatrix.from_absolute(matrix.candidates, w, matrix.den, total=1)
        with pytest.raises(ValueError):
            check_monotonicity(matrix, 2, other)

    def test_decomposition_on_handmade_profile(self):
        cands, table = read_ballot_file(
            "candidates: a b c d\na=b>c>d\nb>a>d\na>b>c\n"
        )
        check_decomposition(cands, table.ballots(), frozenset({0, 1}))

    @pytest.mark.parametrize(
        "text, top",
        [
            ("candidates: a b c\na>b/>c\nb>a>c\n", {0, 1}),
            ("candidates: a b c\na>b/>c\na>b>c\n", {0, 1}),
            ("candidates: a b c d\na>b/>c>d\nb>a>d>c\n", {0, 1}),
            ("candidates: a b c\n/a>b>c\na/>b>c\n", {0, 1}),
        ],
    )
    def test_decomposition_keeps_approval_cutoffs(self, text, top):
        # The first profile's rates are (1.75, 1.25, 3) and so are those
        # of the restricted file "a>b/", "b>a"; without its cutoff it ties.
        cands, table = read_ballot_file(text)
        check_decomposition(cands, table.ballots(), frozenset(top))

    def test_decomposition_cases_draw_cutoffs_among_the_top_groups(self, monkeypatch):
        # So the suite runs the cutoff branch of check_decomposition; a check
        # that dropped the cutoffs failed 57 of 200 cases at seed 0.
        cases = []
        monkeypatch.setattr(verify, "check_decomposition", lambda *case: cases.append(case))
        for case in range(50):
            verify._case_decomposition(random.Random(f"0:decomposition:{case}"))
        cutoffs = 0
        for _, ballots, top in cases:
            for ballot in ballots:
                if ballot.approval_cutoff is not None:
                    cutoffs += 1
                    above = ballot.groups[: ballot.approval_cutoff]
                    assert all(set(group) <= top for group in above)
        assert cutoffs > 50

    def test_unanimous_first_gets_rate_one(self):
        cands, table = read_ballot_file("candidates: a b c\na>b>c\na>c\na\n")
        result = tally(aggregate(table, RULES, cands))
        assert result.rates.rates[0] == pytest.approx(1.0, abs=1e-9)
        check_decomposition(cands, table.ballots(), frozenset({0}))

    def test_continuity_on_a_tied_profile(self):
        rng = random.Random(7)
        matrix = random_matrix(rng, 4)
        check_continuity(matrix, {(0, 1): matrix.den // 3})  # a step of 1/3

    def test_duplication_renaming_on_royal(self, royal_text):
        cands, table = read_ballot_file(royal_text)
        check_duplication_renaming(cands, table.ballots(), 3, (5, 4, 3, 2, 1, 0))


def _bipartitions(n: int):
    """Every split of the candidates 0..n-1 into two nonempty sides (xs, ys)."""
    for size in range(1, n):
        for xs in combinations(range(n), size):
            yield list(xs), [y for y in range(n) if y not in xs]


def relation(n: int, states) -> list[list[bool]]:
    """The asymmetric relation in which each pair x < y, in order, has
    state 1 (x beats y), -1 (y beats x) or 0 (neither)."""
    beats = [[False] * n for _ in range(n)]
    for (x, y), state in zip(combinations(range(n), 2), states):
        if state > 0:
            beats[x][y] = True
        elif state < 0:
            beats[y][x] = True
    return beats


class TestDominantSets:
    """``_dominant_sets`` yields what a scan of every bipartition finds."""

    @staticmethod
    def scanned(beats):
        n = len(beats)
        return [(xs, ys) for xs, ys in _bipartitions(n)
                if all(beats[x][y] for x in xs for y in ys)]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_asymmetric_relation_up_to_four(self, n):
        for states in product((1, -1, 0), repeat=n * (n - 1) // 2):
            beats = relation(n, states)
            assert list(verify._dominant_sets(beats)) == self.scanned(beats)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_random_relations_up_to_eight(self, n):
        rng = random.Random(n)
        for _ in range(200):
            # Mostly decided pairs, so that sets beating their complement occur.
            states = rng.choices((1, -1, 0), weights=(4, 4, 1), k=n * (n - 1) // 2)
            beats = relation(n, states)
            assert list(verify._dominant_sets(beats)) == self.scanned(beats)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_relations_of_random_matrices(self, n):
        # Strict majority and margin wins, as check_condorcet_smith reads them.
        rng = random.Random(100 + n)
        for _ in range(50):
            matrix = random_matrix(rng, n, rng.choice([2, 3, 12]))
            w, den = matrix.w, matrix.den
            for beats in ((2 * w > den).tolist(), (w > w.T).tolist()):
                assert list(verify._dominant_sets(beats)) == self.scanned(beats)


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
            w = matrix.w.copy()
            w[0, 1], w[1, 0] = w[1, 0], w[0, 1]
            return LlullMatrix.lowest_terms(candidates, w, matrix.den, matrix.total)

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


def reversed_rates(real):
    """``tally`` with every result's rates in reverse candidate order."""

    def tally(matrix, *args):
        result = real(matrix, *args)
        return replace(result, rates=replace(result.rates, rates=result.rates.rates[::-1]))

    return tally


def outcome_rows(reports):
    return [(o.suite, o.case, o.passed, o.detail, o.replay) for r in reports for o in r.outcomes]


class TestOutcomePin:
    def test_outcomes_details_and_replays_are_pinned(self, monkeypatch):
        # Seeds 0-2, each ballot fixture as the only case, and one run whose
        # tally reverses the rates, where seven suites fail with replays.
        reports = [report for seed in range(3) for report in run_all(10, seed)]
        for path in sorted(FIXTURES.glob("*.ballots")):
            cands, table = read_ballot_file(path.read_text())
            reports += run_all(0, 0, (cands, table.ballots()))
        monkeypatch.setattr(verify, "tally", reversed_rates(verify.tally))
        faulted = run_all(20, 0)
        assert sum(not r.passed for r in faulted) == 7
        rows = outcome_rows(reports + faulted)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "3d32566c073b62b037d1da76d145cf524c917bfd169424ce430e2037ac4e4443"
        )

    def test_one_tally_per_condorcet_smith_case(self, monkeypatch):
        # The check returns the margin-form notes from the tally it checks.
        calls = []
        real = verify.tally
        monkeypatch.setattr(verify, "tally", lambda *args: calls.append(1) or real(*args))
        assert run_suite("condorcet-smith", 12, seed=0).passed
        assert len(calls) == 12


def problem_from_json(text: str) -> QpProblem:
    fields = json.loads(text)
    return QpProblem(
        tuple(fields["center"]),
        tuple(map(tuple, fields["bounds"])),
        tuple(map(tuple, fields["difference_constraints"])),
        tuple(fields["weights"]),
    )


def read_back(replay: str):
    """The input a replay was written from: ballots, a program or a matrix."""
    if replay.startswith("candidates:"):
        cands, table = read_ballot_file(replay)
        return cands, table.ballots()
    if replay.startswith("{"):
        return problem_from_json(replay)
    return read_matrix(replay)


# The check each suite's cases call.  A failure's replay must read back to
# the check's input: the ballots with their candidates for BALLOT_CHECKS,
# else the matrix or the program.
CHECK_OF = {
    "single-choice": "check_single_choice",
    "condorcet-smith": "check_condorcet_smith",
    "clone-consistency": "check_clone_consistency",
    "monotonicity": "check_monotonicity",
    "decomposition": "check_decomposition",
    "approval-agreement": "check_approval_agreement",
    "duplication-renaming": "check_duplication_renaming",
    "paths": "check_paths",
    "qp-agreement": "check_qp_agreement",
}
BALLOT_CHECKS = {"single-choice", "decomposition", "approval-agreement", "duplication-renaming"}


def off_by_one(real):
    return lambda w: real(w) + 1


def shifted_dykstra(real):
    def solve(problem):
        solution = real(problem)
        return QpSolution(tuple(x + 1 for x in solution.point), (), solution.iterations)

    return solve


class TestReplaysReadBack:
    @pytest.mark.parametrize(
        "target, fault, suites",
        [
            ("tally", reversed_rates, sorted(CHECK_OF.keys() - {"paths", "qp-agreement"})),
            ("maxmin_closure_grid", off_by_one, ["paths"]),
            ("solve_dykstra", shifted_dykstra, ["qp-agreement"]),
        ],
    )
    def test_each_failure_replays_its_input(self, monkeypatch, target, fault, suites):
        monkeypatch.setattr(verify, target, fault(getattr(verify, target)))
        for suite in suites:
            inputs = []
            real = getattr(verify, CHECK_OF[suite])
            monkeypatch.setattr(
                verify, CHECK_OF[suite], lambda *args, real=real: inputs.append(args) or real(*args)
            )
            report = run_suite(suite, 20, seed=0)
            assert len(inputs) == len(report.outcomes)
            assert report.failures, suite
            for given, outcome in zip(inputs, report.outcomes):
                if not outcome.passed:
                    subject = (given[0], list(given[1])) if suite in BALLOT_CHECKS else given[0]
                    assert read_back(outcome.replay) == subject, (suite, outcome.case)
