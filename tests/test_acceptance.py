"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single ``ACCEPTANCE <name>: PASS`` line when it holds
(run with ``pytest -s tests/test_acceptance.py`` to watch them go by).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import fractions, run_cli
from llull.ballots import Ballot, InterpretationRules, read_ballot_file
from llull.closures import Variant
from llull.generate import ProfileGenerator, candidate_names, random_matrix
from llull.matrix import aggregate, read_matrix, turnouts
from llull.pipeline import tally
from llull.projection import intermediate_margins, project_details, project_turnouts
from llull.rates import RateFormula, rank_like_rates
from llull.verify import (
    check_idempotence,
    check_order_independence,
    check_single_choice,
    run_suite,
)

RULES = InterpretationRules()


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


class TestGoldenFixtures:
    def test_royal_household_1652(self, royal_text):
        started = time.perf_counter()
        cands, ballots = read_ballot_file(royal_text)
        matrix = aggregate(ballots, RULES, cands)
        details = project_details(matrix)
        result = tally(matrix)
        V = matrix.total
        a, b, c, d, e, f = range(6)
        vstar = fractions(details.scores.vstar, details.den)
        msigma = fractions(details.im.msigma, details.den)

        expected_star = [
            [0, 2, 5, 4, 3, 5],
            [4, 0, 6, 6, 4, 5],
            [1, 1, 0, 1, 1, 1],
            [2, 2, 3, 0, 2, 2],
            [3, 2, 3, 3, 0, 3],
            [3, 2, 5, 4, 3, 0],
        ]
        for x in range(6):
            for y in range(6):
                if x != y:
                    assert vstar[x][y] * V == expected_star[x][y]

        assert tuple(Fraction(r, 2) for r in details.xi.copeland) == (
            Fraction(5, 2), Fraction(1), Fraction(6), Fraction(5), Fraction(3),
            Fraction(7, 2),
        )
        assert tuple(cands.names[x] for x in details.xi.sequence) == (
            "b", "a", "e", "f", "d", "c",
        )

        expected_msigma = [  # upper triangle in the admissible order, absolute
            [None, 2, 2, 3, 4, 5],
            [None, None, 0, 2, 2, 4],
            [None, None, None, 0, 1, 2],
            [None, None, None, None, 1, 2],
            [None, None, None, None, None, 2],
        ]
        for i in range(5):
            for j in range(i + 1, 6):
                assert msigma[i][j] * V == expected_msigma[i][j]

        expected_tsigma = [  # upper triangle, absolute
            [None, 6, 6, 6, 6, 6],
            [None, None, 6, 6, Fraction(16, 3), Fraction(14, 3)],
            [None, None, None, 6, Fraction(16, 3), Fraction(14, 3)],
            [None, None, None, None, Fraction(16, 3), Fraction(14, 3)],
            [None, None, None, None, None, 4],
        ]
        for i in range(5):
            for j in range(i + 1, 6):
                assert details.pt.tsigma[i][j] * float(V) == pytest.approx(
                    float(expected_tsigma[i][j]), abs=1e-9
                )

        expected_pi = {  # full matrix, absolute
            b: {a: 4, e: 4, f: 4, d: 4, c: 4},
            a: {b: 2, e: 3, f: 3, d: Fraction(19, 6), c: Fraction(19, 6)},
            e: {b: 2, a: 3, f: 3, d: Fraction(19, 6), c: Fraction(19, 6)},
            f: {b: 2, a: 3, e: 3, d: Fraction(19, 6), c: Fraction(19, 6)},
            d: {b: 2, a: Fraction(13, 6), e: Fraction(13, 6), f: Fraction(13, 6), c: 3},
            c: {b: 1, a: 1, e: 1, f: 1, d: 1},
        }
        for x, row in expected_pi.items():
            for y, value in row.items():
                assert details.pm.pi[x][y] * float(V) == pytest.approx(
                    float(value), abs=1e-9
                )

        expected_rates = (3.6111, 2.6667, 5.1667, 4.0833, 3.6111, 3.6111)
        for got, want in zip(result.rates.rates, expected_rates):
            assert got == pytest.approx(want, abs=1e-4)

        assert time.perf_counter() - started < 1.0
        report("golden royal-1652")

    def test_debian_2006(self, debian_text):
        started = time.perf_counter()
        matrix = read_matrix(debian_text)
        assert matrix.total == 421
        result = tally(matrix)
        expected = (4.1105, 5.9145, 3.6926, 3.6784, 4.1105, 6.7197, 4.5720, 5.8100)
        for got, want in zip(result.rates.rates, expected):
            assert got == pytest.approx(want, abs=1e-4)
        pm = result.details.pm
        assert pm.pi[0][4] == pm.pi[4][0]  # candidates 1 and 5 tie exactly
        groups = [[matrix.candidates.names[x] for x in g] for g in result.ranking.groups]
        assert ["1", "5"] in groups
        assert time.perf_counter() - started < 1.0
        report("golden debian-2006")

    def test_public_choice_2006(self, pcs_text):
        cands, ballots = read_ballot_file(pcs_text)
        assert len(ballots) == 37
        matrix = aggregate(ballots, RULES, cands)
        table = {
            Variant.MAIN: (3.6014, 3.6486, 3.6149, 3.7720, 4.1689),
            Variant.CODUAL: (3.6081, 3.6486, 3.6081, 3.7568, 4.2162),
            Variant.BALANCED: (3.6081, 3.6486, 3.6081, 3.7703, 4.1622),
            Variant.MARGIN_BASED: (2.8919, 2.9324, 2.8919, 3.0135, 3.2703),
        }
        for variant, expected in table.items():
            result = tally(matrix, variant)
            for got, want in zip(result.rates.rates, expected):
                assert got == pytest.approx(want, abs=1e-4), variant
        ranking = tally(matrix, Variant.MARGIN_BASED).ranking
        names = [[cands.names[x] for x in g] for g in ranking.groups]
        assert names == [["A", "C"], ["B"], ["D"], ["E"]]  # the approval ordering
        report("golden public-choice-2006")


class TestLaws:
    def test_single_choice_law_100_profiles(self):
        for case in range(100):
            rng = random.Random(f"acc-single:{case}")
            n = rng.randint(2, 8)
            cands = candidate_names(n)
            ballots = [
                Ballot(((rng.randrange(n),),), None, Fraction(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 15))
            ]
            check_single_choice(cands, ballots)  # asserts 1e-9 agreement
        report("single-choice law (100 profiles)")

    def test_order_independence_200_profiles(self):
        gen = ProfileGenerator(n_candidates=(3, 5), n_ballots=(2, 10), seed="acc-oi")
        total_orders = 0
        for case in range(200):
            cands, ballots = gen.profile(case)
            matrix = aggregate(ballots, RULES, cands)
            total_orders += check_order_independence(matrix)  # 1e-9 inside
        assert total_orders >= 200
        report(f"order independence (200 profiles, {total_orders} orders)")

    def test_idempotence_and_structure_500_profiles(self):
        variants = [Variant.MAIN, Variant.MAIN, Variant.MAIN,
                    Variant.CODUAL, Variant.BALANCED, Variant.MARGIN_BASED]
        for case in range(500):
            rng = random.Random(f"acc-idem:{case}")
            matrix = random_matrix(rng, rng.randint(3, 6))
            check_idempotence(matrix, variants[case % len(variants)])  # 1e-9 inside
        report("projection idempotence and structure (500 profiles)")

    def test_qp_cross_validation_300_instances(self):
        failures = run_suite("qp-agreement", cases=300, seed=2026).failures
        assert not failures, failures[:3]

        for case in range(50):
            rng = random.Random(f"acc-complete:{case}")
            n = rng.randint(3, 6)
            cands = candidate_names(n)
            ballots = []
            for _ in range(rng.randint(1, 8)):
                order = list(range(n))
                rng.shuffle(order)
                ballots.append(Ballot(tuple((c,) for c in order)))
            matrix = aggregate(ballots, RULES, cands)
            details = project_details(matrix)
            assert all(
                details.pt.tsigma[i][j] == 1.0
                for i in range(n)
                for j in range(n)
                if i != j
            )
        report("qp cross-validation (300 instances + 50 complete cases)")


class TestAxiomSuites:
    @pytest.mark.parametrize(
        "suite",
        [
            "condorcet-smith",
            "clone-consistency",
            "monotonicity",
            "decomposition",
            "approval-agreement",
            "duplication-renaming",
        ],
    )
    def test_hundred_cases_each(self, suite):
        suite_report = run_suite(suite, cases=100, seed=20260810)
        assert suite_report.passed, suite_report.failures[:3]
        report(f"axiom suite {suite} (100 cases)")

    def test_full_verify_under_a_minute(self):
        started = time.perf_counter()
        r = run_cli("verify", "--suite", "all", "--cases", "100", "--seed", "1")
        elapsed = time.perf_counter() - started
        assert r.returncode == 0, r.stdout + r.stderr
        assert elapsed < 60.0
        report(f"verify --suite all ({elapsed:.1f} s)")
