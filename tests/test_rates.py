import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from llull.ballots import InterpretationRules, read_ballot_file
from llull.closures import Variant, indirect_scores, variant_margins
from llull.generate import candidate_names, random_matrix
from llull.matrix import LlullMatrix, aggregate, read_matrix
from llull.pipeline import tally
from llull.projection import project_details
from llull.rates import RateFormula, rank_like_rates

RULES = InterpretationRules()


def position(ranking, x):
    """The index of the ranking group that holds candidate ``x``."""
    return next(i for i, group in enumerate(ranking.groups) if x in group)


@pytest.fixture(scope="module")
def royal(royal_text):
    cands, ballots = read_ballot_file(royal_text)
    return cands, tally(aggregate(ballots, RULES, cands))


@pytest.fixture(scope="module")
def debian(debian_text):
    matrix = read_matrix(debian_text)
    return matrix, tally(matrix)


class TestRates:
    def test_royal_rates(self, royal):
        _, result = royal
        expected = (3.6111, 2.6667, 5.1667, 4.0833, 3.6111, 3.6111)
        for got, want in zip(result.rates.rates, expected):
            assert got == pytest.approx(want, abs=1e-4)

    def test_debian_rates(self, debian):
        _, result = debian
        expected = (4.1105, 5.9145, 3.6926, 3.6784, 4.1105, 6.7197, 4.5720, 5.8100)
        for got, want in zip(result.rates.rates, expected):
            assert got == pytest.approx(want, abs=1e-4)

    def test_single_choice_law(self):
        cands, ballots = read_ballot_file("candidates: a b c d e\n5: a\n3: b\n2: e\n")
        result = tally(aggregate(ballots, RULES, cands))
        shares = {"a": Fraction(1, 2), "b": Fraction(3, 10), "c": 0, "d": 0,
                  "e": Fraction(1, 5)}
        for x, name in enumerate(cands.names):
            expected = 1 + 4 * (1 - shares[name])
            assert result.rates.rates[x] == pytest.approx(float(expected), abs=1e-9)

    def test_rates_live_in_rank_range(self, royal, debian):
        for _, result in (royal, debian):
            n = len(result.candidates)
            for r in result.rates.rates:
                assert 1 - 1e-9 <= r <= n + 1e-9
            mean = sum(result.rates.rates) / n
            assert mean >= (n + 1) / 2 - 1e-9

    def test_complete_case_rates_sum_to_triangle_number(self):
        cands, ballots = read_ballot_file(
            "candidates: a b c d\na>b>c>d\nb>d>a>c\nc=d>a=b\nd>c>b>a\n"
        )
        result = tally(aggregate(ballots, RULES, cands))
        assert sum(result.rates.rates) == pytest.approx(10.0, abs=1e-9)

    def test_alternative_formula(self, royal):
        _, result = royal
        alt = rank_like_rates(result.details.pm, RateFormula.ALTERNATIVE)
        assert alt.formula is RateFormula.ALTERNATIVE
        n = len(result.candidates)
        # complete pairs everywhere except where turnout dropped: alt <= main
        for a, b in zip(alt.rates, result.rates.rates):
            assert 1 - 1e-9 <= a <= n + 1e-9
            assert a <= b + 1e-9

    def test_alternative_equals_main_in_complete_case(self):
        cands, ballots = read_ballot_file("candidates: a b c\na>b>c\nb>c>a\nc>b>a\n")
        result = tally(aggregate(ballots, RULES, cands))
        alt = rank_like_rates(result.details.pm, RateFormula.ALTERNATIVE)
        for a, b in zip(alt.rates, result.rates.rates):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_sums_bounded_below(self, seed):
        rng = random.Random(600 + seed)
        matrix = random_matrix(rng, 5)
        rates = tally(matrix).rates.rates
        for size in range(1, 6):
            for subset in combinations(range(5), size):
                total = sum(rates[x] for x in subset)
                assert total >= size * (size + 1) / 2 - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_strict_rate_order_implies_positive_indirect_margin(self, seed):
        rng = random.Random(700 + seed)
        matrix = random_matrix(rng, 5)
        details = project_details(matrix)
        rates = rank_like_rates(details.pm).rates
        for x in range(5):
            for y in range(5):
                if x != y and rates[x] < rates[y] - 1e-9:
                    assert details.vm.m[x][y] > 0


class TestSocialRanking:
    def test_royal_grouping(self, royal):
        cands, result = royal
        names = [[cands.names[x] for x in g] for g in result.ranking.groups]
        assert names == [["b"], ["a", "e", "f"], ["d"], ["c"]]

    def test_debian_exact_tie_between_one_and_five(self, debian):
        matrix, result = debian
        names = [[matrix.candidates.names[x] for x in g] for g in result.ranking.groups]
        assert names == [["4"], ["3"], ["1", "5"], ["7"], ["8"], ["2"], ["6"]]
        assert result.details.pm.pi[0][4] == result.details.pm.pi[4][0]

    def test_all_tied_profile_is_one_group(self):
        cands, ballots = read_ballot_file("candidates: a b c\na=b=c\n")
        result = tally(aggregate(ballots, RULES, cands))
        assert result.ranking.groups == ((0, 1, 2),)

    def test_ties_follow_projected_scores_not_rates(self, royal):
        _, result = royal
        pm = result.details.pm
        for group in result.ranking.groups:
            for x in group:
                for y in group:
                    if x != y:
                        assert abs(pm.pi[x][y] - pm.pi[y][x]) <= 1e-9
        flat = [x for g in result.ranking.groups for x in g]
        for i, x in enumerate(flat):
            for y in flat[i + 1 :]:
                if position(result.ranking, x) != position(result.ranking, y):
                    assert pm.pi[x][y] > pm.pi[y][x] + 1e-9

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", range(25))
    def test_groups_are_runs_of_zero_projected_margins(self, seed, variant):
        # Small denominators make many exact ties.  Neighbours in a group have
        # equal projected scores; members further apart agree up to the float
        # noise of the turnout program.
        rng = random.Random(900 + seed)
        matrix = random_matrix(rng, 3 + seed % 5, denominator=2 + seed % 4)
        result = tally(matrix, variant)
        pm, seq = result.details.pm, result.details.xi.sequence
        for i, margin in enumerate(result.details.im.superdiagonal):
            x, y = seq[i], seq[i + 1]
            assert (margin == 0) == (pm.pi[x, y] - pm.pi[y, x] == 0)
        flat = [x for g in result.ranking.groups for x in g]
        assert sorted(flat) == list(range(matrix.n))
        for i, x in enumerate(flat):
            for y in flat[i + 1 :]:
                if position(result.ranking, x) == position(result.ranking, y):
                    assert pm.pi[x][y] == pytest.approx(pm.pi[y][x], abs=1e-9)
                else:
                    assert pm.pi[x][y] > pm.pi[y][x]


def large_electorate_matrix(rng: random.Random, total: int) -> LlullMatrix:
    """A matrix of 3 to 8 candidates among ``total`` voters whose pairs split
    their turnout to within a few votes: each turnout is the total, a few
    votes short of it or at least half of it."""
    n = rng.randint(3, 8)
    counts = np.zeros((n, n), dtype=object)
    for x, y in combinations(range(n), 2):
        turnout = rng.choice([total, total - rng.randint(0, 3), rng.randint(total // 2, total)])
        forward = min(max(turnout // 2 + rng.choice([0, 0, 1, -1, 2]), 0), turnout)
        counts[x, y], counts[y, x] = forward, turnout - forward
    return LlullMatrix.from_absolute(candidate_names(n), counts, 1, total)


@pytest.mark.parametrize("total", [10**6, 10**9, 10**12])
def test_large_electorates_rank_by_rates(total):
    # One-vote margins over a large electorate come near the float slack of
    # the law check; ties are decided on the exact margins, so no tally
    # raises, and the exact groups keep the order of their float rates.
    rng = random.Random(f"large-electorate:{total}")
    for _ in range(12):
        matrix = large_electorate_matrix(rng, total)
        for variant in Variant:
            result = tally(matrix, variant)
            rates = result.rates.rates
            groups = result.ranking.groups
            for better, worse in zip(groups, groups[1:]):
                assert max(rates[x] for x in better) <= min(rates[x] for x in worse)
