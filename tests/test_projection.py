import ast
import inspect
import random
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions
from llull.ballots import CandidateSet, InterpretationRules, read_ballot_file
from llull.closures import Variant, indirect_scores, variant_margins
from llull import projection
from llull.errors import LawViolation, LlullError, NotAdmissible
from llull.generate import candidate_names, random_matrix
from llull.matrix import LlullMatrix, aggregate, turnouts
from llull.ordering import AdmissibleOrder, admissible_order
from llull.projection import (
    LAW_TOL,
    IntermediateMargins,
    ProjectedMatrix,
    ProjectedTurnouts,
    build_intervals,
    intermediate_margins,
    project_details,
    project_turnouts,
    projected_scores,
)
from llull.verify import matrix_from_floats

RULES = InterpretationRules()


@pytest.fixture(scope="module")
def royal(royal_text):
    cands, ballots = read_ballot_file(royal_text)
    matrix = aggregate(ballots, RULES, cands)
    return matrix, project_details(matrix)


def rect_min_oracle(vm_grid, seq, i, j):
    return min(
        vm_grid[seq[p]][seq[q]] for p in range(i + 1) for q in range(j, len(seq))
    )


class TestIntermediateMargins:
    def test_royal_reduction_of_the_f_d_margin(self, royal):
        matrix, details = royal
        # position grid: order is b,a,e,f,d,c so f is position 3, d position 4
        den = details.den
        assert Fraction(int(details.vm.m[5, 3]), den) * matrix.total == 2  # direct indirect margin
        assert Fraction(int(details.im.msigma[3, 4]), den) * matrix.total == 1  # rectangle minimum

    def test_royal_superdiagonal(self, royal):
        matrix, details = royal
        superdiagonal = [Fraction(m, details.den) for m in details.im.superdiagonal]
        assert [m * matrix.total for m in superdiagonal] == [2, 0, 0, 1, 2]

    def test_constant_margins_stay_unchanged(self):
        n = 4
        cands = candidate_names(n)
        scores = [[Fraction(0)] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                scores[x][y] = Fraction(3, 4)
                scores[y][x] = Fraction(1, 4)
        matrix = LlullMatrix.from_scores(cands, scores)
        details = project_details(matrix)
        seq = details.xi.sequence
        for i in range(n):
            for j in range(i + 1, n):
                assert details.im.msigma[i, j] == details.vm.m[seq[i], seq[j]]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_loop_oracle(self, seed):
        rng = random.Random(seed)
        for denominator in (12, 2**64 + 13):
            details = project_details(random_matrix(rng, 5, denominator))
            seq = details.xi.sequence
            m = fractions(details.vm.m, details.den)
            msigma = fractions(details.im.msigma, details.den)
            for i in range(5):
                for j in range(i + 1, 5):
                    assert msigma[i][j] == rect_min_oracle(m, seq, i, j)
                    assert msigma[j][i] == -msigma[i][j]


class TestProjectedTurnouts:
    def test_royal_printed_values(self, royal):
        matrix, details = royal
        V = float(matrix.total)
        t = details.pt.tsigma
        sixth = {(1, 4): 16 / 3, (2, 4): 16 / 3, (3, 4): 16 / 3,
                 (1, 5): 14 / 3, (2, 5): 14 / 3, (3, 5): 14 / 3,
                 (4, 5): 4.0}
        for i in range(6):
            for j in range(i + 1, 6):
                expected = sixth.get((i, j), 6.0)
                assert t[i][j] * V == pytest.approx(expected, abs=1e-9)
                assert t[j][i] == t[i][j]

    @pytest.mark.parametrize("seed", range(5))
    def test_point_lands_in_pair_order(self, seed):
        # The point is that of the program over blocks of tied positions:
        # the block pairs in ``combinations`` order, then the inner pairs of
        # each block of two or more.  Every position pair reads the variable
        # of its blocks.
        details = project_details(random_matrix(random.Random(seed), 6))
        point = details.pt.solution.point
        t = details.pt.tsigma.tolist()
        starts = details.im.blocks
        block = [bisect_right(starts, i) - 1 for i in range(6)]
        pairs = list(combinations(range(len(starts)), 2))
        inner = [a for a in range(len(starts)) if block.count(a) > 1]
        variable = {pair: k for k, pair in enumerate(pairs)}
        variable.update({(a, a): len(pairs) + k for k, a in enumerate(inner)})
        assert len(point) == len(variable)
        for i, j in combinations(range(6), 2):
            assert t[i][j] == t[j][i] == point[variable[block[i], block[j]]]
        assert np.diagonal(details.pt.tsigma).tolist() == [0.0] * 6

    def test_complete_case_returns_all_ones_exactly(self):
        cands, ballots = read_ballot_file(
            "candidates: a b c d\na>b>c>d\nd>c>b>a\nb=c>a=d\n"
        )
        matrix = aggregate(ballots, RULES, cands)
        details = project_details(matrix)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert details.pt.tsigma[i][j] == 1.0

    def test_single_choice_keeps_raw_turnouts(self):
        cands, ballots = read_ballot_file("candidates: a b c\n3: a\n2: b\nc\n")
        matrix = aggregate(ballots, RULES, cands)
        details = project_details(matrix)
        seq = details.xi.sequence
        t = fractions(turnouts(matrix.w), details.den)
        for i in range(3):
            for j in range(i + 1, 3):
                assert details.pt.tsigma[i][j] == pytest.approx(
                    float(t[seq[i]][seq[j]]), abs=1e-10
                )


def intervals_loop(pt, im):
    """Reference for the intervals of ``build_intervals``, one at a time."""
    out = []
    for i, margin in enumerate(im.superdiagonal):
        tau = float(pt.tsigma[i, i + 1])
        m = margin / im.den
        out.append([(tau - m) / 2.0, (tau + m) / 2.0])
    return out


def interval_law_failures(intervals):
    """Reference for the laws of ``build_intervals``: the message of every
    failure, in loop order, each law checked as soon as its interval is
    reached."""
    tol = LAW_TOL
    for i, (lo, hi) in enumerate(intervals):
        if not (lo >= -tol and hi <= 1 + tol):
            yield f"interval range law fails: interval {i} is [{lo}, {hi}]"
        if i > 0:
            prev_lo, prev_hi = intervals[i - 1]
            if hi < prev_lo - tol or (lo + hi) / 2.0 > (prev_lo + prev_hi) / 2.0 + tol:
                yield f"intervals {i - 1} and {i} violate the overlap law"


def build_intervals_loop(pt, im):
    """Reference for ``build_intervals``: the intervals, or the first failure."""
    intervals = intervals_loop(pt, im)
    for message in interval_law_failures(intervals):
        raise LawViolation(message)
    return intervals


def interval_outcome(pt, im, build):
    """The intervals as nested lists, or the message of the law that fails."""
    try:
        return np.asarray(build(pt, im)).tolist()
    except LawViolation as exc:
        return str(exc)


def with_superdiagonal(details, taus):
    """The projected turnouts of ``details`` with their superdiagonal replaced."""
    tsigma = details.pt.tsigma.copy()
    k = np.arange(len(taus))
    tsigma[k, k + 1] = tsigma[k + 1, k] = taus
    return ProjectedTurnouts(tsigma, details.pt.solution)


def superdiagonal_stages(taus, margins, den, sequence):
    """Projected turnouts and rectangle margins whose only entries are the
    superdiagonal turnouts ``taus`` and margins ``margins`` over ``den``,
    along the order ``sequence``."""
    n = len(sequence)
    k = np.arange(n - 1)
    tsigma = np.zeros((n, n))
    tsigma[k, k + 1] = tsigma[k + 1, k] = taus
    msigma = np.zeros((n, n), dtype=np.int64)
    msigma[k, k + 1] = margins
    msigma[k + 1, k] = np.negative(margins)
    xi = AdmissibleOrder(tuple(sequence))
    return ProjectedTurnouts(tsigma, None), IntermediateMargins(xi, msigma, den)


class TestIntervals:
    def test_royal_intervals(self, royal):
        matrix, details = royal
        V = float(matrix.total)
        gammas = details.intervals
        assert gammas.shape == (5, 2)
        assert gammas[3, 0] * V == pytest.approx(13 / 6, abs=1e-9)  # f-d
        assert gammas[3, 1] * V == pytest.approx(19 / 6, abs=1e-9)
        assert gammas[4, 0] * V == pytest.approx(1.0, abs=1e-9)  # d-c
        assert gammas[4, 1] * V == pytest.approx(3.0, abs=1e-9)

    def test_zero_margin_makes_a_point_interval(self, royal):
        _, details = royal
        assert details.im.superdiagonal[1] == 0
        assert details.intervals[1, 0] == details.intervals[1, 1]

    @pytest.mark.parametrize("seed", range(12))
    def test_interval_union_laws(self, seed):
        rng = random.Random(300 + seed)
        matrix = random_matrix(rng, rng.randint(3, 6))
        details = project_details(matrix)
        n = matrix.n
        seq = details.xi.sequence
        pi = details.pm.pi
        tol = 1e-9

        def gamma(i, j):  # interval for order positions i < j
            return pi[seq[j]][seq[i]], pi[seq[i]][seq[j]]

        for i in range(n):
            for j in range(i + 1, n):
                lo, hi = gamma(i, j)
                assert lo <= hi + tol
                assert -tol <= lo and hi <= 1 + tol
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    lo_ij, hi_ij = gamma(i, j)
                    lo_jk, hi_jk = gamma(j, k)
                    lo_ik, hi_ik = gamma(i, k)
                    # union, nonempty intersection, length, centers
                    assert lo_ik == min(lo_ij, lo_jk)
                    assert hi_ik == max(hi_ij, hi_jk)
                    assert max(lo_ij, lo_jk) <= min(hi_ij, hi_jk) + tol
                    assert hi_ik - lo_ik >= max(hi_ij - lo_ij, hi_jk - lo_jk) - tol
                    c_ij, c_ik, c_jk = (
                        (lo_ij + hi_ij) / 2,
                        (lo_ik + hi_ik) / 2,
                        (lo_jk + hi_jk) / 2,
                    )
                    assert c_ij + tol >= c_ik >= c_jk - tol
                    assert c_ij - (hi_jk - lo_jk) / 2 <= c_ik + tol
                    assert c_ik <= c_jk + (hi_ij - lo_ij) / 2 + tol

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference_on_forced_turnouts(self, seed):
        # Superdiagonal turnouts moved past the range and overlap laws, or
        # within their slack; the first failure and its printed floats agree.
        rng = random.Random(700 + seed)
        for _ in range(10):
            details = project_details(random_matrix(rng, rng.randint(2, 7)))
            taus = np.diagonal(details.pt.tsigma, 1).copy()
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                i = rng.randrange(len(taus))
                taus[i] = rng.choice(
                    [taus[i] + rng.choice([-1, 1]) * rng.choice([0.5, 1e-3, LAW_TOL, 3 * LAW_TOL]),
                     -0.25, 1.5, 2.5, rng.random()]
                )
            pt = with_superdiagonal(details, taus)
            assert interval_outcome(pt, details.im, build_intervals) == interval_outcome(
                pt, details.im, build_intervals_loop
            )

    def test_range_law_at_an_interval_comes_before_its_overlap_law(self):
        # Interval 1 leaves [0, 1] and its center passes interval 0's.
        details = project_details(random_matrix(random.Random(5), 4))
        taus = np.diagonal(details.pt.tsigma, 1).copy()
        taus[1] = 3.0
        pt = with_superdiagonal(details, taus)
        message = interval_outcome(pt, details.im, build_intervals)
        assert message.startswith("interval range law fails: interval 1 is [")
        assert message == interval_outcome(pt, details.im, build_intervals_loop)

    def test_overlap_law_before_a_later_range_law(self):
        # Interval 0 is [0, m], interval 1 centers at 1/2 above it, and
        # interval 2 leaves [0, 1].
        details = project_details(random_matrix(random.Random(5), 4))
        m0 = details.im.superdiagonal[0] / details.den
        assert m0 < 0.5
        pt = with_superdiagonal(details, np.array([m0, 1.0, 5.0]))
        message = interval_outcome(pt, details.im, build_intervals)
        assert message == "intervals 0 and 1 violate the overlap law"
        assert message == interval_outcome(pt, details.im, build_intervals_loop)

    def test_range_message_prints_python_floats(self):
        cands, table = read_ballot_file("candidates: a b\n3: a>b\nb>a\n")
        details = project_details(aggregate(table, RULES, cands))
        pt = with_superdiagonal(details, np.array([2.1]))
        lo, hi = (2.1 - 0.5) / 2.0, (2.1 + 0.5) / 2.0
        with pytest.raises(LawViolation) as info:
            build_intervals(pt, details.im)
        assert str(info.value) == f"interval range law fails: interval 0 is [{lo}, {hi}]"
        assert "np." not in str(info.value)

    def test_nan_turnout_fails_the_range_law(self):
        details = project_details(random_matrix(random.Random(5), 4))
        taus = np.diagonal(details.pt.tsigma, 1).copy()
        taus[1] = np.nan
        pt = with_superdiagonal(details, taus)
        message = interval_outcome(pt, details.im, build_intervals)
        assert message == "interval range law fails: interval 1 is [nan, nan]"
        assert message == interval_outcome(pt, details.im, build_intervals_loop)

    def test_one_candidate_has_no_intervals(self):
        cands, table = read_ballot_file("candidates: a\na\n")
        details = project_details(aggregate(table, RULES, cands))
        assert details.intervals.shape == (0, 2)
        assert details.pm.pi.tolist() == [[0.0]]


def projected_scores_loop(intervals, xi):
    """Reference for ``projected_scores``: a running maximum and minimum per
    row, one interval at a time."""
    seq = xi.sequence
    n = len(seq)
    gammas = np.asarray(intervals).tolist()
    pi = [[0.0] * n for _ in range(n)]
    for i in range(n):
        hi, lo = -1.0, 2.0
        for j in range(i + 1, n):
            hi = max(hi, gammas[j - 1][1])
            lo = min(lo, gammas[j - 1][0])
            pi[seq[i]][seq[j]] = hi
            pi[seq[j]][seq[i]] = lo
    return pi


class TestProjectedScores:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference_exactly(self, seed):
        # Sixteenths make point intervals and runs of equal intervals (tie
        # groups) common; the scores must agree bit for bit.
        rng = random.Random(800 + seed)
        for _ in range(10):
            n = rng.randint(1, 8)
            gammas = []
            for _ in range(n - 1):
                if gammas and rng.random() < 0.3:
                    gammas.append(gammas[-1])  # a tie with the neighbour
                    continue
                lo = rng.randint(0, 16)
                hi = lo if rng.random() < 0.3 else rng.randint(lo, 16)
                gammas.append([lo / 16, hi / 16])
            sequence = list(range(n))
            rng.shuffle(sequence)
            xi = AdmissibleOrder(tuple(sequence))
            intervals = np.array(gammas, dtype=float).reshape(n - 1, 2)
            pm = projected_scores(intervals, xi)
            assert pm.pi.tolist() == projected_scores_loop(intervals, xi)

    def test_royal_full_matrix(self, royal):
        matrix, details = royal
        V = matrix.total
        names = "abcdef"
        expected = {
            "b": {"a": 4, "e": 4, "f": 4, "d": 4, "c": 4},
            "a": {"b": 2, "e": 3, "f": 3, "d": Fraction(19, 6), "c": Fraction(19, 6)},
            "e": {"b": 2, "a": 3, "f": 3, "d": Fraction(19, 6), "c": Fraction(19, 6)},
            "f": {"b": 2, "a": 3, "e": 3, "d": Fraction(19, 6), "c": Fraction(19, 6)},
            "d": {"b": 2, "a": Fraction(13, 6), "e": Fraction(13, 6),
                  "f": Fraction(13, 6), "c": 3},
            "c": {"b": 1, "a": 1, "e": 1, "f": 1, "d": 1},
        }
        for x, row in expected.items():
            for y, value in row.items():
                got = details.pm.pi[names.index(x)][names.index(y)] * V
                assert got == pytest.approx(float(value), abs=1e-9)

    def test_two_candidates_scores_are_interval_endpoints(self):
        cands, ballots = read_ballot_file("candidates: a b\n3: a>b\nb>a\n")
        details = project_details(aggregate(ballots, RULES, cands))
        lo, hi = details.intervals[0]
        seq = details.xi.sequence
        assert details.pm.pi[seq[0]][seq[1]] == hi
        assert details.pm.pi[seq[1]][seq[0]] == lo

    @pytest.mark.parametrize("seed", range(10))
    def test_union_formulation_matches_running_extrema(self, seed):
        rng = random.Random(400 + seed)
        matrix = random_matrix(rng, rng.randint(3, 6))
        details = project_details(matrix)
        n = matrix.n
        seq = details.xi.sequence
        for i in range(n):
            for j in range(i + 1, n):
                union_lo = min(details.intervals[i:j, 0].tolist())
                union_hi = max(details.intervals[i:j, 1].tolist())
                assert details.pm.pi[seq[i]][seq[j]] == union_hi
                assert details.pm.pi[seq[j]][seq[i]] == union_lo


class TestProjectOperator:
    @pytest.mark.parametrize("seed", range(15))
    def test_idempotence_and_structure(self, seed):
        rng = random.Random(500 + seed)
        matrix = random_matrix(rng, 4)
        details = project_details(matrix)
        pm = details.pm
        pm.check_structure(details.im.superdiagonal)
        again = project_details(matrix_from_floats(matrix.candidates, pm.pi)).pm
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert again.pi[x][y] == pytest.approx(pm.pi[x][y], abs=1e-9)

    def test_single_choice_projection_is_identity(self):
        cands, ballots = read_ballot_file("candidates: a b c d\n4: a\n2: b\nc\nd\n")
        matrix = aggregate(ballots, RULES, cands)
        pm = project_details(matrix).pm
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert pm.pi[x][y] == pytest.approx(
                        float(Fraction(int(matrix.w[x, y]), matrix.den)), abs=1e-12
                    )

    def test_structured_matrices_are_fixed_points(self):
        # dyadic entries make the float passage exact, so equality is exact
        rng = random.Random(41)
        for _ in range(8):
            n = rng.randint(3, 6)
            # integer turnouts/margins in eighths: tau nonincreasing (centers),
            # and tau_prev - m_prev <= tau + m (consecutive intervals overlap)
            taus, ms = [rng.randint(0, 8)], []
            ms.append(rng.randint(0, taus[0]))
            for _ in range(n - 2):
                lowest = (taus[-1] - ms[-1] + 1) // 2
                tau = rng.randint(lowest, taus[-1])
                m = rng.randint(max(0, taus[-1] - ms[-1] - tau), tau)
                taus.append(tau)
                ms.append(m)
            his = [Fraction(t + m, 16) for t, m in zip(taus, ms)]
            los = [Fraction(t - m, 16) for t, m in zip(taus, ms)]
            scores = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    scores[i][j] = max(his[i:j])
                    scores[j][i] = min(los[i:j])
            matrix = LlullMatrix.from_scores(candidate_names(n), scores)
            pm = project_details(matrix).pm
            for x in range(n):
                for y in range(n):
                    if x != y:
                        assert pm.pi[x][y] == float(Fraction(int(matrix.w[x, y]), matrix.den))

    def test_margin_based_runs_on_completed_matrix(self, royal):
        matrix, _ = royal
        details = project_details(matrix, Variant.MARGIN_BASED)
        assert all(details.t[x, y] == details.den for x in range(6) for y in range(6) if x != y)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert details.pt.tsigma[i][j] == 1.0

    def test_order_choice_does_not_change_scores(self, royal):
        matrix, details = royal
        from llull.ordering import enumerate_admissible_orders

        for order in enumerate_admissible_orders(details.vm):
            pm = project_details(matrix, Variant.MAIN, order).pm
            for x in range(6):
                for y in range(6):
                    if x != y:
                        assert pm.pi[x][y] == pytest.approx(
                            details.pm.pi[x][y], abs=1e-9
                        )

    def test_given_order_against_a_margin_is_not_admissible(self):
        matrix = random_matrix(random.Random(3), 5)
        backwards = AdmissibleOrder(project_details(matrix).xi.sequence[::-1])
        with pytest.raises(NotAdmissible) as info:
            project_details(matrix, Variant.MAIN, backwards)
        assert str(info.value) == "order puts b before d but the main indirect margin is -1/12"

    @pytest.mark.parametrize("sequence", [(0, 1, 2, 3), (0, 1, 2, 3, 3), (0, 1, 2, 3, 5)])
    def test_given_order_must_be_a_permutation(self, sequence):
        matrix = random_matrix(random.Random(3), 5)
        with pytest.raises(ValueError) as info:
            project_details(matrix, Variant.MAIN, AdmissibleOrder(sequence))
        assert str(info.value) == f"order {sequence} is not a permutation of the 5 candidates"


def structure_law_failures(pm, superdiagonal):
    """Reference for the laws of ``ProjectedMatrix.check_structure``: the
    message of every failure, as plain loops in loop order.  Positions tie
    when the exact ``superdiagonal`` margins between them are all 0."""
    tol = LAW_TOL
    seq = pm.order.sequence
    n = len(seq)
    pi = pm.pi.tolist()

    def mg(x, y):
        return pi[x][y] - pi[y][x]

    def to(x, y):
        return pi[x][y] + pi[y][x]

    for i in range(n):
        for j in range(i + 1, n):
            if to(seq[i], seq[j]) > 1 + tol:
                yield "admissibility law fails: projected scores left the admissible set"
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = seq[i], seq[j], seq[k]
                if mg(x, z) > mg(x, y) + mg(y, z) + tol:
                    yield "margin subadditivity law fails"
                if to(x, z) - to(y, z) > mg(x, y) + tol:
                    yield "turnout increment law fails"
                if to(x, y) - to(x, z) > mg(y, z) + tol:
                    yield "turnout increment law fails"
    for i in range(n):
        for j in range(i + 1, n):
            x, y = seq[i], seq[j]
            tied = not any(superdiagonal[i:j])
            for z in range(n):
                if z in (x, y):
                    continue
                checks = [
                    pi[x][z] - pi[y][z],
                    pi[z][y] - pi[z][x],
                    mg(x, z) - mg(y, z),
                    mg(z, y) - mg(z, x),
                    to(x, z) - to(y, z),
                    to(z, x) - to(z, y),
                ]
                if any(c < -tol for c in checks):
                    yield "row or column monotonicity law fails"
                if tied and any(abs(c) > tol for c in checks):
                    yield "tie propagation law fails"


def check_structure_loop(pm, superdiagonal):
    """Reference for ``ProjectedMatrix.check_structure``: the first failure."""
    for message in structure_law_failures(pm, superdiagonal):
        raise LawViolation(message)


def decided_law_failures(intervals, pm):
    """The laws that ``build_intervals`` and ``check_structure`` leave to the
    construction, by name where one fails by more than LAW_TOL."""
    tol = LAW_TOL
    seq = pm.order.sequence
    n = len(seq)
    pi = pm.pi.tolist()
    if any(lo > hi + tol for lo, hi in intervals.tolist()):
        yield "interval order"
    for i in range(n):
        for j in range(i + 1, n):
            x, y = seq[i], seq[j]
            if pi[x][y] < pi[y][x] - tol:
                yield "order"
            if not (-tol <= pi[x][y] <= 1 + tol):
                yield "score range"
            for k in range(j + 1, n):
                z = seq[k]
                if abs(pi[x][z] - max(pi[x][y], pi[y][z])) > tol:
                    yield "chain maximum"
                if abs(pi[z][x] - min(pi[z][y], pi[y][x])) > tol:
                    yield "chain minimum"


def triangle_law_fails(pm):
    """Whether the absolute margins of some three candidates break the
    triangle inequality by more than LAW_TOL."""
    size = np.abs(pm.pi - pm.pi.T).tolist()
    return any(
        size[x][z] > size[x][y] + size[y][z] + LAW_TOL for x, y, z in permutations(range(pm.n), 3)
    )


def law_outcome(check, pm, superdiagonal):
    """None when ``check(pm, superdiagonal)`` passes, else the message it raises."""
    try:
        check(pm, superdiagonal)
    except LawViolation as exc:
        return str(exc)
    return None


def projected(rows, sequence):
    """A projected matrix whose scores by order position are ``rows``."""
    n = len(rows)
    pi = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pi[sequence[i], sequence[j]] = float(rows[i][j])
    return ProjectedMatrix(pi, AdmissibleOrder(tuple(sequence)))


class Superdiagonal(NamedTuple):
    """Superdiagonal turnouts and margins, the input of ``build_intervals``:
    the turnouts as numbers, the margins as numerators over 16."""

    taus: list
    margins: list


class Tied(NamedTuple):
    """Scores by order position and the exact superdiagonal margins that
    tie them, where these are not the margins of the scores themselves."""

    rows: list
    superdiagonal: list


def exact_superdiagonal(rows):
    """The margins between consecutive positions of scores by position, exactly."""
    return [Fraction(rows[i][i + 1]) - Fraction(rows[i + 1][i]) for i in range(len(rows) - 1)]


def pin_outcomes(pin, sequence):
    """The message that the check of a pin raises along ``sequence``, and the
    set of messages of every law its loop reference finds broken."""
    if isinstance(pin, Superdiagonal):
        pt, im = superdiagonal_stages([float(t) for t in pin.taus], pin.margins, 16, sequence)
        broken = interval_law_failures(intervals_loop(pt, im))
        return interval_outcome(pt, im, build_intervals), set(broken)
    rows, superdiagonal = pin if isinstance(pin, Tied) else (pin, exact_superdiagonal(pin))
    pm = projected(rows, sequence)
    raised = law_outcome(ProjectedMatrix.check_structure, pm, superdiagonal)
    return raised, set(structure_law_failures(pm, superdiagonal))


def law_message_patterns():
    """A regular expression for each message that ``llull.projection``
    raises a ``LawViolation`` with, read from its source: the written-out
    argument of each ``LawViolation`` call and each message passed to
    ``_raise_first``, which raises the message it is given."""
    messages = []
    for node in ast.walk(ast.parse(inspect.getsource(projection))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "LawViolation":
                messages.append(node.args[0])
            elif node.func.id == "_raise_first":
                messages.extend(law.elts[1] for law in node.args[1:])
    messages = [m for m in messages if isinstance(m, (ast.Constant, ast.JoinedStr))]
    return [
        re.escape(message.value)
        if isinstance(message, ast.Constant)
        else "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
            for part in message.values
        )
        for message in messages
    ]


# Slack within the tolerance: some laws follow exactly from the others, so a
# matrix breaking only one of them needs the others to hold within LAW_TOL.
E = 0.7 * LAW_TOL
S = Fraction(1, 16)

# (message, pin) with exactly one law broken: scores by order position for
# ``check_structure``, tied by their own exact margins or by those of a
# ``Tied``, or a ``Superdiagonal`` for ``build_intervals``.
ONE_LAW_BROKEN = [
    (
        "admissibility law fails: projected scores left the admissible set",
        [[0, 14 * S], [3 * S, 0]],
    ),
    (
        "margin subadditivity law fails",
        [[0, 6 * S - E, 9 * S], [6 * S, 0, 9 * S], [S, S + E, 0]],
    ),
    ("turnout increment law fails", [[0, 2 * S, 2 * S - E], [0, 0, 0], [0, E, 0]]),
    (
        "row or column monotonicity law fails",
        [[0, 5 * S, 7 * S], [3 * S, 0, 7 * S], [3 * S, 4 * S, 0]],
    ),
    # Positions 0 and 2 tie through two zero margins, yet the pairs
    # (0, 1) and (2, 1) have margins E and -E.
    ("tie propagation law fails", Tied([[0, E, 0], [0, 0, E], [0, 0, 0]], [0, 0])),
    # Intervals [0.875, 1.125] and [0.875, 1.0].
    (
        "interval range law fails: interval 0 is [0.875, 1.125]",
        Superdiagonal([32 * S, 30 * S], [4, 2]),
    ),
    ("interval range law fails: interval 0 is [-0.125, 0.25]", Superdiagonal([2 * S], [6])),
    # A gap: [0.5, 0.75], then [0.125, 0.25].
    ("intervals 0 and 1 violate the overlap law", Superdiagonal([20 * S, 6 * S], [4, 2])),
    # A rising center: [0.25, 0.5], then [0.25, 0.75].
    ("intervals 0 and 1 violate the overlap law", Superdiagonal([12 * S, 16 * S], [4, 8])),
]


@st.composite
def near_structured_superdiagonals(draw):
    """Superdiagonal turnouts and margins over ``den`` along an order: the
    intervals of a structured matrix in sixteenths (inside [0, 1], centers
    not increasing, consecutive ones overlapping, ends at 0 and 1 among
    them), each turnout moved by an amount at or within a few LAW_TOL and
    each margin by up to two units of a denominator that makes a unit
    about LAW_TOL, or one sixteenth.  Every margin stays >= 0."""
    tau = draw(st.integers(0, 8))
    taus, margins = [tau], [draw(st.integers(0, tau))]
    for _ in range(draw(st.integers(0, 5))):
        tau = draw(st.integers((taus[-1] - margins[-1] + 1) // 2, taus[-1]))
        taus.append(tau)
        margins.append(draw(st.integers(max(0, taus[-2] - margins[-1] - tau), tau)))
    scale = draw(st.sampled_from([1, 10**8, 2**27]))
    moves = [0.0, LAW_TOL, LAW_TOL / 2, 2 * LAW_TOL, 1e-16]
    moved = [t / 8 + draw(st.sampled_from(moves)) * draw(st.sampled_from([1, -1])) for t in taus]
    nums = [max(0, m * scale + draw(st.integers(-2, 2))) for m in margins]
    sequence = draw(st.permutations(range(len(taus) + 1)))
    return moved, nums, 8 * scale, sequence


class TestLawChecks:
    @pytest.mark.parametrize("message, rows", ONE_LAW_BROKEN)
    @pytest.mark.parametrize("sequence", [None, "reversed", "rotated"])
    def test_each_law_fails_alone(self, message, rows, sequence):
        if isinstance(rows, Superdiagonal):
            n = len(rows.taus) + 1
        else:
            n = len(rows.rows if isinstance(rows, Tied) else rows)
        seq = {
            None: list(range(n)),
            "reversed": list(range(n))[::-1],
            "rotated": [*range(1, n), 0],
        }[sequence]
        raised, broken = pin_outcomes(rows, seq)
        assert raised == message
        assert broken == {message}

    def test_every_law_message_has_a_pin(self):
        # Each pattern matches the messages of one law, so a law added to
        # either check without a pin here fails this test.
        patterns = law_message_patterns()
        matched = [[p for p in patterns if re.fullmatch(p, message)] for message, _ in ONE_LAW_BROKEN]
        assert all(len(found) == 1 for found in matched)
        assert {found[0] for found in matched} == set(patterns)

    @given(near_structured_superdiagonals())
    @settings(max_examples=300, deadline=None)
    def test_decided_laws_hold_on_every_array_that_passes(self, case):
        taus, margins, den, sequence = case
        pt, im = superdiagonal_stages(taus, margins, den, sequence)
        try:
            intervals = build_intervals(pt, im)
        except LawViolation:
            return
        pm = projected_scores(intervals, im.order)
        assert list(decided_law_failures(intervals, pm)) == []
        if triangle_law_fails(pm):
            assert law_outcome(ProjectedMatrix.check_structure, pm, im.superdiagonal) is not None

    @pytest.mark.parametrize(
        "rows, sequence, message",
        [
            # pair (0, 1) breaks admissibility; pair (1, 2) breaks only the
            # order law, which the construction decides
            (
                [[0, 17 * S, 17 * S], [0, 0, 2 * S], [0, 4 * S, 0]],
                [1, 2, 0],
                "admissibility law fails: projected scores left the admissible set",
            ),
            # one triple breaks subadditivity and the turnout increment law:
            # subadditivity is checked first
            (
                [[0, 2 * S, 8 * S], [2 * S, 0, 2 * S], [0, 2 * S, 0]],
                [2, 0, 1],
                "margin subadditivity law fails",
            ),
        ],
    )
    def test_first_failure_in_loop_order_wins(self, rows, sequence, message):
        pm, superdiagonal = projected(rows, sequence), exact_superdiagonal(rows)
        assert law_outcome(ProjectedMatrix.check_structure, pm, superdiagonal) == message
        assert law_outcome(check_structure_loop, pm, superdiagonal) == message

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference_on_perturbed_projections(self, seed):
        rng = random.Random(600 + seed)
        steps = [S, 2 * S, LAW_TOL / 2, LAW_TOL, 2 * LAW_TOL, 1e-15]
        for _ in range(10):
            n = rng.randint(2, 7)
            details = project_details(random_matrix(rng, n, rng.choice([4, 12, 16])))
            pm, superdiagonal = details.pm, details.im.superdiagonal
            pi = pm.pi.copy()
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                x, y = rng.sample(range(n), 2)
                if rng.random() < 0.2:
                    pi[x][y] = pi[y][x]  # a tie
                else:
                    pi[x][y] += rng.choice([-1, 1]) * float(rng.choice(steps))
            perturbed = ProjectedMatrix(pi, pm.order)
            assert law_outcome(
                ProjectedMatrix.check_structure, perturbed, superdiagonal
            ) == law_outcome(check_structure_loop, perturbed, superdiagonal)
