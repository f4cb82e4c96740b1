import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import fractions
from llull.ballots import CandidateSet, InterpretationRules, read_ballot_file
from llull.closures import Variant, indirect_scores, variant_margins
from llull.errors import LawViolation, LlullError
from llull.generate import candidate_names, random_matrix
from llull.matrix import LlullMatrix, aggregate, turnouts
from llull.ordering import AdmissibleOrder, admissible_order
from llull.projection import (
    LAW_TOL,
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
        details = project_details(random_matrix(random.Random(seed), 6))
        point = details.pt.solution.point
        t = details.pt.tsigma.tolist()
        for k, (i, j) in enumerate(combinations(range(6), 2)):
            assert t[i][j] == t[j][i] == point[k]
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


def build_intervals_loop(pt, im):
    """Reference for ``build_intervals``: one interval at a time, each law
    checked as soon as its interval is built."""
    tol = LAW_TOL
    out = []
    for i, margin in enumerate(im.superdiagonal):
        tau = float(pt.tsigma[i, i + 1])
        m = margin / im.den
        lo, hi = (tau - m) / 2.0, (tau + m) / 2.0
        if lo < -tol or hi > 1 + tol or lo > hi + tol:
            raise LawViolation(f"interval range law fails: interval {i} is [{lo}, {hi}]")
        if i > 0:
            prev_lo, prev_hi = out[-1]
            if hi < prev_lo - tol or (lo + hi) / 2.0 > (prev_lo + prev_hi) / 2.0 + tol:
                raise LawViolation(f"intervals {i - 1} and {i} violate the overlap law")
        out.append([lo, hi])
    return out


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
                    assert lo_ik == pytest.approx(min(lo_ij, lo_jk), abs=tol)
                    assert hi_ik == pytest.approx(max(hi_ij, hi_jk), abs=tol)
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
        pm = project_details(matrix).pm
        pm.check_structure()
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
                        float(matrix.scores[x][y]), abs=1e-12
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
                        assert pm.pi[x][y] == float(matrix.scores[x][y])

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


def check_structure_loop(pm):
    """Reference for ``ProjectedMatrix.check_structure``: every law as a
    plain loop, raising the first failure in loop order."""
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
            x, y = seq[i], seq[j]
            if pi[x][y] < pi[y][x] - tol:
                raise LawViolation("order law fails: projected scores disagree with the order")
            if not (-tol <= pi[x][y] <= 1 + tol) or to(x, y) > 1 + tol:
                raise LawViolation(
                    "admissibility law fails: projected scores left the admissible set"
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = seq[i], seq[j], seq[k]
                if abs(pi[x][z] - max(pi[x][y], pi[y][z])) > tol:
                    raise LawViolation("chain maximum law fails")
                if abs(pi[z][x] - min(pi[z][y], pi[y][x])) > tol:
                    raise LawViolation("chain minimum law fails")
                if mg(x, z) > mg(x, y) + mg(y, z) + tol:
                    raise LawViolation("margin subadditivity law fails")
                if to(x, z) - to(y, z) > mg(x, y) + tol:
                    raise LawViolation("turnout increment law fails")
                if to(x, y) - to(x, z) > mg(y, z) + tol:
                    raise LawViolation("turnout increment law fails")
    for i in range(n):
        for j in range(i + 1, n):
            x, y = seq[i], seq[j]
            tied = abs(pi[x][y] - pi[y][x]) <= tol
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
                    raise LawViolation("row or column monotonicity law fails")
                if tied and any(abs(c) > tol for c in checks):
                    raise LawViolation("tie propagation law fails")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if len({x, y, z}) == 3:
                    if abs(mg(x, z)) > abs(mg(x, y)) + abs(mg(y, z)) + tol:
                        raise LawViolation("absolute margins break the triangle law")


def law_outcome(check, pm):
    """None when ``check(pm)`` passes, else the message it raises."""
    try:
        check(pm)
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


# Slack within the tolerance: some laws follow exactly from the others, so a
# matrix breaking only one of them needs the others to hold within LAW_TOL.
E = 0.7 * LAW_TOL
S = Fraction(1, 16)

# (message, scores by order position) with exactly one law broken.
ONE_LAW_BROKEN = [
    (
        "order law fails: projected scores disagree with the order",
        [[0, 2 * S], [4 * S, 0]],
    ),
    (
        "admissibility law fails: projected scores left the admissible set",
        [[0, 14 * S], [3 * S, 0]],
    ),
    ("chain maximum law fails", [[0, 8 * S, 9 * S], [2 * S, 0, 3 * S], [S, S, 0]]),
    ("chain minimum law fails", [[0, 12 * S, 12 * S], [2 * S, 0, 9 * S], [S, 2 * S, 0]]),
    (
        "margin subadditivity law fails",
        [[0, 6 * S - E, 9 * S], [6 * S, 0, 9 * S], [S, S + E, 0]],
    ),
    ("turnout increment law fails", [[0, 2 * S, 2 * S - E], [0, 0, 0], [0, E, 0]]),
    (
        "row or column monotonicity law fails",
        [[0, 5 * S, 7 * S], [3 * S, 0, 7 * S], [3 * S, 4 * S, 0]],
    ),
    ("tie propagation law fails", [[0, E, 0], [0, 0, E], [0, 0, 0]]),
]


class TestLawChecks:
    @pytest.mark.parametrize("message, rows", ONE_LAW_BROKEN)
    @pytest.mark.parametrize("sequence", [None, "reversed", "rotated"])
    def test_each_law_fails_alone(self, message, rows, sequence):
        n = len(rows)
        seq = {
            None: list(range(n)),
            "reversed": list(range(n))[::-1],
            "rotated": [*range(1, n), 0],
        }[sequence]
        pm = projected(rows, seq)
        with pytest.raises(LawViolation) as info:
            pm.check_structure()
        assert str(info.value) == message
        assert law_outcome(check_structure_loop, pm) == message

    def test_triangle_law_follows_from_the_earlier_laws(self):
        # |m(x, z)| <= |m(x, y)| + |m(y, z)| follows from the order,
        # subadditivity and monotonicity laws, so no matrix breaks it alone:
        # one that breaks it raises an earlier law.
        pm = projected([[0, 4 * S, 8 * S], [4 * S, 0, 4 * S], [0, 4 * S, 0]], [0, 1, 2])
        mg = np.abs(pm.pi - pm.pi.T)
        assert mg[0, 2] > mg[0, 1] + mg[1, 2] + LAW_TOL
        assert law_outcome(ProjectedMatrix.check_structure, pm) == "chain maximum law fails"
        assert law_outcome(check_structure_loop, pm) == "chain maximum law fails"

    @pytest.mark.parametrize(
        "rows, sequence, message",
        [
            # pair (0, 1) breaks admissibility before pair (1, 2) breaks the order
            (
                [[0, 17 * S, 17 * S], [0, 0, 2 * S], [0, 4 * S, 0]],
                [1, 2, 0],
                "admissibility law fails: projected scores left the admissible set",
            ),
            # one pair breaks both: the order law is checked first
            (
                [[0, -2 * S], [4 * S, 0]],
                [1, 0],
                "order law fails: projected scores disagree with the order",
            ),
            # one triple breaks both chain laws: the maximum is checked first
            (
                [[0, 4 * S, 8 * S], [4 * S, 0, 4 * S], [0, 4 * S, 0]],
                [2, 0, 1],
                "chain maximum law fails",
            ),
        ],
    )
    def test_first_failure_in_loop_order_wins(self, rows, sequence, message):
        pm = projected(rows, sequence)
        assert law_outcome(ProjectedMatrix.check_structure, pm) == message
        assert law_outcome(check_structure_loop, pm) == message

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference_on_perturbed_projections(self, seed):
        rng = random.Random(600 + seed)
        steps = [S, 2 * S, LAW_TOL / 2, LAW_TOL, 2 * LAW_TOL, 1e-15]
        for _ in range(10):
            n = rng.randint(2, 7)
            pm = project_details(random_matrix(rng, n, rng.choice([4, 12, 16]))).pm
            pi = pm.pi.copy()
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                x, y = rng.sample(range(n), 2)
                if rng.random() < 0.2:
                    pi[x][y] = pi[y][x]  # a tie
                else:
                    pi[x][y] += rng.choice([-1, 1]) * float(rng.choice(steps))
            perturbed = ProjectedMatrix(pi, pm.order)
            assert law_outcome(ProjectedMatrix.check_structure, perturbed) == law_outcome(
                check_structure_loop, perturbed
            )
