import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import fractions, numerators
from llull.ballots import CandidateSet, InterpretationRules, read_ballot_file
from llull.closures import (
    Variant,
    indirect_scores,
    margin_completion,
    maxmin_closure_grid,
    minmax_closure_grid,
    variant_margins,
)
from llull.generate import random_matrix
from llull.matrix import LlullMatrix, aggregate
from llull.projection import project_details


def grid_matrix(rows, total=1):
    n = len(rows)
    return LlullMatrix.from_scores(CandidateSet("abcdefgh"[:n]), rows, total)


def maxmin_closure(w, den):
    """The max-min closure of numerators over ``den``, as Fractions."""
    return fractions(maxmin_closure_grid(w), den)


def minmax_closure(matrix):
    """The min-max closure of a matrix, as Fractions."""
    return fractions(minmax_closure_grid(matrix.w, matrix.den), matrix.den)


def margins_of(matrix, variant):
    return variant_margins(indirect_scores(matrix.w, matrix.den, variant))


def maxmin_closure_loop(v):
    """Reference for ``maxmin_closure_grid``: Floyd-Warshall triangle
    updates on the exact rationals, one pair at a time."""
    n = len(v)
    w = [list(row) for row in v]
    for k in range(n):
        wk = w[k]
        for i in range(n):
            if i == k:
                continue
            wik = w[i][k]
            row = w[i]
            for j in range(n):
                if j == k or j == i:
                    continue
                m = wik if wik < wk[j] else wk[j]
                if m > row[j]:
                    row[j] = m
    return tuple(tuple(row) for row in w)


def maxmin_loop_of(matrix):
    """``maxmin_closure_loop`` of a matrix's numerators, as Fractions."""
    star = maxmin_closure_loop(matrix.w.tolist())
    return tuple(tuple(Fraction(p, matrix.den) for p in row) for row in star)


def minmax_closure_loop(matrix):
    """Reference for ``minmax_closure_grid``: the loop closure of the complemented
    transpose, complemented and transposed back, as Fractions."""
    n, den = matrix.n, matrix.den
    w = matrix.w.tolist()
    dual = tuple(tuple(den - w[j][i] if i != j else 0 for j in range(n)) for i in range(n))
    dual_star = maxmin_closure_loop(dual)
    return tuple(
        tuple(Fraction(den - dual_star[j][i], den) if i != j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def margins_loop(v):
    n = len(v)
    return tuple(tuple(v[x][y] - v[y][x] for y in range(n)) for x in range(n))


def balanced_margins_loop(mstar, mbar):
    """Reference for the balanced margins: a pair keeps the smaller of its
    two closure margins when both are positive."""
    n = len(mstar)
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and mstar[x][y] > 0 and mbar[x][y] > 0:
                out[x][y] = min(mstar[x][y], mbar[x][y])
                out[y][x] = -out[x][y]
    return tuple(tuple(row) for row in out)


def assert_same_grid(got, expected):
    assert got == expected
    assert all(type(a) is Fraction for row in got for a in row)


def enumerate_paths(matrix):
    """Independent oracle: literal max-over-paths-of-min and its dual."""
    n = matrix.n
    v = fractions(matrix.w, matrix.den)
    best = [[Fraction(0)] * n for _ in range(n)]
    worst = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            others = [z for z in range(n) if z not in (x, y)]
            bottlenecks, peaks = [], []
            for k in range(len(others) + 1):
                for mid in permutations(others, k):
                    path = (x, *mid, y)
                    edges = [v[path[i]][path[i + 1]] for i in range(len(path) - 1)]
                    bottlenecks.append(min(edges))
                    peaks.append(max(edges))
            best[x][y] = max(bottlenecks)
            worst[x][y] = min(peaks)
    return best, worst


@pytest.fixture(scope="module")
def royal(royal_text):
    cands, ballots = read_ballot_file(royal_text)
    return aggregate(ballots, InterpretationRules(), cands)


class TestMaxMin:
    def test_royal_closure_matches_printed_matrix(self, royal):
        star = maxmin_closure(royal.w, royal.den)
        expected = [
            [0, 2, 5, 4, 3, 5],
            [4, 0, 6, 6, 4, 5],
            [1, 1, 0, 1, 1, 1],
            [2, 2, 3, 0, 2, 2],
            [3, 2, 3, 3, 0, 3],
            [3, 2, 5, 4, 3, 0],
        ]
        for x in range(6):
            for y in range(6):
                assert star[x][y] * royal.total == expected[x][y]

    def test_two_candidates_closure_is_identity(self):
        m = grid_matrix([[0, Fraction(1, 3)], [Fraction(1, 2), 0]])
        assert maxmin_closure(m.w, m.den) == fractions(m.w, m.den)
        assert minmax_closure(m) == fractions(m.w, m.den)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_matches_path_enumeration(self, seed):
        rng = random.Random(seed)
        matrix = random_matrix(rng, rng.randint(3, 5))
        best, worst = enumerate_paths(matrix)
        star = maxmin_closure(matrix.w, matrix.den)
        bar = minmax_closure(matrix)
        for x in range(matrix.n):
            for y in range(matrix.n):
                if x != y:
                    assert star[x][y] == best[x][y]
                    assert bar[x][y] == worst[x][y]

    def test_closure_dominates_scores_and_stays_in_range(self, royal):
        star = maxmin_closure(royal.w, royal.den)
        for x in range(royal.n):
            for y in range(royal.n):
                if x != y:
                    assert star[x][y] >= Fraction(int(royal.w[x, y]), royal.den)
                    assert 0 <= star[x][y] <= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_closure_is_idempotent_and_transitive(self, seed):
        rng = random.Random(100 + seed)
        matrix = random_matrix(rng, 5)
        star = maxmin_closure(matrix.w, matrix.den)
        assert maxmin_closure(*numerators(star)) == star
        for x in range(5):
            for y in range(5):
                for z in range(5):
                    if len({x, y, z}) == 3:
                        assert star[x][z] >= min(star[x][y], star[y][z])


class TestMinMax:
    def test_complete_case_duality(self):
        cands, ballots = read_ballot_file("candidates: a b c\na>b>c\nb>c>a\nc>a>b\na=b=c\n")
        matrix = aggregate(ballots, InterpretationRules(), cands)
        star = maxmin_closure(matrix.w, matrix.den)
        bar = minmax_closure(matrix)
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert bar[x][y] == 1 - star[y][x]


class TestVariantMargins:
    def test_royal_main_margin_f_over_d(self, royal):
        vm = margins_of(royal, Variant.MAIN)
        f, d = 5, 3
        assert Fraction(int(vm.m[f, d]), vm.den) * royal.total == 2

    def test_symmetric_matrix_gives_zero_margins_everywhere(self):
        m = grid_matrix(
            [
                [0, Fraction(1, 3), Fraction(1, 4)],
                [Fraction(1, 3), 0, Fraction(1, 2)],
                [Fraction(1, 4), Fraction(1, 2), 0],
            ]
        )
        for variant in (Variant.MAIN, Variant.CODUAL, Variant.BALANCED):
            vm = margins_of(m, variant)
            assert not vm.m.any()

    @pytest.mark.parametrize("seed", range(8))
    def test_complete_case_variants_coincide(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(3, 5)
        scores = [[Fraction(0)] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                v = Fraction(rng.randint(0, 12), 12)
                scores[x][y], scores[y][x] = v, 1 - v
        matrix = grid_matrix(scores)
        main = margins_of(matrix, Variant.MAIN)
        for variant in (Variant.CODUAL, Variant.BALANCED):
            vm = margins_of(matrix, variant)
            assert vm.den == main.den
            assert np.array_equal(vm.m, main.m)

    def test_margin_based_margins_are_margins_of_completion(self, royal):
        completed = margin_completion(royal)
        turnouts = completed.w + completed.w.T
        np.fill_diagonal(turnouts, completed.den)
        assert (turnouts == completed.den).all()
        direct = project_details(royal, Variant.MARGIN_BASED).vm
        via_completion = margins_of(completed, Variant.MAIN)
        assert direct.den == via_completion.den
        assert np.array_equal(direct.m, via_completion.m)

    def test_balanced_needs_both_signs(self):
        # one-way strength in the max-min closure, the other way in the
        # min-max closure: balanced treats the pair as a tie
        m = grid_matrix(
            [
                [0, Fraction(2, 3), 0],
                [0, 0, Fraction(2, 3)],
                [Fraction(1, 3), 0, 0],
            ]
        )
        star = maxmin_closure(m.w, m.den)
        bar = minmax_closure(m)
        vm = margins_of(m, Variant.BALANCED)
        balanced = fractions(vm.m, vm.den)
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                if balanced[x][y] > 0:
                    assert star[x][y] > star[y][x] and bar[x][y] > bar[y][x]
                    assert balanced[x][y] == min(
                        star[x][y] - star[y][x], bar[x][y] - bar[y][x]
                    )

    @pytest.mark.parametrize("denominator", [12, 2**64 + 13])
    def test_balanced_matches_loop_reference(self, denominator):
        rng = random.Random(denominator)
        for _ in range(20):
            matrix = random_matrix(rng, rng.randint(2, 7), denominator)
            mstar = margins_loop(maxmin_closure(matrix.w, matrix.den))
            mbar = margins_loop(minmax_closure(matrix))
            vm = margins_of(matrix, Variant.BALANCED)
            assert fractions(vm.m, vm.den) == balanced_margins_loop(mstar, mbar)


class TestIntegerKernel:
    """The integer closures against the loop references, exact Grid equality."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_matrices(self, n):
        rng = random.Random(700 + n)
        for denominator in (1, 2, 12, 97, 1000):
            matrix = random_matrix(rng, n, denominator)
            star = maxmin_closure(matrix.w, matrix.den)
            assert_same_grid(star, maxmin_loop_of(matrix))
            assert_same_grid(minmax_closure(matrix), minmax_closure_loop(matrix))

    @pytest.mark.parametrize("seed", range(6))
    def test_margin_completed_matrices(self, seed):
        rng = random.Random(800 + seed)
        completed = margin_completion(random_matrix(rng, rng.randint(3, 9)))
        star = maxmin_closure(completed.w, completed.den)
        assert_same_grid(star, maxmin_loop_of(completed))
        assert_same_grid(minmax_closure(completed), minmax_closure_loop(completed))

    @pytest.mark.parametrize("seed", range(6))
    def test_closures_of_closures(self, seed):
        rng = random.Random(900 + seed)
        matrix = random_matrix(rng, rng.randint(3, 9))
        star = maxmin_loop_of(matrix)
        bar = minmax_closure_loop(matrix)
        # a min-max closure has row pairs summing above one: a bare grid
        for grid in (star, bar):
            assert_same_grid(maxmin_closure(*numerators(grid)), maxmin_closure_loop(grid))

    def test_diagonal_never_raises_an_entry(self):
        # thirds, with diagonal entries far above and below the others
        w = np.array([[15, 1, 0], [0, 21, 1], [1, 1, -6]])
        expected = np.array(maxmin_closure_loop(w.tolist()))
        np.fill_diagonal(expected, 0)
        assert maxmin_closure_grid(w).tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_denominators_beyond_int64(self, seed):
        # weights of 2**70 votes, and denominators whose common multiple
        # passes 2**62, take the Python-int path
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 7)
        for denominator in (2**70, 2**64 + 13):
            matrix = random_matrix(rng, n, denominator)
            assert matrix.w.dtype == object
            star = maxmin_closure(matrix.w, matrix.den)
            assert_same_grid(star, maxmin_loop_of(matrix))
            assert_same_grid(minmax_closure(matrix), minmax_closure_loop(matrix))
        scores = [[Fraction(0)] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                a, b = rng.randint(0, 2**70), rng.randint(0, 2**70)
                total = a + b + rng.randint(1, 5)
                scores[x][y], scores[y][x] = Fraction(a, total), Fraction(b, total)
        matrix = grid_matrix(scores)
        assert matrix.w.dtype == object
        star = maxmin_closure(matrix.w, matrix.den)
        assert_same_grid(star, maxmin_loop_of(matrix))
        assert_same_grid(minmax_closure(matrix), minmax_closure_loop(matrix))
