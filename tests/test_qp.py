import functools
import hashlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest

from llull import verify
from llull.ballots import InterpretationRules, read_ballot_file
from llull.closures import Variant, indirect_scores, margin_completion, variant_margins
from llull.errors import Infeasible
from llull.generate import ProfileGenerator, random_matrix
from llull.matrix import aggregate, turnouts
from llull.ordering import AdmissibleOrder, admissible_order
from llull.projection import (
    IntermediateMargins,
    intermediate_margins,
    project_turnouts,
    turnout_qp,
)
from llull.qp import (
    _NODE,
    _ROW,
    _SIGN,
    _SIZE,
    QpProblem,
    QpSolution,
    _Forest,
    _padded,
    constraint_rows,
    kkt_residual,
    problem_to_json,
    solve_active_set,
    solve_dykstra,
)
from llull.verify import equality_dense_problem, random_feasible_problem


# Dykstra's sweeps on the first 100 programs of the qp-agreement suite, seed 1.
QP_AGREEMENT_SWEEPS = [
    1, 14, 93, 0, 175, 41, 42, 210, 257, 275, 2, 87, 87, 199, 202, 328, 90, 44, 134, 84,
    143, 1, 72, 117, 289, 11201, 79, 60, 4, 568, 2, 168, 1187, 114, 138, 85, 2, 73, 21, 42,
    67, 42, 20, 123, 929, 45, 48, 94, 59, 202, 1, 330, 41, 302, 93, 85, 54, 50, 91, 126, 2,
    42, 76, 103, 268, 69, 296, 185, 80, 92, 265, 1161, 46, 58, 55, 284, 2, 237, 148, 1, 68,
    40, 46, 297, 157, 41, 1, 51, 133, 230, 247, 44, 32, 67, 2, 4, 120, 306, 42, 54,
]


def problem_from_json(text: str) -> QpProblem:
    data = json.loads(text)
    return QpProblem(
        center=tuple(data["center"]),
        bounds=tuple((b[0], b[1]) for b in data.get("bounds", [])),
        difference_constraints=tuple(
            (int(c[0]), int(c[1]), float(c[2]), float(c[3]))
            for c in data.get("difference_constraints", [])
        ),
        weights=tuple(data.get("weights", ())),
    )


def pair_turnout_qp(t, im) -> QpProblem:
    """The turnout program over every position pair, with unit weights: the
    reference that ``turnout_qp`` quotients by tied positions.

    Variables are the position pairs i < j in ``combinations`` order.
    Consecutive positions i, i + 1 bound their pair's turnout by [m_i, 1],
    and against every other position z the pair (i, z) may exceed
    (i + 1, z) by 0 to m_i, an equality when m_i is 0."""
    seq = np.array(im.order.sequence, dtype=np.intp)
    n = len(seq)
    rows, cols = np.triu_indices(n, 1)  # the pairs in ``combinations`` order
    pair = np.zeros((n, n), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    center = [turnout / im.den for turnout in t[seq[rows], seq[cols]].tolist()]
    margins = [margin / im.den for margin in im.superdiagonal]
    at = np.arange(n - 1)
    bounds: list = [(None, None)] * rows.size
    for k, m in zip(pair[at, at + 1].tolist(), margins):
        bounds[k] = (m, 1.0)
    others = np.ones((n - 1, n), dtype=bool)
    others[at, at] = others[at, at + 1] = False
    i, z = others.nonzero()  # by i, then z
    upper, lower = pair[i, z].tolist(), pair[i + 1, z].tolist()
    diffs = zip(upper, lower, [0.0] * len(upper), [margins[k] for k in i.tolist()])
    return QpProblem(tuple(center), tuple(bounds), tuple(diffs))


def tally_stages(matrix, variant: Variant = Variant.MAIN):
    """The turnouts and rectangle margins a tally of the matrix projects."""
    effective = margin_completion(matrix) if variant is Variant.MARGIN_BASED else matrix
    vm = variant_margins(indirect_scores(effective.w, effective.den, variant))
    xi = admissible_order(vm, matrix.candidates)
    return turnouts(effective.w), intermediate_margins(vm, xi)


def matrix_problem(matrix, variant: Variant = Variant.MAIN) -> QpProblem:
    """The turnout program of a tally of the matrix under the variant, over
    every position pair."""
    return pair_turnout_qp(*tally_stages(matrix, variant))


@functools.lru_cache(maxsize=None)
def profile_matrix(n: int, n_ballots: int):
    gen = ProfileGenerator(
        n_candidates=(n, n), n_ballots=(n_ballots, n_ballots), truncation=0.8, seed=1
    )
    candidates, ballots = gen.profile(0)
    return aggregate(ballots, InterpretationRules(), candidates)


def profile_problem(n: int, n_ballots: int, variant: Variant = Variant.MAIN) -> QpProblem:
    """The turnout program of ``ProfileGenerator(truncation=0.8, seed=1)``
    case 0 with n candidates and n_ballots ballots."""
    return matrix_problem(profile_matrix(n, n_ballots), variant)


def royal_problem(royal_text) -> QpProblem:
    cands, ballots = read_ballot_file(royal_text)
    return matrix_problem(aggregate(ballots, InterpretationRules(), cands))


def reference_rows(problem: QpProblem) -> list[tuple[list[float], float, bool]]:
    """Dense rows (normal, rhs, is_equality), built one constraint at a time."""
    d = len(problem.center)
    rows = []

    def normal(i, j, sign):
        a = [0.0] * d
        a[i] = sign
        if j is not None:
            a[j] = -sign
        return a

    for k, (lo, hi) in enumerate(problem.bounds):
        if lo is not None and hi is not None and lo == hi:
            rows.append((normal(k, None, 1.0), float(lo), True))
            continue
        if lo is not None:
            rows.append((normal(k, None, 1.0), float(lo), False))
        if hi is not None:
            rows.append((normal(k, None, -1.0), -float(hi), False))
    for i, j, lo, hi in problem.difference_constraints:
        if lo == hi:
            rows.append((normal(i, j, 1.0), float(lo), True))
            continue
        rows.append((normal(i, j, 1.0), float(lo), False))
        rows.append((normal(i, j, -1.0), -float(hi), False))
    return rows


def reference_kkt_residual(problem: QpProblem, solution) -> float:
    rows = reference_rows(problem)
    x = solution.point
    worst = 0.0
    for a, b, eq in rows:
        s = sum(ak * xk for ak, xk in zip(a, x)) - b
        worst = max(worst, abs(s) if eq else -s)
    weights = problem.weights or [1.0] * len(x)
    grad = [wk * (xk - ck) for wk, xk, ck in zip(weights, x, problem.center)]
    for idx, mult in zip(solution.active_set, solution.multipliers):
        a, b, eq = rows[idx]
        grad = [g - mult * ak for g, ak in zip(grad, a)]
        worst = max(worst, abs(sum(ak * xk for ak, xk in zip(a, x)) - b))  # must be tight
        if not eq:
            worst = max(worst, -mult)
    return max([worst, *map(abs, grad)])


def dense_row_arrays(problem: QpProblem) -> list[tuple[list[float], float, bool]]:
    """The solver's row arrays, expanded to dense rows."""
    rows = problem.rows
    d = len(problem.center)
    out = []
    for i, j, sign, rhs, eq in zip(rows.i, rows.j, rows.sign, rows.rhs, rows.eq):
        a = [0.0] * (d + 1)
        a[i] = float(sign)
        a[j] = -float(sign)
        out.append((a[:d], float(rhs), bool(eq)))
    return out


class TestProblem:
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (-1, 0), (0, -1)])
    def test_difference_constraint_outside_the_variables(self, i, j):
        with pytest.raises(ValueError, match="outside variables 0..0"):
            QpProblem((5.0,), (), ((i, j, -1.0, 1.0),))

    def test_more_bounds_than_variables(self):
        with pytest.raises(ValueError, match="2 bounds for 1 variables"):
            QpProblem((5.0,), ((0.0, 1.0), (2.0, 3.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_center_must_be_finite(self, value):
        with pytest.raises(ValueError, match=f"^center of variable 1 is {value}, not finite$"):
            QpProblem((0.0, value), (), ((0, 1, 0.0, 1.0),))

    @pytest.mark.parametrize(
        "bound",
        [(math.nan, 1.0), (0.0, math.nan), (math.nan, None), (None, math.nan),
         (1.0, 0.0), (math.inf, None), (None, -math.inf), (math.inf, math.inf)],
    )
    def test_bound_must_be_a_nonempty_interval(self, bound):
        message = r"^bound of variable 1: \[.*\] is empty or NaN$"
        with pytest.raises(ValueError, match=message):
            QpProblem((0.0, 5.0), ((None, None), bound))

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, math.nan), (math.nan, 0.0), (1.0, 0.0), (-math.inf, -math.inf)]
    )
    def test_difference_must_be_a_nonempty_interval(self, lo, hi):
        # A NaN side used to stop pricing at its row: (0.0, 5.0) came back
        # "solved", though x0 - x1 >= 0 is violated by 5.
        message = r"^difference constraint 1: \[.*\] is empty or NaN$"
        with pytest.raises(ValueError, match=message):
            QpProblem((0.0, 5.0), (), ((0, 1, -1.0, 1.0), (0, 1, lo, hi)))

    def test_infinite_sides_are_no_constraint(self):
        problem = QpProblem((0.0, 5.0), ((-math.inf, None),), ((0, 1, -math.inf, math.inf),))
        assert len(problem.rows) == 3
        solution = solve_active_set(problem)
        assert solution == QpSolution((0.0, 5.0), (), 0, ())
        assert kkt_residual(problem, solution) == 0.0


class TestActiveSet:
    def test_feasible_center_returns_unchanged(self):
        problem = QpProblem(
            (0.3, 0.8), ((0.0, 1.0), (0.0, 1.0)), ((0, 1, -1.0, 1.0),)
        )
        solution = solve_active_set(problem)
        assert solution.point == (0.3, 0.8)
        assert solution.active_set == ()

    def test_single_variable_clips_to_bound(self):
        solution = solve_active_set(QpProblem((2.0,), ((0.0, 1.0),)))
        assert solution.point == (1.0,)
        assert solution.active_set == (1,)  # the upper-bound row

    def test_royal_instance_reaches_printed_turnouts(self, royal_text):
        problem = royal_problem(royal_text)
        solution = solve_active_set(problem)
        # order b,a,e,f,d,c; expected values in sixths of the voter total
        expected = {
            (0, 1): 6, (0, 2): 6, (0, 3): 6, (0, 4): 6, (0, 5): 6,
            (1, 2): 6, (1, 3): 6, (1, 4): Fraction(16, 3), (1, 5): Fraction(14, 3),
            (2, 3): 6, (2, 4): Fraction(16, 3), (2, 5): Fraction(14, 3),
            (3, 4): Fraction(16, 3), (3, 5): Fraction(14, 3),
            (4, 5): 4,
        }
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                assert solution.point[k] == pytest.approx(
                    float(expected[(i, j)] / 6), abs=1e-9
                )
                k += 1
        assert kkt_residual(problem, solution) <= 1e-9

    def test_equalities_handled_from_the_start(self):
        problem = QpProblem(
            (0.0, 5.0),
            ((2.0, 2.0), (None, None)),
            ((0, 1, 1.0, 1.0),),
        )
        solution = solve_active_set(problem)
        assert solution.point[0] == pytest.approx(2.0, abs=1e-12)
        assert solution.point[1] == pytest.approx(1.0, abs=1e-12)

    def test_redundant_consistent_equalities(self):
        # a chain of equal differences plus a redundant closing equality
        problem = QpProblem(
            (0.9, 0.1, 0.5),
            (),
            ((0, 1, 0.0, 0.0), (1, 2, 0.0, 0.0), (0, 2, 0.0, 0.0)),
        )
        solution = solve_active_set(problem)
        assert solution.point == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_infeasible_bounds_detected(self):
        problem = QpProblem(
            (0.0, 0.0), ((0.0, 1.0), (2.0, 3.0)), ((0, 1, 0.0, 0.0),)
        )
        with pytest.raises(Infeasible):
            solve_active_set(problem)

    def test_inconsistent_equalities_detected(self):
        problem = QpProblem(
            (0.0, 0.0, 0.0),
            (),
            ((0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 0.0, 0.0)),
        )
        with pytest.raises(Infeasible):
            solve_active_set(problem)

    @pytest.mark.parametrize("seed", range(25))
    def test_kkt_certificate_on_random_instances(self, seed):
        problem = random_feasible_problem(random.Random(seed))
        solution = solve_active_set(problem)
        assert kkt_residual(problem, solution) <= 1e-8

    def test_projection_is_idempotent(self):
        rng = random.Random(77)
        problem = random_feasible_problem(rng)
        first = solve_active_set(problem)
        again = solve_active_set(
            QpProblem(first.point, problem.bounds, problem.difference_constraints)
        )
        assert max(
            abs(a - b) for a, b in zip(first.point, again.point)
        ) <= 1e-9

    def test_projection_is_nonexpansive(self):
        rng = random.Random(78)
        problem = random_feasible_problem(rng)
        d = len(problem.center)
        other_center = tuple(c + rng.uniform(-0.5, 0.5) for c in problem.center)
        other = QpProblem(other_center, problem.bounds, problem.difference_constraints)
        pa = solve_active_set(problem).point
        pb = solve_active_set(other).point
        moved = math.dist(pa, pb)
        apart = math.dist(problem.center, other.center)
        assert moved <= apart + 1e-9

    def test_permutation_equivariance(self):
        rng = random.Random(79)
        problem = random_feasible_problem(rng, max_vars=8)
        d = len(problem.center)
        sigma = list(range(d))
        rng.shuffle(sigma)  # sigma[k] = new position of old variable k
        permuted = QpProblem(
            tuple(problem.center[sigma.index(k)] for k in range(d)),
            tuple(problem.bounds[sigma.index(k)] for k in range(d)),
            tuple(
                (sigma[i], sigma[j], lo, hi)
                for i, j, lo, hi in problem.difference_constraints
            ),
        )
        base = solve_active_set(problem).point
        moved = solve_active_set(permuted).point
        for k in range(d):
            assert moved[sigma[k]] == pytest.approx(base[k], abs=1e-9)


# The solutions of the profile programs, bit for bit.  How the working forest
# is stored and how rows are priced leave every float operation and row order,
# and so these values, unchanged.  Each entry: (n, variant, steps, active
# rows, then sha256 prefixes of the active set's repr and of the float.hex of
# the point and of the multipliers).
TRAJECTORIES = [
    (20, "main", 213, 182, "4c5a9dacb95aeb0e", "f2890a5459749da3", "fd77117c3ddda62a"),
    (20, "codual", 245, 173, "7af557dc7ac1bf35", "ead468a23157934f", "5930f86530a10197"),
    (20, "balanced", 294, 188, "86a394bb4be31a52", "ff9cc606e39d8e01", "d6b0503962dfef22"),
    (20, "margin-based", 126, 111, "c0f6dfaf81b2dbb0", "50cd2b6bcef95172", "128287cd3eed0f21"),
    (30, "main", 560, 427, "0174cc5d9b31896d", "cc678b17b8fe38fd", "2a8e4474fed08c57"),
    (30, "codual", 543, 431, "da739124759877d4", "7413900e15c783dc", "08850ecbcb3a0014"),
    (30, "balanced", 786, 434, "b8176a8e2dbe1ee7", "7932e46a34dbbba5", "d72616402479c790"),
    (30, "margin-based", 56, 55, "350878a12873444a", "1f72c9067c6a697b", "335caadb7a89b4e0"),
    (50, "main", 1679, 1213, "e7c23d1fbc756516", "6b4b853b4fdf3606", "06d378c0b6bb71cc"),
    (50, "codual", 1633, 1221, "523888ba620e083b", "e6e3cf8fed4e82ab", "b7144cff728248ca"),
    (50, "balanced", 2259, 1224, "f3d6d3592fe56e77", "d86cb08e468c3644", "28bd3aa59ea93354"),
    (50, "margin-based", 480, 444, "1e9390849bff6505", "abc95cc3f00a099e", "b736dba55fe2a5bb"),
    (80, "main", 4545, 3147, "e1022bdf144aa02b", "360510c9126cd9b3", "0419f95d787ef291"),
]


class TestTallyScale:
    """Turnout programs of the size a 20- to 50-candidate tally solves."""

    @pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (30, 2), (40, 3), (50, 4)])
    def test_random_matrix_programs(self, n, seed):
        problem = matrix_problem(random_matrix(random.Random(seed), n))
        assert len(problem.center) == n * (n - 1) // 2
        first = solve_active_set(problem)
        assert kkt_residual(problem, first) <= 1e-9
        assert solve_active_set(problem) == first

    def test_fifty_candidate_tally_program(self):
        problem = profile_problem(50, 500)
        assert len(problem.center) == 50 * 49 // 2
        first = solve_active_set(problem)
        assert kkt_residual(problem, first) <= 1e-9
        assert solve_active_set(problem) == first

    @pytest.mark.parametrize("n, n_ballots, n_rows", [(20, 2000, 614), (50, 500, 3890)])
    def test_rows_of_a_tally_program(self, n, n_ballots, n_rows):
        # The benchmark counts a program's rows as len(constraint_rows(p)),
        # and every row the solver reports active holds with equality.
        problem = profile_problem(n, n_ballots)
        assert len(constraint_rows(problem)) == problem.rows.rhs.size == n_rows
        solution = solve_active_set(problem)
        slacks = problem.rows.slacks(_padded(solution.point, len(problem.center)))
        assert np.abs(slacks[list(solution.active_set)]).max() <= 1e-9

    @pytest.mark.parametrize(
        "n, variant, iterations, n_active, active, point, multipliers", TRAJECTORIES
    )
    def test_trajectory_is_pinned(
        self, n, variant, iterations, n_active, active, point, multipliers
    ):
        def digest(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        ballots = {20: 2000, 30: 1000, 50: 500, 80: 300}[n]
        solution = solve_active_set(profile_problem(n, ballots, Variant(variant)))
        assert (solution.iterations, len(solution.active_set)) == (iterations, n_active)
        assert digest(repr(solution.active_set)) == active
        assert digest(" ".join(map(float.hex, solution.point))) == point
        assert digest(" ".join(map(float.hex, solution.multipliers))) == multipliers

    @pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (30, 2)])
    def test_row_arrays_match_reference(self, n, seed):
        problem = matrix_problem(random_matrix(random.Random(seed), n))
        assert dense_row_arrays(problem) == reference_rows(problem)


class TestForest:
    """One pin per branch of the working-set forest.  Node d, one past the
    last variable, is the zero node that bound rows end at."""

    @pytest.fixture
    def cuts(self, monkeypatch):
        """Records (row, cut from the zero node's tree, size of the part cut
        off) for every dropped working row."""
        seen = []
        cut = _Forest.cut

        def spy(forest, i, j):
            tree = forest.trees[forest.tree[i]]
            child = max(tree[_NODE].index(i), tree[_NODE].index(j))
            row = tree[_ROW][child]
            seen.append((row, tree[_NODE][0] == forest.zero, tree[_SIZE][child]))
            cut(forest, i, j)

        monkeypatch.setattr(_Forest, "cut", spy)
        return seen

    @staticmethod
    def solve_and_check(problem: QpProblem) -> QpSolution:
        solution = solve_active_set(problem)
        assert kkt_residual(problem, solution) <= 1e-12
        oracle = solve_dykstra(problem)
        assert max(abs(a - b) for a, b in zip(solution.point, oracle.point)) <= 1e-6
        return solution

    def test_dependent_row_through_zero_node_drops_a_bound(self, cuts):
        # Rows: 0: x0 >= 0, 1: x1 >= 1, 2: x1 - x0 >= -10, 3: x1 - x0 <= 0.5.
        # Both bounds enter first; then row 3 closes the cycle x0, d, x1, so
        # it is dependent, and the dual step drops bound row 0.
        problem = QpProblem((-1.0, 0.0), ((0.0, None), (1.0, None)), ((1, 0, -10.0, 0.5),))
        solution = self.solve_and_check(problem)
        assert cuts == [(0, True, 1)]
        assert solution.point == pytest.approx((0.5, 1.0), abs=1e-15)
        assert solution.active_set == (1, 3)
        assert solution.multipliers == pytest.approx((2.5, 1.5), abs=1e-15)
        assert solution.iterations == 4

    def test_drop_cuts_two_nodes_off_the_zero_tree(self, cuts):
        # x1 >= 1.5 hangs x1 on the zero node, x0 >= 1 hangs x0, and
        # x1 - x2 <= 0.5 hangs x2 under x1.  Then x1 - x0 >= 1 is dependent
        # and drops x1 >= 1.5, which cuts {x1, x2} off the zero node's tree;
        # the next step moves that tree by its mean.
        problem = QpProblem(
            (-1.0, -2.0, -1.0),
            ((1.0, None), (1.5, None), (None, None)),
            ((1, 2, -1.0, 0.5), (1, 0, 1.0, 1.5)),
        )
        solution = self.solve_and_check(problem)
        assert cuts == [(1, True, 2)]
        assert solution.point == pytest.approx((1.0, 2.0, 1.5), abs=1e-15)
        assert solution.active_set == (0, 3, 4)

    def test_dependent_row_inside_a_tree_of_equalities(self, cuts):
        # Row 0 is the equality x0 - x2 = -0.5; rows 3 and 5 then hang x1
        # and x3 on its tree.  Row 1 (x1 - x3 >= 0.5) has both ends in that
        # tree; its path runs through the equality, which never blocks, and
        # the dual step drops row 3.
        problem = QpProblem(
            (-1.0, -2.0, -1.0, -2.0),
            (),
            ((0, 2, -0.5, -0.5), (1, 3, 0.5, 1.0), (1, 2, -0.5, 1.0), (3, 0, 0.0, 2.0)),
        )
        solution = self.solve_and_check(problem)
        assert cuts == [(3, False, 1)]
        assert solution.point == pytest.approx((-1.75, -1.25, -1.25, -1.75), abs=1e-15)
        assert solution.active_set == (0, 1, 5)

    def test_tied_blocking_rows_drop_in_direction_order(self, cuts):
        # Rows 2 (x1 - x0 >= 0), 0 (x0 >= 0) and 1 (x2 >= 0.25) enter in
        # that order, leaving x = (0, 0, 0.25) and multipliers 1 on rows 0
        # and 2.  Row 4 (x1 - x2 >= -0.125) is then dependent: its path to
        # the zero node runs through rows 2 and 0, which block at the same
        # ratio 1, exactly.  Row 0, nearer the zero node, comes first in
        # ``direction``'s order: it drops and cuts {x0, x1} off, and row 2,
        # now at multiplier 0, drops next.  Either choice ends at this point.
        problem = QpProblem(
            (0.0, -1.0, 0.0),
            ((0.0, None), (None, None), (0.25, None)),
            ((1, 0, 0.0, 10.0), (1, 2, -0.125, 10.0)),
        )
        solution = solve_active_set(problem)
        assert cuts == [(0, True, 2), (2, False, 1)]
        assert solution.point == (0.0, 0.125, 0.25)
        assert solution.active_set == (1, 4)
        assert solution.multipliers == (1.375, 1.125)
        assert kkt_residual(problem, solution) <= 1e-12
        oracle = solve_dykstra(problem)
        assert max(abs(a - b) for a, b in zip(solution.point, oracle.point)) <= 1e-9

    def test_violated_row_across_equalities_only_is_infeasible(self):
        # x0 = x1 = x2 by equalities leaves x0 - x2 >= 1e-9 no room: the
        # row's ends share a tree, and no inequality on its path can drop.
        problem = QpProblem(
            (0.0, 1.0, 2.0), (), ((0, 1, 0.0, 0.0), (1, 2, 0.0, 0.0), (0, 2, 1e-9, 1.0))
        )
        with pytest.raises(Infeasible, match="constraint cannot be reached"):
            solve_active_set(problem)


def assert_layout(forest: _Forest, rows) -> None:
    """Every tree is a preorder of its nodes with true subtree sizes and
    weights, each node below the root holds the row to its parent and that
    row's sign as a flow out of the subtree, and each node's tree id names
    its tree; a node in no built tree is alone under its own id.  The tree
    rows are the working rows, and pricing reads -inf on them and the
    equalities."""
    ends, signs = list(zip(rows.i.tolist(), rows.j.tolist())), rows.sign.tolist()
    placed, linked = [], []
    for k, tree in enumerate(forest.trees):
        if tree is None:
            continue
        nodes, size, row, sign, weight = tree
        assert len(nodes) == len(size) == len(row) == len(sign) == len(weight) == size[0]
        # Exact sums: the layout tests weigh variables by integers.
        prefix = [0.0, *accumulate(forest.weight[v] for v in nodes)]
        assert weight == [prefix[q + size[q]] - prefix[q] for q in range(len(nodes))]
        assert [forest.tree[v] for v in nodes] == [k] * len(nodes)
        assert (nodes[0] == forest.zero) == (k == forest.zero)
        open_ancestors = [0]
        for q in range(1, len(nodes)):
            while open_ancestors[-1] + size[open_ancestors[-1]] <= q:
                open_ancestors.pop()
            parent = open_ancestors[-1]
            assert size[q] >= 1 and q + size[q] <= parent + size[parent]
            assert sorted(ends[row[q]]) == sorted((nodes[q], nodes[parent]))
            flow = signs[row[q]] if ends[row[q]][0] == nodes[q] else -signs[row[q]]
            assert sign[q] == flow
            open_ancestors.append(q)
        placed += nodes
        linked += row[1:]
    assert len(placed) == len(set(placed))
    alone = sorted(set(range(forest.zero + 1)) - set(placed))
    assert [(forest.tree[v], forest.trees[v]) for v in alone] == [(v, None) for v in alone]
    assert sorted(linked) == np.flatnonzero(forest.working).tolist()
    priced_out = rows.eq | forest.working
    assert np.array_equal(forest.floor, np.where(priced_out, -math.inf, rows.rhs))


class TestLayoutAfterEveryStep:
    """``link`` and ``cut`` rewrite trees in place; the layout holds after
    each of them, on a tally program and on random ones."""

    @pytest.fixture
    def checked(self, monkeypatch):
        steps = []

        def checking(method):
            def run(forest, *args):
                method(forest, *args)
                assert_layout(forest, forest.rows)
                steps.append(method.__name__)

            return run

        for name in ("link", "cut"):
            monkeypatch.setattr(_Forest, name, checking(getattr(_Forest, name)))
        return steps

    def test_fifty_candidate_tally_program(self, checked):
        solve_active_set(profile_problem(50, 500))
        assert checked.count("link") > 500 and checked.count("cut") > 100

    def test_random_feasible_problems(self, checked):
        for seed in range(50):
            solve_active_set(random_feasible_problem(random.Random(seed)))
        assert checked.count("link") > 150 and checked.count("cut") >= 5

    def test_weighted_problems(self, checked):
        # Integer weights keep every subtree weight exact.
        for seed in range(50):
            rng = random.Random(seed)
            solve_active_set(with_weights(random_feasible_problem(rng), rng))
        solve_active_set(profile_block_problem(50, 500))
        assert checked.count("link") > 400 and checked.count("cut") >= 20


def first_spanning_rows(problem: QpProblem) -> list[int]:
    """The equality rows that close no cycle with the rows before them."""
    rows = problem.rows
    parts = [{v} for v in range(len(problem.center) + 1)]
    spanning = []
    for r in np.flatnonzero(rows.eq).tolist():
        a = next(p for p in parts if rows.i[r] in p)
        b = next(p for p in parts if rows.j[r] in p)
        if a is not b:
            a |= b
            parts.remove(b)
            spanning.append(r)
    return spanning


class TestEqualityInstall:
    """The equality rows enter in one pass, as the projection onto their
    affine set: one tree per component of their graph."""

    @staticmethod
    def solve(problem: QpProblem) -> QpSolution:
        solution = solve_active_set(problem)
        assert kkt_residual(problem, solution) <= 1e-12
        return solution

    def test_component_takes_the_mean(self):
        # x1 = x2 and x0 = x2 + 0.2: all three move to x2 = mean(0.7, 0.1, 0.5).
        problem = QpProblem((0.9, 0.1, 0.5), (), ((0, 1, 0.2, 0.2), (1, 2, 0.0, 0.0)))
        solution = self.solve(problem)
        x2 = 1.3 / 3
        assert solution.point == pytest.approx((x2 + 0.2, x2, x2), abs=1e-15)
        assert solution.active_set == (0, 1)
        assert solution.multipliers == pytest.approx((x2 - 0.7, 0.5 - x2), abs=1e-15)
        assert solution.iterations == 2

    def test_zero_node_tree_is_fixed_by_its_offsets(self):
        # x0 = 0.5 ties the chain to the zero node, so the center does not
        # move it: x1 = x0 + 0.25 and x2 = x1 - 1.
        problem = QpProblem(
            (2.0, 0.0, 5.0),
            ((0.5, 0.5), (None, None), (None, None)),
            ((1, 0, 0.25, 0.25), (2, 1, -1.0, -1.0)),
        )
        solution = self.solve(problem)
        assert solution.point == pytest.approx((0.5, 0.75, -0.25), abs=1e-15)
        assert solution.active_set == (0, 1, 2)
        assert solution.multipliers == pytest.approx((-6.0, -4.5, -5.25), abs=1e-15)

    @pytest.mark.parametrize("center, multiplier", [(2.0, -1.5), (-1.0, 1.5)])
    def test_bound_equality_multiplier_takes_the_side_of_the_center(self, center, multiplier):
        # Row 0 reads x0 >= 0.5 held as an equality: its multiplier is
        # x0 - center, negative when the center lies above the bound.
        solution = self.solve(QpProblem((center,), ((0.5, 0.5),)))
        assert solution.point == (0.5,)
        assert solution.multipliers == pytest.approx((multiplier,), abs=1e-15)

    def test_consistent_cycle_is_skipped(self):
        # Row 2 closes the cycle 0, 1, 2 and holds where rows 0 and 1 do
        # (up to the rounding of 0.1 + 0.2); it enters no working set but
        # counts one step.
        problem = QpProblem(
            (0.0, 0.0, 0.0), (), ((0, 1, 0.1, 0.1), (1, 2, 0.2, 0.2), (0, 2, 0.3, 0.3))
        )
        solution = self.solve(problem)
        shift = 0.4 / 3
        assert solution.point == pytest.approx((shift, shift - 0.1, shift - 0.3), abs=1e-15)
        assert solution.active_set == (0, 1)
        assert solution.iterations == 3

    @pytest.mark.parametrize(
        "problem",
        [
            QpProblem((0.0, 0.0, 0.0), (), ((0, 1, 0.1, 0.1), (1, 2, 0.2, 0.2), (0, 2, 0.4, 0.4))),
            QpProblem((0.0, 0.0), ((0.5, 0.5), (1.0, 1.0)), ((0, 1, 0.0, 0.0),)),
        ],
        ids=["among-variables", "through-the-zero-node"],
    )
    def test_inconsistent_cycle_is_infeasible(self, problem):
        with pytest.raises(Infeasible, match="^inconsistent equality constraints$"):
            solve_active_set(problem)

    @pytest.mark.parametrize("seed", range(20))
    def test_equality_dense_programs(self, seed):
        problem = equality_dense_problem(random.Random(seed))
        solution = self.solve(problem)
        oracle = solve_dykstra(problem)
        assert max(abs(a - b) for a, b in zip(solution.point, oracle.point)) <= 1e-6

    def test_trees_after_the_install(self):
        # The programs close cycles and reach the zero node, and the forest
        # holds exactly the rows that close no cycle, in a valid layout.
        dependent = zero_trees = 0
        for seed in range(40):
            problem = equality_dense_problem(random.Random(seed))
            rows = problem.rows
            eq = np.flatnonzero(rows.eq)
            d = len(problem.center)
            forest = _Forest(d, rows)
            forest.span(eq, _padded(problem.center, d), [0.0] * len(rows))
            linked = np.flatnonzero(forest.working).tolist()
            assert linked == first_spanning_rows(problem)
            assert_layout(forest, rows)
            dependent += eq.size - len(linked)
            zero_trees += forest.trees[d] is not None
        assert dependent > 40
        assert zero_trees > 10


def with_weights(problem: QpProblem, rng: random.Random) -> QpProblem:
    """The problem with integer weights from 1 to 6."""
    weights = tuple(float(rng.randint(1, 6)) for _ in problem.center)
    return QpProblem(problem.center, problem.bounds, problem.difference_constraints, weights)


def profile_block_problem(n: int, n_ballots: int, variant: Variant = Variant.MAIN) -> QpProblem:
    """The program over blocks of tied positions that a tally of the profile
    of ``profile_problem`` solves."""
    return turnout_qp(*tally_stages(profile_matrix(n, n_ballots), variant))


class TestWeights:
    """Each weighted expression of the solvers, in a program small enough to
    solve by hand; ignoring a weight changes every answer."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((1.0,), "1 weights for 2 variables"),
            ((1.0, 0.0), "weight of variable 1 is 0.0, not finite and positive"),
            ((-1.0, 1.0), "weight of variable 0 is -1.0, not finite and positive"),
            ((1.0, math.nan), "weight of variable 1 is nan, not finite and positive"),
            ((math.inf, 1.0), "weight of variable 0 is inf, not finite and positive"),
        ],
    )
    def test_weights_must_be_finite_and_positive(self, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QpProblem((0.0, 5.0), (), (), weights)

    def test_residual_reads_the_weighted_gradient(self):
        # x >= 1 from the center 0 under weight 4: the bound's multiplier is
        # 4 (x - 0), not x - 0.
        problem = QpProblem((0.0,), ((1.0, None),), (), (4.0,))
        assert solve_active_set(problem) == QpSolution((1.0,), (0,), 1, (4.0,))
        assert kkt_residual(problem, QpSolution((1.0,), (0,), 1, (4.0,))) == 0.0
        assert kkt_residual(problem, QpSolution((1.0,), (0,), 1, (1.0,))) == 3.0
        assert reference_kkt_residual(problem, QpSolution((1.0,), (0,), 1, (1.0,))) == 3.0

    def test_a_slab_splits_its_correction_by_inverse_weights(self):
        # x0 - x1 >= 1 from (0, 0) under weights 1 and 3 moves x0 three
        # times as far as x1; the multiplier is 1 (0.75 - 0).
        problem = QpProblem((0.0, 0.0), (), ((0, 1, 1.0, 2.0),), (1.0, 3.0))
        assert solve_dykstra(problem).point == (0.75, -0.25)
        solution = solve_active_set(problem)
        assert solution.point == pytest.approx((0.75, -0.25), abs=1e-15)
        assert solution.active_set == (0,)
        assert solution.multipliers == pytest.approx((0.75,), abs=1e-15)
        assert kkt_residual(problem, solution) <= 1e-15

    def test_span_takes_the_weighted_mean(self):
        # x0 = x1 from the centers 0 and 4 under weights 1 and 3 meet at 3,
        # and the equality's multiplier is 1 (3 - 0).
        problem = QpProblem((0.0, 4.0), (), ((0, 1, 0.0, 0.0),), (1.0, 3.0))
        assert solve_active_set(problem) == QpSolution((3.0, 3.0), (0,), 1, (3.0,))

    def test_span_weighs_the_multipliers_of_the_zero_nodes_tree(self):
        # x0 = 0.5 and x1 = x0 + 0.25 fix the point; stationarity at x1 reads
        # 2 (0.75 - 0) = 1.5 for the difference row, and at x0
        # 4 (0.5 - 2) = -6 = bound multiplier - 1.5.
        problem = QpProblem(
            (2.0, 0.0), ((0.5, 0.5), (None, None)), ((1, 0, 0.25, 0.25),), (4.0, 2.0)
        )
        assert solve_active_set(problem) == QpSolution((0.5, 0.75), (0, 1), 2, (-4.5, 1.5))

    @pytest.mark.parametrize("seed", range(30))
    def test_weighted_programs_agree_with_dykstra(self, seed):
        rng = random.Random(seed)
        build = equality_dense_problem if seed % 2 else random_feasible_problem
        problem = with_weights(build(rng), rng)
        solution = solve_active_set(problem)
        assert kkt_residual(problem, solution) <= 1e-9
        assert kkt_residual(problem, solution) == pytest.approx(
            reference_kkt_residual(problem, solution), abs=1e-12
        )
        oracle = solve_dykstra(problem)
        assert max(abs(a - b) for a, b in zip(solution.point, oracle.point)) <= 1e-6


class TestBlockProgram:
    """``turnout_qp`` solves the program over blocks of tied positions; its
    expanded point is the projection of the program over every pair."""

    def test_untied_program_is_the_pair_program(self):
        untied = 0
        for seed in range(40):
            rng = random.Random(seed)
            matrix = random_matrix(rng, rng.randint(3, 8))
            for variant in Variant:
                t, im = tally_stages(matrix, variant)
                if len(im.blocks) < matrix.n:
                    continue
                untied += 1
                problem, pairs = turnout_qp(t, im), pair_turnout_qp(t, im)
                assert problem.weights == (1.0,) * len(pairs.center)
                assert (problem.center, problem.bounds, problem.difference_constraints) == (
                    pairs.center, pairs.bounds, pairs.difference_constraints
                )
        assert untied >= 20

    def test_blocks_of_a_tied_order(self):
        # Positions {0, 1} and {2, 3, 4}, joined by the margin 3/7.
        n, den = 5, 7
        msigma = np.zeros((n, n), dtype=np.int64)
        k = np.arange(n - 1)
        msigma[k, k + 1] = [0, 3, 0, 0]
        msigma -= msigma.T
        im = IntermediateMargins(AdmissibleOrder((4, 2, 0, 1, 3)), msigma, den)
        rng = random.Random(5)
        t = np.zeros((n, n), dtype=np.int64)
        for x, y in combinations(range(n), 2):
            t[x, y] = t[y, x] = rng.randint(0, den)
        seq = im.order.sequence
        assert im.blocks == (0, 2)

        def mean(rows, cols, pairs):
            total = sum(int(t[seq[i], seq[j]]) for i in rows for j in cols if i < j)
            return float(Fraction(total, den * pairs))

        problem = turnout_qp(t, im)
        # The block pair, then the inner pairs of each block.
        assert problem.weights == (6.0, 1.0, 3.0)
        assert problem.center == (
            mean((0, 1), (2, 3, 4), 6), mean((0,), (1,), 1), mean((2, 3), (3, 4), 3)
        )
        assert problem.bounds == ((3 / 7, 1.0), (0.0, 1.0), (0.0, 1.0))
        assert problem.difference_constraints == ((1, 0, 0.0, 3 / 7), (0, 2, 0.0, 3 / 7))
        # A unanimous margin fixes the block pair's turnout at 1.
        msigma[1, 2], msigma[2, 1] = den, -den
        unanimous = IntermediateMargins(im.order, msigma, den)
        assert turnout_qp(t, unanimous).bounds[0] == (1.0, 1.0)
        tsigma = project_turnouts(t, unanimous).tsigma
        assert (tsigma[:2, 2:] == 1.0).all() and (tsigma[2:, :2] == 1.0).all()

    @staticmethod
    def assert_expands_to_the_pair_solution(t, im):
        pt = project_turnouts(t, im)
        n = len(im.order.sequence)
        rows, cols = np.triu_indices(n, 1)
        pairs = solve_active_set(pair_turnout_qp(t, im)).point
        assert np.abs(pt.tsigma[rows, cols] - pairs).max(initial=0.0) <= 1e-13
        assert (pt.tsigma == pt.tsigma.T).all() and not np.diagonal(pt.tsigma).any()

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", [20, 30, 50, 80])
    def test_profile_programs(self, n, variant):
        ballots = {20: 2000, 30: 1000, 50: 500, 80: 300}[n]
        t, im = tally_stages(profile_matrix(n, ballots), variant)
        self.assert_expands_to_the_pair_solution(t, im)

    def test_random_matrices(self):
        tied = 0
        for seed in range(200):
            rng = random.Random(seed)
            matrix = random_matrix(rng, rng.randint(3, 9))
            for variant in Variant:
                t, im = tally_stages(matrix, variant)
                tied += len(im.blocks) < matrix.n
                self.assert_expands_to_the_pair_solution(t, im)
        assert tied >= 400


class TestRows:
    @pytest.mark.parametrize("seed", range(10))
    def test_row_order_and_residual_match_loop_reference(self, seed):
        problem = random_feasible_problem(random.Random(seed))
        assert dense_row_arrays(problem) == reference_rows(problem)
        solution = solve_active_set(problem)
        assert kkt_residual(problem, solution) == pytest.approx(
            reference_kkt_residual(problem, solution), abs=1e-15
        )

    def test_residual_reads_every_law(self):
        problem = QpProblem((0.0, 0.0), ((0.0, 1.0), (None, None)), ((0, 1, 0.5, 0.5),))
        point = (0.25, -0.5)  # lower bound met, difference off by 0.25
        assert kkt_residual(problem, QpSolution(point, (), 0)) == pytest.approx(0.5)
        # a negative inequality multiplier counts, a signed equality one does not
        solution = QpSolution((0.5, 0.0), (0, 2), 0, (-0.25, -0.5))
        assert kkt_residual(problem, solution) == pytest.approx(
            reference_kkt_residual(problem, solution), abs=1e-15
        )

    def test_residual_reads_complementary_slackness(self):
        # x = 0.5 is feasible, and stationary under the multiplier 0.5 of the
        # bound row x >= -1; but that row is 1.5 from tight, and the
        # projection of the center 0 is 0.
        problem = QpProblem((0.0,), ((-1.0, None),))
        solution = QpSolution((0.5,), (0,), 1, (0.5,))
        assert kkt_residual(problem, solution) == 1.5
        assert reference_kkt_residual(problem, solution) == 1.5

    @pytest.mark.parametrize(
        "solution",
        [
            QpSolution((math.nan, 5.0), (), 0),
            QpSolution((0.0, math.nan), (), 0),
            QpSolution((2.5, 2.5), (0,), 0, (math.nan,)),
        ],
        ids=["first-coordinate", "second-coordinate", "multiplier"],
    )
    def test_residual_of_a_nan_accepts_no_bound(self, solution):
        # Python's max skips NaN: max(0.0, nan) is 0.0.
        problem = QpProblem((0.0, 5.0), (), ((0, 1, 0.0, 1.0),))
        assert kkt_residual(problem, solution) == math.inf

    def test_no_rows(self):
        problem = QpProblem((1.0, -2.0))
        assert len(constraint_rows(problem)) == 0
        solution = solve_active_set(problem)
        assert solution.point == (1.0, -2.0)
        assert kkt_residual(problem, solution) == 0.0


class TestDykstra:
    def test_zero_constraints_is_identity(self):
        solution = solve_dykstra(QpProblem((1.5, -2.0)))
        assert solution.point == (1.5, -2.0)

    def test_trivial_cases_match_active_set(self, royal_text):
        for problem in (
            QpProblem((2.0,), ((0.0, 1.0),)),
            QpProblem((0.3, 0.8), ((0.0, 1.0), (0.0, 1.0)), ((0, 1, -1.0, 1.0),)),
            royal_problem(royal_text),
        ):
            a = solve_active_set(problem)
            b = solve_dykstra(problem)
            assert max(abs(x - y) for x, y in zip(a.point, b.point)) <= 1e-6

    def test_first_hundred_qp_agreement_programs_keep_their_points(self, monkeypatch):
        # Recorded from the solver that kept a full-length increment per set;
        # the two-number increments must give the same floats, bit for bit.
        # The tally programs among them are the ones over every position
        # pair, so the pin also shows that unit weights change no float.
        problems = []
        monkeypatch.setattr(verify, "check_qp_agreement", problems.append)
        monkeypatch.setattr(verify, "turnout_qp", pair_turnout_qp)
        for case in range(100):  # the cases of `llull verify --suite qp-agreement --seed 1`
            verify._case_qp_agreement(random.Random(f"1:qp-agreement:{case}"))
        solutions = [solve_dykstra(problem) for problem in problems]
        assert [s.iterations for s in solutions] == QP_AGREEMENT_SWEEPS
        points = json.dumps([[x.hex() for x in s.point] for s in solutions])
        assert hashlib.sha256(points.encode()).hexdigest() == (
            "e8e7d95b00cae31207b408b792b42ad0299c2a5933dfba1d75690d99a69146c1"
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_cross_validation_random(self, seed):
        problem = random_feasible_problem(random.Random(1000 + seed))
        a = solve_active_set(problem)
        b = solve_dykstra(problem)
        assert max(abs(x - y) for x, y in zip(a.point, b.point)) <= 1e-6


class TestJson:
    def test_problem_roundtrip(self):
        for weights in ((), (3.0, 0.5)):
            problem = QpProblem(
                (1.0, 2.0), ((0.0, None), (None, None)), ((0, 1, -1.0, 0.5),), weights
            )
            text = problem_to_json(problem)
            assert problem_from_json(text) == problem
            assert hash(problem_from_json(text)) == hash(problem)
            # The rows are derived: no report, comparison or repr shows them;
            # the weights are a datum of the problem.
            keys = ["bounds", "center", "difference_constraints", "weights"]
            assert sorted(json.loads(text)) == keys
            assert json.loads(text)["weights"] == list(weights)
            assert "rows" not in repr(problem)
