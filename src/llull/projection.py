"""Projection of the Llull matrix onto its structured image.

Given variant margins and an admissible order, this runs the three stages
that turn raw turnouts into projected scores: rectangle-minimized margins,
the nearest-point turnout program, and the interval construction whose
endpoints are the projected scores.  Rationals cross over to binary64 at the
entry of the quadratic program.  ``project_details`` is the one place that
composes these stages with the closures and the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .closures import (
    IndirectScores,
    Variant,
    VariantMargins,
    indirect_scores,
    margin_completion,
    variant_margins,
)
from .errors import LawViolation
from .matrix import Grid, LlullMatrix, turnouts
from .ordering import AdmissibleOrder, admissible_order
from .qp import QpProblem, QpSolution, solve_active_set

# Float slack of the laws checked after the turnout program.
LAW_TOL = 1e-9


@dataclass(frozen=True)
class IntermediateMargins:
    """Rectangle minimum of the variant margins over the admissible order.

    ``msigma[i][j]`` is indexed by order position, antisymmetric, with the
    value for i < j being the minimum margin over all pairs (p, q) with
    p at-or-before i and q at-or-after j.
    """

    order: AdmissibleOrder
    msigma: Grid

    @property
    def superdiagonal(self) -> tuple[Fraction, ...]:
        n = len(self.msigma)
        return tuple(self.msigma[i][i + 1] for i in range(n - 1))


def intermediate_margins(vm: VariantMargins, xi: AdmissibleOrder) -> IntermediateMargins:
    seq = xi.sequence
    n = len(seq)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n - 1, i, -1):
            best = vm.m[seq[i]][seq[j]]
            if i > 0 and grid[i - 1][j] < best:
                best = grid[i - 1][j]
            if j < n - 1 and grid[i][j + 1] < best:
                best = grid[i][j + 1]
            grid[i][j] = best
    for i in range(n):
        for j in range(i):
            grid[i][j] = -grid[j][i]
    return IntermediateMargins(xi, tuple(tuple(row) for row in grid))


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    """Variable index of each position pair i < j, in ``combinations`` order."""
    return {pair: k for k, pair in enumerate(combinations(range(n), 2))}


def turnout_qp(t: Grid, im: IntermediateMargins) -> QpProblem:
    """Build the nearest-point program for the intermediate turnouts.

    Variables are unordered position pairs; the ordered-pair objective of
    the tally just doubles every term, so the minimizer is unchanged.
    """
    seq = im.order.sequence
    n = len(seq)
    pairs = _pair_index(n)
    center = [0.0] * len(pairs)
    for (i, j), k in pairs.items():
        center[k] = float(t[seq[i]][seq[j]])
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * len(pairs)
    diffs: list[tuple[int, int, float, float]] = []
    for i, margin in enumerate(im.superdiagonal):
        m = float(margin)
        bounds[pairs[(i, i + 1)]] = (m, 1.0)
        for z in range(n):
            if z in (i, i + 1):
                continue
            upper = pairs[(min(i, z), max(i, z))]
            lower = pairs[(min(i + 1, z), max(i + 1, z))]
            diffs.append((upper, lower, 0.0, m))
    return QpProblem(tuple(center), tuple(bounds), tuple(diffs))


@dataclass(frozen=True)
class ProjectedTurnouts:
    """Optimal turnouts, symmetric and indexed by order position."""

    tsigma: tuple[tuple[float, ...], ...]
    solution: QpSolution


def project_turnouts(t: Grid, im: IntermediateMargins) -> ProjectedTurnouts:
    n = len(im.order.sequence)
    solution = solve_active_set(turnout_qp(t, im))
    grid = [[0.0] * n for _ in range(n)]
    for (i, j), x in zip(combinations(range(n), 2), solution.point):
        grid[i][j] = grid[j][i] = x
    return ProjectedTurnouts(tuple(tuple(row) for row in grid), solution)


@dataclass(frozen=True)
class ScoreInterval:
    lo: float
    hi: float

    @property
    def center(self) -> float:
        return (self.lo + self.hi) / 2.0


def build_intervals(pt: ProjectedTurnouts, im: IntermediateMargins) -> tuple[ScoreInterval, ...]:
    """Superdiagonal intervals ((tau - m) / 2, (tau + m) / 2).

    Verifies the facts the interval-union step relies on: each interval
    sits inside [0, 1], consecutive ones overlap, and centers do not
    increase along the order.
    """
    out = []
    for i, margin in enumerate(im.superdiagonal):
        tau = pt.tsigma[i][i + 1]
        m = float(margin)
        out.append(ScoreInterval((tau - m) / 2.0, (tau + m) / 2.0))
    for i, gamma in enumerate(out):
        if gamma.lo < -LAW_TOL or gamma.hi > 1 + LAW_TOL or gamma.lo > gamma.hi + LAW_TOL:
            raise LawViolation(
                f"interval range law fails: interval {i} is [{gamma.lo}, {gamma.hi}]"
            )
        if i > 0:
            prev = out[i - 1]
            if gamma.hi < prev.lo - LAW_TOL or gamma.center > prev.center + LAW_TOL:
                raise LawViolation(f"intervals {i - 1} and {i} violate the overlap law")
    return tuple(out)


@dataclass(frozen=True)
class ProjectedMatrix:
    """Projected scores pi, indexed by candidate like the input matrix."""

    pi: tuple[tuple[float, ...], ...]
    order: AdmissibleOrder

    @property
    def n(self) -> int:
        return len(self.pi)

    def margin(self, x: int, y: int) -> float:
        return self.pi[x][y] - self.pi[y][x]

    def turnout(self, x: int, y: int) -> float:
        return self.pi[x][y] + self.pi[y][x]

    def check_structure(self) -> None:
        """Assert the structural inequalities of the projected matrix."""
        tol = LAW_TOL
        seq = self.order.sequence
        n = len(seq)
        pi, mg, to = self.pi, self.margin, self.turnout
        for i in range(n):
            for j in range(i + 1, n):
                x, y = seq[i], seq[j]
                if pi[x][y] < pi[y][x] - tol:
                    raise LawViolation(
                        "order law fails: projected scores disagree with the order"
                    )
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


def projected_scores(intervals: tuple[ScoreInterval, ...], xi: AdmissibleOrder) -> ProjectedMatrix:
    """Endpoints of interval unions along the order, as a score matrix.

    Computed by running maxima of the upper ends and running minima of the
    lower ends; the interval-union reading gives the same numbers because
    consecutive intervals overlap.
    """
    seq = xi.sequence
    n = len(seq)
    pi = [[0.0] * n for _ in range(n)]
    for i in range(n):
        hi = -1.0
        lo = 2.0
        for j in range(i + 1, n):
            hi = max(hi, intervals[j - 1].hi)
            lo = min(lo, intervals[j - 1].lo)
            pi[seq[i]][seq[j]] = hi
            pi[seq[j]][seq[i]] = lo
    return ProjectedMatrix(tuple(tuple(row) for row in pi), xi)


@dataclass(frozen=True)
class ProjectionDetails:
    """Every intermediate produced on the way to the projected scores."""

    matrix: LlullMatrix  # as given
    scores: IndirectScores
    vm: VariantMargins
    xi: AdmissibleOrder
    im: IntermediateMargins
    t: Grid  # turnouts of the margin-completed matrix for the margin-based variant
    pt: ProjectedTurnouts
    intervals: tuple[ScoreInterval, ...]
    pm: ProjectedMatrix


def project_details(
    matrix: LlullMatrix,
    variant: Variant = Variant.MAIN,
    xi: AdmissibleOrder | None = None,
) -> ProjectionDetails:
    """Run steps 2 to 5: closures, order, rectangle margins, turnout program
    and intervals, then check the laws of the projected scores.

    The margin-based variant runs every step on the margin-completed matrix.
    ``xi`` fixes the admissible order; by default it is sorted by Copeland
    rank.
    """
    effective = margin_completion(matrix) if variant is Variant.MARGIN_BASED else matrix
    scores = indirect_scores(effective, variant)
    vm = variant_margins(scores)
    if xi is None:
        xi = admissible_order(vm, matrix.candidates)
    im = intermediate_margins(vm, xi)
    t = turnouts(effective.scores)
    pt = project_turnouts(t, im)
    intervals = build_intervals(pt, im)
    pm = projected_scores(intervals, xi)
    pm.check_structure()
    return ProjectionDetails(matrix, scores, vm, xi, im, t, pt, intervals, pm)
