"""Projection of the Llull matrix onto its structured image.

Given variant margins and an admissible order, this runs the three stages
that turn raw turnouts into projected scores: rectangle-minimized margins,
the nearest-point turnout program, and the interval construction whose
endpoints are the projected scores.  The exact stages run on the matrix's
integer numerators over its denominator D (``matrix.w`` over ``matrix.den``);
they cross over to binary64 at the entry of the quadratic program, as
Python-int divisions by D (times a block pair's count of position pairs),
which round correctly.  From the program's point
on, each stage is one float64 array: the projected turnouts ``tsigma`` and
the intervals (rows ``[lo, hi]``) by order position, and the projected
scores ``pi`` by candidate.  ``project_details`` is the one place that
composes these stages with the closures and the order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closures import (
    IndirectScores,
    Variant,
    VariantMargins,
    indirect_scores,
    margin_completion,
    variant_margins,
)
from .errors import LawViolation
from .matrix import LlullMatrix, turnouts
from .ordering import AdmissibleOrder, _check_admissible, admissible_order
from .qp import QpProblem, QpSolution, solve_active_set

# Float slack of the laws checked after the turnout program.
LAW_TOL = 1e-9


@dataclass(frozen=True)
class IntermediateMargins:
    """Rectangle minimum of the variant margins over the admissible order,
    as numerators over ``den``.

    ``msigma[i, j]`` is indexed by order position, antisymmetric, with the
    value for i < j being the minimum margin over all pairs (p, q) with
    p at-or-before i and q at-or-after j.
    """

    order: AdmissibleOrder
    msigma: np.ndarray
    den: int

    @cached_property
    def superdiagonal(self) -> tuple[int, ...]:
        return tuple(np.diagonal(self.msigma, 1).tolist())

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """The first position of each block: the maximal runs of consecutive
        positions joined by zero superdiagonal margins.  Two positions are
        tied exactly when they share a block."""
        return (0, *(i + 1 for i, m in enumerate(self.superdiagonal) if m))

    @cached_property
    def block_variables(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The size of each block, the variable of each pair of blocks as a
        block by block index array, and the number d of variables.

        The pairs A < B come first, in ``combinations`` order, then the inner
        variable of each block of two or more positions, in order; entry
        [A, A] is the inner variable of A, or d for a block of one."""
        sizes = np.diff([*self.blocks, len(self.msigma)])
        k = sizes.size
        rows, cols = np.triu_indices(k, 1)
        multi = np.flatnonzero(sizes > 1)
        d = rows.size + multi.size
        variable = np.full((k, k), d, dtype=np.intp)
        variable[rows, cols] = variable[cols, rows] = np.arange(rows.size)
        variable[multi, multi] = np.arange(rows.size, d)
        return sizes, variable, d


def intermediate_margins(vm: VariantMargins, xi: AdmissibleOrder) -> IntermediateMargins:
    seq = np.array(xi.sequence, dtype=np.intp)
    # Running minima down the columns, then leftward along the rows: entry
    # (i, j) becomes the minimum over positions p <= i and q >= j.
    rect = np.minimum.accumulate(vm.m[np.ix_(seq, seq)], axis=0)
    rect = np.minimum.accumulate(rect[:, ::-1], axis=1)[:, ::-1]
    upper = np.triu(rect, 1)
    return IntermediateMargins(xi, upper - upper.T, vm.den)


def turnout_qp(t: np.ndarray, im: IntermediateMargins) -> QpProblem:
    """Build the nearest-point program for the intermediate turnouts, over
    the blocks of tied positions (``im.blocks``).

    ``t`` holds turnout numerators over ``im.den``.  The turnouts are those
    of the unordered position pairs i < j; the ordered-pair objective of
    the tally just doubles every term, so the minimizer is unchanged.
    Consecutive positions i, i + 1 bound their pair's turnout by [m_i, 1],
    and against every other position z the pair (i, z) may exceed
    (i + 1, z) by 0 to m_i.  A zero m_i so forces tau(i, z) = tau(i + 1, z),
    and tau is constant on the pairs of two blocks A, B and on the inner
    pairs of one block A.  Each of these is one variable of the program,
    weighted by its number of pairs, |A| |B| or |A| (|A| - 1) / 2, with
    the mean of ``t`` over them for center: their sum over den times the
    weight, one Python-int division, so it is correctly rounded.

    The rows are those of the pairs, each parallel copy once: an inner
    variable lies in [0, 1], and blocks A, B in a row joined by m > 0 bound
    (A, B) by [m, 1] and, against every block Z, (A, Z) - (B, Z) by
    [0, m], where (A, A) and (B, B) are the inner variables, and a block of
    one position has none and no such row.  With no tie, every block is
    one position, and this is the program of the pairs, variable for
    variable and row for row, with unit weights.
    """
    seq = np.array(im.order.sequence, dtype=np.intp)
    n, starts, den = len(seq), im.blocks, im.den
    sizes, variable, d = im.block_variables
    # Each variable's number of pairs and sum of t over them.
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    t = t[np.ix_(seq, seq)]
    if t.dtype != object and den * n * n >= 2**62:
        t = t.astype(object)  # past int64's reach
    sums = np.add.reduceat(np.add.reduceat(t, starts, axis=0), starts, axis=1)
    np.fill_diagonal(sums, np.diagonal(sums) // 2)  # each pair of one block came twice
    weights, totals = np.zeros(d + 1, dtype=np.int64), np.zeros(d + 1, dtype=sums.dtype)
    weights[variable], totals[variable] = pairs, sums  # slot d takes the blocks of one
    weights, totals = weights[:d].tolist(), totals[:d].tolist()
    center = [total / (den * w) for total, w in zip(totals, weights)]
    # Each block's margin to the next one, as a float.
    margins = [im.superdiagonal[start - 1] / den for start in starts[1:]]
    n_pairs = len(starts) * (len(starts) - 1) // 2
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * n_pairs
    bounds += [(0.0, 1.0)] * (d - n_pairs)
    for v, m in zip(np.diagonal(variable, 1).tolist(), margins):
        bounds[v] = (m, 1.0)
    upper, lower = variable[:-1], variable[1:]
    keep = (upper != d) & (lower != d)  # by block, then Z
    boundary = np.nonzero(keep)[0].tolist()
    upper, lower = upper[keep].tolist(), lower[keep].tolist()
    diffs = zip(upper, lower, [0.0] * len(upper), [margins[c] for c in boundary])
    return QpProblem(tuple(center), tuple(bounds), tuple(diffs), tuple(map(float, weights)))


@dataclass(frozen=True)
class ProjectedTurnouts:
    """Optimal turnouts, a symmetric float array indexed by order position,
    and the solution of the block program they expand."""

    tsigma: np.ndarray
    solution: QpSolution


def project_turnouts(t: np.ndarray, im: IntermediateMargins) -> ProjectedTurnouts:
    """Solve the block program of ``turnout_qp`` and give each position pair
    its block pair's value, 0 on the diagonal."""
    solution = solve_active_set(turnout_qp(t, im))
    sizes, variable, d = im.block_variables
    block = np.repeat(np.arange(sizes.size), sizes)
    index = variable[np.ix_(block, block)]
    np.fill_diagonal(index, d)
    tsigma = np.append(solution.point, 0.0)[index]
    return ProjectedTurnouts(tsigma, solution)


def build_intervals(pt: ProjectedTurnouts, im: IntermediateMargins) -> np.ndarray:
    """Superdiagonal intervals ((tau - m) / 2, (tau + m) / 2), as rows
    ``[lo, hi]`` by order position.

    Verifies the facts the interval-union step relies on: each interval
    sits inside [0, 1], consecutive ones overlap, and centers do not
    increase along the order.  The first failure in order of position is
    raised, the range law at a position before the overlap law that ends
    there.  lo <= hi holds exactly, as the margins m along an admissible
    order are >= 0, so fl(tau - m) <= fl(tau + m).  A NaN end fails the
    range law.
    """
    tau = np.diagonal(pt.tsigma, 1)
    m = np.array([margin / im.den for margin in im.superdiagonal], dtype=float)
    intervals = np.stack(((tau - m) / 2.0, (tau + m) / 2.0), axis=1)
    lo, hi = intervals.T
    center = (lo + hi) / 2.0
    ranged = ~((lo >= -LAW_TOL) & (hi <= 1 + LAW_TOL))
    overlap = np.zeros_like(ranged)
    overlap[1:] = (hi[1:] < lo[:-1] - LAW_TOL) | (center[1:] > center[:-1] + LAW_TOL)
    fails = ranged | overlap
    if fails.any():
        i = int(np.argmax(fails))
        if ranged[i]:
            lo_i, hi_i = intervals[i].tolist()
            raise LawViolation(f"interval range law fails: interval {i} is [{lo_i}, {hi_i}]")
        raise LawViolation(f"intervals {i - 1} and {i} violate the overlap law")
    return intervals


@dataclass(frozen=True)
class ProjectedMatrix:
    """Projected scores pi, indexed by candidate like the input matrix."""

    pi: np.ndarray
    order: AdmissibleOrder

    @property
    def n(self) -> int:
        return len(self.pi)

    def check_structure(self, superdiagonal: Sequence[int]) -> None:
        """Assert the laws of the projected matrix the float step can break.

        ``superdiagonal`` holds the exact rectangle margins between
        consecutive positions of the order, ``IntermediateMargins.superdiagonal``:
        positions i < j are tied exactly when the margins from i to j - 1
        are all 0, and only tied pairs must propagate their tie.  No float
        decides a tie.

        Every law is one float expression per index pair or triple,
        evaluated for all of them at once with numpy broadcasts.  When laws
        fail, the message is that of the first failure in the order of a
        loop over the law groups below, then over their indices, then over
        the laws of the group.

        The other laws are decided before it runs.  The order law holds as
        each upper score is the largest ``hi`` of some intervals and each
        lower score the smallest ``lo`` of the same ones.  The [0, 1] range
        of the upper scores follows from the range law of
        ``build_intervals``.  The chain maximum and minimum laws are
        identities of the running extrema of ``projected_scores``.  The
        absolute-margin triangle law follows from margin subadditivity.
        """
        tol = LAW_TOL
        seq = np.array(self.order.sequence, dtype=np.intp)
        n = len(seq)
        pi = self.pi
        # Rows by order position, columns by candidate: for x = seq[i],
        # r[i, z] = pi[x][z] and c[i, z] = pi[z][x].
        r = pi[seq]
        c = pi.T[seq]
        mg_r = r - c  # margin(x, z)
        to_r = r + c  # turnout(x, z)
        # The same by order position on both axes: mg[i, j] is the margin
        # of x, y = seq[i], seq[j].
        mg, to = mg_r[:, seq], to_r[:, seq]
        pos = np.arange(n)
        before = pos[:, None] < pos[None, :]

        # Pairs x before y: the turnout half of admissibility.
        if (before & (to > 1 + tol)).any():
            raise LawViolation("admissibility law fails: projected scores left the admissible set")

        # Triples x before y before z, as [i, j, k]: the entries at (i, j),
        # (j, k) and (i, k) broadcast from [:, :, None], [None] and [:, None, :].
        subadditive = mg[:, None, :] > mg[:, :, None] + mg[None] + tol
        increment = (to[:, None, :] - to[None] > mg[:, :, None] + tol) | (
            to[:, :, None] - to[:, None, :] > mg[None] + tol
        )
        _raise_first(
            (subadditive | increment) & before[:, :, None] & before[None],
            (subadditive, "margin subadditivity law fails"),
            (increment, "turnout increment law fails"),
        )

        # Pairs x before y against every other candidate z, as [i, j, z]
        # with z a candidate index.  The column checks of margins and
        # turnouts equal the row checks exactly, so four differences cover
        # all six; the negated column makes its difference read row-wise.
        rows = np.stack((r, -c, mg_r, to_r))
        diffs = rows[:, :, None, :] - rows[:, None, :, :]
        monotone = (diffs < -tol).any(axis=0)
        block = np.cumsum([0, *(m != 0 for m in superdiagonal)])
        tied = block[:, None] == block[None, :]
        # Where monotonicity holds, |d| > tol is d > tol.
        spread = tied[:, :, None] & (diffs > tol).any(axis=0)
        other = seq[:, None] != pos[None, :]
        _raise_first(
            (monotone | spread) & before[:, :, None] & other[:, None, :] & other[None],
            (monotone, "row or column monotonicity law fails"),
            (spread, "tie propagation law fails"),
        )


def _raise_first(fails: np.ndarray, *laws: tuple[np.ndarray, str]) -> None:
    """Raise the law that fails at the first index of ``fails`` in C order.

    ``laws`` pairs a failure mask of the shape of ``fails`` with a message,
    in the order the laws are checked at one index.
    """
    if not fails.any():
        return
    first = np.unravel_index(np.argmax(fails), fails.shape)
    for mask, message in laws:
        if mask[first]:
            raise LawViolation(message)


def projected_scores(intervals: np.ndarray, xi: AdmissibleOrder) -> ProjectedMatrix:
    """Endpoints of interval unions along the order, as a score matrix.

    Computed by running maxima of the upper ends and running minima of the
    lower ends; the interval-union reading gives the same numbers because
    consecutive intervals overlap.
    """
    seq = np.array(xi.sequence, dtype=np.intp)
    n = len(seq)
    # Row i runs over the intervals from position i on: entry [i, j - 1] is
    # the union of intervals i to j - 1, the one between positions i and j.
    k = np.arange(n - 1)
    ahead = k[:, None] <= k[None, :]
    hi = np.maximum.accumulate(np.where(ahead, intervals[:, 1], -np.inf), axis=1)
    lo = np.minimum.accumulate(np.where(ahead, intervals[:, 0], np.inf), axis=1)
    rows, cols = np.triu_indices(n, 1)
    pi = np.zeros((n, n))
    pi[seq[rows], seq[cols]] = hi[rows, cols - 1]
    pi[seq[cols], seq[rows]] = lo[rows, cols - 1]
    return ProjectedMatrix(pi, xi)


@dataclass(frozen=True)
class ProjectionDetails:
    """Every intermediate produced on the way to the projected scores."""

    matrix: LlullMatrix  # as given
    scores: IndirectScores
    vm: VariantMargins
    xi: AdmissibleOrder
    im: IntermediateMargins
    t: np.ndarray  # turnouts of the effective matrix (the margin-completed one
    # for the margin-based variant), as numerators over den
    den: int  # the denominator of every exact stage
    pt: ProjectedTurnouts
    intervals: np.ndarray  # rows [lo, hi] by order position
    pm: ProjectedMatrix


def project_details(
    matrix: LlullMatrix,
    variant: Variant = Variant.MAIN,
    xi: AdmissibleOrder | None = None,
) -> ProjectionDetails:
    """Run steps 2 to 5: closures, order, rectangle margins, turnout program
    and intervals, then check the laws of the projected scores.

    The margin-based variant runs every step on the margin-completed matrix.
    ``xi``, checked to be an admissible permutation of the candidates, fixes
    the order; by default it is sorted by Copeland rank.
    """
    effective = margin_completion(matrix) if variant is Variant.MARGIN_BASED else matrix
    scores = indirect_scores(effective.w, effective.den, variant)
    vm = variant_margins(scores)
    if xi is None:
        xi = admissible_order(vm, matrix.candidates)
    elif sorted(xi.sequence) != list(range(matrix.n)):
        raise ValueError(f"order {xi.sequence} is not a permutation of the {matrix.n} candidates")
    else:
        _check_admissible(xi.sequence, vm, matrix.candidates)
    im = intermediate_margins(vm, xi)
    t = turnouts(effective.w)
    pt = project_turnouts(t, im)
    intervals = build_intervals(pt, im)
    pm = projected_scores(intervals, xi)
    pm.check_structure(im.superdiagonal)
    return ProjectionDetails(matrix, scores, vm, xi, im, t, effective.den, pt, intervals, pm)
