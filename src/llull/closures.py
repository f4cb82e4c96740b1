"""Widest-path closures of the Llull matrix and the per-variant margins.

The max-min closure scores a path by its weakest link and takes the best
path; the min-max closure scores a path by its strongest link and takes the
worst path.  Both are computed by Floyd-Warshall triangle updates on exact
rationals, the min-max one through the duality with the max-min closure of
the complemented transpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .matrix import Grid, LlullMatrix, margins


class Variant(enum.Enum):
    MAIN = "main"
    CODUAL = "codual"
    BALANCED = "balanced"
    MARGIN_BASED = "margin-based"


def maxmin_closure_grid(v: Grid) -> Grid:
    """Floyd-Warshall bottleneck closure of a bare score grid.

    Exposed separately from the matrix-level wrapper because closures of
    closures are legitimate (idempotence), while their row pairs may sum
    above one and so no longer form an admissible matrix.
    """
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


def maxmin_closure(matrix: LlullMatrix) -> Grid:
    """Best bottleneck score over all paths, for every ordered pair."""
    return maxmin_closure_grid(matrix.scores)


def minmax_closure(matrix: LlullMatrix) -> Grid:
    """Worst peak score over all paths, via the max-min duality."""
    n = matrix.n
    v = matrix.scores
    dual = tuple(
        tuple(1 - v[j][i] if i != j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    dual_star = maxmin_closure_grid(dual)
    return tuple(
        tuple(1 - dual_star[j][i] if i != j else Fraction(0) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class IndirectScores:
    """Path closures backing a variant's margins.

    ``vstar`` is the max-min closure; ``vbar`` is the min-max closure and is
    computed only when the variant needs it.
    """

    vstar: Grid
    vbar: Grid | None
    variant: Variant


def margin_completion(matrix: LlullMatrix) -> LlullMatrix:
    """Replace each missing comparison by a proper tie: v' = (1 + m) / 2."""
    n = matrix.n
    m = margins(matrix.scores)
    scores = tuple(
        tuple((1 + m[x][y]) / 2 if x != y else Fraction(0) for y in range(n))
        for x in range(n)
    )
    return LlullMatrix(matrix.candidates, scores, matrix.total)


def indirect_scores(matrix: LlullMatrix, variant: Variant) -> IndirectScores:
    """Closures of ``matrix`` for ``variant``; the margin-based variant expects
    the margin-completed matrix."""
    vbar = minmax_closure(matrix) if variant in (Variant.CODUAL, Variant.BALANCED) else None
    return IndirectScores(maxmin_closure(matrix), vbar, variant)


@dataclass(frozen=True)
class VariantMargins:
    """Antisymmetric indirect margins according to one pipeline variant."""

    m: Grid
    variant: Variant


def variant_margins(scores: IndirectScores) -> VariantMargins:
    """Margins used by steps downstream of the closure.

    Main and margin-based take margins of the max-min closure (of the raw or
    the margin-completed matrix respectively); codual takes margins of the
    min-max closure; balanced keeps a pair only when both closures agree on
    its sign and then takes the smaller margin.
    """
    variant = scores.variant
    if variant in (Variant.MAIN, Variant.MARGIN_BASED):
        return VariantMargins(margins(scores.vstar), variant)
    if variant is Variant.CODUAL:
        return VariantMargins(margins(scores.vbar), variant)

    mstar = margins(scores.vstar)
    mbar = margins(scores.vbar)
    n = len(mstar)
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and mstar[x][y] > 0 and mbar[x][y] > 0:
                out[x][y] = min(mstar[x][y], mbar[x][y])
                out[y][x] = -out[x][y]
    return VariantMargins(tuple(tuple(row) for row in out), variant)
