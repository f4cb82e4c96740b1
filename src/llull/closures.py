"""Widest-path closures of the Llull matrix and the per-variant margins.

The max-min closure scores a path by its weakest link and takes the best
path; the min-max closure scores a path by its strongest link and takes the
worst path.  Min and max commute with positive scaling, so both closures
run on the integer numerators of the scores over their common denominator D
(``matrix.w`` over ``matrix.den``): n Floyd-Warshall passes, each one numpy
broadcast.  Every closure entry is one of the input numerators, so the result is exact
over the same D.  The min-max closure goes through the duality with the
max-min closure of the complemented transpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .matrix import LlullMatrix, margins


class Variant(enum.Enum):
    MAIN = "main"
    CODUAL = "codual"
    BALANCED = "balanced"
    MARGIN_BASED = "margin-based"


def maxmin_closure_grid(w: np.ndarray) -> np.ndarray:
    """Floyd-Warshall bottleneck closure of integer scores ``w``.

    Pass k leaves row and column k as they are, so each pass is one
    broadcast.  No off-diagonal entry depends on a diagonal one, and the
    diagonal of the result is 0.  ``w`` may be any square integer grid: a
    closure of a closure is legitimate (idempotence) although its row pairs
    may sum above the denominator.
    """
    w = w.copy()
    for k in range(len(w)):
        np.maximum(w, np.minimum(w[:, k, None], w[None, k, :]), out=w)
    np.fill_diagonal(w, 0)
    return w


def minmax_closure_grid(w: np.ndarray, den: int) -> np.ndarray:
    """Worst peak score over all paths, via the max-min duality.

    On numerators over ``den`` the complement 1 - v reads den - v, so the
    min-max closure is den minus the max-min closure of the complemented
    transpose, transposed back.
    """
    bar = den - maxmin_closure_grid(den - w.T).T
    np.fill_diagonal(bar, 0)
    return bar


@dataclass(frozen=True)
class IndirectScores:
    """Path closures backing a variant's margins, as numerators over ``den``.

    ``vstar`` is the max-min closure; ``vbar`` is the min-max closure and is
    computed only when the variant needs it.
    """

    vstar: np.ndarray
    vbar: np.ndarray | None
    variant: Variant
    den: int


def margin_completion(matrix: LlullMatrix) -> LlullMatrix:
    """Replace each missing comparison by a proper tie: v' = (1 + m) / 2,
    numerators D + w - w.T over 2D; every turnout is 1, so valid."""
    w = matrix.den + margins(matrix.w)
    np.fill_diagonal(w, 0)
    return LlullMatrix.lowest_terms(matrix.candidates, w, 2 * matrix.den, matrix.total)


def indirect_scores(w: np.ndarray, den: int, variant: Variant) -> IndirectScores:
    """Closures of the score numerators ``w`` over ``den`` for ``variant``;
    the margin-based variant expects those of the margin-completed matrix."""
    needs_bar = variant in (Variant.CODUAL, Variant.BALANCED)
    vbar = minmax_closure_grid(w, den) if needs_bar else None
    return IndirectScores(maxmin_closure_grid(w), vbar, variant, den)


@dataclass(frozen=True)
class VariantMargins:
    """Antisymmetric indirect margins of one pipeline variant, as numerators
    over ``den``."""

    m: np.ndarray
    variant: Variant
    den: int


def variant_margins(scores: IndirectScores) -> VariantMargins:
    """Margins used by steps downstream of the closure.

    Main and margin-based take margins of the max-min closure (of the raw or
    the margin-completed matrix respectively); codual takes margins of the
    min-max closure; balanced keeps a pair only when both closures agree on
    its sign and then takes the smaller margin.
    """
    variant = scores.variant
    m = margins(scores.vbar if variant is Variant.CODUAL else scores.vstar)
    if variant is Variant.BALANCED:
        mbar = margins(scores.vbar)
        # At most one of a pair's two entries is positive in both closures.
        kept = np.where((m > 0) & (mbar > 0), np.minimum(m, mbar), 0)
        m = kept - kept.T
    return VariantMargins(m, variant, scores.den)
