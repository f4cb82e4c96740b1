"""Widest-path closures of the Llull matrix and the per-variant margins.

The max-min closure scores a path by its weakest link and takes the best
path; the min-max closure scores a path by its strongest link and takes the
worst path.  Min and max commute with positive scaling, so both closures
run on the integer numerators of the scores over their least common
denominator D: n Floyd-Warshall passes, each one numpy broadcast on int64, or
on Python ints once D or a numerator reaches 2**62.  Every closure entry is
one of the input entries and maps back to the Fraction it equals, so the
result is exact.  The min-max closure goes through the duality with the
max-min closure of the complemented transpose.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import Grid, LlullMatrix, margins


class Variant(enum.Enum):
    MAIN = "main"
    CODUAL = "codual"
    BALANCED = "balanced"
    MARGIN_BASED = "margin-based"


_ZERO = Fraction(0)

# Numerators and common denominators below this bound run on int64, larger
# ones on Python ints.  The complement D - v of a score in [0, 1] stays below
# it too.
_INT64_BOUND = 2**62


def _scaled(v: Grid) -> tuple[np.ndarray, int, dict[int, Fraction]]:
    """Off-diagonal entries of ``v`` as integer numerators over their least
    common denominator D, with the map from each numerator back to its entry.

    The diagonal reads as 0: it takes part in no path.
    """
    n = len(v)
    flat = [_ZERO if i == j else x for i, row in enumerate(v) for j, x in enumerate(row)]
    ratios = [x.as_integer_ratio() for x in flat]
    denominators = {q for _, q in ratios}
    d = math.lcm(*denominators)
    scale = {q: d // q for q in denominators}
    nums = [p * scale[q] for p, q in ratios]
    small = max(d, max(nums, default=0), -min(nums, default=0)) < _INT64_BOUND
    dtype = np.int64 if small else object
    return np.array(nums, dtype=dtype).reshape(n, n), d, dict(zip(nums, flat))


def _widest_paths(w: np.ndarray) -> np.ndarray:
    """Floyd-Warshall bottleneck closure of ``w``, in place.

    Pass k leaves row and column k as they are, so each pass is one
    broadcast.  Diagonal entries may change, but no off-diagonal entry
    depends on them.
    """
    for k in range(len(w)):
        np.maximum(w, np.minimum(w[:, k, None], w[None, k, :]), out=w)
    return w


def _unscaled(w: np.ndarray, back: dict[int, Fraction], diagonal) -> Grid:
    """The entries of ``w`` back as Fractions, with ``diagonal`` set."""
    rows = [[back[x] for x in row] for row in w.tolist()]
    for i, x in enumerate(diagonal):
        rows[i][i] = x
    return tuple(map(tuple, rows))


def maxmin_closure_grid(v: Grid) -> Grid:
    """Floyd-Warshall bottleneck closure of a bare score grid.

    Exposed separately from the matrix-level wrapper because closures of
    closures are legitimate (idempotence), while their row pairs may sum
    above one and so no longer form an admissible matrix.  The diagonal is
    returned as given.
    """
    w, _, back = _scaled(v)
    return _unscaled(_widest_paths(w), back, (v[i][i] for i in range(len(v))))


def maxmin_closure(matrix: LlullMatrix) -> Grid:
    """Best bottleneck score over all paths, for every ordered pair."""
    return maxmin_closure_grid(matrix.scores)


def minmax_closure(matrix: LlullMatrix) -> Grid:
    """Worst peak score over all paths, via the max-min duality.

    On numerators over D the complement 1 - v reads D - v, so the min-max
    closure is D minus the max-min closure of the complemented transpose,
    transposed back.
    """
    w, d, back = _scaled(matrix.scores)
    return _unscaled(d - _widest_paths(d - w.T).T, back, [_ZERO] * matrix.n)


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
