"""Rank-like rates and the social ranking they induce."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .projection import IntermediateMargins, ProjectedMatrix


class RateFormula(enum.Enum):
    MAIN = "main"
    ALTERNATIVE = "alt"


@dataclass(frozen=True)
class RankLikeRates:
    """Continuous ratings in [1, N]; 1 means unanimous first place."""

    rates: tuple[float, ...]
    formula: RateFormula


def rank_like_rates(
    pm: ProjectedMatrix, formula: RateFormula = RateFormula.MAIN
) -> RankLikeRates:
    """Main formula: N minus the row sum of projected scores.

    The alternative formula instead adds the column sum to 1; both agree in
    the complete case.
    """
    # Python's sum adds in order; the diagonal 0.0 leaves every sum as is.
    n = pm.n
    if formula is RateFormula.MAIN:
        rates = tuple(n - sum(row) for row in pm.pi.tolist())
    else:
        rates = tuple(1 + sum(column) for column in pm.pi.T.tolist())
    return RankLikeRates(rates, formula)


@dataclass(frozen=True)
class SocialRanking:
    """Groups of candidate indices, best first, tied within a group."""

    groups: tuple[tuple[int, ...], ...]


def social_ranking(im: IntermediateMargins) -> SocialRanking:
    """Group candidates that are exactly tied, best first along the order.

    Consecutive candidates in the admissible order have the projected
    margin of their superdiagonal rectangle margin, so they tie exactly
    when its numerator is 0: the groups are the blocks of ``im.blocks``.
    The float scores and rates are not consulted.
    """
    seq = im.order.sequence
    ends = [*im.blocks, len(seq)]
    return SocialRanking(tuple(tuple(sorted(seq[a:b])) for a, b in zip(ends, ends[1:])))
