"""Admissible candidate orders: orders that extend the indirect comparison relation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .ballots import CandidateSet
from .closures import VariantMargins
from .errors import NotAdmissible


@dataclass(frozen=True)
class AdmissibleOrder:
    """A total candidate order extending the indirect comparison relation."""

    sequence: tuple[int, ...]
    # The Copeland ranks the order was sorted by, as numerators over 2, when
    # it was built from them.
    copeland: tuple[int, ...] = field(default=(), compare=False)


def copeland_ranks(vm: VariantMargins) -> np.ndarray:
    """Tie-splitting Copeland ranks, as numerators over 2: a rank is one
    plus the number of candidates beating this one indirectly, counting
    exact ties as half."""
    beaten_by = (vm.m > 0).sum(axis=0)
    tied = (vm.m == 0).sum(axis=0) - 1  # the diagonal reads 0
    return 2 + 2 * beaten_by + tied


def _check_admissible(
    sequence: tuple[int, ...], vm: VariantMargins, candidates: CandidateSet
) -> None:
    """Raise at the first pair in order, by position, that the order puts
    against a negative margin."""
    seq = np.array(sequence, dtype=np.intp)
    against = np.triu(vm.m[np.ix_(seq, seq)] < 0, 1)
    if against.any():
        i, j = np.unravel_index(np.argmax(against), against.shape)
        x, y = sequence[i], sequence[j]
        margin = Fraction(int(vm.m[x, y]), vm.den)
        raise NotAdmissible(
            f"order puts {candidates.names[x]} before {candidates.names[y]} "
            f"but the {vm.variant.value} indirect margin is {margin}"
        )


def admissible_order(vm: VariantMargins, candidates: CandidateSet) -> AdmissibleOrder:
    """Sort by Copeland rank, ties broken by candidate file order.

    The result is verified to extend the comparison relation; failure is
    only possible for variants without a transitivity guarantee.
    """
    ranks = copeland_ranks(vm)
    sequence = tuple(np.argsort(ranks, kind="stable").tolist())
    _check_admissible(sequence, vm, candidates)
    return AdmissibleOrder(sequence, tuple(ranks.tolist()))


def enumerate_admissible_orders(vm: VariantMargins) -> Iterator[AdmissibleOrder]:
    """Yield every admissible order in lexicographic candidate order.

    A candidate may come next exactly when no remaining candidate still
    beats it; this single test enforces both inclusions that define
    admissibility.
    """
    beats = vm.m > 0

    def extend(prefix: list[int], remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(prefix)
            return
        for x in remaining:
            if beats[remaining, x].any():
                continue
            prefix.append(x)
            yield from extend(prefix, [y for y in remaining if y != x])
            prefix.pop()

    for sequence in extend([], list(range(len(beats)))):
        yield AdmissibleOrder(sequence)
