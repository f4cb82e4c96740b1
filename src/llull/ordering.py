"""Admissible candidate orders: orders that extend the indirect comparison relation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .ballots import CandidateSet
from .closures import VariantMargins
from .errors import NotAdmissible


@dataclass(frozen=True)
class AdmissibleOrder:
    """A total candidate order extending the indirect comparison relation."""

    sequence: tuple[int, ...]
    rank: dict[int, int]  # candidate index -> 1-based position
    # The Copeland ranks the order was sorted by, when it was built from them.
    copeland: tuple[Fraction, ...] = field(default=(), compare=False)

    @classmethod
    def from_sequence(
        cls, sequence: tuple[int, ...], copeland: tuple[Fraction, ...] = ()
    ) -> "AdmissibleOrder":
        return cls(sequence, {c: i + 1 for i, c in enumerate(sequence)}, copeland)


def copeland_ranks(vm: VariantMargins) -> tuple[Fraction, ...]:
    """Tie-splitting Copeland ranks: one plus the number of candidates
    beating this one indirectly, counting exact ties as half."""
    n = len(vm.m)
    ranks = []
    for x in range(n):
        beaten_by = sum(1 for y in range(n) if y != x and vm.m[y][x] > 0)
        tied = sum(1 for y in range(n) if y != x and vm.m[y][x] == 0)
        ranks.append(1 + Fraction(beaten_by) + Fraction(tied, 2))
    return tuple(ranks)


def _check_admissible(
    sequence: tuple[int, ...], vm: VariantMargins, candidates: CandidateSet
) -> None:
    for i, x in enumerate(sequence):
        for y in sequence[i + 1 :]:
            if vm.m[x][y] < 0:
                raise NotAdmissible(
                    f"order puts {candidates.names[x]} before {candidates.names[y]} "
                    f"but the {vm.variant.value} indirect margin is {vm.m[x][y]}"
                )


def admissible_order(vm: VariantMargins, candidates: CandidateSet) -> AdmissibleOrder:
    """Sort by Copeland rank, ties broken by candidate file order.

    The result is verified to extend the comparison relation; failure is
    only possible for variants without a transitivity guarantee.
    """
    ranks = copeland_ranks(vm)
    sequence = tuple(sorted(range(len(ranks)), key=lambda x: (ranks[x], x)))
    _check_admissible(sequence, vm, candidates)
    return AdmissibleOrder.from_sequence(sequence, ranks)


def enumerate_admissible_orders(
    vm: VariantMargins, limit: int | None = None
) -> Iterator[AdmissibleOrder]:
    """Yield every admissible order in lexicographic candidate order.

    A candidate may come next exactly when no remaining candidate still
    beats it; this single test enforces both inclusions that define
    admissibility.
    """
    n = len(vm.m)
    count = 0

    def extend(prefix: list[int], remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(prefix)
            return
        for x in remaining:
            if any(vm.m[y][x] > 0 for y in remaining if y != x):
                continue
            prefix.append(x)
            yield from extend(prefix, [y for y in remaining if y != x])
            prefix.pop()

    for sequence in extend([], list(range(n))):
        yield AdmissibleOrder.from_sequence(sequence)
        count += 1
        if limit is not None and count >= limit:
            return
