"""Deterministic random profiles for the verification harness."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ballots import Ballot, CandidateSet
from .matrix import LlullMatrix

WEIGHT_CHOICES = (
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(2),
    Fraction(1, 2),
)


def candidate_names(n: int) -> CandidateSet:
    """Names a, b, ..., z, then aa, ab, ..., zz, aaa, ... in that order."""
    names = []
    for k in range(1, n + 1):
        name = ""
        while k:
            k, digit = divmod(k - 1, 26)
            name = string.ascii_lowercase[digit] + name
        names.append(name)
    return CandidateSet(names)


@dataclass(frozen=True)
class ProfileGenerator:
    """Reproducible ballot profiles; every case is keyed by (seed, case)."""

    n_candidates: tuple[int, int] = (3, 6)
    n_ballots: tuple[int, int] = (2, 14)
    truncation: float = 0.5
    tie: float = 0.25
    approval: bool = False
    seed: int = 0

    def rng(self, case: int) -> random.Random:
        return random.Random(f"{self.seed}:{case}")

    def profile(self, case: int) -> tuple[CandidateSet, list[Ballot]]:
        rng = self.rng(case)
        n = rng.randint(*self.n_candidates)
        candidates = candidate_names(n)
        ballots = [
            self._ballot(rng, n) for _ in range(rng.randint(*self.n_ballots))
        ]
        return candidates, ballots

    def _ballot(self, rng: random.Random, n: int) -> Ballot:
        items = list(range(n))
        rng.shuffle(items)
        if self.approval:
            approved = tuple(sorted(items[: rng.randint(1, n)]))
            return Ballot((approved,), 1, rng.choice(WEIGHT_CHOICES))
        keep = n
        if rng.random() < self.truncation and n > 1:
            keep = rng.randint(1, n - 1)
        return Ballot(tie_groups(rng, items[:keep], self.tie), None, rng.choice(WEIGHT_CHOICES))


def tie_groups(rng: random.Random, items: list[int], tie: float) -> tuple[tuple[int, ...], ...]:
    """``items`` in order as sorted groups: each item after the first joins
    the group before it with probability ``tie``."""
    groups: list[list[int]] = []
    for c in items:
        if groups and rng.random() < tie:
            groups[-1].append(c)
        else:
            groups.append([c])
    return tuple(tuple(sorted(g)) for g in groups)


def random_matrix(rng: random.Random, n: int, denominator: int = 12) -> LlullMatrix:
    """A random member of the admissible score set, over ``denominator``."""
    w = np.zeros((n, n), dtype=object)
    for x in range(n):
        for y in range(x + 1, n):
            turnout = rng.randint(0, denominator)
            forward = rng.randint(0, turnout)
            w[x, y], w[y, x] = forward, turnout - forward
    return LlullMatrix.from_absolute(candidate_names(n), w, denominator, total=1)
