"""The Llull matrix of pairwise scores, with exact rational entries.

``LlullMatrix`` is the validated input in Fractions.  The tally stages
share one exact format, owned here: integer numerators over one positive
denominator (``numerators``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .ballots import (
    Ballot,
    BallotTable,
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
)
from .errors import MatrixFormatError, TotalVotersTooSmall

Grid = tuple[tuple[Fraction, ...], ...]

# Numerators and common denominators below this bound run on int64, larger
# ones on Python ints.
_INT64_BOUND = 2**62


@dataclass(frozen=True)
class LlullMatrix:
    """Relative pairwise scores v[x][y] with v_xy + v_yx <= 1."""

    candidates: CandidateSet
    scores: Grid  # relative, diagonal unused (kept at 0)
    total: Fraction  # the voter denominator V

    def __post_init__(self):
        n = len(self.candidates)
        scores = tuple(tuple(Fraction(x) for x in row) for row in self.scores)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "total", Fraction(self.total))
        if self.total <= 0:
            raise ValueError("total voters must be positive")
        _check_shape(n, self.scores)
        _check_scores(self.scores)

    @property
    def n(self) -> int:
        return len(self.candidates)

    def absolute(self, x: int, y: int) -> Fraction:
        return self.scores[x][y] * self.total

    @classmethod
    def from_absolute(
        cls, candidates: CandidateSet, counts: Sequence[Sequence[Fraction]], total: Fraction
    ) -> "LlullMatrix":
        """Divide absolute counts (Fractions or ints) by the voter total,
        which must be positive and cover every pair's absolute turnout; the
        diagonal is ignored.

        The checks of direct construction run here once, on the counts, so
        the result is built without ``__post_init__``: covered turnouts and
        nonnegative counts put every score in [0, 1].
        """
        total = Fraction(total)
        if total <= 0:
            raise TotalVotersTooSmall(f"the voter total V = {total} is not positive")
        _check_shape(len(candidates), counts)
        check_total_voters(candidates, counts, total)
        zero = Fraction(0)
        scores = tuple(
            tuple(c / total if i != j else zero for j, c in enumerate(row))
            for i, row in enumerate(counts)
        )
        if any(v.numerator < 0 for row in scores for v in row):
            _check_scores(scores)  # raises, naming the first negative score
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "candidates", candidates)
        object.__setattr__(matrix, "scores", scores)
        object.__setattr__(matrix, "total", total)
        return matrix


def _check_shape(n: int, grid: Sequence[Sequence]) -> None:
    if len(grid) != n or any(len(r) != n for r in grid):
        raise ValueError("score grid does not match the candidate count")


def _check_scores(scores: Grid) -> None:
    """Raise unless every off-diagonal score lies in [0, 1] and no pair's
    turnout exceeds 1."""
    n = len(scores)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            v = scores[x][y]
            if not 0 <= v <= 1:
                raise ValueError(f"score v[{x}][{y}] = {v} outside [0, 1]")
            if x < y and v + scores[y][x] > 1:
                raise ValueError(f"pair ({x}, {y}) has turnout above 1")


def check_total_voters(
    candidates: CandidateSet, counts: Sequence[Sequence[Fraction]], total: Fraction
) -> None:
    """Raise unless every pair's absolute turnout is at most ``total``."""
    n = len(candidates)
    for x in range(n):
        for y in range(x + 1, n):
            turnout = counts[x][y] + counts[y][x]
            if turnout > total:
                raise TotalVotersTooSmall(
                    f"pair ({candidates.names[x]}, {candidates.names[y]}) has "
                    f"absolute turnout {turnout} > V = {total}"
                )


def _half_votes(table: BallotTable, rules: InterpretationRules, votes: np.ndarray) -> np.ndarray:
    """Half-vote counts ``h[x, y]`` of a counted table, kind ``i`` cast
    ``votes[i]`` times.

    ``x`` over ``y`` earns two half-votes per ballot where it ranks strictly
    higher and one where the two tie; ``rules`` drop the comparisons that
    involve unlisted candidates.  The counts have the dtype of ``votes``.
    """
    n = table.ranks.shape[1]
    ranks = np.ascontiguousarray(table.ranks.T)
    listed = ranks < table.groups
    # Ranks tie either inside a listed group or between two unlisted
    # candidates, and rank strictly higher either over a later listed group
    # or, from a listed candidate, over an unlisted one.
    unlisted_tie = rules.unlisted_pair is Unlisted.TIED
    over_unlisted = rules.listed_vs_unlisted is Listed.PREFERRED
    half = np.zeros((n, n), dtype=votes.dtype)
    for x in range(n):
        rx = ranks[x]
        for y in range(x + 1, n):
            ry = ranks[y]
            tie = rx == ry
            if not unlisted_tie:
                tie &= listed[x]
            above, below = rx < ry, ry < rx
            if not over_unlisted:
                above &= listed[y]
                below &= listed[x]
            ties = votes @ tie
            half[x, y] = 2 * (votes @ above) + ties
            half[y, x] = 2 * (votes @ below) + ties
    return half


def aggregate(
    profile: BallotTable | Iterable[Ballot],
    rules: InterpretationRules,
    candidates: CandidateSet,
    total_voters: Fraction | None = None,
) -> LlullMatrix:
    """Sum weighted ballot contributions into a relative Llull matrix.

    The profile is a counted ``BallotTable``, or ballots, which are counted
    into one first.  Each kind is weighed as an integer over the common
    denominator of the weights and counted in half-votes, so every matrix
    cell is one exact division; ``ballot_to_pairwise`` is the per-ballot
    reference for the same counts.  The denominator defaults to the sum of
    ballot weights; an explicit ``total_voters`` must cover every absolute
    turnout.
    """
    if not isinstance(profile, BallotTable):
        profile = BallotTable.from_ballots(profile, candidates)
    n = len(candidates)
    den = math.lcm(*(w.denominator for w in profile.weights))
    scale = [w.numerator * (den // w.denominator) for w in profile.weights]
    per_weight = np.zeros(len(scale), dtype=np.int64)
    np.add.at(per_weight, profile.weight_ids, profile.counts)
    weight_sum = sum(map(operator.mul, scale, per_weight.tolist()))
    # A half-vote count is at most twice the weight sum.
    small = max([weight_sum, *scale]) < _INT64_BOUND
    votes = np.array(scale, dtype=np.int64 if small else object)[profile.weight_ids]
    half = _half_votes(profile, rules, votes * profile.counts)

    zero = Fraction(0)
    counts = [
        [Fraction(int(h), 2 * den) if h else zero for h in row] for row in half.tolist()
    ]
    if total_voters is None:
        total_voters = Fraction(weight_sum, den) if weight_sum > 0 else Fraction(1)
    return LlullMatrix.from_absolute(candidates, counts, total_voters)


def numerators(grid: Grid) -> tuple[np.ndarray, int]:
    """The exact format of the tally stages: the off-diagonal entries of
    ``grid`` as integer numerators over their least common denominator D.

    Returns ``(w, D)``.  ``w`` is int64 while D and every numerator stay
    below 2**62, so the sum or difference of two score numerators cannot
    overflow, and an ``object`` array of Python ints otherwise.  The
    diagonal reads as 0.
    """
    n = len(grid)
    ratios = [
        (0, 1) if i == j else x.as_integer_ratio()
        for i, row in enumerate(grid)
        for j, x in enumerate(row)
    ]
    denominators = {q for _, q in ratios}
    d = math.lcm(*denominators)
    scale = {q: d // q for q in denominators}
    nums = [p * scale[q] for p, q in ratios]
    small = max(d, max(nums, default=0), -min(nums, default=0)) < _INT64_BOUND
    return np.array(nums, dtype=np.int64 if small else object).reshape(n, n), d


def turnouts(w: np.ndarray) -> np.ndarray:
    """Symmetric per-pair turnouts t_xy = v_xy + v_yx, over the same D."""
    return w + w.T


def margins(w: np.ndarray) -> np.ndarray:
    """Antisymmetric per-pair margins m_xy = v_xy - v_yx, over the same D."""
    return w - w.T


# ---------------------------------------------------------------------------
# CSV serialization: a header row of candidate names, one "V=" line with the
# voter total, then one row per candidate.  Entries are absolute counts in
# any Fraction-readable form ("321.5" and "643/2" both work); the diagonal
# is written as "*" and read as "*", an empty cell or any zero.


def read_matrix(text: str) -> LlullMatrix:
    header: tuple[str, ...] | None = None
    total, total_line = Fraction(1), None
    rows: list[list[Fraction]] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("V=") or line.startswith("V ="):
            if total_line is not None:
                raise MatrixFormatError(
                    f"second voter total line; the first is line {total_line}", lineno
                )
            try:
                total = Fraction(line.split("=", 1)[1].strip())
            except (ValueError, ZeroDivisionError):
                raise MatrixFormatError("cannot read the voter total", lineno) from None
            total_line = lineno
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            try:
                candidates = CandidateSet(cells)
            except ValueError as exc:
                raise MatrixFormatError(str(exc), lineno) from None
            header = candidates.names
            continue
        if len(rows) == len(header):
            raise MatrixFormatError(f"expected {len(header)} rows, found more", lineno)
        if len(cells) == len(header) + 1 and cells[0] == header[len(rows)]:
            cells = cells[1:]  # row label column
        if len(cells) != len(header):
            raise MatrixFormatError(
                f"expected {len(header)} entries, found {len(cells)}", lineno
            )
        parsed = []
        for j, cell in enumerate(cells):
            if j == len(rows) and cell in ("*", ""):
                parsed.append(Fraction(0))
                continue
            try:
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise MatrixFormatError(f"cannot read entry {cell!r}", lineno) from None
            if j == len(rows) and parsed[-1] != 0:
                raise MatrixFormatError(f"diagonal entry {cell!r} is not '*' or 0", lineno)
            if parsed[-1].numerator < 0:
                raise MatrixFormatError(
                    f"pair ({header[len(rows)]}, {header[j]}) has negative entry {cell!r}",
                    lineno,
                )
        rows.append(parsed)
        row_lines.append(lineno)

    if header is None:
        raise MatrixFormatError("missing header row", 1)
    if len(rows) != len(header):
        raise MatrixFormatError(
            f"expected {len(header)} rows, found {len(rows)}", row_lines[-1] if row_lines else 1
        )
    try:
        return LlullMatrix.from_absolute(candidates, rows, total)
    except TotalVotersTooSmall as exc:
        raise MatrixFormatError(str(exc), total_line or row_lines[0]) from None


def write_matrix(matrix: LlullMatrix) -> str:
    lines = [",".join(matrix.candidates.names), f"V={matrix.total}"]
    for x in range(matrix.n):
        cells = [
            "*" if x == y else str(matrix.absolute(x, y)) for y in range(matrix.n)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
