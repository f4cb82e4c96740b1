"""The Llull matrix of pairwise scores, as exact integer numerators.

``LlullMatrix`` holds integer numerators over one least common denominator,
the one exact format of every stage from the parsed input to the report;
``from_scores`` is the entry for hand-built grids of Fractions.
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
    read_fraction,
)
from .errors import MatrixFormatError, TotalVotersTooSmall

# Numerators and common denominators below this bound run on int64, larger
# ones on Python ints.
_INT64_BOUND = 2**62


@dataclass(frozen=True, eq=False)
class LlullMatrix:
    """Relative pairwise scores v_xy = w[x, y] / den with v_xy + v_yx <= 1.

    ``den`` is the least common denominator of the scores, every numerator
    lies in [0, den] and the diagonal is 0.  ``w`` is a read-only int64
    array while ``den`` is below 2**62, so that two numerators add without
    overflow, and an ``object`` array of Python ints above.  ``total`` is
    the voter denominator V.  ``(w, den)`` is the one exact form: a score
    is ``Fraction(int(w[x, y]), den)``, and ``absolute`` gives it times V.
    """

    candidates: CandidateSet
    w: np.ndarray
    den: int
    total: Fraction

    # Equal scores have equal (w, den), so matrices compare by value; like
    # its CandidateSet, a matrix is unhashable.
    def __eq__(self, other):
        if not isinstance(other, LlullMatrix):
            return NotImplemented
        return (
            (self.candidates, self.den, self.total) == (other.candidates, other.den, other.total)
            and self.w.tolist() == other.w.tolist()
        )

    __hash__ = None

    @property
    def n(self) -> int:
        return len(self.candidates)

    def absolute(self, x: int, y: int) -> Fraction:
        return Fraction(int(self.w[x, y]), self.den) * self.total

    @classmethod
    def lowest_terms(cls, candidates, w: np.ndarray, den: int, total: Fraction) -> LlullMatrix:
        """Valid score numerators ``w`` over ``den``, divided by their gcd with ``den``."""
        g = math.gcd(den, *w.ravel().tolist())
        w = (w // g).astype(np.int64 if den // g < _INT64_BOUND else object, copy=False)
        w.flags.writeable = False
        return cls(candidates, w, den // g, total)

    @classmethod
    def from_scores(cls, candidates, scores: Sequence[Sequence], total=1) -> LlullMatrix:
        """The matrix of a hand-built grid of scores, which ``Fraction``
        reads; the diagonal is ignored."""
        total = Fraction(total)
        if total <= 0:
            raise ValueError("total voters must be positive")
        _check_shape(len(candidates), scores)
        w, den = _over_common_denominator([[Fraction(x) for x in row] for row in scores])
        np.fill_diagonal(w, 0)
        _check_scores(w, den, np.triu(w + w.T > den, 1))
        return cls.lowest_terms(candidates, w, den, total)

    @classmethod
    def from_absolute(cls, candidates, counts: np.ndarray, den: int, total) -> LlullMatrix:
        """The matrix of absolute counts ``counts[x, y] / den``, a square
        int64 or ``object`` array over a positive int, with the diagonal
        ignored.  The voter total must be positive and cover every pair's
        turnout, and no count may be negative."""
        total = Fraction(total)
        if total <= 0:
            raise TotalVotersTooSmall(f"the voter total V = {total} is not positive")
        _check_shape(len(candidates), counts)
        # For the total p / q the scores are counts * q over den * p.
        p, q = total.as_integer_ratio()
        size = max(den * p, q, int(abs(counts).max(initial=0)) * q)
        w = counts.astype(np.int64 if size < _INT64_BOUND else object) * q
        np.fill_diagonal(w, 0)
        over = np.triu(w + w.T > den * p, 1)
        if over.any():
            x, y = divmod(int(np.argmax(over)), len(over))
            turnout = Fraction(int(counts[x, y] + counts[y, x]), den)
            raise TotalVotersTooSmall(
                f"pair ({candidates.names[x]}, {candidates.names[y]}) has absolute turnout "
                f"{turnout} > V = {total}"
            )
        _check_scores(w, den * p, over)
        return cls.lowest_terms(candidates, w, den * p, total)


def _check_shape(n: int, grid: Sequence[Sequence]) -> None:
    if len(grid) != n or any(len(r) != n for r in grid):
        raise ValueError("score grid does not match the candidate count")


def _over_common_denominator(grid: list[list]) -> tuple[np.ndarray, int]:
    """Rationals as Python-int numerators over their least common denominator."""
    den = math.lcm(*(x.denominator for row in grid for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in grid]
    return np.array(nums, dtype=object), den


def _check_scores(w: np.ndarray, den: int, over: np.ndarray) -> None:
    """Raise the first failure, in row-major order, of a score ``w / den``
    outside [0, 1] or, above the diagonal and after that pair's own score,
    of a turnout marked in ``over``.  ``w`` has a zero diagonal."""
    outside = (w < 0) | (w > den)
    fails = outside | over
    if fails.any():
        x, y = divmod(int(np.argmax(fails)), len(fails))
        if outside[x, y]:
            raise ValueError(f"score v[{x}][{y}] = {Fraction(int(w[x, y]), den)} outside [0, 1]")
        raise ValueError(f"pair ({x}, {y}) has turnout above 1")


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
    denominator of the weights and counted in half-votes, and the matrix is
    built from these integer counts; ``ballot_to_pairwise`` is the
    per-ballot reference for the same counts.  The denominator defaults to
    the sum of ballot weights; an explicit ``total_voters`` must cover every
    absolute turnout.
    """
    if not isinstance(profile, BallotTable):
        profile = BallotTable.from_ballots(profile, candidates)
    den = math.lcm(*(w.denominator for w in profile.weights))
    scale = [w.numerator * (den // w.denominator) for w in profile.weights]
    per_weight = np.zeros(len(scale), dtype=np.int64)
    np.add.at(per_weight, profile.weight_ids, profile.counts)
    weight_sum = sum(map(operator.mul, scale, per_weight.tolist()))
    # A half-vote count is at most twice the weight sum.
    small = max([weight_sum, *scale]) < _INT64_BOUND
    votes = np.array(scale, dtype=np.int64 if small else object)[profile.weight_ids]
    half = _half_votes(profile, rules, votes * profile.counts)

    if total_voters is None:
        total_voters = Fraction(weight_sum, den) if weight_sum > 0 else Fraction(1)
    return LlullMatrix.from_absolute(candidates, half, 2 * den, total_voters)


def turnouts(w: np.ndarray) -> np.ndarray:
    """Symmetric per-pair turnouts t_xy = v_xy + v_yx, over the same D."""
    return w + w.T


def margins(w: np.ndarray) -> np.ndarray:
    """Antisymmetric per-pair margins m_xy = v_xy - v_yx, over the same D."""
    return w - w.T


# ---------------------------------------------------------------------------
# CSV serialization: a header row of candidate names, one "V=" line with the
# voter total, then one row per candidate.  Entries are absolute counts in
# any Fraction-readable form ("321.5" and "643/2" both work), each cell read
# by ``read_fraction``, the one reader of the input's numbers.
# The diagonal is written as "*" and read as "*", an empty cell or any zero.


def _read_row(cells: list[str], header: tuple[str, ...], x: int, lineno: int) -> list:
    """The counts of row x, read cell by cell; the first bad cell raises."""
    parsed = []
    for j, cell in enumerate(cells):
        if j == x and cell in ("*", ""):
            parsed.append(0)
            continue
        try:
            value = read_fraction(cell)
        except ValueError:
            raise MatrixFormatError(f"cannot read entry {cell!r}", lineno) from None
        if j == x and value != 0:
            raise MatrixFormatError(f"diagonal entry {cell!r} is not '*' or 0", lineno)
        if value < 0:
            raise MatrixFormatError(
                f"pair ({header[x]}, {header[j]}) has negative entry {cell!r}", lineno
            )
        parsed.append(value)
    return parsed


def read_matrix(text: str, total_voters: Fraction | None = None) -> LlullMatrix:
    """The matrix of a CSV text.  A given ``total_voters`` replaces the
    file's voter total, which must still be readable.  A file's total that
    a turnout exceeds raises ``MatrixFormatError`` at its line, a given one
    ``TotalVotersTooSmall``.  A leading byte-order mark is skipped."""
    if text.startswith("\ufeff"):
        text = text[1:]  # a byte-order mark
    header: tuple[str, ...] | None = None
    total, total_line = Fraction(1), None
    rows: list[list[int | Fraction]] = []
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
                total = read_fraction(line.split("=", 1)[1].strip())
            except ValueError:
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
        rows.append(_read_row(cells, header, len(rows), lineno))
        row_lines.append(lineno)

    if header is None:
        raise MatrixFormatError("missing header row", 1)
    if len(rows) != len(header):
        raise MatrixFormatError(
            f"expected {len(header)} rows, found {len(rows)}", row_lines[-1] if row_lines else 1
        )
    counts, den = _over_common_denominator(rows)
    if total_voters is not None:
        return LlullMatrix.from_absolute(candidates, counts, den, total_voters)
    try:
        return LlullMatrix.from_absolute(candidates, counts, den, total)
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
