"""Property checks for the tally's proved guarantees.

Each check builds or receives a profile, runs the pipeline, and raises
``VerificationFailure`` with the failing input when a guarantee is broken.
The checks compare exact inputs as integer numerators over the matrix's
common denominator.  The suite runner turns failures into per-case
pass/fail records with a replay of the input; everything is deterministic
given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from .ballots import Ballot, CandidateSet, InterpretationRules, Unlisted, serialize_ballot_file
from .closures import Variant, maxmin_closure_grid, minmax_closure_grid
from .errors import LlullError, NotAdmissible
from .generate import ProfileGenerator, candidate_names, random_matrix, tie_groups
from .matrix import LlullMatrix, aggregate, write_matrix
from .ordering import enumerate_admissible_orders
from .pipeline import tally
from .projection import project_details, turnout_qp
from .qp import (
    QpProblem,
    kkt_residual,
    problem_to_json,
    solve_active_set,
    solve_dykstra,
)
from .rates import rank_like_rates

RATE_TOL = 1e-9


class VerificationFailure(LlullError):
    """A proved property failed on a concrete input.

    ``replay`` is written from the input: a matrix as a CSV, a
    ``(candidates, ballots)`` pair as a ballot file, a ``QpProblem`` as
    JSON, and text as given.
    """

    def __init__(self, message: str, subject=""):
        super().__init__(message)
        if isinstance(subject, LlullMatrix):
            subject = write_matrix(subject)
        elif isinstance(subject, QpProblem):
            subject = problem_to_json(subject)
        elif not isinstance(subject, str):
            subject = serialize_ballot_file(*subject)
        self.replay = subject


def _rates(matrix: LlullMatrix, variant: Variant = Variant.MAIN) -> tuple[float, ...]:
    return tally(matrix, variant).rates.rates


def _matrix(candidates: CandidateSet, ballots: list[Ballot]) -> LlullMatrix:
    return aggregate(ballots, InterpretationRules(), candidates)


# ---------------------------------------------------------------------------
# Brute-force path closures, used as the oracle for the Floyd-Warshall route.


def oracle_paths(matrix: LlullMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Max-min and min-max closures by enumerating all simple paths, as
    numerators over ``matrix.den``."""
    n = matrix.n
    v = matrix.w.tolist()
    best = [[0] * n for _ in range(n)]
    worst = [[0] * n for _ in range(n)]

    def walk(x: int, y: int):
        others = [z for z in range(n) if z not in (x, y)]
        lo, hi = None, None
        for k in range(len(others) + 1):
            for middle in permutations(others, k):
                path = (x, *middle, y)
                score_lo = min(v[path[i]][path[i + 1]] for i in range(len(path) - 1))
                score_hi = max(v[path[i]][path[i + 1]] for i in range(len(path) - 1))
                lo = score_lo if lo is None or score_lo > lo else lo
                hi = score_hi if hi is None or score_hi < hi else hi
        return lo, hi

    for x, y in permutations(range(n), 2):
        best[x][y], worst[x][y] = walk(x, y)
    return best, worst


def check_paths(matrix: LlullMatrix) -> None:
    closures = (maxmin_closure_grid(matrix.w), minmax_closure_grid(matrix.w, matrix.den))
    for name, got, want in zip(("max-min", "min-max"), closures, oracle_paths(matrix)):
        if got.tolist() != want:
            raise VerificationFailure(f"{name} closure disagrees with path enumeration", matrix)


# ---------------------------------------------------------------------------
# Individual property checks.


def check_single_choice(candidates: CandidateSet, ballots: list[Ballot]) -> None:
    """Single-choice voting: rates are affine in the vote fractions and the
    projection leaves the scores unchanged."""
    matrix = _matrix(candidates, ballots)
    n = matrix.n
    shares = [Fraction(0)] * n
    for ballot in ballots:
        (group,) = ballot.groups
        (choice,) = group
        shares[choice] += ballot.weight
    total = sum(b.weight for b in ballots)
    result = tally(matrix)
    for x in range(n):
        expected = 1 + (n - 1) * (1 - Fraction(shares[x], total))
        if abs(result.rates.rates[x] - float(expected)) > RATE_TOL:
            raise VerificationFailure(
                f"single-choice rate of {candidates.names[x]} is "
                f"{result.rates.rates[x]}, expected {float(expected)}",
                (candidates, ballots),
            )
    # A Python int quotient is rounded once, as the float of the score.
    w, den, pi = matrix.w.tolist(), matrix.den, result.details.pm.pi
    if any(abs(pi[x][y] - w[x][y] / den) > RATE_TOL for x, y in permutations(range(n), 2)):
        raise VerificationFailure(
            "single-choice projection moved the scores", (candidates, ballots)
        )


def check_order_independence(matrix: LlullMatrix, variant: Variant = Variant.MAIN) -> int:
    """Rates and the position-indexed score matrix agree across every
    admissible order.  Returns the number of orders tried."""
    details = project_details(matrix, variant)
    reference_rates = rank_like_rates(details.pm).rates
    seq = list(details.xi.sequence)
    reference_grid = details.pm.pi[seq][:, seq]
    count = 0
    for order in enumerate_admissible_orders(details.vm):
        count += 1
        pm = project_details(matrix, variant, order).pm
        rates = rank_like_rates(pm).rates
        drift = max(abs(a - b) for a, b in zip(rates, reference_rates))
        if drift > RATE_TOL:
            raise VerificationFailure(
                f"rates move by {drift} under order {order.sequence}", matrix
            )
        seq = list(order.sequence)
        grid_drift = float(abs(pm.pi[seq][:, seq] - reference_grid).max())
        if grid_drift > RATE_TOL:
            raise VerificationFailure(
                f"position-indexed scores move by {grid_drift} under order "
                f"{order.sequence}",
                matrix,
            )
    return count


def matrix_from_floats(candidates: CandidateSet, grid) -> LlullMatrix:
    """Rationalize a float score grid, absorbing roundoff above turnout 1."""
    clipped = np.clip(np.asarray(grid, dtype=float), 0.0, 1.0)
    np.fill_diagonal(clipped, 0.0)
    ratios = [x.as_integer_ratio() for x in clipped.ravel().tolist()]
    # Twice the largest power of two, so that every numerator is even and
    # an excess turnout, a few ulps from the float stage, halves exactly.
    den = 2 * max(q for _, q in ratios)
    w = np.array([p * (den // q) for p, q in ratios], dtype=object).reshape(clipped.shape)
    excess = np.triu(np.maximum(w + w.T - den, 0), 1)
    return LlullMatrix.from_absolute(candidates, w - (excess + excess.T) // 2, den, total=1)


def check_idempotence(matrix: LlullMatrix, variant: Variant = Variant.MAIN) -> None:
    """Projecting a projected matrix returns it unchanged; the structural
    inequality suite holds along the way."""
    first = project_details(matrix, variant)
    again = project_details(
        matrix_from_floats(matrix.candidates, first.pm.pi), Variant.MAIN
    )
    drift = float(abs(first.pm.pi - again.pm.pi).max())
    if drift > RATE_TOL:
        raise VerificationFailure(
            f"projection is not idempotent: scores move by {drift}", matrix
        )


def _dominant_sets(beats: list[list[bool]]):
    """Each set that beats every candidate outside it, with that outside,
    smallest first, under an asymmetric relation ``beats``.  Such sets are
    nested (a member of one alone would beat a member of the other alone and
    lose to it): the one of size k holds those that beat n - k others or more."""
    n = len(beats)
    outdegree = [sum(row) for row in beats]
    for k in range(1, n):
        xs = [x for x in range(n) if outdegree[x] >= n - k]
        ys = [y for y in range(n) if outdegree[y] < n - k]
        if len(xs) == k and all(beats[x][y] for x in xs for y in ys):
            yield xs, ys


def check_condorcet_smith(matrix: LlullMatrix) -> tuple[int, str]:
    """Every pairwise-majority partition must be respected by the rates.

    Walks the at most n - 1 sets that win every pair against their
    complement by a strict majority and returns how many there are, with
    notes on the sets that win every pair by margin yet are not separated
    by the rates.  The margin form of the majority principle is
    deliberately not enforced (only the absolute-majority form is
    guaranteed), so a note never fails a case.
    """
    rates = _rates(matrix)
    # Python lists, so that a set stops at its first failing pair; 2 * w
    # cannot overflow, as int64 numerators stay below 2**62.
    majority = (2 * matrix.w > matrix.den).tolist()
    wins = (matrix.w > matrix.w.T).tolist()
    qualified = 0
    for xs, ys in _dominant_sets(majority):
        qualified += 1
        for x, y in product(xs, ys):
            if not rates[x] < rates[y] - RATE_TOL:
                raise VerificationFailure(
                    f"majority set {xs} does not rank above {ys}: r={rates[x]} vs {rates[y]}",
                    matrix,
                )
    notes = [
        f"margin-form majority {xs} not separated"
        for xs, ys in _dominant_sets(wins)
        if any(rates[x] >= rates[y] - RATE_TOL for x in xs for y in ys)
    ]
    return qualified, "; ".join(notes)


def check_clone_consistency(matrix: LlullMatrix, clones: frozenset[int]) -> None:
    """A set treated identically from outside stays together and contracts."""
    w = matrix.w
    outsiders = [x for x in range(matrix.n) if x not in clones]
    members = sorted(clones)
    witness = members[0]
    # Each clone's row and column against the outsiders, first the witness's.
    for grid in (w[np.ix_(members, outsiders)], w[np.ix_(outsiders, members)].T):
        if (grid != grid[0]).any():
            raise ValueError("clone set is not autonomous for the matrix")

    rates = _rates(matrix)
    for x in outsiders:
        below = [rates[a] <= rates[x] + RATE_TOL for a in clones]
        above = [rates[x] <= rates[a] + RATE_TOL for a in clones]
        if any(below) and not all(below) or any(above) and not all(above):
            raise VerificationFailure(
                f"candidate {x} separates the clone set {members}", matrix
            )

    kept = outsiders + [witness]
    quotient = LlullMatrix.lowest_terms(
        candidate_names(len(kept)), w[np.ix_(kept, kept)], matrix.den, matrix.total
    )
    qrates = _rates(quotient)
    pos = {c: i for i, c in enumerate(kept)}

    def rel(a: float, b: float) -> int:
        if abs(a - b) <= RATE_TOL:
            return 0
        return -1 if a < b else 1

    for p, q in permutations(kept, 2):
        if rel(rates[p], rates[q]) != rel(qrates[pos[p]], qrates[pos[q]]):
            raise VerificationFailure(
                f"contraction changes the relation between {p} and {q}", matrix
            )


def check_monotonicity(
    matrix: LlullMatrix, favored: int, perturbed: LlullMatrix
) -> None:
    """Raising a candidate's scores never pushes it behind anyone it beat."""
    n = matrix.n
    # Cross-multiplied numerators, Python ints as ``tolist`` gives them.
    v = [[p * perturbed.den for p in row] for row in matrix.w.tolist()]
    w = [[p * matrix.den for p in row] for row in perturbed.w.tolist()]
    for x, y in permutations(range(n), 2):
        if x == favored and w[x][y] < v[x][y]:
            raise ValueError("perturbation lowered a favored score")
        if y == favored and w[x][y] > v[x][y]:
            raise ValueError("perturbation raised an opposing score")
        if favored not in (x, y) and w[x][y] != v[x][y]:
            raise ValueError("perturbation touched an unrelated pair")
    before = _rates(matrix)
    after = _rates(perturbed)
    for y in range(n):
        if y == favored:
            continue
        if before[favored] < before[y] - RATE_TOL and not (
            after[favored] <= after[y] + RATE_TOL
        ):
            raise VerificationFailure(
                f"candidate {favored} fell behind {y} after being favored", matrix
            )
    if all(before[favored] < before[y] - RATE_TOL for y in range(n) if y != favored):
        if not all(
            after[favored] < after[y] + RATE_TOL for y in range(n) if y != favored
        ):
            raise VerificationFailure(
                f"strict winner {favored} lost the win after being favored", matrix
            )


def check_decomposition(
    candidates: CandidateSet, ballots: list[Ballot], top: frozenset[int]
) -> None:
    """Unanimous top sets split the election into independent pieces."""
    n = len(candidates)
    matrix = _matrix(candidates, ballots)
    unanimous = matrix.w == matrix.den
    keep = sorted(top)
    if not unanimous[np.ix_(keep, [y for y in range(n) if y not in top])].all():
        raise ValueError("top set is not unanimously preferred")
    rates = _rates(matrix)

    k = len(top)
    head_sum = sum(rates[x] for x in top)
    if abs(head_sum - k * (k + 1) / 2) > RATE_TOL * max(1, k):
        raise VerificationFailure(
            f"top-set rates sum to {head_sum}, expected {k * (k + 1) / 2}", (candidates, ballots)
        )

    if k > 1:
        remap = {c: i for i, c in enumerate(keep)}
        sub_ballots = []
        for ballot in ballots:
            groups = [tuple(sorted(remap[c] for c in group if c in top)) for group in ballot.groups]
            cutoff = ballot.approval_cutoff
            if cutoff is not None:  # counted in the groups that keep a member
                cutoff = sum(map(bool, groups[:cutoff]))
            sub_ballots.append(Ballot(tuple(filter(None, groups)), cutoff, ballot.weight))
        sub_rates = _rates(_matrix(candidate_names(k), sub_ballots))
        for c in keep:
            if abs(rates[c] - sub_rates[remap[c]]) > RATE_TOL:
                raise VerificationFailure(
                    f"restricted election changes the rate of {candidates.names[c]}",
                    (candidates, ballots),
                )

    for x, unanimous_first in enumerate(unanimous.sum(axis=1) == n - 1):
        if unanimous_first and abs(rates[x] - 1) > RATE_TOL:
            raise VerificationFailure(
                f"unanimous first {candidates.names[x]} has rate {rates[x]}", (candidates, ballots)
            )
        if not unanimous_first and rates[x] < 1 + RATE_TOL:
            raise VerificationFailure(
                f"{candidates.names[x]} reached rate 1 without unanimity", (candidates, ballots)
            )


def approval_counts(
    candidates: CandidateSet, ballots: list[Ballot]
) -> tuple[Fraction, ...]:
    counts = [Fraction(0)] * len(candidates)
    for ballot in ballots:
        for c in ballot.approved():
            counts[c] += ballot.weight
    return tuple(counts)


def check_approval_agreement(candidates: CandidateSet, ballots: list[Ballot]) -> None:
    """On approval profiles the tally's pairwise margins are the approval-score
    differences under both readings of the silent pairs, its scores are the
    direct approval counts, and the margin-completed tally ranks exactly like
    the approval scores."""
    n = len(candidates)
    approvals = approval_counts(candidates, ballots)

    both = [[Fraction(0)] * n for _ in range(n)]
    only = [[Fraction(0)] * n for _ in range(n)]
    for ballot in ballots:
        approved = ballot.approved()
        for x in approved:
            for y in range(n):
                if y != x:
                    (both if y in approved else only)[x][y] += ballot.weight

    # The total defaults to the weight sum, or to 1 when there are no ballots.
    readings = {
        u: aggregate(ballots, InterpretationRules(unlisted_pair=u), candidates) for u in Unlisted
    }
    for unlisted, matrix in readings.items():
        for x, y in permutations(range(n), 2):
            if matrix.absolute(x, y) - matrix.absolute(y, x) != approvals[x] - approvals[y]:
                raise VerificationFailure(
                    f"margin identity fails for ({x}, {y}) with silent pairs {unlisted.value}",
                    (candidates, ballots),
                )
    matrix = readings[Unlisted.NO_INFO]  # the default rules
    for x, y in permutations(range(n), 2):
        if matrix.absolute(x, y) != only[x][y] + both[x][y] / 2:
            raise VerificationFailure(
                "aggregation disagrees with the direct approval counts", (candidates, ballots)
            )
    rates = _rates(matrix, Variant.MARGIN_BASED)
    for x, y in permutations(range(n), 2):
        if (rates[x] < rates[y] - RATE_TOL) != (approvals[x] > approvals[y]):
            raise VerificationFailure(
                f"margin-based ranking of ({candidates.names[x]}, "
                f"{candidates.names[y]}) disagrees with approval scores",
                (candidates, ballots),
            )


def check_continuity(matrix: LlullMatrix, direction: dict[tuple[int, int], int]) -> None:
    """Shrinking a perturbation shrinks the rate movement toward zero.
    Each step of ``direction`` is a numerator over ``matrix.den``."""
    base = _rates(matrix)

    def perturbed(scale: Fraction) -> LlullMatrix:
        w = matrix.w.astype(object) * scale.denominator
        for (x, y), step in direction.items():
            w[x, y] += step * scale.numerator
        relative = LlullMatrix.from_absolute(
            matrix.candidates, w, matrix.den * scale.denominator, total=1
        )
        return replace(relative, total=matrix.total)

    drifts = []
    for exponent in range(2, 7):
        scale = Fraction(1, 10**exponent)
        rates = _rates(perturbed(scale))
        drifts.append(max(abs(a - b) for a, b in zip(rates, base)))
    for small, large in zip(drifts[1:], drifts[:-1]):
        if small > large + RATE_TOL:
            raise VerificationFailure(
                f"rate drift grew from {large} to {small} as the perturbation shrank", matrix
            )
    if drifts[-1] > 1e-3:
        raise VerificationFailure(
            f"rate drift {drifts[-1]} did not vanish with the perturbation", matrix
        )
    still = _rates(perturbed(Fraction(0)))
    if tuple(still) != tuple(base):
        raise VerificationFailure("zero perturbation changed the rates", matrix)


def check_duplication_renaming(
    candidates: CandidateSet, ballots: list[Ballot], copies: int, mapping: tuple[int, ...]
) -> None:
    """Copying every ballot or renaming every candidate cannot move rates."""
    base = _rates(_matrix(candidates, ballots))
    duplicated = _matrix(candidates, [b for b in ballots for _ in range(copies)])
    if _rates(duplicated) != base:
        raise VerificationFailure(
            f"{copies} copies of every ballot changed the rates", (candidates, ballots)
        )

    renamed_ballots = [
        Ballot(
            tuple(tuple(sorted(mapping[c] for c in group)) for group in b.groups),
            b.approval_cutoff,
            b.weight,
        )
        for b in ballots
    ]
    permuted = _rates(_matrix(candidates, renamed_ballots))
    for x in range(len(candidates)):
        if abs(permuted[mapping[x]] - base[x]) > RATE_TOL:
            raise VerificationFailure(
                f"renaming moved the rate of candidate {x} by "
                f"{abs(permuted[mapping[x]] - base[x])}",
                (candidates, ballots),
            )


def check_qp_agreement(problem: QpProblem) -> None:
    """Both solvers land on the same projection with clean optimality."""
    primal = solve_active_set(problem)
    residual = kkt_residual(problem, primal)
    if residual > 1e-8:
        raise VerificationFailure(f"KKT residual {residual} too large", problem)
    oracle = solve_dykstra(problem)
    gap = max(abs(a - b) for a, b in zip(primal.point, oracle.point))
    if gap > 1e-6:
        raise VerificationFailure(
            f"active-set and alternating projections disagree by {gap}", problem
        )


# ---------------------------------------------------------------------------
# Case builders: deterministic constructions feeding the checks above.


def _case_single_choice(rng: random.Random) -> None:
    n = rng.randint(2, 8)
    candidates = candidate_names(n)
    ballots = [
        Ballot(((rng.randrange(n),),), None, Fraction(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 12))
    ]
    check_single_choice(candidates, ballots)


def _case_order_independence(rng: random.Random) -> None:
    gen = ProfileGenerator(n_candidates=(3, 5), n_ballots=(2, 10), seed="oi")
    check_order_independence(_matrix(*_regen(gen, rng)))


def _regen(gen: ProfileGenerator, rng: random.Random):
    # Re-key the generator on the caller's stream to stay per-case deterministic.
    return replace(gen, seed=rng.randrange(2**30)).profile(0)


def _case_idempotence(rng: random.Random) -> str | None:
    matrix = random_matrix(rng, rng.randint(3, 6))
    variant = rng.choice(
        [Variant.MAIN, Variant.MAIN, Variant.CODUAL, Variant.BALANCED, Variant.MARGIN_BASED]
    )
    try:
        check_idempotence(matrix, variant)
    except NotAdmissible as exc:
        if variant in (Variant.CODUAL, Variant.BALANCED):
            return f"skipped: {exc}"  # surfaced, not guaranteed for these variants
        raise
    return None


def _top_and_rest(rng: random.Random) -> tuple[list[int], list[int]]:
    """3 to 6 candidates in a shuffled order, cut into a nonempty top and rest."""
    members = list(range(rng.randint(3, 6)))
    rng.shuffle(members)
    k = rng.randint(1, len(members) - 1)
    return members[:k], members[k:]


def _case_condorcet_smith(rng: random.Random) -> None:
    top, rest = _top_and_rest(rng)
    members = top + rest
    n = len(members)
    candidates = candidate_names(n)
    voters = 2 * rng.randint(2, 5) + 1
    majority = voters // 2 + 1
    ballots = []
    for _ in range(majority):
        perm_top = top[:]
        perm_rest = rest[:]
        rng.shuffle(perm_top)
        rng.shuffle(perm_rest)
        keep = rng.randint(0, len(perm_rest))
        listing = perm_top + perm_rest[:keep]
        ballots.append(Ballot(tuple((c,) for c in listing)))
    for _ in range(voters - majority):
        listing = members[:]
        rng.shuffle(listing)
        listing = listing[: rng.randint(1, n)]
        ballots.append(Ballot(tuple((c,) for c in listing)))
    qualified, notes = check_condorcet_smith(_matrix(candidates, ballots))
    if qualified == 0:
        raise VerificationFailure(
            "constructed majority partition did not qualify", (candidates, ballots)
        )
    return notes or None


def _case_clone_consistency(rng: random.Random) -> None:
    base_n = rng.randint(2, 4)
    k = rng.randint(2, 3)
    base = random_matrix(rng, base_n)
    cloned = base_n - 1  # expand the last base candidate into k clones
    clones = frozenset(range(cloned, cloned + k))
    # Numerators over 12, which the base denominator divides; each clone
    # takes the base row and column of the cloned candidate.
    of = [*range(cloned), *[cloned] * k]
    w = base.w[np.ix_(of, of)] * (12 // base.den)
    for a, b in combinations(sorted(clones), 2):
        turnout = rng.randint(0, 12)
        forward = rng.randint(0, turnout)
        w[a, b], w[b, a] = forward, turnout - forward
    matrix = LlullMatrix.from_absolute(candidate_names(len(of)), w, 12, total=1)
    check_clone_consistency(matrix, clones)


def _case_monotonicity(rng: random.Random) -> None:
    n = rng.randint(3, 6)
    matrix = random_matrix(rng, n)
    favored = rng.randrange(n)
    w, den = matrix.w.tolist(), matrix.den
    # Steps of h / den come in units of gcd(h, den) / den, as h / den in lowest terms.
    for y in range(n):
        if y == favored:
            continue
        headroom = den - w[favored][y] - w[y][favored]
        if rng.random() < 0.6 and headroom > 0:
            g = math.gcd(headroom, den)
            w[favored][y] += g * rng.randint(1, headroom // g)
        if rng.random() < 0.4 and w[y][favored] > 0:
            g = math.gcd(w[y][favored], den)
            w[y][favored] -= g * rng.randint(1, w[y][favored] // g)
    # A case that changed nothing is the trivial equality check.
    perturbed = LlullMatrix.from_absolute(matrix.candidates, np.array(w), den, total=1)
    check_monotonicity(matrix, favored, perturbed)


def _case_decomposition(rng: random.Random) -> None:
    top, rest = _top_and_rest(rng)
    candidates = candidate_names(len(top) + len(rest))
    ballots = []
    for _ in range(rng.randint(2, 10)):
        perm_top = top[:]
        rng.shuffle(perm_top)
        groups = tie_groups(rng, perm_top, 0.25)
        # An approval cutoff among the top groups leaves the top set unanimous.
        cutoff = rng.randint(0, len(groups)) if rng.random() < 0.3 else None
        perm_rest = rest[:]
        rng.shuffle(perm_rest)
        groups += tie_groups(rng, perm_rest[: rng.randint(0, len(perm_rest))], 0.25)
        ballots.append(Ballot(groups, cutoff, Fraction(rng.randint(1, 2))))
    check_decomposition(candidates, ballots, frozenset(top))


def _case_approval_agreement(rng: random.Random) -> None:
    gen = ProfileGenerator(n_candidates=(2, 6), n_ballots=(1, 14), approval=True)
    candidates, ballots = _regen(gen, rng)
    check_approval_agreement(candidates, ballots)


def _case_continuity(rng: random.Random) -> None:
    n = rng.randint(3, 5)
    matrix = random_matrix(rng, n)
    w = matrix.w.copy()
    x, y = rng.sample(range(n), 2)
    w[x, y] = w[y, x] = min(w[x, y], w[y, x])  # an exact tie the order can flip over
    matrix = LlullMatrix.from_absolute(matrix.candidates, w, matrix.den, total=1)
    w, den = matrix.w.tolist(), matrix.den
    direction: dict[tuple[int, int], int] = {}
    wanted = rng.randint(1, 4)
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    rng.shuffle(pairs)
    for p, q in pairs:
        if len(direction) == wanted:
            break
        headroom = den - w[p][q] - w[q][p]
        if headroom > 0:
            direction[(p, q)] = headroom
        elif w[p][q] > 0:
            direction[(p, q)] = -w[p][q]
    check_continuity(matrix, direction)


def _case_duplication_renaming(rng: random.Random) -> None:
    gen = ProfileGenerator(n_candidates=(2, 6), n_ballots=(1, 10))
    candidates, ballots = _regen(gen, rng)
    mapping = list(range(len(candidates)))
    rng.shuffle(mapping)
    check_duplication_renaming(candidates, ballots, rng.randint(2, 3), tuple(mapping))


# One case in four has a common denominator past 2**62, where the closures
# compare Python ints instead of int64.
PATH_DENOMINATORS = (12, 12, 12, 2**64 + 13)


def _case_paths(rng: random.Random) -> None:
    n = rng.randint(2, 5)
    check_paths(random_matrix(rng, n, rng.choice(PATH_DENOMINATORS)))


def random_feasible_problem(rng: random.Random, max_vars: int = 15) -> QpProblem:
    """A feasible program of up to ``max_vars`` variables: bounds and
    difference rows around a witness point, a few of them equalities."""
    d = rng.randint(1, max_vars)
    witness = [rng.uniform(-1.0, 2.0) for _ in range(d)]
    bounds: list[tuple[float | None, float | None]] = []
    for w in witness:
        roll = rng.random()
        if roll < 0.15:
            bounds.append((w, w))
        elif roll < 0.65:
            lo = w - rng.uniform(0.0, 1.0) if rng.random() < 0.8 else None
            hi = w + rng.uniform(0.0, 1.0) if rng.random() < 0.8 else None
            bounds.append((lo, hi))
        else:
            bounds.append((None, None))
    diffs = []
    for _ in range(rng.randint(0, 2 * d) if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        gap = witness[i] - witness[j]
        if rng.random() < 0.15:
            diffs.append((i, j, gap, gap))
        else:
            diffs.append((i, j, gap - rng.uniform(0.0, 1.0), gap + rng.uniform(0.0, 1.0)))
    center = tuple(rng.uniform(-2.0, 3.0) for _ in range(d))
    return QpProblem(center, tuple(bounds), tuple(diffs))


def equality_dense_problem(rng: random.Random) -> QpProblem:
    """A feasible program whose rows are mostly equalities.  They close
    cycles, consistent through a witness point, and bound equalities join
    their trees to the zero node."""
    d = rng.randint(2, 15)
    witness = [rng.uniform(-1.0, 2.0) for _ in range(d)]
    bounds: list[tuple[float | None, float | None]] = []
    for w in witness:
        roll = rng.random()
        if roll < 0.2:
            bounds.append((w, w))
        elif roll < 0.5:
            bounds.append((w - rng.random(), w + rng.random()))
        else:
            bounds.append((None, None))
    diffs = []
    for _ in range(rng.randint(d, 3 * d)):
        i, j = rng.sample(range(d), 2)
        gap = witness[i] - witness[j]
        spread = 0.0 if rng.random() < 0.7 else rng.random()
        diffs.append((i, j, gap - spread, gap + spread))
    center = tuple(rng.uniform(-2.0, 3.0) for _ in range(d))
    return QpProblem(center, tuple(bounds), tuple(diffs))


def _case_qp_agreement(rng: random.Random) -> None:
    roll = rng.random()
    if roll < 0.25:
        # A tally's own program: tie equalities, and bound rows that hang
        # trees of the working set on the zero node.
        matrix = random_matrix(rng, rng.randint(4, 7))
        details = project_details(matrix, rng.choice(list(Variant)))
        check_qp_agreement(turnout_qp(details.t, details.im))
        return
    if roll < 0.5:
        check_qp_agreement(equality_dense_problem(rng))
        return
    check_qp_agreement(random_feasible_problem(rng))


# ---------------------------------------------------------------------------
# Suite runner.


@dataclass(frozen=True)
class CaseOutcome:
    suite: str
    case: int | str
    passed: bool
    detail: str = ""
    replay: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    outcomes: tuple[CaseOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def failures(self) -> tuple[CaseOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)


SUITES = {
    "single-choice": _case_single_choice,
    "order-independence": _case_order_independence,
    "idempotence": _case_idempotence,
    "condorcet-smith": _case_condorcet_smith,
    "clone-consistency": _case_clone_consistency,
    "monotonicity": _case_monotonicity,
    "decomposition": _case_decomposition,
    "approval-agreement": _case_approval_agreement,
    "continuity": _case_continuity,
    "duplication-renaming": _case_duplication_renaming,
    "paths": _case_paths,
    "qp-agreement": _case_qp_agreement,
}


# The suites that check a ballot file given as an extra case: whether the
# file applies, and the check, whose name each lambda looks up when the case
# runs.  Two suites enumerate orders or paths, too slow past six candidates;
# approval agreement covers approval ballots only, every group approved.
FIXTURE_CHECKS = {
    "order-independence": (
        lambda c, b: len(c) <= 6, lambda c, b: check_order_independence(_matrix(c, b))
    ),
    "idempotence": (lambda c, b: True, lambda c, b: check_idempotence(_matrix(c, b))),
    "condorcet-smith": (lambda c, b: True, lambda c, b: check_condorcet_smith(_matrix(c, b))),
    "approval-agreement": (
        lambda c, b: all(x.approval_cutoff == len(x.groups) for x in b),
        lambda c, b: check_approval_agreement(c, b),
    ),
    "paths": (lambda c, b: len(c) <= 6, lambda c, b: check_paths(_matrix(c, b))),
}


def run_suite(
    name: str,
    cases: int = 100,
    seed: int = 0,
    fixture: tuple[CandidateSet, list[Ballot]] | None = None,
) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    builder = SUITES[name]
    runs: list[int | str] = list(range(cases))
    applies, fixture_check = FIXTURE_CHECKS.get(name, (None, None))
    if fixture is not None and applies is not None and applies(*fixture):
        runs.insert(0, "fixture")
    outcomes: list[CaseOutcome] = []
    for case in runs:
        try:
            if case == "fixture":
                fixture_check(*fixture)  # a note is printed for generated cases only
                note = None
            else:
                note = builder(random.Random(f"{seed}:{name}:{case}"))
            outcomes.append(CaseOutcome(name, case, True, note or ""))
        except VerificationFailure as failure:
            outcomes.append(CaseOutcome(name, case, False, str(failure), failure.replay))
        except Exception as exc:  # surfaced, never silently swallowed
            outcomes.append(
                CaseOutcome(name, case, False, f"{type(exc).__name__}: {exc}")
            )
    return SuiteReport(name, tuple(outcomes))


def run_all(
    cases: int = 100,
    seed: int = 0,
    fixture: tuple[CandidateSet, list[Ballot]] | None = None,
) -> list[SuiteReport]:
    return [run_suite(name, cases, seed, fixture) for name in SUITES]
