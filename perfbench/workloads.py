"""Seeded inputs for the benchmark workloads.

A workload is a list of jobs.  A job is the text a user would hand to
``llull run`` together with the options of that run; the benchmark passes
the program nothing else.  The same (workload, seed, smoke) triple always
gives byte-identical jobs.  Candidate names are ``c00``, ``c01``, ... and are
generated here, because the library's own name generator stops at 26.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = ("main", "codual", "balanced", "margin-based")


@dataclass(frozen=True)
class Job:
    text: str
    variant: str = "main"
    matrix_input: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], list[Job]]  # (seed, smoke) -> jobs
    # Layers meant to take at least DOMINANT_SHARE of a traced tally
    # together; when empty, no single layer may take more than FLAT_SHARE.
    dominant: tuple[str, ...] = ()


DOMINANT_SHARE = 0.9
FLAT_SHARE = 0.6


def candidate_names(n: int) -> list[str]:
    return [f"c{i:02d}" for i in range(n)]


def _ballot_line(
    names: list[str],
    groups: list[list[int]],
    cutoff: int | None = None,
    weight: str | None = None,
) -> str:
    """One line of the ballot grammar; ``cutoff`` groups count as approved."""
    parts = []
    for i, group in enumerate(groups):
        text = "=".join(names[c] for c in group)
        if cutoff == i + 1:
            text += "/"
        parts.append(text)
    body = ">".join(parts)
    if cutoff == 0:
        body = "/" + body
    return f"{weight}: {body}" if weight else body


def _ballot_file(names: list[str], lines: list[str]) -> str:
    return "\n".join(["candidates: " + " ".join(names), *lines]) + "\n"


def _tie_groups(listing: list[int], ties: list[bool]) -> list[list[int]]:
    """Split a listing into groups; ``ties[k]`` joins item k + 1 to item k."""
    groups = [[listing[0]]]
    for item, tied in zip(listing[1:], ties):
        if tied:
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


# ---------------------------------------------------------------------------
# ballots-repeated: few ballot kinds, each cast many times.

BALLOT_LINES = 15_000

def _repeated(seed: int, smoke: bool) -> list[Job]:
    n, lines, kinds = (5, 300, 30) if smoke else (10, BALLOT_LINES, 300)
    names = candidate_names(n)
    # The shape of each kind (how many candidates it lists, where it ties) is
    # the same for every seed, so the per-line cost of a run does not depend
    # on which shapes the seed happens to rank first; the seed picks the
    # candidates that fill each shape and the Zipf draw of the lines.
    shape_rng = random.Random(f"ballots-repeated:shapes:{n}:{kinds}")
    shapes = []
    for _ in range(kinds):
        length = n if shape_rng.random() < 0.4 else shape_rng.randint(2, n - 1)
        shapes.append([shape_rng.random() < 0.2 for _ in range(length - 1)])
    rng = random.Random(f"ballots-repeated:{seed}:{smoke}")
    kind_lines: list[str] = []
    seen: set[str] = set()
    for ties in shapes:
        while True:
            listing = rng.sample(range(n), len(ties) + 1)
            line = _ballot_line(names, _tie_groups(listing, ties))
            if line not in seen:
                break
        seen.add(line)
        kind_lines.append(line)
    zipf = [1.0 / (rank + 1) for rank in range(kinds)]
    drawn = rng.choices(kind_lines, weights=zipf, k=lines)
    return [Job(_ballot_file(names, drawn))]


# ---------------------------------------------------------------------------
# ballots-unique: nearly every ballot distinct.

def _unique(seed: int, smoke: bool) -> list[Job]:
    n, lines = (5, 300) if smoke else (10, BALLOT_LINES)
    names = candidate_names(n)
    rng = random.Random(f"ballots-unique:{seed}:{smoke}")
    out = []
    for _ in range(lines):
        listing = rng.sample(range(n), n)
        if rng.random() < 0.5:
            listing = listing[: rng.randint(1, n - 1)]
        ties = [rng.random() < 0.2 for _ in range(len(listing) - 1)]
        out.append(_ballot_line(names, _tie_groups(listing, ties)))
    return [Job(_ballot_file(names, out))]


# ---------------------------------------------------------------------------
# matrix-wide: score matrices over many candidates.

def _wide_matrix(rng: np.random.Generator, n: int, voters: int, truncated: float) -> str:
    """Aggregate an impartial-culture profile into a matrix CSV.

    Every ballot is a uniformly random strict ranking; a ``truncated`` share
    of them list only a uniformly random prefix of 1 to n - 1 candidates.
    Listed candidates beat unlisted ones, matching the default rules, so the
    CSV holds whole vote counts.
    """
    order = np.argsort(rng.random((voters, n)), axis=1)
    keep = np.where(rng.random(voters) < truncated, rng.integers(1, n, voters), n)
    pos = np.empty_like(order)
    pos[np.arange(voters)[:, None], order] = np.arange(n)[None, :]
    listed = pos < keep[:, None]
    pos = np.where(listed, pos, n)
    names = candidate_names(n)
    rows = [",".join(names), f"V={voters}"]
    for x in range(n):
        wins = ((pos[:, [x]] < pos) & listed[:, [x]]).sum(axis=0)
        rows.append(",".join("*" if y == x else str(int(wins[y])) for y in range(n)))
    return "\n".join(rows) + "\n"


def _wide(seed: int, smoke: bool) -> list[Job]:
    # Twenty candidates, not thirty: a 30-candidate tally takes 7 to 13 s
    # here and its time swings by a third from one tally to the next, as the
    # two OpenBLAS threads inside lstsq lose and regain the CPUs, so a run
    # could not hold enough of them for a steady median.  At 20 candidates
    # the QP still makes up nearly all of a tally and a run holds about
    # twenty tallies of twelve matrices.
    n, voters, count = (6, 50, 2) if smoke else (20, 2000, 12)
    rng = np.random.default_rng([seed, n, voters])
    return [
        Job(_wide_matrix(rng, n, voters, 0.8), matrix_input=True) for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# small-elections: many elections the size of the golden fixtures.

def _small_election(rng: random.Random, n: int) -> str:
    names = candidate_names(n)
    lines = []
    for _ in range(rng.randint(5, 60)):
        weight = rng.choices([None, "2", "1/2"], weights=[17, 2, 1])[0]
        listing = rng.sample(range(n), n)
        if rng.random() < 0.1:
            # A bare approval ballot: the approved set, nothing ranked below.
            lines.append(_ballot_line(names, [listing[: rng.randint(1, n)]], 1, weight))
            continue
        if rng.random() < 0.5:
            listing = listing[: rng.randint(1, n - 1)]
        groups = _tie_groups(listing, [rng.random() < 0.25 for _ in listing[1:]])
        cutoff = rng.randint(0, len(groups)) if rng.random() < 0.2 else None
        lines.append(_ballot_line(names, groups, cutoff, weight))
    return _ballot_file(names, lines)


def _small(seed: int, smoke: bool) -> list[Job]:
    count = 24 if smoke else 400
    rng = random.Random(f"small-elections:{seed}:{smoke}")
    jobs = []
    for i in range(count):
        # Sizes and variants cycle so that every run holds the same mix.
        n = 3 + i % 6
        variant = VARIANTS[(i // 6) % len(VARIANTS)]
        jobs.append(Job(_small_election(rng, n), variant=variant))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ballots-repeated",
            "15k ballot lines over 10 candidates drawn Zipf-like from 300 kinds; "
            "parse and exact aggregation dominate and most lines repeat",
            _repeated,
            ("ballots.read_ballot_file", "matrix.aggregate"),
        ),
        Workload(
            "ballots-unique",
            "15k truncated rankings with ties over 10 candidates, 89% of lines "
            "distinct; the same layers as ballots-repeated with little to share",
            _unique,
            ("ballots.read_ballot_file", "matrix.aggregate"),
        ),
        Workload(
            "matrix-wide",
            "20-candidate score matrices from truncated impartial-culture "
            "profiles; the active-set turnout QP dominates, no ballot parsing",
            _wide,
            ("qp.solve_active_set",),
        ),
        Workload(
            "small-elections",
            "400 fixture-sized elections (3-8 candidates, 5-60 ballots) cycling "
            "all four variants; per-call set-up cost shows here",
            _small,
        ),
    )
}


def build(name: str, seed: int, smoke: bool = False) -> list[Job]:
    return WORKLOADS[name].build(seed, smoke)


def ballot_lines(job: Job) -> list[str]:
    """The ballot lines of a ballot-file job (none for a matrix job)."""
    if job.matrix_input:
        return []
    return [
        line
        for line in job.text.splitlines()[1:]
        if line.split("#", 1)[0].strip()
    ]


def input_properties(jobs: list[Job]) -> dict:
    """Properties of the input text that the layers' costs depend on.

    The distinct share counts lines that are distinct within their own
    election.
    """
    lines = [ballot_lines(job) for job in jobs]
    total = sum(len(ls) for ls in lines)
    distinct = sum(len(set(ls)) for ls in lines)
    return {
        "jobs": len(jobs),
        "ballot_lines": total,
        "distinct_ballot_share": distinct / total if total else None,
        "variants": sorted({job.variant for job in jobs}),
    }
