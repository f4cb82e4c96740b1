import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# Many cases for one property, loaded with ``--hypothesis-profile=thorough``;
# tier-1 runs each property at its own or the default count.
settings.register_profile("thorough", max_examples=2000)


@pytest.fixture(scope="session")
def royal_text() -> str:
    return (FIXTURES / "royal1652.ballots").read_text()


@pytest.fixture(scope="session")
def debian_text() -> str:
    return (FIXTURES / "debian2006.csv").read_text()


@pytest.fixture(scope="session")
def pcs_text() -> str:
    return (FIXTURES / "pcs2006.ballots").read_text()


def run_cli(*args: str, env: dict[str, str] | None = None):
    """``python -m llull.cli`` with ``args``, in the repository root, with
    ``env`` added to the environment."""
    import os
    import subprocess

    return subprocess.run(
        [sys.executable, "-m", "llull.cli", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
        env=None if env is None else {**os.environ, **env},
    )


def fractions(w, den):
    """Integer numerators over ``den`` back as a tuple grid of Fractions."""
    return tuple(tuple(Fraction(p, den) for p in row) for row in w.tolist())


def numerators(grid):
    """The inverse of ``fractions`` for a bare grid, one that need not be a
    Llull matrix (a closure, margins): numerators over the least common
    denominator, int64 below 2**62 and Python ints above; the diagonal
    reads 0."""
    n = len(grid)
    cells = [
        Fraction(x) if i != j else Fraction(0)
        for i, row in enumerate(grid)
        for j, x in enumerate(row)
    ]
    den = math.lcm(*(x.denominator for x in cells))
    nums = [int(x * den) for x in cells]
    small = max(den, *map(abs, nums)) < 2**62
    return np.array(nums, dtype=np.int64 if small else object).reshape(n, n), den
