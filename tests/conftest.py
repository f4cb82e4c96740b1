import sys
from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def royal_text() -> str:
    return (FIXTURES / "royal1652.ballots").read_text()


@pytest.fixture(scope="session")
def debian_text() -> str:
    return (FIXTURES / "debian2006.csv").read_text()


@pytest.fixture(scope="session")
def pcs_text() -> str:
    return (FIXTURES / "pcs2006.ballots").read_text()


def run_cli(*args: str):
    import subprocess

    return subprocess.run(
        [sys.executable, "-m", "llull.cli", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )


def fractions(w, den):
    """Integer numerators over ``den`` back as a tuple grid of Fractions."""
    return tuple(tuple(Fraction(p, den) for p in row) for row in w.tolist())
