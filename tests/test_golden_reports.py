"""The whole ``--json --intermediates`` report of each fixture, held still.

``fixtures/golden_reports.json.gz`` maps each fixture and variant to its
parsed report.  Exact fields must match as strings; float fields may move
by at most ``FLOAT_TOL``.  Regenerate the file only when a report changes
on purpose:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import gzip
import json
import sys

import pytest

from conftest import FIXTURES
from llull.closures import Variant
from llull.matrix import LlullMatrix
from llull.pipeline import RunConfig, run

GOLDEN = FIXTURES / "golden_reports.json.gz"
INPUTS = (
    "royal1652.ballots",
    "pcs2006.ballots",
    "debian2006.csv",
    "wide20_lstsq.csv",
    "huge_weights.ballots",
    "wide30.csv",
)
EXACT = ("candidates", "config", "ranking", "schema", "total_voters")
EXACT_INTERMEDIATES = ("v", "t", "vstar", "vbar", "m", "copeland", "xi", "msigma")
FLOAT_INTERMEDIATES = ("tausigma", "gamma", "pi")
FLOAT_TOL = 1e-12


def report(name: str, variant: Variant) -> dict:
    config = RunConfig(
        variant=variant,
        json_output=True,
        intermediates=True,
        matrix_input=name.endswith(".csv"),
    )
    return json.loads(run((FIXTURES / name).read_text(), config))


def flat(grid) -> list[float]:
    return [x for row in grid for x in row]


@pytest.fixture(scope="module")
def golden() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", INPUTS)
def test_report_matches_golden(golden, name, variant):
    want = golden[name][variant.value]
    got = report(name, variant)
    assert got.keys() == want.keys()
    assert got["intermediates"].keys() == want["intermediates"].keys()
    for field in EXACT:
        assert got[field] == want[field], field
    for field in EXACT_INTERMEDIATES:
        assert got["intermediates"][field] == want["intermediates"][field], field
    assert got["rates"].keys() == want["rates"].keys()
    assert list(got["rates"].values()) == pytest.approx(
        list(want["rates"].values()), abs=FLOAT_TOL
    )
    for field in FLOAT_INTERMEDIATES:
        assert flat(got["intermediates"][field]) == pytest.approx(
            flat(want["intermediates"][field]), abs=FLOAT_TOL
        ), field


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", INPUTS)
def test_no_fraction_grid_between_parse_and_report(monkeypatch, name, variant):
    """Every report, text and JSON, comes out the same when building a grid
    of Fractions raises: the tally path runs on the integer matrix alone."""
    text = (FIXTURES / name).read_text()
    configs = [
        RunConfig(
            variant=variant,
            json_output=detail,
            intermediates=detail,
            matrix_input=name.endswith(".csv"),
        )
        for detail in (False, True)
    ]
    want = [run(text, config) for config in configs]

    def refuse(*args):
        raise AssertionError("a Fraction grid was built on the tally path")

    monkeypatch.setattr(LlullMatrix, "scores", property(refuse))
    monkeypatch.setattr(LlullMatrix, "from_scores", classmethod(refuse))
    assert [run(text, config) for config in configs] == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    docs = {name: {v.value: report(name, v) for v in Variant} for name in INPUTS}
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    GOLDEN.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
