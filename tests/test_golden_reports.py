"""The whole ``--json --intermediates`` report of each fixture, held still.

``fixtures/golden_reports.json.gz`` maps each fixture and variant to its
parsed report.  Exact fields must match as strings; float fields may move
by at most ``FLOAT_TOL``.  Regenerate the file only when a report changes
on purpose:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import gzip
import hashlib
import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from llull.ballots import (
    RESERVED,
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
    read_ballot_file,
)
from llull.closures import Variant
from llull.matrix import LlullMatrix
from llull.pipeline import RunConfig, render_json, run, tally

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

    monkeypatch.setattr(LlullMatrix, "from_scores", classmethod(refuse))
    assert [run(text, config) for config in configs] == want


def assert_written_as_json_dumps(text: str) -> None:
    """The report is laid out as ``json.dumps(..., sort_keys=True,
    indent=2)`` lays out what it parses to."""
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


@pytest.mark.parametrize("intermediates", [False, True], ids=["json", "intermediates"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", INPUTS)
def test_fixture_report_layout(name, variant, intermediates):
    config = RunConfig(
        variant=variant,
        json_output=True,
        intermediates=intermediates,
        matrix_input=name.endswith(".csv"),
    )
    assert_written_as_json_dumps(run((FIXTURES / name).read_text(), config))


def small_report(names, seed: int, variant: Variant, intermediates: bool) -> str:
    """The report of a random 7-voter matrix over ``names``, with the voter
    total also given as an option."""
    rng = random.Random(seed)
    n = len(names)
    counts = np.array([[0 if x == y else rng.randint(0, 3) for y in range(n)] for x in range(n)])
    matrix = LlullMatrix.from_absolute(CandidateSet(names), counts, 1, 7)
    config = RunConfig(
        variant=variant, total_voters=Fraction(7), json_output=True, intermediates=intermediates
    )
    return render_json(tally(matrix, variant), config)


@pytest.mark.parametrize("variant", [Variant.MAIN, Variant.CODUAL], ids=lambda v: v.value)
@pytest.mark.parametrize("names", [["a"], ["a", "b"]], ids=len)
def test_one_and_two_candidate_report_layout(names, variant):
    text = small_report(names, 0, variant, True)
    assert_written_as_json_dumps(text)
    doc = json.loads(text)
    assert (doc["intermediates"]["vbar"] is None) == (variant is Variant.MAIN)
    assert doc["config"]["total_voters"] == "7"
    assert len(doc["intermediates"]["gamma"]) == len(names) - 1


# Any character a candidate name may hold, escapes and controls included.
NAME = st.text(
    st.characters(blacklist_characters="".join(RESERVED)), min_size=1, max_size=5
).filter(lambda name: not any(c.isspace() for c in name))


@settings(max_examples=80, deadline=None)
@given(
    names=st.lists(NAME, min_size=1, max_size=4, unique=True),
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(list(Variant)),
    intermediates=st.booleans(),
)
def test_any_names_report_layout(names, seed, variant, intermediates):
    text = small_report(names, seed, variant, intermediates)
    assert_written_as_json_dumps(text)
    assert json.loads(text)["candidates"] == names


# Names that are prefixes of each other, multi-byte and of unequal byte lengths.
GENERATED_NAMES = ("a", "ab", "b", "\u00e9", "\u5019\u88dc", "c", "7", "00")


def generated_ballot_file(lines: int = 3000, seed: int = 7) -> str:
    """A ballot file with more distinct lines than one bulk block reads:
    rankings with ties, weights, cutoffs, odd spacing, repeats, comments
    and blanks."""
    rng = random.Random(seed)
    out = ["# generated", "candidates: " + " ".join(GENERATED_NAMES)]
    for _ in range(lines):
        roll = rng.random()
        if roll < 0.03:
            out.append(rng.choice(["", "  ", "# a comment line"]))
            continue
        if roll < 0.15 and len(out) > 2:
            out.append(rng.choice(out[2:]))
            continue
        listing = rng.sample(GENERATED_NAMES, rng.randint(1, len(GENERATED_NAMES)))
        body = listing[0]
        for name in listing[1:]:
            body += rng.choice([">", ">", "=", " > ", ">/"] if "/" not in body else ">>=") + name
        if "/" not in body and rng.random() < 0.05:
            body = rng.choice(["/" + body, body + "/"])
        weight = rng.choice(["", "", "", "", "2: ", "1/2:", " 3 : ", "5/3: ", "0.5: "])
        comment = rng.choice(["", "", "", "", "", " # note"])
        out.append(weight + body + comment)
    return "\n".join(out) + "\n"


# sha256 of each report of ``generated_ballot_file()`` under
# ``--json --intermediates``, with its exact fields only: the float fields
# come from the QP and may move in their last bits with the BLAS build.
GENERATED_SHA256 = {
    ("preferred", "noinfo"): "cf9298fa47b3ce67a9d00afb94e87aca4647aa08cf34db167bdc7fc64921bc92",
    ("preferred", "tied"): "0282d2d3faa38315dd6d3c2a5169ca8276a1768d332d3887616e561dc4ab919b",
    ("noinfo", "noinfo"): "b75115c81f295a6fd73140e331fc2a7e93f03c65cc76b308a1ab3192b34266e5",
    ("noinfo", "tied"): "1d8cc560cf77e62ec8a9854bd52f5fa1cbfb6b8da121ba29d4a5e03ea48bc033",
}


def exact_sha256(report_text: str) -> str:
    doc = json.loads(report_text)
    exact = {field: doc[field] for field in EXACT}
    exact["intermediates"] = {f: doc["intermediates"][f] for f in EXACT_INTERMEDIATES}
    text = json.dumps(exact, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rules", list(GENERATED_SHA256), ids="-".join)
def test_generated_file_over_one_block_keeps_its_report(rules):
    text = generated_ballot_file()
    assert len(read_ballot_file(text)[1].kinds) > 2048
    config = RunConfig(
        rules=InterpretationRules(Listed(rules[0]), Unlisted(rules[1])),
        json_output=True,
        intermediates=True,
    )
    assert exact_sha256(run(text, config)) == GENERATED_SHA256[rules]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    docs = {name: {v.value: report(name, v) for v in Variant} for name in INPUTS}
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    GOLDEN.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
