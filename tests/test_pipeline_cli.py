import contextlib
import functools
import io
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, run_cli
from llull import cli, closures, ordering, pipeline, projection, verify
from llull.ballots import (
    CandidateSet,
    Listed,
    Unlisted,
    _NameTable,
    _plain_rows,
    _Weights,
    parse_ballot_line,
    read_ballot_file,
)
from llull.closures import Variant
from llull.cli import (
    EXIT_INFEASIBLE,
    EXIT_NOT_ADMISSIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    main,
)
from llull.errors import (
    BallotError,
    Infeasible,
    LawViolation,
    LlullError,
    MalformedSyntax,
    MatrixFormatError,
    MaxIterations,
    NonPositiveWeight,
    NotAdmissible,
)
from llull.matrix import read_matrix, write_matrix
from llull.projection import project_details, turnout_qp
from llull.qp import kkt_residual
from llull.rates import RateFormula


@contextlib.contextmanager
def int_digit_limit(limit):
    """Python's integer-string limit set to ``limit`` (0 turns it off) and
    restored after; the test skips where the interpreter has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer-string limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# Every site that reads a number from the input, with the error it reports.
# A weighted plain line is read in bulk, one with inner space by the tokenizer.
READING_SITES = pytest.mark.parametrize(
    "text, flags, message",
    [
        ("a,b\nV=2\n*,{}\n0,*\n", ["--matrix"], "{path}: line 3: cannot read entry '{}'"),
        ("a,b\nV={}\n*,0\n0,*\n", ["--matrix"], "{path}: line 2: cannot read the voter total"),
        ("a>b\n{}: b>a\n", [], "{path}: line 2, column 1: cannot read weight '{}'"),
        ("a>b\n", ["--total-voters", "{}"], "cannot read the voter total '{}'"),
        ("a>b\n{}: b > a\n", [], "{path}: line 2, column 1: cannot read weight '{}'"),
    ],
    ids=["matrix-cell", "matrix-total", "ballot-weight", "total-voters-option",
         "tokenizer-weight"],
)
LONG_INTEGER = "9" * 5000
LONG_EXPONENT = "1e" + "9" * 5000


class TestHostileNumbers:
    """A number whose numerator or denominator would need more digits than
    Python prints is refused where it is read, before it is built: each
    site keeps its own error and exits 2, quickly and without a traceback."""

    @pytest.mark.parametrize("number", ["1e5000", "1e-5000", "1e999999999"])
    @READING_SITES
    def test_refused_where_read(self, tmp_path, capsys, number, text, flags, message):
        f = tmp_path / "input"
        f.write_text(text.format(number))
        args = [flag.format(number) for flag in flags]
        assert main(["run", "--json", "--intermediates", *args, str(f)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: " + message.format(number, path=f) + "\n"

    @pytest.mark.parametrize(
        "number",
        [LONG_INTEGER, LONG_INTEGER + "/1", LONG_INTEGER + ".0", LONG_EXPONENT,
         "1.0e" + "9" * 5000],
        ids=["integer", "ratio", "decimal", "exponent", "decimal-exponent"],
    )
    @READING_SITES
    def test_refused_where_read_with_the_limit_off(
        self, tmp_path, capsys, number, text, flags, message
    ):
        # Where Python's limit is off, 4300 digits still bound a number:
        # it could take unbounded time to build.
        with int_digit_limit(0):
            self.test_refused_where_read(tmp_path, capsys, number, text, flags, message)

    @pytest.mark.parametrize("number", [LONG_INTEGER, LONG_EXPONENT], ids=["integer", "exponent"])
    @READING_SITES
    def test_refused_by_llull_run_with_the_limit_off(self, tmp_path, number, text, flags, message):
        # The limit turned off for the whole process, as a user may.
        f = tmp_path / "input"
        f.write_text(text.format(number))
        args = [flag.format(number) for flag in flags]
        r = run_cli("run", *args, str(f), env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert (r.returncode, r.stdout) == (EXIT_PARSE, "")
        assert r.stderr == "error: " + message.format(number, path=f) + "\n"

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("{0}: a>b\n{0}: b>a\n".format("9" * 4300), ["--json"]),
            ("a,b\nV=1{}1\n*,1e-4000\n0,*\n".format("0" * 3999),
             ["--json", "--intermediates", "--matrix"]),
        ],
        ids=["weight-sum", "cell-over-voter-total"],
    )
    def test_numbers_that_compose_past_the_limit(self, tmp_path, capsys, text, flags):
        # Each number passes the limit where it is read; their sum, or a
        # cell over the voter total, does not, and only the JSON report
        # prints it exactly.
        f = tmp_path / "input"
        f.write_text(text)
        assert main(["run", *flags, str(f)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a number in the report has more digits than Python prints\n"
        assert main(["run", *[flag for flag in flags if flag == "--matrix"], str(f)]) == 0
        assert "ranking: " in capsys.readouterr().out


# Decimal digits, ASCII and other (Arabic-Indic, Devanagari, fullwidth), and
# a superscript digit, which is a digit but not a decimal one.
NUMBER_CHARS = ["0", "1", "7", "9", "\u0661", "\u0969", "\uff10", "\u00b2", "_"]
SPACES = st.sampled_from(["", " ", "\t", "\u3000"])
SIGNS = st.sampled_from(["", "+", "-"])
AB = CandidateSet("ab")


@st.composite
def number_texts(draw):
    """Texts in and near every reader's number grammar: an optional sign,
    a digit run, then a denominator (zero ones among them) or a fraction
    part and an exponent, between optional spaces.  A digit run is up to 4
    ASCII digits, or characters of ``NUMBER_CHARS``, sometimes padded with
    nines to just under, at or over 4300 characters."""

    def run():
        padding = draw(st.sampled_from([0, 0, 0, 0, 4295, 4299, 4300]))
        ascii_digits = draw(st.booleans())
        chars = st.sampled_from("0123456789" if ascii_digits else NUMBER_CHARS)
        return draw(st.text(chars, min_size=ascii_digits, max_size=4)) + "9" * padding

    parts = [draw(SPACES), draw(SIGNS), run()]
    tail = draw(st.sampled_from(["", "/", " / ", "."]))
    if "/" in tail:
        zero = draw(st.sampled_from(["0", "00", "0_0", None]))
        parts += [tail, zero if zero is not None else run()]
    else:
        parts += [tail, run() if tail else ""]
        if draw(st.booleans()):
            parts += [draw(st.sampled_from("eE")), draw(SIGNS), run()]
    return "".join(parts) + draw(SPACES)


def read_at_every_site(text):
    """``text`` read as a matrix cell, a weight by the tokenizer and a weight
    in bulk: each a number, None for a refusal, or "negative" for a cell and
    "not positive" for a tokenizer weight that the site refuses by its sign."""
    try:
        cell = read_matrix(f"a,b\n*,{text}\n0,*\n", 10**4400).absolute(0, 1)
    except MatrixFormatError as exc:
        cell = "negative" if "negative entry" in str(exc) else None
    try:
        weight = parse_ballot_line(f"{text}: a", AB).weight
    except NonPositiveWeight:
        weight = "not positive"
    except MalformedSyntax:
        weight = None
    weights = _Weights()
    _, _, ids = _plain_rows([f"{text}: a".strip()], _NameTable(AB.names), weights)
    bulk = weights.fractions[ids[0]] if ids[0] >= 0 else None
    return cell, weight, bulk


@pytest.mark.parametrize("limit", [4300, 0], ids=["limit-on", "limit-off"])
@given(st.one_of(number_texts(), st.text(st.sampled_from(list("0179_+-/.eE \u0661\u00b2")))))
@example(text="1_0")
@example(text=" -\u0661/0 ")
@example(text="9" * 4300)
@example(text="9" * 4301)
@example(text="1e" + "9" * 4301)
@settings(max_examples=200, deadline=None)
def test_every_site_reads_a_number_alike(limit, text):
    """A matrix cell, a tokenizer weight and a bulk weight read the same text
    as the same number, or all refuse it; only the sign rules differ."""
    with int_digit_limit(limit):
        cell, weight, bulk = read_at_every_site(text)
    if weight is None:
        assert (cell, bulk) == (None, None)
    elif weight == "not positive":
        assert (cell == "negative" or cell == 0, bulk) == (True, None)
    else:
        assert cell == weight == bulk


# Pieces of ballot lines: names, the grammar's marks, the reserved ",",
# number characters (Arabic-Indic and fullwidth digits among them), spaces
# of several kinds, and "\r" and "\x85", which end a line.
BALLOT_PIECES = ["a", "b", "c", "ab", ">", "=", "/", ":", "#", ",", "0", "1", "2", "9", ".", "_",
                 "e", "\u0663", "\uff12", " ", "\t", "\u3000", "\u00a0", "\r", "\x85"]
# Matrix cells: integers, ratios, decimals, exponents, negatives, a zero
# denominator and junk.
MATRIX_CELLS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["*", "1/2", "7/3", "0.5", "2.25", "1e1", "1e-1", "-1", "-1/2", "2/0",
                     "x", "", "1/", "**", " 3 ", "\u0663", "1_0", "nan"]),
)
SPACES_OR_NOT = st.sampled_from(["", "", " ", "\u3000"])


@st.composite
def ballot_files(draw):
    """A few short lines of ballot pieces, after a ``candidates:`` line or not."""
    line = st.lists(st.sampled_from(BALLOT_PIECES), max_size=10).map("".join)
    header = draw(st.sampled_from(["", "", "candidates: a b c\n", "candidates: b a\n"]))
    return header + "\n".join(draw(st.lists(line, max_size=6))) + draw(st.sampled_from(["", "\n"]))


@st.composite
def matrix_files(draw):
    """A CSV of 1-4 candidates: a header, maybe a ``V=`` line, and about as
    many rows, each maybe labelled, of mostly numeric cells around a
    mostly ``*`` diagonal."""
    n = draw(st.integers(1, 4))
    names = list("abcd"[:n])
    lines = [",".join(names)]
    if draw(st.booleans()):
        total = draw(st.one_of(st.integers(0, 30).map(str), MATRIX_CELLS))
        lines.insert(draw(st.integers(0, 1)), f"V={total}")
    for i in range(max(0, n + draw(st.sampled_from([0, 0, 0, 1, -1])))):
        cells = [draw(st.sampled_from(["*", "*", "*", "0"])) if i == j else draw(MATRIX_CELLS)
                 for j in range(n)]
        label = [names[i % n]] if draw(st.booleans()) else []
        lines.append(",".join(label + [draw(SPACES_OR_NOT) + c for c in cells]))
    return "\n".join(lines) + "\n"


@st.composite
def run_flags(draw):
    """A variant, both ballot rules, a rate formula, an output mode and
    maybe a voter total."""
    flags = ["--variant", draw(st.sampled_from([v.value for v in Variant])),
             "--listed-vs-unlisted", draw(st.sampled_from([v.value for v in Listed])),
             "--unlisted-pair", draw(st.sampled_from([v.value for v in Unlisted])),
             "--formula", draw(st.sampled_from([f.value for f in RateFormula]))]
    flags += draw(st.sampled_from([[], ["--json"], ["--intermediates"], ["--json", "--intermediates"]]))
    if draw(st.integers(0, 3)) == 0:
        flags += ["--total-voters", draw(st.sampled_from(["1", "12", "7/2", "1e2", "0", "-3"]))]
    return flags


# The exit status ``llull.cli`` documents for each error class; the first
# class that matches decides.
DOCUMENTED_STATUS = [
    ((BallotError, MatrixFormatError), EXIT_PARSE),
    (Infeasible, EXIT_INFEASIBLE),
    (NotAdmissible, EXIT_NOT_ADMISSIBLE),
    ((MaxIterations, LawViolation), EXIT_NUMERICAL),
    (LlullError, EXIT_PARSE),
]


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@given(st.one_of(ballot_files().map(lambda t: (t, [])),
                 matrix_files().map(lambda t: (t, ["--matrix"]))),
       run_flags())
@example(case=("a,b\n*,0\n2/0,*\n", ["--matrix"]), flags=[])
@example(case=("2/0: a>b\n", []), flags=[])
@example(case=("a,b\n*,0\n1,*\n", []), flags=[])
@settings(deadline=None)
def test_no_input_ends_in_a_traceback(fuzz_input, case, flags):
    """``llull run`` on a short random input exits 0, or with the status
    documented for the class of the error it raised; any other exception
    escapes ``main`` and fails the test."""
    text, input_flags = case
    fuzz_input.write_bytes(text.encode("utf-8"))
    raised = []

    def recorded(text, config):
        try:
            return pipeline.run(text, config)
        except LlullError as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "run", recorded), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        status = main(["run", str(fuzz_input), *input_flags, *flags])
    outcome = type(raised[0]).__name__ if raised else f"exit {status}"
    event(f"{'matrix' if input_flags else 'ballots'}: {outcome}")
    if raised:
        expected = next(code for kinds, code in DOCUMENTED_STATUS if isinstance(raised[0], kinds))
        assert (status, out.getvalue()) == (expected, ""), err.getvalue()
    else:
        assert (status, err.getvalue()) == (EXIT_OK, "")


class TestRunCommand:
    def test_text_report(self):
        r = run_cli("run", "tests/fixtures/royal1652.ballots")
        assert r.returncode == 0
        assert "ranking: b > a = e = f > d > c" in r.stdout
        assert "2.6667" in r.stdout and "5.1667" in r.stdout

    def test_json_report(self):
        r = run_cli("run", "--json", "tests/fixtures/royal1652.ballots")
        doc = json.loads(r.stdout)
        assert doc["schema"] == 1
        assert doc["total_voters"] == "6"
        assert doc["ranking"][0] == ["b"]
        assert doc["rates"]["b"] == pytest.approx(2.6667, abs=1e-4)
        assert doc["config"]["variant"] == "main"

    def test_matrix_input(self):
        r = run_cli("run", "--matrix", "--json", "tests/fixtures/debian2006.csv")
        doc = json.loads(r.stdout)
        assert doc["rates"]["4"] == pytest.approx(3.6784, abs=1e-4)
        assert doc["ranking"] == [["4"], ["3"], ["1", "5"], ["7"], ["8"], ["2"], ["6"]]

    def test_total_voters_rescales_matrix(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b\nV=4\n*,2\n1,*\n")
        base = json.loads(run_cli("run", "--matrix", "--json", str(f)).stdout)
        wide = json.loads(
            run_cli("run", "--matrix", "--json", "--total-voters", "8", str(f)).stdout
        )
        assert base["rates"]["a"] == pytest.approx(1.5, abs=1e-9)
        assert wide["total_voters"] == "8"
        assert wide["rates"]["a"] == pytest.approx(1.75, abs=1e-9)  # toward worst

    def test_matrix_total_voters_below_a_turnout(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b,c\nV=4\n*,2,1\n1,*,0\n0,1,*\n")
        r = run_cli("run", "--matrix", "--total-voters", "2", str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stderr == "error: pair (a, b) has absolute turnout 3 > V = 2\n"

    @pytest.mark.parametrize("total_line", ["", "V=4\n"], ids=["no-total", "total-below-a-turnout"])
    def test_total_voters_replaces_the_file_total(self, tmp_path, total_line):
        given = tmp_path / "given.csv"
        given.write_text(f"a,b,c\n{total_line}*,6,2\n6,*,3\n1,2,*\n")
        written = tmp_path / "written.csv"
        written.write_text("a,b,c\nV=20\n*,6,2\n6,*,3\n1,2,*\n")
        r = run_cli("run", "--matrix", "--total-voters", "20", str(given))
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == run_cli("run", "--matrix", str(written)).stdout

    def test_negative_matrix_entry_reported_where_written(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b,c\nV=4\n*,1,1\n1,*,1\n-2,1,*\n")
        r = run_cli("run", "--matrix", str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert r.stderr == f"error: {f}: line 5: pair (c, a) has negative entry '-2'\n"

    def test_zero_voter_total_in_matrix(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b\nV=0\n*,0\n0,*\n")
        r = run_cli("run", "--matrix", str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stderr.startswith("error: ")
        assert "line 2: the voter total V = 0 is not positive" in r.stderr

    @pytest.mark.parametrize(
        "text, line",
        [("a,b\nV=4\n*,2\n1,*\nV=100\n", 5), ("a,b\nV=4\n7,2\n1,*\n", 3)],
    )
    def test_malformed_matrix_exits_with_its_line(self, tmp_path, text, line):
        f = tmp_path / "m.csv"
        f.write_text(text)
        r = run_cli("run", "--matrix", str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert f"line {line}: " in r.stderr

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("candidates: a b\n/\n", ["--total-voters", "1/9223372036854775808"]),
            ("a,b\nV=1e-400\n*,0\n0,*\n", ["--matrix"]),
        ],
        ids=["total-voters-option", "matrix-total"],
    )
    def test_zero_counts_over_a_total_with_a_huge_denominator(self, tmp_path, capsys, text, flags):
        # V = p / q with q >= 2**63 scales the counts by q, past int64.
        f = tmp_path / "input"
        f.write_text(text)
        assert main(["run", *flags, str(f)]) == 0
        assert capsys.readouterr().out.endswith("ranking: a = b\n")

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("a>b\nb>a\na>b\n", []),
            ("candidates: a b\na>b\nb>a\n", []),
            ("a,b\nV=3\n*,2\n1,*\n", ["--matrix"]),
        ],
        ids=["ballots", "candidates-line", "matrix"],
    )
    def test_a_byte_order_mark_is_ignored(self, tmp_path, capsys, text, flags):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        commands = [["run", *flags], ["run", "--json", "--intermediates", *flags]]
        if not flags:
            commands.append(["verify", "--cases", "0", "--input"])
        for command in commands:
            reports = []
            for f in (plain, marked):
                assert main([*command, str(f)]) == 0
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1]
            assert "\ufeff" not in reports[1]

    def test_zero_total_voters_on_cutoff_only_ballots(self, tmp_path):
        f = tmp_path / "b.ballots"
        f.write_text("candidates: a b\n/\n/\n")
        r = run_cli("run", "--total-voters", "0", str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stderr == "error: the voter total V = 0 is not positive\n"

    @pytest.mark.parametrize("total", ["abc", "1/0"])
    def test_unreadable_total_voters(self, total):
        r = run_cli("run", "--total-voters", total, "tests/fixtures/royal1652.ballots")
        assert r.returncode == EXIT_PARSE
        assert r.stderr == f"error: cannot read the voter total {total!r}\n"

    def test_one_vote_margin_is_not_a_tie(self, tmp_path):
        # a beats b by one vote in ten billion; the ranking keeps them apart
        f = tmp_path / "close.ballots"
        f.write_text("5000000001: a>b\n5000000000: b>a\n3: c\n")
        r = run_cli("run", str(f))
        assert r.returncode == 0
        assert "ranking: a > b > c" in r.stdout

    def test_one_vote_margins_among_a_billion_voters(self, tmp_path):
        # Margins of one vote in 1e9 are as small as the law check's float
        # slack; tie propagation is asked only of exactly tied pairs, so the
        # check no longer reads these as ties and fails.
        f = tmp_path / "billion.csv"
        f.write_text(
            "a,b,c,d,e\nV=1000000000\n"
            "*,252308647,495047256,500000001,367960114\n"
            "252308648,*,500000002,500000000,500000001\n"
            "495047257,499999998,*,327415695,500000000\n"
            "499999999,500000000,327415696,*,404357444\n"
            "367960116,499999999,500000000,404357444,*\n"
        )
        r = run_cli("run", "--matrix", str(f))
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.endswith("ranking: a > b = d > c = e\n")

    def test_variant_and_formula_flags(self):
        r = run_cli(
            "run", "--variant", "margin-based", "--formula", "alt", "--json",
            "tests/fixtures/pcs2006.ballots",
        )
        doc = json.loads(r.stdout)
        assert doc["config"]["variant"] == "margin-based"
        assert doc["config"]["formula"] == "alt"

    @pytest.mark.parametrize(
        "flag, read, member",
        [
            pytest.param(flag, read, member, id=f"{flag}={member.value}")
            for flag, read, values in (
                ("--variant", lambda c: c.variant, Variant),
                ("--listed-vs-unlisted", lambda c: c.rules.listed_vs_unlisted, Listed),
                ("--unlisted-pair", lambda c: c.rules.unlisted_pair, Unlisted),
                ("--formula", lambda c: c.formula, RateFormula),
            )
            for member in values
        ],
    )
    def test_every_option_value_reaches_the_config(self, monkeypatch, flag, read, member):
        configs = []
        monkeypatch.setattr(cli, "run", lambda text, config: configs.append(config) or "")
        assert main(["run", flag, member.value, str(FIXTURES / "royal1652.ballots")]) == 0
        assert read(configs[0]) is member

    def test_interpretation_rule_flags(self, tmp_path):
        f = tmp_path / "b.ballots"
        f.write_text("candidates: a b c\na>b\n")
        strict = json.loads(
            run_cli("run", "--json", "--listed-vs-unlisted", "noinfo", str(f)).stdout
        )
        completed = json.loads(
            run_cli("run", "--json", "--unlisted-pair", "tied", str(f)).stdout
        )
        assert strict["config"]["listed_vs_unlisted"] == "noinfo"
        assert completed["config"]["unlisted_pair"] == "tied"
        # single ballot a>b over three candidates gives a complete strict order
        assert completed["rates"]["c"] == pytest.approx(3.0, abs=1e-9)
        # under rule c' the unlisted candidate collects no comparisons at all
        assert strict["rates"]["c"] > completed["rates"]["b"]

    def test_intermediates_dump(self):
        r = run_cli("run", "--intermediates", "tests/fixtures/royal1652.ballots")
        doc = json.loads(r.stdout)
        inter = doc["intermediates"]
        assert inter["xi"] == ["b", "a", "e", "f", "d", "c"]
        assert inter["copeland"] == ["5/2", "1", "6", "5", "3", "7/2"]
        assert inter["v"][1][0] == "2/3"
        assert inter["vstar"][0][3] == "2/3"  # indirect a-over-d score 4/6
        assert inter["msigma"][3][4] == "1/6"
        assert inter["tausigma"][1][4] == pytest.approx(16 / 18, abs=1e-9)
        assert inter["pi"][5][0] == pytest.approx(1 / 6, abs=1e-9)
        assert len(inter["gamma"]) == 5

    def test_byte_identical_json(self):
        first = run_cli(
            "run", "--json", "--intermediates", "tests/fixtures/royal1652.ballots"
        )
        second = run_cli(
            "run", "--json", "--intermediates", "tests/fixtures/royal1652.ballots"
        )
        assert first.stdout == second.stdout

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "bad.ballots"
        f.write_text("candidates: a b\na>z\n")
        r = run_cli("run", str(f))
        assert r.returncode == EXIT_PARSE
        assert "line 2" in r.stderr

    def test_a_matrix_read_as_ballots_exits_at_its_header(self):
        r = run_cli("run", "tests/fixtures/debian2006.csv")
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert r.stderr == (
            "error: tests/fixtures/debian2006.csv: line 3, column 1: invalid candidate "
            "name '1,2,3,4,5,6,7,8'; a matrix CSV needs --matrix\n"
        )

    @pytest.mark.parametrize(
        "text, position, name",
        [
            ("a>b\n2: x,y > a\n", "line 2, column 4", "x,y"),
            ("# a comment\n\na>b\n  b>a,\n", "line 4, column 5", "a,"),
            ("1/2: ,\n", "line 1, column 6", ","),
        ],
    )
    def test_a_comma_in_a_collected_name_is_placed(self, tmp_path, text, position, name):
        # "," is reserved in names, so a headerless file that holds one in
        # a name is refused where that name stands.
        f = tmp_path / "comma.ballots"
        f.write_text(text)
        with pytest.raises(MalformedSyntax) as err:
            read_ballot_file(text)
        assert str(err.value) == (
            f"{position}: invalid candidate name {name!r}; a matrix CSV needs --matrix"
        )
        r = run_cli("run", str(f))
        assert (r.returncode, r.stdout) == (EXIT_PARSE, "")
        assert r.stderr == f"error: {f}: {err.value}\n"

    def test_missing_file_exit_code(self):
        assert run_cli("run", "no-such-file").returncode == EXIT_PARSE

    @pytest.mark.parametrize("command", [("run",), ("verify", "--cases", "1", "--input")])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("candidates: a a", "line 2, column 15: candidate 'a' listed twice"),
            ("candidates: a b>c", "line 2, column 15: invalid candidate name 'b>c'"),
        ],
    )
    def test_bad_candidates_line_exits_with_its_position(self, tmp_path, command, line, message):
        f = tmp_path / "bad.ballots"
        f.write_text(f"# names\n{line}\na\n")
        r = run_cli(*command, str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert r.stderr == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("command", [("run",), ("verify", "--cases", "1", "--input")])
    def test_input_that_is_not_utf8(self, tmp_path, command):
        f = tmp_path / "latin1.ballots"
        f.write_bytes(b"candidates: a b\na>b\n\xff\n")
        r = run_cli(*command, str(f))
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: {f}: ")
        assert "can't decode byte 0xff" in r.stderr
        assert "Traceback" not in r.stderr

    def test_cycle_matrix_still_tallies(self, tmp_path):
        f = tmp_path / "cycle.csv"
        f.write_text("a,b,c\nV=3\n*,2,0\n0,*,2\n2,0,*\n")
        for variant in ("main", "codual", "balanced", "margin-based"):
            r = run_cli("run", "--matrix", "--variant", variant, str(f))
            assert r.returncode == 0

    def test_error_exit_codes_for_solver_failures(self, monkeypatch):
        import llull.cli as cli_mod
        from llull.errors import Infeasible, NotAdmissible
        from llull.cli import EXIT_INFEASIBLE

        def raiser(exc):
            def fail(text, config):
                raise exc

            return fail

        monkeypatch.setattr(cli_mod, "run", raiser(Infeasible("boom")))
        code = cli_mod.main(["run", "tests/fixtures/royal1652.ballots"])
        assert code == EXIT_INFEASIBLE
        monkeypatch.setattr(cli_mod, "run", raiser(NotAdmissible("boom")))
        code = cli_mod.main(["run", "tests/fixtures/royal1652.ballots"])
        assert code == EXIT_NOT_ADMISSIBLE


    def test_numerical_failures_exit_code(self, monkeypatch, capsys):
        import llull.cli as cli_mod
        import llull.projection as projection_mod
        from llull.errors import MaxIterations
        from llull.qp import QpSolution

        solve = projection_mod.solve_active_set

        def no_convergence(problem):
            raise MaxIterations("no convergence within 3 active-set steps")

        monkeypatch.setattr(projection_mod, "solve_active_set", no_convergence)
        code = cli_mod.main(["run", "tests/fixtures/royal1652.ballots"])
        assert code == EXIT_NUMERICAL
        assert "failed to converge" in capsys.readouterr().err

        def overshoot(problem):
            # pushes every turnout past 1, out of the intervals' range
            solution = solve(problem)
            point = tuple(v + 2.0 for v in solution.point)
            return QpSolution(point, solution.active_set, solution.iterations)

        monkeypatch.setattr(projection_mod, "solve_active_set", overshoot)
        code = cli_mod.main(["run", "tests/fixtures/royal1652.ballots"])
        assert code == EXIT_NUMERICAL
        assert "interval range law fails" in capsys.readouterr().err

    def test_wide_matrix_that_broke_least_squares(self):
        # A 20-candidate matrix on which a solver built on SVD least squares
        # raised "SVD did not converge" (negative zeros in the working set).
        path = "tests/fixtures/wide20_lstsq.csv"
        r = run_cli("run", "--matrix", "--json", path)
        assert r.returncode == 0, r.stderr
        assert len(json.loads(r.stdout)["candidates"]) == 20
        details = project_details(read_matrix((FIXTURES / "wide20_lstsq.csv").read_text()))
        problem = turnout_qp(details.t, details.im)
        assert kkt_residual(problem, details.pt.solution) <= 1e-9


def test_float_grid_writes_each_float_as_json_does():
    # Distinct floats are written once each; both zeros keep their sign.
    grid = np.array([[0.0, -0.0, 0.1], [0.1, 1 / 3, -0.0], [0.0, 1 / 3, 2.5e-17]])
    text = pipeline._layout(pipeline._texts(grid.view(np.int64), pipeline._float_texts))
    assert text == json.dumps(grid.tolist(), indent=2)
    assert text.count("-0.0") == 2


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_fraction_texts_read_as_fractions(dtype):
    # Past 2**62 the numerators are Python ints in an object array.
    big = 2**62 if dtype is object else 1
    w = np.array(
        [[0, -6 * big, 4 * big + 3], [-(big * 9), 0, 10 * big], [4 * big + 3, -3, 0]],
        dtype=dtype,
    )
    texts = pipeline._texts(w, functools.partial(pipeline._fraction_texts, den=6))
    assert [[json.loads(t) for t in row] for row in texts] == [
        [str(Fraction(p, 6)) for p in row] for row in w.tolist()
    ]


def encoded_leaves(value):
    """``value`` with each leaf replaced by its JSON text."""
    if isinstance(value, dict):
        return {key: encoded_leaves(item) for key, item in value.items()}
    if isinstance(value, list):
        return [encoded_leaves(item) for item in value]
    return json.dumps(value)


json_keys = st.text(st.sampled_from('"\\/\n\t\x00\u00e9\u5019\U0001f600') | st.characters())
json_values = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.text()),
    lambda items: st.lists(items, max_size=4) | st.dictionaries(json_keys, items, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_layout_lays_out_as_json_dumps(value):
    assert pipeline._layout(encoded_leaves(value)) == json.dumps(value, sort_keys=True, indent=2)


class TestVerifyCommand:
    def test_single_suite(self):
        r = run_cli("verify", "--suite", "order-independence", "--cases", "5",
                    "--seed", "7")
        assert r.returncode == 0
        assert "order-independence: 5 cases, ok" in r.stdout

    def test_fixture_input(self):
        r = run_cli(
            "verify", "--suite", "approval-agreement", "--cases", "3",
            "--input", "tests/fixtures/pcs2006.ballots",
        )
        assert r.returncode == 0
        assert "4 cases" in r.stdout  # fixture plus the three generated ones

    def test_seed_changes_cases_but_not_outcome(self):
        a = run_cli("verify", "--suite", "paths", "--cases", "4", "--seed", "1")
        b = run_cli("verify", "--suite", "paths", "--cases", "4", "--seed", "2")
        assert a.returncode == b.returncode == 0

    @pytest.mark.parametrize("cases", ["-3", "-1"])
    def test_negative_case_count_is_refused(self, cases):
        r = run_cli("verify", "--suite", "paths", "--cases", cases)
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert "--cases" in r.stderr

    @pytest.mark.parametrize("suite", ["paths", "all"])
    def test_zero_cases_without_input_is_refused(self, suite):
        # With --input, zero cases still checks the file alone.
        r = run_cli("verify", "--suite", suite, "--cases", "0")
        assert r.returncode == EXIT_PARSE
        assert r.stdout == ""
        assert "--cases" in r.stderr

    def test_failure_exit_code(self, monkeypatch):
        # a stubbed suite that always fails exercises the reporting path
        import llull.cli as cli_mod
        import llull.verify as verify_mod

        def boom(rng):
            raise verify_mod.VerificationFailure("constructed failure", "replay-dump")

        monkeypatch.setitem(verify_mod.SUITES, "paths", boom)
        code = cli_mod.main(["verify", "--suite", "paths", "--cases", "2"])
        assert code == EXIT_VERIFY

    @pytest.mark.parametrize(
        "name, text",
        [
            ("royal1652.ballots", None),  # ranked: approval agreement does not apply
            ("huge_weights.ballots", None),
            ("no_ballots.ballots", "candidates: a b\n"),
            ("one_candidate.ballots", "candidates: a\na\n"),
        ],
    )
    def test_valid_ballot_file_passes_as_an_extra_case(self, tmp_path, name, text):
        path = FIXTURES / name
        if text is not None:
            path = tmp_path / name
            path.write_text(text)
        r = run_cli("verify", "--suite", "all", "--cases", "0", "--input", str(path))
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stderr == ""
        assert "FAILED" not in r.stdout

    def test_condorcet_smith_checks_a_thirty_candidate_file(self, tmp_path):
        # 2**30 - 2 bipartitions; the check walks at most 29 nested sets.
        rng = random.Random(30)
        names = [f"c{i}" for i in range(30)]
        lines = ["candidates: " + " ".join(names)]
        for _ in range(30):
            rng.shuffle(names)
            lines.append(">".join(names[: rng.randint(1, 30)]))
        path = tmp_path / "thirty.ballots"
        path.write_text("\n".join(lines) + "\n")
        r = run_cli("verify", "--suite", "condorcet-smith", "--cases", "0", "--input", str(path))
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stdout.splitlines()[0] == "condorcet-smith: 1 cases, ok"

    def test_a_suite_the_file_does_not_apply_to_is_skipped(self):
        r = run_cli("verify", "--suite", "all", "--cases", "0",
                    "--input", str(FIXTURES / "royal1652.ballots"))
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert "qp-agreement: skipped, does not apply to the file" in lines
        assert "condorcet-smith: 1 cases, ok" in lines
        assert not any("0 cases" in line for line in lines)

    def test_suite_choices_are_the_suites(self):
        command = next(a for a in cli.build_parser()._actions if a.dest == "command")
        suite = next(a for a in command.choices["verify"]._actions if a.dest == "suite")
        assert suite.choices == ["all", *verify.SUITES]

    def test_importing_the_cli_leaves_the_suites_unloaded(self):
        probe = "import llull.cli, sys; print(sorted(set(sys.modules) & {'llull.verify', 'llull.generate'}))"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert r.stdout == "[]\n"


# Each stage under the name its caller looks it up by; the margin completion
# under both names a tally could reach it by.
STAGES = [
    (pipeline, ("read_ballot_file", "aggregate", "read_matrix", "project_details")),
    (pipeline, ("rank_like_rates", "social_ranking", "render_json")),
    (projection, ("margin_completion", "indirect_scores", "variant_margins")),
    (projection, ("admissible_order", "intermediate_margins", "turnouts")),
    (projection, ("turnout_qp",)),
    (projection, ("solve_active_set", "build_intervals", "projected_scores")),
    (projection.ProjectedMatrix, ("check_structure",)),
    (closures, ("margin_completion",)),
    (ordering, ("copeland_ranks",)),
]


class TestStagesRunOnce:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("matrix_input", [False, True])
    def test_each_stage_runs_once_per_tally(self, monkeypatch, royal_text, variant, matrix_input):
        calls = Counter()

        def counting(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        text = royal_text
        if matrix_input:
            text = write_matrix(pipeline.load_input(royal_text, pipeline.RunConfig()))
        for owner, names in STAGES:
            for name in names:
                monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        config = pipeline.RunConfig(variant=variant, intermediates=True, matrix_input=matrix_input)
        pipeline.run(text, config)

        expected = {name: 1 for _, names in STAGES for name in names}
        expected["margin_completion"] = int(variant is Variant.MARGIN_BASED)
        unused = ("read_ballot_file", "aggregate") if matrix_input else ("read_matrix",)
        for name in unused:
            expected[name] = 0
        assert {name: calls[name] for name in expected} == expected

