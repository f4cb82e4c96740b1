import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llull.ballots import (
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
    ballot_to_pairwise,
    read_ballot_file,
)
from llull import matrix as matrix_module
from llull.closures import margin_completion
from llull.errors import MatrixFormatError, TotalVotersTooSmall
from llull.pipeline import RunConfig, load_input
from conftest import FIXTURES, fractions
from llull.matrix import (
    LlullMatrix,
    aggregate,
    margins,
    read_matrix,
    turnouts,
    write_matrix,
)
from test_ballots import ballots, names

RULES = InterpretationRules()
ALL_RULES = [InterpretationRules(listed, unlisted) for listed in Listed for unlisted in Unlisted]


@pytest.fixture(scope="module")
def royal(royal_text):
    cands, table = read_ballot_file(royal_text)
    return cands, table.ballots(), aggregate(table, RULES, cands)


class TestAggregate:
    def test_royal_absolute_scores(self, royal):
        cands, _, matrix = royal
        assert matrix.total == 6
        a, b, c, d, e, f = range(6)
        assert matrix.absolute(a, b) == 2
        assert matrix.absolute(b, a) == 4
        assert matrix.absolute(c, b) == 0
        assert matrix.absolute(f, c) == 5
        assert matrix.absolute(b, c) == 6
        assert matrix.absolute(b, d) == 6

    def test_single_choice_scores_are_vote_fractions(self):
        cands, ballots = read_ballot_file("candidates: x y z\n2: x\ny\nz\n")
        matrix = aggregate(ballots, RULES, cands)
        for y in (1, 2):
            assert Fraction(int(matrix.w[0, y]), matrix.den) == Fraction(1, 2)
        assert Fraction(int(matrix.w[1, 0]), matrix.den) == Fraction(1, 4)

    def test_empty_profile_is_zero(self):
        matrix = aggregate([], RULES, CandidateSet("ab"))
        assert not matrix.w.any()

    def test_explicit_total_voters(self, royal):
        cands, ballots, _ = royal
        matrix = aggregate(ballots, RULES, cands, total_voters=Fraction(12))
        assert matrix.absolute(1, 0) == 4
        assert Fraction(int(matrix.w[1, 0]), matrix.den) == Fraction(1, 3)

    def test_total_voters_too_small(self, royal):
        cands, ballots, _ = royal
        with pytest.raises(TotalVotersTooSmall):
            aggregate(ballots, RULES, cands, total_voters=Fraction(5))

    @pytest.mark.parametrize("total", [Fraction(0), Fraction(-1)])
    def test_nonpositive_total_voters(self, royal, total):
        cands, ballots, _ = royal
        with pytest.raises(TotalVotersTooSmall, match="is not positive"):
            aggregate(ballots, RULES, cands, total_voters=total)

    def test_weights_scale_linearly(self):
        cands, ballots = read_ballot_file("candidates: a b\n3: a>b\nb>a\n")
        matrix = aggregate(ballots, RULES, cands)
        assert matrix.absolute(0, 1) == 3
        assert matrix.absolute(1, 0) == 1
        assert matrix.total == 4


class TestDerivedMatrices:
    def test_royal_numerators(self, royal):
        _, _, matrix = royal
        assert matrix.den == 6 and matrix.w.dtype == np.int64
        assert matrix.w.tolist() == [
            [0, 2, 5, 3, 3, 5],
            [4, 0, 6, 6, 4, 5],
            [1, 0, 0, 1, 0, 0],
            [2, 0, 3, 0, 2, 2],
            [3, 2, 3, 3, 0, 3],
            [1, 1, 5, 4, 3, 0],
        ]
        assert not matrix.w.flags.writeable

    def test_numerators_take_python_ints_past_2_62(self):
        ab = CandidateSet("ab")
        for d, dtype in ((2**62 - 1, np.int64), (2**62, object), (2**64 + 13, object)):
            matrix = LlullMatrix.from_scores(ab, ((0, Fraction(1, d)), (Fraction(d - 1, d), 0)))
            assert matrix.den == d and matrix.w.dtype == dtype
            assert matrix.w.tolist() == [[0, 1], [d - 1, 0]]
        # the diagonal reads 0 whatever the grid holds there
        third = Fraction(1, 3)
        matrix = LlullMatrix.from_scores(ab, ((Fraction(5), third), (third, Fraction(-2))))
        assert matrix.den == 3 and matrix.w.tolist() == [[0, 1], [1, 0]]

    def test_royal_turnouts(self, royal):
        _, _, matrix = royal
        w, den = matrix.w, matrix.den
        t = fractions(turnouts(w), den)
        assert t[0][3] * matrix.total == 5
        assert t[3][0] * matrix.total == 5
        assert t[4][2] * matrix.total == 3

    def test_complete_profile_turnout_one(self):
        cands, ballots = read_ballot_file("candidates: a b c\na>b>c\nc>a>b\n")
        matrix = aggregate(ballots, RULES, cands)
        w, den = matrix.w, matrix.den
        t = turnouts(w)
        assert all(v == den for x, row in enumerate(t) for y, v in enumerate(row) if x != y)

    def test_royal_margins(self, royal):
        _, _, matrix = royal
        m = fractions(margins(matrix.w), matrix.den)
        assert m[1][0] == Fraction(1, 3)
        assert m[0][1] == -Fraction(1, 3)

    def test_margin_bounded_by_turnout(self, royal):
        _, _, matrix = royal
        w = matrix.w
        assert (abs(margins(w)) <= turnouts(w)).all()


class TestInvariants:
    def test_rejects_turnout_above_one(self):
        with pytest.raises(ValueError, match=r"^pair \(0, 1\) has turnout above 1$"):
            LlullMatrix.from_scores(
                CandidateSet("ab"), ((Fraction(0), Fraction(3, 4)), (Fraction(1, 2), Fraction(0)))
            )

    def test_rejects_scores_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"^score v\[0\]\[1\] = -1/4 outside \[0, 1\]$"):
            LlullMatrix.from_scores(
                CandidateSet("ab"), ((Fraction(0), Fraction(-1, 4)), (Fraction(1, 2), Fraction(0)))
            )

    def test_names_the_first_failure_in_loop_order(self):
        # (0, 1) is in range but its pair's turnout is not; the later cell
        # (1, 2) is out of range.  A score check precedes its pair's turnout.
        grid = ((0, Fraction(3, 4), 0), (Fraction(1, 2), 0, -1), (0, 0, 0))
        with pytest.raises(ValueError, match=r"^pair \(0, 1\) has turnout above 1$"):
            LlullMatrix.from_scores(CandidateSet("abc"), grid)
        grid = ((0, 2, 0), (-1, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match=r"^score v\[0\]\[1\] = 2 outside \[0, 1\]$"):
            LlullMatrix.from_scores(CandidateSet("abc"), grid)

    def test_rejects_a_nonpositive_total(self):
        with pytest.raises(ValueError, match="^total voters must be positive$"):
            LlullMatrix.from_scores(CandidateSet("ab"), ((0, 0), (0, 0)), 0)

    def test_equality_compares_values_and_matrices_are_unhashable(self, royal):
        cands, _, matrix = royal
        scores = fractions(matrix.w, matrix.den)
        again = LlullMatrix.from_scores(cands, scores, matrix.total)
        assert again == matrix and again.w is not matrix.w
        assert again != LlullMatrix.from_scores(cands, scores, 2 * matrix.total)
        with pytest.raises(TypeError):
            hash(matrix)


class TestFromAbsolute:
    """``from_absolute`` checks integer counts over a count denominator."""

    def test_refuses_a_negative_count(self):
        # The turnout 1 + (-1) is covered, so only the sign check can catch it.
        with pytest.raises(ValueError, match=r"score v\[0\]\[1\] = -1/2 outside \[0, 1\]"):
            LlullMatrix.from_absolute(CandidateSet("ab"), np.array([[0, -1], [1, 0]]), 1, 2)

    def test_refuses_a_misshapen_grid(self):
        with pytest.raises(ValueError, match="does not match the candidate count"):
            LlullMatrix.from_absolute(
                CandidateSet("ab"), np.array([[0, 1, 0], [1, 0, 0]]), 1, Fraction(2)
            )

    def test_names_the_first_pair_above_the_total(self):
        counts = np.array([[0, 1, 3], [1, 0, 4], [1, 1, 0]])
        with pytest.raises(
            TotalVotersTooSmall, match=r"^pair \(a, c\) has absolute turnout 2 > V = 3/2$"
        ):
            LlullMatrix.from_absolute(CandidateSet("abc"), counts, 2, Fraction(3, 2))

    def test_builds_what_direct_construction_builds(self, monkeypatch, royal):
        cands, _, matrix = royal
        counts = np.array(
            [[int(matrix.absolute(x, y)) for y in range(6)] for x in range(6)], dtype=object
        )
        direct = LlullMatrix.from_scores(cands, fractions(matrix.w, matrix.den), matrix.total)
        checks = []
        check = matrix_module._check_scores
        monkeypatch.setattr(
            matrix_module, "_check_scores", lambda *args: checks.append(1) or check(*args)
        )
        built = LlullMatrix.from_absolute(cands, counts, 1, 6)
        assert built == direct and checks == [1]
        assert type(built.total) is Fraction
        assert built.w.dtype == direct.w.dtype == np.int64


class TestCsv:
    def test_roundtrip(self, royal):
        _, _, matrix = royal
        again = read_matrix(write_matrix(matrix))
        assert (again.w.tolist(), again.den) == (matrix.w.tolist(), matrix.den)
        assert again.total == matrix.total
        assert again.candidates == matrix.candidates

    def test_debian_fixture(self, debian_text):
        matrix = read_matrix(debian_text)
        assert matrix.total == 421
        assert matrix.absolute(0, 1) == 321
        assert matrix.absolute(0, 3) == Fraction("159.5")
        assert matrix.absolute(5, 0) == Fraction("26.5")

    def test_a_byte_order_mark_is_skipped(self):
        # It used to start the first candidate's name, '\ufeffa'.
        text = "a,b\nV=3\n*,2\n1,*\n"
        matrix = read_matrix("\ufeff" + text)
        assert matrix.candidates.names == ("a", "b")
        assert matrix == read_matrix(text)

    def test_decimal_and_fraction_cells_agree(self):
        a = read_matrix("a,b\nV=2\n*,1.5\n0,*\n")
        b = read_matrix("a,b\nV=2\n*,3/2\n0,*\n")
        assert (a.w.tolist(), a.den) == (b.w.tolist(), b.den)

    def test_missing_total_defaults_to_relative(self):
        matrix = read_matrix("a,b\n*,1/2\n1/4,*\n")
        assert matrix.total == 1

    def test_bad_cell_reports_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b\nV=2\n*,1\nnope,*\n")
        assert err.value.line == 4

    def test_wrong_arity_reports_line(self):
        with pytest.raises(MatrixFormatError):
            read_matrix("a,b\nV=2\n*,1,0\n1,*\n")

    def test_extra_labelled_row_reports_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b\nV=2\n*,1\n1,*\n0,1,2\n")
        assert err.value.line == 5

    def test_duplicate_header_reports_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("# two names\na,a\nV=2\n*,1\n1,*\n")
        assert err.value.line == 2

    def test_zero_total_reports_its_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b\nV=0\n*,0\n0,*\n")
        assert err.value.line == 2

    def test_second_total_reports_its_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b\nV=4\n*,2\n1,*\nV=100\n")
        assert err.value.line == 5

    def test_negative_entry_reports_its_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b,c\nV=4\n*,1,1\n1,*,1\n-2,1,*\n")
        assert err.value.line == 5
        assert "pair (c, a) has negative entry '-2'" in str(err.value)

    def test_nonzero_diagonal_reports_its_line(self):
        with pytest.raises(MatrixFormatError) as err:
            read_matrix("a,b\nV=4\n*,2\n1,7\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("cell", ["*", "", "0", "0.0", "0/3", "-0"])
    def test_diagonal_accepts_star_empty_and_zero(self, cell):
        matrix = read_matrix(f"a,b\nV=4\n{cell},2\n1,*\n")
        assert matrix.absolute(0, 1) == 2


class TestScaleAndPermutation:
    def test_duplicating_ballots_preserves_scores(self, royal):
        cands, ballots, matrix = royal
        tripled = aggregate(ballots * 3, RULES, cands)
        assert (tripled.w.tolist(), tripled.den) == (matrix.w.tolist(), matrix.den)
        assert tripled.total == 3 * matrix.total

    def test_renaming_permutes_entries(self, royal):
        cands, ballots, matrix = royal
        from llull.ballots import Ballot

        sigma = (3, 0, 4, 5, 1, 2)
        renamed = [
            Ballot(
                tuple(tuple(sorted(sigma[c] for c in g)) for g in b.groups),
                b.approval_cutoff,
                b.weight,
            )
            for b in ballots
        ]
        permuted = aggregate(renamed, RULES, cands)
        for x in range(6):
            for y in range(6):
                if x != y:
                    assert permuted.w[sigma[x], sigma[y]] == matrix.w[x, y]


WEIGHTS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(2**70))


@st.composite
def profiles(draw):
    """Ballot kinds over one candidate set, each cast one to three times,
    in shuffled order, with an optional explicit voter total as a multiple
    of the weight sum."""
    cands = CandidateSet(draw(names))
    profile = []
    for _, ballot in draw(st.lists(ballots(cands, WEIGHTS), max_size=8)):
        profile += [ballot] * draw(st.integers(1, 3))
    profile = draw(st.permutations(profile))
    scale = draw(st.sampled_from([None, Fraction(1, 2), Fraction(1), Fraction(3)]))
    weight_sum = sum((b.weight for b in profile), Fraction(0))
    total = None if scale is None else scale * max(weight_sum, Fraction(1))
    return cands, profile, total


def integer_counts(counts):
    """Fraction counts as integers over their least common denominator."""
    den = math.lcm(*(c.denominator for row in counts for c in row))
    return np.array([[int(c * den) for c in row] for row in counts], dtype=object), den


def pairwise_reference(profile, rules, cands):
    """Absolute counts summed ballot by ballot from ``ballot_to_pairwise``."""
    n = len(cands)
    counts = [[Fraction(0)] * n for _ in range(n)]
    for ballot in profile:
        for (x, y), c in ballot_to_pairwise(ballot, rules, cands).items():
            counts[x][y] += ballot.weight * c
    return counts


@given(profiles())
@settings(max_examples=150, deadline=None)
def test_aggregate_matches_per_ballot_reference(case):
    cands, profile, total = case
    n = len(cands)
    for rules in ALL_RULES:
        counts = pairwise_reference(profile, rules, cands)
        if total is None:
            weight_sum = sum((b.weight for b in profile), Fraction(0))
            expected = LlullMatrix.from_absolute(
                cands, *integer_counts(counts), weight_sum or Fraction(1)
            )
        elif any(counts[x][y] + counts[y][x] > total for x in range(n) for y in range(n)):
            with pytest.raises(TotalVotersTooSmall):
                aggregate(profile, rules, cands, total)
            continue
        else:
            expected = LlullMatrix.from_absolute(cands, *integer_counts(counts), total)
        got = aggregate(profile, rules, cands, total)
        assert got == expected
        assert_normal_form(got)
        assert_normal_form(margin_completion(got))


def assert_normal_form(matrix):
    """``(w, den)`` is what ``from_scores`` makes of the same scores: the
    numerators over the least common denominator, in the same dtype."""
    scores = fractions(matrix.w, matrix.den)
    again = LlullMatrix.from_scores(matrix.candidates, scores, matrix.total)
    assert matrix.den == again.den
    assert matrix.w.dtype == again.w.dtype
    assert matrix.w.tolist() == again.w.tolist()


CSV_INPUTS = ("debian2006.csv", "wide20_lstsq.csv", "wide30.csv")
BALLOT_INPUTS = ("royal1652.ballots", "pcs2006.ballots", "huge_weights.ballots")


@pytest.mark.parametrize("factor", [None, 1, Fraction(7, 2), 2**70])
@pytest.mark.parametrize("name", CSV_INPUTS + BALLOT_INPUTS)
def test_fixture_matrices_are_in_normal_form(name, factor):
    """Each fixture as read, and with its voter total multiplied by ``factor``
    through ``--total-voters``."""
    text = (FIXTURES / name).read_text()
    config = RunConfig(matrix_input=name.endswith(".csv"))
    matrix = load_input(text, config)
    if factor is not None:
        total = matrix.total * factor
        matrix = load_input(text, RunConfig(total_voters=total, matrix_input=config.matrix_input))
        assert matrix.total == total
    assert_normal_form(matrix)
    assert_normal_form(margin_completion(matrix))
    if name == "huge_weights.ballots":
        assert matrix.w.dtype == object


def count_cells():
    """Matrix cells as written: integers, decimals and ratios, some past 2**62."""
    ints = st.one_of(st.integers(0, 60), st.integers(0, 2**70))
    return st.one_of(
        ints.map(str),
        st.builds("{}.{}".format, st.integers(0, 99), st.sampled_from(["5", "25", "125"])),
        st.builds("{}/{}".format, ints, st.sampled_from([1, 2, 3, 7, 2**62, 2**64 + 13])),
    )


@given(
    st.integers(2, 4).flatmap(lambda n: st.lists(count_cells(), min_size=n * n, max_size=n * n)),
    st.sampled_from([None, "1", "421", "5/3", "1e30", str(2**80)]),
    st.sampled_from([None, 1, Fraction(7, 2), 10**40]),
)
@settings(max_examples=150, deadline=None)
def test_read_matrices_and_rescales_are_in_normal_form(cells, total, rescale):
    n = math.isqrt(len(cells))
    names = "abcd"[:n]
    rows = [
        ",".join("*" if x == y else cells[x * n + y] for y in range(n)) for x in range(n)
    ]
    text = "\n".join([",".join(names), *([f"V={total}"] if total else []), *rows]) + "\n"
    try:
        matrix = read_matrix(text)
    except MatrixFormatError:
        return  # a turnout above the voter total
    assert_normal_form(matrix)
    assert_normal_form(margin_completion(matrix))
    if rescale is not None:
        try:
            rescaled = load_input(text, RunConfig(total_voters=rescale, matrix_input=True))
        except TotalVotersTooSmall:
            return
        assert_normal_form(rescaled)
        assert rescaled.total == rescale
        assert all(
            rescaled.absolute(x, y) == matrix.absolute(x, y) for x in range(n) for y in range(n)
        )


def parent_cell(cell, x, y, line):
    """Reference for the cell of pair ``(x, y)`` at ``line``: read by
    ``Fraction`` alone."""
    if x == y and cell in ("*", ""):
        return Fraction(0)
    try:
        value = Fraction(cell)
    except (ValueError, ZeroDivisionError):
        raise MatrixFormatError(f"cannot read entry {cell!r}", line) from None
    if x == y and value != 0:
        raise MatrixFormatError(f"diagonal entry {cell!r} is not '*' or 0", line)
    if value < 0:
        pair = f"({'abcd'[x]}, {'abcd'[y]})"
        raise MatrixFormatError(f"pair {pair} has negative entry {cell!r}", line)
    return value


# Short enough that no exponent makes a number too long to print, which the
# reader refuses on purpose (see the hostile-number tests).
CELL_TEXT = st.text(alphabet="0179+-_./eE \t\u0661\u0662\u00b2*x", max_size=5)
CELL_CASES = [
    "12", "+5", "-0", "-3", "007", "1_000", "1__0", "_1", "1_", "\u0661\u0662", " 42 ",
    "9" * 4300, "9" * 4301, "1e3", "1E-3", "3.0", "0.5", "321.5", "643/2", "3/0", "*", "",
    "\u00b2", "1 000", "0x10",
]


@given(
    st.lists(st.one_of(st.sampled_from(CELL_CASES), CELL_TEXT), min_size=2, max_size=4),
    st.integers(0, 3),
    st.booleans(),
)
# A negative integer before a nonzero diagonal, an unreadable cell before a
# negative one, and a negative ratio after plain integers.
@example(["-3", "5", "0"], 1, True)
@example(["*", "1x", "-3"], 0, False)
@example(["7", "1", "-3/2", "*"], 3, True)
@settings(max_examples=400, deadline=None)
def test_cells_read_as_fraction_reads_them(cells, x, diagonal):
    """Row ``x`` of a matrix over the drawn cells, with ``*`` for its
    diagonal cell unless ``diagonal``: every cell reads as ``Fraction``
    reads it, and the first bad cell in row order names the error."""
    n = len(cells)
    x %= n
    if not diagonal:
        cells = [*cells[:x], "*", *cells[x + 1 :]]
    rows = [",".join("*0"[r != y] for y in range(n)) for r in range(n)]
    rows[x] = ",".join(cells)
    text = "\n".join([",".join("abcd"[:n]), *rows, f"V={'9' * 4300}"]) + "\n"
    try:
        expected = [parent_cell(cell.strip(), x, y, x + 2) for y, cell in enumerate(cells)]
    except MatrixFormatError as exc:
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    matrix = read_matrix(text)
    assert [matrix.absolute(x, y) for y in range(n)] == expected
