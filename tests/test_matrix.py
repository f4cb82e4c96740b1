from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llull.ballots import (
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
    ballot_to_pairwise,
    read_ballot_file,
)
from llull.errors import MatrixFormatError, TotalVotersTooSmall
from conftest import fractions
from llull.matrix import (
    LlullMatrix,
    aggregate,
    margins,
    numerators,
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
            assert matrix.scores[0][y] == Fraction(1, 2)
        assert matrix.scores[1][0] == Fraction(1, 4)

    def test_empty_profile_is_zero(self):
        matrix = aggregate([], RULES, CandidateSet("ab"))
        assert all(v == 0 for row in matrix.scores for v in row)

    def test_explicit_total_voters(self, royal):
        cands, ballots, _ = royal
        matrix = aggregate(ballots, RULES, cands, total_voters=Fraction(12))
        assert matrix.absolute(1, 0) == 4
        assert matrix.scores[1][0] == Fraction(1, 3)

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
        w, den = numerators(matrix.scores)
        assert den == 6 and w.dtype == np.int64
        assert fractions(w, den) == matrix.scores

    def test_numerators_take_python_ints_past_2_62(self):
        for d, dtype in ((2**62 - 1, np.int64), (2**62, object), (2**64 + 13, object)):
            w, den = numerators(((0, Fraction(1, d)), (Fraction(d - 1, d), 0)))
            assert den == d and w.dtype == dtype
            assert w.tolist() == [[0, 1], [d - 1, 0]]
        # the diagonal reads 0 whatever the grid holds there
        third = Fraction(1, 3)
        w, den = numerators(((Fraction(5), third), (third, Fraction(-2))))
        assert den == 3 and w.tolist() == [[0, 1], [1, 0]]

    def test_royal_turnouts(self, royal):
        _, _, matrix = royal
        w, den = numerators(matrix.scores)
        t = fractions(turnouts(w), den)
        assert t[0][3] * matrix.total == 5
        assert t[3][0] * matrix.total == 5
        assert t[4][2] * matrix.total == 3

    def test_complete_profile_turnout_one(self):
        cands, ballots = read_ballot_file("candidates: a b c\na>b>c\nc>a>b\n")
        w, den = numerators(aggregate(ballots, RULES, cands).scores)
        t = turnouts(w)
        assert all(v == den for x, row in enumerate(t) for y, v in enumerate(row) if x != y)

    def test_royal_margins(self, royal):
        _, _, matrix = royal
        w, den = numerators(matrix.scores)
        m = fractions(margins(w), den)
        assert m[1][0] == Fraction(1, 3)
        assert m[0][1] == -Fraction(1, 3)

    def test_margin_bounded_by_turnout(self, royal):
        _, _, matrix = royal
        w, _ = numerators(matrix.scores)
        assert (abs(margins(w)) <= turnouts(w)).all()


class TestInvariants:
    def test_rejects_turnout_above_one(self):
        with pytest.raises(ValueError):
            LlullMatrix(
                CandidateSet("ab"),
                ((Fraction(0), Fraction(3, 4)), (Fraction(1, 2), Fraction(0))),
                Fraction(1),
            )

    def test_rejects_scores_outside_unit_interval(self):
        with pytest.raises(ValueError):
            LlullMatrix(
                CandidateSet("ab"),
                ((Fraction(0), Fraction(-1, 4)), (Fraction(1, 2), Fraction(0))),
                Fraction(1),
            )


class TestFromAbsolute:
    """``from_absolute`` makes the checks of direct construction itself."""

    def test_refuses_a_negative_count(self):
        # The turnout 1 + (-1) is covered, so only the sign check can catch it.
        with pytest.raises(ValueError, match=r"score v\[0\]\[1\] = -1/2 outside \[0, 1\]"):
            LlullMatrix.from_absolute(CandidateSet("ab"), [[0, -1], [1, 0]], Fraction(2))

    def test_refuses_a_misshapen_grid(self):
        with pytest.raises(ValueError, match="does not match the candidate count"):
            LlullMatrix.from_absolute(CandidateSet("ab"), [[0, 1, 0], [1, 0, 0]], Fraction(2))

    def test_builds_what_direct_construction_builds(self, monkeypatch, royal):
        cands, _, matrix = royal
        counts = [[matrix.absolute(x, y) for y in range(6)] for x in range(6)]
        direct = LlullMatrix(cands, matrix.scores, matrix.total)

        def post_init(self):
            raise AssertionError("from_absolute checked its counts already")

        monkeypatch.setattr(LlullMatrix, "__post_init__", post_init)
        built = LlullMatrix.from_absolute(cands, counts, 6)
        assert built == direct
        assert type(built.total) is Fraction
        assert all(type(v) is Fraction for row in built.scores for v in row)


class TestCsv:
    def test_roundtrip(self, royal):
        _, _, matrix = royal
        again = read_matrix(write_matrix(matrix))
        assert again.scores == matrix.scores
        assert again.total == matrix.total
        assert again.candidates == matrix.candidates

    def test_debian_fixture(self, debian_text):
        matrix = read_matrix(debian_text)
        assert matrix.total == 421
        assert matrix.absolute(0, 1) == 321
        assert matrix.absolute(0, 3) == Fraction("159.5")
        assert matrix.absolute(5, 0) == Fraction("26.5")

    def test_decimal_and_fraction_cells_agree(self):
        a = read_matrix("a,b\nV=2\n*,1.5\n0,*\n")
        b = read_matrix("a,b\nV=2\n*,3/2\n0,*\n")
        assert a.scores == b.scores

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
        assert tripled.scores == matrix.scores
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
                    assert permuted.scores[sigma[x]][sigma[y]] == matrix.scores[x][y]


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
            expected = LlullMatrix.from_absolute(cands, counts, weight_sum or Fraction(1))
        elif any(counts[x][y] + counts[y][x] > total for x in range(n) for y in range(n)):
            with pytest.raises(TotalVotersTooSmall):
                aggregate(profile, rules, cands, total)
            continue
        else:
            expected = LlullMatrix.from_absolute(cands, counts, total)
        assert aggregate(profile, rules, cands, total) == expected
