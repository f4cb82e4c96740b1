import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from llull.ballots import (
    _PUNCTUATION,
    _TOKEN,
    _UNPUNCTUATE,
    Ballot,
    BallotTable,
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
    _plain_rows,
    _rank_row,
    _tokenize,
    _utf8,
    _NameTable,
    _Weights,
    ballot_to_pairwise,
    parse_ballot_line,
    read_ballot_file,
    serialize_ballot,
    serialize_ballot_file,
)
from llull.errors import (
    BallotError,
    DuplicateCandidate,
    MalformedSyntax,
    NonPositiveWeight,
    UnknownCandidate,
)
from llull.matrix import aggregate

ABCDEF = CandidateSet("abcdef")
ABC = CandidateSet("abc")


def groups(ballot):
    return tuple(tuple(g) for g in ballot.groups)


class TestParsing:
    def test_truncated_ranking(self):
        b = parse_ballot_line("b>e>d>a", ABCDEF)
        assert groups(b) == ((1,), (4,), (3,), (0,))
        assert b.weight == 1
        assert b.approval_cutoff is None

    def test_explicit_weight(self):
        b = parse_ballot_line("3: a", ABC)
        assert groups(b) == ((0,),)
        assert b.weight == 3

    def test_fractional_weight(self):
        assert parse_ballot_line("1/2: a>b", ABC).weight == Fraction(1, 2)
        assert parse_ballot_line("2.5: a", ABC).weight == Fraction(5, 2)

    def test_trailing_cutoff(self):
        b = parse_ballot_line("a=c/", ABC)
        assert groups(b) == ((0, 2),)
        assert b.approval_cutoff == 1

    def test_cutoff_between_groups(self):
        b = parse_ballot_line("b>a/>c", ABC)
        assert groups(b) == ((1,), (0,), (2,))
        assert b.approval_cutoff == 2
        assert parse_ballot_line("b>a>/c", ABC) == b

    def test_leading_cutoff(self):
        b = parse_ballot_line("/b>a", ABC)
        assert b.approval_cutoff == 0
        assert groups(b) == ((1,), (0,))

    def test_lone_slash_is_empty_ballot(self):
        b = parse_ballot_line("/", ABC)
        assert b.groups == ()
        assert b.approval_cutoff == 0
        assert b.listed() == frozenset()

    def test_whitespace_insensitive(self):
        assert parse_ballot_line(" b > a = c ", ABC) == parse_ballot_line("b>a=c", ABC)

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidate) as err:
            parse_ballot_line("a>z", ABC, line=7)
        assert err.value.line == 7
        assert err.value.column == 3

    def test_duplicate_candidate(self):
        with pytest.raises(DuplicateCandidate) as err:
            parse_ballot_line("a>b>a", ABC)
        assert err.value.column == 5

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            parse_ballot_line("0: a", ABC)
        with pytest.raises(NonPositiveWeight):
            parse_ballot_line("-2: a", ABC)

    @pytest.mark.parametrize(
        "text", ["", "a>", ">a", "a=", "a//", "/a/b", "a>>b", "3:", "a=>b"]
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedSyntax):
            parse_ballot_line(text, ABC)


def kinds_texts_columns(text, offset=0):
    return [(t.kind, t.text, t.column) for t in _tokenize(text, offset)]


class TestTokenizer:
    """Token kinds, texts and 1-based columns, and the error positions they
    give, for lines with unusual separators and punctuation."""

    @pytest.mark.parametrize(
        "text, tokens",
        [
            (
                "a\u00a0>\u2003b\u3000=c",
                [("name", "a", 1), (">", ">", 3), ("name", "b", 5), ("=", "=", 7),
                 ("name", "c", 8)],
            ),
            ("a > b # c > a", [("name", "a", 1), (">", ">", 3), ("name", "b", 5)]),
            ("a>b#c", [("name", "a", 1), (">", ">", 2), ("name", "b", 3)]),
            (
                "1/2: a>b",
                [("name", "1", 1), ("/", "/", 2), ("name", "2", 3), (":", ":", 4),
                 ("name", "a", 6), (">", ">", 7), ("name", "b", 8)],
            ),
            ("2 : a", [("name", "2", 1), (":", ":", 3), ("name", "a", 5)]),
            ("a>=b", [("name", "a", 1), (">", ">", 2), ("=", "=", 3), ("name", "b", 4)]),
            ("a>", [("name", "a", 1), (">", ">", 2)]),
            ("a=", [("name", "a", 1), ("=", "=", 2)]),
            ("//", [("/", "/", 1), ("/", "/", 2)]),
            ("\u3000", []),
            ("#a>b", []),
        ],
    )
    def test_tokens(self, text, tokens):
        assert kinds_texts_columns(text) == tokens

    def test_offset_shifts_columns(self):
        assert kinds_texts_columns(" a>b", 4) == [
            ("name", "a", 6), (">", ">", 7), ("name", "b", 8)
        ]

    @pytest.mark.parametrize(
        "text, column",
        [
            ("a>=b", 3),
            ("a>", 2),
            ("a=", 2),
            ("//", 2),
            ("a\u00a0>", 3),
            ("b = \u3000", 5),
            (" 2 :\u2003a>#b", 9),
            ("a\u2003>\u2003z", 5),
            ("1/2: a>a", 8),
        ],
    )
    def test_error_line_and_column(self, text, column):
        with pytest.raises(BallotError) as err:
            parse_ballot_line(text, ABC, line=4)
        assert (err.value.line, err.value.column) == (4, column)

    def test_weights_and_separators_parse(self):
        assert parse_ballot_line("1/2: a>b", ABC) == Ballot(((0,), (1,)), None, Fraction(1, 2))
        assert parse_ballot_line("2 : a", ABC) == Ballot(((0,),), None, Fraction(2))
        assert parse_ballot_line("a\u00a0>\u2003b\u3000=c", ABC) == Ballot(((0,), (1, 2)))
        assert parse_ballot_line("a > b # c > a", ABC) == Ballot(((0,), (1,)))

    def test_file_error_position(self):
        with pytest.raises(MalformedSyntax) as err:
            read_ballot_file("candidates: a b c\n\n2:\u3000a\u00a0> # b\n")
        assert (err.value.line, err.value.column) == (3, 7)


def bulk_row(text, cands):
    """The bulk step's rank row, group count and weight of one line, or
    None when it leaves the line to the tokenizer.  The step reads the
    stripped text, as ``read_ballot_file`` hands it over."""
    weights = _Weights()
    ranks, groups, ids = _plain_rows([text.strip()], _NameTable(cands.names), weights)
    if ids[0] < 0:
        return None
    return ranks[0].tolist(), int(groups[0]), weights.fractions[ids[0]]


# Names that are prefixes of each other ("a", "ab"), multi-byte ones and
# names of unequal byte lengths, so that the bulk step's byte trie is
# walked off a name, past its end and into a multi-byte sequence.
MIXED_NAMES = ["a", "b", "c", "7", "00", "ab", "\u00e9", "\u5019\u88dc"]


class TestPlainLines:
    """The bulk step for plain lines, and the lines it leaves to the tokenizer."""

    @pytest.mark.parametrize(
        "text, ballot",
        [
            ("b>a=c", Ballot(((1,), (0, 2)))),
            ("c=a", Ballot(((0, 2),))),
            (" 007 :\u3000b>c ", Ballot(((1,), (2,)), None, Fraction(7))),
            ("2:a", Ballot(((0,),), None, Fraction(2))),
            ("1/2: a", Ballot(((0,),), None, Fraction(1, 2))),
            ("06/4 :c>b=a", Ballot(((2,), (0, 1)), None, Fraction(3, 2))),
            ("1_0: a", Ballot(((0,),), None, Fraction(10))),
            ("\u0663: a", Ballot(((0,),), None, Fraction(3))),
            ("2.5: a", Ballot(((0,),), None, Fraction(5, 2))),
        ],
    )
    def test_plain_lines_take_the_fast_path(self, text, ballot):
        assert bulk_row(text, ABC) == (*_rank_row(ballot, 3), ballot.weight)
        assert parse_ballot_line(text, ABC, 1) == ballot

    @pytest.mark.parametrize(
        "text",
        ["0: a", "00:a", "a>z", "a>b>a", "a=a", "a>", "=a", "a>>b", "a > b", "a>b/",
         "/a", "a#b", "1/0: a", "0/3: a", "1/2/3: a", "", "3:",
         pytest.param("1" * 5000 + ": a", id="5000-digit-weight"),
         pytest.param("1/" + "1" * 5000 + ": a", id="5000-digit-denominator")],
    )
    def test_other_lines_are_left_to_the_tokenizer(self, text):
        assert bulk_row(text, ABC) is None

    @pytest.mark.parametrize(
        "text", ["1 /2: a", "1e3: a", "-2.5e-1: a", "+.5: c", "\uff11: b", "\u00b2: a"]
    )
    def test_a_weight_reads_as_the_tokenizer_reads_it(self, text):
        # "1 /2" reads as 1/2 where Fraction takes space around "/" (Python
        # 3.12 on) and is refused before, in bulk as by the tokenizer.
        try:
            ballot = parse_ballot_line(text, ABC, 1)
        except BallotError:
            assert bulk_row(text, ABC) is None
        else:
            assert bulk_row(text, ABC) == (*_rank_row(ballot, 3), ballot.weight)

    @pytest.mark.parametrize(
        "text, names",
        [
            ("ab>a=\u00e9", MIXED_NAMES),
            ("\u5019\u88dc>ab", MIXED_NAMES),
            ("2: 00=7>a>b", MIXED_NAMES),
            ("\ud800>a", ["a", "\ud800"]),
        ],
    )
    def test_names_sharing_bytes_take_the_fast_path(self, text, names):
        cands = CandidateSet(names)
        ballot = parse_ballot_line(text, cands, 1)
        assert bulk_row(text, cands) == (*_rank_row(ballot, len(cands)), ballot.weight)

    @pytest.mark.parametrize(
        "text", ["abc>a", "\u5019>a", "e\u0301", "a>\u5019\u88dc\u88dc", "a\u00e9", "ab=a=ab"]
    )
    def test_near_names_are_left_to_the_tokenizer(self, text):
        assert bulk_row(text, CandidateSet(MIXED_NAMES)) is None

    def test_a_block_reads_each_line_apart(self):
        # Group indices restart on every line, and a refused line in the
        # middle of a block leaves its neighbours' rows alone.
        texts = [" a>b=c", "c>z", "b\t", "3: c=a>b", "a>b>a", "\u30001/2: c>a "]
        weights = _Weights()
        bodies = list(map(str.strip, texts))
        ranks, groups, ids = _plain_rows(bodies, _NameTable(ABC.names), weights)
        assert ids.tolist() == [0, -1, 0, 1, -1, 2]
        assert weights.fractions == [1, 3, Fraction(1, 2)]
        taken = [0, 2, 3, 5]
        assert ranks[taken].tolist() == [[0, 1, 1], [1, 0, 1], [0, 1, 0], [1, 2, 0]]
        assert groups[taken].tolist() == [2, 1, 2, 2]


# Characters of one to four UTF-8 bytes, a lone surrogate and a NUL byte.
NAME_CHARS = ["a", "b", "\x00", "\u00e9", "\u5019", "\ud800", "\U0001f600"]
# Prefixes of exactly 7 bytes, one packed word.
WORD_PREFIXES = ["abcdefg", "\u5019\u5019a", "ab\u00e9\u00e9b"]


@st.composite
def spelled_names(draw, prefix=""):
    """A name of 1-30 UTF-8 bytes, often 6, 7, 8, 14 or 15, at the ends of
    the 7-byte words; it starts with ``prefix`` where that fits."""
    size = draw(st.one_of(st.sampled_from([6, 7, 8, 14, 15]), st.integers(1, 30)))
    name = prefix if len(_utf8(prefix)) <= size else ""
    while len(_utf8(name)) < size:
        char = draw(st.sampled_from(NAME_CHARS))
        name += char if len(_utf8(name + char)) <= size else "a"
    return name


@st.composite
def names_and_segments(draw):
    """Distinct names, some sharing their first 7 bytes, and segments: the
    names, the names cut or extended by one character, empty segments,
    5000-byte ones and other text."""
    prefix = draw(st.sampled_from(WORD_PREFIXES))
    names = draw(st.lists(st.one_of(spelled_names(prefix), spelled_names()),
                          min_size=1, max_size=12, unique=True))
    segment = st.one_of(
        st.sampled_from(names),
        st.sampled_from(names).map(lambda name: name[:-1]),
        st.tuples(st.sampled_from(names), st.sampled_from(NAME_CHARS)).map("".join),
        st.sampled_from(["", "a" * 5000, prefix + "\x00" * 4993]),
        st.text(st.sampled_from(NAME_CHARS), max_size=30),
    )
    return names, draw(st.lists(segment, max_size=40))


@given(names_and_segments())
@example((["abcdef", "abcdefg", "abcdefgh", "abcdefghijklmn", "abcdefghijklmno"],
          ["abcdefg", "abcdefgh", "abcdefghijklm", "abcdefghijklmno", "abcdefghijklmnop", ""]))
@example((["a\x00", "a", "\ud800"], ["a", "a\x00", "a\x00\x00", "\x00", "\ud800", "a" * 5000]))
@settings(max_examples=300, deadline=None)
def test_name_lookup_agrees_with_a_dict(case):
    names, segments = case
    index = {_utf8(name): i for i, name in enumerate(names)}
    data = np.frombuffer(_utf8("".join(s + "\n" for s in segments)), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    lengths = np.array([len(_utf8(s)) for s in segments], dtype=np.intp)
    found = _NameTable(names).find(data, ends - lengths, lengths)
    assert found.tolist() == [index.get(_utf8(s), -1) for s in segments]


MIXED = CandidateSet(MIXED_NAMES)
# Unknown names near the known ones: an extension, a lead character of a
# known name and the decomposed form of "\u00e9".
UNKNOWN = ["z", "abc", "\u5019", "e\u0301"]
SPACES = ["", " ", "\u00a0", "\u3000", "\t"]


@st.composite
def near_plain_lines(draw):
    """Ballot lines close to the plain form: plain ones with distinct known
    names, ones with one odd kind of part, and ones where every part may be
    odd.  Odd parts are odd weights, unknown and repeated names, cutoffs,
    doubled and trailing separators, odd spaces and comments."""
    odd = draw(st.sampled_from(["none", "weight", "names", "separator", "end", "space", "all"]))

    def pick(part, common, uncommon):
        if odd in (part, "all") and draw(st.booleans()):
            return draw(st.sampled_from(uncommon))
        return draw(st.sampled_from(common))

    known = list(MIXED.names)
    if odd in ("names", "all"):
        names = draw(st.lists(st.sampled_from(known + UNKNOWN), max_size=4))
    else:
        names = draw(st.lists(st.sampled_from(known), min_size=1, max_size=5, unique=True))
    weights = ["0:", "00:", "1_0:", "\u0663:", "-2:", "x:", ":", "1/0:", "0/3:", "2.5:",
               "1/2/3:", "1 /2:", "9" * 5000 + ":"]
    plain_weights = ["", "1:", "2 :", "007: ", "1/2:", "06/4 :", "3/1: "]
    parts = [pick("space", [""], SPACES), pick("weight", plain_weights, weights)]
    for i, name in enumerate(names):
        if i:
            parts.append(pick("space", [""], SPACES))
            parts.append(pick("separator", [">", "="], ["/", ">/", ">>", "=>", ""]))
        parts += [pick("space", [""], SPACES), name]
    parts.append(pick("end", [""], [">", "=", "/", "#", "# a>b", ">#b", "=#"]))
    parts.append(pick("space", [""], SPACES))
    return "".join(parts)


@st.composite
def ballot_files(draw):
    """Files of near-plain lines, each drawn line cast one or more times in
    shuffled order among blanks and comments, with or without a
    ``candidates:`` line."""
    pool = draw(st.lists(near_plain_lines(), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool + ["", "  # note"]), min_size=1, max_size=16))
    header = draw(st.sampled_from([
        "candidates: a b c 7 00 ab \u00e9 \u5019\u88dc",
        "candidates: \u5019\u88dc 00 c ab b a \u00e9 7",
        None,
    ]))
    return "\n".join(([header] if header else []) + lines) + "\n"


def read_line_by_line(text):
    """The reference reading of a file: the names of its ``candidates:``
    line or in order of appearance, then each ballot line parsed alone by
    the tokenizer, in file order."""
    lines = list(enumerate(text.splitlines(), start=1))
    if lines[0][1].startswith("candidates:"):
        cands = CandidateSet(lines.pop(0)[1].split()[1:])
    else:
        names = {}
        for _, line in lines:
            head, colon, tail = line.split("#", 1)[0].partition(":")
            tokens = _tokenize(tail if colon else head)
            names.update(dict.fromkeys(t.text for t in tokens if t.kind == "name"))
        if not names:
            raise MalformedSyntax("no candidates found", 1, 1)
        cands = CandidateSet(names)
    bodies = [(lineno, line.split("#", 1)[0]) for lineno, line in lines]
    return cands, [parse_ballot_line(body, cands, lineno) for lineno, body in bodies if body.strip()]


ALL_RULES = [InterpretationRules(listed, unlisted) for listed in Listed for unlisted in Unlisted]


def file_outcome(read, text):
    try:
        cands, profile = read(text)
    except BallotError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return cands, [aggregate(profile, rules, cands) for rules in ALL_RULES]


@given(ballot_files())
@settings(max_examples=400, deadline=None)
def test_file_parse_agrees_with_the_tokenizer(text):
    expected = file_outcome(read_line_by_line, text)
    assert file_outcome(read_ballot_file, text) == expected
    if isinstance(expected[0], CandidateSet):
        assert read_ballot_file(text)[1].ballots() == read_line_by_line(text)[1]


@pytest.mark.parametrize(
    "names, text",
    [
        (MIXED_NAMES, "a>b=\u00e9\n\u5019\u88dc>ab>00\n2: 7=c\nab\n"),
        # Names alike in their first 7-byte word and in their length.
        (["abcdefgh", "abcdefgi", "abcdefghijklmnop", "abcdefghijklmnoq"],
         "abcdefgi>abcdefgh\nabcdefghijklmnoq=abcdefgi\nabcdefghijklmnop\n"),
    ],
)
def test_names_sharing_a_key_leave_their_lines_to_the_tokenizer(monkeypatch, names, text):
    # With every key 0 the names share one slot, which one of them keeps; a
    # line naming any other goes to the tokenizer and reads the same.
    pack = _NameTable.pack

    def zero_keys(self, data, starts, lengths):
        packed, key = pack(self, data, starts, lengths)
        return packed, np.zeros_like(key)

    monkeypatch.setattr(_NameTable, "pack", zero_keys)
    cands = CandidateSet(names)
    assert [bulk_row(name, cands) is not None for name in names].count(True) == 1
    text = "candidates: " + " ".join(names) + "\n" + text
    assert file_outcome(read_ballot_file, text) == file_outcome(read_line_by_line, text)


class TestPairwise:
    def test_truncation_default_rules(self):
        # listed beats listed below it and everything unlisted; silence else
        b = parse_ballot_line("a>b", ABC)
        out = ballot_to_pairwise(b, InterpretationRules(), ABC)
        assert out == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_tied_pair_splits(self):
        two = CandidateSet("ab")
        b = parse_ballot_line("a=b", two)
        out = ballot_to_pairwise(b, InterpretationRules(), two)
        assert out == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_unlisted_pair_tied_rule(self):
        b = parse_ballot_line("a", ABC)
        rules = InterpretationRules(Listed.PREFERRED, Unlisted.TIED)
        out = ballot_to_pairwise(b, rules, ABC)
        assert out == {
            (0, 1): 1,
            (0, 2): 1,
            (1, 2): Fraction(1, 2),
            (2, 1): Fraction(1, 2),
        }

    def test_listed_vs_unlisted_noinfo_rule(self):
        b = parse_ballot_line("a>b", ABC)
        rules = InterpretationRules(Listed.NO_INFO, Unlisted.NO_INFO)
        assert ballot_to_pairwise(b, rules, ABC) == {(0, 1): 1}

    def test_approved_candidates_merge_into_one_tied_group(self):
        b = parse_ballot_line("b>a/>c", ABC)
        out = ballot_to_pairwise(b, InterpretationRules(), ABC)
        assert out == {
            (0, 1): Fraction(1, 2),
            (1, 0): Fraction(1, 2),
            (0, 2): 1,
            (1, 2): 1,
        }

    def test_empty_ballot_contributes_nothing(self):
        b = parse_ballot_line("/", ABC)
        assert ballot_to_pairwise(b, InterpretationRules(), ABC) == {}
        rules = InterpretationRules(Listed.PREFERRED, Unlisted.TIED)
        out = ballot_to_pairwise(b, rules, ABC)
        assert all(v == Fraction(1, 2) for v in out.values())
        assert len(out) == 6

    @pytest.mark.parametrize(
        "rules",
        [
            InterpretationRules(listed, unlisted)
            for listed in Listed
            for unlisted in Unlisted
        ],
    )
    def test_pair_totals_never_exceed_one(self, rules):
        b = parse_ballot_line("b>a/>c", ABCDEF)
        out = ballot_to_pairwise(b, rules, ABCDEF)
        n = len(ABCDEF)
        for x in range(n):
            for y in range(x + 1, n):
                total = out.get((x, y), 0) + out.get((y, x), 0)
                assert total in (0, 1)

    def test_complete_rules_compare_every_pair(self):
        b = parse_ballot_line("b>a", ABCDEF)
        rules = InterpretationRules(Listed.PREFERRED, Unlisted.TIED)
        out = ballot_to_pairwise(b, rules, ABCDEF)
        n = len(ABCDEF)
        for x in range(n):
            for y in range(x + 1, n):
                assert out.get((x, y), 0) + out.get((y, x), 0) == 1


names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=2),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def ballots(draw, cands=None, weights=None):
    """A candidate set and one ballot over it: truncated, tied, with or
    without an approval cutoff.  ``cands`` fixes the set and ``weights``
    the weights to choose from."""
    if cands is None:
        cands = CandidateSet(draw(names))
    n = len(cands)
    chosen = draw(st.permutations(range(n)))
    keep = draw(st.integers(0, n))
    chosen = chosen[:keep]
    groups: list[list[int]] = []
    for c in chosen:
        if groups and draw(st.booleans()):
            groups[-1].append(c)
        else:
            groups.append([c])
    cut = draw(st.sampled_from([None, *range(len(groups) + 1)]))
    if not groups and cut is None:
        cut = 0
    if weights is None:
        weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    else:
        weight = draw(st.sampled_from(weights))
    return cands, Ballot(tuple(tuple(sorted(g)) for g in groups), cut, weight)


@given(ballots())
@settings(max_examples=200, deadline=None)
def test_serialize_parse_roundtrip(case):
    cands, ballot = case
    text = serialize_ballot(ballot, cands)
    assert parse_ballot_line(text, cands) == ballot


class TestBallotFile:
    def test_candidates_line_fixes_order(self):
        cands, ballots = read_ballot_file("candidates: c b a\nb>a\n")
        assert cands.names == ("c", "b", "a")
        assert len(ballots) == 1

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\ncandidates: a b\na>b  # inline\n\n# trailing\n"
        cands, ballots = read_ballot_file(text)
        assert len(ballots) == 1

    @pytest.mark.parametrize("header", ["", "candidates: a b\n"])
    @pytest.mark.parametrize("space", ["", "\u3000", " \u00a0\t"])
    def test_lines_of_unicode_space_are_blank(self, header, space):
        # A line is blank when strip empties it, the empty line among them.
        lines = ["b", space, f"{space}a{space}>b{space}", "", "\u3000", f"2:{space}b{space}"]
        cands, table = read_ballot_file(header + "\n".join([*lines, space, "b"]) + "\n")
        a, b = cands.index["a"], cands.index["b"]
        assert cands.names == (("a", "b") if header else ("b", "a"))
        assert table.ballots() == [
            Ballot(((b,),)), Ballot(((a,), (b,))), Ballot(((b,),), None, Fraction(2)),
            Ballot(((b,),)),
        ]

    @pytest.mark.parametrize("header", ["", "candidates: b a\n"])
    def test_an_empty_line_between_ballots_is_blank(self, header):
        # The empty text first stands after a kind and beside other blank
        # texts, so that no kind's first line is taken for it.
        lines = ["a>b", " ", "", "\t", "b", "", "\u3000", "a>b", "2: b>a", "", " "]
        cands, table = read_ballot_file(header + "\n".join(lines) + "\n")
        assert cands.names == (("b", "a") if header else ("a", "b"))
        assert table.kinds == ("a>b", "b", "2: b>a")
        assert table.order.tolist() == [0, 1, 0, 2]
        a, b = cands.index["a"], cands.index["b"]
        assert table.ballots() == [
            Ballot(((a,), (b,))), Ballot(((b,),)), Ballot(((a,), (b,))),
            Ballot(((b,), (a,)), None, Fraction(2)),
        ]

    def test_order_inferred_from_first_appearance(self):
        cands, _ = read_ballot_file("b>a\n2: c>a\n")
        assert cands.names == ("b", "a", "c")

    @pytest.mark.parametrize("text", ["a>b\nb>a\na>b\n", "candidates: a b\na>b\n"])
    def test_a_byte_order_mark_is_skipped(self, text):
        # It used to start the first name: candidates ('\ufeffa', 'b', 'a').
        cands, table = read_ballot_file("\ufeff" + text)
        assert cands.names == ("a", "b")
        plain_cands, plain_table = read_ballot_file(text)
        assert (cands, table.ballots()) == (plain_cands, plain_table.ballots())

    def test_file_roundtrip(self):
        text = "candidates: a b c\n2: b>a/>c\n/\na=c\n"
        cands, table = read_ballot_file(text)
        assert serialize_ballot_file(cands, table.ballots()) == text.replace("  ", " ")

    def test_error_carries_line_number(self):
        with pytest.raises(UnknownCandidate) as err:
            read_ballot_file("candidates: a b\n\na>b\nb>z\n")
        assert err.value.line == 4

    def test_order_counts_names_after_weights_and_cutoffs(self):
        # "1/2" is a weight, not two names.
        text = "b>a # c\n2: d>b\n/e>a\n1/2: a/>f\n"
        cands, _ = read_ballot_file(text)
        assert cands.names == ("b", "a", "d", "e", "f")

    def test_names_split_where_the_tokenizer_ends_a_name(self):
        # Without a header, names are the words of the bodies once the
        # punctuation is blanked.  Every code point but "#", which is cut
        # with its comment, stands here between two name letters.
        text = "x".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c) != "#")
        names = [token for token in _TOKEN.findall(text) if token not in _PUNCTUATION]
        assert text.translate(_UNPUNCTUATE).split() == names

    def test_long_names_read_as_the_tokenizer_reads_them(self):
        text = (FIXTURES / "long_names.ballots").read_text(encoding="utf-8")
        lines = [line.split("#", 1)[0] for line in text.splitlines()]
        header = next(i for i, line in enumerate(lines) if line.strip())
        cands = CandidateSet(lines[header].split()[1:])
        ballots = [parse_ballot_line(line, cands, i + 1)
                   for i, line in enumerate(lines) if i > header and line.strip()]

        def expanded(table):
            order = table.order
            weights = [table.weights[i] for i in table.weight_ids[order].tolist()]
            return table.ranks[order].tolist(), table.groups[order].tolist(), weights

        read_cands, table = read_ballot_file(text)
        assert read_cands == cands
        assert expanded(table) == expanded(BallotTable.from_ballots(ballots, cands))
        assert table.ballots() == ballots
        # Both paths are taken: three kinds are left to the tokenizer, and
        # the decimal weight is read in bulk.
        bodies = [kind.strip() for kind in table.kinds]
        _, _, ids = _plain_rows(bodies, _NameTable(cands.names), _Weights())
        assert np.count_nonzero(ids < 0) == 3

    def test_repeated_lines_share_one_ballot(self):
        cands, table = read_ballot_file("a>b\n2: b\na>b # again\na>b\n")
        ballots = table.ballots()
        assert ballots == [Ballot(((0,), (1,))), Ballot(((1,),), None, Fraction(2))] + [
            Ballot(((0,), (1,)))
        ] * 2
        assert ballots[0] is ballots[3]

    @pytest.mark.parametrize("header", ["", "candidates: a \ud800 b\n"])
    def test_a_lone_surrogate_reads_as_the_tokenizer_reads_it(self, header):
        text = header + "a>b\n\ud800>a\n"
        assert file_outcome(read_ballot_file, text) == file_outcome(read_line_by_line, text)
        assert read_ballot_file(text)[1].ballots() == read_line_by_line(text)[1]

    def test_a_bad_line_after_its_good_prefix_keeps_its_line(self):
        text = "candidates: a b c\na>b\n\na>b\na>b>z\na>b>c\na>b>z\n"
        with pytest.raises(UnknownCandidate) as err:
            read_ballot_file(text)
        assert (err.value.line, err.value.column) == (5, 5)

    @pytest.mark.parametrize(
        "lines, error",
        [
            # A plain line the bulk step refuses, then a line for the tokenizer.
            (["a>b", "c>z", "a>>b"], (UnknownCandidate, 3, 3)),
            # The reverse order.
            (["a>b", "a>b/c/", "c>z"], (MalformedSyntax, 3, 5)),
            # A bad line counts where it first stands, not where it repeats.
            (["a>b", "b=a=b", "c", "b=a=b", "a>>b"], (DuplicateCandidate, 3, 5)),
            (["1/2: a", "c/", "0/3: b", "1/2: a", "a>>b", "0/3: b"], (NonPositiveWeight, 4, 1)),
            # The bad line stands in the second block of distinct lines, after
            # a tokenizer line of the first.
            ([f"{k}: a>b" for k in range(1, 2500)] + ["b/", "c>a>c", "a>>b"],
             (DuplicateCandidate, 2502, 5)),
        ],
    )
    def test_the_first_bad_line_in_file_order_is_reported(self, lines, error):
        with pytest.raises(BallotError) as err:
            read_ballot_file("\n".join(["candidates: a b c", *lines]) + "\n")
        assert (type(err.value), err.value.line, err.value.column) == error

    @pytest.mark.parametrize(
        "line, error",
        [
            ("  candidates: a b a # x", "line 2, column 19: candidate 'a' listed twice"),
            ("candidates:\u3000a/b c", "line 2, column 13: invalid candidate name 'a/b'"),
            ("candidates: a:b", "line 2, column 13: invalid candidate name 'a:b'"),
            ("candidates: # none", "line 2, column 1: empty candidates line"),
        ],
    )
    def test_bad_candidates_line(self, line, error):
        with pytest.raises(MalformedSyntax) as err:
            read_ballot_file(f"# names\n{line}\na\n")
        assert str(err.value) == error
