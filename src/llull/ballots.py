"""Ballots and their translation into pairwise preference contributions.

A ballot is a truncated ranking with ties, optionally split by an approval
cutoff written ``/``.  The line grammar is::

    [weight ":"] group (">" group)*        group = name ("=" name)*

with at most one ``/`` placed before the first group, after the last one, or
between two groups.  Everything left of the ``/`` counts as approved.  A lone
``/`` is the explicit empty ballot (nothing approved, nothing ranked).
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateCandidate,
    MalformedSyntax,
    NonPositiveWeight,
    UnknownCandidate,
)

RESERVED = set(">=/:#,")
_MAX_DIGITS = 4300  # Python's default int-string limit, used where it is off or missing


def read_fraction(text: str) -> int | Fraction:
    """The exact number of ``text``, an ``int`` for integer text: the one
    reader of the input's numbers.  ``ValueError`` refuses a zero denominator
    and, before it is built, a number with more digits than Python prints as
    an int, counting the decimal exponent: it could take unbounded time."""
    if len(text) <= _MAX_DIGITS:
        try:
            return int(text)  # a lower limit refuses more digits by itself
        except ValueError:
            pass
    limit = getattr(sys, "get_int_max_str_digits", int)() or _MAX_DIGITS
    mantissa, _, exponent = text.upper().partition("E")
    try:  # an exponent longer than the limit is refused unread
        shift = abs(int(exponent or 0)) if len(exponent) <= limit else limit + 1
    except ValueError:
        shift = 0  # Fraction refuses the exponent itself
    digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
    if digits + shift > limit:
        raise ValueError(f"number {text!r} has too many digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"number {text!r} has a zero denominator") from None


class CandidateSet:
    """Ordered set of candidate names; file order breaks all ties."""

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("candidate set is empty")
        for name in names:
            if not name or any(c in RESERVED or c.isspace() for c in name):
                raise ValueError(f"invalid candidate name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate candidate names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, CandidateSet) and self.names == other.names

    def __repr__(self) -> str:
        return f"CandidateSet({list(self.names)!r})"


class Listed(enum.Enum):
    """Rule for a pair with one candidate listed and the other not."""

    PREFERRED = "preferred"
    NO_INFO = "noinfo"


class Unlisted(enum.Enum):
    """Rule for a pair with neither candidate listed."""

    NO_INFO = "noinfo"
    TIED = "tied"


@dataclass(frozen=True)
class InterpretationRules:
    """How a ballot's silences are read when counting pairs."""

    listed_vs_unlisted: Listed = Listed.PREFERRED
    unlisted_pair: Unlisted = Unlisted.NO_INFO


@dataclass(frozen=True)
class Ballot:
    """A weighted ranking of disjoint candidate groups.

    ``groups`` holds candidate indices, tied within a group and each group
    preferred to the later ones.  ``approval_cutoff`` is the number of leading
    groups that are approved (``None`` when the ballot has no cutoff).
    """

    groups: tuple[tuple[int, ...], ...]
    approval_cutoff: int | None = None
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        seen = set()
        for group in self.groups:
            if not group:
                raise ValueError("empty group")
            for c in group:
                if c in seen:
                    raise ValueError(f"candidate index {c} repeated")
                seen.add(c)
        if self.approval_cutoff is not None:
            if not 0 <= self.approval_cutoff <= len(self.groups):
                raise ValueError("approval cutoff outside group boundaries")
        elif not self.groups:
            raise ValueError("ballot lists nothing and has no cutoff")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def listed(self) -> frozenset[int]:
        return frozenset(c for group in self.groups for c in group)

    def approved(self) -> frozenset[int]:
        if self.approval_cutoff is None:
            return frozenset()
        return frozenset(
            c for group in self.groups[: self.approval_cutoff] for c in group
        )


class _Token(NamedTuple):
    kind: str  # 'name', '>', '=', '/', ':'
    text: str
    column: int  # 1-based


_TOKEN = re.compile(r"[>=/:]|[^\s>=/:#]+")
# Punctuation to spaces, so that ``str.split`` finds ``_TOKEN``'s names in text without "#".
_UNPUNCTUATE = str.maketrans(">=/:", "    ")
_WORD = re.compile(r"\S+")
_PUNCTUATION = frozenset(">=/:")


def _tokenize(text: str, offset: int = 0) -> list[_Token]:
    """Tokens of ``text`` up to its first ``#``; columns are shifted by ``offset``."""
    return [
        _Token(m[0] if m[0] in _PUNCTUATION else "name", m[0], offset + m.start() + 1)
        for m in _TOKEN.finditer(text.split("#", 1)[0])
    ]


# The bulk step reads plain lines: an optional weight and its ":", then names
# joined by ">" and "=" with no space between them; no cutoff "/" and no "#".
# Space may stand only at either end and around the weight's ":".
_GT, _EQ, _NL = b">=\n"
# Distinct line texts parsed together; bounds the block's temporaries.
_BLOCK = 2048
# Everything up to a line's first ":", the weight's; lines hold no newline.
_WEIGHT_HEAD = re.compile(r"^[^:\n]*:", re.MULTILINE)
_COMMENT = re.compile(r"#.*")


def parse_ballot_line(text: str, candidates: CandidateSet, line: int = 1) -> Ballot:
    """Parse any ballot line through the tokenizer, which places every error
    by line and column."""
    # The weight prefix is split off textually: rational weights like "1/2"
    # would otherwise collide with the approval-cutoff token.
    weight = Fraction(1)
    body, offset = text, 0
    if ":" in text:
        head, _, body = text.partition(":")
        offset = len(head) + 1
        head = head.strip()
        try:
            weight = read_fraction(head)
        except ValueError:
            raise MalformedSyntax(f"cannot read weight {head!r}", line, 1) from None
        if weight <= 0:
            raise NonPositiveWeight(f"weight {head} is not positive", line, 1)

    tokens = _tokenize(body, offset)
    if not tokens:
        if offset:
            raise MalformedSyntax("weight without a ballot", line, offset + 1)
        raise MalformedSyntax("empty ballot", line, 1)

    groups: list[tuple[int, ...]] = []
    cutoff: int | None = None
    seen: dict[int, int] = {}

    def mark_cutoff(token: _Token):
        nonlocal cutoff
        if cutoff is not None:
            raise MalformedSyntax("second approval cutoff", line, token.column)
        cutoff = len(groups)

    def read_name(token: _Token) -> int:
        if token.kind != "name":
            raise MalformedSyntax(
                f"expected a candidate name, found {token.text!r}", line, token.column
            )
        idx = candidates.index.get(token.text)
        if idx is None:
            raise UnknownCandidate(f"unknown candidate {token.text!r}", line, token.column)
        if idx in seen:
            raise DuplicateCandidate(
                f"candidate {token.text!r} listed twice", line, token.column
            )
        seen[idx] = token.column
        return idx

    pos = 0
    if tokens[pos].kind == "/":
        mark_cutoff(tokens[pos])
        pos += 1
        if pos == len(tokens):
            return Ballot((), 0, weight)

    while True:
        if pos >= len(tokens):
            raise MalformedSyntax("ballot ends where a name is expected", line, len(text))
        group = [read_name(tokens[pos])]
        pos += 1
        while pos < len(tokens) and tokens[pos].kind == "=":
            pos += 1
            if pos >= len(tokens):
                raise MalformedSyntax("'=' at end of ballot", line, len(text))
            group.append(read_name(tokens[pos]))
            pos += 1
        groups.append(tuple(sorted(group)))
        if pos < len(tokens) and tokens[pos].kind == "/":
            mark_cutoff(tokens[pos])
            pos += 1
        if pos == len(tokens):
            break
        if tokens[pos].kind != ">":
            raise MalformedSyntax(
                f"expected '>', found {tokens[pos].text!r}", line, tokens[pos].column
            )
        pos += 1
        if pos < len(tokens) and tokens[pos].kind == "/":
            mark_cutoff(tokens[pos])
            pos += 1

    return Ballot(tuple(groups), cutoff, weight)


def serialize_ballot(ballot: Ballot, candidates: CandidateSet) -> str:
    """Canonical text for a ballot; parsing it back gives the same ballot."""
    parts = []
    for i, group in enumerate(ballot.groups):
        text = "=".join(candidates.names[c] for c in group)
        if ballot.approval_cutoff == i + 1:
            text += "/"
        parts.append(text)
    body = ">".join(parts)
    if ballot.approval_cutoff == 0:
        body = "/" + body
    if ballot.weight != 1:
        return f"{ballot.weight}: {body}"
    return body


def effective_groups(ballot: Ballot) -> tuple[tuple[int, ...], ...]:
    """Groups as counted: everything approved collapses into one tied group."""
    if ballot.approval_cutoff is None or ballot.approval_cutoff == 0:
        return ballot.groups
    merged = tuple(sorted(ballot.approved()))
    return (merged,) + ballot.groups[ballot.approval_cutoff :]


def ballot_to_pairwise(
    ballot: Ballot, rules: InterpretationRules, candidates: CandidateSet
) -> dict[tuple[int, int], Fraction]:
    """Per-unit-weight pairwise contribution of one ballot.

    A pair listed in distinct groups contributes a full point to the higher
    one; a tied listed pair contributes half a point each way.  Pairs with
    one or both members unlisted follow ``rules``.  ``matrix.aggregate``
    counts the same contributions over whole profiles; this per-ballot form
    is the reference its tests compare against.
    """
    groups = effective_groups(ballot)
    listed = [c for group in groups for c in group]
    listed_set = set(listed)
    half = Fraction(1, 2)
    out: dict[tuple[int, int], Fraction] = {}

    for gi, group in enumerate(groups):
        for x in group:
            for y in group:
                if x != y:
                    out[(x, y)] = half
            for later in groups[gi + 1 :]:
                for y in later:
                    out[(x, y)] = Fraction(1)

    if rules.listed_vs_unlisted is Listed.PREFERRED:
        for x in listed:
            for y in range(len(candidates)):
                if y not in listed_set:
                    out[(x, y)] = Fraction(1)
    if rules.unlisted_pair is Unlisted.TIED:
        unlisted = [c for c in range(len(candidates)) if c not in listed_set]
        for x in unlisted:
            for y in unlisted:
                if x != y:
                    out[(x, y)] = half
    return out


def _rank_row(ballot: Ballot, n: int) -> tuple[list[int], int]:
    """The effective rank row of a ballot and its effective group count: a
    listed candidate ranks at its group's index, an unlisted one at the count."""
    groups = effective_groups(ballot)
    row = [len(groups)] * n
    for gi, group in enumerate(groups):
        for c in group:
            row[c] = gi
    return row, len(groups)


def _ballot_rows(
    ballots: list[Ballot], n: int, weights: _Weights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank rows, group counts and weight ids of ballots, one at a time."""
    rows = [_rank_row(b, n) for b in ballots]
    return (
        np.array([row for row, _ in rows], dtype=np.int16).reshape(len(rows), n),
        np.array([count for _, count in rows], dtype=np.int16),
        np.array([weights.id(b.weight) for b in ballots], dtype=np.int64),
    )


class _Weights:
    """Distinct ballot weights, numbered in order of first use."""

    def __init__(self):
        self.fractions: list[Fraction] = []
        self._ids: dict[Fraction, int] = {}
        self._texts: dict[str, int] = {}

    def id(self, weight: Fraction) -> int:
        i = self._ids.get(weight)
        if i is None:
            i = self._ids[weight] = len(self.fractions)
            self.fractions.append(weight)
        return i

    def of_texts(self, texts: list[str]) -> np.ndarray:
        """The ids of stripped weight texts, each text read once by
        ``read_fraction``, as the tokenizer reads it; -1 marks a weight the
        tokenizer must report: one that ``read_fraction`` refuses or that is
        not above 0."""
        for text in dict.fromkeys(texts):
            if text not in self._texts:
                try:
                    weight = read_fraction(text)
                except ValueError:
                    weight = 0
                self._texts[text] = self.id(weight) if weight > 0 else -1
        return np.fromiter(map(self._texts.__getitem__, texts), dtype=np.int64, count=len(texts))


def _utf8(text: str) -> bytes:
    """UTF-8 bytes of ``text``, a lone surrogate included: a string built in
    code may hold one, and the tokenizer reads it as any other character."""
    return text.encode("utf-8", "surrogatepass")


class _NameTable:
    """The candidate names packed into words, for looking up many name
    segments at once: ``table[key % mod]`` is the one candidate a segment
    with that ``pack`` key may spell, and it does when its length and words
    equal the name's.  ``mod`` is the first of the 64 numbers from n² on that
    gives each name key its own slot; where none does, a name may lose its
    slot, and its lines go to the tokenizer."""

    def __init__(self, names: Sequence[str]):
        spelled = [_utf8(name) for name in names]
        self.n, self.words = len(spelled), -(-max(map(len, spelled)) // 7)
        # masks[k] keeps k bytes of a word; a count below 0 reads a trailing 0.
        self.masks = np.array([256**k - 1 for k in range(8)] + [0] * 7 * self.words, np.uint64)
        self.lengths = np.array(list(map(len, spelled)), dtype=np.intp)
        data = np.frombuffer(b"".join(spelled), dtype=np.uint8)
        self.packed, key = self.pack(data, np.cumsum(self.lengths) - self.lengths, self.lengths)
        keys, mods = key.tolist(), range(self.n**2, self.n**2 + 64)
        self.mod = next((m for m in mods if len({k % m for k in keys}) == self.n), mods[0])
        # An empty slot's -1 reads the last name, which no segment there spells.
        self.table = np.full(self.mod, -1, dtype=np.intp)
        self.table[key % np.uint64(self.mod)] = np.arange(self.n)

    def pack(self, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """Each segment ``data[start : start + length]`` as ``words`` words of
        7 bytes, zero past its end, and its key: its length in the first
        word's free top byte, and each later word mixed in with wraparound."""
        padded = np.concatenate((data, np.zeros(7 * self.words + 1, dtype=np.uint8)))
        # Element i holds the 8 bytes from padded[i] on.
        at = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
        packed = [at.take(starts + 7 * w) & self.masks.take(np.minimum(lengths - 7 * w, 7))
                  for w in range(self.words)]
        key = lengths.astype(np.uint64) << np.uint64(56) | packed[0]
        for word in packed[1:]:
            key = key * np.uint64(0x9E3779B97F4A7C15) ^ word
        return packed, key

    def find(self, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The candidate each segment ``data[start : start + length]`` spells, or -1."""
        packed, key = self.pack(data, starts, lengths)
        cand = self.table.take(key % np.uint64(self.mod))
        spells = self.lengths.take(cand) == lengths
        for name_word, word in zip(self.packed, packed):
            spells &= name_word.take(cand) == word
        return np.where(spells, cand, -1)


def _plain_rows(
    bodies: Sequence[str], names: _NameTable, weights: _Weights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank rows, group counts and weight ids of the plain lines among the
    stripped line texts ``bodies``, read in bulk as one UTF-8 byte array.

    The bodies are joined by newlines once.  Only when that text holds a
    ``:`` is each body holding one split there in Python, its weight and
    body kept, and the block joined again.  Separators are ASCII and a
    multi-byte UTF-8 sequence holds only bytes of 0x80 and above, so every
    ``>``, ``=`` and newline byte ends a name segment; ``_NameTable.find``
    resolves all the segments together.  The separator after each name ends
    its group (``>``), continues it (``=``) or ends its line (newline).

    A weight id of -1 marks a text left to the tokenizer, whose row and
    count are then undefined: a segment that spells no candidate (an unknown
    or empty name, inner space of any kind, ``/`` or ``:``), a repeated
    name, or a weight that ``read_fraction`` refuses or that is not above 0.
    """
    m, n = len(bodies), names.n
    if not m:
        return np.empty((0, n), np.int16), np.empty(0, np.int16), np.empty(0, np.int64)
    joined, heads, weighted = "\n".join(bodies), [], []
    if ":" in joined:
        bodies = list(bodies)
        weighted = [i for i, body in enumerate(bodies) if ":" in body]
        for i in weighted:
            head, _, body = bodies[i].partition(":")
            heads.append(head.rstrip())
            bodies[i] = body.lstrip()
        joined = "\n".join(bodies)
    data = np.frombuffer(_utf8(joined + "\n"), dtype=np.uint8)
    ends = np.flatnonzero((data == _GT) | (data == _EQ) | (data == _NL))
    starts = np.concatenate(([0], ends[:-1] + 1))
    cand = names.find(data, starts, ends - starts)
    seps = data.take(ends)
    last, gt = seps == _NL, seps == _GT
    line = np.cumsum(last) - last
    first = np.concatenate(([0], np.flatnonzero(last)[:-1] + 1))
    # A name's group counts the ">" before it on its line.
    before = np.cumsum(gt) - gt
    group = before - before.take(first).take(line)
    known = cand >= 0
    placed = np.full((m, n), -1, dtype=np.int16)
    placed[line[known], cand[known]] = group[known]
    groups = (group[last] + 1).astype(np.int16)
    # A segment that spells no name is never placed and a repeated name is
    # placed once, so either leaves fewer listed candidates than segments.
    whole = np.count_nonzero(placed >= 0, axis=1) == np.bincount(line, minlength=m)
    ranks = np.where(placed < 0, groups[:, None], placed)
    ids = np.full(m, weights.id(Fraction(1)) if len(weighted) < m else -1, dtype=np.int64)
    ids[weighted] = weights.of_texts(heads)
    ids[~whole] = -1
    return ranks, groups, ids


class BallotTable:
    """A profile counted by kind: one effective rank row per distinct ballot.

    In row ``i`` of ``ranks`` (int16, one column per candidate) a listed
    candidate holds the index of its group among the kind's effective
    groups (``effective_groups``) and an unlisted one holds the group count
    ``groups[i]``.  Kind ``i`` weighs ``weights[weight_ids[i]]`` and is cast
    ``counts[i]`` times; ``order`` holds the kind of every ballot in profile
    order.  ``kinds[i]`` is the kind's line text, or its ``Ballot`` for a
    table built by ``from_ballots``.
    """

    def __init__(self, candidates, kinds, order, ranks, groups, weight_ids, weights):
        self.candidates: CandidateSet = candidates
        self.kinds: tuple[str | Ballot, ...] = kinds
        self.order: np.ndarray = order
        self.ranks: np.ndarray = ranks
        self.groups: np.ndarray = groups
        self.weight_ids: np.ndarray = weight_ids
        self.weights: tuple[Fraction, ...] = weights
        self.counts: np.ndarray = np.bincount(order, minlength=len(kinds))

    @classmethod
    def from_ballots(cls, ballots: Iterable[Ballot], candidates: CandidateSet) -> BallotTable:
        """Count equal ballots as one kind."""
        kinds: dict[Ballot, int] = {}
        order = [kinds.setdefault(b, len(kinds)) for b in ballots]
        weights = _Weights()
        ranks, groups, ids = _ballot_rows(list(kinds), len(candidates), weights)
        return cls(
            candidates,
            tuple(kinds),
            np.array(order, dtype=np.intp),
            ranks,
            groups,
            ids,
            tuple(weights.fractions),
        )

    def __len__(self) -> int:
        return len(self.order)

    def ballots(self) -> list[Ballot]:
        """The profile as ``Ballot``s in order, repeats sharing one object.

        Line texts are read again by the tokenizer, which cannot fail on
        them: they were read against the same candidates.
        """
        kinds = [
            k if isinstance(k, Ballot) else parse_ballot_line(k, self.candidates, 1)
            for k in self.kinds
        ]
        return [kinds[i] for i in self.order.tolist()]


def read_ballot_file(text: str) -> tuple[CandidateSet, BallotTable]:
    """Read a ballot file: comments and blanks skipped, one ballot per line.

    The first effective line may be ``candidates: a b c`` to fix the name
    order; otherwise names are collected in order of first appearance.
    Each distinct line text, cut at its ``#``, is one kind of the returned
    table unless it strips to nothing.  One ``dict`` pass over the lines
    numbers them, and one ``str.strip`` per distinct text gives the body
    that ``_plain_rows`` reads, in bulk, for plain lines; every other line
    goes through the tokenizer in file order, so the first error raised is
    the one of the earliest bad line.  A leading byte-order mark is skipped.
    """
    if text.startswith("\ufeff"):
        text = text[1:]  # a byte-order mark
    lines = text.splitlines()
    if "#" in text:
        # Lines hold no newline, so a comment ends where its line does.
        lines = _COMMENT.sub("", "\n".join(lines)).split("\n")
    # The lines before the first effective one are blank.
    skip = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    candidates: CandidateSet | None = None
    if skip < len(lines) and lines[skip].strip().startswith("candidates:"):
        candidates = _read_candidates_line(lines[skip], skip + 1)
        skip += 1
    del lines[:skip]

    # Each line maps to the index of the first line with its text.
    first_of: dict[str, int] = {}
    seen = np.fromiter(map(first_of.setdefault, lines, count()), dtype=np.intp, count=len(lines))
    firsts = np.flatnonzero(seen == np.arange(len(lines)))
    # Kinds are the texts that strip to a body, in order of first appearance.
    bodies = list(map(str.strip, first_of))
    filled = np.fromiter(map(bool, bodies), dtype=bool, count=len(bodies))
    texts, bodies = list(compress(first_of, bodies)), list(filter(None, bodies))
    firsts = firsts[filled]
    kind = np.full(len(lines), -1, dtype=np.intp)
    kind[firsts] = np.arange(len(firsts))
    order = kind[seen]
    order = order[order >= 0]

    if candidates is None:
        # Names follow the weight, which may hold a "/" of its own.
        spelled = _WEIGHT_HEAD.sub("", "\n".join(bodies)).translate(_UNPUNCTUATE)
        if "," in spelled:
            _refuse_comma(texts, (firsts + skip + 1).tolist())
        names = spelled.split()
        if not names:
            raise MalformedSyntax("no candidates found", 1, 1)
        candidates = CandidateSet(dict.fromkeys(names))

    name_table = _NameTable(candidates.names)
    weights = _Weights()
    blocks = []
    # One block at least, so that a file without ballots has its empty arrays.
    for start in range(0, len(texts) or 1, _BLOCK):
        ranks, groups, ids = _plain_rows(bodies[start : start + _BLOCK], name_table, weights)
        left = np.flatnonzero(ids < 0)
        parsed = [
            parse_ballot_line(texts[start + i], candidates, line)
            for i, line in zip(left.tolist(), (firsts[start + left] + skip + 1).tolist())
        ]
        ranks[left], groups[left], ids[left] = _ballot_rows(parsed, name_table.n, weights)
        blocks.append((ranks, groups, ids))
    ranks, groups, ids = map(np.concatenate, zip(*blocks))
    return candidates, BallotTable(
        candidates, tuple(texts), order, ranks, groups, ids, tuple(weights.fractions)
    )


def _refuse_comma(texts: list[str], lines: list[int]) -> None:
    """Raise at the first name of the line texts ``texts``, at file lines
    ``lines``, that holds a ``,``: the file is most likely a matrix CSV."""
    for text, line in zip(texts, lines):
        offset = text.find(":") + 1  # past the weight, if any
        for token in _tokenize(text[offset:], offset):
            if "," in token.text:
                message = f"invalid candidate name {token.text!r}; a matrix CSV needs --matrix"
                raise MalformedSyntax(message, line, token.column)


def _read_candidates_line(body: str, line: int) -> CandidateSet:
    """The names of a ``candidates:`` line; a bad name is reported where it stands."""
    names: dict[str, None] = {}
    start = body.index("candidates:") + len("candidates:")
    for m in _WORD.finditer(body, start):
        name, column = m[0], m.start() + 1
        if not RESERVED.isdisjoint(name):
            raise MalformedSyntax(f"invalid candidate name {name!r}", line, column)
        if name in names:
            raise MalformedSyntax(f"candidate {name!r} listed twice", line, column)
        names[name] = None
    if not names:
        raise MalformedSyntax("empty candidates line", line, 1)
    return CandidateSet(names)


def serialize_ballot_file(candidates: CandidateSet, ballots: Iterable[Ballot]) -> str:
    lines = ["candidates: " + " ".join(candidates.names)]
    lines += [serialize_ballot(b, candidates) for b in ballots]
    return "\n".join(lines) + "\n"
