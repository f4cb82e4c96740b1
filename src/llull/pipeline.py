"""End-to-end tally: ballots or a score matrix in, rates and ranking out."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .ballots import CandidateSet, InterpretationRules, read_ballot_file
from .closures import Variant
from .errors import NumberTooLong
from .matrix import LlullMatrix, aggregate, read_matrix
from .projection import ProjectionDetails, project_details
from .rates import RankLikeRates, RateFormula, SocialRanking, rank_like_rates, social_ranking


@dataclass(frozen=True)
class RunConfig:
    variant: Variant = Variant.MAIN
    rules: InterpretationRules = InterpretationRules()
    total_voters: Fraction | None = None
    formula: RateFormula = RateFormula.MAIN
    json_output: bool = False
    intermediates: bool = False
    matrix_input: bool = False


@dataclass(frozen=True)
class TallyResult:
    details: ProjectionDetails
    rates: RankLikeRates
    ranking: SocialRanking

    @property
    def candidates(self) -> CandidateSet:
        return self.details.matrix.candidates


def tally(
    matrix: LlullMatrix,
    variant: Variant = Variant.MAIN,
    formula: RateFormula = RateFormula.MAIN,
) -> TallyResult:
    details = project_details(matrix, variant)
    rates = rank_like_rates(details.pm, formula)
    ranking = social_ranking(details.im)
    return TallyResult(details, rates, ranking)


def load_input(text: str, config: RunConfig) -> LlullMatrix:
    """Interpret input text per the config: score matrix or ballot file."""
    if config.matrix_input:
        return read_matrix(text, config.total_voters)
    candidates, table = read_ballot_file(text)
    return aggregate(table, config.rules, candidates, config.total_voters)


def run(text: str, config: RunConfig) -> str:
    """Tally the input and render the report chosen by the config."""
    matrix = load_input(text, config)
    result = tally(matrix, config.variant, config.formula)
    if config.json_output or config.intermediates:
        return render_json(result, config)
    return render_text(result)


# ---------------------------------------------------------------------------
# Rendering.


def render_text(result: TallyResult) -> str:
    names = result.candidates.names
    width = max(len(n) for n in names)
    lines = [f"{'candidate':<{max(width, 9)}}  {'rate':>8}  group"]
    for gi, group in enumerate(result.ranking.groups, start=1):
        for x in group:
            lines.append(
                f"{names[x]:<{max(width, 9)}}  {result.rates.rates[x]:8.4f}  {gi}"
            )
    ranking = " > ".join(
        " = ".join(names[x] for x in group) for group in result.ranking.groups
    )
    lines.append("ranking: " + ranking)
    return "\n".join(lines) + "\n"


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Encoded items in brackets, one to a line, as ``json.dumps`` lays them
    out with ``indent=2`` when the block opens at indent ``pad``."""
    if not items:
        return brackets
    inner = ",\n" + pad + "  "
    return brackets[0] + inner[1:] + inner.join(items) + "\n" + pad + brackets[1]


def _object(fields: dict[str, str], pad: str) -> str:
    """A JSON object of encoded values, its keys sorted as ``sort_keys`` sorts."""
    return _block([f"{_string(k)}: {fields[k]}" for k in sorted(fields)], pad, "{}")


def _grid(rows: list[list[str]], pad: str) -> str:
    return _block([_block(row, pad + "  ") for row in rows], pad)


def _float_grid(a: np.ndarray, pad: str) -> str:
    """Floats as ``repr`` writes them, as JSON does for the report's finite
    floats, each distinct nonzero one rendered once.  Zeros are rendered
    cell by cell: 0.0 and -0.0 are one key, and -0.0 keeps its sign."""
    rows = a.tolist()
    text = {x: float.__repr__(x) for x in set(chain.from_iterable(rows)) if x}
    return _grid([[text[x] if x else float.__repr__(x) for x in row] for row in rows], pad)


def _numerator_grid(w: np.ndarray, den: int, pad: str) -> str:
    """Numerators over ``den`` as the quoted strings of their Fractions,
    each distinct one rendered once; the diagonal holds 0."""
    distinct, at = np.unique(w, return_inverse=True)
    g = np.gcd(distinct, den)  # positive, so the sign stays on the numerator
    pairs = zip((distinct // g).tolist(), (den // g).tolist())
    text = np.array([f'"{p}"' if q == 1 else f'"{p}/{q}"' for p, q in pairs], dtype=object)
    return _grid(text[at.reshape(w.shape)].tolist(), pad)


def _config_json(config: RunConfig) -> str:
    total = config.total_voters
    fields = {
        "variant": _string(config.variant.value),
        "listed_vs_unlisted": _string(config.rules.listed_vs_unlisted.value),
        "unlisted_pair": _string(config.rules.unlisted_pair.value),
        "total_voters": "null" if total is None else f'"{total}"',
        "formula": _string(config.formula.value),
    }
    return _object(fields, "  ")


def _intermediates_json(details: ProjectionDetails, quoted: list[str]) -> str:
    seq = details.xi.sequence
    den = details.den
    vbar = details.scores.vbar
    pad = "    "
    fields = {
        "v": _numerator_grid(details.matrix.w, details.matrix.den, pad),
        "t": _numerator_grid(details.t, den, pad),
        "vstar": _numerator_grid(details.scores.vstar, den, pad),
        "vbar": "null" if vbar is None else _numerator_grid(vbar, den, pad),
        "m": _numerator_grid(details.vm.m, den, pad),
        "copeland": _block([f'"{Fraction(r, 2)}"' for r in details.xi.copeland], pad),
        "xi": _block([quoted[x] for x in seq], pad),
        "msigma": _numerator_grid(details.im.msigma, den, pad),
        "tausigma": _float_grid(details.pt.tsigma, pad),
        "gamma": _float_grid(details.intervals, pad),
        "pi": _float_grid(details.pm.pi[np.ix_(seq, seq)], pad),
    }
    return _object(fields, "  ")


def render_json(result: TallyResult, config: RunConfig) -> str:
    """The JSON report, written as ``json.dumps(report, sort_keys=True,
    indent=2)`` writes it; ``NumberTooLong`` when an exact number in it has
    more digits than ``str`` of an int may print."""
    names = result.candidates.names
    quoted = [_string(name) for name in names]
    rates = result.rates.rates
    try:
        fields = {
            "schema": "1",
            "config": _config_json(config),
            "candidates": _block(quoted, "  "),
            "total_voters": f'"{result.details.matrix.total}"',
            "rates": _object(dict(zip(names, map(float.__repr__, rates))), "  "),
            "ranking": _grid([[quoted[x] for x in group] for group in result.ranking.groups], "  "),
        }
        if config.intermediates:
            fields["intermediates"] = _intermediates_json(result.details, quoted)
    except ValueError:
        # The only ValueError here is str() of an int over the digit limit.
        raise NumberTooLong("a number in the report has more digits than Python prints") from None
    return _object(fields, "") + "\n"


def parse_variant(text: str) -> Variant:
    for variant in Variant:
        if variant.value == text:
            return variant
    raise ValueError(f"unknown variant {text!r}")
