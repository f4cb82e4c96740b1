"""End-to-end tally: ballots or a score matrix in, rates and ranking out."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

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
        matrix = read_matrix(text)
        if config.total_voters is not None:
            p, q = matrix.total.as_integer_ratio()  # counts are w * p over den * q
            counts = matrix.w.astype(object) * p
            matrix = LlullMatrix.from_absolute(
                matrix.candidates, counts, matrix.den * q, config.total_voters
            )
        return matrix
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


def _numerator_grid(w: np.ndarray, den: int) -> list[list[str]]:
    """Numerators over ``den`` as the strings of their Fractions, each
    distinct one rendered once; the diagonal holds 0."""
    rows = w.tolist()
    text = {}
    for p in set(chain.from_iterable(rows)):
        g = gcd(p, den)  # positive, so the sign stays on the numerator
        text[p] = str(p // g) if g == den else f"{p // g}/{den // g}"
    return [[text[p] for p in row] for row in rows]


def _config_json(config: RunConfig) -> dict:
    return {
        "variant": config.variant.value,
        "listed_vs_unlisted": config.rules.listed_vs_unlisted.value,
        "unlisted_pair": config.rules.unlisted_pair.value,
        "total_voters": None if config.total_voters is None else str(config.total_voters),
        "formula": config.formula.value,
    }


def _intermediates_json(details: ProjectionDetails) -> dict:
    names = details.matrix.candidates.names
    seq = details.xi.sequence
    den = details.den
    vbar = details.scores.vbar
    return {
        "v": _numerator_grid(details.matrix.w, details.matrix.den),
        "t": _numerator_grid(details.t, den),
        "vstar": _numerator_grid(details.scores.vstar, den),
        "vbar": None if vbar is None else _numerator_grid(vbar, den),
        "m": _numerator_grid(details.vm.m, den),
        "copeland": [str(Fraction(r, 2)) for r in details.xi.copeland],
        "xi": [names[x] for x in seq],
        "msigma": _numerator_grid(details.im.msigma, den),
        "tausigma": details.pt.tsigma.tolist(),
        "gamma": details.intervals.tolist(),
        "pi": details.pm.pi[np.ix_(seq, seq)].tolist(),
    }


def render_json(result: TallyResult, config: RunConfig) -> str:
    """The JSON report; ``NumberTooLong`` when an exact number in it has
    more digits than ``str`` of an int may print."""
    names = result.candidates.names
    try:
        doc = {
            "schema": 1,
            "config": _config_json(config),
            "candidates": list(names),
            "total_voters": str(result.details.matrix.total),
            "rates": {names[x]: result.rates.rates[x] for x in range(len(names))},
            "ranking": [[names[x] for x in group] for group in result.ranking.groups],
        }
        if config.intermediates:
            doc["intermediates"] = _intermediates_json(result.details)
    except ValueError:
        # The only ValueError here is str() of an int over the digit limit.
        raise NumberTooLong("a number in the report has more digits than Python prints") from None
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_variant(text: str) -> Variant:
    for variant in Variant:
        if variant.value == text:
            return variant
    raise ValueError(f"unknown variant {text!r}")
