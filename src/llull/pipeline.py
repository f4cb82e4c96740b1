"""End-to-end tally: ballots or a score matrix in, rates and ranking out."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _string
from typing import Callable

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


def _layout(value, pad: str = "") -> str:
    """Dicts and lists over encoded JSON texts, opening at indent ``pad``, laid
    out as ``json.dumps(value, sort_keys=True, indent=2)`` lays out what they encode."""
    if isinstance(value, str):
        return value
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        items = [f"{_string(k)}: {_layout(value[k], inner)}" for k in sorted(value)]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    try:
        body = sep.join(value)  # a list of texts
    except TypeError:
        body = sep.join([_layout(item, inner) for item in value])
    return "[\n" + inner + body + "\n" + pad + "]"


def _texts(values: np.ndarray, encode: Callable[[np.ndarray], list[str]]) -> list:
    """``values`` as nested lists of JSON texts; ``encode`` maps the sorted
    distinct values to their texts, so each is encoded once."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array(encode(distinct), dtype=object)[at.reshape(values.shape)].tolist()


def _float_texts(bits: np.ndarray) -> list[str]:
    """Floats, given by their int64 bits so -0.0 keeps its sign, as JSON writes finite ones."""
    return list(map(float.__repr__, bits.view(np.float64).tolist()))


def _fraction_texts(p: np.ndarray, den: int) -> list[str]:
    """Numerators over ``den``, int64 or Python ints, as quoted Fraction strings."""
    g = np.gcd(p, den)  # positive, so the sign stays on the numerator
    pairs = zip((p // g).tolist(), (den // g).tolist())
    return [f'"{p}"' if q == 1 else f'"{p}/{q}"' for p, q in pairs]


def _config_json(config: RunConfig) -> dict:
    total = config.total_voters
    return {
        "variant": _string(config.variant.value),
        "listed_vs_unlisted": _string(config.rules.listed_vs_unlisted.value),
        "unlisted_pair": _string(config.rules.unlisted_pair.value),
        "total_voters": "null" if total is None else f'"{total}"',
        "formula": _string(config.formula.value),
    }


def _intermediates_json(details: ProjectionDetails, quoted: list[str]) -> dict:
    seq = details.xi.sequence
    exact = partial(_fraction_texts, den=details.den)
    halves = partial(_fraction_texts, den=2)  # the Copeland ranks' denominator
    return {
        "v": _texts(details.matrix.w, partial(_fraction_texts, den=details.matrix.den)),
        "t": _texts(details.t, exact),
        "vstar": _texts(details.scores.vstar, exact),
        "vbar": "null" if details.scores.vbar is None else _texts(details.scores.vbar, exact),
        "m": _texts(details.vm.m, exact),
        "copeland": _texts(np.array(details.xi.copeland, dtype=np.int64), halves),
        "xi": [quoted[x] for x in seq],
        "msigma": _texts(details.im.msigma, exact),
        "tausigma": _texts(details.pt.tsigma.view(np.int64), _float_texts),
        "gamma": _texts(details.intervals.view(np.int64), _float_texts),
        "pi": _texts(details.pm.pi[np.ix_(seq, seq)].view(np.int64), _float_texts),
    }


def render_json(result: TallyResult, config: RunConfig) -> str:
    """The JSON report, written as ``json.dumps(report, sort_keys=True,
    indent=2)`` writes it; ``NumberTooLong`` when an exact number in it has
    more digits than ``str`` of an int may print."""
    names = result.candidates.names
    quoted = [_string(name) for name in names]
    rates = np.array(result.rates.rates)
    try:
        report = {
            "schema": "1",
            "config": _config_json(config),
            "candidates": quoted,
            "total_voters": f'"{result.details.matrix.total}"',
            "rates": dict(zip(names, _texts(rates.view(np.int64), _float_texts))),
            "ranking": [[quoted[x] for x in group] for group in result.ranking.groups],
        }
        if config.intermediates:
            report["intermediates"] = _intermediates_json(result.details, quoted)
    except ValueError:
        # The only ValueError here is str() of an int over the digit limit.
        raise NumberTooLong("a number in the report has more digits than Python prints") from None
    return _layout(report) + "\n"


def parse_variant(text: str) -> Variant:
    for variant in Variant:
        if variant.value == text:
            return variant
    raise ValueError(f"unknown variant {text!r}")
