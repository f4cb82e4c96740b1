"""Continuous rating of preferential votes from pairwise Llull matrices.

Ballots (possibly truncated, with ties or approval cutoffs) are aggregated
into an exact rational matrix of pairwise scores, closed along widest paths,
projected onto a structured score set, and read out as rank-like rates in
[1, N] together with the social ranking they induce.
"""

from .ballots import (
    Ballot,
    BallotTable,
    CandidateSet,
    InterpretationRules,
    Listed,
    Unlisted,
    ballot_to_pairwise,
    parse_ballot_line,
    read_ballot_file,
    serialize_ballot,
    serialize_ballot_file,
)
from .closures import (
    IndirectScores,
    Variant,
    VariantMargins,
    indirect_scores,
    margin_completion,
    maxmin_closure_grid,
    minmax_closure_grid,
    variant_margins,
)
from .errors import (
    BallotError,
    DuplicateCandidate,
    Infeasible,
    LawViolation,
    LlullError,
    MalformedSyntax,
    MatrixFormatError,
    MaxIterations,
    NonPositiveWeight,
    NotAdmissible,
    NumberTooLong,
    TotalVotersTooSmall,
    UnknownCandidate,
)
from .matrix import (
    LlullMatrix,
    aggregate,
    margins,
    read_matrix,
    turnouts,
    write_matrix,
)
from .ordering import (
    AdmissibleOrder,
    admissible_order,
    copeland_ranks,
    enumerate_admissible_orders,
)
from .pipeline import RunConfig, TallyResult, run, tally
from .projection import (
    IntermediateMargins,
    ProjectedMatrix,
    ProjectedTurnouts,
    build_intervals,
    intermediate_margins,
    project_details,
    project_turnouts,
    projected_scores,
)
from .qp import QpProblem, QpSolution, solve_active_set, solve_dykstra
from .rates import (
    RankLikeRates,
    RateFormula,
    SocialRanking,
    rank_like_rates,
    social_ranking,
)

__version__ = "0.1.0"
