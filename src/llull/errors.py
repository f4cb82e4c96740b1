"""Exception types raised by the tally pipeline."""


class LlullError(Exception):
    """Base class for all errors raised by this package."""


class BallotError(LlullError):
    """A ballot line could not be interpreted.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MalformedSyntax(BallotError):
    pass


class UnknownCandidate(BallotError):
    pass


class DuplicateCandidate(BallotError):
    pass


class NonPositiveWeight(BallotError):
    pass


class MatrixFormatError(LlullError):
    """A pairwise-score file violates the CSV matrix format."""

    def __init__(self, message: str, line: int = 1):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TotalVotersTooSmall(LlullError):
    """The requested voter total is below an observed absolute turnout."""


class NumberTooLong(LlullError):
    """A number of the JSON report has more digits than Python prints.

    Inputs whose numbers each pass the digit limit can compose past it: a
    sum of weights, or a matrix cell over its voter total.
    """


class NotAdmissible(LlullError):
    """The candidate order violates the indirect comparison relation.

    Only reachable for variants whose comparison relation is not guaranteed
    to be transitive; the message names a violating pair.
    """


class Infeasible(LlullError):
    """No point satisfies the constraints of a quadratic program."""


class MaxIterations(LlullError):
    """An iterative solver hit its iteration bound before converging."""


class LawViolation(LlullError):
    """A law the projected intervals or scores must obey failed to hold.

    Raised by the structural checks after the floating-point step; the
    message names the law.
    """
