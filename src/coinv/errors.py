"""Exception types shared across the package."""


class CoinvError(Exception):
    """Base class for all errors raised by this package."""


class NotInvariantError(CoinvError):
    """A polynomial expected to be block-symmetric is not."""


class NonTerminatingError(CoinvError):
    """A graded quotient failed its vanishing-window certificate.

    Raised when graded pieces that should vanish above the predicted top
    degree turn out to be non-zero; this signals an internal inconsistency,
    never bad user input.
    """


class NoSolutionError(CoinvError):
    """A power-basis decomposition has no solution.

    The free-module decompositions used here always have a unique solution
    for valid input, so this error signals a non-invariant argument or a bug.
    """


class WindowOverflowError(CoinvError):
    """An operator would act through an index outside the allowed window."""
