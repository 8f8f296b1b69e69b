"""Exception types shared across the package."""


class CoinvError(Exception):
    """Base class for all errors raised by this package."""


class NotInvariantError(CoinvError):
    """A polynomial expected to be block-symmetric is not."""


class NoSolutionError(CoinvError):
    """A power-basis decomposition has no solution.

    The free-module decompositions used here always have a unique solution
    for valid input, so this error signals a non-invariant argument or a bug.
    """


class WindowOverflowError(CoinvError):
    """An operator would act through an index outside the allowed window."""
