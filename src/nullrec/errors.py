"""Exception hierarchy shared across the toolkit.

Every condition that a caller can act on gets its own class.  Each class
carries the CLI's exit code for it, set once per category base.
"""

from __future__ import annotations


class NullrecError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(NullrecError):
    """A model, spec or argument is invalid."""

    exit_code = 4


class NumericError(NullrecError):
    """A series diverges, is truncated too early, or gives an impossible value."""

    exit_code = 5


class EmptyDataError(NullrecError):
    """There is no data to estimate or summarize from."""

    exit_code = 6


class ExperimentError(NullrecError):
    """An experiment as a whole is rejected."""

    exit_code = 7


# --- finite-chain model validation -----------------------------------------

class NotStochastic(ValidationError):
    def __init__(self, row: int, row_sum: float):
        self.row = row
        self.row_sum = row_sum
        super().__init__(f"row {row} of P is not a probability vector (sum={row_sum!r})")


class MinorizationViolated(ValidationError):
    def __init__(self, i: int, j: int, deficit: float):
        self.i = i
        self.j = j
        self.deficit = deficit
        super().__init__(
            f"s[{i}]*nu[{j}] exceeds P[{i}][{j}] by {deficit:.3e}; (s, nu) is not an atom for P"
        )


class NotIrreducible(ValidationError):
    def __init__(self, outside: list[int]):
        self.outside = outside
        super().__init__(f"states {outside} do not communicate with state 0; "
                         "P is not irreducible")


# --- regeneration algebra ----------------------------------------------------

class SeriesDiverges(NumericError):
    """The taboo-kernel Neumann series does not converge (no regeneration mass)."""


class OrderTooLarge(NumericError):
    def __init__(self, m: int, cap: int):
        self.m = m
        self.cap = cap
        super().__init__(f"moment order {m} exceeds the supported cap {cap}")


class TruncationInsufficient(NumericError):
    def __init__(self, tail_bound: float, tol: float):
        self.tail_bound = tail_bound
        self.tol = tol
        super().__init__(f"series tail bound {tail_bound:.3e} exceeds tolerance {tol:.3e}")


class CoefficientMassDeficit(NumericError):
    def __init__(self, mass: float, tol: float):
        self.mass = mass
        self.tol = tol
        super().__init__(
            f"regeneration-gap coefficients sum to {mass!r} < 1 - {tol!r}; "
            "the driving chain does not regenerate with probability one"
        )


class NegativeVariance(NumericError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"computed block variance {value!r} is negative beyond "
                         "rounding tolerance; the model is inconsistent")


# --- simulation and process specs -------------------------------------------

class SamplingStalled(NumericError):
    """A lockstep block sampler hit its round cap: the model barely regenerates."""


class InvalidHalfwidth(ValidationError):
    pass


class UnknownProcessFamily(ValidationError):
    pass


class InvalidSpec(ValidationError):
    pass


class WrongFamily(ValidationError):
    pass


def check_keys(obj: dict, allowed, where: str) -> None:
    """Raise InvalidSpec when a JSON object has a key outside `allowed`, so a
    misspelt key is an error rather than ignored."""
    if unknown := sorted(set(obj) - set(allowed)):
        raise InvalidSpec(f"unknown {where} key(s) {unknown}; expected some of {list(allowed)}")


# --- estimation ---------------------------------------------------------------

class EmptyNeighborhood(EmptyDataError):
    """No observation carries positive kernel weight at the evaluation point."""


class EmptyOccupation(EmptyDataError):
    """The occupation count of the reference set is zero."""


class AllNeighborhoodsEmpty(EmptyDataError):
    pass


# --- experiments ----------------------------------------------------------------

class TooFewValues(EmptyDataError):
    pass


class AllRejected(ExperimentError):
    pass


class IncomparableProtocols(ExperimentError):
    pass


# --- CLI -------------------------------------------------------------------------

class ConfigParse(NullrecError):
    exit_code = 2


class IoFailure(NullrecError):
    exit_code = 3
