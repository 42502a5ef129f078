"""Exception hierarchy shared by all abelcover modules."""

from math import log10


class AbelCoverError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(AbelCoverError):
    pass


class TooLarge(AbelCoverError):
    pass


class BadOrder(AbelCoverError):
    pass


class FieldMismatch(AbelCoverError):
    pass


class ZeroPolynomial(AbelCoverError):
    pass


class DimensionMismatch(AbelCoverError):
    pass


class InternalInconsistency(AbelCoverError):
    """Two provably-equivalent computations disagreed; signals a bug."""


class BadDivisor(AbelCoverError):
    pass


class CongruenceViolation(AbelCoverError):
    def __init__(self, j, d_j, r_j):
        super().__init__(f"d_{j} = {d_j} is not divisible by r_{j} = {r_j}")
        self.j = j
        self.d_j = d_j
        self.r_j = r_j


class NonIntegralGenus(AbelCoverError):
    pass


class NegativeGenus(AbelCoverError):
    pass


class BudgetExceeded(AbelCoverError):
    def __init__(self, size, budget):
        shown = size
        if size.bit_length() > 14000:  # str() refuses ints of over 4,300 digits
            digits = int((size.bit_length() - 1) * log10(2)) + 1
            shown = f"of {digits + (size >= 10**digits)} digits"
        super().__init__(f"space size {shown} exceeds budget {budget}")
        self.size = size
        self.budget = budget


class RejectionStall(AbelCoverError):
    pass


class MultipleVanishing(AbelCoverError):
    pass


class RamifiedPoint(AbelCoverError):
    pass


class BadField(AbelCoverError):
    pass


class BadMultiplicity(AbelCoverError):
    pass


class EmptyHistogram(AbelCoverError):
    pass
