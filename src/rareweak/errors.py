"""Exception types shared across the package.

Every error raised on purpose derives from :class:`RareweakError` so callers
can catch one base class.  Subclasses carry the offending index or value
where that helps debugging; messages are built by the raise site.
"""

from __future__ import annotations


class RareweakError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # unpickled without __init__, whose first parameter is not always the
        # message, so an error raised in a pool worker reads the same here
        return type(self).__new__, (type(self), *self.args), self.__dict__


# ---------------------------------------------------------------------------
# input / data problems


class NonFiniteInputError(RareweakError):
    """An input contains NaN or infinity, or a value outside its domain (a
    binary phenotype value other than 0 and 1, for one)."""


class ConstantColumnError(RareweakError):
    """A column (or the response) has zero variance and no correlation exists."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"column {index} is constant")


class MonomorphicColumnError(RareweakError):
    """A genotype column carries a single allele in the pooled sample."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"column {index} is monomorphic in the pooled sample")


class EmptyGroupError(RareweakError):
    """A case/control split left one group empty."""


class BadSampleSizeError(RareweakError):
    """Sample size too small for the requested statistic."""


class DegenerateCorrelationError(RareweakError):
    """|correlation| = 1, so the t transform is undefined."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"correlation at index {index} has magnitude 1")


class NonPositiveSigmaError(RareweakError):
    """A noise standard deviation that must be positive is not."""


class DimensionMismatchError(RareweakError):
    """Array shapes that must agree do not."""


# ---------------------------------------------------------------------------
# detector preconditions


class EmptyInputError(RareweakError):
    """An operation received zero elements."""


class PValueOutOfRangeError(RareweakError):
    """A p-value lies outside [0, 1]."""

    def __init__(self, index: int, value: float, message: str | None = None):
        self.index = index
        self.value = value
        super().__init__(message or f"p-value {value!r} at index {index} is outside [0, 1]")


class EmptyGridError(RareweakError):
    """A threshold grid has no points."""


class DegenerateGridPointError(RareweakError):
    """A threshold grid point gives a degenerate (zero-variance) normaliser."""

    def __init__(self, value: float, message: str | None = None):
        self.value = value
        super().__init__(message or f"grid point {value!r} gives a degenerate normaliser")


class BadRangeError(RareweakError):
    """An interval's lower end exceeds its upper end."""


class AlphaOutOfRangeError(RareweakError):
    """A rarity exponent is outside the open interval (1/2, 1)."""


class NonPositiveQuadFormError(RareweakError):
    """A quadratic form that must be positive is not."""


class NotPositiveDefiniteError(RareweakError):
    """A matrix that must be positive definite is not.

    ``minor_index`` is the 1-based order of the first non-positive leading
    principal minor reported by the Cholesky factorisation.
    """

    def __init__(self, minor_index: int, message: str | None = None):
        self.minor_index = minor_index
        super().__init__(message or f"leading principal minor {minor_index} is not positive")


class NotSquareError(RareweakError):
    """A matrix that must be square, or symmetric, is not."""


# ---------------------------------------------------------------------------
# simulation


class BadKError(RareweakError):
    """A signal support is malformed, or a signal count to draw is outside [1, L]."""


class UnattainableError(RareweakError):
    """A target correlation is outside the bounds the marginals allow."""


class LatentNotPDError(RareweakError):
    """The solved latent correlation matrix is not positive definite."""

    def __init__(self, minor_index: int, message: str | None = None):
        self.minor_index = minor_index
        super().__init__(message or f"latent correlation matrix fails at leading minor {minor_index}")


class QuotaStallError(RareweakError):
    """Case/control rejection sampling is accepting too rarely to finish."""


# ---------------------------------------------------------------------------
# benchmarking


class TooFewPermutationsError(RareweakError):
    """Not enough permutations to resolve the requested level."""


class EmptyGeneError(RareweakError):
    """A gene set contains no columns."""

    def __init__(self, gene: str, message: str | None = None):
        self.gene = gene
        super().__init__(message or f"gene {gene!r} has no columns")


# ---------------------------------------------------------------------------
# ingestion / CLI


class MalformedCsvError(RareweakError):
    """A CSV file is ragged, non-numeric, or otherwise unparseable."""

    def __init__(self, path: str, line: int, message: str | None = None):
        self.path = path
        self.line = line
        super().__init__(message or f"{path}:{line}: malformed CSV")


class AllColumnsDroppedError(RareweakError):
    """Quality control removed every genotype column."""


class UnknownSnpIdError(RareweakError):
    """A gene map names a SNP id absent from the genotype header."""

    def __init__(self, snp_id: str, message: str | None = None):
        self.snp_id = snp_id
        super().__init__(message or f"unknown SNP id {snp_id!r}")


class ConfigError(RareweakError):
    """A run configuration is missing, malformed, or contains unknown keys."""
