"""Exception hierarchy shared by the whole package.

Two broad families matter for the CLI exit codes: DataError (bad or
degenerate inputs, exit code 2) and NumericError (non-finite values or
numerically impossible operations, exit code 3).
"""


class BotaclipError(Exception):
    """Base class for all package errors."""


class UsageError(BotaclipError):
    """Bad command-line usage or configuration. CLI exit code 1."""


class DataError(BotaclipError):
    """Invalid, inconsistent or degenerate input data. CLI exit code 2."""


class NumericError(BotaclipError):
    """Numeric failure (non-finite values, zero rows, ...). CLI exit code 3."""


# --- numeric failures -------------------------------------------------------

class ZeroRow(NumericError):
    """A row with (near-)zero norm cannot be normalized."""


class NonFinite(NumericError):
    """A computation produced or received NaN/inf."""


class NotNormalized(NumericError):
    """Rows expected on the unit sphere deviate beyond tolerance."""


# --- shape / integrity ------------------------------------------------------

class ShapeMismatch(DataError):
    """Operand shapes are incompatible."""


class MissingForwardCache(BotaclipError):
    """backward() called without a preceding forward pass."""


# --- file formats -----------------------------------------------------------

class BadMagic(DataError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(DataError):
    """File ends before the declared payload is complete."""


# --- tabular data -----------------------------------------------------------

class UnknownClass(DataError):
    """Cover-abundance class outside the known scale."""


class UnknownSpecies(DataError):
    """Species id missing from the species index."""


class DuplicateEntry(DataError):
    """The same (plot, species) pair, or an index species, recorded twice."""


class EmptySample(DataError):
    """A sample row sums to zero where a positive total is required."""


class InsufficientAbsences(DataError):
    """Fewer candidate absences than presences."""


class BadLabel(DataError):
    """Class label outside the valid range."""


# --- splits and training ----------------------------------------------------

class EmptySplit(DataError):
    """A train or validation split contains no samples."""


class TooFewCells(DataError):
    """Fewer distinct grid cells than requested folds."""


class LeakageDetected(DataError):
    """A training sample sits in a validation or buffer cell."""


class EmptyData(DataError):
    """A model was asked to fit on an empty dataset."""


# --- metrics / statistics ---------------------------------------------------

class UndefinedMetric(DataError):
    """A metric denominator is zero; the reason is in the message."""


class ZeroVariance(DataError):
    """A correlation is undefined because one input is constant."""


class Degenerate(DataError):
    """Too few usable windows/points for the requested statistic."""


class DegenerateCluster(DataError):
    """Two cluster centroids coincide; the index is undefined."""


class AllZeroDifferences(DataError):
    """Every paired difference is zero; the signed-rank test is undefined."""
