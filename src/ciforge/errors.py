"""Exception types shared across the toolkit."""


class CiforgeError(Exception):
    """Base class for all toolkit errors."""


class TooFewRows(CiforgeError):
    """Operation requires more rows than the dataset provides."""


class SchemaMismatch(CiforgeError):
    """Column names, kinds, or cardinalities do not line up."""


class SupportMismatch(CiforgeError):
    """Two distributions live on supports of different sizes."""


class SizeOutOfRange(CiforgeError):
    """Alphabet size outside the supported range."""


class InvalidConditional(CiforgeError):
    """A conditional pmf is negative or does not sum to one."""


class SingleClass(CiforgeError):
    """Both classes are required but only one is present."""


class EmptyTest(CiforgeError):
    """Cannot score a classifier on an empty test set."""


class UnknownColumn(CiforgeError):
    """A relation references a column that does not exist in the data."""
