"""Exception hierarchy for the heat-kernel toolkit.

Two families matter to callers.  InputError covers malformed data: bad
graph files, nonpositive measures, inconsistent pair weights, dimension
mismatches, unusable configuration.  CertificateError covers mathematical
guarantees that could not be met: a starter kernel that fails validation,
a built kernel whose certified error misses the tolerance, a quantity
requested on a space where it is undefined.  The command-line layer maps
InputError to exit code 1 and CertificateError to exit code 2.
"""


class HeatKernelError(Exception):
    """Base class for all library errors."""


class InputError(HeatKernelError):
    """Malformed or inconsistent input data."""


class CertificateError(HeatKernelError):
    """A mathematical guarantee could not be established."""


# ---------------------------------------------------------------- inputs

class DuplicatePoint(InputError):
    pass


class UnknownPoint(InputError, KeyError):
    """A point label the space does not hold; still a KeyError to lookups."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class NonpositiveMeasure(InputError):
    pass


class AsymmetricConductance(InputError):
    pass


class ZeroDegreePoint(InputError):
    """Assumption C: every point must carry strictly positive degree."""


class DimensionMismatch(InputError):
    pass


class SpaceMismatch(InputError):
    pass


class HorizonExceeded(InputError):
    pass


class BadTruncation(InputError):
    pass


class NonpositiveShift(InputError):
    pass


class NonpositiveTime(InputError):
    pass


class ParseError(InputError):
    pass


class CenterNotFound(InputError):
    pass


class ConfigError(InputError):
    pass


# ---------------------------------------------------- certificates / math

class DisconnectedSpace(CertificateError):
    """Zero eigenvalue with multiplicity above one."""


class NotPositiveDefinite(CertificateError):
    pass


class NotReproducing(CertificateError):
    pass


class InvalidParametrix(CertificateError):
    pass


class NoConvergenceBudget(CertificateError):
    pass


class NotSelfAdjoint(CertificateError):
    pass


class TailUncontrolled(CertificateError):
    pass


class NotStochasticallyComplete(CertificateError):
    pass


class NonpositiveEntry(CertificateError):
    pass
