"""Exception types shared across the package."""


class BILabError(Exception):
    """Base class for all package errors."""


class InvalidScalar(BILabError):
    """A rational could not be constructed (e.g. zero denominator)."""


class NotDivisible(BILabError):
    """An exact polynomial division left a nonzero remainder, which no
    division of the operator realizations should leave."""


class DegenerateParameters(BILabError):
    """A parameter combination makes a required denominator vanish."""


class DegenerateSpectrum(BILabError):
    """An eigenvalue collision prevents the requested eigensolve."""


class NotFinitelyOrthogonal(BILabError):
    """Truncation or positivity fails, so no finite orthogonality grid exists."""


class NotUnitary(BILabError):
    """The tridiagonal representation is not unitarizable (off-diagonal
    products not all positive)."""


class TruncationFailure(BILabError):
    """The representation does not close at the expected dimension."""
