"""Exception types shared across the package."""


class FacekoszulError(Exception):
    """Base class for all package-specific errors."""


class CartanDatumError(FacekoszulError, ValueError):
    """Invalid Cartan datum: not symmetrizable, not finite type, or malformed."""


class VirtualCharacterError(FacekoszulError, ArithmeticError):
    """An operation that requires an actual module character met a virtual one.

    Raised on negative remainders during maximal-weight subtraction, on
    negative multiplicities fed to a power, and on negative net multiplicities
    in a Brauer-Klimyk constituent sum.
    """


class FaceCertificateError(FacekoszulError, ValueError):
    """A face certificate (supporting functional) is required but absent."""


class IncomparableError(FacekoszulError, ValueError):
    """Poset operation called on incomparable elements."""


class NotIntervalClosedError(FacekoszulError, ValueError):
    """A finite point set required to be interval-closed is not."""


class WitnessSearchError(FacekoszulError, LookupError):
    """The bounded witness search exhausted its range without success."""


class GuardLimitError(FacekoszulError, ValueError):
    """An enumeration guard (rank or support size) was exceeded."""
