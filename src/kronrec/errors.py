"""Exception hierarchy shared by all kronrec modules."""


class KronrecError(ValueError):
    """Base class for every error raised by this package."""


class ParseError(KronrecError):
    """Malformed input text (bad coefficient list, bad number format)."""


class DomainError(KronrecError):
    """Structurally valid input that violates an operation's precondition."""


class RootCertificationError(DomainError):
    """The double-precision root iteration gave no certified, disjoint root disks."""


class SingularMatrixError(DomainError):
    """Exact solve or inversion hit a singular matrix."""


class CertificateError(KronrecError):
    """A constructed object failed one of its own certificate clauses."""
