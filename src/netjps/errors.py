"""Exception types shared across the package.

Every error raised by the library derives from :class:`NetjpsError`.  The
``code`` attribute is a stable machine-readable tag and ``exit_code`` the
CLI's exit status for the class; a subclass that does not set
``exit_code`` shares its parent's.
"""


class NetjpsError(Exception):
    code = "error"
    exit_code = 1


class InputError(NetjpsError):
    """Rejected input: bad edge records, malformed CSV rows, shape errors."""

    code = "input"
    exit_code = 5


class ConfigError(NetjpsError):
    """Run-configuration parse or validation failure (names field and line)."""

    code = "config"
    exit_code = 2


class UnboundColumnError(ConfigError):
    """A bound column name does not exist in the ingested table."""

    code = "unbound-column"
    exit_code = 4


class DomainError(NetjpsError):
    """Value outside a mathematical domain (nonpositive scale, log of <= 0, ...)."""

    code = "domain"
    exit_code = 6


class DegenerateSampleError(DomainError):
    """Sample statistic undefined, e.g. skewness of a zero-variance sample."""

    code = "degenerate-sample"


class NoRootError(NetjpsError):
    """Root finder could not bracket a sign change."""

    code = "no-root"
    exit_code = 10


class SingularDesignError(NetjpsError):
    """Rank-deficient regression design; ``columns`` names the offending set."""

    code = "singular-design"
    exit_code = 9

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class DegenerateNormalizerError(NetjpsError):
    """Trade-normalized exposure requested on a period with no nonzero weights."""

    code = "degenerate-normalizer"
    exit_code = 7


class DegenerateExposureError(NetjpsError):
    """All exposures identical: the joint treatment model is unidentified."""

    code = "degenerate-exposure"
    exit_code = 8


class BootstrapError(NetjpsError):
    """Too many bootstrap replicates failed; carries failure diagnostics."""

    code = "bootstrap-failed"
    exit_code = 11

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)
