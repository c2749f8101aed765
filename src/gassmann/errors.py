"""Exception types shared across the toolkit."""


class GassmannError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(GassmannError):
    pass


class SizeCapExceeded(GassmannError):
    pass


class DimensionMismatch(GassmannError):
    pass


class SpecMismatch(GassmannError):
    pass


class SelfCheckFailed(GassmannError):
    """A computed result failed its own certificate check (internal).

    Raised explicitly rather than by ``assert`` so that ``python -O``
    cannot strip the check.
    """


class UsageError(GassmannError):
    """Command-line options that do not fit together or are missing."""


class EmptyGeneratorSet(GassmannError):
    pass


class NotGenerating(GassmannError):
    """The supplied generators leave a coset graph disconnected."""


class RamifiedPlace(GassmannError):
    """Residue degree requested at the one excluded (ramified) prime."""


class NoValidD(GassmannError):
    """No positive growth constant exists on the requested level range."""


class PrecisionExhausted(GassmannError):
    """An interval comparison stayed undecided at maximum precision."""


class ExponentMarginNonpositive(GassmannError):
    pass


class PrimesExhausted(GassmannError):
    pass
