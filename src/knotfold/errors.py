"""Exception hierarchy shared by all knotfold modules."""


class KnotfoldError(Exception):
    """Base class for all errors raised by this package."""


# --- diagram codec ---

class CodecError(KnotfoldError):
    pass


class NonInteger(CodecError):
    pass


class OddEntry(CodecError):
    pass


class DuplicateOrGap(CodecError):
    pass


class NotRealizable(CodecError):
    pass


class BadArcMultiplicity(CodecError):
    pass


class Disconnected(CodecError):
    pass


# --- polynomial / invariant engine ---

class VariableMismatch(KnotfoldError):
    pass


class InexactDivision(KnotfoldError):
    pass


class WidthOverflow(KnotfoldError):
    pass


class SweepNotClosed(KnotfoldError):
    pass


class NotAKnot(KnotfoldError):
    pass


class Unsupported(KnotfoldError):
    pass


# --- point cloud ---

class HalfIntegerExponent(KnotfoldError):
    pass


class EmptyFamily(KnotfoldError):
    pass


class WindowOverflow(KnotfoldError):
    pass


# --- pca ---

class DimensionMismatch(KnotfoldError):
    pass


class InsufficientData(KnotfoldError):
    pass


class NotSymmetric(KnotfoldError):
    pass


class MomentOverflow(KnotfoldError):
    """Integer moments would leave the range in which they are exact."""


class JonesIdentityFailure(KnotfoldError):
    """Moments break an identity that every Jones polynomial satisfies."""


# --- pipeline ---

class Unreadable(KnotfoldError):
    pass


class UnknownFormat(KnotfoldError):
    pass


class DuplicateId(KnotfoldError):
    """A dataset record reuses the id of an earlier record."""


class BadEnvironment(KnotfoldError):
    pass
