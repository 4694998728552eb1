"""Exception hierarchy for state validation, layout handling, and optimization."""


class QDarwinError(Exception):
    """Base class for all library errors."""


class InvalidLayout(QDarwinError, ValueError):
    """Subsystem layout violates its invariants."""


class DimensionMismatch(QDarwinError, ValueError):
    """Operands have incompatible dimensions."""


class DimensionOutOfRange(QDarwinError, ValueError):
    """A requested construction does not fit its dimensions or counts, or
    exceeds the supported size."""


class NotHermitian(QDarwinError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPositive(QDarwinError, ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""

    def __init__(self, most_negative: float):
        super().__init__(f"matrix is not positive semidefinite "
                         f"(most negative eigenvalue {most_negative:.3e})")
        self.most_negative = most_negative


class TraceNotOne(QDarwinError, ValueError):
    """Matrix trace differs from one beyond tolerance."""


class UnknownLabel(QDarwinError, KeyError):
    """A subsystem label is not present in the layout."""

    __str__ = Exception.__str__  # the message itself, not KeyError's quoted repr


class DuplicateLabel(QDarwinError, ValueError):
    """Two tensor factors carry the same label."""


class OverlappingParts(QDarwinError, ValueError):
    """Parts that must be disjoint overlap: the label sets of an information
    measure, the subfragments of a check, or the branch supports of a spec."""


class NeedTwoSubenvironments(QDarwinError, ValueError):
    """Strong-independence check requires at least two subenvironments."""


class DeltaOutOfRange(QDarwinError, ValueError):
    """Redundancy deficit parameter must lie strictly between 0 and 1."""


class DegenerateSystemEntropy(QDarwinError, ValueError):
    """Objectivity deficit is undefined for a system with (near-)zero entropy."""


class InvalidConfig(QDarwinError, ValueError):
    """A setting is out of range: an optimizer tolerance, count or grid, or a scan option."""


class OptimizerDidNotConverge(QDarwinError, RuntimeError):
    """Best and second-best restarts disagree by more than the tolerance."""

    def __init__(self, gap: float, tolerance: float):
        super().__init__(f"optimizer restarts disagree by {gap:.3e} bits "
                         f"(tolerance {tolerance:.3e})")
        self.gap = gap
        self.tolerance = tolerance
