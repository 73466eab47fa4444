"""Exception types shared across the toolkit."""


class RenormError(Exception):
    """Base class for all toolkit errors."""


class NonConvergence(RenormError):
    """A Newton solve or limit computation failed to converge."""


class BranchJump(RenormError):
    """Continuation stepped onto a sibling preimage branch."""


class NoColanding(RenormError):
    """The two rays of a prospective cut land at distinct points."""


class RayNotConverged(RenormError):
    """A ray required by a construction did not land."""


class WrongPullback(RenormError):
    """A selected preimage continuation fails its landing condition."""


class CarrotOverlap(RenormError):
    """Carrots are not pairwise disjoint (or a carrot is degenerate)."""


class ContinuityGap(RenormError):
    """Assembled surgery map is discontinuous across a patch boundary."""


class DegreeMismatch(RenormError):
    """Topological degree from the formula and from preimage counting disagree."""


class OutsideLinearizationDomain(RenormError):
    """Point lies outside the estimated Koenigs linearization disk."""


class InsufficientSamples(RenormError):
    """An estimator has too few samples at some required scale."""


class GridMismatch(RenormError):
    """Two masks live on different grids."""


class SceneError(RenormError):
    """A scene file failed validation; `path` locates the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
