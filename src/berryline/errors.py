"""Error taxonomy shared by all modules.

Every failure mode gets its own class so callers can react to the specific
condition (resample, perturb, refine) instead of parsing messages.  Messages
still carry the offending values because the CLI surfaces them verbatim.
"""


class BerrylineError(Exception):
    """Base class for all domain errors raised by this package."""


# --- eigenpath ---------------------------------------------------------------

class NonSymmetric(BerrylineError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NonFinite(BerrylineError):
    """Matrix or vector contains NaN or infinity."""


class DegeneracyOnPath(BerrylineError):
    """An eigenvalue gap collapsed at a path sample; branch identity is lost."""

    def __init__(self, index, gap, gap_tol):
        self.index = index
        self.gap = gap
        self.gap_tol = gap_tol
        super().__init__(
            f"gap {gap:.3e} <= gap_tol {gap_tol:.3e} at path sample {index}"
        )


class AmbiguousContinuation(BerrylineError):
    """Consecutive eigenvector overlap too small to continue the sign chain."""

    def __init__(self, index, overlap):
        self.index = index
        self.overlap = overlap
        super().__init__(
            f"|overlap| = {abs(overlap):.3f} < 0.5 between path samples "
            f"{index - 1} and {index}; refine the path sampling"
        )


class OpenPath(BerrylineError):
    """Operation requires a closed path."""


# --- berryphase --------------------------------------------------------------

class SampleOnNode(BerrylineError):
    """An overlap sample sits on a node; shift the grid and resample."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"|overlap| = {abs(value):.3e} counts as zero at sample {index}; "
            "node sits on the sampling grid"
        )


class OrthogonalEndpoints(BerrylineError):
    """Endpoint overlap vanishes; the open-path phase is undefined."""


class VanishingStepOverlap(BerrylineError):
    """A consecutive state overlap vanishes; the discrete phase is undefined."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"|<psi_{index}|psi_{index + 1}>| = {abs(value):.3e} vanishes; "
            "refine the state sampling"
        )


# --- jahnteller --------------------------------------------------------------

class AlphaUndefined(BerrylineError):
    """Mixing angle requested on the degeneracy set, where it has no value;
    index is the point's position in the evaluated array (0 for one point)."""

    def __init__(self, index, r, theta):
        self.index = index
        self.r = r
        self.theta = theta
        super().__init__(
            f"gap vanishes at point {index} (r={r!r}, theta={theta!r}); "
            "mixing angle undefined"
        )


class OnDegeneracyCircle(BerrylineError):
    """Closed-form node angles requested on the outer degeneracy circle."""

    def __init__(self, r, r_circle):
        self.r = r
        self.r_circle = r_circle
        super().__init__(
            f"r = {r!r} lies on the degeneracy circle r = 2k/g = {r_circle!r}"
        )


class NodeMismatch(BerrylineError):
    """Pipeline node angles on a circle disagree with the closed form."""

    def __init__(self, r, numeric, analytic):
        self.r, self.numeric, self.analytic = r, numeric, analytic
        super().__init__(f"r={r!r}: pipeline node angles {list(numeric)} "
                         f"disagree with the closed form {list(analytic)}")


# --- cilocate ----------------------------------------------------------------

class DegeneracyOnBoundary(BerrylineError):
    """Search-cell boundary runs through a degeneracy: a sample with gap <=
    gap_tol, or an unresolved step too short for float resolution to split.
    gap is the smallest gap sampled on the boundary."""

    def __init__(self, rect, gap, gap_tol):
        self.rect = rect
        self.gap = gap
        self.gap_tol = gap_tol
        super().__init__(
            f"boundary of {rect} runs through a degeneracy (smallest sampled "
            f"gap {gap:.3e}, gap_tol {gap_tol:.0e}); perturb the rectangle")


class MaxDepthExceeded(BerrylineError):
    """Quadtree hit its depth limit before reaching the spatial tolerance."""

    def __init__(self, depth, rect):
        self.depth = depth
        self.rect = rect
        super().__init__(
            f"surviving cell {rect} (sign -1, or a side through a "
            f"degeneracy) still wider than spatial_tol at depth {depth}"
        )


class CellLimitExceeded(BerrylineError):
    """Quadtree level would hold more cells than the locator scores at once:
    too few cells read +1 to be pruned, as when gap_tol is not small against
    the gap over the search window."""

    def __init__(self, depth, survivors, gap_tol):
        self.depth = depth
        self.survivors = survivors
        self.gap_tol = gap_tol
        super().__init__(
            f"{survivors} surviving cells at depth {depth} would split into "
            f"{4 * survivors}, more than a level may hold; gap_tol "
            f"{gap_tol:.3e} may not be small against the gap in the window")


# --- ringspectrum ------------------------------------------------------------

class GridTooCoarse(BerrylineError):
    """Ring grid too coarse for the requested problem."""


# --- comoving ----------------------------------------------------------------

class StepTooLarge(BerrylineError):
    """Integration or loop step under-resolves the local frequencies."""

    def __init__(self, index, product, limit):
        self.index = index
        self.product = product
        self.limit = limit
        super().__init__(
            f"step {index}: resolution product {product:.3e} >= {limit}; "
            "use a finer time or angle grid"
        )

