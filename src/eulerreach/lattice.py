"""Finite subsets of the scaled integer lattice rho * Z^d.

Points are stored as integer index tuples (exact dedup and hashing); the
state coordinates are rho * z on demand.  The projector maps a box b to
all lattice points within max-norm rho/2 of it, i.e. the per-axis index
ranges ceil((lower - rho/2)/rho) .. floor((upper + rho/2)/rho).

Boundary ties (points at distance exactly rho/2) belong to the closed
ball and are included; index computation inflates the range endpoints by
about one unit in the last place, which can admit at most one extra
boundary layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import Box

# relative inflation applied to index quotients at range boundaries
BOUNDARY_GUARD = 1e-12

# default per-set cardinality cap; configurations beyond this are not
# feasible at desk scale and abort with a ResourceCapError
DEFAULT_CAP = 50_000_000

# largest grid union_of_boxes rasters at once, in cells (32 MiB of int64
# counters); larger grids are split
RASTER_BUDGET = 1 << 22


def lattice_range(lower: np.ndarray, upper: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive integer index ranges of the projection of [lower, upper].

    Accepts arrays of matching shape (vectorized over boxes).  The result
    is never empty: hi >= lo holds per axis because the inflated interval
    has length >= rho.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    qlo = (np.asarray(lower, dtype=float) - rho / 2.0) / rho
    qhi = (np.asarray(upper, dtype=float) + rho / 2.0) / rho
    lo = np.ceil(qlo - BOUNDARY_GUARD * (np.abs(qlo) + 1.0)).astype(np.int64)
    hi = np.floor(qhi + BOUNDARY_GUARD * (np.abs(qhi) + 1.0)).astype(np.int64)
    if np.any(hi < lo):
        raise AssertionError("projection produced an empty index range")
    return lo, hi


def union_of_boxes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Union of a batch of inclusive integer index boxes.

    lo, hi: (N, d) with hi >= lo.  Returns the covered points as a sorted,
    unique (M, d) int64 array.  On the bounding grid of the boxes (plus one
    cell per axis) every box adds +1 or -1 at its 2^d corners; prefix sums
    along each axis then give the number of boxes covering each cell (the
    summed-area table of Crow, SIGGRAPH 1984), so the work follows the grid
    size, not the summed box sizes.  A grid over RASTER_BUDGET cells is
    split at the midpoint of its first axis spanning more than one index;
    the axes before it are constant, so the halves concatenate in order.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = lo.shape[1]
    if lo.shape[0] == 0:
        return np.empty((0, d), dtype=np.int64)
    base = lo.min(axis=0)
    spans = hi.max(axis=0) - base + 1
    wide = np.flatnonzero(spans > 1)
    if wide.size and float(np.prod((spans + 1).astype(float))) > RASTER_BUDGET:
        a = wide[0]
        mid = base[a] + spans[a] // 2  # first index of the upper half
        left = lo[:, a] < mid
        right = hi[:, a] >= mid
        hi_left = hi[left]
        hi_left[:, a] = np.minimum(hi_left[:, a], mid - 1)
        lo_right = lo[right]
        lo_right[:, a] = np.maximum(lo_right[:, a], mid)
        return np.concatenate(
            [union_of_boxes(lo[left], hi_left), union_of_boxes(lo_right, hi[right])]
        )

    shape = tuple(int(s) + 1 for s in spans)
    lo0 = lo - base
    hi1 = hi - base + 1
    corners: tuple[list, list] = ([], [])  # flat indices of the +1 and -1 corners
    for mask in range(1 << d):
        upper = [(mask >> a) & 1 for a in range(d)]
        coords = tuple(hi1[:, a] if u else lo0[:, a] for a, u in enumerate(upper))
        corners[sum(upper) & 1].append(np.ravel_multi_index(coords, shape))
    size = int(np.prod(shape))
    grid = np.bincount(np.concatenate(corners[0]), minlength=size)
    grid -= np.bincount(np.concatenate(corners[1]), minlength=size)
    grid = grid.reshape(shape)
    for a in range(d):
        np.cumsum(grid, axis=a, out=grid)
    return np.argwhere(grid > 0) + base


@dataclass(frozen=True)
class LatticeSet:
    """Deduplicated finite point set on the lattice rho * Z^d."""

    resolution: float
    points: np.ndarray  # (N, d) int64, lexicographically sorted

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if not _is_sorted_unique(pts):
            pts = np.unique(pts, axis=0)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def cardinality(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def state_points(self) -> np.ndarray:
        return self.resolution * self.points

    def write_text(self, fh) -> None:
        """Plain-text export: header with rho and d, one index row per point."""
        fh.write(f"# rho={self.resolution!r} d={self.dim} n={self.cardinality}\n")
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in self.points.tolist()))


def _is_sorted_unique(pts: np.ndarray) -> bool:
    if pts.shape[0] <= 1:
        return True
    diff = pts[1:] != pts[:-1]
    # strictly increasing lexicographically: first differing column positive
    first = np.argmax(diff, axis=1)
    rows = np.arange(pts.shape[0] - 1)
    return bool(np.all(diff.any(axis=1)) and np.all(
        pts[1:][rows, first] > pts[:-1][rows, first]
    ))


def project_box(b: Box, rho: float, cap: int = DEFAULT_CAP) -> LatticeSet:
    """Project a box onto the lattice rho * Z^d (never empty)."""
    from .errors import ResourceCapError

    lo, hi = lattice_range(b.lower, b.upper, rho)
    count = 1.0
    for a, z in zip(lo, hi):
        count *= float(z - a + 1)
    if count > cap:
        raise ResourceCapError(step=0, projected=count, cap=cap)
    return LatticeSet(rho, union_of_boxes(lo[None, :], hi[None, :]))


def union_into(target: LatticeSet, addition: LatticeSet) -> tuple[LatticeSet, int]:
    """Set union; also reports #addition before dedup against the target."""
    if target.resolution != addition.resolution:
        raise ValueError("resolution mismatch in lattice union")
    if target.dim != addition.dim:
        raise ValueError("dimension mismatch in lattice union")
    pts = np.concatenate([target.points, addition.points])
    merged = union_of_boxes(pts, pts)
    return LatticeSet(target.resolution, merged), addition.cardinality


def hausdorff_points(A: np.ndarray, B: np.ndarray, chunk: int = 4096) -> float:
    """Hausdorff distance between finite point sets in the max norm."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("hausdorff_points requires nonempty sets")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    return max(_directed_points(A, B, chunk), _directed_points(B, A, chunk))


def _directed_points(A: np.ndarray, B: np.ndarray, chunk: int) -> float:
    worst = 0.0
    for i in range(0, A.shape[0], chunk):
        block = A[i : i + chunk]
        d = np.abs(block[:, None, :] - B[None, :, :]).max(axis=2).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


def hausdorff_to_box(A: LatticeSet, b: Box) -> float:
    """Largest max-norm distance from a point of A to the box.

    Closed form per point; this measures how far the lattice set sticks
    out of the box (the over-approximation excess), not the symmetric
    Hausdorff distance.  See :func:`hausdorff_to_box_two_sided` for a
    certified two-sided bound.
    """
    if A.dim != b.dim:
        raise ValueError("dimension mismatch")
    x = A.state_points()
    excess = np.maximum(b.lower - x, x - b.upper)
    np.maximum(excess, 0.0, out=excess)
    return float(excess.max())


def hausdorff_to_box_two_sided(A: LatticeSet, b: Box, max_cells: int = 50_000_000) -> float:
    """Upper bound on the symmetric Hausdorff distance dist_H(A, b).

    The direction A -> b is exact (closed form per point).  For b -> A,
    every y in b is within rho/2 of its nearest lattice point z, which
    lies in the lattice cover of b; the lattice-to-set distances are
    integer Chebyshev distances, computed exactly with a chessboard
    distance transform.  The result over-estimates the true distance by
    at most rho/2.
    """
    from scipy.ndimage import distance_transform_cdt

    if A.dim != b.dim:
        raise ValueError("dimension mismatch")
    rho = A.resolution
    out = hausdorff_to_box(A, b)

    cov_lo, cov_hi = lattice_range(b.lower, b.upper, rho)
    lo = np.minimum(cov_lo, A.points.min(axis=0))
    hi = np.maximum(cov_hi, A.points.max(axis=0))
    shape = tuple(int(v) for v in hi - lo + 1)
    cells = 1
    for s in shape:
        cells *= s
    if cells > max_cells:
        raise MemoryError(
            f"two-sided Hausdorff grid would need {cells} cells (> {max_cells})"
        )
    occupied = np.zeros(shape, dtype=bool)
    occupied[tuple((A.points - lo).T)] = True
    dist = distance_transform_cdt(~occupied, metric="chessboard")
    window = tuple(
        slice(int(a - o), int(z - o + 1)) for a, z, o in zip(cov_lo, cov_hi, lo)
    )
    box_to_set = rho / 2.0 + rho * float(dist[window].max())
    return max(out, box_to_set)
