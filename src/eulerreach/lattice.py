"""Finite subsets of the scaled integer lattice rho * Z^d.

Points are stored as the rows of an (N, d) int64 index array, sorted and
unique; the state coordinates are rho * z on demand.  The projector maps a
box b to all lattice points within max-norm rho/2 of it, i.e. the per-axis
index ranges ceil((lower - rho/2)/rho) .. floor((upper + rho/2)/rho).

Boundary ties (points at distance exactly rho/2) belong to the closed
ball and are included; index computation widens each quotient q by
BOUNDARY_GUARD * (|q| + 1), a relative 1e-12, which can admit at most one
extra boundary layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import Box

# relative inflation applied to index quotients at range boundaries
BOUNDARY_GUARD = 1e-12

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
    # q -/+ BOUNDARY_GUARD * (|q| + 1) with q = (bound -/+ rho/2) / rho,
    # in place to spare the temporaries
    qlo = np.add(lower, -rho / 2.0, dtype=float)
    qhi = np.add(upper, rho / 2.0, dtype=float)
    g = None
    for q, guard in ((qlo, -BOUNDARY_GUARD), (qhi, BOUNDARY_GUARD)):
        q /= rho
        g = np.abs(q, out=g)
        g += 1.0
        g *= guard
        q += g
    lo = np.ceil(qlo, out=qlo).astype(np.int64)
    hi = np.floor(qhi, out=qhi).astype(np.int64)
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
    # column by column: reducing a column is far cheaper than reducing
    # axis 0 of an (N, d) array, and needs no transposed copy
    base = [int(lo[:, a].min()) for a in range(d)]
    spans = [int(hi[:, a].max()) - b + 1 for a, b in enumerate(base)]
    shape = [s + 1 for s in spans]
    size = math.prod(shape)
    wide = [a for a, s in enumerate(spans) if s > 1]
    if wide and size > RASTER_BUDGET:
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

    # flat offsets of the faces at lo and at hi + 1, per axis; a corner
    # picks one face per axis and counts -1 when it picks an odd number
    # of upper faces
    even, odd = [0], []
    stride = size
    for a in range(d):
        stride //= shape[a]
        f_lo = lo[:, a] - base[a]
        f_lo *= stride
        f_hi = hi[:, a] - (base[a] - 1)
        f_hi *= stride
        even, odd = (
            [c + f_lo for c in even] + [c + f_hi for c in odd],
            [c + f_hi for c in even] + [c + f_lo for c in odd],
        )
    grid = np.bincount(np.concatenate(even), minlength=size)
    grid -= np.bincount(np.concatenate(odd), minlength=size)
    del even, odd, f_lo, f_hi
    cells = grid.reshape(shape)
    for a in range(d):
        np.cumsum(cells, axis=a, out=cells)
    flat = np.flatnonzero(grid > 0)
    del grid, cells
    # decode the C-order flat indices axis by axis, from the last, into
    # one row per axis; the rows transposed are the points
    out = np.empty((d, flat.size), dtype=np.int64)
    for a in range(d - 1, 0, -1):
        np.divmod(flat, shape[a], out=(flat, out[a]))
        out[a] += base[a]
    np.add(flat, base[0], out=out[0])
    return out.T


@dataclass(frozen=True)
class LatticeSet:
    """Deduplicated finite point set on the lattice rho * Z^d."""

    resolution: float
    points: np.ndarray  # (N, d) int64, lexicographically sorted

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty (N, d) array, d >= 1")
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
        # one % over Python ints: exact across the int64 range
        row = "%d " * (self.dim - 1) + "%d\n"
        fh.write((row * self.cardinality) % tuple(self.points.ravel().tolist()))


def _is_sorted_unique(pts: np.ndarray) -> bool:
    """Rows strictly increasing in lexicographic order (no duplicates)."""
    a, b = pts[1:], pts[:-1]
    # from the last column to the first: row > previous row on columns c..d-1
    res = a[:, -1] > b[:, -1]
    for c in range(pts.shape[1] - 2, -1, -1):
        res = (a[:, c] > b[:, c]) | ((a[:, c] == b[:, c]) & res)
    return bool(res.all())


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
