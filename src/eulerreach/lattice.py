"""Finite subsets of the scaled integer lattice rho * Z^d.

A set is stored as the maximal runs of consecutive indices along the last
axis: an (R, d) int64 array of run starts, sorted, and their lengths.  A
set of N points in a few long rows then takes a few rows of memory, not N;
the sorted (N, d) index rows and the state coordinates rho * z are
expanded from the runs on demand and not kept.  The text writer reads the
runs, not the rows: it formats each held last-axis index once, into a table
that covers only held indices, and each run's earlier indices once.

The projector maps a box b to all lattice points within max-norm rho/2 of
it, i.e. the per-axis index ranges
ceil((lower - rho/2)/rho) .. floor((upper + rho/2)/rho).

Boundary ties (points at distance exactly rho/2) belong to the closed
ball and are included; index computation widens each quotient q by
BOUNDARY_GUARD * (|q| + 1), a relative 1e-12, which can admit at most one
extra boundary layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .systems import Box, hold

# relative inflation applied to index quotients at range boundaries
BOUNDARY_GUARD = 1e-12

# largest grid union_of_boxes rasters at once, in cells (32 MiB of int64
# counters); larger grids are split
RASTER_BUDGET = 1 << 22

# largest grid hausdorff_to_box_two_sided builds, in cells (50 MB of bools)
HAUSDORFF_CELLS = 50_000_000

# indices the projection produces, and the union accepts, lie in
# [-INDEX_LIMIT, INDEX_LIMIT], so the union's offsets and a projected box's
# size stay inside int64.  A bound within REACH * rho of 0, REACH being
# 2**24 below the limit, projects strictly inside that range: the half
# cell, the boundary guard and rounding move its quotient by less than
# 2**23 there.
INDEX_LIMIT = 2**62
REACH = 2.0**62 - 2.0**24


def lattice_range(
    lower: np.ndarray, upper: np.ndarray, rho: float, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive integer index ranges of the projection of [lower, upper].

    Accepts arrays of matching shape (vectorized over boxes).  The result
    is never empty: hi >= lo holds per axis because the inflated interval
    has length >= rho.  The ranges are computed in ``work``, a float64 array
    of shape (3, *lower.shape), allocated when not given: the quotients in
    work[1:] (lower and upper may be work[1] and work[2] themselves), each
    side's guard term in the slot below its quotient, which then receives
    the side's index, lo in work[0] and hi in work[1], as int64.  Without
    ``work``, a bound of magnitude REACH * rho or more, or NaN, raises
    ValueError before it is divided; a caller that gives ``work`` checks
    its bounds itself.
    """
    if not 0 < rho < math.inf:  # also rejects nan
        raise ValueError("rho must be positive and finite")
    if work is None:
        # the bounds, not their quotients, so that nothing overflows first
        if not (np.abs([lower, upper]) < REACH * rho).all():
            raise ValueError(f"index quotients must lie inside +-{REACH:.3e}")
        work = np.empty((3, *np.shape(lower)))
    # q -/+ BOUNDARY_GUARD * (|q| + 1) with q = (bound -/+ rho/2) / rho,
    # one side at a time; each side's index is rounded into another slot,
    # since a cast within one buffer would make numpy copy its input first
    q, q_lo, q_hi = work[1:], work[1], work[2]
    np.add(lower, -rho / 2.0, out=q_lo)
    np.add(upper, rho / 2.0, out=q_hi)
    q /= rho
    idx = work.view(np.int64)
    lo, hi = idx[0], idx[1]
    g = np.abs(q_lo, out=work[0])
    g += 1.0
    g *= -BOUNDARY_GUARD
    q_lo += g
    np.ceil(q_lo, out=lo, casting="unsafe")
    g = np.abs(q_hi, out=work[1])
    g += 1.0
    g *= BOUNDARY_GUARD
    q_hi += g
    np.floor(q_hi, out=hi, casting="unsafe")
    if (hi < lo).any():
        raise InvariantViolation("projection produced an empty index range")
    return lo, hi


def union_of_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of a batch of inclusive integer index boxes, as runs.

    lo, hi: (N, d) with hi >= lo.  Returns the covered points as maximal
    runs of consecutive indices along the last axis: an (R, d) int64 array
    of run starts, sorted, and an (R,) int64 array of run lengths.  On the
    bounding grid of the boxes (plus one cell per axis) every box adds +1 or
    -1 at its 2^d corners; prefix sums along each axis then give the number
    of boxes covering each cell (the summed-area table of Crow, SIGGRAPH
    1984), so the work follows the grid size, not the summed box sizes.  The
    spare cell ends every row uncovered, so a run never crosses a row and
    only the run starts are decoded.  A grid over RASTER_BUDGET cells is
    split at the midpoint of its first axis spanning more than one index;
    the axes before it are constant, so the halves concatenate in order,
    and ``_merge_touching`` joins the two runs that meet at a cut of the
    last axis.  Indices outside [-INDEX_LIMIT, INDEX_LIMIT] raise
    ValueError.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    d = lo.shape[1]
    if lo.shape[0] == 0:
        return np.empty((0, d), dtype=np.int64), np.empty(0, dtype=np.int64)
    # column by column: reducing a column is far cheaper than reducing
    # axis 0 of an (N, d) array, and needs no transposed copy
    base = [int(lo[:, a].min()) for a in range(d)]
    top = [int(hi[:, a].max()) for a in range(d)]
    if not (-INDEX_LIMIT <= min(base) and max(top) <= INDEX_LIMIT):
        raise ValueError(f"index boxes must lie inside +-{INDEX_LIMIT:.3e}")
    spans = [t - b + 1 for b, t in zip(base, top)]
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
        # both halves hold a box, so neither union is empty
        s1, n1 = union_of_boxes(lo[left], hi_left)
        s2, n2 = union_of_boxes(lo_right, hi[right])
        return _merge_touching(np.concatenate([s1, s2]), np.concatenate([n1, n2]))

    # flat offsets of the faces at lo and at hi + 1, per axis, from the
    # last axis, whose stride is 1; a corner picks one face per axis and
    # counts -1 when it picks an odd number of upper faces.  Offsets start
    # at 1: cell 0 of the flat grid is a spare that stays uncovered, so
    # that a run's start is an edge too.
    even = [lo[:, -1] - (base[-1] - 1)]
    odd = [hi[:, -1] - (base[-1] - 2)]
    stride = shape[-1]
    for a in range(d - 2, -1, -1):
        f_lo = lo[:, a] - base[a]
        f_lo *= stride
        f_hi = hi[:, a] - (base[a] - 1)
        f_hi *= stride
        stride *= shape[a]
        even, odd = (
            [c + f_lo for c in even] + [c + f_hi for c in odd],
            [c + f_hi for c in even] + [c + f_lo for c in odd],
        )
        del f_lo, f_hi
    grid = np.bincount(np.concatenate(even), minlength=size + 1)
    grid -= np.bincount(np.concatenate(odd), minlength=size + 1)
    del even, odd
    cells = grid[1:].reshape(shape)
    for a in range(d):
        cells.cumsum(axis=a, out=cells)
    covered = grid > 0
    del grid, cells
    # the cells where coverage switches on or off alternate: run starts,
    # then the cell past each run's end
    edges = np.flatnonzero(covered[1:] != covered[:-1])
    del covered
    flat = edges[0::2]
    lengths = edges[1::2] - flat
    # decode the C-order flat indices axis by axis, from the last, into
    # one row per axis; the rows transposed are the run starts
    out = np.empty((d, flat.size), dtype=np.int64)
    for a in range(d - 1, 0, -1):
        np.divmod(flat, shape[a], out=(flat, out[a]))
        out[a] += base[a]
    np.add(flat, base[0], out=out[0])
    return out.T, lengths


@dataclass(frozen=True, init=False, eq=False)
class LatticeSet:
    """Deduplicated finite point set on the lattice rho * Z^d.

    Stored as maximal runs of consecutive indices along the last axis:
    ``starts`` (R, d) int64, lexicographically sorted, ``lengths`` (R,)
    int64, no two runs of one row touching.  Built either from points,
    ``LatticeSet(rho, points)``, which are sorted, deduplicated and encoded
    as runs, or from such runs, ``LatticeSet(rho, runs=(starts,
    lengths))``; either way the runs are checked and held as read-only
    copies.
    """

    resolution: float
    starts: np.ndarray
    lengths: np.ndarray
    cardinality: int

    def __init__(self, resolution: float, points=None, *, runs=None):
        if (points is None) == (runs is None):
            raise ValueError("give either points or runs")
        if runs is None:
            pts = np.asarray(points, dtype=np.int64)
            if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
                raise ValueError("points must be a nonempty (N, d) array, d >= 1")
            pts = np.unique(pts, axis=0)
            runs = _merge_touching(pts, np.ones(pts.shape[0], dtype=np.int64))
        # the copies keep the order of the given starts; the union's are
        # column-major, which the run check and expansion read by column
        hold(self, np.int64, starts=runs[0], lengths=runs[1])
        starts, lengths = self.starts, self.lengths
        if starts.ndim != 2 or starts.shape[0] < 1 or starts.shape[1] < 1:
            raise ValueError("run starts must be a nonempty (R, d) array, d >= 1")
        if lengths.shape != starts.shape[:1] or not _runs_are_maximal(starts, lengths):
            raise ValueError("runs must be sorted, nonempty and apart")
        if not 0 < resolution < math.inf:  # also rejects nan
            raise ValueError("resolution must be positive and finite")
        # the dataclass is frozen; a Python float, as the text header prints it
        object.__setattr__(self, "resolution", float(resolution))
        object.__setattr__(self, "cardinality", int(lengths.sum()))

    @property
    def dim(self) -> int:
        return self.starts.shape[1]

    @property
    def points(self) -> np.ndarray:
        """The (N, d) int64 index rows, sorted; expanded from the runs on
        every read and not kept."""
        rows = np.empty((self.dim, self.cardinality), dtype=np.int64)
        return self.expand_into(rows).T

    def expand_into(self, out: np.ndarray) -> np.ndarray:
        """Write the points into ``out``, a (d, N) int64 array, one row per
        axis, and return it."""
        n = self.lengths
        # each run's start on each of its rows; then the last index of a
        # row is its position plus the run's start minus the position of
        # the run's first row (ndarray methods: this runs once a step)
        shift = self.starts[:, -1] + n
        shift -= n.cumsum()
        if self.dim > 1:
            out[:-1] = self.starts.T[:-1].repeat(n, axis=1)
        np.add(shift.repeat(n), np.arange(self.cardinality), out=out[-1])
        return out

    def state_points(self) -> np.ndarray:
        return self.resolution * self.points

    def write_text(self, fh) -> None:
        """Plain-text export: header with rho and d, one index row per point.

        Written from the runs; the points are not expanded.  The last
        indices the runs hold are formatted once each into a table, which
        covers only held indices (at most ``cardinality`` entries, however
        far apart they lie); a run is then its earlier indices, formatted
        once, joined with its slice of the table.
        """
        fh.write(f"# rho={self.resolution!r} d={self.dim} n={self.cardinality}\n")
        first = self.starts[:, -1]
        order = np.argsort(first)
        lo = first[order]
        # merge the runs' last-axis intervals, in order of their starts,
        # into disjoint pieces: a run opens a piece when it starts past the
        # furthest end before it.  Starts are compared with ends, not with
        # end + 1, so nothing wraps at the largest int64; pieces that only
        # touch stay apart, which costs nothing.
        reach = np.maximum.accumulate(lo + (self.lengths[order] - 1))
        new = np.ones(lo.size, dtype=bool)
        np.greater(lo[1:], reach[:-1], out=new[1:])
        begin = np.flatnonzero(new)
        piece_lo = lo[begin]
        piece_hi = reach[np.append(begin[1:], lo.size) - 1]
        table = [
            f"{v}\n"
            for a, b in zip(piece_lo.tolist(), piece_hi.tolist())
            for v in range(a, b + 1)
        ]
        # each run's first entry in the table: its piece's offset plus its
        # start's distance into the piece
        width = piece_hi - piece_lo + 1
        piece = np.cumsum(new) - 1
        at = np.empty_like(first)
        at[order] = (np.cumsum(width) - width)[piece] + (lo - piece_lo[piece])
        end = at + self.lengths
        # one % over Python ints per run: exact across the int64 range
        head = "%d " * (self.dim - 1)
        heads = [head % tuple(r) for r in self.starts[:, :-1].tolist()]
        fh.write("".join([
            h + h.join(table[a:b]) for h, a, b in zip(heads, at.tolist(), end.tolist())
        ]))


def _merge_touching(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs from R >= 1 sorted, disjoint runs along the last axis,
    (R, d) starts and (R,) lengths: a run that touches the one before it
    in its row joins it."""
    # a run joins the one before it where no earlier index changes and it
    # starts at the index past that one's end, start + length.  Modulo
    # 2**64 that sum equals the next start only where it truly does, or
    # where a run ends at the largest int64 and the next starts at the
    # smallest, which sorted, disjoint runs do only where an earlier index
    # changes.
    new = np.ones(lengths.size, dtype=bool)
    np.not_equal(starts[1:, -1], starts[:-1, -1] + lengths[:-1], out=new[1:])
    for c in range(starts.shape[1] - 1):
        new[1:] |= starts[1:, c] != starts[:-1, c]
    first = np.flatnonzero(new)
    return starts[first], np.add.reduceat(lengths, first)


def _runs_are_maximal(starts: np.ndarray, lengths: np.ndarray) -> bool:
    """Run starts strictly increasing in lexicographic order, every length
    at least one, no run past the largest int64, and at least one index
    between two runs of one row, at O(R) cost."""
    # each run's last index, below its start where it wraps past int64
    last = starts[:, -1] + lengths
    last -= 1
    if not (lengths.min() >= 1 and (last >= starts[:, -1]).all()):
        return False
    if lengths.size == 1:  # one run: nothing to order
        return True
    a, b = starts[1:], starts[:-1]
    nxt, last = a[:, -1], last[:-1]
    # in one row, a run starts past the index after the end of the one
    # before; the difference cannot be 1 by wrapping where nxt > last
    res = nxt > last
    res &= nxt - last != 1
    # from the last column to the first: a run's start follows the one
    # before on columns c..d-1
    for c in range(a.shape[1] - 2, -1, -1):
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


def hausdorff_to_box_two_sided(A: LatticeSet, b: Box) -> float:
    """Upper bound on the symmetric Hausdorff distance dist_H(A, b).

    The direction A -> b is exact (closed form per point).  For b -> A,
    every y in b is within rho/2 of its nearest lattice point z, which
    lies in the lattice cover of b; the lattice-to-set distances are
    integer Chebyshev distances, computed exactly with a chessboard
    distance transform.  The result over-estimates the true distance by
    at most rho/2.  Raises MemoryError when that transform would need a
    grid of more than HAUSDORFF_CELLS cells.
    """
    from scipy.ndimage import distance_transform_cdt

    if A.dim != b.dim:
        raise ValueError("dimension mismatch")
    rho = A.resolution
    out = hausdorff_to_box(A, b)

    cov_lo, cov_hi = lattice_range(b.lower, b.upper, rho)
    pts = A.points
    lo = np.minimum(cov_lo, pts.min(axis=0))
    hi = np.maximum(cov_hi, pts.max(axis=0))
    shape = tuple(int(v) for v in hi - lo + 1)
    cells = math.prod(shape)
    if cells > HAUSDORFF_CELLS:
        raise MemoryError(
            f"two-sided Hausdorff grid would need {cells} cells (> {HAUSDORFF_CELLS})"
        )
    occupied = np.zeros(shape, dtype=bool)
    occupied[tuple((pts - lo).T)] = True
    dist = distance_transform_cdt(~occupied, metric="chessboard")
    window = tuple(
        slice(int(a - o), int(z - o + 1)) for a, z, o in zip(cov_lo, cov_hi, lo)
    )
    box_to_set = rho / 2.0 + rho * float(dist[window].max())
    return max(out, box_to_set)
