import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eulerreach import lattice
from eulerreach.errors import ResourceCapError
from eulerreach.euler import project_box
from eulerreach.lattice import (
    LatticeSet,
    hausdorff_to_box,
    hausdorff_to_box_two_sided,
    lattice_range,
    union_of_boxes,
)
from eulerreach.systems import Box


def _projection_oracle(b: Box, rho: float) -> set:
    """All lattice indices within max-norm rho/2 of the box, by brute force."""
    lo = np.floor((b.lower - rho) / rho).astype(int) - 1
    hi = np.ceil((b.upper + rho) / rho).astype(int) + 1
    out = set()
    for idx in itertools.product(*[range(a, z + 1) for a, z in zip(lo, hi)]):
        x = rho * np.asarray(idx, dtype=float)
        gap = np.maximum(b.lower - x, x - b.upper).max()
        if gap <= rho / 2.0 + 1e-12 * max(1.0, rho):
            out.add(idx)
    return out


class TestLatticeRange:
    def test_simple_interval(self):
        # [0.3, 1.2] at rho 0.5: admissible indices cover [0.05, 1.45]
        lo, hi = lattice_range(np.array([0.3]), np.array([1.2]), 0.5)
        assert lo[0] == 1 and hi[0] == 2

    def test_boundary_tie_included(self):
        # the point box {0.25} lies exactly rho/2 from indices 0 and 1
        lo, hi = lattice_range(np.array([0.25]), np.array([0.25]), 0.5)
        assert lo[0] == 0 and hi[0] == 1

    def test_never_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-10, 10, size=3)
            rho = float(rng.uniform(1e-3, 5.0))
            lo, hi = lattice_range(x, x, rho)
            assert np.all(hi >= lo)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            lattice_range(np.zeros(1), np.ones(1), 0.0)
        # an infinite rho would divide inf by inf; the suite fails on the warning
        with pytest.raises(ValueError, match="rho must be positive"):
            lattice_range(np.zeros(1), np.ones(1), math.inf)

    def test_nan_rho_rejected(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            lattice_range(np.zeros(1), np.ones(1), math.nan)

    def test_overflowing_quotients_rejected_without_a_warning(self):
        # 1e308 / 1e-10 overflows; the suite turns any warning into an error
        with pytest.raises(ValueError, match="index quotients"):
            lattice_range(np.array([1e308]), np.array([1e308]), 1e-10)

    @pytest.mark.parametrize("lower,upper", [(-1e30, 1e30), (math.nan, 0.0)])
    def test_quotients_outside_the_index_range_rejected(self, lower, upper):
        # cast to int64, -1e30 and 1e30 would both become the smallest int64
        with pytest.raises(ValueError, match="index quotients"):
            lattice_range(np.array([lower]), np.array([upper]), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_formula(self, d):
        """Bit for bit against the plain one-expression-per-bound formula."""

        def reference(lower, upper, rho):
            qlo = (np.asarray(lower, dtype=float) - rho / 2.0) / rho
            qhi = (np.asarray(upper, dtype=float) + rho / 2.0) / rho
            g = lattice.BOUNDARY_GUARD
            lo = np.ceil(qlo - g * (np.abs(qlo) + 1.0)).astype(np.int64)
            hi = np.floor(qhi + g * (np.abs(qhi) + 1.0)).astype(np.int64)
            return lo, hi

        rng = np.random.default_rng(100 + d)
        cases = []
        for scale in (1.0, 1e3, 1e6):
            for rho in (float(rng.uniform(1e-3, 2.0)), 0.25, 2.0**-10):
                lower = rng.uniform(-scale, scale, size=(200, d))
                width = rng.uniform(0.0, 3.0, size=(200, d)) * rho
                width[::4] = 0.0  # point boxes
                cases.append((lower, lower + width, rho))
        # exact ties: bounds at odd multiples of rho/2, up to 1e6 / rho
        for rho in (0.25, 0.5, 1.0):
            m = rng.integers(-4_000_000, 4_000_000, size=(200, d))
            lower = (m + 0.5) * rho
            upper = lower + rng.integers(0, 3, size=(200, d)) * rho
            cases.append((lower, upper, rho))
            # near ties, within a few guard widths of an odd multiple of rho/2
            for mm in (m, m % 11 - 5):
                near = rng.uniform(-3e-12, 3e-12, size=(200, d)) * (np.abs(mm) + 1.0)
                point = (mm + 0.5 + near) * rho
                cases.append((point, point, rho))
        cases.append((np.array([0.25] * d), np.array([0.25] * d), 0.5))
        for lower, upper, rho in cases:
            got, want = lattice_range(lower, upper, rho), reference(lower, upper, rho)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert np.array_equal(g, w)


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contains_the_exact_range_within_one_guard_layer(self, d):
        """ceil((lower - rho/2)/rho) and floor((upper + rho/2)/rho) of the
        float inputs, computed in exact rationals, lie in the computed range,
        which is wider by at most the one BOUNDARY_GUARD layer per side."""
        rng = np.random.default_rng(200 + d)
        for rho in (0.25, 2.0**-10, 0.1, float(rng.uniform(1e-3, 2.0)), 3.0):
            m = rng.integers(-(10**6), 10**6, size=(300, d))
            lower = (m + 0.5) * rho  # ties, exact where the product is
            near = rng.uniform(-3e-12, 3e-12, size=(100, d)) * (np.abs(m[1::3]) + 1.0)
            lower[1::3] = (m[1::3] + 0.5 + near) * rho  # within a few guards of a tie
            # far from the origin, where the guard widens the most
            lower[2::3] = rng.uniform(-1e7, 1e7, size=(100, d))
            upper = lower + rng.integers(0, 3, size=(300, d)) * rho
            upper[::2] = lower[::2]  # point boxes
            lo, hi = lattice_range(lower, upper, rho)
            r = Fraction(rho)
            for a, z, got_lo, got_hi in zip(
                lower.ravel().tolist(), upper.ravel().tolist(),
                lo.ravel().tolist(), hi.ravel().tolist(),
            ):
                want_lo = math.ceil((Fraction(a) - r / 2) / r)
                want_hi = math.floor((Fraction(z) + r / 2) / r)
                assert want_lo - 1 <= got_lo <= want_lo, (a, rho)
                assert want_hi <= got_hi <= want_hi + 1, (z, rho)


def _union_oracle(lo: np.ndarray, hi: np.ndarray) -> list:
    """Sorted union of the boxes' integer points, enumerated box by box."""
    pts = set()
    for a, z in zip(lo.tolist(), hi.tolist()):
        pts.update(itertools.product(*[range(p, q + 1) for p, q in zip(a, z)]))
    return sorted(pts)


def _runs_oracle(points: list) -> list:
    """Maximal runs along the last axis of sorted unique point tuples, as
    (start, length) pairs, grouped one point at a time."""
    runs = []
    for p in points:
        if runs:
            start, n = runs[-1]
            if start[:-1] == p[:-1] and start[-1] + n == p[-1]:
                runs[-1] = (start, n + 1)
                continue
        runs.append((p, 1))
    return runs


def _runs_of(starts: np.ndarray, lengths: np.ndarray) -> list:
    assert starts.dtype == np.int64 and lengths.dtype == np.int64
    return list(zip(map(tuple, starts.tolist()), lengths.tolist()))


def _union_cases() -> list:
    cases = [
        pytest.param(
            np.array([[0, -1], [2, 2]]), np.array([[1, 1], [2, 3]]), id="two_boxes"
        ),
        pytest.param(np.array([[-2]]), np.array([[2]]), id="single_axis"),
    ]
    # unit boxes spanning 2^40 per axis: far too wide for one grid
    wide = np.array([[2**40, -(2**40)], [0, 0], [2**40, -(2**40)]])
    cases.append(pytest.param(wide, wide, id="wide_spans"))
    rng = np.random.default_rng(1)
    pts = rng.integers(-50, 50, size=(500, 3))
    pts = np.concatenate([pts, pts[:100]])
    cases.append(pytest.param(pts, pts, id="repeated_points"))
    for d in (1, 2, 3):
        for layout, spread in (("overlapping", 8), ("disjoint", 400)):
            rng = np.random.default_rng(10 * d + spread)
            lo = rng.integers(-spread, spread, size=(25, d))
            hi = lo + rng.integers(0, 5, size=(25, d))
            cases.append(pytest.param(lo, hi, id=f"{layout}_d{d}"))
        # memory layouts other than C order, and far-off index ranges
        rng = np.random.default_rng(70 + d)
        lo = rng.integers(-8, 8, size=(40, d + 1))
        hi = lo + rng.integers(0, 4, size=(40, d + 1))
        lo, hi = lo[:, :d], hi[:, :d]
        cases.append(
            pytest.param(np.asfortranarray(lo), np.asfortranarray(hi), id=f"fortran_d{d}")
        )
        cases.append(pytest.param(lo[::3], hi[::3], id=f"row_slice_d{d}"))
        cases.append(pytest.param(lo[:, ::-1], hi[:, ::-1], id=f"column_slice_d{d}"))
        for sign, name in ((1, "plus"), (-1, "minus")):
            off = sign * 2**40
            cases.append(pytest.param(lo + off, hi + off, id=f"offset_{name}_2e40_d{d}"))
    return cases


class TestUnionOfBoxes:
    @pytest.mark.parametrize("budget", [None, 16], ids=["default_budget", "split"])
    @pytest.mark.parametrize("lo,hi", _union_cases())
    def test_matches_oracle(self, lo, hi, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(lattice, "RASTER_BUDGET", budget)
        lo_before, hi_before = lo.copy(), hi.copy()
        got = union_of_boxes(lo, hi)
        assert np.array_equal(lo, lo_before) and np.array_equal(hi, hi_before)
        assert _runs_of(*got) == _runs_oracle(_union_oracle(lo, hi))

    def test_empty(self):
        empty = np.empty((0, 2), dtype=np.int64)
        starts, lengths = union_of_boxes(empty, empty)
        assert starts.shape == (0, 2) and lengths.shape == (0,)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            pytest.param([[0]], [[99]], id="one_box_d1"),
            pytest.param([[-40], [0], [31]], [[-1], [30], [60]], id="touching_d1"),
            pytest.param([[-40], [1]], [[-1], [60]], id="gap_d1"),
            pytest.param([[3, -50], [3, 0]], [[3, -1], [3, 70]], id="one_row_d2"),
            pytest.param([[1, 2, -9], [1, 2, 5]], [[1, 2, 4], [1, 2, 40]], id="one_row_d3"),
        ],
    )
    def test_split_of_the_last_axis_keeps_runs_maximal(self, lo, hi, monkeypatch):
        lo, hi = np.array(lo), np.array(hi)
        want = _runs_of(*union_of_boxes(lo, hi))
        assert want == _runs_oracle(_union_oracle(lo, hi))
        # every axis but the last spans one index, so the split cuts the last
        monkeypatch.setattr(lattice, "RASTER_BUDGET", 8)
        assert _runs_of(*union_of_boxes(lo, hi)) == want

    @pytest.mark.parametrize("index", [-(2**63), -(2**62) - 1, 2**62 + 1])
    def test_indices_past_the_limit_rejected(self, index):
        with pytest.raises(ValueError, match="index boxes"):
            union_of_boxes(np.array([[0, index]]), np.array([[0, index]]))

    def test_indices_at_the_limit_accepted(self):
        limit = lattice.INDEX_LIMIT
        lo, hi = np.array([[0, -limit], [0, limit - 1]]), np.array([[0, -limit], [0, limit]])
        assert _runs_of(*union_of_boxes(lo, hi)) == [((0, -limit), 1), ((0, limit - 1), 2)]

    def test_a_100_by_100_box_is_100_runs(self):
        starts, lengths = union_of_boxes(np.array([[0, 0]]), np.array([[99, 99]]))
        assert starts.tolist() == [[i, 0] for i in range(100)]
        assert lengths.tolist() == [100] * 100
        s = project_box(Box([0.0, 0.0], [99.0, 99.0]), 1.0)
        assert s.cardinality == 10_000 and s.lengths.tolist() == [100] * 100


class TestLatticeSet:
    def test_normalizes_unsorted_input(self):
        s = LatticeSet(0.5, np.array([[2, 0], [0, 1], [2, 0]], dtype=np.int64))
        assert s.cardinality == 2
        assert s.points.tolist() == [[0, 1], [2, 0]]

    def test_state_points(self):
        s = LatticeSet(0.25, np.array([[4, -2]], dtype=np.int64))
        assert np.allclose(s.state_points(), [[1.0, -0.5]])

    def test_write_text(self):
        s = LatticeSet(0.5, np.array([[1, 2], [3, 4]], dtype=np.int64))
        buf = io.StringIO()
        s.write_text(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# rho=0.5 d=2 n=2"
        assert lines[1:] == ["1 2", "3 4"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_write_text_matches_per_value_formatter(self, d):
        rng = np.random.default_rng(d)
        info = np.iinfo(np.int64)
        sets = [
            LatticeSet(0.125, pts)
            for pts in (
                rng.integers(-1000, 1000, size=(200, d)),
                rng.integers(-1000, 1000, size=(1, d)),
                rng.integers(-(2**40), 2**40 + 1, size=(300, d)),
                np.array([[-(2**40)] * d, [2**40] * d]),
                np.array([[info.min] * d, [info.max] * d]),
            )
        ]
        # overlapping long boxes: many rows share one last-axis interval
        lo = np.array([[0] * (d - 1) + [-50], [2] * (d - 1) + [-20]])
        hi = np.array([[3] * (d - 1) + [100], [5] * (d - 1) + [180]])
        sets.append(LatticeSet(0.125, runs=union_of_boxes(lo, hi)))
        # runs that leave gaps on the last axis, so the table has several
        # pieces; for d > 1 the later rows' first runs lie inside the first
        # row's, one after the other
        earlier = np.array([[0], [0], [1], [1], [2]]).repeat(d - 1, axis=1)
        last = [[-30], [5], [-28], [20], [-25]] if d > 1 else [[-30], [-10], [5], [20], [40]]
        starts = np.hstack([earlier, last])
        sets.append(LatticeSet(0.125, runs=(starts, np.array([10, 3, 2, 4, 2]))))
        # runs at both ends of the int64 range, one ending at the largest
        starts = np.array([[7] * (d - 1) + [info.min], [7] * (d - 1) + [info.max - 4]])
        sets.append(LatticeSet(0.125, runs=(starts, np.array([3, 5]))))
        for s in sets:
            buf = io.StringIO()
            s.write_text(buf)
            ref = io.StringIO()
            ref.write(f"# rho={s.resolution!r} d={s.dim} n={s.cardinality}\n")
            for row in s.points:
                ref.write(" ".join(str(int(v)) for v in row) + "\n")
            assert buf.getvalue() == ref.getvalue()

    def test_write_text_memory_follows_held_indices(self):
        # a table over every index between the two points would take about
        # 60 MiB: enough to fail, not enough to exhaust memory
        s = LatticeSet(0.5, np.array([[3, 0], [3, 2**20]]))
        buf = io.StringIO()
        tracemalloc.start()
        try:
            s.write_text(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buf.getvalue() == "# rho=0.5 d=2 n=2\n3 0\n3 1048576\n"
        assert peak < 1 << 20

    def test_write_text_reads_runs_not_points(self, monkeypatch):
        s = LatticeSet(0.5, np.array([[0, 1], [0, 2], [1, 2]]))
        expected = "# rho=0.5 d=2 n=3\n0 1\n0 2\n1 2\n"

        def no_points(self):
            raise AssertionError("points expanded")

        monkeypatch.setattr(LatticeSet, "points", property(no_points))
        buf = io.StringIO()
        s.write_text(buf)
        assert buf.getvalue() == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSet(0.5, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            LatticeSet(0.5, np.empty((2, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            LatticeSet(-1.0, np.zeros((1, 2), dtype=np.int64))
        # its state points would multiply index 0 by inf into nan
        with pytest.raises(ValueError, match="resolution must be positive"):
            LatticeSet(math.inf, [[0, 1]])

    def test_nan_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            LatticeSet(math.nan, [[0, 1]])

    @pytest.mark.parametrize(
        "starts,lengths",
        [
            pytest.param([[0, 0], [0, 2]], [2, 1], id="touching"),
            pytest.param([[0, 0], [0, 1]], [2, 1], id="overlapping"),
            pytest.param([[0, 5], [0, 0]], [1, 1], id="unsorted_last_axis"),
            pytest.param([[1, 0], [0, 9]], [1, 1], id="unsorted_first_axis"),
            pytest.param([[0, 0], [0, 0]], [1, 1], id="repeated"),
            pytest.param([[0, 0], [0, 5]], [1, 0], id="empty_run"),
            pytest.param([[0, 0]], [1, 1], id="length_count"),
            pytest.param([[0, 2**63 - 1]], [2], id="past_int64_max"),
            pytest.param([[0, -5], [0, 2**63 - 2]], [1, 3], id="second_past_int64_max"),
            pytest.param(np.empty((0, 2)), [], id="no_runs"),
        ],
    )
    def test_runs_are_checked(self, starts, lengths):
        with pytest.raises(ValueError):
            LatticeSet(0.5, runs=(np.array(starts), np.array(lengths)))

    def test_points_or_runs(self):
        pts = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            LatticeSet(0.5)
        with pytest.raises(ValueError):
            LatticeSet(0.5, pts, runs=(pts, np.ones(1)))

    def test_runs_of_other_rows_may_touch_across_the_row_end(self):
        s = LatticeSet(0.5, runs=(np.array([[0, 0], [1, 2]]), np.array([3, 1])))
        assert s.points.tolist() == [[0, 0], [0, 1], [0, 2], [1, 2]]


def _sorted_unique_oracle(pts: np.ndarray) -> bool:
    rows = list(map(tuple, pts.tolist()))
    return rows == sorted(set(rows))


def _sorted_unique_cases(d: int):
    """(name, points) inputs for the sorted-and-unique check in dimension d."""
    rng = np.random.default_rng(10 + d)
    info = np.iinfo(np.int64)
    span = 40 if d == 1 else 4  # dense, so rows share prefixes in d > 1
    base = np.unique(rng.integers(-span, span, size=(60, d)), axis=0)
    yield "sorted", base
    yield "one row", base[:1]
    yield "duplicate row", np.insert(base, 5, base[5], axis=0)
    swapped = base.copy()
    swapped[[7, 8]] = swapped[[8, 7]]
    yield "swapped pair", swapped
    prefix = np.zeros((3, d), dtype=np.int64)
    prefix[:, -1] = [5, 2, 1]
    yield "equal prefix, decreasing last column", prefix
    yield "equal prefix, increasing last column", prefix[::-1].copy()
    extremes = np.array(
        [[info.min] * d, [info.min] * (d - 1) + [info.max], [info.max] * d],
        dtype=np.int64,
    )
    yield "int64 extremes", extremes
    yield "int64 extremes reversed", extremes[::-1].copy()
    for _ in range(5):
        size = (int(rng.integers(2, 200)), d)
        pts = np.unique(rng.integers(-span, span, size=size), axis=0)
        yield "random sorted", pts
        yield "random shuffled", rng.permutation(pts)


def _unit_runs_oracle(pts: np.ndarray) -> bool:
    """Rows sorted and unique, and no two of one row one index apart."""
    rows = list(map(tuple, pts.tolist()))
    touch = any(p[:-1] == q[:-1] and q[-1] - p[-1] == 1 for p, q in zip(rows, rows[1:]))
    return _sorted_unique_oracle(pts) and not touch


class TestRunsAreMaximal:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_oracle(self, d):
        """Every point a run of length one: the check orders the starts
        column by column, as runs of any length."""
        seen = set()
        for name, pts in _sorted_unique_cases(d):
            want = _unit_runs_oracle(pts)
            ones = np.ones(pts.shape[0], dtype=np.int64)
            assert lattice._runs_are_maximal(pts, ones) is want, name
            seen.add(want)
        assert seen == {True, False}


def _random_runs(rng, d: int) -> list:
    """Sorted, disjoint (start, length) runs along the last axis, in a few
    rows, as Python ints.  Inside a row runs touch or leave gaps; a row
    starts where the one before it ended, modulo 2**64, and may end at the
    largest int64, and the first starts at the smallest."""
    info = np.iinfo(np.int64)
    ends = [int(info.min), -1, 0, 1, int(info.max)]
    heads = sorted({tuple(int(v) for v in rng.choice(ends, size=d - 1)) for _ in range(4)})
    runs, start = [], int(info.min)
    for head in heads:
        groups = [start]
        if rng.random() < 0.5:
            groups.append(None)  # a group that ends at the largest int64
        for at in groups:
            offsets, p = [], 0
            for k in range(int(rng.integers(1, 6))):
                p += int(rng.choice([0, 0, 1, 3])) if k else 0
                n = int(rng.integers(1, 4))
                offsets.append((p, n))
                p += n
            shift = int(info.max) - p + 1 if at is None else at
            runs += [((*head, s + shift), n) for s, n in offsets]
        end = runs[-1][0][-1] + runs[-1][1]
        start = int(info.min) if end > info.max else end
    return runs


class TestMergeTouching:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_oracle(self, d):
        """Runs that touch inside a row merge; runs whose last indices line
        up across a row change, also from the largest int64 to the
        smallest, stay apart."""
        rng = np.random.default_rng(300 + d)
        merged = crossed = 0
        for _ in range(200):
            runs = _random_runs(rng, d)
            starts = np.array([s for s, _ in runs], dtype=np.int64)
            lengths = np.array([n for _, n in runs], dtype=np.int64)
            points = [(*s[:-1], s[-1] + i) for s, n in runs for i in range(n)]
            got = lattice._merge_touching(starts, lengths)
            assert _runs_of(*got) == _runs_oracle(points)
            assert lattice._runs_are_maximal(*got)
            merged += len(runs) - len(got[1])
            crossed += sum(
                a[:-1] != b[:-1] and a[-1] + n in (b[-1], b[-1] + 2**64)
                for (a, n), (b, _) in zip(runs, runs[1:])
            )
        assert merged > 0 and (d == 1 or crossed > 0)


class TestRuns:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_runs_points_round_trip(self, d):
        for name, pts in _sorted_unique_cases(d):
            want = sorted(set(map(tuple, pts.tolist())))
            s = LatticeSet(0.5, pts)
            assert _runs_of(s.starts, s.lengths) == _runs_oracle(want), name
            assert s.cardinality == len(want), name
            assert s.points.dtype == np.int64, name
            assert list(map(tuple, s.points.tolist())) == want, name
            again = LatticeSet(0.5, runs=(s.starts, s.lengths))
            assert np.array_equal(again.points, s.points), name

    def test_points_are_expanded_on_every_read(self):
        s = LatticeSet(0.5, np.array([[0, 1], [0, 2], [3, 4]]))
        first = s.points
        first[0, 0] = 7
        assert s.points.tolist() == [[0, 1], [0, 2], [3, 4]]
        assert s.points is not s.points
        with pytest.raises(AttributeError):
            s.points = first


class TestProjectBox:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-3, 3, size=d)
        b = Box(lo, lo + rng.uniform(0, 2, size=d))
        rho = float(rng.uniform(0.1, 1.5))
        got = {tuple(row) for row in project_box(b, rho).points}
        assert got == _projection_oracle(b, rho)

    def test_point_box_projection(self):
        s = project_box(Box.point([0.25]), 0.5)
        assert s.points.tolist() == [[0], [1]]

    def test_within_half_resolution(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            lo = rng.uniform(-5, 5, size=d)
            b = Box(lo, lo + rng.uniform(0, 3, size=d))
            rho = float(rng.uniform(0.05, 2.0))
            s = project_box(b, rho)
            assert s.cardinality >= 1
            assert hausdorff_to_box(s, b) <= rho / 2.0 + 1e-12

    def test_cap_triggers(self):
        with pytest.raises(ResourceCapError):
            project_box(Box(np.zeros(2), np.full(2, 100.0)), 0.01, cap=1000)

    def test_box_outside_the_index_range_is_a_resource_cap(self):
        with pytest.raises(ResourceCapError, match="step 0: "):
            project_box(Box.point([1e30]), 1e-3)


class TestHausdorff:
    def test_to_box_excess(self):
        A = LatticeSet(1.0, np.array([[0]], dtype=np.int64))
        assert hausdorff_to_box(A, Box([1.0], [2.0])) == pytest.approx(1.0)

    def test_to_box_inside(self):
        A = LatticeSet(0.5, np.array([[1], [2]], dtype=np.int64))
        assert hausdorff_to_box(A, Box([0.0], [2.0])) == 0.0

    def test_two_sided_dominates_directed(self):
        A = LatticeSet(1.0, np.array([[0]], dtype=np.int64))
        b = Box([1.0], [4.0])
        two = hausdorff_to_box_two_sided(A, b)
        # true symmetric distance is 4 (box corner 4 to the only point 0)
        assert two >= hausdorff_to_box(A, b)
        assert 4.0 <= two <= 4.0 + 0.5 + 1e-12

    def test_two_sided_tight_on_full_cover(self):
        rho = 0.3
        b = Box([0.0, 0.0], [1.0, 2.0])
        cover = project_box(b, rho)
        two = hausdorff_to_box_two_sided(cover, b)
        assert two <= rho / 2.0 + 1e-12

    def test_two_sided_one_dimensional(self):
        A = LatticeSet(0.5, np.array([[0], [1]], dtype=np.int64))
        b = Box([0.0], [0.5])
        assert hausdorff_to_box_two_sided(A, b) <= 0.25 + 1e-12

    def test_two_sided_memory_guard(self):
        A = LatticeSet(1e-6, np.array([[0, 0]], dtype=np.int64))
        with pytest.raises(MemoryError):
            hausdorff_to_box_two_sided(A, Box([0.0, 0.0], [1.0, 1.0]))

    def test_dimension_mismatch(self):
        A = LatticeSet(1.0, np.array([[0, 0]], dtype=np.int64))
        with pytest.raises(ValueError):
            hausdorff_to_box(A, Box([0.0], [1.0]))


def test_projection_idempotent_on_lattice_points():
    # projecting a lattice point recovers at least that point
    rng = np.random.default_rng(9)
    for _ in range(50):
        rho = float(rng.uniform(0.1, 2.0))
        idx = rng.integers(-20, 20, size=2)
        x = rho * idx.astype(float)
        s = project_box(Box.point(x), rho)
        assert tuple(idx) in {tuple(r) for r in s.points}
