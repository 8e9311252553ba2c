import io
import itertools
import math

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


def _union_oracle(lo: np.ndarray, hi: np.ndarray) -> list:
    """Sorted union of the boxes' integer points, enumerated box by box."""
    pts = set()
    for a, z in zip(lo.tolist(), hi.tolist()):
        pts.update(itertools.product(*[range(p, q + 1) for p, q in zip(a, z)]))
    return sorted(pts)


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
        assert got.dtype == np.int64
        assert got.tolist() == [list(p) for p in _union_oracle(lo, hi)]

    def test_empty(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert union_of_boxes(empty, empty).shape == (0, 2)


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
        for pts in (
            rng.integers(-1000, 1000, size=(200, d)),
            rng.integers(-1000, 1000, size=(1, d)),
            rng.integers(-(2**40), 2**40 + 1, size=(300, d)),
            np.array([[-(2**40)] * d, [2**40] * d]),
            np.array([[info.min] * d, [info.max] * d]),
        ):
            s = LatticeSet(0.125, pts)
            buf = io.StringIO()
            s.write_text(buf)
            ref = io.StringIO()
            ref.write(f"# rho={s.resolution!r} d={s.dim} n={s.cardinality}\n")
            for row in s.points:
                ref.write(" ".join(str(int(v)) for v in row) + "\n")
            assert buf.getvalue() == ref.getvalue()

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSet(0.5, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            LatticeSet(0.5, np.empty((2, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            LatticeSet(-1.0, np.zeros((1, 2), dtype=np.int64))


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


class TestIsSortedUnique:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_oracle(self, d):
        seen = set()
        for name, pts in _sorted_unique_cases(d):
            want = _sorted_unique_oracle(pts)
            assert lattice._is_sorted_unique(pts) is want, name
            seen.add(want)
        assert seen == {True, False}


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
            hausdorff_to_box_two_sided(A, Box([0.0, 0.0], [1.0, 1.0]), max_cells=100)

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
