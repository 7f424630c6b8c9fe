"""Prototile classification tests.

Classification flags are cross-checked against angle/length identities
computed inline, and against the constructors whose outputs must carry
their own type flags.
"""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hextorus.construct import (
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.geom import Polygon, rotation
from hextorus.hexagon import (
    HexagonSpec,
    NotSimpleError,
    classify,
    relabelings,
    spec_from_polygon,
)

TWO_PI = 2 * math.pi


def regular_hexagon(side=1.0):
    step = side * cmath.exp(0j)
    pts = [0j]
    heading = 0.0
    for k in range(5):
        pts.append(pts[-1] + cmath.rect(side, heading))
        heading += math.pi / 3
    return Polygon(tuple(pts))


def central_hexagon(u, v, w):
    """Centrally symmetric hexagon with side vectors u, v, w, u, v, w."""
    pts = [0j, u, u + v, u + v + w, v + w, w]
    return Polygon(tuple(z - (u + v + w) / 2 for z in pts))


class TestSpecFromPolygon:
    def test_regular(self):
        spec = spec_from_polygon(regular_hexagon())
        assert spec.angles == pytest.approx([TWO_PI / 3] * 6)
        assert spec.lengths == pytest.approx([1.0] * 6)

    def test_type_iii_centered(self):
        tile = type_iii_minimal(0j).tiles[0]
        spec = spec_from_polygon(tile)
        assert spec.angles == pytest.approx([TWO_PI / 3] * 6, abs=1e-12)
        assert spec.lengths == pytest.approx([1 / 3] * 6, abs=1e-12)

    def test_side_pairing_of_type_i(self):
        tile = type_i_minimal(
            0.6j, (0.2 + 0.2j, -0.15 + 0.25j)
        ).tiles[0]
        spec = spec_from_polygon(tile)
        assert spec.lengths[2] == pytest.approx(spec.lengths[5], abs=1e-15)

    def test_arity_error(self):
        with pytest.raises(ValueError, match="hexagon"):
            spec_from_polygon(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))

    def test_non_simple_error(self):
        bad = (0j, 2 + 2j, 2 + 0j, 2j, 1 + 2j, 1 + 1j)
        with pytest.raises(NotSimpleError):
            spec_from_polygon(Polygon(bad))

    def test_labels_respected(self):
        base = regular_hexagon()
        shifted = Polygon(base.corners, tuple((k + 2) % 6 for k in range(6)))
        spec = spec_from_polygon(shifted)
        assert spec.angles == pytest.approx([TWO_PI / 3] * 6)

    def test_non_cyclic_labels_rejected(self):
        base = regular_hexagon()
        with pytest.raises(ValueError, match="cyclically"):
            spec_from_polygon(Polygon(base.corners, (0, 2, 1, 3, 4, 5)))


class TestHexagonSpec:
    def test_closure_rebuild(self):
        tile = type_i_minimal(
            (1 + 2j) / 4, (0.95 + 0.2j, 0.7 + 0.25j)
        ).tiles[0]
        spec = spec_from_polygon(tile)
        rebuilt = spec.corners()
        rebuilt_spec = spec_from_polygon(Polygon(rebuilt))
        assert rebuilt_spec.angles == pytest.approx(spec.angles, abs=1e-9)
        assert rebuilt_spec.lengths == pytest.approx(spec.lengths, abs=1e-9)

    def test_bad_angle_sum_rejected(self):
        with pytest.raises(ValueError, match="4pi"):
            HexagonSpec((1.0,) * 6, (1.0,) * 6)

    def test_open_walk_rejected(self):
        angles = (TWO_PI / 3,) * 6
        with pytest.raises(ValueError, match="close"):
            HexagonSpec(angles, (1, 1, 1, 1, 1, 2.5))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", range(12))
    def test_non_finite_entries_rejected(self, position, value):
        # an infinite side once built and classified as type i with
        # residual 0: its closing gap was NaN, which no comparison refused
        entries = [TWO_PI / 3] * 6 + [1.0] * 6
        entries[position] = value
        with pytest.raises(ValueError) as err:
            HexagonSpec(tuple(entries[:6]), tuple(entries[6:]))
        assert "\n" not in str(err.value)

    def test_overflowing_walk_rejected(self):
        # finite sides whose walk overflows: the closing gap is NaN
        with pytest.raises(ValueError, match="do not close up"):
            HexagonSpec((TWO_PI / 3,) * 6, (1.5e308,) * 6)

    def test_arity(self):
        with pytest.raises(ValueError):
            HexagonSpec((math.pi,) * 4, (1.0,) * 6)


class TestClassify:
    def test_regular_hexagon_all_flags(self):
        report = classify(spec_from_polygon(regular_hexagon()))
        assert report.type_i
        assert report.type_ii
        assert report.type_iii
        assert report.central
        assert not report.generic_i
        assert not report.generic_ii
        assert not report.generic_iii
        assert not report.generic_central

    def test_flags_match_residuals(self):
        for tile in (
            regular_hexagon(),
            type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)).tiles[0],
            type_iii_minimal(0.05 + 0.22j).tiles[0],
        ):
            r = classify(spec_from_polygon(tile))
            assert r.type_i == (r.residual_i <= r.tol)
            assert r.type_ii == (r.residual_ii <= r.tol)
            assert r.type_iii == (r.residual_iii <= r.tol)
            assert r.central == (r.residual_central <= r.tol)

    def test_type_iii_generic_point(self):
        tile = type_iii_minimal(0.05 + 0.22j).tiles[0]
        report = classify(spec_from_polygon(tile))
        assert report.type_iii
        assert report.generic_iii

    def test_central_generic(self):
        poly = central_hexagon(1.0 + 0j, 0.3 + 0.9j, -0.8 + 0.5j)
        report = classify(spec_from_polygon(poly))
        assert report.central
        assert report.generic_central

    def test_central_three_equal_lengths_not_generic(self):
        # unit generators inside a half-turn keep the hexagon convex
        poly = central_hexagon(1.0 + 0j, cmath.exp(1.0j), cmath.exp(2.0j))
        report = classify(spec_from_polygon(poly))
        assert report.central
        assert not report.generic_central

    def test_constructed_tiles_carry_their_flags(self):
        cases = [
            ("type_i", type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))),
            ("type_ii", type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j))),
            ("type_iii", type_iii_minimal(0.05 + 0.08j)),
            ("central", central_minimal(1, 1j, 0.3 + 0.2j)),
        ]
        for name, tiling in cases:
            report = classify(spec_from_polygon(tiling.tiles[0]))
            assert getattr(report, name), name

    def test_strip_prototile_has_matched_back_sides(self):
        tiling = strip_tiling(
            1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.525j), "+-"
        )
        spec = spec_from_polygon(tiling.tiles[0])
        report = classify(spec)
        labelings = [
            (a, l)
            for a, l in relabelings(spec.angles, spec.lengths)
            if abs(a[0] + a[1] + a[2] - TWO_PI) <= 1e-9
            and abs(l[2] - l[5]) <= 1e-9
        ]
        assert any(abs(l[3] - l[4]) <= 1e-9 for _, l in labelings)
        assert report.generic_strip

    def test_relabeling_invariance(self):
        tile = type_i_minimal((1 + 2j) / 4, (0.95 + 0.2j, 0.7 + 0.25j)).tiles[0]
        base = classify(spec_from_polygon(tile))
        for shift in range(6):
            labels = tuple((k + shift) % 6 for k in range(6))
            rotated = Polygon(tile.corners, labels)
            report = classify(spec_from_polygon(rotated))
            assert report.type_i == base.type_i
            assert report.type_ii == base.type_ii
            assert report.type_iii == base.type_iii
            assert report.central == base.central
            assert report.residual_i == pytest.approx(
                base.residual_i, abs=1e-12
            )

    @given(
        st.floats(0, TWO_PI),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.booleans(),
    )
    def test_isometry_invariance(self, ang, tx, ty, refl):
        tile = type_iii_minimal(-0.2 + 0.1j).tiles[0]
        g = rotation(ang, complex(tx, ty))
        moved = tile.transformed(g)
        if refl:
            moved = Polygon(
                tuple(z.conjugate() for z in moved.corners)[::-1],
                moved.labels[::-1],
            )
        base = classify(spec_from_polygon(tile))
        got = classify(spec_from_polygon(moved))
        assert got.type_iii == base.type_iii
        assert got.residual_iii == pytest.approx(base.residual_iii, abs=1e-9)

    def test_relabelings_cover_both_orientations(self):
        angles = tuple(range(1, 7))
        lengths = tuple(range(11, 17))
        labelings = relabelings(angles, lengths)
        assert len(labelings) == 12
        assert len({tuple(a) for a, _ in labelings}) == 12
