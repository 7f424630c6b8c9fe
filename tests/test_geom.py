"""Planar kernel tests: simplicity, area, angles, isometries, congruence.

Reference values come from independent oracles written inline here
(shoelace sums, atan2 turning angles, interior-angle totals), never from
the functions under test.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import array_oracle
from hextorus.geom import (
    Congruence,
    DegenerateError,
    Isometry,
    Polygon,
    _atoms,
    _orients,
    _tests,
    congruent,
    corner_angle,
    first_violation,
    glide,
    is_simple,
    reflection,
    rotation,
    seg_point_dist,
    signed_area,
    translation,
)

SQUARE = [0j, 1 + 0j, 1 + 1j, 1j]
BOWTIE = [0j, 1 + 1j, 1 + 0j, 1j]
# concave but simple hexagon used throughout; one reflex corner at index 3
CONCAVE_HEX = [
    1 + 2j,
    -0.2 + 0.8j,
    0j,
    1 - 0.2j,
    2.8 + 1j,
    2 + 1.8j,
]


def shoelace(corners):
    """Independent signed-area oracle."""
    total = 0.0
    n = len(corners)
    for k in range(n):
        a, b = corners[k], corners[(k + 1) % n]
        total += a.real * b.imag - a.imag * b.real
    return 0.5 * total


def star_polygon(gaps, radii, center=0j):
    """Simple polygon star-shaped about ``center``.

    The six positive gap weights are normalized to angular steps summing
    to 2pi with every step below pi, which keeps the center interior and
    the radial ordering simple.
    """
    total = sum(gaps)
    angle = 0.4
    corners = []
    for gap, radius in zip(gaps, radii):
        corners.append(center + radius * cmath.exp(1j * angle))
        angle += 2 * math.pi * gap / total
    return corners


angles6 = st.lists(st.floats(0.2, 1.0), min_size=6, max_size=6)
radii6 = st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6)
isometries = st.builds(
    lambda ang, tx, ty, refl: Isometry(
        cmath.exp(1j * ang), complex(tx, ty), refl
    ),
    st.floats(0, 2 * math.pi),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.booleans(),
)


class TestIsSimple:
    def test_square(self):
        assert is_simple(SQUARE)

    def test_bowtie(self):
        assert not is_simple(BOWTIE)

    def test_concave_hexagon(self):
        assert is_simple(CONCAVE_HEX)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateError):
            is_simple([0j, 0j, 1 + 0j, 1j])

    def test_unmeasurable_side_is_not_called_coincident(self):
        # a NaN corner, or a side whose length overflows Python's abs
        hexagon = [cmath.exp(1j * math.pi * k / 3) for k in range(6)]
        nan = [complex(math.nan, 0.0)] + hexagon[1:]
        huge = [0j, 1.5e308 + 1.5e308j] + hexagon[2:]
        for corners in (nan, huge):
            with pytest.raises(DegenerateError, match="^corners 0 and 1 are not a finite distance apart$"):
                is_simple(corners)
        with pytest.raises(DegenerateError, match="^corners 0 and 1 coincide$"):
            is_simple([0j, 5e-10 + 0j] + hexagon[2:])

    def test_polygon_constructor_rejects_coincident(self):
        with pytest.raises(DegenerateError):
            Polygon((0j, 1e-12 + 0j, 1 + 0j, 1j))

    def test_first_violation_cross(self):
        kind, i, j = first_violation(BOWTIE)
        assert kind == "cross"
        assert (i, j) == (0, 2)

    def test_first_violation_none(self):
        assert first_violation(SQUARE) is None

    def test_first_violation_degenerate_no_raise(self):
        assert first_violation([0j, 0j, 1 + 0j, 1j])[0] == "degenerate"

    def test_touching_nonadjacent_sides(self):
        # corner 3 sits exactly on side 0-1
        poly = [0j, 2 + 0j, 2 + 1j, 1 + 0j, 1j]
        assert not is_simple(poly)

    @given(angles6, radii6, isometries)
    def test_isometry_invariance(self, angs, radii, g):
        poly = star_polygon(angs, radii)
        assert is_simple(poly)
        assert is_simple(g.apply_all(poly))


class TestSignedArea:
    def test_unit_square_ccw(self):
        assert signed_area(SQUARE) == pytest.approx(1.0, abs=1e-15)

    def test_unit_square_cw(self):
        assert signed_area(SQUARE[::-1]) == pytest.approx(-1.0, abs=1e-15)

    def test_regular_hexagon_side_third(self):
        side = 1.0 / 3.0
        hexagon = [
            side * cmath.exp(1j * math.pi * k / 3) for k in range(6)
        ]
        want = (3 * math.sqrt(3) / 2) * side * side
        assert signed_area(hexagon) == pytest.approx(want, abs=1e-15)

    @given(angles6, radii6, isometries)
    def test_isometry_equivariance(self, angs, radii, g):
        poly = star_polygon(angs, radii)
        before = signed_area(poly)
        after = signed_area(g.apply_all(poly))
        sign = -1.0 if g.reflect else 1.0
        assert after == pytest.approx(sign * before, rel=1e-9, abs=1e-12)

    @given(angles6, radii6)
    def test_matches_shoelace_oracle(self, angs, radii):
        poly = star_polygon(angs, radii)
        assert signed_area(poly) == pytest.approx(
            shoelace(poly), rel=1e-12, abs=1e-12
        )


class TestCornerAngle:
    def test_square_corners(self):
        for k in range(4):
            assert corner_angle(SQUARE, k) == pytest.approx(math.pi / 2)

    def test_regular_hexagon(self):
        hexagon = [cmath.exp(1j * math.pi * k / 3) for k in range(6)]
        for k in range(6):
            assert corner_angle(hexagon, k) == pytest.approx(2 * math.pi / 3)

    def test_concave_hexagon_sum_is_4pi(self):
        total = sum(corner_angle(CONCAVE_HEX, k) for k in range(6))
        assert total == pytest.approx(4 * math.pi, abs=1e-9)
        for k in range(6):
            assert 0 < corner_angle(CONCAVE_HEX, k) < 2 * math.pi

    def test_reflex_corner_exceeds_pi(self):
        pentagon = [0j, 4 + 0j, 4 + 4j, 2 + 1j, 4j]
        assert corner_angle(pentagon, 3) > math.pi
        total = sum(corner_angle(pentagon, k) for k in range(5))
        assert total == pytest.approx(3 * math.pi, abs=1e-9)

    def test_orientation_independent(self):
        # angle at a geometric corner is the same for cw input
        rev = CONCAVE_HEX[::-1]
        for k in range(6):
            want = corner_angle(CONCAVE_HEX, k)
            got = corner_angle(rev, 5 - k)
            assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateError):
            corner_angle([0j, 1 + 0j, 1 + 0j, 1j], 1)

    @given(angles6, radii6)
    def test_interior_angle_total(self, angs, radii):
        poly = star_polygon(angs, radii)
        total = sum(corner_angle(poly, k) for k in range(6))
        assert total == pytest.approx(4 * math.pi, abs=1e-9)


class TestIsometry:
    def test_rotation_pi_about_point(self):
        g = rotation(math.pi, 1.9 + 0.4j)
        assert g(0j) == pytest.approx(3.8 + 0.8j, abs=1e-12)

    def test_compose_inverse_is_identity(self):
        g = glide(0.3 + 0.1j, 0.7, 1.3).compose(rotation(0.4, 1j))
        h = g.compose(g.inverse())
        for z in (0j, 1 + 2j, -3.5 + 0.25j):
            assert h(z) == pytest.approx(z, abs=1e-12)

    def test_glide_squared_is_translation(self):
        # vertical glide line x = 1/4 with shift h
        h = 0.6
        g = glide(0.25, math.pi / 2, h)
        gg = g.compose(g)
        for z in (0j, 1 + 2j, 0.25 - 1j):
            assert gg(z) == pytest.approx(z + 2j * h, abs=1e-12)
        assert not gg.reflect

    def test_orientation_multiplies(self):
        r = reflection(0j, 0.3)
        assert r.orientation == -1
        assert r.compose(r).orientation == 1
        assert rotation(1.0).orientation == 1

    def test_linear_part_orthogonal(self):
        import numpy as np

        for g in (rotation(0.93, 2j), reflection(1 + 1j, 0.4), Isometry()):
            m = g.linear
            assert np.allclose(m @ m.T, np.eye(2), atol=1e-12)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert det == pytest.approx(g.orientation, abs=1e-12)

    def test_translation_factory(self):
        g = translation(2 - 1j)
        assert g(1j) == pytest.approx(2 + 0j)
        assert g.translation == 2 - 1j

    def test_non_unit_multiplier_rejected(self):
        with pytest.raises(ValueError):
            Isometry(2.0 + 0j, 0j, False)

    @given(isometries, isometries)
    def test_compose_matches_pointwise(self, g, h):
        z = 0.37 - 1.41j
        assert g.compose(h)(z) == pytest.approx(g(h(z)), abs=1e-9)


class TestCongruent:
    def test_translate(self):
        a = Polygon(tuple(CONCAVE_HEX))
        b = a.translated(5 - 3j)
        match = congruent(a, b)
        assert isinstance(match, Congruence)
        assert match.mapping == (0, 1, 2, 3, 4, 5)
        assert abs(match.isometry.mult - 1) < 1e-12
        assert not match.isometry.reflect

    def test_scaled_copy_fails(self):
        a = Polygon(tuple(CONCAVE_HEX))
        b = Polygon(tuple(2 * z for z in CONCAVE_HEX))
        assert congruent(a, b) is None

    def test_half_turn_partner(self):
        g = rotation(math.pi, 0.475 + 0.1j)
        a = Polygon(tuple(CONCAVE_HEX))
        b = a.transformed(g)
        match = congruent(a, b)
        assert match is not None
        for k, z in enumerate(a.corners):
            assert match.isometry(z) == pytest.approx(
                b.corners[match.mapping[k]], abs=1e-9
            )

    def test_reflected_copy_found(self):
        a = Polygon(tuple(CONCAVE_HEX))
        b = Polygon(tuple(z.conjugate() for z in CONCAVE_HEX)[::-1])
        match = congruent(a, b)
        assert match is not None
        assert match.isometry.reflect

    @given(angles6, radii6, isometries)
    def test_symmetric(self, angs, radii, g):
        a = Polygon(tuple(star_polygon(angs, radii)))
        b = a.transformed(g)
        assert (congruent(a, b) is not None) == (congruent(b, a) is not None)
        assert congruent(a, b) is not None

    def test_different_corner_counts(self):
        assert congruent(SQUARE, CONCAVE_HEX) is None


# the distinct checks behind the simplicity tests ----------------------------


def test_atoms_of_a_hexagon():
    crossings, distances, sides, touches = _atoms(6)
    assert (len(crossings), len(distances), len(sides), len(touches)) == (9, 24, 6, 12)
    assert set(touches) <= set(distances)
    # a distance (a, b, p) is that of a corner off the side ab
    assert all(b == (a + 1) % 6 and p not in (a, b) for a, b, p in distances)


@pytest.mark.parametrize("n", range(3, 9))
def test_orientation_table_holds_each_role_triple_once(n):
    triples, rows = _orients(n)
    crossings = _atoms(n)[0]
    roles = [[(a, b, c), (a, b, d), (c, d, a), (c, d, b)] for a, b, c, d in crossings]
    assert len(triples) == len(set(triples))
    assert set(triples) == {t for role in roles for t in role}
    assert len(rows) == len(crossings)
    assert [[triples[k] for k in row] for row in rows] == roles
    assert len(triples) == (0 if n == 3 else n * (n - 2))  # each side against n - 2 corners


def atom_passes(at, corners, tol):
    """Whether the check on the corners at passes: a crossing (a, b, c, d)
    where the sides ab and cd do not cross, a distance (a, b, p) or a side
    (a, b) where it exceeds tol."""
    z = [corners[k] for k in at]
    if len(at) == 4:  # each side has one end strictly left of the other's line, one not
        a, b, c, d = z

        def left(p, q, r):
            u, v = q - p, r - p
            return u.real * v.imag - u.imag * v.real > 0

        return not (left(a, b, c) != left(a, b, d) and left(c, d, a) != left(c, d, b))
    if len(at) == 3:
        return seg_point_dist(*z) > tol
    return abs(z[1] - z[0]) > tol


@pytest.mark.parametrize("n", range(3, 9))
def test_each_test_passes_exactly_when_its_atoms_pass(n):
    # against the distance of each test as the reference loop works it out
    crossings, distances, sides, _ = _atoms(n)
    groups = {4: crossings, 3: distances, 2: sides}
    rng = np.random.default_rng(n)
    used = set()
    for trial in range(300):
        # corners snapped to a coarse grid on every other loop, so that
        # sides touch, overlap and collapse as well as cross
        corners = [complex(x, y) for x, y in rng.normal(0.0, 1.0, (n, 2))]
        if trial % 2:
            corners = [complex(round(2 * z.real) / 2, round(2 * z.imag) / 2) for z in corners]
        reference = list(array_oracle._gaps(tuple(corners)))
        assert len(reference) == len(_tests(n))
        for tol in (0.0, 1e-9, 0.05):
            for (kind, i, j, picks), (kind0, i0, j0, gap) in zip(_tests(n), reference):
                assert (kind, i, j) == (kind0, i0, j0)
                atoms = [pick(range(n)) for pick in picks]
                if kind == "cross":
                    a, b, c, d = atoms[0]
                    assert atoms[1:] == [(a, b, c), (a, b, d), (c, d, a), (c, d, b)]
                else:
                    assert len(atoms) == 1
                for x in atoms:
                    assert x in groups[len(x)]
                used.update(atoms)
                expected = all(atom_passes(x, corners, tol) for x in atoms)
                assert (gap > tol) == expected
    # every atom serves some test
    assert used == {x for group in groups.values() for x in group}
