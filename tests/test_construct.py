"""Tests for the five tiling constructors and planar patch expansion."""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import re
import sys
import warnings

import pytest

from hextorus.cli import document_from_tiling, serialize_document
from hextorus.construct import (
    B_POINT,
    FAMILIES,
    G_PRIME,
    GenericityWarning,
    ModuliViolation,
    OMEGA3,
    PlanarPatch,
    R_POINT,
    ROT120,
    TorusTiling,
    central_minimal,
    planar_patch,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.geom import Isometry, congruent, rotation, signed_area
from hextorus.hexagon import classify, spec_from_polygon

# documented concave hexagon, equal to four times the first tile of the
# quarter-scale two-tile instance below
DOC_HEX = (1 + 2j, -0.2 + 0.8j, 0j, 1 - 0.2j, 2.8 + 1j, 2 + 1.8j)


def corners_match(a, b, tol=1e-9):
    """Greedy unordered matching of two corner collections."""
    remaining = list(b)
    for z in a:
        for k, w in enumerate(remaining):
            if abs(z - w) <= tol:
                del remaining[k]
                break
        else:
            return False
    return not remaining


def tile_in_set_mod_lattice(corners, tiles, alpha, beta, tol=1e-9):
    for k in range(-2, 3):
        for j in range(-2, 3):
            shifted = [c + k * alpha + j * beta for c in corners]
            if any(corners_match(shifted, t.corners, tol) for t in tiles):
                return True
    return False


def total_area(tiles):
    return sum(abs(signed_area(t)) for t in tiles)


class TestTypeI:
    def test_quarter_scale_doc_hexagon(self):
        tiling = type_i_minimal((1 + 2j) / 4, (0.95 + 0.2j, 0.7 + 0.25j))
        assert len(tiling.tiles) == 2
        for got, expect in zip(tiling.tiles[0].corners, DOC_HEX):
            assert abs(got - expect / 4) <= 1e-12
        assert tiling.tiles[0].labels == (0, 1, 2, 3, 4, 5)

    def test_companion_is_half_turn_image(self):
        i = 0.95 + 0.2j
        tiling = type_i_minimal((1 + 2j) / 4, (i, 0.7 + 0.25j))
        half_turn = rotation(math.pi, i / 2)
        image = [half_turn(c) for c in tiling.tiles[0].corners]
        assert corners_match(image, tiling.tiles[1].corners, 1e-12)

    def test_zero_length_sigma_raises(self):
        with pytest.raises(ModuliViolation):
            type_i_minimal(0.6j, (0.2 + 0.2j, 0.2 + 0.2j))

    def test_sides_two_and_five_equal_exactly(self):
        tiling = type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))
        spec = spec_from_polygon(tiling.tiles[0])
        assert spec.lengths[2] == spec.lengths[5]
        assert classify(spec).type_i

    def test_fills_fundamental_domain(self):
        tau = 0.6j
        tiling = type_i_minimal(tau, (0.2 + 0.2j, -0.15 + 0.25j))
        assert tiling.modulus == tau
        assert abs(total_area(tiling.tiles) - tiling.covolume) <= 1e-12

    def test_lower_half_plane_tau_rejected(self):
        with pytest.raises(ValueError):
            type_i_minimal(-0.6j, (0.2 + 0.2j, -0.15 + 0.25j))

    def test_self_crossing_sigma_raises(self):
        with pytest.raises(ModuliViolation) as info:
            type_i_minimal(0.6j, (0.2 + 0.2j, 1.6 + 0.25j))
        assert info.value.kind in ("cross", "touch", "degenerate")


class TestTypeII:
    def test_four_tiles_on_rectangular_torus(self):
        tiling = type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j))
        assert len(tiling.tiles) == 4
        assert tiling.alpha == 1
        assert tiling.beta == 1j
        assert classify(spec_from_polygon(tiling.tiles[0])).type_ii

    def test_glide_permutes_tile_set_mod_lattice(self):
        y = 1.0
        tiling = type_ii_minimal(y, (0.35 + 0.05j, 0.12 + 0.15j))
        gamma = Isometry(-1.0 + 0j, 0.5 + 0.5j * y, True)
        for tile in tiling.tiles:
            image = [gamma(c) for c in tile.corners]
            assert tile_in_set_mod_lattice(
                image, tiling.tiles, tiling.alpha, tiling.beta
            )

    def test_orientation_census_of_congruences(self):
        tiling = type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j))
        first = tiling.tiles[0]
        orientations = []
        for other in tiling.tiles[1:]:
            match = congruent(first, other)
            assert match is not None
            orientations.append(match.isometry.reflect)
        assert sorted(orientations) == [False, True, True]

    def test_scaled_drawing_instance(self):
        y = 2.0 / 3.0
        i = complex(2.6 / 6, 0.4 / 4 * y)
        t = complex(1.0 / 6, 0.8 / 4 * y)
        tiling = type_ii_minimal(y, (i, t))
        assert len(tiling.tiles) == 4
        assert abs(total_area(tiling.tiles) - y) <= 1e-12

    def test_sigma_through_rotation_center_raises(self):
        with pytest.raises(ModuliViolation):
            type_ii_minimal(1.0, (-0.12 - 0.15j, 0.12 + 0.15j))

    def test_nonpositive_y_rejected(self):
        with pytest.raises(ValueError):
            type_ii_minimal(0.0, (0.35 + 0.05j, 0.12 + 0.15j))


class TestTypeIII:
    def test_origin_gives_regular_hexagon(self):
        tiling = type_iii_minimal(0j)
        spec = spec_from_polygon(tiling.tiles[0])
        for length in spec.lengths:
            assert abs(length - 1.0 / 3.0) <= 1e-12
        for angle in spec.angles:
            assert abs(angle - 2.0 * math.pi / 3.0) <= 1e-12

    def test_anchor_corners(self):
        P = -0.2 + 0.1j
        tile = type_iii_minimal(P).tiles[0]

        def corner(label):
            return tile.corners[tile.labels.index(label)]

        assert corner(0) == P
        assert corner(1) == R_POINT
        assert corner(3) == G_PRIME
        assert corner(5) == B_POINT
        assert corner(2) == R_POINT + ROT120 * (P - R_POINT)
        assert corner(4) == B_POINT + ROT120.conjugate() * (P - B_POINT)

    def test_p_at_far_corner_raises(self):
        with pytest.raises(ModuliViolation):
            type_iii_minimal(G_PRIME)

    def test_concave_point_valid(self):
        tiling = type_iii_minimal(-0.2 + 0.1j)
        assert len(tiling.tiles) == 3
        assert tiling.modulus == OMEGA3
        spec = spec_from_polygon(tiling.tiles[0])
        assert any(a > math.pi for a in spec.angles)

    def test_tiles_pairwise_congruent_by_rotation(self):
        tiling = type_iii_minimal(-0.2 + 0.1j)
        third_turn = cmath.exp(2j * math.pi / 3)
        for other in tiling.tiles[1:]:
            match = congruent(tiling.tiles[0], other)
            assert match is not None
            assert not match.isometry.reflect
            mult = match.isometry.mult
            assert min(abs(mult - third_turn), abs(mult - third_turn.conjugate())) <= 1e-9


class TestCentral:
    def test_documented_hexagon_is_centrally_symmetric(self):
        tiling = central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j)
        assert len(tiling.tiles) == 1
        corners = tiling.tiles[0].corners
        for k in range(3):
            assert corners[k + 3] == -corners[k]

    def test_half_alpha_raises(self):
        with pytest.raises(ModuliViolation):
            central_minimal(1.4 + 0.5j, 0.2 + 0.8j, (1.4 + 0.5j) / 2)

    def test_unit_square_instance(self):
        tiling = central_minimal(1, 1j, 0.3 + 0.2j)
        assert abs(total_area(tiling.tiles) - 1.0) <= 1e-12
        report = classify(spec_from_polygon(tiling.tiles[0]))
        assert report.central

    def test_wrong_generator_order_rejected(self):
        with pytest.raises(ValueError):
            central_minimal(1j, 1, 0.3 + 0.2j)

    def test_bisector_midpoint_warns_nongeneric(self):
        with pytest.warns(GenericityWarning):
            central_minimal(1, 1j, 0.25 + 0.25j)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(complex(math.nan, 0), 1j), (1, complex(0, math.inf)), (complex(math.inf, 0), 1j)],
    )
    def test_non_finite_generator_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
            central_minimal(alpha, beta, 0.3 + 0.2j)


@pytest.mark.parametrize("slot", ["alpha", "beta"])
@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)])
def test_torus_tiling_rejects_non_finite_generator(slot, bad):
    t = type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))
    lattice = {"alpha": t.alpha, "beta": t.beta, slot: bad}
    with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
        TorusTiling(lattice["alpha"], lattice["beta"], t.tiles)


class TestStrip:
    SIGMA = (0.3 + 0.45j, 0.2 + 0.525j)  # satisfies Im(2t - i) = h/2 for h=1.2

    def test_single_plus_is_two_tiles(self):
        tiling = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+")
        assert isinstance(tiling, TorusTiling)
        assert len(tiling.tiles) == 2
        assert tiling.alpha == complex(0.9, 0.15)
        assert tiling.beta == 1.2j

    def test_three_plus_one_minus(self):
        tiling = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+++-")
        assert len(tiling.tiles) == 8
        assert tiling.alpha == complex(4 * 0.9, 2 * 0.15)

    def test_balanced_word_gives_rectangle(self):
        tiling = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "++--")
        assert len(tiling.tiles) == 8
        assert tiling.alpha == complex(4 * 0.9, 0.0)
        assert tiling.beta == 1.2j
        assert abs(total_area(tiling.tiles) - tiling.covolume) <= 1e-9

    def refuses_as_non_string(self, signs):
        message = rf"^sign word must be a string of \+ and -, got {re.escape(repr(signs))}$"
        with pytest.raises(ValueError, match=message):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, signs)

    def test_signs_must_be_a_string(self):
        self.refuses_as_non_string(b"+-")
        assert len(strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+-").tiles) == 4

    def test_signs_as_integer_sequence(self):
        for signs in ([1, -1], (1, -1)):
            self.refuses_as_non_string(signs)

    def test_signs_must_equal_plus_or_minus_one(self):
        # No sequence is read entry by entry: any non-string word, whatever its
        # entries, is refused with the one message that names the string form.
        for signs in ([1.5, -1.9], [1.0, -1.0], ("+", "-")):
            self.refuses_as_non_string(signs)

    def test_empty_signs_raises(self):
        with pytest.raises(ValueError):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "")

    def test_bad_sign_character_raises(self):
        with pytest.raises(ValueError):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+x")

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", mode="ring")

    @pytest.mark.parametrize(
        "extent,message", [(-1, "must not be negative, got -1"), (0.5, "must be an integer, got 0.5")]
    )
    def test_bad_extent_raises(self, extent, message):
        with pytest.raises(ValueError, match=message):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", mode="patch", extent=extent)
        patch = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", mode="patch", extent=0.0)
        assert len(patch.tiles) == 2

    @pytest.mark.parametrize("extent", [5, 1, 0])
    def test_torus_mode_refuses_an_extent(self, extent):
        message = "mode 'torus' does not take an extent; mode 'patch' does"
        with pytest.raises(ValueError, match=message):
            strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", extent=extent)
        patch = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", mode="patch")
        assert patch == strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+", mode="patch", extent=1)
        assert len(strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "+").tiles) == 2

    def test_unbalanced_boundary_sides_raise(self):
        with pytest.raises(ModuliViolation):
            strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.4j), "+")

    def test_patch_mode_lays_out_word_literally(self):
        patch = strip_tiling(1.2, 0.9, 0.15, self.SIGMA, "++--", mode="patch")
        assert isinstance(patch, PlanarPatch)
        assert len(patch.tiles) == 4 * 2 * 3


class TestPlanarPatch:
    def test_three_tile_patch_count(self):
        patch = planar_patch(type_iii_minimal(0j), 1)
        assert len(patch.tiles) == 27

    def test_two_tile_patch_count(self):
        tiling = type_i_minimal((1 + 2j) / 4, (0.95 + 0.2j, 0.7 + 0.25j))
        assert len(planar_patch(tiling, 2).tiles) == 50

    def test_single_tile_patch_count(self):
        tiling = central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j)
        assert len(planar_patch(tiling, 3).tiles) == 49

    def test_interior_vertices_have_degree_three(self):
        patch = planar_patch(type_iii_minimal(0j), 1)
        counts: dict[tuple[float, float], int] = {}
        for tile in patch.tiles:
            for c in tile.corners:
                key = (round(c.real, 9), round(c.imag, 9))
                counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) == 3
        assert sum(1 for v in counts.values() if v == 3) > 10

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            planar_patch(type_iii_minimal(0j), 0)

    def test_non_integral_extent_rejected(self):
        with pytest.raises(ValueError, match="extent must be an integer, got 1.5"):
            planar_patch(type_iii_minimal(0j), 1.5)
        assert len(planar_patch(type_iii_minimal(0j), 1.0).tiles) == 27


class TestAreaAccounting:
    def test_all_five_constructors_fill_their_domain(self):
        cases = [
            type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)),
            type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
            type_iii_minimal(0.05 + 0.22j),
            central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
            strip_tiling(1.2, 0.9, 0.15, TestStrip.SIGMA, "+-"),
        ]
        for tiling in cases:
            assert abs(total_area(tiling.tiles) - tiling.covolume) <= 1e-9 * tiling.covolume


# SHA-256 of each constructor's serialized document, recorded before the
# constructors became one builder over the family table; the signed-zero
# members carry -0.0 parts in their parameters, and ii's tile 0 carries only
# positive zeros where its prototile has negative ones
DOCUMENT_DIGESTS = {
    "i-tall": "638de59b0ddfb78df392b2aa7de5f86f09b87e9610d738abd72bb09f6362de35",
    "i-quarter": "a0d21ce62632c5be685c743d2b12c8bf7c61d453fe342a83870cb90b06228565",
    "i-signed-zero": "bcb55bd0de9e0fd325cdca035cdddce46ed428635ebbf4d0a569bb29c0c5d544",
    "ii-square": "2cd5c6b2d27ac0770d7890d89d08da09333314842d2cd7fcfada77e85a4e1d43",
    "ii-flat": "85e0531446a07411afa9fe935c719e139155e49ab7c546f017f7a180a1f63332",
    "ii-signed-zero": "292ba8d6db4af99ccfc8957378d27e601e1182002ccec4ac59e65fd253ac5c9e",
    "iii-origin": "8f42f335ea3639816630a504013c4680055cb62dffeb06f549d4bb52aba1517e",
    "iii-readme": "e212657efc7999e09953793ca2a77193bb3decedd8c32d6d1ab166c654841651",
    "iii-signed-zero": "2fd342c7915e7e9f114bc7ef948edc6bdf43ffbe1e4c9ca07c25b655be3faa31",
    "cs-sheared": "159f14c7257708d9d87d00069cea6dc675bedeeb73bf659b29e1634de7498ee0",
    "cs-square": "1b1b2d95f0716c5d5459b81d17bad3735290fa1f315814c3799b56d20964cb30",
    "cs-signed-zero": "4ff7d91aa455d726540cb4c7665ee403068f621ae1ab69f71ccde0018739c5a9",
    "strip-plus-minus": "1bedafa431a223b6806adbfc861d93abc65419888b783ecbe404b1244a338b31",
    "strip-three-one": "cefcb69842aeb05de996d8faead8635b080f0bda7ec93bd86b9fcac3afbea18c",
    "strip-signed-zero": "646f9651b70e452798591c3035b6a62bebc688b796436db4c92a0c7877a39c7c",
}
MEMBERS = {
    "i-tall": lambda: type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)),
    "i-quarter": lambda: type_i_minimal((1 + 2j) / 4, (0.95 + 0.2j, 0.7 + 0.25j)),
    "i-signed-zero": lambda: type_i_minimal(complex(-0.0, 0.6), (0.2 + 0.2j, -0.15 + 0.25j)),
    "ii-square": lambda: type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
    "ii-flat": lambda: type_ii_minimal(0.7, (0.2 + 0.2j, 0.45 - 0.1j)),
    "ii-signed-zero": lambda: type_ii_minimal(1.0, (complex(0.35, -0.0), complex(0.12, 0.0))),
    "iii-origin": lambda: type_iii_minimal(0j),
    "iii-readme": lambda: type_iii_minimal(0.05 + 0.22j),
    "iii-signed-zero": lambda: type_iii_minimal(complex(-0.0, -0.1)),
    "cs-sheared": lambda: central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
    "cs-square": lambda: central_minimal(1, 1j, 0.3 + 0.2j),
    "cs-signed-zero": lambda: central_minimal(complex(1.0, -0.0), complex(-0.0, 1.0), 0.3 + 0j),
    "strip-plus-minus": lambda: strip_tiling(1.2, 0.9, 0.15, TestStrip.SIGMA, "+-"),
    "strip-three-one": lambda: strip_tiling(1.2, 0.9, 0.15, TestStrip.SIGMA, "+++-"),
    "strip-signed-zero": lambda: strip_tiling(
        1.2, 0.9, -0.0, (0.3 + 0.45j, complex(-0.0, 0.525)), "++-"
    ),
}


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_constructor_documents_are_pinned(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GenericityWarning)
        text = serialize_document(document_from_tiling(MEMBERS[name]()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DOCUMENT_DIGESTS[name]


def draw_fixed(kind, rng):
    """Normalized fixed parameters of a family, drawn at random."""
    def c(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

    raw = {
        "i": lambda: (complex(rng.uniform(-2, 2), rng.uniform(0.1, 3)), c(-3, 3)),
        "ii": lambda: (rng.uniform(0.1, 3), c(-3, 3)),
        "iii": lambda: (),
        "cs": lambda: (
            complex(rng.uniform(0.5, 3), rng.uniform(-0.4, 0.4)),
            complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 3)),
        ),
    }[kind]()
    return FAMILIES[kind].check(raw)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_slopes_give_the_corners(kind):
    # corners(z) - corners(0) = B*z + C*conj(z) at every corner, to within a
    # few ulps of the coordinate scale; only ii's glide has a C
    fam = FAMILIES[kind]
    b, c = fam.slopes
    assert len(b) == len(c) == 6
    assert any(c) == (kind == "ii")
    rng = random.Random(23)
    for _ in range(200):
        fixed = draw_fixed(kind, rng)
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) * 10.0 ** rng.uniform(-3, 3)
        at0, at = fam.corners(*fixed, 0j), fam.corners(*fixed, z)
        scale = max(map(abs, (*at0, *at, z)))
        for k in range(6):
            expected = b[k] * z + c[k] * z.conjugate()
            assert abs(at[k] - at0[k] - expected) <= 8 * sys.float_info.epsilon * scale, (k, fixed, z)


NONGENERIC = {
    "i": lambda: type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)),
    "ii": lambda: type_ii_minimal(1.0, (0.25 + 0j, 0.25j)),
    "iii": lambda: type_iii_minimal(0j),
    "cs": lambda: central_minimal(1, 1j, 0.25 + 0.25j),
    "strip": lambda: strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.525j), "+-"),
}


@pytest.mark.parametrize("kind", sorted(NONGENERIC))
def test_genericity_warning_points_at_the_caller(kind):
    with pytest.warns(GenericityWarning) as caught:
        NONGENERIC[kind]()
    assert [w.filename for w in caught] == [__file__]
