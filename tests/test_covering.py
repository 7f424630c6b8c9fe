"""Tests for covering construction, minimality detection, and enumeration."""

from __future__ import annotations

import math
import warnings

import pytest

from hextorus import covering
from hextorus.construct import (
    GenericityWarning,
    OMEGA3,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.covering import (
    MINIMAL_TILE_COUNT,
    build_cover,
    enumerate_coverings,
    is_minimal,
)
from hextorus.lattice import (
    HnfTriple,
    covering_modulus,
    enumerate_hnf,
    lattices_isometric,
)
from hextorus.validate import validate

warnings.simplefilter("ignore", GenericityWarning)

TARGET = 2.0 * math.sqrt(3.0) * 1j


def base_type_i():
    return type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))


class TestBuildCover:
    def test_identity_triple_keeps_everything(self):
        base = base_type_i()
        cover = build_cover(base, (1, 1, 0))
        assert len(cover.tiles) == len(base.tiles)
        assert cover.alpha == base.alpha
        assert cover.beta == base.beta

    def test_integral_float_triple_is_taken(self):
        base = type_iii_minimal(0.05 + 0.22j)
        cover = build_cover(base, (2.0, 1, 0))
        assert cover.provenance["triple"] == (2, 1, 0)
        assert cover == build_cover(base, (2, 1, 0))
        with pytest.raises(ValueError, match=r"^m must be an integer, got 2\.5$"):
            build_cover(base, (2.5, 1, 0))

    def test_more_tiles_than_the_cap_refused_before_building(self, monkeypatch):
        base = base_type_i()  # 2 tiles
        message = r"^cover tile count must be at most 1048576, got 1050624$"
        with pytest.raises(ValueError, match=message):
            build_cover(base, HnfTriple(1024, 513, 0))
        monkeypatch.setattr(covering, "_MAX_TILES", 12)
        assert len(build_cover(base, HnfTriple(2, 3, 1)).tiles) == 12
        with pytest.raises(ValueError, match=r"^cover tile count must be at most 12, got 14$"):
            build_cover(base, HnfTriple(7, 1, 0))

    def test_cover_lattice_generators(self):
        base = base_type_i()
        cover = build_cover(base, HnfTriple(2, 3, 1))
        assert cover.alpha == 2 * base.alpha
        assert cover.beta == base.alpha + 3 * base.beta
        assert len(cover.tiles) == 2 * 3 * len(base.tiles)

    def test_cover_validates(self):
        cover = build_cover(base_type_i(), HnfTriple(2, 3, 1))
        report = validate(cover)
        assert report.passed, report.failures
        assert report.census.f == 12

    def test_type_ii_cover_has_twelve_tiles(self):
        base = type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j))
        cover = build_cover(base, (1, 3, 0))
        assert len(cover.tiles) == 12
        assert validate(cover).passed

    def test_type_iii_cover_matches_target_lattice(self):
        base = type_iii_minimal(0.05 + 0.22j)
        cover = build_cover(base, (1, 4, 0))
        assert len(cover.tiles) == 12
        assert abs(cover.modulus - 4 * OMEGA3) <= 1e-12
        assert lattices_isometric(cover.modulus, TARGET)
        assert validate(cover).passed

    def test_cover_of_cover_composes_counts(self):
        base = central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j)
        twice = build_cover(build_cover(base, (2, 1, 0)), (1, 3, 0))
        assert len(twice.tiles) == 6
        assert validate(twice).passed
        assert twice.provenance["kind"] == "cover"
        assert twice.provenance["source"]["kind"] == "cover"

    def test_tile_count_multiplies_exactly(self):
        base = type_iii_minimal(0.05 + 0.22j)
        for h in enumerate_hnf(4):
            cover = build_cover(base, h)
            assert len(cover.tiles) == h.m * h.n * 3


class TestIsMinimal:
    def test_all_five_constructions_minimal(self):
        cases = [
            base_type_i(),
            type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
            type_iii_minimal(0.05 + 0.22j),
            central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
            strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.525j), "++--"),
        ]
        for tiling in cases:
            assert is_minimal(tiling)

    def test_proper_cover_is_not_minimal(self):
        assert not is_minimal(build_cover(base_type_i(), (2, 1, 0)))
        assert not is_minimal(build_cover(base_type_i(), (1, 2, 0)))

    def test_repeated_sign_word_is_not_minimal(self):
        sigma = (0.3 + 0.45j, 0.2 + 0.525j)
        assert is_minimal(strip_tiling(1.2, 0.9, 0.15, sigma, "+-"))
        assert not is_minimal(strip_tiling(1.2, 0.9, 0.15, sigma, "+-+-"))


class TestEnumerateCoverings:
    def test_family_i_admits_every_triple(self):
        found = enumerate_coverings("i", TARGET, 12)
        assert [h for h, _ in found] == enumerate_hnf(6)
        for h, tau_min in found:
            assert abs(covering_modulus(tau_min, h) - TARGET) <= 1e-9

    def test_family_ii_keeps_rectangular_solutions(self):
        found = enumerate_coverings("ii", TARGET, 12)
        triples = {(h.m, h.n, h.l) for h, _ in found}
        assert triples == {(1, 3, 0), (3, 1, 0)}
        values = {(h.m, h.n, h.l): tau for h, tau in found}
        assert abs(values[(1, 3, 0)] - 2j / math.sqrt(3.0)) <= 1e-12
        assert abs(values[(3, 1, 0)] - 6j * math.sqrt(3.0)) <= 1e-12
        for h, tau_min in found:
            assert abs(tau_min.real) <= 1e-12
            assert lattices_isometric(covering_modulus(tau_min, h), TARGET)

    @pytest.mark.parametrize("target", [1e10 + 1j, 1e20 + 1j, 1e300 + 1j])
    def test_family_ii_far_from_the_imaginary_axis(self, target):
        # target - k for an integer k is the same lattice as target, so the
        # rows are those of its representative i
        found = enumerate_coverings("ii", target, 48)
        assert found == enumerate_coverings("ii", 1j, 48) and found
        for h, tau_min in found:
            assert lattices_isometric(covering_modulus(tau_min, h), target)

    def test_family_iii_canonicalizes_rotation_orbit(self):
        found = enumerate_coverings("iii", TARGET, 12)
        assert [(h.m, h.n, h.l) for h, _ in found] == [(1, 4, 0)]
        assert found[0][1] == OMEGA3

    def test_family_cs_counts_sigma_one(self):
        found = enumerate_coverings("cs", TARGET, 12)
        assert len(found) == 28  # sum of divisors of 12
        assert [h for h, _ in found] == enumerate_hnf(12)

    def test_round_trip_through_build_cover(self):
        base = type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j))
        for h, tau_min in enumerate_coverings("ii", TARGET, 12):
            assert lattices_isometric(covering_modulus(tau_min, h), TARGET)
            cover = build_cover(base, h)
            assert len(cover.tiles) == 12

    def test_non_multiple_tile_count_rejected(self):
        with pytest.raises(ValueError):
            enumerate_coverings("ii", TARGET, 10)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            enumerate_coverings("iv", TARGET, 12)

    def test_nonpositive_tile_count_rejected(self):
        with pytest.raises(ValueError):
            enumerate_coverings("cs", TARGET, 0)

    def test_non_integral_tile_count_rejected(self):
        for count in (4.5, "12", math.nan, math.inf):
            with pytest.raises(ValueError, match="tile count must be an integer"):
                enumerate_coverings("i", 1j, count)
        assert enumerate_coverings("ii", TARGET, 12.0) == enumerate_coverings("ii", TARGET, 12)

    @pytest.mark.parametrize("kind", ["i", "ii", "iii", "cs"])
    def test_bound_below_one_rejected(self, kind):
        for bound in (0, -3):
            with pytest.raises(ValueError, match="bound must be at least 1"):
                enumerate_coverings(kind, TARGET, 12, bound)

    @pytest.mark.parametrize("kind", ["i", "ii", "iii", "cs"])
    def test_bound_above_the_cap_rejected(self, kind):
        with pytest.raises(ValueError, match="^search bound must be at most 1024, got 1025$"):
            enumerate_coverings(kind, TARGET, 12, 1025)

    @pytest.mark.parametrize("kind", ["i", "ii", "iii", "cs"])
    def test_non_integral_bound_rejected(self, kind):
        with pytest.raises(ValueError, match="search bound must be an integer, got 2.5"):
            enumerate_coverings(kind, TARGET, 12, 2.5)
        assert enumerate_coverings(kind, TARGET, 12, 8.0) == enumerate_coverings(kind, TARGET, 12, 8)

    def test_minimal_tile_counts_table(self):
        assert MINIMAL_TILE_COUNT == {"i": 2, "ii": 4, "iii": 3, "cs": 1}
