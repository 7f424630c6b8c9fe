"""Tests for tiling validation: clustering, side matching, census identities."""

from __future__ import annotations

import cmath
import importlib
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hextorus.construct import (
    GenericityWarning,
    TorusTiling,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.covering import build_cover, is_minimal
from hextorus.geom import DegenerateError, Polygon
from hextorus.lattice import HnfTriple
from hextorus.validate import ToleranceAmbiguityError, census, validate

warnings.simplefilter("ignore", GenericityWarning)


def five_instances():
    return [
        type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)),
        type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
        type_iii_minimal(0.05 + 0.22j),
        central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
        strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, 0.2 + 0.525j), "+-"),
    ]


def codes(report):
    return sorted({c for c, _ in report.failures})


class TestCensus:
    def test_three_tile_counts(self):
        c = census(type_iii_minimal(0.05 + 0.22j))
        assert (c.f, c.v, c.e, c.h) == (3, 6, 9, 0)
        assert c.v_k == {3: 6}
        assert c.h_l == {}
        assert c.identities_hold

    def test_two_tile_counts(self):
        c = census(type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)))
        assert (c.f, c.v, c.e, c.h) == (2, 4, 6, 0)
        assert c.identities_hold

    def test_four_tile_all_degree_three(self):
        c = census(type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)))
        assert (c.f, c.v, c.e, c.h) == (4, 8, 12, 0)
        assert c.v_k == {3: 8}

    def test_minimal_count_relations(self):
        for tiling in five_instances():
            c = census(tiling)
            assert c.v == 2 * c.f
            assert c.e == 3 * c.f
            assert c.h == 0

    def test_half_vertices_counted_but_identities_still_hold(self):
        # offset brick rows: every corner lands mid-side of a neighbor
        brick = Polygon((0j, 1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j, 0 + 1j))
        c = census(SimpleNamespace(alpha=2 + 0j, beta=0.5 + 1j, tiles=(brick,)))
        assert (c.v, c.h, c.e, c.f) == (0, 4, 5, 1)
        assert c.h_l == {3: 2, 2: 2}
        assert c.identities_hold


class TestValidatePasses:
    def test_all_five_constructions(self):
        for tiling in five_instances():
            report = validate(tiling)
            assert report.passed, report.failures
            assert report.failures == ()

    def test_unimodular_rebasis_keeps_validity(self):
        base = type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))
        rebased = TorusTiling(base.alpha, base.alpha + base.beta, base.tiles)
        report = validate(rebased)
        assert report.passed
        assert report.census == census(base)

    def test_similarity_invariance(self):
        base = type_iii_minimal(0.05 + 0.22j)
        w, shift = 0.7 - 1.1j, 3.0 + 2.0j
        tiles = tuple(
            Polygon(tuple(w * c + shift for c in t.corners), t.labels)
            for t in base.tiles
        )
        moved = TorusTiling(w * base.alpha, w * base.beta, tiles)
        report = validate(moved)
        assert report.passed
        assert report.census == census(base)


class TestValidateFailures:
    def setup_method(self):
        base = type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j))
        self.base = base
        self.t1, self.t2 = base.tiles

    def test_shifted_tile_reported_as_data(self):
        broken = SimpleNamespace(
            alpha=self.base.alpha,
            beta=self.base.beta,
            tiles=(self.t1, self.t2.translated(0.05 + 0.02j)),
        )
        report = validate(broken)
        assert not report.passed
        assert "unmatched-side" in codes(report)

    def test_translated_companion_leaves_unmatched_sides(self):
        broken = SimpleNamespace(
            alpha=self.base.alpha,
            beta=self.base.beta,
            tiles=(self.t1, self.t1.translated(0.5)),
        )
        report = validate(broken)
        assert not report.passed
        assert "unmatched-side" in codes(report)

    def test_half_vertex_failure(self):
        brick = Polygon((0j, 1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j, 0 + 1j))
        report = validate(SimpleNamespace(alpha=2 + 0j, beta=0.5 + 1j, tiles=(brick,)))
        assert not report.passed
        assert "half-vertex" in codes(report)
        assert report.census.h == 4

    def test_square_tile_bad_side_count(self):
        square = Polygon((0j, 1 + 0j, 1 + 1j, 0 + 1j))
        report = validate(SimpleNamespace(alpha=1 + 0j, beta=1j, tiles=(square,)))
        assert not report.passed
        assert "bad-side-count" in codes(report)

    def test_self_crossing_tile_flagged(self):
        c = self.t1.corners
        crossed = Polygon((c[1], c[0]) + c[2:], self.t1.labels)
        report = validate(
            SimpleNamespace(alpha=self.base.alpha, beta=self.base.beta, tiles=(crossed, self.t2))
        )
        assert not report.passed
        assert "non-simple-tile" in codes(report)

    def test_wrong_lattice_area_mismatch(self):
        report = validate(
            SimpleNamespace(alpha=2 + 0j, beta=self.base.beta, tiles=self.base.tiles)
        )
        assert not report.passed
        assert "area-mismatch" in codes(report)

    def test_failures_are_data_not_exceptions(self):
        broken = SimpleNamespace(
            alpha=self.base.alpha,
            beta=self.base.beta,
            tiles=(self.t1, self.t1.translated(0.5)),
        )
        report = validate(broken)
        for code, detail in report.failures:
            assert isinstance(code, str) and isinstance(detail, str)

    def test_duck_typed_tiles_give_the_polygon_report(self):
        # tiles that carry only .corners, which census already accepts: the
        # scalar re-checks of simplicity, congruence and angles read them too
        t = type_i_minimal(0.6j, (0.24 + 0.17j, -0.18 + 0.27j))  # the README's
        t1, t2 = t.tiles
        c = t2.corners
        tiles = (t1, Polygon((c[1], c[0]) + c[2:]), t2.translated(0.05 + 0.02j))
        polygons = SimpleNamespace(alpha=t.alpha, beta=t.beta, tiles=tiles)
        duck = SimpleNamespace(corners=t1.corners)
        report = validate(SimpleNamespace(alpha=t.alpha, beta=t.beta, tiles=(duck,) + tiles[1:]))
        assert report == validate(polygons)
        assert {"non-simple-tile", "non-congruent-tile"} <= set(codes(report))
        flat = SimpleNamespace(corners=(c[0], c[0]) + c[2:])  # a zero-length side
        with pytest.raises(DegenerateError, match="zero-length side at corner 0"):
            census(SimpleNamespace(alpha=t.alpha, beta=t.beta, tiles=(duck, flat)))

    def test_ambiguous_corner_distance_raises(self):
        pert = Polygon(
            tuple(c + (2e-9 if k == 0 else 0) for k, c in enumerate(self.t1.corners)),
            self.t1.labels,
        )
        with pytest.raises(ToleranceAmbiguityError):
            validate(
                SimpleNamespace(
                    alpha=self.base.alpha, beta=self.base.beta, tiles=(pert, self.t2)
                )
            )


def huge_or_non_finite(case: str):
    """The README's 2-tile tiling scaled by 1e200, or with a seventh corner at
    NaN or inf on tile 1 (a bad side count), or with its corner 1 at NaN or
    inf ("nan6", "inf6")."""
    base = type_i_minimal(0.6j, (0.24 + 0.17j, -0.18 + 0.27j))
    if case == "1e200":
        tiles = tuple(Polygon(tuple(1e200 * z for z in t.corners)) for t in base.tiles)
        return SimpleNamespace(alpha=1e200 * base.alpha, beta=1e200 * base.beta, tiles=tiles)
    t1, t2 = base.tiles
    corner = complex(math.nan if case.startswith("nan") else math.inf, 0.1)
    corners = t2.corners + (corner,)
    if case.endswith("6"):
        corners = (t2.corners[0], corner, *t2.corners[2:])
    tile = SimpleNamespace(corners=corners)
    return SimpleNamespace(alpha=base.alpha, beta=base.beta, tiles=(t1, tile))


@pytest.mark.parametrize("case", ["1e200", "nan", "inf", "nan6", "inf6"])
def test_overflow_and_nan_give_a_report_without_warnings(case):
    # validate and census silence numpy's floating-point warnings themselves
    carrier = huge_or_non_finite(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(carrier)
        cen = census(carrier)
    assert not report.passed and report.failures
    assert cen == report.census
    if case.endswith("6"):  # a non-finite corner is no simple hexagon's
        assert ("non-simple-tile", "tile 1 is not simple") in report.failures


@pytest.mark.parametrize("check", [validate, census])
@pytest.mark.parametrize(
    "alpha, beta", [(1, 2), (0, 0), (1 + 1j, 2 + 2j)], ids=["real-line", "zero", "diagonal"]
)
def test_a_flat_lattice_is_one_value_error(check, alpha, beta):
    # generators spanning no area get hextorus's own error, not numpy's
    # LinAlgError (a ValueError too) with "Singular matrix"
    carrier = SimpleNamespace(alpha=alpha, beta=beta, tiles=type_iii_minimal(0.05 + 0.22j).tiles)
    with pytest.raises(ValueError) as raised:
        check(carrier)
    assert type(raised.value) is ValueError
    assert str(raised.value) == (
        f"lattice generators {complex(alpha)} and {complex(beta)} are parallel or zero"
    )


@pytest.mark.parametrize("check", [validate, census, is_minimal], ids=lambda f: f.__name__)
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-3])
def test_a_tolerance_not_finite_and_nonnegative_is_one_value_error(check, tol):
    # a valid cover: nan and inf read its corners as coincident, and a
    # negative tolerance made it look minimal and its vertices of degree 1
    cover = build_cover(type_iii_minimal(0.05 + 0.22j), HnfTriple(2, 1, 0))
    with pytest.raises(ValueError) as raised:
        check(cover, tol)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"tolerance must be a finite number >= 0, got {tol!r}"


def test_a_nan_lattice_still_gets_a_failure_report():
    tiles = type_iii_minimal(0.05 + 0.22j).tiles
    carrier = SimpleNamespace(alpha=complex(math.nan, 0.0), beta=1j, tiles=tiles)
    report = validate(carrier)
    assert not report.passed and report.failures
    assert census(carrier) == report.census


def test_one_lattice_reduction_per_check(monkeypatch):
    # both spatial hashes of validate share one reduced frame, and
    # is_minimal's hash reads one too
    lattice = importlib.import_module("hextorus.lattice")
    covering = importlib.import_module("hextorus.covering")
    calls = []
    reduce = lattice.sl2_reduce
    monkeypatch.setattr(lattice, "sl2_reduce", lambda tau: calls.append(tau) or reduce(tau))
    for tiling in five_instances():
        calls.clear()
        assert validate(tiling).passed
        assert len(calls) == 1
        calls.clear()
        assert covering.is_minimal(tiling)
        assert len(calls) == (1 if len(tiling.tiles) > 1 else 0)


@pytest.mark.parametrize(
    "base,h,bound_mib",
    [
        # 1.1 times the peaks of the search that reached every side by the
        # longest one's half-length (1.77 and 5.57 MiB, numpy 2.4, x86-64)
        (lambda: type_i_minimal(0.6j, (0.2 + 0.2j, -0.15 + 0.25j)), (12, 18, 5), 1.94),
        (lambda: type_iii_minimal(0.05 + 0.22j), (24, 24, 0), 6.13),
    ],
    ids=["i-432", "iii-1728"],
)
def test_validate_peak_memory(base, h, bound_mib):
    tiling = build_cover(base(), HnfTriple(*h))
    validate(tiling)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        report = validate(tiling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= bound_mib * 2**20


# bases whose covers are validated in other bases of their lattice: a thin
# centrally symmetric tiling, a plain one and the three-tile type iii
RE_BASED = {
    "thin-cs": lambda: central_minimal(1, 0.15j, 0.45 + 0.06j),
    "cs": lambda: central_minimal(1, 0.3 + 1j, 0.55 + 0.6j),
    "iii": lambda: type_iii_minimal(0.05 + 0.22j),
}


def broken_covers(base, rng):
    """Covers of the base, intact and with one tile translated, slid along
    one of its sides (a slide leaves corners inside other tiles' sides) or
    with one corner nudged, as (alpha, beta, tiles)."""
    for h in [(2, 1, 0), (1, 2, 0), (2, 2, 1)]:
        cover = build_cover(base, HnfTriple(*h))
        yield cover.alpha, cover.beta, cover.tiles
        for how in ("translate", "slide", "nudge") * 6:
            tiles = list(cover.tiles)
            k, i = int(rng.integers(len(tiles))), int(rng.integers(6))
            corners = tiles[k].corners
            if how == "translate":
                tiles[k] = tiles[k].translated(0.05 * cmath.exp(2j * math.pi * rng.uniform()))
            elif how == "slide":
                slide = rng.uniform(0.1, 0.9) * (corners[i] - corners[i - 1])
                tiles[k] = tiles[k].translated(slide)
            else:
                corners = list(corners)
                corners[i] += 1e-3 * cmath.exp(2j * math.pi * rng.uniform())
                tiles[k] = Polygon(tuple(corners), tiles[k].labels)
            yield cover.alpha, cover.beta, tuple(tiles)


def unimodular(rng) -> tuple[int, int, int, int]:
    """A random integer matrix (a, b; c, d) of determinant 1, entries up to
    about 100."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        s, t = (int(x) for x in rng.integers(-4, 5, 2))
        a, b, c, d = a + s * c, b + s * d, c, d  # row 1 += s * row 2
        a, b, c, d = a, b, c + t * a, d + t * b  # row 2 += t * row 1
    return a, b, c, d


def verdict(report):
    """A report without the covolume digits that an area-mismatch message
    prints, which the basis changes in the last bits."""
    failures = tuple(
        (kind, re.sub(r"fundamental domain .*", "fundamental domain", text))
        for kind, text in report.failures
    )
    return report.passed, report.census, failures


@pytest.mark.parametrize("name", RE_BASED)
def test_verdicts_do_not_depend_on_the_basis(name):
    rng = np.random.default_rng(2026)
    changed = []
    for alpha, beta, tiles in broken_covers(RE_BASED[name](), rng):
        own = verdict(validate(SimpleNamespace(alpha=alpha, beta=beta, tiles=tiles)))
        a, b, c, d = unimodular(rng)
        bases = [(alpha, beta + j * alpha) for j in (3, 10, 40, 1000)]
        bases.append((a * alpha + b * beta, c * alpha + d * beta))
        for other in bases:
            carrier = SimpleNamespace(alpha=other[0], beta=other[1], tiles=tiles)
            if verdict(validate(carrier)) != own:
                changed.append((other, own))
    assert changed == []
