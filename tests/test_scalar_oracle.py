"""The scalar simplicity walk, the classifier and the constructors against
the reference copies in ``array_oracle``.

first_violation must report the same (kind, i, j), or None, as the
test-by-test walk: on random loops, on quarter-grid corners (exact touches
and collinear sides), on corners 1e-10 apart and on corners near
1e154..1e308, whose distances overflow to inf or NaN, at tol 1e-9, 0,
-1e-3, 0.3 and NaN; a length whose abs overflows, where the walk raises,
fails the test that reads it. On a simple hexagon it works out each of the 24
point-side distances once (the walk works out 48). classify must give the
same TypeReport on the specs of random hexagons and of the five families'
prototiles. Each constructor must raise the same ModuliViolation, and warn
on the same parameters, as the reference walk and classifier decide.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import array_oracle
from hextorus import geom
from hextorus.construct import (
    GenericityWarning,
    ModuliViolation,
    central_minimal,
    hexagon_corners,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.geom import Polygon, first_violation
from hextorus.hexagon import (
    TWO_THIRDS_PI,
    HexagonSpec,
    classify,
    relabelings,
    spec_from_polygon,
)

TOLS = (1e-9, 0.0, -1e-3, 0.3, math.nan)
MODES = ("random", "quarter", "close", "huge")


def loops(seed: int, mode: str, count: int = 12):
    """``count`` corner loops of 3 to 8 corners (mostly hexagons)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = 6 if rng.random() < 0.6 else int(rng.integers(3, 9))
        z = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)
        if mode == "quarter":  # exact touches, overlaps and collinear sides
            z = np.round(2.0 * z) / 4.0
        elif mode == "close":  # some corners 1e-10 from the one before
            near = rng.random(n) < 0.4
            z[near] = np.roll(z, 1)[near] + 1e-10 * np.exp(2j * np.pi * rng.random(near.sum()))
        elif mode == "huge":  # products overflow to inf, differences of infs to NaN
            with np.errstate(over="ignore"):
                z = z * 10.0 ** rng.uniform(154.0, 308.0)
        yield tuple(complex(w) for w in z)


def walk(corners, tol=geom.MERGE_TOL):
    """The reference walk (``array_oracle.first_violation``), except that a
    length past the float range, where Python's abs raises OverflowError at
    corners near 1e308, fails the test that reads it."""
    c = tuple(complex(z) for z in corners)
    for kind, i, j, dist, pick in array_oracle._tests(len(c)):
        try:
            gap = dist(*pick(c))
        except OverflowError:
            return (kind, i, j)
        if not gap > tol:
            return (kind, i, j)
    return None


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_first_violation_matches_the_walk(seed, mode):
    for corners in loops(seed, mode):
        for tol in TOLS:
            assert first_violation(corners, tol) == walk(corners, tol)


@pytest.mark.parametrize("mode", MODES)
def test_first_violation_matches_the_walk_in_bulk(mode):
    for seed in range(40):
        for corners in loops(seed, mode, count=10):
            for tol in TOLS:
                assert first_violation(corners, tol) == walk(corners, tol), (corners, tol)


# a zero-length side, found first by the walk, and no crossing, with some
# distance whose abs overflows (corners in units of 1e308)
OVERFLOWING = [
    [0.3205145015077423 + 0.26917018485456345j, -0.7253596932939065 + 0.18130343988194142j,
     -0.7253596932939065 + 0.18130343988194142j, 0.8084683209714038 + 0.314869315179959j,
     -0.495971340021675 + 0.5575769911703715j, 0.8292433418684572 - 0.7560929908895611j],
    [0.894418003086087 + 0.8638625641248819j, -0.4572951785048376 - 0.26213123364102076j,
     0.8115077004656673 - 0.02686291197798163j, 0.36614109519399796 - 0.33611075691211345j,
     0.36614109519399796 - 0.33611075691211345j, -0.8615837430134597 - 0.2783325943680073j],
]


@pytest.mark.parametrize("corners", OVERFLOWING)
def test_an_overflow_beyond_the_first_violation_is_not_raised(corners):
    corners = [1e308 * z for z in corners]
    kind, *_ = array_oracle.first_violation(corners)
    assert kind == "degenerate"
    assert first_violation(corners) == array_oracle.first_violation(corners)


# corners near +-1.7e308, where the first test to reach a length whose abs
# overflows is a degenerate, a cross and a touch test
HUGE = {
    ("degenerate", 4, 5): [0j, 1e308 - 1e308j, 1.7e308 + 1.7e308j, -1e308 - 1e308j,
                           -1.7e308 - 1.7e308j, -1e308 + 0j],
    ("cross", 0, 3): [1.7e308 + 1e308j, 1e308j, -1e308 + 1.7e308j, 1e308 + 1.7e308j,
                      1.7e308j, -1.7e308 - 1e308j],
    ("touch", 0, 1): [1.7e308j, 1.7e308 + 1.7e308j, 1.7e308 + 0j, 1.7e308 - 1.7e308j,
                      -1.7e308 - 1.7e308j, -1e308 + 1e308j],
}


@pytest.mark.parametrize("violation", HUGE, ids=[v[0] for v in HUGE])
def test_an_overflowing_length_fails_the_test_that_reads_it(violation):
    corners = HUGE[violation]
    with pytest.raises(OverflowError):
        array_oracle.first_violation(corners)
    assert first_violation(corners) == walk(corners) == violation
    for tol in TOLS:
        assert first_violation(corners, tol) == walk(corners, tol)


def test_first_violation_on_the_family_grids():
    # members and non-members of each family, where tests fail in every order
    fixed = {"i": (0.6j, 0.2 + 0.2j), "ii": (1.0, 0.35 + 0.05j), "iii": (), "cs": (1.0, 0.3 + 1j)}
    axis = np.linspace(-1.5, 2.0, 36)
    for kind, params in fixed.items():
        for x in axis:
            for y in axis:
                corners = hexagon_corners(kind, params, complex(x, y))
                for tol in (1e-9, 0.05):
                    assert first_violation(corners, tol) == array_oracle.first_violation(corners, tol)


def counting(monkeypatch, name):
    calls = []
    real = getattr(geom, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geom, name, counted)
    return calls


@pytest.mark.parametrize(
    "corners",
    [
        tuple(np.exp(2j * np.pi * np.arange(6) / 6)),
        hexagon_corners("iii", (), 0.05 + 0.22j)[::-1],
        hexagon_corners("cs", (1.0, 0.3 + 1j), 0.45 + 0.4j),
    ],
    ids=["regular", "iii", "cs"],
)
def test_a_simple_hexagon_works_out_each_check_once(monkeypatch, corners):
    distances = counting(monkeypatch, "_seg_point_gap")
    crossings = counting(monkeypatch, "_crosses")
    assert first_violation(corners) is None
    assert len(distances) <= 24
    assert len(crossings) <= 9
    assert array_oracle.first_violation(corners) is None


def test_a_rejected_loop_works_out_each_check_at_most_once(monkeypatch):
    distances = counting(monkeypatch, "_seg_point_gap")
    crossings = counting(monkeypatch, "_crosses")
    # random corners, all distinct, so that equal arguments mean one check
    for seed in range(30):
        for corners in loops(seed, "random"):
            distances.clear()
            crossings.clear()
            first_violation(corners, 0.3)
            assert len(distances) == len(set(distances))
            assert len(crossings) == len(set(crossings))


def random_specs(seed: int, count: int = 8):
    """Specs of simple hexagons: star-shaped corner loops around 0."""
    rng = np.random.default_rng(seed)
    while count:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 6))
        corners = rng.uniform(0.3, 2.0, 6) * np.exp(1j * angles)
        if first_violation(corners) is None:
            count -= 1
            yield spec_from_polygon(Polygon(tuple(corners)))


def family_specs(seed: int, count: int = 8):
    """Specs of the prototiles of the i, ii, iii and cs families, where the
    type conditions hold and the genericity tests run."""
    rng = np.random.default_rng(seed)
    fixed = {"i": (0.6j, 0.2 + 0.2j), "ii": (1.0, 0.35 + 0.05j), "iii": (), "cs": (1.0, 0.3 + 1j)}
    while count:
        kind = ("i", "ii", "iii", "cs")[int(rng.integers(4))]
        corners = hexagon_corners(kind, fixed[kind], complex(*rng.uniform(-1.0, 1.5, 2)))
        if first_violation(corners) is None:
            count -= 1
            p = Polygon(tuple(corners))
            yield spec_from_polygon(p if geom.signed_area(p) > 0 else p.reversed())


SYMMETRIC = [
    HexagonSpec((TWO_THIRDS_PI,) * 6, (1.0,) * 6),  # regular: every condition on every labeling
    HexagonSpec((TWO_THIRDS_PI,) * 6, (1.0, 2.0, 1.0, 2.0, 1.0, 2.0)),
    spec_from_polygon(Polygon((0j, 2 + 0j, 3 + 1j, 3 + 2j, 1 + 2j, 1j))),  # centrally symmetric
    spec_from_polygon(type_iii_minimal(0.05 + 0.22j).tiles[0]),
]


def same_report(spec, tol):
    # repr compares NaN fields and the sign of zeros as well
    return repr(classify(spec, tol)) == repr(array_oracle.classify(spec, tol))


@given(st.integers(0, 2**32 - 1))
def test_classify_matches_the_reference(seed):
    for spec in [*random_specs(seed), *family_specs(seed), *SYMMETRIC]:
        assert relabelings(spec.angles, spec.lengths) == array_oracle.relabelings(
            spec.angles, spec.lengths
        )
        for tol in (1e-9, 0.0, 1e-3, 0.3, math.nan):
            assert same_report(spec, tol), (spec, tol)


FAMILIES = {
    "type_i": (lambda z: type_i_minimal(0.6j, (0.2 + 0.2j, z)), "i", (0.6j, 0.2 + 0.2j)),
    "type_ii": (lambda z: type_ii_minimal(1.0, (0.35 + 0.05j, z)), "ii", (1.0, 0.35 + 0.05j)),
    "type_iii": (type_iii_minimal, "iii", ()),
    "central": (lambda z: central_minimal(1, 1j, z), "cs", (1.0 + 0j, 1j)),
    "strip": (
        lambda z: strip_tiling(1.2, 0.9, 0.15, (0.3 + 0.45j, complex(z.real, 0.525)), "+-"),
        "strip",
        (0.9 + 0.15j, 1.2j, 0.3 + 0.45j),
    ),
}


def outcome(build, z):
    """("raised", message, kind, i, j) or ("built", warned, prototile)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tiling = build(z)
        except ModuliViolation as e:
            return ("raised", str(e), e.kind, e.i, e.j)
    warned = any(issubclass(w.category, GenericityWarning) for w in caught)
    return ("built", warned, tiling)


@pytest.mark.parametrize("family", FAMILIES)
def test_constructors_decide_as_the_reference(family):
    build, key, fixed = FAMILIES[family]
    rng = np.random.default_rng(7)
    flag = "generic_" + family.removeprefix("type_")
    built = 0
    for _ in range(150):
        z = complex(*rng.uniform(-1.0, 1.5, 2))
        if key == "strip":
            z = complex(z.real, 0.525)
        got = outcome(build, z)
        violation = array_oracle.first_violation(hexagon_corners(key, fixed, z))
        if violation is not None:
            kind, i, j = violation
            message = f"hexagon is not simple: {kind} involving corners/sides {i} and {j}"
            assert got == ("raised", message, kind, i, j)
            continue
        assert got[0] == "built", got
        built += 1
        prototile = Polygon(hexagon_corners(key, fixed, z))
        if geom.signed_area(prototile) <= 0:
            prototile = prototile.reversed()
        report = array_oracle.classify(spec_from_polygon(prototile))
        assert got[1] == (not getattr(report, flag))
    assert built >= 10


# ModuliViolation texts at non-member parameters, as the walk reports them
PINNED = [
    ("type_i", 0.9 + 0.1j, "cross involving corners/sides 0 and 4"),
    ("type_i", -0.3 + 0.5j, "cross involving corners/sides 0 and 3"),
    ("type_ii", 0.9 + 0.4j, "cross involving corners/sides 0 and 2"),
    ("type_ii", 0.1 + 0.7j, "cross involving corners/sides 2 and 5"),
    ("type_ii", -0.625 + 1.875j, "touch involving corners/sides 0 and 1"),
    ("type_ii", 0.375 + 0.625j, "touch involving corners/sides 3 and 4"),
    ("type_iii", 0.5 + 0.5j, "cross involving corners/sides 2 and 5"),
    ("type_iii", 1.0 + 0j, "cross involving corners/sides 0 and 2"),
    ("central", 0.9 + 0.9j, "cross involving corners/sides 0 and 2"),
    ("central", 0.5 + 0.5j, "degenerate involving corners/sides 1 and 2"),
    ("central", -1 + 0.5j, "touch involving corners/sides 0 and 1"),
    ("central", -1 + 1.5j, "touch involving corners/sides 5 and 0"),
    ("strip", 0.9 + 0.525j, "cross involving corners/sides 0 and 4"),
    ("strip", -0.5 + 0.525j, "cross involving corners/sides 0 and 3"),
    # a side whose abs overflows fails its degenerate test
    ("type_i", 7e307 + 7e307j, "degenerate involving corners/sides 3 and 4"),
    ("type_i", -1.7e308 + 1.7e308j, "degenerate involving corners/sides 2 and 3"),
    ("type_ii", 1.7e308 - 1.7e308j, "degenerate involving corners/sides 1 and 2"),
    ("type_iii", 1.7e308 + 1.7e308j, "degenerate involving corners/sides 0 and 1"),
    ("central", 7e307 + 7e307j, "degenerate involving corners/sides 0 and 1"),
]


@pytest.mark.parametrize("family, z, text", PINNED)
def test_moduli_violation_text(family, z, text):
    with pytest.raises(ModuliViolation) as err:
        FAMILIES[family][0](z)
    assert str(err.value) == "hexagon is not simple: " + text
    kind, i, j = text.split()[0], int(text.split()[-3]), int(text.split()[-1])
    assert (err.value.kind, err.value.i, err.value.j) == (kind, i, j)
