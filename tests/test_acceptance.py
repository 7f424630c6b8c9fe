"""Acceptance suite: one test per shipped guarantee, one line each under -v.

Every test is independent and seeded; the whole file runs in about half a
minute.  Frozen constants (region representatives, expected covering tables)
were produced by the documented constructions themselves and cross-checked
against independent oracles in the per-module test files.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from hextorus.construct import (
    G_PRIME,
    GenericityWarning,
    ModuliViolation,
    R_POINT,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.covering import build_cover, enumerate_coverings, is_minimal
from hextorus.embed import (
    CurveParams,
    IncompatibilityError,
    RectEmbedding,
    conformality,
    curve_invariants,
    drape_tiling,
    rect_torus_mesh,
)
from hextorus.lattice import (
    IDENTITY_MAP,
    UnimodularMap,
    enumerate_hnf,
    hnf_of_basis,
    sl2_reduce,
)
from hextorus.moduli import (
    connected_components,
    membership,
    sample_region,
    type_iii_boundary,
)
from hextorus.validate import validate

warnings.simplefilter("ignore", GenericityWarning)

TARGET_TORUS = 2j * math.sqrt(3.0)

# one representative parameter per occupied region of the i-plane for the
# two-tile family over tau = 0.6i, read off sampled occupancy grids; the
# second tuple lists one point inside each empty pocket between them
OCCUPIED_I_POSITIONS = (
    (0.5, 0.3),
    (0.45, 0.775),
    (0.5, 1.2),
    (0.45, -0.175),
    (0.5, -0.6),
    (-0.5, 0.3),
    (-0.45, 1.2),
    (-0.45, -0.6),
    (1.5, 0.3),
    (1.55, 0.775),
    (1.6, 1.2),
    (1.55, -0.175),
    (1.6, -0.6),
    (2.25, 0.3),
    (2.3, 1.05),
    (2.3, -0.45),
)
EMPTY_I_POSITIONS = (
    (-0.75, 0.65),
    (2.3, 0.675),
    (2.1, 1.35),
    (-0.75, -0.05),
    (2.3, -0.075),
    (2.1, -0.75),
)


def _sigma1(k: int) -> int:
    return sum(d for d in range(1, k + 1) if k % d == 0)


def _hnf_contains(h, xs, ys):
    """Vectorized membership of integer coordinates in Z*m + Z*(l + n*tau)."""
    ok = ys % h.n == 0
    q = np.where(ok, ys, 0) // h.n
    return ok & ((xs - q * h.l) % h.m == 0)


def _random_in_moduli(rng, kind: str, count: int):
    """Rejection-sample parameter draws until `count` constructions succeed."""
    made = []
    while len(made) < count:
        try:
            if kind == "i":
                tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.5))
                sigma = (
                    complex(rng.uniform(-0.8, 1.6), rng.uniform(-0.8, 1.6)),
                    complex(rng.uniform(-0.8, 1.6), rng.uniform(-0.8, 1.6)),
                )
                made.append(type_i_minimal(tau, sigma))
            elif kind == "ii":
                y = rng.uniform(0.4, 1.6)
                sigma = (
                    complex(rng.uniform(-0.3, 0.9), rng.uniform(-0.6, 0.6) * y),
                    complex(rng.uniform(-0.3, 0.9), rng.uniform(-0.6, 0.6) * y),
                )
                made.append(type_ii_minimal(y, sigma))
            elif kind == "iii":
                p = complex(rng.uniform(-0.7, 1.0), rng.uniform(-0.9, 0.9))
                made.append(type_iii_minimal(p))
            elif kind == "cs":
                alpha = complex(rng.uniform(0.8, 1.6), rng.uniform(-0.4, 0.5))
                beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.4))
                u = complex(rng.uniform(-1.0, 1.6), rng.uniform(-1.0, 1.6))
                made.append(central_minimal(alpha, beta, u))
            else:
                word = "".join(
                    rng.choice(["+", "-"]) for _ in range(rng.integers(1, 4))
                )
                h = rng.uniform(0.6, 1.6)
                w = rng.uniform(0.5, 1.4)
                shear = rng.uniform(-0.4, 0.4)
                i = complex(rng.uniform(-0.5, 1.0), rng.uniform(0.0, h / 2))
                t = complex(rng.uniform(-0.5, 1.0), (h / 2 + i.imag) / 2)
                made.append(strip_tiling(h, w, shear, (i, t), word))
        except ModuliViolation:
            continue
    return made


def test_criterion_01():
    """Covering tables of the 2*sqrt(3)i torus by 12 tiles are exact sets."""
    start = time.monotonic()
    found = {
        kind: {(h.m, h.n, h.l) for h, _ in enumerate_coverings(kind, TARGET_TORUS, 12)}
        for kind in ("i", "ii", "iii")
    }
    elapsed = time.monotonic() - start
    expected_i = (
        {(1, 6, 0), (2, 3, 0), (2, 3, 1)}
        | {(3, 2, l) for l in range(3)}
        | {(6, 1, l) for l in range(6)}
    )
    assert found["i"] == expected_i
    assert found["ii"] == {(1, 3, 0), (3, 1, 0)}
    assert found["iii"] == {(1, 4, 0)}
    assert elapsed < 10.0


def test_criterion_02():
    """1000 random in-moduli draws all validate with v=2f, e=3f, h=0."""
    rng = np.random.default_rng(20260814)
    counts = {"i": 250, "ii": 250, "iii": 200, "cs": 200, "strip": 100}
    assert sum(counts.values()) >= 1000
    for kind, count in counts.items():
        for tiling in _random_in_moduli(rng, kind, count):
            report = validate(tiling)
            c = report.census
            assert report.passed, (kind, report.failures)
            assert c.v == 2 * c.f and c.e == 3 * c.f and c.h == 0, (kind, c)


def test_criterion_03():
    """Minimal tile counts per family; covers multiply the count by m*n."""
    sigma = (0.2 + 0.2j, -0.15 + 0.25j)
    strip_sigma = (0.3 + 0.45j, 0.2 + 0.525j)
    built = [
        type_i_minimal(0.6j, sigma),
        type_ii_minimal(1.0, (0.35 + 0.05j, 0.12 + 0.15j)),
        type_iii_minimal(0.05 + 0.22j),
        central_minimal(1.4 + 0.5j, 0.2 + 0.8j, 0.6 + 0.4j),
        strip_tiling(1.2, 0.9, 0.15, strip_sigma, "+-"),
        strip_tiling(1.2, 0.9, 0.15, strip_sigma, "++-"),
    ]
    for tiling, tiles in zip(built, (2, 4, 3, 1, 2 * (1 + 1), 2 * (2 + 1))):
        assert len(tiling.tiles) == tiles
        assert is_minimal(tiling)
    for base in built:
        for h in enumerate_hnf(4):
            cover = build_cover(base, h)
            assert len(cover.tiles) == len(base.tiles) * h.m * h.n


def test_criterion_04():
    """Star-center prototile is regular; boundary arcs carry the 5pi/6 angle."""
    tile = type_iii_minimal(0j).tiles[0]
    for k in range(6):
        side = tile.corners[(k + 1) % 6] - tile.corners[k]
        assert abs(abs(side) - 1.0 / 3.0) <= 1e-12
        before = tile.corners[(k - 1) % 6] - tile.corners[k]
        after = tile.corners[(k + 1) % 6] - tile.corners[k]
        assert abs(abs(cmath.phase(after / before)) - 2 * math.pi / 3) <= 1e-12
    arc = type_iii_boundary(41)[0]
    for p in arc.points[1:-1]:
        angle = abs(cmath.phase((G_PRIME - p) / (R_POINT - p)))
        assert abs(angle - 5 * math.pi / 6) <= 1e-9
        unit = (p - arc.center) / abs(p - arc.center)
        assert membership("iii", None, arc.center + unit * (arc.radius - 1e-4))
        assert not membership("iii", None, arc.center + unit * (arc.radius + 1e-4))


def test_criterion_05():
    """Conjugate-and-shift flip preserves two-tile membership, 10^4 draws."""
    rng = np.random.default_rng(20260814)
    mismatches = 0
    for _ in range(10_000):
        tau = 1j * rng.uniform(0.4, 1.8)
        i = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0))
        t = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0))
        lhs = membership("i", (tau, i), t)
        rhs = membership("i", (tau, i.conjugate() + tau), t.conjugate() + tau)
        mismatches += lhs != rhs
    assert mismatches == 0


def test_criterion_06():
    """Occupied and empty regions of the i-plane at tau=0.6i, 256^2 grids."""
    for x, y in OCCUPIED_I_POSITIONS:
        grid = sample_region("i", (0.6j, complex(x, y)), nx=256, ny=256)
        assert grid.bits.any(), (x, y)
    for x, y in EMPTY_I_POSITIONS:
        grid = sample_region("i", (0.6j, complex(x, y)), nx=256, ny=256)
        assert not grid.bits.any(), (x, y)


def test_criterion_07():
    """Four-tile sigma regions: one component, then two, at 512^2 grids."""
    one = sample_region("ii", (1.0, 0.2 + 0.2j), nx=512, ny=512)
    two = sample_region("ii", (1.0, 0.35 - 0.1j), nx=512, ny=512)
    assert connected_components(one)[0] == 1
    assert connected_components(two)[0] == 2


def test_criterion_08():
    """HNF enumeration equals brute-forced sublattices; basis agrees with a
    window-comparison oracle."""
    for k in range(1, 25):
        triples = enumerate_hnf(k)
        assert len(triples) == _sigma1(k)
        assert len({(h.m, h.n, h.l) for h in triples}) == len(triples)
        for h in triples:
            assert h.m >= 1 and h.n >= 1 and h.m * h.n == k and 0 <= h.l < h.m
        # brute force: every integer basis with |det| = k spans exactly one
        # of the enumerated sublattices, and each sublattice is spanned
        a, b, c, d = np.indices((k + 1,) * 4).reshape(4, -1)
        keep = np.abs(a * d - b * c) == k
        a, b, c, d = a[keep], b[keep], c[keep], d[keep]
        matches = np.zeros(a.shape, dtype=int)
        for h in triples:
            mask = _hnf_contains(h, a, b) & _hnf_contains(h, c, d)
            assert mask.any(), (k, h)
            matches += mask
        assert (matches == 1).all(), k

    rng = np.random.default_rng(8)
    span = np.arange(-21, 22)
    xs, ys = np.meshgrid(span, span)
    checked = 0
    while checked < 1000:
        a, b, c, d = (int(v) for v in rng.integers(-20, 21, size=4))
        det = a * d - b * c
        if det == 0:
            continue
        h = hnf_of_basis((a, b, c, d))
        assert h.m * h.n == abs(det) and 0 <= h.l < h.m
        # identical membership bitmaps over the window
        in_basis = ((xs * d - ys * c) % det == 0) & ((a * ys - b * xs) % det == 0)
        assert (in_basis == _hnf_contains(h, xs, ys)).all(), (a, b, c, d, h)
        # mutual generator containment pins equality beyond the window
        assert _hnf_contains(h, np.array([a, c]), np.array([b, d])).all()
        assert (h.m * d) % det == 0 and (b * h.m) % det == 0
        assert (h.l * d - h.n * c) % det == 0 and (a * h.n - b * h.l) % det == 0
        checked += 1


def test_criterion_09():
    """Reduction is constant on unimodular orbits, 10^3 cases within 1e-9."""
    rng = np.random.default_rng(9)
    gens = (
        UnimodularMap(1, 0, 1, 1),
        UnimodularMap(1, 0, -1, 1),
        UnimodularMap(0, 1, -1, 0),
    )
    for _ in range(1000):
        tau = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 4.0))
        mu = IDENTITY_MAP
        for _ in range(int(rng.integers(0, 12))):
            nxt = mu.compose(gens[int(rng.integers(0, 3))])
            if max(abs(v) for v in (nxt.a, nxt.b, nxt.c, nxt.d)) > 50:
                break
            mu = nxt
        reduced, _ = sl2_reduce(tau)
        mapped, _ = sl2_reduce(mu(tau))
        assert abs(reduced - mapped) <= 1e-9, (tau, mu)


def test_criterion_10():
    """Embeddings: conformal meshes, circle-case moduli, drape refusal."""
    c64 = conformality(rect_torus_mesh(1.0, 64, 64))
    c128 = conformality(rect_torus_mesh(1.0, 128, 128))
    c256 = conformality(rect_torus_mesh(1.0, 256, 256))
    assert c64 < 1e-3
    # each halving of the cell size must cut the defect to a quarter or less
    assert c64 / c128 >= 3.5
    assert c128 / c256 >= 3.5
    for a in (0.5, 1.0, math.pi / 2):
        _, _, modulus = curve_invariants(CurveParams(a, 0.0, 1))
        expected = complex(1.0 - math.cos(a), math.sin(a)) / 2.0
        assert abs(modulus - expected) <= 1e-6
    tiling = type_i_minimal(0.3 + 2j, (0.2 + 0.2j, -0.15 + 0.25j))
    with pytest.raises(IncompatibilityError):
        drape_tiling(tiling, RectEmbedding(2.0), surface_res=48)
