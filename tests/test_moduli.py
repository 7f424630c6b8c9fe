"""Tests for moduli-region membership, sampling, and boundary geometry."""

from __future__ import annotations

import cmath
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hextorus.construct import (
    B_POINT,
    G_PRIME,
    GenericityWarning,
    ModuliViolation,
    R_POINT,
    central_minimal,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.moduli import (
    Arc,
    KINDS,
    RegionGrid,
    connected_components,
    membership,
    membership_mask,
    sample_region,
    type_iii_boundary,
)

warnings.simplefilter("ignore", GenericityWarning)

ARC_RADIUS = abs(R_POINT - B_POINT)


def star_oracle(z: complex) -> bool:
    """Analytic type iii region: three rotated copies of a two-circle lens."""
    for k in range(3):
        q = z * cmath.exp(-2j * math.pi * k / 3)
        if (
            abs(cmath.phase(q)) <= math.pi / 3 + 1e-15
            and abs(q - R_POINT) <= ARC_RADIUS + 1e-15
            and abs(q - B_POINT) <= ARC_RADIUS + 1e-15
        ):
            return True
    return False


FIXED = {
    "i": (0.6j, 0.2 + 0.2j),
    "ii": (1.0, 0.35 + 0.05j),
    "iii": None,
    "cs": (1.4 + 0.5j, 0.2 + 0.8j),
}


def constructor_succeeds(kind, fixed, free) -> bool:
    builders = {
        "i": lambda: type_i_minimal(fixed[0], (fixed[1], free)),
        "ii": lambda: type_ii_minimal(fixed[0], (fixed[1], free)),
        "iii": lambda: type_iii_minimal(free),
        "cs": lambda: central_minimal(fixed[0], fixed[1], free),
    }
    try:
        builders[kind]()
        return True
    except ModuliViolation:
        return False


class TestMembership:
    def test_type_iii_documented_points(self):
        assert membership("iii", None, 0j)
        assert not membership("iii", None, G_PRIME)

    def test_matches_constructor_success(self):
        rng = np.random.default_rng(20260814)
        for kind in KINDS:
            for _ in range(300):
                free = complex(rng.uniform(-1.2, 1.8), rng.uniform(-1.2, 1.2))
                assert membership(kind, FIXED[kind], free) == constructor_succeeds(
                    kind, FIXED[kind], free
                ), (kind, free)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mask_matches_scalar_membership(self, kind):
        """The array and the scalar simplicity paths agree cell for cell."""
        xs = np.linspace(-0.8, 1.4, 23)
        ys = np.linspace(-0.7, 0.9, 17)
        grid = xs[None, :] + 1j * ys[:, None]
        mask = membership_mask(kind, FIXED[kind], grid)
        assert mask.any() and not mask.all()
        for k in range(grid.size):
            z = grid.flat[k]
            assert mask.flat[k] == membership(kind, FIXED[kind], z), z

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_parameter_is_not_a_member(self, kind):
        for z in (complex(math.nan, 0.1), complex(0.1, math.inf)):
            assert not membership(kind, FIXED[kind], z)
            with np.errstate(invalid="ignore"):
                assert not membership_mask(kind, FIXED[kind], np.array([z]))[0]

    def test_flip_equivariance_on_rectangular_torus(self):
        rng = np.random.default_rng(5)
        tau = 0.8j
        for _ in range(500):
            i = complex(rng.uniform(-1, 2), rng.uniform(-1, 1.8))
            t = complex(rng.uniform(-1, 2), rng.uniform(-1, 1.8))
            flipped = membership("i", (tau, i.conjugate() + tau), t.conjugate() + tau)
            assert membership("i", (tau, i), t) == flipped

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            membership("iv", None, 0j)

    def test_type_iii_rejects_fixed_parameters(self):
        with pytest.raises(ValueError):
            membership("iii", (1.0,), 0j)


class TestSampleRegion:
    def test_deterministic_with_frozen_count(self):
        a = sample_region("iii", None, nx=128, ny=128)
        b = sample_region("iii", None, nx=128, ny=128)
        assert (a.bits == b.bits).all()
        assert int(a.bits.sum()) == 604

    def test_monotone_refinement(self):
        coarse = sample_region("iii", None, nx=64, ny=64)
        fine = sample_region("iii", None, nx=128, ny=128)
        kids = fine.bits.reshape(64, 2, 64, 2).transpose(0, 2, 1, 3).reshape(64, 64, 4)
        agree = (kids == kids[:, :, :1]).all(axis=2)
        assert not (agree & (kids[:, :, 0] != coarse.bits)).any()

    def test_agrees_with_analytic_star(self):
        g = sample_region("iii", None, nx=512, ny=512)
        centers = g.cell_centers()
        oracle = np.vectorize(star_oracle)(centers)
        disagree = oracle != g.bits
        if disagree.any():
            xmin, xmax, ymin, ymax = g.bbox
            diag = math.hypot((xmax - xmin) / g.nx, (ymax - ymin) / g.ny)
            arc_centers = [
                B_POINT * cmath.exp(2j * math.pi * k / 3) for k in range(3)
            ]
            zz = centers[disagree]
            dist = np.min(
                [np.abs(np.abs(zz - c) - ARC_RADIUS) for c in arc_centers], axis=0
            )
            assert float(dist.max()) <= diag

    def test_documented_region_zero_sample_nonempty(self):
        g = sample_region("i", (0.6j, 0.5 + 0.3j), nx=128, ny=128)
        assert g.bits.any()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RegionGrid((0, 1, 0, 1), 1, 4, np.zeros((4, 1), bool))
        with pytest.raises(ValueError):
            RegionGrid((1, 0, 0, 1), 4, 4, np.zeros((4, 4), bool))
        with pytest.raises(ValueError):
            RegionGrid((0, 1, 0, 1), 4, 4, np.zeros((4, 5), bool))

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_bbox_rejected(self, slot, value):
        bbox = [0.0, 1.0, 0.0, 1.0]
        bbox[slot] = value
        with pytest.raises(ValueError, match="bbox must be finite"):
            RegionGrid(tuple(bbox), 4, 4, np.zeros((4, 4), bool))
        with pytest.raises(ValueError, match="bbox must be finite"):
            sample_region("iii", (), bbox=tuple(bbox), nx=4, ny=4)

    @pytest.mark.parametrize(
        "fixed",
        [(complex(math.nan, 0), 1j), (1, complex(0, math.inf)), (complex(-math.inf, 0), 1j)],
    )
    def test_non_finite_cs_generator_rejected(self, fixed):
        with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
            membership("cs", fixed, 0.3 + 0.2j)
        with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
            membership_mask("cs", fixed, np.array([0.3 + 0.2j]))
        with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
            sample_region("cs", fixed, nx=4, ny=4)

    def test_cell_centers_layout(self):
        g = RegionGrid((0, 2, 0, 1), 4, 2, np.zeros((2, 4), bool))
        centers = g.cell_centers()
        assert centers.shape == (2, 4)
        assert centers[0, 0] == 0.25 + 0.25j
        assert centers[1, 3] == 1.75 + 0.75j


class TestConnectedComponents:
    def test_trivial_grids(self):
        empty = RegionGrid((0, 1, 0, 1), 8, 8, np.zeros((8, 8), bool))
        full = RegionGrid((0, 1, 0, 1), 8, 8, np.ones((8, 8), bool))
        assert connected_components(empty)[0] == 0
        assert connected_components(full)[0] == 1

    def test_four_connectivity(self):
        bits = np.zeros((4, 4), bool)
        bits[0, 0] = bits[1, 1] = True  # diagonal touch only
        g = RegionGrid((0, 1, 0, 1), 4, 4, bits)
        count, labels = connected_components(g)
        assert count == 2
        assert labels.shape == (4, 4)

    def test_type_iii_region_is_connected(self):
        g = sample_region("iii", None, nx=256, ny=256)
        assert connected_components(g)[0] == 1

    def test_labels_match_scipy_reference(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(42)
        grids = [
            sample_region("ii", (1.0, 0.2 + 0.2j), nx=512, ny=512).bits,
            sample_region("ii", (1.0, 0.35 - 0.1j), nx=512, ny=512).bits,
        ]
        for density in (0.3, 0.5, 0.6):
            grids += [rng.random((97, 131)) < density, rng.random((256, 256)) < density]
        checker = np.indices((9, 12)).sum(axis=0) % 2 == 0
        grids += [np.zeros((7, 5), bool), np.ones((7, 5), bool), checker]
        for bits in grids:
            ny, nx = bits.shape
            count, labels = connected_components(RegionGrid((0, 1, 0, 1), nx, ny, bits))
            ref_labels, ref_count = ndimage.label(bits)
            assert count == ref_count
            assert np.array_equal(labels, ref_labels)
        # diagonal neighbours of a checkerboard stay separate
        count, _ = connected_components(RegionGrid((0, 1, 0, 1), 12, 9, checker))
        assert count == int(checker.sum())


class TestTypeIiiBoundary:
    def test_three_arcs_with_shared_radius(self):
        arcs = type_iii_boundary(33)
        assert len(arcs) == 3
        for arc in arcs:
            assert isinstance(arc, Arc)
            assert abs(arc.radius - 1.0 / math.sqrt(3.0)) <= 1e-15
            assert len(arc.points) == 33

    def test_primary_arc_endpoints(self):
        primary = type_iii_boundary(9)[0]
        assert abs(primary.points[0] - G_PRIME) <= 1e-12
        assert abs(primary.points[-1] - R_POINT) <= 1e-12
        assert abs(primary.center - B_POINT) <= 1e-15

    def test_points_on_circle_centered_at_b(self):
        primary = type_iii_boundary(17)[0]
        for p in primary.points:
            assert abs(abs(p - B_POINT) - ARC_RADIUS) <= 1e-12

    def test_inscribed_angle_along_primary_arc(self):
        primary = type_iii_boundary(25)[0]
        for p in primary.points[1:-1]:
            u, v = G_PRIME - p, R_POINT - p
            angle = abs(cmath.phase(v / u))
            assert abs(angle - 5.0 * math.pi / 6.0) <= 1e-9

    def test_rotated_arcs_are_images_of_primary(self):
        arcs = type_iii_boundary(13)
        rot = cmath.exp(2j * math.pi / 3)
        for p, q in zip(arcs[0].points, arcs[1].points):
            assert abs(p * rot - q) <= 1e-12

    def test_membership_flips_across_arc(self):
        primary = type_iii_boundary(11)[0]
        theta = (primary.theta0 + primary.theta1) / 2
        for eps in (1e-4, 1e-3):
            inside = primary.center + (primary.radius - eps) * cmath.exp(1j * theta)
            outside = primary.center + (primary.radius + eps) * cmath.exp(1j * theta)
            assert membership("iii", None, inside)
            assert not membership("iii", None, outside)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            type_iii_boundary(1)


def test_import_does_not_load_scipy():
    code = "import sys, hextorus; print('scipy' in sys.modules)"
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_labelling_does_not_load_numpy_ma():
    code = (
        "import sys, numpy as np\n"
        "from hextorus.moduli import RegionGrid, connected_components\n"
        "bits = np.zeros((4, 5), dtype=bool)\n"
        "bits[:, 0] = bits[1:3, 2:] = True\n"
        "count, _ = connected_components(RegionGrid((0, 1, 0, 1), 5, 4, bits))\n"
        "print(count, 'numpy.ma' in sys.modules)"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["2", "False"]
