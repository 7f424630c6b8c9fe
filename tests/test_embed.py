"""Tests for conformal torus embeddings, meshing, and tiling drapes."""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hextorus.construct import GenericityWarning, type_i_minimal, type_iii_minimal
from hextorus.embed import (
    CurveParams,
    HopfEmbedding,
    IncompatibilityError,
    Mesh3,
    OMEGA3_CURVE,
    PoleError,
    RectEmbedding,
    conformality,
    curve_invariants,
    drape_tiling,
    hopf_torus_mesh,
    rect_embed,
    rect_torus_mesh,
)
from hextorus.lattice import sl2_reduce

warnings.simplefilter("ignore", GenericityWarning)

SQRT2 = math.sqrt(2.0)


def implicit_residual(a: float, points: np.ndarray) -> np.ndarray:
    """Residual of the revolution-torus equation satisfied by rect_embed."""
    rings = np.hypot(points[..., 0], points[..., 1])
    return np.abs(
        (rings - math.sqrt(a * a + 1.0)) ** 2 + points[..., 2] ** 2 - a * a
    )


def circle_modulus(a: float) -> complex:
    return complex(1.0 - math.cos(a), math.sin(a)) / 2.0


class TestRectEmbed:
    def test_frozen_values(self):
        p = rect_embed(1.0, 0.0, 0.0)
        assert np.allclose(p, [1.0 / (1.0 + SQRT2), 0.0, 0.0], atol=1e-15)
        q = rect_embed(1.0, 0.5, 0.5)
        assert abs(q[0] + (SQRT2 + 1.0)) <= 1e-12
        assert abs(q[1]) <= 1e-12 and abs(q[2]) <= 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for a in (0.5, 1.0, 2.0):
            u = rng.uniform(-1, 1, 64)
            v = rng.uniform(-1, 1, 64)
            assert np.allclose(rect_embed(a, u, v), rect_embed(a, u + 1, v), atol=1e-12)
            assert np.allclose(rect_embed(a, u, v), rect_embed(a, u, v + a), atol=1e-12)

    def test_image_lies_on_revolution_torus(self):
        rng = np.random.default_rng(4)
        for a in (0.5, 1.0, 2.0):
            u = rng.uniform(0, 1, 256)
            v = rng.uniform(0, a, 256)
            assert implicit_residual(a, rect_embed(a, u, v)).max() <= 1e-9

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            rect_embed(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            rect_embed(-1.0, 0.1, 0.1)

    def test_broadcasting(self):
        u = np.zeros((5, 1))
        v = np.zeros((1, 7))
        assert rect_embed(1.0, u, v).shape == (5, 7, 3)


class TestCurveParams:
    def test_pole_touching_curves_rejected(self):
        with pytest.raises(ValueError):
            CurveParams(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            CurveParams(2.0, math.pi - 2.0, 1)
        with pytest.raises(ValueError):
            CurveParams(1.0, 0.5, 0)

    def test_colatitude_evaluation(self):
        curve = CurveParams(1.0, 0.3, 3)
        theta = np.linspace(0, 2 * math.pi, 13)
        assert np.allclose(curve.colatitude(theta), 1.0 + 0.3 * np.sin(3 * theta))


class TestCurveInvariants:
    def test_circle_closed_forms(self):
        for a in (0.5, 1.0, math.pi / 2.0):
            length, area, modulus = curve_invariants(CurveParams(a, 0.0, 1))
            assert abs(length - 2.0 * math.pi * math.sin(a)) <= 1e-9
            assert abs(area - 2.0 * math.pi * (1.0 - math.cos(a))) <= 1e-9
            assert abs(modulus - circle_modulus(a)) <= 1e-9

    def test_equator_modulus(self):
        _, _, modulus = curve_invariants(CurveParams(math.pi / 2.0, 0.0, 1))
        assert abs(modulus - (1.0 + 1.0j) / 2.0) <= 1e-12

    def test_amplitude_continuity_at_zero(self):
        _, _, flat = curve_invariants(CurveParams(1.0, 0.0, 2))
        _, _, tiny = curve_invariants(CurveParams(1.0, 1e-6, 2))
        assert abs(tiny - flat) <= 1e-9

    def test_omega3_curve_reduces_to_hexagonal_point(self):
        length, area, modulus = curve_invariants(OMEGA3_CURVE)
        assert abs(area - 2.0 * math.pi) <= 1e-9
        assert abs(length - 2.0 * math.pi * math.sqrt(3.0)) <= 1e-9
        reduced, _ = sl2_reduce(modulus)
        assert abs(reduced - complex(-0.5, math.sqrt(3.0) / 2.0)) <= 1e-9

    def test_wavy_curve_has_oblique_modulus(self):
        _, _, modulus = curve_invariants(CurveParams(1.0, 0.3, 3))
        reduced, _ = sl2_reduce(modulus)
        assert abs(reduced.real) > 0.1


class TestMesh3:
    def test_shape_validation(self):
        verts = np.zeros((4, 3))
        quads = np.array([[0, 1, 2, 3]])
        uv = np.zeros((4, 2))
        with pytest.raises(ValueError):
            Mesh3(np.zeros((4, 2)), quads, np.zeros(1, int), uv)
        with pytest.raises(ValueError):
            Mesh3(verts, np.array([[0, 1, 2]]), np.zeros(1, int), uv)
        with pytest.raises(ValueError):
            Mesh3(verts, quads, np.zeros(2, int), uv)
        with pytest.raises(ValueError):
            Mesh3(verts, quads, np.zeros(1, int), np.zeros((3, 2)))

    def test_degenerate_quad_rejected(self):
        verts = np.zeros((4, 3))  # all corners coincide
        with pytest.raises(ValueError):
            Mesh3(verts, np.array([[0, 1, 2, 3]]), np.zeros(1, int), np.zeros((4, 2)))

    def test_out_of_range_index_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        with pytest.raises(ValueError):
            Mesh3(verts, np.array([[0, 1, 2, 4]]), np.zeros(1, int), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], float)
        verts[4, 2] = bad  # a vertex no quad uses
        with pytest.raises(ValueError, match="vertices must be finite"):
            Mesh3(verts, np.array([[0, 1, 2, 3]]), np.zeros(1, int), np.zeros((5, 2)))

    def test_overflowing_quad_area_rejected_without_warnings(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mesh quad areas overflow"):
                Mesh3(verts, np.array([[0, 1, 2, 3]]), np.zeros(1, int), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_uv_rejected(self, bad):
        mesh = rect_torus_mesh(1.0, 8, 8)
        uv = mesh.uv.copy()
        uv[40, 1] = bad
        with pytest.raises(ValueError, match="uv must be finite"):
            Mesh3(mesh.vertices, mesh.quads, mesh.groups, uv)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_polyline_rejected(self, bad):
        mesh = rect_torus_mesh(1.0, 8, 8)
        line = np.zeros((3, 3))
        line[1, 0] = bad
        with pytest.raises(ValueError, match="polylines must be finite"):
            Mesh3(mesh.vertices, mesh.quads, mesh.groups, mesh.uv, (np.ones((2, 3)), line))


class TestMeshBuilders:
    def test_rect_mesh_shape(self):
        mesh = rect_torus_mesh(1.0, 16, 12)
        assert mesh.vertices.shape == (17 * 13, 3)
        assert mesh.quads.shape == (16 * 12, 4)
        assert mesh.uv.shape == (17 * 13, 2)
        assert implicit_residual(1.0, mesh.vertices).max() <= 1e-12

    def test_rect_mesh_resolution_floor(self):
        with pytest.raises(ValueError):
            rect_torus_mesh(1.0, 4, 16)

    def test_hopf_mesh_modulus_matches_invariants(self):
        mesh, modulus = hopf_torus_mesh(CurveParams(1.0, 0.0, 1), 16, 16)
        assert mesh.vertices.shape == (17 * 17, 3)
        assert abs(modulus - circle_modulus(1.0)) <= 1e-9

    def test_hopf_vertices_respect_fiber_curve(self):
        # invert the stereographic projection, apply the fiber map, and
        # compare the colatitude with the defining curve
        for curve in (CurveParams(1.0, 0.3, 3), OMEGA3_CURVE):
            mesh, _ = hopf_torus_mesh(curve, 32, 32)
            p = mesh.vertices
            norms = (p**2).sum(axis=1)
            q = np.stack(
                [2 * p[:, 0], 2 * p[:, 1], 2 * p[:, 2], norms - 1], axis=1
            ) / (norms + 1)[:, None]
            assert np.abs(np.linalg.norm(q, axis=1) - 1).max() <= 1e-12
            z1 = q[:, 0] + 1j * q[:, 1]
            z2 = q[:, 2] + 1j * q[:, 3]
            height = np.abs(z1) ** 2 - np.abs(z2) ** 2
            fiber_angle = np.angle(2 * z1 * np.conj(z2))
            colat = np.arccos(np.clip(height, -1, 1))
            assert np.abs(colat - curve.colatitude(fiber_angle)).max() <= 1e-9

    def test_near_pole_projection_raises(self):
        with pytest.raises(PoleError):
            hopf_torus_mesh(CurveParams(3.14, 0.0, 1), 64, 64)


class TestConformality:
    def test_rect_embedding_is_conformal(self):
        assert conformality(rect_torus_mesh(1.0, 64, 64)) < 1e-3
        assert conformality(rect_torus_mesh(0.5, 64, 64)) < 1e-3

    def test_estimate_quarters_under_refinement(self):
        coarse = conformality(rect_torus_mesh(1.0, 64, 64))
        fine = conformality(rect_torus_mesh(1.0, 128, 128))
        assert coarse / fine >= 3.5

    def test_hopf_circle_is_conformal(self):
        mesh, _ = hopf_torus_mesh(CurveParams(1.0, 0.0, 1), 64, 64)
        assert conformality(mesh) < 1e-3

    def test_sheared_chart_detected(self):
        mesh = rect_torus_mesh(1.0, 32, 32)
        sheared = np.stack(
            [mesh.uv[:, 0] + 0.3 * mesh.uv[:, 1], mesh.uv[:, 1]], axis=1
        )
        bad = Mesh3(mesh.vertices, mesh.quads, mesh.groups, sheared)
        assert conformality(bad) > 0.1


class TestEmbeddingTargets:
    def test_rect_modulus(self):
        assert RectEmbedding(0.7).modulus == 0.7j
        with pytest.raises(ValueError):
            RectEmbedding(0.0)

    def test_hopf_modulus(self):
        target = HopfEmbedding(CurveParams(1.0, 0.0, 1))
        assert abs(target.modulus - circle_modulus(1.0)) <= 1e-9


class TestDrapeTiling:
    def sigma(self):
        return (0.2 + 0.2j, -0.15 + 0.25j)

    def test_rect_drape_structure(self):
        tiling = type_i_minimal(2j, self.sigma())
        mesh = drape_tiling(tiling, RectEmbedding(2.0), surface_res=48)
        assert sorted(set(mesh.groups.tolist())) == [0, 1]
        assert len(mesh.polylines) == 2
        for loop in mesh.polylines:
            assert len(loop) == 1 + 6 * 32
        assert implicit_residual(2.0, mesh.vertices).max() <= 1e-9
        assert implicit_residual(2.0, np.concatenate(mesh.polylines)).max() <= 1e-9

    def test_equivalent_modulus_accepted_via_mobius(self):
        tiling = type_i_minimal(1 + 2j, self.sigma())
        mesh = drape_tiling(tiling, RectEmbedding(2.0), surface_res=48)
        assert sorted(set(mesh.groups.tolist())) == [0, 1]

    def test_mismatched_modulus_refused_with_both_values(self):
        tiling = type_i_minimal(0.3 + 2j, self.sigma())
        with pytest.raises(IncompatibilityError) as info:
            drape_tiling(tiling, RectEmbedding(2.0), surface_res=48)
        message = str(info.value)
        assert "0.3+2j" in message
        assert "2j" in message
        assert "reduces to" in message and "embedding" in message

    def test_hopf_drape_structure(self):
        tiling = type_iii_minimal(0.05 + 0.22j)
        mesh = drape_tiling(tiling, HopfEmbedding(OMEGA3_CURVE), surface_res=48)
        assert sorted(set(mesh.groups.tolist())) == [0, 1, 2]
        assert len(mesh.polylines) == 3
        assert len(mesh.vertices) == 49 * 49

    def test_subdivision_floor(self):
        tiling = type_i_minimal(2j, self.sigma())
        with pytest.raises(ValueError):
            drape_tiling(tiling, RectEmbedding(2.0), subdivisions=16)

    def test_invalid_tiling_refused(self):
        base = type_i_minimal(2j, self.sigma())
        broken = SimpleNamespace(
            alpha=base.alpha,
            beta=base.beta,
            tiles=(base.tiles[0], base.tiles[0].translated(0.5)),
            modulus=base.modulus,
        )
        with pytest.raises(ValueError, match="validate"):
            drape_tiling(broken, RectEmbedding(2.0), surface_res=48)
