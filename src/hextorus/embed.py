"""Conformal drawings of flat torus tilings in R3.

Two surface families are provided. rect_embed is a closed-form conformal
embedding of the rectangular torus of modulus ia as a torus of revolution.
hopf_torus_mesh lifts a closed curve on the 2-sphere to its Hopf-fiber torus
in the 3-sphere and projects stereographically, which reaches non-rectangular
moduli. drape_tiling pulls a validated tiling through the flat coordinates of
either surface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._np import np
from .lattice import LatticeFrame, UnimodularMap, check_height, sl2_reduce
from .validate import validate


class AccuracyError(ArithmeticError):
    """Quadrature failed to converge to the requested tolerance."""


class PoleError(RuntimeError):
    """The surface passes too close to the stereographic projection pole."""


class IncompatibilityError(ValueError):
    """Tiling and embedding moduli are not lattice-isometric."""


def rect_embed(a: float, u, v) -> np.ndarray:
    """Conformal embedding of the modulus-ia torus, periods (1, a) in (u, v).

    The image is the torus of revolution (sqrt(x^2+y^2) - sqrt(a^2+1))^2 +
    z^2 = a^2; the pullback metric is (2 pi r)^2 (du^2 + dv^2).
    """
    a = check_height(a, "a")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    phi = 2.0 * np.pi * v / a
    denom = math.sqrt(a * a + 1.0) + a * np.cos(phi)
    x = np.cos(2.0 * np.pi * u) / denom
    y = np.sin(2.0 * np.pi * u) / denom
    z = a * np.sin(phi) / denom
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


@dataclass(frozen=True)
class CurveParams:
    """Colatitude curve alpha(theta) = a + b sin(k theta) on the 2-sphere."""

    a: float
    b: float
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("curve parameters must be finite")
        if not (0.0 < self.a - abs(self.b) and self.a + abs(self.b) < math.pi):
            raise ValueError(
                "curve must stay strictly between the poles: "
                f"need 0 < a-|b| and a+|b| < pi, got a={self.a}, b={self.b}"
            )

    def colatitude(self, theta) -> np.ndarray:
        return self.a + self.b * np.sin(self.k * np.asarray(theta, dtype=float))

    def colatitude_rate(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return self.b * self.k * np.cos(self.k * theta)


# Curve whose Hopf torus has modulus lattice-isometric to omega3; the
# amplitude solves L(pi/2, b, 3) = 2 pi sqrt(3) (enclosed area is exactly
# 2 pi by the odd symmetry of sin(b sin 3 theta)).
OMEGA3_CURVE = CurveParams(a=math.pi / 2.0, b=0.7634380089627042, k=3)

_MAX_QUAD_SAMPLES = 1 << 22


def _periodic_means(curve: CurveParams, n: int) -> tuple[float, float]:
    theta = np.arange(n) * (2.0 * np.pi / n)
    alpha = curve.colatitude(theta)
    speed = np.hypot(curve.colatitude_rate(theta), np.sin(alpha))
    length = float(speed.mean()) * 2.0 * np.pi
    area = float((1.0 - np.cos(alpha)).mean()) * 2.0 * np.pi
    return length, area


def curve_invariants(curve: CurveParams) -> tuple[float, float, complex]:
    """Length L, enclosed area A (from the north pole), modulus (A+iL)/(4 pi).

    Periodic trapezoid quadrature, refined until the relative change of both
    integrals drops below 1e-10.
    """
    n = 256  # the first quadrature, doubled until it converges
    length, area = _periodic_means(curve, n)
    while True:
        n *= 2
        if n > _MAX_QUAD_SAMPLES:
            raise AccuracyError(
                f"quadrature did not converge below 1e-10 by n={n // 2}"
            )
        refined = _periodic_means(curve, n)
        dl = abs(refined[0] - length) / max(1.0, abs(refined[0]))
        da = abs(refined[1] - area) / max(1.0, abs(refined[1]))
        length, area = refined
        if dl <= 1e-10 and da <= 1e-10:
            break
    return length, area, complex(area, length) / (4.0 * math.pi)


class _HopfChart:
    """Flat coordinates and R3 realization of the Hopf torus over a curve.

    The lift of gamma(theta) = (sin(alpha) e^{i theta}, cos(alpha)) is
    F(theta, t) = e^{it} (cos(alpha/2) e^{i theta/2},
    sin(alpha/2) e^{-i theta/2}); the flat coordinate is zeta = -eta + i s
    with s = (1/2) int sqrt(alpha'^2 + sin^2 alpha) and eta = t +
    (1/2) int cos alpha, giving the period lattice (2 pi, (A + i L)/2).
    """

    TABLE = 1 << 14

    def __init__(self, curve: CurveParams) -> None:
        self.curve = curve
        self.length, self.area, self.modulus = curve_invariants(curve)
        n = self.TABLE
        theta = np.arange(n + 1) * (2.0 * np.pi / n)
        alpha = curve.colatitude(theta)
        speed = np.hypot(curve.colatitude_rate(theta), np.sin(alpha))
        dtheta = 2.0 * np.pi / n
        self._theta = theta
        self._s = 0.5 * _cumtrapz(speed, dtheta)
        self._c = _cumtrapz(np.cos(alpha), dtheta)
        # One full turn advances s by L/2 and int(cos alpha) by 2 pi - A.
        self._s_period = self.length / 2.0
        self._c_period = 2.0 * np.pi - self.area

    def zeta(self, theta, t) -> np.ndarray:
        c = _periodic_interp(theta, 2.0 * np.pi, self._theta, self._c, self._c_period)
        s = _periodic_interp(theta, 2.0 * np.pi, self._theta, self._s, self._s_period)
        return -(np.asarray(t, dtype=float) + 0.5 * c) + 1j * s

    def theta_t_of_zeta(self, zeta) -> tuple[np.ndarray, np.ndarray]:
        zeta = np.asarray(zeta, dtype=complex)
        theta = _periodic_interp(zeta.imag, self._s_period, self._s, self._theta, 2.0 * np.pi)
        c = _periodic_interp(theta, 2.0 * np.pi, self._theta, self._c, self._c_period)
        return theta, -zeta.real - 0.5 * c

    def lift(self, theta, t) -> np.ndarray:
        """Points of S3 in R4 coordinates (Re z1, Im z1, Re z2, Im z2)."""
        theta = np.asarray(theta, dtype=float)
        t = np.asarray(t, dtype=float)
        half = 0.5 * self.curve.colatitude(theta)
        z1 = np.cos(half) * np.exp(1j * (t + 0.5 * theta))
        z2 = np.sin(half) * np.exp(1j * (t - 0.5 * theta))
        return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)

    def project(self, theta, t) -> np.ndarray:
        """Stereographic projection from (0, 0, 0, 1) to R3."""
        p4 = self.lift(theta, t)
        denom = 1.0 - p4[..., 3]
        if np.min(denom) < 1e-6:
            raise PoleError(
                "surface passes within 1e-6 of the projection pole; "
                "rotate the fiber phase (shift t by pi/2) and retry"
            )
        return p4[..., :3] / denom[..., None]


def _periodic_interp(x, period: float, xp: np.ndarray, fp: np.ndarray, rise: float):
    """Interpolate the table fp(xp), which spans one period of x, at x; each
    whole period that x lies past the table adds rise to the value."""
    x = np.asarray(x, dtype=float)
    winds = np.floor(x / period)
    return np.interp(x - winds * period, xp, fp) + winds * rise


def _cumtrapz(values: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(values)
    np.cumsum((values[1:] + values[:-1]) * (0.5 * dx), out=out[1:])
    return out


@functools.lru_cache(maxsize=32)
def _chart(curve: CurveParams) -> _HopfChart:
    return _HopfChart(curve)


@dataclass(frozen=True)
class Mesh3:
    """Quad mesh in R3 with flat-coordinate preimages per vertex.

    Coordinates must be finite and no quad may be degenerate.
    """

    vertices: np.ndarray  # (nv, 3)
    quads: np.ndarray  # (nq, 4) vertex indices
    groups: np.ndarray  # (nq,) tile id per quad
    uv: np.ndarray  # (nv, 2) flat coordinates
    polylines: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        vertices = np.asarray(self.vertices, dtype=float)
        quads = np.asarray(self.quads, dtype=int)
        groups = np.asarray(self.groups, dtype=int)
        uv = np.asarray(self.uv, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be (nv, 3)")
        if quads.ndim != 2 or quads.shape[1] != 4:
            raise ValueError("quads must be (nq, 4)")
        if groups.shape != (quads.shape[0],):
            raise ValueError("need one group id per quad")
        if uv.shape != (vertices.shape[0], 2):
            raise ValueError("need one uv pair per vertex")
        if quads.size and (quads.min() < 0 or quads.max() >= len(vertices)):
            raise ValueError("quad index out of range")
        polylines = tuple(np.asarray(p, dtype=float) for p in self.polylines)
        for p in polylines:
            if p.ndim != 2 or p.shape[1] != 3:
                raise ValueError("polylines must be (k, 3) arrays")
        for name, arrays in (("vertices", (vertices,)), ("uv", (uv,)), ("polylines", polylines)):
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError(f"mesh {name} must be finite")
        corners = vertices[quads]
        # finite coordinates near the float limit overflow here; their area
        # is refused below instead of leaking numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            area = 0.5 * (
                np.linalg.norm(
                    np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]),
                    axis=-1,
                )
                + np.linalg.norm(
                    np.cross(corners[:, 2] - corners[:, 0], corners[:, 3] - corners[:, 0]),
                    axis=-1,
                )
            )
        if not np.isfinite(area).all():
            raise ValueError("mesh quad areas overflow")
        if quads.size and np.min(area) <= 1e-12:
            raise ValueError("degenerate quad in mesh")
        for name, arr in zip(("vertices", "quads", "groups", "uv"), (vertices, quads, groups, uv)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "polylines", polylines)


@functools.lru_cache(maxsize=8)
def _grid_quads(n1: int, m1: int) -> np.ndarray:
    """Read-only quads of an n1 x m1 vertex grid numbered row by row.

    Quad (i, j) runs (i, j), (i+1, j), (i+1, j+1), (i, j+1), and the quads
    follow row by row too. Every mesh the package builds has this layout,
    the only one conformality measures.
    """
    idx = np.arange(n1 * m1).reshape(n1, m1)
    corners = (idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:])
    quads = np.stack(corners, axis=-1).reshape(-1, 4)
    quads.setflags(write=False)
    return quads


def _grid_mesh(
    points: np.ndarray,
    uv: np.ndarray,
    groups: np.ndarray | None = None,
    polylines: tuple[np.ndarray, ...] = (),
) -> Mesh3:
    """Assemble an (n+1) x (m+1) vertex grid into a quad mesh.

    The quads are the shared read-only _grid_quads, and the mesh is checked
    once, with its polylines.
    """
    n1, m1 = points.shape[:2]
    quads = _grid_quads(n1, m1)
    if groups is None:
        groups = np.zeros(len(quads), dtype=int)
    return Mesh3(points.reshape(-1, 3), quads, groups, uv.reshape(-1, 2), polylines)


def _rect_v_samples(a: float, nv: int) -> np.ndarray:
    """One period of v sampled at equal tube angle of the revolution torus.

    The tube angle psi and the flat coordinate phi = 2 pi v / a are related
    by tan(psi/2) tan(phi/2) = sqrt(a^2+1) + a; equal-psi sampling keeps the
    geometric step uniform around the meridian, which makes discrete
    conformality estimates clean at the inner and outer rims alike.
    """
    s = math.sqrt(a * a + 1.0)
    half = np.linspace(0.0, np.pi, nv + 1)
    phi = 2.0 * np.arctan2((s + a) * np.cos(half), np.sin(half))
    return (a * phi / (2.0 * np.pi))[::-1]


def _rect_surface(a: float, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex grid of rect_embed over one fundamental rectangle and its (u, v)."""
    u = np.linspace(0.0, 1.0, nu + 1)
    v = _rect_v_samples(a, nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return rect_embed(a, uu, vv), np.stack([uu, vv], axis=-1)


def rect_torus_mesh(a: float, nu: int, nv: int) -> Mesh3:
    """Quad mesh of rect_embed over one fundamental rectangle of T_ia.

    Uniform in u; v runs over one period [-a/2, a/2] at equal tube angle.
    The uv attribute records the true flat coordinates.
    """
    if nu < 8 or nv < 8:
        raise ValueError("resolutions must be at least 8")
    return _grid_mesh(*_rect_surface(float(a), nu, nv))


def _hopf_surface(
    chart: _HopfChart, n_theta: int, n_phi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex grid of the Hopf torus over (theta, t) and its flat zeta as (re, im)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta + 1)
    t = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
    tt_theta, tt_t = np.meshgrid(theta, t, indexing="ij")
    points = chart.project(tt_theta, tt_t)
    zeta = chart.zeta(tt_theta, tt_t)
    return points, np.stack([zeta.real, zeta.imag], axis=-1)


def hopf_torus_mesh(
    curve: CurveParams, n_theta: int, n_phi: int
) -> tuple[Mesh3, complex]:
    """Hopf torus over the curve, as a quad mesh plus its modulus.

    Flat coordinates zeta are recorded per vertex; the seam vertices at
    theta = 2 pi and t = 2 pi are duplicated rather than stitched.
    """
    if n_theta < 8 or n_phi < 8:
        raise ValueError("resolutions must be at least 8")
    chart = _chart(curve)
    return _grid_mesh(*_hopf_surface(chart, n_theta, n_phi)), chart.modulus


def _grid_shape(quads: np.ndarray, nv: int) -> tuple[int, int] | None:
    """(n1, m1) when the quads are exactly _grid_quads(n1, m1) over nv
    vertices, else None."""
    if not len(quads):
        return None
    m1 = int(quads[0, 1])
    if m1 < 2 or nv % m1:
        return None
    n1 = nv // m1
    if len(quads) != (n1 - 1) * (m1 - 1):
        return None
    return (n1, m1) if np.array_equal(quads, _grid_quads(n1, m1)) else None


def conformality(mesh: Mesh3) -> float:
    """Worst anisotropy of the uv -> R3 map over interior vertices.

    Each vertex whose quad star extends to a full two-ring gets two
    five-point central-difference axes, one per opposite-neighbor pair.
    The same stencil differences both the positions and the uv chart and
    the chain rule combines them, so the fourth-order truncation error is
    far below the anisotropy of any genuinely non-conformal map. The
    return value is the max over vertices of sqrt(lambda_max/lambda_min)
    - 1 for the pullback metric J^T J (0 for an exactly conformal map).

    The quads must be the vertex grid of _grid_mesh, as in every mesh the
    package builds; the stencils are then slices of the (n1, m1) grid, the
    vertices two steps in from its border. Any other quad mesh raises
    ValueError.
    """
    grid = _grid_shape(mesh.quads, len(mesh.vertices))
    if grid is None and len(mesh.quads):
        raise ValueError("mesh quads are not a vertex grid")
    if grid is None or min(grid) < 5:
        raise ValueError("mesh has no interior vertices")
    n1, m1 = grid

    def derivs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Five-point differences of the values along j and along i, one
        row per vertex two steps in from the border of the grid."""
        v = values.reshape(n1, m1, -1)
        d_j = (8.0 * (v[2:-2, 1:-3] - v[2:-2, 3:-1]) - (v[2:-2, :-4] - v[2:-2, 4:])) / 12.0
        d_i = (8.0 * (v[1:-3, 2:-2] - v[3:-1, 2:-2]) - (v[:-4, 2:-2] - v[4:, 2:-2])) / 12.0
        return d_j.reshape(-1, values.shape[1]), d_i.reshape(-1, values.shape[1])

    x_j, x_i = derivs(mesh.vertices)  # d xyz / d index
    (u_j, v_j), (u_i, v_i) = (d.T for d in derivs(mesh.uv))  # d uv / d index
    det_uv = u_j * v_i - v_j * u_i
    if np.min(np.abs(det_uv)) <= 1e-300:
        return math.inf
    # rows of J^T: the rows of the inverse of [[u_j, v_j], [u_i, v_i]] times
    # (x_j, x_i), each a sum of two products built in place: einsum's bits
    # and peak memory
    jt = np.empty((len(x_j), 2, 3))
    for row, (a, b) in enumerate(((v_i, -v_j), (-u_i, u_j))):
        np.multiply((a / det_uv)[:, None], x_j, out=jt[:, row])
        jt[:, row] += (b / det_uv)[:, None] * x_i
    g = np.einsum("nab,ncb->nac", jt, jt)  # pullback metric (n, 2, 2)
    tr = g[:, 0, 0] + g[:, 1, 1]
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    lam_max = tr / 2.0 + disc
    lam_min = tr / 2.0 - disc
    if np.min(lam_min) <= 0.0:
        return math.inf
    return float(np.max(np.sqrt(lam_max / lam_min) - 1.0))


@dataclass(frozen=True)
class RectEmbedding:
    """Target surface rect_embed(a, ., .) of modulus ia."""

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", check_height(self.a, "a"))

    @property
    def modulus(self) -> complex:
        return 1j * self.a


@dataclass(frozen=True)
class HopfEmbedding:
    """Target surface: Hopf torus over the given curve."""

    curve: CurveParams

    @property
    def modulus(self) -> complex:
        return _chart(self.curve).modulus


def _point_in_polygon(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over points."""
    inside = np.zeros(points.shape, dtype=bool)
    x, y = points.real, points.imag
    for k in range(len(corners)):
        a = corners[k]
        b = corners[(k + 1) % len(corners)]
        straddles = (a.imag > y) != (b.imag > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
        inside ^= straddles & (x < np.where(straddles, xcross, np.inf))
    return inside


def _assign_tiles(tiling, centers: np.ndarray) -> np.ndarray:
    """Tile index containing each flat point (a 1-d array) of the tiling's plane."""
    alpha, beta = tiling.alpha, tiling.beta
    reduced = LatticeFrame(alpha, beta).reduce(centers)
    labels = np.full(len(centers), -1, dtype=int)
    todo = np.arange(len(centers))  # the unlabelled points; only they are tested
    for index, tile in enumerate(tiling.tiles):
        corners = np.array(tile.corners, dtype=complex)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                if not len(todo):
                    return labels
                hit = _point_in_polygon(corners + da * alpha + db * beta, reduced[todo])
                labels[todo[hit]] = index
                todo = todo[~hit]
    # Boundary-of-tile centers can escape the even-odd test; snap them to
    # the nearest tile centroid so every quad gets a group.
    if len(todo):
        centroids = np.array([np.mean(np.array(t.corners)) for t in tiling.tiles], dtype=complex)
        offsets = np.array([da * alpha + db * beta for da in (-1, 0, 1) for db in (-1, 0, 1)])
        d = np.abs(reduced[todo][:, None, None] - (centroids[:, None] + offsets))
        labels[todo] = np.argmin(d.min(axis=2), axis=1)
    return labels


def drape_tiling(
    tiling,
    target: RectEmbedding | HopfEmbedding,
    surface_res: int = 96,
    subdivisions: int = 32,
) -> Mesh3:
    """Render a validated tiling onto a conformal surface of matching modulus.

    The tiling modulus and the target modulus must reduce to the same point
    of the modular fundamental domain (tolerance 1e-6); the residual Mobius
    map is applied to the flat coordinates before charting. Tile boundaries
    become polylines with at least 32 subdivisions per side; surface quads
    are grouped by the tile containing their center, each tile and lattice
    shift testing only the centers still unlabelled. The result is one
    _grid_mesh, so the mesh is checked once, with its polylines.
    """
    if subdivisions < 32:
        raise ValueError("need at least 32 subdivisions per edge")
    if surface_res < 1:
        raise ValueError(f"surface resolution must be positive, got {surface_res}")
    report = validate(tiling)
    if not report.passed:
        raise ValueError(f"tiling does not validate: {report.failures[:3]}")

    tau_t = tiling.modulus
    red_t, g_t = sl2_reduce(tau_t)
    red_e, g_e = sl2_reduce(target.modulus)
    if abs(red_t - red_e) > 1e-6:
        raise IncompatibilityError(
            f"tiling modulus reduces to {red_t}, embedding to {red_e}"
        )
    mu: UnimodularMap = g_e.inverse().compose(g_t)
    lam = 1.0 / (mu.a + mu.b * tau_t)

    def to_flat(z: np.ndarray) -> np.ndarray:
        return lam * (np.asarray(z, dtype=complex) / tiling.alpha)

    n = int(surface_res)
    if isinstance(target, RectEmbedding):
        a = target.a
        points, uv = _rect_surface(a, n, n)
        centers = (uv[:-1, :-1] + uv[1:, 1:]) / 2.0
        flat_centers = (centers[..., 0] + 1j * centers[..., 1]).ravel()

        def chart_points(w: np.ndarray) -> np.ndarray:
            return rect_embed(a, w.real, w.imag)

    elif isinstance(target, HopfEmbedding):
        chart = _chart(target.curve)
        points, uv = _hopf_surface(chart, n, n)
        zeta = uv[..., 0] + 1j * uv[..., 1]
        flat_centers = (
            zeta[:-1, :-1] + zeta[1:, 1:] + zeta[:-1, 1:] + zeta[1:, :-1]
        ).ravel() / (4.0 * 2.0 * np.pi)

        def chart_points(w: np.ndarray) -> np.ndarray:
            th, ti = chart.theta_t_of_zeta(2.0 * np.pi * np.asarray(w))
            return chart.project(th, ti)

    else:
        raise TypeError(f"unsupported embedding target {target!r}")

    # Quad centers in tiling coordinates: invert w = lam * z / alpha.
    z_centers = flat_centers / lam * tiling.alpha
    groups = _assign_tiles(tiling, z_centers)

    # each tile's boundary from corner 0, its sides cut into equal steps
    ts = np.linspace(0.0, 1.0, subdivisions + 1)[1:]
    polylines = []
    for tile in tiling.tiles:
        corners = np.array(tile.corners, dtype=complex)
        sides = corners[:, None] + ts * (np.roll(corners, -1) - corners)[:, None]
        polylines.append(chart_points(to_flat(np.concatenate([corners[:1], sides.ravel()]))))

    return _grid_mesh(points, uv, groups, tuple(polylines))
