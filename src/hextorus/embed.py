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

from ._np import np
from ._value import value_type
from .lattice import LatticeFrame, UnimodularMap, check_count, check_height, sl2_reduce
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


@value_type("a", "b", "k")
class CurveParams:
    """Colatitude curve alpha(theta) = a + b sin(k theta) on the 2-sphere."""

    def __init__(self, a: float, b: float, k: int) -> None:
        a, b, k = float(a), float(b), check_count(k, "k", 1)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("curve parameters must be finite")
        if not (0.0 < a - abs(b) and a + abs(b) < math.pi):
            raise ValueError(
                "curve must stay strictly between the poles: "
                f"need 0 < a-|b| and a+|b| < pi, got a={a}, b={b}"
            )
        self.__dict__.update(a=a, b=b, k=k)

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


_BLOCK = 8192  # quads per block of Mesh3's area check, vertices per conformality block


def _cross_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.norm(np.cross(a, b), axis=-1) of (n, 3) rows, bit for bit:
    the cross's products and differences, the squares summed in norm's order."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    x, y, z = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return np.sqrt(x * x + y * y + z * z)


@value_type("vertices", "quads", "groups", "uv", "polylines")
class Mesh3:
    """Quad mesh in R3 with flat-coordinate preimages per vertex.

    vertices is (nv, 3), quads (nq, 4) vertex indices, groups (nq,) the tile
    of each quad and uv (nv, 2) the flat coordinates of each vertex; all are
    stored read-only. Coordinates must be finite and no quad may be
    degenerate.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        quads: np.ndarray,
        groups: np.ndarray,
        uv: np.ndarray,
        polylines: tuple[np.ndarray, ...] = (),
    ) -> None:
        vertices = np.asarray(vertices, dtype=float)
        quads = np.asarray(quads, dtype=int)
        groups = np.asarray(groups, dtype=int)
        uv = np.asarray(uv, dtype=float)
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
        polylines = tuple(np.asarray(p, dtype=float) for p in polylines)
        for p in polylines:
            if p.ndim != 2 or p.shape[1] != 3:
                raise ValueError("polylines must be (k, 3) arrays")
        for name, arrays in (("vertices", (vertices,)), ("uv", (uv,)), ("polylines", polylines)):
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError(f"mesh {name} must be finite")
        # corners gathered a block of quads at a time; finite coordinates near
        # the float limit overflow, which outranks a degenerate quad anywhere
        degenerate = False
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(quads), _BLOCK):
                p0, e1, e2, e3 = (vertices[q] for q in quads[lo : lo + _BLOCK].T)
                for e in (e1, e2, e3):
                    e -= p0
                area = 0.5 * (_cross_norm(e1, e2) + _cross_norm(e2, e3))
                if not np.isfinite(area).all():
                    raise ValueError("mesh quad areas overflow")
                degenerate |= bool(np.min(area) <= 1e-12)
        if degenerate:
            raise ValueError("degenerate quad in mesh")
        for arr in (vertices, quads, groups, uv):
            arr.setflags(write=False)
        self.__dict__.update(
            vertices=vertices, quads=quads, groups=groups, uv=uv, polylines=polylines
        )


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


def rect_torus_mesh(a: float, nu: int, nv: int) -> Mesh3:
    """Quad mesh of rect_embed over one fundamental rectangle of T_ia.

    Uniform in u; v runs over one period [-a/2, a/2] at equal tube angle.
    The uv attribute records the true flat coordinates.
    """
    nu, nv = check_count(nu, "nu", 8), check_count(nv, "nv", 8)
    return _grid_mesh(*RectEmbedding(a).surface(nu, nv))


def hopf_torus_mesh(
    curve: CurveParams, n_theta: int, n_phi: int
) -> tuple[Mesh3, complex]:
    """Hopf torus over the curve, as a quad mesh plus its modulus.

    Flat coordinates zeta are recorded per vertex; the seam vertices at
    theta = 2 pi and t = 2 pi are duplicated rather than stitched.
    """
    n_theta, n_phi = check_count(n_theta, "n_theta", 8), check_count(n_phi, "n_phi", 8)
    target = HopfEmbedding(curve)
    return _grid_mesh(*target.surface(n_theta, n_phi)), target.modulus


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
    vertices two steps in from its border, taken a block of rows at a time.
    Any other quad mesh raises ValueError.
    """
    grid = _grid_shape(mesh.quads, len(mesh.vertices))
    if grid is None and len(mesh.quads):
        raise ValueError("mesh quads are not a vertex grid")
    if grid is None or min(grid) < 5:
        raise ValueError("mesh has no interior vertices")
    n1, m1 = grid

    def derivs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Five-point differences of a block of grid rows along j and along
        i, one row per vertex two steps in from the border of the block."""
        d_j = (8.0 * (v[2:-2, 1:-3] - v[2:-2, 3:-1]) - (v[2:-2, :-4] - v[2:-2, 4:])) / 12.0
        d_i = (8.0 * (v[1:-3, 2:-2] - v[3:-1, 2:-2]) - (v[:-4, 2:-2] - v[4:, 2:-2])) / 12.0
        return d_j.reshape(-1, v.shape[2]), d_i.reshape(-1, v.shape[2])

    vertices, uv = mesh.vertices.reshape(n1, m1, 3), mesh.uv.reshape(n1, m1, 2)
    rows = max(1, _BLOCK // m1)  # interior rows per block
    # np.min and np.max of the block extremes reduce as over all vertices; a
    # block whose check fails stops, as the result is inf, or another's NaN
    dets, lams, peaks = [], [], []
    for lo in range(0, n1 - 4, rows):
        block = slice(lo, lo + rows + 4)  # its rows and the stencil's 2-row halo
        x_j, x_i = derivs(vertices[block])  # d xyz / d index
        (u_j, v_j), (u_i, v_i) = (d.T for d in derivs(uv[block]))  # d uv / d index
        det_uv = u_j * v_i - v_j * u_i
        dets.append(np.min(np.abs(det_uv)))
        if dets[-1] <= 1e-300:
            continue
        # rows of J^T: the rows of the inverse of [[u_j, v_j], [u_i, v_i]]
        # times (x_j, x_i); the pullback metric J^T J from their dot
        # products, added in the order of einsum("nab,ncb->nac"), whose
        # bits they keep
        p, q = (
            (a / det_uv)[:, None] * x_j + (b / det_uv)[:, None] * x_i
            for a, b in ((v_i, -v_j), (-u_i, u_j))
        )
        g00, g01, g11 = (
            (s[:, 0] * t[:, 0] + s[:, 2] * t[:, 2]) + s[:, 1] * t[:, 1]
            for s, t in ((p, p), (p, q), (q, q))
        )
        tr = g00 + g11
        det = g00 * g11 - g01 * g01
        disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
        lam_max = tr / 2.0 + disc
        lam_min = tr / 2.0 - disc
        lams.append(np.min(lam_min))
        if lams[-1] <= 0.0:
            continue
        peaks.append(np.max(np.sqrt(lam_max / lam_min) - 1.0))
    if np.min(dets) <= 1e-300 or np.min(lams) <= 0.0:
        return math.inf
    return float(np.max(peaks))


@value_type("a")
class RectEmbedding:
    """Target surface rect_embed(a, ., .) of modulus ia over flat points w = u + iv.

    ``surface(n1, n2)`` is its vertex grid and the grid's flat coordinates,
    ``quad_centers(uv)`` the w at its quads' centres and ``place(w)`` the
    surface's points at w.
    """

    def __init__(self, a: float) -> None:
        self.__dict__.update(a=check_height(a, "a"))

    @property
    def modulus(self) -> complex:
        return 1j * self.a

    def surface(self, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.linspace(0.0, 1.0, nu + 1)
        v = _rect_v_samples(self.a, nv)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return rect_embed(self.a, uu, vv), np.stack([uu, vv], axis=-1)

    def quad_centers(self, uv: np.ndarray) -> np.ndarray:
        centers = (uv[:-1, :-1] + uv[1:, 1:]) / 2.0
        return (centers[..., 0] + 1j * centers[..., 1]).ravel()

    def place(self, w: np.ndarray) -> np.ndarray:
        return rect_embed(self.a, w.real, w.imag)


@value_type("curve")
class HopfEmbedding:
    """Target surface: Hopf torus over the given curve, over flat points
    w = zeta / (2 pi), with the methods of RectEmbedding."""

    @property
    def modulus(self) -> complex:
        return _chart(self.curve).modulus

    def surface(self, n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
        chart = _chart(self.curve)
        theta = np.linspace(0.0, 2.0 * np.pi, n_theta + 1)
        t = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
        tt_theta, tt_t = np.meshgrid(theta, t, indexing="ij")
        points = chart.project(tt_theta, tt_t)
        zeta = chart.zeta(tt_theta, tt_t)
        return points, np.stack([zeta.real, zeta.imag], axis=-1)

    def quad_centers(self, uv: np.ndarray) -> np.ndarray:
        zeta = uv[..., 0] + 1j * uv[..., 1]
        return (zeta[:-1, :-1] + zeta[1:, 1:] + zeta[:-1, 1:] + zeta[1:, :-1]).ravel() / (4.0 * 2.0 * np.pi)

    def place(self, w: np.ndarray) -> np.ndarray:
        chart = _chart(self.curve)
        th, ti = chart.theta_t_of_zeta(2.0 * np.pi * np.asarray(w))
        return chart.project(th, ti)


def _point_in_polygon(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over points, of only the points in
    the corners' box: y in [min Im, max Im), x in the real range widened far
    past a crossing's rounding. Outside the y range no side straddles, right
    of the box no crossing lies right of the point, and left of it every
    straddling side counts, an even number on a closed loop."""
    inside = np.zeros(points.shape, dtype=bool)
    re, im = corners.real, corners.imag
    pad = 1e-12 * (np.max(np.abs(re)) + 1.0)
    box = (points.imag >= im.min()) & (points.imag < im.max())
    box &= (points.real >= re.min() - pad) & (points.real <= re.max() + pad)
    x, y = points.real[box], points.imag[box]
    hit = np.zeros(x.shape, dtype=bool)
    for k in range(len(corners)):
        a = corners[k]
        b = corners[(k + 1) % len(corners)]
        straddles = (a.imag > y) != (b.imag > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
        hit ^= straddles & (x < np.where(straddles, xcross, np.inf))
    inside[box] = hit
    return inside


def _assign_tiles(tiling, centers: np.ndarray) -> np.ndarray:
    """Tile index containing each flat point (a 1-d array), each tile tried at
    every lattice shift that brings part of it into the reduced points' cell."""
    frame = LatticeFrame(tiling.alpha, tiling.beta)
    alpha, beta, reduced = frame.alpha, frame.beta, frame.reduce(centers)
    labels = np.full(len(centers), -1, dtype=int)
    todo = np.arange(len(centers))  # the unlabelled points; only they are tested
    copies = []  # the tile and centroid of each tile copy tried
    for index, tile in enumerate(tiling.tiles):
        corners = np.array(tile.corners, dtype=complex)
        centroid = np.mean(corners)
        frac = frame.frac(corners)  # the shifts are padded: a reduced point may round to 1
        low, high = np.ceil(-frac.max(axis=0) - 1e-9), np.floor(1.0 - frac.min(axis=0) + 1e-9)
        for da in range(int(low[0]), int(high[0]) + 1):
            for db in range(int(low[1]), int(high[1]) + 1):
                if not len(todo):
                    return labels
                hit = _point_in_polygon(corners + da * alpha + db * beta, reduced[todo])
                labels[todo[hit]] = index
                todo = todo[~hit]
                copies.append((index, centroid + (da * alpha + db * beta)))
    # Boundary-of-tile centers can escape the even-odd test; snap them to
    # the tile of the nearest centroid among the copies tried.
    if len(todo):
        owners, centroids = map(np.array, zip(*copies))
        labels[todo] = owners[np.argmin(np.abs(reduced[todo][:, None] - centroids), axis=1)]
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
    if not isinstance(target, (RectEmbedding, HopfEmbedding)):
        raise TypeError(f"unsupported embedding target {target!r}")
    subdivisions = check_count(subdivisions, "subdivisions", 32)
    surface_res = check_count(surface_res, "surface resolution", 1)
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

    points, uv = target.surface(surface_res, surface_res)
    # Quad centers in tiling coordinates: invert w = lam * z / alpha.
    groups = _assign_tiles(tiling, target.quad_centers(uv) / lam * tiling.alpha)

    # each tile's boundary from corner 0, its sides cut into equal steps
    ts = np.linspace(0.0, 1.0, subdivisions + 1)[1:]
    polylines = []
    for tile in tiling.tiles:
        corners = np.array(tile.corners, dtype=complex)
        sides = corners[:, None] + ts * (np.roll(corners, -1) - corners)[:, None]
        polylines.append(target.place(lam * (np.concatenate([corners[:1], sides.ravel()]) / tiling.alpha)))

    return _grid_mesh(points, uv, groups, tuple(polylines))
