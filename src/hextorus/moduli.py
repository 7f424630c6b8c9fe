"""Moduli spaces of the minimal tilings: membership, sampling, components.

A free parameter is admissible exactly when the corresponding constructor
succeeds, i.e. its hexagon is simple. Membership applies the constructors' own
corner formulas (:func:`hextorus.construct.hexagon_corners`) and simplicity
test (:mod:`hextorus.geom`), to one parameter or to a whole grid at once.
Components of a sampled region come from :func:`hextorus.lattice.components`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .construct import B_POINT, OMEGA3, R_POINT, hexagon_corners
from .geom import MERGE_TOL, first_violation, simple_mask
from .lattice import check_lattice, check_modulus, components

KINDS = ("i", "ii", "iii", "cs")


@dataclass(frozen=True)
class RegionGrid:
    """Boolean occupancy sampled over an axis-aligned box.

    bits[k, j] is the membership at the center of cell (j, k); row 0 is the
    bottom of the box (smallest y).
    """

    bbox: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
    nx: int
    ny: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        xmin, xmax, ymin, ymax = (float(v) for v in self.bbox)
        object.__setattr__(self, "bbox", (xmin, xmax, ymin, ymax))
        if not all(map(math.isfinite, self.bbox)):
            raise ValueError(f"bbox must be finite, got {self.bbox}")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError(f"degenerate bbox {self.bbox}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2x2")
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.ny, self.nx):
            raise ValueError(f"bits shape {bits.shape} != (ny, nx)")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def cell_centers(self) -> np.ndarray:
        """Complex coordinates of all cell centers, shape (ny, nx)."""
        xmin, xmax, ymin, ymax = self.bbox
        xs = xmin + (np.arange(self.nx) + 0.5) * (xmax - xmin) / self.nx
        ys = ymin + (np.arange(self.ny) + 0.5) * (ymax - ymin) / self.ny
        return xs[None, :] + 1j * ys[:, None]


def _normalize_fixed(kind: str, fixed):
    key = str(kind).strip().lower()
    if key not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if key == "i":
        tau, i = fixed
        return key, (check_modulus(tau), complex(i))
    if key == "ii":
        y, i = fixed
        y = float(y)
        if not (math.isfinite(y) and y > 0):
            raise ValueError(f"y must be positive, got {y}")
        return key, (y, complex(i))
    if key == "iii":
        if fixed not in (None, (), []):
            raise ValueError("type iii has no fixed parameters")
        return key, ()
    alpha, beta = fixed
    return key, check_lattice(alpha, beta)


def membership_mask(kind: str, fixed, free, tol: float = MERGE_TOL) -> np.ndarray:
    """Vectorized membership over an array of free parameters."""
    key, fixed = _normalize_fixed(kind, fixed)
    return simple_mask(hexagon_corners(key, fixed, np.asarray(free, complex)), tol)


def membership(kind: str, fixed, free: complex, tol: float = MERGE_TOL) -> bool:
    """True iff the constructor of the given kind succeeds at this parameter."""
    key, fixed = _normalize_fixed(kind, fixed)
    return first_violation(hexagon_corners(key, fixed, complex(free)), tol) is None


def _default_bbox(key: str, fixed) -> tuple[float, float, float, float]:
    if key == "i":
        g1, g2 = 1.0 + 0j, fixed[0]
    elif key == "ii":
        g1, g2 = 1.0 + 0j, 1j * fixed[0]
    elif key == "iii":
        g1, g2 = 1.0 + 0j, OMEGA3
    else:
        g1, g2 = fixed
    xs = [0.0, g1.real, g2.real, (g1 + g2).real]
    ys = [0.0, g1.imag, g2.imag, (g1 + g2).imag]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w, h = x1 - x0, y1 - y0
    return (x0 - 1.5 * w, x1 + 1.5 * w, y0 - 1.5 * h, y1 + 1.5 * h)


def sample_region(
    kind: str,
    fixed,
    bbox: tuple[float, float, float, float] | None = None,
    nx: int = 512,
    ny: int = 512,
    tol: float = MERGE_TOL,
) -> RegionGrid:
    """Sample membership at every cell center of a grid."""
    key, norm = _normalize_fixed(kind, fixed)
    if bbox is None:
        bbox = _default_bbox(key, norm)
    grid = RegionGrid(tuple(bbox), int(nx), int(ny), np.zeros((ny, nx), dtype=bool))
    bits = simple_mask(hexagon_corners(key, norm, grid.cell_centers()), tol)
    return RegionGrid(grid.bbox, grid.nx, grid.ny, bits)


def connected_components(g: RegionGrid) -> tuple[int, np.ndarray]:
    """4-connectivity component count and per-cell labels of the true cells.

    Labels 1..count number the components in raster order of their first
    cell, as scipy.ndimage.label does; 0 marks the other cells.
    """
    bits = g.bits
    # number the horizontal runs of true cells in raster order, from 1
    starts = bits & ~np.pad(bits[:, :-1], ((0, 0), (1, 0)))
    run_of = np.cumsum(starts).reshape(bits.shape) * bits
    # runs in adjacent rows touch along a stretch of columns true in both
    # rows; the first column of each stretch names the touching pair once
    both = bits[:-1] & bits[1:]
    first = both & ~np.pad(both[:, :-1], ((0, 0), (1, 0)))
    # components of runs are numbered by their first run, in raster order
    run_label, roots = components(
        int(starts.sum()), run_of[:-1][first] - 1, run_of[1:][first] - 1
    )
    labels = np.zeros(bits.shape, dtype=np.int32)
    labels[bits] = run_label[run_of[bits] - 1] + 1
    return len(roots), labels


@dataclass(frozen=True)
class Arc:
    """Circular arc sampled as a polyline."""

    center: complex
    radius: float
    theta0: float
    theta1: float
    points: tuple[complex, ...]


def type_iii_boundary(samples: int) -> list[Arc]:
    """Three boundary arcs of the type iii moduli region.

    The primary arc runs from G' to R on the circle centered at B; the other
    two are its rotations by +-120 degrees about the origin. Every P on the
    primary arc sees the chord G'R under the inscribed angle 5pi/6.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples per arc")
    radius = abs(R_POINT - B_POINT)
    arcs = []
    for k in range(3):
        rot = cmath.exp(2j * math.pi * k / 3.0)
        center = rot * B_POINT
        theta0 = math.pi / 6.0 + 2.0 * math.pi * k / 3.0
        theta1 = math.pi / 2.0 + 2.0 * math.pi * k / 3.0
        thetas = np.linspace(theta0, theta1, samples)
        points = tuple(center + radius * cmath.exp(1j * th) for th in thetas)
        arcs.append(Arc(center, radius, theta0, theta1, points))
    return arcs
