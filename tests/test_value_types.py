"""The value types: immutable, equal within one class when their fields are,
hashed as their field tuple, shown as ``Name(field=value, ...)``."""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest

from hextorus import (
    Arc,
    Congruence,
    CurveParams,
    FreeVector,
    HexagonSpec,
    HnfTriple,
    HopfEmbedding,
    IntBasis,
    Isometry,
    Mesh3,
    OMEGA3_CURVE,
    PlanarPatch,
    Polygon,
    RectEmbedding,
    RegionGrid,
    TilingCensus,
    TorusTiling,
    TypeReport,
    UnimodularMap,
    ValidationReport,
    census,
    central_minimal,
    rect_torus_mesh,
    sample_region,
    type_iii_minimal,
    validate,
)
from hextorus.construct import FAMILIES, Family

SQUARE = (0j, 1 + 0j, 1 + 1j, 1j)
REGULAR = HexagonSpec((2 * math.pi / 3,) * 6, (1.0,) * 6)
FLAGS = dict.fromkeys(
    ["type_i", "type_ii", "type_iii", "central", "generic_i", "generic_ii", "generic_iii"]
    + ["generic_central", "generic_strip"],
    True,
)
REPORT = TypeReport(**FLAGS, residual_i=0.0, residual_ii=0.5, residual_iii=0.25, residual_central=0.0, tol=1e-9)


def mesh() -> Mesh3:
    vertices = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    return Mesh3(vertices, np.array([[0, 1, 2, 3]]), np.array([0]), vertices[:, :2])


# each class's field names, and a function that builds one instance anew
VALUES = {
    Isometry: (("mult", "shift", "reflect"), lambda: Isometry(1j, 2 + 0j, True)),
    Polygon: (("corners", "labels"), lambda: Polygon(SQUARE)),
    Congruence: (("mapping", "isometry"), lambda: Congruence((0, 1, 2), Isometry())),
    UnimodularMap: (("a", "b", "c", "d"), lambda: UnimodularMap(1, 1, 0, 1)),
    IntBasis: (("a", "b", "c", "d"), lambda: IntBasis(2, 0, 1, 3)),
    HnfTriple: (("m", "n", "l"), lambda: HnfTriple(2, 3, 1)),
    FreeVector: (("i", "t"), lambda: FreeVector(0, 1)),
    TorusTiling: (("alpha", "beta", "tiles", "provenance"), lambda: TorusTiling(1, 1j, [Polygon(SQUARE)])),
    PlanarPatch: (("tiles", "provenance"), lambda: PlanarPatch([Polygon(SQUARE)])),
    Family: (
        ("kind", "provenance", "fixed", "normalize", "lattice", "tiles", "corners", "slopes")
        + ("orbit", "cover"),
        lambda: Family(*(getattr(FAMILIES["iii"], name) for name in VALUES[Family][0])),
    ),
    HexagonSpec: (("angles", "lengths"), lambda: HexagonSpec(REGULAR.angles, REGULAR.lengths)),
    TypeReport: (tuple(FLAGS) + ("residual_i", "residual_ii", "residual_iii", "residual_central", "tol"),
                 lambda: TypeReport(**{name: getattr(REPORT, name) for name in VALUES[TypeReport][0]})),
    TilingCensus: (("v", "h", "e", "f", "v_k", "h_l"), lambda: TilingCensus(2, 0, 6, 2, {3: 2}, {})),
    ValidationReport: (("passed", "census", "failures"),
                       lambda: ValidationReport(True, TilingCensus(2, 0, 6, 2, {3: 2}, {}), ())),
    CurveParams: (("a", "b", "k"), lambda: CurveParams(1.5, 0.5, 2)),
    Mesh3: (("vertices", "quads", "groups", "uv", "polylines"), mesh),
    RectEmbedding: (("a",), lambda: RectEmbedding(2.0)),
    HopfEmbedding: (("curve",), lambda: HopfEmbedding(OMEGA3_CURVE)),
    RegionGrid: (("bbox", "nx", "ny", "bits"), lambda: RegionGrid((0, 1, 0, 1), 2, 2, np.eye(2))),
    Arc: (("center", "radius", "theta0", "theta1", "points"), lambda: Arc(0j, 1.0, 0.0, 1.0, (1 + 0j, 1j))),
}
# a dict or an array among the fields: no hash
UNHASHABLE = {TorusTiling, PlanarPatch, TilingCensus, ValidationReport, Mesh3, RegionGrid}
NAME = operator.attrgetter("__name__")


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in VALUES[type(value)][0])


@pytest.mark.parametrize("cls", VALUES, ids=NAME)
def test_repr_names_each_field(cls):
    names, make = VALUES[cls]
    value = make()
    shown = ", ".join(f"{name}={field!r}" for name, field in zip(names, fields_of(value)))
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", VALUES, ids=NAME)
def test_no_assignment_or_deletion(cls):
    value = VALUES[cls][1]()
    name = VALUES[cls][0][0]
    before = repr(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls", [cls for cls in VALUES if cls not in UNHASHABLE], ids=NAME)
def test_equal_instances_hash_as_their_fields(cls):
    a, b = VALUES[cls][1](), VALUES[cls][1]()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields_of(a))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [cls for cls in VALUES if cls in UNHASHABLE], ids=NAME)
def test_dict_or_array_field_unhashable(cls):
    with pytest.raises(TypeError, match="unhashable"):
        hash(VALUES[cls][1]())


def test_equality_within_one_class():
    h = HnfTriple(2, 3, 1)
    assert h == HnfTriple(m=2, n=3, l=1) and h != HnfTriple(2, 3, 0)
    assert h != (2, 3, 1) and (2, 3, 1) != h
    assert h != IntBasis(2, 3, 1, 1)
    assert UnimodularMap(1, 0, 0, 1) != IntBasis(1, 0, 0, 1)
    assert Polygon(SQUARE) != SQUARE
    assert TorusTiling(1, 1j, [Polygon(SQUARE)]) == TorusTiling(1, 1j, (Polygon(SQUARE),), {})
    assert TorusTiling(1, 1j, [Polygon(SQUARE)]) != TorusTiling(1, 1j, [Polygon(SQUARE)], {"kind": "x"})
    grid = VALUES[RegionGrid][1]()
    assert grid == grid  # the same array object: equal without comparing it


def test_array_fields_compare_by_shape_and_values():
    a, b = rect_torus_mesh(1, 8, 8), rect_torus_mesh(1, 8, 8)
    assert a == b and not a != b
    vertices = a.vertices.copy()
    vertices[5, 2] += 1e-3
    assert Mesh3(vertices, a.quads, a.groups, a.uv) != a
    line = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    drawn = Mesh3(a.vertices, a.quads, a.groups, a.uv, (line,))
    assert drawn == Mesh3(a.vertices, a.quads, a.groups, a.uv, (line.copy(),))
    assert drawn != a  # one polyline against none
    assert drawn != Mesh3(a.vertices, a.quads, a.groups, a.uv, (line[:1],))  # shape
    moved = line.copy()
    moved[1, 0] = 1.5
    assert drawn != Mesh3(a.vertices, a.quads, a.groups, a.uv, (moved,))
    grid = sample_region("iii", None, nx=8, ny=8)
    assert grid == sample_region("iii", None, nx=8, ny=8)
    bits = grid.bits.copy()
    bits[3, 4] = not bits[3, 4]
    assert RegionGrid(grid.bbox, grid.nx, grid.ny, bits) != grid


def test_reprs():
    assert repr(HnfTriple(2, 3, 1)) == "HnfTriple(m=2, n=3, l=1)"
    assert repr(Polygon((0, 1, 1j))) == "Polygon(corners=(0j, (1+0j), 1j), labels=(0, 1, 2))"
    assert repr(TorusTiling(1, 1j, [Polygon(SQUARE)])) == (
        "TorusTiling(alpha=(1+0j), beta=1j, tiles=(Polygon(corners=(0j, (1+0j), (1+1j), 1j), "
        "labels=(0, 1, 2, 3)),), provenance={})"
    )
    assert repr(census(type_iii_minimal(0.1 + 0.05j))) == (
        "TilingCensus(v=6, h=0, e=9, f=3, v_k={3: 6}, h_l={})"
    )
    assert repr(REPORT) == (
        "TypeReport(type_i=True, type_ii=True, type_iii=True, central=True, generic_i=True, "
        "generic_ii=True, generic_iii=True, generic_central=True, generic_strip=True, "
        "residual_i=0.0, residual_ii=0.5, residual_iii=0.25, residual_central=0.0, tol=1e-09)"
    )


def test_census_repr_in_identity_failure():
    # one centrally symmetric tile twice, in a cell of twice its area
    tiles = central_minimal(1, 1j, 0.5 + 0.1j).tiles * 2
    messages = dict(validate(TorusTiling(1, 2j, tiles)).failures)
    assert messages["census-identity"] == (
        "census TilingCensus(v=4, h=0, e=12, f=2, v_k={4: 2, 2: 2}, h_l={}) violates the count identities"
    )


def test_keyword_construction_with_defaults():
    assert Isometry() == Isometry(mult=1.0 + 0j, shift=0j, reflect=False)
    assert Polygon(corners=(0, 1, 1j)).labels == (0, 1, 2)
    assert Polygon(corners=(0, 1, 1j), labels=(2, 0, 1)).labels == (2, 0, 1)
    tiling = TorusTiling(alpha=1, beta=1j, tiles=[Polygon(SQUARE)])
    assert tiling.provenance == {} and tiling.tiles == (Polygon(SQUARE),)
    assert PlanarPatch(tiles=[Polygon(SQUARE)]).provenance == {}
    assert mesh().polylines == ()
    assert CurveParams(a=1.5, b=0.5, k=2.0) == CurveParams(1.5, 0.5, 2)
    assert Arc(center=0j, radius=1.0, theta0=0.0, theta1=1.0, points=()) == Arc(0j, 1.0, 0.0, 1.0, ())


# the types whose __init__ value_type gives: each field once, by position or name
STORED = [Congruence, Family, TypeReport, TilingCensus, ValidationReport, HopfEmbedding, Arc]


@pytest.mark.parametrize("cls", STORED, ids=NAME)
def test_stored_fields_by_position_or_name(cls):
    names, make = VALUES[cls]
    value = make()
    fields = fields_of(value)
    assert cls(*fields) == value == cls(**dict(zip(names, fields)))
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == value
    assert vars(cls(*fields)) == dict(zip(names, fields))


@pytest.mark.parametrize("cls", STORED, ids=NAME)
def test_stored_fields_refuse_a_bad_call(cls):
    names, make = VALUES[cls]
    fields = fields_of(make())
    calls = [
        ((), dict(zip(names[1:], fields[1:]))),  # one missing
        (fields[:-1], {}),  # the last missing
        (fields, {"extra": 0}),  # one unknown
        (fields, {names[0]: fields[0]}),  # one repeated
        (fields + (0,), {}),  # one surplus
    ]
    for args, kwargs in calls:
        given = f"got {len(args)} by position and {list(kwargs)} by name"
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == f"{cls.__name__}() takes the fields {names} once each, {given}"


def test_provenance_not_shared():
    a, b = TorusTiling(1, 1j, [Polygon(SQUARE)]), TorusTiling(1, 1j, [Polygon(SQUARE)])
    assert a.provenance is not b.provenance
    a.provenance["kind"] = "mine"
    assert b.provenance == {}
    p, q = PlanarPatch([Polygon(SQUARE)]), PlanarPatch([Polygon(SQUARE)])
    assert p.provenance is not q.provenance
    given = {"kind": "x"}
    assert TorusTiling(1, 1j, [Polygon(SQUARE)], given).provenance is given
