"""Tests for moduli-region membership, sampling, and boundary geometry."""

from __future__ import annotations

import cmath
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hextorus
from hextorus.cli import main
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
from test_readme_chain import readme_commands

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_parameter_is_not_a_member(self, kind):
        # hexagons with a side or distance too long for Python's abs: no
        # OverflowError and no numpy warning, from any form of the test
        fixed = (1, 1j) if kind == "cs" else FIXED[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (7e307 + 7e307j, 1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j):
                assert not membership(kind, fixed, z)
                assert not membership_mask(kind, fixed, np.array([z]))[0]
                assert not constructor_succeeds(kind, fixed, z)
            grid = sample_region(kind, fixed, (1e300, 1.1e300, 1e300, 1.1e300), 4, 4)
            assert not grid.bits.any()

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

    @pytest.mark.parametrize("nx,ny", [(0, 0), (-3, 4), (4, -3), (1, 4)])
    def test_grid_below_two_by_two_rejected(self, nx, ny):
        with pytest.raises(ValueError, match=r"^grid resolution must be at least 2x2$"):
            sample_region("iii", (), nx=nx, ny=ny)

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


def fresh_python(code: str, *args: str, cwd=None, env=None) -> str:
    """What code prints when run with args in a fresh interpreter on src.

    The interpreter gets env (by default this process's environment) with
    src on PYTHONPATH.
    """
    env = dict(os.environ if env is None else env)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_import_does_not_load_scipy():
    assert fresh_python("import sys, hextorus; print('scipy' in sys.modules)").strip() == "False"


def test_labelling_does_not_load_numpy_ma():
    code = (
        "import sys, numpy as np\n"
        "from hextorus.moduli import RegionGrid, connected_components\n"
        "bits = np.zeros((4, 5), dtype=bool)\n"
        "bits[:, 0] = bits[1:3, 2:] = True\n"
        "count, _ = connected_components(RegionGrid((0, 1, 0, 1), 5, 4, bits))\n"
        "print(count, 'numpy.ma' in sys.modules)"
    )
    assert fresh_python(code).split() == ["2", "False"]


# numpy runs when hextorus first uses it: the README commands that work on
# scalars alone (the constructors, classify, build_cover, write_svg) never
# load it, so a module-level use of numpy fails here
NUMPY_LOADED = "'numpy._core' in sys.modules"


def run_commands(probe: str) -> str:
    """Code that runs the argv lists in sys.argv[1] through main, one after
    another, and prints the value of probe before and after each as JSON."""
    return (
        "import json, sys, warnings\n"
        "from hextorus.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"loaded = [{probe}]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        f"    loaded.append({probe})\n"
        "print(json.dumps(loaded))\n"
    )


RUN_COMMANDS = run_commands(NUMPY_LOADED)


def test_import_does_not_load_numpy():
    assert fresh_python(f"import sys, hextorus; print({NUMPY_LOADED})").strip() == "False"


# embed and moduli load only for the commands that render or sample
LAZY_MODULES = ("hextorus.embed", "hextorus.moduli", "numpy._core")
LOADED = f"[m for m in {LAZY_MODULES!r} if m in sys.modules]"


def test_import_loads_neither_embed_nor_moduli():
    code = f"import sys, hextorus, hextorus.cli; print({LOADED})"
    assert fresh_python(code).strip() == "[]"


def test_only_render_obj_loads_embed_and_only_moduli_sample_loads_moduli(tmp_path):
    commands = readme_commands()
    names = [c[0] if c[0] != "render" else f"render {c[1]}" for c in commands]
    code = run_commands(LOADED) + "import hextorus; print(type(hextorus.validate).__name__)\n"
    out = fresh_python(code, json.dumps(commands), cwd=tmp_path).splitlines()
    assert out.pop() == "function"
    lazy = [sorted(set(modules) - {"numpy._core"}) for modules in json.loads(out.pop())]
    sampled = 1 + names.index("moduli")
    rendered = 1 + names.index("render obj")
    assert lazy == (
        [[]] * sampled
        + [["hextorus.moduli"]] * (rendered - sampled)
        + [["hextorus.embed", "hextorus.moduli"]] * (len(lazy) - rendered)
    )


def test_lazy_names_resolve():
    code = (
        "import hextorus, types\n"
        "star = {}\n"
        "exec('from hextorus import *', star)\n"
        "print(type(hextorus.embed).__name__, type(hextorus.moduli).__name__)\n"
        "print(hextorus.drape_tiling is hextorus.embed.drape_tiling)\n"
        "print(type(hextorus.validate).__name__)\n"
        "print(set(hextorus.__all__) <= set(star), set(hextorus.__all__) <= set(dir(hextorus)))\n"
    )
    assert fresh_python(code).split() == ["module", "module", "True", "function", "True", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        hextorus.nonexistent


# the CLI starts numpy with one BLAS thread unless the user chose a count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
VALIDATE_THEN_PROBE_BLAS = (
    "import os, sys\n"
    "from hextorus.cli import main\n"
    "assert main(['validate', sys.argv[1]]) == 0\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "status = '/proc/self/status'\n"
    "threads = [s.split()[1] for s in open(status) if s.startswith('Threads:')] "
    "if os.path.exists(status) else ['absent']\n"
    "print(*threads)\n"
)


def validate_in_fresh_python(tmp_path, **blas_vars) -> tuple[str, str]:
    """OPENBLAS_NUM_THREADS and the thread count after a cold validate."""
    doc = str(tmp_path / "star.json")
    assert main(["construct", "--type=iii", "--p=0.05,0.22", "-o", doc]) == 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = fresh_python(VALIDATE_THEN_PROBE_BLAS, doc, env={**env, **blas_vars})
    variable, threads = out.splitlines()[-2:]
    return variable, threads


def test_cli_starts_numpy_with_one_blas_thread(tmp_path):
    variable, threads = validate_in_fresh_python(tmp_path)
    assert variable == "1"
    if threads == "absent":
        pytest.skip("no /proc/self/status to count threads")
    assert threads == "1"


def test_cli_keeps_a_user_blas_setting(tmp_path):
    variable, _ = validate_in_fresh_python(tmp_path, OMP_NUM_THREADS="2")
    assert variable == "None"


def test_cli_after_numpy_started_leaves_the_environment(tmp_path):
    doc = str(tmp_path / "star.json")
    assert main(["construct", "--type=iii", "--p=0.05,0.22", "-o", doc]) == 0
    assert "numpy._core" in sys.modules
    before = dict(os.environ)
    assert main(["validate", doc]) == 0
    assert dict(os.environ) == before


def test_scalar_commands_do_not_load_numpy(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    scalar = [c for c in commands if c[0] in ("construct", "classify", "cover") or c[1] == "svg"]
    assert [c[0] for c in scalar] == ["construct", "classify", "cover", "render", "construct"]
    out = fresh_python(RUN_COMMANDS, json.dumps(scalar), cwd=tmp_path)
    assert json.loads(out.splitlines()[-1]) == [False] * 6
    # validate loads numpy, and prints the report it prints with numpy loaded
    [check] = [c for c in commands if c[0] == "validate"]
    lazy = fresh_python(RUN_COMMANDS, json.dumps([check]), cwd=tmp_path).splitlines()
    assert json.loads(lazy.pop()) == [False, True]
    monkeypatch.chdir(tmp_path)
    assert main(check) == 0
    assert lazy == capsys.readouterr().out.splitlines()


def test_numpy_imported_first_is_the_one_hextorus_uses():
    code = "import numpy, hextorus; print(hextorus.geom.np is numpy)"
    assert fresh_python(code).strip() == "True"


def test_numpy_imported_after_hextorus_works():
    code = "import hextorus, numpy; print(numpy.arange(3).sum() == 3, hextorus.geom.np is numpy)"
    assert fresh_python(code).split() == ["True", "True"]
