"""Peak memory of the render and sampling paths, one call at a time.

Each budget bounds the ``tracemalloc`` peak (numpy's array buffers
included) of one library call: building the 256x256 mesh of the
rectangular torus, measuring its conformality, draping a 2-tile tiling at
surface resolution 192, writing that drape as OBJ, and sampling the
centrally symmetric benchmark region at 512x512 and 2048x2048. Meshes are
checked and measured a block at a time, so no call holds a whole-mesh
temporary per coordinate, and regions are certified and masked a bounded
number of blocks and cells at a time, so sampling holds little beyond its
bits; each budget leaves about a third of headroom over what the blocked
code takes. A small warm-up of every call first loads numpy and
whatever the calls import lazily, so no peak counts an import. The builders
start from an empty quad-grid cache, so they pay for their quads;
conformality reads the quads its mesh cached, as it does right after a
build.
"""

from __future__ import annotations

import tracemalloc
import warnings

import pytest

from hextorus.cli import write_obj
from hextorus.construct import GenericityWarning, type_i_minimal
from hextorus.embed import RectEmbedding, _grid_quads, conformality, drape_tiling, rect_torus_mesh
from hextorus.moduli import sample_region
from test_array_oracle import GRIDS

warnings.simplefilter("ignore", GenericityWarning)


def peak_mib(fn, *args, **kwargs) -> float:
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def drape(res: int = 192):
    tiling = type_i_minimal(0.8j, (0.2 + 0.2j, -0.15 + 0.25j))
    return drape_tiling(tiling, RectEmbedding(0.8), surface_res=res)


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    mesh = drape(8)
    conformality(mesh)
    write_obj(mesh)
    rect_torus_mesh(1.0, 8, 8)
    sample_region(*GRIDS["cs"], nx=64, ny=64)


def test_rect_torus_mesh():
    _grid_quads.cache_clear()
    assert peak_mib(rect_torus_mesh, 1.0, 256, 256) <= 9.0


def test_conformality():
    assert peak_mib(conformality, rect_torus_mesh(1.0, 256, 256)) <= 4.0


def test_drape_tiling():
    _grid_quads.cache_clear()
    assert peak_mib(drape) <= 9.0


def test_write_obj():
    assert peak_mib(write_obj, drape()) <= 13.0


@pytest.mark.parametrize("n, budget", [(512, 6.0), (2048, 11.5)])
def test_sample_region(n, budget):
    assert peak_mib(sample_region, *GRIDS["cs"], nx=n, ny=n) <= budget
