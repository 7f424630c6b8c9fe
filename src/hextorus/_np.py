"""numpy, executed on first attribute access.

``from ._np import np`` gives numpy itself when it is already imported;
otherwise numpy is registered through ``importlib.util.LazyLoader`` and
runs at the first ``np.`` lookup, so the scalar paths never pay for it.
On Python < 3.12 LazyLoader switches the module's class before it executes
numpy, so a program that first touches numpy from two threads at once
should ``import numpy`` before ``import hextorus``.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("hextorus needs numpy", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
