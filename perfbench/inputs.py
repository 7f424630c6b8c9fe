"""Seeded input generators: every parameter the program sees is drawn here.

Parameter draws follow the families' moduli the same way the acceptance
suite's rejection sampler does; a draw is kept when its constructor
succeeds, so the rejection rate itself is part of what ``construct`` costs.
"""

from __future__ import annotations

from hextorus.construct import (
    ModuliViolation,
    central_minimal,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from hextorus.lattice import HnfTriple

FAMILIES = ("i", "ii", "iii", "cs", "strip")
MAX_DRAWS = 2000


def _c(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def primitive_word(rng, length: int) -> str:
    """Sign word that is not a power of a shorter word (a minimal strip)."""
    while True:
        word = "".join("+-"[int(b)] for b in rng.integers(0, 2, size=length))
        if word not in (word + word)[1:-1]:
            return word


def draw(rng, kind: str, word_len: int | None = None):
    """One candidate (constructor, args) for the family; may be out of moduli."""
    if kind == "i":
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.5))
        return type_i_minimal, (tau, (_c(rng, -0.8, 1.6), _c(rng, -0.8, 1.6)))
    if kind == "ii":
        y = rng.uniform(0.4, 1.6)
        sigma = tuple(
            complex(rng.uniform(-0.3, 0.9), rng.uniform(-0.6, 0.6) * y) for _ in range(2)
        )
        return type_ii_minimal, (y, sigma)
    if kind == "iii":
        return type_iii_minimal, (complex(rng.uniform(-0.7, 1.0), rng.uniform(-0.9, 0.9)),)
    if kind == "cs":
        alpha = complex(rng.uniform(0.8, 1.6), rng.uniform(-0.4, 0.5))
        beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.4))
        return central_minimal, (alpha, beta, _c(rng, -1.0, 1.6))
    length = word_len if word_len is not None else int(rng.integers(1, 4))
    h = rng.uniform(0.6, 1.6)
    w = rng.uniform(0.5, 1.4)
    shear = rng.uniform(-0.4, 0.4)
    i = complex(rng.uniform(-0.5, 1.0), rng.uniform(0.0, h / 2))
    t = complex(rng.uniform(-0.5, 1.0), (h / 2 + i.imag) / 2)
    return strip_tiling, (h, w, shear, (i, t), primitive_word(rng, length))


def construct_in_moduli(op, rng, kind: str, word_len: int | None = None):
    """Draw until the constructor succeeds; every constructor call is timed."""
    for _ in range(MAX_DRAWS):
        fn, args = draw(rng, kind, word_len)
        try:
            tiling = op.call("construct", fn, *args)
        except ModuliViolation:
            continue
        op.count("construct.accepted")
        return tiling
    raise RuntimeError(f"no in-moduli {kind} draw in {MAX_DRAWS} tries")


def draw_in_moduli(rng, kind: str, tau: complex | None = None):
    """Untimed input generation: (constructor args, tiling) of one kept draw.

    ``tau`` fixes the modulus of a family-i draw.
    """
    for _ in range(MAX_DRAWS):
        fn, args = draw(rng, kind)
        if tau is not None:
            args = (tau, args[1])
        try:
            return args, fn(*args)
        except ModuliViolation:
            continue
    raise RuntimeError(f"no in-moduli {kind} draw in {MAX_DRAWS} tries")


def triple_for(rng, index: int) -> HnfTriple:
    """Seeded HNF triple (m, n; l) of the given index."""
    divisors = [m for m in range(1, index + 1) if index % m == 0]
    m = int(divisors[int(rng.integers(0, len(divisors)))])
    return HnfTriple(m, index // m, int(rng.integers(0, m)))
