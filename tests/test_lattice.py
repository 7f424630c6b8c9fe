"""Lattice arithmetic tests: HNF, Moebius action, reduction, isometry.

The key independent oracle is a window comparison: two integer bases span
the same sublattice iff they mark the same points inside a large box. It
never runs the Euclidean algorithm, so it cross-checks hnf_of_basis on a
completely different route.
"""

import cmath
import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hextorus.lattice import (
    IDENTITY_MAP,
    HnfTriple,
    IntBasis,
    LatticeFrame,
    NearPairs,
    SingularBasisError,
    UnimodularMap,
    check_lattice,
    check_modulus,
    covering_modulus,
    enumerate_hnf,
    hnf_of_basis,
    lattices_isometric,
    rectangular_solve,
    sl2_reduce,
)

OMEGA3 = (-1 + math.sqrt(3) * 1j) / 2


def window_codes(a, b, c, d, half):
    """Sorted codes of lattice points of Z(a,b)+Z(c,d) in [-half, half]^2."""
    # Cramer bound: coefficients of any window point stay within span
    det = abs(a * d - b * c)
    span = half * max(abs(a) + abs(b), abs(c) + abs(d)) // det + 2
    s, t = np.meshgrid(np.arange(-span, span + 1), np.arange(-span, span + 1))
    x = s * a + t * c
    y = s * b + t * d
    keep = (np.abs(x) <= half) & (np.abs(y) <= half)
    codes = (x[keep] + half) * (2 * half + 1) + (y[keep] + half)
    return np.unique(codes)


def same_sublattice(basis_a, basis_b, half):
    return np.array_equal(
        window_codes(*basis_a, half), window_codes(*basis_b, half)
    )


def triple_basis(h):
    """Generators of Z m + Z (l + n tau) as an integer basis."""
    return (h.m, 0, h.l, h.n)


def sigma1(k):
    """Divisor sum, by trial division."""
    return sum(d for d in range(1, k + 1) if k % d == 0)


def brute_canonical(a, b, c, d):
    """Canonical (m, n; l) of an integer basis, by direct search.

    Finds m as the least positive x with (x, 0) in the lattice and n as the
    least positive y reachable at all, then normalizes l into [0, m). Uses
    only membership arithmetic, no column reduction.
    """
    det = a * d - b * c
    assert det != 0
    m = next(
        x
        for x in range(1, abs(det) + 1)
        if (x * d) % det == 0 and (x * b) % det == 0
    )
    g = math.gcd(b, d)
    n = g
    # one point (x, n): solve s*b + t*d = n by scanning a bounded range
    # (minimal Bezout coefficients stay within the generator entries)
    bound = abs(b) + abs(d) + 1
    for s in range(-bound, bound + 1):
        rem = n - s * b
        if d != 0 and rem % d == 0:
            t = rem // d
            break
        if d == 0 and rem == 0:
            t = 0
            break
    else:
        raise AssertionError("no representative found")
    return (m, n, (s * a + t * c) % m)


unimodular_words = st.lists(
    st.sampled_from(["T", "t", "S"]), min_size=0, max_size=8
)


def word_to_map(word):
    shift = UnimodularMap(1, 0, 1, 1)
    inv_shift = UnimodularMap(1, 0, -1, 1)
    flip = UnimodularMap(0, 1, -1, 0)
    mu = IDENTITY_MAP
    for ch in word:
        mu = mu.compose({"T": shift, "t": inv_shift, "S": flip}[ch])
    return mu


moduli = st.builds(
    lambda x, y: complex(x, y), st.floats(-3, 3), st.floats(0.05, 4)
)


class TestTypes:
    def test_check_modulus_rejects_lower_half(self):
        with pytest.raises(ValueError):
            check_modulus(1 - 1j)
        with pytest.raises(ValueError):
            check_modulus(complex("inf"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_check_lattice_rejects_non_finite_generators(self, slot, bad):
        parts = [1.0, 0.0, 0.3, 0.8]
        parts[slot] = bad
        with pytest.raises(ValueError, match=r"Im\(beta/alpha\) > 0"):
            check_lattice(complex(parts[0], parts[1]), complex(parts[2], parts[3]))

    def test_check_lattice_accepts_a_finite_basis(self):
        assert check_lattice(1, 0.3 + 0.8j) == (1 + 0j, 0.3 + 0.8j)

    def test_unimodular_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMap(1, 1, 1, 1)

    def test_unimodular_inverse(self):
        mu = UnimodularMap(2, 1, 3, 2)
        assert mu.compose(mu.inverse()) == IDENTITY_MAP
        assert mu.inverse().compose(mu) == IDENTITY_MAP

    def test_int_basis_rejects_singular(self):
        with pytest.raises(SingularBasisError):
            IntBasis(2, 4, 1, 2)

    def test_hnf_triple_bounds(self):
        with pytest.raises(ValueError):
            HnfTriple(2, 1, 2)
        with pytest.raises(ValueError):
            HnfTriple(0, 1, 0)
        assert HnfTriple(4, 3, 1).index == 12


class TestHnfOfBasis:
    def test_identity(self):
        assert hnf_of_basis((1, 0, 0, 1)) == HnfTriple(1, 1, 0)

    def test_skew_example(self):
        h = hnf_of_basis((2, 0, 1, 3))
        assert h == HnfTriple(2, 3, 1)
        assert same_sublattice((2, 0, 1, 3), triple_basis(h), 12)

    def test_rotated_unit(self):
        assert hnf_of_basis((0, 1, -1, 0)) == HnfTriple(1, 1, 0)

    def test_zero_det_raises(self):
        with pytest.raises(SingularBasisError):
            hnf_of_basis((1, 2, 2, 4))

    @given(
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        unimodular_words,
    )
    def test_invariant_under_right_unimodular(self, a, b, c, d, word):
        if a * d - b * c == 0:
            return
        mu = word_to_map(word)
        # right-multiplying the generator matrix re-mixes the generators
        mixed = (
            mu.a * a + mu.b * c,
            mu.a * b + mu.b * d,
            mu.c * a + mu.d * c,
            mu.c * b + mu.d * d,
        )
        assert hnf_of_basis(mixed) == hnf_of_basis((a, b, c, d))

    @given(
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(-12, 12),
    )
    def test_window_oracle(self, a, b, c, d):
        if a * d - b * c == 0:
            return
        h = hnf_of_basis((a, b, c, d))
        assert h.index == abs(a * d - b * c)
        half = min(h.index, 30) + max(h.m, h.n, h.l)
        assert same_sublattice((a, b, c, d), triple_basis(h), half)

    @given(
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.integers(-10, 10),
    )
    def test_matches_brute_canonical(self, a, b, c, d):
        if a * d - b * c == 0:
            return
        h = hnf_of_basis((a, b, c, d))
        assert (h.m, h.n, h.l) == brute_canonical(a, b, c, d)


class TestEnumerateHnf:
    def test_index_one(self):
        assert enumerate_hnf(1) == [HnfTriple(1, 1, 0)]

    def test_index_six(self):
        got = enumerate_hnf(6)
        want = [
            HnfTriple(1, 6, 0),
            HnfTriple(2, 3, 0),
            HnfTriple(2, 3, 1),
            HnfTriple(3, 2, 0),
            HnfTriple(3, 2, 1),
            HnfTriple(3, 2, 2),
            HnfTriple(6, 1, 0),
            HnfTriple(6, 1, 1),
            HnfTriple(6, 1, 2),
            HnfTriple(6, 1, 3),
            HnfTriple(6, 1, 4),
            HnfTriple(6, 1, 5),
        ]
        assert got == want

    def test_index_four_count(self):
        assert len(enumerate_hnf(4)) == 7
        assert sigma1(4) == 7

    def test_sigma1_counts(self):
        for k in range(1, 31):
            triples = enumerate_hnf(k)
            assert len(triples) == sigma1(k)
            assert len(set(triples)) == len(triples)
            assert all(t.index == k for t in triples)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_hnf(0)


class TestCoveringModulus:
    def test_table_source_example(self):
        tau = (4 / math.sqrt(3)) * 1j
        got = covering_modulus(tau, HnfTriple(2, 3, 0))
        assert got == pytest.approx(2 * math.sqrt(3) * 1j, abs=1e-12)

    def test_identity_triple(self):
        tau = 0.3 + 1.7j
        assert covering_modulus(tau, HnfTriple(1, 1, 0)) == tau

    def test_hexagonal_four_cover(self):
        got = covering_modulus(OMEGA3, HnfTriple(1, 4, 0))
        assert got == pytest.approx(4 * OMEGA3, abs=1e-12)
        assert lattices_isometric(got, 2 * math.sqrt(3) * 1j)


class TestSl2Apply:
    def test_identity(self):
        assert IDENTITY_MAP(0.4 + 2j) == 0.4 + 2j

    def test_translation_map(self):
        assert UnimodularMap(1, 0, 1, 1)(1j) == pytest.approx(1 + 1j)

    def test_inversion_map(self):
        got = UnimodularMap(0, 1, -1, 0)(2j)
        assert got == pytest.approx(0.5j, abs=1e-15)

    @given(moduli, unimodular_words)
    def test_upper_half_plane_preserved(self, tau, word):
        mu = word_to_map(word)
        assert mu(tau).imag > 0

    @given(moduli, unimodular_words, unimodular_words)
    def test_composition_action(self, tau, w1, w2):
        mu, nu = word_to_map(w1), word_to_map(w2)
        lhs = mu.compose(nu)(tau)
        rhs = mu(nu(tau))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestSl2Reduce:
    def test_already_reduced(self):
        tau = 2 * math.sqrt(3) * 1j
        got, mu = sl2_reduce(tau)
        assert got == tau
        assert mu == IDENTITY_MAP

    def test_translate(self):
        got, mu = sl2_reduce(1 + 1j)
        assert got == pytest.approx(1j, abs=1e-12)
        assert mu(1 + 1j) == pytest.approx(got, abs=1e-12)

    def test_boundary_tie_break(self):
        got, _ = sl2_reduce((1 + math.sqrt(3) * 1j) / 2)
        assert got == pytest.approx((-1 + math.sqrt(3) * 1j) / 2, abs=1e-9)

    def test_witness_is_consistent(self):
        for tau in (0.37 + 0.02j, -4.3 + 0.11j, 0.499 + 1.0001j):
            got, mu = sl2_reduce(tau)
            assert mu(tau) == pytest.approx(got, rel=1e-9)
            assert -0.5 - 1e-9 <= got.real <= 0.5 + 1e-9
            assert abs(got) >= 1 - 1e-9

    @given(moduli, unimodular_words)
    def test_orbit_invariance(self, tau, word):
        mu = word_to_map(word)
        a, _ = sl2_reduce(tau)
        b, _ = sl2_reduce(mu(tau))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestLatticesIsometric:
    def test_translate_equivalent(self):
        tau = 0.21 + 1.37j
        assert lattices_isometric(tau, tau + 1)

    def test_sublattice_not_equivalent(self):
        # Z 2 + Z sqrt(3) i rescales to tau = sqrt(3) i / 2
        assert not lattices_isometric(
            math.sqrt(3) * 1j / 2, 2 * math.sqrt(3) * 1j
        )

    def test_hexagonal_cover_pair(self):
        four_cover = covering_modulus(OMEGA3, HnfTriple(1, 4, 0))
        assert not lattices_isometric(OMEGA3, four_cover)
        assert lattices_isometric(2 * math.sqrt(3) * 1j, four_cover)

    @given(moduli, moduli, moduli)
    def test_equivalence_relation(self, t1, t2, t3):
        assert lattices_isometric(t1, t1)
        assert lattices_isometric(t1, t2) == lattices_isometric(t2, t1)
        if lattices_isometric(t1, t2) and lattices_isometric(t2, t3):
            assert lattices_isometric(t1, t3)


class TestRectangularSolve:
    TARGET = 2 * math.sqrt(3) * 1j

    def test_one_three(self):
        got = rectangular_solve(self.TARGET, HnfTriple(1, 3, 0))
        assert got == pytest.approx(2j / math.sqrt(3), abs=1e-9)

    def test_three_one(self):
        got = rectangular_solve(self.TARGET, HnfTriple(3, 1, 0))
        assert got == pytest.approx(6 * math.sqrt(3) * 1j, abs=1e-9)

    def test_shifted_triple_has_no_solution(self):
        assert rectangular_solve(self.TARGET, HnfTriple(3, 1, 1)) is None

    def test_round_trip(self):
        for h in (HnfTriple(1, 3, 0), HnfTriple(3, 1, 0), HnfTriple(2, 3, 0)):
            got = rectangular_solve(self.TARGET, h)
            if got is None:
                continue
            assert abs(got.real) < 1e-9
            assert lattices_isometric(covering_modulus(got, h), self.TARGET)

    def test_non_rectangular_target_still_works(self):
        # target isometric to a rectangular torus via a translation
        got = rectangular_solve(1 + 4j, HnfTriple(1, 1, 0))
        assert got is not None
        assert lattices_isometric(got, 1 + 4j)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            rectangular_solve(self.TARGET, HnfTriple(1, 3, 0), bound)


def test_window_oracle_random_bases():
    rng = random.Random(20260814)
    for _ in range(200):
        while True:
            a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
            if a * d - b * c != 0:
                break
        h = hnf_of_basis((a, b, c, d))
        half = min(h.index, 25) + max(h.m, h.n, h.l)
        assert same_sublattice((a, b, c, d), triple_basis(h), half)


# (alpha, beta, radius) of the NearPairs tests
LATTICES = [
    (1.0, 0.3 + 0.8j, 0.05),
    (1.0, 0.3 + 0.8j, 0.0),
    (1.0, 0.3 + 0.8j, 2.5),  # beyond the width of the parallelogram
    (2.0 + 0.5j, 1.9 + 0.7j, 0.2),  # a long thin parallelogram
    (1.0, 10.0 + 0.1j, 0.03),  # a basis far from reduced
    (0.5j, -3.0 + 0.1j, 0.3),  # negatively oriented basis
]


class TestNearPairs:
    """The hashed query against distances to every lattice translate."""

    def gaps(self, alpha, beta, query, ref):
        """Distance from each query point to the nearest translate of each
        reference point, over translates up to 25 basis steps away."""
        basis = np.array([[alpha.real, beta.real], [alpha.imag, beta.imag]])

        def reduced(z):
            frac = np.linalg.solve(basis, np.stack([z.real, z.imag]))
            frac -= np.floor(frac)
            return frac[0] * alpha + frac[1] * beta

        k = np.arange(-25, 26)
        shifts = (k[:, None] * alpha + k[None, :] * beta).ravel()
        ref = reduced(ref)
        return np.array(
            [np.abs(z - ref[:, None] - shifts).min(axis=1) for z in reduced(query)]
        )

    def points(self, rng, alpha, beta):
        """60 reference points, and 60 query points of which the first 20
        are lattice translates of reference points."""
        ref = rng.uniform(-3, 3, 60) + 1j * rng.uniform(-3, 3, 60)
        query = np.concatenate(
            [ref[:20] + 3 * alpha - beta, rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)]
        )
        return ref, query

    @pytest.mark.parametrize("alpha,beta,radius", LATTICES)
    def test_pairs_are_every_pair_within_radius(self, alpha, beta, radius):
        ref, query = self.points(np.random.default_rng(7), alpha, beta)
        q, r = NearPairs(LatticeFrame(alpha, beta), ref, radius).pairs(query)
        gap = self.gaps(complex(alpha), complex(beta), query, ref)
        found = set(zip(q.tolist(), r.tolist()))
        assert len(found) == len(q)
        assert list(zip(q.tolist(), r.tolist())) == sorted(found)
        assert set(zip(*np.nonzero(gap <= radius))) <= found
        assert all(gap[i, j] <= radius + 1e-6 for i, j in found)

    @pytest.mark.parametrize("alpha,beta,radius", LATTICES)
    def test_per_point_radii_are_every_pair_within_its_radius(self, alpha, beta, radius):
        rng = np.random.default_rng(11)
        ref, query = self.points(rng, alpha, beta)
        radii = rng.uniform(0.0, 2.0 * max(radius, 0.1), len(ref))
        radii[::7] = 0.0
        radii[1::7] = np.nan
        radii[2::7] = -rng.uniform(0.0, 1.0, len(radii[2::7]))
        q, r = NearPairs(LatticeFrame(alpha, beta), ref, radii).pairs(query)
        gap = self.gaps(complex(alpha), complex(beta), query, ref)
        found = set(zip(q.tolist(), r.tolist()))
        assert len(found) == len(q)
        assert list(zip(q.tolist(), r.tolist())) == sorted(found)
        assert set(zip(*np.nonzero(gap <= radii))) <= found
        # a NaN or negative radius admits no pair, a zero one only a point
        # that coincides with its own up to rounding
        assert all(gap[i, j] <= radii[j] + 1e-6 for i, j in found)
        assert len(found) > len(query)

    @pytest.mark.parametrize("alpha,beta,radius", LATTICES)
    def test_scalar_radius_is_that_radius_for_every_point(self, alpha, beta, radius):
        ref, query = self.points(np.random.default_rng(13), alpha, beta)
        frame = LatticeFrame(alpha, beta)
        scalar = NearPairs(frame, ref, radius).pairs(query)
        full = NearPairs(frame, ref, np.full(len(ref), radius)).pairs(query)
        assert [x.tolist() for x in scalar] == [x.tolist() for x in full]

    def test_non_finite_and_empty_inputs_give_no_pairs(self):
        frame = LatticeFrame(1.0, 1j)
        q, r = NearPairs(frame, np.array([0.2, np.nan, 0.2 + np.inf * 1j]), 0.1).pairs(
            np.array([0.2 + 1j, np.nan])
        )
        assert q.tolist() == [0] and r.tolist() == [0]
        q, r = NearPairs(frame, np.zeros(0, dtype=complex), 0.1).pairs(np.array([0.2]))
        assert len(q) == len(r) == 0
        q, r = NearPairs(frame, np.array([0.2]), -1.0).pairs(np.array([0.2]))
        assert len(q) == 0

    def assert_candidate_runs_do_not_matter(self, monkeypatch, radius):
        lattice = importlib.import_module("hextorus.lattice")
        rng = np.random.default_rng(3)
        ref = rng.uniform(-3, 3, 300) + 1j * rng.uniform(-3, 3, 300)
        query = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        index = NearPairs(LatticeFrame(1.0, 0.3 + 0.8j), ref, radius)
        q, r = index.pairs(query)
        assert len(q) > 1000
        for size in (1, 7, 1000):
            monkeypatch.setattr(lattice, "_CANDIDATES", size)
            q2, r2 = index.pairs(query)
            assert q2.tolist() == q.tolist() and r2.tolist() == r.tolist()

    def test_pairs_do_not_depend_on_how_many_candidates_run_at_once(self, monkeypatch):
        self.assert_candidate_runs_do_not_matter(monkeypatch, 0.4)

    def test_per_point_pairs_do_not_depend_on_how_many_candidates_run_at_once(
        self, monkeypatch
    ):
        radii = np.random.default_rng(4).uniform(0.0, 0.8, 300)
        radii[::5] = np.nan
        self.assert_candidate_runs_do_not_matter(monkeypatch, radii)

    def test_every_hash_of_a_frame_shares_its_reduced_frame(self, monkeypatch):
        lattice = importlib.import_module("hextorus.lattice")
        calls = []
        reduce = lattice.sl2_reduce
        monkeypatch.setattr(lattice, "sl2_reduce", lambda tau: calls.append(tau) or reduce(tau))
        rng = np.random.default_rng(5)
        ref = rng.uniform(-3, 3, 80) + 1j * rng.uniform(-3, 3, 80)
        frame = LatticeFrame(1.0, 10.0 - 0.1j)  # far from reduced, negatively oriented
        a, b = NearPairs(frame, ref, 0.3), NearPairs(frame, ref[:40], 0.6)
        assert a.frame is b.frame is frame.reduced
        assert len(calls) == 1
        tau = frame.reduced.beta / frame.reduced.alpha
        assert -0.5 <= tau.real < 0.5 and abs(tau) >= 1.0 and tau.imag > 0.0
        assert math.isclose(abs(frame.reduced.alpha) ** 2 * tau.imag, 0.1)  # the same covolume
        # a fresh frame of the same lattice gives the same pairs
        fresh = NearPairs(LatticeFrame(1.0, 10.0 - 0.1j), ref, 0.3)
        assert len(calls) == 2
        for x, y in zip(a.pairs(ref[::-1]), fresh.pairs(ref[::-1])):
            assert x.tolist() == y.tolist()

    def test_a_lattice_that_does_not_reduce_is_its_own_reduced_frame(self):
        frame = LatticeFrame(complex(np.nan, 0.0), 1j)
        assert frame.reduced is frame
