"""Unit and property tests for the HEALPix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import healpix as hp

NSIDES = [1, 2, 4, 16, 64, 256]

theta_strategy = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phi_strategy = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
order_strategy = st.integers(min_value=0, max_value=10)


class TestGeometry:
    def test_npix(self):
        assert hp.npix(1) == 12
        assert hp.npix(2) == 48
        assert hp.npix(256) == 786432

    def test_ncap(self):
        assert hp.ncap(1) == 0
        assert hp.ncap(4) == 24

    def test_nring(self):
        assert hp.nring(1) == 3
        assert hp.nring(4) == 15

    def test_orders(self):
        assert hp.nside2order(1) == 0
        assert hp.nside2order(1024) == 10
        assert hp.order2nside(5) == 32

    def test_bad_nside(self):
        for bad in (0, 3, 12, -2):
            with pytest.raises(ValueError):
                hp.check_nside(bad)
        with pytest.raises(ValueError):
            hp.order2nside(-1)

    def test_pixel_area_sums_to_sphere(self):
        for nside in (1, 8, 64):
            assert np.isclose(hp.pixel_area(nside) * hp.npix(nside), 4 * np.pi)


class TestBits:
    @settings(max_examples=100, deadline=None)
    @given(v=st.integers(min_value=0, max_value=2**31 - 1))
    def test_spread_compress_roundtrip(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert hp.compress_bits(hp.spread_bits(arr))[0] == v

    def test_spread_even_positions_only(self):
        out = int(hp.spread_bits(np.array([0b111], dtype=np.uint64))[0])
        assert out == 0b10101

    def test_interleave_known(self):
        from repro.healpix.bits import xyf2nest, nest2xyf

        # face 0, order 2 (nside 4): pixel (x=3, y=1) -> morton 0b0111 = 7
        pix = xyf2nest(np.array([3]), np.array([1]), np.array([0]), 2)
        assert pix[0] == 0b0111
        ix, iy, face = nest2xyf(pix, 2)
        assert (ix[0], iy[0], face[0]) == (3, 1, 0)


class TestMortonTable:
    """``xyf2nest`` looks the Morton spread up a byte at a time."""

    @pytest.mark.parametrize("order", range(hp.MAX_ORDER + 1))
    def test_xyf2nest_equals_magic_numbers(self, order):
        from repro.healpix.bits import nest2xyf, xyf2nest

        nside = 1 << order
        rng = np.random.default_rng(order)
        edges = np.unique([c for c in (0, 255, 256, nside - 1) if c < nside])
        ix = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, nside, 200)])
        iy = np.concatenate([np.tile(edges, edges.size), rng.integers(0, nside, 200)])
        face = rng.integers(0, 12, ix.size)
        pix = xyf2nest(ix, iy, face, order)
        morton = hp.spread_bits(ix) | hp.spread_bits(iy) << np.uint64(1)
        assert pix.tobytes() == ((face << 2 * order) + morton.astype(np.int64)).tobytes()
        for got, want in zip(nest2xyf(pix, order), (ix, iy, face)):
            assert got.tobytes() == want.tobytes()


class TestRingScheme:
    @pytest.mark.parametrize("nside", NSIDES)
    def test_center_roundtrip(self, nside):
        pix = np.arange(hp.npix(nside))
        theta, phi = hp.pix2ang_ring(nside, pix)
        assert np.array_equal(hp.ang2pix_ring(nside, theta, phi), pix)

    def test_poles(self):
        # theta=0 must land in the first ring (pixels 0..3).
        assert hp.ang2pix_ring(16, 0.0, 0.3) < 4
        # theta=pi in the last ring.
        assert hp.ang2pix_ring(16, np.pi, 0.3) >= hp.npix(16) - 4

    def test_known_values_nside1(self):
        # For nside=1 the 12 base pixels: north cap 0-3, equator 4-7, south 8-11.
        north = hp.ang2pix_ring(1, 0.1, np.array([0.1, 1.7, 3.3, 4.9]))
        assert sorted(north.tolist()) == [0, 1, 2, 3]
        equator = hp.ang2pix_ring(1, np.pi / 2, np.array([0.0, np.pi / 2]))
        assert np.all((equator >= 4) & (equator < 8))

    def test_ring_pixel_counts(self):
        # Count pixels per ring via pix2ang z values for nside=4.
        nside = 4
        theta, _ = hp.pix2ang_ring(nside, np.arange(hp.npix(nside)))
        _, counts = np.unique(np.round(np.cos(theta), 12), return_counts=True)
        # nside=4 has 4*nside-1 = 15 rings: caps of 4, 8, 12 pixels on each
        # side and 9 equatorial-belt rings of 4*nside = 16 pixels.
        expected = [4, 8, 12] + [16] * 9 + [12, 8, 4]
        assert sorted(counts.tolist()) == sorted(expected)

    def test_out_of_range_pixel_raises(self):
        with pytest.raises(ValueError):
            hp.pix2ang_ring(4, np.array([hp.npix(4)]))
        with pytest.raises(ValueError):
            hp.pix2ang_ring(4, np.array([-1]))

    def test_bad_theta_raises(self):
        with pytest.raises(ValueError):
            hp.ang2pix_ring(4, np.array([-0.1]), np.array([0.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
        tiny=st.lists(st.floats(min_value=-1e-15, max_value=1e-15), max_size=8),
    )
    def test_mod4_is_np_mod_bit_for_bit(self, x, tiny):
        """NaN payloads, signed zeros, infinities, subnormals, multiples
        of 4 and tiny negatives that round up to 4.0 included."""
        from repro.healpix.ring import _mod4

        edges = [0.0, -0.0, -8.0, 4.0, -1e-17, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan]
        x = np.array(x + tiny + edges, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            assert _mod4(x).tobytes() == np.mod(x, 4.0).tobytes()


class TestNestScheme:
    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=16),
        phi=st.floats(-10.0, 10.0),
        order=st.integers(0, 12),
    )
    def test_equal_shapes_skip_broadcast_arrays(self, theta, phi, order):
        """Angles of one shape go straight through; a scalar ``phi`` is
        broadcast, and both give the pixels ``np.broadcast_arrays`` gave."""
        nside = 1 << order
        theta = np.array(theta)
        full = np.full_like(theta, phi)
        want = hp.ang2pix_nest(nside, *np.broadcast_arrays(theta, full))
        assert hp.ang2pix_nest(nside, theta, full).tobytes() == want.tobytes()
        assert hp.ang2pix_nest(nside, theta, phi).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nside", NSIDES)
    def test_center_roundtrip(self, nside):
        pix = np.arange(hp.npix(nside))
        theta, phi = hp.pix2ang_nest(nside, pix)
        assert np.array_equal(hp.ang2pix_nest(nside, theta, phi), pix)

    @pytest.mark.parametrize("nside", NSIDES)
    def test_ring_nest_bijection(self, nside):
        pix = np.arange(hp.npix(nside))
        nest = hp.ring2nest(nside, pix)
        assert np.array_equal(np.sort(nest), pix)  # a permutation
        assert np.array_equal(hp.nest2ring(nside, nest), pix)

    @pytest.mark.parametrize("nside", NSIDES)
    def test_schemes_agree_on_angles(self, nside):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, np.pi, 500)
        phi = rng.uniform(-np.pi, 3 * np.pi, 500)
        ring = hp.ang2pix_ring(nside, theta, phi)
        nest = hp.ang2pix_nest(nside, theta, phi)
        assert np.array_equal(hp.ring2nest(nside, ring), nest)

    def test_nside1_nest_equals_ring_faces(self):
        # At nside=1 both schemes enumerate the 12 base faces; the NESTED
        # order is the face order.
        pix = np.arange(12)
        theta_n, phi_n = hp.pix2ang_nest(1, pix)
        theta_r, phi_r = hp.pix2ang_ring(1, hp.nest2ring(1, pix))
        assert np.allclose(theta_n, theta_r)
        assert np.allclose(phi_n, phi_r)

    def test_nested_locality(self):
        # Children of a NESTED pixel at order k live in the same parent:
        # pix >> 2 maps the four children to one coarse pixel.
        nside = 8
        pix = np.arange(hp.npix(nside))
        theta, phi = hp.pix2ang_nest(nside, pix)
        coarse = hp.ang2pix_nest(nside // 2, theta, phi)
        assert np.array_equal(coarse, pix >> 2)


class TestPropertyBased:
    @settings(max_examples=150, deadline=None)
    @given(theta=theta_strategy, phi=phi_strategy, order=order_strategy)
    def test_ring_pixel_in_range(self, theta, phi, order):
        nside = 1 << order
        pix = hp.ang2pix_ring(nside, theta, phi)
        assert 0 <= pix < hp.npix(nside)

    @settings(max_examples=150, deadline=None)
    @given(theta=theta_strategy, phi=phi_strategy, order=order_strategy)
    def test_nest_matches_ring_via_conversion(self, theta, phi, order):
        nside = 1 << order
        ring = hp.ang2pix_ring(nside, theta, phi)
        nest = hp.ang2pix_nest(nside, theta, phi)
        assert hp.nest2ring(nside, np.array([nest]))[0] == ring

    @settings(max_examples=100, deadline=None)
    @given(theta=theta_strategy, phi=phi_strategy)
    def test_center_distance_bounded(self, theta, phi):
        # The pixel center must be within ~2x the pixel radius of the input.
        nside = 64
        pix = hp.ang2pix_ring(nside, theta, phi)
        tc, pc = hp.pix2ang_ring(nside, np.array([pix]))
        v1 = hp.ang2vec(theta, phi)
        v2 = hp.ang2vec(tc[0], pc[0])
        angle = np.arccos(np.clip(np.dot(v1, v2), -1, 1))
        max_radius = 2.5 * np.sqrt(hp.pixel_area(nside))
        assert angle < max_radius


class TestVectors:
    def test_ang2vec_unit(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, np.pi, 100)
        phi = rng.uniform(0, 2 * np.pi, 100)
        v = hp.ang2vec(theta, phi)
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)

    def test_vec2ang_roundtrip(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.01, np.pi - 0.01, 100)
        phi = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 100)
        t2, p2 = hp.vec2ang(hp.ang2vec(theta, phi))
        assert np.allclose(t2, theta)
        assert np.allclose(p2, phi)

    def test_vec2ang_normalizes(self):
        t, p = hp.vec2ang(np.array([0.0, 0.0, 10.0]))
        assert np.isclose(t, 0.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            hp.vec2ang(np.zeros(3))

    def test_vec2pix_matches_ang2pix(self):
        rng = np.random.default_rng(4)
        theta = rng.uniform(0, np.pi, 200)
        phi = rng.uniform(0, 2 * np.pi, 200)
        vec = hp.ang2vec(theta, phi)
        for nest in (False, True):
            assert np.array_equal(
                hp.vec2pix(64, vec, nest=nest), hp.ang2pix(64, theta, phi, nest=nest)
            )

    def test_pix2vec_unit(self):
        v = hp.pix2vec(8, np.arange(hp.npix(8)))
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)


class TestDispatchAPI:
    def test_ang2pix_dispatch(self):
        theta, phi = 1.0, 2.0
        assert hp.ang2pix(8, theta, phi, nest=False) == hp.ang2pix_ring(8, theta, phi)
        assert hp.ang2pix(8, theta, phi, nest=True) == hp.ang2pix_nest(8, theta, phi)

    def test_pix2ang_dispatch(self):
        pix = np.arange(48)
        assert np.allclose(hp.pix2ang(2, pix)[0], hp.pix2ang_ring(2, pix)[0])
        assert np.allclose(hp.pix2ang(2, pix, nest=True)[0], hp.pix2ang_nest(2, pix)[0])


class TestQueryDisc:
    def test_full_sphere(self):
        pix = hp.query_disc(8, 1.0, 2.0, np.pi)
        assert len(pix) == hp.npix(8)

    def test_zero_radius_contains_at_most_center_pixel(self):
        pix = hp.query_disc(8, 0.7, 1.3, 0.0)
        assert len(pix) <= 1

    def test_center_pixel_included(self):
        nside = 16
        p = hp.ang2pix_ring(nside, 0.9, 2.1)
        theta, phi = hp.pix2ang_ring(nside, np.array([p]))
        pix = hp.query_disc(nside, theta[0], phi[0], 0.05)
        assert p in pix

    def test_area_scales_with_radius(self):
        nside = 32
        small = hp.query_disc(nside, 1.2, 0.5, 0.1)
        big = hp.query_disc(nside, 1.2, 0.5, 0.3)
        assert set(small.tolist()) <= set(big.tolist())
        # Pixel counts follow the solid-angle ratio (2pi(1-cos r)).
        ratio = len(big) / len(small)
        expected = (1 - np.cos(0.3)) / (1 - np.cos(0.1))
        assert abs(ratio - expected) / expected < 0.15

    def test_nest_matches_ring(self):
        ring = hp.query_disc(16, 0.8, 0.9, 0.2, nest=False)
        nest = hp.query_disc(16, 0.8, 0.9, 0.2, nest=True)
        assert np.array_equal(np.sort(hp.ring2nest(16, ring)), nest)

    def test_all_members_within_radius(self):
        nside, radius = 16, 0.25
        pix = hp.query_disc(nside, 1.0, -1.0, radius)
        center = hp.ang2vec(1.0, -1.0)
        vecs = hp.pix2vec(nside, pix)
        dist = np.arccos(np.clip(vecs @ center, -1, 1))
        assert np.all(dist <= radius + 1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            hp.query_disc(8, 0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            hp.pixel_distances(8, np.zeros(3))
        with pytest.raises(ValueError):
            hp.pixel_distances(8, np.zeros(4))
