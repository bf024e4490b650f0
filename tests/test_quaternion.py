"""Unit and property tests for repro.math.quaternion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math import qa

RNG = np.random.default_rng(20230712)


def random_quats(n):
    q = RNG.normal(size=(n, 4))
    return qa.normalize(q)


angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
colatitudes = st.floats(min_value=1e-3, max_value=np.pi - 1e-3, allow_nan=False)


class TestBasicAlgebra:
    def test_null_quat_is_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(qa.rotate(qa.null_quat, v), v)

    def test_amplitude_of_unit(self):
        q = random_quats(32)
        assert np.allclose(qa.amplitude(q), 1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            qa.normalize(np.zeros(4))

    def test_bad_trailing_axis_raises(self):
        with pytest.raises(ValueError):
            qa.mult(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            qa.rotate(qa.null_quat, np.zeros(4))

    def test_mult_identity(self):
        q = random_quats(8)
        assert np.allclose(qa.mult(q, qa.null_quat), q)
        assert np.allclose(qa.mult(qa.null_quat, q), q)

    def test_mult_inverse_gives_identity(self):
        q = random_quats(16)
        prod = qa.mult(q, qa.inv(q))
        assert np.allclose(prod[:, :3], 0.0, atol=1e-12)
        assert np.allclose(np.abs(prod[:, 3]), 1.0)

    def test_mult_associative(self):
        a, b, c = random_quats(5), random_quats(5), random_quats(5)
        left = qa.mult(qa.mult(a, b), c)
        right = qa.mult(a, qa.mult(b, c))
        assert np.allclose(left, right)

    def test_mult_broadcasts(self):
        q1 = random_quats(10)
        q0 = random_quats(1)[0]
        out = qa.mult(q0, q1)
        assert out.shape == (10, 4)
        for i in range(10):
            assert np.allclose(out[i], qa.mult(q0, q1[i]))


class TestRotation:
    def test_rotate_preserves_norm(self):
        q = random_quats(64)
        v = RNG.normal(size=(64, 3))
        out = qa.rotate(q, v)
        assert np.allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(v, axis=-1)
        )

    def test_rotate_composition_matches_mult(self):
        p, q = random_quats(16), random_quats(16)
        v = RNG.normal(size=(16, 3))
        assert np.allclose(
            qa.rotate(qa.mult(p, q), v), qa.rotate(p, qa.rotate(q, v)), atol=1e-12
        )

    def test_rotate_zaxis_matches_general(self):
        q = random_quats(64)
        z = np.array([0.0, 0.0, 1.0])
        assert np.allclose(qa.rotate_zaxis(q), qa.rotate(q, z), atol=1e-12)

    def test_rotate_xaxis_matches_general(self):
        q = random_quats(64)
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(qa.rotate_xaxis(q), qa.rotate(q, x), atol=1e-12)

    def test_axis_angle_90deg_about_z(self):
        q = qa.from_axisangle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
        v = qa.rotate(q, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


class TestAxisAngle:
    def test_roundtrip(self):
        axis = RNG.normal(size=(32, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        angle = RNG.uniform(0.1, np.pi - 0.1, 32)
        q = qa.from_axisangle(axis, angle)
        axis2, angle2 = qa.to_axisangle(q)
        assert np.allclose(angle2, angle)
        assert np.allclose(axis2, axis, atol=1e-9)

    def test_identity_convention(self):
        axis, angle = qa.to_axisangle(qa.null_quat)
        assert np.isclose(angle, 0.0)
        assert np.allclose(axis, [0.0, 0.0, 1.0])


class TestAngles:
    @settings(max_examples=60, deadline=None)
    @given(theta=colatitudes, phi=angles, pa=angles)
    def test_angle_roundtrip_property(self, theta, phi, pa):
        q = qa.from_angles(theta, phi, pa)
        t, p, a = qa.to_angles(q)
        assert np.isclose(t, theta, atol=1e-9)
        assert np.isclose(np.mod(p - phi + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-9)
        assert np.isclose(np.mod(a - pa + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-9)

    def test_to_position_matches_to_angles(self):
        q = random_quats(128)
        t1, p1 = qa.to_position(q)
        t2, p2, _ = qa.to_angles(q)
        assert np.allclose(t1, t2)
        assert np.allclose(p1, p2)

    def test_pole_orientation_does_not_crash(self):
        q = qa.from_angles(0.0, 0.0, 0.3)
        t, p, a = qa.to_angles(q)
        assert np.isclose(t, 0.0, atol=1e-12)
        assert np.isfinite(a)

    def test_from_angles_direction(self):
        theta, phi = 0.7, 1.1
        q = qa.from_angles(theta, phi, 0.0)
        d = qa.rotate_zaxis(q)
        expected = [
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]
        assert np.allclose(d, expected)


def where_position_angle(q):
    """The position angle as one ``np.where`` over both branches, every lane."""
    unit = qa.normalize(q)
    d, o = qa.rotate_zaxis(unit), qa.rotate_xaxis(unit)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    ox, oy, oz = o[..., 0], o[..., 1], o[..., 2]
    pa_y = oy * dx - ox * dy
    pa_x = oz * (dx * dx + dy * dy) - dz * (ox * dx + oy * dy)
    polar = (dx * dx + dy * dy) < 1.0e-24
    return np.where(polar, np.arctan2(oy, ox), np.arctan2(pa_y, -pa_x)), polar


def pole_batch():
    """Exact-pole quaternions at both poles, NaN lanes and random ones, mixed."""
    rng = np.random.default_rng(7)
    phi, pa = rng.uniform(-np.pi, np.pi, (2, 8))
    theta = rng.uniform(0.0, np.pi, 24)
    nan = np.array([[np.nan, 0.1, 0.2, 0.9], [np.nan] * 4])
    q = np.concatenate([
        qa.from_angles(0.0, phi, pa),
        qa.from_angles(np.pi, phi, pa),
        nan,
        qa.from_angles(theta, rng.uniform(-np.pi, np.pi, 24), rng.uniform(-np.pi, np.pi, 24)),
    ])
    return q[rng.permutation(len(q))]


#: Quaternion components: moderate values (where the order of the additions
#: shows in the rounding), any float (subnormals included), ±inf, and the
#: smallest subnormals and normals explicitly.
components = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, -0.0]),
)


@st.composite
def quaternions_with_at_most_one_nan(draw):
    q = draw(st.lists(components, min_size=4, max_size=4))
    nan_at = draw(st.none() | st.integers(0, 3))
    if nan_at is not None:
        q[nan_at] = np.nan
    return q


class TestComponentForms:
    """The component-wise helpers equal the array forms bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(qs=st.lists(quaternions_with_at_most_one_nan(), min_size=1, max_size=9))
    def test_amplitude_is_the_length4_sum(self, qs):
        # NaN + NaN leaves the payload to the loop (IEEE 754), so a
        # quaternion carries at most one NaN component.
        q = np.array(qs)
        with np.errstate(all="ignore"):
            assert qa.amplitude(q).tobytes() == np.sqrt(np.sum(q * q, axis=-1)).tobytes()
            for row in q:
                assert qa.amplitude(row).tobytes() == np.sqrt(np.sum(row * row, axis=-1)).tobytes()

    def test_amplitude_is_the_length4_sum_on_random_scales(self):
        # Hypothesis favours round values, whose squares add exactly in any
        # order; random mantissas at every scale show the order.
        q = RNG.normal(size=(4000, 4)) * 10.0 ** RNG.uniform(-170, 150, (4000, 1))
        q[::7, RNG.integers(0, 4)] = RNG.choice([5e-324, np.inf, -np.inf, np.nan], size=len(q[::7]))
        with np.errstate(all="ignore"):
            want = np.sqrt(np.sum(q * q, axis=-1))
            assert qa.amplitude(q).tobytes() == want.tobytes()
            assert qa.amplitude(q.reshape(40, 100, 4)).tobytes() == want.tobytes()

    def test_direction_angles_equal_the_rotated_axis_form(self):
        q = np.concatenate([RNG.normal(size=(35, 4)), pole_batch()]).reshape(-1, 7, 4)
        d = qa.rotate_zaxis(qa.normalize(q))
        want = np.arccos(np.clip(d[..., 2], -1.0, 1.0)), np.arctan2(d[..., 1], d[..., 0])
        for got in (qa.to_position(q), qa.to_angles(q)[:2]):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("fn", [qa.to_position, qa.to_angles, qa.position_angle])
    def test_pointing_helpers_keep_normalize_errors(self, fn):
        with pytest.raises(ValueError, match="zero quaternion"):
            fn(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="trailing axis of 4"):
            fn(np.ones((3, 3)))

    def test_position_angle_on_pole_and_nan_lanes(self):
        q = pole_batch()
        want, polar = where_position_angle(q)
        assert polar.sum() == 16  # both poles take the fallback branch
        pa = qa.position_angle(q)
        assert pa.tobytes() == qa.to_angles(q)[2].tobytes()
        assert pa.tobytes() == want.tobytes()
        lanes = np.array([qa.position_angle(qi) for qi in q])
        assert lanes.tobytes() == pa.tobytes()
        assert np.isnan(pa).sum() == 2 and np.isfinite(pa[polar]).all()

    def test_position_angle_keeps_the_batch_shape(self):
        q = pole_batch().reshape(6, 7, 4)
        assert qa.position_angle(q).shape == (6, 7)
        assert qa.position_angle(q).tobytes() == qa.position_angle(q.reshape(-1, 4)).tobytes()
        assert np.ndim(qa.position_angle(q[0, 0])) == 0


class TestFromVectors:
    def test_maps_v1_to_v2(self):
        v1 = RNG.normal(size=(16, 3))
        v1 /= np.linalg.norm(v1, axis=-1, keepdims=True)
        v2 = RNG.normal(size=(16, 3))
        v2 /= np.linalg.norm(v2, axis=-1, keepdims=True)
        q = qa.from_vectors(v1, v2)
        assert np.allclose(qa.rotate(q, v1), v2, atol=1e-9)

    def test_antiparallel_raises(self):
        v = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            qa.from_vectors(v, -v)


class TestSlerp:
    def test_endpoints(self):
        times = np.array([0.0, 1.0])
        quats = qa.from_angles(np.array([0.3, 1.2]), np.zeros(2), np.zeros(2))
        out = qa.slerp(np.array([0.0, 1.0]), times, quats)
        assert np.allclose(np.abs(np.sum(out * quats, axis=-1)), 1.0)

    def test_midpoint_bisects_angle(self):
        times = np.array([0.0, 1.0])
        quats = qa.from_angles(np.array([0.2, 0.8]), np.zeros(2), np.zeros(2))
        out = qa.slerp(np.array([0.5]), times, quats)
        t, _, _ = qa.to_angles(out)
        assert np.isclose(t[0], 0.5, atol=1e-9)

    def test_constant_angular_velocity(self):
        times = np.array([0.0, 1.0])
        quats = qa.from_angles(np.array([0.1, 1.1]), np.zeros(2), np.zeros(2))
        targets = np.linspace(0.0, 1.0, 21)
        out = qa.slerp(targets, times, quats)
        t, _, _ = qa.to_angles(out)
        assert np.allclose(np.diff(t), np.diff(t)[0], atol=1e-9)

    def test_unit_output(self):
        times = np.linspace(0, 1, 5)
        quats = qa.normalize(RNG.normal(size=(5, 4)))
        out = qa.slerp(np.linspace(0, 1, 33), times, quats)
        assert np.allclose(qa.amplitude(out), 1.0)

    def test_out_of_range_raises(self):
        times = np.array([0.0, 1.0])
        quats = random_quats(2)
        with pytest.raises(ValueError):
            qa.slerp(np.array([1.5]), times, quats)

    def test_nonmonotonic_times_raise(self):
        times = np.array([0.0, 0.0])
        quats = random_quats(2)
        with pytest.raises(ValueError):
            qa.slerp(np.array([0.0]), times, quats)

    def test_short_path_taken(self):
        # q and -q describe the same rotation; slerp must not swing the long
        # way when the stored signs differ.
        q0 = qa.from_angles(0.3, 0.0, 0.0)
        q1 = -qa.from_angles(0.4, 0.0, 0.0)
        out = qa.slerp(np.array([0.5]), np.array([0.0, 1.0]), np.vstack([q0, q1]))
        t, _, _ = qa.to_angles(out)
        assert np.isclose(t[0], 0.35, atol=1e-9)
