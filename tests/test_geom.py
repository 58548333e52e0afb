import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import geom
from imutok.errors import DegenerateInput, InvalidArgument, ShapeMismatch


class TestRot6d:
    def test_identity_code_decodes_to_identity(self):
        R = geom.rot6d_to_matrix_batch([1, 0, 0, 0, 1, 0])
        assert_allclose(R, np.eye(3), atol=1e-12)

    def test_scaled_code_decodes_to_identity(self):
        R = geom.rot6d_to_matrix_batch([2, 0, 0, 0, 3, 0])
        assert_allclose(R, np.eye(3), atol=1e-12)

    def test_identity_encodes_to_canonical_code(self):
        assert_allclose(geom.matrix_to_rot6d_batch(np.eye(3)), [1, 0, 0, 0, 1, 0])

    def test_z_quarter_turn_encoding(self):
        # 90 degrees about z: columns (0,1,0) and (-1,0,0)
        Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(geom.matrix_to_rot6d_batch(Rz), [0, 1, 0, -1, 0, 0], atol=1e-15)

    def test_round_trip_over_random_rotations(self):
        rng = np.random.default_rng(7)
        R = np.stack([geom.random_rotation(rng) for _ in range(1000)])
        R2 = geom.rot6d_to_matrix_batch(geom.matrix_to_rot6d_batch(R))
        assert np.linalg.norm(R2 - R, axis=(1, 2)).max() < 1e-10

    def test_decoded_matrix_is_proper(self):
        rng = np.random.default_rng(3)
        R = geom.rot6d_to_matrix_batch(rng.normal(size=(200, 6)))
        assert_allclose(R @ np.swapaxes(R, 1, 2), np.broadcast_to(np.eye(3), R.shape),
                        atol=1e-9)
        assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-9

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=(100, 6))
        s = rng.uniform(0.1, 10.0, size=(100, 2))
        scaled = np.concatenate([r[:, :3] * s[:, :1], r[:, 3:] * s[:, 1:]], axis=1)
        assert_allclose(geom.rot6d_to_matrix_batch(scaled), geom.rot6d_to_matrix_batch(r),
                        atol=1e-9)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateInput):
            geom.rot6d_to_matrix_batch([0, 0, 0, 0, 1, 0])
        with pytest.raises(DegenerateInput):
            geom.rot6d_to_matrix_batch([1, 0, 0, 2, 0, 0])  # parallel columns

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        codes = rng.normal(size=(50, 6))
        batch = geom.rot6d_to_matrix_batch(codes)
        for i in range(50):
            assert_allclose(batch[i], geom.rot6d_to_matrix_batch(codes[i]), atol=1e-12)
        assert geom.rot6d_to_matrix_batch(codes[0]).shape == (3, 3)
        assert geom.matrix_to_rot6d_batch(batch[0]).shape == (6,)

    def test_batch_fallback_on_degenerate(self):
        codes = np.array([[1, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0.0]])
        out = geom.rot6d_to_matrix_batch(codes, fallback=True)
        assert_allclose(out[1], np.eye(3))
        with pytest.raises(DegenerateInput):
            geom.rot6d_to_matrix_batch(codes, fallback=False)


def _rot6d_reference(r, fallback=False):
    """The decode as first written, with np.linalg.norm, np.sum, np.cross
    and np.stack: the bitwise oracle for rot6d_to_matrix_batch."""
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape[:-1]
    flat = r.reshape(-1, 6)
    a1, a2 = flat[:, :3], flat[:, 3:]
    n1 = np.linalg.norm(a1, axis=1)
    bad1 = n1 <= 1e-8
    b1 = a1 / np.where(bad1, 1.0, n1)[:, None]
    a2p = a2 - np.sum(b1 * a2, axis=1, keepdims=True) * b1
    n2 = np.linalg.norm(a2p, axis=1)
    bad2 = n2 <= 1e-8
    b2 = a2p / np.where(bad2, 1.0, n2)[:, None]
    bad = bad1 | bad2
    if bad.any():
        if not fallback:
            raise DegenerateInput("degenerate 6D rotation in batch")
        b1[bad] = np.array([1.0, 0.0, 0.0])
        b2[bad] = np.array([0.0, 1.0, 0.0])
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=2).reshape(*shape, 3, 3)


class TestRot6dOracle:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (480, 21), (3, 5, 40)])
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_bitwise_equal_to_reference(self, shape, scale):
        rng = np.random.default_rng([len(shape), int(np.log10(scale)) + 6])
        r = rng.normal(size=shape + (6,)) * scale
        r[..., 3:] *= rng.uniform(0.01, 100.0, size=shape + (1,))
        given = r.copy()
        for fallback in (False, True):
            got = geom.rot6d_to_matrix_batch(r, fallback=fallback)
            assert r.tobytes() == given.tobytes()  # the input is left alone
            assert got.shape == shape + (3, 3) and got.flags.c_contiguous
            assert got.tobytes() == _rot6d_reference(r, fallback=fallback).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_degenerate_rows_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(12, 6))
        r[0] = 0.0                                     # all zero
        r[1, :3] = 0.0                                 # zero first column
        r[2, 3:] = 0.0                                 # zero second column
        r[3, 3:] = 2.5 * r[3, :3]                      # parallel columns
        r[4, 3:] = -r[4, :3]                           # antiparallel columns
        r[5, :3] = [1e-9, 0.0, 0.0]                    # below the column threshold
        r[6] = [1e-200, 1e-200, 0.0, 1.0, 0.0, 0.0]    # squares underflow
        r[7] = [1e200, 1e200, 0.0, 0.0, 1.0, 0.0]      # squares overflow
        r[8, :3] = [-0.0, 0.0, -0.0]
        for fallback in (False, True):
            for row in r:
                try:
                    want = _rot6d_reference(row, fallback=fallback)
                except DegenerateInput:
                    with pytest.raises(DegenerateInput):
                        geom.rot6d_to_matrix_batch(row, fallback=fallback)
                    continue
                assert geom.rot6d_to_matrix_batch(row, fallback=fallback).tobytes() == \
                    want.tobytes()
        assert geom.rot6d_to_matrix_batch(r.reshape(3, 4, 6), fallback=True).tobytes() == \
            _rot6d_reference(r.reshape(3, 4, 6), fallback=True).tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (2,), (480, 22), (476, 1), (5, 7, 9)])
def test_norm3_bitwise_equals_linalg_norm(shape):
    v = np.random.default_rng(len(shape)).normal(size=shape + (3,))
    assert geom.norm3(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


class TestSo3:
    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(1e-9, np.pi - 1e-3)
            assert_allclose(geom.log_so3(geom.exp_so3(v)), v, atol=1e-8)

    def test_log_small_angle_branch(self):
        v = np.array([1e-9, -2e-9, 5e-10])
        assert_allclose(geom.log_so3(geom.exp_so3(v)), v, atol=1e-15)


class TestAssertRotation:
    # every comparison with NaN is false, so a check written as `err > tol`
    # lets a NaN matrix through
    def test_a_nan_entry_raises(self):
        R = np.eye(3)
        R[1, 2] = np.nan
        with pytest.raises(DegenerateInput):
            geom.assert_rotation(R)

    def test_a_nan_matrix_raises(self):
        with pytest.raises(DegenerateInput):
            geom.assert_rotation(np.full((3, 3), np.nan))


class TestAngularVelocity:
    def test_equal_rotations_give_zero(self):
        rng = np.random.default_rng(2)
        R = geom.random_rotation(rng)
        assert_allclose(geom.angular_velocity(R, R, 0.01), np.zeros(3), atol=1e-12)

    def test_small_z_rotation(self):
        Rz = geom.exp_so3([0, 0, 0.01])
        w = geom.angular_velocity(np.eye(3), Rz, 0.01)
        assert_allclose(w, [0, 0, 1.0], atol=1e-8)

    def test_near_pi_rotation_is_finite_and_consistent(self):
        angle = np.pi - 1e-6
        axis = np.array([1.0, 0.0, 0.0])
        R_next = geom.exp_so3(axis * angle)
        w = geom.angular_velocity(np.eye(3), R_next, 1.0)
        assert np.all(np.isfinite(w))
        assert abs(np.linalg.norm(w) - angle) < 1e-9
        # reconstructing the rotation from the log closes the loop
        assert np.linalg.norm(geom.exp_so3(w) - R_next) < 1e-6

    def test_invalid_dt_raises(self):
        with pytest.raises(InvalidArgument):
            geom.angular_velocity(np.eye(3), np.eye(3), 0.0)
        with pytest.raises(InvalidArgument):
            geom.angular_velocity(np.eye(3), np.eye(3), -1.0)

    def test_antisymmetry_for_small_rotations(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            R0 = geom.random_rotation(rng)
            R1 = R0 @ geom.exp_so3(rng.normal(scale=0.01, size=3))
            w01 = geom.angular_velocity(R0, R1, 0.01)
            w10 = geom.angular_velocity(R1, R0, 0.01)
            assert_allclose(w01, -w10, atol=1e-9 / 0.01)

    def test_substep_composition_matches_one_step(self):
        # k uniform sub-steps of a fixed-axis rotation sum to the one-step value
        rng = np.random.default_rng(13)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        dt, k, rate = 0.1, 8, 1.3
        R = [geom.exp_so3(axis * rate * dt * i / k) for i in range(k + 1)]
        total = sum(geom.angular_velocity(R[i], R[i + 1], dt / k) for i in range(k)) / k
        one = geom.angular_velocity(R[0], R[k], dt)
        assert_allclose(total, one, atol=(dt / k) ** 2 * 10 + 1e-12)

    def test_matches_quaternion_log_oracle(self):
        # independent oracle: angle/axis from the quaternion of R_prev^T R_next
        rng = np.random.default_rng(31)
        for _ in range(100):
            R0 = geom.random_rotation(rng)
            R1 = geom.random_rotation(rng)
            dt = rng.uniform(0.01, 0.5)
            delta = R0.T @ R1
            tr = np.clip((np.trace(delta) - 1) / 2, -1, 1)
            angle = np.arccos(tr)
            w = geom.angular_velocity(R0, R1, dt)
            assert abs(np.linalg.norm(w) * dt - angle) < 1e-7


class TestAngularRate:
    @pytest.mark.parametrize("shape", [(2,), (7,), (9, 4)])
    def test_matches_per_frame_angular_velocity(self, shape):
        # central over two steps inside, one-sided at both ends
        rng = np.random.default_rng(17)
        R = geom.exp_so3(rng.normal(scale=0.6, size=shape + (3,)))
        fps = 50.0
        T = shape[0]
        want = np.empty(shape + (3,))
        for t in range(T):
            lo, hi = max(t - 1, 0), min(t + 1, T - 1)
            want[t] = geom.angular_velocity(R[lo], R[hi], (hi - lo) / fps)
        assert_allclose(geom.angular_rate(R, fps), want, rtol=1e-12, atol=1e-12)


# Per-element references: the scalar SO(3) maps as they were before the
# batched versions replaced them.

def ref_exp_so3(v):
    v = np.asarray(v, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(v)
    K = np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])
    if theta < geom.SMALL_ANGLE:
        return np.eye(3) + K + 0.5 * (K @ K)
    s = np.sin(theta) / theta
    c = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + s * K + c * (K @ K)


def ref_log_so3(R):
    R = np.asarray(R, dtype=np.float64)
    tr = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(tr)
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < geom.SMALL_ANGLE:
        return w
    if theta > geom.NEAR_PI:
        c = tr
        S = 0.5 * (R + R.T) - c * np.eye(3)
        diag = np.maximum(np.diag(S) / (1.0 - c), 0.0)
        axis = np.sqrt(diag)
        k = int(np.argmax(axis))
        for i in range(3):
            if i != k and S[k, i] < 0.0:
                axis[i] = -axis[i]
        axis /= np.linalg.norm(axis)
        if np.dot(axis, w) < 0.0:
            axis = -axis
        return axis * theta
    return w * (theta / np.sin(theta))


def ref_angular_velocity(R_prev, R_next, dt):
    return ref_log_so3(np.asarray(R_prev).T @ np.asarray(R_next)) / dt


def _per_element(fn, x, core_ndim, *rest):
    """Apply a single-element reference over every leading index of x."""
    lead = x.shape[:x.ndim - core_ndim]
    out = None
    for idx in np.ndindex(*lead):
        y = fn(x[idx], *(r[idx] for r in rest))
        if out is None:
            out = np.empty(lead + y.shape)
        out[idx] = y
    return out


def _mixed_vectors(rng):
    """Small-angle, generic and near-pi axis-angle vectors, interleaved."""
    axes = rng.normal(size=(12, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.array([0.0, 1e-9, 3e-8, 0.2, 1.0, 2.5, 3.0,
                       np.pi - 1e-6, np.pi - 3e-5, 1e-10, 1.7, np.pi - 2e-5])
    return axes * angles[:, None]


TOL = dict(rtol=1e-12, atol=1e-14)


class TestBatchedMaps:
    @pytest.mark.parametrize("shape", [(), (40,), (10, 5)])
    def test_exp_matches_reference(self, shape):
        rng = np.random.default_rng(41)
        v = rng.normal(scale=1.0, size=shape + (3,))
        out = geom.exp_so3(v)
        assert out.shape == shape + (3, 3)
        assert_allclose(out, _per_element(ref_exp_so3, v, 1), **TOL)

    @pytest.mark.parametrize("shape", [(), (40,), (10, 5)])
    def test_log_matches_reference(self, shape):
        rng = np.random.default_rng(43)
        R = _per_element(ref_exp_so3, rng.normal(size=shape + (3,)), 1)
        out = geom.log_so3(R)
        assert out.shape == shape + (3,)
        assert_allclose(out, _per_element(ref_log_so3, R, 2), **TOL)

    @pytest.mark.parametrize("shape", [(), (40,), (10, 5)])
    def test_angular_velocity_matches_reference(self, shape):
        rng = np.random.default_rng(47)
        R0 = _per_element(ref_exp_so3, rng.normal(size=shape + (3,)), 1)
        R1 = _per_element(ref_exp_so3, rng.normal(size=shape + (3,)), 1)
        out = geom.angular_velocity(R0, R1, 0.02)
        assert out.shape == shape + (3,)
        want = _per_element(lambda a, b: ref_angular_velocity(a, b, 0.02), R0, 2, R1)
        assert_allclose(out, want, **TOL)

    def test_mixed_branches_per_element(self):
        v = _mixed_vectors(np.random.default_rng(53))
        with np.errstate(all="raise"):
            R = geom.exp_so3(v)
            logs = geom.log_so3(R)
            back = geom.log_so3(R.reshape(3, 4, 3, 3))
            w = geom.angular_velocity(np.broadcast_to(np.eye(3), R.shape), R, 0.5)
            assert_allclose(R, _per_element(ref_exp_so3, v, 1), **TOL)
            assert_allclose(logs, _per_element(ref_log_so3, R, 2), **TOL)
        assert_allclose(back.reshape(12, 3), logs, **TOL)
        assert_allclose(w, logs / 0.5, **TOL)
        # every branch was taken at least once
        theta = np.linalg.norm(v, axis=1)
        assert (theta < geom.SMALL_ANGLE).any() and (theta > geom.NEAR_PI).any()
        assert ((theta > geom.SMALL_ANGLE) & (theta < geom.NEAR_PI)).any()

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            geom.exp_so3(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            geom.log_so3(np.zeros((4, 3)))
