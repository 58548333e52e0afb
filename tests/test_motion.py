import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import fileio, geom, motion
from imutok.errors import FormatError, InvalidArgument, TooShort
from imutok.motion import (MOTION_WIDTH, RawPoseTrack,
                           build_motion_representation, derive_contacts,
                           generate_synthetic_motion, resample, track_from_motion)
from imutok.skeleton import (DEFAULT_SKELETON, STANDING_ROOT_HEIGHT, Skeleton,
                             forward_kinematics_sequence)


def _static_track(T=60, fps=60.0, root_y=STANDING_ROOT_HEIGHT):
    root_pos = np.zeros((T, 3))
    root_pos[:, 1] = root_y
    root_rot = np.tile(np.eye(3), (T, 1, 1))
    local = np.tile(np.eye(3), (T, 21, 1, 1))
    return RawPoseTrack(root_pos=root_pos, root_rot=root_rot, local_rots=local, fps=fps)


class TestSkeleton:
    def test_default_tree_shape(self):
        skel = DEFAULT_SKELETON
        assert skel.joint_count == 22
        assert skel.parents[0] == -1
        assert all(skel.parents[j] < j for j in range(1, 22))

    def test_feet_touch_ground_at_standing_height(self):
        track = _static_track(T=5)
        pos = forward_kinematics_sequence(DEFAULT_SKELETON, track.root_pos,
                                          track.root_rot, track.local_rots)
        feet_y = pos[0, list(DEFAULT_SKELETON.foot_joints), 1]
        assert_allclose(feet_y, 0.0, atol=1e-12)

    def test_foot_joints_are_leaves(self):
        with pytest.raises(ValueError):
            Skeleton(foot_joints=(0, 4, 10, 9))


def _fk_frame(skel, root_pos, root_rot, local_rots):
    """FK of one frame through the sequence function."""
    return forward_kinematics_sequence(skel, np.asarray(root_pos)[None],
                                       np.asarray(root_rot)[None],
                                       np.asarray(local_rots)[None])[0]


class TestForwardKinematics:
    def test_identity_pose_gives_cumulative_offsets(self):
        skel = DEFAULT_SKELETON
        pos = _fk_frame(skel, np.zeros(3), np.eye(3), np.tile(np.eye(3), (21, 1, 1)))
        expected = np.zeros((22, 3))
        for j in range(1, 22):
            expected[j] = expected[skel.parents[j]] + skel.rest_offsets[j]
        assert_allclose(pos, expected, atol=1e-14)

    def test_root_translation_equivariance(self):
        skel = DEFAULT_SKELETON
        rots = np.tile(np.eye(3), (21, 1, 1))
        base = _fk_frame(skel, np.zeros(3), np.eye(3), rots)
        moved = _fk_frame(skel, np.array([1.0, 0, 0]), np.eye(3), rots)
        assert_allclose(moved, base + np.array([1.0, 0, 0]), atol=1e-14)

    def test_two_link_chain_with_bent_middle_joint(self):
        # two unit bones; rotating the middle joint 90 degrees about z puts
        # the end effector at (1, 1, 0)
        skel = Skeleton(parents=(-1, 0, 1),
                        rest_offsets=np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0.0]]),
                        foot_joints=(2, 2, 2, 2))
        rots = np.stack([geom.exp_so3([0, 0, np.pi / 2]), np.eye(3)])
        pos = _fk_frame(skel, np.zeros(3), np.eye(3), rots)
        assert_allclose(pos[2], [1.0, 1.0, 0.0], atol=1e-12)

    def test_bone_lengths_are_rigid_for_random_poses(self):
        skel = DEFAULT_SKELETON
        rng = np.random.default_rng(4)
        T = 20
        rots = np.stack([[geom.random_rotation(rng) for _ in range(21)] for _ in range(T)])
        root_rot = np.stack([geom.random_rotation(rng) for _ in range(T)])
        pos = forward_kinematics_sequence(skel, rng.normal(size=(T, 3)), root_rot, rots)
        for j in range(1, 22):
            bone = np.linalg.norm(pos[:, j] - pos[:, skel.parents[j]], axis=1)
            assert_allclose(bone, np.linalg.norm(skel.rest_offsets[j]), atol=1e-12)


class TestRepresentation:
    def test_width_is_271(self):
        seq = build_motion_representation(_static_track())
        assert seq.frames.shape[1] == MOTION_WIDTH == 271

    def test_channel_layout_round_trip(self):
        seq = build_motion_representation(_static_track(T=10))
        rebuilt = np.concatenate([
            seq.root_pos, seq.root_vel, seq.root_rot6d, seq.root_angvel,
            seq.joint_rot6d.reshape(10, -1), seq.joint_pos.reshape(10, -1),
            seq.joint_vel.reshape(10, -1), seq.contacts,
        ], axis=1)
        assert np.array_equal(rebuilt, seq.frames)

    def test_static_pose_velocities_zero_contacts_one(self):
        seq = build_motion_representation(_static_track())
        assert_allclose(seq.root_vel, 0.0, atol=1e-12)
        assert_allclose(seq.root_angvel, 0.0, atol=1e-12)
        assert_allclose(seq.joint_vel, 0.0, atol=1e-12)
        assert_allclose(seq.contacts, 1.0)

    def test_constant_root_velocity(self):
        track = _static_track(T=60)
        t = np.arange(60) / track.fps
        track.root_pos[:, 0] += t  # 1 m/s along x
        seq = build_motion_representation(track)
        assert_allclose(seq.root_vel[1:-1, 0], 1.0, atol=1e-9)

    def test_sinusoidal_root_velocity_amplitude(self):
        fps, T = 60.0, 600
        track = _static_track(T=T, fps=fps)
        t = np.arange(T) / fps
        track.root_pos[:, 0] += 0.1 * np.sin(2 * np.pi * t)
        seq = build_motion_representation(track)
        # analytic derivative amplitude is 0.2*pi
        amp = np.abs(seq.root_vel[1:-1, 0]).max()
        assert abs(amp - 0.2 * np.pi) / (0.2 * np.pi) < 0.005

    def test_too_short_raises(self):
        with pytest.raises(TooShort):
            build_motion_representation(_static_track(T=2))

    def test_translation_shift_changes_only_root_position(self):
        track = _static_track(T=30)
        rng = np.random.default_rng(0)
        for j in range(21):
            track.local_rots[:, j] = geom.exp_so3(rng.normal(scale=0.1, size=3))
        seq_a = build_motion_representation(track)
        shifted = RawPoseTrack(track.root_pos + np.array([2.0, 0.0, -1.0]),
                               track.root_rot.copy(), track.local_rots.copy(), track.fps)
        seq_b = build_motion_representation(shifted)
        assert_allclose(seq_b.root_pos, seq_a.root_pos + np.array([2.0, 0.0, -1.0]))
        assert_allclose(seq_b.joint_pos, seq_a.joint_pos, atol=1e-9)
        assert_allclose(seq_b.joint_vel, seq_a.joint_vel, atol=1e-9)
        assert np.array_equal(seq_b.contacts, seq_a.contacts)

    def test_track_recovery_round_trip(self):
        track = _static_track(T=20)
        rng = np.random.default_rng(1)
        for j in (0, 5, 12):
            track.local_rots[:, j] = geom.random_rotation(rng)
        track.root_rot[:] = geom.random_rotation(rng)
        seq = build_motion_representation(track)
        back = track_from_motion(seq)
        assert_allclose(back.root_rot, track.root_rot, atol=1e-10)
        assert_allclose(back.local_rots, track.local_rots, atol=1e-10)
        assert_allclose(back.root_pos, track.root_pos, atol=1e-12)


class TestContacts:
    def test_planted_foot(self):
        pos = np.zeros((50, 4, 3))
        pos[:, :, 1] = 0.005
        assert_allclose(derive_contacts(pos, 60.0), 1.0)

    def test_high_foot(self):
        pos = np.zeros((50, 4, 3))
        pos[:, :, 1] = 0.5
        assert_allclose(derive_contacts(pos, 60.0), 0.0)

    def test_sliding_foot_fails_velocity_gate(self):
        fps = 60.0
        pos = np.zeros((50, 4, 3))
        pos[:, :, 1] = 0.01
        pos[:, 0, 0] = np.arange(50) / fps  # 1 m/s slide on channel 0
        labels = derive_contacts(pos, fps)
        assert_allclose(labels[1:-1, 0], 0.0)
        assert_allclose(labels[:, 1:], 1.0)


class TestSyntheticMotion:
    def test_same_seed_is_bitwise_identical(self):
        a = generate_synthetic_motion(42, 2.0, 60.0, "walk")
        b = generate_synthetic_motion(42, 2.0, 60.0, "walk")
        assert np.array_equal(a.root_pos, b.root_pos)
        assert np.array_equal(a.root_rot, b.root_rot)
        assert np.array_equal(a.local_rots, b.local_rots)

    def test_different_seeds_differ(self):
        a = generate_synthetic_motion(1, 2.0, 60.0, "walk")
        b = generate_synthetic_motion(2, 2.0, 60.0, "walk")
        assert not np.array_equal(a.local_rots, b.local_rots)

    def test_idle_sway_is_slow(self):
        track = generate_synthetic_motion(7, 5.0, 60.0, "idle_sway")
        max_speed = 0.0
        for j in range(21):
            for t in range(len(track) - 1):
                w = geom.angular_velocity(track.local_rots[t, j],
                                          track.local_rots[t + 1, j], 1 / 60.0)
                max_speed = max(max_speed, np.linalg.norm(w))
        assert max_speed < 2.0

    def test_walk_contact_alternation(self):
        track = generate_synthetic_motion(3, 10.0, 60.0, "walk")
        assert len(track) == 600
        seq = build_motion_representation(track)
        left = seq.contacts[:, 0]   # left toe
        right = seq.contacts[:, 2]  # right toe
        # each foot must plant and lift repeatedly, out of phase
        assert 0.2 < left.mean() < 0.95
        assert 0.2 < right.mean() < 0.95
        only_left = ((left == 1) & (right == 0)).any()
        only_right = ((right == 1) & (left == 0)).any()
        assert only_left and only_right
        # at least 3 plant/lift transitions per foot over 10 s
        assert np.abs(np.diff(left)).sum() >= 3
        assert np.abs(np.diff(right)).sum() >= 3

    def test_squat_and_walk_keep_a_foot_near_ground(self):
        for style in ("walk", "squat"):
            track = generate_synthetic_motion(11, 4.0, 60.0, style)
            pos = forward_kinematics_sequence(DEFAULT_SKELETON, track.root_pos,
                                              track.root_rot, track.local_rots)
            feet_y = pos[:, list(DEFAULT_SKELETON.foot_joints), 1]
            assert feet_y.min(axis=1).max() < 1e-9
            assert feet_y.min() > -1e-9

    def test_bad_style_and_duration(self):
        with pytest.raises(InvalidArgument):
            generate_synthetic_motion(0, 1.0, 60.0, "moonwalk")
        with pytest.raises(InvalidArgument):
            generate_synthetic_motion(0, -1.0, 60.0, "walk")


class TestResample:
    def test_identity_when_fps_matches(self):
        track = generate_synthetic_motion(5, 2.0, 60.0, "arm_raise")
        out = resample(track, 60.0)
        assert np.array_equal(out.root_pos, track.root_pos)
        assert np.array_equal(out.local_rots, track.local_rots)

    def test_downsample_on_linear_ramp_is_exact_subsample(self):
        T = 121
        track = _static_track(T=T, fps=120.0)
        track.root_pos[:, 0] = np.linspace(0, 1, T)
        out = resample(track, 60.0)
        assert len(out) == 61
        assert np.array_equal(out.root_pos, track.root_pos[::2])

    def test_upsample_constant_rate_rotation_hits_analytic_half_steps(self):
        fps, T = 30.0, 31
        rate = 0.9  # rad/s about z
        track = _static_track(T=T, fps=fps)
        for t in range(T):
            track.root_rot[t] = geom.exp_so3([0, 0, rate * t / fps])
        out = resample(track, 60.0)
        assert out.fps == 60.0
        for i in range(len(out)):
            expected = geom.exp_so3([0, 0, rate * i / 60.0])
            assert np.linalg.norm(out.root_rot[i] - expected) < 1e-8

    def test_bad_fps(self):
        with pytest.raises(InvalidArgument):
            resample(_static_track(), 0.0)


class TestMotionFile:
    def test_round_trip(self, tmp_path):
        seq = build_motion_representation(_static_track(T=16))
        path = tmp_path / "static.mjt1"
        fileio.write_motion_file(path, seq.frames, seq.fps)
        frames, fps, joints = fileio.read_motion_file(path)
        assert fps == 60.0 and joints == 22
        assert np.array_equal(frames, seq.frames.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mjt1"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            fileio.read_motion_file(path)

    def test_truncated(self, tmp_path):
        seq = build_motion_representation(_static_track(T=16))
        path = tmp_path / "t.mjt1"
        fileio.write_motion_file(path, seq.frames, seq.fps)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError):
            fileio.read_motion_file(path)
