import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import fileio, geom, motion
from imutok.errors import FormatError, InvalidArgument, TooShort
from imutok.motion import (MOTION_WIDTH, RawPoseTrack,
                           build_motion_representation, derive_contacts,
                           generate_synthetic_motion, track_from_motion)
from imutok.skeleton import (FOOT_JOINTS, JOINT_COUNT, PARENTS, REST_OFFSETS,
                             STANDING_ROOT_HEIGHT, forward_kinematics_sequence)


def _static_track(T=60, fps=60.0, root_y=STANDING_ROOT_HEIGHT):
    root_pos = np.zeros((T, 3))
    root_pos[:, 1] = root_y
    root_rot = np.tile(np.eye(3), (T, 1, 1))
    local = np.tile(np.eye(3), (T, 21, 1, 1))
    return RawPoseTrack(root_pos=root_pos, root_rot=root_rot, local_rots=local, fps=fps)


class TestSkeleton:
    def test_default_tree_shape(self):
        assert len(PARENTS) == JOINT_COUNT == 22
        assert REST_OFFSETS.shape == (22, 3) and REST_OFFSETS.dtype == np.float64
        assert np.isfinite(REST_OFFSETS).all()
        assert PARENTS[0] == -1
        assert all(0 <= PARENTS[j] < j for j in range(1, 22))

    def test_feet_touch_ground_at_standing_height(self):
        track = _static_track(T=5)
        pos = forward_kinematics_sequence(track.root_pos, track.root_rot, track.local_rots)
        feet_y = pos[0, list(FOOT_JOINTS), 1]
        assert_allclose(feet_y, 0.0, atol=1e-12)

    def test_foot_joints_are_leaves(self):
        assert len(set(FOOT_JOINTS)) == 4
        assert not set(FOOT_JOINTS) & set(PARENTS)


def _fk_frame(root_pos, root_rot, local_rots):
    """FK of one frame through the sequence function."""
    return forward_kinematics_sequence(np.asarray(root_pos)[None],
                                       np.asarray(root_rot)[None],
                                       np.asarray(local_rots)[None])[0]


class TestForwardKinematics:
    def test_identity_pose_gives_cumulative_offsets(self):
        pos = _fk_frame(np.zeros(3), np.eye(3), np.tile(np.eye(3), (21, 1, 1)))
        expected = np.zeros((22, 3))
        for j in range(1, 22):
            expected[j] = expected[PARENTS[j]] + REST_OFFSETS[j]
        assert_allclose(pos, expected, atol=1e-14)

    def test_root_translation_equivariance(self):
        rots = np.tile(np.eye(3), (21, 1, 1))
        base = _fk_frame(np.zeros(3), np.eye(3), rots)
        moved = _fk_frame(np.array([1.0, 0, 0]), np.eye(3), rots)
        assert_allclose(moved, base + np.array([1.0, 0, 0]), atol=1e-14)

    def test_two_link_chain_with_bent_middle_joint(self):
        # hip -> knee -> ankle: bending the left knee (joint 2) 90 degrees
        # about x turns the knee-to-ankle bone from (0, -0.42, 0) to
        # (0, 0, -0.42) and leaves the hip-to-knee bone as it was
        rots = np.tile(np.eye(3), (21, 1, 1))
        rots[2 - 1] = geom.exp_so3([np.pi / 2, 0, 0])
        pos = _fk_frame(np.zeros(3), np.eye(3), rots)
        assert_allclose(pos[2] - pos[1], [0.0, -0.40, 0.0], atol=1e-12)
        assert_allclose(pos[3] - pos[2], [0.0, 0.0, -0.42], atol=1e-12)

    def test_bone_lengths_are_rigid_for_random_poses(self):
        rng = np.random.default_rng(4)
        T = 20
        rots = np.stack([[geom.random_rotation(rng) for _ in range(21)] for _ in range(T)])
        root_rot = np.stack([geom.random_rotation(rng) for _ in range(T)])
        pos = forward_kinematics_sequence(rng.normal(size=(T, 3)), root_rot, rots)
        for j in range(1, 22):
            bone = np.linalg.norm(pos[:, j] - pos[:, PARENTS[j]], axis=1)
            assert_allclose(bone, np.linalg.norm(REST_OFFSETS[j]), atol=1e-12)

    def test_positions_without_rotations_are_bitwise_the_same(self):
        # positions-only FK skips the leaf joints' global rotations, which no
        # position reads
        rng = np.random.default_rng(5)
        T = 30
        rots = np.stack([[geom.random_rotation(rng) for _ in range(21)] for _ in range(T)])
        root_rot = np.stack([geom.random_rotation(rng) for _ in range(T)])
        root_pos = rng.normal(size=(T, 3))
        pos, glob = forward_kinematics_sequence(root_pos, root_rot, rots, return_rotations=True)
        assert forward_kinematics_sequence(root_pos, root_rot, rots).tobytes() == pos.tobytes()
        for j in range(1, JOINT_COUNT):
            assert glob[:, j].tobytes() == (glob[:, PARENTS[j]] @ rots[:, j - 1]).tobytes()


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


class TestAxisRotation:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_closed_form(self, axis):
        a = np.linspace(-3.0, 3.0, 13)
        c, s, o, z = np.cos(a), np.sin(a), np.ones_like(a), np.zeros_like(a)
        closed = [
            [[o, z, z], [z, c, -s], [z, s, c]],   # x
            [[c, z, s], [z, o, z], [-s, z, c]],   # y
            [[c, -s, z], [s, c, z], [z, z, o]],   # z
        ][axis]
        assert np.array_equal(motion._rot(axis, a), np.moveaxis(np.array(closed), -1, 0))


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
            pos = forward_kinematics_sequence(track.root_pos, track.root_rot,
                                              track.local_rots)
            feet_y = pos[:, list(FOOT_JOINTS), 1]
            assert feet_y.min(axis=1).max() < 1e-9
            assert feet_y.min() > -1e-9

    def test_bad_style_and_duration(self):
        with pytest.raises(InvalidArgument):
            generate_synthetic_motion(0, 1.0, 60.0, "moonwalk")
        with pytest.raises(InvalidArgument):
            generate_synthetic_motion(0, -1.0, 60.0, "walk")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidArgument, match="seed"):
            generate_synthetic_motion(seed, 1.0, 60.0, "walk")

    @pytest.mark.parametrize("duration_s, fps", [
        (1.0, -60.0), (1.0, 0.0), (1.0, float("nan")), (1.0, float("inf")),
        (float("nan"), 60.0), (float("inf"), 60.0)])
    def test_duration_and_fps_must_be_finite_and_positive(self, duration_s, fps):
        with pytest.raises(InvalidArgument):
            generate_synthetic_motion(0, duration_s, fps, "walk")

    # the three largest used to fail allocating the frame times, or computing their count
    @pytest.mark.parametrize("duration_s, fps", [
        ((motion.MAX_SYNTH_FRAMES + 1) / 60.0, 60.0), (1e7, 1000.0), (1e200, 60.0),
        (1e308, 1e308)])
    def test_frame_count_is_bounded(self, duration_s, fps):
        with pytest.raises(InvalidArgument, match="frames"):
            generate_synthetic_motion(0, duration_s, fps, "walk")


class TestFpsRule:
    @pytest.mark.parametrize("fps", [0.0, -60.0, float("nan"), float("inf"), -float("inf")])
    def test_sequence_types_reject_bad_fps(self, fps):
        from imutok.imusim import IMU_WIDTH, InertiaSequence
        from imutok.stream import TokenSequence
        with pytest.raises(InvalidArgument, match="fps"):
            motion.MotionSequence(frames=np.zeros((4, MOTION_WIDTH)), fps=fps)
        with pytest.raises(InvalidArgument, match="fps"):
            RawPoseTrack(root_pos=np.zeros((4, 3)), root_rot=np.tile(np.eye(3), (4, 1, 1)),
                         local_rots=np.tile(np.eye(3), (4, 21, 1, 1)), fps=fps)
        with pytest.raises(InvalidArgument, match="fps"):
            InertiaSequence(frames=np.zeros((4, IMU_WIDTH)), fps=fps)
        with pytest.raises(InvalidArgument, match="fps"):
            TokenSequence(tokens=np.arange(3), l=4, fps=fps, K=8, codebook_digest=bytes(32))

    @pytest.mark.parametrize("fps", [1e-3, 60.0, 1e6])
    def test_positive_finite_fps_accepted(self, fps):
        assert motion.MotionSequence(frames=np.zeros((4, MOTION_WIDTH)), fps=fps).fps == fps


class TestMotionFile:
    def test_round_trip(self, tmp_path):
        seq = build_motion_representation(_static_track(T=16))
        path = tmp_path / "static.mjt1"
        fileio.write_motion_file(path, seq.frames, seq.fps)
        back = fileio.read_motion_file(path)
        assert back.fps == 60.0
        assert np.array_equal(back.frames, seq.frames.astype(np.float32))

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
