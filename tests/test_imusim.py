import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import fileio, geom, imusim
from imutok.errors import EmptyCorpus, ImutokError, InvalidArgument, TooShort
from imutok.imusim import (IMU_WIDTH, SL_ACC, SL_GYR, InertiaSequence,
                           NoiseConfig, NormStats, SensorPlacement, apply_corruption,
                           apply_corruption_batch, apply_drift, apply_drift_batch,
                           fit_norm_stats, normalize_acceleration, synthesize_imu)
from imutok.motion import RawPoseTrack, generate_synthetic_motion
from imutok.skeleton import STANDING_ROOT_HEIGHT, forward_kinematics_sequence
from tests.test_geom import ref_exp_so3


def _static_track(T=60, fps=60.0):
    root_pos = np.zeros((T, 3))
    root_pos[:, 1] = STANDING_ROOT_HEIGHT
    return RawPoseTrack(root_pos=root_pos, root_rot=np.tile(np.eye(3), (T, 1, 1)),
                        local_rots=np.tile(np.eye(3), (T, 21, 1, 1)), fps=fps)


def _random_imu(T=100, fps=60.0, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(T, IMU_WIDTH))
    # orientation channels must decode, so plant valid codes
    for i in range(6):
        for t in range(T):
            frames[t, 6 * i:6 * i + 6] = geom.matrix_to_rot6d_batch(geom.random_rotation(rng))
    return InertiaSequence(frames=frames, fps=fps)


class TestSynthesize:
    def test_stationary_pose_gives_zero_dynamics(self):
        seq = synthesize_imu(_static_track())
        assert_allclose(seq.acc, 0.0, atol=1e-9)
        assert_allclose(seq.gyro, 0.0, atol=1e-12)
        assert np.array_equal(seq.frames[0, :36], seq.frames[-1, :36])
        assert seq.frames.shape[1] == IMU_WIDTH == 72

    def test_sinusoidal_position_acceleration_amplitude(self):
        fps, T, A, f = 60.0, 180, 0.1, 1.0
        track = _static_track(T=T, fps=fps)
        t = np.arange(T) / fps
        track.root_pos[:, 0] += A * np.sin(2 * np.pi * f * t)
        seq = synthesize_imu(track)
        analytic = A * (2 * np.pi * f) ** 2
        measured = np.abs(seq.acc[2:-2, 0, 0]).max()  # pelvis sensor, x
        assert abs(measured - analytic) / analytic < 0.02

    def test_constant_rotation_rate_body_frame(self):
        fps, T, rate = 60.0, 100, 1.0
        track = _static_track(T=T, fps=fps)
        for t in range(T):
            track.root_rot[t] = geom.exp_so3([0, 0, rate * t / fps])
        seq = synthesize_imu(track)
        expected = np.tile([0.0, 0.0, rate], (T - 2, 1))
        assert_allclose(seq.gyro[1:-1, 0], expected, atol=1e-6)

    def test_translation_equivariance(self):
        track = _static_track(T=40)
        rng = np.random.default_rng(8)
        track.root_pos += rng.normal(scale=0.05, size=track.root_pos.shape)
        a = synthesize_imu(track)
        shifted = RawPoseTrack(track.root_pos + np.array([5.0, 1.0, -2.0]),
                               track.root_rot.copy(), track.local_rots.copy(), track.fps)
        b = synthesize_imu(shifted)
        assert_allclose(b.frames, a.frames, atol=1e-7)

    def test_too_short(self):
        with pytest.raises(TooShort):
            synthesize_imu(_static_track(T=4))

    def test_equals_per_sensor_loop(self):
        # oracle: the per-sensor loop the batched pass replaced
        rng = np.random.default_rng(5)
        placement = SensorPlacement(
            joints=(0, 15, 18, 21, 3, 8),
            mounts=np.stack([geom.random_rotation(rng) for _ in range(6)]),
            levers=rng.normal(scale=0.05, size=(6, 3)))
        track = generate_synthetic_motion(11, 2.0, 60.0, "walk")
        fps, dt = track.fps, 1.0 / track.fps
        pos, glob = forward_kinematics_sequence(track.root_pos, track.root_rot,
                                                track.local_rots, return_rotations=True)
        T = len(track)
        want = np.empty((T, IMU_WIDTH))
        for i in range(6):
            j = placement.joints[i]
            Rg = glob[:, j]
            Rs = Rg @ placement.mounts[i]
            x = pos[:, j] + np.einsum("tab,b->ta", Rg, placement.levers[i])
            acc = np.empty((T, 3))
            acc[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fps * fps
            acc[0] = (x[2] - 2.0 * x[1] + x[0]) * fps * fps
            acc[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) * fps * fps
            omega = np.empty((T, 3))
            omega[1:-1] = geom.angular_velocity(Rs[:-2], Rs[2:], 2 * dt)
            omega[0] = geom.angular_velocity(Rs[0], Rs[1], dt)
            omega[-1] = geom.angular_velocity(Rs[-2], Rs[-1], dt)
            want[:, 6 * i:6 * i + 6] = geom.matrix_to_rot6d_batch(Rs)
            want[:, SL_ACC][:, 3 * i:3 * i + 3] = acc
            want[:, SL_GYR][:, 3 * i:3 * i + 3] = omega
        assert np.array_equal(synthesize_imu(track, placement).frames, want)

    def test_placement_validation(self):
        with pytest.raises(InvalidArgument):
            SensorPlacement(joints=(0, 0, 1, 2, 3, 4))


class TestNoiseConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(drift_sigma_acc=-0.1),
        dict(drift_sigma_acc=np.inf),
        dict(gaussian_sigma_gyr=np.nan),
        dict(corrupted_sensors=(6,)),
        dict(corrupted_sensors=(3,), dropout=(True,)),
        dict(dropout=(False,) * 7),
    ], ids=["negative", "inf", "nan", "sensor_6", "dropout_1", "dropout_7"])
    def test_hostile_profiles_raise(self, kwargs):
        with pytest.raises(InvalidArgument):
            NoiseConfig(**kwargs)


def _drift_reference(frames, cfg, sensors):
    """apply_drift as first written: one sensor at a time, one 3x3 product
    per frame of the orientation walk."""
    out = frames.copy()
    T = len(frames)
    for i in sensors:
        rng = imusim._sensor_rng(cfg.seed, 1, i)
        if cfg.drift_sigma_ori > 0:
            inc = rng.normal(0.0, cfg.drift_sigma_ori, size=(T - 1, 3))
            R = geom.rot6d_to_matrix_batch(frames[:, 6 * i:6 * i + 6], fallback=True)
            D = geom.exp_so3(inc)
            for t in range(1, T - 1):
                D[t] = D[t] @ D[t - 1]
            drifted = R.copy()
            drifted[1:] = D @ R[1:]
            out[:, 6 * i:6 * i + 6] = geom.matrix_to_rot6d_batch(drifted)
        for sl, sigma in ((SL_ACC, cfg.drift_sigma_acc), (SL_GYR, cfg.drift_sigma_gyr)):
            if sigma > 0:
                walk = np.zeros((T, 3))
                walk[1:] = np.cumsum(rng.normal(0.0, sigma, size=(T - 1, 3)), axis=0)
                out[:, sl.start + 3 * i:sl.start + 3 * i + 3] += walk
    return out


def _corruption_reference(frames, cfg):
    """apply_corruption's per-frame noise as first written, one sensor at a
    time (no dropout)."""
    out = frames.copy()
    T = len(frames)
    for i in cfg.corrupted_sensors:
        rng = imusim._sensor_rng(cfg.seed, 2, i)
        if cfg.gaussian_sigma_ori > 0:
            zeta = rng.normal(0.0, cfg.gaussian_sigma_ori, size=(T, 3))
            R = geom.rot6d_to_matrix_batch(frames[:, 6 * i:6 * i + 6], fallback=True)
            out[:, 6 * i:6 * i + 6] = geom.matrix_to_rot6d_batch(geom.exp_so3(zeta) @ R)
        for sl, sigma in ((SL_ACC, cfg.gaussian_sigma_acc), (SL_GYR, cfg.gaussian_sigma_gyr)):
            if sigma > 0:
                out[:, sl.start + 3 * i:sl.start + 3 * i + 3] += rng.normal(0.0, sigma,
                                                                            size=(T, 3))
    return out


# mixed cases for the batched forms: sensor sets of 0 to 3 sensors, and
# configs that switch single noise sources off
_BATCH_CASES = [
    ((0,), dict(seed=1)),
    ((2, 5), dict(seed=2, drift_sigma_ori=0.09, gaussian_sigma_ori=0.3)),
    ((1, 3, 4), dict(seed=3, drift_sigma_acc=0.0, gaussian_sigma_acc=2.0)),
    ((), dict(seed=4)),
    ((5, 0, 3), dict(seed=5, drift_sigma_ori=0.0, gaussian_sigma_gyr=0.5)),
    ((4,), dict(seed=6, gaussian_sigma_ori=0.0, gaussian_sigma_acc=1.0)),
]


class TestBatched:
    @pytest.mark.parametrize("T", [1, 2, 3, 60])
    def test_drift_batch_bitwise_equals_per_sensor_reference(self, T):
        seqs = [_random_imu(T=T, seed=s) for s in range(len(_BATCH_CASES))]
        cfgs = [NoiseConfig(**kw) for _, kw in _BATCH_CASES]
        sensor_sets = [sensors for sensors, _ in _BATCH_CASES]
        frames = np.stack([q.frames for q in seqs])
        got = apply_drift_batch(frames, cfgs, sensor_sets)
        assert np.array_equal(frames, np.stack([q.frames for q in seqs]))  # input untouched
        for c, (seq, cfg, sensors) in enumerate(zip(seqs, cfgs, sensor_sets)):
            want = _drift_reference(seq.frames, cfg, sensors)
            assert got[c].tobytes() == want.tobytes()
            assert apply_drift(seq, cfg, sensors=sensors).frames.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [1, 2, 3, 60])
    def test_corruption_batch_bitwise_equals_per_sensor_reference(self, T):
        seqs = [_random_imu(T=T, seed=10 + s) for s in range(len(_BATCH_CASES))]
        noise = dict(gaussian_sigma_ori=0.2, gaussian_sigma_acc=3.0, gaussian_sigma_gyr=1.0)
        cfgs = [NoiseConfig(corrupted_sensors=sensors, **{**noise, **kw})
                for sensors, kw in _BATCH_CASES]
        frames = np.stack([q.frames for q in seqs])
        got = apply_corruption_batch(frames, cfgs)
        for c, (seq, cfg) in enumerate(zip(seqs, cfgs)):
            want = _corruption_reference(seq.frames, cfg)
            assert got[c].tobytes() == want.tobytes()
            assert apply_corruption(seq, cfg).frames.tobytes() == want.tobytes()

    def test_batch_shape_and_sensor_checks(self):
        frames = _random_imu(T=10).frames
        with pytest.raises(ImutokError):
            apply_drift_batch(frames, [NoiseConfig()], [(0,)])           # no case axis
        with pytest.raises(ImutokError):
            apply_drift_batch(frames[None], [NoiseConfig()] * 2, [(0,)])  # two configs
        with pytest.raises(InvalidArgument):
            apply_drift_batch(frames[None], [NoiseConfig()], [(6,)])


class TestDrift:
    def test_zero_sigma_is_identity(self):
        seq = _random_imu()
        cfg = NoiseConfig(drift_sigma_ori=0.0, drift_sigma_acc=0.0, drift_sigma_gyr=0.0)
        out = apply_drift(seq, cfg)
        assert np.array_equal(out.frames, seq.frames)

    def test_deterministic_given_seed(self):
        seq = _random_imu()
        cfg = NoiseConfig(seed=123)
        a = apply_drift(seq, cfg)
        b = apply_drift(seq, cfg)
        assert np.array_equal(a.frames, b.frames)

    def test_acceleration_walk_variance_grows_linearly(self):
        # Monte-Carlo oracle: var of the drift offset at step t across seeds
        # approaches t * sigma^2
        sigma, T, n_seeds = 0.5, 9, 10000
        base = InertiaSequence(frames=np.zeros((T, IMU_WIDTH)), fps=60.0)
        # plant identity orientations so decode paths stay silent
        base.frames[:, 0] = 1.0
        base.frames[:, 4] = 1.0
        samples = np.empty(n_seeds)
        for s in range(n_seeds):
            cfg = NoiseConfig(drift_sigma_ori=0.0, drift_sigma_gyr=0.0,
                              drift_sigma_acc=sigma, seed=s)
            out = apply_drift(base, cfg, sensors=(0,))
            samples[s] = out.frames[T - 1, SL_ACC.start]
        var = samples.var()
        expected = (T - 1) * sigma ** 2
        assert abs(var - expected) / expected < 0.05

    def test_orientation_drift_first_step_matches_sampler_oracle(self):
        sigma, n_seeds = 0.05, 4000
        base = InertiaSequence(frames=np.zeros((2, IMU_WIDTH)), fps=60.0)
        base.frames[:, 0] = 1.0
        base.frames[:, 4] = 1.0
        dists = np.empty(n_seeds)
        for s in range(n_seeds):
            cfg = NoiseConfig(drift_sigma_ori=sigma, drift_sigma_acc=0.0,
                              drift_sigma_gyr=0.0, seed=s)
            out = apply_drift(base, cfg, sensors=(0,))
            R = geom.rot6d_to_matrix_batch(out.frames[1, :6])
            dists[s] = np.linalg.norm(geom.log_so3(R))
        # oracle: mean norm of N(0, sigma^2 I_3) draws, Monte-Carlo of the
        # same distribution (no closed form asserted)
        rng = np.random.default_rng(999)
        oracle = np.linalg.norm(rng.normal(0, sigma, size=(200000, 3)), axis=1).mean()
        assert abs(dists.mean() - oracle) / oracle < 0.05

    def test_restricting_sensors_matches_spliced_full_run(self):
        seq = _random_imu(T=30)
        cfg = NoiseConfig(seed=5)
        full = apply_drift(seq, cfg)
        only2 = apply_drift(seq, cfg, sensors=(2,))
        assert np.array_equal(only2.frames[:, 12:18], full.frames[:, 12:18])
        assert np.array_equal(only2.frames[:, :12], seq.frames[:, :12])

    def test_orientation_walk_matches_per_frame_reference(self):
        # the walk D_t = exp(inc_{t-1}) @ D_{t-1}, one frame at a time
        seq = _random_imu(T=200, seed=4)
        cfg = NoiseConfig(drift_sigma_ori=0.09, seed=17)
        out = apply_drift(seq, cfg, sensors=(1, 3))
        for i in (1, 3):
            rng = imusim._sensor_rng(cfg.seed, 1, i)
            inc = rng.normal(0.0, cfg.drift_sigma_ori, size=(len(seq) - 1, 3))
            R = geom.rot6d_to_matrix_batch(seq.ori6d[:, i], fallback=True)
            D = np.eye(3)
            want = np.empty_like(R)
            want[0] = R[0]
            for t in range(1, len(seq)):
                D = ref_exp_so3(inc[t - 1]) @ D
                want[t] = D @ R[t]
            assert_allclose(out.ori6d[:, i], geom.matrix_to_rot6d_batch(want),
                            rtol=0, atol=1e-12)


class TestCorruption:
    def test_empty_set_is_identity(self):
        seq = _random_imu()
        cfg = NoiseConfig(corrupted_sensors=(), gaussian_sigma_acc=1.0, seed=3)
        out = apply_corruption(seq, cfg)
        assert np.array_equal(out.frames, seq.frames)

    def test_orientation_noise_matches_per_frame_reference(self):
        seq = _random_imu(T=200, seed=6)
        cfg = NoiseConfig(corrupted_sensors=(0, 5), gaussian_sigma_ori=0.3, seed=21)
        out = apply_corruption(seq, cfg)
        for i in (0, 5):
            rng = imusim._sensor_rng(cfg.seed, 2, i)
            zeta = rng.normal(0.0, cfg.gaussian_sigma_ori, size=(len(seq), 3))
            R = geom.rot6d_to_matrix_batch(seq.ori6d[:, i], fallback=True)
            want = np.stack([ref_exp_so3(zeta[t]) @ R[t] for t in range(len(seq))])
            assert_allclose(out.ori6d[:, i], geom.matrix_to_rot6d_batch(want),
                            rtol=0, atol=1e-12)

    def test_locality(self):
        seq = _random_imu()
        cfg = NoiseConfig(corrupted_sensors=(2,), gaussian_sigma_ori=0.1,
                          gaussian_sigma_acc=1.0, gaussian_sigma_gyr=0.3, seed=3)
        out = apply_corruption(seq, cfg)
        touched = np.zeros(IMU_WIDTH, dtype=bool)
        touched[12:18] = True                  # sensor 2 orientation
        touched[SL_ACC.start + 6:SL_ACC.start + 9] = True
        touched[54 + 6:54 + 9] = True
        assert np.array_equal(out.frames[:, ~touched], seq.frames[:, ~touched])
        assert not np.array_equal(out.frames[:, touched], seq.frames[:, touched])

    def test_unit_sigma_sample_std(self):
        T = 100000
        seq = InertiaSequence(frames=np.zeros((T, IMU_WIDTH)), fps=60.0)
        seq.frames[:, 0] = 1.0
        seq.frames[:, 4] = 1.0
        cfg = NoiseConfig(corrupted_sensors=(1,), gaussian_sigma_acc=1.0, seed=77)
        out = apply_corruption(seq, cfg)
        diff = out.frames[:, SL_ACC.start + 3:SL_ACC.start + 6] - \
            seq.frames[:, SL_ACC.start + 3:SL_ACC.start + 6]
        stds = diff.std(axis=0)
        assert np.all(stds > 0.97) and np.all(stds < 1.03)

    def test_disjoint_corruptions_commute_bitwise(self):
        seq = _random_imu(T=50)
        cfg_a = NoiseConfig(corrupted_sensors=(0,), gaussian_sigma_acc=1.0, seed=1)
        cfg_b = NoiseConfig(corrupted_sensors=(4,), gaussian_sigma_gyr=0.5, seed=2)
        ab = apply_corruption(apply_corruption(seq, cfg_a), cfg_b)
        ba = apply_corruption(apply_corruption(seq, cfg_b), cfg_a)
        assert np.array_equal(ab.frames, ba.frames)

    def test_dropout_holds_last_value(self):
        T = 60
        seq = InertiaSequence(frames=np.zeros((T, IMU_WIDTH)), fps=60.0)
        seq.frames[:, 0] = 1.0
        seq.frames[:, 4] = 1.0
        seq.frames[:, SL_ACC.start] = np.arange(T)  # ramp on sensor 0 acc x
        cfg = NoiseConfig(corrupted_sensors=(0,), dropout=(True,) + (False,) * 5, seed=9)
        out = apply_corruption(seq, cfg)
        col = out.frames[:, SL_ACC.start]
        changed = np.flatnonzero(col != seq.frames[:, SL_ACC.start])
        assert changed.size > 0
        cut = changed[0]
        assert_allclose(col[cut:], col[cut - 1], atol=1e-12)

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 8, 13])
    @pytest.mark.parametrize("seed", range(5))
    def test_dropout_cut_leaves_the_first_frame(self, T, seed):
        # the cut is drawn from [max(1, T // 4), max(T // 4 + 1, 3T // 4)):
        # a frame before it always exists to hold, and for T >= 4 the range,
        # and so the draw, is what it always was
        seq = InertiaSequence(frames=np.zeros((T, IMU_WIDTH)), fps=60.0)
        seq.frames[:, 0] = 1.0
        seq.frames[:, 4] = 1.0
        seq.frames[:, SL_ACC.start] = np.arange(T) + 1.0
        cfg = NoiseConfig(corrupted_sensors=(0,), dropout=(True,) + (False,) * 5, seed=seed)
        col = apply_corruption(seq, cfg).frames[:, SL_ACC.start]
        lo = max(1, T // 4)
        cut = int(imusim._sensor_rng(seed, 3, 0).integers(lo, max(lo + 1, 3 * T // 4)))
        assert 1 <= cut
        assert np.array_equal(col[:cut], np.arange(cut) + 1.0)
        assert np.all(col[cut:] == cut)
        if T >= 4:
            rng = imusim._sensor_rng(seed, 3, 0)
            assert cut == int(rng.integers(T // 4, max(T // 4 + 1, 3 * T // 4)))


class TestNormStats:
    def test_zero_corpus_floors_std(self):
        seq = InertiaSequence(frames=np.zeros((10, IMU_WIDTH)), fps=60.0)
        stats = fit_norm_stats([seq])
        assert_allclose(stats.mean, 0.0)
        assert_allclose(stats.std, 1e-6)

    def test_known_distribution(self):
        rng = np.random.default_rng(12)
        frames = np.zeros((100000, IMU_WIDTH))
        frames[:, SL_ACC] = rng.normal(3.0, 2.0, size=(100000, 18))
        stats = fit_norm_stats([InertiaSequence(frames=frames, fps=60.0)])
        assert np.all(np.abs(stats.mean - 3.0) < 0.06)
        assert np.all(np.abs(stats.std - 2.0) < 0.04)

    def test_duplication_idempotence(self):
        seq = _random_imu(T=500)
        once = fit_norm_stats([seq])
        twice = fit_norm_stats([seq, seq])
        assert_allclose(once.mean, twice.mean, atol=1e-12)
        assert_allclose(once.std, twice.std, atol=1e-12)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            fit_norm_stats([])

    @pytest.mark.parametrize("mean, std", [
        (np.zeros(5), np.ones(5)), (np.zeros(18), np.ones(19)),
        (np.full(18, np.nan), np.ones(18)), (np.zeros(18), np.full(18, np.inf)),
    ], ids=["five", "long_std", "nan_mean", "inf_std"])
    def test_needs_18_finite_entries(self, mean, std):
        with pytest.raises(ImutokError, match="stats"):
            NormStats(mean=mean, std=std)

    def test_normalizing_fit_corpus_standardizes(self):
        seq = _random_imu(T=2000, seed=5)
        stats = fit_norm_stats([seq])
        normed = normalize_acceleration(seq, stats)
        acc = normed.frames[:, SL_ACC]
        assert np.abs(acc.mean(axis=0)).max() < 1e-9
        assert np.all(np.abs(acc.std(axis=0) - 1.0) < 1e-3)

    def test_identity_stats(self):
        seq = _random_imu(T=50)
        stats = NormStats(mean=np.zeros(18), std=np.ones(18))
        out = normalize_acceleration(seq, stats)
        assert np.array_equal(out.frames, seq.frames)

    def test_stats_file_round_trip(self, tmp_path):
        stats = fit_norm_stats([_random_imu(T=100)])
        path = tmp_path / "stats.mjn"
        fileio.write_stats_file(path, stats.mean, stats.std)
        mean, std = fileio.read_stats_file(path)
        assert np.array_equal(mean, stats.mean)
        assert np.array_equal(std, stats.std)


class TestImuFile:
    def test_round_trip(self, tmp_path):
        seq = _random_imu(T=64)
        path = tmp_path / "x.mji1"
        fileio.write_imu_file(path, seq.frames, seq.fps)
        back = fileio.read_imu_file(path)
        assert back.fps == 60.0
        assert np.array_equal(back.frames, seq.frames.astype(np.float32))
