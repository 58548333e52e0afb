"""Virtual IMU synthesis and sensor-imperfection modeling.

An inertia frame is a flat 72-dim vector for N=6 sensors laid out as
[6 sensor orientations 6D (36), 6 free accelerations (18),
 6 angular velocities (18)], sensor-major inside each block.

Free acceleration excludes gravity by definition, so the synthetic path
never adds a gravity term. The coordinate frame is y-up (gravity along -y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geom
from .errors import EmptyCorpus, InvalidArgument, ShapeMismatch, TooShort
from .motion import RawPoseTrack
from .skeleton import DEFAULT_SKELETON, forward_kinematics_sequence

SENSOR_COUNT = 6
IMU_WIDTH = 72

SL_ORI = slice(0, 36)
SL_ACC = slice(36, 54)
SL_GYR = slice(54, 72)

# default sensor set: pelvis, head, both wrists, both knees
_DEFAULT_SENSOR_JOINTS = (0, 15, 18, 21, 2, 7)
_DEFAULT_LEVERS = np.array([
    [0.00, 0.00, -0.10],   # pelvis: small of the back
    [0.00, 0.03, 0.02],    # head: strap above forehead
    [0.00, 0.02, 0.00],    # left wrist: top of wrist
    [0.00, 0.02, 0.00],    # right wrist
    [0.04, 0.05, 0.03],    # left knee: outside, above joint
    [-0.04, 0.05, 0.03],   # right knee
])


@dataclass(frozen=True)
class SensorPlacement:
    """Six sensors: attached joint, fixed mounting rotation, lever offset (m)."""

    joints: tuple = _DEFAULT_SENSOR_JOINTS
    mounts: np.ndarray = field(
        default_factory=lambda: np.tile(np.eye(3), (SENSOR_COUNT, 1, 1)))
    levers: np.ndarray = field(default_factory=lambda: _DEFAULT_LEVERS.copy())

    def __post_init__(self):
        if len(self.joints) != SENSOR_COUNT or len(set(self.joints)) != SENSOR_COUNT:
            raise InvalidArgument("placement needs 6 distinct joints")
        if self.mounts.shape != (SENSOR_COUNT, 3, 3) or self.levers.shape != (SENSOR_COUNT, 3):
            raise ShapeMismatch("placement arrays have wrong shapes")
        for R in self.mounts:
            geom.assert_rotation(R, tol=1e-8)


DEFAULT_PLACEMENT = SensorPlacement()


@dataclass
class InertiaSequence:
    """Flat (T, 72) stacked sensor readings with channel accessors."""

    frames: np.ndarray
    fps: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != IMU_WIDTH:
            raise ShapeMismatch(f"IMU frames must be (T, {IMU_WIDTH}), got {self.frames.shape}")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def ori6d(self) -> np.ndarray:
        return self.frames[:, SL_ORI].reshape(len(self), SENSOR_COUNT, 6)

    @property
    def acc(self) -> np.ndarray:
        return self.frames[:, SL_ACC].reshape(len(self), SENSOR_COUNT, 3)

    @property
    def gyro(self) -> np.ndarray:
        return self.frames[:, SL_GYR].reshape(len(self), SENSOR_COUNT, 3)

    def copy(self) -> "InertiaSequence":
        return InertiaSequence(frames=self.frames.copy(), fps=self.fps)


@dataclass
class NoiseConfig:
    """Sensor-imperfection parameters, all deterministic given the seed.

    Drift sigmas are per-step random-walk increments (unit per sqrt(step));
    gaussian sigmas are per-frame i.i.d. corruption levels. Defaults were
    chosen so that a minute of drift visibly corrupts continuous regression
    while staying inside tokenizer robustness.
    """

    drift_sigma_ori: float = 0.002    # rad / sqrt(step)
    drift_sigma_acc: float = 0.01     # m/s^2 / sqrt(step)
    drift_sigma_gyr: float = 0.001    # rad/s / sqrt(step)
    gaussian_sigma_ori: float = 0.0   # rad
    gaussian_sigma_acc: float = 0.0   # m/s^2
    gaussian_sigma_gyr: float = 0.0   # rad/s
    corrupted_sensors: tuple = ()
    dropout: tuple = (False,) * SENSOR_COUNT
    seed: int = 0

    def __post_init__(self):
        sigmas = (self.drift_sigma_ori, self.drift_sigma_acc, self.drift_sigma_gyr,
                  self.gaussian_sigma_ori, self.gaussian_sigma_acc, self.gaussian_sigma_gyr)
        if any(s < 0 for s in sigmas):
            raise InvalidArgument("noise sigmas must be non-negative")
        if any(s not in range(SENSOR_COUNT) for s in self.corrupted_sensors):
            raise InvalidArgument("corrupted_sensors must be a subset of {0..5}")


@dataclass
class NormStats:
    """Per-dimension mean/std of the 18 acceleration channels."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        dims = (3 * SENSOR_COUNT,)
        if self.mean.shape != dims or self.std.shape != dims:
            raise ShapeMismatch(f"stats need {dims[0]} means and stds, got {self.mean.size} "
                                f"and {self.std.size}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()
                and (self.std > 0).all()):
            raise InvalidArgument("stats must be finite, with positive std (floored at 1e-6)")


def _sensor_rng(seed: int, op: int, sensor: int) -> np.random.Generator:
    # independent stream per (operation, sensor): noise on one sensor never
    # consumes another sensor's randomness, so disjoint corruptions commute
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(op, sensor)))


def synthesize_imu(track: RawPoseTrack,
                   placement: SensorPlacement = DEFAULT_PLACEMENT) -> InertiaSequence:
    """Simulate sensor readings from a pose track on the fixed skeleton.

    Orientation: bone global rotation times mounting rotation. Free
    acceleration: second central difference of the sensor world position
    (one-sided at boundaries), world axes. Angular velocity: body-frame rate
    of the sensor orientation.
    """
    T = len(track)
    if T < 5:
        raise TooShort(f"need at least 5 frames for second differences, got {T}")
    fps = track.fps

    pos, glob = forward_kinematics_sequence(
        DEFAULT_SKELETON, track.root_pos, track.root_rot, track.local_rots,
        return_rotations=True)

    joints = list(placement.joints)
    Rg = glob[:, joints]                    # (T, 6, 3, 3) bone rotations
    Rs = Rg @ placement.mounts              # (T, 6, 3, 3) sensor rotations
    x = pos[:, joints] + np.einsum("tsab,sb->tsa", Rg, placement.levers)

    acc = np.empty((T, SENSOR_COUNT, 3))
    acc[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fps * fps
    acc[0] = (x[2] - 2.0 * x[1] + x[0]) * fps * fps
    acc[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) * fps * fps

    frames = np.empty((T, IMU_WIDTH), dtype=np.float64)
    frames[:, SL_ORI] = geom.matrix_to_rot6d_batch(Rs).reshape(T, -1)
    frames[:, SL_ACC] = acc.reshape(T, -1)
    frames[:, SL_GYR] = geom.angular_rate(Rs, fps).reshape(T, -1)
    return InertiaSequence(frames=frames, fps=fps)


def apply_drift(seq: InertiaSequence, cfg: NoiseConfig, sensors=None) -> InertiaSequence:
    """Random-walk drift: composed rotation walk on orientations, accumulated
    Gaussian increments on acceleration and gyro channels.

    ``sensors`` restricts the drift to a subset (default: all six); each
    sensor consumes its own random stream, so restricting the set never
    changes the drift another sensor would receive.
    """
    if sensors is None:
        sensors = range(SENSOR_COUNT)
    out = seq.frames.copy()
    T = len(seq)
    for i in sensors:
        rng = _sensor_rng(cfg.seed, 1, i)
        if cfg.drift_sigma_ori > 0:
            inc = rng.normal(0.0, cfg.drift_sigma_ori, size=(T - 1, 3))
            R = geom.rot6d_to_matrix_batch(seq.ori6d[:, i], fallback=True)
            # D[t - 1] becomes the walk D_t = exp(inc_{t-1}) @ D_{t-1}, D_0 = I,
            # composed in frame order
            D = geom.exp_so3(inc)
            for t in range(1, T - 1):
                D[t] = D[t] @ D[t - 1]
            drifted = R.copy()
            drifted[1:] = D @ R[1:]
            out[:, 6 * i:6 * i + 6] = geom.matrix_to_rot6d_batch(drifted)
        if cfg.drift_sigma_acc > 0:
            walk = np.zeros((T, 3))
            walk[1:] = np.cumsum(rng.normal(0.0, cfg.drift_sigma_acc, size=(T - 1, 3)), axis=0)
            out[:, SL_ACC.start + 3 * i:SL_ACC.start + 3 * i + 3] += walk
        if cfg.drift_sigma_gyr > 0:
            walk = np.zeros((T, 3))
            walk[1:] = np.cumsum(rng.normal(0.0, cfg.drift_sigma_gyr, size=(T - 1, 3)), axis=0)
            out[:, SL_GYR.start + 3 * i:SL_GYR.start + 3 * i + 3] += walk
    return InertiaSequence(frames=out, fps=seq.fps)


def apply_corruption(seq: InertiaSequence, cfg: NoiseConfig) -> InertiaSequence:
    """Per-frame corruption of the listed sensors only.

    Orientations get i.i.d. random rotation perturbations, acceleration and
    gyro channels get i.i.d. Gaussian noise. A sensor marked for dropout
    holds its last value from a seeded cut frame onward (plus noise),
    mimicking a dead wireless link.
    """
    out = seq.frames.copy()
    T = len(seq)
    for i in cfg.corrupted_sensors:
        rng = _sensor_rng(cfg.seed, 2, i)
        sl_acc = slice(SL_ACC.start + 3 * i, SL_ACC.start + 3 * i + 3)
        sl_gyr = slice(SL_GYR.start + 3 * i, SL_GYR.start + 3 * i + 3)
        sl_ori = slice(6 * i, 6 * i + 6)
        if cfg.gaussian_sigma_ori > 0:
            zeta = rng.normal(0.0, cfg.gaussian_sigma_ori, size=(T, 3))
            R = geom.rot6d_to_matrix_batch(seq.ori6d[:, i], fallback=True)
            out[:, sl_ori] = geom.matrix_to_rot6d_batch(geom.exp_so3(zeta) @ R)
        if cfg.gaussian_sigma_acc > 0:
            out[:, sl_acc] += rng.normal(0.0, cfg.gaussian_sigma_acc, size=(T, 3))
        if cfg.gaussian_sigma_gyr > 0:
            out[:, sl_gyr] += rng.normal(0.0, cfg.gaussian_sigma_gyr, size=(T, 3))
        if cfg.dropout[i]:
            rng_drop = _sensor_rng(cfg.seed, 3, i)
            cut = int(rng_drop.integers(T // 4, max(T // 4 + 1, 3 * T // 4)))
            for sl, sigma in ((sl_ori, cfg.gaussian_sigma_ori),
                              (sl_acc, cfg.gaussian_sigma_acc),
                              (sl_gyr, cfg.gaussian_sigma_gyr)):
                held = out[cut - 1, sl]
                out[cut:, sl] = held
                if sigma > 0:
                    out[cut:, sl] += rng_drop.normal(0.0, sigma, size=(T - cut, sl.stop - sl.start))
    return InertiaSequence(frames=out, fps=seq.fps)


def fit_norm_stats(corpus) -> NormStats:
    """Per-dimension mean/std of acceleration channels over a corpus."""
    seqs = list(corpus)
    if not seqs or sum(len(s) for s in seqs) == 0:
        raise EmptyCorpus("cannot fit normalization stats on an empty corpus")
    acc = np.concatenate([s.frames[:, SL_ACC] for s in seqs], axis=0).astype(np.float64)
    mean = acc.mean(axis=0)
    std = np.maximum(acc.std(axis=0), 1e-6)
    return NormStats(mean=mean, std=std)


def normalize_acceleration(seq: InertiaSequence, stats: NormStats) -> InertiaSequence:
    """Map acceleration channels to (a - mean) / std; other channels untouched."""
    out = seq.frames.copy()
    out[:, SL_ACC] = (out[:, SL_ACC] - stats.mean) / stats.std
    return InertiaSequence(frames=out, fps=seq.fps)
