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
from .motion import RawPoseTrack, check_fps, check_seed
from .skeleton import forward_kinematics_sequence

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
        check_fps(self.fps)

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
        if not all(0 <= s < np.inf for s in sigmas):  # NaN fails too
            raise InvalidArgument(f"noise sigmas must be finite and non-negative, got {sigmas}")
        if any(s not in range(SENSOR_COUNT) for s in self.corrupted_sensors):
            raise InvalidArgument("corrupted_sensors must be a subset of {0..5}")
        if len(self.dropout) != SENSOR_COUNT:
            raise InvalidArgument(f"dropout needs one flag per sensor ({SENSOR_COUNT}), "
                                  f"got {len(self.dropout)}")
        check_seed(self.seed)


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

    def normalize(self, frames: np.ndarray) -> np.ndarray:
        """A float64 copy of (n, 72) frames with acceleration channels mapped
        to (a - mean) / std; other channels untouched."""
        out = np.array(frames, dtype=np.float64)
        out[:, SL_ACC] = (out[:, SL_ACC] - self.mean) / self.std
        return out


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

    pos, glob = forward_kinematics_sequence(track.root_pos, track.root_rot, track.local_rots,
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


def _rows_of(frames: np.ndarray, cfgs, sensor_sets) -> tuple:
    """A copy of (cases, T, 72) frames and its (case, sensor) rows, after
    checking that there is one config and one sensor set per case."""
    out = np.array(frames)
    if out.ndim != 3 or out.shape[2] != IMU_WIDTH:
        raise ShapeMismatch(f"batched IMU frames must be (cases, T, {IMU_WIDTH}), got {out.shape}")
    if not len(cfgs) == len(sensor_sets) == out.shape[0]:
        raise ShapeMismatch(f"{out.shape[0]} cases need as many configs and sensor sets, got "
                            f"{len(cfgs)} and {len(sensor_sets)}")
    rows = [(c, i) for c, sensors in enumerate(sensor_sets) for i in sensors]
    if any(i not in range(SENSOR_COUNT) for _, i in rows):
        raise InvalidArgument(f"sensors must be in 0..{SENSOR_COUNT - 1}")
    return out, rows


def _decode_rows(frames: np.ndarray, rows, axis: int) -> np.ndarray:
    """(..., 3, 3) orientations of the given (case, sensor) rows, stacked on ``axis``."""
    ori = np.stack([frames[c, :, 6 * i:6 * i + 6] for c, i in rows], axis=axis)
    return geom.rot6d_to_matrix_batch(ori, fallback=True)


def _encode_rows(out: np.ndarray, rows, R: np.ndarray, axis: int) -> None:
    """Write orientations stacked on ``axis`` back to their (case, sensor) rows."""
    ori = geom.matrix_to_rot6d_batch(R)
    for n, (c, i) in enumerate(rows):
        out[c, :, 6 * i:6 * i + 6] = np.take(ori, n, axis=axis)


def apply_drift_batch(frames: np.ndarray, cfgs, sensor_sets) -> np.ndarray:
    """``apply_drift`` of many cases at once: case c of the (cases, T, 72)
    ``frames`` drifts under ``cfgs[c]`` on the sensors ``sensor_sets[c]``.

    Every (case, sensor) row draws from the stream ``apply_drift`` gives it,
    in the same order, and all orientation walks are composed in one loop over
    frames, so each case is bitwise what ``apply_drift`` makes of it alone.
    Returns the drifted copy; 0-frame cases come back empty, drawing nothing.
    """
    out, rows = _rows_of(frames, cfgs, sensor_sets)
    T = out.shape[1]
    if T == 0:
        return out
    rngs = [_sensor_rng(cfgs[c].seed, 1, i) for c, i in rows]
    ori = [k for k, (c, _) in enumerate(rows) if cfgs[c].drift_sigma_ori > 0]
    if ori:
        # (T - 1, rows, 3) increments; D[t - 1] is the walk
        # D_t = exp(inc_{t-1}) @ D_{t-1}, D_0 = I, composed in frame order
        inc = np.stack([rngs[k].normal(0.0, cfgs[rows[k][0]].drift_sigma_ori, size=(T - 1, 3))
                        for k in ori], axis=1)
        steps = geom.exp_so3(inc)
        D = steps.copy()
        for t in range(1, T - 1):
            np.matmul(steps[t], D[t - 1], out=D[t])
        ori_rows = [rows[k] for k in ori]
        R = _decode_rows(out, ori_rows, axis=1)
        R[1:] = D @ R[1:]
        _encode_rows(out, ori_rows, R, axis=1)
    for k, (c, i) in enumerate(rows):
        for sl, sigma in ((SL_ACC, cfgs[c].drift_sigma_acc), (SL_GYR, cfgs[c].drift_sigma_gyr)):
            if sigma > 0:
                walk = np.zeros((T, 3))
                walk[1:] = np.cumsum(rngs[k].normal(0.0, sigma, size=(T - 1, 3)), axis=0)
                out[c, :, sl.start + 3 * i:sl.start + 3 * i + 3] += walk
    return out


def apply_drift(seq: InertiaSequence, cfg: NoiseConfig, sensors=None) -> InertiaSequence:
    """Random-walk drift: composed rotation walk on orientations, accumulated
    Gaussian increments on acceleration and gyro channels.

    ``sensors`` restricts the drift to a subset (default: all six); each
    sensor consumes its own random stream, so restricting the set never
    changes the drift another sensor would receive.
    """
    if sensors is None:
        sensors = range(SENSOR_COUNT)
    out = apply_drift_batch(seq.frames[None], [cfg], [sensors])
    return InertiaSequence(frames=out[0], fps=seq.fps)


def apply_corruption_batch(frames: np.ndarray, cfgs) -> np.ndarray:
    """``apply_corruption`` of many cases at once: case c of the (cases, T,
    72) ``frames`` is corrupted under ``cfgs[c]``.

    Every (case, sensor) row draws from the streams ``apply_corruption``
    gives it, in the same order, and all orientation perturbations are
    applied in one pass, so each case is bitwise what ``apply_corruption``
    makes of it alone. Returns the corrupted copy; 0-frame cases come back
    empty, drawing nothing.
    """
    out, rows = _rows_of(frames, cfgs, [cfg.corrupted_sensors for cfg in cfgs])
    T = out.shape[1]
    if T == 0:
        return out
    rngs = [_sensor_rng(cfgs[c].seed, 2, i) for c, i in rows]
    ori = [k for k, (c, _) in enumerate(rows) if cfgs[c].gaussian_sigma_ori > 0]
    if ori:
        zeta = np.stack([rngs[k].normal(0.0, cfgs[rows[k][0]].gaussian_sigma_ori, size=(T, 3))
                         for k in ori])
        ori_rows = [rows[k] for k in ori]
        _encode_rows(out, ori_rows, geom.exp_so3(zeta) @ _decode_rows(out, ori_rows, axis=0),
                     axis=0)
    for k, (c, i) in enumerate(rows):
        cfg, case = cfgs[c], out[c]
        sl_acc = slice(SL_ACC.start + 3 * i, SL_ACC.start + 3 * i + 3)
        sl_gyr = slice(SL_GYR.start + 3 * i, SL_GYR.start + 3 * i + 3)
        for sl, sigma in ((sl_acc, cfg.gaussian_sigma_acc), (sl_gyr, cfg.gaussian_sigma_gyr)):
            if sigma > 0:
                case[:, sl] += rngs[k].normal(0.0, sigma, size=(T, 3))
        if cfg.dropout[i]:
            rng_drop = _sensor_rng(cfg.seed, 3, i)
            # the cut leaves at least one frame to hold
            lo = max(1, T // 4)
            cut = int(rng_drop.integers(lo, max(lo + 1, 3 * T // 4)))
            for sl, sigma in ((slice(6 * i, 6 * i + 6), cfg.gaussian_sigma_ori),
                              (sl_acc, cfg.gaussian_sigma_acc),
                              (sl_gyr, cfg.gaussian_sigma_gyr)):
                case[cut:, sl] = case[cut - 1, sl]
                if sigma > 0:
                    case[cut:, sl] += rng_drop.normal(0.0, sigma,
                                                      size=(T - cut, sl.stop - sl.start))
    return out


def apply_corruption(seq: InertiaSequence, cfg: NoiseConfig) -> InertiaSequence:
    """Per-frame corruption of the listed sensors only.

    Orientations get i.i.d. random rotation perturbations, acceleration and
    gyro channels get i.i.d. Gaussian noise. A sensor marked for dropout
    holds its last value from a seeded cut frame onward (plus noise),
    mimicking a dead wireless link.
    """
    return InertiaSequence(frames=apply_corruption_batch(seq.frames[None], [cfg])[0], fps=seq.fps)


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
    """``seq`` with ``stats.normalize`` applied to its frames."""
    return InertiaSequence(frames=stats.normalize(seq.frames), fps=seq.fps)
