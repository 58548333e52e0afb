"""Motion representation and procedural motion generation.

A motion frame is a flat 271-dim vector laid out as
[root translation (3), root linear velocity (3), root orientation 6D (6),
 root angular velocity (3), 21 local joint rotations 6D (126),
 21 root-relative joint positions (63), 21 joint velocities (63),
 4 foot contact labels (4)].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import InvalidArgument, ShapeMismatch, TooShort
from .skeleton import (FOOT_JOINTS, LOCAL_JOINT_COUNT, STANDING_ROOT_HEIGHT,
                       forward_kinematics_sequence)

MOTION_WIDTH = 271

# channel slices of a flattened frame
SL_ROOT_POS = slice(0, 3)
SL_ROOT_VEL = slice(3, 6)
SL_ROOT_ROT6D = slice(6, 12)
SL_ROOT_ANGVEL = slice(12, 15)
SL_JOINT_ROT6D = slice(15, 141)
SL_JOINT_POS = slice(141, 204)
SL_JOINT_VEL = slice(204, 267)
SL_CONTACT = slice(267, 271)

CONTACT_HEIGHT_THRESH = 0.05   # m
CONTACT_SPEED_THRESH = 0.15    # m/s

STYLES = ("walk", "squat", "arm_raise", "idle_sway")

# most frames one synthetic track may have: over an hour at 60 fps, whose
# track plus motion representation peak at about 1.7 GB (6.5 kB a frame)
MAX_SYNTH_FRAMES = 1 << 18


def check_fps(fps) -> None:
    """Raise InvalidArgument unless ``fps`` is positive and finite: the rule
    of every sequence type, which the file readers apply as FormatError."""
    if not 0.0 < fps < np.inf:  # also false for NaN
        raise InvalidArgument(f"fps must be positive and finite, got {fps}")


def check_seed(seed) -> None:
    """Raise InvalidArgument unless ``seed`` is a non-negative integer, as
    numpy's seed sequences require."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidArgument(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class RawPoseTrack:
    """Pre-representation pose data: translations plus rotation matrices."""

    root_pos: np.ndarray      # (T, 3)
    root_rot: np.ndarray      # (T, 3, 3)
    local_rots: np.ndarray    # (T, 21, 3, 3)
    fps: float

    def __post_init__(self):
        T = self.root_pos.shape[0]
        if self.root_rot.shape != (T, 3, 3) or self.local_rots.shape != (T, LOCAL_JOINT_COUNT, 3, 3):
            raise ShapeMismatch("inconsistent track array shapes")
        check_fps(self.fps)

    def __len__(self) -> int:
        return self.root_pos.shape[0]


@dataclass
class MotionSequence:
    """Flat (T, 271) motion representation with channel accessors."""

    frames: np.ndarray
    fps: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != MOTION_WIDTH:
            raise ShapeMismatch(
                f"motion frames must be (T, {MOTION_WIDTH}), got {self.frames.shape}")
        check_fps(self.fps)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def root_pos(self) -> np.ndarray:
        return self.frames[:, SL_ROOT_POS]

    @property
    def root_vel(self) -> np.ndarray:
        return self.frames[:, SL_ROOT_VEL]

    @property
    def root_rot6d(self) -> np.ndarray:
        return self.frames[:, SL_ROOT_ROT6D]

    @property
    def root_angvel(self) -> np.ndarray:
        return self.frames[:, SL_ROOT_ANGVEL]

    @property
    def joint_rot6d(self) -> np.ndarray:
        return self.frames[:, SL_JOINT_ROT6D].reshape(len(self), LOCAL_JOINT_COUNT, 6)

    @property
    def joint_pos(self) -> np.ndarray:
        return self.frames[:, SL_JOINT_POS].reshape(len(self), LOCAL_JOINT_COUNT, 3)

    @property
    def joint_vel(self) -> np.ndarray:
        return self.frames[:, SL_JOINT_VEL].reshape(len(self), LOCAL_JOINT_COUNT, 3)

    @property
    def contacts(self) -> np.ndarray:
        return self.frames[:, SL_CONTACT]


def _central_difference(x: np.ndarray, fps: float) -> np.ndarray:
    """Central differences along axis 0, one-sided at the boundaries."""
    v = np.empty_like(x)
    v[1:-1] = (x[2:] - x[:-2]) * (fps / 2.0)
    v[0] = (x[1] - x[0]) * fps
    v[-1] = (x[-1] - x[-2]) * fps
    return v


def derive_contacts(foot_positions: np.ndarray, fps: float) -> np.ndarray:
    """Binary contact labels for foot points given world positions.

    A foot counts as planted when its height above the ground plane y=0 is
    below CONTACT_HEIGHT_THRESH and its speed is below CONTACT_SPEED_THRESH.

    Args:
        foot_positions: (T, 4, 3) world positions, channel order
            (left toe, left heel, right toe, right heel).
    Returns:
        (T, 4) float array of {0.0, 1.0} labels.
    """
    foot_positions = np.asarray(foot_positions, dtype=np.float64)
    height = foot_positions[:, :, 1]
    if foot_positions.shape[0] >= 2:
        vel = _central_difference(foot_positions, fps)
        speed = np.linalg.norm(vel, axis=2)
    else:
        speed = np.zeros_like(height)
    return ((height < CONTACT_HEIGHT_THRESH) & (speed < CONTACT_SPEED_THRESH)).astype(np.float64)


def build_motion_representation(track: RawPoseTrack) -> MotionSequence:
    """Assemble the 271-dim representation from a raw pose track.

    Velocities use central finite differences (one-sided at boundaries).
    Joint positions are root-relative in world axes; joint velocities are
    world-frame so that a planted foot has zero velocity regardless of root
    motion.
    """
    T = len(track)
    if T < 3:
        raise TooShort(f"need at least 3 frames for finite differences, got {T}")

    pos = forward_kinematics_sequence(track.root_pos, track.root_rot, track.local_rots)

    r = track.root_pos.astype(np.float64)
    r_dot = _central_difference(r, track.fps)
    phi = geom.matrix_to_rot6d_batch(track.root_rot)
    phi_dot = geom.angular_rate(track.root_rot, track.fps)

    j_r = geom.matrix_to_rot6d_batch(track.local_rots)
    j_world = pos[:, 1:]
    j_p = j_world - r[:, None, :]
    j_v = _central_difference(j_world, track.fps)

    p = derive_contacts(pos[:, list(FOOT_JOINTS)], track.fps)

    frames = np.concatenate([
        r, r_dot, phi, phi_dot,
        j_r.reshape(T, -1), j_p.reshape(T, -1), j_v.reshape(T, -1), p,
    ], axis=1)
    return MotionSequence(frames=frames, fps=track.fps)


def track_from_motion(seq: MotionSequence, fallback: bool = True) -> RawPoseTrack:
    """Recover a raw pose track (rotations + root translation) from a sequence.

    Decodes the 6D channels; with fallback=True degenerate codes (possible in
    network output) decode to identity instead of raising.
    """
    T = len(seq)
    root_rot = geom.rot6d_to_matrix_batch(seq.root_rot6d, fallback=fallback)
    local = geom.rot6d_to_matrix_batch(seq.joint_rot6d, fallback=fallback)
    return RawPoseTrack(root_pos=seq.root_pos.astype(np.float64).copy(),
                        root_rot=root_rot, local_rots=local.reshape(T, LOCAL_JOINT_COUNT, 3, 3),
                        fps=seq.fps)


# ---------------------------------------------------------------------------
# procedural motion styles

# joint indices used by the generators
_L_HIP, _L_KNEE, _L_ANKLE = 1, 2, 3
_R_HIP, _R_KNEE, _R_ANKLE = 6, 7, 8
_SPINE1, _SPINE2, _CHEST = 11, 12, 13
_L_SHOULDER, _L_ELBOW = 16, 17
_R_SHOULDER, _R_ELBOW = 19, 20


def _rot(axis: int, angles: np.ndarray) -> np.ndarray:
    """Batch rotation matrices about coordinate axis 0, 1 or 2 (x, y, z) for
    (T,) angles."""
    c, s = np.cos(angles), np.sin(angles)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    R = np.zeros((angles.shape[0], 3, 3))
    R[:, axis, axis] = 1.0
    R[:, j, j] = c
    R[:, j, k] = -s
    R[:, k, j] = s
    R[:, k, k] = c
    return R


def _identity_rots(T: int) -> np.ndarray:
    R = np.zeros((T, LOCAL_JOINT_COUNT, 3, 3))
    R[:, :] = np.eye(3)
    return R


def _ground_feet(root_pos: np.ndarray, root_rot: np.ndarray, local: np.ndarray) -> None:
    """Shift root height per frame so the lowest foot point sits on y=0."""
    pos = forward_kinematics_sequence(root_pos, root_rot, local)
    foot_y = pos[:, list(FOOT_JOINTS), 1]
    root_pos[:, 1] -= foot_y.min(axis=1)


def generate_synthetic_motion(seed: int, duration_s: float, fps: float,
                              style: str) -> RawPoseTrack:
    """Deterministic parametric motion of the requested style.

    Styles: walk (stepping in place with arm swing), squat, arm_raise,
    idle_sway. Phase/amplitude/frequency are smoothly randomized from the
    seed; walk and squat keep the planted foot on the ground plane.
    Raises InvalidArgument for a track of more than MAX_SYNTH_FRAMES frames.
    """
    for name, value in (("duration_s", duration_s), ("fps", fps)):
        if not 0 < value < np.inf:  # also false for NaN
            raise InvalidArgument(f"{name} must be finite and positive, got {value}")
    if duration_s * fps > MAX_SYNTH_FRAMES:
        raise InvalidArgument(f"{duration_s} s at {fps} fps exceeds {MAX_SYNTH_FRAMES} frames")
    if style not in STYLES:
        raise InvalidArgument(f"unknown style {style!r}, expected one of {STYLES}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    T = int(round(duration_s * fps))
    t = np.arange(T) / fps

    root_pos = np.zeros((T, 3))
    root_pos[:, 1] = STANDING_ROOT_HEIGHT
    root_rot = np.zeros((T, 3, 3))
    root_rot[:] = np.eye(3)
    local = _identity_rots(T)

    amp = lambda base: base * rng.uniform(0.8, 1.2)
    phase = rng.uniform(0.0, 2 * np.pi)

    if style == "idle_sway":
        f = rng.uniform(0.2, 0.4)
        w = 2 * np.pi * f
        sway = amp(0.04) * np.sin(w * t + phase)
        local[:, _SPINE1 - 1] = _rot(2, sway)
        local[:, _SPINE2 - 1] = _rot(2, 0.5 * sway)
        arm = amp(0.05) * np.sin(w * t + phase + rng.uniform(0, np.pi))
        local[:, _L_SHOULDER - 1] = _rot(0, arm)
        local[:, _R_SHOULDER - 1] = _rot(0, -arm)
        root_rot[:] = _rot(1, amp(0.03) * np.sin(w * t + phase * 0.7))

    elif style == "arm_raise":
        f = rng.uniform(0.4, 0.7)
        w = 2 * np.pi * f
        lift = amp(1.0) * 0.5 * (1 - np.cos(w * t))  # starts at rest
        local[:, _L_SHOULDER - 1] = _rot(2, lift)
        local[:, _R_SHOULDER - 1] = _rot(2, -lift)
        bend = amp(0.25) * 0.5 * (1 - np.cos(w * t))
        local[:, _L_ELBOW - 1] = _rot(2, bend)
        local[:, _R_ELBOW - 1] = _rot(2, -bend)
        local[:, _CHEST - 1] = _rot(0, amp(0.05) * np.sin(w * t))

    elif style == "squat":
        f = rng.uniform(0.35, 0.55)
        w = 2 * np.pi * f
        depth = amp(0.7)
        bend = depth * 0.5 * (1 - np.cos(w * t))
        # hips flex back, knees fold forward, ankles compensate
        for hip, knee, ankle in ((_L_HIP, _L_KNEE, _L_ANKLE), (_R_HIP, _R_KNEE, _R_ANKLE)):
            local[:, hip - 1] = _rot(0, -bend)
            local[:, knee - 1] = _rot(0, 2.0 * bend)
            local[:, ankle - 1] = _rot(0, -bend)
        local[:, _SPINE1 - 1] = _rot(0, amp(0.15) * 0.5 * (1 - np.cos(w * t)))
        arm = amp(0.5) * 0.5 * (1 - np.cos(w * t))
        local[:, _L_SHOULDER - 1] = _rot(0, arm)
        local[:, _R_SHOULDER - 1] = _rot(0, arm)
        _ground_feet(root_pos, root_rot, local)

    elif style == "walk":
        f = rng.uniform(0.8, 1.1)  # step cycle per leg
        w = 2 * np.pi * f
        lift_l = np.maximum(0.0, np.sin(w * t + phase)) ** 2
        lift_r = np.maximum(0.0, np.sin(w * t + phase + np.pi)) ** 2
        a_hip = amp(0.5)
        a_knee = amp(0.9)
        local[:, _L_HIP - 1] = _rot(0, -a_hip * lift_l)
        local[:, _L_KNEE - 1] = _rot(0, a_knee * lift_l)
        local[:, _R_HIP - 1] = _rot(0, -a_hip * lift_r)
        local[:, _R_KNEE - 1] = _rot(0, a_knee * lift_r)
        # counter-phase arm swing
        swing = amp(0.3) * np.sin(w * t + phase)
        local[:, _L_SHOULDER - 1] = _rot(0, swing)
        local[:, _R_SHOULDER - 1] = _rot(0, -swing)
        root_rot[:] = _rot(1, amp(0.04) * np.sin(w * t + phase))
        _ground_feet(root_pos, root_rot, local)

    return RawPoseTrack(root_pos=root_pos, root_rot=root_rot, local_rots=local, fps=float(fps))
