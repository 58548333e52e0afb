"""Binary file formats for motion, IMU, and normalization-stats data.

All formats are little-endian. Motion ("MJT1") and IMU ("MJI1") files store
float32 frames after a fixed header; stats sidecars ("MJN1") store float64
mean/std vectors.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError
from .imusim import IMU_WIDTH, SENSOR_COUNT
from .motion import MOTION_WIDTH
from .skeleton import JOINT_COUNT

MOTION_MAGIC = b"MJT1"
IMU_MAGIC = b"MJI1"
STATS_MAGIC = b"MJN1"

_MOTION_HEADER = struct.Struct("<4sfII")   # magic, fps, frame count, joint count
_IMU_HEADER = struct.Struct("<4sfII")      # magic, fps, frame count, sensor count
_STATS_HEADER = struct.Struct("<4sI")      # magic, dimension count


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: expected {n} bytes, got {len(data)}")
    return data


def write_motion_file(path, frames: np.ndarray, fps: float) -> None:
    frames = np.ascontiguousarray(frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_MOTION_HEADER.pack(MOTION_MAGIC, fps, frames.shape[0], JOINT_COUNT))
        fh.write(frames.tobytes())


def read_motion_file(path):
    """Returns (frames float32 (T, width), fps, joint_count)."""
    with open(path, "rb") as fh:
        magic, fps, count, joints = _MOTION_HEADER.unpack(_read_exact(fh, _MOTION_HEADER.size))
        if magic != MOTION_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MOTION_MAGIC!r}")
        payload = _read_exact(fh, count * MOTION_WIDTH * 4)
        if fh.read(1):
            raise FormatError("trailing bytes after motion payload")
    frames = np.frombuffer(payload, dtype="<f4").reshape(count, MOTION_WIDTH)
    return frames, fps, joints


def write_imu_file(path, frames: np.ndarray, fps: float) -> None:
    frames = np.ascontiguousarray(frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_IMU_HEADER.pack(IMU_MAGIC, fps, frames.shape[0], SENSOR_COUNT))
        fh.write(frames.tobytes())


def read_imu_file(path):
    """Returns (frames float32 (T, width), fps, sensor_count)."""
    with open(path, "rb") as fh:
        magic, fps, count, sensors = _IMU_HEADER.unpack(_read_exact(fh, _IMU_HEADER.size))
        if magic != IMU_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {IMU_MAGIC!r}")
        payload = _read_exact(fh, count * IMU_WIDTH * 4)
        if fh.read(1):
            raise FormatError("trailing bytes after IMU payload")
    frames = np.frombuffer(payload, dtype="<f4").reshape(count, IMU_WIDTH)
    return frames, fps, sensors


def write_stats_file(path, mean: np.ndarray, std: np.ndarray) -> None:
    mean = np.ascontiguousarray(mean, dtype="<f8")
    std = np.ascontiguousarray(std, dtype="<f8")
    if mean.shape != std.shape or mean.ndim != 1:
        raise FormatError("stats mean/std must be equal-length 1-D vectors")
    with open(path, "wb") as fh:
        fh.write(_STATS_HEADER.pack(STATS_MAGIC, mean.shape[0]))
        fh.write(mean.tobytes())
        fh.write(std.tobytes())


def read_stats_file(path):
    """Returns (mean float64 (d,), std float64 (d,))."""
    with open(path, "rb") as fh:
        magic, dim = _STATS_HEADER.unpack(_read_exact(fh, _STATS_HEADER.size))
        if magic != STATS_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {STATS_MAGIC!r}")
        mean = np.frombuffer(_read_exact(fh, dim * 8), dtype="<f8").copy()
        std = np.frombuffer(_read_exact(fh, dim * 8), dtype="<f8").copy()
        if fh.read(1):
            raise FormatError("trailing bytes after stats payload")
    return mean, std
