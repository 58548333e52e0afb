"""Binary file formats for motion, IMU, and normalization-stats data.

All formats are little-endian. Motion ("MJT1") and IMU ("MJI1") files store
float32 frames after a fixed header; stats sidecars ("MJN1") store float64
mean/std vectors. Readers read the whole file, check its exact length
against the header, and raise FormatError for anything malformed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, InvalidArgument
from .imusim import IMU_WIDTH, SENSOR_COUNT, InertiaSequence
from .motion import MOTION_WIDTH, MotionSequence, check_fps
from .skeleton import JOINT_COUNT

MOTION_MAGIC = b"MJT1"
IMU_MAGIC = b"MJI1"
STATS_MAGIC = b"MJN1"

_FRAME_HEADER = struct.Struct("<4sfII")    # magic, fps, frame count, joint or sensor count
_STATS_HEADER = struct.Struct("<4sI")      # magic, dimension count

# magic -> (sequence type, frame width, joint or sensor count)
_FRAME_FORMATS = {
    MOTION_MAGIC: (MotionSequence, MOTION_WIDTH, JOINT_COUNT),
    IMU_MAGIC: (InertiaSequence, IMU_WIDTH, SENSOR_COUNT),
}


def _read_file(path, header: struct.Struct, magic: bytes) -> tuple:
    """(header fields after the magic, payload bytes) of a whole file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < header.size:
        raise FormatError(f"truncated file: {len(blob)} bytes, header needs {header.size}")
    got, *fields = header.unpack_from(blob)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    return fields, memoryview(blob)[header.size:]


def header_fps(fps: float) -> float:
    """``fps`` as the float32 a file header stores; InvalidArgument unless
    it is positive and finite before and after that rounding, so that no
    writer makes a file its reader rejects."""
    check_fps(fps)
    with np.errstate(over="ignore"):
        stored = float(np.float32(fps))
    if not 0.0 < stored < np.inf:
        raise InvalidArgument(f"fps {fps} rounds to {stored} in a float32 header")
    return stored


def _write_frames(path, magic: bytes, frames: np.ndarray, fps: float) -> None:
    _, _, units = _FRAME_FORMATS[magic]
    frames = np.ascontiguousarray(frames, dtype="<f4")
    header = _FRAME_HEADER.pack(magic, header_fps(fps), frames.shape[0], units)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.tobytes())


def _read_frames(path, magic: bytes):
    seq_type, width, units = _FRAME_FORMATS[magic]
    (fps, count, got_units), payload = _read_file(path, _FRAME_HEADER, magic)
    if got_units != units:
        raise FormatError(f"header declares {got_units} joints or sensors, expected {units}")
    if not (math.isfinite(fps) and fps > 0.0):
        raise FormatError(f"fps must be positive and finite, got {fps}")
    if len(payload) != count * width * 4:
        raise FormatError(f"{count} frames need {count * width * 4} bytes, "
                          f"file has {len(payload)}")
    frames = np.frombuffer(payload, dtype="<f4").reshape(count, width)
    return seq_type(frames=frames.astype(np.float64), fps=fps)


def write_motion_file(path, frames: np.ndarray, fps: float) -> None:
    _write_frames(path, MOTION_MAGIC, frames, fps)


def read_motion_file(path) -> MotionSequence:
    """Validated MotionSequence with float64 frames."""
    return _read_frames(path, MOTION_MAGIC)


def write_imu_file(path, frames: np.ndarray, fps: float) -> None:
    _write_frames(path, IMU_MAGIC, frames, fps)


def read_imu_file(path) -> InertiaSequence:
    """Validated InertiaSequence with float64 frames."""
    return _read_frames(path, IMU_MAGIC)


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
    (dim,), payload = _read_file(path, _STATS_HEADER, STATS_MAGIC)
    if len(payload) != dim * 16:
        raise FormatError(f"{dim} dims need {dim * 16} bytes, file has {len(payload)}")
    mean, std = np.frombuffer(payload, dtype="<f8").reshape(2, dim)
    return mean.copy(), std.copy()
