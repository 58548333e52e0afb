"""Frame-file header validation, and a seeded fuzz of every binary format the
package reads: a truncated or bit-flipped file either loads or raises
FormatError / DigestMismatch, never another exception."""

import hashlib
import struct

import numpy as np
import pytest

from imutok import checkpoint, fileio, stream
from imutok.errors import DigestMismatch, FormatError
from imutok.imusim import IMU_WIDTH
from imutok.motion import MOTION_WIDTH

_FRAME_HEADER = "<4sfII"   # magic, fps, frame count, joint or sensor count


def _frame_file(path, magic, width, units, fps=60.0, count=3, declared=None):
    header = struct.pack(_FRAME_HEADER, magic, fps, count if declared is None else declared,
                         units)
    path.write_bytes(header + np.zeros((count, width), "<f4").tobytes())
    return path


class TestFrameHeaders:
    def test_round_trip_returns_float64_sequences(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, MOTION_WIDTH))
        fileio.write_motion_file(tmp_path / "m.mjt1", m, 50.0)
        seq = fileio.read_motion_file(tmp_path / "m.mjt1")
        assert seq.frames.dtype == np.float64 and seq.fps == 50.0
        assert np.array_equal(seq.frames, m.astype(np.float32))
        i = rng.normal(size=(4, IMU_WIDTH))
        fileio.write_imu_file(tmp_path / "i.mji1", i, 60.0)
        seq = fileio.read_imu_file(tmp_path / "i.mji1")
        assert seq.frames.dtype == np.float64 and seq.fps == 60.0
        assert np.array_equal(seq.frames, i.astype(np.float32))

    def test_writers_stamp_joint_and_sensor_counts(self, tmp_path):
        fileio.write_motion_file(tmp_path / "m.mjt1", np.zeros((2, MOTION_WIDTH)), 60.0)
        fileio.write_imu_file(tmp_path / "i.mji1", np.zeros((2, IMU_WIDTH)), 60.0)
        for name, units in (("m.mjt1", 22), ("i.mji1", 6)):
            header = (tmp_path / name).read_bytes()[:struct.calcsize(_FRAME_HEADER)]
            assert struct.unpack(_FRAME_HEADER, header)[3] == units

    def test_wrong_joint_count_rejected(self, tmp_path):
        path = _frame_file(tmp_path / "j9.mjt1", b"MJT1", MOTION_WIDTH, units=9)
        with pytest.raises(FormatError, match="joints or sensors"):
            fileio.read_motion_file(path)

    def test_wrong_sensor_count_rejected(self, tmp_path):
        path = _frame_file(tmp_path / "s5.mji1", b"MJI1", IMU_WIDTH, units=5)
        with pytest.raises(FormatError, match="joints or sensors"):
            fileio.read_imu_file(path)

    @pytest.mark.parametrize("fps", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_fps_rejected(self, tmp_path, fps):
        path = _frame_file(tmp_path / "f.mjt1", b"MJT1", MOTION_WIDTH, units=22, fps=fps)
        with pytest.raises(FormatError, match="fps"):
            fileio.read_motion_file(path)
        path = _frame_file(tmp_path / "f.mji1", b"MJI1", IMU_WIDTH, units=6, fps=fps)
        with pytest.raises(FormatError, match="fps"):
            fileio.read_imu_file(path)
        path = tmp_path / "f.mjt"
        stream.write_token_stream(path, stream.TokenSequence(
            tokens=np.arange(3), l=4, fps=fps, K=8, codebook_digest=bytes(32)))
        with pytest.raises(FormatError, match="fps"):
            stream.read_token_stream(path)

    def test_huge_declared_frame_count_is_a_format_error(self, tmp_path):
        # 2^26 frames of 271 floats would be 72 GB; the length check fails first
        path = _frame_file(tmp_path / "big.mjt1", b"MJT1", MOTION_WIDTH, units=22,
                           declared=1 << 26)
        with pytest.raises(FormatError):
            fileio.read_motion_file(path)

    def test_huge_declared_stats_dim_is_a_format_error(self, tmp_path):
        path = tmp_path / "big.mjn"
        path.write_bytes(struct.pack("<4sI", b"MJN1", 1 << 31) + bytes(32))
        with pytest.raises(FormatError):
            fileio.read_stats_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        fileio.write_imu_file(tmp_path / "i.mji1", np.zeros((2, IMU_WIDTH)), 60.0)
        fileio.write_stats_file(tmp_path / "s.mjn", np.zeros(3), np.ones(3))
        for name, read in (("i.mji1", fileio.read_imu_file), ("s.mjn", fileio.read_stats_file)):
            path = tmp_path / name
            path.write_bytes(path.read_bytes() + b"\x00")
            with pytest.raises(FormatError):
                read(path)


class TestCheckpointTable:
    def _saved(self, path, name, arr):
        checkpoint.save_checkpoint(path, {"kind": "t"}, {name: arr})
        return bytearray(path.read_bytes())

    def test_non_utf8_array_name_is_a_format_error(self, tmp_path):
        path = tmp_path / "n.mjc"
        blob = self._saved(path, "w", np.zeros(2, np.float32))
        blob[blob.index(b"w\x00\x01")] = 0xFF    # name byte; dtype code 0, ndim 1 follow
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8"):
            checkpoint.load_checkpoint(path)

    def test_non_utf8_meta_block_is_a_format_error(self, tmp_path):
        # the meta digest is re-stamped, so only the decode can object
        path = tmp_path / "m.mjc"
        blob = self._saved(path, "w", np.zeros(2, np.float32))
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        blob[12] = 0xFF
        blob[12 + meta_len:44 + meta_len] = hashlib.sha256(blob[12:12 + meta_len]).digest()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8"):
            checkpoint.load_checkpoint(path)

    def test_unrepresentable_empty_shape_is_a_format_error(self, tmp_path):
        # (0, 2^32-1, 2^32-1) holds no bytes, but numpy cannot represent it
        path = tmp_path / "s.mjc"
        blob = self._saved(path, "w", np.zeros((0, 1, 1), np.float32))
        dims = blob.index(b"w\x00\x03") + 3
        struct.pack_into("<3I", blob, dims, 0, 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="shape"):
            checkpoint.load_checkpoint(path)


def _write_mjc1(path):
    arrays = {
        "enc.w": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
        "enc.b": np.linspace(0, 1, 3),
        "steps": np.array(7, dtype=np.int64),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "ids": np.arange(4, dtype=np.int64),
    }
    checkpoint.save_checkpoint(path, {"kind": "fuzz", "K": 12}, arrays)


def _write_mjt2(path):
    tok = stream.TokenSequence(tokens=np.arange(20) % 12, l=4, fps=60.0, K=12,
                               codebook_digest=bytes(range(32)))
    stream.write_token_stream(path, tok)


FORMATS = {
    "MJC1": (_write_mjc1, checkpoint.load_checkpoint),
    "MJT2": (_write_mjt2, stream.read_token_stream),
    "MJT1": (lambda p: fileio.write_motion_file(p, np.ones((3, MOTION_WIDTH)), 60.0),
             fileio.read_motion_file),
    "MJI1": (lambda p: fileio.write_imu_file(p, np.ones((3, IMU_WIDTH)), 60.0),
             fileio.read_imu_file),
    "MJN1": (lambda p: fileio.write_stats_file(p, np.zeros(4), np.ones(4)),
             fileio.read_stats_file),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_corrupt_files_raise_only_typed_errors(tmp_path, fmt):
    write, read = FORMATS[fmt]
    good = tmp_path / "good"
    write(good)
    blob = good.read_bytes()
    read(good)
    rng = np.random.default_rng(list(FORMATS).index(fmt))
    bad = tmp_path / "bad"
    escapes = []
    for case in range(400):
        if case % 4 == 0:
            corrupt = blob[:int(rng.integers(0, len(blob)))]
        else:
            # flips concentrate on the headers, where a flip changes a length
            pos = int(rng.integers(0, min(len(blob), 96) if case % 2 else len(blob)))
            corrupt = bytearray(blob)
            corrupt[pos] ^= 1 << int(rng.integers(0, 8))
        bad.write_bytes(bytes(corrupt))
        try:
            read(bad)
        except (FormatError, DigestMismatch):
            pass
        except Exception as exc:  # any other type is the failure
            escapes.append((case, type(exc).__name__, str(exc)[:80]))
    assert escapes == []
