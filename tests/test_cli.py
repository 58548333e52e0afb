import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imutok import fileio
from imutok.cli import main, parse_config_file
from imutok.errors import ImutokError
from imutok.stream import (InferencePipeline, TokenSequence, read_token_stream,
                           write_token_stream)
from imutok.trainer import TrainConfig
from imutok.vqcodec import LossWeights


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_config(workdir):
    path = workdir / "train.cfg"
    path.write_text(
        "# desk-scale smoke config\n"
        "K = 12\n"
        "d_z = 16\n"
        "hidden = 32\n"
        "batch_size = 4\n"
        "total_steps = 10\n"
        "window = 32\n"
        "seed = 5\n")
    return path


@pytest.fixture(scope="module")
def dataset(workdir):
    data = workdir / "data"
    data.mkdir()
    for seed, style in [(0, "walk"), (1, "squat"), (2, "arm_raise")]:
        stem = data / f"seq{seed}"
        assert main(["motion", "gen", "--seed", str(seed), "--style", style,
                     "--duration", "2", "--fps", "60",
                     "--out", str(stem) + ".mjt1"]) == 0
        assert main(["imu", "simulate", "--motion", str(stem) + ".mjt1",
                     "--out", str(stem) + ".mji1"]) == 0
    return data


@pytest.fixture(scope="module")
def checkpoints(workdir, dataset, tiny_config):
    mp = workdir / "motion.mjc"
    ip = workdir / "imu.mjc"
    bp = workdir / "base.mjc"
    assert main(["train", "motion", "--data", str(dataset), "--config",
                 str(tiny_config), "--out", str(mp)]) == 0
    assert main(["train", "imu", "--data", str(dataset), "--config", str(tiny_config),
                 "--motion-ckpt", str(mp), "--out", str(ip)]) == 0
    assert main(["train", "baseline", "--data", str(dataset), "--config",
                 str(tiny_config), "--out", str(bp)]) == 0
    return mp, ip, bp


class TestConfigFile:
    def test_parse_round_trip(self, tiny_config):
        cfg = parse_config_file(tiny_config)
        assert cfg.K == 12 and cfg.window == 32 and cfg.seed == 5
        assert cfg.lr_max == 2e-4  # untouched default

    def test_unknown_key_rejected(self, workdir):
        bad = workdir / "bad.cfg"
        bad.write_text("learning_rate = 3\n")
        with pytest.raises(ImutokError):
            parse_config_file(bad)

    def test_reads_back_a_file_written_from_as_meta(self, workdir):
        cfg = TrainConfig(K=24, d_z=8, hidden=16, window=48, seed=2, lr_min=3e-7,
                          weights=LossWeights(zipf=0.5, commit=0.03))
        path = workdir / "full.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.as_meta().items()))
        assert parse_config_file(path) == cfg

    @pytest.mark.parametrize("line", ["l = 4", "fps = 60.0"])
    def test_removed_keys_rejected(self, workdir, line):
        bad = workdir / "removed.cfg"
        bad.write_text(line + "\n")
        with pytest.raises(ImutokError, match="bad config line"):
            parse_config_file(bad)

    def test_unparsable_value_exits_with_error(self, workdir, dataset, capsys):
        bad = workdir / "abc.cfg"
        bad.write_text("K = abc\n")
        code = main(["train", "motion", "--data", str(dataset), "--config", str(bad),
                     "--out", str(workdir / "no.mjc")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'K'" in err


class TestMotionAndImuCommands:
    def test_gen_is_deterministic(self, workdir):
        a, b = workdir / "a.mjt1", workdir / "b.mjt1"
        for out in (a, b):
            assert main(["motion", "gen", "--seed", "9", "--style", "walk",
                         "--duration", "1", "--fps", "60", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--fps", "-60"), ("--fps", "nan"),
                                             ("--duration", "nan"), ("--duration", "inf")])
    def test_gen_bad_duration_or_fps_exits_with_error(self, workdir, capsys, flag, value):
        out = workdir / "bad.mjt1"
        # the last of a repeated option wins
        code = main(["motion", "gen", "--style", "walk", "--duration", "1", "--fps", "60",
                     flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()

    @pytest.mark.parametrize("duration, fps", [("1e7", "1000"), ("1e200", "60"),
                                               ("1e308", "1e308")])
    def test_gen_too_many_frames_exits_with_error(self, workdir, capsys, duration, fps):
        out = workdir / "long.mjt1"
        code = main(["motion", "gen", "--style", "walk", "--duration", duration, "--fps", fps,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frames" in err and not out.exists()

    def test_simulate_with_noise_profile(self, workdir, dataset):
        profile = workdir / "noise.json"
        profile.write_text(json.dumps({
            "drift_sigma_ori": 0.01, "drift_sigma_acc": 0.05, "drift_sigma_gyr": 0.01,
            "gaussian_sigma_acc": 0.5, "corrupted_sensors": [1], "seed": 3}))
        clean = workdir / "clean.mji1"
        noisy = workdir / "noisy.mji1"
        motion = str(dataset / "seq0.mjt1")
        assert main(["imu", "simulate", "--motion", motion, "--out", str(clean)]) == 0
        assert main(["imu", "simulate", "--motion", motion, "--out", str(noisy),
                     "--noise-profile", str(profile)]) == 0
        a = fileio.read_imu_file(clean).frames
        b = fileio.read_imu_file(noisy).frames
        assert not np.array_equal(a, b)

    def test_fit_stats(self, workdir, dataset):
        out = workdir / "stats.mjn"
        assert main(["imu", "fit-stats", "--imu", str(dataset / "seq0.mji1"),
                     str(dataset / "seq1.mji1"), "--out", str(out)]) == 0
        mean, std = fileio.read_stats_file(out)
        assert mean.shape == (18,) and np.all(std > 0)

    def test_simulate_with_custom_placement(self, workdir, dataset):
        placement = workdir / "placement.json"
        eye = np.eye(3).tolist()
        placement.write_text(json.dumps({
            "joints": [0, 15, 18, 21, 3, 8],  # ankles instead of knees
            "mounts": [eye] * 6,
            "levers": [[0.0, 0.0, 0.0]] * 6,
        }))
        out = workdir / "custom.mji1"
        assert main(["imu", "simulate", "--motion", str(dataset / "seq0.mjt1"),
                     "--placement", str(placement), "--out", str(out)]) == 0
        default = workdir / "default.mji1"
        assert main(["imu", "simulate", "--motion", str(dataset / "seq0.mjt1"),
                     "--out", str(default)]) == 0
        a = fileio.read_imu_file(out).frames
        b = fileio.read_imu_file(default).frames
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("flag, content", [
        ("--noise-profile", json.dumps({"drift_sigma_orii": 0.01})),
        ("--placement", json.dumps({"joints": [0, 15, 18, 21, 2, 7],
                                    "levers": [[0.0, 0.0, 0.0]] * 6})),
        ("--noise-profile", "{\"drift_sigma_ori\": 0.01,"),
        ("--noise-profile", "{\"drift_sigma_acc\": Infinity}"),
        ("--noise-profile", json.dumps({"corrupted_sensors": [3], "dropout": [True]})),
    ], ids=["unknown_noise_key", "placement_without_mounts", "malformed_json",
            "infinite_sigma", "short_dropout"])
    def test_bad_json_input_exits_with_error(self, workdir, dataset, capsys, flag, content):
        bad = workdir / "bad.json"
        bad.write_text(content)
        code = main(["imu", "simulate", "--motion", str(dataset / "seq0.mjt1"),
                     flag, str(bad), "--out", str(workdir / "no.mji1")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


class TestTrainAndStreamCommands:
    def test_stream_round_trip(self, workdir, dataset, checkpoints):
        _, ip, _ = checkpoints
        tokens = workdir / "seq0.mjt"
        decoded = workdir / "decoded.mjt1"
        assert main(["stream", "tokenize", "--imu", str(dataset / "seq0.mji1"),
                     "--ckpt", str(ip), "--out", str(tokens)]) == 0
        tok = read_token_stream(tokens)
        assert len(tok) > 0 and tok.l == 4
        assert main(["stream", "decode", "--tokens", str(tokens), "--ckpt", str(ip),
                     "--out", str(decoded)]) == 0
        frames = fileio.read_motion_file(decoded).frames
        assert frames.shape == (4 * len(tok), 271)

    def test_stream_round_trip_of_a_recording_shorter_than_one_token(
            self, workdir, dataset, checkpoints):
        _, ip, _ = checkpoints
        imu = fileio.read_imu_file(dataset / "seq0.mji1")
        short, tokens, decoded = (workdir / "short.mji1", workdir / "short.mjt",
                                  workdir / "short.mjt1")
        fileio.write_imu_file(short, imu.frames[:3], imu.fps)
        assert main(["stream", "tokenize", "--imu", str(short), "--ckpt", str(ip),
                     "--chunk", "0", "--out", str(tokens)]) == 0
        assert len(read_token_stream(tokens)) == 0
        assert main(["stream", "decode", "--tokens", str(tokens), "--ckpt", str(ip),
                     "--out", str(decoded)]) == 0
        seq = fileio.read_motion_file(decoded)
        assert seq.frames.shape == (0, 271) and seq.fps == imu.fps

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tokenize_of_frames_that_overflow_the_encoder_exits_with_error(
            self, workdir, dataset, checkpoints, capsys):
        _, ip, _ = checkpoints
        imu = fileio.read_imu_file(dataset / "seq0.mji1")
        frames = imu.frames[:16].copy()
        frames[:, 3] = 1e37
        huge, tokens = workdir / "huge.mji1", workdir / "huge.mjt"
        fileio.write_imu_file(huge, frames, imu.fps)
        code = main(["stream", "tokenize", "--imu", str(huge), "--ckpt", str(ip),
                     "--out", str(tokens)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not tokens.exists()

    def test_pipe_with_a_torn_packet_header_exits_with_error(self, checkpoints, capsys,
                                                             monkeypatch):
        import io
        _, ip, _ = checkpoints
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\x01")))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        code = main(["stream", "pipe", "--ckpt", str(ip)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: truncated packet header")

    def test_token_ids_beyond_the_codebook_exit_with_error(self, workdir, checkpoints, capsys):
        # the file carries the checkpoint's codebook digest but declares
        # K=1000, so id 40 passes the reader's range check yet is no entry
        # of the checkpoint's 12
        _, ip, _ = checkpoints
        tokens, out = workdir / "big_k.mjt", workdir / "big_k.mjt1"
        digest = InferencePipeline.from_checkpoint(ip).codebook_digest()
        write_token_stream(tokens, TokenSequence(tokens=np.array([40], np.uint16), l=4,
                                                 fps=60.0, K=1000, codebook_digest=digest))
        code = main(["stream", "decode", "--tokens", str(tokens), "--ckpt", str(ip),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bench_noise(self, workdir, checkpoints, capsys):
        mp, ip, bp = checkpoints
        out = workdir / "report.mjr"
        assert main(["bench", "noise", "--imu-ckpt", str(ip), "--motion-ckpt", str(mp),
                     "--baseline-ckpt", str(bp), "--levels", "1", "--seed", "0",
                     "--count", "2", "--duration", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tokenized" in text and "baseline" in text
        blob = json.loads(out.read_text())
        assert any(r["method"] == "tokenized" and r["level"] == 1 for r in blob["rows"])

    @pytest.mark.parametrize("extra", [["--levels", "7"], ["--levels", "x"], ["--levels", "-1"],
                                       ["--levels", "0"], ["--levels", "1,1"],
                                       ["--count", "0"], ["--fps", "-60"]],
                             ids=["level_7", "level_x", "level_-1", "level_0", "level_1_twice",
                                  "count_0", "fps_-60"])
    def test_bench_noise_bad_arguments_exit_with_error(self, workdir, checkpoints, capsys,
                                                       extra):
        mp, ip, bp = checkpoints
        code = main(["bench", "noise", "--imu-ckpt", str(ip), "--motion-ckpt", str(mp),
                     "--baseline-ckpt", str(bp), "--count", "1", "--duration", "2", *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_negative_seed_exits_with_error(self, workdir, dataset, checkpoints, capsys):
        mp, ip, bp = checkpoints
        profile = workdir / "negative_seed.json"
        profile.write_text(json.dumps({"seed": -1}))
        for argv in (["motion", "gen", "--seed", "-1", "--out", str(workdir / "no.mjt1")],
                     ["imu", "simulate", "--motion", str(dataset / "seq0.mjt1"),
                      "--noise-profile", str(profile), "--out", str(workdir / "no.mji1")],
                     ["bench", "noise", "--imu-ckpt", str(ip), "--motion-ckpt", str(mp),
                      "--baseline-ckpt", str(bp), "--count", "1", "--duration", "2",
                      "--seed", "-1"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "seed" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("stage", ["imu", "baseline"])
    def test_short_stats_file_exits_with_error(self, workdir, dataset, tiny_config, capsys,
                                               stage):
        stats = workdir / "short.mjn"
        fileio.write_stats_file(stats, np.zeros(5), np.ones(5))
        out = workdir / f"short_{stage}.mjc"
        code = main(["train", stage, "--data", str(dataset), "--config", str(tiny_config),
                     "--stats", str(stats), "--out", str(out),
                     *(["--motion-ckpt", "unused.mjc"] if stage == "imu" else [])])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stats need 18")
        assert not out.exists()

    def test_non_finite_motion_frame_exits_with_error(self, workdir, dataset, tiny_config,
                                                      capsys):
        data = workdir / "nan_data"
        data.mkdir()
        for seed in range(3):
            seq = fileio.read_motion_file(dataset / f"seq{seed}.mjt1")
            if seed == 1:
                seq.frames[20, 50] = np.nan
            fileio.write_motion_file(data / f"seq{seed}.mjt1", seq.frames, seq.fps)
        out = workdir / "nan.mjc"
        code = main(["train", "motion", "--data", str(data), "--config", str(tiny_config),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("name, argv", [
        ("nope.mjt1", ["imu", "simulate", "--motion", "{missing}", "--out", "{out}"]),
        ("nope.mjc", ["stream", "decode", "--tokens", "{tokens}", "--ckpt", "{missing}",
                      "--out", "{out}"]),
    ], ids=["imu_simulate_motion", "stream_decode_ckpt"])
    def test_missing_input_path_exits_with_error(self, workdir, capsys, name, argv):
        tokens = workdir / "some.mjt"
        write_token_stream(tokens, TokenSequence(tokens=np.zeros(4, np.uint16), l=4, fps=60.0,
                                                 K=12, codebook_digest=bytes(32)))
        missing, out = workdir / name, workdir / "never.out"
        paths = {"missing": missing, "out": out, "tokens": tokens}
        code = main([a.format(**paths) for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"
        assert not out.exists()

    def test_error_reporting_returns_nonzero(self, workdir, capsys):
        missing = workdir / "minty"
        code = main(["train", "imu", "--data", str(missing), "--motion-ckpt", "x",
                     "--out", str(workdir / "no.mjc")])
        assert code == 1
        assert "error" in capsys.readouterr().err


def test_module_entry_point_runs_without_a_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "imutok.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: imutok" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
