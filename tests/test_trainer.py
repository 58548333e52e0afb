import dataclasses
import tracemalloc

import numpy as np
import pytest

from imutok import gradnet as gn
from imutok import trainer
from imutok import vqcodec as vq
from imutok.checkpoint import arrays_digest, load_checkpoint, save_checkpoint
from imutok.errors import (CheckpointMismatch, ConfigInvalid, DigestMismatch,
                           EmptyDataset, FormatError, InvalidArgument, LengthMismatch,
                           ShapeMismatch)
from imutok.evalbench import augment_and_normalize, synthesize_pairs
from imutok.imusim import InertiaSequence
from imutok.models import (WINDOW_GROUP, ConvStack, MotionVQVAE, flatten_latents, model_arrays,
                           tokenize_windows, unflatten_latents)
from imutok.motion import SL_CONTACT, MotionSequence
from imutok.stream import InferencePipeline
from imutok.trainer import (CHECKPOINT_KINDS, TrainConfig, _rng, fit, load_trained, make_windows,
                            motion_total_from_components, paired_windows, target_rows, time_last,
                            train_imu_tokenizer, train_motion_vqvae)

# the keys of one report record per stage
STAGE1_RECORD_KEYS = {"step", "loss", "recon", "commit", "contact", "slide", "zipf_js",
                      "perplexity", "lr", "refreshed", "wall_clock"}
STAGE2_RECORD_KEYS = {"step", "loss", "code", "dist", "dist_match", "dist_zipf",
                      "perplexity", "lr", "refreshed", "wall_clock"}


def shorten(pairs, n_frames, motion=(), imu=()):
    """Copy of ``pairs`` with the motion of the pairs in ``motion`` and the
    IMU of the pairs in ``imu`` cut ``n_frames`` short."""
    out = []
    for k, (m, i) in enumerate(pairs):
        if k in motion:
            m = MotionSequence(m.frames[:-n_frames], m.fps)
        if k in imu:
            i = InertiaSequence(i.frames[:-n_frames], i.fps)
        out.append((m, i))
    return out


def without_wall_clock(report) -> list:
    """Every logged scalar of every step but the wall-clock time."""
    return [{k: v for k, v in rec.items() if k != "wall_clock"} for rec in report.records]


@pytest.fixture(scope="module")
def tiny_cfg():
    return TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, total_steps=12,
                       window=32, seed=3, lr_max=2e-4)


@pytest.fixture(scope="module")
def tiny_pairs():
    raw = synthesize_pairs(range(3), duration_s=2.0, fps=60.0)
    pairs, stats = augment_and_normalize(raw, seed=1)
    return pairs, stats


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = TrainConfig()
        assert cfg.K == 64 and cfg.gamma == 0.99
        assert cfg.lr_max == 2e-4 and cfg.batch_size == 16
        w = cfg.weights
        assert (w.recon, w.commit, w.contact, w.slide) == (1.0, 0.02, 0.01, 0.01)
        assert (w.code, w.dist, w.zipf) == (1.0, 1.0, 0.2)

    def test_meta_round_trip(self):
        cfg = TrainConfig(K=32, d_z=24, hidden=48, seed=9, lr_min=1e-5)
        assert TrainConfig.from_meta({k: str(v) for k, v in cfg.as_meta().items()}) == cfg

    def test_meta_round_trip_with_every_field_set(self):
        weights = vq.LossWeights(recon=2.0, commit=0.5, contact=0.25, slide=0.125,
                                 code=3.0, dist=0.75, zipf=0.0625)
        cfg = TrainConfig(K=1024, d_z=512, gamma=0.95, weights=weights, lr_max=1e-3,
                          lr_min=1e-7, weight_decay=0.05, batch_size=512, total_steps=77,
                          window=96, seed=123, hidden=256, temperature=0.7,
                          zipf_alpha=1.5, zipf_beta=3.1)
        default = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for f in dataclasses.fields(vq.LossWeights):
            assert getattr(weights, f.name) != getattr(default.weights, f.name), f.name
        meta = {k: str(v) for k, v in cfg.as_meta().items()}
        assert len(meta) == len(dataclasses.fields(TrainConfig)) - 1 + \
            len(dataclasses.fields(vq.LossWeights))
        assert TrainConfig.from_meta(meta) == cfg

    def test_meta_of_older_checkpoints_loads(self):
        # older checkpoints carry the compression rate ``l`` and ``fps``,
        # and every checkpoint carries its kind
        cfg = TrainConfig(K=32, seed=4)
        meta = {k: str(v) for k, v in cfg.as_meta().items()}
        meta.update({"l": "4", "fps": "60.0", "kind": "motion_vqvae"})
        assert TrainConfig.from_meta(meta) == cfg

    @pytest.mark.parametrize("key", ["K", "zipf_beta", "w_recon", "w_zipf"])
    def test_missing_meta_key_is_named(self, key):
        meta = TrainConfig().as_meta()
        del meta[key]
        with pytest.raises(ConfigInvalid, match=f"'{key}'"):
            TrainConfig.from_meta(meta)

    # the later values parse but cannot train: each used to end in a bare
    # ValueError or ZeroDivisionError, in a NaN or overflowing loss and exit
    # 0, or in an error only after the corpus was loaded
    @pytest.mark.parametrize("key, value", [("K", "abc"), ("K", "4.0"), ("seed", ""),
                                            ("lr_max", "fast"), ("w_dist", "1,0"),
                                            ("window", "0"), ("hidden", "0"), ("d_z", "0"),
                                            ("seed", "-1"), ("lr_max", "nan"),
                                            ("zipf_beta", "nan"), ("w_recon", "nan"),
                                            ("temperature", "inf"), ("lr_max", "-0.5"),
                                            ("lr_min", "-1e-06"), ("weight_decay", "-0.01"),
                                            ("temperature", "0.0"), ("zipf_alpha", "-0.5"),
                                            ("zipf_beta", "-1.0")])
    def test_unparsable_meta_value_is_named(self, key, value):
        meta = TrainConfig().as_meta()
        meta[key] = value
        with pytest.raises(ConfigInvalid, match=f"'{key}'"):
            TrainConfig.from_meta(meta)

    def test_window_must_be_divisible(self):
        with pytest.raises(ConfigInvalid):
            TrainConfig(window=63)

    def test_gamma_range(self):
        with pytest.raises(ConfigInvalid):
            TrainConfig(gamma=1.0)

    def test_codebook_size_fits_u16_token_ids(self):
        assert TrainConfig(K=1 << 16).K == 65536
        with pytest.raises(ConfigInvalid):
            TrainConfig(K=(1 << 16) + 1)


def stacked_crops(frames, window):
    """Every crop of ``frames`` stacked in float32: the windows as one array."""
    return np.stack([f[lo:lo + window] for f in frames
                     for lo in range(0, len(f) - window + 1, window // 2)], dtype=np.float32)


def assert_bitwise(batch, want):
    assert batch.dtype == np.float32 and batch.flags.c_contiguous
    assert batch.shape == want.shape and batch.tobytes() == want.tobytes()


class TestWindows:
    def test_stride_is_half_window(self):
        frames = [np.zeros((100, 7))]
        w = make_windows(frames, 32)
        assert len(w) == 5 and w[:].shape == (5, 32, 7)  # starts 0,16,32,48,64

    def test_short_sequences_are_skipped(self):
        w = make_windows([np.zeros((10, 7)), np.zeros((40, 7))], 32)
        assert len(w) == 1 and w[:].shape[0] == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            make_windows([np.zeros((10, 7))], 32)

    def test_float32_crops_equal_the_cast_of_float64_crops(self):
        frames = [np.random.default_rng(0).normal(size=(n, 5)) for n in (70, 45)]
        w = make_windows(frames, 32)
        want = np.stack([f[lo:lo + 32] for f in frames
                         for lo in range(0, len(f) - 31, 16)]).astype(np.float32)
        assert w[:].dtype == np.float32
        assert np.array_equal(w[:], want)

    def test_gathered_batches_equal_the_stacked_crops_bitwise(self):
        rng = np.random.default_rng(4)
        frames = [rng.normal(size=(n, 11)) for n in (200, 20, 131, 64, 97)]
        w = make_windows(frames, 32)
        want = stacked_crops(frames, 32)
        assert len(w) == len(want)
        for k in range(len(want)):
            assert_bitwise(w[[k]], want[[k]])
        for size in (1, 4, 16):
            sel = rng.choice(len(want), size=size, replace=False)
            assert_bitwise(w[sel], want[sel])
        # the slices tokenize_windows gathers, the last one short
        for lo in range(0, len(want), WINDOW_GROUP):
            assert_bitwise(w[lo:lo + WINDOW_GROUP], want[lo:lo + WINDOW_GROUP])

    def test_windows_are_not_stored(self):
        # 8 x 480 frames of 271 channels: the stacked windows would take 7.8 MB
        rng = np.random.default_rng(5)
        pairs = [(MotionSequence(rng.normal(size=(480, 271)), 60.0),
                  InertiaSequence(rng.normal(size=(480, 72)), 60.0)) for _ in range(8)]
        stored = stacked_crops([m.frames for m, _ in pairs], 64).nbytes
        tracemalloc.start()
        try:
            make_windows([m.frames for m, _ in pairs], 64)
            paired_windows(pairs, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored

    @pytest.mark.parametrize("frames", [[np.zeros(40)],
                                        [np.zeros((64, 271)), np.zeros((64, 270))]])
    def test_frames_must_be_two_dimensional_and_equally_wide(self, frames):
        with pytest.raises(ShapeMismatch):
            make_windows(frames, 32)

    def test_training_on_frames_of_two_widths_raises(self, tiny_cfg):
        with pytest.raises(ShapeMismatch, match="sequence 1"):
            train_motion_vqvae([np.zeros((64, 271)), np.zeros((64, 270))], tiny_cfg)


class TestStageOne:
    def test_same_seed_runs_are_bitwise_identical(self, tiny_cfg, tiny_pairs, tmp_path):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        p1, p2 = tmp_path / "a.mjc", tmp_path / "b.mjc"
        _, r1 = train_motion_vqvae(corpus, tiny_cfg, ckpt_path=p1)
        _, r2 = train_motion_vqvae(corpus, tiny_cfg, ckpt_path=p2)
        a, b = load_checkpoint(p1), load_checkpoint(p2)
        assert sorted(a.arrays) == sorted(b.arrays)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k]), k
        assert without_wall_clock(r1) == without_wall_clock(r2)

    def test_different_seed_differs(self, tiny_cfg, tiny_pairs):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        m1, _ = train_motion_vqvae(corpus, tiny_cfg)
        meta = tiny_cfg.as_meta()
        meta["seed"] = 4
        m2, _ = train_motion_vqvae(corpus, TrainConfig.from_meta(meta))
        assert not np.array_equal(m1.params()["enc.c1.w"].value, m2.params()["enc.c1.w"].value)

    def test_step_zero_loss_matches_fresh_model_eval(self, tiny_cfg, tiny_pairs):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        _, report = train_motion_vqvae(corpus, tiny_cfg)

        # rebuild the exact step-0 state from the same init/data/gumbel
        # streams, and the stage-1 objective from its components
        windows = make_windows([np.asarray(m.frames) for m in corpus], tiny_cfg.window)
        init_rng = _rng(tiny_cfg.seed, 0)
        data_rng = _rng(tiny_cfg.seed, 1)
        gumbel_rng = _rng(tiny_cfg.seed, 2)
        model = MotionVQVAE(tiny_cfg, rng=init_rng)
        sel = data_rng.choice(len(windows), size=min(tiny_cfg.batch_size, len(windows)),
                              replace=False)
        batch = windows[sel]
        x = gn.Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1)))
        z0 = flatten_latents(model.encode(x))
        model.codebook = vq.Codebook.from_kmeans(z0.value, tiny_cfg.K,
                                                 rng=init_rng, gamma=tiny_cfg.gamma)
        _, codes = vq.quantize(z0, model.codebook)
        recon = model.decode(unflatten_latents(gn.Tensor(codes), len(batch), tiny_cfg.d_z)).value
        jv = np.concatenate([recon[:, lo:hi] for lo, hi in trainer._FOOT_VEL_ROWS], axis=1)
        _, comps = vq.motion_vq_losses(x, recon, z0, codes, x.value[:, SL_CONTACT],
                                       recon[:, SL_CONTACT], jv.reshape(len(batch), 4, 3, -1),
                                       tiny_cfg.weights)
        freq = vq.batch_token_frequency(z0, model.codebook, tiny_cfg.temperature, gumbel_rng)
        comps["zipf_js"] = vq.js_divergence(freq, vq.zipf_target(vq.ZipfParams(K=tiny_cfg.K)))
        fresh = motion_total_from_components({k: float(v) for k, v in comps.items()},
                                             tiny_cfg.weights)
        assert report.records[0]["loss"] == pytest.approx(fresh, rel=1e-12)

    def test_logged_total_equals_weighted_component_sum(self, tiny_cfg, tiny_pairs):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        _, report = train_motion_vqvae(corpus, tiny_cfg)
        w = tiny_cfg.weights
        for rec in report.records:
            want = (w.recon * rec["recon"] + w.commit * rec["commit"]
                    + w.contact * rec["contact"] + w.slide * rec["slide"]
                    + w.dist * w.zipf * rec["zipf_js"])
            assert abs(rec["loss"] - want) < 1e-9

    def test_perplexity_bounds(self, tiny_cfg, tiny_pairs):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        _, report = train_motion_vqvae(corpus, tiny_cfg)
        for rec in report.records:
            assert 1.0 <= rec["perplexity"] <= tiny_cfg.K

    def test_record_keys(self, tiny_cfg, tiny_pairs):
        pairs, _ = tiny_pairs
        _, report = train_motion_vqvae([m for m, _ in pairs], tiny_cfg)
        assert len(report.records) == tiny_cfg.total_steps
        for step, rec in enumerate(report.records):
            assert set(rec) == STAGE1_RECORD_KEYS
            assert rec["step"] == step

    def test_empty_corpus(self, tiny_cfg):
        with pytest.raises(EmptyDataset):
            train_motion_vqvae([], tiny_cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_frame_rejected(self, tiny_cfg, tiny_pairs, bad):
        # one such value used to reach every loss and, through AdamW, every
        # weight; 1e39 is finite in float64 but inf in the float32 batches
        pairs, _ = tiny_pairs
        corpus = [m.frames.copy() for m, _ in pairs]
        corpus[1][37, 100] = bad
        with pytest.raises(InvalidArgument, match="sequence 1"):
            train_motion_vqvae(corpus, tiny_cfg)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "enc.w": rng.normal(size=(4, 3)).astype(np.float32),
            "cb.delta": rng.random(8),
            "opt.step": np.array([17], dtype=np.int64),
        }
        meta = {"kind": "motion_vqvae", "K": "8"}
        path = tmp_path / "x.mjc"
        save_checkpoint(path, meta, arrays)
        back = load_checkpoint(path)
        assert back.meta["kind"] == "motion_vqvae"
        for k, v in arrays.items():
            assert np.array_equal(back.arrays[k], v)
            assert back.arrays[k].dtype == v.dtype

    def test_truncated_file_raises_format_error(self, tmp_path):
        path = tmp_path / "x.mjc"
        save_checkpoint(path, {"kind": "motion_vqvae"}, {"a": np.zeros(4, np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_tampered_meta_raises_digest_mismatch(self, tmp_path):
        path = tmp_path / "x.mjc"
        save_checkpoint(path, {"kind": "motion_vqvae", "K": "8"},
                        {"a": np.zeros(4, np.float32)})
        blob = bytearray(path.read_bytes())
        pos = blob.find(b"K = 8")
        blob[pos + 4:pos + 5] = b"9"
        path.write_bytes(bytes(blob))
        with pytest.raises(DigestMismatch):
            load_checkpoint(path)

    def test_corrupted_payload_raises_digest_mismatch(self, tmp_path):
        path = tmp_path / "x.mjc"
        save_checkpoint(path, {"kind": "motion_vqvae"},
                        {"a": np.arange(16, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0xFF  # flip a payload bit ahead of the trailing digest
        path.write_bytes(bytes(blob))
        with pytest.raises(DigestMismatch):
            load_checkpoint(path)

    def test_failed_save_leaves_the_existing_file_alone(self, tmp_path):
        # the bad dtype comes after an array that would already be written
        path = tmp_path / "x.mjc"
        save_checkpoint(path, {"kind": "motion_vqvae"}, {"a": np.zeros(4, np.float32)})
        before = path.read_bytes()
        with pytest.raises(FormatError, match="unsupported checkpoint dtype int32 for b"):
            save_checkpoint(path, {"kind": "motion_vqvae"},
                            {"a": np.ones(4, np.float32), "b": np.zeros(4, np.int32)})
        assert path.read_bytes() == before

    def test_full_training_checkpoint_round_trip(self, tiny_cfg, tiny_pairs, tmp_path):
        pairs, _ = tiny_pairs
        corpus = [m for m, _ in pairs]
        path = tmp_path / "m.mjc"
        model, _ = train_motion_vqvae(corpus, tiny_cfg, ckpt_path=path)
        (loaded,), cfg, stats = load_trained(load_checkpoint(path), "motion_vqvae")
        assert stats is None
        assert cfg == tiny_cfg
        for (k1, p1), (k2, p2) in zip(sorted(model.params().items()),
                                      sorted(loaded.params().items())):
            assert k1 == k2
            assert np.array_equal(p1.value, p2.value)
        assert np.array_equal(model.codebook.entries, loaded.codebook.entries)
        assert np.array_equal(model.codebook.ema_sigma, loaded.codebook.ema_sigma)
        assert np.array_equal(model.codebook.ema_delta, loaded.codebook.ema_delta)


@pytest.fixture(scope="module")
def stage1(tiny_cfg, tiny_pairs, tmp_path_factory):
    pairs, stats = tiny_pairs
    path = tmp_path_factory.mktemp("ckpt") / "motion.mjc"
    train_motion_vqvae([m for m, _ in pairs], tiny_cfg, ckpt_path=path)
    return path


class TestStageTwo:
    def test_same_seed_reproducibility(self, tiny_cfg, tiny_pairs, stage1, tmp_path):
        pairs, stats = tiny_pairs
        p1, p2 = tmp_path / "i1.mjc", tmp_path / "i2.mjc"
        *_, r1 = train_imu_tokenizer(pairs, stage1, tiny_cfg, stats, ckpt_path=p1)
        *_, r2 = train_imu_tokenizer(pairs, stage1, tiny_cfg, stats, ckpt_path=p2)
        a, b = load_checkpoint(p1), load_checkpoint(p2)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k]), k
        assert without_wall_clock(r1) == without_wall_clock(r2)

    def test_motion_model_is_frozen(self, tiny_cfg, tiny_pairs, stage1, tmp_path):
        pairs, stats = tiny_pairs
        out = tmp_path / "imu.mjc"
        train_imu_tokenizer(pairs, stage1, tiny_cfg, stats, ckpt_path=out)
        motion_ckpt = load_checkpoint(stage1)
        imu_ckpt = load_checkpoint(out)
        assert arrays_digest(motion_ckpt.arrays, "motion.") == \
            arrays_digest(imu_ckpt.arrays, "motion.")

    def test_code_loss_decreases_smoothed(self, tiny_pairs, stage1):
        pairs, stats = tiny_pairs
        meta = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, window=32,
                           seed=3).as_meta()
        meta["total_steps"] = 300
        meta["w_dist"] = 0.0  # isolate the code-matching objective
        cfg = TrainConfig.from_meta(meta)
        _, _, report = train_imu_tokenizer(pairs, stage1, cfg, stats)
        code = np.array([r["code"] for r in report.records])
        assert code[-50:].mean() < code[:50].mean()

    def test_mismatched_latent_width_raises(self, tiny_pairs, stage1):
        pairs, stats = tiny_pairs
        bad = TrainConfig(K=12, d_z=8, hidden=32, batch_size=4, window=32, seed=3,
                          total_steps=5)
        with pytest.raises(CheckpointMismatch):
            train_imu_tokenizer(pairs, stage1, bad, stats)

    def test_mismatched_hidden_width_raises(self, tiny_cfg, tiny_pairs, stage1, tmp_path):
        # the file would rebuild its stage-1 model at hidden=24 and fail to load
        pairs, stats = tiny_pairs
        bad = dataclasses.replace(tiny_cfg, hidden=24, total_steps=2)
        with pytest.raises(CheckpointMismatch, match="hidden=32; config asks .*hidden=24"):
            train_imu_tokenizer(pairs, stage1, bad, stats, ckpt_path=tmp_path / "i.mjc")

    def test_imu_checkpoint_is_self_contained(self, tiny_cfg, tiny_pairs, stage1, tmp_path):
        pairs, stats = tiny_pairs
        out = tmp_path / "imu.mjc"
        train_imu_tokenizer(pairs, stage1, tiny_cfg, stats, ckpt_path=out)
        (imu_model, motion_model), cfg, loaded_stats = load_trained(out, "imu_tokenizer")
        assert cfg == tiny_cfg
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.std, stats.std)
        assert imu_model.codebook.entries.shape == (tiny_cfg.K, tiny_cfg.d_z)

    def test_record_keys(self, tiny_cfg, tiny_pairs, stage1):
        pairs, stats = tiny_pairs
        _, _, report = train_imu_tokenizer(pairs, stage1, tiny_cfg, stats)
        assert len(report.records) == tiny_cfg.total_steps
        for step, rec in enumerate(report.records):
            assert set(rec) == STAGE2_RECORD_KEYS
            assert rec["step"] == step

    def test_empty_corpus(self, tiny_cfg, tiny_pairs, stage1):
        _, stats = tiny_pairs
        with pytest.raises(EmptyDataset):
            train_imu_tokenizer([], stage1, tiny_cfg, stats)

    def test_misaligned_pairs_with_equal_window_counts_raise(self, tiny_cfg, tiny_pairs,
                                                             stage1):
        # pair 0 loses motion frames and pair 1 IMU frames: the window
        # totals still agree, so only a per-pair check can catch it
        pairs, stats = tiny_pairs
        bad = shorten(pairs, 32, motion=(0,), imu=(1,))
        assert len(make_windows([m.frames for m, _ in bad], 32)) == \
            len(make_windows([i.frames for _, i in bad], 32))
        with pytest.raises(LengthMismatch):
            train_imu_tokenizer(bad, stage1, tiny_cfg, stats)

    def test_one_short_motion_raises(self, tiny_cfg, tiny_pairs, stage1):
        pairs, stats = tiny_pairs
        with pytest.raises(LengthMismatch):
            train_imu_tokenizer(shorten(pairs, 32, motion=(2,)), stage1, tiny_cfg, stats)

    def test_targets_that_overflow_the_frozen_encoder_raise_before_training(
            self, tiny_cfg, tiny_pairs, stage1, monkeypatch):
        # 3e38 is finite in float32, yet its latents have no finite distance
        # to the codebook; quantize would give them id 0 as targets
        pairs, stats = tiny_pairs
        motion = pairs[1][0].frames.copy()
        motion[40, 100] = 3e38
        bad = [pairs[0], (MotionSequence(motion, pairs[1][0].fps), pairs[1][1]), pairs[2]]
        fits = []
        monkeypatch.setattr(trainer, "fit", lambda *a, **k: fits.append(a))
        with pytest.raises(InvalidArgument, match="overflow the encoder"):
            train_imu_tokenizer(bad, stage1, tiny_cfg, stats)
        assert fits == []


def random_windows(n, cfg, seed=0):
    return np.random.default_rng(seed).standard_normal((n, cfg.window, 271)).astype(np.float32)


class TestFrozenTargets:
    def test_each_window_is_encoded_alone(self, tiny_cfg):
        # at this shape a window's latents move in their last bits with the
        # windows that share its batch, so only encoding it alone is stable
        model = MotionVQVAE(tiny_cfg, rng=_rng(1, 0))
        windows = random_windows(2 * WINDOW_GROUP + 5, tiny_cfg)
        latents, ids = tokenize_windows(model, windows)
        S = tiny_cfg.window // 4
        assert latents.shape == (len(windows), S, tiny_cfg.d_z)
        assert ids.shape == (len(windows), S)
        for n in range(len(windows)):
            alone = flatten_latents(model.encode(gn.Tensor(time_last(windows[n:n + 1])))).value
            assert np.array_equal(latents[n], alone), n
            assert np.array_equal(ids[n], vq.quantize(alone, model.codebook)[0]), n

    def test_batch_from_the_cache_equals_the_batch_encoded_at_the_desk_shape(self):
        cfg = TrainConfig()
        model = MotionVQVAE(cfg, rng=_rng(1, 0))
        windows = random_windows(3 * cfg.batch_size, cfg)
        latents, ids = tokenize_windows(model, windows)
        rng = np.random.default_rng(2)
        for _ in range(3):
            sel = rng.choice(len(windows), size=cfg.batch_size, replace=False)
            batch = flatten_latents(model.encode(gn.Tensor(time_last(windows[sel])))).value
            rows = target_rows(latents[sel])
            assert rows.shape == batch.shape and rows.strides == batch.strides
            assert np.array_equal(rows, batch)
            idx, codes = vq.quantize(batch, model.codebook)
            assert np.array_equal(ids[sel].reshape(-1), idx)
            assert np.array_equal(model.codebook.entries[ids[sel].reshape(-1)], codes)

    def test_motion_encoder_runs_once_per_training_not_per_step(self, tiny_cfg, tiny_pairs,
                                                                stage1, monkeypatch):
        # tokenize_windows is the only caller of the array forward in stage 2
        pairs, stats = tiny_pairs
        forward = ConvStack.forward_array
        calls = []

        def counted(self, x, workspace=None):
            calls.append(x.shape)
            return forward(self, x, workspace)

        monkeypatch.setattr(ConvStack, "forward_array", counted)
        counts = []
        for steps in (3, 9):
            calls.clear()
            train_imu_tokenizer(pairs, stage1, dataclasses.replace(tiny_cfg, total_steps=steps),
                                stats)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def without_array(path, key, out):
    """The checkpoint at ``path`` re-saved, with valid digests, minus ``key``."""
    ckpt = load_checkpoint(path)
    assert key in ckpt.arrays
    save_checkpoint(out, ckpt.meta, {k: v for k, v in ckpt.arrays.items() if k != key})
    return load_checkpoint(out)


@pytest.fixture(scope="module")
def stage2(tiny_cfg, tiny_pairs, stage1, tmp_path_factory):
    pairs, stats = tiny_pairs
    path = tmp_path_factory.mktemp("ckpt") / "imu.mjc"
    train_imu_tokenizer(pairs, stage1, tiny_cfg, stats, ckpt_path=path)
    return path


class TestMissingCheckpointArrays:
    @pytest.mark.parametrize("key", ["motion.cb.entries", "motion.cb.sigma",
                                     "motion.cb.delta", "motion.cb.dead"])
    def test_stage1_codebook_array(self, stage1, tmp_path, key):
        ckpt = without_array(stage1, key, tmp_path / "cut.mjc")
        with pytest.raises(ConfigInvalid, match=key):
            load_trained(ckpt, "motion_vqvae")

    @pytest.mark.parametrize("key", ["stats.mean", "stats.std", "imu.cb.dead",
                                     "motion.cb.entries"])
    def test_stage2_stats_and_codebook_arrays(self, stage2, tmp_path, key):
        ckpt = without_array(stage2, key, tmp_path / "cut.mjc")
        with pytest.raises(ConfigInvalid, match=key):
            load_trained(ckpt, "imu_tokenizer")


class TestMisshapenCheckpointArrays:
    @pytest.mark.parametrize("key", ["motion.cb.entries", "motion.cb.sigma",
                                     "motion.cb.delta", "motion.cb.dead"])
    def test_codebook_array_one_entry_short(self, stage1, tmp_path, key):
        # the meta's K still says 12, so the short array must not load silently
        ckpt = load_checkpoint(stage1)
        path = tmp_path / "short.mjc"
        save_checkpoint(path, ckpt.meta, {**ckpt.arrays, key: ckpt.arrays[key][:-1]})
        with pytest.raises(ConfigInvalid, match=key):
            load_trained(path, "motion_vqvae")


class _ConvStack:
    """A model for ``fit`` whose parameters are small next to one step's
    graph, so the peak of a run shows how many graphs it holds at once."""

    def __init__(self, rng):
        widths = [8, 16, 16, 16, 16, 8]
        self.convs = [gn.Conv1d(a, b, 3, padding=1, rng=rng)
                      for a, b in zip(widths, widths[1:])]

    def params(self):
        return {k: t for i, c in enumerate(self.convs) for k, t in c.params(str(i)).items()}

    def loss(self, batches, step):
        x = h = gn.Tensor(batches[0])
        for conv in self.convs:
            h = gn.leaky_relu(conv(h))
        total = gn.mse(h, x)
        return total, {"loss": float(total)}, None


@pytest.mark.parametrize("lanes", [1, 3])
def test_training_holds_one_graph_at_a_time(monkeypatch, lanes):
    # a step's forward runs after the previous step's backward released its
    # graph, so more steps do not raise the peak; a previous graph held
    # through the next forward, with its gradients, raises it by about half.
    # Spare CPUs change none of this.
    monkeypatch.setattr(gn, "cpu_lanes", lambda: lanes)
    windows = np.random.default_rng(7).normal(size=(64, 8, 256)).astype(np.float32)
    peaks = []
    for steps in (1, 3):
        model = _ConvStack(np.random.default_rng(8))
        cfg = TrainConfig(batch_size=16, total_steps=steps, window=4)
        tracemalloc.start()
        try:
            fit((model,), cfg, (windows,), model.loss, 0, kind="motion_vqvae")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.3 * peaks[0], peaks


@pytest.fixture(scope="module")
def trained_kinds(tiny_cfg, tiny_pairs, stage1, tmp_path_factory):
    """kind -> (checkpoint path, the trained models in table order, stats or None)."""
    from imutok.evalbench import train_baseline_poser
    pairs, stats = tiny_pairs
    d = tmp_path_factory.mktemp("kinds")
    motion, _ = train_motion_vqvae([m for m, _ in pairs], tiny_cfg, ckpt_path=d / "m.mjc")
    imu, frozen, _ = train_imu_tokenizer(pairs, d / "m.mjc", tiny_cfg, stats,
                                         ckpt_path=d / "i.mjc")
    base, _ = train_baseline_poser(pairs, tiny_cfg, stats, ckpt_path=d / "b.mjc")
    return {"motion_vqvae": (d / "m.mjc", (motion,), None),
            "imu_tokenizer": (d / "i.mjc", (imu, frozen), stats),
            "baseline_poser": (d / "b.mjc", (base,), stats)}


@pytest.mark.parametrize("kind", list(CHECKPOINT_KINDS))
def test_checkpoint_kind_round_trips_and_rejects_other_kinds(kind, trained_kinds, tiny_cfg):
    path, trained, stats = trained_kinds[kind]
    ckpt = load_checkpoint(path)
    models, cfg, loaded_stats = load_trained(ckpt, kind)
    assert cfg == tiny_cfg
    assert [type(m) for m in models] == [cls for _, cls in CHECKPOINT_KINDS[kind][0]]
    for model, loaded in zip(trained, models, strict=True):
        assert list(loaded.params()) == list(model.params())
        for (k, p), q in zip(model.params().items(), loaded.params().values()):
            assert np.array_equal(p.value, q.value) and q.value.dtype == p.value.dtype, k
            assert not q.requires_grad, k
        if hasattr(model, "codebook"):
            for name in ("entries", "ema_sigma", "ema_delta", "dead_steps"):
                assert np.array_equal(getattr(model.codebook, name),
                                      getattr(loaded.codebook, name)), name
        # loaded arrays are copies, never views of the checkpoint's
        for arr in model_arrays(loaded).values():
            assert not any(np.shares_memory(arr, a) for a in ckpt.arrays.values())
    if stats is None:
        assert loaded_stats is None
    else:
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.std, stats.std)
    for other, (other_path, _, _) in trained_kinds.items():
        if other != kind:
            with pytest.raises(CheckpointMismatch, match=f"expected a {kind} checkpoint"):
                load_trained(other_path, kind)


@pytest.mark.parametrize("kind", list(CHECKPOINT_KINDS))
def test_checkpoint_holds_exactly_the_layout_of_its_kind(kind, trained_kinds):
    # models and stats only: nothing of the optimizer is stored
    path, trained, stats = trained_kinds[kind]
    specs, has_stats = CHECKPOINT_KINDS[kind]
    want = {}
    for (prefix, _), model in zip(specs, trained, strict=True):
        want.update(model_arrays(model, prefix))
    if has_stats:
        want.update({"stats.mean": stats.mean, "stats.std": stats.std})
    arrays = load_checkpoint(path).arrays
    assert sorted(arrays) == sorted(want)
    assert not any(k.startswith("opt.") for k in arrays)
    for k, v in want.items():
        assert arrays[k].tobytes() == v.tobytes() and arrays[k].dtype == v.dtype, k


@pytest.mark.parametrize("kind", list(CHECKPOINT_KINDS))
def test_checkpoint_with_optimizer_arrays_still_loads(kind, trained_kinds, tmp_path):
    # files written before checkpoints dropped the optimizer carry opt.step,
    # opt.m.* and opt.v.* beside the models; readers look arrays up by name
    path, trained, _ = trained_kinds[kind]
    ckpt = load_checkpoint(path)
    rng = np.random.default_rng(4)
    extra = {"opt.step": np.array([12], dtype=np.int64)}
    for name, p in trained[0].params().items():
        extra[f"opt.m.{name}"] = rng.normal(size=p.value.shape).astype(p.value.dtype)
        extra[f"opt.v.{name}"] = rng.random(p.value.shape).astype(p.value.dtype)
    old = tmp_path / "with_opt.mjc"
    save_checkpoint(old, ckpt.meta, {**ckpt.arrays, **extra})

    def pipeline_models(c):
        pipe = InferencePipeline.from_checkpoint(c)
        return pipe.imu_model, pipe.motion_model

    loads = [lambda c: load_trained(c, kind)[0]]
    if kind == "imu_tokenizer":
        loads.append(pipeline_models)
    for load in loads:
        for model, want in zip(load(old), load(path), strict=True):
            got_arrays, want_arrays = model_arrays(model), model_arrays(want)
            assert list(got_arrays) == list(want_arrays)
            for k, v in want_arrays.items():
                assert got_arrays[k].tobytes() == v.tobytes(), k
