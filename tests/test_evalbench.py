import sys
import threading

import numpy as np
import pytest

from imutok import evalbench
from imutok import gradnet as gn
from imutok.checkpoint import load_checkpoint, save_checkpoint
from imutok.errors import (CheckpointMismatch, ConfigInvalid, EmptyCorpus, EmptyDataset,
                           InvalidArgument, LengthMismatch, TooShort)
from imutok.evalbench import (BENCH_NOISE, MetricReport, augment_and_normalize,
                              corrupt_sensors, jitter, joint_positions, mpjpe,
                              read_report_file, render_report,
                              run_noise_benchmark, synthesize_pairs, train_baseline_poser,
                              write_report_file)
from imutok.gradnet import Conv1d
from imutok.imusim import InertiaSequence
from imutok.models import LEAKY_SLOPE, SMOOTH_KERNEL, BaselinePoser, _sigmoid_contacts
from imutok.motion import MOTION_WIDTH, MotionSequence
from imutok.trainer import TrainConfig, load_trained, train_imu_tokenizer, train_motion_vqvae

from tests.test_trainer import shorten, without_array


@pytest.fixture(scope="module")
def gt_sequence():
    return synthesize_pairs([5], duration_s=2.0, fps=60.0)[0][0]


class TestMpjpe:
    def test_identical_sequences_give_zero(self, gt_sequence):
        assert mpjpe(gt_sequence, gt_sequence) == 0.0

    def test_uniform_centimeter_offset(self, gt_sequence):
        moved = MotionSequence(gt_sequence.frames.copy(), gt_sequence.fps)
        moved.frames[:, 0] += 0.01  # 1 cm in x on the root channel
        assert mpjpe(moved, gt_sequence) == pytest.approx(1.0, rel=1e-9)

    def test_random_offsets_match_direct_average_oracle(self, gt_sequence):
        rng = np.random.default_rng(0)
        offsets = rng.normal(scale=0.02, size=(len(gt_sequence), 3))
        moved = MotionSequence(gt_sequence.frames.copy(), gt_sequence.fps)
        moved.frames[:, 0:3] += offsets
        # a root shift moves every joint equally, so the error is the
        # frame-wise offset norm averaged over frames (and joints)
        want = np.linalg.norm(offsets, axis=1).mean() * 100.0
        assert mpjpe(moved, gt_sequence) == pytest.approx(want, rel=1e-9)

    def test_length_mismatch(self, gt_sequence):
        short = MotionSequence(gt_sequence.frames[:10], gt_sequence.fps)
        with pytest.raises(LengthMismatch):
            mpjpe(short, gt_sequence)


class TestJitter:
    def test_constant_velocity_gives_zero(self):
        t = np.arange(100) / 60.0
        pos = np.zeros((100, 3, 3))
        pos[:, :, 0] = t[:, None] * 1.7
        assert jitter(pos, 60.0) == pytest.approx(0.0, abs=1e-9)

    def test_cubic_trajectory_matches_analytic(self):
        fps = 60.0
        t = np.arange(200) / fps
        pos = np.zeros((200, 2, 3))
        pos[:, :, :] = (t ** 3 / 6.0)[:, None, None]
        # third derivative is 1 m/s^3 per axis -> norm sqrt(3), 0.01*sqrt(3)
        # in hundred-m/s^3 units
        want = np.sqrt(3.0) * 1e-2
        assert jitter(pos, fps) == pytest.approx(want, rel=1e-2)

    def test_cubic_single_axis(self):
        fps = 60.0
        t = np.arange(120) / fps
        pos = np.zeros((120, 1, 3))
        pos[:, 0, 0] = t ** 3 / 6.0
        assert jitter(pos, fps) == pytest.approx(0.01, rel=1e-2)

    def test_noise_strictly_increases_jitter(self):
        rng = np.random.default_rng(1)
        t = np.arange(300) / 60.0
        pos = np.zeros((300, 4, 3))
        pos[:, :, 1] = np.sin(t)[:, None]
        base = jitter(pos, 60.0)
        for trial in range(10):
            noisy = pos + rng.normal(scale=1e-3, size=pos.shape)
            assert jitter(noisy, 60.0) > base

    def test_too_short(self):
        with pytest.raises(TooShort):
            jitter(np.zeros((3, 1, 3)), 60.0)

    @pytest.mark.parametrize("fps", [0.0, -60.0, float("nan"), float("inf")])
    def test_bad_fps_raises(self, fps):
        with pytest.raises(InvalidArgument, match="fps"):
            jitter(np.zeros((10, 1, 3)), fps)


class TestCorruptSensors:
    def test_untouched_sensors_bitwise_clean(self):
        imu = synthesize_pairs([3], duration_s=2.0, fps=60.0)[0][1]
        out = corrupt_sensors(imu, (1,), seed=4)
        cols = np.zeros(72, dtype=bool)
        cols[6:12] = True
        cols[36 + 3:36 + 6] = True
        cols[54 + 3:54 + 6] = True
        assert np.array_equal(out.frames[:, ~cols], imu.frames[:, ~cols])
        assert not np.array_equal(out.frames[:, cols], imu.frames[:, cols])

    def test_deterministic(self):
        imu = synthesize_pairs([3], duration_s=1.0, fps=60.0)[0][1]
        a = corrupt_sensors(imu, (0, 2), seed=9)
        b = corrupt_sensors(imu, (0, 2), seed=9)
        assert np.array_equal(a.frames, b.frames)

    @pytest.mark.parametrize("noise", [None, dict(BENCH_NOISE, drift_sigma_ori=0.0,
                                                  gaussian_sigma_acc=0.0)])
    def test_combos_in_one_call_bitwise_equal_per_case(self, noise):
        imu = synthesize_pairs([4], duration_s=1.0, fps=60.0)[0][1]
        combos = [(3,), (0, 5), (1, 2, 4), (2,), (5, 0, 1), (4, 3)]
        seeds = [11, 2**31 + 5, 0, 7, 11, 123456789]
        got = evalbench._corrupt_combos(imu, combos, seeds, noise)
        assert got.shape == (len(combos), *imu.frames.shape)
        for combo, seed, frames in zip(combos, seeds, got):
            assert frames.tobytes() == corrupt_sensors(imu, combo, seed, noise).frames.tobytes()


class NineLayerPoser:
    """The baseline as a hand-written stack of nine stride-1 convs, the
    reference the encoder/decoder assembly must reproduce bit for bit."""

    LAYERS = ("e1", "e2", "e3", "eproj", "dproj", "d1", "d2", "d3", "head")
    # the checkpoint names of these layers before and after the rebuild
    OLD_NAMES = ("enc.e1", "enc.e2", "enc.e3", "enc.eproj", "dec.dproj", "dec.d1", "dec.d2",
                 "dec.d3", "dec.head")
    NEW_NAMES = ("enc.c1", "enc.c2", "enc.c3", "enc.proj", "dec.proj", "dec.c1", "dec.c2",
                 "dec.c3", "dec.head")

    def __init__(self, imu_width, d_z, hidden, *, rng, dtype):
        self.e1 = Conv1d(imu_width, hidden, 4, stride=1, padding=2, rng=rng, dtype=dtype)
        self.e2 = Conv1d(hidden, hidden, 4, stride=1, padding=1, rng=rng, dtype=dtype)
        self.e3 = Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype)
        self.eproj = Conv1d(hidden, d_z, 1, rng=rng, dtype=dtype)
        self.dproj = Conv1d(d_z, hidden, 1, rng=rng, dtype=dtype)
        self.d1 = Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype)
        self.d2 = Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype)
        self.d3 = Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype)
        self.head = Conv1d(hidden, MOTION_WIDTH, 5, stride=1, padding=2, rng=rng,
                           dtype=dtype)

    def __call__(self, x):
        h = x
        for name in self.LAYERS[:3]:
            h = gn.leaky_relu(getattr(self, name)(h), LEAKY_SLOPE)
        h = gn.leaky_relu(self.dproj(self.eproj(h)), LEAKY_SLOPE)
        for name in ("d1", "d2", "d3"):
            h = gn.leaky_relu(getattr(self, name)(h), LEAKY_SLOPE)
        return _sigmoid_contacts(gn.depthwise_smooth(self.head(h), SMOOTH_KERNEL))

    def params(self):
        """Parameters keyed by their names in the encoder/decoder assembly."""
        out = {}
        for name, new in zip(self.LAYERS, self.NEW_NAMES):
            for key, p in getattr(self, name).params(name).items():
                out[new + key[len(name):]] = p
        return out


class TestBaselinePoser:
    @pytest.mark.parametrize("T", [31, 32])
    def test_matches_nine_layer_reference_bitwise(self, T):
        ref = NineLayerPoser(72, 16, 24, rng=np.random.default_rng(5), dtype=np.float64)
        new = BaselinePoser(TrainConfig(d_z=16, hidden=24), rng=np.random.default_rng(5),
                            dtype=np.float64)
        assert list(new.params()) == list(ref.params())
        rng = np.random.default_rng(T)
        x = rng.normal(size=(3, 72, T))
        probe = rng.normal(size=(3, MOTION_WIDTH, T))
        grads = []
        for model in (ref, new):
            xt = gn.Tensor(x.copy(), requires_grad=True)
            out = model(xt)
            gn.tsum(gn.mul(out, probe)).backward()
            grads.append((out.value, xt.grad, {k: p.grad for k, p in model.params().items()}))
        (out_r, gx_r, gp_r), (out_n, gx_n, gp_n) = grads
        assert out_n.shape == (3, MOTION_WIDTH, T)
        assert np.array_equal(out_n, out_r)
        assert np.array_equal(gx_n, gx_r)
        for k in gp_r:
            assert np.array_equal(gp_n[k], gp_r[k]), k

    def test_checkpoint_with_nine_layer_names_does_not_load(self, baseline_run, tmp_path):
        path, _ = baseline_run
        ckpt = load_checkpoint(path)
        renamed = {}
        for key, arr in ckpt.arrays.items():
            for new, old in zip(NineLayerPoser.NEW_NAMES, NineLayerPoser.OLD_NAMES):
                key = key.replace(f".{new}.", f".{old}.")
            renamed[key] = arr
        assert "baseline.enc.e1.w" in renamed and "baseline.dec.dproj.b" in renamed
        old_path = tmp_path / "old.mjc"
        save_checkpoint(old_path, ckpt.meta, renamed)
        with pytest.raises(ConfigInvalid):
            load_trained(old_path, "baseline_poser")

    @pytest.mark.parametrize("key", ["stats.mean", "stats.std"])
    def test_checkpoint_without_stats_raises(self, baseline_run, tmp_path, key):
        path, _ = baseline_run
        ckpt = without_array(path, key, tmp_path / "cut.mjc")
        with pytest.raises(ConfigInvalid, match=key):
            load_trained(ckpt, "baseline_poser")

    def test_checkpoint_round_trip(self, baseline_run):
        path, (model, _) = baseline_run
        (loaded,), _, _ = load_trained(load_checkpoint(path), "baseline_poser")
        assert list(loaded.params()) == list(model.params())
        for (k, p), q in zip(model.params().items(), loaded.params().values()):
            assert np.array_equal(p.value, q.value), k
            assert not q.requires_grad, k

    def test_record_keys(self, baseline_run):
        _, (_, report) = baseline_run
        assert len(report.records) == 5
        for step, rec in enumerate(report.records):
            assert set(rec) == {"step", "loss", "lr", "wall_clock"}
            assert rec["step"] == step

    def test_empty_corpus(self, small_pairs):
        _, stats = small_pairs
        with pytest.raises(EmptyDataset):
            train_baseline_poser([], SMALL_CFG, stats)

    @pytest.mark.parametrize("motion,imu", [((0,), (1,)), ((1,), ()), ((), (0,))])
    def test_misaligned_pairs_raise(self, small_pairs, motion, imu):
        pairs, stats = small_pairs
        with pytest.raises(LengthMismatch):
            train_baseline_poser(shorten(pairs, 32, motion, imu), SMALL_CFG, stats)


SMALL_CFG = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, total_steps=5, window=32,
                        seed=6)


@pytest.fixture(scope="module")
def small_pairs():
    return augment_and_normalize(synthesize_pairs(range(3), duration_s=2.0, fps=60.0), seed=2)


@pytest.fixture(scope="module")
def baseline_run(small_pairs, tmp_path_factory):
    pairs, stats = small_pairs
    path = tmp_path_factory.mktemp("baseline") / "base.mjc"
    return path, train_baseline_poser(pairs, SMALL_CFG, stats, ckpt_path=path)


@pytest.fixture(scope="module")
def trained_trio(tmp_path_factory):
    """Small but real stage-1/stage-2/baseline checkpoints for benchmark tests."""
    cfg = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, total_steps=40,
                      window=32, seed=6)
    raw = synthesize_pairs(range(4), duration_s=2.0, fps=60.0)
    pairs, stats = augment_and_normalize(raw, seed=2)
    d = tmp_path_factory.mktemp("bench_ckpt")
    mp, ip, bp = d / "motion.mjc", d / "imu.mjc", d / "base.mjc"
    train_motion_vqvae([m for m, _ in pairs], cfg, ckpt_path=mp)
    train_imu_tokenizer(pairs, mp, cfg, stats, ckpt_path=ip)
    train_baseline_poser(pairs, cfg, stats, ckpt_path=bp)
    return mp, ip, bp


@pytest.fixture(scope="module")
def bench_pairs():
    return synthesize_pairs([100, 101], duration_s=2.0, fps=60.0)


def _record_pool_sizes(monkeypatch) -> list:
    """Patch the benchmark's pool class so each pool it makes appends its size."""
    sizes = []

    class Recorded(evalbench.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evalbench, "ThreadPoolExecutor", Recorded)
    return sizes


class TestBenchmark:
    def test_zero_noise_equals_clean_metrics(self, trained_trio, bench_pairs):
        mp, ip, bp = trained_trio
        silent = {k: 0.0 for k in BENCH_NOISE}
        report = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=0,
                                     noise=silent)
        for method in ("tokenized", "baseline"):
            clean = report.row(method, 0)
            noisy = report.row(method, 1)
            assert noisy["mpjpe_cm"] == pytest.approx(clean["mpjpe_cm"], abs=1e-12)
            assert noisy["jitter"] == pytest.approx(clean["jitter"], abs=1e-12)

    def test_single_sensor_level_decomposes_into_sensor_means(self, trained_trio,
                                                              bench_pairs):
        mp, ip, bp = trained_trio
        report = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=3)
        per_sensor = []
        for s in range(6):
            from imutok.evalbench import _case_seed, _tokenized_predict
            from imutok.stream import InferencePipeline
            pipe = InferencePipeline.from_checkpoint(load_checkpoint(ip))
            errs = []
            for si, (gt, imu) in enumerate(bench_pairs):
                corrupted = corrupt_sensors(imu, (s,), _case_seed(3, 1, s, si))
                pred = _tokenized_predict(pipe, corrupted)
                n = min(len(gt), len(pred))
                d = np.linalg.norm(
                    joint_positions(MotionSequence(pred.frames[:n], gt.fps))
                    - joint_positions(MotionSequence(gt.frames[:n], gt.fps)), axis=2)
                errs.append(d)
            per_sensor.append(np.concatenate([e.ravel() for e in errs]).mean() * 100)
        want = float(np.mean(per_sensor))
        assert report.row("tokenized", 1)["mpjpe_cm"] == pytest.approx(want, rel=1e-9)

    def test_rows_bitwise_equal_per_case_reference_loop(self, trained_trio, bench_pairs):
        # the benchmark as first written: one corrupt_sensors call per case,
        # combinations outermost, pooled sums added case by case
        mp, ip, bp = trained_trio
        seed, levels = 8, (1, 2, 3)
        from imutok.evalbench import (_baseline_predict, _case_seed, _sensor_combos,
                                      _tokenized_predict)
        from imutok.stream import InferencePipeline
        pipe = InferencePipeline.from_checkpoint(load_checkpoint(ip))
        (base,), _, base_stats = load_trained(bp, "baseline_poser")
        predict = {"tokenized": lambda imu: _tokenized_predict(pipe, imu),
                   "baseline": lambda imu: _baseline_predict(base, base_stats, imu)}
        gt_pos = [joint_positions(gt) for gt, _ in bench_pairs]
        want = []
        for level in levels:
            sums = {m: [0.0, 0, 0.0] for m in predict}
            combos = _sensor_combos(level, seed)
            for ci, combo in enumerate(combos):
                for si, ((gt, imu), p_gt) in enumerate(zip(bench_pairs, gt_pos)):
                    imu = corrupt_sensors(imu, combo, _case_seed(seed, level, ci, si))
                    for m in predict:
                        pred = predict[m](imu)
                        p = joint_positions(MotionSequence(pred.frames[:len(p_gt)], gt.fps))
                        d = np.linalg.norm(p - p_gt[:len(p)], axis=2)
                        sums[m][0] += float(d.sum())
                        sums[m][1] += d.size
                        sums[m][2] += jitter(p, gt.fps)
            cases = len(combos) * len(bench_pairs)
            want += [{"method": m, "level": level, "mpjpe_cm": 100.0 * e / n,
                      "jitter": j / cases, "cases": cases} for m, (e, n, j) in sums.items()]
        report = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=levels, seed=seed)
        assert [r for r in report.rows if r["level"] > 0] == want

    def test_rows_do_not_depend_on_worker_count(self, trained_trio, bench_pairs, monkeypatch):
        mp, ip, bp = trained_trio
        sizes = _record_pool_sizes(monkeypatch)
        rows = []
        # three workers, more than most test machines have cores, switching
        # often: a job that wrote shared state would show in the rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 3):
                monkeypatch.setattr(gn, "cpu_lanes", lambda: cpus)
                rows.append(run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1, 2, 3),
                                                seed=4).rows)
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [1, 3]
        assert rows[0] == rows[1]

    def test_pool_size_is_capped_by_the_jobs(self, trained_trio, bench_pairs, monkeypatch):
        # the clean pass alone has three jobs a pair: two methods and the ground truth
        mp, ip, bp = trained_trio
        sizes = _record_pool_sizes(monkeypatch)
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 64)
        run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(), seed=0)
        run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=0)
        assert sizes == [3, 12]

    def test_pool_leaves_each_blas_thread_a_cpu(self, trained_trio, bench_pairs, monkeypatch):
        # 2 CPUs with BLAS at 2 threads, its default there: one worker
        mp, ip, bp = trained_trio
        sizes = _record_pool_sizes(monkeypatch)
        monkeypatch.setattr(gn, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(gn, "_blas_threads", lambda: 2)
        run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(), seed=0)
        assert sizes == [1]

    def test_pool_errors_propagate_and_no_worker_outlives_the_call(self, trained_trio,
                                                                   bench_pairs, monkeypatch):
        mp, ip, bp = trained_trio
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 3)
        before = threading.active_count()
        run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=0)
        assert threading.active_count() == before
        gt, imu = bench_pairs[1]
        frames = imu.frames.copy()
        frames[7, 40] = np.nan
        bad = [bench_pairs[0], (gt, InertiaSequence(frames=frames, fps=imu.fps))]
        with pytest.raises(InvalidArgument, match="IMU frames contain NaN or infinite values"):
            run_noise_benchmark(ip, mp, bp, bad, levels=(1,), seed=0)
        assert threading.active_count() == before

    def test_ground_truth_jitter_row_is_exact(self, trained_trio, bench_pairs):
        mp, ip, bp = trained_trio
        report = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(), seed=0)
        want = sum(jitter(joint_positions(gt), gt.fps) for gt, _ in bench_pairs)
        assert report.row("ground_truth", 0)["jitter"] == want / len(bench_pairs)

    def test_identical_seeds_identical_reports(self, trained_trio, bench_pairs):
        mp, ip, bp = trained_trio
        a = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=5)
        b = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=5)
        assert a.rows == b.rows

    def test_sequence_order_does_not_change_pooled_metrics(self, trained_trio,
                                                           bench_pairs):
        mp, ip, bp = trained_trio
        fwd = run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(), seed=0)
        rev = run_noise_benchmark(ip, mp, bp, list(reversed(bench_pairs)), levels=(),
                                  seed=0)
        for method in ("tokenized", "baseline"):
            assert fwd.row(method, 0)["mpjpe_cm"] == pytest.approx(
                rev.row(method, 0)["mpjpe_cm"], rel=1e-12)
            assert fwd.row(method, 0)["jitter"] == pytest.approx(
                rev.row(method, 0)["jitter"], rel=1e-12)

    def test_mismatched_motion_checkpoint_rejected(self, trained_trio, bench_pairs,
                                                   tmp_path):
        mp, ip, bp = trained_trio
        cfg = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, total_steps=3,
                          window=32, seed=99)
        raw = synthesize_pairs(range(2), duration_s=2.0, fps=60.0)
        pairs, _ = augment_and_normalize(raw, seed=2)
        other = tmp_path / "other.mjc"
        train_motion_vqvae([m for m, _ in pairs], cfg, ckpt_path=other)
        with pytest.raises(CheckpointMismatch):
            run_noise_benchmark(ip, other, bp, bench_pairs, levels=(1,), seed=0)

    def test_stage_two_file_as_motion_checkpoint_rejected(self, trained_trio, bench_pairs):
        # it embeds the very motion arrays it is compared against
        _, ip, bp = trained_trio
        with pytest.raises(CheckpointMismatch, match="expected a motion_vqvae checkpoint"):
            run_noise_benchmark(ip, ip, bp, bench_pairs, levels=(1,), seed=0)

    @pytest.mark.parametrize("levels", [(7,), (0,), (-1,), (1, 1), (2, 1, 2)])
    def test_bad_levels_rejected(self, trained_trio, bench_pairs, levels):
        mp, ip, bp = trained_trio
        with pytest.raises(InvalidArgument, match="levels"):
            run_noise_benchmark(ip, mp, bp, bench_pairs, levels=levels, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_bad_seed_rejected(self, trained_trio, bench_pairs, seed):
        mp, ip, bp = trained_trio
        with pytest.raises(InvalidArgument, match="seed"):
            run_noise_benchmark(ip, mp, bp, bench_pairs, levels=(1,), seed=seed)

    def test_no_pairs_rejected(self, trained_trio):
        mp, ip, bp = trained_trio
        with pytest.raises(EmptyCorpus):
            run_noise_benchmark(ip, mp, bp, [], levels=(1,), seed=0)


class TestReportRendering:
    def _report(self):
        return MetricReport(
            rows=[{"method": "tokenized", "level": 0, "mpjpe_cm": 1.2345,
                   "jitter": 0.5, "cases": 2},
                  {"method": "tokenized", "level": 1, "mpjpe_cm": 2.0,
                   "jitter": 0.75, "cases": 12},
                  {"method": "baseline", "level": 1, "mpjpe_cm": 3.0,
                   "jitter": 111.25, "cases": 12}],
            meta={"seed": 0})

    def test_empty_report_renders_header_only(self):
        text = render_report(MetricReport())
        assert len(text.splitlines()) == 2
        assert "MPJPE" in text

    def test_row_count(self):
        text = render_report(self._report())
        assert len(text.splitlines()) == 2 + 3
        assert "n/a" in text  # mesh error column reserved but unavailable

    def test_noised_levels_keep_columns_apart(self):
        # "noised=N" must not run into the MPJPE value beside it
        rows = [{"method": "tokenized", "level": level, "mpjpe_cm": 1105.5156,
                 "jitter": 0.5, "cases": 12} for level in (1, 2, 3)]
        lines = render_report(MetricReport(rows=rows)).splitlines()[2:]
        for level, line in zip((1, 2, 3), lines):
            assert line.split() == ["tokenized", f"noised={level}", "1105.5156", "n/a",
                                    "0.500000", "12"]

    def test_file_round_trip_is_exact(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.mjr"
        write_report_file(path, report)
        back = read_report_file(path)
        assert back.rows == report.rows
        assert back.meta == report.meta
