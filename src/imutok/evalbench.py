"""Metrics (MPJPE, jitter), the continuous-regression baseline, and the
noise-robustness benchmark comparing it against the tokenized pipeline on
byte-identical corrupted inputs.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import gradnet as gn
from .checkpoint import arrays_digest
from .errors import CheckpointMismatch, EmptyCorpus, InvalidArgument, LengthMismatch, TooShort
from .geom import norm3
from .imusim import (SENSOR_COUNT, InertiaSequence, NoiseConfig, NormStats, apply_corruption,
                     apply_corruption_batch, apply_drift, apply_drift_batch, fit_norm_stats,
                     normalize_acceleration, synthesize_imu)
from .models import BaselinePoser, model_arrays
from .motion import (MotionSequence, build_motion_representation, check_fps, check_seed,
                     generate_synthetic_motion, track_from_motion)
from .skeleton import forward_kinematics_sequence
from .stream import InferencePipeline, decode_tokens, tokenize_sequence
from .trainer import TrainConfig, _rng, fit, load_trained, paired_windows, time_last

# benchmark corruption defaults: a severely malfunctioning sensor. Strong
# orientation drift feeds a continuous regressor in-distribution values it
# tracks into wrong poses, and heavy white accelerometer/gyro noise passes
# through it as output jitter; the quantizer absorbs both until a token
# boundary flips.
BENCH_NOISE = dict(
    drift_sigma_ori=0.09, drift_sigma_acc=0.3, drift_sigma_gyr=0.03,
    gaussian_sigma_ori=0.3, gaussian_sigma_acc=24.0, gaussian_sigma_gyr=7.2,
)

COMBOS_PER_LEVEL = 8  # sampled sensor combinations for the 2- and 3-sensor levels


@dataclass
class MetricReport:
    """Rows of (method, level, pooled metrics); level 0 is the clean pass."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def row(self, method: str, level: int) -> dict:
        for r in self.rows:
            if r["method"] == method and r["level"] == level:
                return r
        raise KeyError(f"no row for method={method} level={level}")


def joint_positions(seq: MotionSequence) -> np.ndarray:
    """World joint positions (T, 22, 3) via FK with the root state applied."""
    track = track_from_motion(seq, fallback=True)
    return forward_kinematics_sequence(track.root_pos, track.root_rot, track.local_rots)


def mpjpe(pred: MotionSequence, gt: MotionSequence) -> float:
    """Mean per-joint position error in centimeters."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"prediction has {len(pred)} frames, ground truth {len(gt)}")
    d = norm3(joint_positions(pred) - joint_positions(gt))
    return float(d.mean() * 100.0)


def jitter(positions: np.ndarray, fps: float) -> float:
    """Mean norm of the third time-derivative of joint positions, in
    10^2 m/s^3 units. Third central differences inside, one-sided stencils
    at the two frames on each boundary."""
    check_fps(fps)
    x = np.asarray(positions, dtype=np.float64)
    T = x.shape[0]
    if T < 4:
        raise TooShort(f"jitter needs at least 4 frames, got {T}")
    h = 1.0 / fps
    d3 = np.empty_like(x)
    d3[2:-2] = (x[4:] - 2.0 * x[3:-1] + 2.0 * x[1:-3] - x[:-4]) / (2.0 * h ** 3)
    d3[:2] = (x[3] - 3.0 * x[2] + 3.0 * x[1] - x[0]) / h ** 3
    d3[-2:] = (x[-1] - 3.0 * x[-2] + 3.0 * x[-3] - x[-4]) / h ** 3
    return float(norm3(d3).mean() * 1e-2)


# ---------------------------------------------------------------------------
# data synthesis helpers (desk-scale stand-in corpora)

def synthesize_pairs(seeds, duration_s: float = 8.0, fps: float = 60.0):
    """Deterministic (MotionSequence, raw InertiaSequence) pairs, styles
    cycling through the four generators."""
    from .motion import STYLES
    pairs = []
    for n, seed in enumerate(seeds):
        style = STYLES[n % len(STYLES)]
        track = generate_synthetic_motion(seed, duration_s, fps, style)
        motion = build_motion_representation(track)
        imu = synthesize_imu(track)
        pairs.append((motion, imu))
    return pairs


def augment_and_normalize(pairs, seed: int = 0):
    """Training-side preprocessing: per-sequence random-walk drift at the
    default ``NoiseConfig`` on the raw IMU signals, then acceleration
    normalization with stats fitted on the augmented set. Returns
    (normalized pairs, stats)."""
    drifted = [
        (m, apply_drift(i, NoiseConfig(seed=seed + 1000 * n)))
        for n, (m, i) in enumerate(pairs)
    ]
    stats = fit_norm_stats([i for _, i in drifted])
    normed = [(m, normalize_acceleration(i, stats)) for m, i in drifted]
    return normed, stats


# ---------------------------------------------------------------------------
# continuous baseline

def train_baseline_poser(paired, cfg: TrainConfig, stats: NormStats, ckpt_path=None):
    """Train the matched-capacity continuous poser with reconstruction loss
    only, on the same normalized pairs the IMU tokenizer sees."""
    windows = paired_windows(paired, cfg.window)
    model = BaselinePoser(cfg, rng=_rng(cfg.seed, 20))

    def loss_fn(batches, step):
        bm, bi = batches
        loss = gn.mse(model(gn.Tensor(time_last(bi))), time_last(bm))
        return loss, {"loss": float(loss)}, None

    report = fit((model,), cfg, windows, loss_fn, 20, kind="baseline_poser", stats=stats,
                 ckpt_path=ckpt_path)
    return model, report


def _baseline_predict(model, stats: NormStats, imu: InertiaSequence) -> MotionSequence:
    x = stats.normalize(imu.frames).astype(np.float32)
    out = model.forward_array(np.ascontiguousarray(x.T)[None])[0].T
    return MotionSequence(frames=np.ascontiguousarray(out), fps=imu.fps)


def _tokenized_predict(pipe: InferencePipeline, imu: InertiaSequence) -> MotionSequence:
    tok = tokenize_sequence(imu, pipe, chunk_len=None)
    return decode_tokens(tok, pipe)


def _case_seed(base_seed: int, level: int, combo_idx: int, seq_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(level, combo_idx, seq_idx))
    return int(ss.generate_state(1)[0])


def _sensor_combos(level: int, seed: int) -> list:
    if level == 1:
        return [(i,) for i in range(6)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99, level)))
    combos = []
    for _ in range(COMBOS_PER_LEVEL):
        combos.append(tuple(sorted(rng.choice(6, size=level, replace=False).tolist())))
    return combos


def _bench_noise(sensors, seed: int, noise: dict | None) -> NoiseConfig:
    levels = dict(BENCH_NOISE if noise is None else noise)
    return NoiseConfig(corrupted_sensors=tuple(sensors), seed=seed, **levels)


def corrupt_sensors(imu: InertiaSequence, sensors, seed: int,
                    noise: dict | None = None) -> InertiaSequence:
    """Drift plus per-frame Gaussian corruption restricted to ``sensors``."""
    cfg = _bench_noise(sensors, seed, noise)
    return apply_corruption(apply_drift(imu, cfg, sensors=sensors), cfg)


def _corrupt_combos(imu: InertiaSequence, combos, seeds, noise: dict | None) -> np.ndarray:
    """(combos, T, 72): ``corrupt_sensors(imu, combos[c], seeds[c], noise)``
    for every c, in one drift pass and one corruption pass."""
    cfgs = [_bench_noise(combo, s, noise) for combo, s in zip(combos, seeds)]
    frames = np.broadcast_to(imu.frames, (len(cfgs), *imu.frames.shape))
    drifted = apply_drift_batch(frames, cfgs, [cfg.corrupted_sensors for cfg in cfgs])
    return apply_corruption_batch(drifted, cfgs)


def _score_case(predictor, case: InertiaSequence, p_gt: np.ndarray, fps: float) -> tuple:
    """(error sum, distance count, jitter) of one method on one case. The
    ground truth (no predictor) scores its own pose, which gives its jitter."""
    p = p_gt
    if predictor:
        pred = predictor(case)
        p = joint_positions(MotionSequence(pred.frames[:len(p_gt)], fps))
    d = norm3(p - p_gt[:len(p)])
    return float(d.sum()), d.size, jitter(p, fps)


def run_noise_benchmark(imu_ckpt, motion_ckpt, baseline_ckpt, pairs,
                        levels=(1, 2, 3), seed: int = 0,
                        noise: dict | None = None) -> MetricReport:
    """Evaluate the tokenized pipeline and the continuous baseline on shared
    corrupted inputs; single-sensor level iterates all six sensors, higher
    levels sample seeded sensor combinations. Level 0 rows hold the clean
    pass of each method. Each checkpoint is a ``Checkpoint`` or a path;
    ``levels`` must be distinct corrupted-sensor counts in 1..6.

    The cases of a pair are scored on a thread pool of at most
    ``gn.cpu_lanes()`` workers (the usable CPUs // the BLAS thread count),
    so the pool and BLAS's own threads do not share a core; every row is
    bitwise the serial loop's."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyCorpus("the noise benchmark needs at least one held-out pair")
    if len(set(levels)) != len(levels) or not set(levels) <= set(range(1, SENSOR_COUNT + 1)):
        raise InvalidArgument(f"levels must be distinct values in 1..{SENSOR_COUNT}, "
                              f"got {list(levels)}")
    check_seed(seed)

    pipe = InferencePipeline.from_checkpoint(imu_ckpt)
    (motion_model,), _, _ = load_trained(motion_ckpt, "motion_vqvae")
    if arrays_digest(model_arrays(pipe.motion_model)) != arrays_digest(model_arrays(motion_model)):
        raise CheckpointMismatch("stage-2 checkpoint embeds a different motion model")
    (base_model,), base_cfg, base_stats = load_trained(baseline_ckpt, "baseline_poser")
    if (base_cfg.d_z, base_cfg.hidden) != (pipe.cfg.d_z, pipe.cfg.hidden):
        raise CheckpointMismatch("baseline capacity differs from the tokenizer encoder")

    report = MetricReport(meta={
        "seed": seed, "levels": list(levels), "sequences": len(pairs),
        "noise": dict(BENCH_NOISE if noise is None else noise),
        "mesh_error": "unavailable (no body mesh in scope)",
    })
    # method -> predictor; ground truth (level 0 only) scores the reference
    # pose itself
    predict = {
        "tokenized": lambda imu: _tokenized_predict(pipe, imu),
        "baseline": lambda imu: _baseline_predict(base_model, base_stats, imu),
        "ground_truth": None,
    }
    # level 0 is the clean pass: one empty sensor combination
    plan = [(level, _sensor_combos(level, seed) if level else [()],
             [m for m in predict if level == 0 or predict[m]]) for level in (0, *levels)]

    # ground-truth FK once per pair; FK is per frame, so a prefix of it is
    # the FK of the truncated sequence
    gt_pos = [joint_positions(gt) for gt, _ in pairs]

    # Each pair's combinations are corrupted in one call in this thread, so
    # every random draw is the serial loop's. The (combination, method) jobs
    # then run on the pool, each with the GEMM shapes it has alone, and their
    # results are stored by index; the pooled sums add the cases up
    # combination-major, so every row is bitwise the case-by-case sum.
    # The jobs share only what inference reads: the loaded parameters are
    # frozen (no op records a graph or writes a gradient), the Codebook and
    # the InferencePipeline are not written after loading, and
    # gradnet._conv_taps's lru_cache holds immutable tuples. Every array a
    # job writes, it allocates.
    workers = min(gn.cpu_lanes(), max(len(combos) * len(methods) for _, combos, methods in plan))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for level, combos, methods in plan:
            scores = {m: [[None] * len(pairs) for _ in combos] for m in methods}
            for si, ((gt, imu), p_gt) in enumerate(zip(pairs, gt_pos)):
                inputs = [imu]
                if level:
                    seeds = [_case_seed(seed, level, ci, si) for ci in range(len(combos))]
                    inputs = [InertiaSequence(frames=f, fps=imu.fps)
                              for f in _corrupt_combos(imu, combos, seeds, noise)]
                jobs = [(ci, m) for ci in range(len(inputs)) for m in methods]
                results = pool.map(_score_case, [predict[m] for _, m in jobs],
                                   [inputs[ci] for ci, _ in jobs], repeat(p_gt), repeat(gt.fps))
                for (ci, m), result in zip(jobs, results):
                    scores[m][ci][si] = result
            for m in methods:
                err_sum, err_n, jit_sum = 0.0, 0, 0.0
                for per_pair in scores[m]:
                    for err, n, jit in per_pair:
                        err_sum += err
                        err_n += n
                        jit_sum += jit
                cases = len(combos) * len(pairs)
                report.rows.append({
                    "method": m, "level": level,
                    "mpjpe_cm": 100.0 * err_sum / max(err_n, 1),
                    "jitter": jit_sum / max(cases, 1),
                    "cases": cases,
                })
    return report


# ---------------------------------------------------------------------------
# reporting

def render_report(report: MetricReport) -> str:
    """Aligned text table; the mesh-error column is reserved but unavailable."""
    header = f"{'method':<14}{'level':<10}{'MPJPE(cm)':<12}{'MeshErr':<10}{'Jitter(1e2 m/s^3)':<20}{'cases':<6}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        level = "clean" if r["level"] == 0 else f"noised={r['level']}"
        lines.append(f"{r['method']:<14}{level:<10}{r['mpjpe_cm']:<12.4f}{'n/a':<10}"
                     f"{r['jitter']:<20.6f}{r['cases']:<6d}")
    return "\n".join(lines)


def write_report_file(path, report: MetricReport) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": report.meta, "rows": report.rows}, fh, indent=1)


def read_report_file(path) -> MetricReport:
    with open(path) as fh:
        blob = json.load(fh)
    return MetricReport(rows=blob["rows"], meta=blob["meta"])
