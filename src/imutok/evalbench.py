"""Metrics (MPJPE, jitter), the continuous-regression baseline, and the
noise-robustness benchmark comparing it against the tokenized pipeline on
byte-identical corrupted inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gradnet as gn
from .checkpoint import Checkpoint, arrays_digest, load_checkpoint
from .errors import CheckpointMismatch, LengthMismatch, TooShort
from .imusim import (DEFAULT_PLACEMENT, IMU_WIDTH, InertiaSequence, NoiseConfig, NormStats,
                     apply_corruption, apply_drift, fit_norm_stats,
                     normalize_acceleration, synthesize_imu)
from .models import BaselinePoser, load_model_arrays
from .motion import (MotionSequence, build_motion_representation,
                     generate_synthetic_motion, track_from_motion)
from .skeleton import DEFAULT_SKELETON, Skeleton, forward_kinematics_sequence
from .stream import InferencePipeline, _prepare_frames, decode_tokens, tokenize_sequence
from .trainer import TrainConfig, _rng, fit, paired_windows, time_last

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


def joint_positions(seq: MotionSequence, skel: Skeleton = DEFAULT_SKELETON) -> np.ndarray:
    """World joint positions (T, 22, 3) via FK with the root state applied."""
    track = track_from_motion(seq, fallback=True)
    return forward_kinematics_sequence(skel, track.root_pos, track.root_rot, track.local_rots)


def mpjpe(pred: MotionSequence, gt: MotionSequence, skel: Skeleton = DEFAULT_SKELETON) -> float:
    """Mean per-joint position error in centimeters."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"prediction has {len(pred)} frames, ground truth {len(gt)}")
    d = np.linalg.norm(joint_positions(pred, skel) - joint_positions(gt, skel), axis=2)
    return float(d.mean() * 100.0)


def jitter(positions: np.ndarray, fps: float) -> float:
    """Mean norm of the third time-derivative of joint positions, in
    10^2 m/s^3 units. Third central differences inside, one-sided stencils
    at the two frames on each boundary."""
    x = np.asarray(positions, dtype=np.float64)
    T = x.shape[0]
    if T < 4:
        raise TooShort(f"jitter needs at least 4 frames, got {T}")
    h = 1.0 / fps
    d3 = np.empty_like(x)
    d3[2:-2] = (x[4:] - 2.0 * x[3:-1] + 2.0 * x[1:-3] - x[:-4]) / (2.0 * h ** 3)
    d3[:2] = (x[3] - 3.0 * x[2] + 3.0 * x[1] - x[0]) / h ** 3
    d3[-2:] = (x[-1] - 3.0 * x[-2] + 3.0 * x[-3] - x[-4]) / h ** 3
    return float(np.linalg.norm(d3, axis=-1).mean() * 1e-2)


# ---------------------------------------------------------------------------
# data synthesis helpers (desk-scale stand-in corpora)

def synthesize_pairs(seeds, duration_s: float = 8.0, fps: float = 60.0,
                     skel: Skeleton = DEFAULT_SKELETON, placement=DEFAULT_PLACEMENT):
    """Deterministic (MotionSequence, raw InertiaSequence) pairs, styles
    cycling through the four generators."""
    from .motion import STYLES
    pairs = []
    for n, seed in enumerate(seeds):
        style = STYLES[n % len(STYLES)]
        track = generate_synthetic_motion(seed, duration_s, fps, style, skel)
        motion = build_motion_representation(track, skel)
        imu = synthesize_imu(track, skel, placement)
        pairs.append((motion, imu))
    return pairs


def augment_and_normalize(pairs, seed: int = 0, drift: NoiseConfig | None = None):
    """Training-side preprocessing: per-sequence random-walk drift on the raw
    IMU signals, then acceleration normalization with stats fitted on the
    augmented set. Returns (normalized pairs, stats)."""
    if drift is None:
        drift = NoiseConfig()
    drifted = [
        (m, apply_drift(i, replace(drift, seed=seed + 1000 * n)))
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
    model = BaselinePoser(IMU_WIDTH, cfg.d_z, cfg.hidden, rng=_rng(cfg.seed, 20))

    def loss_fn(batches, step):
        bm, bi = batches
        loss = gn.mse(model(gn.Tensor(time_last(bi))), time_last(bm))
        return loss, {"loss": float(loss)}, None

    report = fit(model, cfg, windows, loss_fn, 20, kind="baseline_poser", prefix="baseline.",
                 extra_arrays={"stats.mean": stats.mean, "stats.std": stats.std},
                 ckpt_path=ckpt_path)
    return model, report


def build_baseline_model(ckpt: Checkpoint):
    """(model, cfg, stats) from a baseline checkpoint."""
    if ckpt.kind != "baseline_poser":
        raise CheckpointMismatch(f"expected a baseline_poser checkpoint, got {ckpt.kind!r}")
    cfg = TrainConfig.from_meta(ckpt.meta)
    model = BaselinePoser(IMU_WIDTH, cfg.d_z, cfg.hidden, rng=np.random.default_rng(0))
    load_model_arrays(model, ckpt.arrays, "baseline.")
    stats = NormStats(mean=ckpt.arrays["stats.mean"], std=ckpt.arrays["stats.std"])
    return model, cfg, stats


def _baseline_predict(model, stats: NormStats, imu: InertiaSequence) -> MotionSequence:
    x = _prepare_frames(imu.frames, stats)
    out = model(gn.Tensor(np.ascontiguousarray(x.T)[None])).value[0].T
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


def corrupt_sensors(imu: InertiaSequence, sensors, seed: int,
                    noise: dict | None = None) -> InertiaSequence:
    """Drift plus per-frame Gaussian corruption restricted to ``sensors``."""
    levels = dict(BENCH_NOISE if noise is None else noise)
    cfg = NoiseConfig(corrupted_sensors=tuple(sensors), seed=seed, **levels)
    return apply_corruption(apply_drift(imu, cfg, sensors=sensors), cfg)


def run_noise_benchmark(imu_ckpt, motion_ckpt, baseline_ckpt, pairs,
                        levels=(1, 2, 3), seed: int = 0,
                        noise: dict | None = None) -> MetricReport:
    """Evaluate the tokenized pipeline and the continuous baseline on shared
    corrupted inputs; single-sensor level iterates all six sensors, higher
    levels sample seeded sensor combinations. Level 0 rows hold the clean
    pass of each method."""
    if not isinstance(imu_ckpt, Checkpoint):
        imu_ckpt = load_checkpoint(imu_ckpt)
    if not isinstance(motion_ckpt, Checkpoint):
        motion_ckpt = load_checkpoint(motion_ckpt)
    if not isinstance(baseline_ckpt, Checkpoint):
        baseline_ckpt = load_checkpoint(baseline_ckpt)

    if arrays_digest(imu_ckpt.arrays, "motion.") != arrays_digest(motion_ckpt.arrays, "motion."):
        raise CheckpointMismatch("stage-2 checkpoint embeds a different motion model")
    pipe = InferencePipeline.from_checkpoint(imu_ckpt)
    base_model, base_cfg, base_stats = build_baseline_model(baseline_ckpt)
    if (base_cfg.d_z, base_cfg.hidden) != (pipe.cfg.d_z, pipe.cfg.hidden):
        raise CheckpointMismatch("baseline capacity differs from the tokenizer encoder")

    pairs = list(pairs)
    report = MetricReport(meta={
        "seed": seed, "levels": list(levels), "sequences": len(pairs),
        "noise": dict(BENCH_NOISE if noise is None else noise),
        "mesh_error": "unavailable (no body mesh in scope)",
    })

    def accumulate(method_rows, p_gt, pred, fps):
        n = min(len(p_gt), len(pred))
        p_pred = joint_positions(MotionSequence(pred.frames[:n], fps))
        d = np.linalg.norm(p_pred - p_gt[:n], axis=2)
        method_rows["err_sum"] += float(d.sum())
        method_rows["err_n"] += d.size
        jit = jitter(p_pred, fps)
        method_rows["jit_sum"] += jit
        method_rows["jit_n"] += 1

    def fresh():
        return {"err_sum": 0.0, "err_n": 0, "jit_sum": 0.0, "jit_n": 0}

    def finalize(method, level, acc, cases):
        report.rows.append({
            "method": method, "level": level,
            "mpjpe_cm": 100.0 * acc["err_sum"] / max(acc["err_n"], 1),
            "jitter": acc["jit_sum"] / max(acc["jit_n"], 1),
            "cases": cases,
        })

    # ground-truth FK once per pair; FK is per frame, so a prefix of it is
    # the FK of the truncated sequence
    gt_pos = [joint_positions(gt) for gt, _ in pairs]

    # clean pass (level 0) and ground-truth jitter reference
    acc_tok, acc_base = fresh(), fresh()
    gt_jit = fresh()
    for (gt, imu), p_gt in zip(pairs, gt_pos):
        pred_t = _tokenized_predict(pipe, imu)
        pred_b = _baseline_predict(base_model, base_stats, imu)
        accumulate(acc_tok, p_gt, pred_t, gt.fps)
        accumulate(acc_base, p_gt, pred_b, gt.fps)
        gt_jit["jit_sum"] += jitter(p_gt, gt.fps)
        gt_jit["jit_n"] += 1
    finalize("tokenized", 0, acc_tok, len(pairs))
    finalize("baseline", 0, acc_base, len(pairs))
    report.rows.append({"method": "ground_truth", "level": 0, "mpjpe_cm": 0.0,
                        "jitter": gt_jit["jit_sum"] / max(gt_jit["jit_n"], 1),
                        "cases": len(pairs)})

    for level in levels:
        combos = _sensor_combos(level, seed)
        acc_tok, acc_base = fresh(), fresh()
        cases = 0
        for ci, combo in enumerate(combos):
            for si, ((gt, imu), p_gt) in enumerate(zip(pairs, gt_pos)):
                corrupted = corrupt_sensors(imu, combo, _case_seed(seed, level, ci, si), noise)
                accumulate(acc_tok, p_gt, _tokenized_predict(pipe, corrupted), gt.fps)
                accumulate(acc_base, p_gt, _baseline_predict(base_model, base_stats, corrupted),
                           gt.fps)
                cases += 1
        finalize("tokenized", level, acc_tok, cases)
        finalize("baseline", level, acc_base, cases)
    return report


# ---------------------------------------------------------------------------
# reporting

def render_report(report: MetricReport) -> str:
    """Aligned text table; the mesh-error column is reserved but unavailable."""
    header = f"{'method':<14}{'level':<8}{'MPJPE(cm)':<12}{'MeshErr':<10}{'Jitter(1e2 m/s^3)':<20}{'cases':<6}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        level = "clean" if r["level"] == 0 else f"noised={r['level']}"
        lines.append(f"{r['method']:<14}{level:<8}{r['mpjpe_cm']:<12.4f}{'n/a':<10}"
                     f"{r['jitter']:<20.6f}{r['cases']:<6d}")
    return "\n".join(lines)


def write_report_file(path, report: MetricReport) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": report.meta, "rows": report.rows}, fh, indent=1)


def read_report_file(path) -> MetricReport:
    with open(path) as fh:
        blob = json.load(fh)
    return MetricReport(rows=blob["rows"], meta=blob["meta"])
