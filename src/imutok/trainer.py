"""Two-stage training: (1) the motion autoencoder with its discrete
bottleneck, (2) the IMU tokenizer against the frozen stage-1 model. Both
stages are bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import gradnet as gn
from . import vqcodec as vq
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import CheckpointMismatch, ConfigInvalid, EmptyDataset
from .gradnet import AdamW, cosine_lr
from .imusim import IMU_WIDTH, NormStats
from .models import (ImuTokenizer, MotionVQVAE, flatten_latents,
                     load_model_arrays, model_arrays, unflatten_latents)
from .motion import SL_CONTACT, SL_JOINT_VEL
from .skeleton import DEFAULT_SKELETON
from .vqcodec import LossWeights, ZipfParams

# token ids travel as u16 (TokenSequence, the MJT2 wire format)
MAX_CODEBOOK_SIZE = 1 << 16


@dataclass
class TrainConfig:
    """Desk-scale defaults; the published-scale values (K=1024, d_z=512,
    batch 512) remain selectable through the same fields."""

    K: int = 64
    d_z: int = 64
    l: int = 4
    gamma: float = 0.99
    weights: LossWeights = field(default_factory=LossWeights)
    lr_max: float = 2e-4
    lr_min: float = 2e-6
    weight_decay: float = 0.01
    batch_size: int = 16
    total_steps: int = 5000
    window: int = 64
    seed: int = 0
    fps: float = 60.0
    hidden: int = 128
    temperature: float = vq.GUMBEL_TEMPERATURE
    zipf_alpha: float = 1.0
    zipf_beta: float = 2.7

    def __post_init__(self):
        if self.window % self.l != 0:
            raise ConfigInvalid(f"compression rate {self.l} must divide window {self.window}")
        if self.batch_size < 1 or self.total_steps < 1 or self.K < 2:
            raise ConfigInvalid("batch_size/total_steps/K out of range")
        if self.K > MAX_CODEBOOK_SIZE:
            raise ConfigInvalid(f"K={self.K} exceeds {MAX_CODEBOOK_SIZE}, the u16 token id range")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigInvalid("gamma must lie in (0, 1)")
        if self.l != 4:
            raise ConfigInvalid("the encoder realizes a fixed compression rate of 4")

    def as_meta(self) -> dict:
        w = self.weights
        return {
            "K": self.K, "d_z": self.d_z, "l": self.l, "gamma": self.gamma,
            "lr_max": self.lr_max, "lr_min": self.lr_min,
            "weight_decay": self.weight_decay, "batch_size": self.batch_size,
            "total_steps": self.total_steps, "window": self.window,
            "seed": self.seed, "fps": self.fps, "hidden": self.hidden,
            "temperature": self.temperature,
            "zipf_alpha": self.zipf_alpha, "zipf_beta": self.zipf_beta,
            "w_recon": w.recon, "w_commit": w.commit, "w_contact": w.contact,
            "w_slide": w.slide, "w_code": w.code, "w_dist": w.dist, "w_zipf": w.zipf,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "TrainConfig":
        w = LossWeights(recon=float(meta["w_recon"]), commit=float(meta["w_commit"]),
                        contact=float(meta["w_contact"]), slide=float(meta["w_slide"]),
                        code=float(meta["w_code"]), dist=float(meta["w_dist"]),
                        zipf=float(meta["w_zipf"]))
        return cls(K=int(meta["K"]), d_z=int(meta["d_z"]), l=int(meta["l"]),
                   gamma=float(meta["gamma"]), weights=w,
                   lr_max=float(meta["lr_max"]), lr_min=float(meta["lr_min"]),
                   weight_decay=float(meta["weight_decay"]),
                   batch_size=int(meta["batch_size"]), total_steps=int(meta["total_steps"]),
                   window=int(meta["window"]), seed=int(meta["seed"]),
                   fps=float(meta["fps"]), hidden=int(meta["hidden"]),
                   temperature=float(meta["temperature"]),
                   zipf_alpha=float(meta["zipf_alpha"]), zipf_beta=float(meta["zipf_beta"]))


@dataclass
class TrainReport:
    records: list = field(default_factory=list)

    def log(self, **scalars) -> None:
        self.records.append(scalars)

    def write(self, path) -> None:
        import json
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def make_windows(frame_arrays, window: int, stride: int | None = None) -> np.ndarray:
    """Fixed-length crops with stride window/2 from a list of (T, D) arrays."""
    if stride is None:
        stride = window // 2
    crops = []
    for frames in frame_arrays:
        T = frames.shape[0]
        for lo in range(0, T - window + 1, stride):
            crops.append(frames[lo:lo + window])
    if not crops:
        raise EmptyDataset(f"no window of length {window} fits the corpus")
    return np.stack(crops).astype(np.float32)


def _batch_indices(rng: np.random.Generator, n: int, batch_size: int) -> np.ndarray:
    return rng.choice(n, size=min(batch_size, n), replace=False)


# channel rows of the foot-joint velocities inside the 271-wide frame,
# one (start, stop) per contact channel (toe-L, heel-L, toe-R, heel-R)
_FOOT_VEL_ROWS = [
    (SL_JOINT_VEL.start + 3 * (j - 1), SL_JOINT_VEL.start + 3 * (j - 1) + 3)
    for j in DEFAULT_SKELETON.foot_joints
]


def _motion_batch_losses(model: MotionVQVAE, batch: np.ndarray, cfg: TrainConfig,
                         gumbel_rng, zipf_const: np.ndarray):
    """Forward pass and full stage-1 objective for one (B, T, 271) batch."""
    x = gn.Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1)))
    z = model.encode(x)
    flat = flatten_latents(z)
    indices, codes = vq.quantize(flat, model.codebook)
    st = vq.straight_through(flat, codes)
    recon = model.decode(unflatten_latents(st, batch.shape[0], cfg.d_z))

    p = x[:, SL_CONTACT, :]
    p_hat = recon[:, SL_CONTACT, :]
    jv = gn.concat([recon[:, lo:hi, :] for lo, hi in _FOOT_VEL_ROWS], axis=1)
    jv = gn.reshape(jv, (batch.shape[0], 4, 3, batch.shape[1]))

    total, comps = vq.motion_vq_losses(x, recon, flat, codes, p, p_hat, jv, cfg.weights)
    freq = vq.batch_token_frequency(flat, gn.Tensor(model.codebook.entries),
                                    cfg.temperature, gumbel_rng)
    zipf_js = vq.js_divergence(freq, zipf_const)
    total = gn.add(total, gn.mul(zipf_js, cfg.weights.dist * cfg.weights.zipf))
    comps["zipf_js"] = zipf_js
    return total, comps, flat, indices


def motion_total_from_components(comps: dict, w: LossWeights) -> float:
    """The logged stage-1 total: weighted sum of logged component values."""
    return (w.recon * comps["recon"] + w.commit * comps["commit"]
            + w.contact * comps["contact"] + w.slide * comps["slide"]
            + w.dist * w.zipf * comps["zipf_js"])


def train_motion_vqvae(corpus, cfg: TrainConfig, ckpt_path=None):
    """Stage 1. ``corpus`` is a list of MotionSequence (or (T, 271) arrays).

    Returns (model, report); writes a checkpoint when ckpt_path is given.
    """
    frames = [np.asarray(getattr(s, "frames", s)) for s in corpus]
    if not frames:
        raise EmptyDataset("empty motion corpus")
    windows = make_windows(frames, cfg.window)

    init_rng = _rng(cfg.seed, 0)
    data_rng = _rng(cfg.seed, 1)
    gumbel_rng = _rng(cfg.seed, 2)
    dead_rng = _rng(cfg.seed, 3)

    model = MotionVQVAE(cfg.K, cfg.d_z, cfg.hidden, rng=init_rng, gamma=cfg.gamma)
    opt = AdamW(model.params(), lr=cfg.lr_max, weight_decay=cfg.weight_decay)
    zipf_const = vq.zipf_target(ZipfParams(cfg.zipf_alpha, cfg.zipf_beta, cfg.K))
    report = TrainReport()

    seeded = False
    t0 = time.monotonic()
    for step in range(cfg.total_steps):
        batch = windows[_batch_indices(data_rng, len(windows), cfg.batch_size)]
        if not seeded:
            # k-means over the first encoded batch replaces the placeholder table
            z0 = model.encode(gn.Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1))))
            lat0 = flatten_latents(z0).value
            model.codebook = vq.Codebook.from_kmeans(lat0, cfg.K, rng=init_rng,
                                                     gamma=cfg.gamma)
            seeded = True
        total, comps, flat, indices = _motion_batch_losses(
            model, batch, cfg, gumbel_rng, zipf_const)
        opt.zero_grad()
        total.backward()
        opt.step(lr=cosine_lr(step, cfg.total_steps, cfg.lr_max, cfg.lr_min))
        model.codebook.ema_update(flat.value, indices)
        refreshed = model.codebook.refresh_dead(flat.value, dead_rng)

        vals = {k: float(t) for k, t in comps.items()}
        report.log(step=step, loss=motion_total_from_components(vals, cfg.weights),
                   **vals, perplexity=vq.codebook_perplexity(indices, cfg.K),
                   lr=cosine_lr(step, cfg.total_steps, cfg.lr_max, cfg.lr_min),
                   refreshed=refreshed, wall_clock=time.monotonic() - t0)

    if ckpt_path is not None:
        save_motion_checkpoint(ckpt_path, model, opt, cfg)
    return model, report


def save_motion_checkpoint(path, model: MotionVQVAE, opt: AdamW | None, cfg: TrainConfig):
    meta = cfg.as_meta()
    meta["kind"] = "motion_vqvae"
    arrays = model_arrays(model, "motion.")
    if opt is not None:
        arrays.update(opt.state_arrays())
    save_checkpoint(path, meta, arrays)


def build_motion_model(ckpt: Checkpoint) -> tuple:
    """(model, cfg) reconstructed from a stage-1 checkpoint."""
    if ckpt.kind != "motion_vqvae":
        raise CheckpointMismatch(f"expected a motion_vqvae checkpoint, got {ckpt.kind!r}")
    cfg = TrainConfig.from_meta(ckpt.meta)
    model = MotionVQVAE(cfg.K, cfg.d_z, cfg.hidden, rng=np.random.default_rng(0),
                        gamma=cfg.gamma)
    load_model_arrays(model, ckpt.arrays, "motion.")
    return model, cfg


def train_imu_tokenizer(paired, motion_ckpt, cfg: TrainConfig, stats: NormStats,
                        ckpt_path=None):
    """Stage 2. ``paired`` is a list of (MotionSequence, InertiaSequence)
    with frame-aligned, acceleration-normalized IMU data.

    The motion tokenizer is loaded frozen from motion_ckpt; only the IMU
    encoder receives gradients, and the IMU codebook moves by EMA.
    """
    if isinstance(motion_ckpt, (str, bytes)) or hasattr(motion_ckpt, "__fspath__"):
        motion_ckpt = load_checkpoint(motion_ckpt)
    motion_model, motion_cfg = build_motion_model(motion_ckpt)
    if motion_cfg.K != cfg.K or motion_cfg.d_z != cfg.d_z:
        raise CheckpointMismatch(
            f"stage-1 model has K={motion_cfg.K}, d_z={motion_cfg.d_z}; "
            f"config asks K={cfg.K}, d_z={cfg.d_z}")
    motion_model.set_requires_grad(False)

    pairs = list(paired)
    if not pairs:
        raise EmptyDataset("empty paired corpus")
    m_windows = make_windows([np.asarray(m.frames) for m, _ in pairs], cfg.window)
    i_windows = make_windows([np.asarray(i.frames) for _, i in pairs], cfg.window)
    if len(m_windows) != len(i_windows):
        raise EmptyDataset("motion/IMU corpora produced different window counts")

    init_rng = _rng(cfg.seed, 10)
    data_rng = _rng(cfg.seed, 11)
    gumbel_rng = _rng(cfg.seed, 12)
    dead_rng = _rng(cfg.seed, 13)

    imu_model = ImuTokenizer(IMU_WIDTH, cfg.K, cfg.d_z, cfg.hidden, rng=init_rng,
                             gamma=cfg.gamma)
    opt = AdamW(imu_model.params(), lr=cfg.lr_max, weight_decay=cfg.weight_decay)
    zipf_const = vq.zipf_target(ZipfParams(cfg.zipf_alpha, cfg.zipf_beta, cfg.K))
    report = TrainReport()

    seeded = False
    t0 = time.monotonic()
    for step in range(cfg.total_steps):
        sel = _batch_indices(data_rng, len(i_windows), cfg.batch_size)
        bm = m_windows[sel]
        bi = i_windows[sel]
        xi = gn.Tensor(np.ascontiguousarray(bi.transpose(0, 2, 1)))
        xm = np.ascontiguousarray(bm.transpose(0, 2, 1))

        z_imu = flatten_latents(imu_model.encode(xi))
        if not seeded:
            imu_model.codebook = vq.Codebook.from_kmeans(z_imu.value, cfg.K,
                                                         rng=init_rng, gamma=cfg.gamma)
            seeded = True
        idx_imu, codes_imu = vq.quantize(z_imu, imu_model.codebook)
        b_imu = vq.straight_through(z_imu, codes_imu)

        z_mot = flatten_latents(motion_model.encode(gn.Tensor(xm))).value
        _, b_mot = vq.quantize(z_mot, motion_model.codebook)

        f_imu = vq.batch_token_frequency(z_imu, gn.Tensor(imu_model.codebook.entries),
                                         cfg.temperature, gumbel_rng)
        f_mot = vq.batch_token_frequency(z_mot, motion_model.codebook.entries,
                                         cfg.temperature, gumbel_rng)
        total, comps = vq.imu_tokenizer_losses(b_imu, b_mot, f_imu, f_mot.value,
                                               zipf_const, cfg.weights)
        opt.zero_grad()
        total.backward()
        opt.step(lr=cosine_lr(step, cfg.total_steps, cfg.lr_max, cfg.lr_min))
        imu_model.codebook.ema_update(z_imu.value, idx_imu)
        refreshed = imu_model.codebook.refresh_dead(z_imu.value, dead_rng)

        vals = {k: float(t) for k, t in comps.items()}
        report.log(step=step,
                   loss=cfg.weights.code * vals["code"] + cfg.weights.dist * vals["dist"],
                   **vals, perplexity=vq.codebook_perplexity(idx_imu, cfg.K),
                   lr=cosine_lr(step, cfg.total_steps, cfg.lr_max, cfg.lr_min),
                   refreshed=refreshed, wall_clock=time.monotonic() - t0)

    if ckpt_path is not None:
        save_imu_checkpoint(ckpt_path, imu_model, motion_model, opt, cfg, stats,
                            motion_cfg=motion_cfg)
    return imu_model, motion_model, report


def save_imu_checkpoint(path, imu_model: ImuTokenizer, motion_model: MotionVQVAE,
                        opt: AdamW | None, cfg: TrainConfig, stats: NormStats,
                        motion_cfg: TrainConfig | None = None):
    """Stage-2 checkpoints are self-contained: they embed the frozen motion
    model and the acceleration normalization stats used in training."""
    meta = cfg.as_meta()
    meta["kind"] = "imu_tokenizer"
    arrays = model_arrays(imu_model, "imu.")
    arrays.update(model_arrays(motion_model, "motion."))
    arrays["stats.mean"] = stats.mean
    arrays["stats.std"] = stats.std
    if opt is not None:
        arrays.update(opt.state_arrays())
    save_checkpoint(path, meta, arrays)


def build_imu_model(ckpt: Checkpoint) -> tuple:
    """(imu_model, motion_model, cfg, stats) from a stage-2 checkpoint."""
    if ckpt.kind != "imu_tokenizer":
        raise CheckpointMismatch(f"expected an imu_tokenizer checkpoint, got {ckpt.kind!r}")
    cfg = TrainConfig.from_meta(ckpt.meta)
    imu_model = ImuTokenizer(IMU_WIDTH, cfg.K, cfg.d_z, cfg.hidden,
                             rng=np.random.default_rng(0), gamma=cfg.gamma)
    load_model_arrays(imu_model, ckpt.arrays, "imu.")
    motion_model = MotionVQVAE(cfg.K, cfg.d_z, cfg.hidden, rng=np.random.default_rng(0),
                               gamma=cfg.gamma)
    load_model_arrays(motion_model, ckpt.arrays, "motion.")
    motion_model.set_requires_grad(False)
    stats = NormStats(mean=ckpt.arrays["stats.mean"], std=ckpt.arrays["stats.std"])
    return imu_model, motion_model, cfg, stats
