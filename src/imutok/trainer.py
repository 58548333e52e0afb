"""Two-stage training: (1) the motion autoencoder with its discrete
bottleneck, (2) the IMU tokenizer against the frozen stage-1 model. Both
stages, and the continuous baseline in ``evalbench``, run one loop,
``fit``, with a per-batch loss closure, and are bitwise deterministic for
a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import gradnet as gn
from . import vqcodec as vq
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import CheckpointMismatch, ConfigInvalid, EmptyDataset, LengthMismatch
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
    """Fixed-length float32 crops with stride window/2 from a list of (T, D) arrays."""
    if stride is None:
        stride = window // 2
    crops = []
    for frames in frame_arrays:
        T = frames.shape[0]
        for lo in range(0, T - window + 1, stride):
            crops.append(frames[lo:lo + window])
    if not crops:
        raise EmptyDataset(f"no window of length {window} fits the corpus")
    return np.stack(crops, dtype=np.float32)


def paired_windows(paired, window: int) -> tuple:
    """(motion windows, IMU windows) cropped at the same frames of each pair."""
    pairs = list(paired)
    if not pairs:
        raise EmptyDataset("empty paired corpus")
    for n, (m, i) in enumerate(pairs):
        if len(m.frames) != len(i.frames):
            raise LengthMismatch(f"pair {n}: motion has {len(m.frames)} frames, "
                                 f"IMU {len(i.frames)}")
    return (make_windows([np.asarray(m.frames) for m, _ in pairs], window),
            make_windows([np.asarray(i.frames) for _, i in pairs], window))


def time_last(batch: np.ndarray) -> np.ndarray:
    """(B, T, D) windows as the (B, D, T) layout the convs take."""
    return np.ascontiguousarray(batch.transpose(0, 2, 1))


def fit(model, cfg: TrainConfig, windows: tuple, loss_fn, rng_base: int, *, kind: str,
        prefix: str, extra_arrays: dict | None = None, ckpt_path=None) -> TrainReport:
    """The training loop every stage shares.

    Each step draws one batch of rows, the same rows from every array in
    ``windows``, through the stream ``rng_base + 1`` and calls
    ``loss_fn(batches, step) -> (total, record, after)``: ``total`` is the
    loss tensor, ``record`` its logged scalars, and ``after`` (or None) runs
    after the optimizer step and returns more scalars to log. The
    checkpoint holds ``model`` under ``prefix``, then ``extra_arrays``, then
    the optimizer state.
    """
    data_rng = _rng(cfg.seed, rng_base + 1)
    opt = AdamW(model.params(), lr=cfg.lr_max, weight_decay=cfg.weight_decay)
    report = TrainReport()
    n = len(windows[0])

    t0 = time.monotonic()
    for step in range(cfg.total_steps):
        sel = data_rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        total, record, after = loss_fn(tuple(w[sel] for w in windows), step)
        lr = cosine_lr(step, cfg.total_steps, cfg.lr_max, cfg.lr_min)
        opt.zero_grad()
        total.backward()
        opt.step(lr=lr)
        extra = after() if after is not None else {}
        report.log(step=step, **record, lr=lr, **extra, wall_clock=time.monotonic() - t0)

    if ckpt_path is not None:
        meta = cfg.as_meta()
        meta["kind"] = kind
        arrays = model_arrays(model, prefix)
        arrays.update(extra_arrays or {})
        arrays.update(opt.state_arrays())
        save_checkpoint(ckpt_path, meta, arrays)
    return report


# channel rows of the foot-joint velocities inside the 271-wide frame,
# one (start, stop) per contact channel (toe-L, heel-L, toe-R, heel-R)
_FOOT_VEL_ROWS = [
    (SL_JOINT_VEL.start + 3 * (j - 1), SL_JOINT_VEL.start + 3 * (j - 1) + 3)
    for j in DEFAULT_SKELETON.foot_joints
]


def _motion_batch_losses(model: MotionVQVAE, batch: np.ndarray, cfg: TrainConfig,
                         gumbel_rng, zipf_const: np.ndarray):
    """Forward pass and full stage-1 objective for one (B, T, 271) batch."""
    x = gn.Tensor(time_last(batch))
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


def _codebook_step(codebook: vq.Codebook, latents: np.ndarray, indices, dead_rng):
    """The post-step codebook update: EMA, then dead-code refresh."""
    def after():
        codebook.ema_update(latents, indices)
        return {"refreshed": codebook.refresh_dead(latents, dead_rng)}
    return after


def train_motion_vqvae(corpus, cfg: TrainConfig, ckpt_path=None):
    """Stage 1. ``corpus`` is a list of MotionSequence (or (T, 271) arrays).

    Returns (model, report); writes a checkpoint when ckpt_path is given.
    """
    frames = [np.asarray(getattr(s, "frames", s)) for s in corpus]
    if not frames:
        raise EmptyDataset("empty motion corpus")
    windows = make_windows(frames, cfg.window)

    init_rng = _rng(cfg.seed, 0)
    gumbel_rng = _rng(cfg.seed, 2)
    dead_rng = _rng(cfg.seed, 3)
    model = MotionVQVAE(cfg.K, cfg.d_z, cfg.hidden, rng=init_rng, gamma=cfg.gamma)
    zipf_const = vq.zipf_target(ZipfParams(cfg.zipf_alpha, cfg.zipf_beta, cfg.K))

    def loss_fn(batches, step):
        (batch,) = batches
        if step == 0:
            # k-means over the first encoded batch replaces the placeholder table
            lat0 = flatten_latents(model.encode(gn.Tensor(time_last(batch)))).value
            model.codebook = vq.Codebook.from_kmeans(lat0, cfg.K, rng=init_rng,
                                                     gamma=cfg.gamma)
        total, comps, flat, indices = _motion_batch_losses(
            model, batch, cfg, gumbel_rng, zipf_const)
        vals = {k: float(t) for k, t in comps.items()}
        record = dict(loss=motion_total_from_components(vals, cfg.weights), **vals,
                      perplexity=vq.codebook_perplexity(indices, cfg.K))
        return total, record, _codebook_step(model.codebook, flat.value, indices, dead_rng)

    report = fit(model, cfg, (windows,), loss_fn, 0, kind="motion_vqvae", prefix="motion.",
                 ckpt_path=ckpt_path)
    return model, report


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
    encoder receives gradients, and the IMU codebook moves by EMA. The
    checkpoint is self-contained: it embeds the frozen motion model and the
    acceleration normalization stats used in training.
    """
    if isinstance(motion_ckpt, (str, bytes)) or hasattr(motion_ckpt, "__fspath__"):
        motion_ckpt = load_checkpoint(motion_ckpt)
    motion_model, motion_cfg = build_motion_model(motion_ckpt)
    if motion_cfg.K != cfg.K or motion_cfg.d_z != cfg.d_z:
        raise CheckpointMismatch(
            f"stage-1 model has K={motion_cfg.K}, d_z={motion_cfg.d_z}; "
            f"config asks K={cfg.K}, d_z={cfg.d_z}")
    motion_model.set_requires_grad(False)
    windows = paired_windows(paired, cfg.window)

    init_rng = _rng(cfg.seed, 10)
    gumbel_rng = _rng(cfg.seed, 12)
    dead_rng = _rng(cfg.seed, 13)
    imu_model = ImuTokenizer(IMU_WIDTH, cfg.K, cfg.d_z, cfg.hidden, rng=init_rng,
                             gamma=cfg.gamma)
    zipf_const = vq.zipf_target(ZipfParams(cfg.zipf_alpha, cfg.zipf_beta, cfg.K))

    def loss_fn(batches, step):
        bm, bi = batches
        z_imu = flatten_latents(imu_model.encode(gn.Tensor(time_last(bi))))
        if step == 0:
            imu_model.codebook = vq.Codebook.from_kmeans(z_imu.value, cfg.K,
                                                         rng=init_rng, gamma=cfg.gamma)
        idx_imu, codes_imu = vq.quantize(z_imu, imu_model.codebook)
        b_imu = vq.straight_through(z_imu, codes_imu)

        z_mot = flatten_latents(motion_model.encode(gn.Tensor(time_last(bm)))).value
        _, b_mot = vq.quantize(z_mot, motion_model.codebook)

        f_imu = vq.batch_token_frequency(z_imu, gn.Tensor(imu_model.codebook.entries),
                                         cfg.temperature, gumbel_rng)
        f_mot = vq.batch_token_frequency(z_mot, motion_model.codebook.entries,
                                         cfg.temperature, gumbel_rng)
        total, comps = vq.imu_tokenizer_losses(b_imu, b_mot, f_imu, f_mot.value,
                                               zipf_const, cfg.weights)
        vals = {k: float(t) for k, t in comps.items()}
        record = dict(loss=cfg.weights.code * vals["code"] + cfg.weights.dist * vals["dist"],
                      **vals, perplexity=vq.codebook_perplexity(idx_imu, cfg.K))
        return total, record, _codebook_step(imu_model.codebook, z_imu.value, idx_imu,
                                             dead_rng)

    extra = {**model_arrays(motion_model, "motion."),
             "stats.mean": stats.mean, "stats.std": stats.std}
    report = fit(imu_model, cfg, windows, loss_fn, 10, kind="imu_tokenizer", prefix="imu.",
                 extra_arrays=extra, ckpt_path=ckpt_path)
    return imu_model, motion_model, report


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
