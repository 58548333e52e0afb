"""Two-stage training: (1) the motion autoencoder with its discrete
bottleneck, (2) the IMU tokenizer against the frozen stage-1 model. Both
stages, and the continuous baseline in ``evalbench``, run one loop,
``fit``, with a per-batch loss closure, and are bitwise deterministic for
a fixed seed. Training windows are never stored: ``make_windows`` indexes
the half-overlapping crops of the corpus, and each step gathers its batch
from the corpus's own frames; ``backward`` releases each step's graph as it
sweeps, so the root that ``fit`` keeps into the next step holds none of
it. Training holds the corpus, one batch and one graph.
The two tokenizer stages learn their codebooks by one recipe, ``_VQStage``:
its random streams, k-means seeding at step 0, straight-through
quantization, Gumbel soft token frequencies and the post-step EMA and
dead-code refresh. Stage 2's targets come from a model that does not
change, so ``models.tokenize_windows`` encodes them once, before its loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import gradnet as gn
from . import vqcodec as vq
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import (CheckpointMismatch, ConfigInvalid, EmptyDataset, InvalidArgument,
                     LengthMismatch, ShapeMismatch)
from .gradnet import AdamW, cosine_lr
from .imusim import NormStats
from .models import (COMPRESSION, BaselinePoser, ImuTokenizer, MotionVQVAE, checkpoint_array,
                     flatten_latents, load_model_arrays, model_arrays, tokenize_windows,
                     unflatten_latents)
from .motion import SL_CONTACT, SL_JOINT_VEL
from .skeleton import FOOT_JOINTS
from .vqcodec import LossWeights, ZipfParams

# token ids travel as u16 (TokenSequence, the MJT2 wire format)
MAX_CODEBOOK_SIZE = 1 << 16

# smallest value of each TrainConfig field that can train, and the bound
# each of a few more fields must lie strictly above
_FIELD_MINIMUM = dict(K=2, d_z=1, batch_size=1, total_steps=1, window=1, seed=0, hidden=1,
                      lr_max=0.0, lr_min=0.0, weight_decay=0.0, zipf_alpha=0.0)
_FIELD_ABOVE = dict(temperature=0.0, zipf_beta=-1.0)


@dataclass
class TrainConfig:
    """Desk-scale defaults; the published-scale values (K=1024, d_z=512,
    batch 512) remain selectable through the same fields."""

    K: int = 64
    d_z: int = 64
    gamma: float = 0.99
    weights: LossWeights = field(default_factory=LossWeights)
    lr_max: float = 2e-4
    lr_min: float = 2e-6
    weight_decay: float = 0.01
    batch_size: int = 16
    total_steps: int = 5000
    window: int = 64
    seed: int = 0
    hidden: int = 128
    temperature: float = vq.GUMBEL_TEMPERATURE
    zipf_alpha: float = 1.0
    zipf_beta: float = 2.7

    def __post_init__(self):
        for key, value in self.as_meta().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigInvalid(f"{key!r} must be finite, got {value}")
            if key in _FIELD_MINIMUM and value < _FIELD_MINIMUM[key]:
                raise ConfigInvalid(f"{key!r} must be at least {_FIELD_MINIMUM[key]}, got {value}")
            if key in _FIELD_ABOVE and not value > _FIELD_ABOVE[key]:
                raise ConfigInvalid(f"{key!r} must be above {_FIELD_ABOVE[key]}, got {value}")
        if self.window % COMPRESSION != 0:
            raise ConfigInvalid(f"compression rate {COMPRESSION} must divide window {self.window}")
        if self.K > MAX_CODEBOOK_SIZE:
            raise ConfigInvalid(f"K={self.K} exceeds {MAX_CODEBOOK_SIZE}, the u16 token id range")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigInvalid("gamma must lie in (0, 1)")

    def as_meta(self) -> dict:
        """Every field by name, with the loss weights under ``w_<name>``."""
        meta = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "weights"}
        meta.update({f"w_{f.name}": getattr(self.weights, f.name) for f in fields(LossWeights)})
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "TrainConfig":
        """Inverse of ``as_meta``, from typed or string values; keys it does
        not write (such as a checkpoint's ``kind``) are ignored. Raises
        ConfigInvalid naming the key that is missing or does not parse."""
        weights = LossWeights(**_parse_fields(LossWeights, meta, "w_"))
        return cls(weights=weights, **_parse_fields(cls, meta, ""))


def _parse_fields(cls, meta: dict, prefix: str) -> dict:
    """Each field of the dataclass ``cls`` that has a plain default, read
    from ``meta[prefix + name]`` and parsed by the type of that default."""
    out = {}
    for f in fields(cls):
        if f.default is MISSING:
            continue
        key = prefix + f.name
        if key not in meta:
            raise ConfigInvalid(f"config is missing key {key!r}")
        try:
            out[f.name] = type(f.default)(meta[key])
        except ValueError:
            raise ConfigInvalid(f"config key {key!r}: {meta[key]!r} does not parse "
                                f"as {type(f.default).__name__}") from None
    return out


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


class WindowIndex:
    """Fixed-length crops of a list of (T, D) arrays, gathered per batch.

    Holds a reference to each array, with no copy, and one (N, 2) integer
    array of (sequence, start) pairs. ``windows[sel]``, for a row selection
    or a slice ``sel``, gathers those crops as a C-contiguous float32
    (n, window, D) batch: bitwise the rows ``sel`` of all crops stacked in
    float32. So training holds the corpus plus one batch, not a second,
    stacked copy of the corpus that stores each frame twice. The arrays
    must not change while the index is in use.
    """

    def __init__(self, frames: list, starts: np.ndarray, window: int):
        self.frames, self.starts, self.window = frames, starts, window

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, sel) -> np.ndarray:
        rows = self.starts[sel].tolist()
        out = np.empty((len(rows), self.window, self.frames[0].shape[1]), np.float32)
        for k, (seq, lo) in enumerate(rows):
            out[k] = self.frames[seq][lo:lo + self.window]
        return out


def make_windows(frame_arrays, window: int) -> WindowIndex:
    """The crops of length ``window``, with stride window/2, of a list of
    (T, D) arrays, as a WindowIndex over those arrays.

    Every array is checked here, so a bad corpus fails before training
    rather than at the first batch that gathers from it. Raises
    ShapeMismatch unless every array is 2-D with one width D;
    InvalidArgument if any frame is NaN or infinite in float32, the batches'
    dtype, since one such value would turn every loss and, through the
    optimizer, every weight to NaN; and EmptyDataset if no window fits.
    """
    frames = [np.asarray(f) for f in frame_arrays]
    starts = []
    for n, f in enumerate(frames):
        if f.ndim != 2:
            raise ShapeMismatch(f"sequence {n}: frames must be (T, D), got shape {f.shape}")
        if f.shape[1] != frames[0].shape[1]:
            raise ShapeMismatch(f"sequence {n}: frames are {f.shape[1]} wide, "
                                f"sequence 0's {frames[0].shape[1]}")
        with np.errstate(over="ignore"):
            if not np.isfinite(f.astype(np.float32, copy=False)).all():
                raise InvalidArgument(f"sequence {n}: frames are NaN or infinite in float32")
        starts.extend((n, lo) for lo in range(0, f.shape[0] - window + 1, window // 2))
    if not starts:
        raise EmptyDataset(f"no window of length {window} fits the corpus")
    return WindowIndex(frames, np.array(starts, dtype=np.intp), window)


def paired_windows(paired, window: int) -> tuple:
    """(motion windows, IMU windows): two WindowIndexes that crop each pair
    at the same frames."""
    pairs = list(paired)
    if not pairs:
        raise EmptyDataset("empty paired corpus")
    for n, (m, i) in enumerate(pairs):
        if len(m.frames) != len(i.frames):
            raise LengthMismatch(f"pair {n}: motion has {len(m.frames)} frames, "
                                 f"IMU {len(i.frames)}")
    return (make_windows([m.frames for m, _ in pairs], window),
            make_windows([i.frames for _, i in pairs], window))


def time_last(batch: np.ndarray) -> np.ndarray:
    """(B, T, D) windows as the (B, D, T) layout the convs take."""
    return np.ascontiguousarray(batch.transpose(0, 2, 1))


# MJC1 checkpoint kinds: the (array prefix, model class) of each model a
# kind stores, trained model first, and whether stats.mean/stats.std follow
CHECKPOINT_KINDS = {
    "motion_vqvae": ((("motion.", MotionVQVAE),), False),
    "imu_tokenizer": ((("imu.", ImuTokenizer), ("motion.", MotionVQVAE)), True),
    "baseline_poser": ((("baseline.", BaselinePoser),), True),
}


def fit(models, cfg: TrainConfig, windows: tuple, loss_fn, rng_base: int, *, kind: str,
        stats: NormStats | None = None, ckpt_path=None) -> TrainReport:
    """The training loop every stage shares; ``models[0]`` is trained.

    Each step draws one batch of rows, the same rows from every array or
    WindowIndex in ``windows``, through the stream ``rng_base + 1`` and calls
    ``loss_fn(batches, step) -> (total, record, after)``: ``total`` is the
    loss tensor, ``record`` its logged scalars, and ``after`` (or None) runs
    after the optimizer step and returns more scalars to log. The
    checkpoint holds ``models`` and ``stats`` as ``CHECKPOINT_KINDS[kind]``
    lays them out, and nothing of the optimizer.
    """
    data_rng = _rng(cfg.seed, rng_base + 1)
    opt = AdamW(models[0].params(), lr=cfg.lr_max, weight_decay=cfg.weight_decay)
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
        specs, has_stats = CHECKPOINT_KINDS[kind]
        arrays = {}
        for (prefix, _), model in zip(specs, models, strict=True):
            arrays.update(model_arrays(model, prefix))
        if has_stats:
            arrays.update({"stats.mean": stats.mean, "stats.std": stats.std})
        save_checkpoint(ckpt_path, {**cfg.as_meta(), "kind": kind}, arrays)
    return report


class _NoDraws:
    """Stands in for the init generator of a model whose every array a
    checkpoint then overwrites: each draw is a read-only zero view of the
    requested shape, so loading draws no random init."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


def load_trained(ckpt, kind: str) -> tuple:
    """(models, cfg, stats) from a checkpoint of ``kind``, or its path: the
    models in ``CHECKPOINT_KINDS[kind]`` order, restored frozen, and stats
    None for a kind that stores none. Raises CheckpointMismatch for a file
    of another kind."""
    if not isinstance(ckpt, Checkpoint):
        ckpt = load_checkpoint(ckpt)
    if ckpt.kind != kind:
        raise CheckpointMismatch(f"expected a {kind} checkpoint, got {ckpt.kind!r}")
    specs, has_stats = CHECKPOINT_KINDS[kind]
    cfg = TrainConfig.from_meta(ckpt.meta)
    models = [load_model_arrays(cls(cfg, rng=_NoDraws), ckpt.arrays, prefix)
              for prefix, cls in specs]
    stats = None
    if has_stats:
        stats = NormStats(mean=checkpoint_array(ckpt.arrays, "stats.mean"),
                          std=checkpoint_array(ckpt.arrays, "stats.std"))
    return models, cfg, stats


# channel rows of the foot-joint velocities inside the 271-wide frame,
# one (start, stop) per contact channel (toe-L, heel-L, toe-R, heel-R)
_FOOT_VEL_ROWS = [
    (SL_JOINT_VEL.start + 3 * (j - 1), SL_JOINT_VEL.start + 3 * (j - 1) + 3)
    for j in FOOT_JOINTS
]


def motion_total_from_components(comps: dict, w: LossWeights) -> float:
    """The logged stage-1 total: weighted sum of logged component values."""
    return (w.recon * comps["recon"] + w.commit * comps["commit"]
            + w.contact * comps["contact"] + w.slide * comps["slide"]
            + w.dist * w.zipf * comps["zipf_js"])


class _VQStage:
    """The codebook recipe both tokenizer stages share, on three streams of
    ``cfg.seed`` (``fit`` draws the batches from ``base + 1``): the init
    stream ``base`` builds ``model_cls`` and then seeds its codebook by
    k-means; the Gumbel stream ``base + 2`` draws every soft token
    frequency's noise, in call order; the dead-code stream ``base + 3``
    re-seeds dead entries after each step. ``zipf`` is the Zipf target of
    the sorted token frequencies."""

    def __init__(self, model_cls, cfg: TrainConfig, base: int):
        self.cfg, self.base = cfg, base
        self.init_rng, self.gumbel_rng, self.dead_rng = (_rng(cfg.seed, base + k)
                                                         for k in (0, 2, 3))
        self.model = model_cls(cfg, rng=self.init_rng)
        self.zipf = vq.zipf_target(ZipfParams(cfg.zipf_alpha, cfg.zipf_beta, cfg.K))

    def quantize(self, x: gn.Tensor, step: int) -> tuple:
        """(latents, ids, codes, straight-through codes) of the (B, D, T)
        batch ``x``: the encoder's (B*T/4, d_z) latents and their nearest
        entries. At step 0, k-means over these latents first replaces the
        placeholder codebook."""
        flat = flatten_latents(self.model.encode(x))
        if step == 0:
            self.model.codebook = vq.Codebook.from_kmeans(flat.value, self.cfg.K,
                                                          rng=self.init_rng, gamma=self.cfg.gamma)
        ids, codes = vq.quantize(flat, self.model.codebook)
        return flat, ids, codes, vq.straight_through(flat, codes)

    def frequency(self, latents, codebook: vq.Codebook) -> gn.Tensor:
        """Sorted Gumbel soft frequencies of ``latents`` over ``codebook``."""
        return vq.batch_token_frequency(latents, codebook, self.cfg.temperature, self.gumbel_rng)

    def after(self, flat: gn.Tensor, ids: np.ndarray):
        """``fit``'s post-step update of the codebook: EMA, then dead-code
        refresh."""
        codebook, latents = self.model.codebook, flat.value

        def after():
            codebook.ema_update(latents, ids)
            return {"refreshed": codebook.refresh_dead(latents, self.dead_rng)}
        return after


def train_motion_vqvae(corpus, cfg: TrainConfig, ckpt_path=None):
    """Stage 1. ``corpus`` is a list of MotionSequence (or (T, 271) arrays).

    Returns (model, report); writes a checkpoint when ckpt_path is given.
    """
    frames = [np.asarray(getattr(s, "frames", s)) for s in corpus]
    if not frames:
        raise EmptyDataset("empty motion corpus")
    windows = make_windows(frames, cfg.window)
    stage = _VQStage(MotionVQVAE, cfg, 0)
    model, w = stage.model, cfg.weights

    def loss_fn(batches, step):
        batch = batches[0]
        x = gn.Tensor(time_last(batch))
        flat, ids, codes, st = stage.quantize(x, step)
        recon = model.decode(unflatten_latents(st, batch.shape[0], cfg.d_z))
        p, p_hat = x[:, SL_CONTACT, :], recon[:, SL_CONTACT, :]
        jv = gn.concat([recon[:, lo:hi, :] for lo, hi in _FOOT_VEL_ROWS], axis=1)
        jv = gn.reshape(jv, (batch.shape[0], 4, 3, batch.shape[1]))
        total, comps = vq.motion_vq_losses(x, recon, flat, codes, p, p_hat, jv, w)
        comps["zipf_js"] = vq.js_divergence(stage.frequency(flat, model.codebook), stage.zipf)
        total = gn.add(total, gn.mul(comps["zipf_js"], w.dist * w.zipf))
        vals = {k: float(t) for k, t in comps.items()}
        record = dict(loss=motion_total_from_components(vals, w), **vals,
                      perplexity=vq.codebook_perplexity(ids, cfg.K))
        return total, record, stage.after(flat, ids)

    report = fit((model,), cfg, (windows,), loss_fn, stage.base, kind="motion_vqvae",
                 ckpt_path=ckpt_path)
    return model, report


def target_rows(latents: np.ndarray) -> np.ndarray:
    """A batch of cached (B, S, d_z) latents as the (B*S, d_z) rows that
    ``flatten_latents`` gives for the batch encoded in one call: the same
    values in the same F-ordered layout. ``batch_token_frequency``'s sums
    and GEMM depend on that layout, not only on the values."""
    return np.asfortranarray(latents.reshape(-1, latents.shape[2]))


def train_imu_tokenizer(paired, motion_ckpt, cfg: TrainConfig, stats: NormStats,
                        ckpt_path=None):
    """Stage 2. ``paired`` is a list of (MotionSequence, InertiaSequence)
    with frame-aligned, acceleration-normalized IMU data.

    The motion tokenizer is loaded frozen from motion_ckpt; only the IMU
    encoder receives gradients, and the IMU codebook moves by EMA. Before
    the first step, ``models.tokenize_windows`` encodes every motion window
    once: each step gathers its batch's cached latents and token ids
    instead of running the frozen encoder, and targets that overflow it
    raise InvalidArgument before training starts. The checkpoint is
    self-contained: it embeds the frozen motion model and the acceleration
    normalization stats used in training.
    """
    (motion_model,), motion_cfg, _ = load_trained(motion_ckpt, "motion_vqvae")
    # the stage-2 file rebuilds the embedded motion model from this config
    if (motion_cfg.K, motion_cfg.d_z, motion_cfg.hidden) != (cfg.K, cfg.d_z, cfg.hidden):
        raise CheckpointMismatch(
            f"stage-1 model has K={motion_cfg.K}, d_z={motion_cfg.d_z}, "
            f"hidden={motion_cfg.hidden}; config asks K={cfg.K}, d_z={cfg.d_z}, "
            f"hidden={cfg.hidden}")
    motion_windows, imu_windows = paired_windows(paired, cfg.window)
    latents, ids = tokenize_windows(motion_model, motion_windows)
    stage = _VQStage(ImuTokenizer, cfg, 10)
    imu_model = stage.model

    def loss_fn(batches, step):
        bz, bids, bi = batches
        z_imu, idx_imu, _, b_imu = stage.quantize(gn.Tensor(time_last(bi)), step)
        b_mot = motion_model.codebook.entries[bids.reshape(-1)]
        f_imu = stage.frequency(z_imu, imu_model.codebook)
        f_mot = stage.frequency(target_rows(bz), motion_model.codebook)
        total, comps = vq.imu_tokenizer_losses(b_imu, b_mot, f_imu, f_mot.value, cfg.weights)
        code, dist_match = float(comps["code"]), float(comps["dist_match"])
        # the motion tokens' Zipf divergence is recorded, not trained on
        dist_zipf = float(vq.js_divergence(f_mot, stage.zipf))
        dist = dist_match + cfg.weights.zipf * dist_zipf
        record = dict(loss=cfg.weights.code * code + cfg.weights.dist * dist, code=code,
                      dist=dist, dist_match=dist_match, dist_zipf=dist_zipf,
                      perplexity=vq.codebook_perplexity(idx_imu, cfg.K))
        return total, record, stage.after(z_imu, idx_imu)

    report = fit((imu_model, motion_model), cfg, (latents, ids, imu_windows), loss_fn,
                 stage.base, kind="imu_tokenizer", stats=stats, ckpt_path=ckpt_path)
    return imu_model, motion_model, report
