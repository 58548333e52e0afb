"""Encoder/decoder networks and the three model assemblies.

Both tokenizers share one architecture family: a strided 1D conv encoder
that maps (B, width, T) to (B, d_z, T/4), where two stride-2 stages realize
the 4-frames-per-token compression, and a mirrored decoder with nearest
upsampling. The baseline poser is the same encoder/decoder pair at stride 1
without upsampling or quantization, trained on reconstruction alone.

The encoder lists its layers once, and two forwards walk that list: the
Tensor one that training differentiates, and ``forward_array`` on plain
arrays, which records nothing and can reuse the buffers of an
``EncoderWorkspace`` that a caller keeps for one input shape. Every frozen
step from frames to token ids (the stream's chunks, offline tokenization,
stage 2's motion targets) is ``tokenize_windows``.
"""

from __future__ import annotations

import numpy as np

from . import gradnet as gn
from . import vqcodec as vq
from .errors import ConfigInvalid, InvalidArgument, ShapeMismatch
from .gradnet import Conv1d, Tensor
from .imusim import IMU_WIDTH
from .motion import MOTION_WIDTH, SL_CONTACT

LEAKY_SLOPE = 0.2
COMPRESSION = 4  # input frames per latent step, fixed by the two stride-2 stages

# fixed binomial tail filter on decoder outputs: decoded channels are 60 fps
# body motion, so a band limit is a physical prior, and it keeps the jitter
# metric measuring noise propagation instead of upsampling texture
SMOOTH_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


class ConvEncoder:
    """width -> hidden (k4 s2) -> hidden (k4 s2) -> hidden (k3 s1) -> d_z (k1),
    with leaky_relu after every conv but the last.

    With ``stride=1`` the two k4 layers keep the frame rate: the first pads
    2 (T -> T+1) and the second pads 1 (back to T).

    ``__call__`` runs on Tensors and records a graph for training;
    ``forward_array`` runs the same layers, through the same conv
    arithmetic, on a plain array and records nothing.
    """

    def __init__(self, in_width: int, hidden: int, d_z: int, *, rng, dtype=np.float32,
                 stride: int = 2):
        self.layers = (
            ("c1", Conv1d(in_width, hidden, 4, stride=stride, padding=3 - stride, rng=rng,
                          dtype=dtype)),
            ("c2", Conv1d(hidden, hidden, 4, stride=stride, padding=1, rng=rng, dtype=dtype)),
            ("c3", Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype)),
            ("proj", Conv1d(hidden, d_z, 1, rng=rng, dtype=dtype)),
        )

    def __call__(self, x) -> Tensor:
        *hidden, (_, proj) = self.layers
        for _, conv in hidden:
            x = gn.leaky_relu(conv(x), LEAKY_SLOPE)
        return proj(x)

    def forward_array(self, x: np.ndarray, workspace=None) -> np.ndarray:
        """An (L, B, width, T) array to its (L, B, d_z, S) latents, bitwise
        the value of ``__call__`` on it, strides included; reads each
        parameter's value, so it needs no frozen model.

        On ``workspace``, an ``EncoderWorkspace`` of x's shape and dtype,
        it reuses the workspace's buffers, and the result is a view of the
        workspace that the next forward on it overwrites. Without one, each
        layer builds its ``gradnet.ConvPlan`` for this call and drops it at
        the next layer, so a one-off call holds about two layers' buffers
        at a time, not every layer's.
        """
        if workspace is not None:
            if (x.shape, x.dtype) != (workspace.x.shape, workspace.x.dtype):
                raise ShapeMismatch(f"workspace holds {workspace.x.dtype} {workspace.x.shape} "
                                    f"input, got {x.dtype} {x.shape}")
            workspace.x[...] = x
            x = workspace.x
        for i, (_, conv) in enumerate(self.layers):
            w, b = conv.weight.value, conv.bias.value
            if workspace is None:
                y = gn.ConvPlan(x, w, b, conv.stride, conv.padding).run(w, b)
            else:
                y = workspace.plans[i].run(w, b)
            if i < len(self.layers) - 1:
                scratch = None if workspace is None else workspace.scratch[i]
                gn.leaky_relu_array(y, LEAKY_SLOPE, out=y, scratch=scratch)
            x = y.transpose(1, 2, 0, 3)
        return x

    def params(self, prefix: str) -> dict:
        out = {}
        for name, layer in self.layers:
            out.update(layer.params(f"{prefix}.{name}"))
        return out


class EncoderWorkspace:
    """The buffers ``ConvEncoder.forward_array`` reuses for one (L, B,
    width, T) input shape and dtype: an input buffer ``x``, one
    ``gradnet.ConvPlan`` per layer, the first over x and each other over
    the output of the layer before, and the scratch of each in-place
    leaky_relu. A forward on it copies its input into x, then makes per
    layer its tap copies, one stacked GEMM, one bias add and two activation
    ufuncs, and allocates nothing. A workspace is not safe to share between
    threads.
    """

    def __init__(self, encoder: ConvEncoder, shape: tuple, dtype):
        self.x = np.empty(shape, dtype)
        h, self.plans = self.x, []
        for _, conv in encoder.layers:
            plan = gn.ConvPlan(h, conv.weight.value, conv.bias.value, conv.stride, conv.padding)
            self.plans.append(plan)
            h = plan.y.transpose(1, 2, 0, 3)
        self.scratch = [np.empty_like(plan.y) for plan in self.plans[:-1]]


class ConvDecoder:
    """d_z (k1) -> hidden (k3) -> up2 -> hidden (k5) -> up2 -> hidden (k5) -> width (k5).

    The two post-upsample kernels span 5 steps so they can fully erase the
    period-4 staircase the nearest upsampling leaves behind; narrower kernels
    produce visible high-frequency texture in the decoded channels.
    """

    def __init__(self, d_z: int, hidden: int, out_width: int, *, rng, dtype=np.float32,
                 upsample: int = 2):
        self.upsample = upsample
        self.proj = Conv1d(d_z, hidden, 1, rng=rng, dtype=dtype)
        self.c1 = Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype)
        self.c2 = Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype)
        self.c3 = Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype)
        self.head = Conv1d(hidden, out_width, 5, stride=1, padding=2, rng=rng, dtype=dtype)

    def __call__(self, z) -> Tensor:
        h = gn.leaky_relu(self.proj(z), LEAKY_SLOPE)
        h = gn.leaky_relu(self.c1(h), LEAKY_SLOPE)
        h = gn.leaky_relu(self.c2(self._up(h)), LEAKY_SLOPE)
        h = gn.leaky_relu(self.c3(self._up(h)), LEAKY_SLOPE)
        return gn.depthwise_smooth(self.head(h), SMOOTH_KERNEL)

    def _up(self, h) -> Tensor:
        return h if self.upsample == 1 else gn.upsample_nearest(h, self.upsample)

    def params(self, prefix: str) -> dict:
        out = {}
        for name, layer in (("proj", self.proj), ("c1", self.c1), ("c2", self.c2),
                            ("c3", self.c3), ("head", self.head)):
            out.update(layer.params(f"{prefix}.{name}"))
        return out


def _sigmoid_contacts(raw: Tensor) -> Tensor:
    """Apply a sigmoid to the 4 contact channels of a (B, 271, T) output."""
    body = raw[:, :SL_CONTACT.start, :]
    logits = raw[:, SL_CONTACT, :]
    return gn.concat([body, gn.sigmoid(logits)], axis=1)


def tokenize_windows(model, windows: np.ndarray, workspace=None) -> tuple:
    """The frozen tokenize: (n, T, width) float32 windows to the latents
    (n, T/4, d_z) and token ids (n, T/4) of ``model``'s encoder and codebook.

    Each window is encoded alone, as batch 1 on its own entry of the conv
    stack axis of one ``ConvEncoder.forward_array`` call, so its latents are
    bitwise those of encoding it by itself (a wider GEMM on the batch axis
    would sum in another order). ``workspace``, an ``EncoderWorkspace`` of
    shape (n, 1, width, T), lets a caller that tokenizes one shape again
    and again reuse its buffers; the latents returned are a copy, never a
    view of it. All rows go through one ``vq.quantize`` call, whose ids
    depend neither on the rows' layout nor on which rows share the call.
    Raises InvalidArgument unless the latents' squared distances to their
    entries sum to a finite value: finite frames can still overflow in the
    float32 cast, inside the convs or in the distances, and quantize maps a
    row with no finite distance to id 0.
    """
    z = model.encoder.forward_array(windows.swapaxes(1, 2)[:, None], workspace)
    n, _, d_z, S = z.shape
    rows = z.swapaxes(2, 3).reshape(n * S, d_z).copy()
    ids, codes = vq.quantize(rows, model.codebook)
    d = rows - codes
    if not np.einsum("ij,ij->", d, d) < np.inf:  # False for inf and NaN
        raise InvalidArgument("frames overflow the encoder: a latent has no finite distance")
    return rows.reshape(n, S, d_z), ids.reshape(n, S)


def flatten_latents(z: Tensor) -> Tensor:
    """(..., d_z, S) -> (N*S, d_z) over the N samples of the leading axes
    (a (B, d_z, S) batch or an (L, B, d_z, S) stack), batch-major then time."""
    lead = z.value.ndim - 2
    axes = (*range(lead), lead + 1, lead)
    return gn.reshape(gn.transpose(z, axes), (-1, z.value.shape[-2]))


def unflatten_latents(flat: Tensor, batch: int, d_z: int) -> Tensor:
    """(B*S, d_z) -> (B, d_z, S)."""
    S = flat.value.shape[0] // batch
    return gn.transpose(gn.reshape(flat, (batch, S, d_z)), (0, 2, 1))


class MotionVQVAE:
    """Motion autoencoder with a discrete bottleneck."""

    def __init__(self, cfg, *, rng, dtype=np.float32):
        self.encoder = ConvEncoder(MOTION_WIDTH, cfg.hidden, cfg.d_z, rng=rng, dtype=dtype)
        self.decoder = ConvDecoder(cfg.d_z, cfg.hidden, MOTION_WIDTH, rng=rng, dtype=dtype)
        # placeholder table until k-means seeding from the first batch
        init = rng.normal(0.0, 0.1, size=(cfg.K, cfg.d_z)).astype(dtype)
        self.codebook = vq.Codebook(init, gamma=cfg.gamma)

    def encode(self, x) -> Tensor:
        return self.encoder(x)

    def decode(self, codes) -> Tensor:
        return _sigmoid_contacts(self.decoder(codes))

    def params(self) -> dict:
        out = self.encoder.params("enc")
        out.update(self.decoder.params("dec"))
        return out


class ImuTokenizer:
    """IMU encoder with its own codebook; decodes through a motion decoder."""

    def __init__(self, cfg, *, rng, dtype=np.float32):
        self.encoder = ConvEncoder(IMU_WIDTH, cfg.hidden, cfg.d_z, rng=rng, dtype=dtype)
        init = rng.normal(0.0, 0.1, size=(cfg.K, cfg.d_z)).astype(dtype)
        self.codebook = vq.Codebook(init, gamma=cfg.gamma)

    def encode(self, x) -> Tensor:
        return self.encoder(x)

    def params(self) -> dict:
        return self.encoder.params("enc")


class BaselinePoser:
    """Continuous per-frame regression from IMU frames to motion frames.

    The same encoder and decoder as the tokenized path (including the fixed
    smoothing tail), so the capacity is matched, but every stride is 1 and
    there is no upsampling, latent bottleneck or quantization: each output
    frame is a continuous function of its input neighborhood, the way
    classic inertial posers regress pose from raw signals.
    """

    def __init__(self, cfg, *, rng, dtype=np.float32):
        self.encoder = ConvEncoder(IMU_WIDTH, cfg.hidden, cfg.d_z, rng=rng, dtype=dtype,
                                   stride=1)
        self.decoder = ConvDecoder(cfg.d_z, cfg.hidden, MOTION_WIDTH, rng=rng, dtype=dtype,
                                   upsample=1)

    def __call__(self, x) -> Tensor:
        return _sigmoid_contacts(self.decoder(self.encoder(x)))

    def params(self) -> dict:
        out = self.encoder.params("enc")
        out.update(self.decoder.params("dec"))
        return out


# (Codebook attribute, checkpoint array name) of the codebook state a
# checkpoint stores beside the parameters
_CODEBOOK_ARRAYS = (("entries", "cb.entries"), ("ema_sigma", "cb.sigma"),
                    ("ema_delta", "cb.delta"), ("dead_steps", "cb.dead"))


def model_arrays(model, prefix: str = "") -> dict:
    """Named parameter + codebook arrays for checkpointing."""
    out = {}
    for name, p in model.params().items():
        out[f"{prefix}{name}"] = p.value
    cb = getattr(model, "codebook", None)
    if cb is not None:
        for attr, name in _CODEBOOK_ARRAYS:
            out[f"{prefix}{name}"] = getattr(cb, attr)
    return out


def checkpoint_array(arrays: dict, key: str) -> np.ndarray:
    """``arrays[key]``; raises ConfigInvalid when the checkpoint lacks it."""
    if key not in arrays:
        raise ConfigInvalid(f"checkpoint missing array {key}")
    return arrays[key]


def load_model_arrays(model, arrays: dict, prefix: str = ""):
    """Restore parameters and codebook state in place and return ``model``.
    The restored parameters are frozen (``requires_grad`` False): a loaded
    model only runs inference, so its forward passes record no backward graph.
    Raises ConfigInvalid for a missing array or one of the wrong shape."""
    def restored(name, shape):
        key = f"{prefix}{name}"
        value = checkpoint_array(arrays, key)
        if value.shape != shape:
            raise ConfigInvalid(f"array {key} has shape {value.shape}, expected {shape}")
        return value.copy()

    for name, p in model.params().items():
        p.value = restored(name, p.value.shape)
        p.requires_grad = False
    cb = getattr(model, "codebook", None)
    if cb is not None:
        for attr, name in _CODEBOOK_ARRAYS:
            setattr(cb, attr, restored(name, getattr(cb, attr).shape))
    return model
