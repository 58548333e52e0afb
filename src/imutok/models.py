"""Encoder/decoder networks and the three model assemblies.

Both tokenizers share one architecture family: a strided 1D conv encoder
that maps (B, width, T) to (B, d_z, T/4), where two stride-2 stages realize
the 4-frames-per-token compression, and a mirrored decoder with nearest
upsampling. The baseline poser is the same encoder/decoder pair at stride 1
without upsampling or quantization, trained on reconstruction alone.

Encoder and decoder are two layer lists of one class, ``ConvStack``, whose
Tensor forward training differentiates and whose ``forward_array`` runs
frozen inference on plain arrays: every step from frames to token ids is
``tokenize_windows``, and decoding and the baseline are
``MotionVQVAE.decode_array`` and ``BaselinePoser.forward_array``.
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

# windows per encoder call in tokenize_windows: bounds the call's buffers
# (about 140 kB of im2col per motion window at the desk shape) and a
# caller's workspaces, at most WINDOW_GROUP group shapes per window shape
WINDOW_GROUP = 8


class ConvStack:
    """1D convs listed once as ``(name, Conv1d, upsample_before)``: a
    layer's input is first repeated ``upsample_before`` times along time,
    and leaky_relu follows every conv but the last; an optional fixed
    ``smooth`` kernel ends the stack. ``__call__`` (Tensors, for training)
    and ``forward_array`` (plain arrays, recording nothing) walk that list.
    """

    def __init__(self, layers: tuple, smooth=None):
        self.layers = layers
        self.smooth = smooth

    def __call__(self, x) -> Tensor:
        for i, (_, conv, up) in enumerate(self.layers):
            if up > 1:
                x = gn.upsample_nearest(x, up)
            x = conv(x)
            if i < len(self.layers) - 1:
                x = gn.leaky_relu(x, LEAKY_SLOPE)
        return x if self.smooth is None else gn.depthwise_smooth(x, self.smooth)

    def forward_array(self, x: np.ndarray, workspace=None) -> np.ndarray:
        """A (B, C, T) array or an (L, B, C, T) stack to its output, bitwise
        the value of ``__call__``, strides included; needs no frozen model.

        On ``workspace``, a ``StackWorkspace`` of x's shape and dtype, it
        reuses its buffers, and without a smooth tail the result is a view
        that the next forward on it overwrites. Without one, each layer
        builds its ``gradnet.ConvPlan`` for this call and drops it at the
        next, so a one-off call holds about two layers' buffers at a time.
        """
        stacked = x.ndim == 4
        if workspace is not None:
            if (x.shape, x.dtype) != (workspace.x.shape, workspace.x.dtype):
                raise ShapeMismatch(f"workspace holds {workspace.x.dtype} {workspace.x.shape} "
                                    f"input, got {x.dtype} {x.shape}")
            workspace.x[...] = x
            x = workspace.x
        for i, (_, conv, up) in enumerate(self.layers):
            w, b = conv.weight.value, conv.bias.value
            if workspace is None:
                if up > 1:
                    x = np.repeat(x, up, axis=-1)
                y = gn.ConvPlan(x, w, b, conv.stride, conv.padding).run(w, b)
            else:
                y = workspace.plans[i].run(w, b)
            if i < len(self.layers) - 1:
                scratch = None if workspace is None else workspace.scratch[i]
                gn.leaky_relu_array(y, LEAKY_SLOPE, out=y, scratch=scratch)
            x = y.transpose(1, 2, 0, 3)
        if self.smooth is not None:
            x = gn.depthwise_smooth_array(x, self.smooth)
        return x if stacked else x[0]

    def params(self, prefix: str) -> dict:
        out = {}
        for name, layer, _ in self.layers:
            out.update(layer.params(f"{prefix}.{name}"))
        return out


class StackWorkspace:
    """The buffers ``ConvStack.forward_array`` reuses for one input shape
    and dtype: an input buffer ``x``, one ``gradnet.ConvPlan`` per layer
    over the output of the layer before, and each in-place leaky_relu's
    scratch; a forward on it allocates nothing but a smooth tail's output.
    The plans read each layer's input in place, so a stack that upsamples
    has none (ShapeMismatch). Not safe to share between threads."""

    def __init__(self, stack: ConvStack, shape: tuple, dtype):
        if any(up > 1 for _, _, up in stack.layers):
            raise ShapeMismatch("a workspace cannot hold a stack that upsamples")
        self.x = np.empty(shape, dtype)
        h, self.plans = self.x, []
        for _, conv, _ in stack.layers:
            plan = gn.ConvPlan(h, conv.weight.value, conv.bias.value, conv.stride, conv.padding)
            self.plans.append(plan)
            h = plan.y.transpose(1, 2, 0, 3)
        self.scratch = [np.empty_like(plan.y) for plan in self.plans[:-1]]


def ConvEncoder(in_width: int, hidden: int, d_z: int, *, rng, dtype=np.float32,
                stride: int = 2) -> ConvStack:
    """width -> hidden (k4 s2) -> hidden (k4 s2) -> hidden (k3 s1) -> d_z (k1).

    With ``stride=1`` the two k4 layers keep the frame rate: the first pads
    2 (T -> T+1) and the second pads 1 (back to T).
    """
    return ConvStack((
        ("c1", Conv1d(in_width, hidden, 4, stride=stride, padding=3 - stride, rng=rng,
                      dtype=dtype), 1),
        ("c2", Conv1d(hidden, hidden, 4, stride=stride, padding=1, rng=rng, dtype=dtype), 1),
        ("c3", Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype), 1),
        ("proj", Conv1d(hidden, d_z, 1, rng=rng, dtype=dtype), 1),
    ))


def ConvDecoder(d_z: int, hidden: int, out_width: int, *, rng, dtype=np.float32,
                upsample: int = 2) -> ConvStack:
    """d_z (k1) -> hidden (k3) -> up2 -> hidden (k5) -> up2 -> hidden (k5) -> width (k5),
    then the fixed ``SMOOTH_KERNEL`` tail.

    The two post-upsample kernels span 5 steps so they can fully erase the
    period-4 staircase the nearest upsampling leaves behind; narrower kernels
    produce visible high-frequency texture in the decoded channels.
    """
    return ConvStack((
        ("proj", Conv1d(d_z, hidden, 1, rng=rng, dtype=dtype), 1),
        ("c1", Conv1d(hidden, hidden, 3, stride=1, padding=1, rng=rng, dtype=dtype), 1),
        ("c2", Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype), upsample),
        ("c3", Conv1d(hidden, hidden, 5, stride=1, padding=2, rng=rng, dtype=dtype), upsample),
        ("head", Conv1d(hidden, out_width, 5, stride=1, padding=2, rng=rng, dtype=dtype), 1),
    ), smooth=SMOOTH_KERNEL)


def _sigmoid_contacts(raw: Tensor) -> Tensor:
    """Apply a sigmoid to the 4 contact channels of a (B, 271, T) output."""
    body = raw[:, :SL_CONTACT.start, :]
    logits = raw[:, SL_CONTACT, :]
    return gn.concat([body, gn.sigmoid(logits)], axis=1)


def _sigmoid_contacts_array(raw: np.ndarray) -> np.ndarray:
    """``_sigmoid_contacts`` on an array of its own, in place."""
    raw[..., SL_CONTACT, :] = gn.sigmoid_array(raw[..., SL_CONTACT, :])
    return raw


def tokenize_windows(model, windows, workspaces: dict | None = None) -> tuple:
    """The frozen tokenize: n windows (an (n, T, width) float32 array or a
    ``trainer.WindowIndex``) to the latents (n, T/4, d_z) and token ids
    (n, T/4) of ``model``'s encoder and codebook.

    Each group of WINDOW_GROUP windows is one ``forward_array`` call, each
    window batch 1 on its own entry of the stack axis (a wider GEMM on the
    batch axis would sum in another order), and one ``vq.quantize_finite``
    call, whose ids depend neither on the rows' layout nor on which rows
    share it: the grouping changes no bit. Given ``workspaces``, a dict the
    caller keeps, each group shape runs on a ``StackWorkspace`` kept there;
    the latents returned are never a view of one. Raises InvalidArgument
    unless each group's latents lie at a finite total squared distance from
    their entries: finite frames can still overflow in the float32 cast or
    the convs, and quantize maps a row with no finite distance to id 0.
    """
    n, encoder, none = len(windows), model.encoder, windows[:0]
    dtype = np.result_type(none, encoder.layers[0][1].weight.value)
    latents = np.empty((n, none.shape[1] // COMPRESSION, model.codebook.entries.shape[1]), dtype)
    ids = np.empty(latents.shape[:2], np.int64)
    for lo in range(0, n, WINDOW_GROUP):
        group = windows[lo:lo + WINDOW_GROUP]
        x = group.swapaxes(1, 2)[:, None]
        ws = None if workspaces is None else workspaces.get(group.shape)
        if workspaces is not None and ws is None:
            ws = workspaces[group.shape] = StackWorkspace(encoder, x.shape, x.dtype)
        out = latents[lo:lo + len(group)]
        out[...] = encoder.forward_array(x, ws)[:, 0].swapaxes(1, 2)
        try:
            idx = vq.quantize_finite(out.reshape(-1, out.shape[2]), model.codebook)
        except InvalidArgument as err:
            raise InvalidArgument(f"frames overflow the encoder: {err}") from None
        ids[lo:lo + len(group)] = idx.reshape(len(group), -1)
    return latents, ids


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

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """``decode``'s value, strides included, on a (B, d_z, S) array."""
        return _sigmoid_contacts_array(self.decoder.forward_array(codes))

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

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """``__call__``'s value, strides included, on a (B, 72, T) array."""
        return _sigmoid_contacts_array(self.decoder.forward_array(self.encoder.forward_array(x)))

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
