"""Minimal reverse-mode autodiff on numpy arrays, plus the layers and
optimizer the tokenizers need: 1D convolutions, linear maps, elementwise
activations, reductions, AdamW, cosine annealing.

Design notes:
  * a Tensor wraps one ndarray; ops record closures for the backward sweep
  * dtype follows the inputs (float32 for training, float64 in precision
    tests), and every op is deterministic for fixed inputs
  * broadcasting is supported on elementwise ops; gradients are summed back
    over broadcast axes
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonScalarRoot, OutOfRange, ShapeMismatch


class Tensor:
    """Array node in a dynamically recorded compute graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False, _parents=(), _backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, grad={self.requires_grad})"

    # -- graph ---------------------------------------------------------

    def backward(self) -> None:
        backward(self)

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back to the pre-broadcast shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(value, parents, backward_fn) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(value, requires_grad=req,
                  _parents=parents if req else (),
                  _backward=backward_fn if req else None)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, since g may alias another node's buffer; the gradient takes
        # the value's memory layout, which fixes the summation order of the
        # reductions downstream of it
        t.grad = np.empty_like(t.value)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into .grad."""
    if root.value.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.value.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    if root.grad is None:
        root.grad = np.zeros_like(root.value)
    root.grad += np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value + b.value

    def bw(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return _make(out_val, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value - b.value

    def bw(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))

    return _make(out_val, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value * b.value

    def bw(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    return _make(out_val, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value / b.value

    def bw(g):
        _accum(a, _unbroadcast(g / b.value, a.value.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _make(out_val, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value @ b.value

    def bw(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape))

    return _make(out_val, (a, b), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.log(a.value)

    def bw(g):
        _accum(a, g / a.value)

    return _make(out_val, (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.exp(a.value)

    def bw(g):
        _accum(a, g * out_val)

    return _make(out_val, (a,), bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    out_val = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        _accum(a, g * out_val * (1.0 - out_val))

    return _make(out_val, (a,), bw)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    x = a.value
    out_val = np.where(x > 0, x, slope * x)

    def bw(g):
        _accum(a, np.where(x > 0, g, g * x.dtype.type(slope)))

    return _make(out_val, (a,), bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the input was inside [lo, hi]."""
    a = as_tensor(a)
    x = a.value
    out_val = np.clip(x, lo, hi)
    inside = ((x >= lo) & (x <= hi)).astype(x.dtype)

    def bw(g):
        _accum(a, g * inside)

    return _make(out_val, (a,), bw)


def maximum_const(a, c: float) -> Tensor:
    """Elementwise floor at c; gradient passes where the input dominates."""
    a = as_tensor(a)
    x = a.value
    out_val = np.maximum(x, c)
    mask = (x >= c).astype(x.dtype)

    def bw(g):
        _accum(a, g * mask)

    return _make(out_val, (a,), bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_val = a.value.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.value.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.value.shape).copy())

    return _make(out_val, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_val = a.value.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.value.shape))

    return _make(out_val, (a,), bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out_val = a.value.transpose(axes)
    inv = np.argsort(axes)

    def bw(g):
        _accum(a, g.transpose(inv))

    return _make(out_val, (a,), bw)


def take(a, idx) -> Tensor:
    """Indexing; integer-array indices gradient-scatter with accumulation."""
    a = as_tensor(a)
    out_val = a.value[idx]
    fancy = isinstance(idx, (np.ndarray, list)) or (
        isinstance(idx, tuple) and any(isinstance(i, (np.ndarray, list)) for i in idx))

    def bw(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        if fancy:
            np.add.at(a.grad, idx, g)
        else:
            a.grad[idx] += g

    return _make(out_val, (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out_val, tuple(tensors), bw)


def stop_gradient(a) -> Tensor:
    """Forward identity; blocks all gradient flow."""
    a = as_tensor(a)
    return Tensor(a.value)


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-stabilized softmax (the shift is a constant, which is exact)."""
    a = as_tensor(a)
    shift = Tensor(a.value.max(axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, tsum(e, axis=axis, keepdims=True))


def upsample_nearest(a, factor: int) -> Tensor:
    """Repeat each step along the last (time) axis ``factor`` times."""
    a = as_tensor(a)
    out_val = np.repeat(a.value, factor, axis=-1)

    def bw(g):
        _accum(a, g.reshape(*a.value.shape, factor).sum(axis=-1))

    return _make(out_val, (a,), bw)


def depthwise_smooth(a, weights) -> Tensor:
    """Fixed per-channel smoothing along the last axis with replicate padding.

    ``weights`` is a constant odd-length 1-D kernel (it receives no
    gradient); every channel is filtered independently, so the op costs a
    handful of scaled adds instead of a dense convolution.
    """
    a = as_tensor(a)
    w = np.asarray(weights, dtype=np.float64)
    k = w.size
    if k % 2 != 1:
        raise ShapeMismatch("smoothing kernel length must be odd")
    half = k // 2
    x = a.value
    T = x.shape[-1]
    if T < 1:
        raise ShapeMismatch("empty time axis")
    pad_width = [(0, 0)] * (x.ndim - 1) + [(half, half)]
    xp = np.pad(x, pad_width, mode="edge")
    out_val = np.zeros_like(x)
    for j in range(k):
        out_val += x.dtype.type(w[j]) * xp[..., j:j + T]

    def bw(g):
        if not a.requires_grad:
            return
        gp = np.zeros_like(xp)
        for j in range(k):
            gp[..., j:j + T] += x.dtype.type(w[j]) * g
        gx = gp[..., half:half + T].copy()
        # replicate padding: boundary pad columns fold back onto the edges
        for j in range(half):
            gx[..., 0] += gp[..., j]
            gx[..., -1] += gp[..., half + T + j]
        _accum(a, gx)

    return _make(out_val, (a,), bw)


def mse(pred, target) -> Tensor:
    """Mean squared error over all entries."""
    d = sub(pred, as_tensor(target))
    return tmean(mul(d, d))


def binary_cross_entropy(p, target, eps: float = 1e-7) -> Tensor:
    """Elementwise BCE with probability clamping; no reduction."""
    p = clip(as_tensor(p), eps, 1.0 - eps)
    t = as_tensor(target)
    one = 1.0
    return sub(mul(mul(t, log(p)), -1.0), mul(sub(one, t), log(sub(one, p))))


# ---------------------------------------------------------------------------
# 1D convolution

def _conv_taps(T: int, Tout: int, k: int, stride: int, padding: int):
    """Per kernel tap j, the output steps [t0, t1) whose input position
    stride*t + j - padding lies inside [0, T), and the input slice they read.
    Taps that read only padding are left out."""
    taps = []
    for j in range(k):
        t0 = max(0, -((j - padding) // stride))
        t1 = min(Tout, (T - 1 + padding - j) // stride + 1)
        if t1 > t0:
            s0 = stride * t0 + j - padding
            taps.append((j, t0, t1, slice(s0, s0 + stride * (t1 - t0 - 1) + 1, stride)))
    return taps


def conv1d_forward(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """Strided cross-correlation over (B, C, T) or (C, T) input.

    Output time length is floor((T + 2*padding - k) / stride) + 1.

    Each pass is one 2-D GEMM over a channel-major (Cin*k, B*Tout) column
    matrix; padded positions are the zeros the tap copies leave untouched.
    The output is a (B, Cout, Tout) view of a (Cout, B, Tout) array, so the
    next conv's tap copies read contiguous rows and the incoming gradient
    reshapes to (Cout, B*Tout) without a copy.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    squeeze = x.value.ndim == 2
    xv = x.value[None] if squeeze else x.value
    if xv.ndim != 3:
        raise ShapeMismatch(f"conv input must be 2-D or 3-D, got {x.value.shape}")
    B, Cin, T = xv.shape
    Cout, Cw, k = weight.value.shape
    if Cw != Cin:
        raise ShapeMismatch(f"conv expects {Cw} input channels, got {Cin}")
    Tp = T + 2 * padding
    if Tp < k:
        raise ShapeMismatch(f"time axis too short: {T} (+2*{padding}) < kernel {k}")
    Tout = (Tp - k) // stride + 1
    taps = _conv_taps(T, Tout, k, stride, padding)
    xc = xv.transpose(1, 0, 2)                                  # (Cin, B, T)
    cols = np.zeros((Cin, k, B, Tout), dtype=xv.dtype)
    for j, t0, t1, src in taps:
        cols[:, j, :, t0:t1] = xc[:, :, src]
    cols = cols.reshape(Cin * k, B * Tout)
    w_flat = weight.value.reshape(Cout, Cin * k)
    y = np.empty((Cout, B, Tout), dtype=np.result_type(xv, w_flat, bias.value))
    np.matmul(w_flat, cols, out=y.reshape(Cout, B * Tout))
    y += bias.value[:, None, None]
    out_val = y.transpose(1, 0, 2)
    if squeeze:
        out_val = out_val[0]

    def bw(g):
        g2 = (g[:, None] if squeeze else g.transpose(1, 0, 2)).reshape(Cout, B * Tout)
        _accum(weight, (g2 @ cols.T).reshape(weight.value.shape))
        _accum(bias, g2.sum(axis=1))
        if x.requires_grad:
            gcols = (w_flat.T @ g2).reshape(Cin, k, B, Tout)
            gx = np.zeros((Cin, B, T), dtype=xv.dtype)
            for j, t0, t1, dst in taps:
                gx[:, :, dst] += gcols[:, j, :, t0:t1]
            _accum(x, gx[:, 0] if squeeze else gx.transpose(1, 0, 2))

    return _make(out_val, (x, weight, bias), bw)


def linear_forward(x, weight, bias) -> Tensor:
    """y = x @ weight.T + bias over the last axis."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    out_val = x.value @ weight.value.T + bias.value

    def bw(g):
        _accum(weight, np.tensordot(g.reshape(-1, g.shape[-1]).T,
                                    x.value.reshape(-1, x.value.shape[-1]), axes=1))
        _accum(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
        _accum(x, g @ weight.value)

    return _make(out_val, (x, weight, bias), bw)


# ---------------------------------------------------------------------------
# layers

def _uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv1d:
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator,
                 dtype=np.float32):
        if stride < 1:
            raise ShapeMismatch("stride must be >= 1")
        fan_in = in_channels * kernel_size
        self.weight = Tensor(_uniform_init(rng, (out_channels, in_channels, kernel_size),
                                           fan_in, dtype), requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (out_channels,), fan_in, dtype),
                           requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x) -> Tensor:
        return conv1d_forward(x, self.weight, self.bias, self.stride, self.padding)

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.weight, f"{prefix}.b": self.bias}


class Linear:
    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = Tensor(_uniform_init(rng, (out_features, in_features),
                                           in_features, dtype), requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (out_features,), in_features, dtype),
                           requires_grad=True)

    def __call__(self, x) -> Tensor:
        return linear_forward(x, self.weight, self.bias)

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.weight, f"{prefix}.b": self.bias}


# ---------------------------------------------------------------------------
# optimization

def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at total_steps."""
    if total_steps <= 0:
        raise OutOfRange("total_steps must be positive")
    if step < 0 or step > total_steps:
        raise OutOfRange(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Decoupled weight-decay Adam with bias-corrected moments."""

    def __init__(self, params: dict, lr: float = 2e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            if g.shape != p.value.shape:
                raise ShapeMismatch(f"gradient shape {g.shape} != param shape {p.value.shape}")
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.value -= lr * (update + self.weight_decay * p.value)

    def state_arrays(self) -> dict:
        """Flat view of optimizer state for checkpointing."""
        out = {"opt.step": np.array([self.step_count], dtype=np.int64)}
        for k in self.params:
            out[f"opt.m.{k}"] = self.m[k]
            out[f"opt.v.{k}"] = self.v[k]
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.step_count = int(arrays["opt.step"][0])
        for k in self.params:
            self.m[k] = arrays[f"opt.m.{k}"].copy()
            self.v[k] = arrays[f"opt.v.{k}"].copy()
