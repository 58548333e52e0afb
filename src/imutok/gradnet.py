"""Minimal reverse-mode autodiff on numpy arrays, plus the layers and
optimizer the tokenizers need: 1D convolutions, linear maps, elementwise
activations, reductions, AdamW, cosine annealing.

Design notes:
  * a Tensor wraps one ndarray; ops record closures for the backward sweep
  * the arithmetic of every op a frozen forward runs is plain-array code
    (``ConvPlan``, ``leaky_relu_array``, ``depthwise_smooth_array``,
    ``sigmoid_array``) that the Tensor op wraps in a graph node, so an
    inference forward can call it directly and get the Tensor op's value
    bitwise, without the node's per-call overhead, and can keep a conv plan
    to reuse its buffers
  * dtype follows the inputs (float32 for training, float64 in precision
    tests), and every op is deterministic for fixed inputs
  * broadcasting is supported on elementwise ops; gradients are summed back
    over broadcast axes
  * ``backward`` releases the graph as it sweeps, as PyTorch does by
    default: once a node's backward has run, the node drops its gradient,
    its closure (with the arrays the closure saved) and its parents, so a
    node is freed as soon as the sweep is past it and nothing else holds
    it. Leaves (parameters and inputs) keep their ``.grad``. A released
    node's ``_backward`` is a sentinel that raises ``GraphReleased``, so a
    second ``backward`` through it fails instead of skipping its gradient
  * ``cpu_lanes()`` (the usable CPUs // the BLAS thread count) sizes the
    noise benchmark's thread pool; ``backward`` and ``AdamW.step`` run on
    the calling thread
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os

import numpy as np

from .errors import GraphReleased, NonScalarRoot, OutOfRange, ShapeMismatch


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy, read once
    through ctypes, or None when this numpy has no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        threads = get()
        return threads if threads >= 1 else None
    return None


def cpu_lanes() -> int:
    """How many BLAS calls can run side by side without sharing a CPU: the
    usable CPUs // the BLAS thread count, at least 1. A BLAS whose thread
    count cannot be read counts as using every CPU."""
    cpus = _usable_cpus()
    return max(1, cpus // (_blas_threads() or cpus))


class Tensor:
    """Array node in a dynamically recorded compute graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False, _parents=(), _backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        # _backward(g) accumulates the node's gradient g into its parents.
        # None marks a leaf; a node that backward has swept holds the
        # raising _released
        self._backward = _backward

    def __float__(self) -> float:
        return float(self.value)

    def backward(self) -> None:
        backward(self)

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


def _released(g):
    """The ``_backward`` of a node whose graph a sweep has released."""
    raise GraphReleased("backward reached a node whose graph an earlier backward released")


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into the leaves'
    .grad and releases the graph on the way.

    Each interior node, once its backward has run, drops its ``grad``, its
    parents and its closure, whose place the raising ``_released`` takes;
    the sweep pops nodes off its own list, so it holds none it has passed.
    Leaves keep their ``.grad``. Raises GraphReleased, before any gradient
    moves, when the graph reaches a released node: a second backward from
    the same root, or from a new root built on top of a released subgraph.
    """
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
        if node._backward is _released:
            _released(None)  # raises here, before the sweep moves any gradient
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    if root.grad is None:
        root.grad = np.zeros_like(root.value)
    root.grad += np.ones_like(root.value)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()


# ---------------------------------------------------------------------------
# elementwise and structural ops

def _unary(a: Tensor, out_val, grad) -> Tensor:
    """Node with one input; backward accumulates ``grad(g)`` into ``a``."""
    return _make(out_val, (a,), lambda g: _accum(a, grad(g)))


def _binary(a: Tensor, b: Tensor, out_val, grad_a, grad_b) -> Tensor:
    """Node with two inputs; backward accumulates ``grad_a(g)`` into ``a``,
    then ``grad_b(g)`` into ``b``, each summed back over broadcast axes and
    computed only when that input requires grad."""
    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(grad_a(g), a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(grad_b(g), b.value.shape))

    return _make(out_val, (a, b), bw)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value + b.value, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value - b.value, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value * b.value, lambda g: g * b.value, lambda g: g * a.value)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value / b.value, lambda g: g / b.value,
                   lambda g: -g * a.value / (b.value * b.value))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value @ b.value, lambda g: g @ np.swapaxes(b.value, -1, -2),
                   lambda g: np.swapaxes(a.value, -1, -2) @ g)


def log(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.log(a.value), lambda g: g / a.value)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.exp(a.value)
    return _unary(a, out_val, lambda g: g * out_val)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """1/(1+e) where x >= 0, else e/(1+e), for e = exp(-|x|), which cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    """``sigmoid_array`` as a graph node."""
    a = as_tensor(a)
    out_val = sigmoid_array(a.value)
    return _unary(a, out_val, lambda g: g * out_val * (1.0 - out_val))


def leaky_relu_array(x: np.ndarray, slope: float = 0.2, out=None, scratch=None) -> np.ndarray:
    """max(slope*x, x): for slope in (0, 1] bitwise where(x > 0, x, slope*x),
    NaN, infinities and signed zeros included, without a masked select
    (slope 0 would give NaN at +inf). ``scratch`` (x's shape and dtype)
    takes slope*x and ``out`` the result, so ``out=x`` works in place."""
    if not 0.0 < slope <= 1.0:
        raise OutOfRange(f"leaky_relu slope must be in (0, 1], got {slope}")
    return np.maximum(np.multiply(x, slope, out=scratch), x, out=out)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """``leaky_relu_array`` as a graph node. Its backward scales the
    gradient by max((x > 0), slope) in x's dtype, {1, slope} without a
    masked select: bitwise where(x > 0, g, g*slope)."""
    a = as_tensor(a)
    x = a.value

    def grad(g):
        factor = (x > 0).astype(x.dtype)
        return g * np.maximum(factor, slope, out=factor)

    return _unary(a, leaky_relu_array(x, slope), grad)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the input was inside [lo, hi].
    ``clip(a, lo, np.inf)`` is the floor at lo."""
    a = as_tensor(a)
    x = a.value
    inside = ((x >= lo) & (x <= hi)).astype(x.dtype)
    return _unary(a, np.clip(x, lo, hi), lambda g: g * inside)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape)

    return _unary(a, a.value.sum(axis=axis, keepdims=keepdims), grad)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.value.reshape(shape), lambda g: g.reshape(a.value.shape))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.value.transpose(axes), lambda g: g.transpose(np.argsort(axes)))


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

    def grad(g):
        # slice adds from zero in index order: bitwise the row sums of
        # g.reshape(..., factor).sum(axis=-1) below 8 terms, without its
        # short strided reductions
        out = np.zeros(a.value.shape, dtype=g.dtype)
        for j in range(factor):
            out += g[..., j::factor]
        return out

    return _unary(a, np.repeat(a.value, factor, axis=-1), grad)


def depthwise_smooth_array(x: np.ndarray, weights) -> np.ndarray:
    """Fixed per-channel smoothing along the last axis with replicate padding.

    ``weights`` is a constant odd-length 1-D kernel; every channel is
    filtered independently, so the op costs a handful of scaled adds instead
    of a dense convolution. The input is edge-padded once and the taps are
    summed from zero in tap order.
    """
    w = np.asarray(weights, dtype=np.float64)
    half, T = w.size // 2, x.shape[-1]
    if w.size % 2 != 1:
        raise ShapeMismatch("smoothing kernel length must be odd")
    if T < 1:
        raise ShapeMismatch("empty time axis")
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
    out = np.zeros(x.shape, dtype=x.dtype)
    for j, wj in enumerate(w):
        out += x.dtype.type(wj) * xp[..., j:j + T]
    return out


def depthwise_smooth(a, weights) -> Tensor:
    """``depthwise_smooth_array`` as a graph node; the kernel gets no
    gradient. The gradient is scattered into a padded array whose pad
    columns fold back onto the edge inputs."""
    a = as_tensor(a)
    x = a.value
    taps = [x.dtype.type(wj) for wj in np.asarray(weights, dtype=np.float64)]
    half, T = len(taps) // 2, x.shape[-1]

    def grad(g):
        gp = np.zeros((*x.shape[:-1], T + 2 * half), dtype=x.dtype)
        for j, wj in enumerate(taps):
            gp[..., j:j + T] += wj * g
        gx = gp[..., half:half + T]
        for j in range(half):
            gx[..., 0] += gp[..., j]
            gx[..., -1] += gp[..., half + T + j]
        return gx

    return _unary(a, depthwise_smooth_array(x, weights), grad)


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

@functools.lru_cache
def _conv_taps(T: int, Tout: int, k: int, stride: int, padding: int) -> tuple:
    """Per kernel tap j, the output steps [t0, t1) whose input position
    stride*t + j - padding lies inside [0, T), and the input slice they read.
    Taps that read only padding are left out. Cached: every conv call of one
    shape uses the same plan."""
    taps = []
    for j in range(k):
        t0 = max(0, -((j - padding) // stride))
        t1 = min(Tout, (T - 1 + padding - j) // stride + 1)
        if t1 > t0:
            s0 = stride * t0 + j - padding
            taps.append((j, t0, t1, slice(s0, s0 + stride * (t1 - t0 - 1) + 1, stride)))
    return tuple(taps)


class ConvPlan:
    """The buffers and views of one strided cross-correlation over a fixed
    input array: a (B, C, T) array or a stack (L, B, C, T) of them, a
    (B, C, T) input being the stack of one. Building a plan allocates the
    (Cin, k, L, B, Tout) column matrix with its padding zeroed, the
    (Cout, L, B, Tout) output, each tap's source and destination view, and
    the GEMM's operand and output views; ``run`` then reads the input's
    current values and allocates nothing. So a plan over a buffer that is
    refilled serves every call of one shape, and ``conv1d_forward`` builds
    one for its call.

    Output time length is floor((T + 2*padding - k) / stride) + 1.

    Each stack is one 2-D GEMM over its own channel-major (Cin*k, B*Tout)
    column matrix, and one np.matmul runs the L GEMMs, so a stack's output
    is bitwise what a call on it alone gives. (Stacks are not batched into
    one wider GEMM: another width sums in another order.) Padded positions
    are the zeros the tap copies leave untouched. Channel-major output lets
    the next conv's tap copies read contiguous rows.
    """

    def __init__(self, xv: np.ndarray, wv: np.ndarray, bv: np.ndarray, stride: int = 1,
                 padding: int = 0):
        if xv.ndim not in (3, 4):
            raise ShapeMismatch(f"conv input must be (B, C, T) or (L, B, C, T), got {xv.shape}")
        x4 = xv if xv.ndim == 4 else xv[None]
        L, B, Cin, T = x4.shape
        Cout, Cw, k = wv.shape
        if Cw != Cin:
            raise ShapeMismatch(f"conv expects {Cw} input channels, got {Cin}")
        Tp = T + 2 * padding
        if Tp < k:
            raise ShapeMismatch(f"time axis too short: {T} (+2*{padding}) < kernel {k}")
        Tout = (Tp - k) // stride + 1
        xc = x4.transpose(2, 0, 1, 3)                                # (Cin, L, B, T)
        cols = np.zeros((Cin, k, L, B, Tout), dtype=xv.dtype)
        self.taps = [(cols[:, j, :, :, t0:t1], xc[:, :, :, src])
                     for j, t0, t1, src in _conv_taps(T, Tout, k, stride, padding)]
        self.cols = cols.reshape(Cin * k, L * B * Tout)
        self.y = np.empty((Cout, L, B, Tout), dtype=np.result_type(xv, wv, bv))
        self.w_shape = (Cout, Cin * k)
        self.gemm_in = cols.reshape(Cin * k, L, B * Tout).swapaxes(0, 1)
        self.gemm_out = self.y.reshape(Cout, L, B * Tout).swapaxes(0, 1)
        self.y_rows = self.y.reshape(Cout, L * B * Tout)

    def run(self, wv: np.ndarray, bv: np.ndarray) -> np.ndarray:
        """The (Cout, L, B, Tout) output for the input's current values."""
        for dst, src in self.taps:
            dst[...] = src
        np.matmul(wv.reshape(self.w_shape), self.gemm_in, out=self.gemm_out)
        np.add(self.y_rows, bv[:, None], out=self.y_rows)
        return self.y


def conv1d_forward(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """The conv of one ``ConvPlan`` built for this call, as a graph node.
    The output is a (B, Cout, Tout) or (L, B, Cout, Tout) view of the
    channel-major array, so the incoming gradient reshapes to
    (Cout, L*B*Tout) without a copy; the weight and bias gradients sum over
    every stack in that matrix, against the plan's column matrix.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    xv, wv = x.value, weight.value
    plan = ConvPlan(xv, wv, bias.value, stride, padding)
    y, cols = plan.run(wv, bias.value), plan.cols
    Cout, L, B, Tout = y.shape
    out_val = y.transpose(1, 2, 0, 3).reshape(*xv.shape[:-2], Cout, Tout)

    def bw(g):
        g2 = g.reshape(L, B, Cout, Tout).transpose(2, 0, 1, 3).reshape(Cout, L * B * Tout)
        if x.requires_grad:
            Cin, T, k = *xv.shape[-2:], wv.shape[2]
            gcols = (wv.reshape(Cout, Cin * k).T @ g2).reshape(Cin, k, L, B, Tout)
            gx = np.zeros((Cin, L, B, T), dtype=xv.dtype)
            for j, t0, t1, dst in _conv_taps(T, Tout, k, stride, padding):
                gx[:, :, :, dst] += gcols[:, j, :, :, t0:t1]
            _accum(x, gx.transpose(1, 2, 0, 3).reshape(xv.shape))
        _accum(weight, (g2 @ cols.T).reshape(weight.value.shape))
        _accum(bias, g2.sum(axis=1))

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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Decoupled weight-decay Adam with bias-corrected moments."""

    def __init__(self, params: dict, lr: float = 2e-4, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
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
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            if g.shape != p.value.shape:
                raise ShapeMismatch(f"gradient shape {g.shape} != param shape {p.value.shape}")
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.value -= lr * (update + self.weight_decay * p.value)
