import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import gradnet as gn
from imutok import vqcodec as vq
from imutok.errors import GraphReleased, NonScalarRoot, OutOfRange, ShapeMismatch
from imutok.gradnet import AdamW, Conv1d, Linear, Tensor, cosine_lr


def fd_gradcheck(fn, tensors, h=1e-4, rtol=1e-4, max_checks=40, seed=0):
    """Compare analytic gradients of scalar fn(*tensors) against central
    finite differences at randomly probed coordinates (float64 inputs)."""
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    rng = np.random.default_rng(seed)
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.value)
        flat = t.value.reshape(-1)
        n = flat.size
        for idx in rng.choice(n, size=min(max_checks, n), replace=False):
            x0 = flat[idx]
            flat[idx] = x0 + h
            f_plus = float(fn())
            flat[idx] = x0 - h
            f_minus = float(fn())
            flat[idx] = x0
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = grad.reshape(-1)[idx]
            scale = max(abs(numeric), abs(analytic), 1e-2)
            assert abs(numeric - analytic) / scale < rtol, (
                f"grad mismatch at {idx}: analytic {analytic}, numeric {numeric}")


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def naive_conv(x, w, b, s, p):
    """Nested-loop cross-correlation of a (B, Cin, T) input."""
    B, Cin, T = x.shape
    Cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p)))
    Tout = (T + 2 * p - k) // s + 1
    out = np.zeros((B, Cout, Tout))
    for bi in range(B):
        for o in range(Cout):
            for t in range(Tout):
                acc = b[o]
                for c in range(Cin):
                    for j in range(k):
                        acc += w[o, c, j] * xp[bi, c, t * s + j]
                out[bi, o, t] = acc
    return out


def im2col_conv_reference(x, w, b, stride, padding, g):
    """Forward output and (dW, db, dX) for upstream gradient g, by an
    im2col over np.pad with one small matmul per batch element."""
    B, Cin, T = x.shape
    Cout, _, k = w.shape
    Tp = T + 2 * padding
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    Tout = (Tp - k) // stride + 1
    v = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    cols = np.ascontiguousarray(v.transpose(0, 1, 3, 2)).reshape(B, Cin * k, Tout)
    w_flat = w.reshape(Cout, Cin * k)
    out = np.matmul(w_flat, cols) + b[:, None]
    gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = g.sum(axis=(0, 2))
    gcols = np.matmul(w_flat.T, g).reshape(B, Cin, k, Tout)
    gxp = np.zeros((B, Cin, Tp))
    for j in range(k):
        gxp[:, :, j:j + stride * Tout:stride] += gcols[:, :, j, :]
    return out, (gw, gb, gxp[:, :, padding:padding + T])


# ---------------------------------------------------------------------------
# reference ops: each with its own backward closure, as written before the ops
# shared gradnet's _unary/_binary helpers; the ported ops must match them bitwise

def ref_add(a, b):
    a, b = gn.as_tensor(a), gn.as_tensor(b)

    def bw(g):
        gn._accum(a, gn._unbroadcast(g, a.value.shape))
        gn._accum(b, gn._unbroadcast(g, b.value.shape))

    return gn._make(a.value + b.value, (a, b), bw)


def ref_sub(a, b):
    a, b = gn.as_tensor(a), gn.as_tensor(b)

    def bw(g):
        gn._accum(a, gn._unbroadcast(g, a.value.shape))
        gn._accum(b, gn._unbroadcast(-g, b.value.shape))

    return gn._make(a.value - b.value, (a, b), bw)


def ref_mul(a, b):
    a, b = gn.as_tensor(a), gn.as_tensor(b)

    def bw(g):
        gn._accum(a, gn._unbroadcast(g * b.value, a.value.shape))
        gn._accum(b, gn._unbroadcast(g * a.value, b.value.shape))

    return gn._make(a.value * b.value, (a, b), bw)


def ref_div(a, b):
    a, b = gn.as_tensor(a), gn.as_tensor(b)

    def bw(g):
        gn._accum(a, gn._unbroadcast(g / b.value, a.value.shape))
        gn._accum(b, gn._unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return gn._make(a.value / b.value, (a, b), bw)


def ref_matmul(a, b):
    a, b = gn.as_tensor(a), gn.as_tensor(b)

    def bw(g):
        gn._accum(a, gn._unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape))
        gn._accum(b, gn._unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape))

    return gn._make(a.value @ b.value, (a, b), bw)


def ref_unary(forward, local_grad):
    """A one-input op whose closure accumulates local_grad(g, x, out)."""
    def op(a):
        a = gn.as_tensor(a)
        out_val = forward(a.value)

        def bw(g):
            gn._accum(a, local_grad(g, a.value, out_val))

        return gn._make(out_val, (a,), bw)
    return op


def _ref_sigmoid_forward(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _ref_tsum(axis=None, keepdims=False):
    def local_grad(g, x, out):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape).copy()
    return ref_unary(lambda x: x.sum(axis=axis, keepdims=keepdims), local_grad)


def _ref_smooth_grad(w):
    def local_grad(g, x, out):
        k, half, T = w.size, w.size // 2, x.shape[-1]
        gp = np.zeros(x.shape[:-1] + (T + 2 * half,), dtype=x.dtype)
        for j in range(k):
            gp[..., j:j + T] += x.dtype.type(w[j]) * g
        gx = gp[..., half:half + T].copy()
        for j in range(half):
            gx[..., 0] += gp[..., j]
            gx[..., -1] += gp[..., half + T + j]
        return gx
    return local_grad


def _ref_smooth_forward(w):
    def forward(x):
        half, T = w.size // 2, x.shape[-1]
        xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
        out = np.zeros_like(x)
        for j in range(w.size):
            out += x.dtype.type(w[j]) * xp[..., j:j + T]
        return out
    return forward


SMOOTH = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

# (id, ported op, reference, input shapes, inputs kept positive)
PORTED_OPS = [
    ("add", gn.add, ref_add, [(5, 4), (4,)], False),
    ("add_leading", gn.add, ref_add, [(5, 1), (3, 5, 4)], False),
    ("sub", gn.sub, ref_sub, [(5, 4), (5, 1)], False),
    ("mul", gn.mul, ref_mul, [(3, 1, 4), (5, 4)], False),
    ("mul_same_node", lambda a: gn.mul(a, a), lambda a: ref_mul(a, a), [(4, 6)], False),
    ("div", gn.div, ref_div, [(5, 4), (4,)], True),
    ("matmul", gn.matmul, ref_matmul, [(2, 5, 3), (3, 7)], False),
    ("log", gn.log, ref_unary(np.log, lambda g, x, o: g / x), [(4, 6)], True),
    ("exp", gn.exp, ref_unary(np.exp, lambda g, x, o: g * o), [(4, 6)], False),
    ("sigmoid", gn.sigmoid,
     ref_unary(_ref_sigmoid_forward, lambda g, x, o: g * o * (1.0 - o)), [(4, 6)], False),
    ("leaky_relu", lambda a: gn.leaky_relu(a, 0.2),
     ref_unary(lambda x: np.where(x > 0, x, 0.2 * x),
               lambda g, x, o: np.where(x > 0, g, g * x.dtype.type(0.2))), [(4, 6)], False),
    ("clip", lambda a: gn.clip(a, -0.5, 0.7),
     ref_unary(lambda x: np.clip(x, -0.5, 0.7),
               lambda g, x, o: g * ((x >= -0.5) & (x <= 0.7)).astype(x.dtype)), [(4, 6)], False),
    ("floor", lambda a: gn.clip(a, 0.1, np.inf),
     ref_unary(lambda x: np.maximum(x, 0.1),
               lambda g, x, o: g * (x >= 0.1).astype(x.dtype)), [(4, 6)], False),
    ("tsum", gn.tsum, _ref_tsum(), [(4, 6)], False),
    ("tsum_axis", lambda a: gn.tsum(a, axis=1), _ref_tsum(axis=1), [(4, 6)], False),
    ("tsum_keepdims", lambda a: gn.tsum(a, axis=0, keepdims=True),
     _ref_tsum(axis=0, keepdims=True), [(4, 6)], False),
    ("reshape", lambda a: gn.reshape(a, (6, 4)),
     ref_unary(lambda x: x.reshape(6, 4), lambda g, x, o: g.reshape(x.shape)), [(4, 6)], False),
    ("transpose", lambda a: gn.transpose(a, (2, 0, 1)),
     ref_unary(lambda x: x.transpose(2, 0, 1), lambda g, x, o: g.transpose(1, 2, 0)),
     [(2, 3, 4)], False),
    ("upsample_nearest", lambda a: gn.upsample_nearest(a, 3),
     ref_unary(lambda x: np.repeat(x, 3, axis=-1),
               lambda g, x, o: g.reshape(*x.shape, 3).sum(axis=-1)), [(2, 3, 4)], False),
    ("depthwise_smooth", lambda a: gn.depthwise_smooth(a, SMOOTH),
     ref_unary(_ref_smooth_forward(SMOOTH), _ref_smooth_grad(SMOOTH)), [(2, 3, 9)], False),
    ("straight_through", lambda a: vq.straight_through(a, np.round(a.value)),
     ref_unary(np.round, lambda g, x, o: g), [(4, 6)], False),
]


class TestBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        gn.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_non_scalar_root_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NonScalarRoot):
            gn.mul(x, 2.0).backward()

    def test_stop_gradient_blocks(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = Tensor(np.array([5.0, 7.0]), requires_grad=True)
        loss = gn.tsum(gn.mul(gn.stop_gradient(x), y))
        loss.backward()
        assert x.grad is None
        assert np.array_equal(y.grad, x.value)

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        loss = gn.add(gn.mul(x, 2.0), gn.mul(x, 3.0))
        gn.tsum(loss).backward()
        assert_allclose(x.grad, [5.0])

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8, 16))
        layer = Conv1d(8, 5, 3, padding=1, rng=np.random.default_rng(1))
        a = layer(Tensor(x)).value
        b = layer(Tensor(x)).value
        assert np.array_equal(a, b)


class TestPortedOpsMatchReferences:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,op,ref,shapes,positive", PORTED_OPS,
                             ids=[c[0] for c in PORTED_OPS])
    def test_value_and_gradients_bitwise(self, name, op, ref, shapes, positive, dtype):
        rng = np.random.default_rng(len(name))
        lo = 0.5 if positive else -2.0
        values = [rng.uniform(lo, 2.0, size=s).astype(dtype) for s in shapes]
        # every input live, then (binary ops) each side in turn a constant
        patterns = [(True,) * len(shapes)]
        if len(shapes) == 2:
            patterns += [(True, False), (False, True)]
        for live in patterns:
            results = []
            for f in (op, ref):
                leaves = [Tensor(v.copy(), requires_grad=r) for v, r in zip(values, live)]
                out = f(*leaves)
                g = np.random.default_rng(1).normal(size=out.value.shape).astype(dtype)
                out._backward(g)
                results.append([out.value] + [t.grad for t in leaves])
            for got, want in zip(*results):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want), (name, live)


class TestElementwiseGradients:
    @pytest.mark.parametrize("op", [
        lambda x: gn.tsum(gn.mul(x, x)),
        lambda x: gn.tsum(gn.leaky_relu(x, 0.2)),
        lambda x: gn.tsum(gn.sigmoid(x)),
        lambda x: gn.tsum(gn.exp(gn.mul(x, 0.3))),
        lambda x: gn.tsum(gn.log(gn.add(gn.mul(x, x), 1.0))),
        lambda x: gn.tmean(gn.mul(x, gn.sigmoid(x))),
        lambda x: gn.tsum(gn.softmax(x, axis=1)[:, :2]),
        lambda x: gn.tsum(gn.upsample_nearest(x, 3)),
    ])
    def test_fd(self, op):
        rng = np.random.default_rng(42)
        for trial in range(3):
            x = leaf(rng, 4, 6)
            # keep clear of the leaky-relu kink
            x.value[np.abs(x.value) < 0.05] += 0.1
            fd_gradcheck(lambda: op(x), [x], seed=trial)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_gradient_equals_mask_product(self, dtype):
        # reference: the upstream gradient times a {1, slope} mask in the input dtype
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(6, 40)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(6, 40)).astype(dtype)
        gn.tsum(gn.mul(gn.leaky_relu(x, 0.2), g)).backward()
        want = g * np.where(x.value > 0, 1.0, 0.2).astype(dtype)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, want)

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    @pytest.mark.parametrize("slope", [0.2, 1.0, 1e-30])
    def test_leaky_relu_gradient_is_bitwise_the_masked_select(self, dtype, bits, slope):
        # every pair of special input and gradient values, quiet NaNs with a
        # payload among them: g scaled by max(x > 0, slope) is where(x > 0, g, g*slope)
        fi = np.finfo(dtype)
        tiny = fi.smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                            fi.tiny, -fi.tiny, fi.max, -fi.max, 1.0, -1.0, 0.3], dtype)
        payload = np.array([0x7FC00123, 0xFFC00123] if dtype == np.float32 else
                           [0x7FF8000000000123, 0xFFF8000000000123], bits).view(dtype)
        values = np.concatenate([special, payload])
        xv, g = (a.copy() for a in np.meshgrid(values, values))
        x = Tensor(xv, requires_grad=True)
        node = gn.leaky_relu(x, slope)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            node._backward(g)
            want = np.where(xv > 0, g, g * dtype(slope))
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad.view(bits), want.view(bits))

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    @pytest.mark.parametrize("slope", [0.2, 0.5, 1.0, 1e-30])
    def test_leaky_relu_forward_is_bitwise_the_masked_select(self, dtype, bits, slope):
        fi = np.finfo(dtype)
        tiny = fi.smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny,
                   -3 * tiny, fi.tiny, -fi.tiny, fi.max, -fi.max, 1.0, -1.0]
        # quiet NaNs with a payload, and signaling NaNs of both signs
        nans = [0x7FC00123, 0xFFC00123, 0x7FA00000, 0xFFA00000] if dtype == np.float32 else \
            [0x7FF8000000000123, 0xFFF8000000000123, 0x7FF4000000000000, 0xFFF4000000000000]
        rng = np.random.default_rng(8)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            spread = (rng.normal(size=2000) * np.logspace(-320, 300, 2000)).astype(dtype)
            x = np.concatenate([np.array(special, dtype), np.array(nans, bits).view(dtype), spread])
            want = np.where(x > 0, x, slope * x)
            got = gn.leaky_relu(x, slope).value
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), want.view(bits))

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
    def test_leaky_relu_slope_out_of_range(self, slope):
        with pytest.raises(OutOfRange):
            gn.leaky_relu(np.ones(3), slope)

    def test_broadcast_add_mul_div(self):
        rng = np.random.default_rng(3)
        a = leaf(rng, 5, 4)
        b = leaf(rng, 4)
        c = leaf(rng, 5, 1)
        c.value += 3.0  # keep divisor away from zero
        fd_gradcheck(lambda: gn.tsum(gn.div(gn.mul(gn.add(a, b), b), c)), [a, b, c])

    def test_matmul_gradients(self):
        rng = np.random.default_rng(4)
        a = leaf(rng, 5, 3)
        b = leaf(rng, 3, 7)
        fd_gradcheck(lambda: gn.tsum(gn.mul(gn.matmul(a, b), 0.5)), [a, b])

    def test_linear_gradients(self):
        rng = np.random.default_rng(5)
        lin = Linear(6, 4, rng=rng, dtype=np.float64)
        x = leaf(rng, 10, 6)
        fd_gradcheck(lambda: gn.tsum(gn.sigmoid(lin(x))),
                     [x, lin.weight, lin.bias])

    def test_slicing_concat_transpose_reshape(self):
        rng = np.random.default_rng(6)
        x = leaf(rng, 6, 8)

        def fn():
            a = x[:3, :]
            b = x[3:, :]
            y = gn.concat([gn.transpose(a, (1, 0)), gn.transpose(b, (1, 0))], axis=1)
            return gn.tsum(gn.mul(gn.reshape(y, (8, 6)), gn.reshape(y, (8, 6))))

        fd_gradcheck(fn, [x])

    def test_fancy_index_gradient_scatters(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        gn.tsum(x[idx]).backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 2.0, 0.0, 1.0])

    def test_clip_and_floor_gradients(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        gn.tsum(gn.clip(x, 0.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])
        y = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        gn.tsum(gn.clip(y, 0.0, np.inf)).backward()
        assert np.array_equal(y.grad, [0.0, 1.0])

    def test_bce_matches_closed_form(self):
        p = Tensor(np.array([0.5, 0.9, 0.1]))
        t = np.array([1.0, 1.0, 0.0])
        val = gn.binary_cross_entropy(p, t).value
        assert_allclose(val, [np.log(2.0), -np.log(0.9), -np.log(0.9)], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_upsample_gradient_is_bitwise_the_reshape_sum(self, dtype, factor):
        # every factor-tuple of signed zeros, ones, infinities, NaN and the
        # smallest subnormals, one tuple per output step
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, tiny, -tiny],
                           dtype=dtype)
        side = 3 ** factor
        g = np.stack(np.meshgrid(*[special] * factor, indexing="ij"), axis=-1)
        g = g.reshape(side, side * factor)
        a = Tensor(np.zeros((side, side), dtype=dtype), requires_grad=True)
        with np.errstate(invalid="ignore"):
            gn.upsample_nearest(a, factor)._backward(g)
            want = g.reshape(side, side, factor).sum(axis=-1)
        assert a.grad.dtype == want.dtype
        assert a.grad.tobytes() == want.tobytes()

    def test_depthwise_smooth_preserves_constants(self):
        x = Tensor(np.full((2, 3, 10), 7.5))
        w = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        out = gn.depthwise_smooth(x, w)
        assert_allclose(out.value, 7.5, rtol=1e-12)

    def test_depthwise_smooth_matches_direct_filter(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 12))
        w = np.array([0.25, 0.5, 0.25])
        out = gn.depthwise_smooth(Tensor(x), w).value
        xp = np.pad(x, ((0, 0), (1, 1)), mode="edge")
        want = 0.25 * xp[:, :-2] + 0.5 * xp[:, 1:-1] + 0.25 * xp[:, 2:]
        assert_allclose(out, want, rtol=1e-12)

    @staticmethod
    def _smooth_reference(x, w, g):
        """Value and gradient through an edge-padded copy, as first written."""
        half, T = len(w) // 2, x.shape[-1]
        xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
        out = np.zeros_like(x)
        for j in range(len(w)):
            out += x.dtype.type(w[j]) * xp[..., j:j + T]
        gp = np.zeros_like(xp)
        for j in range(len(w)):
            gp[..., j:j + T] += x.dtype.type(w[j]) * g
        gx = gp[..., half:half + T].copy()
        for j in range(half):
            gx[..., 0] += gp[..., j]
            gx[..., -1] += gp[..., half + T + j]
        return out, gx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depthwise_smooth_bitwise_equals_padded_reference(self, dtype):
        rng = np.random.default_rng(9)
        kernels = [[1.0], [0.25, 0.5, 0.25], np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0,
                   rng.normal(size=7)]
        for T in (1, 2, 3, 4, 5, 6, 7, 50):
            for w in kernels:
                for shape in ((T,), (3, T), (2, 5, T)):
                    x = rng.normal(size=shape).astype(dtype)
                    g = rng.normal(size=shape).astype(dtype)
                    t = Tensor(x, requires_grad=True)
                    y = gn.depthwise_smooth(t, w)
                    gn.tsum(gn.mul(y, Tensor(g))).backward()
                    want_y, want_g = self._smooth_reference(x, np.asarray(w), g)
                    assert y.value.tobytes() == want_y.tobytes(), (T, len(w), shape)
                    assert t.grad.tobytes() == want_g.tobytes(), (T, len(w), shape)

    def test_depthwise_smooth_gradients(self):
        rng = np.random.default_rng(8)
        x = leaf(rng, 2, 4, 9)
        w = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        fd_gradcheck(lambda: gn.tsum(gn.mul(gn.depthwise_smooth(x, w),
                                            gn.depthwise_smooth(x, w))), [x])


class TestConv1d:
    def test_kernel1_identity(self):
        rng = np.random.default_rng(0)
        layer = Conv1d(3, 3, 1, rng=rng)
        layer.weight.value = np.eye(3, dtype=np.float32).reshape(3, 3, 1)
        layer.bias.value = np.zeros(3, dtype=np.float32)
        x = rng.normal(size=(1, 3, 10)).astype(np.float32)
        assert_allclose(layer(Tensor(x)).value, x, rtol=1e-6)

    def test_output_length_formula(self):
        rng = np.random.default_rng(1)
        layer = Conv1d(2, 4, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(np.zeros((1, 2, 16))))
        assert out.value.shape == (1, 4, 8)
        for T, k, s, p in [(16, 4, 2, 1), (64, 3, 1, 1), (17, 5, 3, 2), (9, 1, 1, 0)]:
            lay = Conv1d(1, 1, k, stride=s, padding=p, rng=rng)
            got = lay(Tensor(np.zeros((1, 1, T)))).value.shape[2]
            assert got == (T + 2 * p - k) // s + 1

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            Cin, Cout = rng.integers(1, 5), rng.integers(1, 5)
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            T = int(rng.integers(k + 2, 20))
            B = int(rng.integers(1, 3))
            layer = Conv1d(Cin, Cout, k, stride=s, padding=p, rng=rng, dtype=np.float64)
            x = rng.normal(size=(B, Cin, T))
            got = layer(Tensor(x)).value
            assert_allclose(got, naive_conv(x, layer.weight.value, layer.bias.value, s, p),
                            atol=1e-6)

    def test_naive_loop_oracle_on_channel_major_view(self):
        # a (B, C, T) view of a (C, B, T) array, as a conv's own output is
        rng = np.random.default_rng(12)
        for _ in range(10):
            Cin, Cout = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            T = int(rng.integers(k + 2, 20))
            B = int(rng.integers(2, 4))
            layer = Conv1d(Cin, Cout, k, stride=s, padding=p, rng=rng, dtype=np.float64)
            x = rng.normal(size=(B, Cin, T))
            want = naive_conv(x, layer.weight.value, layer.bias.value, s, p)
            xin = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
            assert not xin.flags.c_contiguous
            assert_allclose(layer(Tensor(xin)).value, want, atol=1e-6)

    def test_gradients_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            layer = Conv1d(3, 4, int(rng.integers(1, 5)), stride=int(rng.integers(1, 3)),
                           padding=int(rng.integers(0, 2)), rng=rng, dtype=np.float64)
            x = leaf(rng, 2, 3, 12)
            fd_gradcheck(lambda: gn.tsum(gn.mul(layer(x), layer(x))),
                         [x, layer.weight, layer.bias], seed=trial)

    @pytest.mark.parametrize("T,k,s,p", [(3, 4, 2, 1), (1, 4, 1, 2), (2, 5, 3, 3)])
    def test_gradients_with_padding_only_taps(self, T, k, s, p):
        # some taps read only padding, on the left, the right or both
        rng = np.random.default_rng(T * 100 + k * 10 + p)
        layer = Conv1d(2, 3, k, stride=s, padding=p, rng=rng, dtype=np.float64)
        x = leaf(rng, 2, 2, T)
        fd_gradcheck(lambda: gn.tsum(gn.mul(layer(x), layer(x))),
                     [x, layer.weight, layer.bias])

    def test_matches_im2col_reference_float64(self):
        rng = np.random.default_rng(9)
        for T, k, s, p, B in [(16, 4, 2, 1, 3), (64, 5, 1, 2, 2), (17, 3, 3, 2, 1),
                              (9, 1, 1, 0, 4), (3, 4, 2, 1, 2), (12, 4, 1, 2, 1)]:
            layer = Conv1d(5, 6, k, stride=s, padding=p, rng=rng, dtype=np.float64)
            x = Tensor(rng.normal(size=(B, 5, T)), requires_grad=True)
            out = layer(x)
            g = rng.normal(size=out.value.shape)
            out._backward(g)
            want, (gw, gb, gx) = im2col_conv_reference(
                x.value, layer.weight.value, layer.bias.value, s, p, g)
            assert_allclose(out.value, want, rtol=1e-12, atol=1e-13)
            assert_allclose(layer.weight.grad, gw, rtol=1e-12, atol=1e-13)
            assert_allclose(layer.bias.grad, gb, rtol=1e-12, atol=1e-13)
            assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("cin,cout,k,s,p,T", [(72, 128, 4, 2, 1, 16), (128, 128, 4, 2, 1, 8),
                                                  (128, 128, 3, 1, 1, 4), (128, 64, 1, 1, 0, 4)])
    def test_stack_equals_separate_calls_bitwise(self, cin, cout, k, s, p, T):
        # the IMU encoder's layers at 16-frame chunks, where one batch of L
        # chunks (a wider GEMM) sums in another order than L batch-1 calls
        rng = np.random.default_rng(cin + T)
        layer = Conv1d(cin, cout, k, stride=s, padding=p, rng=rng)
        for L, B in [(1, 1), (7, 1), (3, 2)]:
            x = rng.normal(size=(L, B, cin, T)).astype(np.float32)
            got = layer(Tensor(x)).value
            assert got.shape == (L, B, cout, (T + 2 * p - k) // s + 1)
            for i in range(L):
                assert np.array_equal(got[i], layer(Tensor(x[i])).value)

    def test_gradients_on_a_stack(self):
        rng = np.random.default_rng(13)
        layer = Conv1d(3, 4, 4, stride=2, padding=1, rng=rng, dtype=np.float64)
        x = leaf(rng, 3, 2, 3, 10)
        fd_gradcheck(lambda: gn.tsum(gn.mul(layer(x), layer(x))),
                     [x, layer.weight, layer.bias])
        # weight and bias gradients sum over stacks; each input stack gets its own
        grads = []
        for i in range(3):
            xi = Tensor(x.value[i].copy(), requires_grad=True)
            layer.weight.grad = layer.bias.grad = None
            gn.tsum(gn.mul(layer(xi), layer(xi))).backward()
            grads.append((layer.weight.grad, layer.bias.grad, xi.grad))
        x.grad = layer.weight.grad = layer.bias.grad = None
        gn.tsum(gn.mul(layer(x), layer(x))).backward()
        assert_allclose(layer.weight.grad, sum(g[0] for g in grads), rtol=1e-12)
        assert_allclose(layer.bias.grad, sum(g[1] for g in grads), rtol=1e-12)
        assert_allclose(x.grad, np.stack([g[2] for g in grads]), rtol=1e-12)

    def test_channel_mismatch_raises(self):
        layer = Conv1d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            gn.ConvPlan(np.zeros((1, 1, 2, 10)), layer.weight.value, layer.bias.value)
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.zeros((1, 2, 10))))
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.zeros((2, 1, 2, 10))))
        with pytest.raises(ShapeMismatch):  # input must carry a batch axis
            layer(Tensor(np.zeros((3, 10))))
        with pytest.raises(ShapeMismatch):  # and at most one stack axis
            layer(Tensor(np.zeros((1, 1, 1, 3, 10))))


class TestOptimizer:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert_allclose(p.value, [1.0, -2.0], atol=1e-12)

    def test_single_step_closed_form(self):
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # bias correction makes mhat = vhat = 1, so the step is lr/(1 + eps)
        assert_allclose(p.value, [0.7 - 0.1 / (1.0 + 1e-8)], rtol=1e-12)

    def test_pure_decay_is_multiplicative(self):
        p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.05, weight_decay=0.01)
        p.grad = np.zeros(2)
        opt.step()
        assert_allclose(p.value, np.array([2.0, -3.0]) * (1 - 0.05 * 0.01), rtol=1e-15)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        for _ in range(500):
            opt.zero_grad()
            loss = gn.tsum(gn.mul(p, p))
            loss.backward()
            opt.step()
        assert abs(p.value[0]) < 1e-3

    def test_bad_gradient_shape_and_a_tensor_under_two_names(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(3)
        with pytest.raises(ShapeMismatch):
            AdamW({"p": p}).step()
        # under two names a tensor is updated twice, in dict order: distinct
        # first moments make the order show
        p.grad = np.array([0.5, -0.25])
        opt = AdamW({"x": p, "y": p}, lr=0.1)
        opt.m["y"][:] = [3.0, 1.0]
        want = Tensor(p.value.copy(), requires_grad=True)
        want.grad = p.grad
        for name in ("x", "y"):
            single = AdamW({name: want}, lr=0.1)
            single.m[name][:] = opt.m[name]
            single.step()
        opt.step()
        assert p.value.tobytes() == want.value.tobytes()
        assert opt.step_count == 1


def _shared_conv_loss(rng, reuse_weight=False):
    """(loss, convs, input) of a float32 net whose second conv runs three
    times, so its weight and bias gradients are sums whose order shows.
    With ``reuse_weight`` the first conv's weight also enters the loss
    directly, so an op other than its conv writes its gradient."""
    c1 = Conv1d(6, 16, 3, padding=1, rng=rng)
    c2 = Conv1d(16, 16, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(4, 6, 40)).astype(np.float32), requires_grad=True)
    h = gn.leaky_relu(c1(x))
    for _ in range(3):
        h = gn.leaky_relu(c2(h))
    loss = gn.tsum(gn.mul(h, h))
    if reuse_weight:
        loss = gn.add(loss, gn.tsum(gn.mul(c1.weight, c1.weight)))
    return loss, (c1, c2), x


def _grads(convs, x):
    return [t.grad for c in convs for t in (c.weight, c.bias)] + [x.grad]


class TestSpareCpu:
    @pytest.mark.parametrize("cpus,blas,lanes", [(2, 1, 2), (2, 2, 1), (8, 3, 2), (1, 1, 1),
                                                 (4, None, 1)])
    def test_cpu_lanes_is_cpus_over_blas_threads(self, monkeypatch, cpus, blas, lanes):
        monkeypatch.setattr(gn, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(gn, "_blas_threads", lambda: blas)
        assert gn.cpu_lanes() == lanes

    def test_backward_and_step_start_no_thread(self, monkeypatch):
        # even with CPUs to spare, training's backward sweep and AdamW step
        # run on the calling thread alone
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 3)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        loss, convs, x = _shared_conv_loss(np.random.default_rng(5))
        loss.backward()
        params = {f"{i}.{n}": t for i, c in enumerate(convs)
                  for n, t in (("w", c.weight), ("b", c.bias))}
        before = [p.value.copy() for p in params.values()]
        AdamW(params, lr=1e-2).step()
        assert started == []
        assert all(p.grad is not None for p in params.values())
        assert not any(np.array_equal(p.value, b) for p, b in zip(params.values(), before))

    def test_backward_is_bitwise_the_serial_sweep(self, monkeypatch):
        # backward does not consult cpu_lanes: with CPUs to spare it writes
        # the gradients it writes with none, run after run
        for reuse in (False, True):
            grads = {}
            for lanes in (1, 3, 3, 3):
                monkeypatch.setattr(gn, "cpu_lanes", lambda: lanes)
                loss, convs, x = _shared_conv_loss(np.random.default_rng(5), reuse)
                loss.backward()
                grads.setdefault(lanes, []).append(_grads(convs, x))
            for run in grads[3]:
                for got, want in zip(run, grads[1][0], strict=True):
                    assert got.tobytes() == want.tobytes()

    def test_a_parameter_another_op_writes_keeps_the_serial_sweep(self, monkeypatch):
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 3)
        writes = []
        accum = gn._accum
        monkeypatch.setattr(gn, "_accum",
                            lambda t, g: writes.append(threading.get_ident()) or accum(t, g))
        loss, _, _ = _shared_conv_loss(np.random.default_rng(5), reuse_weight=True)
        loss.backward()
        assert writes and set(writes) == {threading.get_ident()}

    def test_no_thread_outlives_backward_or_step(self, monkeypatch):
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 3)
        before = threading.active_count()
        loss, convs, x = _shared_conv_loss(np.random.default_rng(5))
        loss.backward()
        assert threading.active_count() == before
        params = {f"{i}.{n}": t for i, c in enumerate(convs)
                  for n, t in (("w", c.weight), ("b", c.bias))}
        AdamW(params).step()
        assert threading.active_count() == before

    def test_step_is_bitwise_the_serial_update(self, monkeypatch):
        shapes = [(16, 6, 3), (16,), (16, 16, 3), (16,), (5, 7)]
        results = []
        for lanes in (1, 3):
            monkeypatch.setattr(gn, "cpu_lanes", lambda: lanes)
            r = np.random.default_rng(9)
            params = {f"p{i}": Tensor(r.normal(size=s).astype(np.float32), requires_grad=True)
                      for i, s in enumerate(shapes)}
            opt = AdamW(params, lr=1e-2)
            for _ in range(3):
                for p in params.values():
                    p.grad = r.normal(size=p.value.shape).astype(np.float32)
                opt.step()
            results.append([opt.step_count]
                           + [opt.m[k].tobytes() for k in params]
                           + [opt.v[k].tobytes() for k in params]
                           + [p.value.tobytes() for p in params.values()])
        assert results[0] == results[1]

    def test_step_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(gn, "cpu_lanes", lambda: 3)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        params = {n: Tensor(np.ones(s, dtype=np.float32), requires_grad=True)
                  for n, s in [("a.w", (16, 6, 3)), ("a.b", (16,)), ("b.w", (16, 16, 3)),
                               ("b.b", (16,))]}
        for p in params.values():
            p.grad = np.ones_like(p.value)
        AdamW(params, lr=1e-2).step()
        assert started == []
        assert all((p.value < 1.0).all() for p in params.values())


def _graph(root):
    """Every node reachable from ``root`` through parents, in the order
    ``backward`` sweeps them in reverse (parents before children)."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents
                     if id(p) not in seen and p.requires_grad)
    return order


def _retaining_sweep(root):
    """The sweep that releases nothing: each node's backward in backward's
    order, every node left as it was."""
    order = _graph(root)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


class TestRelease:
    # backward does not consult cpu_lanes, so it releases and sums the same
    # with CPUs to spare as without
    @pytest.mark.parametrize("lanes", [1, 3])
    def test_no_interior_node_keeps_grad_parents_or_closure(self, monkeypatch, lanes):
        monkeypatch.setattr(gn, "cpu_lanes", lambda: lanes)
        loss, convs, x = _shared_conv_loss(np.random.default_rng(5), reuse_weight=True)
        nodes = _graph(loss)
        interior = [n for n in nodes if n._backward is not None]
        leaves = [n for n in nodes if n._backward is None]
        assert len(interior) > 10 and len(leaves) == 5
        loss.backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            assert node._backward is gn._released
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_leaf_grads_are_bitwise_the_retaining_sweep(self, monkeypatch, lanes):
        monkeypatch.setattr(gn, "cpu_lanes", lambda: lanes)
        for reuse in (False, True):
            loss, convs, x = _shared_conv_loss(np.random.default_rng(5), reuse)
            loss.backward()
            ref_loss, ref_convs, ref_x = _shared_conv_loss(np.random.default_rng(5), reuse)
            _retaining_sweep(ref_loss)
            for got, want in zip(_grads(convs, x), _grads(ref_convs, ref_x), strict=True):
                assert got.tobytes() == want.tobytes()

    def test_second_backward_from_the_same_root_raises(self):
        loss, convs, x = _shared_conv_loss(np.random.default_rng(5))
        loss.backward()
        before = [g.copy() for g in _grads(convs, x)]
        with pytest.raises(GraphReleased):
            loss.backward()
        assert all(np.array_equal(a, b) for a, b in zip(_grads(convs, x), before, strict=True))

    def test_a_new_root_on_a_released_subgraph_raises(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        y = Tensor(np.full(3, 2.0), requires_grad=True)
        h = gn.mul(x, x)
        gn.tsum(h).backward()
        grad_x = x.grad.copy()
        # the new root reaches y directly and x only through released h: no
        # gradient moves, not even y's
        with pytest.raises(GraphReleased):
            gn.tsum(gn.mul(h, y)).backward()
        assert np.array_equal(x.grad, grad_x) and y.grad is None


class TestCosineSchedule:
    def test_boundary_values(self):
        assert cosine_lr(0, 100, 2e-4, 0.0) == pytest.approx(2e-4)
        assert cosine_lr(100, 100, 2e-4, 1e-6) == pytest.approx(1e-6)
        assert cosine_lr(50, 100, 2e-4, 0.0) == pytest.approx(1e-4)

    def test_midpoint_is_mean(self):
        lo, hi = 1e-6, 2e-4
        assert cosine_lr(50, 100, hi, lo) == pytest.approx((hi + lo) / 2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cosine_lr(-1, 100, 1e-3, 0.0)
        with pytest.raises(OutOfRange):
            cosine_lr(101, 100, 1e-3, 0.0)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 200, 2e-4, 1e-6) for s in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
