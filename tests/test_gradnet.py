import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import gradnet as gn
from imutok.errors import NonScalarRoot, OutOfRange, ShapeMismatch
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
        gn.tsum(gn.maximum_const(y, 0.0)).backward()
        assert np.array_equal(y.grad, [0.0, 1.0])

    def test_bce_matches_closed_form(self):
        p = Tensor(np.array([0.5, 0.9, 0.1]))
        t = np.array([1.0, 1.0, 0.0])
        val = gn.binary_cross_entropy(p, t).value
        assert_allclose(val, [np.log(2.0), -np.log(0.9), -np.log(0.9)], rtol=1e-12)

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
        x = rng.normal(size=(3, 10)).astype(np.float32)
        assert_allclose(layer(Tensor(x)).value, x, rtol=1e-6)

    def test_output_length_formula(self):
        rng = np.random.default_rng(1)
        layer = Conv1d(2, 4, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(np.zeros((2, 16))))
        assert out.value.shape == (4, 8)
        for T, k, s, p in [(16, 4, 2, 1), (64, 3, 1, 1), (17, 5, 3, 2), (9, 1, 1, 0)]:
            lay = Conv1d(1, 1, k, stride=s, padding=p, rng=rng)
            got = lay(Tensor(np.zeros((1, T)))).value.shape[1]
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

    @pytest.mark.parametrize("layout", ["channel_major", "unbatched"])
    def test_naive_loop_oracle_on_other_input_layouts(self, layout):
        # a (B, C, T) view of a (C, B, T) array, as a conv's own output is,
        # and a 2-D (C, T) input
        rng = np.random.default_rng(12)
        for _ in range(10):
            Cin, Cout = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            T = int(rng.integers(k + 2, 20))
            B = int(rng.integers(2, 4)) if layout == "channel_major" else 1
            layer = Conv1d(Cin, Cout, k, stride=s, padding=p, rng=rng, dtype=np.float64)
            x = rng.normal(size=(B, Cin, T))
            want = naive_conv(x, layer.weight.value, layer.bias.value, s, p)
            if layout == "channel_major":
                xin = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
                assert not xin.flags.c_contiguous
            else:
                xin, want = x[0], want[0]
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

    def test_channel_mismatch_raises(self):
        layer = Conv1d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.zeros((2, 10))))


class TestOptimizer:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert_allclose(p.value, [1.0, -2.0], atol=1e-12)

    def test_single_step_closed_form(self):
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
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

    def test_state_round_trip(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p})
        p.grad = np.array([0.5])
        opt.step()
        arrays = opt.state_arrays()
        opt2 = AdamW({"p": p})
        opt2.load_state_arrays(arrays)
        assert opt2.step_count == 1
        assert np.array_equal(opt2.m["p"], opt.m["p"])
        assert np.array_equal(opt2.v["p"], opt.v["p"])


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
