import numpy as np
import pytest

from imutok import gradnet as gn
from imutok import vqcodec
from imutok.errors import ShapeMismatch
from imutok.imusim import IMU_WIDTH
from imutok.models import (WINDOW_GROUP, BaselinePoser, ImuTokenizer, MotionVQVAE,
                           StackWorkspace, flatten_latents, tokenize_windows)
from imutok.trainer import TrainConfig, _rng, make_windows

TINY = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, window=32)


def same_array(got, want):
    return got.dtype == want.dtype and got.strides == want.strides and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg", [TINY, TrainConfig()], ids=["tiny", "desk"])
@pytest.mark.parametrize("model_type", [MotionVQVAE, ImuTokenizer, BaselinePoser])
def test_array_forward_is_the_tensor_forward_bitwise(cfg, model_type, dtype):
    # a freshly built, trainable model: the array forwards need no frozen one
    model = model_type(cfg, rng=_rng(3, 0), dtype=dtype)
    width = model.encoder.layers[0][1].weight.value.shape[1]
    rng = np.random.default_rng(5)
    if model_type is not BaselinePoser:
        for L in (1, 2, 3, 7):
            for T in (16, 37, 480):
                x = rng.normal(size=(L, 1, width, T)).astype(dtype)
                z = model.encode(gn.Tensor(x))
                got = model.encoder.forward_array(x)
                assert same_array(got, z.value), (L, T)
                rows = got.swapaxes(-1, -2).reshape(-1, got.shape[-2])
                assert same_array(rows, flatten_latents(z).value), (L, T)
    if model_type is MotionVQVAE:
        for B, S in ((1, 1), (1, 4), (2, 5), (1, 120)):
            # the (B, d_z, S) view of (B*S, d_z) code rows that decode_tokens makes
            z = rng.normal(size=(B, S, cfg.d_z)).astype(dtype).swapaxes(1, 2)
            got = model.decode_array(z)
            assert same_array(got, model.decode(gn.Tensor(z)).value), (B, S)
    if model_type is BaselinePoser:
        for B, T in ((1, 16), (1, 37), (2, 37), (1, 480)):
            x = rng.normal(size=(B, width, T)).astype(dtype)
            got = model.forward_array(x)
            assert same_array(got, model(gn.Tensor(x)).value), (B, T)


@pytest.mark.parametrize("n, T, model_type", [
    (1, 16, ImuTokenizer), (2, 16, ImuTokenizer), (3, 16, ImuTokenizer),
    (4, 16, ImuTokenizer), (5, 16, ImuTokenizer), (1, 480, ImuTokenizer),
    (2, 64, ImuTokenizer), (3, 64, MotionVQVAE), (16, 64, MotionVQVAE)])
def test_workspace_forward_is_the_fresh_forward_bitwise(n, T, model_type):
    # one workspace, reused for two inputs; each call matches a forward on
    # a workspace of its own and the Tensor forward, strides included
    model = model_type(TrainConfig(), rng=_rng(3, 0))
    width = model.encoder.layers[0][1].weight.value.shape[1]
    rng = np.random.default_rng(n * 1000 + T)
    ws = None
    for _ in range(2):
        x = rng.normal(size=(n, T, width)).astype(np.float32).swapaxes(1, 2)[:, None]
        if ws is None:
            ws = StackWorkspace(model.encoder, x.shape, x.dtype)
        got = model.encoder.forward_array(x, ws)
        fresh = model.encoder.forward_array(x)
        z = model.encode(gn.Tensor(np.ascontiguousarray(x))).value
        assert got.strides == fresh.strides == z.strides
        assert np.array_equal(got, fresh) and np.array_equal(got, z)


def test_workspace_reuse_leaves_returned_latents_alone():
    model = ImuTokenizer(TINY, rng=_rng(3, 0))
    rng = np.random.default_rng(4)
    first, second = (rng.normal(size=(3, 16, IMU_WIDTH)).astype(np.float32) for _ in range(2))
    workspaces = {}
    latents, ids = tokenize_windows(model, first, workspaces)
    kept = latents.copy(), ids.copy()
    (ws,) = workspaces.values()
    buffers = [ws.x, *(a for plan in ws.plans for a in (plan.cols, plan.y))]
    assert not any(np.shares_memory(out, b) for out in (latents, ids) for b in buffers)
    tokenize_windows(model, second, workspaces)
    assert np.array_equal(latents, kept[0]) and np.array_equal(ids, kept[1])
    want = tokenize_windows(model, first)
    assert np.array_equal(latents, want[0]) and np.array_equal(ids, want[1])


def test_workspace_of_another_shape_or_dtype_raises():
    model = ImuTokenizer(TINY, rng=_rng(3, 0))
    ws = StackWorkspace(model.encoder, (2, 1, IMU_WIDTH, 16), np.float32)
    for x in (np.zeros((3, 1, IMU_WIDTH, 16), np.float32),
              np.zeros((2, 1, IMU_WIDTH, 16), np.float64)):
        with pytest.raises(ShapeMismatch):
            model.encoder.forward_array(x, ws)


def test_workspace_of_an_upsampling_stack_raises():
    # its plans would read each layer's input without the repeat
    model = MotionVQVAE(TINY, rng=_rng(3, 0))
    with pytest.raises(ShapeMismatch):
        StackWorkspace(model.decoder, (1, 1, TINY.d_z, 4), np.float32)
    base = BaselinePoser(TINY, rng=_rng(3, 0))  # its decoder does not upsample
    x = np.random.default_rng(2).normal(size=(1, 1, TINY.d_z, 37)).astype(np.float32)
    ws = StackWorkspace(base.decoder, x.shape, x.dtype)
    assert same_array(base.decoder.forward_array(x, ws), base.decoder.forward_array(x))


@pytest.mark.parametrize("n", [0, 1, WINDOW_GROUP, WINDOW_GROUP + 5, 2 * WINDOW_GROUP + 3])
@pytest.mark.parametrize("model_type, T", [(ImuTokenizer, 16), (MotionVQVAE, 32)])
def test_tokenize_windows_equals_each_window_tokenized_alone(n, model_type, T):
    model = model_type(TINY, rng=_rng(3, 0))
    width = model.encoder.layers[0][1].weight.value.shape[1]
    windows = np.random.default_rng(n).normal(size=(n, T, width)).astype(np.float32)
    latents, ids = tokenize_windows(model, windows)
    assert latents.shape == (n, T // 4, TINY.d_z) and latents.dtype == np.float32
    assert ids.shape == (n, T // 4) and ids.dtype == np.int64
    assert latents.flags.c_contiguous and ids.flags.c_contiguous
    for k in range(n):
        z = model.encode(gn.Tensor(np.ascontiguousarray(windows[k].T)[None]))
        alone = flatten_latents(z).value
        assert np.array_equal(latents[k], alone), k
        assert np.array_equal(ids[k], vqcodec.quantize(alone, model.codebook)[0]), k
    # on workspaces the caller keeps: one per group shape, the same values
    workspaces = {}
    for _ in range(2):
        got = tokenize_windows(model, windows, workspaces)
        assert same_array(got[0], latents) and same_array(got[1], ids)
    shapes = {(len(windows[lo:lo + WINDOW_GROUP]), T, width) for lo in range(0, n, WINDOW_GROUP)}
    assert set(workspaces) == shapes


def test_tokenize_windows_takes_a_window_index():
    model = MotionVQVAE(TINY, rng=_rng(3, 0))
    rng = np.random.default_rng(6)
    frames = [rng.normal(size=(n, 271)) for n in (400, 45, 331)]
    index = make_windows(frames, 32)
    assert len(index) > 2 * WINDOW_GROUP and len(index) % WINDOW_GROUP
    got = tokenize_windows(model, index)
    want = tokenize_windows(model, index[:])
    assert same_array(got[0], want[0]) and same_array(got[1], want[1])
