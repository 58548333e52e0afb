import numpy as np
import pytest

from imutok import gradnet as gn
from imutok.errors import ShapeMismatch
from imutok.imusim import IMU_WIDTH
from imutok.models import (EncoderWorkspace, ImuTokenizer, MotionVQVAE, flatten_latents,
                           tokenize_windows)
from imutok.trainer import TrainConfig, _rng

TINY = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, window=32)


@pytest.mark.parametrize("cfg", [TINY, TrainConfig()], ids=["tiny", "desk"])
@pytest.mark.parametrize("model_type", [MotionVQVAE, ImuTokenizer])
def test_array_forward_is_the_tensor_forward_bitwise(cfg, model_type):
    # a freshly built, trainable model: the array forward needs no frozen one
    model = model_type(cfg, rng=_rng(3, 0))
    width = model.encoder.layers[0][1].weight.value.shape[1]
    rng = np.random.default_rng(5)
    for L in (1, 2, 3, 7):
        for T in (16, 37, 480):
            x = rng.normal(size=(L, 1, width, T)).astype(np.float32)
            z = model.encode(gn.Tensor(x))
            got = model.encoder.forward_array(x)
            assert got.strides == z.value.strides and np.array_equal(got, z.value), (L, T)
            rows = got.swapaxes(-1, -2).reshape(-1, got.shape[-2])
            want = flatten_latents(z).value
            assert rows.strides == want.strides and np.array_equal(rows, want), (L, T)



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
            ws = EncoderWorkspace(model.encoder, x.shape, x.dtype)
        got = model.encoder.forward_array(x, ws)
        fresh = model.encoder.forward_array(x)
        z = model.encode(gn.Tensor(np.ascontiguousarray(x))).value
        assert got.strides == fresh.strides == z.strides
        assert np.array_equal(got, fresh) and np.array_equal(got, z)


def test_workspace_reuse_leaves_returned_latents_alone():
    model = ImuTokenizer(TINY, rng=_rng(3, 0))
    rng = np.random.default_rng(4)
    first, second = (rng.normal(size=(3, 16, IMU_WIDTH)).astype(np.float32) for _ in range(2))
    ws = EncoderWorkspace(model.encoder, (3, 1, IMU_WIDTH, 16), np.float32)
    latents, ids = tokenize_windows(model, first, ws)
    kept = latents.copy(), ids.copy()
    buffers = [ws.x, *(a for plan in ws.plans for a in (plan.cols, plan.y))]
    assert not any(np.shares_memory(out, b) for out in (latents, ids) for b in buffers)
    tokenize_windows(model, second, ws)
    assert np.array_equal(latents, kept[0]) and np.array_equal(ids, kept[1])
    want = tokenize_windows(model, first)
    assert np.array_equal(latents, want[0]) and np.array_equal(ids, want[1])


def test_workspace_of_another_shape_or_dtype_raises():
    model = ImuTokenizer(TINY, rng=_rng(3, 0))
    ws = EncoderWorkspace(model.encoder, (2, 1, IMU_WIDTH, 16), np.float32)
    for x in (np.zeros((3, 1, IMU_WIDTH, 16), np.float32),
              np.zeros((2, 1, IMU_WIDTH, 16), np.float64)):
        with pytest.raises(ShapeMismatch):
            model.encoder.forward_array(x, ws)
