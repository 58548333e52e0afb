import numpy as np
import pytest

from imutok import gradnet as gn
from imutok.models import ImuTokenizer, MotionVQVAE, flatten_latents
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

