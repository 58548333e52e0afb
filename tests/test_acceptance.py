"""Acceptance suite: one test per criterion, each printing a pass/fail line
into the terminal summary. Criteria 7-9 train real models at the desk-scale
configuration and share fixtures; expect the module to take several minutes
of CPU.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import geom
from imutok import gradnet as gn
from imutok import vqcodec as vq
from imutok.checkpoint import load_checkpoint
from imutok.evalbench import (augment_and_normalize, jitter, run_noise_benchmark,
                              synthesize_pairs, train_baseline_poser)
from imutok.gradnet import Conv1d, Linear, Tensor
from imutok.imusim import normalize_acceleration, synthesize_imu
from imutok.models import MotionVQVAE, flatten_latents
from imutok.motion import RawPoseTrack, build_motion_representation, generate_synthetic_motion
from imutok.skeleton import STANDING_ROOT_HEIGHT
from imutok.stream import (InferencePipeline, StreamState, push_frames,
                           read_token_stream, tokenize_sequence, write_token_stream)
from imutok.trainer import (TrainConfig, _rng, make_windows, train_imu_tokenizer,
                            train_motion_vqvae)
from imutok.imusim import InertiaSequence
from tests.conftest import record_criterion
from tests.test_gradnet import fd_gradcheck

DESK_STEPS_STAGE1 = 4000
DESK_STEPS_STAGE2 = 2500
DESK_STEPS_BASELINE = 2500


def desk_config(total_steps: int, seed: int = 0) -> TrainConfig:
    meta = TrainConfig().as_meta()
    meta["total_steps"] = total_steps
    meta["seed"] = seed
    return TrainConfig.from_meta(meta)


@pytest.fixture(scope="module")
def training_data():
    raw = synthesize_pairs(range(32), duration_s=8.0, fps=60.0)
    pairs, stats = augment_and_normalize(raw, seed=7)
    return pairs, stats


@pytest.fixture(scope="module")
def heldout_raw():
    return synthesize_pairs(range(10_000, 10_016), duration_s=8.0, fps=60.0)


@pytest.fixture(scope="module")
def motion_ckpt(training_data, tmp_path_factory):
    pairs, _ = training_data
    path = tmp_path_factory.mktemp("acc") / "motion.mjc"
    cfg = desk_config(DESK_STEPS_STAGE1)
    train_motion_vqvae([m for m, _ in pairs], cfg, ckpt_path=path)
    return path


@pytest.fixture(scope="module")
def imu_ckpt(training_data, motion_ckpt, tmp_path_factory):
    pairs, stats = training_data
    path = tmp_path_factory.mktemp("acc") / "imu.mjc"
    cfg = desk_config(DESK_STEPS_STAGE2)
    train_imu_tokenizer(pairs, motion_ckpt, cfg, stats, ckpt_path=path)
    return path


@pytest.fixture(scope="module")
def baseline_ckpt(training_data, tmp_path_factory):
    pairs, stats = training_data
    path = tmp_path_factory.mktemp("acc") / "baseline.mjc"
    cfg = desk_config(DESK_STEPS_BASELINE)
    train_baseline_poser(pairs, cfg, stats, ckpt_path=path)
    return path


# ---------------------------------------------------------------------------

def test_criterion_1_quantizer_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    mismatches = 0
    for trial in range(1000):
        S = int(rng.integers(1, 65))
        K = int(rng.integers(2, 65))
        d = int(rng.integers(1, 17))
        Z = rng.normal(size=(S, d))
        C = rng.normal(size=(K, d))
        if trial % 3 == 0:
            # engineered ties: duplicate entries and exact midpoints
            C[K // 2] = C[0]
            Z[0] = 0.5 * (C[0] + C[min(1, K - 1)])
        idx, codes = vq.quantize(Z, C)
        # exhaustive scan oracle: strict lowest-index argmin over the same
        # per-pair distance values
        dists = np.sum((Z[:, None, :] - C[None, :, :]) ** 2, axis=2)
        want = np.empty(S, dtype=np.int64)
        for s in range(S):
            best, best_d = 0, dists[s, 0]
            for k in range(1, K):
                if dists[s, k] < best_d:
                    best, best_d = k, dists[s, k]
            want[s] = best
        if not np.array_equal(idx, want):
            mismatches += 1
        assert np.array_equal(codes, C[idx])
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    record_criterion(1, "quantizer equals exhaustive scan on 1000 instances", ok,
                     f"{mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    n_inst = 20

    def clear_kinks(x):
        x.value[np.abs(x.value) < 0.05] += 0.1
        return x

    for i in range(n_inst):
        # conv1d (random shape) and linear
        layer = Conv1d(3, 4, int(rng.integers(1, 5)), stride=int(rng.integers(1, 3)),
                       padding=int(rng.integers(0, 2)), rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
        fd_gradcheck(lambda: gn.tsum(gn.sigmoid(layer(x))),
                     [x, layer.weight, layer.bias], max_checks=8, seed=i)
        lin = Linear(5, 3, rng=rng, dtype=np.float64)
        xl = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        fd_gradcheck(lambda: gn.tmean(gn.mul(lin(xl), lin(xl))),
                     [xl, lin.weight, lin.bias], max_checks=8, seed=i)

        # activations
        xa = clear_kinks(Tensor(rng.normal(size=(4, 5)), requires_grad=True))
        fd_gradcheck(lambda: gn.tsum(gn.leaky_relu(xa, 0.2)), [xa], max_checks=8, seed=i)
        fd_gradcheck(lambda: gn.tsum(gn.sigmoid(xa)), [xa], max_checks=8, seed=i)

        # motion objective components through live tensors
        B, T, S, d_z = 1, 8, 2, 4
        M = rng.normal(size=(B, 271, T))
        M[:, 267:271, :] = (rng.random(size=(B, 4, T)) > 0.5).astype(float)
        M_hat = Tensor(rng.normal(size=(B, 271, T)), requires_grad=True)
        M_hat.value[:, 267:271, :] = rng.uniform(0.2, 0.8, size=(B, 4, T))
        Z = Tensor(rng.normal(size=(B * S, d_z)), requires_grad=True)
        codes = rng.normal(size=(B * S, d_z))

        def motion_total():
            p_hat = gn.clip(M_hat[:, 267:271, :], 0.05, 0.95)
            jv = gn.reshape(M_hat[:, 0:12, :], (B, 4, 3, T))
            total, _ = vq.motion_vq_losses(M, M_hat, Z, codes, M[:, 267:271, :],
                                           p_hat, jv, vq.LossWeights())
            return total

        fd_gradcheck(motion_total, [M_hat, Z], max_checks=10, seed=i)

        # straight-through: gradient w.r.t. latents equals the numeric
        # gradient w.r.t. the codes treated as a leaf
        z_st = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        st_codes = rng.normal(size=(5, 3))
        w_mix = rng.normal(size=(3, 4))

        def head(inp):
            h = gn.matmul(inp, Tensor(w_mix))
            return gn.tsum(gn.mul(gn.sigmoid(h), h))

        head(vq.straight_through(z_st, st_codes)).backward()
        leaf = Tensor(st_codes.copy(), requires_grad=True)
        fd_gradcheck(lambda: head(leaf), [leaf], max_checks=15, seed=i)
        leaf.grad = None
        head(leaf).backward()
        assert_allclose(z_st.grad, leaf.grad, rtol=1e-9)

        # soft token frequency + distribution matching objective
        Zf = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        Cf = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        zipf = vq.zipf_target(vq.ZipfParams(K=6))

        def freq_loss():
            f = vq.batch_token_frequency(Zf, Cf, temperature=0.7, rng=None)
            return vq.js_divergence(f, zipf)

        fd_gradcheck(freq_loss, [Zf, Cf], max_checks=8, seed=i)

        # IMU tokenizer objective
        b_m = rng.normal(size=(6, 4))
        z_i = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        f_i = Tensor(rng.dirichlet(np.ones(6) * 5), requires_grad=True)
        f_m = rng.dirichlet(np.ones(6) * 5)

        def imu_total():
            total, _ = vq.imu_tokenizer_losses(
                vq.straight_through(z_i, z_i.value * 0.9), b_m, f_i, f_m, zipf,
                vq.LossWeights())
            return total

        fd_gradcheck(imu_total, [f_i], max_checks=8, h=1e-5, seed=i)

    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    record_criterion(2, "all differentiable ops pass finite-difference checks",
                     ok, f"{n_inst} instances/op, {elapsed:.1f}s")
    assert ok


def test_criterion_3_ema_fixed_point():
    gamma, eps = 0.99, 1e-3
    c0 = np.array([[4.0, -1.0, 0.25], [0.0, 0.0, 0.0]])
    cb = vq.Codebook(c0, gamma=gamma, init_mass=eps)
    z = np.array([[1.0, 2.0, -3.0]])

    cb.ema_update(z, np.array([0]))
    closed_form = (gamma * eps * c0[0] + (1 - gamma) * z[0]) / (gamma * eps + (1 - gamma))
    single_ok = np.abs(cb.entries[0] - closed_form).max() < 1e-12

    cb2 = vq.Codebook(c0, gamma=gamma, init_mass=eps)
    for _ in range(1000):
        cb2.ema_update(z, np.array([0]))
    residual = np.linalg.norm(cb2.entries[0] - z[0])
    converge_ok = residual < 1e-6

    ok = single_ok and converge_ok
    record_criterion(3, "EMA codebook update: closed form and fixed point", ok,
                     f"residual {residual:.2e}")
    assert ok


def test_criterion_4_rotation_round_trips():
    rng = np.random.default_rng(4)
    R = np.stack([geom.random_rotation(rng) for _ in range(10_000)])
    back = geom.rot6d_to_matrix_batch(geom.matrix_to_rot6d_batch(R))
    worst = np.linalg.norm((back - R).reshape(len(R), -1), axis=1).max()
    round_ok = worst < 1e-10

    w_small = geom.angular_velocity(np.eye(3), geom.exp_so3([0, 0, 0.01]), 0.01)
    analytic_ok = np.abs(w_small - [0, 0, 1.0]).max() < 1e-6
    R0 = geom.random_rotation(rng)
    w_zero = geom.angular_velocity(R0, R0, 0.02)
    analytic_ok &= np.abs(w_zero).max() < 1e-6
    axis = np.array([0.6, 0.8, 0.0])
    w_axis = geom.angular_velocity(np.eye(3), geom.exp_so3(axis * 0.5), 0.25)
    analytic_ok &= np.abs(w_axis - axis * 2.0).max() < 1e-6

    ok = round_ok and bool(analytic_ok)
    record_criterion(4, "6D rotation round trips and angular velocity", ok,
                     f"worst Frobenius {worst:.1e}")
    assert ok


def test_criterion_5_imu_synthesis_physics():
    fps, T = 60.0, 240
    t = np.arange(T) / fps
    A, f = 0.1, 1.0
    root_pos = np.zeros((T, 3))
    root_pos[:, 1] = STANDING_ROOT_HEIGHT
    root_pos[:, 0] = A * np.sin(2 * np.pi * f * t)
    track = RawPoseTrack(root_pos=root_pos, root_rot=np.tile(np.eye(3), (T, 1, 1)),
                         local_rots=np.tile(np.eye(3), (T, 21, 1, 1)), fps=fps)
    seq = synthesize_imu(track)
    analytic = A * (2 * np.pi * f) ** 2
    measured = np.abs(seq.acc[2:-2, 0, 0]).max()
    acc_ok = abs(measured - analytic) / analytic < 0.02

    rate = 1.0
    rot_track = RawPoseTrack(
        root_pos=np.tile(root_pos[:1], (T, 1)),
        root_rot=np.stack([geom.exp_so3([0, 0, rate * i / fps]) for i in range(T)]),
        local_rots=np.tile(np.eye(3), (T, 21, 1, 1)), fps=fps)
    gyro = synthesize_imu(rot_track).gyro[1:-1, 0]
    gyro_ok = np.abs(gyro - np.array([0.0, 0.0, rate])).max() < 1e-6

    ok = acc_ok and gyro_ok
    record_criterion(5, "virtual IMU matches analytic acceleration and rate", ok,
                     f"|a| {measured:.4f} vs {analytic:.4f}")
    assert ok


def test_criterion_6_jitter_metric():
    fps = 60.0
    t = np.arange(180) / fps
    cubic = np.zeros((180, 1, 3))
    cubic[:, 0, 0] = t ** 3 / 6.0
    j_cubic = jitter(cubic, fps)
    cubic_ok = abs(j_cubic - 0.01) / 0.01 < 0.01

    linear = np.zeros((180, 2, 3))
    linear[:, :, 2] = (1.3 * t)[:, None]
    j_lin = jitter(linear, fps)
    linear_ok = j_lin < 1e-9

    ok = cubic_ok and linear_ok
    record_criterion(6, "jitter metric matches analytic cubic and constant velocity",
                     ok, f"cubic {j_cubic:.5f}, linear {j_lin:.1e}")
    assert ok


def test_criterion_7_trainability_overfit(tmp_path):
    track = generate_synthetic_motion(3, 64 / 60.0, 60.0, "walk")
    seq = build_motion_representation(track)
    assert len(seq) == 64
    cfg = desk_config(3000, seed=11)

    t0 = time.monotonic()
    p1, p2 = tmp_path / "o1.mjc", tmp_path / "o2.mjc"
    _, report = train_motion_vqvae([seq], cfg, ckpt_path=p1)
    elapsed = time.monotonic() - t0
    final_recon = report.records[-1]["recon"]

    train_motion_vqvae([seq], cfg, ckpt_path=p2)
    a, b = load_checkpoint(p1), load_checkpoint(p2)
    bitwise = all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)

    ok = final_recon < 1e-2 and elapsed < 600.0 and bitwise
    record_criterion(7, "motion autoencoder overfits one sequence deterministically",
                     ok, f"per-dim MSE {final_recon:.2e}, {elapsed:.0f}s, bitwise={bitwise}")
    assert ok


def test_criterion_8_distribution_matching(training_data, heldout_raw, motion_ckpt,
                                            imu_ckpt):
    _, stats = training_data
    pipe = InferencePipeline.from_checkpoint(load_checkpoint(imu_ckpt))
    cfg = pipe.cfg
    held_norm = [(m, normalize_acceleration(i, stats)) for m, i in heldout_raw]
    mw = make_windows([np.asarray(m.frames) for m, _ in held_norm], cfg.window)
    iw = make_windows([np.asarray(i.frames) for _, i in held_norm], cfg.window)
    sel = np.random.default_rng(0).choice(len(mw), size=16, replace=False)
    xm = gn.Tensor(np.ascontiguousarray(mw[sel].transpose(0, 2, 1)))
    xi = gn.Tensor(np.ascontiguousarray(iw[sel].transpose(0, 2, 1)))

    z_m = flatten_latents(pipe.motion_model.encode(xm)).value
    z_i = flatten_latents(pipe.imu_model.encode(xi)).value
    f_m = vq.batch_token_frequency(z_m, pipe.motion_model.codebook.entries,
                                   cfg.temperature, None).value
    f_i = vq.batch_token_frequency(z_i, pipe.imu_model.codebook.entries,
                                   cfg.temperature, None).value
    js_match = float(vq.js_divergence(f_i, f_m))
    match_ok = js_match < 0.1

    zipf = vq.zipf_target(vq.ZipfParams(K=cfg.K))
    js_trained = float(vq.js_divergence(f_m, zipf))
    rand_model = MotionVQVAE(cfg, rng=_rng(999, 0))
    z_r = flatten_latents(rand_model.encode(xm)).value
    rand_model.codebook = vq.Codebook.from_kmeans(z_r, cfg.K, rng=_rng(999, 1),
                                                  gamma=cfg.gamma)
    f_r = vq.batch_token_frequency(z_r, rand_model.codebook.entries,
                                   cfg.temperature, None).value
    js_random = float(vq.js_divergence(f_r, zipf))
    zipf_ok = js_trained < js_random

    ok = match_ok and zipf_ok
    record_criterion(8, "held-out distribution matching after stage 2", ok,
                     f"JS(imu||motion) {js_match:.4f}; JS(motion||zipf) trained "
                     f"{js_trained:.4f} vs random {js_random:.4f}")
    assert ok


def test_criterion_9_noise_robustness(heldout_raw, motion_ckpt, imu_ckpt, baseline_ckpt):
    report = run_noise_benchmark(imu_ckpt, motion_ckpt, baseline_ckpt, heldout_raw,
                                 levels=(1,), seed=0)
    tok1 = report.row("tokenized", 1)
    base1 = report.row("baseline", 1)
    tok0 = report.row("tokenized", 0)
    base0 = report.row("baseline", 0)

    jitter_ratio = tok1["jitter"] / base1["jitter"]
    jitter_ok = jitter_ratio <= 0.2
    deg_tok = tok1["mpjpe_cm"] - tok0["mpjpe_cm"]
    deg_base = base1["mpjpe_cm"] - base0["mpjpe_cm"]
    deg_ok = deg_tok <= 0.5 * deg_base

    ok = jitter_ok and deg_ok
    record_criterion(9, "quantization suppresses single-sensor noise vs baseline", ok,
                     f"jitter ratio {jitter_ratio:.3f} (<=0.2); degradation "
                     f"{deg_tok:.2f} vs 0.5*{deg_base:.2f} cm")
    assert ok


def test_criterion_10_streaming_equivalence(heldout_raw, imu_ckpt, tmp_path):
    pipe = InferencePipeline.from_checkpoint(load_checkpoint(imu_ckpt))
    imu = heldout_raw[0][1]
    seq = InertiaSequence(frames=imu.frames[:640], fps=imu.fps)
    offline = tokenize_sequence(seq, pipe, chunk_len=16)

    rng = np.random.default_rng(10)
    partitions_ok = True
    for _ in range(100):
        state = StreamState(pipe, chunk_len=16)
        got = []
        lo = 0
        while lo < 640:
            n = int(rng.integers(1, 64))
            got.append(push_frames(state, seq.frames[lo:lo + n]))
            lo += n
        if not np.array_equal(np.concatenate(got), offline.tokens):
            partitions_ok = False
            break

    chunk = InertiaSequence(frames=seq.frames[:16], fps=seq.fps)
    four_ok = len(tokenize_sequence(chunk, pipe, chunk_len=16)) == 4

    path = tmp_path / "stream.mjt"
    write_token_stream(path, offline)
    back = read_token_stream(path)
    wire_ok = (np.array_equal(back.tokens, offline.tokens)
               and back.codebook_digest == offline.codebook_digest
               and back.l == offline.l and back.K == offline.K
               and back.fps == offline.fps)

    ok = partitions_ok and four_ok and wire_ok
    record_criterion(10, "online tokenization equals offline; wire format round-trips",
                     ok, f"100 partitions, 16 frames -> 4 tokens: {four_ok}")
    assert ok
