import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from imutok import gradnet as gn
from imutok import vqcodec as vq
from imutok.errors import ConfigInvalid, InvalidArgument, LengthMismatch, ShapeMismatch
from imutok.gradnet import Tensor
from imutok.models import load_model_arrays
from imutok.vqcodec import (Codebook, LossWeights, ZipfParams, batch_token_frequency,
                            codebook_perplexity, hard_token_frequency,
                            imu_tokenizer_losses, js_divergence, motion_vq_losses,
                            quantize, quantize_finite, straight_through, zipf_target)
from tests.test_gradnet import fd_gradcheck, leaf


def brute_force_quantize(Z, C):
    """Independent per-pair scan with strict lowest-index tie breaking:
    criterion 1's oracle. Each distance is np.sum of one contiguous
    (z-c)^2 vector, a row of entries at a time."""
    out = np.empty(Z.shape[0], dtype=np.int64)
    for s in range(Z.shape[0]):
        dist = np.sum(np.square(Z[s] - C), axis=1)
        out[s] = np.flatnonzero(dist == dist.min())[0]
    return out


class TestQuantize:
    def test_simple_nearest(self):
        C = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, codes = quantize(np.array([[0.2, 0.1]]), C)
        assert idx[0] == 0
        assert np.array_equal(codes[0], C[0])

    def test_exact_entry_hit(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(8, 4))
        idx, codes = quantize(C[5][None], C)
        assert idx[0] == 5
        assert np.array_equal(codes[0], C[5])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            S, K, d = rng.integers(1, 30), rng.integers(2, 20), rng.integers(1, 8)
            Z = rng.normal(size=(S, d))
            C = rng.normal(size=(K, d))
            idx, _ = quantize(Z, C)
            assert np.array_equal(idx, brute_force_quantize(Z, C))

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_small_block_budget_matches_brute_force(self, monkeypatch, rows):
        # rows=0 is a budget below one row, which still processes one row
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(23, 5))
        C = rng.normal(size=(9, 5))
        C[7] = C[2]
        Z[4] = C[2]
        whole, _ = quantize(Z, C)
        monkeypatch.setattr(vq, "QUANTIZE_BLOCK_BYTES", rows * C.size * Z.itemsize)
        idx, codes = quantize(Z, C)
        assert np.array_equal(idx, brute_force_quantize(Z, C))
        assert np.array_equal(idx, whole)
        assert np.array_equal(codes, C[idx])
        # the screen re-ranks only the tied row; the exact scan alone, on
        # every row, walks all the blocks
        assert np.array_equal(vq._nearest_exact(Z, C), whole)

    def test_engineered_ties_take_lowest_index(self):
        C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        Z = np.array([[0.0, 0.0]])  # equidistant from entries 0 and 1
        idx, _ = quantize(Z, C)
        assert idx[0] == 0
        assert np.array_equal(idx, brute_force_quantize(Z, C))

    def test_duplicate_entries_tie(self):
        rng = np.random.default_rng(2)
        C = rng.normal(size=(6, 3))
        C[4] = C[1]
        Z = C[4][None] + 1e-12
        idx, _ = quantize(Z, C)
        assert idx[0] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            quantize(np.zeros((3, 4)), np.zeros((5, 3)))

    @pytest.mark.parametrize("S, block_rows", [(4, None), (80, None), (80, 70)])
    def test_near_ties_do_not_depend_on_layout(self, monkeypatch, S, block_rows):
        # each latent sits between two entries whose offsets are the same d
        # values in another order, so its two distances agree up to rounding
        # and the summation order picks the winner. From d = 8 on, np.sum of
        # a contiguous vector adds pairwise, and a sum in index order (which
        # a difference block laid out like F-ordered latents gets) picks
        # differently. The d straddle each boundary of numpy's pairwise sum
        # (8 partial sums, halves above 128). block_rows=70 splits the 80
        # rows into a 70-row and a 10-row block.
        K = 64
        for dtype, d in itertools.product(
                [np.float32, np.float64], [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 256, 513]):
            rng = np.random.default_rng(d)
            base = rng.normal(size=(K // 2, d)).astype(dtype)
            v = (dtype(0.1) * rng.normal(size=(K // 2, d))).astype(dtype)
            C = np.concatenate([base + v, base + v[:, rng.permutation(d)]])
            if d >= 8:
                index_order = np.zeros((K // 2, K), dtype)
                for j in range(d):
                    index_order += (base[:, None, j] - C[None, :, j]) ** 2
                assert not np.array_equal(np.argmin(index_order, axis=1),
                                          brute_force_quantize(base, C)), (dtype, d)
            Z = base[np.arange(S) % (K // 2)]
            want = brute_force_quantize(Z, C)
            if block_rows is not None:
                monkeypatch.setattr(vq, "QUANTIZE_BLOCK_BYTES", block_rows * C.size * C.itemsize)
            strided = np.zeros((S, 2 * d), dtype)[:, ::2]
            strided[:] = Z
            for layout in (np.ascontiguousarray(Z), np.asfortranarray(Z), strided):
                assert np.array_equal(vq._nearest_exact(layout, C), want), (dtype, d)
                idx, codes = quantize(layout, C)
                assert np.array_equal(idx, want), (dtype, d)
                assert np.array_equal(codes, C[want]), (dtype, d)


def count_exact_calls(monkeypatch):
    """Patch quantize's exact scan to record the rows of every call."""
    calls = []
    exact = vq._nearest_exact

    def counted(Z, C):
        calls.append(len(Z))
        return exact(Z, C)

    monkeypatch.setattr(vq, "_nearest_exact", counted)
    return calls


class TestScreen:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 7, 64, 512])
    @pytest.mark.parametrize("K", [2, 64, 1024])
    def test_matches_brute_force_oracle_at_every_scale(self, dtype, d, K):
        rng = np.random.default_rng(d * 10_000 + K)
        C = rng.normal(size=(K, d)).astype(dtype)
        C[K // 2] = C[0]
        for S in (1, 4, 256):
            Z = rng.normal(size=(S, d)).astype(dtype)
            # rows near an entry, and rows at the midpoint of two entries
            near = rng.integers(0, K, size=S)
            Z[S // 3:] = C[near[S // 3:]] + dtype(1e-3) * Z[S // 3:]
            Z[2 * S // 3:] = (C[near[2 * S // 3:]] + C[0]) / dtype(2)
            idx, codes = quantize(Z, C)
            assert np.array_equal(idx, brute_force_quantize(Z, C)), (S, d, K)
            assert np.array_equal(codes, C[idx])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_midpoints_within_a_few_ulps(self, dtype):
        rng = np.random.default_rng(5)
        C = rng.normal(size=(64, 64)).astype(dtype)
        pairs = rng.integers(0, 64, size=(40, 2))
        mid = (C[pairs[:, 0]] + C[pairs[:, 1]]) / dtype(2)
        rows = []
        for ulps in range(5):
            for direction in (-np.inf, np.inf):
                z = mid.copy()
                for _ in range(ulps):
                    z[:, ulps % 64] = np.nextafter(z[:, ulps % 64], dtype(direction))
                rows.append(z)
        Z = np.concatenate(rows)
        idx, _ = quantize(Z, C)
        assert np.array_equal(idx, vq._nearest_exact(Z, C))
        assert np.array_equal(idx, brute_force_quantize(Z, C))

    @pytest.mark.parametrize("dtype, exponents", [
        (np.float32, range(-80, 64)),  # squares from subnormal to overflow
        (np.float64, [*range(-560, -500), *range(-70, 61, 10), *range(500, 513)])])
    def test_magnitudes_from_tiny_to_huge(self, dtype, exponents):
        rng = np.random.default_rng(6)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for e in exponents:
                C0 = rng.normal(size=(32, 16))
                Z0 = np.concatenate([C0[:8] + 0.3 * rng.normal(size=(8, 16)),
                                     rng.normal(size=(24, 16))])
                Z, C = (Z0 * 2.0 ** e).astype(dtype), (C0 * 2.0 ** e).astype(dtype)
                C[5] = C[1]
                idx, _ = quantize(Z, C)
                assert np.array_equal(idx, vq._nearest_exact(Z, C)), e

    def test_all_zero_latents_and_entries(self):
        for Z, C in [(np.zeros((5, 8)), np.zeros((4, 8))),
                     (np.zeros((5, 8)), np.eye(4, 8)),
                     (np.eye(5, 8), np.zeros((4, 8)))]:
            idx, _ = quantize(Z, C)
            assert np.array_equal(idx, vq._nearest_exact(Z, C))
            assert np.array_equal(idx, brute_force_quantize(Z, C))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_rows_and_entries_keep_exact_semantics(self, dtype):
        rng = np.random.default_rng(7)
        C = rng.normal(size=(16, 8)).astype(dtype)
        Z = rng.normal(size=(6, 8)).astype(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            for value in (np.nan, np.inf, -np.inf):
                Zb, Cb = Z.copy(), C.copy()
                Zb[2, 3] = value
                idx, _ = quantize(Zb, C)
                assert np.array_equal(idx, vq._nearest_exact(Zb, C))
                assert np.array_equal(np.delete(idx, 2), quantize(np.delete(Z, 2, 0), C)[0])
                Cb[9, 1] = value
                idx, _ = quantize(Z, Cb)
                assert np.array_equal(idx, vq._nearest_exact(Z, Cb))
            Zb = Z.copy()
            Zb[2, 3] = np.nan
            assert quantize(Zb, C)[0][2] == 0  # a NaN row: every distance NaN, first index
            Cb = C.copy()
            Cb[9, 1] = np.nan
            assert np.all(quantize(Z, Cb)[0] == 9)  # a NaN entry wins every argmin

    def test_separated_batch_takes_the_screen_alone(self, monkeypatch):
        rng = np.random.default_rng(8)
        C = rng.normal(size=(64, 64)).astype(np.float32)
        Z = C[rng.integers(0, 64, size=256)] + np.float32(0.01) * \
            rng.normal(size=(256, 64)).astype(np.float32)
        want = brute_force_quantize(Z, C)
        calls = count_exact_calls(monkeypatch)
        idx, _ = quantize(Z, C)
        assert calls == []
        assert np.array_equal(idx, want)

    def test_duplicate_entries_take_the_exact_rerank(self, monkeypatch):
        rng = np.random.default_rng(9)
        C = rng.normal(size=(64, 64)).astype(np.float32)
        C[40] = C[3]
        Z = C[rng.integers(0, 64, size=256)] + np.float32(0.01) * \
            rng.normal(size=(256, 64)).astype(np.float32)
        want = brute_force_quantize(Z, C)
        tied = int(np.count_nonzero(want == 3))
        assert tied > 0 and not np.any(want == 40)
        calls = count_exact_calls(monkeypatch)
        idx, _ = quantize(Z, C)
        assert calls == [tied]  # one re-rank call, of exactly the tied rows
        assert np.array_equal(idx, want)

    def test_per_entry_margin_re_ranks_fewer_rows_on_a_clustered_codebook(self, monkeypatch):
        # 60 entries in tight clusters near the origin and 4 far ones. A
        # margin sized by the largest entry norm would keep whole clusters
        # for every row; each entry's own norm keeps only the near-ties
        rng = np.random.default_rng(10)
        d = 32
        near = (rng.normal(size=(6, d)).repeat(10, axis=0)
                + 0.02 * rng.normal(size=(60, d))).astype(np.float32)
        C = np.concatenate([near, (300 * rng.normal(size=(4, d))).astype(np.float32)])
        Z = near[rng.integers(0, 60, size=256)] + np.float32(0.005) * \
            rng.normal(size=(256, d)).astype(np.float32)
        want = brute_force_quantize(Z, C)
        calls = count_exact_calls(monkeypatch)
        idx, _ = quantize(Z, C)
        assert np.array_equal(idx, want)
        # the rows the max-norm margin, 16(d+4)u (||z||^2 + max ||c||^2), re-ranks
        z2, c2 = np.einsum("ij,ij->i", Z, Z), np.einsum("ij,ij->i", C, C)
        score = c2 - 2 * (Z @ C.T)
        margin = (z2 + c2.max()) * (8 * (d + 4) * np.finfo(np.float32).eps)
        wide = np.count_nonzero(score <= (score.min(axis=1) + margin)[:, None], axis=1) > 1
        assert np.count_nonzero(wide) == 256
        assert sum(calls) < 256 // 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_from_kmeans_equals_the_per_entry_loop(self, dtype):
        def loop_kmeans(latents, K, rng):
            S = latents.shape[0]
            if S >= K:
                centers = latents[rng.permutation(S)[:K]].copy()
            else:
                centers = latents[rng.integers(0, S, size=K)].copy()
                spread = latents.std(axis=0, keepdims=True) + 1e-3
                centers += (0.01 * spread * rng.standard_normal(centers.shape)
                            ).astype(centers.dtype)
            for _ in range(vq.KMEANS_ITERS):
                idx, _ = quantize(latents, centers)
                for k in range(K):
                    members = latents[idx == k]
                    if len(members):
                        centers[k] = members.mean(axis=0)
            return centers

        rng = np.random.default_rng(10)
        for trial in range(40):
            S, K = int(rng.integers(1, 400)), int(rng.integers(2, 70))
            d = int(rng.choice([1, 2, 3, 16, 64]))
            latents = rng.normal(size=(S, d)).astype(dtype)
            if trial % 4 == 0:
                latents[rng.random(latents.shape) < 0.3] = -0.0
            got = Codebook.from_kmeans(latents, K, rng=np.random.default_rng(trial)).entries
            want = loop_kmeans(latents, K, np.random.default_rng(trial))
            if d > 1:
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), trial
            else:
                # a one-column mean sums pairwise, the scatter in row order
                assert_allclose(got, want, rtol=0, atol=64 * np.finfo(dtype).eps)


def assert_matches_oracle(Z, cb):
    idx, codes = quantize(Z, cb)
    C = cb.entries if isinstance(cb, Codebook) else cb
    assert np.array_equal(idx, brute_force_quantize(Z, C))
    assert np.array_equal(codes, C[idx])


class TestScreenTerms:
    """A Codebook keeps the entry terms of its screens; each way its table
    changes drops them, and a bare table is read afresh on every call."""

    @pytest.mark.parametrize("change", ["ema_update", "refresh_dead", "assignment",
                                        "load_model_arrays"])
    def test_quantize_follows_the_changed_table(self, change):
        rng = np.random.default_rng(12)
        cb = Codebook(rng.normal(size=(16, 8)), gamma=0.1)
        Z = 2.0 * rng.normal(size=(64, 8))
        assert_matches_oracle(Z, cb)  # computes the terms of the first table
        before = cb.entries.copy()
        if change == "ema_update":
            idx, _ = quantize(Z, cb)
            cb.ema_update(Z + 1.5, idx)
        elif change == "refresh_dead":
            cb.ema_delta[:8] = 0.0
            cb.dead_steps[:8] = vq.DEAD_PATIENCE - 1
            assert cb.refresh_dead(Z, rng) == 8
        elif change == "assignment":
            cb.entries = rng.normal(size=(16, 8))
        else:
            other = Codebook(rng.normal(size=(16, 8)))
            arrays = {"cb.entries": other.entries, "cb.sigma": other.ema_sigma,
                      "cb.delta": other.ema_delta, "cb.dead": other.dead_steps}
            load_model_arrays(SimpleNamespace(params=dict, codebook=cb), arrays)
        assert not np.array_equal(quantize(Z, before)[0], quantize(Z, cb.entries)[0])
        assert_matches_oracle(Z, cb)

    def test_a_bare_table_changed_in_place_is_read_afresh(self):
        rng = np.random.default_rng(13)
        C = rng.normal(size=(16, 8))
        Z = 2.0 * rng.normal(size=(64, 8))
        assert_matches_oracle(Z, C)
        first = quantize(Z, C)[0]
        C[:] = rng.normal(size=C.shape)
        assert not np.array_equal(quantize(Z, C)[0], first)
        assert_matches_oracle(Z, C)

    @pytest.mark.parametrize("order", [(np.float64, np.float32), (np.float32, np.float64)])
    def test_screens_of_two_dtypes_keep_their_own_terms(self, order):
        # rows an ulp off the midpoints of entry pairs: a float32 screen on
        # the float64 screen's terms drops exact winners, and so does a
        # float64 screen on entry norms summed in float32
        rng = np.random.default_rng(14)
        cb = Codebook(rng.normal(size=(64, 64)).astype(np.float32))
        pairs = rng.integers(0, 64, size=(40, 2))
        mid = (cb.entries[pairs[:, 0]] + cb.entries[pairs[:, 1]]) / np.float32(2)
        rows = [mid]
        for direction in (-np.inf, np.inf):
            z = mid.copy()
            z[:, 0] = np.nextafter(z[:, 0], np.float32(direction))
            rows.append(z)
        Z = np.concatenate(rows)
        for _ in range(2):
            for dtype in order:
                assert_matches_oracle(Z.astype(dtype), cb)


class TestQuantizeFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_where_the_summed_distance_is_not_finite(self):
        # rows with ||z||^2 = 3e37 pass the screen's guard (max/8 = 4.25e37)
        # one at a time, yet 16 of them sum past float32's max
        rng = np.random.default_rng(15)
        cb = Codebook(rng.normal(size=(16, 8)).astype(np.float32))
        Z = rng.normal(size=(16, 8)).astype(np.float32)
        huge = np.full((16, 8), np.sqrt(3e37 / 8), np.float32)
        nan, inf = Z.copy(), Z.copy()
        nan[3, 2], inf[5, 0] = np.nan, np.inf
        cases = {"plain": (Z, True), "one huge row": (huge[:1], True),
                 "two huge rows": (huge[:2], True), "16 huge rows": (huge, False),
                 "huge and plain rows": (np.concatenate([huge[:1], Z]), True),
                 "past the guard": (Z * np.float32(1e19), False),
                 "NaN": (nan, False), "inf": (inf, False), "no rows": (Z[:0], True)}
        for name, (rows, finite) in cases.items():
            idx, codes = quantize(rows, cb)
            diff = rows - codes
            assert (np.einsum("ij,ij->", diff, diff) < np.inf) == finite, name
            if finite:
                assert np.array_equal(quantize_finite(rows, cb), idx), name
            else:
                with pytest.raises(InvalidArgument, match="no finite distance"):
                    quantize_finite(rows, cb)


class TestStraightThrough:
    def test_forward_value_is_codes(self):
        z = Tensor(np.zeros((3, 2)), requires_grad=True)
        codes = np.arange(6.0).reshape(3, 2)
        st = straight_through(z, codes)
        assert np.array_equal(st.value, codes)

    def test_gradient_passes_to_latents(self):
        z = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        codes = np.random.default_rng(1).normal(size=(4, 3))
        gn.tsum(straight_through(z, codes)).backward()
        assert np.array_equal(z.grad, np.ones((4, 3)))

    def test_codebook_receives_no_gradient(self):
        z = Tensor(np.zeros((2, 2)), requires_grad=True)
        entries = Tensor(np.ones((4, 2)), requires_grad=True)
        st = straight_through(z, entries.value[:2])
        gn.tsum(st).backward()
        assert entries.grad is None

    def test_downstream_grad_matches_leaf_replacement(self):
        # gradient w.r.t. latents through the pass-through equals the
        # numeric gradient w.r.t. the codes treated as a free leaf
        rng = np.random.default_rng(5)
        lin_w = rng.normal(size=(3, 5))
        codes = rng.normal(size=(4, 3))

        def net(inp):
            h = gn.matmul(inp, Tensor(lin_w))
            return gn.tsum(gn.mul(gn.sigmoid(h), h))

        z = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        net(straight_through(z, codes)).backward()
        b_leaf = Tensor(codes.copy(), requires_grad=True)
        fd_gradcheck(lambda: net(b_leaf), [b_leaf])
        b_leaf.grad = None
        net(b_leaf).backward()
        assert_allclose(z.grad, b_leaf.grad, rtol=1e-10)


class TestEmaUpdate:
    def test_single_step_closed_form(self):
        gamma, eps = 0.99, 1e-3
        c0 = np.array([[1.0, -2.0], [0.5, 0.5]])
        cb = Codebook(c0, gamma=gamma, init_mass=eps)
        z = np.array([[3.0, 3.0]])
        cb.ema_update(z, np.array([0]))
        expected = (gamma * eps * c0[0] + (1 - gamma) * z[0]) / (gamma * eps + (1 - gamma))
        assert_allclose(cb.entries[0], expected, atol=1e-12)

    def test_untouched_entry_bit_identical(self):
        rng = np.random.default_rng(3)
        cb = Codebook(rng.normal(size=(6, 4)), gamma=0.99)
        before = cb.entries[3].copy()
        for step in range(25):
            z = rng.normal(size=(5, 4)) + 10.0  # far from entry 3's region
            idx, _ = quantize(z, cb)
            idx[idx == 3] = 0
            cb.ema_update(z, idx)
        assert np.array_equal(cb.entries[3], before)

    def test_constant_assignment_converges_to_fixed_point(self):
        cb = Codebook(np.array([[5.0, -5.0, 2.0]]).repeat(4, axis=0), gamma=0.99)
        z = np.array([[1.0, 2.0, 3.0]])
        for _ in range(1000):
            cb.ema_update(z, np.array([2]))
        assert np.linalg.norm(cb.entries[2] - z[0]) < 1e-6

    def test_decay_preserves_ratio_for_unassigned(self):
        cb = Codebook(np.array([[1.0, 1.0], [2.0, 2.0]]), gamma=0.9)
        sigma0, delta0 = cb.ema_sigma.copy(), cb.ema_delta.copy()
        cb.ema_update(np.array([[0.0, 0.0]]), np.array([0]))
        assert_allclose(cb.ema_sigma[1], 0.9 * sigma0[1], rtol=1e-15)
        assert_allclose(cb.ema_delta[1], 0.9 * delta0[1], rtol=1e-15)

    def test_bad_indices_raise(self):
        cb = Codebook(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            cb.ema_update(np.zeros((1, 2)), np.array([7]))

    def test_kmeans_seeding_is_deterministic_and_covering(self):
        rng_data = np.random.default_rng(0)
        latents = rng_data.normal(size=(200, 8))
        a = Codebook.from_kmeans(latents, 16, rng=np.random.default_rng(1))
        b = Codebook.from_kmeans(latents, 16, rng=np.random.default_rng(1))
        assert np.array_equal(a.entries, b.entries)

    def test_kmeans_seeding_with_fewer_latents_than_entries(self):
        rng_data = np.random.default_rng(2)
        latents = rng_data.normal(size=(4, 8))
        cb = Codebook.from_kmeans(latents, 16, rng=np.random.default_rng(1))
        assert cb.entries.shape == (16, 8)
        assert np.isfinite(cb.entries).all()
        # surplus entries are jittered, not exact duplicates
        assert len({e.tobytes() for e in cb.entries}) == 16
        with pytest.raises(ConfigInvalid):
            Codebook.from_kmeans(latents[:0], 16, rng=np.random.default_rng(1))

    def test_dead_entry_refresh(self):
        rng = np.random.default_rng(9)
        cb = Codebook(rng.normal(size=(4, 2)), gamma=0.5)
        latents = rng.normal(size=(8, 2))
        # starve entry 3 long enough to trip the reinit patience
        stale_entry = cb.entries[3].copy()
        refreshed = 0
        for _ in range(200):
            idx = rng.integers(0, 3, size=8)
            cb.ema_update(latents, idx)
            refreshed += cb.refresh_dead(latents, rng)
        assert refreshed >= 1
        assert not np.array_equal(cb.entries[3], stale_entry)


class TestTokenFrequency:
    def test_equidistant_two_entries_split_evenly(self):
        C = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Z = np.zeros((10, 2))
        freq = batch_token_frequency(Z, C, temperature=0.5, rng=None)
        assert_allclose(freq.value, [0.5, 0.5], atol=1e-12)

    def test_zero_temperature_limit_matches_hard_histogram(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            Z = rng.normal(size=(40, 5))
            C = rng.normal(size=(7, 5))
            soft = batch_token_frequency(Z, C, temperature=1e-6, rng=None)
            hard = hard_token_frequency(Z, C)
            assert_allclose(soft.value, hard, atol=1e-9)

    def test_valid_distribution_for_any_input(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Z = rng.normal(size=(12, 3)) * rng.uniform(0.1, 10)
            C = rng.normal(size=(6, 3))
            f = batch_token_frequency(Z, C, temperature=0.5,
                                      rng=np.random.default_rng(0)).value
            assert abs(f.sum() - 1.0) < 1e-9
            assert np.all(f >= 0)
            assert np.all(np.diff(f) <= 1e-15)  # non-increasing

    def test_gumbel_noise_is_seeded(self):
        rng_z = np.random.default_rng(6)
        Z, C = rng_z.normal(size=(20, 4)), rng_z.normal(size=(5, 4))
        a = batch_token_frequency(Z, C, rng=np.random.default_rng(7)).value
        b = batch_token_frequency(Z, C, rng=np.random.default_rng(7)).value
        c = batch_token_frequency(Z, C, rng=np.random.default_rng(8)).value
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_differentiable_wrt_latents_and_entries(self):
        rng = np.random.default_rng(8)
        Z = leaf(rng, 10, 4)
        C = leaf(rng, 6, 4)
        target = vq.zipf_target(ZipfParams(K=6))

        def fn():
            f = batch_token_frequency(Z, C, temperature=0.7, rng=None)
            return js_divergence(f, target)

        fd_gradcheck(fn, [Z, C], rtol=1e-4)

    def test_bad_temperature(self):
        with pytest.raises(InvalidArgument):
            batch_token_frequency(np.zeros((2, 2)), np.zeros((2, 2)), temperature=0.0)


class TestZipf:
    def test_small_k_values(self):
        f = zipf_target(ZipfParams(alpha=1.0, beta=2.7, K=3))
        # 1/3.7, 1/4.7, 1/5.7 normalized
        assert_allclose(f, [0.4105, 0.3231, 0.2664], atol=1e-3)
        assert f.sum() == pytest.approx(1.0)

    def test_alpha_zero_is_uniform(self):
        f = zipf_target(ZipfParams(alpha=0.0, beta=2.7, K=10))
        assert_allclose(f, np.full(10, 0.1), atol=1e-15)

    def test_strictly_decreasing_for_positive_alpha(self):
        f = zipf_target(ZipfParams(alpha=1.0, beta=2.7, K=64))
        assert np.all(np.diff(f) < 0)

    def test_invalid_params(self):
        with pytest.raises(InvalidArgument):
            ZipfParams(alpha=-1.0)
        with pytest.raises(InvalidArgument):
            ZipfParams(beta=-2.0)


class TestJsDivergence:
    def test_equal_distributions_give_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert float(js_divergence(p, p)) < 1e-12

    def test_disjoint_point_masses_give_ln2(self):
        assert float(js_divergence([1.0, 0.0], [0.0, 1.0])) == pytest.approx(
            np.log(2.0), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            assert float(js_divergence(p, q)) == pytest.approx(
                float(js_divergence(q, p)), abs=1e-12)

    def test_bounded_by_ln2(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5) * 0.2)
            q = rng.dirichlet(np.ones(5) * 0.2)
            v = float(js_divergence(p, q))
            assert 0.0 <= v <= np.log(2.0) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            js_divergence(np.ones(3) / 3, np.ones(4) / 4)

    def test_gradients(self):
        # concentrated draws keep bins away from zero, where the finite
        # difference itself loses accuracy
        rng = np.random.default_rng(12)
        p = Tensor(rng.dirichlet(np.ones(6) * 5), requires_grad=True)
        q = Tensor(rng.dirichlet(np.ones(6) * 5), requires_grad=True)
        fd_gradcheck(lambda: js_divergence(p, q), [p, q], h=1e-5)


def _loss_fixture(rng, B=2, T=8, S=2, d_z=3):
    M = rng.normal(size=(B, 271, T))
    M[:, 267:271, :] = (rng.random(size=(B, 4, T)) > 0.5).astype(float)
    M_hat = rng.normal(size=(B, 271, T))
    M_hat[:, 267:271, :] = rng.uniform(0.05, 0.95, size=(B, 4, T))
    Z = rng.normal(size=(B * S, d_z))
    codes = rng.normal(size=(B * S, d_z))
    p = M[:, 267:271, :]
    p_hat = M_hat[:, 267:271, :]
    j_v_hat = rng.normal(size=(B, 4, 3, T))
    return M, M_hat, Z, codes, p, p_hat, j_v_hat


class TestMotionLosses:
    def test_perfect_reconstruction_is_near_zero(self):
        rng = np.random.default_rng(13)
        M, _, Z, _, p, _, _ = _loss_fixture(rng)
        total, comps = motion_vq_losses(M, M.copy(), Z, Z.copy(), p, p.copy(),
                                        np.zeros((2, 4, 3, 8)), LossWeights())
        assert float(total) < 1e-5
        assert float(comps["recon"]) == 0.0
        assert float(comps["commit"]) == 0.0
        assert float(comps["slide"]) == 0.0

    def test_contact_half_probability_contributes_ln2(self):
        rng = np.random.default_rng(14)
        M, M_hat, Z, codes, p, p_hat, j_v_hat = _loss_fixture(rng, B=1)
        p = np.ones_like(p)
        p_hat = np.ones_like(p_hat)
        p_hat[0, 0, :] = 0.5  # one channel at coin-flip probability
        _, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat, j_v_hat, LossWeights())
        # other channels clamp to ~0 loss, channel 0 adds ln2 per frame
        assert float(comps["contact"]) == pytest.approx(np.log(2.0), abs=1e-5)

    def test_slide_penalty_on_moving_planted_foot(self):
        rng = np.random.default_rng(15)
        M, M_hat, Z, codes, p, p_hat, _ = _loss_fixture(rng, B=1)
        p_hat = np.ones_like(p_hat)
        j_v_hat = np.zeros((1, 4, 3, 8))
        j_v_hat[0, 2, 0, :] = 1.0  # one foot sliding at 1 m/s
        _, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat, j_v_hat, LossWeights())
        assert float(comps["slide"]) == pytest.approx(1.0, abs=1e-12)

    def test_recon_is_per_entry_mse(self):
        rng = np.random.default_rng(16)
        M, M_hat, Z, codes, p, p_hat, j_v_hat = _loss_fixture(rng)
        _, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat, j_v_hat, LossWeights())
        assert float(comps["recon"]) == pytest.approx(np.mean((M_hat - M) ** 2), rel=1e-12)

    def test_commit_normalizes_by_token_count(self):
        rng = np.random.default_rng(17)
        M, M_hat, Z, codes, p, p_hat, j_v_hat = _loss_fixture(rng)
        _, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat, j_v_hat, LossWeights())
        want = np.sum((Z - codes) ** 2) / Z.shape[0]
        assert float(comps["commit"]) == pytest.approx(want, rel=1e-12)

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(18)
        M, M_hat, Z, codes, p, p_hat, j_v_hat = _loss_fixture(rng)
        w = LossWeights(recon=0.7, commit=0.3, contact=0.2, slide=0.9)
        total, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat, j_v_hat, w)
        want = (0.7 * float(comps["recon"]) + 0.3 * float(comps["commit"])
                + 0.2 * float(comps["contact"]) + 0.9 * float(comps["slide"]))
        assert float(total) == pytest.approx(want, rel=1e-9)

    def test_all_components_non_negative_and_differentiable(self):
        rng = np.random.default_rng(19)
        M, M_hat_v, Z_v, codes, p, p_hat_v, j_v_v = _loss_fixture(rng)
        M_hat = Tensor(M_hat_v, requires_grad=True)
        Z = Tensor(Z_v, requires_grad=True)
        for comp in ("recon", "commit", "contact", "slide"):
            def fn(c=comp):
                p_hat_t = M_hat[:, 267:271, :]
                jv_t = gn.reshape(M_hat[:, 0:12, :], (2, 4, 3, 8))
                total, comps = motion_vq_losses(M, M_hat, Z, codes, p, p_hat_t,
                                                jv_t, LossWeights())
                return comps[c]
            assert float(fn()) >= 0.0
            fd_gradcheck(fn, [M_hat, Z], rtol=1e-4, max_checks=15)


class TestImuLosses:
    def test_identical_codes_and_frequencies_give_zero(self):
        rng = np.random.default_rng(20)
        B = rng.normal(size=(6, 4))
        f = zipf_target(ZipfParams(K=8))
        total, _ = imu_tokenizer_losses(B, B.copy(), f, f.copy(), LossWeights())
        assert float(total) < 1e-12

    def test_unit_offset_code_loss(self):
        rng = np.random.default_rng(21)
        B_m = rng.normal(size=(10, 5))
        B_i = B_m.copy()
        B_i[:, 2] += 1.0  # one latent dim off by one across all tokens
        f = zipf_target(ZipfParams(K=8))
        _, comps = imu_tokenizer_losses(B_i, B_m, f, f, LossWeights())
        assert float(comps["code"]) == pytest.approx(1.0, rel=1e-12)

    def test_default_weight_wiring(self):
        rng = np.random.default_rng(22)
        B_m = rng.normal(size=(6, 3))
        B_i = rng.normal(size=(6, 3))
        f_i = rng.dirichlet(np.ones(8))
        f_m = rng.dirichlet(np.ones(8))
        w = LossWeights()  # code 1.0, dist 1.0; zipf weights only the trainer's record
        total, comps = imu_tokenizer_losses(B_i, B_m, f_i, f_m, w)
        assert set(comps) == {"code", "dist_match"}
        assert float(comps["dist_match"]) == float(js_divergence(f_i, f_m))
        want = 1.0 * float(comps["code"]) + 1.0 * float(comps["dist_match"])
        assert float(total) == pytest.approx(want, rel=1e-12)

    def test_gradients_reach_imu_side_only(self):
        rng = np.random.default_rng(23)
        z_imu = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        codes = rng.normal(size=(6, 3))
        b_imu = straight_through(z_imu, codes)
        b_mot = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        f_imu = Tensor(rng.dirichlet(np.ones(8)), requires_grad=True)
        f_mot = Tensor(rng.dirichlet(np.ones(8)), requires_grad=True)
        total, _ = imu_tokenizer_losses(b_imu, b_mot, f_imu, f_mot, LossWeights())
        total.backward()
        assert z_imu.grad is not None and f_imu.grad is not None
        assert b_mot.grad is None and f_mot.grad is None


class TestPerplexity:
    def test_bounds(self):
        assert codebook_perplexity(np.zeros(10, dtype=int), 8) == pytest.approx(1.0)
        uniform = np.repeat(np.arange(8), 5)
        assert codebook_perplexity(uniform, 8) == pytest.approx(8.0)

    def test_between_one_and_k(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            idx = rng.integers(0, 16, size=100)
            px = codebook_perplexity(idx, 16)
            assert 1.0 <= px <= 16.0
