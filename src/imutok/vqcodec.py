"""Discrete codebooks and the tokenizer training objectives.

Covers nearest-neighbor quantization with straight-through gradients,
exponential-moving-average codebook re-estimation, soft batch token
frequencies (Gumbel-Softmax over negative squared distances, sorted
descending), the Zipf rank-frequency target, Jensen-Shannon divergence,
and the composite losses of the motion autoencoder and the IMU tokenizer.

Quantization returns the ids of an exact per-pair scan, found by a GEMM
screen: one ``Z @ C.T`` scores every entry, a rounding margin derived from
the dtype's unit roundoff keeps every entry that could be the exact winner,
and only rows left with several candidates are re-ranked by the exact scan,
which also takes whole any call with non-finite or overflow-sized input. The
exact scan squares a C-contiguous (rows, K, d_z) block of differences and
sums each (z-c)^2 vector with numpy's own np.sum over the last axis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import gradnet as gn
from .errors import ConfigInvalid, InvalidArgument, LengthMismatch, ShapeMismatch
from .gradnet import Tensor

GUMBEL_TEMPERATURE = 0.5
JS_FLOOR = 1e-12

# dead codebook entries: usage mass below this fraction of the uniform share
# for this many consecutive updates get reinitialized
DEAD_FRACTION = 1e-3
DEAD_PATIENCE = 50
REINIT_MASS = 1.0

KMEANS_ITERS = 10  # Lloyd iterations of the codebook seeding

# bytes of the rows x K x d_z difference block quantize materializes at once
QUANTIZE_BLOCK_BYTES = 32 << 20


@dataclass(frozen=True)
class ZipfParams:
    """Rank-frequency law parameters; alpha=0 degenerates to uniform."""

    alpha: float = 1.0
    beta: float = 2.7
    K: int = 64

    def __post_init__(self):
        if self.alpha < 0 or self.beta <= -1 or self.K < 2:
            raise InvalidArgument("zipf params out of range")


@dataclass(frozen=True)
class LossWeights:
    recon: float = 1.0
    commit: float = 0.02
    contact: float = 0.01
    slide: float = 0.01
    code: float = 1.0
    dist: float = 1.0
    zipf: float = 0.2

    def __post_init__(self):
        if any(v < 0 for v in self.__dict__.values()):
            raise InvalidArgument("loss weights must be non-negative")


class Codebook:
    """K x d_z latent code table with EMA accumulators and usage counters.

    Entries move only through ema_update / refresh_dead; they carry no
    gradient. Untouched entries keep their stored value bit-for-bit (their
    accumulator ratio is scale-invariant under the decay).

    The table keeps the terms quantize's screen derives from it alone, per
    screen dtype: max ||c||^2, -2C^T and the folded norms (1+b)||c||^2 and
    (1-b)||c||^2 (see ``_screen``). They are computed at the first quantize
    call in a dtype and dropped by ema_update, refresh_dead and any
    assignment to ``entries``, so a frozen table computes them once. Write
    new entries through those; a write into the table in place would leave
    stale terms behind.
    """

    def __init__(self, entries: np.ndarray, gamma: float = 0.99, init_mass: float = 1e-3):
        entries = np.asarray(entries)
        if entries.ndim != 2 or entries.shape[0] < 2:
            raise ConfigInvalid("codebook needs a (K>=2, d_z) entry table")
        if not 0.0 < gamma < 1.0:
            raise ConfigInvalid(f"gamma must be in (0,1), got {gamma}")
        self.entries = entries.copy()  # through the setter, which starts the screen terms
        self.gamma = float(gamma)
        self.ema_sigma = entries * entries.dtype.type(init_mass)
        self.ema_delta = np.full(entries.shape[0], init_mass, dtype=entries.dtype)
        self.dead_steps = np.zeros(entries.shape[0], dtype=np.int64)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @entries.setter
    def entries(self, table: np.ndarray) -> None:
        self._entries = table
        self._screen_terms = {}

    def screen_terms(self, dtype: np.dtype) -> tuple:
        """``_screen_terms(self.entries, dtype)``, computed once per table state."""
        terms = self._screen_terms.get(dtype)
        if terms is None:
            terms = self._screen_terms[dtype] = _screen_terms(self._entries, dtype)
        return terms

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_kmeans(cls, latents: np.ndarray, K: int, *, rng: np.random.Generator,
                    gamma: float = 0.99) -> "Codebook":
        """Seed the table with k-means (Lloyd) over an encoded batch.

        Batches smaller than K (tiny corpora) seed the surplus entries with
        jittered resamples; the surplus stays unused until the dead-entry
        refresh recycles it.
        """
        latents = np.asarray(latents)
        S = latents.shape[0]
        if S == 0:
            raise ConfigInvalid("k-means init needs a non-empty latent batch")
        if S >= K:
            centers = latents[rng.permutation(S)[:K]].copy()
        else:
            centers = latents[rng.integers(0, S, size=K)].copy()
            spread = latents.std(axis=0, keepdims=True) + 1e-3
            centers += (0.01 * spread * rng.standard_normal(centers.shape)
                        ).astype(centers.dtype)
        for _ in range(KMEANS_ITERS):
            idx, _ = quantize(latents, centers)
            # each entry's members summed from zero in row order, then divided
            # in float64 and rounded: members.mean(axis=0) bit for bit when
            # d_z > 1 (a one-column mean sums pairwise instead)
            sums = np.zeros_like(centers)
            np.add.at(sums, idx, latents)
            counts = np.bincount(idx, minlength=K)
            hit = counts > 0
            centers[hit] = sums[hit] / counts[hit, None]
        return cls(centers, gamma=gamma)

    def ema_update(self, latents: np.ndarray, indices: np.ndarray) -> None:
        """Fold one batch of assigned latents into the moving averages.

        sigma_k <- g*sigma_k + (1-g)*sum(assigned z); delta_k likewise with
        counts; entry_k <- sigma_k/delta_k, recomputed only for entries that
        received tokens this batch.
        """
        latents = np.asarray(latents, dtype=self.entries.dtype)
        indices = np.asarray(indices)
        if indices.max(initial=-1) >= self.size or indices.min(initial=0) < 0:
            raise ShapeMismatch("token index out of codebook range")
        g = self.entries.dtype.type(self.gamma)
        sums = np.zeros_like(self.ema_sigma)
        np.add.at(sums, indices, latents)
        counts = np.bincount(indices, minlength=self.size).astype(self.entries.dtype)
        self.ema_sigma = g * self.ema_sigma + (1 - g) * sums
        self.ema_delta = g * self.ema_delta + (1 - g) * counts
        touched = counts > 0
        self.entries[touched] = self.ema_sigma[touched] / self.ema_delta[touched, None]
        self._screen_terms = {}

    def refresh_dead(self, latents: np.ndarray, rng: np.random.Generator) -> int:
        """Reinitialize entries that stayed under-used for DEAD_PATIENCE updates."""
        share = self.ema_delta.sum() / self.size
        dead = self.ema_delta < DEAD_FRACTION * share
        self.dead_steps[dead] += 1
        self.dead_steps[~dead] = 0
        stale = np.flatnonzero(self.dead_steps >= DEAD_PATIENCE)
        for k in stale:
            z = np.asarray(latents, dtype=self.entries.dtype)[rng.integers(len(latents))]
            self.entries[k] = z
            self.ema_sigma[k] = z * self.entries.dtype.type(REINIT_MASS)
            self.ema_delta[k] = REINIT_MASS
            self.dead_steps[k] = 0
            self._screen_terms = {}
        return len(stale)

    def digest(self) -> bytes:
        """Content digest of the entry table (32 bytes)."""
        h = hashlib.sha256()
        h.update(str(self.entries.dtype).encode())
        h.update(np.asarray(self.entries.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.entries).tobytes())
        return h.digest()


def _entry_table(cb) -> np.ndarray:
    return cb.entries if isinstance(cb, Codebook) else np.asarray(cb)


def _nearest_exact(Z: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Lowest-index argmin of the elementwise (z-c)^2 distances, each the
    np.sum of one contiguous d_z vector.

    Latent rows are processed in blocks whose C-contiguous (rows, K, d_z)
    difference array stays within QUANTIZE_BLOCK_BYTES (at least one row).
    The block is written through ``out=``: a plain subtraction would follow
    the latents' memory layout, and an F-ordered one would leave d_z a
    strided axis that np.sum adds in another order.
    """
    (S, d), K = Z.shape, C.shape[0]
    dtype = np.result_type(Z, C)
    indices = np.empty(S, dtype=np.int64)
    block = max(1, QUANTIZE_BLOCK_BYTES // max(K * d * dtype.itemsize, 1))
    for lo in range(0, S, block):
        hi = min(lo + block, S)
        diff = np.empty((hi - lo, K, d), dtype)
        np.subtract(Z[lo:hi, None, :], C[None], out=diff)
        indices[lo:hi] = np.argmin(np.square(diff, out=diff).sum(axis=2), axis=1)
    return indices


def _screen_terms(C: np.ndarray, dtype: np.dtype) -> tuple:
    """What a screen in float ``dtype`` derives from the entries C alone:
    (b, max ||c||^2, -2C^T, (1+b)||c||^2, (1-b)||c||^2), b = 8(d+4)u (see
    _screen), with -2C^T a C-contiguous (d, K) GEMM operand. All are in
    ``dtype``, whose u the margin assumes, also for entries of a narrower
    dtype. The last three are left None when max ||c||^2 fails the
    screen's guard, as they could overflow."""
    fi = np.finfo(dtype)
    b = 4 * (C.shape[1] + 4) * fi.eps
    C = C.astype(dtype, copy=False)
    c2 = np.einsum("ij,ij->i", C, C)
    c2max = c2.max()
    if not c2max <= fi.max / 8:
        return b, c2max, None, None, None
    return b, c2max, np.ascontiguousarray(-2 * C.T), (1 + b) * c2, (1 - b) * c2


def _screen(Z: np.ndarray, C: np.ndarray, dtype: np.dtype, terms: tuple):
    """quantize's ids by a GEMM screen with an exact re-rank of near-ties,
    with w = max ||z||^2 + max ||c||^2, or None when Z and C are not finite
    or so large that a score could overflow. ``dtype`` is the float dtype
    of Z and C together and ``terms`` its ``_screen_terms`` of C."""
    b, c2max, neg2ct, c2_hi, c2_lo = terms
    fi, d = np.finfo(dtype), Z.shape[1]
    z2 = np.einsum("ij,ij->i", Z, Z)
    w = z2.max(initial=0) + c2max
    if not w <= fi.max / 8:  # NaN and inf fail too
        return None
    # Margin. Let u = eps/2 be the unit roundoff, W_j = ||z||^2 + ||c_j||^2,
    # t_j = ||z - c_j||^2 <= 2W_j the true distance. The exact distance (a
    # subtract, a square, then d-1 adds of non-negative terms in any order)
    # is within (d+2)u/(1-(d+2)u) t_j, about (2d+4)uW_j, of t_j. The score
    # s_j = ||c_j||^2 - 2 z.c_j is within about (2d+2)uW_j of t_j - ||z||^2
    # whatever order and FMA use the GEMM and the norms sum with (the GEMM
    # takes -2c_j, an exact doubling, and its products round no worse):
    # ||c_j||^2 and 2 z.c_j each carry d u W_j (2|z.c_j| <= W_j), the final
    # add 2uW_j. The exact winner j* is no farther than any m, so
    # s_j* - s_m is at most the four errors, (4d+6)u (W_j* + W_m). With
    # b = 8(d+4)u, twice (4d+6)u with room for its own rounding, j* meets
    # s_j* - bW_j* <= min_m (s_m + bW_m); drop the ||z||^2 both sides share
    # and it reads lo_j* <= min_m hi_m + 2b||z||^2, for the scores folded as
    # lo_j = (1-b)||c_j||^2 - 2 z.c_j and hi_m = (1+b)||c_m||^2 - 2 z.c_m.
    # Each fold adds two roundings of u||c||^2, inside that room. Gradual
    # underflow adds an absolute error of at most half a smallest subnormal
    # per rounded op, about 4d of them over the four errors, so 8(d+4) of
    # them cover it twice.
    score = Z @ neg2ct
    hi = score + c2_hi
    score += c2_lo
    bound = hi.min(axis=1)
    bound += z2 * (2 * b) + 8 * (d + 4) * fi.smallest_subnormal
    keep = score <= bound[:, None]
    indices = keep.argmax(axis=1)
    if np.count_nonzero(keep) > len(Z):  # some row has more than one candidate
        near = np.count_nonzero(keep, axis=1) > 1
        indices[near] = _nearest_exact(Z[near], C)
    return indices, w


def _nearest(latents, cb) -> tuple:
    """(Z, C, ids, w): the latent rows and entry table as arrays, quantize's
    ids, and the screen's w = max ||z||^2 + max ||c||^2, None when the
    exact scan took the call whole. A ``Codebook`` keeps its screen terms;
    a bare table's are computed afresh."""
    Z = latents.value if isinstance(latents, Tensor) else np.asarray(latents)
    C = _entry_table(cb)
    if Z.ndim != 2 or Z.shape[1] != C.shape[1]:
        raise ShapeMismatch(f"latents {Z.shape} incompatible with codebook {C.shape}")
    dtype = np.promote_types(Z.dtype, C.dtype)
    if dtype.kind == "f":
        terms = cb.screen_terms(dtype) if isinstance(cb, Codebook) else _screen_terms(C, dtype)
        screened = _screen(Z, C, dtype, terms)
        if screened is not None:
            return Z, C, *screened
    # a distance that overflows is inf and ranks last, as documented
    with np.errstate(over="ignore"):
        return Z, C, _nearest_exact(Z, C), None


def quantize(latents, cb) -> tuple:
    """Nearest codebook entry per latent row under squared Euclidean distance.

    The ids are those of an exact scan: every distance is np.sum of one
    contiguous (z-c)^2 vector, taken over the last axis of a C-contiguous
    (rows, K, d_z) difference block whatever the memory layout of the
    latents and however many rows a call gets, and exact ties go to the
    lowest index.

    A GEMM screen finds them. Per row it scores every entry as
    ||c||^2 - 2 z.c (the squared distance minus the row's ||z||^2) in the
    latents' dtype, and keeps each entry whose score, lowered by its own
    rounding margin b (||z||^2 + ||c||^2), is within the margin-raised
    score of the row's best entry: b = 8(d_z+4)u with u the unit roundoff,
    plus an underflow term, bounds the rounding of both the score and the
    exact distance, so the exact winner is always kept. A row
    with one candidate takes it; a row with several (near-ties, duplicate
    entries) is re-ranked by the exact scan. A call whose latents or
    entries are not finite, are large enough that a score could overflow,
    or are not floating point takes the exact scan whole, so a NaN row gets
    id 0, a NaN entry wins the argmin as in a per-pair scan, and a distance
    that overflows is inf, without numpy's overflow warning.

    Returns (indices (S,), codes (S, d_z)).
    """
    _, C, indices, _ = _nearest(latents, cb)
    return indices, C[indices]


def quantize_finite(latents, cb) -> np.ndarray:
    """``quantize``'s ids (S,), raising InvalidArgument unless the latents
    lie at a finite total squared distance from their codes, summed by one
    einsum over the (z - c) differences: quantize gives a row with no
    finite distance id 0.

    After the screen, S rows of d_z columns pass without that sum when
    S w <= max/8 and S d_z eps <= 1, for the screen's w = max ||z||^2 +
    max ||c||^2: each exact distance is at most 2w (1-u)^-(d_z+1), and the
    float sum of S d_z rounded squares of rounded differences exceeds the
    exact total by a factor of at most (1+u)^(S d_z+2), so the sum is under
    e max/4, finite.
    """
    Z, C, indices, w = _nearest(latents, cb)
    if w is not None:
        fi, (S, d) = np.finfo(w.dtype), Z.shape
        if S * d * fi.eps <= 1 and float(w) * S <= fi.max / 8:
            return indices
    diff = Z - C[indices]
    if not np.einsum("ij,ij->", diff, diff) < np.inf:  # False for inf and NaN
        raise InvalidArgument("a latent has no finite distance to its code")
    return indices


def straight_through(latents: Tensor, codes: np.ndarray) -> Tensor:
    """Forward the quantized codes; route the gradient to the latents unchanged."""
    codes = np.asarray(codes)
    if codes.shape != latents.value.shape:
        raise ShapeMismatch("codes must match latent shape")
    return gn._unary(latents, codes, lambda g: g)


def batch_token_frequency(latents, cb, temperature: float = GUMBEL_TEMPERATURE,
                          rng: np.random.Generator | None = None) -> Tensor:
    """Soft usage distribution of the codebook over a batch of latents.

    Per latent, logits are negative squared distances to every entry; Gumbel
    noise is added when an rng is supplied (rng=None is the deterministic
    zero-noise hook); a softmax at ``temperature`` yields per-latent soft
    assignments which are averaged and sorted descending. The sort applies
    the forward-value permutation, kept constant for the backward pass.
    """
    if temperature <= 0:
        raise InvalidArgument("temperature must be positive")
    Z = latents if isinstance(latents, Tensor) else Tensor(np.asarray(latents))
    C = cb.entries if isinstance(cb, Codebook) else cb
    C = C if isinstance(C, Tensor) else Tensor(np.asarray(C))
    if Z.value.shape[1] != C.value.shape[1]:
        raise ShapeMismatch("latent and codebook dims differ")

    z2 = gn.tsum(gn.mul(Z, Z), axis=1, keepdims=True)           # (S, 1)
    c2 = gn.tsum(gn.mul(C, C), axis=1)                          # (K,)
    cross = gn.matmul(Z, gn.transpose(C, (1, 0)))               # (S, K)
    logits = gn.sub(gn.mul(cross, 2.0), gn.add(z2, c2))         # -(squared distance)
    if rng is not None:
        u = np.clip(rng.random(logits.value.shape), 1e-12, 1.0 - 1e-12)
        logits = gn.add(logits, -np.log(-np.log(u)).astype(logits.value.dtype))
    soft = gn.softmax(gn.mul(logits, 1.0 / temperature), axis=1)
    freq = gn.tmean(soft, axis=0)                               # (K,)
    perm = np.argsort(-freq.value, kind="stable")
    return freq[perm]


def hard_token_frequency(latents, cb) -> np.ndarray:
    """Sorted (descending) hard-assignment histogram; the temperature->0 limit."""
    idx, _ = quantize(latents, cb)
    K = _entry_table(cb).shape[0]
    hist = np.bincount(idx, minlength=K).astype(np.float64) / len(idx)
    return np.sort(hist)[::-1]


def zipf_target(zp: ZipfParams) -> np.ndarray:
    """Normalized rank-frequency target: weight 1/(k+beta)^alpha for rank k."""
    k = np.arange(1, zp.K + 1, dtype=np.float64)
    w = 1.0 / np.power(k + zp.beta, zp.alpha)
    return w / w.sum()


def js_divergence(p, q) -> Tensor:
    """Jensen-Shannon divergence (nats) between two length-K distributions.

    Zero bins are floored at 1e-12 and both inputs renormalized before the
    divergence, keeping the result finite and within [0, ln 2].
    """
    P = p if isinstance(p, Tensor) else Tensor(np.asarray(p, dtype=np.float64))
    Q = q if isinstance(q, Tensor) else Tensor(np.asarray(q, dtype=np.float64))
    if P.value.shape != Q.value.shape:
        raise LengthMismatch(f"distributions differ in length: {P.value.shape} vs {Q.value.shape}")
    Pf = gn.clip(P, JS_FLOOR, np.inf)
    Qf = gn.clip(Q, JS_FLOOR, np.inf)
    Pn = gn.div(Pf, gn.tsum(Pf))
    Qn = gn.div(Qf, gn.tsum(Qf))
    M = gn.mul(gn.add(Pn, Qn), 0.5)
    log_m = gn.log(M)
    kl_p = gn.tsum(gn.mul(Pn, gn.sub(gn.log(Pn), log_m)))
    kl_q = gn.tsum(gn.mul(Qn, gn.sub(gn.log(Qn), log_m)))
    return gn.mul(gn.add(kl_p, kl_q), 0.5)


def codebook_perplexity(indices: np.ndarray, K: int) -> float:
    """exp(entropy) of the hard assignment histogram; in [1, K]."""
    hist = np.bincount(np.asarray(indices), minlength=K).astype(np.float64)
    hist /= hist.sum()
    nz = hist[hist > 0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def motion_vq_losses(M, M_hat, Z, B, p, p_hat, j_v_hat, w: LossWeights):
    """Motion autoencoder objective.

    Args:
        M, M_hat: (batch, 271, T') target and reconstruction.
        Z: (N, d_z) encoder latents; B: (N, d_z) quantized codes (constant).
        p, p_hat: (batch, 4, T') contact labels and predicted probabilities.
        j_v_hat: (batch, 4, 3, T') reconstructed velocities of the foot
            joints, one per contact channel.

    Returns (total, components) where total = recon + commit + contact +
    slide, each pre-multiplied by its weight; components hold the raw values.
    """
    M_hat = gn.as_tensor(M_hat)
    M = gn.as_tensor(M)
    if M_hat.value.shape != M.value.shape:
        raise ShapeMismatch("reconstruction shape differs from target")
    n_lat = Z.value.shape[0] if isinstance(Z, Tensor) else np.asarray(Z).shape[0]

    recon = gn.mse(M_hat, M)

    dz = gn.sub(gn.as_tensor(Z), gn.stop_gradient(gn.as_tensor(B)))
    commit = gn.mul(gn.tsum(gn.mul(dz, dz)), 1.0 / n_lat)

    bce = gn.binary_cross_entropy(gn.as_tensor(p_hat), gn.as_tensor(p))
    n_bt = bce.value.shape[0] * bce.value.shape[2]
    contact = gn.mul(gn.tsum(bce), 1.0 / n_bt)

    v2 = gn.tsum(gn.mul(gn.as_tensor(j_v_hat), gn.as_tensor(j_v_hat)), axis=2)
    slide = gn.mul(gn.tsum(gn.mul(gn.as_tensor(p_hat), v2)), 1.0 / n_bt)

    total = gn.add(gn.add(gn.mul(recon, w.recon), gn.mul(commit, w.commit)),
                   gn.add(gn.mul(contact, w.contact), gn.mul(slide, w.slide)))
    components = {"recon": recon, "commit": commit, "contact": contact, "slide": slide}
    return total, components


def imu_tokenizer_losses(B_imu, B_motion, F_imu, F_motion, w: LossWeights):
    """IMU tokenizer objective: code matching plus distribution matching.

    B_motion and F_motion are treated as constants (the motion tokenizer is
    frozen); B_imu should carry a straight-through gradient to the IMU
    encoder and F_imu a Gumbel-Softmax gradient. The motion tokens' Zipf
    divergence has only constant inputs, so it carries no gradient and is
    left to the caller's record.

    Returns (total, components) where total = code + dist_match, each
    pre-multiplied by its weight; components hold the raw values.
    """
    B_imu = gn.as_tensor(B_imu)
    B_motion_c = gn.stop_gradient(gn.as_tensor(B_motion))
    if B_imu.value.shape != B_motion_c.value.shape:
        raise ShapeMismatch("token code arrays differ in shape")
    n_lat = B_imu.value.shape[0]

    dz = gn.sub(B_imu, B_motion_c)
    code = gn.mul(gn.tsum(gn.mul(dz, dz)), 1.0 / n_lat)
    dist_match = js_divergence(F_imu, gn.stop_gradient(gn.as_tensor(F_motion)))

    total = gn.add(gn.mul(code, w.code), gn.mul(dist_match, w.dist))
    return total, {"code": code, "dist_match": dist_match}
