"""Rotation algebra: 6D rotation codec, SO(3) exp/log, angular velocity.

Conventions used throughout the package:
  * rotation matrices are world-from-body, applied as ``R @ v``
  * the 6D code is the first two columns of the matrix, column-major
  * angular velocity is body-frame (left-trivialized), matching what a
    strapped-down gyroscope reports

Every map is batched over leading axes and keeps them: ``exp_so3`` takes
(..., 3) to (..., 3, 3); ``log_so3`` and ``angular_velocity`` take
(..., 3, 3) to (..., 3); the 6D codec maps (..., 6) to and from
(..., 3, 3). A single vector or matrix is the case of no leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, InvalidArgument, ShapeMismatch

# Below this angle (rad) log/exp switch to their series forms.
SMALL_ANGLE = 1e-7
# Above this angle the log uses the diagonal (near-pi) branch.
NEAR_PI = np.pi - 1e-4

_EPS_COLUMN = 1e-8


def _dot3(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``(a0*b0 + a1*b1) + a2*b2`` of two triples of component arrays, the
    order ``np.linalg.norm`` and ``np.sum`` add 3-vectors in, written to out."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)
    return out


def norm3(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of (..., 3) vectors, (...): ``sqrt((x*x + y*y) + z*z)``,
    the order ``np.linalg.norm`` adds 3-vectors in, without its per-call cost."""
    c = np.moveaxis(np.asarray(v, dtype=np.float64), -1, 0)
    n = _dot3(c, c, np.empty(c.shape[1:]), np.empty(c.shape[1:]))
    return np.sqrt(n, out=n)


def rot6d_to_matrix_batch(r: np.ndarray, fallback: bool = False) -> np.ndarray:
    """Decode (..., 6) codes (two leading columns) into (..., 3, 3) proper
    rotation matrices.

    Gram-Schmidt: normalize column one, orthogonalize-normalize column two,
    column three is their cross product. Invariant to positive per-column
    scaling of the input.

    With ``fallback=True`` degenerate inputs decode to identity instead of
    raising; used when decoding network outputs that carry no guarantee.

    Works in place on six contiguous component arrays, with each norm, dot
    and cross product spelled out in the order ``np.linalg.norm``,
    ``np.sum`` and ``np.cross`` use, so the result is bitwise theirs
    without their per-call cost and temporaries.
    """
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape[:-1]
    # a copy even where the transpose is already contiguous (a single code):
    # both columns are normalized in place
    comps = np.array(r.reshape(-1, 6).T, order="C")
    a, b = comps[:3], comps[3:]
    tmp = np.empty_like(comps[0])
    n1 = norm3(a.T)
    bad1 = n1 <= _EPS_COLUMN
    n1[bad1] = 1.0
    a /= n1
    dot = _dot3(a, b, np.empty_like(tmp), tmp)
    for k in range(3):
        b[k] -= np.multiply(dot, a[k], out=tmp)
    n2 = norm3(b.T)
    bad2 = n2 <= _EPS_COLUMN
    n2[bad2] = 1.0
    b /= n2
    bad = bad1 | bad2
    if bad.any():
        if not fallback:
            raise DegenerateInput("degenerate 6D rotation in batch")
        comps[:, bad] = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])[:, None]
    out = np.empty((tmp.size, 3, 3))
    out[:, :, 0] = a.T
    out[:, :, 1] = b.T
    for k in range(3):  # column three is a x b
        i, j = (k + 1) % 3, (k + 2) % 3
        np.subtract(np.multiply(a[i], b[j], out=tmp), a[j] * b[i], out=out[:, k, 2])
    return out.reshape(*shape, 3, 3)


def matrix_to_rot6d_batch(R: np.ndarray) -> np.ndarray:
    """Encode (..., 3, 3) rotation matrices as their first two columns,
    column-major (..., 6)."""
    R = np.asarray(R, dtype=np.float64)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def _skew(v: np.ndarray) -> np.ndarray:
    """(..., 3) vectors -> (..., 3, 3) cross-product matrices."""
    K = np.zeros(v.shape + (3,), dtype=np.float64)
    K[..., 0, 1] = -v[..., 2]
    K[..., 0, 2] = v[..., 1]
    K[..., 1, 0] = v[..., 2]
    K[..., 1, 2] = -v[..., 0]
    K[..., 2, 0] = -v[..., 1]
    K[..., 2, 1] = v[..., 0]
    return K


def exp_so3(v: np.ndarray) -> np.ndarray:
    """Rodrigues: map (..., 3) axis-angle vectors to (..., 3, 3) rotations.

    Elements below SMALL_ANGLE use the second-order series I + K + K^2/2.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (3,):
        raise ShapeMismatch(f"expected (..., 3) axis-angle vectors, got {v.shape}")
    theta = norm3(v)
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    s = np.where(small, 1.0, np.sin(safe) / safe)[..., None, None]
    c = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))[..., None, None]
    K = _skew(v)
    # (I + s K) + c K^2, each sum in place
    out = np.multiply(s, K)
    out += np.eye(3)
    KK = K @ K
    KK *= c
    out += KK
    return out


def _log_near_pi(R: np.ndarray, c: float, theta: float, w: np.ndarray) -> np.ndarray:
    # near pi the skew part vanishes; recover the axis from the exact
    # symmetric decomposition (R + R^T)/2 - cos(theta) I = (1-cos) a a^T
    S = 0.5 * (R + R.T) - c * np.eye(3)
    diag = np.maximum(np.diag(S) / (1.0 - c), 0.0)
    axis = np.sqrt(diag)
    k = int(np.argmax(axis))
    if axis[k] <= 0.0:
        raise DegenerateInput("cannot extract rotation axis near pi")
    for i in range(3):
        if i != k and S[k, i] < 0.0:
            axis[i] = -axis[i]
    axis /= np.linalg.norm(axis)
    # orient so that the (possibly tiny) skew part agrees
    if np.dot(axis, w) < 0.0:
        axis = -axis
    return axis * theta


def log_so3(R: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues: (..., 3, 3) rotations -> (..., 3) axis-angle vectors.

    Each element takes its own branch: the skew part below SMALL_ANGLE, the
    diagonal decomposition above NEAR_PI (a loop over those elements only),
    Rodrigues in between.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape[-2:] != (3, 3):
        raise ShapeMismatch(f"expected (..., 3, 3) rotations, got {R.shape}")
    tr = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(tr)
    w = 0.5 * np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                        R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    generic = (theta >= SMALL_ANGLE) & (theta <= NEAR_PI)
    safe = np.where(generic, theta, 1.0)
    out = w * np.where(generic, safe / np.sin(safe), 1.0)[..., None]
    for i in np.flatnonzero(theta > NEAR_PI):
        idx = np.unravel_index(i, theta.shape)
        out[idx] = _log_near_pi(R[idx], tr[idx], theta[idx], w[idx])
    return out


def angular_velocity(R_prev: np.ndarray, R_next: np.ndarray, dt: float) -> np.ndarray:
    """Body-frame angular velocity (rad/s) taking R_prev to R_next over dt,
    for (..., 3, 3) rotation pairs; returns (..., 3)."""
    if dt <= 0.0:
        raise InvalidArgument(f"dt must be positive, got {dt}")
    R_prev = np.asarray(R_prev, dtype=np.float64)
    R_next = np.asarray(R_next, dtype=np.float64)
    return log_so3(np.swapaxes(R_prev, -1, -2) @ R_next) / dt


def angular_rate(R: np.ndarray, fps: float) -> np.ndarray:
    """Body-frame angular velocity of a (T, ..., 3, 3) rotation track sampled
    at fps, T >= 2: central over two steps inside, one-sided at both ends;
    returns (T, ..., 3)."""
    dt = 1.0 / fps
    omega = np.empty(R.shape[:-1], dtype=np.float64)
    omega[1:-1] = angular_velocity(R[:-2], R[2:], 2 * dt)
    omega[0] = angular_velocity(R[0], R[1], dt)
    omega[-1] = angular_velocity(R[-2], R[-1], dt)
    return omega


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (via a normalized 4-vector)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def assert_rotation(R: np.ndarray, tol: float = 1e-9) -> None:
    """Raise DegenerateInput unless R is orthonormal with det +1 within tol."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise DegenerateInput(f"expected 3x3 matrix, got {R.shape}")
    # written as `not err <= tol` so that a NaN error, which compares false, fails
    if not (np.abs(R @ R.T - np.eye(3)).max() <= tol and abs(np.linalg.det(R) - 1.0) <= tol):
        raise DegenerateInput("matrix is not a proper rotation")
