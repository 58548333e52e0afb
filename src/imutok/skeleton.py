"""Fixed 22-joint skeleton (1 root + 21 local joints) and forward kinematics.

The skeleton is a published constant of this package: a y-up humanoid whose
heels and toes rest exactly on the ground plane y=0 when every joint rotation
is identity and the root sits at STANDING_ROOT_HEIGHT.
"""

from __future__ import annotations

import numpy as np

JOINT_COUNT = 22
LOCAL_JOINT_COUNT = 21

JOINT_NAMES = [
    "pelvis",        # 0 (root)
    "l_hip",         # 1
    "l_knee",        # 2
    "l_ankle",       # 3
    "l_heel",        # 4
    "l_toe",         # 5
    "r_hip",         # 6
    "r_knee",        # 7
    "r_ankle",       # 8
    "r_heel",        # 9
    "r_toe",         # 10
    "spine1",        # 11
    "spine2",        # 12
    "chest",         # 13
    "neck",          # 14
    "head",          # 15
    "l_shoulder",    # 16
    "l_elbow",       # 17
    "l_wrist",       # 18
    "r_shoulder",    # 19
    "r_elbow",       # 20
    "r_wrist",       # 21
]

PARENTS = (-1, 0, 1, 2, 3, 3, 0, 6, 7, 8, 8, 0, 11, 12, 13, 14, 13, 16, 17, 13, 19, 20)

# meters, in the parent's frame
REST_OFFSETS = np.array([
    [0.00, 0.00, 0.00],    # pelvis
    [0.09, -0.06, 0.00],   # l_hip
    [0.00, -0.40, 0.00],   # l_knee
    [0.00, -0.42, 0.00],   # l_ankle
    [0.00, -0.07, -0.05],  # l_heel
    [0.00, -0.07, 0.12],   # l_toe
    [-0.09, -0.06, 0.00],  # r_hip
    [0.00, -0.40, 0.00],   # r_knee
    [0.00, -0.42, 0.00],   # r_ankle
    [0.00, -0.07, -0.05],  # r_heel
    [0.00, -0.07, 0.12],   # r_toe
    [0.00, 0.12, 0.00],    # spine1
    [0.00, 0.14, 0.00],    # spine2
    [0.00, 0.14, 0.00],    # chest
    [0.00, 0.12, 0.00],    # neck
    [0.00, 0.10, 0.00],    # head
    [0.16, 0.06, 0.00],    # l_shoulder
    [0.28, 0.00, 0.00],    # l_elbow
    [0.26, 0.00, 0.00],    # l_wrist
    [-0.16, 0.06, 0.00],   # r_shoulder
    [-0.28, 0.00, 0.00],   # r_elbow
    [-0.26, 0.00, 0.00],   # r_wrist
], dtype=np.float64)
REST_OFFSETS.flags.writeable = False  # shared by every caller

# the channel order of the per-frame contact labels: left toe, left heel,
# right toe, right heel (all leaves of the tree)
FOOT_JOINTS = (5, 4, 10, 9)

# Root height at which heels/toes touch y=0 with identity rotations:
# hip 0.06 + knee 0.40 + ankle 0.42 + foot 0.07.
STANDING_ROOT_HEIGHT = 0.95


# joints some other joint hangs from; a leaf's global rotation moves no position
_INNER_JOINTS = frozenset(PARENTS[1:])


def forward_kinematics_sequence(root_pos: np.ndarray, root_rot: np.ndarray,
                                local_rots: np.ndarray, return_rotations: bool = False):
    """World joint positions of the fixed skeleton over a sequence.

    position(j) = position(parent) + R_global(parent) @ rest_offset(j), with
    R_global composed parent-to-child down the tree, for all frames at once.
    Leaf global rotations are composed only when they are returned.

    Args:
        root_pos: (T, 3) root translations.
        root_rot: (T, 3, 3) root rotations.
        local_rots: (T, 21, 3, 3) local joint rotations.

    Returns (T, 22, 3) positions, optionally also (T, 22, 3, 3) global rotations.
    """
    T = root_pos.shape[0]
    # joint-major while composing, so that each joint's track is contiguous
    pos = np.empty((JOINT_COUNT, T, 3), dtype=np.float64)
    glob = np.empty((JOINT_COUNT, T, 3, 3), dtype=np.float64)
    pos[0] = root_pos
    glob[0] = root_rot
    for j in range(1, JOINT_COUNT):
        p = PARENTS[j]
        np.add(pos[p], np.einsum("tij,j->ti", glob[p], REST_OFFSETS[j]), out=pos[j])
        if return_rotations or j in _INNER_JOINTS:
            np.matmul(glob[p], local_rots[:, j - 1], out=glob[j])
    pos = np.ascontiguousarray(pos.transpose(1, 0, 2))
    if return_rotations:
        return pos, np.ascontiguousarray(glob.transpose(1, 0, 2, 3))
    return pos
