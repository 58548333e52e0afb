"""Fixed 22-joint skeleton (1 root + 21 local joints) and forward kinematics.

The skeleton is a published constant of this package: a y-up humanoid whose
heels and toes rest exactly on the ground plane y=0 when every joint rotation
is identity and the root sits at STANDING_ROOT_HEIGHT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

_PARENTS = [-1, 0, 1, 2, 3, 3, 0, 6, 7, 8, 8, 0, 11, 12, 13, 14, 13, 16, 17, 13, 19, 20]

_REST_OFFSETS = [
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
]

# Root height at which heels/toes touch y=0 with identity rotations:
# hip 0.06 + knee 0.40 + ankle 0.42 + foot 0.07.
STANDING_ROOT_HEIGHT = 0.95


@dataclass(frozen=True)
class Skeleton:
    """Kinematic tree: parent indices and rest offsets (meters) per joint.

    foot_joints order is (left toe, left heel, right toe, right heel); it is
    the channel order of the per-frame contact labels.
    """

    parents: tuple = field(default_factory=lambda: tuple(_PARENTS))
    rest_offsets: np.ndarray = field(
        default_factory=lambda: np.array(_REST_OFFSETS, dtype=np.float64))
    foot_joints: tuple = (5, 4, 10, 9)

    def __post_init__(self):
        parents = self.parents
        if parents[0] != -1 or any(parents[j] >= j for j in range(1, len(parents))):
            raise ValueError("parent indices must form a tree rooted at joint 0")
        if not np.isfinite(self.rest_offsets).all():
            raise ValueError("rest offsets must be finite")
        children = set(parents)
        for f in self.foot_joints:
            if f in children:
                raise ValueError(f"foot joint {f} is not a leaf")

    @property
    def joint_count(self) -> int:
        return len(self.parents)


DEFAULT_SKELETON = Skeleton()


def forward_kinematics_sequence(skel: Skeleton, root_pos: np.ndarray, root_rot: np.ndarray,
                                local_rots: np.ndarray,
                                return_rotations: bool = False):
    """World joint positions over a sequence.

    position(j) = position(parent) + R_global(parent) @ rest_offset(j), with
    R_global composed parent-to-child down the tree, for all frames at once.

    Args:
        root_pos: (T, 3) root translations.
        root_rot: (T, 3, 3) root rotations.
        local_rots: (T, J-1, 3, 3) local joint rotations.

    Returns (T, J, 3) positions, optionally also (T, J, 3, 3) global rotations.
    """
    T = root_pos.shape[0]
    J = skel.joint_count
    pos = np.empty((T, J, 3), dtype=np.float64)
    glob = np.empty((T, J, 3, 3), dtype=np.float64)
    pos[:, 0] = root_pos
    glob[:, 0] = root_rot
    for j in range(1, J):
        p = skel.parents[j]
        pos[:, j] = pos[:, p] + np.einsum("tij,j->ti", glob[:, p], skel.rest_offsets[j])
        glob[:, j] = glob[:, p] @ local_rots[:, j - 1]
    if return_rotations:
        return pos, glob
    return pos
