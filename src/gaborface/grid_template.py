"""Default 34-node fiducial grid template: node names and the nose tip.

Only the ordering and the nose-tip designation matter to the numerics;
the names exist so grid files are self-describing.
"""

NOSE_TIP = "nose_tip"

NODE_NAMES = (
    "right_eyebrow_outer",
    "right_eyebrow_mid",
    "right_eyebrow_inner",
    "left_eyebrow_inner",
    "left_eyebrow_mid",
    "left_eyebrow_outer",
    "right_eye_outer",
    "right_eye_top",
    "right_eye_inner",
    "right_eye_bottom",
    "left_eye_inner",
    "left_eye_top",
    "left_eye_outer",
    "left_eye_bottom",
    "nose_bridge",
    "nose_right",
    "nose_tip",
    "nose_left",
    "mouth_right",
    "mouth_top_right",
    "mouth_top_center",
    "mouth_top_left",
    "mouth_left",
    "mouth_bottom_left",
    "mouth_bottom_center",
    "mouth_bottom_right",
    "chin_right",
    "chin_center",
    "chin_left",
    "right_cheek",
    "left_cheek",
    "right_temple",
    "left_temple",
    "forehead_center",
)

assert len(NODE_NAMES) == 34
assert NOSE_TIP in NODE_NAMES
