"""Inference-time anomaly decisions over classifier probabilities.

A record's anomaly score is probability-derived: either the mass assigned
to non-benign classes (default) or one minus the winning probability. The
verdict is anomalous exactly when the score exceeds the policy threshold,
so raising the threshold can only turn anomalous verdicts normal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass

SCORE_KINDS = ("non_benign_mass", "one_minus_max_prob")


@dataclass(frozen=True)
class DetectionPolicy:
    threshold: float = 0.5
    score_kind: str = "non_benign_mass"
    benign_class_index: int = 0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")
        if self.benign_class_index < 0:
            raise ValueError("benign_class_index must be >= 0")


def score(probs, policy):
    """Score classifier probability rows, one row per record.

    Returns (scores, anomalous flags) in row order. Raises ValueError when
    the policy's benign class is not a column of probs.
    """
    p = np.asarray(probs, dtype=np.float64)
    if policy.benign_class_index >= p.shape[1]:
        raise ValueError(
            f"benign_class_index {policy.benign_class_index} outside "
            f"[0, {p.shape[1]})")
    if policy.score_kind == "non_benign_mass":
        scores = 1.0 - p[:, policy.benign_class_index]
    else:
        scores = 1.0 - p.max(axis=1)
    return scores, scores > policy.threshold


def calibrate_threshold(scores, labels, policy):
    """Pick a threshold from the scores of labeled validation records: the
    one maximizing benign-vs-rest F1 (anomalous side is positive), ties
    resolving to the lowest threshold. Candidates are 0 and every distinct
    score; each one's counts come from binary searches in the sorted scores
    of either side.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(labels) != policy.benign_class_index
    n_pos = int(positives.sum())
    n_neg = int(positives.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(
            f"calibration needs both benign and non-benign records, got "
            f"{n_neg} benign / {n_pos} others")
    candidates = np.unique(np.append(scores, 0.0))
    # records flagged at threshold t are those scoring strictly above t
    fp = n_neg - np.searchsorted(np.sort(scores[~positives]), candidates,
                                 side="right")
    tp = n_pos - np.searchsorted(np.sort(scores[positives]), candidates,
                                 side="right")
    fn = n_pos - tp
    f1 = 2 * tp / (2 * tp + fp + fn)  # fn + tp = n_pos > 0
    return float(candidates[np.argmax(f1)])  # argmax: first, lowest t
