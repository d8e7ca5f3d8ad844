"""Inference-time anomaly decisions over classifier probabilities.

A record's anomaly score is probability-derived: either the mass assigned
to non-benign classes (default) or one minus the winning probability. The
verdict is anomalous exactly when the score exceeds the policy threshold,
so raising the threshold can only turn anomalous verdicts normal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass, ScalerMismatch
from .nn import forward

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


@dataclass(frozen=True)
class Detection:
    score: float
    verdict: str  # "normal" | "anomalous"
    predicted_class: str
    probabilities: np.ndarray


def ensure_scaler_match(model_fingerprint, stats):
    """Guard against scoring with stats the model was not trained with."""
    if model_fingerprint is not None and stats is not None:
        actual = stats.fingerprint()
        if actual != model_fingerprint:
            raise ScalerMismatch(
                f"scaler stats fingerprint {actual} does not match the model's "
                f"{model_fingerprint}; re-export the stats saved at training time")


def scores_from_probabilities(probs, policy):
    p = np.asarray(probs, dtype=np.float64)
    if policy.score_kind == "non_benign_mass":
        return 1.0 - p[:, policy.benign_class_index]
    return 1.0 - p.max(axis=1)


def _verdicts(scores, threshold):
    return np.asarray(scores) > threshold


def score_batch(network, batch, policy, class_names=None):
    """Score preprocessed records; returns Detections in input order."""
    x = np.asarray(batch)
    if x.shape[1:] != network.input_shape:  # feature rows -> network layout
        x = x.reshape((x.shape[0],) + network.input_shape)
    p, _ = forward(network, x, "inference")
    if class_names is None:
        class_names = tuple(f"class_{i}" for i in range(p.shape[1]))
    if policy.benign_class_index >= p.shape[1]:
        raise ValueError(
            f"benign_class_index {policy.benign_class_index} outside "
            f"[0, {p.shape[1]})")
    scores = scores_from_probabilities(p, policy)
    flags = _verdicts(scores, policy.threshold)
    preds = p.argmax(axis=1)
    return [
        Detection(
            score=float(scores[i]),
            verdict="anomalous" if flags[i] else "normal",
            predicted_class=class_names[preds[i]],
            probabilities=p[i].copy(),
        )
        for i in range(len(p))
    ]


def calibrate_threshold(network, labeled_val_set, policy, target="max_f1",
                        max_fpr=None):
    """Pick a threshold from labeled validation data.

    max_f1: the threshold maximizing benign-vs-rest F1 (anomalous side is
    positive); ties resolve to the lowest threshold. fpr_at: the smallest
    threshold whose false-positive rate (benign records flagged) is at most
    max_fpr.
    """
    x, y = labeled_val_set
    y = np.asarray(y)
    positives = y != policy.benign_class_index
    n_pos = int(positives.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(
            f"calibration needs both benign and non-benign records, got "
            f"{n_neg} benign / {n_pos} others")
    detections = score_batch(network, x, policy)
    scores = np.asarray([d.score for d in detections])

    candidates = sorted({0.0} | set(float(s) for s in scores))
    if target == "max_f1":
        best_t, best_f1 = 0.0, -1.0
        for t in candidates:
            flagged = scores > t
            tp = int((flagged & positives).sum())
            fp = int((flagged & ~positives).sum())
            fn = n_pos - tp
            f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
            if f1 > best_f1:
                best_t, best_f1 = t, f1
        return best_t
    if target == "fpr_at":
        if max_fpr is None:
            raise ValueError("fpr_at target needs max_fpr")
        for t in candidates:
            fpr = int((scores[~positives] > t).sum()) / n_neg
            if fpr <= max_fpr:
                return t
        return 1.0
    raise ValueError(f"unknown calibration target {target!r}")
