"""Confusion-matrix metrics, classification reports, and ROC curves.

Every scalar is computed as a single float division of exact integer
counts (or an expression over such ratios), so independent implementations
that count the same label pairs agree bit-for-bit in 64-bit arithmetic.

A metric whose denominator is zero reads 0.0; its numerator is then 0 too.
An empty confusion matrix raises UndefinedMetric.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass, LabelError, UndefinedMetric

ROW_SUM_TOLERANCE = 1e-6


@dataclass
class ConfusionMatrix:
    """K x K count grid: rows are true classes, columns predicted classes."""

    counts: np.ndarray
    class_names: tuple

    @property
    def k(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())

    def row_totals(self):
        return self.counts.sum(axis=1)

    def col_totals(self):
        return self.counts.sum(axis=0)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\predicted"] + list(self.class_names))
            for name, row in zip(self.class_names, self.counts):
                writer.writerow([name] + [int(v) for v in row])
        return path


def confusion(true_labels, predicted_labels, k, class_names=None):
    """Count (true, predicted) pairs into a K x K grid."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise LabelError(f"label vectors differ in length: {t.shape} vs {p.shape}")
    for name, v in (("true", t), ("predicted", p)):
        if v.size and (v.min() < 0 or v.max() >= k):
            raise LabelError(f"{name} labels must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    if class_names is None:
        class_names = tuple(f"class_{i}" for i in range(k))
    return ConfusionMatrix(counts=counts, class_names=tuple(class_names))


def basic_rates(cm, class_index):
    """One-vs-rest (TP, FP, TN, FN) for one class."""
    if not 0 <= class_index < cm.k:
        raise LabelError(f"class index {class_index} outside [0, {cm.k})")
    tp = int(cm.counts[class_index, class_index])
    fp = int(cm.counts[:, class_index].sum()) - tp
    fn = int(cm.counts[class_index, :].sum()) - tp
    tn = cm.total - tp - fp - fn
    return tp, fp, tn, fn


def _ratio(num, den):
    return num / den if den else 0.0


def _f1(precision, recall):
    return _ratio(2 * precision * recall, precision + recall)


def _class_values(cm):
    """Per-class one-vs-rest metric dicts."""
    values = []
    for i in range(cm.k):
        tp, fp, tn, fn = basic_rates(cm, i)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        values.append({
            "precision": precision,
            "recall": recall,
            "f1": _f1(precision, recall),
            "sensitivity": recall,  # same computation, second name
            "specificity": _ratio(tn, tn + fp),
            "ppv": precision,  # same computation, second name
            "npv": _ratio(tn, tn + fn),
            "support": tp + fn,
        })
    return values


_AGG_FIELDS = ("precision", "recall", "f1", "sensitivity", "specificity",
               "ppv", "npv")


def scalar_metrics(cm):
    """The full metric set over a confusion matrix.

    Returns accuracy, Cohen's kappa, per-class one-vs-rest values, and
    macro / weighted / micro aggregates of precision, recall, f1,
    sensitivity, specificity, ppv, and npv.
    """
    if cm.total == 0:
        raise UndefinedMetric("empty confusion matrix")
    total = cm.total
    trace = int(np.trace(cm.counts))
    accuracy = trace / total

    per_class = _class_values(cm)
    supports = [v["support"] for v in per_class]

    macro = {}
    weighted = {}
    for field in _AGG_FIELDS:
        vals = [v[field] for v in per_class]
        macro[field] = sum(vals) / cm.k
        weighted[field] = sum(v * s for v, s in zip(vals, supports)) / total

    # summed over the classes, the one-vs-rest TPs are the trace, the FPs and
    # the FNs each the off-diagonal count, and the TNs k totals less those
    fps = fns = total - trace
    tns = (cm.k - 2) * total + trace
    micro = {}
    micro["precision"] = _ratio(trace, trace + fps)
    micro["recall"] = _ratio(trace, trace + fns)
    micro["f1"] = _f1(micro["precision"], micro["recall"])
    micro["sensitivity"] = micro["recall"]
    micro["specificity"] = _ratio(tns, tns + fps)
    micro["ppv"] = micro["precision"]
    micro["npv"] = _ratio(tns, tns + fns)

    # Chance agreement from the row/column marginals; the numerator stays an
    # exact integer so the division happens once.
    pe_num = sum(int(r) * int(c)
                 for r, c in zip(cm.row_totals(), cm.col_totals()))
    p_e = pe_num / (total * total)
    return {
        "accuracy": accuracy,
        "kappa": _ratio(accuracy - p_e, 1 - p_e),
        "per_class": {name: vals for name, vals
                      in zip(cm.class_names, per_class)},
        "macro": macro,
        "weighted": weighted,
        "micro": micro,
    }


def _fmt(value):
    return f"{value:>9.2f}"


def report_text(m):
    """Plain-text classification report from a scalar_metrics dict: per-class
    precision, recall, f1 and support rows, then accuracy, macro avg and
    weighted avg lines, all at two decimals."""
    total = sum(v["support"] for v in m["per_class"].values())
    width = max([len("weighted avg")] + [len(str(n)) for n in m["per_class"]])
    lines = [f"{'':>{width}}  precision    recall  f1-score   support", ""]
    for name, v in m["per_class"].items():
        lines.append(f"{name:>{width}}  {_fmt(v['precision'])}  "
                     f"{_fmt(v['recall'])}  {_fmt(v['f1'])}  {v['support']:>8d}")
    lines.append("")
    lines.append(f"{'accuracy':>{width}}  {'':9s}  {'':8s}  "
                 f"{_fmt(m['accuracy'])}  {total:>8d}")
    for label, key in (("macro avg", "macro"), ("weighted avg", "weighted")):
        a = m[key]
        lines.append(f"{label:>{width}}  {_fmt(a['precision'])}  "
                     f"{_fmt(a['recall'])}  {_fmt(a['f1'])}  {total:>8d}")
    return "\n".join(lines) + "\n"


def binary_roc(positive_mask, scores):
    """ROC sweep for a binary task: predicted positive means score >= t.

    Thresholds are the distinct scores in descending order, preceded by an
    all-negative point at +inf, so the curve runs (0,0) -> (1,1). Returns
    (points, auc): points is an (m, 3) float64 array of (fpr, tpr,
    threshold) rows, and the AUC is by the trapezoidal rule, summed in
    curve order.
    """
    y = np.asarray(positive_mask, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass(
            f"binary task needs both sides, got {n_pos} positives and "
            f"{n_neg} negatives")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tps = np.cumsum(y_sorted)
    fps = np.cumsum(~y_sorted)
    last_of_group = np.r_[np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1]
    points = np.empty((last_of_group.size + 1, 3))
    points[0] = (0.0, 0.0, np.inf)
    points[1:, 0] = fps[last_of_group] / n_neg
    points[1:, 1] = tps[last_of_group] / n_pos
    points[1:, 2] = s_sorted[last_of_group]
    fpr, tpr = points[:, 0], points[:, 1]
    # accumulate adds left to right, as a running sum would; np.sum pairs
    # terms up and can round differently
    auc = np.add.accumulate((fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2)
    return points, float(auc[-1])


def _check_prob_rows(probabilities):
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2:
        raise LabelError(f"probabilities must be 2-D, got shape {p.shape}")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE):
        raise LabelError("probability rows must sum to 1")
    return p


def roc_curve(true_labels, probabilities, class_index):
    """One-vs-rest ROC for one class of a probability matrix."""
    p = _check_prob_rows(probabilities)
    t = np.asarray(true_labels, dtype=np.int64)
    if not 0 <= class_index < p.shape[1]:
        raise LabelError(f"class index {class_index} outside [0, {p.shape[1]})")
    return binary_roc(t == class_index, p[:, class_index])


def micro_roc_curve(true_labels, probabilities):
    """Micro-average ROC: pool every (sample, class) indicator/score pair."""
    p = _check_prob_rows(probabilities)
    t = np.asarray(true_labels, dtype=np.int64)
    onehot = np.zeros_like(p, dtype=bool)
    onehot[np.arange(t.size), t] = True
    return binary_roc(onehot.reshape(-1), p.reshape(-1))

