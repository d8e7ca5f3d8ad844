import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csocnn import metrics
from csocnn.errors import DegenerateClass, LabelError, UndefinedMetric


# --- independent oracle: everything from raw label pairs --------------------

def oracle_rates(true_labels, pred_labels, c):
    tp = fp = tn = fn = 0
    for t, p in zip(true_labels, pred_labels):
        if t == c and p == c:
            tp += 1
        elif t != c and p == c:
            fp += 1
        elif t == c and p != c:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def oracle_metrics(true_labels, pred_labels, k):
    total = len(true_labels)
    correct = sum(1 for t, p in zip(true_labels, pred_labels) if t == p)
    accuracy = correct / total
    per_class = []
    for c in range(k):
        tp, fp, tn, fn = oracle_rates(true_labels, pred_labels, c)
        precision = tp / (tp + fp) if tp + fp else None
        recall = tp / (tp + fn) if tp + fn else None
        if precision is None or recall is None:
            f1 = None
        elif precision + recall == 0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        per_class.append({
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "sensitivity": recall,
            "specificity": tn / (tn + fp) if tn + fp else None,
            "ppv": precision,
            "npv": tn / (tn + fn) if tn + fn else None,
            "support": tp + fn,
        })
    fields = ("precision", "recall", "f1", "sensitivity", "specificity",
              "ppv", "npv")
    coerced = [{f: (v[f] if v[f] is not None else 0.0) for f in fields}
               for v in per_class]
    macro = {f: sum(v[f] for v in coerced) / k for f in fields}
    weighted = {
        f: sum(v[f] * p["support"] for v, p in zip(coerced, per_class)) / total
        for f in fields
    }
    true_counts = [sum(1 for t in true_labels if t == c) for c in range(k)]
    pred_counts = [sum(1 for p in pred_labels if p == c) for c in range(k)]
    pe_num = sum(tc * pc for tc, pc in zip(true_counts, pred_counts))
    p_e = pe_num / (total * total)
    kappa = (accuracy - p_e) / (1 - p_e) if p_e != 1.0 else None
    return accuracy, per_class, macro, weighted, kappa


def oracle_auc(positives, scores):
    """Pairwise concordance: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for y, s in zip(positives, scores) if y]
    neg = [s for y, s in zip(positives, scores) if not y]
    num = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                num += 1.0
            elif sp == sn:
                num += 0.5
    return num / (len(pos) * len(neg))


def random_label_pairs(rng, k_max=6, n_max=200):
    k = int(rng.integers(2, k_max + 1))
    n = int(rng.integers(k, n_max + 1))
    true_labels = rng.integers(0, k, n)
    pred_labels = rng.integers(0, k, n)
    return true_labels.tolist(), pred_labels.tolist(), k


# --- confusion / basic_rates -------------------------------------------------

def test_perfect_predictions_are_diagonal():
    cm = metrics.confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert np.array_equal(cm.counts, np.diag([1, 2, 1]))


def test_single_missed_sample():
    cm = metrics.confusion([0], [1], 2)
    assert cm.counts[0, 1] == 1
    assert cm.counts.sum() == 1


def test_confusion_matches_nested_loop_counter():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t, p, k = random_label_pairs(rng)
        cm = metrics.confusion(t, p, k)
        naive = [[0] * k for _ in range(k)]
        for a, b in zip(t, p):
            naive[a][b] += 1
        assert cm.counts.tolist() == naive


def test_confusion_rejects_bad_labels():
    with pytest.raises(LabelError):
        metrics.confusion([0, 3], [0, 1], 3)


def test_basic_rates_identity_grid():
    cm = metrics.confusion([0, 1], [0, 1], 2)
    assert metrics.basic_rates(cm, 0) == (1, 0, 1, 0)


def test_basic_rates_published_benign_row():
    # 8609 of 8716 benign flows identified: FN = 107
    counts = np.zeros((5, 5), dtype=np.int64)
    counts[0, 0] = 8609
    counts[0, 1] = 8716 - 8609
    cm = metrics.ConfusionMatrix(counts, ("Benign", "Data", "Establish",
                                          "Lateral", "Reconn"))
    tp, fp, tn, fn = metrics.basic_rates(cm, 0)
    assert tp == 8609 and fn == 107


def test_rates_always_partition_total():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t, p, k = random_label_pairs(rng)
        cm = metrics.confusion(t, p, k)
        for c in range(k):
            assert sum(metrics.basic_rates(cm, c)) == cm.total


# --- scalar metrics -----------------------------------------------------------

def test_scalar_metrics_agree_with_oracle_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t, p, k = random_label_pairs(rng)
        cm = metrics.confusion(t, p, k)
        got = metrics.scalar_metrics(cm)
        accuracy, per_class, macro, weighted, kappa = oracle_metrics(t, p, k)
        assert got["accuracy"] == accuracy
        assert got["kappa"] == kappa
        for c, name in enumerate(cm.class_names):
            for field in ("precision", "recall", "f1", "sensitivity",
                          "specificity", "ppv", "npv"):
                want = per_class[c][field]
                have = got["per_class"][name][field]
                assert have == (want if want is not None else 0.0), \
                    (field, c, have, want)
            assert got["per_class"][name]["support"] == per_class[c]["support"]
        for field in macro:
            assert got["macro"][field] == macro[field]
            assert got["weighted"][field] == weighted[field]


def test_known_f1_rounding():
    assert round(2 * 0.84 * 0.94 / (0.84 + 0.94), 2) == 0.89


def test_accuracy_from_published_diagonal():
    diagonal = (8609, 2060, 1664, 464, 2300)
    counts = np.zeros((5, 5), dtype=np.int64)
    supports = (8716, 2060, 1725, 490, 2360)
    for i, (hit, support) in enumerate(zip(diagonal, supports)):
        counts[i, i] = hit
        counts[i, (i + 1) % 5] = support - hit
    cm = metrics.ConfusionMatrix(counts, ("Benign", "Data", "Establish",
                                          "Lateral", "Reconn"))
    assert cm.total == 15351
    m = metrics.scalar_metrics(cm)
    assert round(m["accuracy"], 4) == 0.9835


def test_perfect_agreement_kappa_is_one():
    cm = metrics.confusion([0, 1, 2], [0, 1, 2], 3)
    assert metrics.scalar_metrics(cm)["kappa"] == 1.0


def test_kappa_hand_example():
    cm = metrics.ConfusionMatrix(np.array([[40, 10], [20, 30]]), ("a", "b"))
    m = metrics.scalar_metrics(cm)
    assert m["accuracy"] == pytest.approx(0.7)
    assert m["kappa"] == pytest.approx(0.4)


def test_zero_denominator_metric_reads_zero():
    cm = metrics.confusion([0, 0], [0, 0], 2)  # class 1 never appears
    m = metrics.scalar_metrics(cm)
    assert m["per_class"]["class_1"]["precision"] == 0.0
    assert m["kappa"] == 0.0  # chance agreement is 1
    with pytest.raises(UndefinedMetric):
        metrics.scalar_metrics(metrics.confusion([], [], 2))


def test_accuracy_equals_observed_agreement():
    # Both are trace/total; assert they are the same bits.
    rng = np.random.default_rng(3)
    for _ in range(100):
        t, p, k = random_label_pairs(rng)
        cm = metrics.confusion(t, p, k)
        m = metrics.scalar_metrics(cm)
        p_o = int(np.trace(cm.counts)) / cm.total
        assert m["accuracy"] == p_o


def test_sensitivity_is_recall_identical():
    rng = np.random.default_rng(4)
    for _ in range(30):
        t, p, k = random_label_pairs(rng)
        m = metrics.scalar_metrics(metrics.confusion(t, p, k))
        for vals in m["per_class"].values():
            assert vals["sensitivity"] == vals["recall"]
            assert vals["ppv"] == vals["precision"]
        assert m["macro"]["sensitivity"] == m["macro"]["recall"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=4, max_size=60))
def test_f1_is_harmonic_mean_property(pairs):
    t = [a for a, _ in pairs]
    p = [b for _, b in pairs]
    m = metrics.scalar_metrics(metrics.confusion(t, p, 4))
    for vals in m["per_class"].values():
        pr, rc, f1 = vals["precision"], vals["recall"], vals["f1"]
        assert min(pr, rc) - 1e-12 <= f1 <= max(pr, rc) + 1e-12
        if pr == rc:
            assert f1 == pytest.approx(pr)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=3, max_size=50))
def test_kappa_bounded_by_accuracy(pairs):
    t = [a for a, _ in pairs]
    p = [b for _, b in pairs]
    cm = metrics.confusion(t, p, 3)
    m = metrics.scalar_metrics(cm)
    assert m["kappa"] <= m["accuracy"] + 1e-12
    off_diagonal = cm.total - int(np.trace(cm.counts))
    if m["kappa"] == 1.0:
        assert off_diagonal == 0


# --- class report --------------------------------------------------------------

def test_report_layout_and_rounding():
    cm = metrics.confusion([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2,
                           ("Benign", "Reconn"))
    text = metrics.report_text(metrics.scalar_metrics(cm))
    lines = text.splitlines()
    assert lines[0].split() == ["precision", "recall", "f1-score", "support"]
    benign_row = next(l for l in lines if l.strip().startswith("Benign"))
    assert benign_row.split() == ["Benign", "0.50", "0.50", "0.50", "2"]
    assert any(l.strip().startswith("accuracy") for l in lines)
    assert any(l.strip().startswith("macro avg") for l in lines)
    assert any(l.strip().startswith("weighted avg") for l in lines)


def test_weighted_recall_equals_accuracy():
    rng = np.random.default_rng(9)
    for _ in range(30):
        t, p, k = random_label_pairs(rng)
        m = metrics.scalar_metrics(metrics.confusion(t, p, k))
        assert m["weighted"]["recall"] == pytest.approx(m["accuracy"])


def test_single_class_report():
    cm = metrics.confusion([0, 0, 0], [0, 0, 0], 1, ("only",))
    lines = metrics.report_text(metrics.scalar_metrics(cm)).splitlines()
    rows = [l.split() for l in lines if l.strip().startswith("only")]
    assert rows == [["only", "1.00", "1.00", "1.00", "3"]]
    # accuracy equals recall
    assert [l.split() for l in lines if l.strip().startswith("accuracy")] == [
        ["accuracy", "1.00", "3"]]


# --- ROC ------------------------------------------------------------------------

def test_perfectly_separating_scores():
    points, auc = metrics.binary_roc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
    assert auc == 1.0
    assert points[0, :2].tolist() == [0.0, 0.0]
    assert points[-1, :2].tolist() == [1.0, 1.0]


def test_constant_scores_are_chance():
    _, auc = metrics.binary_roc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
    assert auc == 0.5


def test_six_sample_fixture_matches_concordance_oracle():
    y = [1, 1, 1, 0, 0, 0]
    s = [0.9, 0.4, 0.35, 0.5, 0.2, 0.35]
    _, auc = metrics.binary_roc(y, s)
    assert auc == pytest.approx(oracle_auc(y, s))


def test_random_scores_match_concordance_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], n)  # force ties
        _, auc = metrics.binary_roc(y, s)
        assert auc == pytest.approx(oracle_auc(y.tolist(), s.tolist()))


def oracle_binary_roc(positive_mask, scores):
    """The earlier binary_roc: one tuple per point, AUC summed in a loop."""
    y = np.asarray(positive_mask, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tps = np.cumsum(y_sorted)
    fps = np.cumsum(~y_sorted)
    last_of_group = np.r_[np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1]
    points = [(0.0, 0.0, float("inf"))]
    for i in last_of_group:
        points.append((int(fps[i]) / n_neg, int(tps[i]) / n_pos,
                       float(s_sorted[i])))
    auc = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2
    return points, auc


def _roc_oracle_cases():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 400))
        y = rng.integers(0, 2, n).astype(bool)
        y[:2] = (True, False)  # both sides present
        # heavy ties: every score is drawn from at most 150 levels
        s = rng.choice(rng.random(int(rng.integers(1, 150))), n)
        yield y, s
    yield np.array([True, False, True, False]), np.full(4, 0.5)  # all equal
    yield np.array([True, False]), np.array([0.3, 0.7])  # two records
    yield np.array([False, True]), np.array([0.3, 0.7])
    yield np.array([True, False]), np.array([0.4, 0.4])


def test_binary_roc_matches_tuple_and_loop_oracle():
    for y, s in _roc_oracle_cases():
        points, auc = metrics.binary_roc(y, s)
        expected_points, expected_auc = oracle_binary_roc(y, s)
        assert points.dtype == np.float64 and points.shape[1] == 3
        assert [tuple(p) for p in points.tolist()] == expected_points
        assert auc == expected_auc  # bit for bit, not approx


def test_roc_curve_one_vs_rest_and_micro():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 3, 30)
    logits = rng.normal(size=(30, 3))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    points, auc = metrics.roc_curve(y, probs, 1)
    assert points[0, :2].tolist() == [0.0, 0.0]
    assert points[-1, :2].tolist() == [1.0, 1.0]
    assert 0.0 <= auc <= 1.0
    _, micro_auc = metrics.micro_roc_curve(y, probs)
    assert 0.0 <= micro_auc <= 1.0


def test_degenerate_class_raises():
    with pytest.raises(DegenerateClass):
        metrics.binary_roc([1, 1], [0.2, 0.4])
    probs = np.array([[0.6, 0.4], [0.3, 0.7]])
    with pytest.raises(DegenerateClass):
        metrics.roc_curve([0, 0], probs, 1)


def test_bad_probability_rows_rejected():
    with pytest.raises(LabelError):
        metrics.roc_curve([0, 1], np.array([[0.5, 0.2], [0.3, 0.7]]), 0)


def _rank_pattern(values):
    v = np.asarray(values)
    return np.sign(v[:, None] - v[None, :])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(0.01, 0.99)),
                min_size=4, max_size=40))
@example([(True, 0.01), (False, 0.010000000000000002),  # 2v+1 ties these
          (True, 0.5), (False, 0.3)])
def test_auc_invariant_under_monotone_transform(items):
    y = [a for a, _ in items]
    s = [b for _, b in items]
    if all(y) or not any(y):
        y[0] = not y[0]
    _, auc_raw = metrics.binary_roc(y, s)
    for transformed in ([v ** 3 for v in s], [2.0 * v + 1.0 for v in s]):
        # Rounding can merge two distinct scores into a tie, which changes
        # the AUC; invariance holds for a transform that keeps every
        # pairwise order of the drawn scores.
        if np.array_equal(_rank_pattern(transformed), _rank_pattern(s)):
            _, auc = metrics.binary_roc(y, transformed)
            assert auc_raw == pytest.approx(auc)
