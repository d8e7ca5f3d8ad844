import numpy as np
import pytest

from csocnn import data, detector, metrics, nn, trainer
from csocnn.errors import DegenerateClass


@pytest.fixture(scope="module")
def trained_setup():
    flows = data.make_synthetic_blobs(1200, k_classes=5, d=75,
                                      separation=2.0, seed=17)
    prep = data.prepare_dataset(flows, seed=17)
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=17)
    config = trainer.TrainConfig(epochs=2, batch_size=128, initial_lr=3e-3,
                                 seed=17)
    best, _ = trainer.train(net, prep.train, prep.val, config)
    return prep, best


def _probe_network(k=5):
    """Dense softmax net with fixed weights: deterministic probabilities."""
    net = nn.Network([nn.input_layer(), nn.dense(k, activation="softmax")],
                     (k,), seed=0)
    net.params["1.weight"][:] = 4.0 * np.eye(k, dtype=np.float32)
    return net


def _exhaustive_max_f1(scores, positives):
    """Reference calibration: try every candidate, keep the lowest best."""
    best_t, best_f1 = 0.0, -1.0
    for t in sorted({0.0} | set(scores.tolist())):
        flagged = scores > t
        tp = int((flagged & positives).sum())
        fp = int((flagged & ~positives).sum())
        fn = int(positives.sum()) - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t


def test_pure_benign_probability_scores_zero():
    net = _probe_network()
    x = np.zeros((1, 5), dtype=np.float32)
    x[0, 0] = 8.0  # saturates class 0
    policy = detector.DetectionPolicy(threshold=0.2, benign_class_index=0)
    probs = nn.predict(net, x[:1])
    scores, flags = detector.score(probs, policy)
    assert scores[0] < 0.01
    assert not flags[0]
    assert probs[0].argmax() == 0


def test_uniform_probabilities_score():
    net = _probe_network()
    x = np.zeros((1, 5), dtype=np.float32)  # all-zero input -> uniform softmax
    mass = detector.DetectionPolicy(threshold=0.5,
                                    score_kind="non_benign_mass")
    top = detector.DetectionPolicy(threshold=0.5,
                                   score_kind="one_minus_max_prob")
    probs = nn.predict(net, x[:1])
    assert detector.score(probs, mass)[0][0] == pytest.approx(0.8)
    assert detector.score(probs, top)[0][0] == pytest.approx(0.8)


def test_verdict_strictly_greater_than_threshold():
    net = _probe_network()
    x = np.zeros((1, 5), dtype=np.float32)
    probs = nn.predict(net, x[:1])
    score = detector.score(probs, detector.DetectionPolicy(threshold=0.5))[0][0]
    at_score = detector.DetectionPolicy(threshold=score)
    below = detector.DetectionPolicy(threshold=max(score - 1e-6, 0.0))
    assert not detector.score(probs, at_score)[1][0]
    assert detector.score(probs, below)[1][0]


def test_scores_live_in_unit_interval(trained_setup):
    prep, net = trained_setup
    policy = detector.DetectionPolicy(threshold=0.5)
    scores, _ = detector.score(nn.predict(net, prep.test[0]), policy)
    assert len(scores) == len(prep.test[0])
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_verdicts_monotone_in_threshold(trained_setup):
    prep, net = trained_setup
    flagged = []
    probs = nn.predict(net, prep.test[0])
    for threshold in (0.1, 0.4, 0.7, 0.95):
        policy = detector.DetectionPolicy(threshold=threshold)
        _, flags = detector.score(probs, policy)
        flagged.append(set(np.flatnonzero(flags).tolist()))
    for wider, narrower in zip(flagged, flagged[1:]):
        assert narrower <= wider


def test_batch_scoring_is_order_equivariant(trained_setup):
    prep, net = trained_setup
    x = prep.test[0][:40]
    policy = detector.DetectionPolicy(threshold=0.5)
    base_scores, base_flags = detector.score(nn.predict(net, x), policy)
    perm = np.random.default_rng(0).permutation(len(x))
    scores, flags = detector.score(nn.predict(net, x[perm]), policy)
    for out_pos, in_pos in enumerate(perm):
        assert scores[out_pos] == base_scores[in_pos]
        assert flags[out_pos] == base_flags[in_pos]


def test_threshold_sweep_reproduces_roc_points(trained_setup):
    prep, net = trained_setup
    x, y = prep.test
    benign = list(prep.codec.classes).index("Benign")
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=benign)
    probs = nn.predict(net, x)
    scores, _ = detector.score(probs, policy)
    assert scores.min() > 0.0  # keeps every ROC point reachable by strict >

    # benign-vs-rest via the one-vs-rest ROC op on (p_benign, 1-p_benign)
    y_bin = (y != benign).astype(int)
    probs2 = np.stack([1.0 - scores, scores], axis=1)
    points, _ = metrics.roc_curve(y_bin, probs2, 1)

    n_pos = int(y_bin.sum())
    n_neg = len(y_bin) - n_pos
    uniq = sorted(set(scores.tolist()), reverse=True)
    # threshold values that realize {score >= s} under the strict-> verdict
    realize = {s: (uniq[i + 1] if i + 1 < len(uniq) else 0.0)
               for i, s in enumerate(uniq)}
    for fpr, tpr, roc_threshold in points:
        t = scores.max() if roc_threshold == float("inf") \
            else realize[roc_threshold]
        _, flagged = detector.score(
            probs, detector.DetectionPolicy(threshold=t,
                                            benign_class_index=benign))
        assert int((flagged & (y_bin == 1)).sum()) / n_pos == tpr
        assert int((flagged & (y_bin == 0)).sum()) / n_neg == fpr


def test_calibrate_perfectly_separable():
    net = _probe_network(2)
    x = np.zeros((6, 2), dtype=np.float32)
    x[:3, 0] = 8.0   # benign, p_benign ~ 1
    x[3:, 1] = 8.0   # attack, p_benign ~ 0
    y = np.array([0, 0, 0, 1, 1, 1])
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=0)
    probs = nn.predict(net, x)
    scores, _ = detector.score(probs, policy)
    t = detector.calibrate_threshold(scores, y, policy)
    _, flags = detector.score(
        probs, detector.DetectionPolicy(threshold=t, benign_class_index=0))
    assert flags.tolist() == [False] * 3 + [True] * 3


def test_calibrate_all_equal_scores_returns_zero():
    net = _probe_network(2)
    x = np.zeros((4, 2), dtype=np.float32)  # identical rows, equal scores
    y = np.array([0, 0, 1, 1])
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=0)
    scores, _ = detector.score(nn.predict(net, x), policy)
    assert detector.calibrate_threshold(scores, y, policy) == 0.0


def test_calibrate_matches_exhaustive_enumeration(trained_setup):
    prep, net = trained_setup
    x = prep.val[0][:20]
    y = prep.val[1][:20]
    benign = list(prep.codec.classes).index("Benign")
    if not ((y == benign).any() and (y != benign).any()):
        pytest.skip("20-sample slice lost one side")
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=benign)
    scores, _ = detector.score(nn.predict(net, x), policy)
    got = detector.calibrate_threshold(scores, y, policy)
    assert got == _exhaustive_max_f1(scores, y != benign)


@pytest.mark.parametrize("seed", range(5))
def test_calibrate_matches_exhaustive_enumeration_with_ties(seed):
    # few distinct scores, so most candidates are shared by many records
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 8, size=300) / 8.0
    y = rng.integers(0, 3, size=300)
    policy = detector.DetectionPolicy(benign_class_index=0)
    got = detector.calibrate_threshold(scores, y, policy)
    assert type(got) is float
    assert got == _exhaustive_max_f1(scores, y != 0)


def test_calibrate_f1_tie_takes_lowest_threshold():
    # t=0 flags every record (tp 2, fp 2) and t=0.1 only the 0.7 positive
    # (tp 1, fp 0): both give F1 = 2/3
    scores = np.array([0.1, 0.7, 0.1, 0.1])
    y = np.array([1, 1, 0, 0])
    policy = detector.DetectionPolicy(benign_class_index=0)
    assert _exhaustive_max_f1(scores, y != 0) == 0.0
    assert detector.calibrate_threshold(scores, y, policy) == 0.0


def test_calibrate_degenerate_sides():
    net = _probe_network(2)
    x = np.zeros((3, 2), dtype=np.float32)
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=0)
    scores, _ = detector.score(nn.predict(net, x), policy)
    with pytest.raises(DegenerateClass):
        detector.calibrate_threshold(scores, np.array([0, 0, 0]), policy)


def test_benign_index_must_be_a_probability_column():
    probs = np.full((2, 5), 0.2)
    assert detector.score(probs, detector.DetectionPolicy(
        benign_class_index=4))[0].tolist() == pytest.approx([0.8, 0.8])
    with pytest.raises(ValueError, match=r"^benign_class_index 5 outside "
                       r"\[0, 5\)$"):
        detector.score(probs, detector.DetectionPolicy(benign_class_index=5))


def test_policy_validation():
    with pytest.raises(ValueError):
        detector.DetectionPolicy(threshold=1.5)
    with pytest.raises(ValueError):
        detector.DetectionPolicy(score_kind="reconstruction")
