"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone shows pytest's own pass/fail verdicts.
"""

import csv
import json
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference_gradients, max_relative_error
from csocnn import cli, cso, data, detector, hyperopt, metrics, nn, trainer
from csocnn.nn import backward, forward
from test_metrics import oracle_metrics, random_label_pairs


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


# --- 1. architecture fidelity ------------------------------------------------

def test_criterion_01_architecture_fidelity():
    start = time.time()
    layers = nn.default_architecture()
    net = nn.Network(layers, (75, 1, 1), seed=0)
    assert nn.count_params(net) == (60997, 60613, 384)
    assert nn.infer_shapes(layers, (75, 1, 1)) == [
        (75, 1, 1), (70, 1, 64), (70, 1, 64), (35, 1, 64),
        (33, 1, 64), (33, 1, 64), (17, 1, 64),
        (15, 1, 64), (15, 1, 64), (8, 1, 64),
        (512,), (64,), (32,), (5,),
    ]
    assert time.time() - start < 1.0
    _report(1, "exact parameter totals (60997, 60613, 384) and all 14 "
               "output-shape cells")


# --- 2. gradient correctness -------------------------------------------------

def _toy_variants():
    # The finite-difference step is per-variant: small enough that the
    # oracle's own truncation noise sits below the 1e-4 tolerance at that
    # fixture (the bare-BN net has near-flat directions where h=1e-3
    # secants read curvature, not gradient).
    yield "tall", [
        nn.input_layer(),
        nn.conv2d(3, (3, 1)),
        nn.batch_norm(activation="relu"),
        nn.max_pool2d((2, 1)),
        nn.flatten(),
        nn.dense(4, activation="relu"),
        nn.dense(3, activation="softmax"),
    ], (9, 1, 1), 1e-3
    yield "wide-kernel", [
        nn.input_layer(),
        nn.conv2d(2, (2, 2)),
        nn.batch_norm(activation="relu"),
        nn.max_pool2d((1, 2)),
        nn.flatten(),
        nn.dense(5, activation="relu"),
        nn.dense(2, activation="softmax"),
    ], (5, 4, 2), 1e-3
    yield "bare-bn", [
        nn.input_layer(),
        nn.conv2d(4, (4, 1)),
        nn.batch_norm(),
        nn.max_pool2d((2, 1)),
        nn.flatten(),
        nn.dense(3, activation="softmax"),
    ], (11, 1, 1), 3e-5


def test_criterion_02_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(20)
    for name, layers, input_shape, step in _toy_variants():
        net = nn.Network(layers, input_shape, seed=41, dtype=np.float64)
        total, _, _ = nn.count_params(net)
        assert total <= 500, (name, total)
        x = rng.normal(size=(4,) + input_shape)
        k = net.num_classes
        y = rng.integers(0, k, 4)
        _, cache = forward(net, x, "train")
        analytic = backward(net, cache, y)
        numeric = finite_difference_gradients(net, x, y, step=step)
        worst = max_relative_error(analytic, numeric)
        assert worst < 1e-4, (name, worst)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"analytic gradients within 1e-4 of central differences on 3 "
               f"toy nets covering every layer kind ({elapsed:.1f}s)")


# --- 3. CSO convergence -------------------------------------------------------

def test_criterion_03_cso_convergence():
    start = time.time()
    # the swarm maximizes, so it is handed each function negated
    sphere = lambda x, ctx=None: float(np.sum(np.asarray(x) ** 2))
    neg_sphere = lambda x, ctx=None: -sphere(x)
    config = cso.SwarmConfig(n_cats=30, max_iters=100, seed=42)
    _, neg_best, _ = cso.optimize(neg_sphere, [(-5.0, 5.0)] * 5, config)
    sphere_best = -neg_best
    assert sphere_best < 1e-3

    # equal-budget random search does not get close
    evals = 30 + 100 * (21 * 4 + 9)  # init + per-iteration candidate count
    rng = np.random.default_rng(42)
    random_best = min(sphere(rng.uniform(-5, 5, 5)) for _ in range(evals))
    assert random_best > 1e-3

    def neg_rosenbrock(x, ctx):
        return -float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    _, neg_rosen_best, _ = cso.optimize(neg_rosenbrock, [(-5.0, 5.0)] * 2,
                                        config)
    rosen_best = -neg_rosen_best
    assert rosen_best < 1e-1

    monotone_runs = 0
    for seed in range(100):
        small = cso.SwarmConfig(n_cats=8, max_iters=15, seed=seed)
        _, _, h = cso.optimize(neg_sphere, [(-5.0, 5.0)] * 3, small)
        if all(a <= b for a, b in zip(h.best_value, h.best_value[1:])):
            monotone_runs += 1
    assert monotone_runs == 100
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(3, f"sphere {sphere_best:.2e} < 1e-3 (random search: "
               f"{random_best:.2e}), rosenbrock {rosen_best:.2e} < 1e-1, "
               f"monotone history 100/100 ({elapsed:.1f}s)")


# --- 4. metric oracle equivalence ----------------------------------------------

def test_criterion_04_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(1000):
        t, p, k = random_label_pairs(rng, k_max=6, n_max=200)
        cm = metrics.confusion(t, p, k)
        got = metrics.scalar_metrics(cm)
        accuracy, per_class, macro, weighted, kappa = oracle_metrics(t, p, k)
        assert got["accuracy"] == accuracy
        assert got["kappa"] == kappa
        for c, name in enumerate(cm.class_names):
            for field in ("precision", "recall", "f1", "sensitivity",
                          "specificity", "ppv", "npv"):
                want = per_class[c][field]
                assert got["per_class"][name][field] == \
                    (want if want is not None else 0.0)
        for field in macro:
            assert got["macro"][field] == macro[field]
            assert got["weighted"][field] == weighted[field]
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(4, f"{checked} random confusion matrices agree bit-for-bit with "
               f"the label-pair oracle ({elapsed:.1f}s)")


# --- 5. published arithmetic cross-checks ---------------------------------------

def test_criterion_05_report_arithmetic():
    f1 = 2 * 0.84 * 0.94 / (0.84 + 0.94)
    assert round(f1, 2) == 0.89
    diagonal = (8609, 2060, 1664, 464, 2300)
    accuracy = sum(diagonal) / 15351
    assert round(accuracy, 4) == 0.9835
    _report(5, "f1(0.84, 0.94) rounds to 0.89; diagonal accuracy rounds to "
               "0.9835")


# --- 6. split fidelity -----------------------------------------------------------

def test_criterion_06_split_fidelity():
    # heavy class imbalance comparable to multi-stage capture exports
    weights = {"Benign": 43580, "Data": 10300, "Establish": 8625,
               "Lateral": 2449, "Reconn": 11800}
    assert sum(weights.values()) == 76754
    labels = [l for l, n in weights.items() for _ in range(n)]
    n = len(labels)
    # each row's feature is its own index, so the parts trace back to rows
    flows = data.Flows(np.arange(n, dtype=np.float64)[:, None], labels)
    train, val, test = data.split(flows, seed=6)
    sizes = (len(train), len(val), len(test))
    assert sizes == (55262, 6141, 15351)
    for part in (train, val, test):
        share = len(part) / n
        counts = Counter(part.labels.tolist())
        for label, total in weights.items():
            assert abs(counts[label] - total * share) <= 1
    # partitions are disjoint and exhaustive
    seen = np.concatenate([part.features[:, 0] for part in (train, val, test)])
    assert len(seen) == n and set(seen.astype(int).tolist()) == set(range(n))
    _report(6, "76754 records split exactly into (55262, 6141, 15351) with "
               "class ratios within ±1 record")


# --- 7. callback semantics --------------------------------------------------------

def _toy_net():
    return nn.Network([nn.input_layer(), nn.dense(2, activation="softmax")],
                      (2,), seed=0)


def _drive(val_accs):
    net = _toy_net()
    state = trainer.TrainingState()
    stop_epoch = None
    for epoch, acc in enumerate(val_accs, start=1):
        if trainer.epoch_end(net, state, epoch, val_loss=1 - acc, val_acc=acc):
            stop_epoch = epoch
            break
    # the best epoch's network is kept in memory, as a copy
    assert state.best_network is not None and state.best_network is not net
    return stop_epoch


def test_criterion_07_callback_semantics():
    # scenario A: a run that early-stops records initial_lr on every epoch;
    # the validation set is two rows of one class, so its accuracy can
    # only be 0, 0.5 or 1 and plateaus within a few epochs
    rng = np.random.default_rng(7)
    x = rng.normal(size=(64, 2))
    y = (x[:, 0] > 0).astype(np.int64)
    val = (np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, 1]))
    config = trainer.TrainConfig(epochs=20, batch_size=16, initial_lr=3e-3,
                                 seed=7)
    _, state = trainer.train(_toy_net(), (x, y), val, config)
    assert state.stopped_early and len(state.epochs) < config.epochs
    assert state.lr == [config.initial_lr] * len(state.epochs)
    # scenario C: two consecutive non-improving epochs halt training
    assert _drive([0.90, 0.89, 0.88]) == 3
    _report(7, f"a run that early-stops after epoch {len(state.epochs)} of "
               f"{config.epochs} records lr {config.initial_lr} on every "
               f"epoch, and a scripted run stops after epoch 3")


# --- 8. end-to-end desk-scale training ---------------------------------------------

def test_criterion_08_desk_scale_training():
    start = time.time()
    flows = data.make_synthetic_blobs(10000, k_classes=5, d=75,
                                      separation=3.0, seed=8)
    prep = data.prepare_dataset(flows, seed=8)
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=8)
    config = trainer.TrainConfig(seed=8)  # defaults: 5 epochs, batch 640
    best, state = trainer.train(net, prep.train, prep.val, config)
    _, test_acc, _, _ = trainer.evaluate(best, prep.test)
    elapsed = time.time() - start
    assert test_acc >= 0.95
    assert len(state.epochs) <= 5
    assert elapsed < 600.0
    _report(8, f"synthetic 10000x75 five-class run reaches test accuracy "
               f"{test_acc:.4f} >= 0.95 in {len(state.epochs)} epochs "
               f"({elapsed:.0f}s wall)")


# --- 9. hybrid search sanity ----------------------------------------------------

def test_criterion_09_hybrid_search_beats_random(small_blobs):
    start = time.time()
    prep = small_blobs
    arch = nn.default_architecture(5)
    space = hyperopt.SearchSpace(lr_range=(1e-4, 1e-2),
                                 batch_range=(32, 256),
                                 epoch_range=(1, 2))
    datasets = (prep.train, prep.val)

    # 12-sample random-search baseline, seed-fixed, evaluated first
    rng = np.random.default_rng(90)
    random_best = hyperopt.WORST_FITNESS
    for i in range(12):
        config = replace(hyperopt.decode(rng.random(3), space),
                         seed=hyperopt.candidate_seed(90, i, 0))
        fit = hyperopt.evaluate_candidate(config, datasets, arch)
        random_best = max(random_best, fit)

    config = cso.SwarmConfig(n_cats=4, max_iters=3, seed=90)
    _, swarm_best, history = hyperopt.optimize_hyperparams(
        space, datasets, arch, config)
    assert swarm_best >= random_best
    assert all(a <= b for a, b in
               zip(history.best_value, history.best_value[1:]))
    elapsed = time.time() - start
    _report(9, f"swarm best {swarm_best.val_accuracy:.4f} >= random-search "
               f"best {random_best.val_accuracy:.4f}; history non-decreasing "
               f"({elapsed:.0f}s)")


# --- 10. capture-shaped CSV end-to-end (no accuracy assertion) -----------------------

def _write_capture_shaped_csv(path, n=400, seed=10):
    rng = np.random.default_rng(seed)
    flows = data.make_synthetic_blobs(n, k_classes=5, d=75,
                                      separation=2.0, seed=seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"flow_feat_{i}" for i in range(75)] + ["label"])
        for i, (features, label) in enumerate(zip(flows.features,
                                                  flows.labels)):
            row = [repr(float(v)) for v in features]
            if i % 97 == 0:
                row[3] = "Infinity"  # duration-style overflow
            if i % 89 == 0:
                row[10] = ""  # missing cell
            writer.writerow(row + [label])
    return path


def test_criterion_10_capture_shaped_csv_end_to_end(tmp_path):
    csv_path = _write_capture_shaped_csv(tmp_path / "capture.csv")
    train_out = tmp_path / "train"
    code = cli.main(["train", "--data", str(csv_path), "--seed", "10",
                     "--epochs", "2", "--batch", "64",
                     "--out", str(train_out)])
    assert code == 0
    eval_out = tmp_path / "eval"
    code = cli.main(["evaluate", "--model", str(train_out / "model.model"),
                     "--data", str(csv_path), "--seed", "10",
                     "--out", str(eval_out)])
    assert code == 0
    record = json.loads((eval_out / "metrics.json").read_text())
    assert list(record.keys()) == [
        "Training accuracy", "Validating accuracy", "Testing accuracy",
        "Precision Score", "Recall Score", "F1 Score", "Sensitivity",
        "Specificity", "PPV", "NPV", "Kappa Score",
    ]
    # deliberately no accuracy assertion: the published full-capture numbers
    # are not reproducible at desk scale
    _report(10, "capture-shaped CSV trains and evaluates end-to-end, "
                "emitting all 11 report fields")


# --- 11. detector consistency -----------------------------------------------------

def test_criterion_11_detector_consistency(small_blobs):
    prep = small_blobs
    net = nn.Network(nn.default_architecture(5), (75, 1, 1), seed=11)
    config = trainer.TrainConfig(epochs=2, batch_size=128, initial_lr=3e-3,
                                 seed=11)
    best, _ = trainer.train(net, prep.train, prep.val, config)
    x, y = prep.test
    benign = list(prep.codec.classes).index("Benign")
    policy = detector.DetectionPolicy(threshold=0.5, benign_class_index=benign)
    scores, _ = detector.score(nn.predict(best, x), policy)
    assert scores.min() > 0.0

    y_bin = (np.asarray(y) != benign).astype(int)
    probs2 = np.stack([1.0 - scores, scores], axis=1)
    points, _ = metrics.roc_curve(y_bin, probs2, 1)
    n_pos, n_neg = int(y_bin.sum()), int((1 - y_bin).sum())
    uniq = sorted(set(scores.tolist()), reverse=True)
    realize = {s: (uniq[i + 1] if i + 1 < len(uniq) else 0.0)
               for i, s in enumerate(uniq)}
    for fpr, tpr, thr in points:
        t = scores.max() if thr == float("inf") else realize[thr]
        flagged = scores > t
        assert int((flagged & (y_bin == 1)).sum()) / n_pos == tpr
        assert int((flagged & (y_bin == 0)).sum()) / n_neg == fpr

    # calibration against exhaustive enumeration on a 20-record fixture
    sel = np.arange(20)
    x20 = x[sel]
    y20 = np.asarray(y)[sel]
    assert (y20 == benign).any() and (y20 != benign).any()
    s20, _ = detector.score(nn.predict(best, x20), policy)
    got = detector.calibrate_threshold(s20, y20, policy)
    positives = y20 != benign
    best_t, best_f1 = 0.0, -1.0
    for t in sorted({0.0} | set(s20.tolist())):
        flagged = s20 > t
        tp = int((flagged & positives).sum())
        fp = int((flagged & ~positives).sum())
        fn = int(positives.sum()) - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    assert got == best_t
    _report(11, "threshold sweep reproduces every ROC point exactly; "
                "calibration matches exhaustive enumeration")


# --- 12. CLI determinism ------------------------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    flags = ["--synthetic", "--synthetic-samples", "700", "--seed", "12",
             "--epochs", "2", "--batch", "128"]
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for out in outs:
        assert cli.main(["train", *flags, "--out", str(out)]) == 0
    for name in ("history.csv", "confusion_matrix.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    trains = [json.loads((o / "manifest.json").read_text())["metrics"]
              for o in outs]
    assert trains[0] == trains[1]

    opt_flags = ["--synthetic", "--synthetic-samples", "500", "--seed", "3",
                 "--cats", "2", "--iters", "2", "--epoch-range", "1", "2",
                 "--batch-range", "64", "128"]
    opt_outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in opt_outs:
        assert cli.main(["optimize", *opt_flags, "--out", str(out)]) == 0
    assert (opt_outs[0] / "convergence.csv").read_bytes() == \
        (opt_outs[1] / "convergence.csv").read_bytes()

    eval_outs = [tmp_path / "e1", tmp_path / "e2"]
    for out in eval_outs:
        assert cli.main(["evaluate", "--model", str(outs[0] / "model.model"),
                         "--synthetic", "--synthetic-samples", "300",
                         "--seed", "12", "--out", str(out)]) == 0
    for name in ("confusion_matrix.csv", "roc.csv"):
        assert (eval_outs[0] / name).read_bytes() == \
            (eval_outs[1] / name).read_bytes()
    evals = [json.loads((o / "manifest.json").read_text())["metrics"]
             for o in eval_outs]
    assert evals[0] == evals[1]
    _report(12, "train, optimize, and evaluate produce byte-identical CSVs "
                "and identical metric values across repeated seeded runs")
