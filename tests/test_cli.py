import csv
import io
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import poison_update, rewrite_manifest
from csocnn import cli, data, detector, hyperopt, nn, trainer
from csocnn.errors import TrainingDiverged
from csocnn.model_io import load_model, save_model

TRAIN_FLAGS = ["--synthetic", "--synthetic-samples", "800",
               "--synthetic-separation", "3.0", "--seed", "13",
               "--epochs", "2", "--batch", "128", "--lr", "0.003"]

TABLE_FIELDS = ["Training accuracy", "Validating accuracy", "Testing accuracy",
                "Precision Score", "Recall Score", "F1 Score", "Sensitivity",
                "Specificity", "PPV", "NPV", "Kappa Score"]


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train-run")
    code = cli.main(["train", *TRAIN_FLAGS, "--out", str(out)])
    assert code == 0
    return out


def _write_stream(path, n=3, seed=13, n_features=75, rename=None):
    flows = data.make_synthetic_blobs(max(n, 5), k_classes=5, d=75,
                                      separation=3.0, seed=seed)[:n]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(n_features)] + ["label"])
        for features, label in zip(flows.features, flows.labels):
            writer.writerow([repr(float(v)) for v in features[:n_features]]
                            + [(rename or {}).get(label, label)])
    return path


def test_train_writes_inventoried_artifacts(train_run):
    manifest = json.loads((train_run / "manifest.json").read_text())
    assert manifest["partial"] is False
    assert manifest["seed"] == 13
    for name in ("history.csv", "curves.svg", "model.model", "scaler.json",
                 "confusion_matrix.csv"):
        assert name in manifest["artifacts"]
        assert (train_run / name).exists()
    assert "test_accuracy" in manifest["metrics"]
    # every file the run leaves is inventoried: no checkpoints/ directory
    assert ({p.name for p in train_run.iterdir()}
            == {*manifest["artifacts"], "manifest.json"})


def test_train_usage_error_without_data():
    assert cli.main(["train", "--seed", "1"]) == 2


def test_unknown_command_is_usage_error():
    assert cli.main(["frobnicate"]) == 2


def test_train_determinism(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["train", *TRAIN_FLAGS, "--out", str(out)]) == 0
    for name in ("history.csv", "confusion_matrix.csv", "curves.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    metrics_a = json.loads((outs[0] / "manifest.json").read_text())["metrics"]
    metrics_b = json.loads((outs[1] / "manifest.json").read_text())["metrics"]
    assert metrics_a == metrics_b


def test_evaluate_emits_report_fields(train_run, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--synthetic", "--synthetic-samples", "400",
                     "--synthetic-separation", "3.0",
                     "--seed", "13", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "metrics.json").read_text())
    assert list(record.keys()) == TABLE_FIELDS
    # averaged fields are labeled, never a bare number
    for field in ("Precision Score", "Recall Score", "F1 Score"):
        assert set(record[field]) == {"macro", "weighted", "micro"}
    assert (out / "classification_report.txt").exists()
    report = (out / "classification_report.txt").read_text()
    assert report.splitlines()[0].split() == ["precision", "recall",
                                              "f1-score", "support"]


def test_evaluate_roc_endpoints_and_svg_validity(train_run, tmp_path):
    out = tmp_path / "eval2"
    assert cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--synthetic", "--synthetic-samples", "300",
                     "--seed", "13", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "roc.csv")))
    by_curve = {}
    for row in rows:
        by_curve.setdefault(row["curve"], []).append(row)
    for curve, points in by_curve.items():
        assert (float(points[0]["fpr"]), float(points[0]["tpr"])) == (0.0, 0.0)
        assert (float(points[-1]["fpr"]), float(points[-1]["tpr"])) == (1.0, 1.0)
    for svg_file in out.glob("*.svg"):
        ET.parse(svg_file)  # valid XML
    for svg_file in train_run.glob("*.svg"):
        ET.parse(svg_file)


def test_evaluate_corrupt_model_exits_3(train_run, tmp_path):
    broken = tmp_path / "broken.model"
    raw = (train_run / "model.model").read_bytes()
    broken.write_bytes(raw[:-64])
    out = tmp_path / "eval3"
    code = cli.main(["evaluate", "--model", str(broken),
                     "--scaler", str(train_run / "scaler.json"),
                     "--synthetic", "--seed", "1", "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ModelFormatError"


@pytest.mark.parametrize("command", ["evaluate", "detect"])
@pytest.mark.parametrize("key,value", [("2.var", -1.0), ("1.kernel", np.nan)])
def test_unscorable_model_exits_3(train_run, tmp_path, capsys, command, key,
                                  value):
    # unchecked, every row scores NaN, which passes no threshold: detect
    # would print "nan,normal,..." for each record and exit 0
    bundle = load_model(train_run / "model.model")
    net = bundle.network
    (net.bn_stats if key in net.bn_stats else net.params)[key].flat[3] = value
    broken = tmp_path / "unscorable.model"
    save_model(broken, net, bundle.class_names, bundle.scaler_fingerprint)
    stream = _write_stream(tmp_path / "stream.csv", n=20)
    out = tmp_path / "out"
    source = ["--data", str(stream)] if command == "evaluate" else \
        ["--input", str(stream), "--threshold", "0.5"]
    code = cli.main([command, "--model", str(broken),
                     "--scaler", str(train_run / "scaler.json"), *source,
                     "--out", str(out)])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ModelFormatError"
    assert key in error["message"]
    assert capsys.readouterr().out == ""


def test_evaluate_model_with_aliased_tensor_exits_3(train_run, tmp_path):
    # 1.kernel points at the bytes of the next tensor; it used to load them
    model = tmp_path / "aliased.model"
    model.write_bytes((train_run / "model.model").read_bytes())

    def alias(manifest):
        entries = {t["name"]: t for t in manifest["tensors"]}
        entries["1.kernel"]["offset"] = entries["1.bias"]["offset"]

    rewrite_manifest(model, alias)
    out = tmp_path / "out"
    code = cli.main(["evaluate", "--model", str(model),
                     "--scaler", str(train_run / "scaler.json"),
                     "--synthetic", "--synthetic-samples", "300",
                     "--seed", "1", "--out", str(out)])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ModelFormatError"
    assert "bad tensor table: 1.kernel" in error["message"]


@pytest.mark.parametrize("edit", [
    # a ReLU on conv 1, whose BatchNorm inference folds into it
    lambda m: m["layers"][1].update(activation="relu"),
    lambda m: m["layers"][3].update(padding="valid"),
    lambda m: m["layers"][3].update(kernel=[3, 1]),
    lambda m: m["layers"][3].update(kernel=[2, 2]),
    lambda m: m["layers"][3].update(kernel=[2.0, 1]),
    # conv 1 with no BatchNorm after it
    lambda m: m["layers"].pop(2) and None,
    # a BatchNorm after pool 3
    lambda m: m["layers"].insert(4, dict(m["layers"][2])),
], ids=["relu-conv", "valid-pool", "pool-3x1", "pool-2x2", "float-kernel",
        "conv-without-bn", "bn-after-pool"])
def test_detect_model_outside_the_stack_contract_exits_3(train_run, tmp_path,
                                                       capsys, edit):
    # the layer table is rejected at load time, before any verdict line
    model = tmp_path / "edited.model"
    model.write_bytes((train_run / "model.model").read_bytes())
    rewrite_manifest(model, edit)
    stream = _write_stream(tmp_path / "stream.csv", n=20)
    out = tmp_path / "out"
    code = cli.main(["detect", "--model", str(model),
                     "--scaler", str(train_run / "scaler.json"),
                     "--input", str(stream), "--threshold", "0.5",
                     "--out", str(out)])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ModelFormatError"
    assert "bad layer table" in error["message"]
    assert capsys.readouterr().out == ""


def test_detect_streams_in_order(train_run, tmp_path, capsys):
    stream = _write_stream(tmp_path / "stream.csv", n=3)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", "0.5",
                     "--out", str(tmp_path / "det")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["score", "verdict", "predicted_class"]
    assert len(lines) == 4  # header + 3 verdicts
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("normal", "anomalous")
        assert 0.0 <= float(fields[0]) <= 1.0


def test_detect_threshold_zero_flags_all_nonzero(train_run, tmp_path, capsys):
    stream = _write_stream(tmp_path / "stream.csv", n=6)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", "0",
                     "--out", str(tmp_path / "det0")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        if float(fields[0]) > 0:
            assert fields[1] == "anomalous"


def test_detect_verdict_counts_match_offline_threshold(train_run, tmp_path,
                                                       capsys):
    stream = _write_stream(tmp_path / "stream.csv", n=40, seed=14)
    threshold = 0.6
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", str(threshold),
                     "--out", str(tmp_path / "detc")])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    rows = list(csv.DictReader(out_lines))
    # offline recomputation from the emitted probability columns
    flagged = 0
    for row in rows:
        score = 1.0 - float(row["p_Benign"])  # non_benign_mass default
        assert score == pytest.approx(float(row["score"]), abs=1e-12)
        flagged += score > threshold
    assert flagged == sum(r["verdict"] == "anomalous" for r in rows)


def test_detect_empty_stream_is_header_only(train_run, tmp_path, capsys):
    stream = tmp_path / "empty.csv"
    stream.write_text(",".join([f"f{i}" for i in range(75)] + ["label"]) + "\n")
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", "0.5",
                     "--out", str(tmp_path / "dete")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_optimize_degenerate_single_cat(tmp_path):
    out = tmp_path / "opt1"
    code = cli.main(["optimize", "--synthetic", "--synthetic-samples", "400",
                     "--seed", "4", "--out", str(out),
                     "--cats", "1", "--iters", "1",
                     "--epoch-range", "1", "2", "--batch-range", "64", "128"])
    assert code == 0
    rows = list(csv.reader(open(out / "convergence.csv")))
    assert len(rows) == 2  # header + single iteration
    manifest = json.loads((out / "manifest.json").read_text())
    assert "best_fitness" in manifest["metrics"]
    assert (out / "best_hyperparams.json").exists()


def test_signal_guard_writes_partial_manifest(tmp_path):
    run = cli._Run(cli.build_parser().parse_args(
        ["train", "--seed", "1", "--out", str(tmp_path)]))
    with pytest.raises(SystemExit) as info:
        with run.started([]):
            signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)
    assert info.value.code == 130
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["partial"] is True


def test_detect_calibrate_prints_threshold(train_run, tmp_path, capsys):
    stream = _write_stream(tmp_path / "stream.csv", n=60, seed=13)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--calibrate",
                     "--out", str(tmp_path / "detcal")])
    assert code == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    assert first.startswith("calibrated threshold: ")
    float(first.split(": ")[1])


def test_detect_calibrate_with_threshold_is_usage_error(train_run, tmp_path,
                                                       capsys):
    # the pair scored at the calibrated threshold while the manifest
    # recorded the flag's
    stream = _write_stream(tmp_path / "stream.csv", n=60, seed=13)
    out = tmp_path / "detcal"
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--calibrate",
                     "--threshold", "0.3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == ("csocnn: usage error: --calibrate and --threshold are "
                    "mutually exclusive")
    assert not out.exists()


def test_detect_scaler_mismatch_exits_3(train_run, tmp_path):
    other_stats = data.ScalerStats.fit(
        np.arange(75.0) + np.arange(4.0)[:, None])
    other = tmp_path / "other-scaler.json"
    other_stats.save(other)
    stream = _write_stream(tmp_path / "stream.csv", n=2)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--scaler", str(other), "--input", str(stream),
                     "--out", str(tmp_path / "detmm")])
    assert code == 3
    error = json.loads((tmp_path / "detmm" / "error.json").read_text())
    assert error["error"] == "ScalerMismatch"


def test_optimize_smoke_and_convergence_rows(tmp_path):
    out = tmp_path / "opt"
    code = cli.main(["optimize", "--synthetic", "--synthetic-samples", "500",
                     "--seed", "5", "--out", str(out),
                     "--cats", "2", "--iters", "2",
                     "--epoch-range", "1", "2", "--batch-range", "64", "128"])
    assert code == 0
    rows = list(csv.reader(open(out / "convergence.csv")))
    assert rows[0] == ["iter", "best_fitness", "mean_fitness"]
    assert len(rows) == 3  # header + --iters
    best_values = [float(r[1]) for r in rows[1:]]
    assert best_values == sorted(best_values)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics"]["best_fitness"][0] >= best_values[0]
    workers = manifest["config"]["workers"]  # the resolved default
    assert type(workers) is int and workers == trainer.default_workers()
    assert (out / "best_hyperparams.json").exists()
    assert (out / "model.model").exists()
    assert ({p.name for p in out.iterdir()}
            == {*manifest["artifacts"], "manifest.json"})


def test_optimize_workers_give_identical_artifacts(tmp_path):
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"opt-w{workers}"
        code = cli.main(["optimize", "--synthetic", "--synthetic-samples", "400",
                         "--seed", "6", "--out", str(out), "--workers", workers,
                         "--cats", "3", "--iters", "2",
                         "--epoch-range", "1", "2", "--batch-range", "64", "128"])
        assert code == 0
        runs[workers] = out
    serial, parallel = runs["1"], runs["2"]
    for name in ("convergence.csv", "best_hyperparams.json", "model.model",
                 "scaler.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text())
                 for out in (serial, parallel)]
    assert manifests[0]["metrics"] == manifests[1]["metrics"]
    assert [m["config"]["workers"] for m in manifests] == [1, 2]


def test_optimize_every_candidate_diverged_exits_4(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise TrainingDiverged("non-finite loss in epoch 1 at sample 0")
    monkeypatch.setattr(hyperopt, "train_new", diverge)
    out = tmp_path / "opt-diverged"
    code = cli.main(["optimize", "--synthetic", "--synthetic-samples", "200",
                     "--seed", "3", "--out", str(out),
                     "--cats", "2", "--iters", "1",
                     "--epoch-range", "1", "2", "--batch-range", "32", "64"])
    assert code == 4
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "TrainingDiverged"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_workers_above_1_without_fork_is_usage_error(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    out = tmp_path / "out"
    code = cli.main(["optimize", "--workers", "2", "--synthetic", "--seed", "1",
                     "--out", str(out)])
    assert code == 2
    assert "fork" in capsys.readouterr().err
    assert not out.exists()


# optimize --workers 2 in a child whose swarm workers leave their pids in a
# directory, then act out a fault: "exit" ends the worker at once, a number
# keeps it that many seconds in its candidate before it trains
_WORKER_FAULT = """
import os, sys, time
from csocnn import cli, hyperopt

fault, pid_dir = sys.argv[1], sys.argv[2]
real_train_new = hyperopt.train_new

def train_new(*args):
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    if fault == "exit":
        os._exit(1)
    time.sleep(float(fault))
    return real_train_new(*args)

hyperopt.train_new = train_new
sys.exit(cli.main(sys.argv[3:]))
"""


class _FaultyOptimize:
    """The _WORKER_FAULT child, killed if a test leaves it running."""

    def __init__(self, tmp_path, fault):
        self.pid_dir = tmp_path / "pids"
        self.pid_dir.mkdir()
        self.out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_FAULT, fault, str(self.pid_dir),
             "optimize", "--synthetic", "--synthetic-samples", "200",
             "--seed", "3", "--out", str(self.out), "--workers", "2",
             "--cats", "2", "--iters", "1", "--smp", "2",
             "--epoch-range", "1", "2", "--batch-range", "32", "64"],
            stderr=subprocess.PIPE, env=env)

    def worker_pids(self, timeout=60):
        """The recorded pids, once at least one worker reached a candidate."""
        deadline = time.monotonic() + timeout
        while not any(self.pid_dir.iterdir()):
            assert time.monotonic() < deadline, "no worker reached a candidate"
            time.sleep(0.02)
        return [int(p.name) for p in self.pid_dir.iterdir()]

    def wait(self, timeout=120):
        """(exit code, stderr); the child is killed if it outlives timeout."""
        try:
            _, stderr = self.proc.communicate(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode, stderr.decode()


@pytest.mark.parametrize("death", ["exit", "sigterm"])
def test_optimize_worker_death_exits_4(tmp_path, death):
    child = _FaultyOptimize(tmp_path, "exit" if death == "exit" else "60")
    if death == "sigterm":
        os.kill(child.worker_pids()[0], signal.SIGTERM)
    code, stderr = child.wait()
    assert code == 4, stderr
    error = json.loads((child.out / "error.json").read_text())
    assert error["error"] == "FitnessError"
    assert "terminated abruptly" in error["message"]
    # the parent writes no manifest on exit 4, and no worker wrote one
    assert not (child.out / "manifest.json").exists()


def test_optimize_sigterm_mid_swarm_exits_130_and_ends_workers(tmp_path):
    # each candidate sleeps 30 s: the exit must not wait for them
    child = _FaultyOptimize(tmp_path, "30")
    child.worker_pids()
    start = time.monotonic()
    os.kill(child.proc.pid, signal.SIGTERM)
    code, stderr = child.wait()
    assert time.monotonic() - start < 10, stderr
    assert code == 130, stderr
    manifest = json.loads((child.out / "manifest.json").read_text())
    assert manifest["partial"] is True
    for pid in (int(p.name) for p in child.pid_dir.iterdir()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("command, outcome", [
    ("train", 0), ("train", 4), ("optimize", 0)])
def test_training_lane_is_joined_when_the_command_ends(tmp_path, monkeypatch,
                                                      command, outcome):
    # a core to spare opens the lane; its thread must not outlive the
    # command, also when training diverges mid-epoch
    monkeypatch.setattr(trainer, "default_workers", lambda: 2)
    lanes = []  # (lane, threads alive once the step's backward returned)
    real_backward = trainer.backward

    def backward(network, cache, labels, lane=None):
        grads = real_backward(network, cache, labels, lane)
        lanes.append((lane, threading.active_count()))
        return grads

    monkeypatch.setattr(trainer, "backward", backward)
    flags = ["--synthetic", "--synthetic-samples", "300", "--seed", "1",
             "--out", str(tmp_path / "out")]
    if command == "train":
        flags += ["--epochs", "1", "--batch", "64"]
        if outcome == 4:
            poison_update(monkeypatch, 1)  # the second batch's loss is NaN
    else:
        # a serial swarm: its candidates train in this process, laneless
        flags += ["--workers", "1", "--cats", "1", "--iters", "1",
                  "--epoch-range", "1", "2", "--batch-range", "64", "128"]
    before = threading.active_count()
    code = cli.main([command, *flags])
    assert code == outcome
    assert threading.active_count() == before
    retrain = [count for lane, count in lanes if lane is not None]
    assert retrain and set(retrain) == {before + 1}
    if command == "optimize":
        # the serial swarm's candidates train first, with no lane
        candidates = len(lanes) - len(retrain)
        assert candidates > 0
        assert all(lane is None for lane, _ in lanes[:candidates])


# marks the first training step, with whether it ran with a lane, then runs
# the CLI; two usable cores, whatever the host has, so the lane opens
_MARK_FIRST_STEP = """
import sys
from pathlib import Path
from csocnn import cli, trainer

real_backward = trainer.backward

def backward(network, cache, labels, lane=None):
    # written whole, then renamed into place: the SIGTERM that the test
    # sends once the marker exists can land in any step's write
    part = Path(sys.argv[1] + ".part")
    part.write_text(str(lane is not None))
    part.replace(sys.argv[1])
    return real_backward(network, cache, labels, lane)

trainer.backward = backward
trainer.default_workers = lambda: 2
sys.exit(cli.main(sys.argv[2:]))
"""


def test_train_sigterm_mid_training_exits_130(tmp_path):
    marker, out = tmp_path / "first-step", tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    # 14 000 training rows at batch 64 take seconds an epoch
    proc = subprocess.Popen(
        [sys.executable, "-c", _MARK_FIRST_STEP, str(marker), "train",
         "--synthetic", "--synthetic-samples", "20000", "--epochs", "20",
         "--batch", "64", "--seed", "1", "--out", str(out)],
        stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        start = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=5)
        assert time.monotonic() - start < 5
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, stderr.decode()
    assert marker.read_text() == "True"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["artifacts"] == []


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CSOCNN_OUT", str(target))
    code = cli.main(["train", *TRAIN_FLAGS])
    assert code == 0
    assert (target / "manifest.json").exists()


def test_detect_wrong_feature_count_exits_3(train_run, tmp_path, capsys):
    stream = _write_stream(tmp_path / "stream.csv", n=4, n_features=74)
    out = tmp_path / "det74"
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", "0.5",
                     "--out", str(out)])
    assert code == 3
    assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"
    assert capsys.readouterr().out == ""  # failed before any verdict line


def test_evaluate_wrong_feature_count_exits_3(train_run, tmp_path):
    data_path = _write_stream(tmp_path / "flows.csv", n=20, n_features=74)
    out = tmp_path / "eval74"
    code = cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--data", str(data_path), "--seed", "1",
                     "--out", str(out)])
    assert code == 3
    assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"


@pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
def test_detect_threshold_out_of_range_is_usage_error(train_run, tmp_path,
                                                      threshold):
    stream = _write_stream(tmp_path / "stream.csv", n=2)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--threshold", threshold,
                     "--out", str(tmp_path / "detrange")])
    assert code == 2


@pytest.mark.parametrize("outcome", [0, 3, 4])
def test_main_restores_signal_handlers(tmp_path, monkeypatch, outcome):
    flags = ["--synthetic", "--synthetic-samples", "300", "--epochs", "1"]
    if outcome == 3:  # a header-only CSV
        header_only = tmp_path / "flows.csv"
        header_only.write_text(",".join([f"f{i}" for i in range(75)]
                                        + ["label"]) + "\n")
        flags = ["--data", str(header_only)]
    elif outcome == 4:  # the validation loss turns NaN
        poison_update(monkeypatch, 1)
        flags += ["--batch", "1000"]
    before = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
    code = cli.main(["train", *flags, "--seed", "1",
                     "--out", str(tmp_path / "out")])
    assert code == outcome
    assert [signal.getsignal(s)
            for s in (signal.SIGINT, signal.SIGTERM)] == before


@pytest.mark.parametrize("command", ["train", "optimize", "evaluate"])
def test_header_only_csv_exits_3(train_run, tmp_path, command):
    data_path = tmp_path / "flows.csv"
    data_path.write_text(",".join([f"f{i}" for i in range(75)] + ["label"])
                         + "\n")
    out = tmp_path / command
    model = (["--model", str(train_run / "model.model")]
             if command == "evaluate" else [])
    code = cli.main([command, "--data", str(data_path), "--seed", "1",
                     "--out", str(out), *model])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "SchemaError"
    assert "no records" in error["message"]


@pytest.mark.parametrize("flags", [
    ["train", "--epochs", "0"],
    ["optimize", "--cats", "0"],
    ["optimize", "--lr-range", "1e-2", "1e-4"],
    ["train", "--synthetic-samples", "3"],
    ["optimize", "--workers", "0"],
    ["train", "--lr", "1e-6"],
    ["optimize", "--smp", "1"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["optimize", "--lr-range", "nan", "0.01"],
    ["optimize", "--lr-range", "1e-4", "inf"],
    ["optimize", "--c1", "nan"],
    ["optimize", "--c1", "inf"],
    ["train", "--synthetic-separation", "nan"],
    ["optimize", "--synthetic-separation", "inf"],
    ["optimize", "--lr-range", "1e-7", "1e-6"],
    ["optimize", "--lr-range", "1e-6", "1e-3"],
], ids=["epochs-0", "cats-0", "lr-range-reversed", "synthetic-samples-3",
        "workers-0", "lr-below-floor", "smp-1", "lr-nan", "lr-inf",
        "lr-range-nan", "lr-range-inf", "c1-nan", "c1-inf", "separation-nan",
        "separation-inf", "lr-range-below-floor",
        "lr-range-starts-below-floor"])
def test_invalid_flag_values_are_usage_errors(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code = cli.main([*flags, "--synthetic", "--seed", "1", "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("csocnn: usage error: ")
    assert not (out / "error.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "optimize", "evaluate", "detect"])
def test_negative_seed_is_usage_error(train_run, tmp_path, capsys, command):
    # with --data, a negative seed reached np.random.default_rng in
    # data.split and ended in a traceback
    stream = str(_write_stream(tmp_path / "flows.csv", n=100))
    flags = {"train": ["--data", stream],
             "optimize": ["--data", stream],
             "evaluate": ["--data", stream,
                          "--model", str(train_run / "model.model")],
             "detect": ["--input", stream,
                        "--model", str(train_run / "model.model")]}[command]
    out = tmp_path / "out"
    code = cli.main([command, *flags, "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == "csocnn: usage error: --seed must be >= 0, got -1"
    assert not out.exists()


def test_train_non_finite_validation_loss_exits_4(tmp_path, monkeypatch):
    # one batch, so its update is the last: the batch loss is finite and
    # the NaN it leaves reaches only the validation pass
    poison_update(monkeypatch, 1)
    out = tmp_path / "train-nan"
    code = cli.main(["train", "--synthetic", "--synthetic-samples", "300",
                     "--epochs", "1", "--batch", "1000", "--seed", "1",
                     "--out", str(out)])
    assert code == 4
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "TrainingDiverged"
    assert "validation loss" in error["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


_OVERFLOW_OPTIMIZE = ["optimize", "--synthetic", "--synthetic-samples", "300",
                      "--lr-range", "1e3", "1e6", "--cats", "2", "--iters",
                      "1", "--smp", "2", "--seed", "1"]


@pytest.mark.parametrize("flags, code", [
    (["train", "--synthetic", "--synthetic-samples", "300", "--lr", "1e6",
      "--epochs", "1", "--seed", "1"], 4),
    (_OVERFLOW_OPTIMIZE + ["--workers", "1"], 0),
    (_OVERFLOW_OPTIMIZE + ["--workers", "2"], 0),
], ids=["train", "optimize-workers-1", "optimize-workers-2"])
def test_overflowing_training_prints_no_numpy_warnings(tmp_path, flags, code):
    # a child process, so the swarm workers' stderr is caught too
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "csocnn.cli", *flags,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 4:
        assert proc.stderr.splitlines() == [
            "csocnn: TrainingDiverged: non-finite validation loss in epoch 1"]
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("flags, bad", [
    (["train", "--data", "{missing}"], "{missing}"),
    (["train", "--data", "{dir}"], "{dir}"),
    (["evaluate", "--model", "{missing}", "--synthetic"], "{missing}"),
    (["evaluate", "--model", "{model}", "--data", "{missing}"], "{missing}"),
    (["detect", "--model", "{missing}", "--input", "{stream}"], "{missing}"),
    (["detect", "--model", "{model}", "--input", "{missing}"], "{missing}"),
    (["detect", "--model", "{model}", "--input", "{dir}"], "{dir}"),
], ids=["train-data-missing", "train-data-directory", "evaluate-model-missing",
        "evaluate-data-missing", "detect-model-missing", "detect-input-missing",
        "detect-input-directory"])
def test_unreadable_input_path_is_usage_error(train_run, tmp_path, capsys,
                                              flags, bad):
    paths = {"missing": str(tmp_path / "nope.csv"), "dir": str(tmp_path),
             "model": str(train_run / "model.model"),
             "stream": str(_write_stream(tmp_path / "s.csv"))}
    out = tmp_path / "out"
    code = cli.main([f.format(**paths) for f in flags]
                    + ["--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("csocnn: usage error: ")
    assert bad.format(**paths) in line
    assert not out.exists()


def test_missing_scaler_exits_3(train_run, tmp_path):
    model = tmp_path / "model.model"
    model.write_bytes((train_run / "model.model").read_bytes())
    code = cli.main(["detect", "--model", str(model), "--input",
                     str(_write_stream(tmp_path / "s.csv")), "--threshold",
                     "0.5", "--out", str(tmp_path / "out")])
    assert code == 3


def _with_scaler(train_run, tmp_path, command, scaler):
    """Exit code of evaluate or detect on the train_run model with --scaler."""
    inputs = (["--synthetic"] if command == "evaluate" else
              ["--input", str(_write_stream(tmp_path / "s.csv")),
               "--threshold", "0.5"])
    return cli.main([command, "--model", str(train_run / "model.model"),
                     "--scaler", str(scaler), *inputs, "--seed", "1",
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["evaluate", "detect"])
@pytest.mark.parametrize("content", ["{not json", "drop-lo"],
                         ids=["garbled", "missing-key"])
def test_unusable_scaler_exits_3(train_run, tmp_path, capsys, command, content):
    scaler = tmp_path / "scaler.json"
    if content == "drop-lo":
        payload = json.loads((train_run / "scaler.json").read_text())
        del payload["lo"]
        content = json.dumps(payload)
    scaler.write_text(content)
    assert _with_scaler(train_run, tmp_path, command, scaler) == 3
    assert capsys.readouterr().out == ""
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "SchemaError"
    assert str(scaler) in record["message"]


@pytest.mark.parametrize("command", ["evaluate", "detect"])
def test_scaler_directory_is_usage_error(train_run, tmp_path, capsys, command):
    assert _with_scaler(train_run, tmp_path, command, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"csocnn: usage error: cannot read --scaler {tmp_path}")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def long_stream(tmp_path_factory):
    """More rows than two inference slices, the last one partial."""
    return _write_stream(tmp_path_factory.mktemp("long") / "stream.csv",
                         n=2500, seed=15)


def test_detect_forwards_at_most_inference_rows(train_run, long_stream,
                                                tmp_path, monkeypatch, capsys):
    original = nn.forward
    rows = []

    def spy(network, batch, mode):
        rows.append(len(batch))
        return original(network, batch, mode)

    for module in (nn, trainer, detector):  # every by-name import of forward
        if getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", spy)
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(long_stream), "--threshold", "0.5",
                     "--out", str(tmp_path / "detlong")])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2500
    assert sum(rows) == 2500
    assert max(rows) <= nn.INFERENCE_ROWS
    assert rows[0] == nn.INFERENCE_ROWS


def test_detect_probabilities_equal_evaluate(train_run, long_stream, tmp_path,
                                             capsys):
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(long_stream), "--threshold", "0.5",
                     "--out", str(tmp_path / "detprobs")])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))

    bundle = load_model(train_run / "model.model")
    stats = data.ScalerStats.load(train_run / "scaler.json")
    x, _ = data.scale_features(data.load_csv(long_stream).features, stats)
    probs = nn.predict(bundle.network, x[:, :, None, None])
    assert len(rows) == len(probs) == 2500
    for row, expected in zip(rows, probs):
        assert [row[f"p_{c}"] for c in bundle.class_names] == \
            [repr(float(p)) for p in expected]


def test_detect_into_closed_pipe_exits_141_with_partial_manifest(
        train_run, long_stream, tmp_path):
    # 2 500 verdict lines are several times a pipe's buffer, so detect is
    # still writing when the reader leaves, as with `detect ... | head -1`
    out = tmp_path / "detpipe"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen(
            [sys.executable, "-m", "csocnn.cli", "detect",
             "--model", str(train_run / "model.model"),
             "--input", str(long_stream), "--threshold", "0.5",
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert header.startswith(b"score,verdict,predicted_class,")
    assert code == 141
    assert "Traceback" not in stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["metrics"]["records"] < 2500


def _label_first(path, n, seed, bom):
    """_write_stream's rows with the label column moved first, the file
    starting with a UTF-8 byte-order mark when bom is set."""
    lines = _write_stream(path, n=n, seed=seed).read_text().splitlines()
    moved = [",".join(line.rsplit(",", 1)[::-1]) for line in lines]
    path.write_text(("\ufeff" if bom else "") + "\n".join(moved) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["train", "evaluate", "detect"])
def test_byte_order_mark_label_first_csv_reads_as_without(
        train_run, tmp_path, capsys, command):
    model = str(train_run / "model.model")
    outputs = []
    for bom in (False, True):
        path = _label_first(tmp_path / f"flows-{bom}.csv",
                            n=200 if command == "train" else 60, seed=16,
                            bom=bom)
        out = tmp_path / f"out-{bom}"
        argv = {
            "train": ["train", "--data", str(path), "--seed", "3",
                      "--epochs", "1", "--batch", "64"],
            "evaluate": ["evaluate", "--model", model, "--data", str(path),
                         "--seed", "1"],
            "detect": ["detect", "--model", model, "--input", str(path),
                       "--threshold", "0.5"],
        }[command]
        assert cli.main(argv + ["--out", str(out)]) == 0
        artifacts = {p.name: p.read_bytes() for p in out.iterdir()
                     if p.is_file() and p.name != "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        outputs.append((capsys.readouterr().out, artifacts,
                        manifest["artifacts"], manifest["metrics"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]  # something was compared


def test_evaluate_streams_at_most_inference_rows(train_run, long_stream,
                                                 tmp_path, monkeypatch):
    original = nn.forward
    rows = []

    def spy(network, batch, mode):
        rows.append(len(batch))
        return original(network, batch, mode)

    def no_load_csv(*args, **kwargs):
        raise AssertionError("evaluate loaded the whole CSV")

    monkeypatch.setattr(nn, "forward", spy)
    monkeypatch.setattr(data, "load_csv", no_load_csv)
    code = cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--data", str(long_stream), "--seed", "1",
                     "--out", str(tmp_path / "evallong")])
    assert code == 0
    assert sum(rows) == 2500
    assert max(rows) <= nn.INFERENCE_ROWS


def test_train_on_column_spanning_past_float64_exits_3(tmp_path):
    data_path = _write_stream(tmp_path / "flows.csv", n=40)
    lines = data_path.read_text().splitlines()
    for i in range(1, len(lines)):  # f0 alternates between +-1e308
        lines[i] = f"{(-1) ** i * 1e308!r}," + lines[i].split(",", 1)[1]
    data_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "train"
    code = cli.main(["train", "--data", str(data_path), "--seed", "1",
                     "--epochs", "1", "--out", str(out)])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "SchemaError"
    assert "feature column 0" in error["message"]


def test_evaluate_without_label_column_exits_3(train_run, tmp_path):
    data_path = _write_stream(tmp_path / "flows.csv", n=20)
    lines = data_path.read_text().splitlines()
    data_path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines)
                         + "\n")
    out = tmp_path / "evalnolabel"
    code = cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--data", str(data_path), "--seed", "1",
                     "--out", str(out)])
    assert code == 3
    assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"


@pytest.mark.parametrize("rows", ["unlabeled", "header-only"])
def test_detect_calibrate_without_labeled_records_exits_3(
        train_run, tmp_path, capsys, rows):
    features = [f"f{i}" for i in range(75)]
    stream = tmp_path / "stream.csv"
    if rows == "unlabeled":
        lines = _write_stream(stream, n=20).read_text().splitlines()
        stream.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines)
                          + "\n")
    else:
        stream.write_text(",".join(features + ["label"]) + "\n")
    out = tmp_path / "detcal"
    code = cli.main(["detect", "--model", str(train_run / "model.model"),
                     "--input", str(stream), "--calibrate", "--out", str(out)])
    assert code == 3
    assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"
    assert capsys.readouterr().out == ""


def _spoil_csv(path, fault, where):
    """Put fault, a field past the csv module's 131 072-character limit or a
    byte that is not UTF-8, into the header or the last row of a CSV file.
    The rows before the last span more than one decode buffer, so the bad
    byte is read after the header. Returns the spoiled line's number."""
    lines = path.read_bytes().splitlines()
    at = 0 if where == "header" else len(lines) - 1
    bad = b"9" * 140_000 if fault == "long-field" else b"\xff"
    lines[at] = bad + lines[at]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return at + 1


@pytest.mark.parametrize("where", ["header", "row"])
@pytest.mark.parametrize("fault", ["long-field", "not-utf8"])
@pytest.mark.parametrize("command", ["train", "evaluate", "detect"])
def test_unreadable_csv_bytes_exit_3(train_run, tmp_path, capsys, command,
                                     fault, where):
    stream = _write_stream(tmp_path / "flows.csv", n=40)
    line = _spoil_csv(stream, fault, where)
    out = tmp_path / "out"
    flags = {
        "train": ["--data", str(stream), "--epochs", "1"],
        "evaluate": ["--model", str(train_run / "model.model"),
                     "--data", str(stream)],
        "detect": ["--model", str(train_run / "model.model"),
                   "--input", str(stream), "--threshold", "0.5"],
    }[command]
    code = cli.main([command, *flags, "--seed", "1", "--out", str(out)])
    assert code == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ParseError"
    assert error["message"].startswith(f"{stream}: ")
    if fault == "long-field":
        assert f"line {line}: field larger than field limit" in error["message"]
    else:
        # the decoder reads ahead of the reader, so the message names the
        # last line read; past the header when the bad byte is in a row
        after = int(error["message"].split("bytes after line ")[1].split()[0])
        assert 0 < after < line if where == "row" else after == 0
        assert "are not UTF-8" in error["message"]
    # detect may have written its header row; no record follows it
    assert capsys.readouterr().out.splitlines()[1:] == []


# --- roc.csv ------------------------------------------------------------------

def _per_point_roc_csv(path, curves):
    """roc.csv as evaluate wrote it before the block writer: one f-string
    per point of each (name, points, auc) curve."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("curve,fpr,tpr,threshold\n")
        for name, pts, _ in curves:
            for fpr, tpr, thr in pts.tolist():
                fh.write(f"{name},{fpr!r},{tpr!r},{thr!r}\n")
    return path


def test_roc_csv_bytes_match_per_point_writer(train_run, tmp_path,
                                              monkeypatch):
    # every row three times (tied scores) and no Benign row, whose
    # one-vs-rest curve is then skipped as degenerate
    flows = data.make_synthetic_blobs(300, k_classes=5, d=75, separation=3.0,
                                      seed=21)
    path = tmp_path / "ties.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(75)] + ["label"])
        for features, label in zip(flows.features, flows.labels):
            if label != "Benign":
                writer.writerows([[repr(float(v)) for v in features]
                                  + [label]] * 3)
    seen = []
    write = cli._write_roc_csv

    def recording(path, curves):
        seen.append(curves)
        return write(path, curves)

    monkeypatch.setattr(cli, "_write_roc_csv", recording)
    # blocks of 97 points, so most curves span several blocks
    monkeypatch.setattr(cli, "ROC_BLOCK_POINTS", 97)
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--data", str(path), "--seed", "13",
                     "--out", str(out)]) == 0
    (curves,) = seen
    names = [name for name, _, _ in curves]
    assert names[0] == "micro" and "Benign" not in names and len(names) == 5
    # 720 rows, 240 of them distinct: tied scores share a point
    assert len(curves[0][1]) <= 240 * 5 + 1
    want = _per_point_roc_csv(tmp_path / "want.csv", curves)
    assert (out / "roc.csv").read_bytes() == want.read_bytes()


def test_roc_csv_writer_keeps_every_repr(tmp_path):
    values = np.array([0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, np.inf, np.nan,
                       2.0 ** -30, 0.30000000000000004])
    rng = np.random.default_rng(0)
    curves = [("tiny", np.empty((0, 3)), 0.5),
              ("odd", values[rng.integers(0, values.size, (10_001, 3))], 0.5),
              ("plain", np.array([[0.0, 0.0, np.inf], [1.0, 1.0, 0.25]]), 1.0)]
    got = cli._write_roc_csv(tmp_path / "got.csv", curves)
    want = _per_point_roc_csv(tmp_path / "want.csv", curves)
    assert got.read_bytes() == want.read_bytes()


def test_roc_csv_quotes_class_names(tmp_path):
    names = ["Data, exfil", 'Recon "scan"', "Benign", "Lateral\tmove",
             "Establish"]
    flows = data.make_synthetic_blobs(400, k_classes=5, d=75, separation=3.0,
                                      seed=5)
    rename = dict(zip(data.DAPT_CLASSES, names))
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(75)] + ["label"])
        for features, label in zip(flows.features, flows.labels):
            writer.writerow([repr(float(v)) for v in features] + [rename[label]])
    model_dir, out = tmp_path / "model", tmp_path / "eval"
    assert cli.main(["train", "--data", str(path), "--epochs", "1",
                     "--batch", "64", "--seed", "3",
                     "--out", str(model_dir)]) == 0
    assert cli.main(["evaluate", "--model", str(model_dir / "model.model"),
                     "--data", str(path), "--seed", "3",
                     "--out", str(out)]) == 0
    with open(out / "roc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["curve", "fpr", "tpr", "threshold"]
    assert all(len(row) == 4 for row in rows)
    assert {row[0] for row in rows[1:]} == {"micro", *names}
    # plain names stay bare, as before
    text = (out / "roc.csv").read_text(encoding="utf-8")
    assert "\nBenign,0.0,0.0,inf\n" in text
    assert '\n"Data, exfil",0.0,0.0,inf\n' in text
    assert '\n"Recon ""scan""",0.0,0.0,inf\n' in text


QUOTED_CLASSES = {"Benign": "Benign", "Data": "Data, exfil",
                  "Establish": "Establish", "Lateral": "Lateral move",
                  "Reconn": 'Recon "scan"'}


@pytest.fixture(scope="module")
def quoted_model(train_run, tmp_path_factory):
    """train_run's model under class names csv.writer has to quote."""
    model_dir = tmp_path_factory.mktemp("quoted-model")
    bundle = load_model(train_run / "model.model")
    save_model(model_dir / "model.model", bundle.network,
               [QUOTED_CLASSES[c] for c in bundle.class_names],
               scaler_fingerprint=bundle.scaler_fingerprint)
    (model_dir / "scaler.json").write_bytes(
        (train_run / "scaler.json").read_bytes())
    return model_dir / "model.model"


def _per_row_detect_csv(probs, policy, class_names):
    """detect's verdict lines as it wrote them before the block writer: a
    csv.writer row per record."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["score", "verdict", "predicted_class"]
                    + [f"p_{c}" for c in class_names])
    scores, flags = detector.score(probs, policy)
    writer.writerows(
        [repr(score), "anomalous" if flag else "normal", class_names[pred]]
        + [repr(p) for p in row]
        for score, flag, pred, row in zip(
            scores.tolist(), flags.tolist(), probs.argmax(axis=1).tolist(),
            probs.tolist()))
    return text.getvalue()


@pytest.mark.parametrize("score_kind", detector.SCORE_KINDS)
@pytest.mark.parametrize("rows,calibrate,odd_values", [
    (0, False, False), (1, False, False), (256, False, False),
    (257, False, False), (600, False, False), (257, False, True),
    (256, True, False), (600, True, False),
])
def test_detect_stdout_matches_per_row_csv_writer(
        quoted_model, tmp_path, monkeypatch, capsys, score_kind, rows,
        calibrate, odd_values):
    stream = _write_stream(tmp_path / "stream.csv", n=rows, seed=16,
                           rename=QUOTED_CLASSES)
    predicted, blocks = [], []
    predict, csv_lines = nn.predict, cli._csv_lines

    def spy_predict(network, batch):
        probs = predict(network, batch)
        if odd_values:
            probs[0, 0] = np.nan
            probs[-1, 1] = -0.0
        predicted.append(probs)
        return probs

    def spy_csv_lines(numbers, text, line_end):
        blocks.append(len(numbers))
        return csv_lines(numbers, text, line_end)

    monkeypatch.setattr(nn, "predict", spy_predict)
    monkeypatch.setattr(cli, "_csv_lines", spy_csv_lines)
    flags = ["--calibrate"] if calibrate else ["--threshold", "0.4"]
    code = cli.main(["detect", "--model", str(quoted_model),
                     "--input", str(stream), "--score-kind", score_kind,
                     "--seed", "0", *flags, "--out", str(tmp_path / "det")])
    assert code == 0
    out = capsys.readouterr().out
    if calibrate:
        first, out = out.split("\n", 1)
        threshold = float(first.removeprefix("calibrated threshold: "))
    else:
        threshold = 0.4
    class_names = tuple(load_model(quoted_model).class_names)
    policy = detector.DetectionPolicy(
        threshold=threshold, score_kind=score_kind,
        benign_class_index=class_names.index("Benign"))
    probs = (np.concatenate(predicted) if predicted
             else np.empty((0, len(class_names))))
    assert len(probs) == rows
    assert out == _per_row_detect_csv(probs, policy, class_names)
    header = out.split("\r\n", 1)[0]
    assert '"p_Data, exfil"' in header and '"p_Recon ""scan"""' in header
    if rows >= 256:  # the quoted names also stand as predicted classes
        assert ',"Data, exfil",' in out or ',"Recon ""scan""",' in out
    assert sum(blocks) == rows and all(b <= nn.INFERENCE_ROWS for b in blocks)
    if odd_values:
        assert ",nan," in out and ",-0.0" in out


# which of the comma-separated modules in argv[1] a fresh interpreter holds
# after importing csocnn.cli and, given further arguments, running cli.main
_LOADED_MODULES = """
import json, sys
from csocnn import cli
code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(json.dumps([code, [m for m in sys.argv[1].split(",") if m in sys.modules]]))
"""

TRAINING_MODULES = ["csocnn.cso", "csocnn.hyperopt", "csocnn.trainer",
                    "csocnn.optim"]


@pytest.mark.parametrize("command", ["import", "detect", "evaluate"])
def test_commands_load_only_the_modules_they_run(train_run, tmp_path, command):
    model = str(train_run / "model.model")
    stream = str(_write_stream(tmp_path / "stream.csv", n=40))
    argv, unused = {
        "import": ([], [*TRAINING_MODULES, "csocnn.metrics", "csocnn.svg",
                        "concurrent.futures", "secrets"]),
        "detect": (["detect", "--model", model, "--input", stream,
                    "--threshold", "0.5"],
                   [*TRAINING_MODULES, "csocnn.metrics", "csocnn.svg",
                    "concurrent.futures", "secrets"]),
        "evaluate": (["evaluate", "--model", model, "--data", stream],
                     TRAINING_MODULES),
    }[command]
    if argv:
        argv += ["--seed", "1", "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, ",".join(unused), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


_HEAP_LOOP = """
import ctypes, resource, sys
import numpy as np
from csocnn import cli
if sys.argv[1] == "policy":
    cli._set_allocator_policy()
elif sys.argv[1] == "top-pad-only":
    ctypes.CDLL("libc.so.6").mallopt(cli.M_TOP_PAD, cli.TOP_PAD_BYTES)

def step():
    # like a train step: 64 KB arrays, under glibc's mmap threshold, grow
    # the heap (by the pad, under the policy), 1 MB arrays come from its
    # top, and all of them are freed at the end; with "large" alone, no
    # small array grows the heap first
    small = [np.ones(1 << 14, np.float32)
             for _ in range(64 if sys.argv[2] == "mixed" else 0)]
    big = [np.ones(1 << 18, np.float32) for _ in range(16)]

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_allocator_policy_keeps_freed_heap_mapped():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def faults_per_step(policy, arrays="mixed"):
        run = subprocess.run([sys.executable, "-c", _HEAP_LOOP, policy, arrays],
                             capture_output=True, text=True, check=True,
                             env=env)
        return float(run.stdout)

    # glibc's default trims the freed top each step and faults it back in
    assert faults_per_step("default") > 1000
    assert faults_per_step("policy") < 10
    # the pad alone freezes the mmap threshold at 128 KiB: with the top too
    # small, each 1 MB array is mmapped and faulted in afresh every step
    assert faults_per_step("top-pad-only", "large") > 1000
    assert faults_per_step("policy", "large") < 10


class _Libc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.parametrize("libc", ["glibc", "no-library", "no-mallopt"])
def test_main_runs_whatever_the_allocator(train_run, tmp_path, monkeypatch,
                                          libc):
    fake = _Libc()

    def load(name):
        if libc == "no-library":
            raise OSError(f"{name}: cannot open shared object file")
        return fake if libc == "glibc" else object()

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--model", str(train_run / "model.model"),
                     "--synthetic", "--synthetic-samples", "300",
                     "--seed", "1", "--out", str(out)]) == 0
    assert fake.calls == ([(-2, 128 << 20), (-3, 32 << 20)]
                          if libc == "glibc" else [])
