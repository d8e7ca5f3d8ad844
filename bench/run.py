"""csocnn benchmark: runs the four CLI commands as child processes.

Usage (from the repository root):

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

Workloads (sizes in ``FULL``; ``--smoke`` swaps in tiny ones):

- ``train``: ``train`` at the production batch of 640.
- ``swarm``: ``optimize``, serial, 18 short training runs at batch 32-128.
- ``detect``: ``detect`` on a labeled CSV fed through stdin.
- ``evaluate``: ``evaluate`` on the same kind of CSV.

Each invocation writes its inputs from ``--seed`` with the benchmark's own
numpy code (``bench/inputs.py``), trains the model that ``detect`` and
``evaluate`` score (untimed, on fixed rows), then repeats the workload's
command in fresh ``python -m csocnn.cli`` children for ``--seconds``
seconds. Every repetition's outputs are checked, and a sha256 digest of
its deterministic outputs must match the other repetitions'.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions, with no wrappers installed. The three times are given at a
reference machine speed: on a shared host the speed of the same command
drifts by a quarter within minutes, as other tenants load the cores. A
fixed calibration child that does not touch csocnn (``CALIBRATION``) runs
before, between and after the repetitions, and each time is multiplied by
``CALIBRATION_REF_S`` over the calibration time measured next to it. The
raw values are printed and recorded too.

- ``setup_s``: from launching a child until ``csocnn.cli`` is imported,
  probed between repetitions.
- ``throughput``: items per second of command wall time. Items are
  training samples (epochs run times training rows) for train, candidate
  evaluations for swarm, and input rows for detect and evaluate.
- ``first_result_s``: from launch until the first result reaches the user:
  the first verdict line for detect; the command's exit for the others,
  which print nothing and write their artifacts at the end.
- ``peak_rss_mb``: the child's ``ru_maxrss``.
- ``accuracy``: test accuracy (train, evaluate), retrain validation
  accuracy (swarm), verdict against label, benign or not (detect).
- ``check_pass_rate``: output checks passed over checks attempted.

``--trace 1`` alternates untraced repetitions with repetitions run
through ``bench/traced_cli.py``, which records a span
around every public ``csocnn`` function; it reports the per-layer metrics
of ``bench/layers.py`` and ``trace.overhead_s``, the traced wall time less
the untraced one.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(repetitions run), ``failed`` (repetitions with a failed check) and
``metrics``. The lines before it print every metric with its unit, plus
the workload's own figures (samples_per_s, evals_per_s, rows_per_s,
first_row_s, epochs_run, stopped_early). The full record (context, inputs
and their hashes, digests, every repetition) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``; when the file is
already there for the same inputs, the run reports whether its outputs
match the previous invocation's.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import layers  # noqa: E402

# Every child runs with one BLAS thread. On a 2-core machine one batch-32
# forward+backward took 12-88 ms across processes at two threads, and
# 11-18 ms at one.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The program's own --seed is fixed, so that the swarm tries nearly the
# same hyperparameters, and so does the same work, whatever the data.
# The benchmark's --seed draws the data rows.
PROGRAM_SEED = 7
MODEL_SEED = 0
THRESHOLD = 0.5
SETUP_PROBES = 5
MIN_REPS = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput": ("items/s", "higher"),
    "first_result_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("ratio", "higher"),
    "check_pass_rate": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Sizes:
    train_rows: int
    train_epochs: int
    swarm_rows: int
    swarm_cats: int
    swarm_iters: int
    swarm_smp: int
    score_rows: int
    model_rows: int
    model_epochs: int


FULL = Sizes(train_rows=3000, train_epochs=3, swarm_rows=300, swarm_cats=4,
             swarm_iters=2, swarm_smp=3, score_rows=6000, model_rows=2000,
             model_epochs=2)
SMOKE = Sizes(train_rows=300, train_epochs=1, swarm_rows=150, swarm_cats=2,
              swarm_iters=1, swarm_smp=2, score_rows=200, model_rows=300,
              model_epochs=1)
SWARM_MR = 0.3
SWARM_LR = (1e-4, 1e-2)
SWARM_BATCH = (32, 128)
SWARM_EPOCHS = (1, 2)


class CheckList:
    """Counts output checks; keeps the message of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return bool(ok)


# ---------------------------------------------------------------- children

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env.pop("CSOCNN_OUT", None)
    return env


def launch(argv, cwd, stdin_path=None, watch_first_row=False):
    """Run one child to completion. Returns wall seconds, peak RSS, exit
    code, stdout bytes and, with watch_first_row, the seconds until the
    second stdout line (the first verdict after the header) arrived."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    stderr_path = Path(cwd) / "stderr.txt"
    try:
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=stdin,
                                    stdout=subprocess.PIPE, stderr=err)
            first_row = None
            try:
                with proc.stdout:
                    head = [proc.stdout.readline()]
                    if watch_first_row:
                        head.append(proc.stdout.readline())
                        first_row = time.perf_counter() - t0
                    out = b"".join(head) + proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdin_path:
            stdin.close()
    return {
        "wall_s": wall,
        "first_row_s": first_row,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "stdout": out,
        "stderr_tail": stderr_path.read_bytes()[-2000:].decode("utf-8", "replace"),
    }


def setup_time(cwd):
    """Seconds from launching a child until ``csocnn.cli`` is imported."""
    probe = "import time, csocnn.cli; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    run = launch([sys.executable, "-c", probe], cwd)
    if run["exit_code"] != 0:
        raise RuntimeError("importing csocnn.cli failed:\n" + run["stderr_tail"])
    return float(run["stdout"]) - t0


# A fixed workload that does not touch csocnn: interpreter start, the numpy
# import, many small numpy calls and a pure-Python loop, the kinds of work
# that fill most of the commands' time. Its time tracks how fast the shared
# machine runs at the moment.
CALIBRATION = """
import numpy as np
rng = np.random.default_rng(0)
x = rng.random((640, 75), dtype=np.float32)
w = rng.random((3, 64), dtype=np.float32)
for _ in range(12):
    cols = np.stack([x[:, i:i + 73] for i in range(3)], axis=-1)
    z = np.maximum(cols @ w, 0)
    z.reshape(640, -1).max(axis=1).sum()
s = 0
for i in range(400000):
    s += i * i
"""


# Median time of one CALIBRATION child on the machine the benchmark was
# defined on (2-core Xeon VM, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31).
CALIBRATION_REF_S = 0.24


def calibration_time(cwd):
    """Wall seconds of one child running CALIBRATION."""
    run = launch([sys.executable, "-c", CALIBRATION], cwd)
    if run["exit_code"] != 0:
        raise RuntimeError("calibration failed:\n" + run["stderr_tail"])
    return run["wall_s"]


def cli_argv(traced, spans_path):
    if traced:
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path)]
    return [sys.executable, "-m", "csocnn.cli"]


# ---------------------------------------------------------------- outputs

def read_manifest(out_dir, checks):
    path = out_dir / "manifest.json"
    if not checks.expect(path.exists(), "manifest.json missing"):
        return None
    manifest = json.loads(path.read_text())
    checks.expect(not manifest.get("partial"), "manifest marked partial")
    for name in manifest.get("artifacts", []):
        checks.expect((out_dir / name).exists(), f"artifact {name} missing")
    return manifest


DIGESTED = ("history.csv", "convergence.csv", "confusion_matrix.csv",
            "roc.csv", "metrics.json")


def digest(out_dir, manifest, stdout):
    """sha256 over the deterministic outputs: the artifacts in DIGESTED that
    exist, the manifest's metric values, and stdout."""
    h = hashlib.sha256()
    for name in DIGESTED:
        path = out_dir / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    metrics = manifest.get("metrics", {}) if manifest else {}
    h.update(json.dumps(metrics, sort_keys=True).encode() + b"\0")
    h.update(stdout)
    return h.hexdigest()


def n_train_rows(n):
    """Training-split size for n labeled rows under the program's default
    80/10 split (test cut first, then validation from the remainder)."""
    keep = int(n * 0.8)
    return int(keep * 0.9)


def swarm_evaluations(sizes):
    """Candidate evaluations the swarm makes: every cat once at start, then
    per iteration one per tracing cat and smp - 1 per seeking cat (the
    seeking cat's current position keeps its fitness)."""
    tracing = round(SWARM_MR * sizes.swarm_cats)
    per_iter = tracing + (sizes.swarm_cats - tracing) * (sizes.swarm_smp - 1)
    return sizes.swarm_cats + sizes.swarm_iters * per_iter


# ---------------------------------------------------------------- workloads

class Workload:
    """One CLI command: its arguments, output checks and figures."""

    name = ""
    needs_model = False

    def __init__(self, sizes, files):
        self.sizes = sizes
        self.files = files

    def argv(self, out_dir):
        raise NotImplementedError

    def stdin(self):
        return None

    def check(self, run, out_dir, manifest, checks):
        """Workload-specific checks; returns (throughput items, accuracy,
        extra figures)."""
        raise NotImplementedError

    def check_layers(self, summary, checks):
        """Checks on a traced repetition's per-layer metrics."""


class Train(Workload):
    name = "train"

    def argv(self, out_dir):
        return ["train", "--data", self.files["data"],
                "--epochs", str(self.sizes.train_epochs), "--batch", "640",
                "--lr", "1e-3", "--seed", str(PROGRAM_SEED), "--out", str(out_dir)]

    def check(self, run, out_dir, manifest, checks):
        m = manifest["metrics"]
        epochs_run = m.get("epochs_run")
        checks.expect(isinstance(epochs_run, int)
                      and 1 <= epochs_run <= self.sizes.train_epochs,
                      f"epochs_run {epochs_run!r} outside the configured epochs")
        with open(out_dir / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        checks.expect(len(rows) == epochs_run, "history.csv rows != epochs_run")
        accuracy = m.get("test_accuracy")
        checks.expect(isinstance(accuracy, float) and 0 <= accuracy <= 1,
                      f"test_accuracy {accuracy!r} not in [0, 1]")
        samples = (epochs_run or 0) * n_train_rows(self.sizes.train_rows)
        return samples, accuracy, {
            "samples_per_s": samples / run["wall_s"],
            "epochs_run": epochs_run,
            "stopped_early": m.get("stopped_early"),
        }


class Swarm(Workload):
    name = "swarm"

    def argv(self, out_dir):
        s = self.sizes
        return ["optimize", "--data", self.files["data"],
                "--cats", str(s.swarm_cats), "--iters", str(s.swarm_iters),
                "--smp", str(s.swarm_smp), "--mr", str(SWARM_MR),
                "--lr-range", *map(str, SWARM_LR),
                "--batch-range", *map(str, SWARM_BATCH),
                "--epoch-range", *map(str, SWARM_EPOCHS),
                "--seed", str(PROGRAM_SEED), "--out", str(out_dir)]

    def check(self, run, out_dir, manifest, checks):
        best = json.loads((out_dir / "best_hyperparams.json").read_text())
        lr, batch, epochs = best["learning_rate"], best["batch_size"], best["epochs"]
        checks.expect(SWARM_LR[0] <= lr <= SWARM_LR[1], f"best lr {lr} out of range")
        checks.expect(SWARM_BATCH[0] <= batch <= SWARM_BATCH[1],
                      f"best batch {batch} out of range")
        checks.expect(SWARM_EPOCHS[0] <= epochs <= SWARM_EPOCHS[1],
                      f"best epochs {epochs} out of range")
        with open(out_dir / "convergence.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        checks.expect(len(rows) == self.sizes.swarm_iters,
                      "convergence.csv rows != iterations")
        accuracy = manifest["metrics"].get("retrain_val_accuracy")
        checks.expect(isinstance(accuracy, float) and 0 <= accuracy <= 1,
                      f"retrain_val_accuracy {accuracy!r} not in [0, 1]")
        evals = swarm_evaluations(self.sizes)
        return evals, accuracy, {"evals_per_s": evals / run["wall_s"],
                                 "evaluations": evals}

    def check_layers(self, summary, checks):
        calls = summary["hyperopt.evaluate_candidate.calls"]
        checks.expect(calls == swarm_evaluations(self.sizes),
                      f"{calls} candidate evaluations traced, "
                      f"{swarm_evaluations(self.sizes)} expected")


class Detect(Workload):
    name = "detect"
    needs_model = True

    def argv(self, out_dir):
        return ["detect", "--model", self.files["model"],
                "--threshold", str(THRESHOLD),
                "--seed", str(PROGRAM_SEED), "--out", str(out_dir)]

    def stdin(self):
        return self.files["data"]

    def check(self, run, out_dir, manifest, checks):
        labels = self.files["labels"]
        lines = list(csv.reader(io.StringIO(run["stdout"].decode("utf-8"))))
        header, rows = (lines[0], lines[1:]) if lines else ([], [])
        checks.expect(len(rows) == len(labels),
                      f"{len(rows)} verdict lines for {len(labels)} input rows")
        p_cols = [i for i, h in enumerate(header) if h.startswith("p_")]
        benign = header.index("p_Benign") if "p_Benign" in header else None
        checks.expect(benign is not None and len(p_cols) == len(inputs.CLASSES),
                      f"unexpected detect header {header}")
        if not rows or benign is None:
            return len(labels), 0.0, {"rows_per_s": len(labels) / run["wall_s"],
                                      "first_row_s": run["first_row_s"]}
        scores = np.array([float(r[0]) for r in rows])
        anomalous = np.array([r[1] == "anomalous" for r in rows])
        probs = np.array([[float(r[i]) for i in p_cols] for r in rows])
        checks.expect(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6),
                      "a probability row does not sum to 1 within 1e-6")
        checks.expect(np.array_equal(anomalous, scores > THRESHOLD),
                      "a verdict differs from score > threshold")
        checks.expect(np.array_equal(scores, 1.0 - probs[:, p_cols.index(benign)]),
                      "a score differs from 1 - p_Benign")
        truth = np.array([label != "Benign" for label in labels[:len(rows)]])
        accuracy = float(np.mean(anomalous == truth))
        return len(rows), accuracy, {"rows_per_s": len(rows) / run["wall_s"],
                                     "first_row_s": run["first_row_s"]}


class Evaluate(Workload):
    name = "evaluate"
    needs_model = True

    def argv(self, out_dir):
        return ["evaluate", "--model", self.files["model"],
                "--data", self.files["data"],
                "--seed", str(PROGRAM_SEED), "--out", str(out_dir)]

    def check(self, run, out_dir, manifest, checks):
        record = json.loads((out_dir / "metrics.json").read_text())
        accuracy = manifest["metrics"].get("test_accuracy")
        checks.expect(record.get("Testing accuracy") == accuracy,
                      "metrics.json accuracy != manifest test_accuracy")
        checks.expect(isinstance(accuracy, float) and 0 <= accuracy <= 1,
                      f"test_accuracy {accuracy!r} not in [0, 1]")
        rows = self.sizes.score_rows
        return rows, accuracy, {"rows_per_s": rows / run["wall_s"]}


WORKLOADS = {w.name: w for w in (Train, Swarm, Detect, Evaluate)}


# ---------------------------------------------------------------- set-up

def make_inputs(workload, sizes, seed, work):
    """Write the workload's input CSVs (and train the scored model); returns
    the file map and the input records for the context block."""
    files, records = {}, []
    rows = {"train": sizes.train_rows, "swarm": sizes.swarm_rows}.get(
        workload.name, sizes.score_rows)
    data = work / "input.csv"
    sha, labels = inputs.write_csv(data, rows, seed)
    files.update(data=str(data), labels=labels)
    records.append({"file": "input.csv", "rows": rows, "sha256": sha,
                    "bytes": data.stat().st_size})
    if workload.needs_model:
        model_data = work / "model-train.csv"
        # Fixed training rows: every invocation trains the same model, so the
        # seed changes only the scored rows. A stream of its own, so the
        # model never sees rows it scores.
        sha, _ = inputs.write_csv(model_data, sizes.model_rows, MODEL_SEED,
                                  stream=1)
        records.append({"file": "model-train.csv", "rows": sizes.model_rows,
                        "sha256": sha, "bytes": model_data.stat().st_size})
        model_dir = work / "model"
        model_dir.mkdir()
        argv = cli_argv(False, None) + [
            "train", "--data", str(model_data),
            "--epochs", str(sizes.model_epochs), "--batch", "64", "--lr", "5e-3",
            "--seed", str(PROGRAM_SEED), "--out", str(model_dir)]
        run = launch(argv, model_dir)
        if run["exit_code"] != 0:
            raise RuntimeError("training the scored model failed:\n"
                               + run["stderr_tail"])
        files["model"] = str(model_dir / "model.model")
        records.append({"file": "model/model.model", "sha256": hashlib.sha256(
            (model_dir / "model.model").read_bytes()).hexdigest()})
    return files, records


def context(inputs_record):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_how": "=".join([",".join(BLAS_ENV), str(BLAS_THREADS)])
        + " in every child's environment",
        "git_commit": commit,
        "inputs": inputs_record,
    }


# ---------------------------------------------------------------- runs

def run_rep(workload, work, index, traced):
    rep_dir = work / f"rep{index:03d}"
    rep_dir.mkdir()
    out_dir = rep_dir / "out"
    spans_path = work / f"spans{index:03d}.json"
    checks = CheckList()
    run = launch(cli_argv(traced, spans_path) + workload.argv(out_dir), rep_dir,
                 stdin_path=workload.stdin(),
                 watch_first_row=isinstance(workload, Detect))
    rep = {"traced": traced, "wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
           "peak_rss_mb": run["peak_rss_mb"], "exit_code": run["exit_code"]}
    manifest = None
    if checks.expect(run["exit_code"] == 0,
                     f"exit code {run['exit_code']}: {run['stderr_tail']}"):
        try:
            manifest = read_manifest(out_dir, checks)
            if manifest is not None:
                items, accuracy, extra = workload.check(run, out_dir, manifest,
                                                        checks)
                rep.update(items=items, accuracy=accuracy, extra=extra,
                           throughput=items / run["wall_s"],
                           first_result_s=run["first_row_s"] or run["wall_s"])
        except (OSError, LookupError, TypeError, ValueError) as exc:
            checks.expect(False, f"output check raised {exc!r}")
    rep["digest"] = digest(out_dir, manifest, run["stdout"])
    if traced and checks.expect(spans_path.exists(), "no spans written"):
        rep["layers"] = layers.summarize(json.loads(spans_path.read_text()))
        workload.check_layers(rep["layers"], checks)
    rep["checks_attempted"] = checks.attempted
    rep["failures"] = checks.failures
    shutil.rmtree(rep_dir)
    return rep


def repeat(workload, work, reps, deadline, min_rounds, pattern=(False,),
           between=None):
    """Append rounds of repetitions, traced or not as pattern says, until
    min_rounds ran and another round would overrun the deadline (judged by
    the median round so far). Calls between() after each repetition."""
    rounds = []
    while True:
        t0 = time.perf_counter()
        for traced in pattern:
            reps.append(run_rep(workload, work, len(reps), traced))
            if between is not None:
                between()
        rounds.append(time.perf_counter() - t0)
        if (len(rounds) >= min_rounds
                and time.perf_counter() + statistics.median(rounds) > deadline):
            return


def previous_digest_match(record_path, record):
    """Whether the outputs equal those of the previous invocation recorded at
    record_path on the same inputs (None when there is none to compare)."""
    try:
        previous = json.loads(record_path.read_text())
    except (OSError, ValueError):
        return None
    hashes = [[i["sha256"] for i in r["context"]["inputs"]]
              for r in (previous, record)]
    if hashes[0] != hashes[1]:
        return None
    return previous["digest"] == record["digest"]


def median_of(reps, key):
    values = [r[key] for r in reps if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "csocnn" / "cli.py").exists():
        print(f"bench: no csocnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sizes = SMOKE if args.smoke else FULL
    out_root = ROOT / ".bench_out"
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    load_before = os.getloadavg()
    try:
        files, inputs_record = make_inputs(WORKLOADS[args.workload], sizes,
                                           args.seed, work)
        workload = WORKLOADS[args.workload](sizes, files)
        setup, calibration = [], []

        t0 = time.perf_counter()
        reps = []
        if args.trace:
            # Untraced and traced repetitions alternate, so that drift in the
            # machine's speed does not land on one side of the overhead.
            repeat(workload, work, reps, t0 + args.seconds, 1, (False, True))
            spans = work / f"spans{len(reps) - 1:03d}.json"
            if spans.exists():
                shutil.copy(spans, out_root / f"{stem}-spans.json")
        else:
            # Probes before, between and after the repetitions: set-up time,
            # and the calibration that scales the times next to it.
            def probe():
                setup.append(setup_time(work))
                calibration.append(calibration_time(work))
            probe()
            repeat(workload, work, reps, t0 + args.seconds,
                   1 if args.smoke else MIN_REPS, between=probe)
            while len(setup) < SETUP_PROBES:
                probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    # Times at the reference speed: a repetition's times are scaled by the
    # mean of the calibrations just before and after it, a set-up probe's by
    # the calibration right after it.
    setup_ref = [s * CALIBRATION_REF_S / c for s, c in zip(setup, calibration)]
    if not args.trace:
        for i, rep in enumerate(plain):
            rep["slowdown"] = ((calibration[i] + calibration[i + 1])
                               / (2 * CALIBRATION_REF_S))
            if "throughput" in rep:
                rep["throughput_ref"] = rep["throughput"] * rep["slowdown"]
                rep["first_result_ref_s"] = rep["first_result_s"] / rep["slowdown"]
    attempted_checks = sum(r["checks_attempted"] for r in reps)
    failed_checks = sum(len(r["failures"]) for r in reps)
    # Same code, same inputs: every repetition must reproduce the first.
    digests = {r["digest"] for r in reps}
    attempted_checks += len(reps) - 1
    failed_checks += len(digests) - 1
    failed_reps = sum(1 for r in reps if r["failures"])
    if len(digests) > 1:
        failed_reps = max(failed_reps, 1)

    if args.trace:
        metrics = layers.median_metrics([r["layers"] for r in traced if "layers" in r])
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                       - median_of(plain, "wall_s"))
        units = {k: v[0] for k, v in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "throughput": median_of(plain, "throughput_ref"),
            "first_result_s": median_of(plain, "first_result_ref_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "accuracy": median_of(plain, "accuracy"),
            "check_pass_rate": (attempted_checks - failed_checks) / attempted_checks,
        }
        units = {k: v[0] for k, v in END_TO_END.items()}

    extra = {}
    for key in sorted({k for r in plain for k in r.get("extra", {})}):
        values = [r["extra"][key] for r in plain if r.get("extra", {}).get(key) is not None]
        if values and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                          for v in values):
            extra[key] = statistics.median(values)
        elif values:
            extra[key] = values[0]
    if not args.trace:
        extra.update(setup_s_raw=statistics.median(setup),
                     throughput_raw=median_of(plain, "throughput"),
                     first_result_s_raw=median_of(plain, "first_result_s"),
                     calibration_s=statistics.median(calibration))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "context": dict(context(inputs_record), load_before=load_before,
                        load_after=load_after),
        "digest": sorted(digests),
        "figures": extra,
        "failures": [f for r in reps for f in r["failures"]]
        + (["outputs differ between repetitions"] if len(digests) > 1 else []),
        "setup_s_samples": setup,
        "calibration_s_samples": calibration,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "metrics": metrics,
    }
    record_path = out_root / f"{stem}.json"
    record["digest_matches_previous"] = previous_digest_match(record_path, record)
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), digest {', '.join(d[:16] for d in sorted(digests))}")
    for key, value in extra.items():
        print(f"  {key:40s} {value}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.6g} {units[key]}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if record["digest_matches_previous"] is False:
        print("  outputs DIFFER from the previous invocation on the same inputs")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": len(reps),
        "failed": failed_reps,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
