"""csocnn command line: train, optimize, evaluate, detect.

Every command runs through one _Run, which owns its seed, output
directory, signal guard and run manifest (seeds, config snapshot, artifact
inventory, metric values) sufficient to reproduce its metric values
exactly. Artifact plots are SVG derived from sibling CSVs. Exit codes:
0 success, 2 usage, 3 data/model format, 4 numeric failure, 130 interrupted,
141 detect's standard output closed by its reader.

Importing this module loads only what every command runs (data, nn,
model_io, detector, errors). train, optimize and evaluate import the
swarm, hyperopt, trainer, metrics and svg modules they need themselves, so
a detect launch neither imports nor compiles them.
"""

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import data, detector, nn
from .errors import (BoundsError, DegenerateClass, FitnessError, LabelError,
                     ModelFormatError, ParseError, ScalerMismatch, SchemaError,
                     ShapeError, StratifyError, TrainingDiverged,
                     UndefinedMetric)
from .model_io import load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, a shell's status for a closed pipe

_FORMAT_ERRORS = (SchemaError, ParseError, StratifyError, ModelFormatError,
                  ScalerMismatch, LabelError, ShapeError)
_NUMERIC_ERRORS = (TrainingDiverged, FitnessError, UndefinedMetric,
                   DegenerateClass, BoundsError)

SCALER_FILENAME = "scaler.json"

# glibc mallopt parameter (malloc.h). A batch-640 train step frees most of
# its arrays at its end. By default glibc then trims the top of the heap back
# to the kernel, and the next step faults it back in: 5 200 minor faults
# (20 MB) and 23 ms of system time a step on a 2-core Xeon VM. A 128 MiB pad
# on each heap growth keeps that memory mapped, for 0 faults a step (a 64 MiB
# pad left 384).
M_TOP_PAD, TOP_PAD_BYTES = -2, 128 << 20
# Setting M_TOP_PAD also freezes glibc's mmap threshold at 128 KiB. An array
# above it comes from the heap's top when the top has room; when it has not,
# glibc maps the array instead of growing the heap, so while the top stays
# short each such array is faulted in afresh. Which of the two a run fell
# into hung on heap layout: the same 6 000-row `detect` took 7 400 or 123 000
# minor faults (0.44 or 0.69 s), depending on the length of its paths. Below
# 32 MiB, glibc's largest threshold, arrays now always come from the heap.
M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES = -3, 32 << 20


def _out_dir(args):
    """The output directory: --out, else $CSOCNN_OUT, else ./csocnn-out."""
    return Path(args.out or os.environ.get("CSOCNN_OUT", "csocnn-out"))


def _add_data_flags(p):
    p.add_argument("--data", metavar="PATH", help="labeled flow-feature CSV")
    p.add_argument("--synthetic", action="store_true",
                   help="use generated Gaussian blob data instead of a CSV")
    p.add_argument("--synthetic-samples", type=int, default=6000)
    p.add_argument("--synthetic-separation", type=float, default=3.0)
    p.add_argument("--label-column", default="label")


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; omitted -> random, recorded in manifest")
    p.add_argument("--out", default=None,
                   help="output directory (default: $CSOCNN_OUT or ./csocnn-out)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csocnn",
        description="Swarm-tuned compact CNN for network-flow classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier and report")
    _add_data_flags(p_train)
    _add_common_flags(p_train)
    p_train.add_argument("--epochs", type=int, default=5)
    p_train.add_argument("--batch", type=int, default=640)
    p_train.add_argument("--lr", type=float, default=1e-3)

    p_opt = sub.add_parser("optimize", help="swarm-search hyperparameters")
    _add_data_flags(p_opt)
    _add_common_flags(p_opt)
    p_opt.add_argument("--cats", type=int, default=8)
    p_opt.add_argument("--iters", type=int, default=5)
    p_opt.add_argument("--mr", type=float, default=0.3)
    p_opt.add_argument("--smp", type=int, default=5)
    p_opt.add_argument("--srd", type=float, default=0.2)
    p_opt.add_argument("--cdc", type=float, default=0.8)
    p_opt.add_argument("--c1", type=float, default=2.0)
    p_opt.add_argument("--lr-range", type=float, nargs=2, default=(1e-4, 1e-2))
    p_opt.add_argument("--batch-range", type=int, nargs=2, default=(32, 1024))
    p_opt.add_argument("--epoch-range", type=int, nargs=2, default=(1, 5))
    # None: resolved by cmd_optimize, so parsing needs no hyperopt import
    p_opt.add_argument("--workers", type=int, default=None,
                       help="candidate trainings at once, in worker "
                       "processes when above 1 (default: usable cores / "
                       "BLAS threads)")

    p_eval = sub.add_parser("evaluate", help="score a model on labeled data")
    _add_data_flags(p_eval)
    _add_common_flags(p_eval)
    p_eval.add_argument("--model", required=True, metavar="PATH")
    p_eval.add_argument("--scaler", metavar="PATH",
                        help="scaler stats (default: scaler.json next to model)")

    p_det = sub.add_parser("detect", help="stream anomaly verdicts")
    _add_common_flags(p_det)
    p_det.add_argument("--model", required=True, metavar="PATH")
    p_det.add_argument("--scaler", metavar="PATH")
    p_det.add_argument("--input", metavar="PATH",
                       help="record CSV (default: standard input)")
    p_det.add_argument("--label-column", default="label")
    p_det.add_argument("--threshold", type=float, default=None)
    p_det.add_argument("--calibrate", action="store_true",
                       help="pick the threshold from the labeled input first")
    p_det.add_argument("--score-kind", choices=detector.SCORE_KINDS,
                       default="non_benign_mass")
    p_det.add_argument("--benign-class", default=None,
                       help="benign class name (default: 'Benign' when present)")
    return parser


class _Run:
    """One command's run: its seed (--seed, or a random one the manifest
    records), output directory and manifest.json. Built where the command
    starts; the command enters started() once, after its usage checks and
    input loads, and adds its artifacts and metrics inside the block."""

    def __init__(self, args):
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        self.seed = args.seed
        if args.seed is None:
            import secrets
            self.seed = secrets.randbits(31)
        self.args = args
        self.out = _out_dir(args)
        self.artifacts = []
        self.metrics = {}
        self.partial = False  # set by a block that ends short of its work

    def add(self, path):
        """Inventory the file at path, once written; returns path."""
        self.artifacts.append(Path(path).name)
        return path

    @contextlib.contextmanager
    def started(self, inputs, make_dir=True):
        """Snapshot the config (the flags as the command resolved them),
        then guard the block: SIGINT/SIGTERM write a partial manifest, end
        the swarm's worker processes, whose running candidates the pool
        would otherwise wait for on the way out, and exit 130. Makes the
        output directory unless make_dir is false and gives its path;
        writes the manifest when the block ends normally."""
        self.record = {
            "command": self.args.command,
            "config": {k: v for k, v in sorted(vars(self.args).items())
                       if k != "command"},
            "seed": self.seed,
            "inputs": inputs,
            "out_dir": str(self.out),
            "artifacts": self.artifacts,
            "metrics": self.metrics,
        }
        self.started_at = time.time()
        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, self._interrupted)
            except ValueError:  # non-main thread
                pass
        try:
            if make_dir:
                self.out.mkdir(parents=True, exist_ok=True)
            yield self.out
            self._write()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    def _interrupted(self, signum, frame):
        self.partial = True
        self._write()
        # only optimize starts children, and it imports multiprocessing
        mp = sys.modules.get("multiprocessing")
        for child in mp.active_children() if mp else ():
            child.terminate()
        raise SystemExit(130)

    def _write(self):
        self.record["partial"] = self.partial
        self.record["duration_s"] = round(time.time() - self.started_at, 3)
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=1, sort_keys=True)


def _load_records(args, seed):
    if args.data and args.synthetic:
        raise UsageError("--data and --synthetic are mutually exclusive")
    if args.data:
        schema = data.CsvSchema(label_column=args.label_column)
        with _reading("--data", args.data):
            return data.load_csv(args.data, schema), [args.data]
    if args.synthetic:
        with _usage_errors():
            flows = data.make_synthetic_blobs(
                args.synthetic_samples, k_classes=5, d=75,
                separation=args.synthetic_separation, seed=seed)
        return flows, ["synthetic"]
    raise UsageError("provide --data PATH or --synthetic")


@contextlib.contextmanager
def _csv_chunks(flag, path, schema, need_labels):
    """Open the CSV a flag names (standard input when path is None), check
    its header and yield its lazy chunks (see data.read_csv_chunks)."""
    with _reading(flag, path):
        stream = (open(path, newline="", encoding="utf-8") if path
                  else contextlib.nullcontext(sys.stdin))
    with stream as fh:
        yield data.read_csv_chunks(fh, schema, path or "stdin",
                                   need_labels)[1]


def _scored(network, stats, chunks):
    """Yield (class probabilities, labels) per chunk of (features, labels):
    the one path from parsed rows to probabilities, scale_features then
    nn.predict, so memory is bounded by the chunk."""
    for features, labels in chunks:
        x, _ = data.scale_features(features, stats)
        yield nn.predict(network, x[:, :, None, None]), labels


def _gather(scored, codec):
    """Keep only the K probabilities and the label code of every record;
    no records raises SchemaError."""
    kept = [(probs, codec.encode_all(labels)) for probs, labels in scored]
    if not kept:
        raise SchemaError("no records to process")
    return (np.concatenate([p for p, _ in kept]),
            np.concatenate([y for _, y in kept]))


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_errors():
    """Turn a ValueError from objects built out of flag values into exit 2."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@contextlib.contextmanager
def _reading(flag, path):
    """Turn a failure to open or read the file a flag names into exit 2."""
    try:
        yield
    except OSError as exc:
        raise UsageError(
            f"cannot read {flag} {path}: {exc.strerror or exc}") from None


def _save_trained(run, prep, network, state):
    """Write scaler.json, then model.model carrying the scaler fingerprint
    and the best epoch's training metrics."""
    best_idx = state.epochs.index(state.best_epoch)
    run.add(prep.stats.save(run.out / SCALER_FILENAME))
    run.add(save_model(
        run.out / "model.model", network, prep.codec.classes,
        scaler_fingerprint=prep.stats.fingerprint(),
        training_metrics={
            "training_accuracy": state.train_acc[best_idx],
            "training_loss": state.train_loss[best_idx],
            "validation_accuracy": state.best_val_acc,
            "validation_loss": state.best_val_loss,
        }))


def cmd_train(args):
    from . import metrics, svg, trainer
    run = _Run(args)
    with _usage_errors():
        config = trainer.TrainConfig(
            epochs=args.epochs, batch_size=args.batch, initial_lr=args.lr,
            seed=run.seed)
    flows, inputs = _load_records(args, run.seed)
    with run.started(inputs) as out:
        prep = data.prepare_dataset(flows, run.seed)
        with trainer.open_lane() as lane:
            best, state = trainer.train_new(
                nn.default_architecture(len(prep.codec)), prep.train,
                prep.val, config, lane)

        test_loss, test_acc, predictions, probs = trainer.evaluate(
            best, prep.test)
        run.add(state.history_to_csv(out / "history.csv"))
        run.add(svg.line_chart(
            out / "curves.svg", "Training and validation accuracy / loss",
            [("train_acc", state.epochs, state.train_acc),
             ("val_acc", state.epochs, state.val_acc),
             ("train_loss", state.epochs, state.train_loss),
             ("val_loss", state.epochs, state.val_loss)],
            x_label="epoch", y_label="value"))
        _save_trained(run, prep, best, state)
        cm = metrics.confusion(prep.test[1], predictions, len(prep.codec),
                               prep.codec.classes)
        run.add(cm.to_csv(out / "confusion_matrix.csv"))
        run.metrics.update({
            "test_accuracy": test_acc,
            "test_loss": test_loss,
            "best_val_accuracy": state.best_val_acc,
            "best_val_loss": state.best_val_loss,
            "best_epoch": state.best_epoch,
            "epochs_run": len(state.epochs),
            "stopped_early": state.stopped_early,
            "nan_imputed": prep.n_nan_imputed,
            "inf_imputed": prep.n_inf_imputed,
            "clamped": prep.n_clamped,
        })
    return EXIT_OK


def cmd_optimize(args):
    from . import cso, hyperopt, svg, trainer
    run = _Run(args)
    if args.workers is None:
        args.workers = trainer.default_workers()
    with _usage_errors():
        space = hyperopt.SearchSpace(
            lr_range=tuple(args.lr_range),
            batch_range=tuple(args.batch_range),
            epoch_range=tuple(args.epoch_range))
        swarm_config = cso.SwarmConfig(
            n_cats=args.cats, max_iters=args.iters, mixture_ratio=args.mr,
            smp=args.smp, srd=args.srd, cdc=args.cdc, c1=args.c1,
            seed=run.seed)
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1 and not hasattr(os, "fork"):
        raise UsageError("--workers above 1 needs fork(), which this "
                         "platform lacks")
    flows, inputs = _load_records(args, run.seed)
    with run.started(inputs) as out:
        prep = data.prepare_dataset(flows, run.seed)
        arch = nn.default_architecture(len(prep.codec))
        best_config, best_fit, history = hyperopt.optimize_hyperparams(
            space, (prep.train, prep.val), arch, swarm_config, args.workers)
        if best_fit == hyperopt.WORST_FITNESS:
            raise TrainingDiverged("every swarm candidate diverged")

        run.add(history.to_csv(out / "convergence.csv"))
        run.add(svg.line_chart(
            out / "convergence.svg", "Swarm convergence",
            [("best_accuracy", history.iterations, history.best_value),
             ("mean_accuracy", history.iterations, history.mean_fitness)],
            x_label="iteration", y_label="validation accuracy"))
        run.add(hyperopt.save_best(
            out / "best_hyperparams.json", best_config, best_fit))

        # Materialize the winner: retrain at the best hyperparameters. The
        # swarm's pool has exited, so the lane's thread sees no fork.
        with trainer.open_lane() as lane:
            best_net, state = trainer.train_new(
                arch, prep.train, prep.val,
                dataclasses.replace(best_config, seed=run.seed), lane)
        _save_trained(run, prep, best_net, state)
        run.metrics.update({
            "best_fitness": [best_fit.val_accuracy, best_fit.val_loss],
            "best_learning_rate": best_config.initial_lr,
            "best_batch_size": best_config.batch_size,
            "best_epochs": best_config.epochs,
            "retrain_val_accuracy": state.best_val_acc,
        })
    return EXIT_OK


def _open_model(args):
    """Load --model and its scaler stats (--scaler, or scaler.json next to
    the model) and check that they belong together. Returns (bundle, stats,
    scaler path)."""
    with _reading("--model", args.model):
        bundle = load_model(args.model)
    scaler_path = args.scaler
    if scaler_path is None:
        scaler_path = Path(args.model).parent / SCALER_FILENAME
    if not Path(scaler_path).exists():
        raise SchemaError(
            f"scaler stats not found at {scaler_path}; pass --scaler PATH "
            f"(written next to the model at training time)")
    with _reading("--scaler", scaler_path):
        stats = data.ScalerStats.load(scaler_path)
    if bundle.scaler_fingerprint not in (None, stats.fingerprint()):
        raise ScalerMismatch(
            f"scaler stats fingerprint {stats.fingerprint()} does not match "
            f"the model's {bundle.scaler_fingerprint}; re-export the stats "
            f"saved at training time")
    return bundle, stats, str(scaler_path)


def _quoted(name):
    """name as csv.writer writes it as one field of a row."""
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow([name, ""])
    return line.getvalue()[:-len(",")]


def _csv_lines(numbers, text, line_end):
    """The CSV lines of a block of rows, made with one "".join. A row's
    fields are its row of numbers, each as the repr of its Python float,
    with the text columns inserted at their field indices: text maps an
    index to a string for every row or an object array of one per row,
    already quoted (see _quoted). Each distinct bit pattern in the block
    gets one repr, so 0.0 and -0.0 keep their own."""
    block = np.ascontiguousarray(numbers, dtype=np.float64)
    n, k = block.shape
    bits, where = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
    reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    # a row is its fields, each followed by ',' except the last, by line_end
    row = np.empty((n, 2 * (k + len(text))), dtype=object)
    row[:, 1::2] = ","
    row[:, -1] = line_end
    fields = row[:, 0::2]
    fields[:, [i for i in range(k + len(text)) if i not in text]] = \
        reprs[where].reshape(n, k)
    for index, column in text.items():
        fields[:, index] = column
    return "".join(row.ravel().tolist())


ROC_BLOCK_POINTS = 4096


def _write_roc_csv(path, curves):
    """roc.csv: a curve,fpr,tpr,threshold row per point of every (name,
    points, auc) curve, written ROC_BLOCK_POINTS points at a time (see
    _csv_lines), so memory stays bounded in the curve length."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("curve,fpr,tpr,threshold\n")
        for name, pts, _ in curves:
            text = {0: _quoted(name)}
            for start in range(0, len(pts), ROC_BLOCK_POINTS):
                fh.write(_csv_lines(pts[start:start + ROC_BLOCK_POINTS],
                                    text, "\n"))
    return path


def cmd_evaluate(args):
    from . import metrics, svg
    run = _Run(args)
    bundle, stats, scaler_path = _open_model(args)
    codec = data.LabelCodec(tuple(bundle.class_names))
    with contextlib.ExitStack() as stack:
        if args.data and not args.synthetic:
            schema = data.CsvSchema(args.label_column, stats.n_features)
            chunks = stack.enter_context(
                _csv_chunks("--data", args.data, schema, need_labels=True))
        else:  # the synthetic blobs as one chunk, or a usage error
            flows, _ = _load_records(args, run.seed)
            chunks = [(flows.features, flows.labels)]
        out = stack.enter_context(run.started(
            [args.data or "synthetic", args.model, scaler_path]))
        probs, labels = _gather(_scored(bundle.network, stats, chunks), codec)
        test_loss = nn.loss_sparse_ce(probs, labels)
        predictions = probs.argmax(axis=1)
        test_acc = float(np.mean(predictions == labels))

        cm = metrics.confusion(labels, predictions, len(codec), codec.classes)
        m = metrics.scalar_metrics(cm)
        report_path = out / "classification_report.txt"
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.report_text(m))
        run.add(report_path)
        run.add(cm.to_csv(out / "confusion_matrix.csv"))
        run.add(svg.heatmap(
            out / "confusion_matrix.svg", "Confusion matrix",
            cm.counts.tolist(), codec.classes, codec.classes))

        curves = []
        micro_points, micro_auc = metrics.micro_roc_curve(labels, probs)
        curves.append(("micro", micro_points, micro_auc))
        for i, name in enumerate(codec.classes):
            try:
                pts, auc = metrics.roc_curve(labels, probs, i)
            except DegenerateClass:
                continue
            curves.append((name, pts, auc))
        run.add(_write_roc_csv(out / "roc.csv", curves))
        run.add(svg.line_chart(
            out / "roc.svg", "ROC curves (one-vs-rest and micro-average)",
            [(f"{name} (auc={auc:.3f})", pts[:, 0], pts[:, 1])
             for name, pts, auc in curves],
            x_label="false positive rate", y_label="true positive rate"))

        averaged = {
            field_name: {
                "macro": m["macro"][key],
                "weighted": m["weighted"][key],
                "micro": m["micro"][key],
            }
            for field_name, key in (
                ("Precision Score", "precision"),
                ("Recall Score", "recall"),
                ("F1 Score", "f1"),
                ("Sensitivity", "sensitivity"),
                ("Specificity", "specificity"),
                ("PPV", "ppv"),
                ("NPV", "npv"),
            )
        }
        tm = bundle.training_metrics or {}
        record = {
            "Training accuracy": tm.get("training_accuracy"),
            "Validating accuracy": tm.get("validation_accuracy"),
            "Testing accuracy": test_acc,
            **averaged,
            "Kappa Score": m["kappa"],
        }
        record_path = out / "metrics.json"
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        run.add(record_path)
        run.metrics.update({
            "test_accuracy": test_acc,
            "test_loss": test_loss,
            "kappa": m["kappa"],
            "micro_auc": micro_auc,
        })
    return EXIT_OK


def cmd_detect(args):
    if args.calibrate and args.threshold is not None:
        raise UsageError("--calibrate and --threshold are mutually exclusive")
    run = _Run(args)
    bundle, stats, scaler_path = _open_model(args)
    # no directory before the manifest: a usage error inside the block
    # (an unreadable --input, a --threshold out of range) leaves none
    with run.started([args.input or "stdin", args.model, scaler_path],
                     make_dir=False):
        class_names = tuple(bundle.class_names)
        benign_name = args.benign_class
        if benign_name is None:
            benign_name = "Benign" if "Benign" in class_names else class_names[0]
        if benign_name not in class_names:
            raise LabelError(f"benign class {benign_name!r} not among "
                             f"model classes {class_names}")
        with _usage_errors():
            policy = detector.DetectionPolicy(
                threshold=0.5 if args.threshold is None else args.threshold,
                score_kind=args.score_kind,
                benign_class_index=class_names.index(benign_name))
        # verdict lines as csv.writer would write them, \r\n-terminated
        verdicts = np.array(["normal", "anomalous"], dtype=object)
        classes = np.array([_quoted(c) for c in class_names], dtype=object)
        n_records = n_anomalous = 0
        schema = data.CsvSchema(args.label_column, stats.n_features)
        try:
            with _csv_chunks("--input", args.input, schema,
                             need_labels=args.calibrate) as chunks:
                scored = _scored(bundle.network, stats, chunks)
                if args.calibrate:
                    probs, codes = _gather(scored, data.LabelCodec(class_names))
                    threshold = detector.calibrate_threshold(
                        detector.score(probs, policy)[0], codes, policy)
                    print(f"calibrated threshold: {threshold!r}")
                    policy = dataclasses.replace(policy, threshold=threshold)
                    scored = [(block, None) for block in np.split(
                        probs, range(nn.INFERENCE_ROWS, len(probs),
                                     nn.INFERENCE_ROWS))]
                csv.writer(sys.stdout).writerow(
                    ["score", "verdict", "predicted_class"]
                    + [f"p_{c}" for c in class_names])
                for probs, _ in scored:
                    scores, flags = detector.score(probs, policy)
                    sys.stdout.write(_csv_lines(
                        np.column_stack([scores, probs]),
                        {1: verdicts[flags.view(np.uint8)],
                         2: classes[probs.argmax(axis=1)]}, "\r\n"))
                    n_records += len(scores)
                    n_anomalous += int(flags.sum())
                    sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (say `detect ... | head -1`): send what is
            # still buffered to devnull so the exit-time flush cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            run.partial = True
        run.metrics.update({
            "records": n_records,
            "anomalous": n_anomalous,
            "threshold": policy.threshold,
        })
    return EXIT_BROKEN_PIPE if run.partial else EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "detect": cmd_detect,
}


def _error_record(args, exc, code):
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    out = _out_dir(args)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    except OSError:
        pass
    print(f"csocnn: {record['error']}: {record['message']}", file=sys.stderr)


def _set_allocator_policy():
    """Set the process's glibc allocator policy (see M_TOP_PAD and
    M_MMAP_THRESHOLD). It changes no result, only where arrays are placed
    and when freed memory goes back to the kernel; without glibc it does
    nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_TOP_PAD, TOP_PAD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv=None):
    _set_allocator_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"csocnn: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FORMAT_ERRORS as exc:
        _error_record(args, exc, EXIT_FORMAT)
        return EXIT_FORMAT
    except _NUMERIC_ERRORS as exc:
        _error_record(args, exc, EXIT_NUMERIC)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
