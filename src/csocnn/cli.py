"""csocnn command line: train, optimize, evaluate, detect.

Every command writes a run manifest (seeds, config snapshot, artifact
inventory, metric values) sufficient to reproduce its metric values
exactly. Artifact plots are SVG derived from sibling CSVs. Exit codes:
0 success, 2 usage, 3 data/model format, 4 numeric failure, 130 interrupted,
141 detect's standard output closed by its reader.
"""

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import os
import secrets
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import cso, data, detector, hyperopt, metrics, nn, svg, trainer
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


def default_out_dir():
    return os.environ.get("CSOCNN_OUT", "csocnn-out")


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
    p_opt.add_argument("--workers", type=int,
                       default=hyperopt.default_workers(),
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


class RunManifest:
    """Collects the run's reproducibility record and writes manifest.json."""

    def __init__(self, out_dir, command, config, seed, inputs):
        self.out_dir = Path(out_dir)
        self.started = time.time()
        self.payload = {
            "command": command,
            "config": config,
            "seed": seed,
            "inputs": inputs,
            "out_dir": str(self.out_dir),
            "artifacts": [],
            "metrics": {},
            "partial": False,
        }

    def add_artifact(self, path):
        self.payload["artifacts"].append(Path(path).name)
        return path

    def set_metrics(self, values):
        self.payload["metrics"].update(values)

    def write(self, partial=False):
        self.payload["partial"] = partial
        self.payload["duration_s"] = round(time.time() - self.started, 3)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, indent=1, sort_keys=True)
        return path


class _SignalGuard:
    """Finalize the manifest with a partial marker on SIGINT/SIGTERM."""

    def __init__(self, manifest):
        self.manifest = manifest
        self._previous = {}

    def __enter__(self):
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:  # non-main thread
                pass
        return self

    def _handle(self, signum, frame):
        self.manifest.write(partial=True)
        raise SystemExit(130)

    def __exit__(self, *exc):
        for sig, handler in self._previous.items():
            signal.signal(sig, handler)
        return False


def _seed_and_out(args):
    """The run's seed (--seed, or a random one the manifest records) and
    its output directory."""
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    seed = int(args.seed) if args.seed is not None else secrets.randbits(31)
    return seed, Path(args.out or default_out_dir())


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


def _config_snapshot(args):
    skip = {"command", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _curve_svg(path, state):
    svg.line_chart(
        path, "Training and validation accuracy / loss",
        [
            ("train_acc", state.epochs, state.train_acc),
            ("val_acc", state.epochs, state.val_acc),
            ("train_loss", state.epochs, state.train_loss),
            ("val_loss", state.epochs, state.val_loss),
        ],
        x_label="epoch", y_label="value")
    return path


def _save_trained(manifest, out, prep, network, state):
    """Write scaler.json, then model.model carrying the scaler fingerprint
    and the best epoch's training metrics."""
    best_idx = state.epochs.index(state.best_epoch)
    manifest.add_artifact(prep.stats.save(out / SCALER_FILENAME))
    manifest.add_artifact(save_model(
        out / "model.model", network, prep.codec.classes,
        scaler_fingerprint=prep.stats.fingerprint(),
        training_metrics={
            "training_accuracy": state.train_acc[best_idx],
            "training_loss": state.train_loss[best_idx],
            "validation_accuracy": state.best_val_acc,
            "validation_loss": state.best_val_loss,
        }))


def cmd_train(args):
    seed, out = _seed_and_out(args)
    with _usage_errors():
        config = trainer.TrainConfig(
            epochs=args.epochs, batch_size=args.batch, initial_lr=args.lr,
            seed=seed)
    flows, inputs = _load_records(args, seed)
    manifest = RunManifest(out, "train", _config_snapshot(args), seed, inputs)
    with _SignalGuard(manifest):
        out.mkdir(parents=True, exist_ok=True)
        prep = data.prepare_dataset(flows, seed)
        best, state = trainer.train_new(
            nn.default_architecture(len(prep.codec)), prep.train, prep.val,
            config)

        test_loss, test_acc, predictions, probs = trainer.evaluate(
            best, prep.test)
        manifest.add_artifact(state.history_to_csv(out / "history.csv"))
        manifest.add_artifact(_curve_svg(out / "curves.svg", state))
        _save_trained(manifest, out, prep, best, state)
        cm = metrics.confusion(prep.test[1], predictions, len(prep.codec),
                               prep.codec.classes)
        manifest.add_artifact(cm.to_csv(out / "confusion_matrix.csv"))
        manifest.set_metrics({
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
        manifest.write()
    return EXIT_OK


def cmd_optimize(args):
    seed, out = _seed_and_out(args)
    with _usage_errors():
        space = hyperopt.SearchSpace(
            lr_range=tuple(args.lr_range),
            batch_range=tuple(args.batch_range),
            epoch_range=tuple(args.epoch_range))
        swarm_config = cso.SwarmConfig(
            n_cats=args.cats, max_iters=args.iters, mixture_ratio=args.mr,
            smp=args.smp, srd=args.srd, cdc=args.cdc, c1=args.c1, seed=seed,
            n_workers=args.workers)
    if args.workers > 1 and not hasattr(os, "fork"):
        raise UsageError("--workers above 1 needs fork(), which this "
                         "platform lacks")
    flows, inputs = _load_records(args, seed)
    manifest = RunManifest(out, "optimize", _config_snapshot(args), seed, inputs)
    with _SignalGuard(manifest):
        out.mkdir(parents=True, exist_ok=True)
        prep = data.prepare_dataset(flows, seed)
        arch = nn.default_architecture(len(prep.codec))
        best_config, best_fit, history = hyperopt.optimize_hyperparams(
            space, (prep.train, prep.val), arch, swarm_config)
        if best_fit == hyperopt.WORST_FITNESS:
            raise TrainingDiverged("every swarm candidate diverged")

        manifest.add_artifact(history.to_csv(out / "convergence.csv"))
        manifest.add_artifact(svg.line_chart(
            out / "convergence.svg", "Swarm convergence",
            [("best_accuracy", history.iterations, history.best_value),
             ("mean_accuracy", history.iterations, history.mean_fitness)],
            x_label="iteration", y_label="validation accuracy"))
        manifest.add_artifact(hyperopt.save_best(
            out / "best_hyperparams.json", best_config, best_fit))

        # Materialize the winner: retrain at the best hyperparameters.
        best_net, state = trainer.train_new(
            arch, prep.train, prep.val,
            dataclasses.replace(best_config, seed=seed))
        _save_trained(manifest, out, prep, best_net, state)
        manifest.set_metrics({
            "best_fitness": [best_fit.val_accuracy, best_fit.val_loss],
            "best_learning_rate": best_config.initial_lr,
            "best_batch_size": best_config.batch_size,
            "best_epochs": best_config.epochs,
            "retrain_val_accuracy": state.best_val_acc,
        })
        manifest.write()
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


ROC_BLOCK_POINTS = 4096


def _write_roc_csv(path, curves):
    """roc.csv: a curve,fpr,tpr,threshold row per point of every (name,
    points, auc) curve, each number as the repr of its Python float and the
    name quoted as csv.writer quotes it. Written ROC_BLOCK_POINTS points at
    a time with one repr per distinct value in the block, so memory stays
    bounded in the curve length."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("curve,fpr,tpr,threshold\n")
        for name, pts, _ in curves:
            line = io.StringIO()
            csv.writer(line).writerow([name, ""])
            name_field = line.getvalue()[:-len("\r\n")]  # 'name,' quoted
            for start in range(0, len(pts), ROC_BLOCK_POINTS):
                block = np.ascontiguousarray(
                    pts[start:start + ROC_BLOCK_POINTS], dtype=np.float64)
                # distinct bit patterns, so 0.0 and -0.0 keep their own repr
                bits, where = np.unique(block.view(np.uint64).ravel(),
                                        return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                                dtype=object)
                # a row is 7 strings: 'name,' fpr ',' tpr ',' threshold '\n'
                row = np.empty((len(block), 7), dtype=object)
                row[:, 0] = name_field
                row[:, 2] = row[:, 4] = ","
                row[:, 6] = "\n"
                row[:, 1::2] = text[where].reshape(-1, 3)
                fh.write("".join(row.ravel().tolist()))
    return path


def cmd_evaluate(args):
    seed, out = _seed_and_out(args)
    bundle, stats, scaler_path = _open_model(args)
    codec = data.LabelCodec(tuple(bundle.class_names))
    manifest = RunManifest(out, "evaluate", _config_snapshot(args), seed,
                           [args.data or "synthetic", args.model, scaler_path])
    with contextlib.ExitStack() as stack:
        if args.data and not args.synthetic:
            schema = data.CsvSchema(args.label_column, stats.n_features)
            chunks = stack.enter_context(
                _csv_chunks("--data", args.data, schema, need_labels=True))
        else:  # the synthetic blobs as one chunk, or a usage error
            flows, _ = _load_records(args, seed)
            chunks = [(flows.features, flows.labels)]
        stack.enter_context(_SignalGuard(manifest))
        out.mkdir(parents=True, exist_ok=True)
        probs, labels = _gather(_scored(bundle.network, stats, chunks), codec)
        test_loss = nn.loss_sparse_ce(probs, labels)
        predictions = probs.argmax(axis=1)
        test_acc = float(np.mean(predictions == labels))

        cm = metrics.confusion(labels, predictions, len(codec), codec.classes)
        m = metrics.scalar_metrics(cm)
        report_path = out / "classification_report.txt"
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.report_text(m))
        manifest.add_artifact(report_path)
        manifest.add_artifact(cm.to_csv(out / "confusion_matrix.csv"))
        manifest.add_artifact(svg.heatmap(
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
        manifest.add_artifact(_write_roc_csv(out / "roc.csv", curves))
        manifest.add_artifact(svg.line_chart(
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
        manifest.add_artifact(record_path)
        manifest.set_metrics({
            "test_accuracy": test_acc,
            "test_loss": test_loss,
            "kappa": m["kappa"],
            "micro_auc": micro_auc,
        })
        manifest.write()
    return EXIT_OK


def cmd_detect(args):
    seed, out = _seed_and_out(args)
    bundle, stats, scaler_path = _open_model(args)
    manifest = RunManifest(out, "detect", _config_snapshot(args), seed,
                           [args.input or "stdin", args.model, scaler_path])
    with _SignalGuard(manifest):
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
        writer = csv.writer(sys.stdout)
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
                    scored = [(probs, None)]
                writer.writerow(["score", "verdict", "predicted_class"]
                                + [f"p_{c}" for c in class_names])
                for probs, _ in scored:
                    scores, flags = detector.score(probs, policy)
                    writer.writerows(
                        [repr(score), "anomalous" if flag else "normal",
                         class_names[pred]] + [repr(p) for p in row]
                        for score, flag, pred, row in zip(
                            scores.tolist(), flags.tolist(),
                            probs.argmax(axis=1).tolist(), probs.tolist()))
                    n_records += len(scores)
                    n_anomalous += int(flags.sum())
                    sys.stdout.flush()
            code = EXIT_OK
        except BrokenPipeError:
            # the reader left (say `detect ... | head -1`): send what is
            # still buffered to devnull so the exit-time flush cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code = EXIT_BROKEN_PIPE
        manifest.set_metrics({
            "records": n_records,
            "anomalous": n_anomalous,
            "threshold": policy.threshold,
        })
        manifest.write(partial=code != EXIT_OK)
    return code


_COMMANDS = {
    "train": cmd_train,
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "detect": cmd_detect,
}


def _error_record(args, exc, code):
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    out = getattr(args, "out", None) or default_out_dir()
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / "error.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    except OSError:
        pass
    print(f"csocnn: {record['error']}: {record['message']}", file=sys.stderr)


def _set_allocator_policy():
    """Set the process's glibc allocator policy (see M_TOP_PAD). It changes
    no result, only when freed memory goes back to the kernel; without glibc
    it does nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_TOP_PAD, TOP_PAD_BYTES)


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
