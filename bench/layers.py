"""Per-layer metrics from the spans ``traced_cli.py`` records.

A layer is a ``csocnn`` module; a span's name is ``<module>.<function>``
or ``<module>.<Class>.<method>``. A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum of
the self times of its spans. Inclusive times (``.s``) count only spans
with no ancestor of the same name (or layer), so recursion and same-layer
calls are not counted twice.
"""

import statistics
from collections import defaultdict

LAYERS = ("cli", "cso", "data", "detector", "hyperopt", "metrics", "model_io",
          "nn", "optim", "svg", "tensor", "trainer")

# name: (unit, which direction is better)
METRICS = {
    "nn.forward.train.ms_per_call": ("ms", "lower"),
    "nn.forward.train.calls": ("count", "lower"),
    "nn.backward.ms_per_call": ("ms", "lower"),
    "nn.forward.inference.ms_per_krow": ("ms", "lower"),
    "nn.forward.inference.max_rows_per_call": ("rows", "lower"),
    "nn.forward.cache_mb_per_krow": ("MB", "lower"),
    "optim.adam_step.calls": ("count", "lower"),
    "optim.adam_step.ms_per_call": ("ms", "lower"),
    "trainer.train.self_s": ("s", "lower"),
    "trainer.evaluate.s": ("s", "lower"),
    "model_io.save_model.calls": ("count", "lower"),
    "model_io.load_model.calls": ("count", "lower"),
    "model_io.s": ("s", "lower"),
    "hyperopt.evaluate_candidate.calls": ("count", "lower"),
    "hyperopt.evaluate_candidate.s_per_call": ("s", "lower"),
    "hyperopt.useful_ratio": ("ratio", "higher"),
    "cso.optimize.self_s": ("s", "lower"),
    "data.load_csv.s": ("s", "lower"),
    "data.load_csv.rows_per_s": ("rows/s", "higher"),
    "data.clean_and_scale.s": ("s", "lower"),
    "data.prepare_dataset.self_s": ("s", "lower"),
    "detector.score_batch.self_s": ("s", "lower"),
    "metrics.s": ("s", "lower"),
    "svg.s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

MB = 1024.0 * 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(trace):
    """Per-layer metrics of one traced command (``trace`` as written by
    traced_cli.py). ``trace.overhead_s`` is added by the caller."""
    spans = {s[0]: s for s in trace["spans"]}
    child_time = defaultdict(float)
    for span_id, parent, _, t0, t1, _ in spans.values():
        if parent is not None:
            child_time[parent] += t1 - t0

    def has_ancestor(span, same):
        parent = span[1]
        while parent is not None:
            if same(spans[parent]):
                return True
            parent = spans[parent][1]
        return False

    calls = defaultdict(int)
    total = defaultdict(float)      # inclusive, outermost spans of each name
    self_fn = defaultdict(float)    # self time per function name
    self_layer = defaultdict(float)
    layer_total = defaultdict(float)
    for span in spans.values():
        span_id, _, name, t0, t1, info = span
        layer = name.split(".", 1)[0]
        dur = t1 - t0
        calls[name] += 1
        own = dur - child_time[span_id]
        self_fn[name] += own
        self_layer[layer] += own
        if not has_ancestor(span, lambda s: s[2] == name):
            total[name] += dur
        if not has_ancestor(span, lambda s: s[2].split(".", 1)[0] == layer):
            layer_total[layer] += dur

    fwd = [s for s in spans.values() if s[2] == "nn.forward" and "rows" in s[5]]
    fwd_train = [s for s in fwd if s[5]["mode"] == "train"]
    fwd_inf = [s for s in fwd if s[5]["mode"] == "inference"]
    inf_rows = sum(s[5]["rows"] for s in fwd_inf)
    all_rows = sum(s[5]["rows"] for s in fwd)

    candidates = [s for s in spans.values() if s[2] == "hyperopt.evaluate_candidate"]
    diverged = {s[1] for s in spans.values()
                if s[2] == "trainer.train" and s[5].get("error") == "TrainingDiverged"}
    useful = sum(1 for s in candidates if s[0] not in diverged)

    csv_rows = sum(s[5].get("rows", 0) for s in spans.values()
                   if s[2] == "data.load_csv")

    metrics = {
        "nn.forward.train.ms_per_call": 1e3 * _ratio(
            sum(s[4] - s[3] for s in fwd_train), len(fwd_train)),
        "nn.forward.train.calls": len(fwd_train),
        "nn.backward.ms_per_call": 1e3 * _ratio(
            total["nn.backward"], calls["nn.backward"]),
        "nn.forward.inference.ms_per_krow": 1e3 * _ratio(
            sum(s[4] - s[3] for s in fwd_inf), inf_rows / 1e3),
        "nn.forward.inference.max_rows_per_call": max(
            (s[5]["rows"] for s in fwd_inf), default=0),
        "nn.forward.cache_mb_per_krow": _ratio(
            sum(s[5]["cache_bytes"] for s in fwd) / MB, all_rows / 1e3),
        "optim.adam_step.calls": calls["optim.adam_step"],
        "optim.adam_step.ms_per_call": 1e3 * _ratio(
            total["optim.adam_step"], calls["optim.adam_step"]),
        "trainer.train.self_s": self_fn["trainer.train"],
        "trainer.evaluate.s": total["trainer.evaluate"],
        "model_io.save_model.calls": calls["model_io.save_model"],
        "model_io.load_model.calls": calls["model_io.load_model"],
        "model_io.s": layer_total["model_io"],
        "hyperopt.evaluate_candidate.calls": len(candidates),
        "hyperopt.evaluate_candidate.s_per_call": _ratio(
            total["hyperopt.evaluate_candidate"], len(candidates)),
        "hyperopt.useful_ratio": _ratio(useful, len(candidates)),
        "cso.optimize.self_s": self_fn["cso.optimize"],
        "data.load_csv.s": total["data.load_csv"],
        "data.load_csv.rows_per_s": _ratio(csv_rows, total["data.load_csv"]),
        "data.clean_and_scale.s": total["data.clean_and_scale"],
        "data.prepare_dataset.self_s": self_fn["data.prepare_dataset"],
        "detector.score_batch.self_s": self_fn["detector.score_batch"],
        "metrics.s": layer_total["metrics"],
        "svg.s": layer_total["svg"],
    }
    metrics.update({f"{layer}.self_s": self_layer[layer] for layer in LAYERS})
    return metrics


def median_metrics(summaries):
    """Median of each metric over several traced commands."""
    if not summaries:
        return {name: 0.0 for name in METRICS if name != "trace.overhead_s"}
    return {name: statistics.median(s[name] for s in summaries)
            for name in summaries[0]}
