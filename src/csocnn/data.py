"""Flow-feature dataset handling.

CSV ingestion into one columnar Flows table, an explicit cleaning policy
(NaN -> train median, ±Inf -> train extreme finite values, everything
counted), min-max scaling fitted on the training split only, and stratified
splitting into the (n, features, 1, 1) layout the network consumes. A
synthetic Gaussian blob generator stands in for real flow captures at desk
scale.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError, SchemaError, StratifyError
from .nn import INFERENCE_ROWS

# Multi-stage attack labels used by DAPT2020-shaped exports.
DAPT_CLASSES = ("Benign", "Data", "Establish", "Lateral", "Reconn")

TEST_FRACTION = 0.20
VAL_FRACTION = 0.10  # of the remainder after the test cut


@dataclass
class Flows:
    """Network flows as columns: an (n, d) float feature matrix and the n
    class labels, an object array of Python str. len() is n; indexing by an
    index array selects those rows."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=object)

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, rows):
        return Flows(self.features[rows], self.labels[rows])


@dataclass(frozen=True)
class LabelCodec:
    """Bijective mapping between ordered class names and codes 0..K-1."""

    classes: tuple

    @classmethod
    def from_labels(cls, labels):
        return cls(tuple(sorted(set(labels))))

    def encode_all(self, labels):
        lookup = {c: i for i, c in enumerate(self.classes)}
        try:
            return np.array([lookup[l] for l in labels], dtype=np.int64)
        except KeyError as exc:
            raise LabelError(f"unknown class {exc.args[0]!r}") from None

    def __len__(self):
        return len(self.classes)


@dataclass(frozen=True)
class CsvSchema:
    """Expected CSV layout: a label column, and every other column a numeric
    feature; expected_features, when set, is the required feature count."""

    label_column: str = "label"
    expected_features: int | None = None


def load_csv(path, schema=CsvSchema()):
    """Parse a labeled flow-feature CSV into one Flows table (see
    read_csv_chunks); a header-only file gives a (0, d) table, and a header
    without the label column raises SchemaError."""
    with open(path, newline="", encoding="utf-8") as fh:
        n_features, chunks = read_csv_chunks(fh, schema, path, need_labels=True)
        features, labels = [np.empty((0, n_features))], []
        for chunk, chunk_labels in chunks:
            features.append(chunk)
            labels.extend(chunk_labels)
    return Flows(np.concatenate(features), labels)


def _records(fh, source):
    """csv.reader over fh, with bytes it cannot read raising ParseError that
    names source and the reader's line count: a field longer than the csv
    module's limit fails on the line just read, and bytes that are not
    UTF-8 fail while the lines after the last one read are decoded."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{source}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: bytes after line {reader.line_num} are "
                         f"not UTF-8 ({exc.reason})") from None


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan  # routed to the cleaning policy


def read_csv_chunks(fh, schema=CsvSchema(), source="input", need_labels=False):
    """Check a flow-feature CSV's header now; parse its rows lazily.

    Returns (n_features, chunks). Every non-label column is a feature; with
    no label column the labels are None, or, with need_labels, the header
    raises SchemaError. One leading UTF-8 byte-order mark (U+FEFF) is
    dropped from the first header field. chunks yields (features, labels)
    for up to INFERENCE_ROWS rows at a time: a float64 matrix with one row
    per record and the stripped label strings. A chunk's cells are cast in
    one step, each to the bits float(cell) gives; empty and other
    unparseable numeric cells become NaN so the cleaning policy can impute
    and count them, and only a chunk holding a cell float() rejects is
    converted cell by cell. Structurally bad rows (wrong field count) raise
    ParseError with their 1-based row number; a field longer than the csv
    module's limit or bytes that are not UTF-8, in the header or any row,
    raise ParseError naming the line. A feature count other than
    schema.expected_features raises SchemaError.
    """
    reader = _records(fh, source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{source}: missing header row") from None
    if header:  # spreadsheet "CSV UTF-8" exports start with a BOM
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    feature_idx = [i for i, c in enumerate(header) if c != schema.label_column]
    if schema.expected_features is not None and \
            len(feature_idx) != schema.expected_features:
        raise SchemaError(
            f"{source}: expected {schema.expected_features} feature columns, "
            f"found {len(feature_idx)}")
    labeled = schema.label_column in header
    if need_labels and not labeled:
        raise SchemaError(
            f"{source}: label column {schema.label_column!r} not in header")
    label_idx = header.index(schema.label_column) if labeled else None

    def parsed(rows):
        cells = np.array(rows, dtype=object)[:, feature_idx]
        cells[cells == ""] = "nan"  # routed to the cleaning policy
        try:
            features = cells.astype(np.float64)  # float(cell) per cell
        except ValueError:  # only this chunk takes the per-cell NaN rule
            features = np.frompyfunc(_float_or_nan, 1, 1)(cells).astype(
                np.float64)
        labels = [row[label_idx].strip() for row in rows] if labeled else None
        return features, labels

    def chunks():
        rows = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{source}: row {row_number} has {len(row)} fields, "
                    f"expected {len(header)}", row_number=row_number)
            rows.append(row)
            if len(rows) == INFERENCE_ROWS:
                yield parsed(rows)
                rows = []
        if rows:
            yield parsed(rows)

    return len(feature_idx), chunks()


@dataclass
class ScalerStats:
    """Column statistics fitted on the training split only.

    median / inf_lo / inf_hi drive imputation (NaN, -Inf, +Inf); lo / hi
    drive the min-max scaling to [0, 1]. Anything but five finite 1-D arrays
    of one length with a finite hi - lo raises SchemaError.
    """

    median: np.ndarray
    inf_lo: np.ndarray
    inf_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(stat) for stat in vars(self).values()]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise SchemaError(f"scaler statistics have shapes {shapes}")
        with np.errstate(over="ignore", invalid="ignore"):
            values = vars(self) | {"hi - lo": self.hi - self.lo}
        for name, stat in values.items():
            bad = np.flatnonzero(~np.isfinite(stat))
            if bad.size:
                raise SchemaError(
                    f"feature column {bad[0]} has a non-finite {name}")

    @classmethod
    def fit(cls, features):
        """Fit on a training feature matrix: each column's median, min and
        max over its finite values (0 where it has none; constant columns
        scale to 0). No rows, or finite values spanning past float64, raise
        SchemaError."""
        if not len(features):
            raise SchemaError("no records to process")
        finite = np.where(np.isfinite(features), features, np.nan)
        finite[:, np.all(np.isnan(finite), axis=0)] = 0.0
        # Imputed values lie within a column's finite range, so the imputed
        # column's min and max are its finite min and max.
        lo = np.nanmin(finite, axis=0)
        hi = np.nanmax(finite, axis=0)
        return cls(median=np.nanmedian(finite, axis=0),
                   inf_lo=lo, inf_hi=hi, lo=lo, hi=hi)

    @property
    def n_features(self):
        return len(self.lo)

    def fingerprint(self):
        digest = hashlib.sha256()
        for arr in (self.median, self.inf_lo, self.inf_hi, self.lo, self.hi):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return digest.hexdigest()[:16]

    def save(self, path):
        payload = {
            "format_version": 1,
            "n_features": self.n_features,
            "median": self.median.tolist(),
            "inf_lo": self.inf_lo.tolist(),
            "inf_hi": self.inf_hi.tolist(),
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "fingerprint": self.fingerprint(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        return path

    @classmethod
    def load(cls, path):
        # a path that cannot be opened raises OSError, unusable content SchemaError
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
                return cls(**{key: np.asarray(payload[key], dtype=np.float64)
                              for key in ("median", "inf_lo", "inf_hi", "lo", "hi")})
            except (ValueError, KeyError, TypeError) as exc:
                raise SchemaError(f"scaler stats at {path} are unusable: "
                                  f"{type(exc).__name__}: {exc}") from None


def scale_features(f, stats):
    """Apply train-fitted stats to a feature matrix: impute NaN/±Inf, scale
    to [0, 1] and clamp what falls outside. Returns (float32 matrix, number
    of clamped values); a column count other than the stats' raises
    SchemaError. Works in place on one copy of the matrix, in the dtype its
    arithmetic with the stats takes (float64 for parsed features)."""
    if f.shape[1] != stats.n_features:
        raise SchemaError(
            f"records have {f.shape[1]} features, stats expect "
            f"{stats.n_features}")
    f = np.array(f, dtype=np.result_type(
        f, stats.median, stats.inf_lo, stats.inf_hi, stats.lo, stats.hi))
    np.copyto(f, stats.median, where=np.isnan(f))
    np.copyto(f, stats.inf_hi, where=np.isposinf(f))
    np.copyto(f, stats.inf_lo, where=np.isneginf(f))
    span = stats.hi - stats.lo
    f -= stats.lo
    with np.errstate(invalid="ignore", divide="ignore"):
        f /= span
    np.copyto(f, 0.0, where=~(span > 0))
    clamped = int(np.count_nonzero(f < 0.0) + np.count_nonzero(f > 1.0))
    np.clip(f, 0.0, 1.0, out=f)
    return f.astype(np.float32), clamped


def split_sizes(n):
    """(train, val, test) sizes: the test cut keeps floor(n*(1-TEST_FRACTION))
    records, then the remainder keeps floor(remainder*(1-VAL_FRACTION)) for
    training."""
    keep = math.floor(n * (1.0 - TEST_FRACTION))
    n_test = n - keep
    n_train = math.floor(keep * (1.0 - VAL_FRACTION))
    n_val = keep - n_train
    return n_train, n_val, n_test


def _largest_remainder(class_counts, take):
    """Allocate `take` draws across classes proportionally, within one
    record of the exact quota."""
    total = sum(class_counts.values())
    exact = {c: n * take / total for c, n in class_counts.items()}
    alloc = {c: math.floor(q) for c, q in exact.items()}
    short = take - sum(alloc.values())
    order = sorted(class_counts, key=lambda c: (-(exact[c] - alloc[c]), str(c)))
    for c in order:
        if short == 0:
            break
        if alloc[c] < class_counts[c]:
            alloc[c] += 1
            short -= 1
    return alloc


def split(flows, seed=0):
    """Deterministic stratified (train, val, test) partition of a Flows
    table, seeded by seed.

    Class ratios hold within ±1 record per class in every part; a class
    with fewer records than there are classes raises StratifyError.
    """
    _, n_val, n_test = split_sizes(len(flows))
    rng = np.random.default_rng(seed)
    # row indices per class, classes in order of first appearance
    by_class = {label: np.flatnonzero(flows.labels == label)
                for label in dict.fromkeys(flows.labels)}
    k = len(by_class)
    for label, idxs in by_class.items():
        if len(idxs) < k:
            raise StratifyError(
                f"class {label!r} has {len(idxs)} records; stratified "
                f"splitting needs at least {k} per class")
    counts = {c: len(v) for c, v in by_class.items()}
    test_alloc = _largest_remainder(counts, n_test)
    remaining = {c: counts[c] - test_alloc[c] for c in counts}
    val_alloc = _largest_remainder(remaining, n_val)

    # (test, val, train) pieces; the empty first piece splits 0 rows too
    parts = tuple([np.zeros(0, dtype=int)] for _ in range(3))
    for label in sorted(by_class, key=str):
        idxs = by_class[label]
        rng.shuffle(idxs)
        cuts = np.cumsum([test_alloc[label], val_alloc[label]])
        for part, piece in zip(parts, np.split(idxs, cuts)):
            part.append(piece)
    # interleave classes so partition prefixes are representative
    test_idx, val_idx, train_idx = (
        idx[rng.permutation(len(idx))]
        for idx in map(np.concatenate, parts))
    return flows[train_idx], flows[val_idx], flows[test_idx]


def make_synthetic_blobs(n, k_classes=5, d=75, separation=3.0, seed=0):
    """Gaussian clusters standing in for flow captures, as a Flows table.

    Class-balanced within ±1 record; separation scales the distance between
    cluster centers (0 makes classes indistinguishable). Uses the DAPT-style
    class names when k_classes is 5.
    """
    if n < k_classes:
        raise ValueError(f"need at least {k_classes} records, got {n}")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k_classes, d)) * separation
    if k_classes == len(DAPT_CLASSES):
        names = DAPT_CLASSES
    else:
        names = tuple(f"class_{i}" for i in range(k_classes))
    counts = [n // k_classes + (1 if i < n % k_classes else 0)
              for i in range(k_classes)]
    features = np.concatenate([centers[c] + rng.normal(size=(count, d))
                               for c, count in enumerate(counts)])
    labels = np.repeat(np.array(names, dtype=object), counts)
    return Flows(features, labels)[rng.permutation(n)]


@dataclass
class PreparedData:
    """Leakage-free pipeline output: scaler fitted on train only, applied
    everywhere, splits tensorized for the trainer."""

    train: tuple
    val: tuple
    test: tuple
    codec: LabelCodec
    stats: ScalerStats
    n_nan_imputed: int = 0
    n_inf_imputed: int = 0
    n_clamped: int = 0


def prepare_dataset(flows, seed=0):
    """split -> fit the scaler on train -> scale every split into the
    (n, features, 1, 1) network layout, labels encoded in sorted class
    order. Feature k of row i lands at element (i, k, 0, 0)."""
    parts = split(flows, seed)
    codec = LabelCodec.from_labels(flows.labels)
    stats = ScalerStats.fit(parts[0].features)
    scaled = [scale_features(part.features, stats) for part in parts]
    return PreparedData(
        *[(x[:, :, None, None], codec.encode_all(part.labels))
          for (x, _), part in zip(scaled, parts)],
        codec=codec, stats=stats,
        n_nan_imputed=int(np.isnan(flows.features).sum()),
        n_inf_imputed=int(np.isinf(flows.features).sum()),
        n_clamped=sum(clamped for _, clamped in scaled),
    )
