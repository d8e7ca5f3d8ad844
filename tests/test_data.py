import csv
import io
import json

import numpy as np
import pytest

from csocnn import data, nn
from csocnn.errors import LabelError, ParseError, SchemaError, StratifyError


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


# --- load_csv ---------------------------------------------------------------

def test_well_formed_file(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1", "label"],
                      [[1.0, 2.0, "Benign"], [3.0, 4.0, "Reconn"],
                       [5.0, 6.0, "Benign"]])
    flows = data.load_csv(path)
    assert len(flows) == 3
    assert flows.features[0].tolist() == [1.0, 2.0]
    assert flows.labels[1] == "Reconn"
    assert all(type(label) is str for label in flows.labels)


def test_empty_file_with_header(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1", "label"], [])
    flows = data.load_csv(path)
    assert len(flows) == 0
    assert flows.features.shape == (0, 2)


def _per_cell_parse(rows, feature_idx):
    """read_csv_chunks' cell conversion as it was before the chunk cast: one
    float() per cell into a per-row array, NaN where float() refuses."""
    parsed = []
    for row in rows:
        values = np.empty(len(feature_idx), dtype=np.float64)
        for k, idx in enumerate(feature_idx):
            try:
                values[k] = float(row[idx])
            except ValueError:
                values[k] = np.nan
        parsed.append(values)
    return np.stack(parsed)


@pytest.mark.parametrize("n_rows", [nn.INFERENCE_ROWS, nn.INFERENCE_ROWS + 1])
def test_chunk_boundary_matches_per_row_parse(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    rows = [[repr(float(v)) for v in rng.normal(size=3)] + [f"c{i % 3}"]
            for i in range(n_rows)]
    rows[nn.INFERENCE_ROWS - 1][0] = "wat"
    rows[n_rows - 1][2] = "Infinity"
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1", "f2", "label"],
                      rows)
    flows = data.load_csv(path)

    expected = _per_cell_parse(rows, [0, 1, 2])
    assert flows.features.shape == (n_rows, 3)
    np.testing.assert_array_equal(flows.features, expected)
    assert flows.labels.tolist() == [row[3] for row in rows]


EXOTIC_CELLS = ["1_0", " 1.5 ", "Infinity", "-NaN", "\u0661\u0662", "1e400",
                "", "-0.0", "5e-324", "-inf", "nan", "1" * 400]
REJECTED_CELLS = ["wat", "   ", "0x10"]


def test_chunk_cast_matches_per_cell_parse_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(3)
    n_rows = nn.INFERENCE_ROWS + 40
    rows = [[str(rng.choice(EXOTIC_CELLS)) for _ in range(4)] + [" c0 "]
            for _ in range(n_rows)]
    for cell, row in zip(REJECTED_CELLS, rows[-len(REJECTED_CELLS):]):
        row[1] = cell  # only the second chunk holds rejected cells
    text = io.StringIO()
    csv.writer(text).writerows([["f0", "f1", "f2", "f3", "label"]] + rows)
    text.seek(0)
    fallbacks = []
    float_or_nan = data._float_or_nan
    monkeypatch.setattr(data, "_float_or_nan",
                        lambda cell: fallbacks.append(cell) or
                        float_or_nan(cell))

    _, chunks = data.read_csv_chunks(text)
    (first, first_labels), (second, second_labels) = chunks
    assert len(fallbacks) == 4 * (n_rows - nn.INFERENCE_ROWS)
    expected = _per_cell_parse(rows, [0, 1, 2, 3])
    assert np.isnan(expected).any() and np.isinf(expected).any()
    assert np.signbit(expected[np.isnan(expected)]).any()
    got = np.concatenate([first, second])
    assert got.dtype == np.float64 and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64),
                                  expected.view(np.uint64))
    assert first_labels + second_labels == ["c0"] * n_rows


@pytest.mark.parametrize("stream", [False, True], ids=["file", "stdin"])
def test_byte_order_mark_dropped_from_first_header_field(tmp_path, stream):
    text = "\ufefflabel,f0,f1\nBenign,1.0,2.0\nReconn,3.0,\n"
    if stream:
        n_features, chunks = data.read_csv_chunks(
            io.StringIO(text), need_labels=True)
        [(features, labels)] = chunks
        flows = data.Flows(features, labels)
        assert n_features == 2
    else:
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        flows = data.load_csv(path)
    np.testing.assert_array_equal(flows.features, [[1.0, 2.0], [3.0, np.nan]])
    assert flows.labels.tolist() == ["Benign", "Reconn"]


def test_missing_label_column(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1"], [[1, 2]])
    with pytest.raises(SchemaError):
        data.load_csv(path)


def test_expected_feature_count_enforced(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1", "label"],
                      [[1, 2, "x"]])
    with pytest.raises(SchemaError):
        data.load_csv(path, data.CsvSchema(expected_features=75))


def test_ragged_row_raises_parse_error(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("f0,f1,label\n1.0,2.0,Benign\n3.0,Reconn\n")
    with pytest.raises(ParseError) as info:
        data.load_csv(path)
    assert info.value.row_number == 3


def test_inf_value_retained_and_counted(tmp_path):
    # an Inf in a duration-style column is imputed, not dropped
    path = _write_csv(tmp_path / "flows.csv", ["dur", "label"],
                      [[1.0, "a"], ["Infinity", "a"], [3.0, "b"], [5.0, "b"]])
    flows = data.load_csv(path)
    assert len(flows) == 4
    assert data.prepare_dataset(flows).n_inf_imputed == 1
    values, _ = _fit_and_scale(flows.features)
    values = values[:, 0]
    assert np.all(np.isfinite(values))
    # +Inf became the max finite observed (5.0), which scales to 1.0
    assert values[1] == values[3] == 1.0


def test_unparseable_cell_routed_to_cleaning(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "label"],
                      [[1.0, "a"], ["wat", "a"], [3.0, "b"], [5.0, "b"]])
    flows = data.load_csv(path)
    assert len(flows) == 4
    assert data.prepare_dataset(flows).n_nan_imputed == 1


# --- ScalerStats.fit and scale_features -------------------------------------

def _flows(columns, labels=None):
    arr = np.asarray(columns, dtype=float)
    return data.Flows(arr, labels or ["x"] * len(arr))


def _fit_and_scale(columns):
    """(scaled matrix, stats) of a matrix scaled with its own fitted stats."""
    f = np.asarray(columns, dtype=float)
    stats = data.ScalerStats.fit(f)
    return data.scale_features(f, stats)[0], stats


def test_minmax_endpoints():
    scaled, _ = _fit_and_scale([[0.0], [5.0], [10.0]])
    assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_constant_column_scales_to_zero():
    scaled, _ = _fit_and_scale([[7.0], [7.0], [7.0]])
    assert scaled[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_nan_imputed_with_train_median():
    _, stats = _fit_and_scale([[0.0], [4.0], [8.0]])
    holdout, _ = data.scale_features(np.array([[np.nan]]), stats)
    # median 4.0 scales to 0.5
    assert holdout[0, 0] == 0.5


def test_out_of_range_eval_value_clamped_and_counted():
    _, stats = _fit_and_scale([[0.0], [10.0]])
    holdout, clamped = data.scale_features(np.array([[25.0], [5.0]]), stats)
    assert clamped == 1
    assert holdout[0, 0] == 1.0
    assert holdout[1, 0] == 0.5


def test_all_outputs_in_unit_interval_and_finite():
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(50, 4)) * 100
    cols[3, 1] = np.nan
    cols[7, 2] = np.inf
    cols[9, 0] = -np.inf
    values, _ = _fit_and_scale(cols)
    assert np.all(np.isfinite(values))
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_scaler_stats_round_trip(tmp_path):
    _, stats = _fit_and_scale([[0.0, 1.0], [4.0, 3.0]])
    path = stats.save(tmp_path / "scaler.json")
    loaded = data.ScalerStats.load(path)
    assert loaded.fingerprint() == stats.fingerprint()


def test_scaler_stats_reject_non_finite(tmp_path):
    # finite values whose span overflows float64 would scale to NaN
    with pytest.raises(SchemaError,
                       match="^feature column 1 has a non-finite hi - lo$"):
        data.ScalerStats.fit(np.array([[0.0, 1e308], [1.0, -1e308]]))
    with pytest.raises(SchemaError, match="^no records to process$"):
        data.ScalerStats.fit(np.empty((0, 2)))
    _, stats = _fit_and_scale([[0.0, 1.0], [4.0, 3.0]])
    path = stats.save(tmp_path / "scaler.json")
    for bad in (np.nan, np.inf):
        payload = json.loads(path.read_text())
        payload["lo"][1] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="feature column 1 has a "
                           "non-finite lo"):
            data.ScalerStats.load(path)


def test_scaler_stats_reject_unequal_shapes(tmp_path):
    # a 1-entry-short median, and a scalar median numpy would broadcast
    _, stats = _fit_and_scale([[0.0, 1.0, 2.0], [4.0, 3.0, 2.0]])
    path = stats.save(tmp_path / "scaler.json")
    for bad in ([0.5, 0.5], 0.5):
        payload = json.loads(path.read_text())
        payload["median"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="shapes"):
            data.ScalerStats.load(path)


# --- split ------------------------------------------------------------------

def test_split_reproduces_canonical_sizes():
    labels = ["a"] * 40000 + ["b"] * 36754
    flows = data.Flows(np.zeros((len(labels), 1)), labels)
    train, val, test = data.split(flows, seed=0)
    assert (len(train), len(val), len(test)) == (55262, 6141, 15351)


def test_split_small_hand_case():
    flows = data.Flows(np.zeros((10, 1)), ["a"] * 10)
    train, val, test = data.split(flows, seed=1)
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_is_deterministic_and_partitions():
    blobs = data.make_synthetic_blobs(300, k_classes=3, d=4, seed=5)
    # tag each row with its index so the parts can be traced back to rows
    flows = data.Flows(np.arange(300.0)[:, None], blobs.labels)
    a = data.split(flows, seed=9)
    b = data.split(flows, seed=9)
    for part_a, part_b in zip(a, b):
        assert part_a.features.tolist() == part_b.features.tolist()
        assert part_a.labels.tolist() == part_b.labels.tolist()
    seen = [int(i) for part in a for i in part.features[:, 0]]
    assert len(seen) == 300 and set(seen) == set(range(300))
    for part in a:
        assert part.labels.tolist() == [
            blobs.labels[int(i)] for i in part.features[:, 0]]


def test_split_stratification_within_one_record():
    flows = data.make_synthetic_blobs(1000, k_classes=5, d=3, seed=2)
    train, val, test = data.split(flows, seed=3)
    for part in (train, val, test):
        share = len(part) / 1000
        for cls in data.DAPT_CLASSES:
            count = int(np.sum(part.labels == cls))
            assert abs(count - 200 * share) <= 1


def test_split_class_too_small():
    flows = data.Flows(np.zeros((81, 1)), ["a"] * 40 + ["b"] * 40 + ["c"])
    with pytest.raises(StratifyError, match="^class 'c' has 1 records"):
        data.split(flows, seed=0)


# --- prepare_dataset's network layout ---------------------------------------

def test_single_record_shape():
    # five records of one class leave one record in the test split
    batch, labels = data.prepare_dataset(_flows(np.zeros((5, 75)))).test
    assert batch.shape == (1, 75, 1, 1)
    assert labels.tolist() == [0]


def test_layout_identity():
    flows = _flows(np.arange(40.0).reshape(10, 4))
    prep = data.prepare_dataset(flows, seed=3)
    train = data.split(flows, seed=3)[0]
    scaled, _ = data.scale_features(train.features, prep.stats)
    batch = prep.train[0]
    for i in range(len(train)):
        for k in range(4):
            assert batch[i, k, 0, 0] == scaled[i, k]


def test_round_trip_is_bit_equal():
    flows = data.make_synthetic_blobs(20, k_classes=2, d=6, seed=4)
    prep = data.prepare_dataset(flows, seed=4)
    for part, (batch, labels) in zip(data.split(flows, seed=4),
                                     (prep.train, prep.val, prep.test)):
        scaled, _ = data.scale_features(part.features, prep.stats)
        flat = batch.reshape(len(part), -1)
        for i, row in enumerate(scaled):
            assert np.array_equal(flat[i], row)
        assert labels.tolist() == prep.codec.encode_all(part.labels).tolist()


def test_label_codec_round_trip():
    codec = data.LabelCodec.from_labels(["Reconn", "Benign", "Data"])
    assert codec.classes == ("Benign", "Data", "Reconn")
    codes = codec.encode_all(["Reconn", "Benign", "Data", "Benign"])
    assert codes.tolist() == [2, 0, 1, 0]
    assert codec.encode_all(codec.classes).tolist() == [0, 1, 2]
    with pytest.raises(LabelError, match="^unknown class 'Nope'$"):
        codec.encode_all(["Benign", "Nope", "Also"])


# --- synthetic blobs --------------------------------------------------------

def test_blob_balance_exact():
    flows = data.make_synthetic_blobs(1000, k_classes=5, d=5, seed=1)
    for cls in data.DAPT_CLASSES:
        assert int(np.sum(flows.labels == cls)) == 200


def test_blob_separation_zero_is_chance_level():
    flows = data.make_synthetic_blobs(500, k_classes=5, d=10,
                                      separation=0.0, seed=3)
    # all centers collapse to the origin: nearest-centroid is chance
    accuracy = _nearest_centroid_accuracy(flows)
    assert accuracy < 0.4


def test_blob_high_separation_is_linearly_separable():
    flows = data.make_synthetic_blobs(500, k_classes=5, d=20,
                                      separation=4.0, seed=3)
    assert _nearest_centroid_accuracy(flows) > 0.99


def _nearest_centroid_accuracy(flows):
    labels = sorted(set(flows.labels))
    centroids = {
        l: flows.features[flows.labels == l].mean(axis=0) for l in labels
    }
    correct = 0
    for features, label in zip(flows.features, flows.labels):
        best = min(labels,
                   key=lambda l: float(np.sum((features - centroids[l]) ** 2)))
        correct += best == label
    return correct / len(flows)


# --- leakage guard -----------------------------------------------------------

def test_scaler_fitted_on_train_only():
    rng = np.random.default_rng(12)
    flows = data.make_synthetic_blobs(400, k_classes=2, d=3,
                                      separation=2.0, seed=12)
    prep = data.prepare_dataset(flows, seed=12)
    train, val, _ = data.split(flows, seed=12)
    fit_train_only = data.ScalerStats.fit(train.features)
    fit_with_val = data.ScalerStats.fit(
        np.concatenate([train.features, val.features]))
    assert prep.stats.fingerprint() == fit_train_only.fingerprint()
    assert prep.stats.fingerprint() != fit_with_val.fingerprint()
