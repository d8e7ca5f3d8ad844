import numpy as np
import pytest

from csocnn import data
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
    records = data.load_csv(path)
    assert len(records) == 3
    assert records[0].features.tolist() == [1.0, 2.0]
    assert records[1].label == "Reconn"


def test_empty_file_with_header(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "label"], [])
    assert data.load_csv(path) == []


def test_missing_label_column(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1"], [[1, 2]])
    with pytest.raises(SchemaError):
        data.load_csv(path)


def test_extra_column_rejected_with_explicit_schema(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "f1", "label"],
                      [[1, 2, "x"]])
    schema = data.CsvSchema(feature_columns=("f0",))
    with pytest.raises(SchemaError):
        data.load_csv(path, schema)


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
    records = data.load_csv(path)
    assert len(records) == 4
    scaled = data.clean_and_scale(records)
    assert scaled.n_inf_imputed == 1
    values = np.array([r.features[0] for r in scaled.records])
    assert np.all(np.isfinite(values))
    # +Inf became the max finite observed (5.0), which scales to 1.0
    assert values[1] == values[3] == 1.0


def test_unparseable_cell_routed_to_cleaning(tmp_path):
    path = _write_csv(tmp_path / "flows.csv", ["f0", "label"],
                      [[1.0, "a"], ["wat", "a"], [3.0, "b"]])
    records = data.load_csv(path)
    assert len(records) == 3
    scaled = data.clean_and_scale(records)
    assert scaled.n_nan_imputed == 1


# --- clean_and_scale --------------------------------------------------------

def _records(columns, labels=None):
    arr = np.asarray(columns, dtype=float)
    labels = labels or ["x"] * len(arr)
    return [data.FlowRecord(features=row.copy(), label=l)
            for row, l in zip(arr, labels)]


def test_minmax_endpoints():
    scaled = data.clean_and_scale(_records([[0.0], [5.0], [10.0]]))
    assert [r.features[0] for r in scaled.records] == [0.0, 0.5, 1.0]


def test_constant_column_scales_to_zero():
    scaled = data.clean_and_scale(_records([[7.0], [7.0], [7.0]]))
    assert [r.features[0] for r in scaled.records] == [0.0, 0.0, 0.0]


def test_nan_imputed_with_train_median():
    train = data.clean_and_scale(_records([[0.0], [4.0], [8.0]]))
    holdout = data.clean_and_scale(_records([[np.nan]]), train.stats)
    assert holdout.n_nan_imputed == 1
    # median 4.0 scales to 0.5
    assert holdout.records[0].features[0] == 0.5


def test_out_of_range_eval_value_clamped_and_counted():
    train = data.clean_and_scale(_records([[0.0], [10.0]]))
    holdout = data.clean_and_scale(_records([[25.0], [5.0]]), train.stats)
    assert holdout.n_clamped == 1
    assert holdout.records[0].features[0] == 1.0
    assert holdout.records[1].features[0] == 0.5


def test_all_outputs_in_unit_interval_and_finite():
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(50, 4)) * 100
    cols[3, 1] = np.nan
    cols[7, 2] = np.inf
    cols[9, 0] = -np.inf
    scaled = data.clean_and_scale(_records(cols))
    values = np.stack([r.features for r in scaled.records])
    assert np.all(np.isfinite(values))
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_scaler_stats_round_trip(tmp_path):
    train = data.clean_and_scale(_records([[0.0, 1.0], [4.0, 3.0]]))
    path = train.stats.save(tmp_path / "scaler.json")
    loaded = data.ScalerStats.load(path)
    assert loaded.fingerprint() == train.stats.fingerprint()


# --- split ------------------------------------------------------------------

def test_split_reproduces_canonical_sizes():
    labels = ["a"] * 40000 + ["b"] * 36754
    records = [data.FlowRecord(features=np.zeros(1), label=l) for l in labels]
    train, val, test = data.split(records, data.SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (55262, 6141, 15351)


def test_split_small_hand_case():
    records = [data.FlowRecord(features=np.zeros(1), label="a")
               for _ in range(10)]
    train, val, test = data.split(
        records, data.SplitSpec(stratified=False, seed=1))
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_is_deterministic_and_partitions():
    records = data.make_synthetic_blobs(300, k_classes=3, d=4, seed=5)
    ids = {id(r) for r in records}
    a = data.split(records, data.SplitSpec(seed=9))
    b = data.split(records, data.SplitSpec(seed=9))
    for part_a, part_b in zip(a, b):
        assert [id(r) for r in part_a] == [id(r) for r in part_b]
    seen = [id(r) for part in a for r in part]
    assert len(seen) == 300 and set(seen) == ids


def test_split_stratification_within_one_record():
    records = data.make_synthetic_blobs(1000, k_classes=5, d=3, seed=2)
    train, val, test = data.split(records, data.SplitSpec(seed=3))
    for part in (train, val, test):
        share = len(part) / 1000
        for cls in data.DAPT_CLASSES:
            count = sum(r.label == cls for r in part)
            assert abs(count - 200 * share) <= 1


def test_split_class_too_small():
    records = [data.FlowRecord(features=np.zeros(1), label="a")] * 40
    records += [data.FlowRecord(features=np.zeros(1), label="b")] * 40
    records += [data.FlowRecord(features=np.zeros(1), label="c")]
    with pytest.raises(StratifyError):
        data.split(records, data.SplitSpec(seed=0))


# --- to_network_input -------------------------------------------------------

def test_single_record_shape():
    recs = _records(np.zeros((1, 75)))
    batch, labels = data.to_network_input(recs)
    assert batch.shape == (1, 75, 1, 1)
    assert labels.tolist() == [0]


def test_layout_identity():
    recs = _records(np.arange(8.0).reshape(2, 4))
    batch, _ = data.to_network_input(recs)
    for i in range(2):
        for k in range(4):
            assert batch[i, k, 0, 0] == recs[i].features[k]


def test_network_input_rejects_non_finite():
    for bad in (np.nan, np.inf):
        recs = _records(np.array([[1.0, bad], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            data.to_network_input(recs)


def test_round_trip_is_bit_equal():
    records = data.make_synthetic_blobs(20, k_classes=2, d=6, seed=4)
    scaled = data.clean_and_scale(records)
    batch, _ = data.to_network_input(scaled.records)
    flat = batch.reshape(len(scaled.records), -1)
    for i, rec in enumerate(scaled.records):
        assert np.array_equal(flat[i], rec.features)


def test_label_codec_round_trip():
    codec = data.LabelCodec.from_labels(["Reconn", "Benign", "Data"])
    assert codec.classes == ("Benign", "Data", "Reconn")
    for name in codec.classes:
        assert codec.decode(codec.encode(name)) == name
    with pytest.raises(LabelError):
        codec.encode("Nope")
    with pytest.raises(LabelError):
        codec.decode(3)


# --- synthetic blobs --------------------------------------------------------

def test_blob_balance_exact():
    records = data.make_synthetic_blobs(1000, k_classes=5, d=5, seed=1)
    for cls in data.DAPT_CLASSES:
        assert sum(r.label == cls for r in records) == 200


def test_blob_separation_zero_is_chance_level():
    records = data.make_synthetic_blobs(500, k_classes=5, d=10,
                                        separation=0.0, seed=3)
    # all centers collapse to the origin: nearest-centroid is chance
    accuracy = _nearest_centroid_accuracy(records)
    assert accuracy < 0.4


def test_blob_high_separation_is_linearly_separable():
    records = data.make_synthetic_blobs(500, k_classes=5, d=20,
                                        separation=4.0, seed=3)
    assert _nearest_centroid_accuracy(records) > 0.99


def _nearest_centroid_accuracy(records):
    labels = sorted({r.label for r in records})
    centroids = {
        l: np.mean([r.features for r in records if r.label == l], axis=0)
        for l in labels
    }
    correct = 0
    for r in records:
        best = min(labels,
                   key=lambda l: float(np.sum((r.features - centroids[l]) ** 2)))
        correct += best == r.label
    return correct / len(records)


# --- leakage guard -----------------------------------------------------------

def test_scaler_fitted_on_train_only():
    rng = np.random.default_rng(12)
    records = data.make_synthetic_blobs(400, k_classes=2, d=3,
                                        separation=2.0, seed=12)
    spec = data.SplitSpec(seed=12)
    prep = data.prepare_dataset(records, spec)
    train_recs, val_recs, _ = data.split(records, spec)
    fit_train_only = data.clean_and_scale(train_recs).stats
    fit_with_val = data.clean_and_scale(train_recs + val_recs).stats
    assert prep.stats.fingerprint() == fit_train_only.fingerprint()
    assert prep.stats.fingerprint() != fit_with_val.fingerprint()
