"""Seeded labeled flow CSVs for the benchmark, generated with plain numpy.

The benchmark makes its own inputs instead of calling ``csocnn.data``, so
a change to the program cannot change what a workload feeds it. The class
geometry is fixed; the seed picks the rows. Each file has 75 numeric
feature columns and a five-class ``label`` column. About 1% of the feature
cells are empty, ``NaN``, ``inf`` or ``-inf``, so the cleaning path runs.
"""

import hashlib

import numpy as np

CLASSES = ("Benign", "Data", "Establish", "Lateral", "Reconn")
CLASS_SHARE = (0.40, 0.15, 0.15, 0.15, 0.15)
N_FEATURES = 75
# Fixed seed of the class centres: every run seed draws rows from the same
# five clusters, so accuracy does not depend on which seed is measured.
GEOMETRY_SEED = 2020
SEPARATION = 0.9
BAD_CELLS = (("", 0.004), ("NaN", 0.003), ("inf", 0.002), ("-inf", 0.001))


def _centres():
    rng = np.random.default_rng(GEOMETRY_SEED)
    return rng.normal(size=(len(CLASSES), N_FEATURES)) * SEPARATION


def make_rows(n_rows, seed, stream=0):
    """(features, labels) drawn from the fixed clusters: float64 matrix of
    shape (n_rows, 75) and a list of class names. Different streams of one
    seed give independent rows."""
    rng = np.random.default_rng([seed, stream, 0])
    # Exact class counts, so class shares (and the accuracy of a model that
    # only learned them) do not vary with the seed.
    counts = np.floor(np.asarray(CLASS_SHARE) * n_rows).astype(int)
    counts[0] += n_rows - counts.sum()
    codes = rng.permutation(np.repeat(np.arange(len(CLASSES)), counts))
    x = _centres()[codes] + rng.normal(size=(n_rows, N_FEATURES))
    # Flow-like shapes: skewed byte/packet sizes, integer counts, and two
    # constant columns.
    x[:, :25] = np.exp(0.5 * x[:, :25])
    x[:, 50:73] = np.round(np.abs(x[:, 50:73]) * 10.0)
    x[:, 73:] = 0.0
    return x, [CLASSES[c] for c in codes]


def write_csv(path, n_rows, seed, stream=0):
    """Write a labeled CSV of n_rows rows; returns (sha256 hex digest of the
    file, list of row labels)."""
    x, labels = make_rows(n_rows, seed, stream)
    cells = np.char.mod("%.6g", x).astype(object)
    rng = np.random.default_rng([seed, stream, 1])
    draw = rng.random(size=x.shape)
    edge = 0.0
    for text, share in BAD_CELLS:
        cells[(draw >= edge) & (draw < edge + share)] = text
        edge += share
    header = [f"f{j:02d}" for j in range(N_FEATURES)] + ["label"]
    lines = [",".join(header)]
    lines.extend(",".join(row) + "," + label
                 for row, label in zip(cells.tolist(), labels))
    body = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(body)
    return hashlib.sha256(body).hexdigest(), labels
