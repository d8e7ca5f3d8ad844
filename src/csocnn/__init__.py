"""Cat-swarm-optimized compact 2D-CNN classifier for network-flow features.

Subpackages by concern:

- ``nn`` / ``optim``: the from-scratch network core (shape
  inference, forward/backward, Adam) plus the model file format in
  ``model_io``.
- ``cso``: the cat swarm optimization engine.
- ``hyperopt``: hyperparameter search hybridizing the swarm with training.
- ``data``: the columnar flow table, CSV ingestion, cleaning, scaling,
  stratified splits, synthetic blob generation.
- ``trainer``: the mini-batch loop with early stopping and best-model
  checkpointing (kept in memory).
- ``metrics``: confusion-matrix metrics, classification reports, ROC/AUC.
- ``detector``: threshold-based anomaly verdicts over model scores.
- ``cli``: the ``csocnn`` command-line entry point.
"""

__version__ = "0.1.0"
