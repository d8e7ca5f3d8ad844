"""Exception types shared across the package."""


class ShapeError(ValueError):
    """A tensor or layer shape is inconsistent with what an operation requires."""


class StateError(RuntimeError):
    """An operation was called with stale or wrong-mode state (e.g. a backward
    pass against a cache that no longer matches the network)."""


class LabelError(ValueError):
    """A class label lies outside the valid range."""


class BoundsError(ValueError):
    """Search-space bounds are inverted or otherwise unusable."""


class FitnessError(RuntimeError):
    """A fitness function failed; carries the position that triggered it."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


class SchemaError(ValueError):
    """A CSV file's columns do not match the declared schema."""


class ParseError(ValueError):
    """A CSV row is structurally malformed; carries the 1-based row number."""

    def __init__(self, message, row_number=None):
        super().__init__(message)
        self.row_number = row_number


class StratifyError(ValueError):
    """A class is too small for a stratified split."""


class UndefinedMetric(ArithmeticError):
    """A metric set was asked of an empty confusion matrix."""


class DegenerateClass(ValueError):
    """A one-vs-rest task has no positives or no negatives."""


class ScalerMismatch(RuntimeError):
    """Feature-scaling statistics do not match the ones the model was trained with."""


class ModelFormatError(ValueError):
    """A model file's manifest and binary blob are inconsistent or corrupt."""
