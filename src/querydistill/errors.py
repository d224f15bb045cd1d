"""Exception types shared across the toolkit."""


class QueryDistillError(Exception):
    """Base class for all toolkit errors."""


class RegistryError(QueryDistillError):
    """Malformed, duplicated, or empty entity registry."""


class UnknownLabelError(RegistryError):
    """A label does not name any registry entity."""

    def __init__(self, label):
        super().__init__(f"unknown entity label: {label!r}")
        self.label = label


class DataError(QueryDistillError):
    """Invalid query data or dataset operation."""


class MalformedLineError(DataError):
    """An input line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnparseableResponseError(QueryDistillError):
    """An annotator response contained no usable line at all."""


class AnnotatorConfigError(QueryDistillError):
    """Annotator handle misconfigured (e.g. missing auth env var)."""


class ModelError(QueryDistillError):
    """Shape mismatch, registry-hash mismatch, or invalid model input."""


class EmptyDatasetError(ModelError):
    """Training was asked to run on zero examples."""


class NanLossError(ModelError):
    """Training loss became NaN; carries diagnostics about where."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class EvaluationError(QueryDistillError):
    """Gold/prediction stores disagree on coverage, or inputs are empty."""

    def __init__(self, message, missing_in_pred=(), missing_in_gold=()):
        super().__init__(message)
        self.missing_in_pred = sorted(missing_in_pred)
        self.missing_in_gold = sorted(missing_in_gold)


class PipelineConfigError(QueryDistillError):
    """Run configuration invalid or referencing unresolvable paths."""
