"""divsat: diversity metrics, saturation detection, and filter evaluation
for embedding-vector pipelines.

The library answers four questions about a growing collection of embedding
vectors: how spread out is it (absolute diversity), how different are two
collections (comparative diversity via Gaussian-kernel MMD), when has a
generative pipeline stopped adding anything new (saturation detection),
and did a relevance filter help or hurt (confusion metrics, correlation,
and diversity impact).

The public names load lazily (PEP 562): ``import divsat`` loads no numpy,
and the first use of a name imports the submodule that defines it.
"""

import importlib
import math
import numbers

from . import errors

__version__ = "0.1.0"

# the longest external-command timeout in seconds: subprocess waits in
# poll(), whose timeout is at most 2**31 - 1 ms
_MAX_TIMEOUT = 2147483


def _rule(kind, kind_text: str, in_range=lambda v: True, range_text: str = ""):
    """An argument rule: a kind of number, then a range, each with its wording.

    The rule, called as ``rule(name, value)``, returns ``value`` or raises
    ``error`` naming the argument; numpy numbers pass, a bool does not. Its
    ``what`` words the whole rule for a command-line flag.
    """

    def rule(name: str, value, error=ValueError):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise error(f"{name} must be {kind_text}, got {value!r}")
        if not in_range(value):
            raise error(f"{name} must be {range_text or kind_text}")
        return value

    rule.what = f"{kind_text} {range_text}" if range_text else kind_text
    return rule


def _finite(value) -> bool:
    # math.isfinite raises OverflowError for an integer beyond float range
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_integer = _rule(numbers.Integral, "an integer")
_count = _rule(numbers.Integral, "an integer", lambda v: v >= 0, ">= 0")
_positive_int = _rule(numbers.Integral, "an integer", lambda v: v >= 1, ">= 1")
_fraction = _rule(numbers.Real, "a number", lambda v: 0 < v <= 1, "in (0, 1]")
_positive = _rule(numbers.Real, "a finite positive number", lambda v: 0 < v and _finite(v))
# A Gaussian kernel bandwidth b. The kernel scales squared distances by
# 1 / (2 b^2), a finite positive float for b in about [5.28e-155, 9.48e153];
# compared as a Python float, since numpy would cast the bounds to float32.
_bandwidth = _rule(numbers.Real, "a finite positive number",
                   lambda v: _finite(v) and 5.3e-155 <= float(v) <= 9.4e153,
                   "in [5.3e-155, 9.4e153]")
_seconds = _rule(numbers.Real, f"seconds in (0, {_MAX_TIMEOUT}]", lambda v: 0 < v <= _MAX_TIMEOUT)
_correlation = _rule(numbers.Real, "a number", lambda v: -1 <= v <= 1, "in [-1, 1]")
_float_integer = _rule(numbers.Integral, "an integer", _finite, "within float range")
_finite_number = _rule(numbers.Real, "a finite number", _finite)
_real = _rule(numbers.Real, "a real number")

# the types a JSON number decodes to; a bool, None or a string is none of them
_NUMBER_TYPES = frozenset((int, float))


def _vector(name: str, values, k: int, error=ValueError) -> tuple[float, ...]:
    """``values`` as a tuple of k floats, each a finite number by the scalar
    rule (a bool or a string is none), or ``error`` naming the argument."""
    try:
        entries = () if isinstance(values, (str, bytes)) else tuple(values)
        if len(entries) == k:
            return tuple(float(_finite_number(name, v)) for v in entries)
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be {k} finite numbers, got {values!r}")


def _ids(name: str, values, empty: bool = True) -> tuple:
    """``values`` as a tuple of record ids: any iterable but a string, which
    would be read one character at a time; ``empty=False`` also rejects an
    empty one. Else ValueError naming the argument."""
    try:
        if not isinstance(values, (str, bytes)):
            ids = tuple(values)
            if ids or empty:
                return ids
    except TypeError:  # not iterable
        pass
    some = "a" if empty else "a non-empty"
    raise ValueError(f"{name} must be {some} sequence of ids, got {values!r}")


def _series(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats: a flat sequence of any length whose
    entries are real numbers by the scalar rule (a bool, a string or a nested
    sequence is none), or ValueError naming the series. An integer beyond
    float range is NonFiniteValue; the caller judges other non-finite values."""
    try:
        if not isinstance(values, (str, bytes)):
            return tuple(float(_real(f"each entry of {name}", v)) for v in values)
    except TypeError:  # not iterable
        pass
    except OverflowError:
        raise errors.NonFiniteValue("series values must be finite") from None
    raise ValueError(f"{name} must be a flat sequence of real numbers, got {values!r}")


# public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "analysis": (
            "CorrelationReport", "CorrelationResult", "PairedSeries", "aggregate_r",
            "correlate", "correlation_report", "pearson_p", "pearson_r",
        ),
        "diversity": (
            "AxisStats", "DiversityImpactReport", "DiversityScore", "diversity_impact",
            "diversity_report",
        ),
        "embedset": ("EmbeddingSet", "load_set", "subset", "write_set"),
        "errors": (
            "CountMismatch", "DegenerateSeries", "DimensionMismatch", "DivsatError",
            "DuplicateId", "EmbedderError", "EmptyInput", "EmptySet", "EmptyVector",
            "InsufficientSamples", "InvalidRepetitions", "IoError", "JudgeError",
            "LabelMismatch", "LengthMismatch", "MalformedLine", "MissingVerdict",
            "NonFiniteValue", "ProtocolError", "ProviderError", "SizeMismatch",
            "SpawnError", "UnknownId", "UnknownVerdictId", "UnparseableLine",
            "UsageError",
        ),
        "filtergate": (
            "CaptionItem", "ConfusionMetrics", "FilterPrompt", "FilterVerdict",
            "apply_filter", "build_filter_prompts", "evaluate_filter", "external_judge",
            "load_captions", "load_truth", "load_verdicts", "parse_filter_response",
            "run_filter", "write_verdicts",
        ),
        "kernel": (
            "MEDIAN_HEURISTIC", "KernelConfig", "MmdEstimate", "gaussian_kernel",
            "median_heuristic", "mmd", "mmd_calculator",
        ),
        "saturation": (
            "BatchProvider", "Embedder", "SaturationConfig", "SaturationTrace",
            "StopReason", "TraceStep", "external_embedder", "external_provider",
            "run_saturation", "write_trace",
        ),
        "synth": (
            "GaussianSpec", "SyntheticSource", "gaussian_set", "stationary_provider",
            "token_vector",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_SUBMODULE, "errors"])


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

