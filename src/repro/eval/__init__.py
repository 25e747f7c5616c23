"""Evaluation harness reproducing every table and figure of the paper."""

from repro.eval.baselines import build_predictor, METHOD_NAMES, METHOD_GROUPS
from repro.eval.harness import (
    EvaluationConfig,
    MethodResult,
    evaluate_method,
    evaluate_all,
    streaming_f1_curve,
    jct_reduction_table,
)
from repro.eval.reporting import format_table3, format_series

__all__ = [
    "build_predictor",
    "METHOD_NAMES",
    "METHOD_GROUPS",
    "EvaluationConfig",
    "MethodResult",
    "evaluate_method",
    "evaluate_all",
    "streaming_f1_curve",
    "jct_reduction_table",
    "format_table3",
    "format_series",
]
