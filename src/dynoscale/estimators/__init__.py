"""Finite-scale slope estimators for the limit quantities."""

from .slopes import (SlopeEstimate, fit, tail_regression, rank_corrected_fit,
                     staircase_envelope)
from .quantities import (entropy_at_scale, box_dimension_estimate,
                         metric_order_estimate, mdim_estimate,
                         mdim_mo_estimate, mean_box_dimension_estimate,
                         MeanBoxDimension, log_plus)
from .sweep import ScaleSweep, write_estimates_csv, format_float

__all__ = [
    "SlopeEstimate", "fit", "tail_regression", "rank_corrected_fit",
    "staircase_envelope", "entropy_at_scale", "box_dimension_estimate",
    "metric_order_estimate", "mdim_estimate", "mdim_mo_estimate",
    "mean_box_dimension_estimate", "MeanBoxDimension", "log_plus",
    "ScaleSweep", "write_estimates_csv", "format_float",
]
