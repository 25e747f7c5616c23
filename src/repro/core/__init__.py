"""NURD core: Algorithm 1, propensity scoring and calibration."""

from repro.core.calibration import compute_rho, compute_delta, clip_weight
from repro.core.propensity import PropensityScorer
from repro.core.nurd import NurdPredictor, NurdNcPredictor

__all__ = [
    "compute_rho",
    "compute_delta",
    "clip_weight",
    "PropensityScorer",
    "NurdPredictor",
    "NurdNcPredictor",
]
