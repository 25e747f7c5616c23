"""NURD: Negative-Unlabeled learning for online datacenter straggler prediction.

Reproduction of Ding et al., MLSys 2022 (arXiv:2203.08339).

The package is organised as a set of substrates plus the paper's core
contribution:

- :mod:`repro.learn` — from-scratch ML substrate (trees, gradient boosting,
  logistic regression, SVMs, neighbors, clustering, Table-3 metrics).
- :mod:`repro.outliers` — the fourteen outlier detectors evaluated in the
  paper (ABOD, CBLOF, HBOS, IFOREST, KNN, LOF, MCD, OCSVM, PCA, SOS, LSCP,
  COF, SOD, XGBOD).
- :mod:`repro.pu` — positive-unlabeled learning baselines (Elkan–Noto,
  bagging PU).
- :mod:`repro.censored` — censored and survival regression (Tobit, Grabit,
  CoxPH).
- :mod:`repro.traces` — synthetic Google/Alibaba-style cluster trace
  generators and trace I/O.
- :mod:`repro.sim` — the online replay simulator, cluster model and the
  closed-loop mitigation simulator, whose kill-restart policy runs the
  paper's Algorithms 2 and 3.
- :mod:`repro.core` — NURD itself (Algorithm 1), propensity scoring,
  calibration and the NURD-NC ablation.
- :mod:`repro.eval` — the evaluation harness that regenerates every table
  and figure of the paper.
"""

from repro.core.nurd import NurdPredictor, NurdNcPredictor
from repro.traces.google import GoogleTraceGenerator
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.sim.replay import ReplaySimulator

__version__ = "1.0.0"

__all__ = [
    "NurdPredictor",
    "NurdNcPredictor",
    "GoogleTraceGenerator",
    "AlibabaTraceGenerator",
    "ReplaySimulator",
    "__version__",
]
