"""The estimator base class (scikit-learn parameter protocol) and ``clone``.

Only the parameter protocol is shared. Each estimator defines the
``predict``/``decision_function`` calls its callers use; there are no
``score`` mixins.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict


class BaseEstimator:
    """Base class providing ``get_params``/``set_params`` and ``repr``.

    Subclasses must accept all hyperparameters as explicit keyword arguments
    in ``__init__`` and store them verbatim on ``self`` (no validation in the
    constructor — the scikit-learn convention), so estimators can be cloned.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> Dict[str, Any]:
        """Return hyperparameters as a dict (constructor arguments only)."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Set hyperparameters; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"Invalid parameter {key!r} for {type(self).__name__}. "
                    f"Valid parameters: {sorted(valid)}."
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of ``estimator`` with identical parameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params().items()}
    return type(estimator)(**params)
