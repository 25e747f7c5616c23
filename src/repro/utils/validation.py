"""Input validation helpers shared by every estimator in the package.

These mirror the small slice of scikit-learn's ``utils.validation`` that the
rest of the code relies on, so estimators get consistent error messages for
malformed input without depending on scikit-learn itself.
"""

from __future__ import annotations

import numbers
from typing import Optional, Tuple

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict``-like methods are called before ``fit``."""


def check_array(
    X,
    *,
    ensure_2d: bool = True,
    allow_empty: bool = False,
    dtype=np.float64,
    name: str = "X",
) -> np.ndarray:
    """Validate an array-like and return it as a contiguous float ndarray.

    Parameters
    ----------
    X : array-like
        Input data.
    ensure_2d : bool
        If True, require exactly two dimensions; 1-d input raises.
    allow_empty : bool
        If False, zero-sample input raises ``ValueError``.
    dtype : numpy dtype
        Target dtype of the returned array.
    name : str
        Name used in error messages.

    Returns
    -------
    ndarray
        Validated, C-contiguous copy (or view) of the input.
    """
    arr = np.asarray(X, dtype=dtype)
    if ensure_2d:
        if arr.ndim == 1:
            raise ValueError(
                f"{name} must be 2-dimensional; got 1-d array of shape "
                f"{arr.shape}. Reshape with .reshape(-1, 1) if it has a "
                "single feature."
            )
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-dimensional; got {arr.ndim}-d.")
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError(f"{name} has 0 samples.")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values.")
    return np.ascontiguousarray(arr)


def check_X_y(
    X,
    y,
    *,
    y_numeric: bool = True,
    allow_empty: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and target vector of matching length."""
    X = check_array(X, allow_empty=allow_empty)
    y = np.asarray(y, dtype=np.float64 if y_numeric else None)
    if y.ndim != 1:
        y = y.ravel()
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} vs {y.shape[0]}."
        )
    if y_numeric and not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinite values.")
    return X, y


def check_n_features(X: np.ndarray, n_features: int) -> None:
    """Raise a ``ValueError`` unless ``X`` has the ``n_features`` columns
    its estimator was fitted with."""
    if X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features; the estimator was fitted with "
            f"{n_features}."
        )


def check_positive_int(value, name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an
    integer >= 1 (iteration, component and neighbor counts)."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1; got {value!r}.")


def check_bool(value, name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a
    ``bool`` or ``np.bool_`` (a switch, where any truthy value would pass)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool; got {value!r}.")


def check_positive_finite(value, name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a finite
    number > 0 (NaN fails both comparisons)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0; got {value!r}.")


def check_non_negative_finite(value, name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a finite
    number >= 0 (NaN fails both comparisons)."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0; got {value!r}.")


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts None (fresh entropy), integers >= 0, legacy ``RandomState`` and
    modern ``Generator`` instances; anything else (NaN, 2.5, -1) raises a
    ``ValueError`` naming ``random_state``.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, numbers.Integral) and seed >= 0:
        return np.random.default_rng(int(seed))
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.RandomState):
        # Bridge legacy RandomState into the Generator API.
        return np.random.default_rng(seed.randint(0, 2**31 - 1))
    raise ValueError(
        f"random_state must be None, an integer >= 0 or a Generator; got {seed!r}."
    )


def check_is_fitted(estimator, attributes: Optional[list] = None) -> None:
    """Raise :class:`NotFittedError` unless the estimator has been fitted.

    An estimator counts as fitted when at least one attribute ending in an
    underscore is set (scikit-learn convention), or when all the explicitly
    listed ``attributes`` are present.
    """
    if attributes is not None:
        missing = [a for a in attributes if not hasattr(estimator, a)]
        if missing:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted; missing "
                f"attributes {missing}. Call fit() first."
            )
        return
    fitted = [v for v in vars(estimator) if v.endswith("_") and not v.startswith("__")]
    if not fitted:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted. Call fit() first."
        )
