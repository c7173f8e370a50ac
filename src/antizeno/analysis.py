"""Least-squares fits for the quadratic and exponential survival laws.

Exponential fits run as linear least squares in log space: linearity needs
no iterative optimizer, and R^2 is then naturally reported in log space.
Fits are unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericalError

__all__ = ["FitResult", "fit_quadratic_origin", "fit_exponential"]

# Survival values below this (exact underflow zeros included) are extinct:
# exponential fits drop them (log-space blowup) and report the count.
EXP_FIT_FLOOR = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Fit coefficients, coefficient of determination and the largest
    absolute residual (in fit space: log space for exponentials)."""

    coefficients: Mapping[str, float]
    r_squared: float
    residual_max: float
    n_dropped: int = 0

    def __post_init__(self):
        for name, value in self.coefficients.items():
            if not np.isfinite(value):
                raise ValueError(f"non-finite fitted coefficient {name}={value!r}")
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared outside [0, 1]: {self.r_squared!r}")
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        object.__setattr__(self, "r_squared", float(min(max(self.r_squared, 0.0), 1.0)))


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        # constant data: perfect fit counts as 1, anything else as 0
        return 1.0 if ss_res <= 1e-24 else 0.0
    # a fit worse than the mean clamps to 0 so r_squared stays in [0, 1]
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def fit_quadratic_origin(x, y) -> FitResult:
    """Least-squares y = lam * x**2 (through the origin).

    Closed form lam = sum(x^2 y) / sum(x^4). Non-finite or all-zero x, or
    non-finite y, is a ``ValueError``; nonzero x whose fourth powers all
    underflow, or a closed form that overflows, is a ``NumericalError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if not np.all(np.isfinite(x) & np.isfinite(y)):
        raise ValueError("quadratic fit requires finite x and y")
    with np.errstate(over="raise", invalid="raise"):
        try:
            x4 = float(np.sum(x**4))
            if x4 == 0.0 and np.any(x != 0.0):
                raise NumericalError("every x**4 underflows to 0; "
                                     "quadratic coefficient is undetermined")
            if x4 == 0.0:
                raise ValueError("all x are zero; quadratic coefficient is undetermined")
            lam = float(np.sum(x**2 * y) / x4)
            predicted = lam * x**2
            r_squared, residual_max = _r_squared(y, predicted), float(np.max(np.abs(y - predicted)))
        except FloatingPointError as exc:
            raise NumericalError(f"quadratic fit breaks down in closed form: {exc}") from exc
    return FitResult({"lam": lam}, r_squared, residual_max)


def fit_exponential(x, y) -> FitResult:
    """Least-squares y = exp(intercept - rate * x), fitted linearly on log y.

    One extinction rule: y below ``EXP_FIT_FLOOR``, exact zeros included,
    is dropped and counted in ``n_dropped``. Non-finite x, negative or
    non-finite y, or fewer than 2 points given, is a ``ValueError``; fewer
    than 2 points left above the floor, or a least-squares solve that
    overflows or is singular, is a ``NumericalError``. R^2 and residual_max
    are computed in log space.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError(f"exponential fit needs at least 2 points, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("exponential fit requires finite x")
    if not np.all(np.isfinite(y) & (y >= 0)):
        raise ValueError("exponential fit requires finite, non-negative y")
    keep = y >= EXP_FIT_FLOOR
    n_dropped = int(np.sum(~keep))
    x, y = x[keep], y[keep]
    if x.size < 2 or x.min() == x.max():
        raise NumericalError(
            f"fewer than 2 distinct points remain above the extinction floor {EXP_FIT_FLOOR:g} "
            f"({n_dropped} dropped)"
        )
    log_y = np.log(y)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            (slope, intercept), _, rank, _, _ = np.polyfit(x, log_y, 1, full=True)
            if rank < 2:  # a singular system, on which polyfit only warns
                raise NumericalError(f"exponential fit breaks down in least squares: rank {rank}")
            predicted = slope * x + intercept
        except FloatingPointError as exc:
            raise NumericalError(f"exponential fit breaks down in least squares: {exc}") from exc
    return FitResult(
        {"rate": float(-slope), "intercept": float(intercept)},
        _r_squared(log_y, predicted),
        float(np.max(np.abs(log_y - predicted))),
        n_dropped=n_dropped,
    )
