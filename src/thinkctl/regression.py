"""Ordinary least squares with a t-based 95% mean-response confidence band.

The band's critical value is the Student-t quantile at integer degrees of
freedom ``n - 2``, found by bisecting the finite series for the t CDF
(Abramowitz & Stegun 26.7.3 and 26.7.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from sys import float_info
from typing import Sequence

from .jsonl import json_shape

CONFIDENCE_LEVEL = 0.95


def _t_abs_cdf(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer ``df`` >= 1 and t >= 0.

    With theta = atan(t / sqrt(df)), odd df gives
    (2/pi) (theta + sin cos (1 + 2/3 cos^2 + (2*4)/(3*5) cos^4 + ...)) and
    even df gives sin (1 + 1/2 cos^2 + (1*3)/(2*4) cos^4 + ...); each
    series stops at the power cos^(df-2) or cos^(df-3). The powers of
    cos^2 come from exp of a log1p: a rounded cos^2 raised to the power j
    would carry j times its rounding error.
    """
    r2 = df + t * t
    sin = t / math.sqrt(r2)
    log_cos2 = -math.log1p(t * t / df)
    odd = df % 2
    terms = [1.0]
    coef = 1.0
    for j, k in enumerate(range(1 + odd, df - 2, 2), 1):
        coef *= k / (k + 1)
        terms.append(coef * math.exp(j * log_cos2))
    if not odd:
        return sin * math.fsum(terms)
    series = sin * math.sqrt(df / r2) * math.fsum(terms) if df > 1 else 0.0
    return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + series)


def _t_critical(df: int) -> float:
    """The two-sided Student-t critical value for integer ``df`` >= 1, the
    t with P(|T| <= t) = ``CONFIDENCE_LEVEL``: bisection over doubles on
    the series CDF, down to two adjacent doubles; returns the upper one."""
    lo, hi = 0.0, 1.0
    while _t_abs_cdf(hi, df) < CONFIDENCE_LEVEL:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _t_abs_cdf(mid, df) < CONFIDENCE_LEVEL:
            lo = mid
        else:
            hi = mid


def require_finite(what: str, record: dict, ints: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless each value of ``record`` is a finite number
    that is not a bool, and an int where its name is in ``ints``. An int no
    float holds is not finite, since plotting converts it to one."""
    for name, value in record.items():
        kind = int if name in ints else float
        if isinstance(value, bool) or not isinstance(value, (kind, int)) or not -float_info.max <= value <= float_info.max:
            raise ValueError(f"{what} field {name!r} must be a finite {kind.__name__}, got {value!r}")


class FitRefusedError(ValueError):
    """Raised when a fit is impossible: fewer than 3 points or constant x."""


@dataclass(frozen=True)
class RegressionFit:
    """OLS line plus the parameters of its mean-response confidence band.

    The band half-width at x is ``t_crit * residual_se *
    sqrt(1/n + (x - x_mean)^2 / sxx)``; it is narrowest at the mean of x
    and collapses to zero width for exactly collinear points.
    """

    slope: float
    intercept: float
    residual_se: float
    n: int
    x_mean: float
    sxx: float
    t_crit: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x

    def band(self, x: float) -> tuple[float, float]:
        half = self.t_crit * self.residual_se * math.sqrt(1.0 / self.n + (x - self.x_mean) ** 2 / self.sxx)
        center = self.predict(x)
        return center - half, center + half

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionFit":
        """A saved fit, held to what ``fit_linear_with_ci`` builds: finite
        numbers, an integer ``n`` of at least 3, ``sxx`` and ``t_crit``
        above 0 and ``residual_se`` not below it."""
        fit = cls(**json_shape("fit", data, dict, [f.name for f in fields(cls)]))
        require_finite("fit", vars(fit), ints=("n",))
        if fit.n < 3 or fit.sxx <= 0 or fit.residual_se < 0 or fit.t_crit <= 0:
            raise ValueError(f"fit needs n >= 3, sxx > 0, residual_se >= 0 and t_crit > 0, got {data}")
        return fit


def fit_linear_with_ci(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Fit y on x by ordinary least squares.

    Uses the centered formulation (slope = Sxy/Sxx); the test-suite oracle
    solves the raw normal equations instead, keeping the two routes
    independent. Requires at least 3 points and nonconstant x.
    """
    n = len(points)
    if n < 3:
        raise FitRefusedError(f"need at least 3 points, got {n}")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise FitRefusedError("x values are constant; no line can be fit")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ssr = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    df = n - 2
    residual_se = math.sqrt(max(ssr, 0.0) / df)
    t_crit = _t_critical(df)
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        residual_se=residual_se,
        n=n,
        x_mean=x_mean,
        sxx=sxx,
        t_crit=t_crit,
    )
