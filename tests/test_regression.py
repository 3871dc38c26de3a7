from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_json_round_trip, json_values
from thinkctl.regression import FitRefusedError, RegressionFit, _t_abs_cdf, _t_critical, fit_linear_with_ci


def normal_equations_fit(points):
    """Independent oracle: solve the raw normal equations for (b0, b1)."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    n = len(points)
    design = np.array([[n, xs.sum()], [xs.sum(), (xs * xs).sum()]])
    rhs = np.array([ys.sum(), (xs * ys).sum()])
    intercept, slope = np.linalg.solve(design, rhs)
    return slope, intercept


def test_exact_collinear_points():
    fit = fit_linear_with_ci([(1, 1), (2, 2), (3, 3)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_se == pytest.approx(0.0, abs=1e-12)
    low, high = fit.band(2.0)
    assert low == high == pytest.approx(2.0, abs=1e-12)


def test_closed_form_three_point_fit():
    # hand-computed: x-mean 1, Sxy 1, Sxx 2 -> slope 1/2, intercept 1/6
    fit = fit_linear_with_ci([(0, 0), (1, 1), (2, 1)])
    assert fit.slope == pytest.approx(0.5, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_two_points_refused():
    with pytest.raises(FitRefusedError):
        fit_linear_with_ci([(0, 0), (1, 1)])


def test_constant_x_refused():
    with pytest.raises(FitRefusedError):
        fit_linear_with_ci([(2, 0), (2, 1), (2, 2)])


def test_matches_normal_equations_oracle_on_random_fixtures():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 10)
        points = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
        xs = {round(x, 6) for x, _ in points}
        if len(xs) < 2:
            continue
        fit = fit_linear_with_ci(points)
        slope, intercept = normal_equations_fit(points)
        assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)


def test_band_is_narrowest_at_mean_x():
    points = [(0, 1.0), (1, 2.2), (2, 2.9), (3, 4.5), (4, 4.9)]
    fit = fit_linear_with_ci(points)
    widths = []
    for x in np.linspace(-2, 6, 33):
        low, high = fit.band(float(x))
        widths.append((high - low, float(x)))
    best_width, best_x = min(widths)
    assert abs(best_x - fit.x_mean) <= 0.26  # grid resolution
    exact_low, exact_high = fit.band(fit.x_mean)
    assert exact_high - exact_low <= best_width + 1e-12


def test_band_uses_t_quantile():
    points = [(0, 0.1), (1, 1.2), (2, 1.9), (3, 3.2)]
    fit = fit_linear_with_ci(points)
    from scipy import stats

    assert fit.t_crit == pytest.approx(stats.t.ppf(0.975, 2))
    low, high = fit.band(1.5)
    se_mean = fit.residual_se * math.sqrt(1 / 4 + (1.5 - fit.x_mean) ** 2 / fit.sxx)
    assert high - low == pytest.approx(2 * fit.t_crit * se_mean)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=1000))
@example(1)
@example(2)
@example(1000)
def test_t_quantile_matches_scipy(df):
    from scipy import stats

    assert _t_critical(df) == pytest.approx(float(stats.t.ppf(0.975, df)), rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=1e6))
@example(0.0)
@example(1.0)
def test_t_abs_cdf_closed_forms(t):
    # df = 1 is the Cauchy distribution; df = 2 has an algebraic CDF
    assert _t_abs_cdf(t, 1) == pytest.approx(2 * math.atan(t) / math.pi, rel=1e-12)
    assert _t_abs_cdf(t, 2) == pytest.approx(t / math.sqrt(2 + t * t), rel=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)
above_zero = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    fit=st.builds(
        RegressionFit,
        slope=finite,
        intercept=finite,
        residual_se=st.floats(min_value=0, allow_infinity=False),
        n=st.integers(3, 10**9),
        x_mean=finite,
        sxx=above_zero,
        t_crit=above_zero,
    ),
    provenance=json_values,
)
@example(fit=fit_linear_with_ci([(0, 0.1), (1, 1.2), (2, 1.9), (3, 3.2)]), provenance={})
def test_fit_serialization_round_trip(fit, provenance):
    # a saved fit is the "fit" of a sweep JSON
    assert_json_round_trip(fit, lambda f: {"fit": f.to_dict()}, lambda doc: RegressionFit.from_dict(doc["fit"]), provenance)


def test_coverage_of_mean_response_band():
    """Per-point coverage of the 95% band across simulated replications.

    The nominal pointwise level is 95%; the documented acceptance floor is
    90% of (replication, grid point) checks over 1000 replications.
    """
    x = np.linspace(512, 8192, 8)
    truth = 40.0 + 0.002 * x
    hits = 0
    total = 0
    for rep in range(1000):
        rng = np.random.Generator(np.random.PCG64(rep))
        y = truth + rng.normal(0.0, 3.0, size=len(x))
        fit = fit_linear_with_ci(list(zip(x, y)))
        for xi, ti in zip(x, truth):
            low, high = fit.band(float(xi))
            hits += int(low <= ti <= high)
            total += 1
    assert hits / total >= 0.90
