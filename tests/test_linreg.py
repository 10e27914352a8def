"""Unit tests for the least-squares line fit behind the PPM fits."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.linreg import fit_line


class TestLinearRegression:
    def test_least_squares_on_noisy_data(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 200)
        y = 1.7 * x + 3.0 + rng.normal(0, 0.01, 200)
        slope, intercept = fit_line(x, y)
        assert slope == pytest.approx(1.7, abs=0.01)
        assert intercept == pytest.approx(3.0, abs=0.02)

    @given(
        slope=st.floats(-100, 100),
        intercept=st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_fit_line_recovers_any_line(self, slope, intercept):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        y = slope * x + intercept
        s, b = fit_line(x, y)
        assert s == pytest.approx(slope, abs=1e-6 + 1e-8 * abs(slope))
        assert b == pytest.approx(intercept, abs=1e-6 + 1e-8 * abs(intercept))

    def test_fit_line_two_points(self):
        s, b = fit_line([1.0, 2.0], [10.0, 20.0])
        assert s == pytest.approx(10.0)
        assert b == pytest.approx(0.0)
