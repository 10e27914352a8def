"""Unit tests for the PPM families and fitting (§3.1, §3.4)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ppm as ppm_mod
from repro.core.ppm import (
    AmdahlPPM,
    PowerLawPPM,
    error_metric,
    fit_amdahl,
    fit_power_law,
)

NS = [1, 3, 8, 16, 32, 48]


class TestPowerLaw:
    def test_recovers_known_parameters(self):
        truth = PowerLawPPM(a=-0.7, b=400.0, m=30.0)
        fitted = fit_power_law(NS, [truth.time(n) for n in NS])
        for n in NS:
            assert fitted.time(n) == pytest.approx(truth.time(n), rel=0.05)

    def test_m_is_min_observed(self):
        ts = [100.0, 60, 40, 35, 33, 33]
        fitted = fit_power_law(NS, ts)
        assert fitted.m == pytest.approx(33.0)

    def test_saturation_region_flat(self):
        fitted = fit_power_law(NS, [100.0, 60, 40, 35, 33, 33])
        assert fitted.time(48) == fitted.time(40) == fitted.m

    def test_monotone_nonincreasing(self):
        fitted = fit_power_law(NS, [100.0, 55, 42, 36, 34, 33])
        ts = list(fitted.times(range(1, 49)).values())
        assert np.all(np.diff(ts) <= 1e-9)

    def test_positive_slope_clamped(self):
        # pathological increasing data must still give a monotone model
        fitted = fit_power_law(NS, [10.0, 20, 30, 40, 50, 60])
        assert fitted.a <= 0.0

    def test_constant_curve(self):
        fitted = fit_power_law(NS, [50.0] * len(NS))
        assert fitted.time(1) == pytest.approx(50.0)
        assert fitted.time(48) == pytest.approx(50.0)

    def test_from_params_clamps(self):
        m = PowerLawPPM.from_params([0.5, -3.0, -1.0])
        assert m.a <= 0 and m.b > 0 and m.m > 0

    def test_param_vector_roundtrip(self):
        m = PowerLawPPM(a=-0.5, b=100.0, m=10.0)
        m2 = PowerLawPPM.from_params(m.params())
        assert m2.time(7) == pytest.approx(m.time(7))

    @given(
        a=st.floats(-1.5, -0.05),
        b=st.floats(50, 5000),
    )
    @settings(max_examples=30, deadline=None)
    def test_pure_power_law_fit_is_exact(self, a, b):
        truth = PowerLawPPM(a=a, b=b, m=0.0)
        ts = [truth.time(n) for n in NS]
        fitted = fit_power_law(NS, ts)
        # m becomes min(ts); below saturation the power fit must match
        for n in (1, 3, 8):
            assert fitted.time(n) == pytest.approx(truth.time(n), rel=0.02)


class TestAmdahl:
    def test_recovers_known_parameters(self):
        truth = AmdahlPPM(s=40.0, p=600.0)
        fitted = fit_amdahl(NS, [truth.time(n) for n in NS])
        assert fitted.s == pytest.approx(40.0, rel=1e-6)
        assert fitted.p == pytest.approx(600.0, rel=1e-6)

    def test_monotone_nonincreasing(self):
        fitted = fit_amdahl(NS, [500.0, 200, 90, 60, 50, 45])
        ts = list(fitted.times(range(1, 49)).values())
        assert np.all(np.diff(ts) <= 1e-9)

    def test_no_saturation_term(self):
        """AE_AL keeps decreasing — the §5.3 reason it always selects n=48."""
        fitted = fit_amdahl(NS, [500.0, 200, 90, 60, 50, 45])
        assert fitted.time(48) < fitted.time(47)

    def test_negative_params_clamped(self):
        m = AmdahlPPM.from_params([-5.0, -10.0])
        assert m.s >= 0 and m.p >= 0

    def test_constant_curve_gives_zero_p(self):
        fitted = fit_amdahl(NS, [70.0] * len(NS))
        assert fitted.p == pytest.approx(0.0, abs=1e-9)
        assert fitted.s == pytest.approx(70.0)


class TestFamilyRegistry:
    @pytest.mark.parametrize("family", ["AE_PL", "AE_AL"])
    def test_fit_dispatch(self, family):
        m = ppm_mod.fit(family, NS, [300.0, 140, 70, 50, 42, 40])
        assert m.name == family
        assert m.time(1) > m.time(48)

    @pytest.mark.parametrize("family,nparams", [("AE_PL", 3), ("AE_AL", 2)])
    def test_param_counts(self, family, nparams):
        m = ppm_mod.fit(family, NS, [300.0, 140, 70, 50, 42, 40])
        assert len(m.params()) == nparams
        m2 = ppm_mod.from_params(family, m.params())
        assert m2.time(16) == pytest.approx(m.time(16))

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            ppm_mod.fit("AE_XX", NS, [1.0] * 6)


class TestErrorMetric:
    def test_perfect_prediction_zero(self):
        t = {"a": 10.0, "b": 20.0}
        assert error_metric(t, t) == 0.0

    def test_eq6_formula(self):
        actual = {"a": 100.0, "b": 100.0}
        pred = {"a": 110.0, "b": 80.0}
        # (|10| + |20|) / 200 = 0.15
        assert error_metric(actual, pred) == pytest.approx(0.15)

    def test_only_common_queries_counted(self):
        actual = {"a": 100.0, "b": 100.0}
        pred = {"a": 100.0, "c": 1.0}
        assert error_metric(actual, pred) == 0.0
