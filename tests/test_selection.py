"""Unit tests for configuration selection (§5.3, §3.3)."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ppm import AmdahlPPM, PowerLawPPM
from repro.core.selection import (
    CANDIDATES,
    elbow_point,
    factorize_cores,
    interpolate_times,
    limited_slowdown,
)


def amdahl_times(s=40.0, p=600.0, ns=range(1, 49)):
    m = AmdahlPPM(s=s, p=p)
    return {n: m.time(n) for n in ns}


class TestInterpolation:
    def test_endpoints_preserved(self):
        t = interpolate_times({1: 100.0, 48: 10.0})
        assert t[1] == pytest.approx(100.0)
        assert t[48] == pytest.approx(10.0)

    def test_linear_between_grid_points(self):
        t = interpolate_times({1: 100.0, 3: 50.0, 48: 50.0})
        assert t[2] == pytest.approx(75.0)
        assert t[20] == pytest.approx(50.0)

    def test_full_range_covered(self):
        t = interpolate_times({1: 9.0, 48: 1.0})
        assert sorted(t) == list(range(1, 49))


class TestLimitedSlowdown:
    def test_h1_picks_smallest_min_achiever(self):
        times = {1: 100.0, 2: 50.0, 3: 40.0, 4: 40.0}
        assert limited_slowdown(times, 1.0) == 3

    def test_larger_h_picks_smaller_n(self):
        times = amdahl_times()
        sel = [limited_slowdown(times, h) for h in (1.0, 1.05, 1.2, 2.0)]
        assert sel == sorted(sel, reverse=True)
        assert sel[0] == 48  # Amdahl never saturates: H=1 → max n (§5.3)

    def test_h_below_one_rejected(self):
        with pytest.raises(ValueError):
            limited_slowdown({1: 1.0}, 0.9)

    def test_slowdown_bound_honoured(self):
        times = amdahl_times()
        t_min = min(times.values())
        for h in (1.05, 1.1, 1.5):
            n = limited_slowdown(times, h)
            assert times[n] <= h * t_min
            if n > 1:
                assert times[n - 1] > h * t_min  # smallest such n

    @given(
        s=st.floats(0.0, 1e4),
        p=st.floats(1e-3, 1e5),
        hs=st.lists(st.floats(1.0, 5.0), min_size=2, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_n_nonincreasing_in_h(self, s, p, hs):
        times = amdahl_times(s, p)
        sel = [limited_slowdown(times, h) for h in sorted(hs)]
        assert sel == sorted(sel, reverse=True)

    def test_ae_al_always_selects_48_at_h1(self):
        """§5.3: 'AE_AL always select the maximum value of n (=48)'."""
        for s, p in ((10, 100), (50, 900), (0, 5)):
            assert limited_slowdown(amdahl_times(s, p), 1.0) == 48


class TestElbowPoint:
    @given(s=st.floats(1e-3, 1e5), p=st.floats(1e-3, 1e5))
    @example(s=0.0, p=1.0)
    @example(s=40.0, p=600.0)
    @example(s=100.0, p=50.0)
    @example(s=3.0, p=1e4)
    @settings(max_examples=300, deadline=None)
    def test_ae_al_elbow_is_7_for_any_parameters(self, s, p):
        """Fig 11: AE_AL always selected L=7 — analytic property.

        For t = s + p/n on the integer grid [1, 48], the normalized slope
        is 48/(n(n-1)) independent of s and p, crossing 1 between 7 and 8.
        """
        assert elbow_point(amdahl_times(s, p)) == 7

    def test_power_law_elbow_moves_with_exponent(self):
        shallow = PowerLawPPM(a=-0.3, b=100.0, m=0.0)
        steep = PowerLawPPM(a=-1.2, b=100.0, m=0.0)
        l_shallow = elbow_point({n: shallow.time(n) for n in range(1, 49)})
        l_steep = elbow_point({n: steep.time(n) for n in range(1, 49)})
        assert l_steep <= l_shallow

    def test_constant_curve(self):
        assert elbow_point({n: 5.0 for n in range(1, 49)}) == 1

    def test_two_points(self):
        assert elbow_point({1: 10.0, 48: 1.0}) == 1

    def test_elbow_in_range(self):
        times = amdahl_times(5, 300)
        l = elbow_point(times)
        assert 1 <= l <= 48


class TestFactorizeCores:
    def test_paper_default_config(self):
        # k=100 executors*cores on 8-core/64GB nodes with 28GB executors:
        # only e_c=4 packs 2 executors under the memory budget with no
        # stranded cores
        n, e_c = factorize_cores(100)
        assert e_c == 4
        assert n * e_c == 100

    def test_memory_constraint_excludes_small_ec(self):
        # only e_c=1 divides 7, and 8 executors of 28 GB would need 224 GB
        assert factorize_cores(7) is None

    def test_divisibility_required(self):
        # e_c=4 strands no core but does not divide 6; e_c=6 does
        assert factorize_cores(6) == (1, 6)

    def test_prefers_smaller_ec_on_tie(self):
        # both 4 and 8 give zero stranded cores; 4 allows finer granularity
        assert factorize_cores(16) == (4, 4)

    def test_stranded_core_minimisation(self):
        # e_c=6 strands 2 cores per 8-core node; e_c=4 strands none
        assert factorize_cores(12) == (3, 4)

    def test_rule_factorization_of_every_candidate(self):
        """The rule asks for k = 4·n̂ cores: always n̂ executors of 4 cores."""
        for n in CANDIDATES:
            assert factorize_cores(4 * n) == (n, 4)
