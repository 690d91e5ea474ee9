from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiosched.bounds import coloring_threshold, latency_bound, uss_threshold
from radiosched.errors import ParameterError


class TestThresholds:
    def test_selector_form(self):
        assert uss_threshold(3, eps=Fraction(1, 2)) == Fraction(1, 8)
        assert uss_threshold(0, eps=Fraction(1, 4)) == Fraction(1, 4)

    def test_generic_form_value(self):
        # 1 / (4 * (delta+1) * log_{delta+1} m); with m = (delta+1)^2 the
        # logarithm is exactly 2
        got = uss_threshold(3, form="poly", m=16)
        assert got == pytest.approx(Fraction(1, 32))

    def test_generic_form_shrinks_with_m(self):
        vals = [uss_threshold(3, form="poly", m=m) for m in (4, 16, 256, 4096)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_floor_form_ratio(self):
        # coloring threshold over the 1/e-strength threshold is exactly
        # e * (delta + 1) / chi
        for chi, delta in [(2, 1), (4, 3), (12, 11)]:
            ratio = coloring_threshold(chi) / uss_threshold(delta, form="random")
            assert abs(float(ratio) - math.e) < 1e-12

    def test_form_errors(self):
        with pytest.raises(ParameterError, match="eps"):
            uss_threshold(3)
        with pytest.raises(ParameterError, match="m >= 2"):
            uss_threshold(3, form="poly")
        with pytest.raises(ParameterError, match="unknown form"):
            uss_threshold(3, eps=Fraction(1, 2), form="cubic")
        with pytest.raises(ParameterError, match="color"):
            coloring_threshold(0)


class TestBacklogBounds:
    def test_frozen_example(self):
        lb = latency_bound(Fraction(1, 8), Fraction(1, 4), 4, 2, 2)
        assert lb.active_classes == Fraction(10)
        assert lb.delivery_windows == Fraction(9)

    def test_path_parameters(self):
        args = (Fraction(3, 16), Fraction(1, 4), 4, 2, 2)
        lb = latency_bound(*args)
        assert lb.active_classes == Fraction(36)
        assert lb.delivery_windows == Fraction(35)
        assert lb.rounds == Fraction(140)

    def test_burst_one_collapses(self):
        # with b = 1 only the geometric term survives
        got = latency_bound(Fraction(1, 4), Fraction(1, 2), 3, 1, 2)
        assert got.active_classes == Fraction(4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 16), max_value=Fraction(7, 8), max_denominator=16),
        st.fractions(min_value=Fraction(1, 16), max_value=1, max_denominator=16),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_fixed_point(self, rho, rho_prime, window, b, nesting):
        if not rho < rho_prime:
            rho, rho_prime = rho_prime, rho
        if rho == rho_prime or rho_prime > 1:
            return
        lb = latency_bound(rho, rho_prime, window, b, nesting)
        assert lb.delivery_windows == lb.active_classes - 1

    def test_rate_validation(self):
        with pytest.raises(ParameterError, match="rho"):
            latency_bound(Fraction(1, 2), Fraction(1, 2), 4, 2, 2)
        with pytest.raises(ParameterError, match="rho"):
            latency_bound(Fraction(1, 2), Fraction(1, 4), 4, 2, 2)
        with pytest.raises(ParameterError, match="burst"):
            latency_bound(Fraction(1, 8), Fraction(1, 4), 4, 0, 2)
        with pytest.raises(ParameterError, match="nesting"):
            latency_bound(Fraction(1, 8), Fraction(1, 4), 4, 2, 0)
        with pytest.raises(ParameterError, match="window"):
            latency_bound(Fraction(1, 8), Fraction(1, 4), 0, 2, 2)
