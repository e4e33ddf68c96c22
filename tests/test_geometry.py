"""Arc profile: frozen closed-form values, validity thresholds, and the
evenness/odd-slope/sagitta properties."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcplate.errors import (
    ContactViolationError,
    NonPositiveGapError,
    PfaViolationError,
)
from arcplate.geometry import PFA_FAIL_RATIO, PFA_WARN_RATIO, ArcGeometry

from arc_profile import OutOfSpanError, separation, slope
from oracles import mpmath_sagitta
from quadrature import DEFAULT_SPEC, GAUSS_CROSS_CHECK, QuadratureSpec, integrate

R = 100e-6  # m
Y_MAX = 3e-6  # m


def arc(gap: float, radius: float = R, half_span: float = Y_MAX) -> ArcGeometry:
    return ArcGeometry(radius=radius, half_span=half_span, gap=gap)


def profile_length(geom: ArcGeometry, spec: QuadratureSpec) -> float:
    """Integral of sqrt(1 + slope^2) over the span, by the reference engine."""
    return integrate(
        lambda y: math.sqrt(1.0 + slope(geom, y) ** 2), -geom.half_span, geom.half_span, spec
    ).value


class TestConstruction:
    @pytest.mark.parametrize("radius", [0.0, -1e-6, math.inf, math.nan])
    def test_bad_radius(self, radius):
        with pytest.raises(ValueError):
            ArcGeometry(radius=radius, half_span=1e-6, gap=1e-7)

    @pytest.mark.parametrize("half_span", [0.0, -1e-6, 100e-6, 200e-6])
    def test_bad_half_span(self, half_span):
        with pytest.raises(ValueError):
            ArcGeometry(radius=R, half_span=half_span, gap=1e-7)

    @pytest.mark.parametrize("gap", [0.0, -1e-7])
    def test_nonpositive_gap(self, gap):
        with pytest.raises(NonPositiveGapError):
            arc(gap)

    def test_gap_under_sagitta_touches(self):
        # sagitta is about 45.01 nm here: a 40 nm center gap means contact
        with pytest.raises(ContactViolationError):
            arc(40e-9)

    def test_gap_equal_to_sagitta_touches(self):
        # the exact sagitta lies between these two doubles: the lower touches,
        # and the upper, which the float formula Y^2 / (R + sqrt(R^2 - Y^2))
        # gives as the sagitta, clears the plate by a fraction of an ulp
        below, above = 4.5010129558814504e-08, 4.501012955881451e-08
        assert above == math.nextafter(below, 1.0)
        with mp.workprec(256):
            assert below < mpmath_sagitta(R, Y_MAX) < above
        with pytest.raises(ContactViolationError):
            arc(below)
        assert arc(above).validate_pfa().contact_margin > 0.0

    def test_gap_ratio_one_is_hard_pfa_violation(self):
        with pytest.raises(PfaViolationError):
            arc(100e-6)

    @pytest.mark.parametrize("radius,half_span", [(1e308, 5e307), (1e200, 5e169)])
    def test_sagitta_out_of_double_range(self, radius, half_span):
        # R**2 and y_max**2 both overflow, but the sagitta, 1.34e307 m and
        # 1.25e139 m, is a double, and the arc touches the plate
        with pytest.raises(ContactViolationError) as info:
            ArcGeometry(radius=radius, half_span=half_span, gap=1e-6)
        assert str(info.value) == (
            f"gap 1e-06 m does not clear the sagitta "
            f"{float(mpmath_sagitta(radius, half_span)):.6g} m; the arc would touch the plate"
        )

    @pytest.mark.parametrize(
        "radius,half_span,gap",
        [(1e200, 1e150, 1e-6),  # R**2 overflows: the float formula reads 0, not 5e99 m
         (1e-200, 5e-251, 1e-302)],  # y_max**2 underflows: 0, not 1.25e-301 m
    )
    def test_contact_where_the_float_sagitta_reads_zero(self, radius, half_span, gap):
        with pytest.raises(ContactViolationError, match="does not clear the sagitta"):
            ArcGeometry(radius=radius, half_span=half_span, gap=gap)

    def test_zero_sagitta_is_accepted(self):
        # 5e-341 m, correctly rounded to 0, so the least double clears it
        geom = arc(5e-324, radius=1.0, half_span=1e-170)
        assert geom._sagitta_and_t()[:2] == (0.0, 0.0)
        assert geom.validate_pfa().contact_margin == 5e-324

    def test_large_but_legal_ratio_constructs(self):
        # 0.6 is reportable as fail but must remain constructible
        assert arc(60e-6).validate_pfa().status == "fail"


class TestSeparation:
    def test_center_equals_gap(self):
        assert separation(arc(0.1e-6), 0.0) == 0.1e-6

    def test_edge_value_small_gap(self):
        # g - (R - sqrt(R^2 - y^2)) at y = y_max, exact arithmetic
        assert separation(arc(0.1e-6), 3e-6) == pytest.approx(
            5.498987044118579e-08, rel=1e-12
        )

    def test_edge_value_large_gap(self):
        assert separation(arc(1e-6), 3e-6) == pytest.approx(
            9.549898704411806e-07, rel=1e-12
        )

    def test_even_in_y(self):
        geom = arc(0.5e-6)
        for y in np.linspace(0.0, Y_MAX, 17):
            assert separation(geom, y) == separation(geom, -y)

    def test_strictly_decreasing_in_abs_y(self):
        geom = arc(0.5e-6)
        ys = np.linspace(0.0, Y_MAX, 200)
        seps = [separation(geom, y) for y in ys]
        assert all(a > b for a, b in zip(seps, seps[1:]))

    def test_out_of_span(self):
        with pytest.raises(OutOfSpanError):
            separation(arc(0.1e-6), 3.0001e-6)
        with pytest.raises(OutOfSpanError):
            separation(arc(0.1e-6), -3.0001e-6)


class TestSlope:
    def test_zero_at_center(self):
        assert slope(arc(0.1e-6), 0.0) == 0.0

    def test_edge_value(self):
        # -3 / sqrt(1e4 - 9) in micrometer units
        assert slope(arc(0.1e-6), 3e-6) == pytest.approx(-0.0300135091193397, rel=1e-12)

    def test_odd_in_y(self):
        geom = arc(0.1e-6)
        assert slope(geom, -3e-6) == -slope(geom, 3e-6)
        for y in np.linspace(0.1e-6, Y_MAX, 9):
            assert slope(geom, -y) == -slope(geom, y)

    def test_out_of_span(self):
        with pytest.raises(OutOfSpanError):
            slope(arc(0.1e-6), 4e-6)

    def test_matches_centered_finite_difference(self):
        # interior points, step 1e-10 m, within 1e-6 relative
        geom = arc(0.5e-6)
        h = 1e-10
        for y in (0.5e-6, 1.5e-6, 2.5e-6, 2.9e-6, -1.0e-6):
            fd = (separation(geom, y + h) - separation(geom, y - h)) / (2.0 * h)
            assert fd == pytest.approx(slope(geom, y), rel=1e-6)


class TestSagittaAndArcLength:
    def test_sagitta_value(self):
        assert arc(0.1e-6).sagitta == pytest.approx(4.501012955881451e-08, rel=1e-12)

    def test_sagitta_is_center_minus_edge_separation(self):
        geom = arc(0.5e-6)
        drop = separation(geom, 0.0) - separation(geom, Y_MAX)
        assert drop == pytest.approx(geom.sagitta, rel=1e-9)
        assert geom.sagitta > 0.0

    def test_parabolic_limit(self):
        # R >> y_max: sagitta -> y_max^2 / (2 R) within 1e-3 relative
        geom = arc(1e-6, radius=1.0, half_span=3e-6)
        assert geom.sagitta == pytest.approx(Y_MAX**2 / 2.0, rel=1e-3)
        # and still close (2.3e-4) for the default curvature
        assert arc(0.1e-6).sagitta == pytest.approx(Y_MAX**2 / (2.0 * R), rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(log_radius=st.floats(-300.0, 300.0),
           ratio=st.one_of(st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0**e),
                           st.floats(-16.0, math.log10(0.5)).map(lambda e: 1.0 - 10.0**e)))
    @example(log_radius=200.0, ratio=5e-51)  # R*R overflows
    @example(log_radius=-200.0, ratio=5e-51)  # y_max*y_max underflows
    @example(log_radius=200.0, ratio=5e-31)  # both overflow
    def test_sagitta_pair(self, log_radius, ratio):
        # hi is the correctly rounded sagitta, hi + lo is within 2^-100 of it,
        # and lo within a few ulps of the rest, so that w near contact keeps
        # its digits; wherever the sagitta is normal with 2^-100 to spare
        radius = 10.0**log_radius
        half_span = radius * ratio
        assume(0.0 < half_span < radius)
        with mp.workprec(256):
            exact = mpmath_sagitta(radius, half_span)
            assume(exact >= mp.mpf(2) ** -920)
            hi, lo, _ = arc(math.nextafter(radius, 0.0), radius, half_span)._sagitta_and_t()
            neighbours = math.nextafter(hi, 0.0), math.nextafter(hi, math.inf)
            assert all(abs(exact - hi) <= abs(exact - other) for other in neighbours)
            assert abs(hi + mp.mpf(lo) - exact) < mp.mpf(2) ** -100 * exact
            assert abs(exact - hi - lo) <= 8 * math.ulp(lo)

    def test_arc_length_frozen_value(self):
        # closed form 2 R arcsin(y_max / R) = 6.00090036...e-6 m
        assert arc(0.1e-6).arc_length() == pytest.approx(6.0009003646953874e-06, rel=1e-9)

    def test_arc_length_quadrature_vs_closed_form(self):
        geom = arc(0.1e-6)
        closed = geom.arc_length()
        assert abs(profile_length(geom, DEFAULT_SPEC) - closed) / closed < 1e-9

    def test_arc_length_gauss_cross_check(self):
        geom = arc(0.1e-6)
        assert profile_length(geom, GAUSS_CROSS_CHECK) == pytest.approx(
            geom.arc_length(), rel=1e-10
        )

    def test_arc_length_exceeds_chord(self):
        assert arc(0.1e-6).arc_length() > 2.0 * Y_MAX

    def test_flat_limit_approaches_chord(self):
        geom = arc(1e-6, radius=1.0, half_span=3e-6)
        assert geom.arc_length() == pytest.approx(2.0 * 3e-6, rel=1e-10)

    def test_degenerate_span_limit(self):
        geom = ArcGeometry(radius=R, half_span=1e-9, gap=0.1e-6)
        assert geom.arc_length() == pytest.approx(2e-9, rel=1e-9)

    def test_arc_length_independent_of_gap(self):
        assert arc(0.1e-6).arc_length() == arc(1e-6).arc_length()


class TestPfaReport:
    @pytest.mark.parametrize(
        "gap,status",
        [
            (0.1e-6, "pass"),  # ratio 0.001
            (1e-6, "pass"),  # ratio 0.01
            (6e-6, "warn"),  # ratio 0.06
            (49e-6, "warn"),  # ratio 0.49
            (60e-6, "fail"),  # ratio 0.60
        ],
    )
    def test_status_thresholds(self, gap, status):
        report = arc(gap).validate_pfa()
        assert report.status == status
        assert report.ratio == pytest.approx(gap / R, rel=1e-12)
        assert report.hard_failure == (status == "fail")

    def test_threshold_boundaries_exact(self):
        # radius 1.0 makes the ratio an exact float: x / 1.0 == x
        at_warn = ArcGeometry(radius=1.0, half_span=3e-6, gap=0.05)
        assert at_warn.validate_pfa().status == "pass"  # warn needs ratio > 0.05
        at_fail = ArcGeometry(radius=1.0, half_span=3e-6, gap=0.5)
        assert at_fail.validate_pfa().status == "fail"  # fail is >= 0.5

    def test_contact_margin(self):
        report = arc(0.1e-6).validate_pfa()
        assert report.contact_margin == pytest.approx(
            0.1e-6 - 4.501012955881451e-08, rel=1e-10
        )
        assert report.contact_margin > 0.0

    def test_thresholds_are_the_documented_ones(self):
        assert PFA_WARN_RATIO == 0.05
        assert PFA_FAIL_RATIO == 0.5
