"""Closed-form energies, model selection, and the arc-plate line energy."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcplate import (
    NTLO,
    PFA,
    ArcGeometry,
    ArcPlateError,
    EnergyModel,
    NonFiniteResultError,
    NonPositiveGapError,
    PfaViolationError,
    arc_energy,
    casimir,
    parallel_plate_energy_density,
    parallel_plate_pressure,
    scaled_ntlo,
    sphere_plate_energy,
    sphere_plate_force,
)

from arc_profile import separation, slope
from oracles import (
    ARC_COEF,
    midpoint_arc_energy,
    mpmath_arc_energy,
    mpmath_gradient_correction,
    mpmath_ntlo_integral,
    mpmath_sagitta,
    reference_integrals,
)
from quadrature import GAUSS_CROSS_CHECK, QuadratureSpec, integrate

R = 100e-6
Y_MAX = 3e-6


def arc(gap: float, radius: float = R) -> ArcGeometry:
    return ArcGeometry(radius=radius, half_span=Y_MAX, gap=gap)


def sagitta(radius: float, half_span: float) -> float:
    return half_span**2 / (radius + math.sqrt(radius**2 - half_span**2))


def quadrature_arc_energy(geom: ArcGeometry, kappa: float, spec: QuadratureSpec) -> float:
    """The profile integral done numerically by the reference engine."""
    weight = kappa * (2.0 / 3.0)

    def integrand(y: float) -> float:
        psi, s = separation(geom, y), slope(geom, y)
        return (1.0 + weight * s * s) / psi**3

    return -ARC_COEF * integrate(integrand, -geom.half_span, geom.half_span, spec).value


# radius 0.1 um to 1 m, half-span 1e-4 to 0.79 of the radius
RADII = st.floats(-7.0, 0.0).map(lambda e: 10.0**e)
SPAN_RATIOS = st.floats(-4.0, math.log10(0.79)).map(lambda e: 10.0**e)


class TestConstants:
    def test_values(self):
        assert casimir._HBAR == 1.054571817e-34
        assert casimir._C == 299792458.0


class TestParallelPlate:
    def test_pressure_at_one_micron(self):
        assert parallel_plate_pressure(1e-6) == pytest.approx(
            -0.0013001257724477536, rel=1e-12
        )

    def test_pressure_quartic_scaling(self):
        # 0.5e-6 is an exact halving of 1e-6
        assert parallel_plate_pressure(0.5e-6) == pytest.approx(
            16.0 * parallel_plate_pressure(1e-6), rel=1e-15
        )

    def test_energy_density_at_one_micron(self):
        assert parallel_plate_energy_density(1e-6) == pytest.approx(
            -1.3794762888415247e-10, rel=1e-12
        )

    def test_energy_density_cubic_scaling(self):
        assert parallel_plate_energy_density(2e-6) == pytest.approx(
            parallel_plate_energy_density(1e-6) / 8.0, rel=1e-15
        )

    def test_density_is_not_the_pressure_integral(self):
        # The density is served as its own quantity. Integrating the pressure
        # from d to infinity would give pi times this value; the two routes
        # must stay distinct.
        d = 1e-6
        integral_route = parallel_plate_pressure(d) * d / 3.0
        assert integral_route / parallel_plate_energy_density(d) == pytest.approx(
            math.pi, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1e-6])
    def test_rejects_nonpositive_separation(self, bad):
        with pytest.raises(NonPositiveGapError):
            parallel_plate_pressure(bad)
        with pytest.raises(NonPositiveGapError):
            parallel_plate_energy_density(bad)


class TestSpherePlate:
    def test_force_frozen_value(self):
        assert sphere_plate_force(100e-6, 0.1e-6) == pytest.approx(
            -2.7229770503097444e-10, rel=1e-12
        )

    def test_energy_frozen_value(self):
        assert sphere_plate_energy(100e-6, 0.1e-6) == pytest.approx(
            -1.3614885251548723e-17, rel=1e-12
        )

    def test_linear_in_radius_bitwise(self):
        # doubling the radius doubles the result with no rounding at all
        assert sphere_plate_energy(200e-6, 0.1e-6) == 2.0 * sphere_plate_energy(
            100e-6, 0.1e-6
        )
        assert sphere_plate_force(200e-6, 0.1e-6) == 2.0 * sphere_plate_force(
            100e-6, 0.1e-6
        )

    def test_energy_inverse_square_bitwise(self):
        assert sphere_plate_energy(100e-6, 0.2e-6) == (
            sphere_plate_energy(100e-6, 0.1e-6) / 4.0
        )

    def test_force_cubic_scaling(self):
        assert sphere_plate_force(100e-6, 0.2e-6) == pytest.approx(
            sphere_plate_force(100e-6, 0.1e-6) / 8.0, rel=1e-15
        )

    def test_force_is_energy_gradient(self):
        # F = -dU/dd for U ~ 1/d^2 means F*d = 2U
        R_s, d = 100e-6, 0.3e-6
        assert sphere_plate_force(R_s, d) * d == pytest.approx(
            2.0 * sphere_plate_energy(R_s, d), rel=1e-15
        )

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sphere_plate_force(0.0, 1e-6)
        with pytest.raises(ValueError):
            sphere_plate_energy(-1e-6, 1e-6)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(NonPositiveGapError):
            sphere_plate_force(100e-6, 0.0)
        with pytest.raises(NonPositiveGapError):
            sphere_plate_energy(100e-6, -1e-9)

    @pytest.mark.parametrize("gap", [1e-6, 2e-6])
    def test_rejects_gap_comparable_to_radius(self, gap):
        with pytest.raises(PfaViolationError):
            sphere_plate_energy(1e-6, gap)


class TestEnergyModel:
    def test_pfa(self):
        assert PFA.gradient_weight == 0.0
        assert PFA.label == "pfa"
        assert PFA.key == "pfa"

    def test_ntlo(self):
        assert NTLO.gradient_weight == 1.0
        assert NTLO.label == "ntlo"
        assert NTLO.key == "ntlo"

    def test_scaled(self):
        m = scaled_ntlo(0.1)
        assert m.gradient_weight == 0.1
        assert m.label == "scaled-ntlo(0.1)"
        assert m.key == "scaled_ntlo_0.1"
        assert scaled_ntlo(0.25).key == "scaled_ntlo_0.25"

    @pytest.mark.parametrize("epsilon,name", [(0, "0"), (0.0, "0"), (0.1, "0.1"),
                                              (0.25, "0.25"), (0.5, "0.5"), (1, "1")])
    def test_scaled_names_in_use(self, epsilon, name):
        m = scaled_ntlo(epsilon)
        assert (m.label, m.key) == (f"scaled-ntlo({name})", f"scaled_ntlo_{name}")

    def test_scaled_names_tell_close_weights_apart(self):
        # 0.30000001 prints as 0.3 with six significant digits
        m = scaled_ntlo(0.30000001)
        assert (m.label, m.key) == ("scaled-ntlo(0.30000001)", "scaled_ntlo_0.30000001")
        assert scaled_ntlo(0.3).key != m.key

    def test_scaled_boundaries_allowed(self):
        assert scaled_ntlo(0.0).gradient_weight == 0.0
        assert scaled_ntlo(1.0).gradient_weight == 1.0

    def test_equality_and_hashing(self):
        assert scaled_ntlo(0.1) == EnergyModel("scaled-ntlo(0.1)", "scaled_ntlo_0.1", 0.1)
        assert len({PFA, NTLO, scaled_ntlo(0.1), scaled_ntlo(0.1)}) == 3
        # same weight, different model: each keeps its own CSV column
        assert PFA != scaled_ntlo(0.0)
        assert NTLO != scaled_ntlo(1.0)

    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: scaled_ntlo(-0.1),
            lambda: scaled_ntlo(1.5),
            lambda: scaled_ntlo(math.nan),
            lambda: scaled_ntlo(math.inf),
            lambda: EnergyModel("k", "k", 1.5),
            lambda: EnergyModel("k", "k", -0.5),
        ],
    )
    def test_invalid_models(self, ctor):
        with pytest.raises(ValueError):
            ctor()


class TestArcEnergy:
    # Frozen against a high-precision run of the profile integral
    # (adaptive, rtol 1e-13) plus the 10^7-panel midpoint oracle.
    @pytest.mark.parametrize(
        "gap,model,expected",
        [
            (0.1e-6, PFA, -2.5517011781832903e-12),
            (0.1e-6, NTLO, -2.5524781950288447e-12),
            (0.1e-6, scaled_ntlo(0.1), -2.5517788798678456e-12),
            (0.5e-6, PFA, -1.145045983038361e-14),
            (0.5e-6, NTLO, -1.1452927479547373e-14),
            (1.0e-6, PFA, -1.361978367043687e-15),
            (1.0e-6, NTLO, -1.3622610507874496e-15),
            (1.0e-6, scaled_ntlo(0.1), -1.3620066354180632e-15),
        ],
    )
    def test_frozen_values(self, gap, model, expected):
        result = arc_energy(arc(gap), model)
        assert result == pytest.approx(expected, rel=1e-9)

    def test_result_fields(self):
        result = arc_energy(arc(0.1e-6), NTLO)
        assert type(result) is float and result < 0.0

    def test_scaled_endpoints_reproduce_plain_models(self):
        geom = arc(0.3e-6)
        assert arc_energy(geom, scaled_ntlo(0.0)) == arc_energy(geom, PFA)
        assert arc_energy(geom, scaled_ntlo(1.0)) == arc_energy(geom, NTLO)

    def test_gradient_term_strengthens_attraction(self):
        geom = arc(0.1e-6)
        u_pfa = arc_energy(geom, PFA)
        u_half = arc_energy(geom, scaled_ntlo(0.5))
        u_ntlo = arc_energy(geom, NTLO)
        assert u_ntlo < u_half < u_pfa < 0.0

    @pytest.mark.parametrize("gap", [0.1e-6, 0.5e-6, 1.0e-6])
    def test_gradient_correction_is_small(self, gap):
        geom = arc(gap)
        u_pfa = arc_energy(geom, PFA)
        u_ntlo = arc_energy(geom, NTLO)
        rel = abs(u_ntlo - u_pfa) / abs(u_ntlo)
        assert 0.0 < rel < 1e-3

    def test_magnitude_decreases_with_gap(self):
        values = [abs(arc_energy(arc(g), NTLO)) for g in
                  (0.1e-6, 0.2e-6, 0.5e-6, 1.0e-6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "gap,model", [(0.1e-6, NTLO), (1.0e-6, PFA)]
    )
    def test_gauss_legendre_cross_check(self, gap, model):
        geom = arc(gap)
        closed = arc_energy(geom, model)
        gauss = quadrature_arc_energy(geom, model.gradient_weight, GAUSS_CROSS_CHECK)
        assert abs(closed - gauss) <= 1e-8 * abs(closed)

    def test_higher_gauss_order_agrees(self):
        geom = arc(0.1e-6)
        fine = quadrature_arc_energy(
            geom, 1.0, QuadratureSpec(method="gauss-legendre", gauss_order=64)
        )
        assert arc_energy(geom, NTLO) == pytest.approx(fine, rel=1e-10)

    def test_flat_limit(self):
        # meter-scale radius over a 6 um span is flat to ~5e-5; the energy
        # collapses onto the uniform-separation closed form
        gap = 0.5e-6
        geom = arc(gap, radius=1.0)
        reference = -ARC_COEF * 2.0 * Y_MAX / gap**3
        assert arc_energy(geom, PFA) == pytest.approx(reference, rel=1e-3)

    @pytest.mark.parametrize(
        "gap,model,kappa",
        [(0.1e-6, NTLO, 1.0), (0.5e-6, PFA, 0.0)],
    )
    def test_matches_midpoint_oracle(self, gap, model, kappa):
        oracle = midpoint_arc_energy(R, Y_MAX, gap, kappa, panels=10**6)
        value = arc_energy(arc(gap), model)
        assert value == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize(
        "gap,rel",
        [(0.1e-6, 1e-13), (0.5e-6, 1e-13), (1.0e-6, 1e-13),
         (1.01 * sagitta(R, Y_MAX), 1e-13), (1.0001 * sagitta(R, Y_MAX), 1e-10)],
    )
    @pytest.mark.parametrize("model", [PFA, scaled_ntlo(0.1), NTLO], ids=lambda m: m.key)
    def test_matches_mpmath_oracle(self, gap, rel, model):
        oracle = mpmath_arc_energy(R, Y_MAX, gap, model.gradient_weight)
        assert abs(arc_energy(arc(gap), model) - oracle) <= rel * abs(oracle)

    @pytest.mark.parametrize(
        "radius,half_span,gap",
        [(1.0, 1e-4, 0.49), (1.0, Y_MAX, 0.5e-6), (1e-3, 1e-7, 4e-4)],
    )
    def test_matches_mpmath_oracle_far_from_contact(self, radius, half_span, gap):
        # b*T, about sqrt(sagitta/gap), is small here, where atanh(bT) through a
        # plain log would lose digits
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=gap)
        for model in (PFA, NTLO):
            oracle = mpmath_arc_energy(radius, half_span, gap, model.gradient_weight)
            assert abs(arc_energy(geom, model) - oracle) <= 1e-13 * abs(oracle)

    @pytest.mark.parametrize("model", [PFA, NTLO])
    def test_finite_where_the_squares_overflow(self, model):
        # R*R overflows, but T and the sagitta do not
        radius, half_span, gap = 1e160, 0.5, 1e60
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=gap)
        oracle = mpmath_arc_energy(radius, half_span, gap, model.gradient_weight)
        assert abs(arc_energy(geom, model) - oracle) <= 1e-13 * abs(oracle)

    @pytest.mark.parametrize("gap", [0.1e-6, 0.5e-6, 1.0e-6, 1.01 * sagitta(R, Y_MAX)])
    def test_gradient_correction_matches_mpmath(self, gap):
        # the pfa/ntlo deviation in the sweep is a cube root of this ratio;
        # the bound is a few roundings of the two energies over a 1e-4 ratio
        geom = arc(gap)
        u_pfa, u_ntlo = arc_energy(geom, PFA), arc_energy(geom, NTLO)
        oracle = mpmath_gradient_correction(R, Y_MAX, gap)
        assert abs((u_ntlo - u_pfa) / u_pfa - oracle) <= 2e-12 * oracle

    @settings(max_examples=60, deadline=None)
    @given(radius=RADII, ratio=SPAN_RATIOS, position=st.floats(0.0, 1.0))
    def test_closed_form_property(self, radius, ratio, position):
        # gaps log-uniform from 1.01 times the sagitta up to half the radius
        half_span = radius * ratio
        lo, hi = math.log(1.01 * sagitta(radius, half_span)), math.log(0.5 * radius)
        gap = math.exp(lo + position * (hi - lo))
        assume(1.01 * sagitta(radius, half_span) <= gap < 0.5 * radius)
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=gap)
        for model in (PFA, NTLO):
            oracle = mpmath_arc_energy(radius, half_span, gap, model.gradient_weight)
            assert abs(arc_energy(geom, model) - oracle) <= 1e-13 * abs(oracle)

    @settings(max_examples=30, deadline=None)
    @given(radius=RADII, ratio=SPAN_RATIOS)
    def test_closed_form_property_near_contact(self, radius, ratio):
        half_span = radius * ratio
        gap = 1.0001 * sagitta(radius, half_span)
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=gap)
        for model in (PFA, NTLO):
            oracle = mpmath_arc_energy(radius, half_span, gap, model.gradient_weight)
            assert abs(arc_energy(geom, model) - oracle) <= 1e-10 * abs(oracle)

    @settings(max_examples=60, deadline=None)
    @given(radius=RADII, ratio=SPAN_RATIOS, excess=st.floats(0.0, 1e-6))
    @example(radius=R, ratio=Y_MAX / R, excess=0.0)
    def test_closed_form_property_at_contact(self, radius, ratio, excess):
        # gaps from the first double above the exact sagitta to 1 + 1e-6 times
        # it, where g - sagitta cancels: up from the float formula's sagitta,
        # which is a few ulps off, to the first double that clears the plate
        half_span = radius * ratio
        exact = mpmath_sagitta(radius, half_span)
        gap = math.nextafter(sagitta(radius, half_span) * (1.0 + excess), math.inf)
        while gap <= exact:
            gap = math.nextafter(gap, math.inf)
        (i0,), (i1,), error = ArcGeometry(radius, half_span, gap)._integrals([gap])
        assert error is None
        oracle = mpmath_ntlo_integral(radius, half_span, gap)
        assert abs(i0 + (2.0 / 3.0) * i1 - oracle) <= 1e-15 * oracle

    @settings(max_examples=200, deadline=None)
    @given(radius=RADII, ratio=SPAN_RATIOS, exponent=st.integers(-140, 150),
           positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_integrals_of_a_column_are_the_one_gap_formula(self, radius, ratio, exponent,
                                                           positions):
        # every length scaled by 10**exponent, so that the integrals or g**3
        # leave a double's range at either end; gaps log-uniform from 1.01
        # times the sagitta to 1.5 times the radius, in drawn order
        radius *= 10.0**exponent
        half_span = radius * ratio
        lo, hi = math.log(1.01 * sagitta(radius, half_span)), math.log(1.5 * radius)
        gaps = [math.exp(lo + position * (hi - lo)) for position in positions]
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=math.exp(lo))
        expected, failure = [], None
        for gap in gaps:  # the first failing gap decides the error
            try:
                expected.append(reference_integrals(geom, gap))
            except ArcPlateError as exc:
                failure = exc
                break
        # the columns cover the gaps before the first failing one, bit for bit
        i0s, i1s, error = geom._integrals(gaps)
        assert [(i0.hex(), i1.hex()) for i0, i1 in zip(i0s, i1s, strict=True)] == [
            (i0.hex(), i1.hex()) for i0, i1 in expected
        ]
        if failure is None:
            assert error is None
        else:
            assert (type(error), str(error)) == (type(failure), str(failure))

    @pytest.mark.parametrize(
        "radius,half_span,gap",
        [
            (1e-6, 1e-106, 5e-107),  # 4R/g**3 overflows: I0 = inf, I1 = nan
            (1e-6, 1e-60, 1e-110),  # g**3 underflows to zero
            (1e200, 0.5, 1e-3),  # (B + 1)**2 overflows
        ],
    )
    @pytest.mark.parametrize("model", [PFA, NTLO])
    def test_rejects_results_out_of_double_range(self, radius, half_span, gap, model):
        geom = ArcGeometry(radius=radius, half_span=half_span, gap=gap)
        with pytest.raises(NonFiniteResultError):
            arc_energy(geom, model)

    @pytest.mark.parametrize("gap", [50e-6, 60e-6])
    def test_rejects_gap_at_half_radius(self, gap):
        with pytest.raises(PfaViolationError):
            arc_energy(arc(gap), NTLO)
