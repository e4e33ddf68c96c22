"""Reference integration engine (tests/quadrature.py): contracted examples,
error handling, and the linearity/additivity/symmetry properties that make
it a trustworthy cross-check for the package's closed forms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import midpoint_integral
from quadrature import (
    DEFAULT_SPEC,
    GAUSS_CROSS_CHECK,
    InvalidIntervalError,
    NonConvergenceError,
    QuadratureSpec,
    integrate,
)

BOTH_METHODS = pytest.mark.parametrize(
    "spec", [DEFAULT_SPEC, GAUSS_CROSS_CHECK], ids=["adaptive-simpson", "gauss-legendre"]
)


class TestQuadratureSpecValidation:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.method == "adaptive-simpson"
        assert spec.rtol == 1e-10
        assert spec.max_subdivisions == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "romberg"},
            {"rtol": 0.0},
            {"rtol": 1.0},
            {"rtol": -1e-3},
            {"atol": -1.0},
            {"max_subdivisions": 0},
            {"gauss_order": 1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestContractedExamples:
    @BOTH_METHODS
    def test_constant(self, spec):
        res = integrate(lambda y: 1.0, 0.0, 2.0, spec)
        assert res.value == pytest.approx(2.0, rel=1e-14)
        assert res.error_estimate <= 1e-12
        assert res.evaluations >= 1

    @BOTH_METHODS
    def test_odd_cubic_cancels(self, spec):
        res = integrate(lambda y: y**3, -1.0, 1.0, spec)
        assert abs(res.value) < 1e-14

    @BOTH_METHODS
    def test_inverse_cube_shifted(self, spec):
        # antiderivative -1/(2 (1+y)^2): integral over [0, 1] is 3/8
        res = integrate(lambda y: 1.0 / (1.0 + y) ** 3, 0.0, 1.0, spec)
        assert res.value == pytest.approx(0.375, rel=1e-9)

    def test_inverse_cube_matches_midpoint_oracle(self):
        oracle = midpoint_integral(lambda y: 1.0 / (1.0 + y) ** 3, 0.0, 1.0, 10_000_000)
        res = integrate(lambda y: 1.0 / (1.0 + y) ** 3, 0.0, 1.0, DEFAULT_SPEC)
        assert res.value == pytest.approx(oracle, rel=1e-9)
        assert oracle == pytest.approx(0.375, rel=1e-9)

    def test_simpson_exact_on_cubic(self):
        # Richardson-corrected Simpson integrates cubics without refinement
        res = integrate(lambda y: y**3, 0.0, 1.0, DEFAULT_SPEC)
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert res.evaluations == 5

    @pytest.mark.parametrize("order,degree", [(2, 3), (3, 5), (8, 15)])
    def test_gauss_exactness_degree(self, order, degree):
        spec = QuadratureSpec(method="gauss-legendre", gauss_order=order)
        exact = 1.0 / (degree + 1)  # integral of y^degree over [0, 1]
        res = integrate(lambda y: y**degree, 0.0, 1.0, spec)
        assert res.value == pytest.approx(exact, rel=1e-13)


class TestErrors:
    def test_reversed_interval(self):
        with pytest.raises(InvalidIntervalError):
            integrate(lambda y: 1.0, 1.0, 0.0, DEFAULT_SPEC)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_nonfinite_bounds(self, bounds):
        with pytest.raises(InvalidIntervalError):
            integrate(lambda y: 1.0, bounds[0], bounds[1], DEFAULT_SPEC)

    def test_degenerate_interval_is_zero(self):
        res = integrate(lambda y: 123.0, 2.0, 2.0, DEFAULT_SPEC)
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.evaluations == 1

    def test_nonconvergence_on_subdivision_exhaustion(self):
        spec = QuadratureSpec(rtol=1e-12, max_subdivisions=3)
        step = lambda y: 0.0 if y < 0.3 else 1.0
        with pytest.raises(NonConvergenceError):
            integrate(step, 0.0, 1.0, spec)

    def test_steep_smooth_transition_converges(self):
        # a smooth near-step does converge; only true jumps defeat refinement
        import numpy as np

        res = integrate(
            lambda y: 0.5 * (1.0 + math.tanh(50.0 * (y - 0.3))), 0.0, 1.0, DEFAULT_SPEC
        )
        oracle = midpoint_integral(
            lambda y: 0.5 * (1.0 + np.tanh(50.0 * (y - 0.3))), 0.0, 1.0, 1_000_000
        )
        assert res.value == pytest.approx(oracle, rel=1e-8)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3),
    )
    def test_linearity(self, a, b):
        f = lambda y: math.exp(-y * y)
        g = lambda y: 1.0 / (1.0 + y * y)
        i_f = integrate(f, 0.0, 2.0, DEFAULT_SPEC).value
        i_g = integrate(g, 0.0, 2.0, DEFAULT_SPEC).value
        combined = integrate(lambda y: a * f(y) + b * g(y), 0.0, 2.0, DEFAULT_SPEC).value
        scale = abs(a * i_f) + abs(b * i_g)
        assert abs(combined - (a * i_f + b * i_g)) <= 10.0 * DEFAULT_SPEC.rtol * scale

    @settings(max_examples=25, deadline=None)
    @given(split=st.floats(0.0, 3.0))
    def test_interval_additivity(self, split):
        f = lambda y: 1.0 / (1.0 + y) ** 2
        total = integrate(f, 0.0, 3.0, DEFAULT_SPEC).value
        left = integrate(f, 0.0, split, DEFAULT_SPEC).value
        right = integrate(f, split, 3.0, DEFAULT_SPEC).value
        assert left + right == pytest.approx(total, rel=3e-10)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.1, 4.0))
    def test_even_symmetry(self, a):
        f = lambda y: math.cosh(y) / (1.0 + y * y)
        whole = integrate(f, -a, a, DEFAULT_SPEC).value
        half = integrate(f, 0.0, a, DEFAULT_SPEC).value
        assert whole == pytest.approx(2.0 * half, rel=3e-10)

    @BOTH_METHODS
    def test_matches_midpoint_on_smooth_peak(self, spec):
        f = lambda y: 1.0 / (0.1 + y * y)
        oracle = midpoint_integral(f, -1.0, 1.0, 1_000_000)
        assert integrate(f, -1.0, 1.0, spec).value == pytest.approx(oracle, rel=1e-6)

    def test_error_estimate_nonnegative_and_plausible(self):
        res = integrate(lambda y: math.sin(y) + 2.0, 0.0, 3.0, DEFAULT_SPEC)
        exact = -math.cos(3.0) + 1.0 + 6.0
        assert res.error_estimate >= 0.0
        assert abs(res.value - exact) <= max(res.error_estimate * 50, 1e-12)

    def test_thread_safety_no_shared_state(self):
        # concurrent integrations of different integrands must not interfere
        from concurrent.futures import ThreadPoolExecutor

        def job(k):
            return integrate(lambda y: (y + k) ** 2, 0.0, 1.0, DEFAULT_SPEC).value

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(job, range(16)))
        for k, got in enumerate(values):
            exact = ((1 + k) ** 3 - k**3) / 3.0
            assert got == pytest.approx(exact, rel=1e-12)
