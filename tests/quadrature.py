"""Reference one-dimensional quadrature for the tests.

The package evaluates its integrals in closed form; the tests cross-check
those closed forms against this general-purpose engine. Two methods behind
one entry point: adaptive Simpson (default) for tolerance-driven integration
of smooth integrands, and a fixed-order Gauss-Legendre rule. Both are pure
functions of their inputs; nothing here keeps state between calls, so the
engine is safe to drive from many threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Callable, Literal

import numpy as np

__all__ = [
    "InvalidIntervalError",
    "NonConvergenceError",
    "QuadratureSpec",
    "QuadratureResult",
    "DEFAULT_SPEC",
    "GAUSS_CROSS_CHECK",
    "integrate",
]


class InvalidIntervalError(ValueError):
    """Integration bounds are reversed or non-finite."""


class NonConvergenceError(RuntimeError):
    """Adaptive refinement exhausted max subdivisions without meeting tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Configuration of a quadrature run.

    Parameters
    ----------
    method : {"adaptive-simpson", "gauss-legendre"}
        Integration scheme. "gauss-legendre" is a single fixed-order rule
        with no subdivision.
    rtol : float
        Relative tolerance, must lie in (0, 1). Drives the adaptive method;
        ignored by the fixed rule.
    atol : float
        Absolute tolerance floor, >= 0. Needed when the true integral can be
        zero (a relative target alone is then meaningless).
    max_subdivisions : int
        Maximum recursion depth of the adaptive refinement, >= 1.
    gauss_order : int
        Number of Gauss-Legendre nodes, >= 2. Exact for polynomials of
        degree <= 2*gauss_order - 1.
    """

    method: Literal["adaptive-simpson", "gauss-legendre"] = "adaptive-simpson"
    rtol: float = 1e-10
    atol: float = 0.0
    max_subdivisions: int = 60
    gauss_order: int = 32

    def __post_init__(self) -> None:
        if self.method not in ("adaptive-simpson", "gauss-legendre"):
            raise ValueError(f"unknown quadrature method: {self.method!r}")
        if not (0.0 < self.rtol < 1.0):
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")
        if self.atol < 0.0:
            raise ValueError(f"atol must be >= 0, got {self.atol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )
        if self.gauss_order < 2:
            raise ValueError(f"gauss_order must be >= 2, got {self.gauss_order}")


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one integration.

    Attributes
    ----------
    value : float
        Estimate of the integral, in units of integrand times abscissa.
    error_estimate : float
        Non-negative estimate of the absolute error (Richardson difference
        for the adaptive method, order-halving difference for the fixed rule).
    evaluations : int
        Number of integrand evaluations performed, >= 1.
    """

    value: float
    error_estimate: float
    evaluations: int


DEFAULT_SPEC = QuadratureSpec()
GAUSS_CROSS_CHECK = QuadratureSpec(method="gauss-legendre")


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Integrate ``f`` over ``[lower, upper]``.

    Parameters
    ----------
    f : callable
        Real-valued function of one real variable, finite and smooth on the
        interval.
    lower, upper : float
        Finite bounds with ``lower <= upper``.
    spec : QuadratureSpec
        Method and tolerances.

    Returns
    -------
    QuadratureResult

    Raises
    ------
    InvalidIntervalError
        If ``lower > upper`` or either bound is non-finite.
    NonConvergenceError
        If adaptive refinement exhausts ``max_subdivisions`` without meeting
        ``max(atol, rtol * |integral|)``.
    """
    if not (isfinite(lower) and isfinite(upper)):
        raise InvalidIntervalError(
            f"integration bounds must be finite, got [{lower}, {upper}]"
        )
    if lower > upper:
        raise InvalidIntervalError(
            f"lower bound {lower} exceeds upper bound {upper}"
        )
    if lower == upper:
        f(lower)  # still require a finite, callable integrand
        return QuadratureResult(0.0, 0.0, 1)
    if spec.method == "gauss-legendre":
        return _gauss_fixed(f, lower, upper, spec.gauss_order)
    return _adaptive_simpson(f, lower, upper, spec)


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec
) -> QuadratureResult:
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    count = [3]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(spec.atol, spec.rtol * abs(whole))
    value, err = _refine(
        f, a, b, fa, fm, fb, whole, tol, spec.max_subdivisions, count
    )
    return QuadratureResult(value, err, count[0])


def _refine(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
    count: list[int],
) -> tuple[float, float]:
    # One Simpson bisection step: compare the two-panel sum against the
    # parent panel; the /15 Richardson term is both the correction and the
    # error estimate of the accepted value.
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    count[0] += 2
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    if depth <= 0:
        raise NonConvergenceError(
            f"adaptive Simpson did not reach tolerance {tol:g} on "
            f"[{a:g}, {b:g}] within the subdivision limit"
        )
    half = 0.5 * tol
    lval, lerr = _refine(f, a, m, fa, flm, fm, left, half, depth - 1, count)
    rval, rerr = _refine(f, m, b, fm, frm, fb, right, half, depth - 1, count)
    return lval + rval, lerr + rerr


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


def _gauss_rule(
    f: Callable[[float], float], a: float, b: float, order: int
) -> float:
    nodes, weights = _gauss_nodes(order)
    halfwidth = 0.5 * (b - a)
    center = 0.5 * (a + b)
    acc = 0.0
    for x, w in zip(nodes, weights):
        acc += w * f(center + halfwidth * x)
    return halfwidth * acc


def _gauss_fixed(
    f: Callable[[float], float], a: float, b: float, order: int
) -> QuadratureResult:
    value = _gauss_rule(f, a, b, order)
    # Error gauged against the half-order rule; crude but honest for a
    # fixed rule that performs no refinement of its own.
    low = max(2, order // 2)
    rough = _gauss_rule(f, a, b, low)
    return QuadratureResult(value, abs(value - rough), order + low)
