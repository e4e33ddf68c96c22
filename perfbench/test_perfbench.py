"""Self-tests of the benchmark's own arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench -q

They import nothing from arcplate, so they also run where the package is broken.
"""

import math

import pytest

import reference
import stats
import workloads
from worker import Tracer, request_metrics


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail([float(x) for x in range(1, 12)]) == (1.0, 100 / 11, 10)
    assert stats.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 10)
    value, pct, beyond = stats.tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_tail_without_enough_samples_reports_the_maximum_and_zero_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([float(x) for x in range(10)]) == (9.0, 100.0, 0)


def test_tail_steps_below_ties_until_ten_samples_lie_strictly_beyond():
    assert stats.tail([1.0] * 3 + [2.0] * 12) == (1.0, 20.0, 12)
    assert stats.tail([1.0] * 5 + [2.0] * 10) == (1.0, 100 / 3, 10)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0  # overlap once
    assert stats.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0  # clipped
    assert stats.self_time(0.0, 10.0, [(0.0, 10.0), (3.0, 4.0)]) == 0.0


def test_request_metrics_charge_each_span_only_its_own_time():
    # id, request, name, parent, start, end, evaluations, rel_error_estimate
    spans = [
        (0, 1, "cli.main", -1, 0.0, 10.0, None, None),
        (1, 1, "analysis.run_sweep", 0, 1.0, 9.0, None, None),
        (2, 1, "geometry.construct", 1, 1.5, 2.0, None, None),
        (3, 1, "casimir.arc_energy", 1, 2.0, 5.0, None, None),
        (4, 1, "quadrature.integrate", 3, 2.5, 4.5, 120, 1e-11),
        (5, 1, "casimir.arc_energy", 1, 5.0, 7.0, None, None),
        (6, 1, "quadrature.integrate", 5, 5.5, 6.5, 80, 3e-11),
        (7, 1, "analysis.critical_thickness", 1, 7.0, 7.5, None, None),
    ]
    m = request_metrics(spans)
    assert m["cli.main_self_s"] == 2.0
    assert m["analysis.run_sweep_s"] == 8.0
    assert m["analysis.run_sweep_self_s"] == 8.0 - 0.5 - 3.0 - 2.0 - 0.5
    assert m["casimir.arc_energy_calls"] == 2
    assert m["casimir.arc_energy_self_s"] == (3.0 - 2.0) + (2.0 - 1.0)
    assert m["quadrature.integrate_calls"] == 2
    assert m["quadrature.integrate_s"] == 3.0
    assert m["quadrature.evals"] == 200
    assert m["quadrature.evals_per_integral"] == 100
    assert m["quadrature.max_rel_error_estimate"] == 3e-11
    assert m["geometry.construct_calls"] == 1
    assert m["analysis.critical_thickness_calls"] == 1


def test_tracer_records_parents_and_survives_exceptions():
    tracer = Tracer()

    def fail():
        raise RuntimeError("boom")

    inner = tracer.wrap("inner", fail)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(RuntimeError):
        outer()
    after = tracer.wrap("after", lambda: 1)
    assert after() == 1
    names = [(s[2], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("after", -1)]


@pytest.mark.parametrize("gap", [0.1e-6, workloads.sagitta() * 1.0001])
def test_reference_forms_agree(gap):
    t_form = reference.integrals(workloads.RADIUS, workloads.HALF_SPAN, gap)
    y_form = reference.integrals_y(workloads.RADIUS, workloads.HALF_SPAN, gap)
    for a, b in zip(t_form, y_form):
        assert abs(float((a - b) / b)) < 1e-25


def test_workloads_are_pure_functions_of_the_seed():
    for make in workloads.WORKLOADS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert workloads.default_sweep(0).flags == ()
    lows = {workloads.near_contact(s).gap_min for s in range(5)}
    assert lows == {repr(workloads.sagitta() * 1.0001)}
    for seed in range(20):
        wl = workloads.many_models(seed)
        eps = [float(k) for _, k in wl.models[2:]]
        assert len({f"{e:g}" for e in eps}) == 9 and all(0 < e < 1 for e in eps)
        assert math.isclose(float(wl.gap_max), 1e-6, rel_tol=0.006)
