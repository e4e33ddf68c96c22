"""Acceptance gate: the eleven shipping criteria, one test each.

Each test prints a single "PASS criterion N: ..." / "FAIL criterion N: ..."
line (visible with pytest -s) and then asserts. Tolerances are pinned here
and nowhere else; the per-module suites carry the fine-grained checks.
"""

import json
import math
import random
import time

import pytest

from arcplate import (
    NTLO,
    PFA,
    ArcGeometry,
    CurvatureTensor,
    SweepConfig,
    arc_energy,
    bending_energy,
    fractional_deviation,
    material_by_name,
    parallel_plate_pressure,
    run_sweep,
    scaled_ntlo,
    sphere_plate_energy,
    strain_energy_density,
    thin_plate_check,
)
from arcplate.cli import main as cli_main

from oracles import ARC_COEF, midpoint_arc_energy

RADIUS = 100e-6
HALF_SPAN = 3e-6
GAP_MIN = 0.1e-6
GAP_MAX = 1.0e-6
POINTS = 1000

GOLD = material_by_name("gold")
SILVER = material_by_name("silver")


def check(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {criterion}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_sweep():
    """The default 1000-point sweep, timed once and shared."""
    config = SweepConfig(
        gap_min=GAP_MIN,
        gap_max=GAP_MAX,
        points=POINTS,
        radius=RADIUS,
        half_span=HALF_SPAN,
        materials=(GOLD, SILVER),
        models=(PFA, NTLO),
    )
    start = time.perf_counter()
    table = run_sweep(config)
    elapsed = time.perf_counter() - start
    return table, elapsed


@pytest.fixture(scope="module")
def scaled_sweep():
    config = SweepConfig(
        gap_min=GAP_MIN,
        gap_max=GAP_MAX,
        points=POINTS,
        radius=RADIUS,
        half_span=HALF_SPAN,
        materials=(GOLD,),
        models=(NTLO, scaled_ntlo(0.1)),
        comparison=(scaled_ntlo(0.1), NTLO),
    )
    return run_sweep(config)


def test_criterion_01_endpoint_reproduction(default_sweep):
    table, elapsed = default_sweep
    targets = {
        (0, "gold"): 9.532e-9,
        (0, "silver"): 9.636e-9,
        (-1, "gold"): 0.7732e-9,
        (-1, "silver"): 0.7817e-9,
    }
    worst = 0.0
    for (index, mat), target in targets.items():
        t = table.rows[index].thickness[(mat, "ntlo")]
        worst = max(worst, abs(t - target) / target)
    ok = worst <= 3e-2 and elapsed < 5.0 and len(table.rows) == POINTS
    check(
        1,
        "endpoint thicknesses within 3% and the 1000-point sweep under 5 s",
        ok,
        f"worst rel {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_oracle_equivalence():
    rng = random.Random(20260819)
    worst = 0.0
    for _ in range(20):
        gap = rng.uniform(GAP_MIN, GAP_MAX)
        geom = ArcGeometry(radius=RADIUS, half_span=HALF_SPAN, gap=gap)
        value = arc_energy(geom, NTLO)
        oracle = midpoint_arc_energy(RADIUS, HALF_SPAN, gap, kappa=1.0, panels=10**6)
        worst = max(worst, abs(value - oracle) / abs(oracle))
    check(
        2,
        "20 random gaps agree with the 1e6-panel midpoint oracle within 1e-6",
        worst <= 1e-6,
        f"worst rel {worst:.2e}",
    )


def test_criterion_03_gradient_correction_smallness(default_sweep, scaled_sweep):
    table, _ = default_sweep
    deltas = [row.delta for row in table.rows]
    in_band = all(d is not None and 0.0 < d < 1e-3 for d in deltas)
    scaled_devs = [row.delta for row in scaled_sweep.rows]
    scaled_ok = all(d is not None and d < 1e-3 for d in scaled_devs)
    check(
        3,
        "thickness deviation in (0, 1e-3) at every row; scaled(0.1) vs full "
        "correction < 1e-3",
        in_band and scaled_ok,
        f"delta range [{min(deltas):.2e}, {max(deltas):.2e}], "
        f"scaled max {max(scaled_devs):.2e}",
    )


def test_criterion_04_delta_material_independence(default_sweep):
    table, _ = default_sweep
    worst = 0.0
    for row in table.rows:
        delta_ag = fractional_deviation(
            row.thickness[("silver", "pfa")], row.thickness[("silver", "ntlo")]
        )
        worst = max(worst, abs(row.delta - delta_ag))
    check(
        4,
        "per-row |delta_gold - delta_silver| below 1e-12",
        worst < 1e-12,
        f"worst {worst:.2e}",
    )


def test_criterion_05_orderings(default_sweep):
    table, _ = default_sweep
    rows = table.rows
    decreasing = all(
        rows[i].thickness[(mat, model)] > rows[i + 1].thickness[(mat, model)]
        for i in range(len(rows) - 1)
        for mat in ("gold", "silver")
        for model in ("pfa", "ntlo")
    )
    silver_above = all(
        row.thickness[("silver", model)] > row.thickness[("gold", model)]
        for row in rows
        for model in ("pfa", "ntlo")
    )
    corrected_above = all(
        row.thickness[(mat, "ntlo")] >= row.thickness[(mat, "pfa")]
        for row in rows
        for mat in ("gold", "silver")
    )
    check(
        5,
        "t strictly decreasing in gap; t_silver > t_gold; t_ntlo >= t_pfa",
        decreasing and silver_above and corrected_above,
    )


def test_criterion_06_flat_limit():
    worst = 0.0
    for gap in (0.1e-6, 0.5e-6, 1.0e-6):
        geom = ArcGeometry(radius=1.0, half_span=HALF_SPAN, gap=gap)
        value = arc_energy(geom, PFA)
        reference = -ARC_COEF * (2.0 * HALF_SPAN) / gap**3
        worst = max(worst, abs(value - reference) / abs(reference))
    check(
        6,
        "meter-radius arc matches the uniform-separation closed form within 1e-3",
        worst <= 1e-3,
        f"worst rel {worst:.2e}",
    )


def test_criterion_07_elasticity_identities():
    geom = ArcGeometry(radius=RADIUS, half_span=HALF_SPAN, gap=GAP_MIN)
    ratio = bending_energy(GOLD, 20e-9, geom) / bending_energy(GOLD, 10e-9, geom)
    cubic_exact = ratio == 8.0

    D = 1e-14
    tensor_value = strain_energy_density(D, GOLD.poisson_ratio, CurvatureTensor.arc(RADIUS))
    cylinder_value = D / (2.0 * RADIUS**2)
    tensor_rel = abs(tensor_value - cylinder_value) / cylinder_value

    closed_length = 2.0 * RADIUS * math.asin(HALF_SPAN / RADIUS)
    length_rel = abs(geom.arc_length() - closed_length) / closed_length

    check(
        7,
        "cubic thickness ratio exactly 8; tensor energy equals the cylindrical "
        "form; arc length matches 2R*asin within 1e-9",
        cubic_exact and tensor_rel <= 1e-14 and length_rel <= 1e-9,
        f"ratio-8 exact {cubic_exact}, tensor rel {tensor_rel:.2e}, "
        f"length rel {length_rel:.2e}",
    )


def test_criterion_08_parallel_plate_anchor():
    value = parallel_plate_pressure(1e-6)
    target = -1.3002e-3
    rel = abs(value - target) / abs(target)
    check(
        8,
        "plate pressure at 1 um equals -1.3002e-3 Pa within 0.1%",
        rel <= 1e-3,
        f"value {value:.6e} Pa, rel {rel:.2e}",
    )


def test_criterion_09_sphere_plate_linearity():
    # Linearity in R is bitwise for power-of-two factors; the 100:1 ratio of
    # the decimal inputs 100e-6 and 1e-6 is not an exact float ratio, so
    # "exactly 100" is pinned at <= 3 ulp of 100.
    worst = 0.0
    for gap in (0.05e-6, 0.1e-6, 0.2345e-6, 0.77e-6):
        ratio = sphere_plate_energy(100e-6, gap) / sphere_plate_energy(1e-6, gap)
        worst = max(worst, abs(ratio - 100.0))
    bitwise = sphere_plate_energy(200e-6, 0.3e-6) == 2.0 * sphere_plate_energy(
        100e-6, 0.3e-6
    )
    check(
        9,
        "energy ratio for radii 100:1 equals 100 (<= 3 ulp) and doubling the "
        "radius is bitwise exact",
        worst <= 3.0 * math.ulp(100.0) and bitwise,
        f"worst |ratio-100| {worst:.2e}",
    )


def test_criterion_10_thin_plate_consistency(default_sweep):
    table, _ = default_sweep
    span = 6e-6
    ok = all(
        thin_plate_check(row.thickness[(mat, model)], span, span).passed
        for row in table.rows
        for mat in ("gold", "silver")
        for model in ("pfa", "ntlo")
    )
    check(10, "every swept thickness passes the tenth rule against 6 um spans", ok)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    argv = ["sweep", "--points", "100", "--gap-min", "0.1um", "--gap-max", "1um"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    file_argv = argv[:-4]
    assert cli_main(file_argv + ["--out", str(out_a)]) == 0
    assert cli_main(file_argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    files_identical = out_a.read_bytes() == out_b.read_bytes()

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    exit_codes = {
        "bare length": cli_main(["sweep", "--gap-min", "0.1"]),
        "gap order": cli_main(["sweep", "--gap-min", "1um", "--gap-max", "0.1um"]),
        "unknown material": cli_main(["sweep", "--points", "2", "--materials", "x"]),
        "contact gap": cli_main(["energy", "--geometry", "arc", "--gap", "40nm"]),
        "bad config": cli_main(["materials", "list", "--materials-file", str(bad_json)]),
        "missing config": cli_main(
            ["materials", "list", "--materials-file", str(tmp_path / "nope.json")]
        ),
    }
    capsys.readouterr()
    expected = {
        "bare length": 2,
        "gap order": 2,
        "unknown material": 2,
        "contact gap": 3,
        "bad config": 4,
        "missing config": 4,
    }
    codes_ok = exit_codes == expected
    check(
        11,
        "identical flags give byte-identical CSV (stdout and file); malformed "
        "inputs exit with the documented codes",
        first == second and files_identical and codes_ok,
        f"codes {exit_codes}",
    )


def test_sidecar_metadata_records_the_run(tmp_path, capsys):
    # not a numbered criterion: guards the documented sidecar contract used
    # when citing a CSV
    out = tmp_path / "s.csv"
    assert cli_main(["sweep", "--points", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "s.meta.json").read_text())
    assert record["schema_version"] == "2"
    assert record["metadata"]["constants"]["c_m_per_s"] == 299792458.0
    assert len(record["rows"]) == 3
