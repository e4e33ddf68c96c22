"""Critical thickness closed form and the gap sweep."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcplate.analysis
from arcplate import (
    NTLO,
    PFA,
    ArcGeometry,
    ArcPlateError,
    ContactViolationError,
    Material,
    NonFiniteResultError,
    NonNegativeEnergyError,
    PfaViolationError,
    SweepConfig,
    ZeroReferenceError,
    arc_energy,
    bending_energy,
    critical_thickness,
    fractional_deviation,
    material_by_name,
    run_sweep,
    scaled_ntlo,
)
from arcplate.analysis import MAX_CELLS, MAX_POINTS, _bending_coefficient
from oracles import reference_sweep

R = 100e-6
Y_MAX = 3e-6
GEOM = ArcGeometry(radius=R, half_span=Y_MAX, gap=0.1e-6)

GOLD = material_by_name("gold")
SILVER = material_by_name("silver")

# cube root of the plane-strain modulus ratio gold/silver
THICKNESS_RATIO_AG_AU = 1.0109783195493502


def config(**overrides) -> SweepConfig:
    base = dict(
        gap_min=0.1e-6,
        gap_max=1.0e-6,
        points=25,
        radius=R,
        half_span=Y_MAX,
        materials=(GOLD, SILVER),
        models=(PFA, NTLO),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestCriticalThickness:
    def test_frozen_value(self):
        assert critical_thickness(-1.39e-15, GOLD, GEOM) == pytest.approx(
            7.783414834538175e-10, rel=1e-12
        )

    def test_cube_root_scaling(self):
        t1 = critical_thickness(-1.39e-15, GOLD, GEOM)
        t2 = critical_thickness(-2.78e-15, GOLD, GEOM)
        assert t2 == pytest.approx(t1 * 2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_material_ratio_frozen(self):
        u = -1.39e-15
        ratio = critical_thickness(u, SILVER, GEOM) / critical_thickness(u, GOLD, GEOM)
        assert ratio == pytest.approx(THICKNESS_RATIO_AG_AU, rel=1e-12)

    def test_material_ratio_is_energy_independent(self):
        ratios = [
            critical_thickness(u, SILVER, GEOM) / critical_thickness(u, GOLD, GEOM)
            for u in (-1e-12, -1e-15, -1e-18)
        ]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-14)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(log_t=st.floats(-10.0, -6.0), mat=st.sampled_from([GOLD, SILVER]))
    @example(log_t=-9.933755364603387, mat=SILVER)  # the worst of 40,000 draws: 1.38e-15
    def test_cube_root_is_within_2e_15_of_exact(self, log_t, mat):
        """The thickness is within 2e-15 of the exact cube root of its
        rounded quotient -u / C. Raising to the rounded 1/3 costs up to
        1.39e-15 for thicknesses of 0.1 nm to 1 um; math.cbrt would cost
        5.2e-16 (ROADMAP item 17)."""
        coef = _bending_coefficient(mat, GEOM.arc_length(), GEOM.radius)
        u = -coef * (10.0**log_t) ** 3
        with mp.workdps(40):
            exact = mp.cbrt(mp.mpf(-u) / mp.mpf(coef))
            assert abs(mp.mpf(critical_thickness(u, mat, GEOM)) / exact - 1) <= 2e-15

    @pytest.mark.parametrize("bad", [0.0, 1e-15, math.nan])
    def test_rejects_nonnegative_energy(self, bad):
        with pytest.raises(NonNegativeEnergyError):
            critical_thickness(bad, GOLD, GEOM)

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_nonnegative_energy_message(self, bad):
        with pytest.raises(NonNegativeEnergyError) as info:
            critical_thickness(bad, GOLD, GEOM)
        assert str(info.value) == f"need an attractive (negative) energy, got {bad}"

    def test_overflowing_thickness_message(self):
        with pytest.raises(NonFiniteResultError) as info:
            critical_thickness(-1.0, Material("x", youngs_modulus=1e-313, poisson_ratio=0.3), GEOM)
        assert str(info.value) == "critical thicknesses [inf] m leave the range of a double"

    @pytest.mark.parametrize(
        "u,mat,geom",
        [
            # radius**2 overflows in the bending coefficient
            (-1e-15, GOLD, ArcGeometry(radius=1e200, half_span=0.5, gap=1e-3)),
            # E L underflows to a zero bending coefficient
            (-1e-15, Material("x", youngs_modulus=1e-320, poisson_ratio=0.3), GEOM),
            # |u| / C overflows
            (-1.0, Material("x", youngs_modulus=1e-313, poisson_ratio=0.3), GEOM),
            # |u| / C underflows to zero
            (-1e-300, Material("x", youngs_modulus=1e300, poisson_ratio=0.3), GEOM),
            # radius**2 underflows to zero in the bending coefficient
            (-1e-15, GOLD, ArcGeometry(radius=1e-170, half_span=5e-176, gap=1e-172)),
        ],
    )
    def test_rejects_results_out_of_double_range(self, u, mat, geom):
        with pytest.raises(NonFiniteResultError):
            critical_thickness(u, mat, geom)

    @pytest.mark.parametrize("mat", [GOLD, SILVER])
    def test_round_trips_through_bending_energy(self, mat):
        # at the critical thickness the bending energy equals |U|
        u = arc_energy(GEOM, NTLO)
        t = critical_thickness(u, mat, GEOM)
        assert bending_energy(mat, t, GEOM) == pytest.approx(abs(u), rel=1e-9)

    def test_monotone_in_energy_magnitude(self):
        t_weak = critical_thickness(-1e-16, GOLD, GEOM)
        t_strong = critical_thickness(-1e-15, GOLD, GEOM)
        assert 0.0 < t_weak < t_strong


class TestFractionalDeviation:
    def test_identical_is_zero(self):
        assert fractional_deviation(5e-9, 5e-9) == 0.0

    def test_per_mille(self):
        assert fractional_deviation(1.001, 1.0) == pytest.approx(1e-3, rel=1e-12)
        assert fractional_deviation(0.999, 1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_not_symmetric(self):
        assert fractional_deviation(2.0, 1.0) == 1.0
        assert fractional_deviation(1.0, 2.0) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_reference(self, bad):
        with pytest.raises(ZeroReferenceError):
            fractional_deviation(1.0, bad)


class TestSweepConfig:
    def test_gap_grid(self):
        gaps = config().gaps()
        assert len(gaps) == 25
        assert gaps[0] == 0.1e-6
        assert gaps[-1] == 1.0e-6
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_sequences_coerced_to_tuples(self):
        cfg = config(materials=[GOLD], models=[NTLO])
        assert isinstance(cfg.materials, tuple)
        assert isinstance(cfg.models, tuple)

    def test_single_point_grid(self):
        cfg = config(gap_min=0.5e-6, gap_max=0.5e-6, points=1)
        assert list(cfg.gaps()) == [0.5e-6]

    @pytest.mark.parametrize("points", [1, 3])
    def test_integer_bounds_give_float_gaps(self, points):
        gaps = config(gap_min=1, gap_max=2, points=points).gaps()
        assert all(type(g) is float for g in gaps)

    @pytest.mark.parametrize(
        "gap_min,gap_max,points",
        [(0.1e-6, 1e-6, 1), (0.1e-6, 1e-6, 2), (0.1e-6, 1e-6, 25), (0.1e-6, 1e-6, 1000),
         (0.3e-6, 0.3e-6, 7), (4.5e-8, 5.9e-8, 150),
         (0.1e-6, 0.9e-6, 14)],  # here gap_min + 13*step falls short of gap_max
    )
    def test_gap_grid_matches_linspace(self, gap_min, gap_max, points):
        gaps = config(gap_min=gap_min, gap_max=gap_max, points=points).gaps()
        expected = np.linspace(gap_min, gap_max, points).tolist()
        assert [g.hex() for g in gaps] == [g.hex() for g in expected]

    def test_points_cap(self):
        assert config(points=MAX_POINTS).points == MAX_POINTS  # grid not built
        with pytest.raises(ValueError, match="points"):
            config(points=MAX_POINTS + 1)

    def test_cells_cap(self):
        """A sweep has 1 + M + N*M columns, plus delta with a comparison, for
        M models and N materials: 800,000 points of 10 columns are MAX_CELLS
        cells and pass, 888,889 of 9 are one more and are refused."""
        models = (PFA, NTLO, scaled_ntlo(0.1), scaled_ntlo(0.2))
        assert config(points=800_000, materials=(GOLD,), models=models).points == 800_000
        assert 800_000 * 10 == MAX_CELLS
        with pytest.raises(ValueError, match="888,889 x 9 = 8,000,001"):
            config(points=888_889, materials=(GOLD,), models=(NTLO, *models[2:], scaled_ntlo(0.3)))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(gap_min=0.0),
            dict(gap_min=2e-6),  # exceeds gap_max
            dict(gap_max=math.inf),
            dict(points=0),
            dict(materials=()),
            dict(models=()),
            dict(materials=(GOLD, GOLD)),
            dict(models=(PFA, PFA)),
            dict(models=(PFA,), comparison=(PFA, NTLO)),
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            config(**overrides)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(points=0), "points must lie in [1, 1,000,000], got 0"),
            (dict(gap_min=1e-6, gap_max=0.1e-6), "gap-min exceeds gap-max"),
        ],
    )
    def test_grid_messages_are_the_command_line_ones(self, overrides, message):
        with pytest.raises(ValueError) as info:
            config(**overrides)
        assert str(info.value) == message

    def test_comparison_defaults(self):
        assert config().resolved_comparison() == (PFA, NTLO)
        assert config(models=(NTLO,)).resolved_comparison() is None
        assert config(models=(PFA, scaled_ntlo(0.5))).resolved_comparison() is None
        explicit = (scaled_ntlo(0.1), NTLO)
        cfg = config(models=(NTLO, scaled_ntlo(0.1)), comparison=explicit)
        assert cfg.resolved_comparison() == explicit

    def test_reference_model(self):
        assert config().reference_model() is NTLO
        assert config(models=(NTLO,)).reference_model() is NTLO
        assert config(models=(NTLO, PFA)).reference_model() is NTLO  # pair wins
        assert config(models=(PFA, scaled_ntlo(0.5))).reference_model() == scaled_ntlo(
            0.5
        )


@pytest.fixture(scope="module")
def table():
    return run_sweep(config())


class TestRunSweep:
    def test_single_point_matches_direct_evaluation(self):
        cfg = config(gap_min=0.5e-6, gap_max=0.5e-6, points=1)
        table = run_sweep(cfg)
        assert len(table.rows) == 1
        row = table.rows[0]
        geom = ArcGeometry(radius=R, half_span=Y_MAX, gap=0.5e-6)
        for model in (PFA, NTLO):
            u = arc_energy(geom, model)
            assert row.energies[model.key] == u
            assert row.thickness[("gold", model.key)] == critical_thickness(
                u, GOLD, geom
            )
        assert row.delta == fractional_deviation(
            row.thickness[("gold", "pfa")], row.thickness[("gold", "ntlo")]
        )

    def test_row_count_and_gap_order(self, table):
        assert len(table.rows) == 25
        gaps = [row.gap for row in table.rows]
        assert gaps[0] == 0.1e-6
        assert gaps[-1] == 1.0e-6
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_arc_length(self, table):
        closed = 2.0 * R * math.asin(Y_MAX / R)
        assert table.arc_length == pytest.approx(closed, rel=1e-9)

    def test_frozen_endpoint_thicknesses(self, table):
        first, last = table.rows[0], table.rows[-1]
        assert first.thickness[("gold", "ntlo")] == pytest.approx(
            9.531309919271825e-09, rel=1e-9
        )
        assert first.thickness[("silver", "ntlo")] == pytest.approx(
            9.635947685289482e-09, rel=1e-9
        )
        assert last.thickness[("gold", "ntlo")] == pytest.approx(
            7.731291073416608e-10, rel=1e-9
        )
        assert last.thickness[("silver", "ntlo")] == pytest.approx(
            7.816167657349612e-10, rel=1e-9
        )

    def test_thickness_strictly_decreasing_in_gap(self, table):
        for mat in ("gold", "silver"):
            for model in ("pfa", "ntlo"):
                ts = [row.thickness[(mat, model)] for row in table.rows]
                assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_silver_thicker_than_gold(self, table):
        for row in table.rows:
            for model in ("pfa", "ntlo"):
                assert row.thickness[("silver", model)] > row.thickness[("gold", model)]
                ratio = (
                    row.thickness[("silver", model)] / row.thickness[("gold", model)]
                )
                assert ratio == pytest.approx(THICKNESS_RATIO_AG_AU, rel=1e-10)

    def test_gradient_correction_raises_thickness(self, table):
        for row in table.rows:
            for mat in ("gold", "silver"):
                assert row.thickness[(mat, "ntlo")] > row.thickness[(mat, "pfa")]

    def test_delta_small_and_material_independent(self, table):
        for row in table.rows:
            assert row.delta is not None
            assert 0.0 < row.delta < 1e-3
            delta_ag = fractional_deviation(
                row.thickness[("silver", "pfa")], row.thickness[("silver", "ntlo")]
            )
            assert abs(row.delta - delta_ag) < 1e-12

    def test_frozen_first_row_delta(self, table):
        assert table.rows[0].delta == pytest.approx(1.0148251295870646e-4, rel=1e-6)

    def test_scaled_comparison(self):
        cfg = config(
            models=(NTLO, scaled_ntlo(0.1)),
            comparison=(scaled_ntlo(0.1), NTLO),
            points=5,
        )
        table = run_sweep(cfg)
        for row in table.rows:
            assert row.delta is not None
            assert row.delta < 1e-3

    def test_single_model_has_no_delta(self):
        table = run_sweep(config(models=(NTLO,), points=3))
        assert all(row.delta is None for row in table.rows)

    def test_contact_aborts(self):
        # 40 nm is below the 45 nm sagitta of the default arc
        with pytest.raises(ContactViolationError):
            run_sweep(config(gap_min=40e-9, gap_max=1e-6, points=3))

    def test_deterministic(self):
        a = run_sweep(config(points=4))
        b = run_sweep(config(points=4))
        assert a.arc_length == b.arc_length
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.gap == row_b.gap
            assert row_a.energies == row_b.energies
            assert row_a.thickness == row_b.thickness
            assert row_a.delta == row_b.delta


# The many-models mix: every model shares one arc-integral pair per gap.
MANY_MODELS = (PFA, NTLO, *(scaled_ntlo(k / 10) for k in range(1, 10)))
FOIL = Material("foil", youngs_modulus=70e9, poisson_ratio=0.35)
SAGITTA = ArcGeometry(radius=R, half_span=Y_MAX, gap=0.1e-6).sagitta


def log_uniform(low: float, high: float) -> st.SearchStrategy[float]:
    """10**x for x uniform in [low, high]."""
    return st.floats(low, high).map(lambda x: 10.0**x)


@st.composite
def sweep_configs(draw) -> SweepConfig:
    """Sweeps of 1 to 5 gaps. Most stay in range; the rest touch the arc at
    the first gap, cross gap/radius 0.5 at a later one, or take radii, spans
    and Young's moduli whose integrals, bending coefficients or thicknesses
    leave the range of a double."""
    radius = draw(st.one_of(log_uniform(-7, 3), log_uniform(-8, 150)))
    half_span = radius * draw(log_uniform(-8, math.log10(0.9)))
    sagitta = half_span**2 / (radius + math.sqrt(radius**2 - half_span**2))  # as ArcGeometry's
    gap_min = sagitta * draw(st.one_of(log_uniform(0.001, 4), log_uniform(-0.3, 8)))
    gap_max = radius * draw(st.one_of(log_uniform(-9, 0.3), st.floats(0.3, 2.0)))
    # the metals' decade, the subnormal moduli that overflow thicknesses, the
    # huge ones that underflow them, and anything in between
    moduli = st.integers(0, 3).flatmap(
        lambda k: [log_uniform(8, 12), log_uniform(-323, -300), log_uniform(250, 300),
                   log_uniform(-313, 300)][k]
    )
    materials = [
        Material(f"m{i}", youngs_modulus=draw(moduli), poisson_ratio=draw(st.floats(-0.9, 0.49)))
        for i in range(draw(st.integers(1, 3)))
    ]
    return SweepConfig(
        gap_min=gap_min,
        gap_max=max(gap_min, gap_max),
        points=draw(st.integers(1, 5)),
        radius=radius,
        half_span=half_span,
        materials=materials,
        models=draw(st.lists(st.sampled_from(MANY_MODELS[:4]), min_size=1, max_size=4,
                             unique=True)),
    )


class TestSweepKernel:
    """run_sweep against a direct, per-value evaluation of every row."""

    @pytest.mark.parametrize(
        "gap_min,gap_max,points",
        [(0.1e-6, 1.0e-6, 60), (1.0001 * SAGITTA, 1.3 * SAGITTA, 60)],
        ids=["default-range", "near-contact"],
    )
    def test_rows_equal_direct_evaluation(self, gap_min, gap_max, points):
        cfg = config(
            gap_min=gap_min, gap_max=gap_max, points=points,
            models=MANY_MODELS, materials=(GOLD, SILVER, FOIL),
        )
        table = run_sweep(cfg)
        assert [row.gap for row in table.rows] == cfg.gaps()
        for row in table.rows:
            geom = ArcGeometry(radius=R, half_span=Y_MAX, gap=row.gap)
            energies = {m.key: arc_energy(geom, m) for m in MANY_MODELS}
            thickness = {
                (mat.name, key): critical_thickness(u, mat, geom)
                for mat in (GOLD, SILVER, FOIL)
                for key, u in energies.items()
            }
            assert row.energies == energies
            assert row.thickness == thickness
            assert row.delta == fractional_deviation(
                thickness[("gold", "pfa")], thickness[("gold", "ntlo")]
            )
        assert table.arc_length == GEOM.arc_length()

    @pytest.mark.parametrize("models", [(NTLO,), (PFA, NTLO), MANY_MODELS])
    def test_one_arc_integral_per_gap(self, monkeypatch, models):
        calls, batches = [], []  # every gap evaluated; one entry per call
        integrals = ArcGeometry._integrals

        def counted(geom, gaps):
            calls.extend(gaps)
            batches.append(len(gaps))
            return integrals(geom, gaps)

        monkeypatch.setattr(ArcGeometry, "_integrals", counted)
        cfg = config(points=17, models=models, materials=(GOLD, SILVER, FOIL))
        run_sweep(cfg)
        assert calls == cfg.gaps()
        assert batches == [cfg.points]

    def test_one_arc_integral_per_gap_of_a_failing_sweep(self, monkeypatch):
        calls, batches = [], []  # every gap evaluated; one entry per call
        integrals = ArcGeometry._integrals

        def counted(geom, gaps):
            calls.extend(gaps)
            batches.append(len(gaps))
            return integrals(geom, gaps)

        monkeypatch.setattr(ArcGeometry, "_integrals", counted)
        # the last gap reaches gap/radius 0.5: no gap before it is evaluated again
        cfg = config(points=17, gap_max=0.5 * R, materials=(GOLD, SILVER, FOIL))
        with pytest.raises(PfaViolationError):
            run_sweep(cfg)
        assert calls == cfg.gaps()
        assert batches == [cfg.points]

    @pytest.mark.parametrize("points", [1, 17, 1000])
    def test_one_geometry_per_sweep(self, monkeypatch, points):
        built = []

        def counted(**kwargs):
            built.append(kwargs["gap"])
            return ArcGeometry(**kwargs)

        monkeypatch.setattr(arcplate.analysis, "ArcGeometry", counted)
        cfg = config(points=points)
        run_sweep(cfg)
        assert built == [cfg.gap_min]

    # Each message as the sweep gave it when every gap built its own
    # ArcGeometry: the first gap in grid order that fails decides.
    @pytest.mark.parametrize(
        "overrides,error,message",
        [
            (dict(gap_min=40e-9, points=1000), ContactViolationError,
             "gap 4e-08 m does not clear the sagitta 4.50101e-08 m; "
             "the arc would touch the plate"),
            (dict(gap_min=10e-6, gap_max=60e-6, points=6), PfaViolationError,
             "gap/radius = 0.5 >= 0.5; the arc energy is not evaluated beyond "
             "the proximity approximation's hard threshold"),
            (dict(gap_min=10e-6, gap_max=120e-6, points=2), PfaViolationError,
             "gap/radius = 1.2 >= 1; the local parallel-plate picture has no "
             "meaning here"),
            (dict(radius=1e-6, half_span=1e-106, gap_min=5e-107, gap_max=5e-107, points=1),
             NonFiniteResultError,
             "arc integrals at radius 1e-06 m, gap 5e-107 m out of double range"),
            (dict(radius=1e200, half_span=0.5, gap_min=1e-3, gap_max=1e-3, points=1),
             NonFiniteResultError,
             "gold: bending coefficient 0.0 J/m^4 at radius 1e+200 m is not a positive double"),
            (dict(radius=1e-170, half_span=5e-176, gap_min=1e-172, gap_max=1e-172, points=1),
             NonFiniteResultError,
             "gold: bending coefficient 0.0 J/m^4 at radius 1e-170 m is not a positive double"),
            (dict(radius=1e-6, half_span=1e-9, gap_min=1e-12, gap_max=1e-12, points=1,
                  materials=(Material("x", youngs_modulus=1e-313, poisson_ratio=0.3),)),
             NonFiniteResultError,
             "critical thicknesses [inf, inf] m leave the range of a double"),
            # the thicknesses overflow at the first gap, before the second
            # reaches gap/radius = 0.6
            (dict(radius=1e-6, half_span=1e-9, gap_min=1e-12, gap_max=0.6e-6, points=2,
                  materials=(Material("x", youngs_modulus=1e-313, poisson_ratio=0.3),)),
             NonFiniteResultError,
             "critical thicknesses [inf, inf] m leave the range of a double"),
            # the thicknesses underflow at the first gap; the second gap's
            # energies underflow to -0.0, so a check of whole energy columns
            # first would report that gap's arc energy instead
            (dict(radius=1e12, half_span=1e-265, gap_min=1e6, gap_max=1e11, points=2,
                  materials=(Material("x", youngs_modulus=1e308, poisson_ratio=0.3),)),
             NonFiniteResultError,
             "critical thicknesses [0.0, 0.0] m leave the range of a double"),
            # the energy underflows to -0.0: arc_energy's error, not a sign
            (dict(radius=1e12, half_span=1e-265, gap_min=1e11, gap_max=1e11, points=1,
                  materials=(GOLD,)),
             NonFiniteResultError,
             "arc energy at radius 1000000000000.0 m, gap 100000000000.0 m out of double range"),
        ],
        ids=["contact", "half-radius", "past-radius", "integrals", "bending",
             "bending-underflow", "thickness", "thickness-before-half-radius",
             "thickness-before-sign", "energy-underflow"],
    )
    def test_error_messages(self, overrides, error, message):
        with pytest.raises(error) as info:
            run_sweep(config(**overrides))
        assert type(info.value) is error
        assert str(info.value) == message

    @settings(max_examples=500, deadline=None)
    @given(sweep_configs())
    @example(config(radius=1e12, half_span=1e-265, gap_min=1e11, gap_max=1e11, points=1))
    def test_rows_and_errors_equal_row_by_row_reference(self, cfg):
        """Rows == those of the row-by-row loop, or the same first error.

        The draws cover gaps that touch the arc, later gaps past gap/radius
        0.5, integrals, bending coefficients and thicknesses out of a
        double's range, at the first gap or a later one; the example, an
        energy that underflows to -0.0."""
        try:
            rows, arc_length = reference_sweep(cfg)
        except ArcPlateError as exc:
            with pytest.raises(type(exc)) as info:
                run_sweep(cfg)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
        else:
            table = run_sweep(cfg)
            assert list(table.rows) == rows
            assert [repr(row) for row in table.rows] == [repr(row) for row in rows]
            assert table.arc_length == arc_length
            for row in table.rows:  # so the sidecar can write each value's repr
                deltas = [] if row.delta is None else [row.delta]
                values = [row.gap, *row.energies.values(), *row.thickness.values(), *deltas]
                assert all(map(math.isfinite, values)), row

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(radius=1e-6, half_span=1e-106, gap_min=5e-107, gap_max=5e-107, points=1),
            dict(radius=1e200, half_span=0.5, gap_min=1e-3, gap_max=1e-3, points=1),
            dict(radius=1e-6, half_span=1e-9, gap_min=1e-12, gap_max=1e-12, points=1,
                 materials=(Material("x", youngs_modulus=1e-313, poisson_ratio=0.3),)),
        ],
    )
    def test_out_of_double_range_aborts(self, overrides):
        with pytest.raises(NonFiniteResultError):
            run_sweep(config(**overrides))

    def test_half_radius_aborts(self):
        with pytest.raises(PfaViolationError):
            run_sweep(config(gap_min=40e-6, gap_max=60e-6, points=3))
