"""Material table, bending stiffness, strain energy, thin-plate rule."""

import math
import warnings

import pytest

from arcplate import (
    ArcGeometry,
    CurvatureTensor,
    Material,
    MaterialNotFoundError,
    MaterialWarning,
    NonPositiveThicknessError,
    bending_energy,
    bending_stiffness,
    builtin_materials,
    material_by_name,
    strain_energy_density,
    thin_plate_check,
)

R = 100e-6
Y_MAX = 3e-6
GEOM = ArcGeometry(radius=R, half_span=Y_MAX, gap=0.1e-6)


def gold() -> Material:
    return material_by_name("gold")


def silver() -> Material:
    return material_by_name("silver")


class TestMaterialTable:
    def test_gold_values(self):
        au = gold()
        assert au.youngs_modulus == 97e9
        assert au.poisson_ratio == 0.421
        assert au.sigma_e == 10e9
        assert au.sigma_nu == 0.06

    def test_silver_values(self):
        ag = silver()
        assert ag.youngs_modulus == 83.6e9
        assert ag.poisson_ratio == 0.517
        assert ag.sigma_e is None
        assert ag.sigma_nu is None

    def test_builtins_are_fresh_lists(self):
        pool = builtin_materials()
        assert [m.name for m in pool] == ["gold", "silver"]
        pool.clear()
        assert len(builtin_materials()) == 2

    @pytest.mark.parametrize("name", ["gold", "GOLD", " Gold "])
    def test_lookup_is_case_insensitive(self, name):
        assert material_by_name(name).name == "gold"

    def test_lookup_in_custom_pool(self):
        pool = [Material("mylar", youngs_modulus=3.5e9, poisson_ratio=0.38)]
        assert material_by_name("Mylar", pool).youngs_modulus == 3.5e9
        with pytest.raises(MaterialNotFoundError):
            material_by_name("gold", pool)

    @pytest.mark.parametrize("name", ["gold", " GOLD "])
    def test_lookup_builds_only_the_match(self, name):
        # building silver would warn about its thin-film Poisson ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert material_by_name(name) == Material(
                "gold", youngs_modulus=97e9, poisson_ratio=0.421, sigma_e=10e9, sigma_nu=0.06
            )

    def test_unknown_material(self):
        with pytest.raises(MaterialNotFoundError, match="copper"):
            material_by_name("copper")

    def test_plane_strain_modulus(self):
        assert gold().plane_strain_modulus == pytest.approx(
            117896005999.32666, rel=1e-12
        )
        assert silver().plane_strain_modulus == pytest.approx(
            114096826716.12682, rel=1e-12
        )


class TestMaterialValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", youngs_modulus=1e9, poisson_ratio=0.3),
            dict(name="x", youngs_modulus=0.0, poisson_ratio=0.3),
            dict(name="x", youngs_modulus=-1e9, poisson_ratio=0.3),
            dict(name="x", youngs_modulus=math.inf, poisson_ratio=0.3),
            dict(name="x", youngs_modulus=math.nan, poisson_ratio=0.3),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=1.0),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=-1.0),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=1.5),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_e=-1.0),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_nu=-0.1),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_e=math.nan),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_e=math.inf),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_nu=math.nan),
            dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3, sigma_nu=math.inf),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Material(**kwargs)

    def test_poisson_above_half_warns_but_constructs(self):
        with pytest.warns(MaterialWarning, match="isotropic bulk limit"):
            mat = Material("x", youngs_modulus=1e9, poisson_ratio=0.51)
        assert mat.poisson_ratio == 0.51

    def test_builtin_silver_triggers_the_same_warning(self):
        with pytest.warns(MaterialWarning, match="silver"):
            builtin_materials()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: material_by_name("silver"),
            builtin_materials,
            lambda: Material("x", youngs_modulus=1e9, poisson_ratio=0.6),
        ],
    )
    def test_warning_names_the_caller(self, build):
        with pytest.warns(MaterialWarning) as record:
            build()
        assert [w.filename for w in record] == [__file__]


class TestBendingStiffness:
    def test_frozen_values_at_10nm(self):
        assert bending_stiffness(gold(), 10e-9) == pytest.approx(
            9.824667166610557e-15, rel=1e-12
        )
        assert bending_stiffness(silver(), 10e-9) == pytest.approx(
            9.50806889301057e-15, rel=1e-12
        )

    def test_cubic_in_thickness_bitwise(self):
        au = gold()
        assert bending_stiffness(au, 20e-9) == 8.0 * bending_stiffness(au, 10e-9)

    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    def test_rejects_nonpositive_thickness(self, bad):
        with pytest.raises(NonPositiveThicknessError):
            bending_stiffness(gold(), bad)


class TestStrainEnergyDensity:
    D = 1e-14
    NU = 0.3

    def test_arc_tensor_matches_cylindrical_form(self):
        u = strain_energy_density(self.D, self.NU, CurvatureTensor.arc(R))
        assert u == pytest.approx(self.D / (2.0 * R**2), rel=1e-14)

    def test_flat_tensor_is_zero(self):
        assert strain_energy_density(self.D, self.NU, CurvatureTensor.flat()) == 0.0

    def test_spherical_cap(self):
        # equal principal curvatures c: u = D c^2 (1 + nu)
        c = 1.0 / R
        u = strain_energy_density(self.D, self.NU, CurvatureTensor(c, 0.0, c))
        assert u == pytest.approx(self.D * c * c * (1.0 + self.NU), rel=1e-14)

    def test_pure_twist(self):
        # k12 only: u = D (1 - nu) k12^2
        c = 2.0e3
        u = strain_energy_density(self.D, self.NU, CurvatureTensor(0.0, c, 0.0))
        assert u == pytest.approx(self.D * (1.0 - self.NU) * c * c, rel=1e-14)

    def test_twist_sign_invariance(self):
        plus = strain_energy_density(self.D, self.NU, CurvatureTensor(1e3, 5e2, -2e3))
        minus = strain_energy_density(self.D, self.NU, CurvatureTensor(1e3, -5e2, -2e3))
        assert plus == minus

    def test_zero_stiffness_gives_zero(self):
        assert strain_energy_density(0.0, self.NU, CurvatureTensor.arc(R)) == 0.0

    def test_negative_stiffness_rejected(self):
        with pytest.raises(ValueError):
            strain_energy_density(-1e-15, self.NU, CurvatureTensor.arc(R))

    def test_tensor_validation(self):
        with pytest.raises(ValueError):
            CurvatureTensor(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            CurvatureTensor(0.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            CurvatureTensor.arc(0.0)

    def test_arc_constructor_entries(self):
        k = CurvatureTensor.arc(R)
        assert k.k11 == 1.0 / R
        assert k.k12 == 0.0
        assert k.k22 == 0.0


class TestBendingEnergy:
    def test_frozen_values_at_10nm(self):
        assert bending_energy(gold(), 10e-9, GEOM) == pytest.approx(
            2.9478424391562077e-12, rel=1e-9
        )
        assert bending_energy(silver(), 10e-9, GEOM) == pytest.approx(
            2.852848704380803e-12, rel=1e-9
        )

    def test_cubic_ratio_is_exactly_eight(self):
        au = gold()
        assert bending_energy(au, 20e-9, GEOM) == 8.0 * bending_energy(au, 10e-9, GEOM)

    def test_tripling_scales_by_27(self):
        au = gold()
        assert bending_energy(au, 30e-9, GEOM) == pytest.approx(
            27.0 * bending_energy(au, 10e-9, GEOM), rel=1e-15
        )

    def test_silver_bends_more_easily(self):
        # lower plane-strain modulus despite the higher Poisson ratio
        assert bending_energy(silver(), 10e-9, GEOM) < bending_energy(
            gold(), 10e-9, GEOM
        )

    def test_strictly_increasing_in_thickness(self):
        au = gold()
        values = [bending_energy(au, t, GEOM) for t in (1e-9, 2e-9, 5e-9, 10e-9)]
        assert all(0.0 < a < b for a, b in zip(values, values[1:]))

    def test_independent_reconstruction(self):
        # D/(2 R^2) times the closed-form arc length, assembled by hand
        au = gold()
        t = 7e-9
        length = 2.0 * R * math.asin(Y_MAX / R)
        expected = bending_stiffness(au, t) / (2.0 * R * R) * length
        assert bending_energy(au, t, GEOM) == pytest.approx(expected, rel=1e-9)


class TestThinPlateCheck:
    def test_default_case_passes(self):
        report = thin_plate_check(10e-9, 6e-6, 6e-6)
        assert report.passed
        assert report.ok_a and report.ok_b
        assert report.ratio_a == pytest.approx(10e-9 / 6e-6, rel=1e-12)
        assert report.ratio_b == pytest.approx(10e-9 / 6e-6, rel=1e-12)

    def test_boundary_is_strict(self):
        # exactly one tenth of the span fails: the bound is t < span/10
        report = thin_plate_check(0.1, 1.0, 1.0)
        assert not report.ok_a
        assert not report.passed

    def test_one_span_failing_fails_overall(self):
        report = thin_plate_check(10e-9, 6e-6, 50e-9)
        assert report.ok_a
        assert not report.ok_b
        assert not report.passed

    def test_thick_plate_fails(self):
        assert not thin_plate_check(1e-6, 6e-6, 6e-6).passed

    def test_ratio_fields(self):
        report = thin_plate_check(1e-8, 6e-6, 3e-6)
        assert report.ratio_b == pytest.approx(2.0 * report.ratio_a, rel=1e-12)

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(NonPositiveThicknessError):
            thin_plate_check(0.0, 6e-6, 6e-6)

    @pytest.mark.parametrize("spans", [(0.0, 6e-6), (6e-6, -1e-6)])
    def test_rejects_nonpositive_spans(self, spans):
        with pytest.raises(ValueError):
            thin_plate_check(10e-9, *spans)
