"""Command-line interface: parsing, outputs, exit codes, determinism.

Everything runs in-process through main(argv) except the subprocess checks:
`python -m arcplate`, the `arcplate` console script declared in
pyproject.toml, launched by name through the same launcher pip writes on
install, the import of arcplate.cli without numpy, and the stderr of
commands that must not warn about materials they do not use. All import the
arcplate package this suite imported, so none needs an install.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
import warnings
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcplate
import arcplate.analysis
from arcplate import (
    NTLO,
    PFA,
    ArcGeometry,
    SweepConfig,
    material_by_name,
    run_sweep,
    scaled_ntlo,
)
from arcplate.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_USAGE,
    _column_names,
    _render_sweep,
    main,
    material_key,
    parse_length,
    parse_model,
    parse_models,
)

EXPECTED_HEADER = "gap_m,u_pfa_J_per_m,u_ntlo_J_per_m,t_max_au_m,t_max_ag_m,delta"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Decimal exponent of each unit's size in metres.
UNIT_EXPONENTS = {"pm": -12, "nm": -9, "um": -6, "µm": -6, "mm": -3, "cm": -2, "m": 0}


class TestParseLength:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1m", 1.0),
            ("1cm", 1e-2),
            ("1mm", 1e-3),
            ("1.5mm", 1.5e-3),
            ("100um", 1e-4),  # 100 * 1e-6 would round twice, to 9.999999999999999e-05
            ("100µm", 1e-4),
            ("6um", 6e-6),
            ("0.1um", 1e-7),
            ("10nm", 1e-8),
            ("5pm", 5e-12),
            ("1e-1um", 1e-7),
            ("+2nm", 2e-9),
            (" 3nm ", 3e-9),  # the literal 3e-9, not float(3) * 1e-9
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_length(text) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        mantissa=st.from_regex(r"[+-]?(\d{1,20}(\.\d{0,20})?|\.\d{1,20})", fullmatch=True),
        exponent=st.integers(-340, 320),
        unit=st.sampled_from(sorted(UNIT_EXPONENTS)),
    )
    def test_unit_shifts_the_exponent(self, mantissa, exponent, unit):
        import argparse

        shifted = float(f"{mantissa}e{exponent + UNIT_EXPONENTS[unit]}")
        if math.isinf(shifted):
            with pytest.raises(argparse.ArgumentTypeError, match="overflows a double"):
                parse_length(f"{mantissa}e{exponent}{unit}")
        elif shifted == 0.0 and float(mantissa) != 0.0:
            with pytest.raises(argparse.ArgumentTypeError, match="underflows a double"):
                parse_length(f"{mantissa}e{exponent}{unit}")
        else:
            assert parse_length(f"{mantissa}e{exponent}{unit}") == shifted
        assert parse_length(f"{mantissa}{unit}") == float(
            f"{mantissa}e{UNIT_EXPONENTS[unit]}"
        )

    @pytest.mark.parametrize(
        "text",
        ["100", "0.1", "nm", "abc", "1.5.2um", "0.1 um", "1km", "1fm", "", "1e400m", "-2e308m"],
    )
    def test_rejected(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_length(text)


class TestParseModel:
    def test_plain(self):
        assert parse_model("pfa") is PFA
        assert parse_model("NTLO") is NTLO

    def test_scaled(self):
        assert parse_model("scaled-ntlo:0.1") == scaled_ntlo(0.1)

    def test_list(self):
        assert parse_models("ntlo,pfa") == (NTLO, PFA)

    @pytest.mark.parametrize(
        "text", ["nlo", "scaled-ntlo", "scaled-ntlo:", "scaled-ntlo:x", "scaled-ntlo:1.5"]
    )
    def test_rejected(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_model(text)


class TestMaterialKey:
    def test_builtin_tokens(self):
        assert material_key("gold") == "au"
        assert material_key("Silver") == "ag"

    def test_custom_name_sanitized(self):
        assert material_key("My Alloy 2") == "my_alloy_2"


class TestSweep:
    def test_stdout_csv_shape(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--points", "5")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 6
        assert err == ""

    def test_values_round_trip_to_the_library(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "3")
        assert code == EXIT_OK
        cfg = SweepConfig(
            gap_min=parse_length("0.1um"),
            gap_max=parse_length("1um"),
            points=3,
            radius=parse_length("100um"),
            half_span=parse_length("6um") / 2.0,
            materials=(material_by_name("gold"), material_by_name("silver")),
            models=(PFA, NTLO),
        )
        table = run_sweep(cfg)
        for line, row in zip(out.splitlines()[1:], table.rows):
            gap, u_pfa, u_ntlo, t_au, t_ag, delta = map(float, line.split(","))
            assert gap == row.gap
            assert u_pfa == row.energies["pfa"]
            assert u_ntlo == row.energies["ntlo"]
            assert t_au == row.thickness[("gold", "ntlo")]
            assert t_ag == row.thickness[("silver", "ntlo")]
            assert delta == row.delta

    def test_stdout_deterministic(self, capsys):
        argv = ("sweep", "--points", "7", "--gap-min", "0.2um", "--gap-max", "0.9um")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_file_output_with_sidecar(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--points", "4", "--out", str(out_csv)
        )
        assert code == EXIT_OK
        assert "wrote 4 rows" in out
        assert out_csv.read_text().splitlines()[0] == EXPECTED_HEADER

        sidecar = tmp_path / "sweep.meta.json"
        record = json.loads(sidecar.read_text())
        assert record["schema_version"] == "2"
        assert record["command"].startswith("arcplate sweep")
        assert len(record["rows"]) == 4
        first = record["rows"][0]
        for key in (
            "gap_m",
            "u_pfa_J_per_m",
            "u_ntlo_J_per_m",
            "t_max_au_pfa_m",
            "t_max_au_ntlo_m",
            "t_max_ag_pfa_m",
            "t_max_ag_ntlo_m",
            "delta",
        ):
            assert key in first
        meta = record["metadata"]
        assert meta["constants"] == {
            "hbar_J_s": 1.054571817e-34,
            "c_m_per_s": 299792458.0,
        }
        assert "quadrature" not in meta
        assert meta["geometry"]["points"] == 4
        assert meta["geometry"]["arc_length_m"] > 0.0
        assert meta["models"] == ["pfa", "ntlo"]
        assert meta["csv_file"] == "sweep.csv"
        datetime.fromisoformat(meta["timestamp_utc"])  # parseable

    def test_file_bodies_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--points", "6", "--out", str(p)
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_degenerate_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--points", "1",
            "--gap-min", "0.5um",
            "--gap-max", "0.5um",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == parse_length("0.5um")

    def test_model_order_controls_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--points", "2", "--models", "ntlo,pfa"
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "gap_m,u_ntlo_J_per_m,u_pfa_J_per_m,t_max_au_m,t_max_ag_m,delta"

    def test_single_model_drops_delta(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "2", "--models", "ntlo")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "gap_m,u_ntlo_J_per_m,t_max_au_m,t_max_ag_m"

    def test_scaled_model_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--points", "2", "--models", "ntlo,scaled-ntlo:0.1"
        )
        assert code == EXIT_OK
        assert "u_scaled_ntlo_0.1_J_per_m" in out.splitlines()[0]

    def test_pfa_and_scaled_zero_are_two_columns(self, capsys):
        # equal weights, equal energies, but two distinct models
        code, out, _ = run_cli(
            capsys, "sweep", "--points", "3", "--models", "pfa,scaled-ntlo:0"
        )
        assert code == EXIT_OK
        header, *rows = out.splitlines()
        columns = header.split(",")
        pfa = columns.index("u_pfa_J_per_m")
        scaled = columns.index("u_scaled_ntlo_0_J_per_m")
        assert len(rows) == 3
        for row in rows:
            values = row.split(",")
            assert values[pfa] == values[scaled]

    def test_close_scaled_models_are_two_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "2", "--models",
                               "scaled-ntlo:0.3,scaled-ntlo:0.30000001", "--materials", "gold")
        assert code == EXIT_OK
        header, *rows = out.splitlines()
        columns = header.split(",")
        assert columns[1:3] == ["u_scaled_ntlo_0.3_J_per_m", "u_scaled_ntlo_0.30000001_J_per_m"]
        assert all(row.split(",")[1] != row.split(",")[2] for row in rows)

    def test_gap_order_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--gap-min", "1um", "--gap-max", "0.1um"
        )
        assert code == EXIT_USAGE
        assert err.strip() == "error: gap-min exceeds gap-max"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--gap-min", "0.1"),  # bare number
            ("sweep", "--points", "0"),
            ("sweep", "--models", "pfa,pfa"),
            ("sweep", "--models", "nlo"),
            ("sweep", "--materials", "copper"),
            ("sweep", "--points", "1000001"),  # above MAX_POINTS
            ("sweep", "--quad-rtol", "1e-10"),  # quadrature flags no longer exist
            ("energy", "--geometry", "arc", "--gap", "0.1um", "--quad-order", "64"),
            ("sweep", "--gap-max", "1e400m", "--points", "3"),  # overflows a double
            ("validate", "--gap", "1e400m"),
            ("energy", "--geometry", "parallel", "--gap", "1e-400m"),  # underflows to 0
            ("sweep", "--gap-min", "1e-400m", "--points", "2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_USAGE

    def test_contact_gap_is_a_physics_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--points", "2", "--gap-min", "40nm", "--gap-max", "1um"
        )
        assert code == EXIT_PHYSICS
        assert "error:" in err

    def test_gap_at_half_radius_is_a_physics_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--gap-min", "40um", "--gap-max", "60um", "--points", "3"
        )
        assert code == EXIT_PHYSICS
        assert "gap/radius" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sweep", "--gap-min", "0um", "--points", "2"), "gap must be positive, got 0.0"),
            # with "=", argparse takes -1um as the value and not as an option
            (("sweep", "--gap-min=-1um", "--points", "2"), "gap must be positive, got -1e-06"),
            (("energy", "--geometry", "parallel", "--gap", "0um"),
             "plate separation must be positive, got 0.0"),
            (("validate", "--gap", "0um"), "gap must be positive, got 0.0"),
            (("sweep", "--gap-max=-1um", "--points", "2"), "gap must be positive, got -1e-06"),
            (("sweep", "--gap-max", "0um", "--points", "2"), "gap must be positive, got 0.0"),
        ],
    )
    def test_non_positive_gap_is_a_physics_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PHYSICS
        assert err == f"error: {message}\n"
        assert out == ""

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--points", "2",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert code == EXIT_CONFIG
        assert "error:" in err


class TestSweepOutputContract:
    """The CSV and the sidecar are written from one formatting of each value."""

    CASES = {
        "default": ((), "ntlo"),
        "many-models": (
            ("--points", "30",
             "--models", "pfa,ntlo," + ",".join(f"scaled-ntlo:{k / 10}" for k in range(1, 10)),
             "--materials", "gold,silver,My Alloy-2"),
            "ntlo",
        ),
        "one-model": (("--points", "5", "--models", "scaled-ntlo:0.5"), "scaled_ntlo_0.5"),
        "one-point": (("--points", "1", "--gap-min", "0.3um", "--gap-max", "0.3um"), "ntlo"),
    }

    @pytest.fixture(params=sorted(CASES))
    def outputs(self, request, capsys, tmp_path):
        argv, reference = self.CASES[request.param]
        materials = tmp_path / "materials.json"
        materials.write_text(
            '[{"name": "My Alloy-2", "youngs_modulus_pa": 50e9, "poisson_ratio": 0.3}]'
        )
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "sweep", *argv, "--materials-file", str(materials), "--out", str(out)
        )
        assert code == EXIT_OK
        return out.read_text(), (tmp_path / "s.meta.json").read_text(), reference

    def test_sidecar_is_indent2_json(self, outputs):
        _, sidecar, _ = outputs
        assert sidecar == json.dumps(json.loads(sidecar), indent=2) + "\n"

    def test_csv_cells_are_the_sidecar_strings(self, outputs):
        csv_text, sidecar, reference = outputs
        header, *lines = csv_text.splitlines()
        rows = json.loads(sidecar, parse_float=str)["rows"]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            for name, cell in zip(header.split(","), line.split(",")):
                if name.startswith("t_max_"):
                    name = f"{name[:-2]}_{reference}_m"
                assert row[name] == cell

    def test_non_finite_values_are_written_as_json_writes_them(self):
        cfg = SweepConfig(
            gap_min=1e-7, gap_max=1e-7, points=1, radius=1e-4, half_span=3e-6,
            materials=(material_by_name("gold"),), models=(PFA, NTLO),
        )
        # gap, u_pfa, u_ntlo, t_max[gold, pfa], t_max[gold, ntlo], delta
        values = [1e-7, -math.inf, math.nan, math.inf, 1e-9, math.nan]
        csv_text, rows_json = _render_sweep(_column_names(cfg), [[value] for value in values])
        assert csv_text.splitlines()[1] == "1e-07,-inf,nan,1e-09,nan"
        keys = ["gap_m", "u_pfa_J_per_m", "u_ntlo_J_per_m", "t_max_au_pfa_m",
                "t_max_au_ntlo_m", "delta"]
        expected = json.dumps({"rows": [dict(zip(keys, values))]}, indent=2)
        assert expected == '{\n  "rows": ' + rows_json + "\n}"


class TestSweepColumns:
    """sweep renders the columns of one evaluation per gap, without rows."""

    def test_builds_no_row_and_one_integral_per_gap(self, monkeypatch, capsys, tmp_path):
        def no_rows(*args, **kwargs):
            raise AssertionError("sweep built a SweepRow")

        calls = []
        integrals = ArcGeometry._integrals

        def counted(geom, gap):
            calls.append(gap)
            return integrals(geom, gap)

        monkeypatch.setattr(arcplate.analysis, "SweepRow", no_rows)
        monkeypatch.setattr(ArcGeometry, "_integrals", counted)
        code, _, _ = run_cli(capsys, "sweep", "--points", "17", "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_OK
        cfg = SweepConfig(
            gap_min=parse_length("0.1um"), gap_max=parse_length("1um"), points=17,
            radius=1e-4, half_span=3e-6, materials=(material_by_name("gold"),), models=(PFA,),
        )
        assert calls == cfg.gaps()


class TestMaterialWarnings:
    """stderr names no material that the command does not use."""

    def run(self, tmp_path, *argv):
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run(
            [sys.executable, "-m", "arcplate", *argv],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )

    def test_gold_sweep_is_quiet(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--materials", "gold", "--points", "2",
                          "--out", "g.csv")
        assert result.returncode == EXIT_OK
        assert result.stderr == ""

    def test_rejected_points_build_no_material(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--points", "2000000")
        assert result.returncode == EXIT_USAGE
        assert result.stderr == "error: points must lie in [1, 1,000,000], got 2000000\n"

    def test_non_positive_gap_builds_no_material(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--gap-min", "0um", "--points", "2")
        assert result.returncode == EXIT_PHYSICS
        assert result.stderr == "error: gap must be positive, got 0.0\n"

    def test_show_gold_is_quiet(self, tmp_path):
        result = self.run(tmp_path, "materials", "show", "gold")
        assert result.returncode == EXIT_OK
        assert result.stderr == ""

    def test_unused_file_entry_is_quiet(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '[{"name": "rubber", "youngs_modulus_pa": 1e6, "poisson_ratio": 0.6}]'
        )
        result = self.run(tmp_path, "sweep", "--materials", "gold", "--points", "2",
                          "--materials-file", "r.json", "--out", "g.csv")
        assert result.returncode == EXIT_OK
        assert result.stderr == ""

    def test_unused_invalid_file_entry_is_rejected(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '[{"name": "rubber", "youngs_modulus_pa": 1e6, "poisson_ratio": 1.6}]'
        )
        result = self.run(tmp_path, "sweep", "--materials", "gold", "--points", "2",
                          "--materials-file", "r.json", "--out", "g.csv")
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == (
            'error: r.json, entry 0 (rubber): "poisson_ratio" must lie in (-1, 1), got 1.6\n'
        )
        assert not (tmp_path / "g.csv").exists()

    def test_default_sweep_warns_about_silver_once(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--points", "2", "--out", "d.csv")
        assert result.returncode == EXIT_OK
        assert result.stderr.count("MaterialWarning") == 1
        assert "silver: poisson ratio 0.517" in result.stderr

    def test_warning_is_one_line(self, tmp_path):
        """The CLI shows a warning without the package's path or source line."""
        result = self.run(tmp_path, "sweep", "--points", "2", "--out", "d.csv")
        assert result.returncode == EXIT_OK
        assert result.stderr == (
            "MaterialWarning: silver: poisson ratio 0.517 exceeds the isotropic bulk "
            "limit 0.5; accepted as a thin-film value\n"
        )

    def test_warning_filters_apply(self, tmp_path):
        env = subprocess_env()
        env["PYTHONWARNINGS"] = "ignore"
        result = subprocess.run(
            [sys.executable, "-m", "arcplate", "sweep", "--points", "2", "--out", "d.csv"],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )
        assert result.returncode == EXIT_OK
        assert result.stderr == ""

    def test_main_restores_the_warning_display(self, tmp_path):
        shown = warnings.showwarning
        assert main(["sweep", "--points", "2", "--out", str(tmp_path / "d.csv")]) == EXIT_OK
        assert warnings.showwarning is shown


class TestEnergy:
    def parse(self, out):
        return json.loads(out)

    def test_arc_default_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--geometry", "arc", "--gap", "0.1um"
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["kind"] == "arc"
        assert row["model"] == "ntlo"
        assert row["quantity"] == "energy"
        assert row["value_J_per_m"] == pytest.approx(-2.5524781950288447e-12, rel=1e-9)
        assert set(row) == {"kind", "model", "value_J_per_m", "quantity"}

    def test_arc_explicit_model(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "energy",
            "--geometry", "arc",
            "--gap", "0.1um",
            "--model", "scaled-ntlo:0.1",
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["model"] == "scaled-ntlo(0.1)"
        assert row["value_J_per_m"] == pytest.approx(-2.5517788798678456e-12, rel=1e-9)

    def test_arc_model_label_keeps_every_digit(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--geometry", "arc", "--gap", "0.1um",
                               "--model", "scaled-ntlo:0.30000001")
        assert code == EXIT_OK
        assert self.parse(out)["rows"][0]["model"] == "scaled-ntlo(0.30000001)"

    def test_quantity_choices_and_help(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--help")
        assert code == EXIT_OK
        assert "[--quantity {energy,pressure,energy-density,force}]" in out
        assert ("--quantity {energy,pressure,energy-density,force} arc: energy; parallel: "
                "pressure|energy-density; sphere: energy|force") in " ".join(out.split())

    def test_parallel_pressure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "energy",
            "--geometry", "parallel",
            "--gap", "1um",
            "--quantity", "pressure",
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["value_Pa"] == pytest.approx(-0.0013001257724477536, rel=1e-12)

    def test_parallel_defaults_to_pressure(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--geometry", "parallel", "--gap", "1um"
        )
        assert code == EXIT_OK
        assert self.parse(out)["rows"][0]["quantity"] == "pressure"

    def test_parallel_energy_density(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "energy",
            "--geometry", "parallel",
            "--gap", "1um",
            "--quantity", "energy-density",
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["value_J_per_m2"] == pytest.approx(-1.3794762888415247e-10, rel=1e-12)

    def test_sphere_energy(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--geometry", "sphere", "--gap", "0.1um"
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["quantity"] == "energy"
        assert row["value_J"] == pytest.approx(-1.3614885251548723e-17, rel=1e-12)

    def test_sphere_force(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "energy",
            "--geometry", "sphere",
            "--gap", "0.1um",
            "--quantity", "force",
        )
        assert code == EXIT_OK
        row = self.parse(out)["rows"][0]
        assert row["value_N"] == pytest.approx(-2.7229770503097444e-10, rel=1e-12)

    def test_quantity_geometry_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "energy",
            "--geometry", "arc",
            "--gap", "0.1um",
            "--quantity", "pressure",
        )
        assert code == EXIT_USAGE
        assert "not available" in err

    def test_contact_gap(self, capsys):
        code, _, _ = run_cli(
            capsys, "energy", "--geometry", "arc", "--gap", "40nm"
        )
        assert code == EXIT_PHYSICS

    def test_arc_gap_at_half_radius(self, capsys):
        code, out, err = run_cli(capsys, "energy", "--geometry", "arc", "--gap", "60um")
        assert code == EXIT_PHYSICS
        assert "gap/radius" in err
        assert out == ""

    def test_sphere_gap_beyond_radius(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "energy",
            "--geometry", "sphere",
            "--r", "1um",
            "--gap", "2um",
        )
        assert code == EXIT_PHYSICS

    def test_missing_gap_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "energy", "--geometry", "arc")
        assert code == EXIT_USAGE


class TestOutOfDoubleRange:
    """Arc geometries whose integrals, bending coefficient or thickness leave
    the range of a double, and plate and sphere separations whose closed
    forms do, exit 3 with a message, not 0 with nan, inf or -0.0 and not 1
    with a traceback."""

    @pytest.mark.parametrize(
        "geometry,gap",
        [
            (("--r", "1um", "--span", "2e-106m"), "5e-107m"),  # 4R/g**3 overflows
            (("--r", "1um", "--span", "2e-60m"), "1e-110m"),  # g**3 underflows to 0
            (("--r", "1e200m", "--span", "1m"), "1mm"),  # R**2 and (B + 1)**2 overflow
            (("--r", "1e-170m", "--span", "1e-175m"), "1e-172m"),  # R**2 underflows to 0
            (("--r", "1e200m", "--span", "1e170m"), "1um"),  # R**2 and y_max**2 overflow
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("sweep", "--points", "1", "--gap-min", "{gap}", "--gap-max", "{gap}"),
            ("energy", "--geometry", "arc", "--gap", "{gap}"),
            ("energy", "--geometry", "arc", "--model", "pfa", "--gap", "{gap}"),
        ],
    )
    def test_physics_error(self, capsys, command, geometry, gap):
        argv = [arg.format(gap=gap) for arg in command] + list(geometry)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.startswith("error: ") and "double" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--geometry", "parallel", "--gap", "1e-90m"),  # d**4 underflows to 0
            ("--geometry", "parallel", "--gap", "1e90m"),  # d**4 overflows
            ("--geometry", "parallel", "--quantity", "energy-density", "--gap", "1e-110m"),
            ("--geometry", "sphere", "--r", "1e300m", "--gap", "1e200m"),  # d * d overflows
            ("--geometry", "sphere", "--quantity", "force", "--r", "1e300m", "--gap", "1e200m"),
        ],
    )
    def test_closed_form_physics_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "energy", *argv)
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.startswith("error: ") and "double" in err


def length_texts(near: int) -> st.SearchStrategy[str]:
    """Length flag values in every unit: three in five within a decade of
    10**near m, the rest 1e-320 to 1e308 m, or nan, inf, -0, negatives and
    malformed numbers."""
    def lengths(low: int, high: int) -> st.SearchStrategy[str]:
        return st.builds(
            lambda digits, exponent, unit: f"{digits}e{exponent - UNIT_EXPONENTS[unit]}{unit}",
            st.sampled_from(["1", "2.5", "9.99", "1.0000001", ".5"]),
            st.integers(low, high),
            st.sampled_from(sorted(UNIT_EXPONENTS)),
        )

    odd = st.sampled_from([
        "nan", "nanum", "inf", "infm", "-infnm", "-0um", "-0", "0m", "-1um", "-3e-7m",
        "1..2um", "um", "1e", "1eum", "0x10nm", "", "1 um", "1um1", "1e400m", "1e-400m",
        "1e99999999999999999999m", "١um",
    ])
    return st.integers(0, 4).flatmap(
        lambda k: (lengths(-320, 308), odd)[k] if k < 2 else lengths(near - 1, near)
    )


def sweep_argvs() -> st.SearchStrategy[list[str]]:
    """`sweep` argument lists: lengths, points 1 to 5, model and material
    lists, mostly valid."""
    def tokens(valid: list[str], invalid: list[str]) -> st.SearchStrategy[str]:
        return st.integers(0, 2).flatmap(
            lambda k: st.lists(st.sampled_from(valid + invalid if k == 2 else valid),
                               min_size=1, max_size=3)
        ).map(",".join)

    options = {
        "--r": length_texts(-4),
        "--span": length_texts(-5),
        "--gap-min": length_texts(-7),
        "--gap-max": length_texts(-6),
        "--models": tokens(["pfa", "ntlo", "scaled-ntlo:0.5", "scaled-ntlo:0"],
                           ["scaled-ntlo:2", "scaled-ntlo:nan", "scaled-ntlo:x", "nlo", ""]),
        "--materials": tokens(["gold", "silver"], ["GOLD", "copper", ""]),
    }
    points = st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(["0", "x", "-1"]) if k == 9 else st.integers(1, 5).map(str)
    )
    # --points is always given, so the default grid of 1000 gaps is never run
    flags = st.fixed_dictionaries({"--points": points}, optional=options)
    return flags.map(lambda values: [f"{name}={value}" for name, value in values.items()])


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.load's object_pairs_hook for an object with no repeated key."""
    keys = [key for key, _ in pairs]
    assert len(set(keys)) == len(keys), keys
    return dict(pairs)


def numbers(text: str) -> list[float]:
    """Every token of the text that float() reads, nan and inf included."""
    found = []
    for token in re.split(r"[\s,;:=\[\]{}()\"]+", text):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


class TestSweepFuzz:
    """Any sweep argv exits 0, 2, 3 or 4, without a traceback, and writes only
    finite numbers on success."""

    @settings(max_examples=500, deadline=None)
    @given(argv=sweep_argvs(), to_file=st.booleans())
    def test_exit_codes_and_finite_output(self, argv, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "s.csv"
            argv = ["sweep", *argv, *(["--out", str(out)] if to_file else [])]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_PHYSICS, EXIT_CONFIG), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code != EXIT_OK:
                return
            written = [stdout.getvalue().replace(tmp, "")]
            if to_file:
                sidecar = json.loads(out.with_name("s.meta.json").read_text())
                written += [out.read_text(), json.dumps(sidecar)]
            for text in written:
                assert all(map(math.isfinite, numbers(text))), text


def json_values() -> st.SearchStrategy[object]:
    """Any JSON value, nested up to a few levels."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=8,
    )


def mostly(usual: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """usual three times in four, else rare. Hypothesis draws the low end of
    a range most often, so usual sits there."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else usual)


def material_entries() -> st.SearchStrategy[object]:
    """Materials-file entries: mostly valid ones, else near-valid ones with a
    field missing, unknown, of the wrong type or any number, or any JSON
    value."""
    fields = {
        "name": st.sampled_from(["foil", "Foil ", "gold", "Silver", "Au"]),
        "youngs_modulus_pa": st.floats(1e8, 1e12),
        "poisson_ratio": st.floats(-0.9, 0.6),
    }
    optional = {"sigma_e_pa": st.floats(0.0, 1e10), "sigma_nu": st.floats(0.0, 0.1)}
    entries = st.fixed_dictionaries(fields, optional=optional)
    odd = st.one_of(
        st.sampled_from(["", " ", "70e9", None, True, [1.0], {"x": 1}, 10**400, 1e-320, 1e300]),
        st.floats(), st.integers(),
    )

    def broken(entry: dict, k: int, field: str, value: object) -> dict:
        entry = dict(entry)
        if k == 0:
            entry.pop(field, None)  # missing
        elif k == 1:
            entry[field.upper()] = 1.0  # unknown
        else:
            entry[field] = value  # wrong type or value
        return entry

    near = st.builds(broken, entries, st.integers(0, 2),
                     st.sampled_from(sorted(fields) + sorted(optional)), odd)
    return mostly(entries, near | json_values())


def materials_files() -> st.SearchStrategy[str]:
    """Materials-file texts: mostly arrays of entries, else any JSON
    document or text that is not JSON."""
    return mostly(st.lists(material_entries(), min_size=1, max_size=3).map(json.dumps),
                  json_values().map(json.dumps) | st.sampled_from(["", "[", "{]", "nul"]))


def flag_argvs(required: dict, optional: dict) -> st.SearchStrategy[list[str]]:
    flags = st.fixed_dictionaries(required, optional=optional)
    return flags.map(lambda values: [f"{name}={value}" for name, value in values.items()])


def energy_argvs() -> st.SearchStrategy[list[str]]:
    """`energy` argument lists: every geometry, quantity and model, lengths,
    mostly valid."""
    quantities = {"arc": ["energy"], "parallel": ["pressure", "energy-density"],
                  "sphere": ["energy", "force"]}

    def argvs(geometry: str) -> st.SearchStrategy[list[str]]:
        return flag_argvs({"--geometry": st.just(geometry), "--gap": length_texts(-7)}, {
            "--r": length_texts(-4),
            "--span": length_texts(-5),
            "--quantity": mostly(st.sampled_from(quantities.get(geometry, ["energy"])),
                                 st.sampled_from(["force", "pressure", "power", ""])),
            "--model": mostly(st.sampled_from(["pfa", "ntlo", "scaled-ntlo:0.5", "scaled-ntlo:0"]),
                              st.sampled_from(["scaled-ntlo:2", "scaled-ntlo:nan", "nlo"])),
        })

    geometries = mostly(st.sampled_from(sorted(quantities)), st.sampled_from(["cone", ""]))
    return geometries.flatmap(argvs).map(lambda argv: ["energy", *argv])


def validate_argvs() -> st.SearchStrategy[list[str]]:
    """`validate` argument lists, with and without --thickness and --span-b."""
    return flag_argvs({}, {
        "--r": length_texts(-4),
        "--span": length_texts(-5),
        "--gap": length_texts(-7),
        "--thickness": length_texts(-8),
        "--span-b": length_texts(-5),
    }).map(lambda argv: ["validate", *argv])


def materials_argvs() -> st.SearchStrategy[list[str]]:
    """`materials list` and `materials show NAME`."""
    names = st.sampled_from(["gold", "silver", "foil", "GOLD", " Foil ", "copper", "", "a b"])
    return st.one_of(st.just(["materials", "list"]),
                     names.map(lambda name: ["materials", "show", name]))


def file_names(text: str) -> list[str]:
    """The names a materials-file text gives its entries, one spelling per
    case-insensitive name, or none when the text is not a JSON array."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return []
    entries = doc if isinstance(doc, list) else []
    names = [entry.get("name") for entry in entries if isinstance(entry, dict)]
    return list({name.strip().lower(): name for name in names
                 if isinstance(name, str) and name.strip()}.values())


def sweep_file_cases() -> st.SearchStrategy[tuple[list[str], str | None]]:
    """(`sweep` argument list, materials-file text or None): the arguments as
    sweep_argvs draws them, and mostly materials that the drawn file defines
    (the builtins without a file), else any of a few names, some of which no
    file defines; gold and Au share the column token au."""
    def cases(text: str | None) -> st.SearchStrategy[tuple[list[str], str | None]]:
        defined = file_names(text) if text is not None else ["gold", "silver"]
        names = mostly(st.lists(st.sampled_from(defined or ["foil"]), min_size=1, max_size=3,
                                unique=True).map(",".join),
                       st.lists(st.sampled_from(["gold", "silver", "foil", "b", "Au"]),
                                min_size=1, max_size=3).map(",".join))
        return st.tuples(sweep_argvs(), names).map(
            lambda parts: (["sweep", *parts[0], f"--materials={parts[1]}"], text)
        )

    return mostly(materials_files(), st.none()).flatmap(cases)


class TestCommandFuzz:
    """Any argv of any command, with or without a materials file of random
    JSON where the command reads one, exits 0, 2, 3 or 4, without a
    traceback, and on success writes only finite numbers and names each CSV
    column and sidecar key once."""

    @settings(max_examples=500, deadline=None)
    @given(
        # (argv, materials-file text or None); sweep twice: fewest of its
        # draws reach exit 0
        case=st.one_of(*(st.tuples(argvs, mostly(materials_files(), st.none()))
                         for argvs in (energy_argvs(), validate_argvs(), materials_argvs())),
                       sweep_file_cases(), sweep_file_cases()),
        to_file=st.booleans(),
    )
    # gold and Au share the column token au: the random draws reach this rarely
    @example(case=(["sweep", "--points=2", "--materials=gold,Au"],
                   '[{"name": "Au", "youngs_modulus_pa": 79e9, "poisson_ratio": 0.4}]'),
             to_file=True)
    def test_exit_codes_and_finite_output(self, case, to_file):
        argv, materials = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "s.csv"
            sweep = argv[0] == "sweep"
            if materials is not None and argv[0] in ("sweep", "materials"):
                (Path(tmp) / "m.json").write_text(materials)
                argv = [*argv, f"--materials-file={Path(tmp) / 'm.json'}"]
            if sweep and to_file:
                argv = [*argv, "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_PHYSICS, EXIT_CONFIG), stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if code != EXIT_OK:
                return
            written = [stdout.getvalue().replace(tmp, "")]
            if sweep and to_file:
                sidecar = json.loads(out.with_name("s.meta.json").read_text(),
                                     object_pairs_hook=unique_keys)
                written += [out.read_text(), json.dumps(sidecar)]
            if sweep:
                csv_text = out.read_text() if to_file else stdout.getvalue()
                header = csv_text.split("\n", 1)[0].split(",")
                assert len(set(header)) == len(header), header
            for text in written:
                assert all(map(math.isfinite, numbers(text))), text


class TestValidate:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == EXIT_OK
        assert "status = pass" in out
        assert "result: pass" in out

    def test_warn_zone_still_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--gap", "6um")
        assert code == EXIT_OK
        assert "status = warn" in out
        assert "result: pass (with warnings)" in out

    def test_hard_ratio_fails(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--gap", "60um")
        assert code == EXIT_PHYSICS
        assert "status = fail" in out
        assert "FAIL" in err

    def test_thick_membrane_fails(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--thickness", "1um")
        assert code == EXIT_PHYSICS
        assert "VIOLATED" in out
        assert "thin-plate" in err

    def test_second_span(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--span-b", "50nm")
        assert code == EXIT_PHYSICS
        assert "thin-plate" in err

    def test_contact_gap(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--gap", "40nm")
        assert code == EXIT_PHYSICS
        assert "error:" in err

    def test_gap_at_radius(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--gap", "200um")
        assert code == EXIT_PHYSICS
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--gap", "0.1um", "--r", "1e308m", "--span", "1e308m"),
            ("--r", "1e200m", "--span", "1e170m", "--gap", "1um"),  # sagitta 1.25e139 m
        ],
    )
    def test_sagitta_out_of_double_range(self, capsys, argv):
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.startswith("error: sagitta at radius ") and "double" in err


class TestMaterials:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "materials", "list")
        assert code == EXIT_OK
        assert "gold" in out
        assert "silver" in out
        assert "9.7e+10" in out

    def test_show_gold(self, capsys):
        code, out, _ = run_cli(capsys, "materials", "show", "gold")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row == {
            "name": "gold",
            "youngs_modulus_pa": 97e9,
            "poisson_ratio": 0.421,
            "sigma_e_pa": 10e9,
            "sigma_nu": 0.06,
        }

    def test_show_silver_omits_missing_sigmas(self, capsys):
        code, out, _ = run_cli(capsys, "materials", "show", "silver")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert "sigma_e_pa" not in row
        assert "sigma_nu" not in row

    def test_show_unknown(self, capsys):
        code, _, err = run_cli(capsys, "materials", "show", "copper")
        assert code == EXIT_USAGE
        assert "copper" in err


class TestMaterialsFile:
    def write(self, tmp_path, content):
        path = tmp_path / "materials.json"
        path.write_text(content, encoding="utf-8")
        return str(path)

    def test_override_builtin(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            '[{"name": "gold", "youngs_modulus_pa": 90e9, "poisson_ratio": 0.4}]',
        )
        code, out, _ = run_cli(
            capsys, "materials", "show", "gold", "--materials-file", path
        )
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["youngs_modulus_pa"] == 90e9
        assert "sigma_e_pa" not in row  # the override replaces, not merges

    def test_new_material_in_sweep(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            '[{"name": "mylar", "youngs_modulus_pa": 3.5e9, "poisson_ratio": 0.38}]',
        )
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--points", "2",
            "--materials", "mylar",
            "--materials-file", path,
        )
        assert code == EXIT_OK
        assert "t_max_mylar_m" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "entries,materials,token",
        [
            (["Au"], "gold,Au", "au"),
            (["a-b", "a_b"], "a-b,a_b", "a_b"),
            (["Ä", "Ö"], "Ä,Ö", "material"),
        ],
        ids=["builtin", "punctuation", "non-ascii"],
    )
    def test_materials_sharing_a_column_token(self, capsys, tmp_path, entries, materials, token):
        path = self.write(tmp_path, json.dumps(
            [{"name": name, "youngs_modulus_pa": 79e9, "poisson_ratio": 0.4} for name in entries]
        ))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "sweep", "--points", "2", "--materials", materials,
                               "--materials-file", path, "--out", str(out))
        first, second = materials.split(",")
        assert code == EXIT_USAGE
        assert f"{first!r} and {second!r} share the column token {token!r}" in err
        assert not out.exists()

    def test_empty_array_keeps_builtins(self, capsys, tmp_path):
        path = self.write(tmp_path, "[]")
        code, out, _ = run_cli(capsys, "materials", "list", "--materials-file", path)
        assert code == EXIT_OK
        assert "gold" in out and "silver" in out

    @pytest.mark.parametrize(
        "content,needle",
        [
            ('[{"name": "x", "poisson_ratio": 0.3}]', "youngs_modulus_pa"),
            (
                '[{"name": "x", "youngs_modulus_pa": -1, "poisson_ratio": 0.3}]',
                "youngs_modulus_pa",
            ),
            (
                '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 2}]',
                "poisson_ratio",
            ),
            (
                '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                ' "young_modulus": 1}]',
                "unknown field",
            ),
            (
                '[{"name": "x", "youngs_modulus_pa": true, "poisson_ratio": 0.3}]',
                "must be a number",
            ),
            (
                '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                ' "sigma_nu": -0.1}]',
                "sigma_nu",
            ),
            (
                '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                ' "sigma_e_pa": NaN}]',
                "sigma_e_pa",
            ),
            ('{"name": "x"}', "array"),
            ("{", "not valid JSON"),
        ],
    )
    def test_config_errors(self, capsys, tmp_path, content, needle):
        path = self.write(tmp_path, content)
        code, _, err = run_cli(capsys, "materials", "list", "--materials-file", path)
        assert code == EXIT_CONFIG
        assert needle in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "materials", "list",
            "--materials-file", str(tmp_path / "nope.json"),
        )
        assert code == EXIT_CONFIG
        assert "cannot read" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# distlib's SCRIPT_TEMPLATE: the body pip writes for each [project.scripts]
# entry when it installs a package.
LAUNCHER_TEMPLATE = """\
#!{executable}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)


def subprocess_env(bin_dir=None):
    """The caller's environment, with PYTHONPATH leading to the arcplate this
    suite imported and, if given, `bin_dir` at the front of PATH."""
    env = dict(os.environ)
    package_parent = str(Path(arcplate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


class TestPackaging:
    @pytest.mark.parametrize(
        "module",
        ["arcplate", "arcplate.casimir", "arcplate.geometry", "arcplate.analysis",
         "arcplate.elasticity"],
    )
    def test_public_names_resolve(self, module):
        """Every public name is a plain attribute, made without a module
        __getattr__, so a star import gets them all."""
        namespace = vars(importlib.import_module(module))
        for name in namespace["__all__"]:
            assert name in namespace, name
        exec(f"from {module} import *", {})

    def test_public_annotations_resolve(self):
        for name in arcplate.__all__:
            obj = getattr(arcplate, name)
            if inspect.isclass(obj):
                methods = [value for key, value in vars(obj).items()
                           if inspect.isfunction(value) and (key == "__init__" or key[0] != "_")]
            else:
                methods = [obj] if inspect.isfunction(obj) else []
            for method in methods:
                typing.get_type_hints(method)

    def test_sources_parse_at_the_python_floor(self):
        """Every module parses with the grammar of the oldest Python that
        pyproject.toml admits, which rejects newer syntax such as except*."""
        floor = re.fullmatch(r">=(\d+)\.(\d+)", load_pyproject()["project"]["requires-python"])
        version = (int(floor[1]), int(floor[2]))
        for path in sorted(Path(arcplate.__file__).parent.glob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)

    def test_version_matches_pyproject(self):
        assert arcplate.__version__ == load_pyproject()["project"]["version"]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The `arcplate` entry in pyproject's [project.scripts], written as
        the launcher pip installs, runs `arcplate sweep` as a shell command."""
        module, func = load_pyproject()["project"]["scripts"]["arcplate"].split(":")
        launcher = tmp_path / "arcplate"
        launcher.write_text(
            LAUNCHER_TEMPLATE.format(executable=sys.executable, module=module, func=func)
        )
        launcher.chmod(0o755)
        result = subprocess.run(
            ["arcplate", "sweep", "--points", "2"],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(bin_dir=tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == EXPECTED_HEADER, result.stderr

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "arcplate", "materials", "list"],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert "gold" in result.stdout

    def test_import_leaves_numpy_out(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import arcplate.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "command",
        [
            "import arcplate.cli",
            "from arcplate.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['energy', '--geometry', 'arc', '--gap', '0.1um']) == 0",
        ],
        ids=["import", "energy-arc"],
    )
    def test_import_adds_no_dataclasses_inspect_or_numpy(self, command):
        """Checks the modules that importing arcplate.cli, or running a
        command, adds, so that a module the site preloads does not count
        against it."""
        script = (
            "import contextlib, io, sys\nbefore = set(sys.modules)\n" + command
            + "\nprint(' '.join(sorted(set(sys.modules) - before)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert result.returncode == 0, result.stderr
        added = set(result.stdout.split())
        assert "arcplate.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "numpy"}
