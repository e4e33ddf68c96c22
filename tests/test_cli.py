"""Command-line interface: parsing, outputs, exit codes, determinism.

Everything runs in-process through main(argv) except the subprocess checks:
`python -m arcplate` (whose output, files and exit code must match
main()'s, and whose exit on a closed, full or unopened stdout, buffered or
not, on a closed, full or unopened stderr, and on a FIFO given as --out is
checked), the `arcplate` console script
declared in pyproject.toml, launched by name through the same launcher pip
writes on install, the import of arcplate.cli without numpy, the stderr of
commands that must not warn about materials they do not use, and the
length-unit messages under two hash seeds. All import the
arcplate package this suite imported, so none needs an install.
"""

import ast
import contextlib
import errno
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tomllib
import tracemalloc
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
    EXIT_STDOUT_CLOSED,
    EXIT_USAGE,
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
        ["100", "0.1", "nm", "abc", "1.5.2um", "0.1 um", "1km", "1fm", "", "1e400m", "-2e308m",
         # underflows: a float of its mantissa alone reads 0.0 too
         pytest.param("0." + "0" * 400 + "1um", id="underflow-in-many-digits")],
    )
    def test_rejected(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_length(text)

    @pytest.mark.parametrize("text", ["3", "3xm"], ids=["no-unit", "unknown-unit"])
    def test_unit_list_does_not_depend_on_the_hash_seed(self, tmp_path, text):
        """Both messages that list the units list them in one order, which
        string hashing, randomised per process by PYTHONHASHSEED, cannot change."""
        stderr = []
        for seed in ("1", "2"):
            env = subprocess_env()
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-m", "arcplate", "sweep", "--gap-min", text],
                capture_output=True, timeout=60, env=env, cwd=tmp_path,
            )
            assert result.returncode == EXIT_USAGE
            stderr.append(result.stderr)
        assert stderr[0] == stderr[1]

    def test_a_long_run_of_digits_is_rejected_in_bounded_time(self, tmp_path):
        """A unit-less run of 100,000 digits exits 2 at once: the mantissa can
        split a run of digits in only one way, so rejecting it takes linear
        time, where two ways to split it took quadratic time (minutes)."""
        result = subprocess.run(
            [sys.executable, "-m", "arcplate", "validate", "--gap", "1" * 100_000],
            capture_output=True, timeout=60, env=subprocess_env(), cwd=tmp_path,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == b""


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


class TestModelEpsilon:
    """An epsilon is read as parse_length reads a length: text that names a
    nonzero number but reads as 0.0 underflows, and is a usage error."""

    @pytest.mark.parametrize("eps", ["1e-400", "0.00001E-400", "-2.5e-330",
                                     "\u0661e-400",  # an Arabic-Indic one
                                     pytest.param("0." + "0" * 400 + "1", id="many-digits")])
    def test_underflow_is_a_usage_error(self, capsys, eps):
        code, out, err = run_cli(capsys, "sweep", "--points", "2", "--models", f"scaled-ntlo:{eps}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.endswith(f"error: argument --models: epsilon {eps.lower()!r} in model "
                            f"'scaled-ntlo:{eps}' underflows a double\n")

    @pytest.mark.parametrize("eps", ["0", "0.0e5", "0e-400", "000.000"])
    def test_literal_zero_is_valid(self, capsys, eps):
        code, out, _ = run_cli(capsys, "sweep", "--points", "2", "--models", f"scaled-ntlo:{eps}",
                               "--materials", "gold")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "gap_m,u_scaled_ntlo_0_J_per_m,t_max_au_m"


    def test_negative_zero_is_zero(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--points", "2", "--materials", "gold",
                                 "--models", "scaled-ntlo:0,scaled-ntlo:-0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "duplicate" in err
        code, out, _ = run_cli(capsys, "energy", "--geometry", "arc", "--gap", "0.1um",
                               "--model", "scaled-ntlo:-0")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["model"] == "scaled-ntlo(0)"


class TestFlagDefaults:
    """A default is the text --help shows, which the flag's own type parses
    only when the flag is absent."""

    @staticmethod
    def actions(parser):
        """Every action of the parser and of its subparsers."""
        for action in parser._actions:
            yield action
            if isinstance(action.choices, dict):  # subparsers: name -> parser
                for sub in action.choices.values():
                    yield from TestFlagDefaults.actions(sub)

    def test_build_parser_parses_no_value(self, monkeypatch):
        calls = []
        for name in ("parse_length", "parse_model", "parse_models"):
            def counted(text, parse=getattr(arcplate.cli, name), name=name):
                calls.append(name)
                return parse(text)
            monkeypatch.setattr(arcplate.cli, name, counted)
        parser = arcplate.cli.build_parser()
        assert calls == []
        parser.parse_args(["sweep", "--r", "50um"])  # --r's text and the 3 lengths not given
        assert calls == ["parse_length"] * 4 + ["parse_models"] + ["parse_model"] * 2

    def test_every_default_is_a_text_a_number_or_none(self):
        defaults = [(action.dest, action.default)
                    for action in self.actions(arcplate.cli.build_parser())]
        assert ("out", "-") in defaults
        assert all(default is None or type(default) in (str, int)
                   for _, default in defaults), defaults

    def test_defaults_parse_to_their_values(self):
        parser = arcplate.cli.build_parser()
        sweep = parser.parse_args(["sweep"])
        assert (sweep.r, sweep.span, sweep.gap_min, sweep.gap_max, sweep.points, sweep.out) == (
            float("100e-6"), float("6e-6"), float("1e-7"), float("1e-6"), 1000, "-")
        assert len(sweep.models) == 2 and sweep.models[0] is PFA and sweep.models[1] is NTLO
        energy = parser.parse_args(["energy", "--geometry", "arc", "--gap", "1um"])
        assert (energy.r, energy.span, energy.gap) == (float("100e-6"), float("6e-6"), 1e-6)
        assert energy.model is NTLO
        validate = parser.parse_args(["validate"])
        assert (validate.r, validate.span, validate.gap, validate.thickness, validate.span_b) == (
            float("100e-6"), float("6e-6"), float("1e-7"), float("1e-8"), None)


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

    def test_one_cell_above_the_cap_exits_2_writing_nothing(self, capsys, monkeypatch, tmp_path):
        """888,889 points of 9 columns (the gap, 4 energies, 4 thicknesses)
        are MAX_CELLS + 1 cells: refused before any work."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "sweep", "--points", "888889", "--materials", "gold", "--models",
                       "ntlo,scaled-ntlo:0.1,scaled-ntlo:0.2,scaled-ntlo:0.3", "--out", "s.csv") == (
            EXIT_USAGE, "", "error: cells (points x columns) must be at most 8,000,000, got "
                            "888,889 x 9 = 8,000,001\n")
        assert os.listdir(tmp_path) == []

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

    def test_default_sweep_bytes(self, capsys, tmp_path, monkeypatch):
        """The default sweep's CSV and sidecar, byte for byte, timestamp aside.

        The values come from this platform's libm (glibc): another libm may
        round a transcendental differently and change the hashes. The CSV
        hash is the same under CPython 3.11 to 3.13."""
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "sweep")
        assert code == EXIT_OK
        assert run_cli(capsys, "sweep", "--out", "o.csv")[0] == EXIT_OK
        sidecar = re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""',
                         Path("o.meta.json").read_text())
        csv_hash = "e3445fc4582470345339af3592ce923466866a1cacc16687c4abf3ddf7c51d8e"
        assert hashlib.sha256(out.encode()).hexdigest() == csv_hash
        assert hashlib.sha256(Path("o.csv").read_bytes()).hexdigest() == csv_hash
        assert hashlib.sha256(sidecar.encode()).hexdigest() == (
            "5590b266684ed3d9edf4652c4892ee0f91bb80f40062ba1c0e8859628581b5cc"
        )

    def test_rows_placeholder_in_the_command_line(self, capsys, tmp_path, monkeypatch):
        """The sidecar is the record's text with the rows in place of its
        own "rows" key, which no quote of the command line or of a name can
        form: byte for byte, timestamp aside."""
        folder = tmp_path / 'd"rows": []'
        folder.mkdir()
        (folder / 'm"rows": [].json').write_text(
            '[{"name": "x\\"rows\\": []", "youngs_modulus_pa": 50e9, "poisson_ratio": 0.3}]'
        )
        monkeypatch.chdir(folder)
        argv = ("sweep", "--points", "3", "--materials", 'x"rows": []',
                "--materials-file", 'm"rows": [].json', "--out", 'o"rows": [].csv')
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        sidecar = Path('o"rows": [].meta.json').read_text()
        assert sidecar == json.dumps(json.loads(sidecar), indent=2) + "\n"
        blanked = re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""', sidecar)
        assert hashlib.sha256(blanked.encode()).hexdigest() == (
            "5737b69eef62de2ea1b8d38d87a7601037b427cada01650569990ced1f967b6a"
        )
        record = json.loads(sidecar, parse_float=str)
        assert record["metadata"]["materials"][0]["name"] == 'x"rows": []'
        header, *lines = Path('o"rows": [].csv').read_text().splitlines()
        assert header == "gap_m,u_pfa_J_per_m,u_ntlo_J_per_m,t_max_x_rows_m,delta"
        assert len(lines) == len(record["rows"]) == 3
        for line, row in zip(lines, record["rows"]):
            cells = dict(zip(header.replace("x_rows_m", "x_rows_ntlo_m").split(","),
                             line.split(",")))
            assert {key: row[key] for key in cells} == cells


class TestSweepColumns:
    """sweep renders the columns of one evaluation per gap, without rows."""

    def test_builds_no_row_and_one_integral_per_gap(self, monkeypatch, capsys, tmp_path):
        def no_rows(*args, **kwargs):
            raise AssertionError("sweep built a SweepRow")

        calls, batches = [], []  # every gap evaluated; one entry per call
        integrals = ArcGeometry._integrals

        def counted(geom, gaps):
            calls.extend(gaps)
            batches.append(len(gaps))
            return integrals(geom, gaps)

        monkeypatch.setattr(arcplate.analysis, "SweepRow", no_rows)
        monkeypatch.setattr(ArcGeometry, "_integrals", counted)
        code, _, _ = run_cli(capsys, "sweep", "--points", "17", "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_OK
        cfg = SweepConfig(
            gap_min=parse_length("0.1um"), gap_max=parse_length("1um"), points=17,
            radius=1e-4, half_span=3e-6, materials=(material_by_name("gold"),), models=(PFA,),
        )
        assert calls == cfg.gaps()
        assert batches == [cfg.points]

    def test_stdout_sweep_formats_no_sidecar_rows(self, monkeypatch, capsys):
        """Each repr a stdout sweep makes goes into one row text, its CSV line.
        Every value's repr is a string that counts the row texts it is put in,
        so a sidecar row, made of the same reprs, would count a second."""
        uses: list[int] = []  # row texts per repr, in the order the reprs are made

        class Cell(str):
            def __str__(self):  # what "%s" calls for a subclass of str
                uses[self.index] += 1
                return str.__str__(self)

        class Value(float):
            def __repr__(self):
                cell = Cell(float.__repr__(self))
                cell.index = len(uses)
                uses.append(0)
                return cell

        def values(column):
            return list(map(Value, column))

        columns = arcplate.cli._sweep_columns

        def patched(config):
            gaps, energies, thickness, delta, arc_length = columns(config)
            return (values(gaps), [values(us) for us in energies],
                    [values(ts) for ts in thickness], values(delta), arc_length)

        monkeypatch.setattr(arcplate.cli, "_sweep_columns", patched)
        code, out, _ = run_cli(capsys, "sweep", "--points", "3")
        assert code == EXIT_OK
        monkeypatch.undo()
        assert run_cli(capsys, "sweep", "--points", "3")[1] == out
        assert out.splitlines()[0] == EXPECTED_HEADER
        assert uses == [1] * 3 * 6  # 3 rows of the CSV's 6 columns

    @pytest.mark.parametrize("out", [None, "s.csv"], ids=["stdout", "out"])
    def test_formats_each_value_once_and_only_what_it_writes(
        self, monkeypatch, capsys, tmp_path, out
    ):
        """Every value of every column goes through a float whose repr counts
        its calls: a stdout sweep formats each CSV value once and no other
        column, a sweep with --out each value of every column once."""
        calls: list[int] = []  # repr calls per column, in the sidecar's order

        def counted(column):
            index = len(calls)
            calls.append(0)

            class Counted(float):
                def __repr__(self):
                    calls[index] += 1
                    return float.__repr__(self)
            return list(map(Counted, column))

        columns = arcplate.cli._sweep_columns

        def patched(config):
            gaps, energies, thickness, delta, arc_length = columns(config)
            return (counted(gaps), [counted(us) for us in energies],
                    [counted(ts) for ts in thickness], counted(delta), arc_length)

        monkeypatch.setattr(arcplate.cli, "_sweep_columns", patched)
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--points", "7", "--models", "pfa,ntlo,scaled-ntlo:0.5",
                "--materials", "gold,silver"]
        code, _, _ = run_cli(capsys, *argv, *(["--out", out] if out else []))
        assert code == EXIT_OK
        # gap, 3 energies, 6 thicknesses (materials outermost), delta; the CSV
        # keeps the reference model's (ntlo's) thickness per material
        csv_columns = {0, 1, 2, 3, 5, 8, 10}
        assert calls == [7 if out or i in csv_columns else 0 for i in range(11)]


class TestSweepFiles:
    """--out writes the CSV and its sidecar all or none."""

    ARGV = ("sweep", "--points", "3", "--materials", "gold")

    def sweep(self, capsys, tmp_path):
        return run_cli(capsys, *self.ARGV, "--out", str(tmp_path / "out.csv"))

    def test_sidecar_directory_leaves_no_csv(self, capsys, tmp_path):
        (tmp_path / "out.meta.json").mkdir()
        code, out, err = self.sweep(capsys, tmp_path)
        assert code == EXIT_CONFIG
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path / 'out.meta.json'}'\n"
        assert out == ""
        assert os.listdir(tmp_path) == ["out.meta.json"]

    @pytest.mark.parametrize("name", ["newdir/", "a.csv/.", "..", "x/.."])
    def test_path_ending_in_a_directory_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                      name):
        """A path whose last typed component is empty, . or .. names no file,
        though pathlib drops a trailing / or /. from it."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *self.ARGV, "--out", name) == (
            EXIT_CONFIG, "", f"error: [Errno 21] Is a directory: {name!r}\n")
        assert os.listdir(tmp_path) == []

    def test_csv_directory_leaves_no_sidecar(self, capsys, tmp_path):
        (tmp_path / "out.csv").mkdir()
        code, _, err = self.sweep(capsys, tmp_path)
        assert code == EXIT_CONFIG
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path / 'out.csv'}'\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize(
        "step, name",
        [("write", "out.csv."), ("write", "out.meta.json."), ("replace", "out.meta.json"),
         ("replace", "out.csv")],
        ids=["csv-write", "sidecar-write", "sidecar-replace", "csv-replace"],
    )
    def test_failed_rerun_keeps_the_earlier_pair(self, capsys, monkeypatch, tmp_path, step, name):
        assert self.sweep(capsys, tmp_path)[0] == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["out.csv", "out.meta.json"]

        def fail_on(call, target):
            def wrapped(*args, **kwargs):
                if Path(target(args)).name.startswith(name):
                    raise OSError(28, "No space left on device")
                return call(*args, **kwargs)
            return wrapped

        if step == "write":  # a temporary file; cli resolves open as a global first
            monkeypatch.setattr(arcplate.cli, "open", fail_on(open, lambda a: a[0]), raising=False)
        else:  # the destination
            monkeypatch.setattr(os, "replace", fail_on(os.replace, lambda a: a[1]))
        code, out, err = run_cli(capsys, "sweep", "--points", "4", "--out", str(tmp_path / "out.csv"))
        assert code == EXIT_CONFIG
        assert err.startswith("error: [Errno 28] No space left on device: ")
        assert out == ""
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("call", [1, 2, 3, 4],
                             ids=["sidecar-aside", "sidecar-replace", "csv-aside", "csv-replace"])
    def test_interrupted_rerun_keeps_the_earlier_pair(self, capsys, monkeypatch, tmp_path, call):
        """An interrupt in the nth os.replace rolls back as an OSError does,
        and propagates as itself."""
        assert self.sweep(capsys, tmp_path)[0] == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        calls, os_replace = [], os.replace

        def interrupted(*args):
            calls.append(args)
            if len(calls) == call:
                raise KeyboardInterrupt
            return os_replace(*args)

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--points", "4", "--out", str(tmp_path / "out.csv")])
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @pytest.mark.parametrize("name", ["out.csv", "out.meta.json"], ids=["csv", "sidecar"])
    def test_fifo_is_refused_and_left_in_place(self, tmp_path, name):
        """A path that is not a regular file or a directory, here a FIFO, is
        neither opened, which would block, nor replaced: exit 4, nothing
        written. A child process, so that a blocking open times out."""
        os.mkfifo(tmp_path / name)
        result = subprocess.run(
            [sys.executable, "-m", "arcplate", *self.ARGV, "--out", "out.csv"],
            capture_output=True, text=True, timeout=60, env=subprocess_env(), cwd=tmp_path,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == f"error: [Errno 17] exists and is not a regular file: '{name}'\n"
        assert result.stdout == ""
        assert os.listdir(tmp_path) == [name]
        assert stat.S_ISFIFO(os.stat(tmp_path / name).st_mode)

    # Runs arcplate's entry point once its modules are loaded, under the soft
    # limit argv[2] of the resource argv[1] ("next": one above the lowest
    # free descriptor, so that one more file can be opened); the rest is its
    # argv. SIGXFSZ is ignored, as Python's start-up does, so that a write
    # past a size limit fails rather than ends the process.
    LIMITED = inspect.cleandoc("""
        import os, resource, signal, sys
        from arcplate.__main__ import run
        limit, soft = getattr(resource, sys.argv.pop(1)), sys.argv.pop(1)
        if soft == "next":
            soft = os.dup(0)
            os.close(soft)
            soft += 1
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(limit, (int(soft), resource.getrlimit(limit)[1]))
        sys.exit(run())
    """)

    def run_limited(self, tmp_path, name, soft):
        """sweep --out x.csv in a child under the limit, in development mode
        and with a ResourceWarning, as of a file left open, an error."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, name):
            pytest.skip(f"no resource.{name}")
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", self.LIMITED,
             name, soft, "sweep", "--out", "x.csv"],
            capture_output=True, text=True, timeout=60, env=subprocess_env(), cwd=tmp_path,
        )

    def test_a_file_size_limit_keeps_the_earlier_pair(self, tmp_path):
        """Writing past RLIMIT_FSIZE fails the file that reaches it: the
        sidecar, the larger of two files written in step. Exit 4 with one
        error line naming it, the earlier pair byte for byte, no temporary."""
        earlier = subprocess.run([sys.executable, "-m", "arcplate", "sweep", "--out", "x.csv"],
                                 capture_output=True, timeout=60, env=subprocess_env(),
                                 cwd=tmp_path)
        assert earlier.returncode == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["x.csv", "x.meta.json"]
        assert len(before["x.csv"]) < 150_000 < len(before["x.meta.json"])
        result = self.run_limited(tmp_path, "RLIMIT_FSIZE", "150000")
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
        assert result.stderr == (
            f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: 'x.meta.json'\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("directory", [True, False], ids=["sidecar-directory",
                                                             "last-descriptor"])
    def test_a_failed_sidecar_leaves_no_file_open(self, tmp_path, directory):
        """A sidecar path that is a directory fails once both temporaries are
        written and closed; with one descriptor left, the sidecar's temporary
        fails to open while the CSV's is open. Either way: exit 4, one error
        line naming the sidecar and nothing else on stderr, as a temporary
        left open would add a ResourceWarning there, and no file written."""
        resource = pytest.importorskip("resource")
        if directory:  # under the limit as it is
            (tmp_path / "x.meta.json").mkdir()
        soft = str(resource.getrlimit(resource.RLIMIT_NOFILE)[0]) if directory else "next"
        result = self.run_limited(tmp_path, "RLIMIT_NOFILE", soft)
        code = errno.EISDIR if directory else errno.EMFILE
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
        assert result.stderr == f"error: [Errno {code}] {os.strerror(code)}: 'x.meta.json'\n"
        assert os.listdir(tmp_path) == (["x.meta.json"] if directory else [])

    def test_dash_writes_to_stdout(self, capsys, tmp_path, monkeypatch):
        _, stdout_csv, _ = run_cli(capsys, *self.ARGV)
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *self.ARGV, "--out", "-") == (EXIT_OK, stdout_csv, "")
        assert os.listdir(tmp_path) == []

    def test_good_run_writes_the_stdout_bytes(self, capsys, tmp_path):
        _, stdout_csv, _ = run_cli(capsys, *self.ARGV)
        for _ in range(2):  # the second run replaces the first's pair
            code, _, _ = self.sweep(capsys, tmp_path)
            assert code == EXIT_OK
            assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.meta.json"]
            assert (tmp_path / "out.csv").read_bytes() == stdout_csv.encode()
            sidecar = (tmp_path / "out.meta.json").read_text()
            assert len(json.loads(sidecar)["rows"]) == 3

    def test_writing_the_sidecar_adds_no_copy_of_its_rows(self, capsys, monkeypatch, tmp_path):
        """_write_all gets the sidecar's rows one string per row, so its traced
        heap grows by less than half the sidecar's length while it writes the
        pair, not by a copy of the whole rows text."""
        growth = []
        write_all = arcplate.cli._write_all

        def traced(files, out):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_all(files, out)
            growth.append(tracemalloc.get_traced_memory()[1] - entry)

        monkeypatch.setattr(arcplate.cli, "_write_all", traced)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "sweep", "--points", "2000", "--out",
                                 str(tmp_path / "out.csv"))
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(growth) == 1
        assert growth[0] < (tmp_path / "out.meta.json").stat().st_size / 2

    def test_the_sweep_peak_holds_no_column_of_reprs_nor_the_whole_rows(self, capsys, tmp_path):
        """Each float is formatted as its row is written, and the CSV and the
        sidecar are written in step, so the traced peak of sweep --out, which
        holds the float columns until the files are written, stays below 1.1
        times the sidecar's size (0.83-0.85 times on Python 3.11-3.13).
        Holding every column's reprs until the sidecar is written peaks near
        1.7-1.8 times, and also holding the whole CSV text near 2.6 times."""
        argv = ["sweep", "--points", "2000", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_OK  # warm: the imports and the record's modules are loaded
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.1 * (tmp_path / "out.meta.json").stat().st_size

    def test_the_csv_reaches_write_all_one_line_per_string(self, capsys, monkeypatch,
                                                            tmp_path):
        """_write_all gets the CSV as it gets the sidecar's rows, one string
        per line, so no text holds the whole CSV."""
        lines = []
        write_all = arcplate.cli._write_all

        def recorded(files, out):
            (path, texts), *rest = files
            lines.extend(texts)
            write_all([(path, lines), *rest], out)

        monkeypatch.setattr(arcplate.cli, "_write_all", recorded)
        code, _, _ = self.sweep(capsys, tmp_path)
        assert code == EXIT_OK
        assert "".join(lines) == (tmp_path / "out.csv").read_text(encoding="utf-8")
        assert [line.count("\n") for line in lines] == [1] * 4  # the header and 3 rows
        assert all(line.endswith("\n") for line in lines)

    @pytest.mark.skipif(not hasattr(os, "pathconf"), reason="no pathconf")
    def test_a_sidecar_name_at_the_length_limit_is_written(self, capsys, tmp_path):
        """A pair whose sidecar name is as long as its directory allows is
        written, and written again over the earlier pair: the temporaries and
        the earlier files waiting aside have short names, whatever the
        path's length."""
        stem = "b" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".meta.json"))
        for _ in range(2):
            code, out, err = run_cli(capsys, *self.ARGV, "--out", str(tmp_path / f"{stem}.csv"))
            assert (code, err) == (EXIT_OK, "")
            assert out.startswith(f"wrote 3 rows to {tmp_path / stem}.csv ")
            assert sorted(os.listdir(tmp_path)) == [f"{stem}.csv", f"{stem}.meta.json"]


class TestCommandsWriteNothing:
    """A command returns its exit code, stdout text, stderr text and files,
    and writes none of them: main() writes the files, then stdout, then
    stderr."""

    ARGVS = {
        "sweep-out": ("sweep", "--out", "s.csv"),
        "sweep": ("sweep",),
        "energy": ("energy", "--geometry", "arc", "--gap", "0.1um"),
        "validate": ("validate",),
        "materials-list": ("materials", "list"),
        "materials-show": ("materials", "show", "gold"),
    }

    @staticmethod
    def run_command(argv):
        argv = list(argv)
        args = arcplate.cli.build_parser().parse_args(argv)
        return args.run(args, argv)

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_command_writes_nothing(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        code, out, err, files = self.run_command(self.ARGVS[command])
        assert capsys.readouterr() == ("", "")
        assert os.listdir(tmp_path) == []
        assert (code, err) == (EXIT_OK, "")
        assert out
        assert [path for path, _ in files] == (
            ["s.csv", "s.meta.json"] if command == "sweep-out" else [])

    def test_sweep_files_are_what_main_writes(self, capsys, monkeypatch, tmp_path):
        """The texts sweep --out returns, joined, are the bytes main() writes
        to its two paths, the sidecar's timestamp aside, and its stdout text
        is main()'s stdout: the summary."""
        monkeypatch.chdir(tmp_path)
        code, out, err, files = self.run_command(self.ARGVS["sweep-out"])
        assert run_cli(capsys, *self.ARGVS["sweep-out"]) == (code, out, err)
        assert out.startswith("wrote 1000 rows to s.csv (metadata: s.meta.json)\nfirst: gap ")
        returned = {path: "".join(texts).encode("utf-8") for path, texts in files}
        assert TestProcessExit.files(tmp_path) == {
            path: re.sub(rb'"timestamp_utc": "[^"]*"', b'"timestamp_utc": ""', text)
            for path, text in returned.items()}


class TestMaterialWarnings:
    """stderr names no material that the command does not use, and a command
    shows its warnings only once it has succeeded."""

    def run(self, tmp_path, *argv, filters=None):
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)
        if filters:
            env["PYTHONWARNINGS"] = filters
        return subprocess.run(
            [sys.executable, "-m", "arcplate", *argv],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )

    def test_gold_sweep_is_quiet(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--materials", "gold", "--points", "2",
                          "--out", "g.csv")
        assert result.returncode == EXIT_OK
        assert result.stderr == ""

    def test_rejected_points_show_no_warning(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--points", "2000000")
        assert result.returncode == EXIT_USAGE
        assert result.stderr == "error: points must lie in [1, 1,000,000], got 2000000\n"

    def test_non_positive_gap_shows_no_warning(self, tmp_path):
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

    def test_warning_made_an_error_exits_2(self, tmp_path):
        result = self.run(tmp_path, "sweep", "--points", "2", "--out", "d.csv",
                          filters="error::UserWarning")
        assert result.returncode == EXIT_USAGE
        assert result.stderr == (
            "error: silver: poisson ratio 0.517 exceeds the isotropic bulk "
            "limit 0.5; accepted as a thin-film value\n"
        )
        assert os.listdir(tmp_path) == []
        result = self.run(tmp_path, "materials", "list", filters="error::UserWarning")
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""

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
    """Arc geometries whose integrals, energy, bending coefficient or
    thickness leave the range of a double, and plate and sphere separations
    whose closed forms do, exit 3 with a message, not 0 with nan, inf or
    -0.0 and not 1 with a traceback."""

    @pytest.mark.parametrize(
        "geometry,gap",
        [
            (("--r", "1um", "--span", "2e-106m"), "5e-107m"),  # 4R/g**3 overflows
            (("--r", "1um", "--span", "2e-60m"), "1e-110m"),  # g**3 underflows to 0
            (("--r", "1e200m", "--span", "1m"), "1mm"),  # R**2 and (B + 1)**2 overflow
            (("--r", "1e-170m", "--span", "1e-175m"), "1e-172m"),  # R**2 underflows to 0
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
        "command",
        [
            ("sweep", "--points", "1", "--gap-min", "1um", "--gap-max", "1um"),
            ("energy", "--geometry", "arc", "--gap", "1um"),
            ("energy", "--geometry", "arc", "--model", "pfa", "--gap", "1um"),
        ],
    )
    def test_contact_where_the_squares_overflow(self, capsys, command):
        # R**2 and y_max**2 overflow, but the sagitta, 1.25e139 m, is a double
        code, out, err = run_cli(capsys, *command, "--r", "1e200m", "--span", "1e170m")
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.endswith("error: gap 1e-06 m does not clear the sagitta 1.25e+139 m; "
                            "the arc would touch the plate\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--geometry", "parallel", "--gap", "1e-90m"),  # d**4 underflows to 0
            ("--geometry", "parallel", "--gap", "1e90m"),  # d**4 overflows
            ("--geometry", "parallel", "--quantity", "energy-density", "--gap", "1e-110m"),
            ("--geometry", "sphere", "--r", "1e300m", "--gap", "1e200m"),  # d * d overflows
            ("--geometry", "sphere", "--quantity", "force", "--r", "1e300m", "--gap", "1e200m"),
            # the arc energy underflows to -0.0, though I0 and I1 are in range
            ("--geometry", "arc", "--r", "1e12m", "--span", "2e-265m", "--gap", "1e11m"),
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
        "argv,sagitta",
        [
            pytest.param(("--gap", "0.1um", "--r", "1e308m", "--span", "1e308m"),
                         "1.33975e+307", id="argv0"),
            pytest.param(("--r", "1e200m", "--span", "1e170m", "--gap", "1um"),
                         "1.25e+139", id="argv1"),
            # the float formula read 0 for these two, so validate passed them
            pytest.param(("--r", "1e200m", "--span", "2e150m", "--gap", "1um"),
                         "5e+99", id="argv2"),
            pytest.param(("--gap", "1e-302m", "--r", "1e-200m", "--span", "1e-250m",
                          "--thickness", "1e-320m"), "1.25e-301", id="argv3"),
        ],
    )
    def test_sagitta_out_of_double_range(self, capsys, argv, sagitta):
        # R**2 or y_max**2 leaves a double's range, but the sagitta does not
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.startswith("error: gap ")
        assert err.endswith(f" does not clear the sagitta {sagitta} m; "
                            "the arc would touch the plate\n")


class TestSagittaPair:
    """A command derives the exact sagitta pair of its (R, y_max) once,
    however often its geometry reads it, with one integer square root, at
    the widest exponent spread too."""

    @pytest.mark.parametrize(
        "argv,code,roots",
        [(("sweep", "--points", "3"), EXIT_OK, 1),
         (("energy", "--geometry", "arc", "--gap", "0.1um"), EXIT_OK, 1),
         (("validate",), EXIT_OK, 1),
         (("validate", "--r", "1e308m", "--span", "1e-323m", "--gap", "1um"), EXIT_PHYSICS, 1)],
        ids=["sweep", "energy-arc", "validate", "validate-widest-spread"],
    )
    def test_one_derivation_per_command(self, monkeypatch, capsys, argv, code, roots):
        isqrt, calls = math.isqrt, []
        monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
        arcplate.geometry._sagitta_pair.cache_clear()
        assert run_cli(capsys, *argv)[0] == code
        assert len(calls) == roots


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
            (
                '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3},'
                ' {"name": "X", "youngs_modulus_pa": 2e9, "poisson_ratio": 0.2}]',
                "entries 0 and 1 both name 'x' (names ignore case)",
            ),
            (
                '[{"name": 3, "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3}]',
                '"name" must be a non-empty string',
            ),
            (
                '[{"name": "  ", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3}]',
                '"name" must be a non-empty string',
            ),
        ],
    )
    def test_config_errors(self, capsys, tmp_path, content, needle):
        path = self.write(tmp_path, content)
        code, _, err = run_cli(capsys, "materials", "list", "--materials-file", path)
        assert code == EXIT_CONFIG
        assert needle in err
        # a sweep reads the whole file before it writes anything
        code, out, err = run_cli(capsys, "sweep", "--points", "2", "--materials", "gold",
                                 "--materials-file", path, "--out", str(tmp_path / "o.csv"))
        assert (code, out) == (EXIT_CONFIG, "")
        assert needle in err
        assert os.listdir(tmp_path) == ["materials.json"]  # no CSV, no sidecar

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "materials", "list",
            "--materials-file", str(tmp_path / "nope.json"),
        )
        assert code == EXIT_CONFIG
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "command", [("materials", "list"), ("sweep", "--points", "2", "--out", "o.csv")],
        ids=["materials-list", "sweep"],
    )
    def test_file_that_is_not_utf8(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("materials.json").write_bytes(b'\xff\xfe[{"name": "x"}]')
        code, _, err = run_cli(capsys, *command, "--materials-file", "materials.json")
        assert code == EXIT_CONFIG
        assert "materials file materials.json is not valid UTF-8" in err
        assert os.listdir() == ["materials.json"]  # no CSV, no sidecar

    @pytest.mark.parametrize(
        "command", [("materials", "list"), ("sweep", "--points", "2", "--out", "o.csv")],
        ids=["materials-list", "sweep"],
    )
    def test_file_nested_beyond_the_recursion_limit(self, capsys, tmp_path, monkeypatch,
                                                   command):
        """json.load raises RecursionError on a deep enough file, at a depth of
        about 1,100 on 3.11: a config error naming the file, not a traceback."""
        monkeypatch.chdir(tmp_path)
        Path("materials.json").write_text("[" * 100_000, encoding="utf-8")
        assert run_cli(capsys, *command, "--materials-file", "materials.json") == (
            EXIT_CONFIG, "", "error: materials file materials.json nests too deeply to read\n")
        assert os.listdir() == ["materials.json"]  # no CSV, no sidecar

    @pytest.mark.parametrize("field,value", [("name", '"y"'), ("poisson_ratio", "0.2")],
                             ids=["name", "poisson_ratio"])
    def test_repeated_field(self, capsys, tmp_path, field, value):
        path = self.write(
            tmp_path,
            '[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3, '
            f'"{field}": {value}}}]',
        )
        code, out, err = run_cli(capsys, "materials", "list", "--materials-file", path)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f'materials file {path}: field "{field}" repeated in one entry' in err


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

    MODULES = ("analysis", "casimir", "elasticity", "errors", "geometry")

    def test_package_exports_its_modules_lists(self):
        """arcplate.__all__ is each module's __all__, in module order, then
        __version__: every public name is declared once, in its module."""
        modules = [importlib.import_module(f"arcplate.{name}") for name in self.MODULES]
        assert arcplate.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
        assert len(set(arcplate.__all__)) == len(arcplate.__all__)

    def test_exported_names_are_the_modules_objects(self):
        for name in self.MODULES:
            module = importlib.import_module(f"arcplate.{name}")
            for public in module.__all__:
                assert getattr(arcplate, public) is getattr(module, public), public

    def test_errors_lists_every_error_it_defines(self):
        import arcplate.errors

        defined = [name for name, obj in vars(arcplate.errors).items()
                   if inspect.isclass(obj) and issubclass(obj, arcplate.ArcPlateError)
                   and obj.__module__ == "arcplate.errors"]
        assert sorted(arcplate.errors.__all__) == sorted(defined)

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

    def test_private_annotations_resolve(self):
        """Every function and method of every module, private ones too, has
        annotations that resolve at runtime."""
        for name in (*self.MODULES, "cli", "__main__"):
            module = importlib.import_module(f"arcplate.{name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                functions = [obj] if inspect.isfunction(obj) else []
                if inspect.isclass(obj):
                    functions = [value for value in vars(obj).values() if inspect.isfunction(value)]
                for function in functions:
                    typing.get_type_hints(function)

    def test_sources_parse_at_the_python_floor(self):
        """Every module parses with the grammar of the oldest Python that
        pyproject.toml admits, which rejects newer syntax such as except*."""
        floor = re.fullmatch(r">=(\d+)\.(\d+)", load_pyproject()["project"]["requires-python"])
        version = (int(floor[1]), int(floor[2]))
        for path in sorted(Path(arcplate.__file__).parent.glob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)

    def test_ci_starts_at_the_python_floor(self):
        """The oldest Python in the CI matrix is the floor that pyproject.toml
        declares, so the two cannot drift apart."""
        workflow = (PYPROJECT.parent / ".github" / "workflows" / "tests.yml").read_text()
        matrix = re.search(r"python-version: \[([^\]]*)\]", workflow)[1]
        oldest = min(re.findall(r'"([\d.]+)"', matrix), key=lambda v: tuple(map(int, v.split("."))))
        assert load_pyproject()["project"]["requires-python"] == f">={oldest}"

    def test_version_matches_pyproject(self):
        assert arcplate.__version__ == load_pyproject()["project"]["version"]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The `arcplate` entry in pyproject's [project.scripts], written as
        the launcher pip installs, runs `arcplate sweep` as a shell command."""
        module, func = load_pyproject()["project"]["scripts"]["arcplate"].split(":")
        assert (module, func) == ("arcplate.__main__", "run")
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

    def test_cli_module_is_not_an_entry_point(self):
        """`python -m arcplate.cli` fails loudly and names the entry point."""
        result = subprocess.run(
            [sys.executable, "-m", "arcplate.cli", "sweep", "--points", "2"],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr == "error: run python -m arcplate, not python -m arcplate.cli\n"

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
            "from arcplate.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['sweep', '--points', '3']) == 0",
            "from arcplate.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['validate']) == 0",
        ],
        ids=["import", "energy-arc", "stdout-sweep", "validate"],
    )
    def test_import_adds_no_dataclasses_inspect_or_numpy(self, command):
        """Checks the modules that importing arcplate.cli, or running a
        command, adds, so that a module the site preloads does not count
        against it. Only the JSON record of energy, materials show and a
        sweep's sidecar needs datetime and shlex."""
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
        if "'energy'" not in command:
            assert not added & {"datetime", "shlex"}

    @pytest.mark.parametrize(
        "argv,loaded",
        [(["sweep", "--points", "2"], ""), (["validate"], ""),
         (["sweep", "--points", "2", "--out", "o.csv"], "json pathlib"),
         (["sweep", "--points", "2", "--materials-file", "foil.json", "--materials", "gold,foil"],
          "json")],
        ids=["stdout-sweep", "validate", "sweep-out", "materials-file"],
    )
    def test_json_is_loaded_only_for_json(self, tmp_path, argv, loaded):
        """Without site (-S), whose .pth files may load json, typing and
        pathlib, only a command that reads or writes JSON loads json, only
        one that writes a file loads pathlib, and none loads typing or
        __future__."""
        (tmp_path / "foil.json").write_text(
            '[{"name": "foil", "youngs_modulus_pa": 70e9, "poisson_ratio": 0.35}]')
        script = (
            "import contextlib, io, sys\nfrom arcplate.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
            "print(*[name for name in ('json', 'pathlib', 'typing', '__future__')"
            " if name in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=subprocess_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{loaded}\n"


def closed_stdout():
    """The write end of a pipe whose read end is closed, as after `| head -0`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


class TestProcessExit:
    """`python -m arcplate` exits through arcplate.__main__.run, which freezes
    the collector once main() returns, so that interpreter teardown skips
    the heap. What the process writes and returns is what main() does."""

    @pytest.mark.parametrize(
        "argv",
        [("sweep",), ("energy", "--geometry", "arc", "--gap", "0.1um"),
         ("materials", "show", "gold"), ("materials", "list"), ("--help",)],
        ids=["sweep", "energy", "materials-show", "materials-list", "help"],
    )
    def test_closed_stdout_exits_1_without_an_error(self, argv):
        """A reader that closes the pipe before the command writes, as
        `| head -0` can, is not a config error: exit 1, as Python's own
        exit on a broken stdout, with nothing on stderr, not even the
        warning of a material the command printed."""
        assert self.run_to(closed_stdout(), argv, subprocess_env()) == (EXIT_STDOUT_CLOSED, "")

    @staticmethod
    def run_to(stdout, argv, env, cwd=None):
        """(exit code, stderr) of `python -m arcplate *argv` writing to the
        file descriptor `stdout`, which is closed once the child has run, or,
        if `stdout` is None, started with file descriptor 1 closed."""
        try:
            result = subprocess.run(
                [sys.executable, "-m", "arcplate", *argv],
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, env=env, cwd=cwd,
                preexec_fn=(lambda: os.close(1)) if stdout is None else None,
            )
        finally:
            if stdout is not None:
                os.close(stdout)
        return result.returncode, result.stderr

    @staticmethod
    def failing_stdout(kind, buffering):
        """(environment, file descriptor or None, expected exit code and
        stderr) of a child whose stdout is `kind`: closed by its reader,
        a full device, or not open at all."""
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        if kind == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            return env, os.open("/dev/full", os.O_WRONLY), (
                EXIT_CONFIG, "error: [Errno 28] No space left on device\n")
        return env, closed_stdout() if kind == "closed" else None, (EXIT_STDOUT_CLOSED, "")

    COMMANDS = {
        "sweep-2": ("sweep", "--points", "2"),
        "sweep-1000": ("sweep",),
        "sweep-out": ("sweep", "--points", "2", "--out", "o.csv"),
        "energy": ("energy", "--geometry", "arc", "--gap", "0.1um"),
        "validate": ("validate",),
        "validate-fail": ("validate", "--thickness", "1um"),
        "materials-list": ("materials", "list"),
        "materials-show": ("materials", "show", "silver"),
        "help": ("--help",),
    }

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout", ["closed", "full", "not-open"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_stdout_exits_with_its_code(self, tmp_path, command, stdout, buffering):
        """Buffered or not, a closed stdout, or one not open at start, exits 1
        with nothing on stderr and a full one exits 4 with one error line,
        whether the command's own write fails or the flush after it, and
        leaves no file."""
        env, fd, expected = self.failing_stdout(stdout, buffering)
        assert self.run_to(fd, self.COMMANDS[command], env, cwd=tmp_path) == expected
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout", ["closed", "full"])
    def test_failed_stdout_keeps_the_earlier_pair(self, tmp_path, stdout, buffering):
        """A sweep --out whose summary cannot be written leaves an earlier
        pair byte for byte as it was, with no temporary file beside it."""
        argv = ("sweep", "--points", "3", "--materials", "gold", "--out", "o.csv")
        earlier = subprocess.run([sys.executable, "-m", "arcplate", *argv], capture_output=True,
                                 timeout=60, env=subprocess_env(), cwd=tmp_path)
        assert earlier.returncode == EXIT_OK, earlier.stderr
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["o.csv", "o.meta.json"]
        env, fd, expected = self.failing_stdout(stdout, buffering)
        assert self.run_to(fd, ("sweep", "--points", "4", "--out", "o.csv"), env,
                           cwd=tmp_path) == expected
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    STDERR_COMMANDS = {
        "sweep-2": (EXIT_OK, ("sweep", "--points", "2")),  # silver's warning
        "sweep-out": (EXIT_OK, ("sweep", "--points", "2", "--out", "z.csv")),
        "validate-fail": (EXIT_PHYSICS, ("validate", "--thickness", "1um")),
        "usage": (EXIT_USAGE, ("sweep", "--points", "0")),
        "argparse-usage": (EXIT_USAGE, ("sweep", "--points", "x")),
        "physics": (EXIT_PHYSICS, ("energy", "--geometry", "arc", "--gap", "0um")),
        "help": (EXIT_OK, ("--help",)),
    }

    @pytest.mark.parametrize("stderr", ["closed", "full", "not-open"])
    @pytest.mark.parametrize("command", sorted(STDERR_COMMANDS))
    def test_failed_stderr_changes_no_exit_code(self, tmp_path, command, stderr):
        """A stderr closed by its reader, full or not open at start changes
        neither the exit code, the files written nor stdout, which gets
        nothing meant for stderr."""
        code, argv = self.STDERR_COMMANDS[command]
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)

        def child(name, fd):
            (tmp_path / name).mkdir()
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "arcplate", *argv], stdout=subprocess.PIPE,
                    stderr=fd, timeout=60, env=env, cwd=tmp_path / name,
                    preexec_fn=(lambda: os.close(2)) if fd is None else None,
                )
            finally:
                if fd not in (None, subprocess.PIPE):
                    os.close(fd)
            return result.returncode, result.stdout, sorted(os.listdir(tmp_path / name))

        if stderr == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        expected = child("piped", subprocess.PIPE)
        assert expected[0] == code
        fd = {"closed": closed_stdout, "full": lambda: os.open("/dev/full", os.O_WRONLY),
              "not-open": lambda: None}[stderr]()
        assert child("failing", fd) == expected

    @pytest.mark.parametrize("code, argv", [
        (EXIT_PHYSICS, ("energy", "--geometry", "arc", "--gap", "0um")),
        (EXIT_OK, ("sweep", "--points", "2")),  # silver's warning
        (EXIT_USAGE, ("sweep", "--points", "x")),  # argparse's usage error
    ], ids=["physics", "warning", "argparse-usage"])
    def test_missing_stderr_changes_no_exit_code(self, capsys, monkeypatch, code, argv):
        """An in-process main() while sys.stderr is None, as under an
        embedding or pythonw caller, returns the code it returns with a
        stderr and writes to stdout only what it writes there with one."""
        expected = run_cli(capsys, *argv)
        assert expected[0] == code
        monkeypatch.setattr(sys, "stderr", None)
        assert main(list(argv)) == code
        assert capsys.readouterr().out == expected[1]

    @pytest.mark.parametrize("argv", [
        ("validate",), ("--help",), ("sweep", "--points", "2", "--out", "s.csv"),
    ], ids=["validate", "help", "sweep-out"])
    def test_missing_stdout_exits_1_and_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                       argv):
        """An in-process main() while sys.stdout is None, as under an
        embedding or pythonw caller, returns 1, as run() does for a process
        started with fd 1 closed, and writes nothing: no stderr, no file."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdout", None)
        assert main(list(argv)) == EXIT_STDOUT_CLOSED
        assert capsys.readouterr() == ("", "")
        assert os.listdir(tmp_path) == []

    CASES = {
        "stdout-sweep": (EXIT_OK, ("sweep", "--points", "3")),
        "out-sweep": (EXIT_OK, ("sweep", "--points", "3", "--out", "s.csv")),
        "usage": (EXIT_USAGE, ("sweep", "--points", "0")),
        "physics": (EXIT_PHYSICS, ("sweep", "--gap-min", "0um", "--points", "2")),
        "config": (EXIT_CONFIG, ("sweep", "--points", "3", "--materials", "gold",
                                 "--out", "out.csv")),  # out.meta.json is a directory
    }

    @staticmethod
    def files(directory):
        """Each file's bytes, the sidecar's timestamp blanked."""
        return {
            path.name: re.sub(rb'"timestamp_utc": "[^"]*"', b'"timestamp_utc": ""',
                              path.read_bytes())
            for path in directory.iterdir() if path.is_file()
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_module_matches_in_process_main(self, case, capsys, monkeypatch, tmp_path):
        code, argv = self.CASES[case]
        child_dir, own_dir = tmp_path / "child", tmp_path / "own"
        for directory in (child_dir, own_dir):
            (directory / "out.meta.json").mkdir(parents=True)
        env = subprocess_env()
        env.pop("PYTHONWARNINGS", None)
        child = subprocess.run(
            [sys.executable, "-m", "arcplate", *argv],
            capture_output=True, text=True, timeout=60, env=env, cwd=child_dir,
        )
        monkeypatch.chdir(own_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # as in a fresh interpreter
            own = run_cli(capsys, *argv)
        assert own[0] == code
        assert (child.returncode, child.stdout, child.stderr) == own
        assert self.files(child_dir) == self.files(own_dir)

    def test_atexit_handlers_run_after_the_freeze(self):
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('atexit: frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['arcplate', 'sweep', '--points', '2', '--materials', 'gold']\n"
            "runpy.run_module('arcplate', run_name='__main__')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=subprocess_env(),
        )
        assert result.returncode == EXIT_OK, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0].startswith("gap_m,")
        assert len(lines) == 4
        assert lines[-1] == "atexit: frozen True"

    def test_main_leaves_the_collector_alone(self, capsys, tmp_path):
        state = gc.isenabled(), gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "sweep", "--points", "2", "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_OK
        assert (gc.isenabled(), gc.get_freeze_count()) == state
