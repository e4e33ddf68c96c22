"""Command-line front end.

Subcommands: sweep (gap grid -> CSV + JSON metadata sidecar), energy (single
value, JSON to stdout), validate (geometry and thin-plate report), materials
(list/show the material table, optionally merged with a JSON config file).

Exit codes: 0 ok, 1 stdout closed by its reader, 2 usage, 3 physics
precondition, 4 config-file problem.
Flag values carrying a length must be unit-suffixed (0.1um, 100nm); bare
numbers are rejected. CSV bodies are byte-deterministic for identical flags;
timestamps only ever appear in JSON metadata.
"""

import argparse
import errno
import math
import os
import re
import sys
import warnings
from collections.abc import Iterable, Sequence
from itertools import chain, tee, zip_longest
from operator import itemgetter

from .analysis import MAX_POINTS, SweepConfig, _sweep_columns
from .casimir import (
    _C,
    _HBAR,
    NTLO,
    PFA,
    EnergyModel,
    arc_energy,
    parallel_plate_energy_density,
    parallel_plate_pressure,
    scaled_ntlo,
    sphere_plate_energy,
    sphere_plate_force,
)
from .elasticity import (_BUILTINS, Material, MaterialWarning, _build_material, _range_error,
                          thin_plate_check)
from .errors import ArcPlateError, MaterialConfigError, MaterialNotFoundError
from .geometry import ArcGeometry

SCHEMA_VERSION = "2"
_Files = list[tuple[str, Iterable[str]]]  # (path, texts) of each file a command returns

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1  # as a Python program whose stdout pipe broke
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_CONFIG = 4

# Exit code of each error main() reports: that of the first kind it is.
_EXIT_CODES = {
    MaterialConfigError: EXIT_CONFIG,
    MaterialNotFoundError: EXIT_USAGE,
    ArcPlateError: EXIT_PHYSICS,
    ValueError: EXIT_USAGE,
    OSError: EXIT_CONFIG,
    MaterialWarning: EXIT_USAGE,  # made an error by a warning filter
}

# Unit -> decimal exponent of its size in metres.
_UNITS = {
    "pm": -12,
    "nm": -9,
    "um": -6,
    "µm": -6,
    "mm": -3,
    "cm": -2,
    "m": 0,
}
_LENGTH_RE = re.compile(
    r"^([+-]?(?:\d+(?:\.\d*)?|\.\d+))(?:[eE]([+-]?\d+))?([a-zA-Zµ]+)$"
)

# CSV column tokens for the builtin materials; anything else gets its
# lowercased name with non-alphanumerics collapsed to underscores.
_MATERIAL_KEYS = {"gold": "au", "silver": "ag"}


def parse_length(text: str) -> float:
    """'0.1um' -> 1e-7. Bare numbers are an error: units must be explicit.

    The unit shifts the decimal exponent, so the text rounds to a float once:
    '100um' is exactly float('100e-6'), not 100 * 1e-6."""
    match = _LENGTH_RE.match(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"length {text!r} must be a number with a unit suffix "
            f"({', '.join(sorted(_UNITS, key=len))}), e.g. 0.1um"
        )
    mantissa, exponent, unit = match.groups()
    if unit not in _UNITS:
        raise argparse.ArgumentTypeError(
            f"unknown length unit {unit!r} in {text!r}; "
            f"use one of {', '.join(sorted(_UNITS, key=len))}"
        )
    value = float(f"{mantissa}e{int(exponent or 0) + _UNITS[unit]}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"length {text!r} overflows a double")
    if value == 0.0 and _nonzero(mantissa):
        raise argparse.ArgumentTypeError(f"length {text!r} underflows a double")
    return value


def _nonzero(significand: str) -> bool:
    """Whether the text has a nonzero decimal digit, any script's: read from
    the digits, as a float of them underflows too when they are many."""
    return any(c.isdecimal() and int(c) for c in significand)


def parse_model(token: str) -> EnergyModel:
    t = token.strip().lower()
    if t == "pfa":
        return PFA
    if t == "ntlo":
        return NTLO
    if t.startswith("scaled-ntlo:"):
        raw = t.split(":", 1)[1]
        try:
            eps = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad epsilon {raw!r} in model {token!r}"
            ) from None
        if eps == 0.0 and _nonzero(raw.partition("e")[0]):
            raise argparse.ArgumentTypeError(
                f"epsilon {raw!r} in model {token!r} underflows a double"
            )
        try:
            return scaled_ntlo(eps)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown model {token!r}; use pfa, ntlo, or scaled-ntlo:<eps>"
    )


def parse_models(text: str) -> tuple[EnergyModel, ...]:
    return tuple(parse_model(tok) for tok in text.split(","))


# Materials-file field -> Material argument, and the fields an entry must give:
# those of the arguments without a default.
_FIELDS = {
    "name": "name",
    "youngs_modulus_pa": "youngs_modulus",
    "poisson_ratio": "poisson_ratio",
    "sigma_e_pa": "sigma_e",
    "sigma_nu": "sigma_nu",
}
_REQUIRED = {"name", "youngs_modulus_pa", "poisson_ratio"}


def material_table(path: str | None) -> dict[str, dict]:
    """Lower-cased name -> Material arguments: the builtins overlaid with the
    entries of the materials JSON file at ``path``, which win on a name
    collision. Two file entries of one name, in any case, are an error.

    Every file entry is checked here, against the JSON shape and Material's
    range rules, but none is built, so an entry no command uses cannot warn.
    Unknown or repeated fields are rejected so typos cannot silently fall
    back to builtin values or to another value of the same field."""
    table = dict(_BUILTINS)
    if not path:
        return table
    import json  # here: a sweep to stdout and validate read no file and load neither

    def fields_once(pairs: list[tuple[str, object]]) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise MaterialConfigError(
                    f'materials file {path}: field "{key}" repeated in one entry')
            seen.add(key)
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_int=float, object_pairs_hook=fields_once)
    except OSError as exc:
        raise MaterialConfigError(f"cannot read materials file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a usage error
        raise MaterialConfigError(f"materials file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MaterialConfigError(f"materials file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # unmapped, it would end the command in a traceback
        raise MaterialConfigError(f"materials file {path} nests too deeply to read") from exc
    if not isinstance(doc, list):
        raise MaterialConfigError(f"materials file {path} must be a JSON array of objects")
    first: dict[str, int] = {}  # lower-cased name -> index of its entry
    for index, entry in enumerate(doc):
        args = _material_args(entry, f"{path}, entry {index}")
        key = args["name"].lower()
        if first.setdefault(key, index) != index:
            raise MaterialConfigError(f"materials file {path}: entries {first[key]} and "
                                      f"{index} both name {key!r} (names ignore case)")
        table[key] = args
    return table


def _material_args(entry: object, where: str) -> dict:
    if not isinstance(entry, dict):
        raise MaterialConfigError(f"{where}: expected an object")
    for label, fields in (
        ("unknown", entry.keys() - _FIELDS.keys()),
        ("missing", _REQUIRED - entry.keys()),
    ):
        if fields:
            raise MaterialConfigError(f"{where}: {label} field(s) {sorted(fields)}")
    name = entry["name"]
    if not isinstance(name, str) or not name.strip():
        raise MaterialConfigError(f'{where}: "name" must be a non-empty string')
    for field, value in entry.items():
        if field == "name":
            continue
        number = isinstance(value, float)  # JSON integers are read as floats
        broken = _range_error(_FIELDS[field], value) if number else "must be a number"
        if broken:
            raise MaterialConfigError(f'{where} ({name}): "{field}" {broken}')
    return {_FIELDS[field]: value for field, value in entry.items()} | {"name": name.strip()}


def material_key(name: str) -> str:
    builtin = _MATERIAL_KEYS.get(name.lower())
    if builtin:
        return builtin
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_") or "material"


def _column_names(config: SweepConfig) -> list[tuple[str, str | None]]:
    """(sidecar key, CSV header) of every column of a sweep: the gap, each
    model's energy, each (material, model) thickness, materials outermost,
    and the deviation, with None as the header of a column the CSV leaves
    out. The CSV keeps the gap, every energy, the reference model's thickness
    per material and the deviation, a subsequence of the sidecar's columns.

    Raises ValueError when two materials give one token, which would name
    two columns alike.
    """
    ref = config.reference_model()
    keys = [model.key for model in config.models]
    names: list[tuple[str, str | None]] = [("gap_m", "gap_m")]
    names += [(f"u_{key}_J_per_m",) * 2 for key in keys]
    owners: dict[str, str] = {}
    for mat in config.materials:
        token = material_key(mat.name)
        if token in owners:
            raise ValueError(
                f"materials {owners[token]!r} and {mat.name!r} share the column "
                f"token {token!r}; rename one in the materials file"
            )
        owners[token] = mat.name
        names += [
            (f"t_max_{token}_{key}_m", f"t_max_{token}_m" if key == ref.key else None)
            for key in keys
        ]
    if config.resolved_comparison() is not None:
        names.append(("delta", "delta"))
    return names


def make_record(argv: Sequence[str], rows: list[dict], **metadata: object) -> str:
    """The JSON text, json.dumps(record, indent=2), of a command's record:
    its rows, and metadata holding the constants, then ``metadata`` in the
    order given, then the time, with the final newline."""
    import json  # here, not at module level: only a record needs these three
    import shlex
    from datetime import datetime, timezone

    record = {
        "schema_version": SCHEMA_VERSION,
        "command": shlex.join(["arcplate", *argv]),
        "rows": rows,
        "metadata": {
            "constants": {"hbar_J_s": _HBAR, "c_m_per_s": _C},
            **metadata,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        },
    }
    return json.dumps(record, indent=2) + "\n"


def _material_dict(mat: Material) -> dict:
    """The material as a materials-file entry, without its unset sigmas."""
    values = {field: getattr(mat, arg) for field, arg in _FIELDS.items()}
    return {field: value for field, value in values.items() if value is not None}


def _write_all(files: _Files, out: str) -> None:
    """Write each (path, texts) as UTF-8, then ``out`` to stdout, all or none.

    Each file's texts, an iterable of strings, go to a temporary file beside
    its path, named by at most 32 characters of its name, this process's id
    and the file's index, whatever the path's length. All are opened, then
    written in step, a text of each in turn, so texts made from one stream are
    written as they are made. Then they replace their paths, the last first,
    so the first path appears only after the others are in place, and ``out``
    is written and flushed. Until then an earlier file at each path waits
    under its temporary's name with .old for .tmp. On any error, stdout's
    too, the temporaries are closed and removed, as is any path already
    replaced, each earlier file gets its name back, and an OSError of a file
    names the path given, not the temporary.
    """
    temps: list = []  # the open temporaries
    placed: list[str] = []
    earlier: list[tuple[str, str]] = []  # (path, where its earlier file waits)
    stems = [os.path.join(head, f"{name[:32]}.{os.getpid()}-{i}")  # + .tmp or .old
             for i, (head, name) in enumerate(os.path.split(path) for path, _ in files)]
    for path, _ in files:  # stat only: opening a FIFO to write blocks, replacing it removes it
        if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
            raise OSError(errno.EEXIST, "exists and is not a regular file", path)
    try:
        for (path, _), stem in zip(files, stems):
            temps.append(open(stem + ".tmp", "w", encoding="utf-8"))
        for texts in zip_longest(*(texts for _, texts in files), fillvalue=""):
            for (path, _), f, text in zip(files, temps, texts):
                f.write(text)
        for (path, _), f in zip(files, temps):  # in order: a failed last flush names its file
            f.close()
        for (path, _), stem in reversed(list(zip(files, stems))):
            if os.path.isfile(path):
                os.replace(path, stem + ".old")
                earlier.append((path, stem + ".old"))
            os.replace(stem + ".tmp", path)
            placed.append(path)
        path = None  # an error of stdout names no file
        sys.stdout.write(out)
        sys.stdout.flush()  # its last write: a full or closed stdout fails the command
    except BaseException as exc:
        for f in temps:  # unflushed: what a failed write left in its buffer is dropped
            f.buffer.raw.close()
        for name in [f.name for f in temps] + placed:
            try:
                os.remove(name)
            except FileNotFoundError:
                pass
        for name, old in earlier:
            os.replace(old, name)
        if isinstance(exc, OSError) and path is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    for _, old in earlier:
        os.remove(old)


def cmd_sweep(args: argparse.Namespace, argv: list[str]) -> tuple[int, str, str, _Files]:
    table = material_table(args.materials_file)
    materials = tuple(_build_material(table, name) for name in args.materials.split(","))
    config = SweepConfig(
        gap_min=args.gap_min,
        gap_max=args.gap_max,
        points=args.points,
        radius=args.r,
        half_span=args.span / 2.0,
        materials=materials,
        models=args.models,
    )
    names = _column_names(config)  # before any work: a token collision exits 2
    gaps, energies, thickness, delta, arc_length = _sweep_columns(config)
    to_stdout = args.out == "-"
    columns = [gaps, *energies, *thickness, *([] if delta is None else [delta])]
    kept = [(key, header, column) for (key, header), column in zip(names, columns)
            if header or not to_stdout]  # the CSV's columns; with --out, every column
    # a float's repr round-trips and is how json writes it, so one, made as its row is, serves both
    cells = rows = zip(*[map(repr, column) for *_, column in kept])  # cells: the CSV's of each row
    if not to_stdout:  # one stream for both files, written in step: tee holds a row or two
        rows, cells = tee(rows)
        cells = map(itemgetter(*[i for i, (_, header, _) in enumerate(kept) if header]), cells)
    headers = [header for _, header, _ in kept if header]
    lines = chain([",".join(headers) + "\n"],
                  map((",".join(["%s"] * len(headers)) + "\n").__mod__, cells))
    if to_stdout:
        return EXIT_OK, "".join(lines), "", []
    if os.path.basename(args.out) in ("", ".", ".."):  # no file to write, nor a sidecar name
        code = errno.EISDIR if args.out else errno.ENOENT
        raise OSError(code, os.strerror(code), args.out)
    from pathlib import Path  # here: a sweep to stdout names no file
    out = Path(args.out)
    sidecar = out.with_name(out.stem + ".meta.json")
    record = make_record(
        argv,
        [],  # split at its '"rows": []', the first: json escapes each quote of a value
        geometry={
            "radius_m": config.radius,
            "half_span_m": config.half_span,
            "gap_min_m": config.gap_min,
            "gap_max_m": config.gap_max,
            "points": config.points,
            "arc_length_m": arc_length,
        },
        materials=[_material_dict(m) for m in config.materials],
        models=[m.label for m in config.models],
        csv_file=out.name,
    )
    head, tail = record.split('"rows": []', 1)
    import json  # loaded by make_record
    # each row laid out as json.dumps(..., indent=2) lays out a top-level key's value
    fields = ",\n      ".join(json.dumps(key) + ": %s" for key, *_ in kept)
    rows = map((",\n    {\n      " + fields + "\n    }").__mod__, rows)
    files = [(str(out), lines),  # each CSV line and sidecar row is made as it is written
             (str(sidecar), chain([head, '"rows": [', next(rows)[1:]],  # the first has no comma
                                  rows, ["\n  ]", tail]))]
    ref = config.reference_model()  # its thickness per material: the summary's last two lines
    shown = "".join(f"{label}gap {gaps[i]:.4g} m" + "".join(
        f"; t_max[{mat.name}, {ref.label}] = {column[i]:.4g} m" for mat, column in
        zip(config.materials, thickness[config.models.index(ref)::len(config.models)])) + "\n"
        for label, i in (("first: ", 0), ("last:  ", -1)))
    return EXIT_OK, f"wrote {config.points} rows to {out} (metadata: {sidecar})\n{shown}", "", files


# geometry -> quantity -> (row key, value at the parsed arguments); the first
# quantity of each geometry is its default
_ENERGY = {
    "arc": {"energy": ("value_J_per_m", lambda a: arc_energy(
        ArcGeometry(radius=a.r, half_span=a.span / 2.0, gap=a.gap), a.model))},
    "parallel": {
        "pressure": ("value_Pa", lambda a: parallel_plate_pressure(a.gap)),
        "energy-density": ("value_J_per_m2", lambda a: parallel_plate_energy_density(a.gap)),
    },
    "sphere": {
        "energy": ("value_J", lambda a: sphere_plate_energy(a.r, a.gap)),
        "force": ("value_N", lambda a: sphere_plate_force(a.r, a.gap)),
    },
}


def cmd_energy(args: argparse.Namespace, argv: list[str]) -> tuple[int, str, str, _Files]:
    quantities = _ENERGY[args.geometry]
    quantity = args.quantity or next(iter(quantities))
    if quantity not in quantities:
        raise ValueError(
            f"--quantity {quantity} not available for geometry {args.geometry}; "
            f"choose from {', '.join(quantities)}"
        )
    key, value = quantities[quantity]
    row = {"kind": args.geometry, "model": args.model.label, key: value(args), "quantity": quantity}
    if args.geometry != "arc":  # only the arc energy has a model
        del row["model"]
    geometry = {"arc": {"radius_m": args.r, "half_span_m": args.span / 2.0}, "parallel": {},
                "sphere": {"radius_m": args.r}}[args.geometry] | {"gap_m": args.gap}
    return EXIT_OK, make_record(argv, [row], geometry=geometry), "", []


def cmd_validate(args: argparse.Namespace, argv: list[str]) -> tuple[int, str, str, _Files]:
    # geometry construction itself raises on contact or gap/radius >= 1;
    # main() maps those to exit 3 with the violated condition in the message
    geom = ArcGeometry(radius=args.r, half_span=args.span / 2.0, gap=args.gap)
    report = geom.validate_pfa()
    span_b = args.span_b if args.span_b is not None else args.span
    thin = thin_plate_check(args.thickness, args.span, span_b)
    out = (
        f"geometry: radius {geom.radius:.4g} m, half-span {geom.half_span:.4g} m, "
        f"gap {geom.gap:.4g} m\n"
        f"pfa: gap/radius = {report.ratio:.4g}, status = {report.status}\n"
        f"contact: margin = {report.contact_margin:.4g} m "
        f"(gap minus sagitta {geom.sagitta:.4g} m)\n"
        f"thin-plate: t/a = {thin.ratio_a:.4g} ({'ok' if thin.ok_a else 'VIOLATED'}), "
        f"t/b = {thin.ratio_b:.4g} ({'ok' if thin.ok_b else 'VIOLATED'}), "
        f"overall {'pass' if thin.passed else 'fail'}\n"
    )
    if report.hard_failure or not thin.passed:
        failure = ("gap/radius beyond the 0.5 hard threshold" if report.hard_failure
                   else "thin-plate tenth rule violated")
        return EXIT_PHYSICS, out, f"result: FAIL ({failure})\n", []
    verdict = "result: pass" + (" (with warnings)" if report.status == "warn" else "")
    return EXIT_OK, f"{out}{verdict}\n", "", []


def cmd_materials_list(args: argparse.Namespace, argv: list[str]) -> tuple[int, str, str, _Files]:
    table = material_table(args.materials_file)
    out = f"{'name':<14} {'E_Pa':>12} {'nu':>8} {'sigma_E_Pa':>12} {'sigma_nu':>9}\n"
    for mat in [_build_material(table, key) for key in table]:  # a warning made an error: no table
        sig_e = f"{mat.sigma_e:.4g}" if mat.sigma_e is not None else "-"
        sig_nu = f"{mat.sigma_nu:.4g}" if mat.sigma_nu is not None else "-"
        out += (f"{mat.name:<14} {mat.youngs_modulus:>12.4g} "
                f"{mat.poisson_ratio:>8.4g} {sig_e:>12} {sig_nu:>9}\n")
    return EXIT_OK, out, "", []


def cmd_materials_show(args: argparse.Namespace, argv: list[str]) -> tuple[int, str, str, _Files]:
    mat = _build_material(material_table(args.materials_file), args.name)
    return EXIT_OK, make_record(argv, [_material_dict(mat)]), "", []


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a failed write of its help raises, where argparse's
    is ignored, and a usage error writes nothing to stdout; so do its subparsers."""

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()  # before parse_args exits: a failed write is main()'s error

    def error(self, message: str) -> None:
        if sys.stderr is None:  # argparse's would print the usage to stdout
            self.exit(EXIT_USAGE)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arcplate",
        description=(
            "Arc-plate interaction energy, thin-membrane bending, and the "
            "critical thickness for curvature reversal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--r",
            type=parse_length,
            default="100um",
            metavar="LEN",
            help="arc radius, unit-suffixed (default %(default)s)",
        )
        sp.add_argument(
            "--span",
            type=parse_length,
            default="6um",
            metavar="LEN",
            help="full transverse span, i.e. 2*half-span (default %(default)s)",
        )

    sweep = sub.add_parser(
        "sweep", help="critical-thickness sweep over a uniform gap grid (CSV)"
    )
    add_geometry(sweep)
    sweep.add_argument("--gap-min", type=parse_length, default="0.1um", metavar="LEN")
    sweep.add_argument("--gap-max", type=parse_length, default="1um", metavar="LEN")
    sweep.add_argument(
        "--points",
        type=int,
        default=1000,
        help=f"grid size, 1 to {MAX_POINTS:,} (default %(default)s)",
    )
    sweep.add_argument("--materials", default="gold,silver", help="comma-separated names")
    sweep.add_argument(
        "--models",
        type=parse_models,
        default="pfa,ntlo",
        help="comma-separated: pfa, ntlo, scaled-ntlo:<eps> (default %(default)s)",
    )
    sweep.add_argument("--materials-file", default=None, help="JSON file merged over builtins")
    sweep.add_argument(
        "--out",
        default="-",
        help="CSV output path (stdout when omitted or -); a .meta.json sidecar "
        "with constants, geometry, materials, models and full rows is written next to it",
    )

    energy = sub.add_parser("energy", help="single energy evaluation, JSON to stdout")
    energy.add_argument("--geometry", choices=list(_ENERGY), required=True)
    add_geometry(energy)
    energy.add_argument("--gap", type=parse_length, required=True, metavar="LEN")
    energy.add_argument("--model", type=parse_model, default="ntlo")
    energy.add_argument(
        "--quantity",
        choices=list(dict.fromkeys(q for quantities in _ENERGY.values() for q in quantities)),
        default=None,
        help="; ".join(f"{g}: {'|'.join(quantities)}" for g, quantities in _ENERGY.items()),
    )

    validate = sub.add_parser(
        "validate", help="report proximity-validity, contact margin, thin-plate ratios"
    )
    add_geometry(validate)
    validate.add_argument("--gap", type=parse_length, default="0.1um", metavar="LEN")
    validate.add_argument("--thickness", type=parse_length, default="10nm", metavar="LEN")
    validate.add_argument(
        "--span-b",
        type=parse_length,
        default=None,
        metavar="LEN",
        help="second lateral span for the thin-plate check (default: --span)",
    )

    materials = sub.add_parser("materials", help="list or show materials")
    msub = materials.add_subparsers(dest="materials_command", required=True)
    mlist = msub.add_parser("list", help="table of available materials")
    mlist.add_argument("--materials-file", default=None)
    mshow = msub.add_parser("show", help="one material as JSON")
    mshow.add_argument("name")
    mshow.add_argument("--materials-file", default=None)
    for command, run in ((sweep, cmd_sweep), (energy, cmd_energy), (validate, cmd_validate),
                         (mlist, cmd_materials_list), (mshow, cmd_materials_show)):
        command.set_defaults(run=run)

    return parser


def main(argv: Sequence[str]) -> int:
    if sys.stdout is None:  # an embedding or pythonw caller: as run() with fd 1 closed
        return EXIT_STDOUT_CLOSED
    argv = list(argv)
    parser = build_parser()
    try:
        with warnings.catch_warnings(record=True) as shown:  # the caller's filters decide
            args = parser.parse_args(argv)  # a failed write of --help raises
            code, out, err, files = args.run(args, argv)
            _write_all(files, out)  # the files, then stdout: a failed write of either fails all
    except SystemExit as exc:
        return exc.code  # argparse exits 0 for --help, 2 for a usage error
    except BrokenPipeError:  # an OSError, but the reader of stdout left, not a config
        return EXIT_STDOUT_CLOSED
    except tuple(_EXIT_CODES) as exc:  # only the error: a failed command shows no warning
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        err = f"error: {exc}\n"
    else:  # one line each, without the package's path or source line
        err += "".join(f"{w.category.__name__}: {w.message}\n" for w in shown)
    try:  # stderr last, once: a closed, full or missing (None) one changes no exit code
        sys.stderr.write(err)
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass
    return code


if __name__ == "__main__":  # the module entry point is python -m arcplate
    build_parser().exit(EXIT_USAGE, "error: run python -m arcplate, not python -m arcplate.cli\n")
