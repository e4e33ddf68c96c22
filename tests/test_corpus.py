"""The same answers on every change: a golden corpus of command-line runs.

corpus.json, next to this file, lists commands by id and argv, each with
what it gave when the file was last written: the exit code, stdout, stderr
and every file the command left, with each "timestamp_utc" value blanked.
A text of up to TEXT_LIMIT characters is stored as it is, so that a
difference reads as a diff, and a longer one as {"sha256": ...}. Every
command runs in-process through main() in one directory that holds
FIXTURES, the materials files and directories the commands name; the files
a command leaves are recorded and then removed. Warnings are shown as in a
fresh interpreter.

The values come from this platform's libm (glibc), as in
test_cli.py::TestSweepOutputContract::test_default_sweep_bytes, which this
corpus adds to and does not replace.

To rewrite the recorded results after a change of output that is meant,
run from the repository root

    PYTHONPATH=src python tests/test_corpus.py

It prints the id of every entry whose results differ from the committed
file's (git's HEAD, or the file as it was where git has none), one a line,
with "(added)" or "(removed)" after an id that only one of them has, and
prints nothing when none differs: the list of changed entries a change of
output is recorded with. To add a command, add an entry with its "id" and
"argv" and rewrite.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from arcplate.cli import main

CORPUS = Path(__file__).with_name("corpus.json")
TEXT_LIMIT = 2000

# name -> bytes of a file, or None for a directory
FIXTURES = {
    "foil.json": b'[\n  {\n    "name": "foil",\n    "youngs_modulus_pa": 70000000000.0,\n'
                 b'    "poisson_ratio": 0.35\n  }\n]\n',
    "alloy.json": b'[{"name": "My Alloy-2", "youngs_modulus_pa": 50e9, "poisson_ratio": 0.3}]',
    "odd.json": '[{"name": "q\\"uo/te é", "youngs_modulus_pa": 60e9, '
                '"poisson_ratio": 0.3}]'.encode(),
    "mine.json": b'[{"name": "gold", "youngs_modulus_pa": 90e9, "poisson_ratio": 0.40},\n'
                 b' {"name": "mylar", "youngs_modulus_pa": 3.5e9, "poisson_ratio": 0.38,\n'
                 b'  "sigma_e_pa": 0.5e9, "sigma_nu": 0.02}]\n',
    "tokens.json": b'[{"name": "Au", "youngs_modulus_pa": 79e9, "poisson_ratio": 0.4},'
                   b' {"name": "a-b", "youngs_modulus_pa": 79e9, "poisson_ratio": 0.4},'
                   b' {"name": "a_b", "youngs_modulus_pa": 79e9, "poisson_ratio": 0.4}]',
    "extreme.json": b'[{"name": "soft", "youngs_modulus_pa": 1e-313, "poisson_ratio": 0.3},'
                    b' {"name": "stiff", "youngs_modulus_pa": 1e308, "poisson_ratio": 0.3}]',
    "empty.json": b"[]",
    "missing-field.json": b'[{"name": "x", "poisson_ratio": 0.3}]',
    "negative-modulus.json": b'[{"name": "x", "youngs_modulus_pa": -1, "poisson_ratio": 0.3}]',
    "poisson-2.json": b'[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 2}]',
    "unknown-field.json": b'[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                          b' "young_modulus": 1}]',
    "boolean.json": b'[{"name": "x", "youngs_modulus_pa": true, "poisson_ratio": 0.3}]',
    "sigma-nan.json": b'[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                      b' "sigma_e_pa": NaN}]',
    "object.json": b'{"name": "x"}',
    "entry-not-object.json": b"[3]",
    "broken.json": b"{",
    "same-name.json": b'[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3},'
                      b' {"name": "X", "youngs_modulus_pa": 2e9, "poisson_ratio": 0.2}]',
    "name-number.json": b'[{"name": 3, "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3}]',
    "repeated-field.json": b'[{"name": "x", "youngs_modulus_pa": 1e9, "poisson_ratio": 0.3,'
                           b' "poisson_ratio": 0.2}]',
    "latin-1.json": b'\xff\xfe[{"name": "x"}]',
    "taken.csv": None,
    "side.meta.json": None,
}

# The child of test_errors_do_not_depend_on_the_hash_seed: main() on each
# argv read from stdin, with (exit code, stdout, stderr) written as JSON.
CHILD = """\
import contextlib, io, json, sys
from arcplate.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def stored(text: str) -> object:
    """The text with each timestamp blanked, or its SHA-256 if it is long."""
    text = re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""', text)
    if len(text) <= TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def result(code: int, out: str, err: str, files: dict[str, str]) -> dict:
    return {"exit": code, "stdout": stored(out), "stderr": stored(err),
            "files": {name: stored(text) for name, text in sorted(files.items())}}


def write_fixtures(directory: Path) -> None:
    for name, content in FIXTURES.items():
        if content is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(content)


def run(argv: list[str], directory: Path) -> dict:
    """What main(argv) gives in directory, which holds FIXTURES; the files it
    leaves are read and removed."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")  # as in a fresh interpreter
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for path in directory.iterdir():
        if path.name not in FIXTURES:
            files[path.name] = path.read_text(encoding="utf-8")
            path.unlink()
    return result(code, out.getvalue(), err.getvalue(), files)


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


ENTRIES = load()


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_fixtures(path)
    return path


def test_ids_are_unique():
    ids = [entry["id"] for entry in ENTRIES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_command(entry, directory):
    expected = {key: entry[key] for key in ("exit", "stdout", "stderr", "files")}
    assert run(entry["argv"], directory) == expected


def test_errors_do_not_depend_on_the_hash_seed(tmp_path):
    """Every failing command gives its recorded bytes in two interpreters
    whose string hashing differs (PYTHONHASHSEED 1 and 2), one per seed."""
    errors = [entry for entry in ENTRIES if entry["exit"] != 0]
    assert len(errors) >= 40
    write_fixtures(tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    package_parent = str(Path(sys.modules["arcplate"].__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        child = subprocess.run(
            [sys.executable, "-c", CHILD], input=json.dumps([e["argv"] for e in errors]),
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )
        assert child.returncode == 0, child.stderr
        for entry, (code, out, err) in zip(errors, json.loads(child.stdout), strict=True):
            assert result(code, out, err, {}) == {
                key: entry[key] for key in ("exit", "stdout", "stderr", "files")
            }, (seed, entry["id"])
        assert sorted(os.listdir(tmp_path)) == sorted(FIXTURES)  # no file left behind


def committed() -> list[dict]:
    """The entries of corpus.json at git's HEAD, or in the file where git
    cannot show it."""
    try:
        git = subprocess.run(["git", "show", f"HEAD:./{CORPUS.name}"], cwd=CORPUS.parent,
                             capture_output=True, encoding="utf-8")
    except OSError:  # no git
        return load()
    return json.loads(git.stdout) if git.returncode == 0 else load()


def rewrite() -> None:
    """Run every command of corpus.json, write its results back, and print
    the id of every entry that differs from the committed one."""
    before = {entry["id"]: entry for entry in committed()}
    entries = []
    with tempfile.TemporaryDirectory() as name:
        write_fixtures(Path(name))
        for entry in load():
            entries.append({"id": entry["id"], "argv": entry["argv"],
                            **run(entry["argv"], Path(name))})
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    for entry in entries:
        old = before.pop(entry["id"], None)
        if old is None:
            print(f"{entry['id']} (added)")
        elif old != entry:
            print(entry["id"])
    for name in before:
        print(f"{name} (removed)")


if __name__ == "__main__":
    rewrite()
