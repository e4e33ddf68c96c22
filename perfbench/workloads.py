"""The three workloads, each a pure function of the seed.

Seed 0 is canonical: default-sweep is then the literal default command, and
near-contact and many-models use the exact ranges their names promise. Other
seeds move the gap bounds by at most 0.5% (0.8% of the upper bound for
near-contact) and the epsilon values by at most 0.02, so the work per run
stays within about 1% of the canonical run. near-contact always starts at
exactly 1.0001 times the sagitta: that row carries the adaptive rule's
largest error, and moving it would move the error by tens of percent.

Lengths reach the command line in metres ("1.0e-07m"), which the program
multiplies by 1.0, so the library configuration uses bit-identical gaps.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

RADIUS = "100e-6"  # m, the command-line default --r 100um
HALF_SPAN = "3e-6"  # m, half of the default --span 6um
POINTS_DEFAULT = 1000
POINTS_SMALL = 150
SAMPLES = 25  # rows checked against the reference, plus the last row
# Every workload requests pfa and ntlo, so the CSV reports ntlo's thicknesses.
REFERENCE_MODEL = ("ntlo", "1")  # (command-line token, gradient weight)

# (name, Young's modulus Pa, Poisson ratio), as arcplate ships them.
GOLD = ("gold", "97e9", "0.421")
SILVER = ("silver", "83.6e9", "0.517")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    flags: tuple[str, ...]  # after "sweep", without --out
    gap_min: str  # m
    gap_max: str  # m
    points: int
    models: tuple[tuple[str, str], ...]  # (command-line token, gradient weight)
    materials: tuple[tuple[str, str, str], ...]  # (name, E, nu)
    materials_file: tuple[dict, ...] = ()  # entries written to a JSON file

    @property
    def builtin_names(self) -> tuple[str, ...]:
        listed = {entry["name"] for entry in self.materials_file}
        return tuple(name for name, _, _ in self.materials if name not in listed)

    def sample_rows(self) -> list[int]:
        stride = max(1, self.points // SAMPLES)
        return sorted(set(range(0, self.points, stride)) | {self.points - 1})

    def cli_args(self, out: str, materials_path: str | None) -> list[str]:
        args = ["sweep", *self.flags]
        if self.materials_file:
            args += ["--materials-file", materials_path]
        return args + ["--out", out]

    def library_spec(self) -> dict:
        """What the in-process child needs to build the same SweepConfig."""
        return {
            "gap_min": float(self.gap_min),
            "gap_max": float(self.gap_max),
            "points": self.points,
            "radius": float(RADIUS),
            "half_span": float(HALF_SPAN),
            "models": [token for token, _ in self.models],
            "builtin_materials": list(self.builtin_names),
            "file_materials": list(self.materials_file),
            "reference_model": REFERENCE_MODEL[0],
            "sample_rows": self.sample_rows(),
        }

    def materials_json(self) -> str:
        return json.dumps(list(self.materials_file), indent=2) + "\n"


def _metres(x: float) -> str:
    return f"{x:.6e}"


def _jitter(rng: random.Random, seed: int, width: float) -> float:
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-width, width)


def sagitta() -> float:
    r, y = float(RADIUS), float(HALF_SPAN)
    return y * y / (r + math.sqrt(r * r - y * y))


def default_sweep(seed: int) -> Workload:
    rng = random.Random(f"default-sweep:{seed}")
    lo = _metres(1e-7 * _jitter(rng, seed, 0.005))
    hi = _metres(1e-6 * _jitter(rng, seed, 0.005))
    flags = () if seed == 0 else ("--gap-min", f"{lo}m", "--gap-max", f"{hi}m")
    return Workload(
        name="default-sweep", seed=seed, flags=flags, gap_min=lo, gap_max=hi,
        points=POINTS_DEFAULT, models=(("pfa", "0"), ("ntlo", "1")),
        materials=(GOLD, SILVER),
    )


def near_contact(seed: int) -> Workload:
    rng = random.Random(f"near-contact:{seed}")
    sag = sagitta()
    lo = repr(sag * 1.0001)
    hi = _metres(sag * (1.3 if seed == 0 else rng.uniform(1.29, 1.3)))
    return Workload(
        name="near-contact", seed=seed,
        flags=("--gap-min", f"{lo}m", "--gap-max", f"{hi}m", "--points", str(POINTS_SMALL)),
        gap_min=lo, gap_max=hi, points=POINTS_SMALL,
        models=(("pfa", "0"), ("ntlo", "1")), materials=(GOLD, SILVER),
    )


def many_models(seed: int) -> Workload:
    rng = random.Random(f"many-models:{seed}")
    lo = _metres(1e-7 * _jitter(rng, seed, 0.005))
    hi = _metres(1e-6 * _jitter(rng, seed, 0.005))
    eps = [
        f"{k / 10:.1f}" if seed == 0 else f"{k / 10 + rng.uniform(-0.02, 0.02):.3f}"
        for k in range(1, 10)
    ]
    e_pa = "70e9" if seed == 0 else f"{70 * _jitter(rng, seed, 0.1):.3f}e9"
    nu = "0.35" if seed == 0 else f"{0.35 + rng.uniform(-0.05, 0.05):.3f}"
    foil = {"name": "foil", "youngs_modulus_pa": float(e_pa), "poisson_ratio": float(nu)}
    models = (("pfa", "0"), ("ntlo", "1"), *((f"scaled-ntlo:{e}", e) for e in eps))
    return Workload(
        name="many-models", seed=seed,
        flags=(
            "--gap-min", f"{lo}m", "--gap-max", f"{hi}m", "--points", str(POINTS_SMALL),
            "--models", ",".join(token for token, _ in models),
            "--materials", "gold,silver,foil",
        ),
        gap_min=lo, gap_max=hi, points=POINTS_SMALL, models=models,
        materials=(GOLD, SILVER, ("foil", e_pa, nu)), materials_file=(foil,),
    )


WORKLOADS = {
    "default-sweep": default_sweep,
    "near-contact": near_contact,
    "many-models": many_models,
}
