"""Namelist-style experiment configuration: flat key=value with sections.

Three sections mirror the usual model/run/output split:

    [config]   slice layout, propagator step counts, run discipline
    [model]    grid and physical parameters
    [io]       output locations

Unknown sections or keys, missing required keys, and every arithmetic
constraint (divisor-of-86400 discipline, slice divisibility, CFL floor)
are reported with the offending line or key named.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .propagator import SliceLayout
from .solver import SECONDS_PER_DAY, ModelParams, cfl_max_dt
from .state import Field, Grid, ModelState

_FIELD_NAMES = {f.name: f for f in Field}

_CONFIG_KEYS = {
    "t0", "slice_length", "n_slices", "coarse_spd", "fine_spd",
    "epsilon", "max_iterations", "monitored_fields", "restart_policy",
    "on_blow_up", "max_parallel_fine", "seed", "spin_up_days",
    "spin_up_spd", "reference_spd",
}
_MODEL_KEYS = {
    "nx", "ny", "dx", "dy", "f0", "g", "H", "nu_h", "kappa",
    "forcing_amp", "forcing_wavenumber", "velocity_cap",
}
_IO_KEYS = {"output_dir"}
_SECTIONS = {"config": _CONFIG_KEYS, "model": _MODEL_KEYS, "io": _IO_KEYS}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    grid: Grid
    params: ModelParams
    layout: SliceLayout
    coarse_spd: int
    fine_spds: tuple[int, ...]
    epsilon: float = 1e-2
    max_iterations: int | None = None
    monitored_fields: tuple[Field, ...] = (Field.U, Field.T, Field.S)
    restart_policy: str = "cold"
    on_blow_up: str = "continue_uncorrected"
    max_parallel_fine: int = 4
    seed: int = 1234
    spin_up_days: float = 30.0
    spin_up_spd: int = 1440
    reference_spd: int = 1440
    output_dir: str = "runs"
    source_path: str = ""

    def _model_payload(self) -> dict:
        return {
            "grid": [self.grid.nx, self.grid.ny, self.grid.dx, self.grid.dy],
            "params": [
                self.params.f0, self.params.g, self.params.H, self.params.nu_h,
                self.params.kappa, self.params.forcing_amp,
                self.params.forcing_wavenumber, self.params.velocity_cap,
            ],
            "seed": self.seed,
        }

    def hash(self) -> str:
        """Hash of everything the reference trajectories depend on.

        Reference caches and run names are keyed by this, so io settings
        and error thresholds do not invalidate them.
        """
        payload = {
            **self._model_payload(),
            "layout": [self.layout.t0, self.layout.slice_length, self.layout.n_slices],
            "spin_up": [self.spin_up_days, self.spin_up_spd],
            "restart_policy": self.restart_policy,
        }
        return _digest(payload)

    def spin_up_hash(self) -> str:
        """Hash of what the spin-up integration depends on: grid, physics,
        seed and spin-up step.  Its duration is named by the cache file."""
        return _digest({**self._model_payload(), "spin_up_spd": self.spin_up_spd})

    def run_name(self) -> str:
        stem = Path(self.source_path).stem if self.source_path else "experiment"
        return f"{stem}-{self.hash()}"


def _digest(payload: dict) -> str:
    import hashlib  # loads OpenSSL; single-shot children parse configs but hash none

    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_sections(path: Path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"{path}:{lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        if current is None:
            raise ParseError(f"{path}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def _convert(self, key: str, conv, default):
        if key not in self.values:
            if default is _REQUIRED:
                raise ValidationError(f"[{self.name}] {key}: required key is missing")
            return default
        raw = self.values[key]
        try:
            return conv(raw)
        except (TypeError, ValueError) as err:
            raise ValidationError(f"[{self.name}] {key}: cannot parse {raw!r} ({err})") from err

    def get_int(self, key, default=None):
        return self._convert(key, int, default)

    def get_float(self, key, default=None):
        return self._convert(key, float, default)

    def get_str(self, key, default=None):
        return self._convert(key, str, default)

    def get_int_list(self, key, default=None):
        return self._convert(key, lambda v: tuple(int(x.strip()) for x in v.split(",") if x.strip()), default)

    def get_str_list(self, key, default=None):
        return self._convert(key, lambda v: tuple(x.strip() for x in v.split(",") if x.strip()), default)


_REQUIRED = object()


def _require_spd(key: str, spd: int) -> None:
    if spd < 1 or SECONDS_PER_DAY % spd != 0:
        raise ValidationError(
            f"[config] {key}: {spd} steps per day does not divide 86400"
        )


def parse_config(path: str | Path, model_only: bool = False) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    With model_only=True only the [model] section is required to make
    sense; the layout receives permissive placeholders.  Single-shot
    propagator runs use that path, since their window comes from the
    command line rather than a slice layout.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such config file")
    sections = _parse_sections(path)
    conf = _Section("config", sections["config"])
    model = _Section("model", sections["model"])
    io = _Section("io", sections["io"])

    try:
        grid = Grid(
            nx=model.get_int("nx", 32),
            ny=model.get_int("ny", 32),
            dx=model.get_float("dx", 50_000.0),
            dy=model.get_float("dy", 50_000.0),
        )
    except ValueError as err:
        raise ValidationError(f"[model] grid: {err}") from err
    try:
        params = ModelParams(
            f0=model.get_float("f0", 1.0e-4),
            g=model.get_float("g", 9.81),
            H=model.get_float("H", 8.0),
            nu_h=model.get_float("nu_h", 100.0),
            kappa=model.get_float("kappa", 50.0),
            forcing_amp=model.get_float("forcing_amp", 1.0e-9),
            forcing_wavenumber=model.get_int("forcing_wavenumber", 3),
            velocity_cap=model.get_float("velocity_cap", 100.0),
        )
    except ValueError as err:
        raise ValidationError(f"[model] params: {err}") from err

    output_dir = io.get_str("output_dir", "runs")

    if model_only:
        layout = SliceLayout(t0=0, slice_length=SECONDS_PER_DAY, n_slices=1)
        return ExperimentConfig(
            grid=grid, params=params, layout=layout,
            coarse_spd=36, fine_spds=(72,),
            output_dir=output_dir, source_path=str(path),
        )

    coarse_spd = conf.get_int("coarse_spd", _REQUIRED)
    fine_spds = conf.get_int_list("fine_spd", _REQUIRED)
    slice_length = conf.get_int("slice_length", _REQUIRED)
    n_slices = conf.get_int("n_slices", _REQUIRED)
    t0 = conf.get_int("t0", 0)

    _require_spd("coarse_spd", coarse_spd)
    if not fine_spds:
        raise ValidationError("[config] fine_spd: list is empty")
    for spd in fine_spds:
        _require_spd("fine_spd", spd)
        if spd <= coarse_spd:
            raise ValidationError(
                f"[config] fine_spd: {spd} must be strictly finer than coarse_spd={coarse_spd}"
            )

    try:
        layout = SliceLayout(t0=t0, slice_length=slice_length, n_slices=n_slices)
    except ValueError as err:
        raise ValidationError(f"[config] layout: {err}") from err
    for key, spd in [("coarse_spd", coarse_spd)] + [("fine_spd", s) for s in fine_spds]:
        step = SECONDS_PER_DAY // spd
        if slice_length % step != 0:
            raise ValidationError(
                f"[config] slice_length: {slice_length}s is not a multiple of the "
                f"{key}={spd} step size ({step}s)"
            )

    max_iterations = conf.get_int("max_iterations", None)
    if max_iterations is not None and not 1 <= max_iterations <= n_slices:
        raise ValidationError(
            f"[config] max_iterations: {max_iterations} must be in [1, n_slices={n_slices}]"
        )

    epsilon = conf.get_float("epsilon", 1e-2)
    if epsilon <= 0:
        raise ValidationError("[config] epsilon: must be positive")

    monitored_names = conf.get_str_list("monitored_fields", ("U", "T", "S"))
    monitored = []
    for name in monitored_names:
        if name.upper() not in _FIELD_NAMES:
            raise ValidationError(
                f"[config] monitored_fields: unknown field {name!r} "
                f"(choose from {sorted(_FIELD_NAMES)})"
            )
        monitored.append(_FIELD_NAMES[name.upper()])

    restart_policy = conf.get_str("restart_policy", "cold")
    if restart_policy not in ("cold", "warm"):
        raise ValidationError("[config] restart_policy: must be cold or warm")
    on_blow_up = conf.get_str("on_blow_up", "continue_uncorrected")
    if on_blow_up not in ("continue_uncorrected", "abort"):
        raise ValidationError("[config] on_blow_up: must be continue_uncorrected or abort")

    max_parallel_fine = conf.get_int("max_parallel_fine", 4)
    if max_parallel_fine < 1:
        raise ValidationError("[config] max_parallel_fine: must be >= 1")
    seed = conf.get_int("seed", 1234)
    if seed < 0:
        raise ValidationError("[config] seed: must be >= 0")
    spin_up_days = conf.get_float("spin_up_days", 30.0)
    if spin_up_days < 0:
        raise ValidationError("[config] spin_up_days: must be >= 0")
    spin_up_spd = conf.get_int("spin_up_spd", 1440)
    _require_spd("spin_up_spd", spin_up_spd)
    reference_spd = conf.get_int("reference_spd", 1440)
    _require_spd("reference_spd", reference_spd)

    # The coarse propagator must respect the CFL floor of the configured
    # model at rest (wave speed only; the floor is a load-time sanity
    # check, the live bound depends on the evolving velocities).
    rest = ModelState.zeros(grid)
    floor_dt = cfl_max_dt(rest, params, grid)
    coarse_dt = SECONDS_PER_DAY // coarse_spd
    if coarse_dt > floor_dt:
        raise ValidationError(
            f"[config] coarse_spd: step of {coarse_dt}s exceeds the CFL step floor "
            f"of {floor_dt}s ({SECONDS_PER_DAY // floor_dt} spd) for this model"
        )

    return ExperimentConfig(
        grid=grid,
        params=params,
        layout=layout,
        coarse_spd=coarse_spd,
        fine_spds=tuple(fine_spds),
        epsilon=epsilon,
        max_iterations=max_iterations,
        monitored_fields=tuple(monitored),
        restart_policy=restart_policy,
        on_blow_up=on_blow_up,
        max_parallel_fine=max_parallel_fine,
        seed=seed,
        spin_up_days=spin_up_days,
        spin_up_spd=spin_up_spd,
        reference_spd=reference_spd,
        output_dir=output_dir,
        source_path=str(path),
    )
