"""Namelist-style experiment configuration: flat key=value with sections.

Three sections mirror the usual model/run/output split:

    [config]   slice layout, propagator step counts, run discipline
    [model]    grid and physical parameters
    [io]       output locations

Unknown sections or keys and missing required keys are reported with the
offending line or key named.  A key left out takes the default of what it
sets (ModelParams, PararealConfig, ExperimentConfig; DEFAULT_SPACING for
dx and dy).  parse_config builds the objects the engine runs on --
SliceLayout, a PropagatorSpec per step count, a PararealConfig per fine
step count -- and reports their verdict on the step rules under the key
at fault; ExperimentConfig.step, the CFL floor included, judges the
config's steps and those a command is given.
judged and parsed are the one translation of a bad outside value, a config
key or a command-line flag, into a ValidationError that names it.
parse_model reads only the grid and physics, for single-shot children.
PararealConfig, the driver's settings, lives here rather than with the
driver, so that a single-shot child, which parses configs, never loads
the driver.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import ClassVar

from .errors import ParseError, ValidationError
from .propagator import PropagatorSpec, SliceLayout
from .solver import SECONDS_PER_DAY, ModelParams, cfl_max_dt
from .state import Field, Grid, store_whole

_FIELD_NAMES = {f.name: f for f in Field}
DEFAULT_SPACING = 50_000.0   # m, dx and dy when [model] leaves them out


def int_list(text: str) -> tuple[int, ...]:
    """A comma list of integers; empty items are skipped, an empty list is an error."""
    values = tuple(int(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError("list is empty")
    return values


def _field_list(text: str) -> tuple[Field, ...]:
    names = [x.strip().upper() for x in text.split(",") if x.strip()]
    for name in names:
        if name not in _FIELD_NAMES:
            raise ValueError(f"unknown field {name!r}; choose from {sorted(_FIELD_NAMES)}")
    return tuple(_FIELD_NAMES[name] for name in names)


# The optional keys of each section with the type of their value; a key
# left out keeps the default of the dataclass field it sets.  ModelParams'
# keys take the type they are annotated with.
_PARAM_KEYS = {f.name: {"float": float, "int": int}[f.type] for f in fields(ModelParams)}
_CONFIG_KEYS = {
    "epsilon": float, "max_iterations": int, "monitored_fields": _field_list,
    "on_blow_up": str, "max_parallel_fine": int, "seed": int,
    "spin_up_days": float, "spin_up_spd": int, "reference_spd": int,
}
_IO_KEYS = {"output_dir": str}
_SECTIONS = {
    "config": {"t0", "slice_length", "n_slices", "coarse_spd", "fine_spd", *_CONFIG_KEYS},
    "model": {"nx", "ny", "dx", "dy", *_PARAM_KEYS},
    "io": set(_IO_KEYS),
}


ABORT = "abort"
CONTINUE_UNCORRECTED = "continue_uncorrected"


@dataclass(frozen=True)
class PararealConfig:
    """Everything the driver needs besides the initial state and physics."""

    layout: SliceLayout
    coarse: PropagatorSpec
    fine: PropagatorSpec
    max_iterations: int | None = None          # default: n_slices
    epsilon: float = 1e-2                      # 0 disables epsilon stopping
    on_blow_up: str = CONTINUE_UNCORRECTED
    max_parallel_fine: int = 4
    monitored_fields: tuple[Field, ...] = (Field.U, Field.T, Field.S)

    def __post_init__(self):
        # Messages name the config keys: parse_config reports them as is.
        store_whole(self, "max_parallel_fine")
        if self.max_iterations is not None:
            store_whole(self, "max_iterations")
        if self.fine.spd <= self.coarse.spd:
            raise ValueError(
                f"fine_spd: {self.fine.spd} must be strictly finer than "
                f"coarse_spd={self.coarse.spd}"
            )
        for key, spec in (("coarse_spd", self.coarse), ("fine_spd", self.fine)):
            if spec.restart_policy != "cold":
                raise ValueError(f"{key}: restart_policy {spec.restart_policy!r} would change "
                                 f"nothing: the driver starts every slice cold")
            if self.layout.slice_length % spec.dt:
                raise ValueError(
                    f"slice_length: {self.layout.slice_length}s is not a multiple "
                    f"of the {key}={spec.spd} step ({spec.dt}s)"
                )
        k = self.iterations
        if not 1 <= k <= self.layout.n_slices:
            raise ValueError(
                f"max_iterations={k} must be in [1, n_slices={self.layout.n_slices}]"
            )
        if self.on_blow_up not in (ABORT, CONTINUE_UNCORRECTED):
            raise ValueError(f"unknown on_blow_up mode {self.on_blow_up!r}")
        if self.max_parallel_fine < 1:
            raise ValueError("max_parallel_fine must be >= 1")
        if not 0 <= self.epsilon < float("inf"):
            raise ValueError("epsilon must be >= 0 and finite")
        if not self.monitored_fields:
            raise ValueError("monitored_fields: must name a field; with none, "
                             "every epsilon test would pass at k = 0")
        for i, f in enumerate(self.monitored_fields):
            if f in self.monitored_fields[:i]:
                raise ValueError(f"monitored_fields: {f.name} is listed twice")

    @property
    def iterations(self) -> int:
        return self.layout.n_slices if self.max_iterations is None else self.max_iterations


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.  The run keys default to the
    driver's settings.  restart_policy is no key: the driver starts every
    slice cold, and PararealConfig refuses a spec that is not."""

    grid: Grid
    params: ModelParams
    layout: SliceLayout
    coarse_spd: int
    fine_spds: tuple[int, ...]
    epsilon: float = PararealConfig.epsilon
    max_iterations: int | None = PararealConfig.max_iterations
    monitored_fields: tuple[Field, ...] = PararealConfig.monitored_fields
    on_blow_up: str = PararealConfig.on_blow_up
    max_parallel_fine: int = PararealConfig.max_parallel_fine
    seed: int = 1234
    spin_up_days: float = 30.0
    spin_up_spd: int = 1440
    reference_spd: int = 1440
    output_dir: str = "runs"
    source_path: str = ""

    restart_policy: ClassVar[str] = PropagatorSpec.restart_policy

    def _model_payload(self) -> dict:
        return {
            "grid": list(astuple(self.grid)),
            "params": list(astuple(self.params)),
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

    @property
    def spin_up_seconds(self) -> int:
        return int(round(self.spin_up_days * SECONDS_PER_DAY))

    def spin_up_hash(self) -> str:
        """Hash of what the spin-up integration depends on: grid, physics,
        seed and spin-up step.  Its duration is named by the cache file."""
        return _digest({**self._model_payload(), "spin_up_spd": self.spin_up_spd})

    def run_name(self) -> str:
        stem = Path(self.source_path).stem if self.source_path else "experiment"
        return f"{stem}-{self.hash()}"

    def step(self, key: str, spd: int, span: int | None = None) -> int:
        """The step of spd, judged for this model and, when span is given,
        for slices of span seconds: spd divides a day, the step divides
        span and is no longer than the model's CFL floor.  A ValidationError
        names key, or [model] when no step fits the model at all."""
        dt = judged(f"{key}: ", PropagatorSpec, spd).dt
        if span is not None and span % dt:
            raise ValidationError(f"{key}: {span}s slices are not a multiple of its {dt}s step")
        floor = judged("[model] ", cfl_max_dt, self.grid, self.params)
        if dt > floor:
            raise ValidationError(f"{key}: step of {dt}s exceeds the CFL step floor "
                                  f"of {floor}s ({SECONDS_PER_DAY // floor} spd) for this model")
        return dt

    def parareal_config(self, fine_spd: int) -> PararealConfig:
        """The driver's settings for one fine step count.  Its epsilon is
        0, so the run goes through every iteration: first crossings at this
        config's epsilon are the report's to derive."""
        return PararealConfig(
            layout=self.layout,
            coarse=PropagatorSpec(self.coarse_spd),
            fine=PropagatorSpec(fine_spd),
            max_iterations=self.max_iterations,
            epsilon=0.0,
            on_blow_up=self.on_blow_up,
            max_parallel_fine=self.max_parallel_fine,
            monitored_fields=self.monitored_fields,
        )


def _digest(payload: dict) -> str:
    import hashlib  # loads OpenSSL; single-shot children parse configs but hash none

    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_sections(path: Path) -> dict[str, _Section]:
    if not path.exists():
        raise ParseError(f"{path}: no such config file")
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    current: str | None = None
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err})") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return {name: _Section(name, values) for name, values in sections.items()}


_REQUIRED = object()


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def get(self, key: str, conv, default=_REQUIRED):
        if key not in self.values:
            if default is _REQUIRED:
                raise ValidationError(f"[{self.name}] {key}: required key is missing")
            return default
        return parsed(f"[{self.name}] {key}", conv, self.values[key])

    def given(self, convs: dict) -> dict:
        """The keys of convs that this section sets, converted."""
        return {key: self.get(key, conv) for key, conv in convs.items() if key in self.values}


def judged(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a ValidationError
    after prefix, which names the key or flag at fault."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ValidationError(f"{prefix}{err}") from err


def parsed(label: str, conv, raw: str):
    """conv(raw), a failure reported as a ValidationError:
    '<label>: cannot parse <raw!r> (<err>)'."""
    try:
        return conv(raw)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{label}: cannot parse {raw!r} ({err})") from err


def _model(model: _Section) -> tuple[Grid, ModelParams]:
    grid = judged(
        "[model] grid: ", Grid,
        nx=model.get("nx", int, 32),
        ny=model.get("ny", int, 32),
        dx=model.get("dx", float, DEFAULT_SPACING),
        dy=model.get("dy", float, DEFAULT_SPACING),
    )
    return grid, judged("[model] params: ", ModelParams, **model.given(_PARAM_KEYS))


def parse_model(path: str | Path) -> tuple[Grid, ModelParams]:
    """The grid and physics of a config file, all that a single-shot
    propagator run reads: its window comes from the command line."""
    return _model(_parse_sections(Path(path))["model"])


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    path = Path(path)
    sections = _parse_sections(path)
    grid, params = _model(sections["model"])
    conf, io = sections["config"], sections["io"]
    coarse_spd = conf.get("coarse_spd", int)
    fine_spds = conf.get("fine_spd", int_list)
    layout = judged(
        "[config] layout: ", SliceLayout,
        t0=conf.get("t0", int, 0),
        slice_length=conf.get("slice_length", int),
        n_slices=conf.get("n_slices", int),
    )
    config = ExperimentConfig(
        layout=layout, coarse_spd=coarse_spd, fine_spds=fine_spds,
        grid=grid, params=params, source_path=str(path),
        **conf.given(_CONFIG_KEYS), **io.given(_IO_KEYS),
    )

    # The config's own rules; config.step judges the step counts against a
    # day and the CFL floor, PararealConfig the slices of each fine run.
    if not 0 < config.epsilon < float("inf"):
        raise ValidationError("[config] epsilon: must be positive and finite")
    if config.seed < 0:
        raise ValidationError("[config] seed: must be >= 0")
    if not 0 <= config.spin_up_days * SECONDS_PER_DAY < float("inf"):
        raise ValidationError("[config] spin_up_days: must be >= 0 and finite")

    config.step("[config] coarse_spd", coarse_spd)
    spin_dt = config.step("[config] spin_up_spd", config.spin_up_spd)
    if config.spin_up_seconds % spin_dt:
        raise ValidationError(f"[config] spin_up_days: {config.spin_up_seconds}s is not a "
                              f"multiple of the spin_up_spd={config.spin_up_spd} step ({spin_dt}s)")
    config.step("[config] reference_spd", config.reference_spd)
    for i, nf in enumerate(fine_spds):
        if nf in fine_spds[:i]:
            raise ValidationError(f"[config] fine_spd: {nf} is listed twice")
        judged("[config] fine_spd: ", PropagatorSpec, nf)
        judged("[config] ", config.parareal_config, nf)     # its messages name the keys
    return config
