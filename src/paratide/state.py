"""Grid, model state container, and the exact linear state algebra.

The five prognostic fields live in one contiguous ``(5, ny, nx)`` float64
block so that the correction algebra and the time stepper work on whole
states with single array operations.  States are immutable value objects:
arrays are frozen after construction and every operation returns a fresh
state, so states can be shared freely between concurrent workers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridMismatchError, NonFiniteError

DEFAULT_VELOCITY_CAP = 100.0  # m/s; ~100x any physical ocean velocity


class Field(Enum):
    """The five prognostic fields, in serialization order."""

    U = 0      # zonal velocity (m/s)
    V = 1      # meridional velocity (m/s)
    ETA = 2    # surface elevation (m)
    T = 3      # temperature (degC)
    S = 4      # salinity (psu)


FIELD_ORDER = (Field.U, Field.V, Field.ETA, Field.T, Field.S)
N_FIELDS = len(FIELD_ORDER)


def store_whole(owner, *names: str) -> None:
    """Store the named fields of a frozen dataclass as ints (36.0 and
    np.int64(36) as 36); a bool or a value that is no whole number raises
    a ValueError that names the field."""
    for name in names:
        value = getattr(owner, name)
        try:
            whole = int(value)
        except (TypeError, ValueError, OverflowError):      # None, nan, inf
            whole = None
        if isinstance(value, bool) or whole is None or whole != value:
            raise ValueError(f"{name}={value!r} is not a whole number")
        object.__setattr__(owner, name, whole)


def store_float(owner, *names: str) -> None:
    """Store the named fields of a frozen dataclass as floats, so that a
    setting built in code (H=8) equals, and hashes as, the parsed one (8.0);
    a bool, a value that is no real number or one past the float range
    raises a ValueError that names the field."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name}={value!r} is not a real number")
        try:
            real = float(value)
        except OverflowError as err:                        # an int past 1e308
            raise ValueError(f"{name}={value!r} is past the float range") from err
        object.__setattr__(owner, name, real)


@dataclass(frozen=True)
class Grid:
    """Doubly periodic structured grid.

    nx, ny are cell counts (at least 4 so the centered stencils have three
    distinct neighbours); dx, dy are cell sizes in meters.
    """

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        store_whole(self, "nx", "ny")
        store_float(self, "dx", "dy")
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"nx and ny must be at least 4, got nx={self.nx}, ny={self.ny}")
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):
            raise ValueError("dx and dy must be positive and finite")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelState:
    """All five prognostic fields on a grid at one integer-second time stamp.

    Times are integer seconds so that step arithmetic with divisors of a day
    stays exact; non-integer stamps are rejected up front.
    """

    grid: Grid
    data: np.ndarray          # (5, ny, nx) float64, frozen
    time: int

    def __post_init__(self):
        store_whole(self, "time")
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.data.shape != (N_FIELDS, self.grid.ny, self.grid.nx):
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if self.data.dtype != np.float64:
            object.__setattr__(self, "data", self.data.astype(np.float64))
        _freeze(self.data)

    def __reduce__(self):
        # Unpickling goes through __init__, so a state that comes back from
        # a worker process is frozen like any other.
        return (ModelState, (self.grid, self.data, self.time))

    def field(self, f: Field) -> np.ndarray:
        return self.data[f.value]

    def with_time(self, time: int) -> "ModelState":
        return ModelState(self.grid, self.data, time)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def bit_equal(self, other: "ModelState") -> bool:
        """Bitwise equality of every field value plus grid and time stamp."""
        return (
            self.grid == other.grid
            and self.time == other.time
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass(frozen=True)
class StepHistory:
    """Current state plus the tendencies its next step reads.

    tendencies holds at most two frozen arrays laid out like
    ModelState.data, oldest first, taken one step of dt apart, the newest
    one step before ``current.time``; dt is None exactly when there are
    none (a cold start).  This is the multistep memory a warm restart
    preserves and a cold restart drops.
    """

    current: ModelState
    tendencies: tuple[np.ndarray, ...] = ()
    dt: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tendencies", tuple(self.tendencies))
        if len(self.tendencies) > 2:
            raise ValueError("history holds at most 2 tendencies")
        if (self.dt is None) != (not self.tendencies):
            raise ValueError("a history has a step size exactly when it has tendencies")
        for data in self.tendencies:
            if data.shape != self.current.data.shape:
                raise ValueError(
                    f"tendency shape {data.shape} does not match grid {self.current.grid.shape}"
                )
            _freeze(data)


@dataclass(frozen=True)
class BlowUpReport:
    """First violation found by validate_state."""

    field_name: Field
    index: tuple[int, int]    # (row, col) of the first offending value
    value: float
    reason: str               # "non_finite" or "velocity_cap"

    def __str__(self) -> str:
        return (
            f"blow-up in {self.field_name.name} at {self.index}: "
            f"{self.value!r} ({self.reason})"
        )


def _check_compatible(a: ModelState, b: ModelState) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if not a.is_finite() or not b.is_finite():
        raise NonFiniteError("state algebra requires finite operands")


def state_diff(a: ModelState, b: ModelState) -> ModelState:
    """Exact fieldwise subtraction a - b; the result keeps a's time stamp."""
    _check_compatible(a, b)
    return ModelState(a.grid, a.data - b.data, a.time)


def state_add(a: ModelState, b: ModelState) -> ModelState:
    """Exact fieldwise sum a + b; the result keeps a's time stamp."""
    _check_compatible(a, b)
    return ModelState(a.grid, a.data + b.data, a.time)


def validate_state(s: ModelState, velocity_cap: float = DEFAULT_VELOCITY_CAP) -> BlowUpReport | None:
    """Return None if the state is sane, else a report on the first offender.

    A state blows up when any value is non-finite or when either velocity
    component exceeds the cap in magnitude.  The healthy path is a pair of
    cheap whole-array checks; offender lookup only runs on failure.
    """
    masks = (("non_finite", ~np.isfinite(s.data)),
             ("velocity_cap", np.abs(s.data[:2]) > velocity_cap))
    for reason, bad in masks:
        if bad.any():
            f_idx, row, col = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return BlowUpReport(
                field_name=FIELD_ORDER[f_idx],
                index=(int(row), int(col)),
                value=float(s.data[f_idx, row, col]),
                reason=reason,
            )
    return None
