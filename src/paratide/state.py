"""Grid, model state container, and the exact linear state algebra.

The five prognostic fields live in one contiguous ``(5, ny, nx)`` float64
block so that the correction algebra and the time stepper work on whole
states with single array operations.  States are immutable value objects:
arrays are frozen after construction and every operation returns a fresh
state, so states can be shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if not isinstance(self.time, (int, np.integer)) or isinstance(self.time, bool):
            raise ValueError(f"time must be an integer number of seconds, got {self.time!r}")
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        object.__setattr__(self, "time", int(self.time))
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

    @classmethod
    def zeros(cls, grid: Grid, time: int = 0) -> "ModelState":
        return cls(grid, np.zeros((N_FIELDS, grid.ny, grid.nx)), time)

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
    """Current state plus up to three prior tendency evaluations.

    Each entry is (time stamp, tendency), the tendency a frozen array laid
    out like ModelState.data; stamps are strictly increasing,
    uniformly spaced by the active step size, and the most recent entry was
    evaluated exactly one step before ``current.time``.  This is precisely
    the multistep memory a warm restart preserves and a cold restart drops.
    """

    current: ModelState
    tendencies: tuple[tuple[int, np.ndarray], ...] = field(default=())

    def __post_init__(self):
        if len(self.tendencies) > 3:
            raise ValueError("history holds at most 3 tendencies")
        for _, data in self.tendencies:
            if data.shape != self.current.data.shape:
                raise ValueError(
                    f"tendency shape {data.shape} does not match grid {self.current.grid.shape}"
                )
            _freeze(data)
        stamps = [t for t, _ in self.tendencies]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("history time stamps must be strictly increasing")
        gaps = {b - a for a, b in zip(stamps, stamps[1:])}
        if len(gaps) > 1:
            raise ValueError(f"history time stamps must be uniformly spaced, gaps {sorted(gaps)}")


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
