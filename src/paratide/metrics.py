"""Error norms, the speedup model, and runtime-ratio measurement.

Two relative norms measure the distance between a parallel-in-time iterate
and the restarted serial fine solution at final time: a max norm for local
errors and a Euclidean norm for the overall field deviation.  The speedup
model expresses the achievable gain of k iterations over N_t slices given
the fine/coarse runtime ratio m, together with its upper bound
min(m/(k+1), N_t/k) and the largest iteration count that can still beat a
serial fine run.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import LayoutMismatchError, ZeroReferenceError
from .propagator import PropagatorSpec, SliceLayout
from .solver import ModelParams, integrate
from .state import Field, ModelState

ERROR_CSV_HEADER = (
    "run_id", "k", "field", "E_inf", "E_2",
    "wall_coarse_s", "wall_fine_s", "blow_up_flags",
)


def rel_max_norm(approx: np.ndarray, ref: np.ndarray) -> float:
    """max |approx - ref| / max |ref|."""
    approx = np.asarray(approx, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if approx.shape != ref.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {ref.shape}")
    denom = float(np.max(np.abs(ref)))
    if denom == 0.0:
        raise ZeroReferenceError("reference max norm is zero; relative error undefined")
    return float(np.max(np.abs(approx - ref)) / denom)


def rel_l2_norm(approx: np.ndarray, ref: np.ndarray) -> float:
    """||approx - ref||_2 / ||ref||_2."""
    approx = np.asarray(approx, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if approx.shape != ref.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {ref.shape}")
    denom = float(np.linalg.norm(ref.ravel()))
    if denom == 0.0:
        raise ZeroReferenceError("reference 2-norm is zero; relative error undefined")
    return float(np.linalg.norm((approx - ref).ravel()) / denom)


def errors_at_final(
    state: ModelState, reference: ModelState, fields: Sequence[Field]
) -> dict[Field, tuple[float, float] | None]:
    """(E_inf, E_2) per field of state against reference; None marks an
    undefined ratio (identically zero reference field)."""
    out = {}
    for f in fields:
        approx = state.field(f)
        ref = reference.field(f)
        try:
            out[f] = (rel_max_norm(approx, ref), rel_l2_norm(approx, ref))
        except ZeroReferenceError:
            out[f] = None
    return out


def _check_speedup_args(k: int, n_slices: int, m: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_slices < 1:
        raise ValueError(f"N_t must be >= 1, got {n_slices}")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")


def speedup_estimate(k: int, n_slices: int, m: float) -> float:
    """Expected speedup of k iterations over n_slices slices: serial fine
    runtime over parareal runtime, 1 / ((k+1)/m + k/N_t)."""
    _check_speedup_args(k, n_slices, m)
    return 1.0 / ((k + 1) / m + k / n_slices)


def speedup_bound(k: int, n_slices: int, m: float) -> float:
    """Rough upper bound min(m/(k+1), N_t/k); always >= the estimate."""
    _check_speedup_args(k, n_slices, m)
    return min(m / (k + 1), n_slices / k)


def max_profitable_iterations(m: float, n_slices: int) -> int:
    """Largest k whose speedup bound still exceeds 1; 0 means never.

    Computed from the definition by scanning k (the bound is decreasing in
    k, so the scan can stop at the first failure).
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if n_slices < 1:
        raise ValueError(f"N_t must be >= 1, got {n_slices}")
    best = 0
    k = 1
    limit = max(n_slices, int(np.ceil(m))) + 2
    while k <= limit:
        if speedup_bound(k, n_slices, m) > 1.0:
            best = k
            k += 1
        else:
            break
    return best


@dataclass(frozen=True)
class RuntimeRatioResult:
    """Measured fine/coarse runtime ratio over one slice of work."""

    m: float                      # median of the per-repetition ratios
    samples: tuple[float, ...]
    spread: float                 # max - min of the samples
    inner_loops: int              # auto-scaled repetitions per timing


def _time_workload(state: ModelState, spec: PropagatorSpec, slice_seconds: int,
                   params: ModelParams, loops: int) -> float:
    start = _time.perf_counter()
    for _ in range(loops):
        integrate(state, state.time + slice_seconds, spec.dt, params)
    return _time.perf_counter() - start


def measure_runtime_ratio(
    coarse: PropagatorSpec,
    fine: PropagatorSpec,
    state: ModelState,
    slice_seconds: int,
    params: ModelParams,
    repetitions: int = 5,
    min_wall: float = 0.05,
) -> RuntimeRatioResult:
    """Median wall-time ratio of fine vs coarse over a fixed slice workload.

    Both specs must be internal.  If a single coarse slice completes below
    the timing floor, the workload is repeated enough times per sample to
    rise above it (scheduler noise dwarfs the timer otherwise).
    """
    if coarse.mode != "internal" or fine.mode != "internal":
        raise ValueError("runtime-ratio measurement requires internal propagators")
    if repetitions < 5:
        raise ValueError("need at least 5 repetitions for a stable median")
    if slice_seconds % coarse.dt or slice_seconds % fine.dt:
        raise ValueError("slice must be a multiple of both step sizes")

    once = _time_workload(state, coarse, slice_seconds, params, 1)
    loops = max(1, int(np.ceil(min_wall / max(once, 1e-9))))

    ratios = []
    for rep in range(repetitions):
        # Alternate which side runs first, so that a change of host speed
        # between the two timings biases the samples both ways, not all alike.
        sides = (coarse, fine) if rep % 2 == 0 else (fine, coarse)
        t = [_time_workload(state, spec, slice_seconds, params, loops) for spec in sides]
        ratios.append(t[1] / t[0] if rep % 2 == 0 else t[0] / t[1])
    ratios.sort()
    return RuntimeRatioResult(
        m=float(np.median(ratios)),
        samples=tuple(ratios),
        spread=float(ratios[-1] - ratios[0]),
        inner_loops=loops,
    )


@dataclass(frozen=True)
class SliceAverages:
    """Per-slice time-averaged fields of one serial run."""

    spd: int
    layout: SliceLayout
    means: tuple[np.ndarray, ...]     # one (5, ny, nx) block per slice

    def __post_init__(self):
        if len(self.means) != self.layout.n_slices:
            raise LayoutMismatchError(
                f"{len(self.means)} slice averages for {self.layout.n_slices} slices"
            )


def time_averaged_error_series(
    runs: Sequence[SliceAverages],
    reference_spd: int,
    fields: Sequence[Field] = (Field.T,),
) -> dict[int, dict[Field, tuple[float, ...]]]:
    """Per-slice relative max-norm of slice-averaged fields vs a reference run.

    All runs must share the slice layout and grid shape; the reference is
    the entry whose spd matches reference_spd and appears in the output as
    an all-zero series.
    """
    by_spd: dict[int, SliceAverages] = {}
    for run in runs:
        if run.spd in by_spd:
            raise LayoutMismatchError(f"duplicate run at {run.spd} spd")
        by_spd[run.spd] = run
    if reference_spd not in by_spd:
        raise LayoutMismatchError(f"no run at reference spd {reference_spd}")
    reference = by_spd[reference_spd]
    for run in runs:
        if run.layout != reference.layout:
            raise LayoutMismatchError(
                f"run at {run.spd} spd has layout {run.layout}, "
                f"reference has {reference.layout}"
            )
        for a, b in zip(run.means, reference.means):
            if a.shape != b.shape:
                raise LayoutMismatchError("slice averages have mismatched shapes")

    series: dict[int, dict[Field, tuple[float, ...]]] = {}
    for spd in sorted(by_spd):
        run = by_spd[spd]
        per_field = {}
        for f in fields:
            per_field[f] = tuple(
                rel_max_norm(run.means[n][f.value], reference.means[n][f.value])
                for n in range(run.layout.n_slices)
            )
        series[spd] = per_field
    return series


def first_crossing_iteration(
    errors_by_k: Mapping[int, tuple[float, float] | None], epsilon: float
) -> int | None:
    """Smallest k at which both norms are <= epsilon, or None if never.

    An undefined pair (None: identically zero reference field) never
    counts as converged.
    """
    for k in sorted(errors_by_k):
        pair = errors_by_k[k]
        if pair is not None and pair[0] <= epsilon and pair[1] <= epsilon:
            return k
    return None
