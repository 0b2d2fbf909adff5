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

import math
import time as _time
from typing import Mapping, Sequence

import numpy as np

from .errors import ZeroReferenceError
from .propagator import PropagatorSpec
from .solver import ModelParams, integrate
from .state import Field, ModelState

ERROR_CSV_HEADER = (
    "run_id", "k", "field", "E_inf", "E_2",
    "wall_coarse_s", "wall_fine_s", "blow_up_flags",
)


def _relative(approx: np.ndarray, ref: np.ndarray, norm, name: str) -> float:
    """norm(approx - ref) / norm(ref), both taken as float64 arrays of one
    shape; a zero reference norm leaves the ratio undefined."""
    approx = np.asarray(approx, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if approx.shape != ref.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {ref.shape}")
    denom = float(norm(ref))
    if denom == 0.0:
        raise ZeroReferenceError(f"reference {name} is zero; relative error undefined")
    return float(norm(approx - ref) / denom)


def rel_max_norm(approx: np.ndarray, ref: np.ndarray) -> float:
    """max |approx - ref| / max |ref|."""
    return _relative(approx, ref, lambda a: np.max(np.abs(a)), "max norm")


def rel_l2_norm(approx: np.ndarray, ref: np.ndarray) -> float:
    """||approx - ref||_2 / ||ref||_2."""
    return _relative(approx, ref, lambda a: np.linalg.norm(a.ravel()), "2-norm")


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
    if not 0 < m < float("inf"):
        raise ValueError(f"m must be positive and finite, got {m}")


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

    min(m/(k+1), N_t/k) > 1 holds exactly when k + 1 < m and k < N_t.
    """
    _check_speedup_args(1, n_slices, m)
    return max(0, min(n_slices - 1, math.ceil(m) - 2))


def measure_runtime_ratio(
    coarse: PropagatorSpec,
    fine: PropagatorSpec,
    state: ModelState,
    slice_seconds: int,
    params: ModelParams,
    repetitions: int = 5,
) -> float:
    """Median wall-time ratio m of fine vs coarse over a fixed slice workload.

    Both specs must be internal.  If a single coarse slice completes in
    under 0.05 s, the workload is repeated enough times per sample to rise
    above that (scheduler noise dwarfs the timer otherwise).  Within a
    sample the two sides alternate slice by slice, so that a change of host
    speed hits both alike.
    """
    if coarse.mode != "internal" or fine.mode != "internal":
        raise ValueError("runtime-ratio measurement requires internal propagators")
    if repetitions < 5:
        raise ValueError("need at least 5 repetitions for a stable median")

    def timed(spec: PropagatorSpec) -> float:
        start = _time.perf_counter()
        integrate(state, state.time + slice_seconds, spec.dt, params)
        return _time.perf_counter() - start

    loops = max(1, int(np.ceil(0.05 / max(timed(coarse), 1e-9))))
    ratios = []
    for _ in range(repetitions):
        t = [0.0, 0.0]   # coarse, fine
        for i in range(loops):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                t[side] += timed((coarse, fine)[side])
        ratios.append(t[1] / t[0])
    return float(np.median(ratios))


def converged(pair: tuple[float, float] | None, epsilon: float) -> bool:
    """Both norms of an (E_inf, E_2) pair are <= epsilon.

    An undefined pair (None: identically zero reference field) never
    counts as converged.
    """
    return pair is not None and pair[0] <= epsilon and pair[1] <= epsilon


def first_crossing_iteration(
    errors_by_k: Mapping[int, tuple[float, float] | None], epsilon: float
) -> int | None:
    """Smallest k at which the norms have converged, or None if never."""
    for k in sorted(errors_by_k):
        if converged(errors_by_k[k], epsilon):
            return k
    return None
