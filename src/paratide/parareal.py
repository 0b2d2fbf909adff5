"""Parareal driver: coarse init sweep, parallel fine phase, correction sweep.

The driver operates on propagator callables ``fn(state, slice_index,
iteration) -> state`` so that closed-form test propagators can stand in for
the real ones; ``run_parareal`` binds PropagatorSpec values into
Propagator objects, which are such callables.  All state arithmetic between
propagations goes through the exact state algebra (state_add / state_diff),
with one shortcut: when the freshly computed coarse value is bit-identical
to the retained one, the correction G + (F - G) is replaced by F itself —
the exact-arithmetic value — so the standard exactness-propagation
invariant holds bit-for-bit instead of up to rounding.

A fine propagation that fails (divergence, killed external run, missing
output) leaves its correction undefined; in continue mode the sweep then
keeps the uncorrected coarse value for that slice and flags it, in abort
mode the run stops.
"""

from __future__ import annotations

import json
import os
import time as _time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .checkpoint import write_checkpoint
from .errors import BlowUpError
from .metrics import errors_at_final, first_crossing_iteration
from .propagator import PropagatorSpec, SliceLayout, propagate, restarted_serial_run
from .solver import ModelParams, integrate_batch
from .state import Field, ModelState, state_add, state_diff

PropagatorFn = Callable[[ModelState, int, int], ModelState]

ABORT = "abort"
CONTINUE_UNCORRECTED = "continue_uncorrected"

DEFAULT_MONITORED = (Field.U, Field.T, Field.S)


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
    monitored_fields: tuple[Field, ...] = DEFAULT_MONITORED

    def __post_init__(self):
        if self.fine.spd <= self.coarse.spd:
            raise ValueError(
                f"fine spd {self.fine.spd} must exceed coarse spd {self.coarse.spd}"
            )
        for name, spec in (("coarse", self.coarse), ("fine", self.fine)):
            if not self.layout.compatible_with(spec):
                raise ValueError(
                    f"slice length {self.layout.slice_length}s is not a multiple "
                    f"of the {name} step {spec.dt}s"
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
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def iterations(self) -> int:
        return self.layout.n_slices if self.max_iterations is None else self.max_iterations


@dataclass(frozen=True)
class BlowUpEvent:
    k: int
    slice_index: int
    phase: str           # "init" | "fine" | "correction"
    message: str


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration bookkeeping for the run report."""

    k: int
    wall_coarse_s: float
    wall_fine_s: float
    # field -> (E_inf, E_2) at T against the reference, None per field
    # where undefined; None as a whole when no reference is known
    errors: dict[Field, tuple[float, float] | None] | None
    blow_up_slices: tuple[int, ...] = ()


@dataclass(frozen=True)
class PararealResult:
    layout: SliceLayout
    iterates: tuple[tuple[ModelState, ...], ...]      # [k][n], n = 0..n_slices
    records: tuple[IterationRecord, ...]
    blow_ups: tuple[BlowUpEvent, ...]
    stopped_at_epsilon: bool
    aborted: bool = False
    abort_reason: str = ""
    first_crossing: dict[Field, int | None] = field(default_factory=dict)

    @property
    def iterations_run(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> ModelState:
        return self.iterates[-1][-1]


@dataclass(frozen=True)
class Propagator:
    """A spec bound to one run: maps (state, slice, iteration) -> state.

    A plain value, so a forked worker receives it by pickling.  An external
    propagator with a run_dir works under
    run_dir/k<iteration>/slice<n>/<role>/ (serial/ for iteration -1).
    """

    spec: PropagatorSpec
    params: ModelParams
    layout: SliceLayout
    run_dir: str | Path | None = None
    role: str = "propagator"
    timeout: float | None = None

    def __call__(self, state: ModelState, slice_index: int, iteration: int) -> ModelState:
        workdir = None
        if self.spec.mode == "external" and self.run_dir is not None:
            prefix = f"k{iteration}" if iteration >= 0 else "serial"
            workdir = Path(self.run_dir) / prefix / f"slice{slice_index}" / self.role
        return propagate(
            self.spec,
            state,
            state.time + self.layout.slice_length,
            self.params,
            slice_index=slice_index,
            iteration=iteration,
            workdir=workdir,
            timeout=self.timeout,
        ).state


def _in_process(fn: PropagatorFn) -> bool:
    return isinstance(fn, Propagator) and fn.spec.mode == "internal"


def _run_lanes(
    fn: PropagatorFn, k: int, slices: Sequence[int], states: Sequence[ModelState]
) -> list[ModelState | BlowUpError]:
    """One chunk of a fine phase: the outcome of each slice, in order.

    An in-process Propagator integrates the chunk as lanes of one
    integrate_batch call, looked up at call time; any other propagator runs
    slice by slice.  A slice that fails yields its BlowUpError, and the
    other slices go on.  Module level, so a worker process receives it by
    import path.
    """
    if _in_process(fn):
        outcomes = integrate_batch(states, fn.layout.slice_length, fn.spec.dt, fn.params)
        for n, out in zip(slices, outcomes):
            if isinstance(out, BlowUpError):
                out.slice_index, out.iteration = n, k
        return outcomes
    outcomes = []
    for n, state in zip(slices, states):
        try:
            outcomes.append(fn(state, n, k))
        except BlowUpError as err:
            outcomes.append(err)
    return outcomes


def _fine_chunks(cfg: PararealConfig, fine_fn: PropagatorFn, lanes: int) -> int:
    """Chunks a fine phase of this many lanes is cut into.

    At most max_parallel_fine; in-process lanes also at most the usable
    CPUs.  Platforms without os.sched_getaffinity (macOS; Windows, which
    cannot fork) keep in-process lanes in this process.
    """
    w = min(cfg.max_parallel_fine, lanes)
    if _in_process(fine_fn):
        w = min(w, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    return w


def coarse_init_sweep(
    u0: ModelState, cfg: PararealConfig, coarse_fn: PropagatorFn
) -> list[ModelState]:
    """Sequential coarse pass producing the zeroth iterate U^0_0..U^0_N.

    The coarse values double as the retained G^0 for the first correction.
    A blow-up here is fatal: there is nothing to fall back on yet.
    """
    if u0.time != cfg.layout.t0:
        raise ValueError(f"u0 at t={u0.time}, layout starts at t={cfg.layout.t0}")
    states = [u0]
    for n in range(cfg.layout.n_slices):
        states.append(coarse_fn(states[n], n, 0))
    return states


def fine_parallel_phase(
    u_prev: Sequence[ModelState],
    g_prev: Sequence[ModelState],
    cfg: PararealConfig,
    fine_fn: PropagatorFn,
    k: int,
    pool: Executor | None = None,
) -> tuple[list[ModelState | None], list[BlowUpEvent]]:
    """Concurrent fine propagation for slices n = k-1 .. N_t-1.

    The lanes are cut into w contiguous chunks (see _fine_chunks; w = 1
    without a pool).  This process runs the first chunk and the pool the
    others, each through _run_lanes.  g_prev is not read here: the
    correction sweep forms F - G itself.

    Returns (fine values, blow-up events), the values indexed by target
    slice n+1 over the full 0..N_t range (None below the loop start, where
    slices are already exact, and for a failed slice).  Outcomes are
    gathered by slice index, so the worker count cannot change a bit.
    """
    indices = list(range(k - 1, cfg.layout.n_slices))
    w = _fine_chunks(cfg, fine_fn, len(indices)) if pool is not None else 1
    chunks = [indices[i * len(indices) // w:(i + 1) * len(indices) // w] for i in range(w)]
    futures = [pool.submit(_run_lanes, fine_fn, k, c, [u_prev[n] for n in c]) for c in chunks[1:]]
    outcomes = _run_lanes(fine_fn, k, chunks[0], [u_prev[n] for n in chunks[0]])
    for future in futures:
        outcomes += future.result()

    fine_vals: list[ModelState | None] = [None] * (cfg.layout.n_slices + 1)
    events: list[BlowUpEvent] = []
    for n, outcome in zip(indices, outcomes):
        if isinstance(outcome, BlowUpError):
            if cfg.on_blow_up == ABORT:
                raise outcome
            events.append(BlowUpEvent(k, n, "fine", str(outcome)))
        else:
            fine_vals[n + 1] = outcome
    return fine_vals, events


def correction_sweep(
    u_prev: Sequence[ModelState],
    fine_vals: Sequence[ModelState | None],
    g_prev: Sequence[ModelState],
    cfg: PararealConfig,
    coarse_fn: PropagatorFn,
    k: int,
) -> tuple[list[ModelState], list[ModelState], list[BlowUpEvent]]:
    """Sequential coarse sweep with corrections for n = k-1 .. N_t-1.

    Slices below the loop start carry over unchanged (they are already
    exact).  A missing fine value (failed fine run) keeps the unedited
    coarse value for that slice.  Returns (next iterate, retained coarse
    values, events); a coarse blow-up truncates the sweep and is reported
    by a terminal event — the caller decides whether that aborts the run.
    """
    u_next: list[ModelState] = list(u_prev)
    g_next: list[ModelState] = list(g_prev)
    events: list[BlowUpEvent] = []

    for n in range(k - 1, cfg.layout.n_slices):
        try:
            g_new = coarse_fn(u_next[n], n, k)
        except BlowUpError as err:
            events.append(BlowUpEvent(k, n, "correction", str(err)))
            if cfg.on_blow_up == ABORT:
                raise
            return u_next, g_next, events
        g_next[n + 1] = g_new
        fine = fine_vals[n + 1]
        if fine is None:
            u_next[n + 1] = g_new
        elif g_new.bit_equal(g_prev[n + 1]):
            # G terms cancel exactly, so the exact-arithmetic update is F.
            u_next[n + 1] = fine
        else:
            u_next[n + 1] = state_add(g_new, state_diff(fine, g_prev[n + 1]))
    return u_next, g_next, events


def _write_iterate_checkpoints(
    run_dir: Path, k: int, states: Sequence[ModelState]
) -> None:
    for n, s in enumerate(states):
        write_checkpoint(
            s, None, run_dir / f"k{k}" / f"slice{n}" / "iterate.prcp",
            slice_index=n, iteration=k,
        )


def run_parareal(
    u0: ModelState,
    cfg: PararealConfig,
    params: ModelParams,
    *,
    coarse_fn: PropagatorFn | None = None,
    fine_fn: PropagatorFn | None = None,
    reference: Sequence[ModelState] | None = None,
    run_dir: str | Path | None = None,
    run_id: str = "parareal",
    timeout: float | None = None,
) -> PararealResult:
    """Full Parareal loop with convergence monitoring.

    The error monitor compares the final-time iterate against the restarted
    serial fine run: whenever a reference is known, each IterationRecord
    carries the norms of its iterate.  With epsilon > 0 the loop stops once
    both norms fall below it for every monitored field, and always stops at
    max_iterations (at iteration N_t the fine trajectory is reproduced
    outright).  When epsilon stopping is active and no reference is
    supplied, it is computed here by restarted_serial_run from cfg.fine,
    with external work directories under run_dir/serial/slice<n>/; a
    caller's own fine_fn must then come with its reference.
    """
    run_dir = Path(run_dir) if run_dir is not None else None
    monitoring = cfg.epsilon > 0
    if monitoring and reference is None:
        if fine_fn is not None:
            raise ValueError("epsilon stopping with a custom fine_fn needs a reference")
        reference = restarted_serial_run(
            cfg.fine, u0, cfg.layout, params,
            run_dir=run_dir / "serial" if run_dir is not None else None,
            timeout=timeout,
        )
    if coarse_fn is None:
        coarse_fn = Propagator(cfg.coarse, params, cfg.layout, run_dir, "coarse", timeout)
    if fine_fn is None:
        fine_fn = Propagator(cfg.fine, params, cfg.layout, run_dir, "fine", timeout)
    ref_final = reference[-1] if reference is not None else None

    def record_for(k, states, wall_coarse, wall_fine, flagged):
        errors = None
        if ref_final is not None:
            errors = errors_at_final(states[-1], ref_final, cfg.monitored_fields)
        return IterationRecord(k, wall_coarse, wall_fine, errors, tuple(flagged))

    def converged(errors) -> bool:
        # undefined errors (zero reference field) never count as converged;
        # that is a degenerate experiment to flag
        return all(
            errors[f] is not None and errors[f][0] <= cfg.epsilon and errors[f][1] <= cfg.epsilon
            for f in cfg.monitored_fields
        )

    t0 = _time.perf_counter()
    u_curr = coarse_init_sweep(u0, cfg, coarse_fn)
    init_wall = _time.perf_counter() - t0
    g_curr = list(u_curr)

    iterates = [tuple(u_curr)]
    records = [record_for(0, u_curr, init_wall, 0.0, ())]
    all_events: list[BlowUpEvent] = []
    stopped = monitoring and converged(records[0].errors)
    aborted = False
    abort_reason = ""

    if run_dir is not None:
        _write_iterate_checkpoints(run_dir, 0, u_curr)

    # One executor for every fine phase, sized for the widest (k = 1); it
    # starts its workers at the first submit, so a run that stops at k = 0
    # starts none.  In-process lanes compute in Python, so they get forked
    # processes; other propagators wait on a child process, so threads do.
    # Forked, not spawned: a worker inherits the loaded numpy and paratide
    # instead of importing them afresh, and the driver has started no thread
    # that a fork could catch holding a lock.  Imported here, so that a run
    # without processes does not load multiprocessing.
    pool = None
    workers = _fine_chunks(cfg, fine_fn, cfg.layout.n_slices) - 1
    if workers and _in_process(fine_fn):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    elif workers:
        pool = ThreadPoolExecutor(workers)
    try:
        k = 0
        while not stopped and k < cfg.iterations:
            k += 1
            t0 = _time.perf_counter()
            fine_vals, fine_events = fine_parallel_phase(u_curr, g_curr, cfg, fine_fn, k, pool)
            fine_wall = _time.perf_counter() - t0

            t0 = _time.perf_counter()
            u_next, g_next, sweep_events = correction_sweep(
                u_curr, fine_vals, g_curr, cfg, coarse_fn, k
            )
            corr_wall = _time.perf_counter() - t0

            all_events.extend(fine_events)
            all_events.extend(sweep_events)
            if sweep_events:
                # The sequential chain broke: nothing meaningful follows.
                aborted = True
                abort_reason = sweep_events[-1].message

            u_curr, g_curr = u_next, g_next
            iterates.append(tuple(u_curr))
            flagged = [e.slice_index for e in fine_events + sweep_events]
            records.append(record_for(k, u_curr, corr_wall, fine_wall, flagged))
            if run_dir is not None:
                _write_iterate_checkpoints(run_dir, k, u_curr)
            if aborted:
                break
            stopped = monitoring and converged(records[-1].errors)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    first_crossing: dict[Field, int | None] = {}
    if monitoring:
        first_crossing = {
            f: first_crossing_iteration({r.k: r.errors[f] for r in records}, cfg.epsilon)
            for f in cfg.monitored_fields
        }

    result = PararealResult(
        layout=cfg.layout,
        iterates=tuple(iterates),
        records=tuple(records),
        blow_ups=tuple(all_events),
        stopped_at_epsilon=stopped,
        aborted=aborted,
        abort_reason=abort_reason,
        first_crossing=first_crossing,
    )
    if run_dir is not None:
        _write_manifest(run_dir, run_id, cfg, result)
    return result


def _write_manifest(run_dir: Path, run_id: str, cfg: PararealConfig, result: PararealResult) -> None:
    manifest = {
        "run_id": run_id,
        "layout": {
            "t0": cfg.layout.t0,
            "slice_length": cfg.layout.slice_length,
            "n_slices": cfg.layout.n_slices,
        },
        "coarse_spd": cfg.coarse.spd,
        "fine_spd": cfg.fine.spd,
        "max_iterations": cfg.iterations,
        "epsilon": cfg.epsilon,
        "on_blow_up": cfg.on_blow_up,
        "iterations_run": result.iterations_run,
        "stopped_at_epsilon": result.stopped_at_epsilon,
        "aborted": result.aborted,
        "iterations": [
            {
                "k": rec.k,
                "checkpoints": f"k{rec.k}/slice<n>/iterate.prcp",
                "blow_up_slices": list(rec.blow_up_slices),
            }
            for rec in result.records
        ],
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
