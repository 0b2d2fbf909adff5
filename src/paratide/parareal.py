"""Parareal driver: coarse init sweep, fine propagation, correction sweep.

The driver operates on propagator callables ``fn(state, slice_index,
iteration) -> state`` so that closed-form test propagators can stand in for
the real ones; ``run_parareal`` binds PropagatorSpec values into
Propagator objects, which are such callables.  A propagator's output
depends on (state, slice) only: ``iteration`` only names its work
directory.  Sweep k therefore does not propagate U^k_{k-1} = U^{k-1}_{k-1}
again, but reuses the coarse value that sweep k-1 kept for it.

All state arithmetic between propagations goes through the exact state
algebra (state_add / state_diff), with one shortcut: when the freshly
computed coarse value is bit-identical to the retained one, the correction
G + (F - G) is replaced by F itself — the exact-arithmetic value — so the
standard exactness-propagation invariant holds bit-for-bit instead of up to
rounding.

Two schedules give the same bits, and the fine propagator picks one.
In-process fine lanes, batched into integrate_batch calls on forked
workers, run on the iteration barrier: init sweep, then per iteration a
fine phase and a correction sweep.  The sweeps hand U^k_n to the coarse
propagator just as fine lane (k+1, n) can start, so the barrier wraps the
coarse propagator: the wrapper gives the lane to an idle worker, then
propagates.  Every other propagator runs slice by slice on threads, each
slice starting as soon as its input is known, so the fine slices of
iteration k+1 run beside the coarse chain of k.

A fine propagation that fails (divergence, killed external run, missing
output) leaves its correction undefined; in continue mode the sweep then
keeps the uncorrected coarse value for that slice and flags it, in abort
mode the run stops.  One rule, _settle, turns an iteration's failures into
events or the raised error for both schedules, in barrier order: the fine
slices by slice index, then the coarse sweep's break.
"""

from __future__ import annotations

import json
import os
import time as _time
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .checkpoint import write_checkpoint
from .config import ABORT, PararealConfig
from .errors import BlowUpError
from .metrics import converged, errors_at_final
from .propagator import PropagatorSpec, SliceLayout, check_start, propagate
from .solver import ModelParams, integrate_batch
from .state import Field, ModelState, StepHistory, state_add, state_diff

PropagatorFn = Callable[[ModelState, int, int], ModelState]
Outcome = ModelState | BlowUpError

@dataclass(frozen=True)
class BlowUpEvent:
    k: int
    slice_index: int
    phase: str           # "fine" | "correction"
    message: str


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration bookkeeping for the run report.

    wall_coarse_s and wall_fine_s span from the first start to the last end
    of the iteration's coarse and fine work.  On the barrier schedule they
    are the correction sweep and the fine phase (the init sweep and 0 at
    k = 0), the fine wall starting with the first lane started during the
    sweep before it; iterations overlap then, as on the pipelined schedule,
    so the walls do not add up to the run's wall.
    """

    k: int
    wall_coarse_s: float
    wall_fine_s: float
    # field -> (E_inf, E_2) at T against the reference, None per field
    # where undefined; None as a whole when no reference is known
    errors: dict[Field, tuple[float, float] | None] | None
    blow_up_slices: tuple[int, ...] = ()


@dataclass(frozen=True)
class PararealResult:
    iterates: tuple[tuple[ModelState, ...], ...]      # [k][n], n = 0..n_slices
    records: tuple[IterationRecord, ...]
    blow_ups: tuple[BlowUpEvent, ...]
    stopped_at_epsilon: bool
    aborted: bool = False

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
    propagator with a run_dir works under run_dir/k<iteration>/slice<n>/<role>/.
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
            workdir = Path(self.run_dir) / f"k{iteration}" / f"slice{slice_index}" / self.role
        return propagate(
            self.spec,
            StepHistory(state),                 # every slice starts cold
            state.time + self.layout.slice_length,
            self.params,
            slice_index=slice_index,
            iteration=iteration,
            workdir=workdir,
            timeout=self.timeout,
        ).current


def _in_process(fn: PropagatorFn) -> bool:
    return isinstance(fn, Propagator) and fn.spec.mode == "internal"


def _run_lanes(
    fn: Propagator, k: int, slices: Sequence[int], states: Sequence[ModelState]
) -> list[ModelState | BlowUpError]:
    """One chunk of a fine phase: the outcome of each slice, in order.

    The chunk is integrated as the lanes of one integrate_batch call,
    looked up at call time.  A slice that fails yields its BlowUpError, and
    the other slices go on.  Module level, so a worker process receives it
    by import path.
    """
    outcomes = integrate_batch(states, fn.layout.slice_length, fn.spec.dt, fn.params)
    for n, out in zip(slices, outcomes):
        if isinstance(out, BlowUpError):
            out.slice_index, out.iteration = n, k
    return outcomes


def _timed_outcome(fn: PropagatorFn, k: int, n: int, state: ModelState):
    """One task of the pipelined schedule: (outcome, start, end), the
    outcome being the propagated state or the BlowUpError it raised."""
    start = _time.perf_counter()
    try:
        out = fn(state, n, k)
    except BlowUpError as err:
        out = err
    return out, start, _time.perf_counter()


def _fine_chunks(cfg: PararealConfig, lanes: int) -> int:
    """Chunks an in-process fine phase of this many lanes is cut into.

    At most max_parallel_fine and the usable CPUs.  Platforms without
    os.sched_getaffinity (macOS; Windows, which cannot fork) keep the lanes
    in this process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cfg.max_parallel_fine, lanes, cpus)


def coarse_init_sweep(
    u0: ModelState, cfg: PararealConfig, coarse_fn: PropagatorFn
) -> list[ModelState]:
    """Sequential coarse pass producing the zeroth iterate U^0_0..U^0_N.

    The coarse values double as the retained G^0 for the first correction.
    A blow-up here is fatal: there is nothing to fall back on yet.
    """
    states = [u0]
    for n in range(cfg.layout.n_slices):
        states.append(coarse_fn(states[n], n, 0))
    return states


def fine_parallel_phase(
    u_prev: Sequence[ModelState],
    pool: Executor | None,
    cfg: PararealConfig,
    fine_fn: Propagator,
    k: int,
    started: dict[int, Future] | None = None,
) -> list[Outcome | None]:
    """Concurrent fine propagation for slices n = k-1 .. N_t-1 by an
    in-process Propagator.

    The lanes the pool took during the coarse sweep (started: their
    one-lane outcomes by slice) are kept.  The rest are cut into w
    contiguous chunks (see _fine_chunks; w = 1 without a pool), a worker's
    chunk one lane shorter while its started lane runs.  This process runs
    the first chunk and the pool the others, each through _run_lanes.
    cfg and k stay the third and fifth arguments: bench/spans.py reads them
    by position.

    Returns the outcomes indexed by target slice n+1 over the full 0..N_t
    range: the fine value or the BlowUpError of slice n, None below the
    loop start, where slices are already exact.  Outcomes are gathered by
    slice index, so the worker count cannot change a bit.
    """
    started = started or {}
    rest = [n for n in range(k - 1, cfg.layout.n_slices) if n not in started]
    busy = sum(not f.done() for f in started.values())
    total = len(rest) + busy
    w = (_fine_chunks(cfg, total) or 1) if pool is not None else 1
    cuts = [i * total // w - max(min(i - 1, busy), 0) for i in range(w + 1)]
    chunks = [rest[cuts[i]:cuts[i + 1]] for i in range(w)]
    futures = [(c, pool.submit(_run_lanes, fine_fn, k, c, [u_prev[n] for n in c]))
               for c in chunks[1:] if c] + [([n], f) for n, f in started.items()]
    local = _run_lanes(fine_fn, k, chunks[0], [u_prev[n] for n in chunks[0]])
    outcomes = dict(zip(chunks[0], local))
    for c, future in futures:
        outcomes.update(zip(c, future.result()))
    return [outcomes.get(m - 1) for m in range(cfg.layout.n_slices + 1)]


def correction_sweep(
    u_prev: Sequence[ModelState],
    fine: Sequence[Outcome | None],
    g_prev: Sequence[ModelState],
    cfg: PararealConfig,
    coarse_fn: PropagatorFn,
    k: int,
) -> tuple[list[ModelState], list[ModelState], tuple[int, BlowUpError] | None]:
    """Sequential coarse sweep with corrections for n = k-1 .. N_t-1.

    Slices below the loop start carry over unchanged (they are already
    exact).  At n = k-1 the retained coarse value g_prev[k] stands in for a
    fresh one (see the module docstring).  A failed fine run keeps the
    unedited coarse value for that slice.  Returns (next iterate, retained
    coarse values, break): a coarse blow-up at slice n truncates the sweep
    and is returned as the break (n, error), else None.
    """
    u_next: list[ModelState] = list(u_prev)
    g_next: list[ModelState] = list(g_prev)
    u_next[k] = _corrected(g_prev[k], fine[k], g_prev[k])
    for n in range(k, cfg.layout.n_slices):
        try:
            g_next[n + 1] = coarse_fn(u_next[n], n, k)
        except BlowUpError as err:
            return u_next, g_next, (n, err)
        u_next[n + 1] = _corrected(g_next[n + 1], fine[n + 1], g_prev[n + 1])
    return u_next, g_next, None


def _corrected(g_new: ModelState, fine: Outcome, g_old: ModelState) -> ModelState:
    """U^k_{n+1} from G^k_{n+1}, F^k_{n+1} and the retained G^{k-1}_{n+1};
    a failed fine run (its error) keeps the coarse value."""
    if isinstance(fine, BlowUpError):
        return g_new
    if g_new.bit_equal(g_old):
        # G terms cancel exactly, so the exact-arithmetic update is F.
        return fine
    return state_add(g_new, state_diff(fine, g_old))


def _settle(k: int, fine: Sequence[Outcome | None], coarse_break: tuple[int, BlowUpError] | None,
            abort: bool) -> list[BlowUpEvent]:
    """Iteration k's failures as events in barrier order: the fine slices
    by index (fine is indexed by target slice, as fine_parallel_phase
    returns it), then the sweep's break.  In abort mode the first failure
    is raised instead."""
    failures = [(m - 1, "fine", out) for m, out in enumerate(fine)
                if isinstance(out, BlowUpError)]
    if coarse_break is not None:
        failures.append((coarse_break[0], "correction", coarse_break[1]))
    if failures and abort:
        raise failures[0][2]
    return [BlowUpEvent(k, n, phase, str(err)) for n, phase, err in failures]


def _barrier_schedule(u0, cfg, coarse_fn, fine_fn, pool, workers):
    """Iterates 0, 1, ... on the iteration barrier, each as (states,
    events, coarse wall, fine wall).  The sweeps propagate through a
    wrapper that first hands U^k_n, up to k = cfg.iterations - 1, to an
    idle worker as fine lane (k+1, n), a one-lane call of the next fine
    phase; the phase runs the inputs no worker took."""
    abort = cfg.on_blow_up == ABORT
    started: dict[int, Future] = {}   # n -> the outcomes of an early lane
    first = None                      # when the first early lane started

    def coarse(state, n, k):
        nonlocal first
        if k < cfg.iterations and sum(not f.done() for f in started.values()) < workers:
            first = first or _time.perf_counter()
            started[n] = pool.submit(_run_lanes, fine_fn, k + 1, [n], [state])
        return coarse_fn(state, n, k)

    t0 = _time.perf_counter()
    u = coarse_init_sweep(u0, cfg, coarse)
    yield u, [], _time.perf_counter() - t0, 0.0
    g = list(u)
    for k in range(1, cfg.iterations + 1):
        t0 = _time.perf_counter()
        fine = fine_parallel_phase(u, pool, cfg, fine_fn, k, started)
        t1 = _time.perf_counter()
        wall_fine, started, first = t1 - (first or t0), {}, None
        events = _settle(k, fine, None, abort)
        u, g, coarse_break = correction_sweep(u, fine, g, cfg, coarse, k)
        events += _settle(k, [], coarse_break, abort)
        yield u, events, _time.perf_counter() - t1, wall_fine


def _pipelined_schedule(u0, cfg, coarse_fn, fine_fn, pool, w):
    """Iterates 0, 1, ... of the dependency-driven schedule, as
    _barrier_schedule yields them.

    coarse(k, n) needs U^k_n, fine(k, n) needs U^{k-1}_n, and U^k_{n+1} is
    formed once G^k_{n+1}, F^k_{n+1} and G^{k-1}_{n+1} are in.  A task
    (k, phase, n) is fine(k, n) for phase 0 and coarse(k, n) for phase 1,
    so tasks sort in barrier order.  At most w are in flight: ready coarse
    tasks first, then the lowest (k, n).  A failure bars what the barrier
    would not reach after it: in abort mode every later task, in continue
    mode, for a coarse failure, the later iterations.  Iterate k is yielded
    once U^k_N is formed or, when a failure blocks it, once nothing is in
    flight, its failures settled as on the barrier (an init-sweep failure
    always raises); tasks still running at a stop are left to the
    executor's shutdown.
    """
    n_slices, last_k = cfg.layout.n_slices, cfg.iterations
    abort = cfg.on_blow_up == ABORT
    u, g, fine = {}, {}, {}     # (k, n) -> U^k_n (n >= k), G^k_n, F^k_n or its error
    coarse_failure = {}         # k -> (n, BlowUpError)
    spans = {}                  # (k, phase) -> (first start, last end)
    formed = {k: k for k in range(1, last_k + 1)}   # next n to form U^k_n
    ready, in_flight = set(), {}
    bar = (last_k + 1,)

    def land(k, n, state):
        u[k, n] = state
        if n < n_slices:
            ready.add((k, 1, n))
            if k < last_k:
                ready.add((k + 1, 0, n))

    def dispatch():
        while len(in_flight) < w:
            todo = [t for t in ready if t < bar]
            if not todo:
                return
            task = min(todo, key=lambda t: (-t[1], t))
            ready.remove(task)
            k, phase, n = task
            fn, state = (coarse_fn, u[k, n]) if phase else (fine_fn, u[k - 1, n])
            in_flight[pool.submit(_timed_outcome, fn, k, n, state)] = task

    def harvest(future):
        nonlocal bar
        task = k, phase, n = in_flight.pop(future)
        out, start, end = future.result()
        first, last = spans.get((k, phase), (start, end))
        spans[k, phase] = (min(first, start), max(last, end))
        failed = isinstance(out, BlowUpError)
        if phase == 0:
            fine[k, n + 1] = out
        elif failed:
            coarse_failure[k] = (n, out)
        else:
            g[k, n + 1] = out
            if k == 0:
                land(0, n + 1, out)
        if failed and (abort or phase == 1):
            bar = min(bar, task if abort else (k + 1,))

    def form():
        for k, m in formed.items():
            # G^k_k is G^{k-1}_k: U^k_{k-1} = U^{k-1}_{k-1}
            while (k, m) in fine and (k - 1, m) in g and (m == k or (k, m) in g):
                g_old = g[k - 1, m]
                land(k, m, _corrected(g_old if m == k else g[k, m], fine[k, m], g_old))
                m += 1
            formed[k] = m

    def wall(k, phase):
        first, last = spans.get((k, phase), (0.0, 0.0))
        return last - first

    land(0, 0, u0)
    states = [u0] * (n_slices + 1)
    for k in range(last_k + 1):
        while (k, n_slices) not in u:
            dispatch()
            if not in_flight:
                break   # a failure in iteration k blocks it
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                harvest(future)
            form()
        events = _settle(k, [fine.get((k, m)) for m in range(n_slices + 1)],
                         coarse_failure.get(k), abort or k == 0)
        states = [u.get((k, n), states[n]) for n in range(n_slices + 1)]
        for n in range(n_slices + 1):   # later iterations need neither
            g.pop((k - 1, n), None)
            fine.pop((k, n), None)
        yield states, events, wall(k, 1), wall(k, 0)


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

    The error monitor compares the final-time iterate against reference,
    the fine trajectory (restarted_serial_run of cfg.fine, cached by
    harness.serial_reference): when one is given, each IterationRecord
    carries the norms of its iterate.  The driver never runs the serial
    fine problem itself, so epsilon > 0 needs a reference; the loop then
    stops once both norms fall below epsilon for every monitored field.
    It always stops at max_iterations (at iteration N_t the fine
    trajectory is reproduced outright).
    """
    check_start(u0, cfg.layout)
    monitoring = cfg.epsilon > 0
    if monitoring and reference is None:
        raise ValueError("epsilon stopping needs a reference trajectory")
    t_end = cfg.layout.t0 + cfg.layout.total_seconds
    if reference is not None and not (
            reference and reference[-1].time == t_end and reference[-1].grid == u0.grid):
        raise ValueError(f"reference must end at the run's final time t={t_end} on u0's grid")
    run_dir = Path(run_dir) if run_dir is not None else None
    if coarse_fn is None:
        coarse_fn = Propagator(cfg.coarse, params, cfg.layout, run_dir, "coarse", timeout)
    if fine_fn is None:
        fine_fn = Propagator(cfg.fine, params, cfg.layout, run_dir, "fine", timeout)
    ref_final = reference[-1] if reference is not None else None

    # One executor per run, started at its first submit.  In-process lanes
    # compute in Python, holding the GIL, and an integrate_batch call needs
    # the inputs of all its lanes: they get forked processes and the
    # barrier.  Other propagators wait on a child process slice by slice:
    # threads, pipelined.  Forked, not spawned: a worker inherits the loaded
    # numpy and paratide instead of importing them afresh, and the driver
    # has started no thread that a fork could catch holding a lock.
    # Imported here, so that a run without processes does not load
    # multiprocessing.
    pool = None
    if _in_process(fine_fn):
        workers = _fine_chunks(cfg, cfg.layout.n_slices) - 1
        if workers:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        schedule = _barrier_schedule(u0, cfg, coarse_fn, fine_fn, pool, workers)
    else:
        w = min(cfg.max_parallel_fine, cfg.layout.n_slices)
        pool = ThreadPoolExecutor(w)
        schedule = _pipelined_schedule(u0, cfg, coarse_fn, fine_fn, pool, w)

    iterates: list[tuple[ModelState, ...]] = []
    records: list[IterationRecord] = []
    all_events: list[BlowUpEvent] = []
    stopped = aborted = False
    try:
        for k, (states, events, wall_coarse, wall_fine) in enumerate(schedule):
            iterates.append(tuple(states))
            errors = None
            if ref_final is not None:
                errors = errors_at_final(states[-1], ref_final, cfg.monitored_fields)
            records.append(IterationRecord(k, wall_coarse, wall_fine, errors,
                                           tuple(e.slice_index for e in events)))
            all_events.extend(events)
            if run_dir is not None:
                _write_iterate_checkpoints(run_dir, k, states)
            if any(e.phase == "correction" for e in events):
                # The sequential chain broke: nothing meaningful follows.
                aborted = True
                break
            stopped = monitoring and all(
                converged(errors[f], cfg.epsilon) for f in cfg.monitored_fields
            )
            if stopped:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    result = PararealResult(
        iterates=tuple(iterates),
        records=tuple(records),
        blow_ups=tuple(all_events),
        stopped_at_epsilon=stopped,
        aborted=aborted,
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
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
