import dataclasses
import multiprocessing
import os
import pickle
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from paratide import (
    Field,
    Grid,
    ModelParams,
    ModelState,
    PararealConfig,
    PropagatorSpec,
    SliceLayout,
    run_parareal,
)
from paratide.errors import BlowUpError, NonFiniteError, SpawnFailureError, StepMismatchError
from paratide import parareal, propagator
from paratide.parareal import (
    coarse_init_sweep,
    correction_sweep,
    fine_parallel_phase,
    Propagator,
)
from paratide.metrics import first_crossing_iteration
from paratide.propagator import restarted_serial_run
from paratide.solver import integrate

from conftest import CONFIG_DIR, constant_state, faulty_command, random_state

SINGLE_SHOT = (sys.executable, "-m", "paratide", "single-shot",
               "--config", str(CONFIG_DIR / "exp1.conf"))


def flow(factor, slice_length):
    """Exact exponential flow: every field value is scaled per slice."""

    def fn(state, slice_index, iteration):
        return ModelState(state.grid, state.data * factor, state.time + slice_length)

    return fn


def small_cfg(n_slices=6, slice_length=600, **kw):
    layout = SliceLayout(t0=0, slice_length=slice_length, n_slices=n_slices)
    defaults = dict(
        layout=layout,
        coarse=PropagatorSpec(144),
        fine=PropagatorSpec(288),
        epsilon=0.0,
    )
    defaults.update(kw)
    return PararealConfig(**defaults)


@pytest.mark.parametrize("key", ["coarse_spd", "fine_spd"])
def test_config_refuses_warm_spec(key):
    # every slice starts cold, so a warm spec would change nothing
    specs = dict(coarse=PropagatorSpec(36), fine=PropagatorSpec(72))
    role = key.removesuffix("_spd")
    specs[role] = PropagatorSpec(specs[role].spd, restart_policy="warm")
    with pytest.raises(ValueError, match=f"^{key}: restart_policy 'warm'"):
        PararealConfig(layout=SliceLayout(t0=0, slice_length=2400, n_slices=4), **specs)


def test_config_validation():
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=4)
    with pytest.raises(ValueError):
        PararealConfig(layout=layout, coarse=PropagatorSpec(72), fine=PropagatorSpec(36))
    with pytest.raises(ValueError):
        PararealConfig(layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(36))
    with pytest.raises(ValueError):
        PararealConfig(
            layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(72),
            max_iterations=5,
        )
    with pytest.raises(ValueError):
        PararealConfig(
            layout=SliceLayout(t0=0, slice_length=3000, n_slices=4),
            coarse=PropagatorSpec(36), fine=PropagatorSpec(72),
        )


# --------------------------------------------------------------------------
# Sweeps against hand-evaluated recurrences

def test_init_sweep_single_slice(grid8):
    cfg = small_cfg(n_slices=1)
    calls = []

    def coarse(state, n, k):
        calls.append((n, k))
        return flow(0.5, cfg.layout.slice_length)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    states = coarse_init_sweep(u0, cfg, coarse)
    assert len(states) == 2
    assert calls == [(0, 0)]
    assert np.all(states[1].field(Field.U) == 0.5)


def test_init_sweep_matches_sequential_integration(settled_state, params):
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=12)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(72), epsilon=0.0
    )
    coarse_fn = Propagator(cfg.coarse, params, layout)
    states = coarse_init_sweep(settled_state, cfg, coarse_fn)
    expected = settled_state
    for n in range(12):
        expected = integrate(expected, expected.time + 2400, 2400, params)
        assert states[n + 1].bit_equal(expected)


def test_scalar_exponential_parareal_recurrence(grid8):
    # Closed-form coarse/fine flows on constant fields: the driver must
    # reproduce the hand-evaluated scalar recurrence
    #   U[k+1][n+1] = a*U[k+1][n] + (b*U[k][n] - a*U[k][n])
    # with the exact-cancellation shortcut (assign the fine value when the
    # fresh coarse value equals the retained one bitwise).
    a = float(np.exp(-0.10))   # coarse decay per slice
    b = float(np.exp(-0.12))   # fine decay per slice
    n_slices = 5
    cfg = small_cfg(n_slices=n_slices)
    coarse_fn = flow(a, cfg.layout.slice_length)
    fine_fn = flow(b, cfg.layout.slice_length)

    y0 = 1.0
    u0 = constant_state(grid8, u=y0, v=y0, eta=y0, temp=y0, salt=y0)
    result = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse_fn, fine_fn=fine_fn)

    # scalar oracle
    U = [[None] * (n_slices + 1) for _ in range(n_slices + 1)]
    G = [[None] * (n_slices + 1) for _ in range(n_slices + 1)]
    U[0][0] = y0
    for n in range(n_slices):
        G[0][n + 1] = a * U[0][n]
        U[0][n + 1] = G[0][n + 1]
    for k in range(1, n_slices + 1):
        U[k][0] = y0
        for n in range(k - 1):
            U[k][n + 1] = U[k - 1][n + 1]
        for n in range(k - 1, n_slices):
            f_val = b * U[k - 1][n]
            g_new = a * U[k][n]
            G[k][n + 1] = g_new
            if g_new == G[k - 1][n + 1]:
                U[k][n + 1] = f_val
            else:
                U[k][n + 1] = g_new + (f_val - G[k - 1][n + 1])

    for k in range(n_slices + 1):
        for n in range(n_slices + 1):
            got = result.iterates[k][n].field(Field.U)
            assert np.all(got == U[k][n]), (k, n, got[0, 0], U[k][n])


def test_g_equals_f_converges_at_first_iteration(settled_state, params):
    # the fine propagator stands in for the coarse one
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=4)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(72), fine=PropagatorSpec(144),
        epsilon=0.0, max_iterations=1,
    )
    reference = restarted_serial_run(cfg.fine, settled_state, layout, params)
    fine = Propagator(cfg.fine, params, layout)
    result = run_parareal(settled_state, cfg, params, coarse_fn=fine)
    for n in range(5):
        assert result.iterates[1][n].bit_equal(reference[n])


def test_fine_phase_loop_bounds(monkeypatch, grid8, params):
    # at k = N_t exactly one fine lane remains, for slice N_t - 1
    cfg = small_cfg(n_slices=4)
    real = parareal.integrate_batch
    calls = []

    def spy(states, *args):
        calls.append([s.time // cfg.layout.slice_length for s in states])
        return real(states, *args)

    monkeypatch.setattr(parareal, "integrate_batch", spy)
    u0 = constant_state(grid8, u=1.0)
    u_prev = coarse_init_sweep(u0, cfg, flow(0.8, cfg.layout.slice_length))
    fine_fn = Propagator(cfg.fine, params, cfg.layout)
    fine_parallel_phase(u_prev, None, cfg, fine_fn, k=cfg.layout.n_slices)
    assert calls == [[3]]


def test_zero_corrections_reduce_to_coarse_sweep(grid8):
    # fine values equal to retained coarse values that the fresh coarse
    # values differ from: every correction F - G is formed, and is zero.
    # Slice 1 keeps its true coarse value, which the sweep reuses as the
    # fresh one there.
    cfg = small_cfg(n_slices=4)
    coarse_fn = flow(0.8, cfg.layout.slice_length)
    u0 = constant_state(grid8, u=1.0, v=2.0, eta=0.5, temp=3.0, salt=4.0)
    u_prev = coarse_init_sweep(u0, cfg, coarse_fn)
    retained = u_prev[:2] + [
        ModelState(grid8, np.full_like(u0.data, 7.0), u_prev[n + 1].time)
        for n in range(1, cfg.layout.n_slices)
    ]
    u_next, _, coarse_break = correction_sweep(u_prev, retained, retained, cfg, coarse_fn, k=1)
    assert coarse_break is None
    expected = coarse_init_sweep(u0, cfg, coarse_fn)
    for got, want in zip(u_next, expected):
        assert got.bit_equal(want)


@pytest.mark.parametrize("policy, coarse_fails", [
    pytest.param(None, None, id="no_failure"),
    pytest.param("continue_uncorrected", None, id="continue_uncorrected"),
    pytest.param("abort", None, id="abort"),
    pytest.param("continue_uncorrected", 2, id="continue_coarse_below_fine"),
    pytest.param("abort", 2, id="abort_coarse_below_fine"),
])
def test_scheduling_independence_with_thread_pool(grid8, policy, coarse_fails):
    # arbitrary callables run slice by slice on the run's thread pool; the
    # outcome must not depend on the worker count.  With a policy, fine
    # slices 1 and 4 fail at k = 1: both are flagged, or the run raises the
    # earlier one.  With coarse_fails, only fine slice 4 fails, late, and
    # the coarse sweep of k = 1 fails at slice 2 before it: the run flags
    # both in barrier order (fine, then correction) and keeps iterate 0's
    # values past the break, or raises the fine failure, as the barrier does.
    import time as _t

    fine_fails = () if policy is None else (4,) if coarse_fails else (1, 4)

    def slow_fine(state, n, k):
        _t.sleep(0.002 * ((n * 7) % 3) + (0.05 if coarse_fails and n == 4 else 0.0))
        if k == 1 and n in fine_fails:
            raise BlowUpError(f"slice {n} killed", slice_index=n, iteration=k)
        return ModelState(state.grid, state.data * 0.97, state.time + 600)

    def coarse(state, n, k):
        if k == 1 and n == coarse_fails:
            raise BlowUpError(f"coarse slice {n} diverged", slice_index=n, iteration=k)
        return flow(0.9, 600)(state, n, k)

    u0 = random_state(grid8, np.random.default_rng(31))
    results = []
    for workers in (1, 2, 6):
        kw = {} if policy is None else {"on_blow_up": policy}
        cfg = small_cfg(n_slices=6, max_parallel_fine=workers, **kw)
        if policy == "abort":
            with pytest.raises(BlowUpError) as err:
                run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=slow_fine)
            results.append((str(err.value), err.value.slice_index, err.value.iteration))
            continue
        res = run_parareal(
            u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=slow_fine
        )
        results.append(res)
    if policy == "abort":
        first = fine_fails[0]
        assert results[0] == (f"slice {first} killed", first, 1)
        assert results[1] == results[0] and results[2] == results[0]
        return
    if policy is not None:
        expected = [(1, n, "fine") for n in fine_fails]
        if coarse_fails:
            expected.append((1, coarse_fails, "correction"))
        assert [(e.k, e.slice_index, e.phase) for e in results[0].blow_ups] == expected
        assert results[0].records[1].blow_up_slices == tuple(n for _, n, _ in expected)
    if coarse_fails:
        res = results[0]
        assert res.aborted and res.blow_ups[-1].message == "coarse slice 2 diverged"
        assert res.iterations_run == 1 and not res.stopped_at_epsilon
        for n in range(coarse_fails + 1, 7):
            assert res.iterates[1][n].bit_equal(res.iterates[0][n])
    for res in results[1:]:
        assert res.blow_ups == results[0].blow_ups
        assert [r.blow_up_slices for r in res.records] == [
            r.blow_up_slices for r in results[0].records]
        assert res.aborted == results[0].aborted
        assert len(res.iterates) == len(results[0].iterates)
        for ia, ib in zip(results[0].iterates, res.iterates):
            for a, b in zip(ia, ib):
                assert a.bit_equal(b)


@pytest.mark.parametrize("fine", ["in_process", "callable"])
def test_each_sweep_reuses_its_first_coarse_value(grid8, params, fine):
    # U^k_{k-1} = U^{k-1}_{k-1}, so sweep k takes G^k_k from sweep k-1: a run
    # of all N_t iterations makes N_t + sum_k (N_t - k) coarse calls, on the
    # barrier schedule (in-process fine lanes) and the pipelined one alike
    n_slices = 4
    cfg = small_cfg(n_slices=n_slices, max_parallel_fine=2)
    calls = []

    def coarse(state, n, k):
        calls.append((k, n))
        return flow(0.9, cfg.layout.slice_length)(state, n, k)

    fine_fn = None if fine == "in_process" else flow(0.95, cfg.layout.slice_length)
    u0 = random_state(grid8, np.random.default_rng(17))
    res = run_parareal(u0, cfg, params, coarse_fn=coarse, fine_fn=fine_fn)
    assert res.iterations_run == n_slices
    assert len(calls) == n_slices + sum(n_slices - k for k in range(1, n_slices + 1))
    assert sorted(calls) == [(0, n) for n in range(n_slices)] + [
        (k, n) for k in range(1, n_slices + 1) for n in range(k, n_slices)]


def test_pipelined_schedule_overlaps_iterations_and_stops_clean(tmp_path, grid8):
    # thread-path stand-ins log each call's start and end.  Iteration 1's
    # fine slices start while the init sweep still runs.  The run stops at
    # epsilon after k = 1 while iteration 2's fine slices run beside the
    # last coarse slice of k = 1: that work is awaited and discarded, so
    # the result, the manifest and the run directory hold no iterate 2 (and
    # the autouse fixture finds no thread left running).
    import json
    import time as _t

    n_slices, length = 6, 600
    log = []

    def logged(role, factor, delay):
        def fn(state, n, k):
            start = _t.perf_counter()
            _t.sleep(delay(n, k))
            out = flow(factor, length)(state, n, k)
            log.append((role, k, n, start, _t.perf_counter()))
            return out
        return fn

    coarse = logged("coarse", 0.9, lambda n, k: 0.2 if (k, n) == (1, n_slices - 1) else 0.01)
    fine = logged("fine", 0.91, lambda n, k: 0.002)
    u0 = constant_state(grid8, u=1.0, v=1.0, eta=1.0, temp=1.0, salt=1.0)
    reference = [u0]
    for n in range(n_slices):
        reference.append(flow(0.91, length)(reference[-1], n, -1))
    probe = run_parareal(u0, small_cfg(n_slices=n_slices), ModelParams(),
                         coarse_fn=flow(0.9, length), fine_fn=flow(0.91, length),
                         reference=reference)
    worst = [max(max(e) for e in r.errors.values()) for r in probe.records]
    assert worst[1] < worst[0]

    log.clear()
    cfg = small_cfg(n_slices=n_slices, max_parallel_fine=2, epsilon=worst[1])
    res = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=fine,
                       reference=reference, run_dir=tmp_path / "run")
    init_end = max(end for role, k, n, _, end in log if role == "coarse" and k == 0)
    assert any(start < init_end for role, k, _, start, _ in log if role == "fine" and k == 1)
    assert any(k == 2 for _, k, *_ in log)

    assert res.stopped_at_epsilon and res.iterations_run == 1
    assert [r.k for r in res.records] == [0, 1]
    for ia, ib in zip(res.iterates, probe.iterates[:2]):
        for a, b in zip(ia, ib):
            assert a.bit_equal(b)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["iterations_run"] == 1
    assert [it["k"] for it in manifest["iterations"]] == [0, 1]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["k0", "k1", "manifest.json"]


def test_propagator_is_a_picklable_value(tmp_path, params):
    layout = SliceLayout(t0=0, slice_length=600, n_slices=6)
    for spec in (PropagatorSpec(288), PropagatorSpec(288, mode="external", command=("model",))):
        prop = Propagator(spec, params, layout, tmp_path, "fine", 5.0)
        back = pickle.loads(pickle.dumps(prop))
        assert back == prop and hash(back) == hash(prop)


def test_external_fine_phase_runs_on_threads(monkeypatch, tmp_path, grid8, params):
    # an external fine propagator blocks in its child, so its lanes go to
    # threads: the run never creates a process pool, yet matches the
    # in-process run bit for bit
    import concurrent.futures
    import sys

    def no_process_pool(*args, **kwargs):
        raise AssertionError("a process pool was created for an external fine phase")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process_pool)
    conf = tmp_path / "model.conf"
    conf.write_text("[model]\nnx = 8\nny = 8\n")      # grid8, default physics
    command = (sys.executable, "-m", "paratide", "single-shot", "--config", str(conf))
    cfg = small_cfg(n_slices=2, max_iterations=1, max_parallel_fine=2,
                    fine=PropagatorSpec(288, mode="external", command=command))
    u0 = random_state(grid8, np.random.default_rng(13))
    res = run_parareal(u0, cfg, params, run_dir=tmp_path / "run")
    internal = run_parareal(u0, small_cfg(n_slices=2, max_iterations=1, max_parallel_fine=1),
                            params)
    assert not res.blow_ups
    assert (tmp_path / "run" / "k1" / "slice1" / "fine" / "out.prcp").exists()
    for a, b in zip(res.iterates[-1], internal.iterates[-1]):
        assert a.bit_equal(b)


def pretend_cpus(monkeypatch, n):
    """The internal fine phase sizes its process count by the CPUs this
    process may use; pretend there are n so every worker count runs here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def spiking_coarse(slice_length, spike_slice):
    """Exact flow whose step across spike_slice multiplies the velocities by
    1e4, so the internal fine lane starting after it breaks the velocity cap."""
    spike = np.array([1e4, 1e4, 1.0, 1.0, 1.0])[:, None, None] * 0.9

    def fn(state, n, k):
        factor = spike if n == spike_slice else 0.9
        return ModelState(state.grid, state.data * factor, state.time + slice_length)

    return fn


@pytest.mark.parametrize("policy", ["continue_uncorrected", "abort"])
def test_worker_count_independence_internal_with_failing_lane(monkeypatch, grid8, policy):
    # internal lanes split across 1, 2 and 4 processes; lane 4 blows up at
    # k = 1 and sits in a worker's chunk at 2 and 4 processes.  Iterates,
    # flagged slices and events, or the raised error, must not move a bit,
    # and no worker outlives the run, whether it returns or raises.
    pretend_cpus(monkeypatch, 4)
    u0 = random_state(grid8, np.random.default_rng(5))
    outcomes = []
    for workers in (1, 2, 4):
        cfg = small_cfg(n_slices=6, max_parallel_fine=workers, on_blow_up=policy)
        coarse = spiking_coarse(cfg.layout.slice_length, spike_slice=3)
        if policy == "abort":
            with pytest.raises(BlowUpError) as err:
                run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse)
            e = err.value
            outcomes.append((str(e), e.step, e.report, e.slice_index, e.iteration))
        else:
            res = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse)
            assert any(e.k == 1 and e.slice_index == 4 and e.phase == "fine" for e in res.blow_ups)
            outcomes.append(res)
        assert multiprocessing.active_children() == []
    if policy == "abort":
        assert outcomes[0][3:] == (4, 1)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        return
    first = outcomes[0]
    for res in outcomes[1:]:
        assert res.blow_ups == first.blow_ups
        assert [r.blow_up_slices for r in res.records] == [r.blow_up_slices for r in first.records]
        assert len(res.iterates) == len(first.iterates)
        for ia, ib in zip(res.iterates, first.iterates):
            for a, b in zip(ia, ib):
                assert a.bit_equal(b)


@pytest.mark.parametrize("policy", ["continue_uncorrected", "abort"])
@pytest.mark.parametrize("fault", ["fine_lane", "coarse_break"])
def test_barrier_and_pipelined_schedules_settle_failures_alike(monkeypatch, grid8, policy, fault):
    # one rule settles failures on both schedules: the in-process Propagator
    # runs on the barrier, the same Propagator behind a plain callable on the
    # pipelined schedule.  Fine lane (1, 4) breaks the velocity cap, or the
    # coarse sweep of k = 1 breaks at slice 2; the events, flagged slices,
    # aborted flag and iterate bits, or the raised error, must agree.
    pretend_cpus(monkeypatch, 2)
    cfg = small_cfg(n_slices=6, max_parallel_fine=2, on_blow_up=policy)
    spiking = spiking_coarse(cfg.layout.slice_length, spike_slice=3)

    def coarse(state, n, k):
        if fault == "fine_lane":
            return spiking(state, n, k)
        if (k, n) == (1, 2):
            raise BlowUpError("coarse diverged", slice_index=n, iteration=k)
        return flow(0.9, cfg.layout.slice_length)(state, n, k)

    prop = Propagator(cfg.fine, ModelParams(), cfg.layout)
    u0 = random_state(grid8, np.random.default_rng(5))
    outcomes = []
    for fine_fn in (prop, lambda state, n, k: prop(state, n, k)):
        if policy == "abort":
            with pytest.raises(BlowUpError) as err:
                run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=fine_fn)
            outcomes.append((str(err.value), err.value.slice_index, err.value.iteration))
            continue
        res = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=fine_fn)
        outcomes.append((res.blow_ups, [r.blow_up_slices for r in res.records], res.aborted,
                         [[s.data.tobytes() for s in it] for it in res.iterates]))
    assert outcomes[0] == outcomes[1]
    first = (4, "fine") if fault == "fine_lane" else (2, "correction")
    if policy == "abort":
        assert outcomes[0][1:] == (first[0], 1)
    else:
        e = outcomes[0][0][0]
        assert (e.k, e.slice_index, e.phase) == (1, *first)
        assert outcomes[0][2] == (fault == "coarse_break")


def test_fine_phase_chunks_run_on_forked_workers(monkeypatch, tmp_path, grid8, params):
    # at k = 1 with four processes the six lanes split into contiguous
    # chunks of 1, 2, 1 and 2; this process takes the first, workers the rest
    pretend_cpus(monkeypatch, 4)
    cfg = small_cfg(n_slices=6, max_parallel_fine=4)
    fine_fn = Propagator(cfg.fine, params, cfg.layout)
    u_prev = coarse_init_sweep(random_state(grid8, np.random.default_rng(9)), cfg,
                               flow(0.9, cfg.layout.slice_length))
    real = parareal.integrate_batch
    log = tmp_path / "calls"

    def spy(states, *args):
        # forked workers inherit this patch and append to the same file
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {' '.join(str(s.time) for s in states)}\n")
        return real(states, *args)

    monkeypatch.setattr(parareal, "integrate_batch", spy)
    with ProcessPoolExecutor(3, mp_context=multiprocessing.get_context("fork")) as pool:
        fine_vals = fine_parallel_phase(u_prev, pool, cfg, fine_fn, 1)
    calls = sorted(
        ([int(t) for t in line.split()[1:]], int(line.split()[0]))
        for line in log.read_text().splitlines()
    )
    assert [times for times, _ in calls] == [[0], [600, 1200], [1800], [2400, 3000]]
    assert calls[0][1] == os.getpid()
    assert all(pid != os.getpid() for _, pid in calls[1:])

    monkeypatch.setattr(parareal, "integrate_batch", real)
    alone = fine_parallel_phase(u_prev, None, cfg, fine_fn, 1)
    assert fine_vals[0] is None and all(isinstance(v, ModelState) for v in fine_vals[1:])
    for a, b in zip(fine_vals[1:], alone[1:]):
        assert a.bit_equal(b)


def spy_on_fine_submits(monkeypatch, log):
    """Make run_parareal's process pool log ("fine", k, slices) for each
    _run_lanes it is handed, and return {entry: (future, lanes of the pool
    still unfinished when it was handed in)}."""
    import concurrent.futures

    futures = {}

    class SpyPool(ProcessPoolExecutor):
        def submit(self, fn, *args):
            busy = sum(not f.done() for f, _ in futures.values())
            future = super().submit(fn, *args)
            if fn is parareal._run_lanes:
                entry = ("fine", args[1], tuple(args[2]))
                log.append(entry)
                futures[entry] = (future, busy)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return futures


def logged(log, fn):
    """fn, logging ("coarse", k, n) as each call returns."""
    def call(state, n, k):
        out = fn(state, n, k)
        log.append(("coarse", k, n))
        return out
    return call


def test_lookahead_starts_next_fine_lanes_during_coarse_sweeps(monkeypatch, grid8, params):
    # with a worker, fine lane (k+1, n) starts once U^k_n is formed, during
    # sweep k, and only while the worker has no unfinished lane; the first
    # formed input of each sweep finds it idle.  There is no lookahead past
    # max_iterations, and the bits are those of the run without a pool.
    pretend_cpus(monkeypatch, 2)
    log = []
    futures = spy_on_fine_submits(monkeypatch, log)
    cfg = small_cfg(n_slices=6, max_parallel_fine=2, max_iterations=3)
    coarse = flow(0.9, cfg.layout.slice_length)
    u0 = random_state(grid8, np.random.default_rng(21))
    res = run_parareal(u0, cfg, params, coarse_fn=logged(log, coarse))
    for k in range(cfg.iterations):
        early = log[:log.index(("coarse", k, cfg.layout.n_slices - 1))]
        assert ("fine", k + 1, (k,)) in early
        assert all(futures[e][1] == 0 for e in early if e[:2] == ("fine", k + 1))
    assert all(entry[1] <= cfg.iterations for entry in log)
    alone = run_parareal(u0, small_cfg(n_slices=6, max_parallel_fine=1, max_iterations=3),
                         params, coarse_fn=coarse)
    for ia, ib in zip(res.iterates, alone.iterates, strict=True):
        for a, b in zip(ia, ib):
            assert a.bit_equal(b)
    assert [r.blow_up_slices for r in res.records] == [r.blow_up_slices for r in alone.records]


@pytest.mark.parametrize("policy", ["abort", "continue_uncorrected"])
def test_lookahead_lane_failure_keeps_barrier_order(monkeypatch, grid8, params, policy):
    # Sweep 1 spikes U^1_2, so fine lane (2, 2) breaks the velocity cap in
    # the worker while sweep 1 runs; in abort mode the sweep's own coarse
    # failure at n = 3 comes later in wall time but first in barrier order.
    # Either way the outcome is that of the run without a pool.
    import time

    pretend_cpus(monkeypatch, 2)
    spike = np.array([1e4, 1e4, 1.0, 1.0, 1.0])[:, None, None] * 0.9
    cfg = small_cfg(n_slices=6, on_blow_up=policy, max_iterations=3)

    def coarse(state, n, k):
        if k == 1 and n in (1, 2):
            time.sleep(0.2)   # the worker finishes lane (2, n) before U^1_{n+1} forms
        if (k, n) == (1, 3) and policy == "abort":
            raise BlowUpError("coarse diverged", slice_index=n, iteration=k)
        factor = spike if (k, n) == (1, 1) else 0.9
        return ModelState(state.grid, state.data * factor, state.time + cfg.layout.slice_length)

    u0 = random_state(grid8, np.random.default_rng(5))
    outcomes, log = [], []
    futures = spy_on_fine_submits(monkeypatch, log)
    for workers in (2, 1):
        run_cfg = small_cfg(n_slices=6, on_blow_up=policy, max_iterations=3,
                            max_parallel_fine=workers)
        if policy == "abort":
            with pytest.raises(BlowUpError) as err:
                run_parareal(u0, run_cfg, params, coarse_fn=logged(log, coarse))
            outcomes.append((str(err.value), err.value.slice_index, err.value.iteration))
        else:
            res = run_parareal(u0, run_cfg, params, coarse_fn=coarse)
            outcomes.append((res.blow_ups, [[s.data.tobytes() for s in it] for it in res.iterates]))
        if workers == 2:
            lane, _ = futures[("fine", 2, (2,))]
            assert isinstance(lane.result()[0], BlowUpError)
            if policy == "abort":
                assert log.index(("fine", 2, (2,))) < log.index(("coarse", 1, 2))
    assert outcomes[0] == outcomes[1]
    if policy == "abort":
        assert outcomes[0][1:] == (3, 1)
    else:
        assert any(e.k == 2 and e.slice_index == 2 and e.phase == "fine" for e in outcomes[0][0])


def test_epsilon_stop_with_lookahead_lanes_in_flight(monkeypatch, grid8, params):
    # the run stops at epsilon while the lanes of the next iteration run on
    # the worker: they are waited for (no child outlives the run, which the
    # no_leftover_workers fixture checks) and change no bit
    pretend_cpus(monkeypatch, 2)
    log = []
    spy_on_fine_submits(monkeypatch, log)
    u0 = random_state(grid8, np.random.default_rng(17))
    full = small_cfg(n_slices=6, max_parallel_fine=1)
    reference = restarted_serial_run(full.fine, u0, full.layout, params)
    probe = run_parareal(u0, full, params, reference=reference)
    epsilon = max(max(pair) for pair in probe.records[2].errors.values())
    assert epsilon > 0
    results = [run_parareal(u0, small_cfg(n_slices=6, max_parallel_fine=w, epsilon=epsilon),
                            params, reference=reference) for w in (2, 1)]
    assert all(r.stopped_at_epsilon and r.iterations_run < 6 for r in results)
    stop = results[0].iterations_run
    assert any(entry[1] == stop + 1 for entry in log)
    assert multiprocessing.active_children() == []
    for ia, ib in zip(results[0].iterates, results[1].iterates, strict=True):
        for a, b in zip(ia, ib):
            assert a.bit_equal(b)


def test_worker_results_are_frozen(monkeypatch, grid8, params):
    # states pickled back from a worker must be as immutable as any other
    pretend_cpus(monkeypatch, 2)
    cfg = small_cfg(n_slices=6, max_parallel_fine=2)
    u0 = random_state(grid8, np.random.default_rng(11))
    fine_fn = Propagator(cfg.fine, params, cfg.layout)
    u_prev = coarse_init_sweep(u0, cfg, flow(0.9, cfg.layout.slice_length))
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        fine_vals = fine_parallel_phase(u_prev, pool, cfg, fine_fn, 1)
    assert all(s.data.flags.writeable is False for s in fine_vals[1:])
    res = run_parareal(u0, cfg, params, coarse_fn=flow(0.9, cfg.layout.slice_length))
    assert all(s.data.flags.writeable is False for it in res.iterates for s in it)


def test_fine_blow_up_continue_uncorrected(grid8):
    # fine failure on slice 2 at k=1: the slice is flagged and the sweep
    # keeps the unedited coarse value for the following boundary
    cfg = small_cfg(n_slices=4, on_blow_up="continue_uncorrected")
    coarse_fn = flow(0.8, cfg.layout.slice_length)

    def failing_fine(state, n, k):
        if n == 2 and k == 1:
            raise BlowUpError("killed", slice_index=n, iteration=k)
        return flow(0.9, cfg.layout.slice_length)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    res = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse_fn, fine_fn=failing_fine)
    assert any(e.k == 1 and e.slice_index == 2 and e.phase == "fine" for e in res.blow_ups)
    assert 2 in res.records[1].blow_up_slices
    # slice 3 value at k=1 is the unedited coarse propagation of U^1_2
    expected = coarse_fn(res.iterates[1][2], 2, 1)
    assert res.iterates[1][3].bit_equal(expected)
    # the run still completes every iteration
    assert res.iterations_run == 4 and not res.aborted


def test_fine_blow_up_abort_mode_raises(grid8):
    cfg = small_cfg(n_slices=4, on_blow_up="abort")

    def failing_fine(state, n, k):
        raise BlowUpError("killed", slice_index=n, iteration=k)

    u0 = constant_state(grid8, u=1.0)
    with pytest.raises(BlowUpError):
        run_parareal(u0, cfg, ModelParams(), coarse_fn=flow(0.8, 600), fine_fn=failing_fine)


def test_coarse_sweep_blow_up_truncates_run(grid8):
    cfg = small_cfg(n_slices=4, on_blow_up="continue_uncorrected")

    def coarse(state, n, k):
        if k == 2 and n == 2:
            raise BlowUpError("coarse diverged", slice_index=n, iteration=k)
        return flow(0.8, cfg.layout.slice_length)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    res = run_parareal(u0, cfg, ModelParams(), coarse_fn=coarse, fine_fn=flow(0.9, 600))
    assert res.aborted
    assert res.iterations_run == 2
    assert any(e.phase == "correction" and e.k == 2 for e in res.blow_ups)


def test_steady_state_converges_immediately(grid8):
    # G and F agree on fixed points: with a steady u0 the error monitor
    # sees round-off at once.  Velocities vanish on the rest state, so only
    # the tracers carry a well-defined relative error.
    p = ModelParams(forcing_amp=0.0)
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=4)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(72),
        epsilon=1e-2, monitored_fields=(Field.T, Field.S),
    )
    u0 = constant_state(grid8)  # rest state is steady without forcing
    res = run_parareal(u0, cfg, p, reference=restarted_serial_run(cfg.fine, u0, layout, p))
    assert res.stopped_at_epsilon
    assert res.iterations_run <= 1
    for f in cfg.monitored_fields:
        k = first_crossing_iteration({r.k: r.errors[f] for r in res.records}, cfg.epsilon)
        assert k is not None and k <= 1


@pytest.mark.parametrize("kind", ["default", "external", "callable"])
def test_epsilon_stopping_needs_reference(kind, tmp_path, grid8):
    # the driver never runs the serial fine problem itself: epsilon
    # stopping without a reference is refused before any work, whatever
    # the propagators
    calls = []

    def counted(factor):
        def fn(state, n, k):
            calls.append((n, k))
            return flow(factor, 600)(state, n, k)
        return fn

    specs = {}
    if kind == "external":
        nowhere = ("/no/such/binary",)   # a call would raise SpawnFailureError
        specs = dict(coarse=PropagatorSpec(144, mode="external", command=nowhere),
                     fine=PropagatorSpec(288, mode="external", command=nowhere))
    fns = dict(coarse_fn=counted(0.8), fine_fn=counted(0.9)) if kind == "callable" else {}
    cfg = small_cfg(n_slices=4, epsilon=1e-2, **specs)
    u0 = constant_state(grid8, u=1.0)
    with pytest.raises(ValueError, match="reference"):
        run_parareal(u0, cfg, ModelParams(), run_dir=tmp_path / "run", **fns)
    assert calls == []
    assert not (tmp_path / "run").exists()

    if kind == "callable":
        reference = [u0]
        for n in range(4):
            reference.append(flow(0.9, 600)(reference[-1], n, -1))
        res = run_parareal(u0, cfg, ModelParams(), reference=reference, **fns)
        assert res.records[0].errors is not None


def test_empty_monitored_fields_refused_before_any_work(grid8):
    # with no field to judge, every epsilon test would pass vacuously and
    # the run would stop at k = 0; neither a new config nor a replaced one
    # gets as far as the driver
    u0 = constant_state(grid8, u=1.0)
    with pytest.raises(ValueError, match="^monitored_fields: "):
        run_parareal(u0, small_cfg(n_slices=4, epsilon=1e-6, monitored_fields=()), ModelParams(),
                     reference=[u0] * 5, coarse_fn=flow(0.8, 600), fine_fn=flow(0.9, 600))
    with pytest.raises(ValueError, match="^monitored_fields: "):
        dataclasses.replace(small_cfg(n_slices=4, epsilon=1e-6), monitored_fields=())


@pytest.mark.parametrize("ends", [[], [0], [0, 600, 1200]], ids=["empty", "at-t0", "short"])
def test_reference_off_the_final_time_refused_before_any_work(grid8, tmp_path, ends):
    # the norms compare the last iterate with the reference's last state:
    # an empty reference or one that ends elsewhere is refused before any
    # propagator runs or the run directory is made
    calls = []

    def counted(state, n, k):
        calls.append((n, k))
        return flow(0.9, 600)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    reference = [u0.with_time(t) for t in ends]
    with pytest.raises(ValueError,
                       match=r"^reference must end at the run's final time t=2400 on u0's grid$"):
        run_parareal(u0, small_cfg(n_slices=4, epsilon=1e-2), ModelParams(), reference=reference,
                     coarse_fn=counted, fine_fn=counted, run_dir=tmp_path / "run")
    assert calls == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("grid", [Grid(8, 8, 25e3, 25e3), Grid(16, 16, 50e3, 50e3)],
                         ids=["spacing", "shape"])
def test_reference_on_another_grid_refused_before_any_work(grid8, tmp_path, grid):
    # a reference on other spacing would be compared silently, one of
    # another shape would fail only after the init sweep: both are refused
    # before any propagator runs or the run directory is made
    calls = []

    def counted(state, n, k):
        calls.append((n, k))
        return flow(0.9, 2400)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    reference = [constant_state(grid, u=1.0, time=7200)]
    with pytest.raises(ValueError, match="on u0's grid$"):
        run_parareal(u0, small_cfg(n_slices=3, slice_length=2400), ModelParams(),
                     reference=reference, coarse_fn=counted, fine_fn=counted,
                     run_dir=tmp_path / "run")
    assert calls == []
    assert not (tmp_path / "run").exists()


def test_exactness_propagation_internal(settled_state, params):
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=6)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(144), epsilon=0.0
    )
    reference = restarted_serial_run(cfg.fine, settled_state, layout, params)
    res = run_parareal(settled_state, cfg, params)
    for k in range(res.iterations_run + 1):
        for n in range(min(k, layout.n_slices) + 1):
            assert res.iterates[k][n].bit_equal(reference[n]), (k, n)
    assert res.final.bit_equal(reference[-1])


# A coarse flow far from the fine one makes G + (F - G) round away from F,
# so slices n <= k are bit-exact only through the correction's shortcut
# (return F when the fresh coarse value equals the retained one), on the
# barrier schedule (in-process fine lanes) and the pipelined one alike.
@pytest.mark.parametrize("fine", ["in_process", "callable"])
def test_exactness_with_distant_coarse(grid8, params, fine):
    cfg = small_cfg(n_slices=4, max_parallel_fine=1)
    u0 = random_state(grid8, np.random.default_rng(23))
    if fine == "in_process":
        fine_fn = None
        reference = restarted_serial_run(cfg.fine, u0, cfg.layout, params)
    else:
        fine_fn = flow(1.0, cfg.layout.slice_length)
        reference = [u0]
        for n in range(cfg.layout.n_slices):
            reference.append(fine_fn(reference[-1], n, 0))
    res = run_parareal(u0, cfg, params, coarse_fn=flow(0.3, cfg.layout.slice_length),
                       fine_fn=fine_fn)
    assert res.iterations_run == cfg.layout.n_slices
    for k in range(res.iterations_run + 1):
        for n in range(k + 1):
            assert res.iterates[k][n].bit_equal(reference[n]), (fine, k, n)


def test_run_directory_checkpoints_and_manifest(tmp_path, grid8):
    cfg = small_cfg(n_slices=3, max_iterations=2)
    u0 = constant_state(grid8, u=1.0)
    run_parareal(
        u0, cfg, ModelParams(), coarse_fn=flow(0.8, 600), fine_fn=flow(0.9, 600),
        run_dir=tmp_path / "run", run_id="toy",
    )
    from paratide import read_checkpoint
    ck = read_checkpoint(tmp_path / "run" / "k1" / "slice2" / "iterate.prcp", grid=grid8)
    assert ck.iteration == 1 and ck.slice_index == 2
    manifest = (tmp_path / "run" / "manifest.json").read_text()
    assert '"run_id": "toy"' in manifest


def test_error_series_decays_to_round_off_plateau(settled_state, params):
    # final-time errors shrink iteration over iteration until they hit the
    # round-off floor, where a small wiggle is the expected plateau
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=8)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(144), epsilon=0.0
    )
    reference = restarted_serial_run(cfg.fine, settled_state, layout, params)
    res = run_parareal(settled_state, cfg, params)
    from paratide import rel_max_norm
    errs = [
        rel_max_norm(res.iterates[k][-1].field(Field.U), reference[-1].field(Field.U))
        for k in range(res.iterations_run + 1)
    ]
    assert errs[0] > 0.0
    floor = 1e-13
    for before, after in zip(errs, errs[1:]):
        assert after <= max(before, floor), errs
    assert errs[-1] <= floor


def test_external_fine_kill_continues_uncorrected(tmp_path, settled_state, params):
    # a child process that dies for one particular slice: the driver flags
    # it and carries the unedited coarse value through the sweep
    import sys

    wrapper = tmp_path / "flaky.py"
    wrapper.write_text(
        "import os, sys\n"
        "if 'slice1' in os.getcwd():\n"
        "    sys.exit(7)\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'paratide', 'single-shot',\n"
        f"    '--config', {str(CONFIG_DIR / 'exp1.conf')!r}] + sys.argv[1:])\n"
    )
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=3)
    cfg = PararealConfig(
        layout=layout,
        coarse=PropagatorSpec(36),
        fine=PropagatorSpec(72, mode="external", command=(sys.executable, str(wrapper))),
        epsilon=0.0,
        max_iterations=1,
        on_blow_up="continue_uncorrected",
    )
    res = run_parareal(settled_state, cfg, params, run_dir=tmp_path / "run")
    assert any(e.k == 1 and e.slice_index == 1 and e.phase == "fine" for e in res.blow_ups)
    coarse_fn = Propagator(cfg.coarse, params, layout)
    assert res.iterates[1][2].bit_equal(coarse_fn(res.iterates[1][1], 1, 1))
    assert (tmp_path / "run" / "k1" / "slice1" / "fine" / "run.log").exists()


@pytest.mark.parametrize("policy", ["continue_uncorrected", "abort"])
@pytest.mark.parametrize("mode", ["junk", "truncated", "wrong-time", "sleep",
                                  "non-finite", "over-cap"])
def test_external_fine_faults_follow_on_blow_up(tmp_path, settled_state, params, mode, policy):
    # every fine child fails: unreadable, non-finite or over-cap output or
    # a timeout is a slice failure like any other, flagged in continue mode
    # and fatal in abort mode (the CLI maps the BlowUpError to exit 3)
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=2)
    cfg = PararealConfig(
        layout=layout,
        coarse=PropagatorSpec(36),
        fine=PropagatorSpec(72, mode="external", command=faulty_command(tmp_path, mode)),
        epsilon=0.0,
        max_iterations=1,
        on_blow_up=policy,
    )
    timeout = 0.5 if mode == "sleep" else None
    if policy == "abort":
        with pytest.raises(BlowUpError) as err:
            run_parareal(settled_state, cfg, params, run_dir=tmp_path / "run", timeout=timeout)
        assert err.value.iteration == 1 and err.value.log_path is not None
        return
    res = run_parareal(settled_state, cfg, params, run_dir=tmp_path / "run", timeout=timeout)
    assert not res.aborted and res.iterations_run == 1
    assert sorted(e.slice_index for e in res.blow_ups if e.phase == "fine") == [0, 1]
    coarse_fn = Propagator(cfg.coarse, params, layout)
    for n in range(2):
        assert res.iterates[1][n + 1].bit_equal(coarse_fn(res.iterates[1][n], n, 1))


def test_spawn_failure_raises_under_continue_uncorrected(monkeypatch, tmp_path, grid8):
    # a fine command that cannot start is a configuration fault, not a slice
    # failure: it raises whatever on_blow_up says, and leaves no temporary
    # work directory behind
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = small_cfg(n_slices=3, slice_length=2400, coarse=PropagatorSpec(36),
                    fine=PropagatorSpec(72, mode="external", command=("/no/such/binary",)),
                    on_blow_up="continue_uncorrected")
    u0 = random_state(grid8, np.random.default_rng(5))
    with pytest.raises(SpawnFailureError):
        run_parareal(u0, cfg, ModelParams())
    assert list(tmp_path.glob("paratide-run-*")) == []


def test_run_refuses_u0_off_the_layout_start(grid8):
    u0 = constant_state(grid8, time=600)
    with pytest.raises(StepMismatchError, match="u0 at t=600, layout starts at t=0"):
        run_parareal(u0, small_cfg(), ModelParams(), coarse_fn=flow(0.5, 600),
                     fine_fn=flow(0.5, 600))


@pytest.mark.parametrize("mode", ["internal", "external"])
def test_non_finite_u0_refused_before_any_propagation(mode, monkeypatch, tmp_path, grid8):
    # one exception in both modes, before any child starts or any
    # temporary work directory is made
    spawned = []
    real_run = propagator.subprocess.run
    monkeypatch.setattr(propagator.subprocess, "run",
                        lambda *a, **kw: spawned.append(a) or real_run(*a, **kw))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    data = constant_state(grid8, u=1.0).data.copy()
    data[Field.T.value, 3, 5] = np.nan
    u0 = ModelState(grid8, data, 0)
    kw = {"mode": "external", "command": SINGLE_SHOT} if mode == "external" else {}
    cfg = small_cfg(n_slices=3, max_parallel_fine=2, coarse=PropagatorSpec(144, **kw),
                    fine=PropagatorSpec(288, **kw))
    with pytest.raises(NonFiniteError, match="^u0 must be finite$"):
        restarted_serial_run(cfg.fine, u0, cfg.layout, ModelParams())
    with pytest.raises(NonFiniteError, match="^u0 must be finite$"):
        run_parareal(u0, cfg, ModelParams())
    assert spawned == [] and list(tmp_path.iterdir()) == []
