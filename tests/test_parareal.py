import numpy as np
import pytest

from paratide import (
    Field,
    ModelParams,
    ModelState,
    PararealConfig,
    PropagatorSpec,
    SliceLayout,
    run_parareal,
)
from paratide.errors import BlowUpError
from paratide.parareal import (
    coarse_init_sweep,
    correction_sweep,
    fine_parallel_phase,
    make_propagator,
    serial_fine_reference,
)
from paratide.solver import integrate

from conftest import constant_state, faulty_command, random_state


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


def test_config_validation():
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=4)
    with pytest.raises(ValueError):
        PararealConfig(layout=layout, coarse=PropagatorSpec(72), fine=PropagatorSpec(36))
    with pytest.raises(ValueError):
        PararealConfig(layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(36))
    # degenerate G == F setups are explicitly opt-in
    PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(36),
        allow_equal_spd=True,
    )
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
    coarse_fn = make_propagator(cfg.coarse, params, layout)
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
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=4)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(72), fine=PropagatorSpec(72),
        epsilon=0.0, allow_equal_spd=True, max_iterations=1,
    )
    fine_fn = make_propagator(cfg.fine, params, layout)
    reference = serial_fine_reference(settled_state, cfg, fine_fn)
    result = run_parareal(settled_state, cfg, params)
    for n in range(5):
        assert result.iterates[1][n].bit_equal(reference[n])


def test_fine_phase_loop_bounds(grid8):
    # at k = N_t exactly one fine propagation remains
    cfg = small_cfg(n_slices=4)
    calls = []

    def fine(state, n, k):
        calls.append(n)
        return flow(0.9, cfg.layout.slice_length)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    u_prev = coarse_init_sweep(u0, cfg, flow(0.8, cfg.layout.slice_length))
    fine_parallel_phase(u_prev, list(u_prev), cfg, fine, k=cfg.layout.n_slices)
    assert calls == [3]


def test_zero_corrections_reduce_to_coarse_sweep(grid8):
    cfg = small_cfg(n_slices=4)
    coarse_fn = flow(0.8, cfg.layout.slice_length)
    u0 = constant_state(grid8, u=1.0, v=2.0, eta=0.5, temp=3.0, salt=4.0)
    u_prev = coarse_init_sweep(u0, cfg, coarse_fn)
    zero = [None] + [
        ModelState(grid8, np.zeros_like(u0.data), u_prev[n + 1].time)
        for n in range(cfg.layout.n_slices)
    ]
    fine_vals = [None] + [u_prev[n + 1] for n in range(cfg.layout.n_slices)]
    u_next, _, events = correction_sweep(
        u_prev, fine_vals, zero, list(u_prev), cfg, coarse_fn, k=1
    )
    assert not events
    expected = coarse_init_sweep(u0, cfg, coarse_fn)
    for got, want in zip(u_next, expected):
        assert got.bit_equal(want)


def test_scheduling_independence_with_thread_pool(grid8):
    # arbitrary callables run through the worker pool; the outcome must
    # not depend on the worker count
    import time as _t

    def slow_fine(state, n, k):
        _t.sleep(0.002 * ((n * 7) % 3))
        return ModelState(state.grid, state.data * 0.97, state.time + 600)

    u0 = random_state(grid8, np.random.default_rng(31))
    results = []
    for workers in (1, 6):
        cfg = small_cfg(n_slices=6, max_parallel_fine=workers)
        res = run_parareal(
            u0, cfg, ModelParams(), coarse_fn=flow(0.9, 600), fine_fn=slow_fine
        )
        results.append(res)
    for ia, ib in zip(results[0].iterates, results[1].iterates):
        for a, b in zip(ia, ib):
            assert a.bit_equal(b)


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
    res = run_parareal(u0, cfg, p)
    assert res.stopped_at_epsilon
    assert res.iterations_run <= 1
    assert all(v is not None and v <= 1 for v in res.first_crossing.values())


def test_exactness_propagation_internal(settled_state, params):
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=6)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(36), fine=PropagatorSpec(144), epsilon=0.0
    )
    fine_fn = make_propagator(cfg.fine, params, layout)
    reference = serial_fine_reference(settled_state, cfg, fine_fn)
    res = run_parareal(settled_state, cfg, params)
    for k in range(res.iterations_run + 1):
        for n in range(min(k, layout.n_slices) + 1):
            assert res.iterates[k][n].bit_equal(reference[n]), (k, n)
    assert res.final.bit_equal(reference[-1])


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
    fine_fn = make_propagator(cfg.fine, params, layout)
    reference = serial_fine_reference(settled_state, cfg, fine_fn)
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
        "os.execv(sys.executable, [sys.executable, '-m', 'paratide', 'single-shot'] + sys.argv[1:])\n"
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
    coarse_fn = make_propagator(cfg.coarse, params, layout)
    assert res.iterates[1][2].bit_equal(coarse_fn(res.iterates[1][1], 1, 1))
    assert (tmp_path / "run" / "k1" / "slice1" / "fine" / "run.log").exists()


@pytest.mark.parametrize("policy", ["continue_uncorrected", "abort"])
@pytest.mark.parametrize("mode", ["junk", "truncated", "sleep"])
def test_external_fine_faults_follow_on_blow_up(tmp_path, settled_state, params, mode, policy):
    # every fine child fails: unreadable output or a timeout is a slice
    # failure like any other, flagged in continue mode and fatal in abort
    # mode (the CLI maps the BlowUpError to exit 3)
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
    coarse_fn = make_propagator(cfg.coarse, params, layout)
    for n in range(2):
        assert res.iterates[1][n + 1].bit_equal(coarse_fn(res.iterates[1][n], n, 1))
