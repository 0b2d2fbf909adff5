import numpy as np
import pytest

from paratide import Field, Grid, ModelParams, ModelState, PropagatorSpec, cfl_max_dt, propagate
from paratide import solver
from paratide.checkpoint import Checkpoint
from paratide.errors import BlowUpError, NonFiniteError, StepMismatchError
from paratide.solver import (
    StepHistory,
    integrate,
    integrate_batch,
    integrate_history,
)
from paratide.state import validate_state

from conftest import constant_state, random_state


def tendency(s, p):
    """The tendency at s: the newest entry of a one-step cold history,
    which the StepHistory invariant places one step before the new state."""
    return integrate_history(StepHistory(s), s.time + 300, 300, p).tendencies[-1]


# --------------------------------------------------------------------------
# Independent scalar-loop discretization used as the rhs oracle.

def oracle_rhs(state, p):
    """Loop-based centered-difference assembly with explicit index wrap."""
    g = state.grid
    nx, ny = g.nx, g.ny
    u = state.field(Field.U)
    v = state.field(Field.V)
    eta = state.field(Field.ETA)
    tracers = {Field.T: state.field(Field.T), Field.S: state.field(Field.S)}
    fx = np.zeros((ny, nx))
    for j in range(ny):
        fx[j, :] = p.forcing_amp * np.sin(2.0 * np.pi * p.forcing_wavenumber * j / ny)

    def ddx(a, j, i):
        return (a[j, (i + 1) % nx] - a[j, (i - 1) % nx]) / (2.0 * g.dx)

    def ddy(a, j, i):
        return (a[(j + 1) % ny, i] - a[(j - 1) % ny, i]) / (2.0 * g.dy)

    def lap(a, j, i):
        return (
            (a[j, (i + 1) % nx] - 2 * a[j, i] + a[j, (i - 1) % nx]) / g.dx**2
            + (a[(j + 1) % ny, i] - 2 * a[j, i] + a[(j - 1) % ny, i]) / g.dy**2
        )

    out = {f: np.zeros((ny, nx)) for f in Field}
    for j in range(ny):
        for i in range(nx):
            out[Field.U][j, i] = (
                p.f0 * v[j, i]
                - (u[j, i] * ddx(u, j, i) + v[j, i] * ddy(u, j, i))
                - p.g * ddx(eta, j, i)
                + p.nu_h * lap(u, j, i)
                + fx[j, i]
            )
            out[Field.V][j, i] = (
                -p.f0 * u[j, i]
                - (u[j, i] * ddx(v, j, i) + v[j, i] * ddy(v, j, i))
                - p.g * ddy(eta, j, i)
                + p.nu_h * lap(v, j, i)
            )
            out[Field.ETA][j, i] = -p.H * (ddx(u, j, i) + ddy(v, j, i))
            for f, tr in tracers.items():
                out[f][j, i] = (
                    -ddx(u * tr, j, i) - ddy(v * tr, j, i) + p.kappa * lap(tr, j, i)
                )
    return out


def test_rest_state_is_fixed_point(grid8):
    p = ModelParams(forcing_amp=0.0)
    t = tendency(constant_state(grid8), p)
    assert np.all(t == 0.0)


def test_constant_zonal_flow_rotates(grid8):
    p = ModelParams(forcing_amp=0.0, nu_h=0.0)
    s = constant_state(grid8, u=0.3)
    t = tendency(s, p)
    assert np.all(t[Field.U.value] == 0.0)
    assert np.allclose(t[Field.V.value], -p.f0 * 0.3, rtol=0, atol=0)
    assert np.all(t[Field.ETA.value] == 0.0)


def test_single_mode_elevation_gradient(grid8):
    # eta = A sin(2 pi x / L): du/dt is -g times the centered-difference
    # gradient, with the modified wavenumber sin(2 pi dx / L) / dx.
    p = ModelParams(forcing_amp=0.0)
    g = grid8
    amp = 0.01
    x = np.arange(g.nx)
    eta = amp * np.sin(2.0 * np.pi * x / g.nx)[None, :].repeat(g.ny, axis=0)
    s = constant_state(g)
    data = s.data.copy()
    data[Field.ETA.value] = eta
    s = ModelState(g, data, 0)
    t = tendency(s, p)
    L = g.nx * g.dx
    modified = np.sin(2.0 * np.pi * g.dx / L) / g.dx
    expected = -p.g * amp * modified * np.cos(2.0 * np.pi * x / g.nx)
    assert np.allclose(t[Field.U.value][0], expected, rtol=1e-12)


def test_rhs_matches_scalar_loop_oracle(grid8):
    rng = np.random.default_rng(99)
    p = ModelParams()
    s = random_state(grid8, rng)
    t = tendency(s, p)
    expected = oracle_rhs(s, p)
    for f in Field:
        scale = np.abs(expected[f]).max()
        assert np.abs(t[f.value] - expected[f]).max() <= 1e-13 * max(scale, 1e-30), f


# --------------------------------------------------------------------------
# Stepping

def scalar_ab3(y, fs, dt):
    """Textbook AB3 on a 2-vector: y_{n+1} = y_n + dt(23 f_n - 16 f_{n-1} + 5 f_{n-2})/12."""
    f_n, f_m1, f_m2 = fs
    return y + dt * (23.0 * f_n - 16.0 * f_m1 + 5.0 * f_m2) / 12.0


def test_ab3_matches_scalar_recurrence(grid8):
    # Constant-field rotation: every grid point runs the same 2-component
    # recurrence, seeded with exact tendencies from the closed-form orbit.
    p = ModelParams(forcing_amp=0.0, nu_h=0.0)
    f0, dt, u0 = p.f0, 2400, 0.25

    def exact(t):
        return u0 * np.cos(f0 * t), -u0 * np.sin(f0 * t)

    def tendency_at(t):
        u, v = exact(t)
        data = np.zeros((5, grid8.ny, grid8.nx))
        data[Field.U.value] = f0 * v
        data[Field.V.value] = -f0 * u
        return data

    u2, v2 = exact(2 * dt)
    s = constant_state(grid8, u=u2, v=v2, temp=0.0, salt=0.0, time=2 * dt)
    h = StepHistory(s, (tendency_at(0), tendency_at(dt)), dt)

    y = np.array([u2, v2])
    fs = [None, np.array([f0 * exact(dt)[1], -f0 * exact(dt)[0]]),
          np.array([f0 * exact(0)[1], -f0 * exact(0)[0]])]
    for step in range(3):
        h = integrate_history(h, h.current.time + dt, dt, p)
        f_n = np.array([f0 * y[1], -f0 * y[0]])
        y = scalar_ab3(y, (f_n, fs[1], fs[2]), dt)
        fs = [None, f_n, fs[1]]
        # operation order differs between engine and oracle, so agreement
        # is to round-off, not bit-exact
        assert np.allclose(h.current.field(Field.U), y[0], rtol=0, atol=5e-15)
        assert np.allclose(h.current.field(Field.V), y[1], rtol=0, atol=5e-15)


def test_rest_state_unchanged_by_step(grid8):
    p = ModelParams(forcing_amp=0.0)
    s = constant_state(grid8)
    h = integrate_history(StepHistory(s), 2400, 2400, p)
    assert np.array_equal(h.current.data, s.data)
    assert h.current.time == 2400


def test_ab3_observed_order_on_inertial_oscillation(grid8):
    p = ModelParams(forcing_amp=0.0, nu_h=0.0)
    u0, t_end = 0.5, 43200

    def final_error(dt):
        s = constant_state(grid8, u=u0, temp=0.0, salt=0.0)
        out = integrate(s, t_end, dt, p)
        exact_u = u0 * np.cos(p.f0 * t_end)
        exact_v = -u0 * np.sin(p.f0 * t_end)
        return max(
            np.abs(out.field(Field.U) - exact_u).max(),
            np.abs(out.field(Field.V) - exact_v).max(),
        )

    errs = [final_error(dt) for dt in (2400, 1200, 600)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.7, (errs, orders)


def test_integrate_single_step_equals_one_ab3_step(grid8, params):
    rng = np.random.default_rng(3)
    s = random_state(grid8, rng)
    via_integrate = integrate(s, 2400, 2400, params)
    via_step = integrate_history(StepHistory(s), 2400, 2400, params).current
    assert via_integrate.bit_equal(via_step)


def test_cold_start_breaks_composition_warm_does_not(grid8, params):
    rng = np.random.default_rng(4)
    s = random_state(grid8, rng)
    whole = integrate(s, 4800, 2400, params)
    split_cold = integrate(integrate(s, 2400, 2400, params), 4800, 2400, params)
    assert not whole.bit_equal(split_cold)

    h = integrate_history(StepHistory(s), 2400, 2400, params)
    h = integrate_history(h, 4800, 2400, params)
    assert whole.bit_equal(h.current)


def test_integrate_preconditions(grid8, params):
    s = constant_state(grid8)
    with pytest.raises(StepMismatchError):
        integrate(s, 5000, 2400, params)          # not a multiple
    with pytest.raises(StepMismatchError):
        integrate(s, 0, 2400, params)             # empty window
    with pytest.raises(StepMismatchError):
        integrate(s, 7000, 7000, params)          # 7000 does not divide 86400


def test_integrate_blow_up_carries_step_index(grid8):
    p = ModelParams(velocity_cap=1e-6)
    s = constant_state(grid8, u=0.1)
    with pytest.raises(BlowUpError) as err:
        integrate(s, 7200, 2400, p)
    assert err.value.step == 0
    assert err.value.report is not None


def test_determinism_bitwise(grid8, params):
    rng = np.random.default_rng(8)
    s = random_state(grid8, rng)
    a = integrate(s, 86400, 2400, params)
    b = integrate(s, 86400, 2400, params)
    assert a.bit_equal(b)


def test_mass_and_tracer_means_conserved(settled_state, params):
    h = StepHistory(settled_state)
    sums = {f: settled_state.field(f).sum() for f in (Field.ETA, Field.T, Field.S)}
    for _ in range(10):
        h = integrate_history(h, h.current.time + 2400, 2400, params)
    for f, before in sums.items():
        after = h.current.field(f).sum()
        denom = np.abs(settled_state.field(f)).sum()
        if denom == 0.0:
            denom = 1.0
        assert abs(after - before) / denom <= 1e-10, f


def test_batch_integration_bit_identical_to_sequential(settled_state, params):
    starts = [
        settled_state,
        integrate(settled_state, 2400, 1200, params),
        integrate(settled_state, 4800, 1200, params),
    ]
    batched = integrate_batch(starts, 86400, 1200, params)
    for st, out in zip(starts, batched):
        assert out.bit_equal(integrate(st, st.time + 86400, 1200, params))


def test_batch_isolates_blown_up_lane(settled_state, params):
    bad_data = settled_state.data.copy()
    bad_data[Field.T.value, 1, 1] = np.inf
    bad = ModelState(settled_state.grid, bad_data, settled_state.time)
    outs = integrate_batch([settled_state, bad, settled_state], 7200, 2400, params)
    assert isinstance(outs[1], BlowUpError)
    assert outs[1].step == 0
    assert outs[0].bit_equal(outs[2])
    assert outs[0].bit_equal(integrate(settled_state, settled_state.time + 7200, 2400, params))


# --------------------------------------------------------------------------
# CFL

def divisor_oracle(bound):
    return max(d for d in range(1, 86401) if 86400 % d == 0 and d <= bound)


def test_cfl_example_from_contract(grid):
    # g=9.81, H=100, dx=dy=50 km, rest state, C=0.5: raw bound ~798.2 s,
    # largest admissible divisor below it is 720.
    p = ModelParams(H=100.0)
    raw = 0.5 * 50_000.0 / np.sqrt(9.81 * 100.0)
    assert cfl_max_dt(grid, p) == divisor_oracle(raw) == 720


def test_cfl_scales_linearly_with_dx():
    p = ModelParams(H=100.0)
    g1 = Grid(8, 8, 50_000.0, 50_000.0)
    g2 = Grid(8, 8, 100_000.0, 50_000.0)
    # doubling dx doubles the raw bound; min(dx, dy) keeps the result here
    assert cfl_max_dt(g2, p) == cfl_max_dt(g1, p)
    g3 = Grid(8, 8, 100_000.0, 100_000.0)
    raw1 = 0.5 * 50_000.0 / np.sqrt(9.81 * 100.0)
    assert cfl_max_dt(g3, p) == divisor_oracle(2 * raw1)


def test_cfl_tops_out_at_a_day_and_wave_speed_stays_positive(grid8):
    # a bound past a day, even one that overflows to inf, gives the whole day
    p = ModelParams(H=100.0)
    assert cfl_max_dt(Grid(8, 8, 1.0e8, 1.0e8), p) == 86400
    tiny = ModelParams(g=1.0e-160, H=1.0e-160)      # g*H is subnormal, still > 0
    assert cfl_max_dt(Grid(8, 8, 1.0e300, 1.0e300), tiny) == 86400
    # g*H that underflows to 0 would leave no wave speed to divide by
    with pytest.raises(ValueError, match=r"g\*H"):
        ModelParams(g=1.0e-200, H=1.0e-200)


def test_cfl_refuses_a_grid_with_no_1s_step():
    # 1 m cells against a 31 m/s wave: the bound is 0.016 s
    with pytest.raises(ValueError, match=r"^CFL bound 0\.016s is below the 1s step floor$"):
        cfl_max_dt(Grid(8, 8, 1.0, 1.0), ModelParams(H=100.0))


def test_history_step_size_guard(grid8, params):
    s = constant_state(grid8)
    h = integrate_history(StepHistory(s), 4800, 2400, params)
    with pytest.raises(StepMismatchError):
        integrate_history(h, h.current.time + 1200, 1200, params)


# --------------------------------------------------------------------------
# The stepping kernel against the np.roll formulation it replaced.  The
# oracle below is that formulation, operation for operation: a periodic-shift
# tendency and a one-step-at-a-time trapezoid -> AB2 -> AB3 chain.  The kernel
# must reproduce it bit for bit, on any grid, lane count and warm history.

_U, _V, _ETA, _T, _S = range(5)
_AB3 = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)
_AB2 = (1.5, -0.5)


def roll_rhs_core(data, grid, p):
    xp = np.roll(data, -1, axis=-1)
    xm = np.roll(data, 1, axis=-1)
    yp = np.roll(data, -1, axis=-2)
    ym = np.roll(data, 1, axis=-2)

    cx = 0.5 / grid.dx
    cy = 0.5 / grid.dy
    gx = (xp[..., :3, :, :] - xm[..., :3, :, :]) * cx
    gy = (yp[..., :3, :, :] - ym[..., :3, :, :]) * cy
    if grid.dx == grid.dy:
        lap = xp + xm
        lap += yp
        lap += ym
        lap -= 4.0 * data
        lap *= 1.0 / grid.dx**2
    else:
        lap = (xp + xm - 2.0 * data) * (1.0 / grid.dx**2)
        lap += (yp + ym - 2.0 * data) * (1.0 / grid.dy**2)

    u = data[..., _U, :, :]
    v = data[..., _V, :, :]
    j = np.arange(grid.ny, dtype=np.float64)
    profile = p.forcing_amp * np.sin(2.0 * np.pi * int(p.forcing_wavenumber) * j / grid.ny)
    forcing = np.broadcast_to(profile[:, None], (grid.ny, grid.nx)).copy()

    out = np.empty_like(data)
    out[..., _U, :, :] = (
        p.f0 * v
        - (u * gx[..., _U, :, :] + v * gy[..., _U, :, :])
        - p.g * gx[..., _ETA, :, :]
        + p.nu_h * lap[..., _U, :, :]
        + forcing
    )
    out[..., _V, :, :] = (
        -p.f0 * u
        - (u * gx[..., _V, :, :] + v * gy[..., _V, :, :])
        - p.g * gy[..., _ETA, :, :]
        + p.nu_h * lap[..., _V, :, :]
    )
    out[..., _ETA, :, :] = -p.H * (gx[..., _U, :, :] + gy[..., _V, :, :])
    div = (xp[..., _U : _U + 1, :, :] * xp[..., _T:, :, :]
           - xm[..., _U : _U + 1, :, :] * xm[..., _T:, :, :]) * cx
    div += (yp[..., _V : _V + 1, :, :] * yp[..., _T:, :, :]
            - ym[..., _V : _V + 1, :, :] * ym[..., _T:, :, :]) * cy
    out[..., _T, :, :] = p.kappa * lap[..., _T, :, :] - div[..., 0, :, :]
    out[..., _S, :, :] = p.kappa * lap[..., _S, :, :] - div[..., 1, :, :]
    return out


def roll_rhs(s, p):
    if not s.is_finite():
        raise NonFiniteError("rhs requires a finite state")
    return roll_rhs_core(s.data, s.grid, p)


def roll_ab3_step(h, dt, p):
    s = h.current
    f_n = roll_rhs(s, p)
    n_prior = len(h.tendencies)
    if n_prior == 0:
        predictor = ModelState(s.grid, s.data + dt * f_n, s.time + dt)
        f_pred = roll_rhs(predictor, p)
        new_data = s.data + (0.5 * dt) * (f_n + f_pred)
    elif n_prior == 1:
        f_m1 = h.tendencies[-1]
        new_data = f_n * (dt * _AB2[0])
        new_data += f_m1 * (dt * _AB2[1])
        new_data += s.data
    else:
        f_m1 = h.tendencies[-1]
        f_m2 = h.tendencies[-2]
        new_data = f_n * (dt * _AB3[0])
        scratch = f_m1 * (dt * _AB3[1])
        new_data += scratch
        np.multiply(f_m2, dt * _AB3[2], out=scratch)
        new_data += scratch
        new_data += s.data

    new_state = ModelState(s.grid, new_data, s.time + dt)
    report = validate_state(new_state, p.velocity_cap)
    if report is not None:
        raise BlowUpError(f"step to t={new_state.time} diverged: {report}", report)
    return StepHistory(new_state, (h.tendencies + (f_n,))[-2:], dt)


def roll_integrate_history(h, n_steps, dt, p):
    for i in range(n_steps):
        try:
            h = roll_ab3_step(h, dt, p)
        except BlowUpError as err:
            err.step = i
            raise
    return h


def assert_same_history(a, b):
    assert a.current.bit_equal(b.current)
    assert a.dt == b.dt
    assert [x.tobytes() for x in a.tendencies] == [y.tobytes() for y in b.tendencies]


def assert_same_blow_up(a, b):
    assert (a.step, str(a)) == (b.step, str(b))
    r, q = a.report, b.report
    assert (r.field_name, r.index, r.reason) == (q.field_name, q.index, q.reason)
    assert np.array_equal(r.value, q.value, equal_nan=True)


KERNEL_GRIDS = [
    Grid(8, 8, 50_000.0, 50_000.0),
    Grid(8, 8, 50_000.0, 30_000.0),
    Grid(32, 32, 50_000.0, 50_000.0),
    Grid(32, 32, 40_000.0, 60_000.0),
    Grid(12, 8, 50_000.0, 50_000.0),
    Grid(12, 8, 45_000.0, 35_000.0),
]
GRID_IDS = [f"{g.nx}x{g.ny}-{'square' if g.dx == g.dy else 'dx!=dy'}" for g in KERNEL_GRIDS]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=GRID_IDS)
def test_rhs_bit_identical_to_roll_oracle(grid, params):
    s = random_state(grid, np.random.default_rng(21))
    assert tendency(s, params).tobytes() == roll_rhs(s, params).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_prior", [0, 1, 2, 3])
@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=GRID_IDS)
def test_warm_continuation_bit_identical_to_roll_oracle(grid, n_prior, params):
    # n_prior = 3: the two tendencies behind a NaN block, as a three-block
    # checkpoint holds them; its history keeps the newest two
    dt = 1200
    start = roll_integrate_history(StepHistory(random_state(grid, np.random.default_rng(5))), 3, dt, params)
    if n_prior == 3:
        blocks = (np.full_like(start.current.data, np.nan), *start.tendencies)
        h = Checkpoint(start.current, blocks, -1, -1).step_history(dt)
    else:
        h = StepHistory(start.current, start.tendencies[2 - n_prior:], dt if n_prior else None)
    for n_steps in (1, 2, 5):
        assert_same_history(
            integrate_history(h, h.current.time + n_steps * dt, dt, params),
            roll_integrate_history(h, n_steps, dt, params),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lanes", [1, 2, 6, 12])
@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=GRID_IDS)
def test_lanes_bit_identical_to_roll_oracle(grid, lanes, params):
    rng = np.random.default_rng(lanes)
    states = [random_state(grid, rng, time=2400 * i) for i in range(lanes)]
    outs = integrate_batch(states, 4 * 1200, 1200, params)
    for s, out in zip(states, outs):
        assert out.bit_equal(roll_integrate_history(StepHistory(s), 4, 1200, params).current)


def test_threads_stepping_at_once_match_sequential_bits(settled_state, params):
    # Every stepper owns its buffers: states stepped on concurrent threads
    # come out with the bits of the same states stepped one after another.
    import sys
    import threading

    rng = np.random.default_rng(13)
    starts = [settled_state] + [random_state(settled_state.grid, rng) for _ in range(3)]
    expected = [integrate(s, s.time + 86400, 1200, params) for s in starts]
    results: dict[int, list] = {i: [] for i in range(len(starts))}
    barrier = threading.Barrier(len(starts))

    def work(i):
        barrier.wait(timeout=60)
        for _ in range(3):
            results[i].append(integrate(starts[i], starts[i].time + 86400, 1200, params))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(starts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i, exp in enumerate(expected):
        assert len(results[i]) == 3
        assert all(out.bit_equal(exp) for out in results[i])


# --------------------------------------------------------------------------
# One-lane stepper reuse: a reused stepper gives the bits of a fresh one

def fresh(call, *args, **kwargs):
    """call made on a freshly built stepper: this thread keeps none idle."""
    solver._idle.__dict__.pop("stepper", None)
    return call(*args, **kwargs)


def poison_idle_stepper():
    """Fill every buffer of this thread's idle stepper with NaN: state,
    predictor, scratch, ring and gradient planes, halos included."""
    st = solver._idle.stepper
    for buf in (st.state, st.pred, st.work, st.work2, st.lap, *st.ring, st.gx, st.gy):
        buf.fill(np.nan)
    return st


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reused_stepper_keeps_bits_under_nan_scratch(settled_state, params):
    s, dt = settled_state, 1200
    warm = fresh(integrate_history, StepHistory(s), s.time + 3 * dt, dt, params)
    other = random_state(s.grid, np.random.default_rng(8))
    calls = [
        (integrate, (s, s.time + 5 * dt, dt, params)),
        (integrate, (s, s.time + dt, dt, params)),
        (integrate_history, (warm, warm.current.time + 4 * dt, dt, params)),
        (integrate_history, (StepHistory(warm.current, warm.tendencies[1:], dt),
                             warm.current.time + 2 * dt, dt, params)),
        (integrate_batch, ([other], 4 * dt, dt, params)),
    ]
    for call, args in calls:
        expected = fresh(call, *args)
        st = poison_idle_stepper()
        got = call(*args)
        assert solver._idle.stepper is st      # the poisoned stepper was reused
        if isinstance(got, list):
            (expected,), (got,) = expected, got
        if isinstance(got, StepHistory):
            assert_same_history(got, expected)
        else:
            assert got.bit_equal(expected) and (got.data == expected.data).all()


def test_reused_stepper_follows_a_dt_switch(settled_state, params):
    # programs are compiled per dt: 2400 s then 1200 s on one stepper must
    # not step the second call with the first call's dt
    s = settled_state
    expected = [fresh(integrate, s, s.time + 4800, dt, params) for dt in (2400, 1200)]
    solver._idle.__dict__.pop("stepper", None)
    got = [integrate(s, s.time + 4800, dt, params) for dt in (2400, 1200, 2400)]
    assert not expected[0].bit_equal(expected[1])
    assert got[0].bit_equal(expected[0]) and got[1].bit_equal(expected[1])
    assert got[2].bit_equal(expected[0])


def test_integrating_on_step_hook_leaves_outer_call_alone(settled_state, params):
    s, dt = settled_state, 1200
    other = random_state(s.grid, np.random.default_rng(4))
    expected = fresh(integrate, s, s.time + 4 * dt, dt, params)
    inner_expected = fresh(integrate, other, 3 * dt, dt, params)
    inner = []

    def hook(fields):
        inner.append(integrate(other, 3 * dt, dt, params))

    got = integrate(s, s.time + 4 * dt, dt, params, on_step=hook)
    assert got.bit_equal(expected)
    assert len(inner) == 4 and all(out.bit_equal(inner_expected) for out in inner)


# --------------------------------------------------------------------------
# Failure semantics: the same errors, steps and reports as the oracle

def sloshing_state(grid, seed):
    """State at rest over a tilted, noisy surface: the flow speeds up for
    tens of steps."""
    data = constant_state(grid).data.copy()
    x = np.arange(grid.nx) / grid.nx
    data[Field.ETA.value] = 0.01 * np.sin(2.0 * np.pi * x)[None, :]
    data[Field.ETA.value] += 1e-4 * np.random.default_rng(seed).standard_normal(grid.shape)
    return ModelState(grid, data, 0)


def near_cap_params(state, min_ok):
    """Params whose velocity cap the flow from state first breaks after at
    least min_ok clean steps of 1200 s; returns (params, failing step)."""
    h = StepHistory(state)
    peaks = []
    for step in range(40):
        h = roll_ab3_step(h, 1200, ModelParams())
        peaks.append(np.abs(h.current.data[:2]).max())
        if step >= min_ok and peaks[-1] > max(peaks[:-1]):
            return ModelParams(velocity_cap=float(max(peaks[:-1]))), step
    raise AssertionError("the flow never reached a new peak")


def test_velocity_cap_blow_up_matches_oracle(settled_state, monkeypatch):
    from paratide import solver

    state = sloshing_state(settled_state.grid, 11)
    p, step = near_cap_params(state, 3)
    calls = []
    real = solver.validate_state
    monkeypatch.setattr(solver, "validate_state", lambda *a: calls.append(1) or real(*a))
    stepped = []
    with pytest.raises(BlowUpError) as new:
        integrate(state, 40 * 1200, 1200, p, on_step=stepped.append)
    with pytest.raises(BlowUpError) as old:
        roll_integrate_history(StepHistory(state), 40, 1200, p)
    assert new.value.step == step and new.value.report.reason == "velocity_cap"
    assert_same_blow_up(new.value, old.value)
    assert len(calls) == 1        # the report is built on failure only
    assert len(stepped) == step   # and stepping stopped at the failing step


def test_non_finite_blow_up_matches_oracle(grid8):
    # No velocity cap and an absurd surface slope: the flow overflows to
    # inf/NaN instead, which is reported as non_finite.
    p = ModelParams(velocity_cap=np.inf)
    s = random_state(grid8, np.random.default_rng(2))
    data = s.data.copy()
    data[Field.ETA.value] *= 1e302
    s = ModelState(grid8, data, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as new:
            integrate(s, 8 * 2400, 2400, p)
        with pytest.raises(BlowUpError) as old:
            roll_integrate_history(StepHistory(s), 8, 2400, p)
    assert new.value.report.reason == "non_finite"
    assert_same_blow_up(new.value, old.value)


def assert_blows_up_like_a_lane(s, p):
    """integrate and an internal propagate fail at step 0 with the error
    that integrate_batch gives the same state as a lane beside healthy
    ones; propagate adds its slice context."""
    calm = constant_state(s.grid)
    with pytest.raises(BlowUpError) as err:
        integrate(s, 2400, 2400, p)
    with pytest.raises(BlowUpError) as sliced:
        propagate(PropagatorSpec(36), StepHistory(s), 2400, p, slice_index=3, iteration=1)
    calm_out, lane, _ = integrate_batch([calm, s, calm], 2400, 2400, p)
    assert isinstance(calm_out, ModelState) and isinstance(lane, BlowUpError)
    assert err.value.step == 0
    assert_same_blow_up(err.value, lane)
    assert_same_blow_up(sliced.value, lane)
    assert (sliced.value.slice_index, sliced.value.iteration) == (3, 1)


def test_non_finite_input_blows_up_at_step_zero(grid8, params):
    data = random_state(grid8, np.random.default_rng(3)).data.copy()
    data[Field.S.value, 2, 5] = np.nan
    s = ModelState(grid8, data, 0)
    with pytest.raises(BlowUpError):
        tendency(s, params)
    assert_blows_up_like_a_lane(s, params)


def test_non_finite_predictor_blows_up_at_step_zero(grid8, params):
    # Finite input whose tendency overflows: the trapezoid predictor is not
    # finite, and neither is the state after step 0.
    data = constant_state(grid8).data.copy()
    data[Field.U.value] = 1e200 * np.random.default_rng(4).standard_normal(grid8.shape)
    s = ModelState(grid8, data, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_blows_up_like_a_lane(s, params)


def test_failing_lanes_stay_isolated(settled_state):
    fast = sloshing_state(settled_state.grid, 12)
    p, step = near_cap_params(fast, 2)
    calm = fast.data.copy()
    calm[Field.ETA.value] *= 0.1
    calm = ModelState(fast.grid, calm, 0)
    bad = settled_state.data.copy()
    bad[Field.T.value, 1, 1] = np.inf
    bad = ModelState(settled_state.grid, bad, settled_state.time)
    before = np.geterr()
    outs = integrate_batch([calm, fast, bad, calm], (step + 3) * 1200, 1200, p)
    assert np.geterr() == before
    with pytest.raises(BlowUpError) as capped:
        roll_integrate_history(StepHistory(fast), step + 3, 1200, p)
    assert_same_blow_up(outs[1], capped.value)
    assert outs[2].step == 0 and outs[2].report.reason == "non_finite"
    assert outs[2].report.field_name is Field.T
    expected = roll_integrate_history(StepHistory(calm), step + 3, 1200, p).current
    assert outs[0].bit_equal(expected) and outs[3].bit_equal(expected)


def test_batch_refuses_lanes_on_two_grids(grid8, params):
    other = Grid(8, 8, 25_000.0, 25_000.0)
    with pytest.raises(StepMismatchError, match="batch lanes must share one grid"):
        integrate_batch([constant_state(grid8), constant_state(other)], 2400, 2400, params)


@pytest.mark.parametrize("kwargs, message", [
    (dict(nu_h=-1.0), "nu_h and kappa must be non-negative"),
    (dict(forcing_wavenumber=2.5), "forcing_wavenumber=2.5 is not a whole number"),
], ids=["nu_h-negative", "wavenumber-fraction"])
def test_params_refuse_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ModelParams(**kwargs)
