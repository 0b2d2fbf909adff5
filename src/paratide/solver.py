"""Rotating shallow-water + tracer dynamical core on a doubly periodic grid.

Momentum carries Coriolis rotation, advection, a linear free-surface
pressure gradient, lateral viscosity, and a steady sinusoidal zonal body
force; temperature and salinity are advected in flux form and diffused.
All spatial operators are second-order centered differences with periodic
wrap.  Time integration is third-order Adams-Bashforth, bootstrapped with
one explicit-trapezoid step and one AB2 step so the observed convergence
order stays at three.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUpError, CFLImpossibleError, StepMismatchError
from .state import (
    DEFAULT_VELOCITY_CAP,
    N_FIELDS,
    Field,
    Grid,
    ModelState,
    StepHistory,
    validate_state,
)

SECONDS_PER_DAY = 86400

# AB coefficients, classic explicit Adams-Bashforth family.
_AB3 = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)
_AB2 = (1.5, -0.5)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the dynamical core.

    Defaults are the desk-scale calibration: a 50 km grid with a shallow
    equivalent depth puts the 36-steps-per-day coarse step right against
    the gravity-wave CFL bound, and the weak wavenumber-3 wind analog keeps
    velocities small enough that year-long runs stay inside it.
    """

    f0: float = 1.0e-4            # Coriolis parameter (1/s)
    g: float = 9.81               # gravity (m/s^2)
    H: float = 8.0                # mean layer depth (m)
    nu_h: float = 100.0           # horizontal viscosity (m^2/s)
    kappa: float = 50.0           # tracer diffusivity (m^2/s)
    forcing_amp: float = 1.0e-9   # zonal body-force amplitude (m/s^2)
    forcing_wavenumber: int = 3
    velocity_cap: float = DEFAULT_VELOCITY_CAP   # |u|,|v| beyond this is a blow-up

    def __post_init__(self):
        if not (self.H > 0 and self.g > 0 and self.g * self.H > 0):   # no underflow
            raise ValueError("H and g must be positive, and so must g*H")
        if not (self.nu_h >= 0 and self.kappa >= 0):
            raise ValueError("nu_h and kappa must be non-negative")
        if int(self.forcing_wavenumber) != self.forcing_wavenumber:
            raise ValueError("forcing_wavenumber must be an integer")
        if not (abs(self.f0) < np.inf and abs(self.forcing_amp) < np.inf):
            raise ValueError("f0 and forcing_amp must be finite")
        if not self.velocity_cap > 0:   # inf is no cap
            raise ValueError("velocity_cap must be positive")


# Stepper buffers keep the fields in slot order: ETA first puts the fields
# with a gradient (ETA, U, V) and those with a Laplacian (U, V, T, S) each in
# one run.  _FIELD is the Field index of each slot, _SLOT the slot of each.
_FIELD = (Field.ETA.value, Field.U.value, Field.V.value, Field.T.value, Field.S.value)
_SLOT = tuple(_FIELD.index(f) for f in range(N_FIELDS))


class _Stepper:
    """Steps a stack of independent states ("lanes") that share one grid.

    Built for a lane count, with buffers of its own; a single state is a
    batch of one.  A buffer holds halo-padded (ny+2, nx+2) planes, flat,
    slot by slot and within a slot lane by lane, so every operation is one
    numpy call on a contiguous run; each step phase is compiled once per dt
    into a list of such calls.  Unwritten halo or scratch cells that a run
    reads land only in halos, which it refreshes, so a stepper can be
    loaded again (_step).  The operation order is frozen: it gives every
    lane the bits of a state stepped alone.  See README, "Time stepping".
    """

    def __init__(self, grid: Grid, p: ModelParams, lanes: int):
        self.grid, self.p, self.lanes = grid, p, lanes
        self.w = w = grid.nx + 2
        self.size = size = self.lanes * (grid.ny + 2) * w   # one slot of every lane
        slots = [N_FIELDS] * 8 + [3, 3]   # per buffer, carved from one allocation
        block, ends = np.zeros(sum(slots) * size), np.cumsum(slots) * size
        (self.state, self.pred, self.work, self.work2, self.lap, *self.ring,
         self.gx, self.gy) = (block[e - k * size : e] for k, e in zip(slots, ends))
        j = np.arange(grid.ny, dtype=np.float64)
        self.forcing = np.zeros((self.lanes, grid.ny + 2, w))   # zonal body force on u
        self.forcing[:, 1:-1] = (p.forcing_amp * np.sin(
            2.0 * np.pi * int(p.forcing_wavenumber) * j / grid.ny))[:, None]
        # |x| <= limit fails on NaN and inf: one test checks finiteness and the cap.
        fmax = np.finfo(np.float64).max
        cap = min(p.velocity_cap, fmax)
        self.limits = np.array([[fmax], [cap], [cap], [fmax], [fmax]])
        self.interior = self._planes(self.state)[..., 1:-1, 1:-1]   # (slot, lane, ny, nx)
        self.programs: dict[tuple[int, int, int], list] = {}

    def load(self, lanes: Sequence[np.ndarray]) -> "_Stepper":
        """Copy the lanes' fields in and refresh the halos."""
        for lane, src in enumerate(lanes):
            self.interior[:, lane] = src[_FIELD, ...]
        for fn, args in self._refresh_ops(self.state):
            fn(*args)
        return self

    def _planes(self, buf: np.ndarray) -> np.ndarray:
        return buf.reshape(-1, self.lanes, self.grid.ny + 2, self.w)

    def _span(self, buf, first, last, shift=0):
        """Slots [first, last) of every lane, from the first interior row to
        the last, moved by shift."""
        return buf[first * self.size + self.w + shift : last * self.size - self.w + shift]

    def _refresh_ops(self, buf) -> list:
        b, ny, nx = self._planes(buf), self.grid.ny, self.grid.nx
        # halo columns 0, nx+1 from nx, 1; then whole halo rows 0, ny+1 from ny, 1
        return [(np.copyto, (b[..., 1:-1, :: nx + 1], b[..., 1:-1, nx : 0 : 1 - nx])),
                (np.copyto, (b[..., :: ny + 1, :], b[..., ny : 0 : 1 - ny, :]))]

    def _rhs_ops(self, s, out) -> list:
        """The tendency of the padded lanes s into out."""
        n, w, p, span = self.size, self.w, self.p, self._span
        # The momentum terms a, b reuse work, work2 once the Laplacian is
        # formed; the tracer fluxes fx, fy reuse the first two slots of gx,
        # gy once the momentum and ETA terms have read them.
        gx, gy, lap, work = self.gx, self.gy, self.lap, self.work
        a, b, fx, fy = work, self.work2, gx[: 2 * n], gy[: 2 * n]
        sub, mul, add = np.subtract, np.multiply, np.add
        cx, cy = 0.5 / self.grid.dx, 0.5 / self.grid.dy

        # u's part of the momentum run is head(., 1), v's is tail(., 2): a
        # cross term such as f0 v in the u equation is one call per part.
        def head(buf, slot):
            return buf[slot * n + w : (slot + 1) * n]

        def tail(buf, slot):
            return buf[slot * n : (slot + 1) * n - w]

        g3, y3, l4, w4 = span(gx, 0, 3), span(gy, 0, 3), span(lap, 1, 5), span(work, 1, 5)
        uv, a2, eta, ts, a_ts, b_ts = (span(out, 1, 3), span(a, 1, 3), span(out, 0, 1),
                                       span(out, 3, 5), span(a, 3, 5), span(b, 3, 5))
        ops = [  # d/dx and d/dy of ETA, U, V; Laplacian of U, V, T, S
            (sub, (span(s, 0, 3, 1), span(s, 0, 3, -1), g3)), (mul, (g3, cx, g3)),
            (sub, (span(s, 0, 3, w), span(s, 0, 3, -w), y3)), (mul, (y3, cy, y3)),
            (add, (span(s, 1, 5, 1), span(s, 1, 5, -1), l4))]
        if self.grid.dx == self.grid.dy:
            ops += [(add, (l4, span(s, 1, 5, w), l4)), (add, (l4, span(s, 1, 5, -w), l4)),
                    (mul, (span(s, 1, 5), 4.0, w4)), (sub, (l4, w4, l4)),
                    (mul, (l4, 1.0 / self.grid.dx**2, l4))]
        else:
            y4 = span(self.work2, 1, 5)
            ops += [(mul, (span(s, 1, 5), 2.0, w4)), (sub, (l4, w4, l4)),
                    (mul, (l4, 1.0 / self.grid.dx**2, l4)),
                    (add, (span(s, 1, 5, w), span(s, 1, 5, -w), y4)), (sub, (y4, w4, y4)),
                    (mul, (y4, 1.0 / self.grid.dy**2, y4)), (add, (l4, y4, l4))]
        return ops + [
            # f0 v - (u du/dx + v du/dy) - g deta/dx + nu lap u + F, and
            # -f0 u - (u dv/dx + v dv/dy) - g deta/dy + nu lap v
            (mul, (head(s, 2), p.f0, head(out, 1))), (mul, (tail(s, 1), -p.f0, tail(out, 2))),
            (mul, (head(s, 1), head(gx, 1), head(a, 1))), (mul, (tail(s, 1), tail(gx, 2), tail(a, 2))),
            (mul, (head(s, 2), head(gy, 1), head(b, 1))), (mul, (tail(s, 2), tail(gy, 2), tail(b, 2))),
            (add, (a2, span(b, 1, 3), a2)), (sub, (uv, a2, uv)),
            (mul, (head(gx, 0), p.g, head(a, 1))), (mul, (tail(gy, 0), p.g, tail(a, 2))),
            (sub, (uv, a2, uv)), (mul, (span(lap, 1, 3), p.nu_h, a2)), (add, (uv, a2, uv)),
            (add, (head(out, 1), self.forcing.ravel()[w:], head(out, 1))),
            # -H (du/dx + dv/dy)
            (add, (span(gx, 1, 2), span(gy, 2, 3), eta)), (mul, (eta, -p.H, eta)),
            # kappa lap T - (d(uT)/dx + d(vT)/dy), and for S: in flux form the
            # divergence telescopes over the periodic grid, so the grid means
            # of T and S are conserved to round-off.  A neighbour's flux is
            # the product of its values, so uT, uS, vT, vS are formed once.
            (mul, (s[n : 2 * n], s[3 * n : 4 * n], fx[:n])),
            (mul, (s[n : 2 * n], s[4 * n :], fx[n:])),
            (mul, (s[2 * n : 3 * n], s[3 * n : 4 * n], fy[:n])),
            (mul, (s[2 * n : 3 * n], s[4 * n :], fy[n:])),
            (sub, (fx[w + 1 : 2 * n - w + 1], fx[w - 1 : 2 * n - w - 1], a_ts)),
            (mul, (a_ts, cx, a_ts)),
            (sub, (fy[2 * w :], fy[: 2 * n - 2 * w], b_ts)), (mul, (b_ts, cy, b_ts)),
            (add, (a_ts, b_ts, a_ts)), (mul, (span(lap, 3, 5), p.kappa, ts)), (sub, (ts, a_ts, ts)),
        ]

    def _program(self, k: int, order: int, dt: int) -> list:
        """A step whose fresh tendency goes to ring[k] (step i's tendency is
        in ring[i % 3]): trapezoid (order 0), AB2 (1) or AB3 (2)."""
        if (k, order, dt) in self.programs:
            return self.programs[(k, order, dt)]
        f_n, f_m1, f_m2 = (self._span(self.ring[(k - j) % 3], 0, 5) for j in range(3))
        new, work, work2, pred = (self._span(b, 0, 5) for b in (self.state, self.work, self.work2, self.pred))
        mul, add = np.multiply, np.add
        ops = self._rhs_ops(self.state, self.ring[k])
        if order == 0:   # on a cold start f_m2's slot is free for the predictor's tendency
            ops += [(mul, (f_n, dt, work)), (add, (new, work, pred)), *self._refresh_ops(self.pred),
                    *self._rhs_ops(self.pred, self.ring[(k - 2) % 3]),
                    (add, (f_n, f_m2, work)), (mul, (work, 0.5 * dt, work))]
        elif order == 1:
            ops += [(mul, (f_n, dt * _AB2[0], work)), (mul, (f_m1, dt * _AB2[1], work2)),
                    (add, (work, work2, work))]
        else:
            ops += [(mul, (f_n, dt * _AB3[0], work)), (mul, (f_m1, dt * _AB3[1], work2)),
                    (add, (work, work2, work)), (mul, (f_m2, dt * _AB3[2], work2)),
                    (add, (work, work2, work))]
        ops += [(add, (new, work, new)), *self._refresh_ops(self.state)]
        self.programs[(k, order, dt)] = ops
        return ops

    def run(self, priors: Sequence[np.ndarray], n_steps: int, dt: int,
            on_step=None) -> dict[int, tuple[int, np.ndarray]]:
        """Advance the loaded lanes n_steps steps of dt, warm from priors:
        the last two or fewer (L, 5, ny, nx) tendencies, oldest first.

        Returns {lane: (step, fields)} for each lane at its first step that
        turned non-finite or broke the velocity cap, a non-finite input
        included (it fails at step 0); stepping stops once all lanes have
        failed.  on_step gets lane 0's fields after each step.
        """
        for k, prior in zip((1, 2)[2 - len(priors):], priors):
            self._planes(self.ring[k])[..., 1:-1, 1:-1] = prior.swapaxes(0, 1)[_FIELD, ...]
        peaks = self.work.reshape(N_FIELDS, self.lanes, -1)
        failures: dict[int, tuple[int, np.ndarray]] = {}
        # Failed lanes step on with NaN/inf values (their results are
        # discarded): np.seterr silences that numpy noise until the run ends.
        with np.errstate():
            if not np.isfinite(self.state).all():
                np.seterr(over="ignore", invalid="ignore")
            for i in range(n_steps):
                for fn, args in self._program(i % 3, min(len(priors) + i, 2), dt):
                    fn(*args)
                np.abs(self.state, self.work)
                ok = peaks.max(axis=2) <= self.limits
                if not ok.all():
                    for lane in np.flatnonzero(~ok.all(axis=0)):
                        if lane not in failures:
                            failures[int(lane)] = (i, self.lane(lane))
                    np.seterr(over="ignore", invalid="ignore")
                    if len(failures) == self.lanes:
                        break
                if on_step is not None:
                    on_step(self.lane(0))
        return failures

    def lane(self, lane: int) -> np.ndarray:
        """The lane's (5, ny, nx) fields in Field order, copied."""
        return self.interior[_SLOT, lane]

    def tendency_of(self, step: int) -> np.ndarray:
        """Lane 0's tendency at one of the last three steps, in Field order."""
        return self._planes(self.ring[step % 3])[_SLOT, 0, 1:-1, 1:-1]


_idle = threading.local()   # per thread: the last one-lane stepper whose run stayed finite


def _check_window(span: int, dt: int, h: StepHistory | None = None) -> int:
    if dt <= 0 or SECONDS_PER_DAY % dt != 0:
        raise StepMismatchError(f"dt={dt} is not an integer divisor of 86400")
    if span <= 0 or span % dt != 0:
        raise StepMismatchError(f"window of {span}s is not a positive multiple of dt={dt}")
    if h is not None and h.tendencies and h.tendencies[-1][0] != h.current.time - dt:
        raise StepMismatchError(f"history was built at a different step size: last tendency "
                                f"at t={h.tendencies[-1][0]}, expected t={h.current.time - dt}")
    return span // dt


def _step(grid: Grid, p: ModelParams, states: Sequence[ModelState], n_steps: int, dt: int,
          priors: Sequence[np.ndarray] = (), on_step=None) -> tuple[_Stepper, list]:
    """Step the states n_steps of dt as the lanes of one stepper; return it
    with each lane's new state or, for a failed lane, its BlowUpError.  One
    lane reuses this thread's idle stepper, compiled programs and all, when
    grid and params match, and leaves it idle again if its run stayed
    finite; it is taken out meanwhile, so a call made from on_step builds
    its own."""
    stepper = _idle.__dict__.pop("stepper", None) if len(states) == 1 else None
    if stepper is None or (stepper.grid, stepper.p) != (grid, p):
        stepper = _Stepper(grid, p, len(states))
    failures = stepper.load([s.data for s in states]).run(priors, n_steps, dt, on_step)
    results: list[ModelState | BlowUpError] = []
    for lane, s in enumerate(states):
        if lane in failures:
            step, data = failures[lane]
            bad = ModelState(grid, data, s.time + (step + 1) * dt)
            report = validate_state(bad, p.velocity_cap)
            results.append(BlowUpError(f"step to t={bad.time} diverged: {report}", report, step=step))
        else:
            results.append(ModelState(grid, stepper.lane(lane), s.time + n_steps * dt))
    if stepper.lanes == 1 and not failures:
        _idle.stepper = stepper
    return stepper, results


def integrate_history(
    h: StepHistory, t_end: int, dt: int, p: ModelParams, on_step=None
) -> StepHistory:
    """Step an existing history forward to t_end (warm continuation).

    With no prior tendency a step is an explicit trapezoid (Heun) step, with
    one AB2, with two or more AB3.  The first failing step (step 0 for a
    non-finite input) raises BlowUpError with its index.  on_step, if
    given, gets a copy of each new state's fields.
    """
    s, dt = h.current, int(dt)
    n_steps = _check_window(int(t_end) - s.time, dt, h)
    priors = [t[None] for _, t in h.tendencies[-2:]]
    stepper, (result,) = _step(s.grid, p, [s], n_steps, dt, priors, on_step)
    if isinstance(result, BlowUpError):
        raise result
    fresh = tuple((s.time + i * dt, stepper.tendency_of(i))
                  for i in range(max(n_steps - 3, 0), n_steps))
    return StepHistory(result, (h.tendencies + fresh)[-3:])


def integrate(s: ModelState, t_end: int, dt: int, p: ModelParams, on_step=None) -> ModelState:
    """Cold-start integration: the multistep history is rebuilt from scratch.

    This mirrors restart-file continuation, where the integrator memory is
    not part of the restart payload; split runs therefore deviate slightly
    from unsplit ones.  Use integrate_history to carry memory across calls.
    """
    return integrate_history(StepHistory(s), t_end, dt, p, on_step).current


def integrate_batch(
    states: Sequence[ModelState], duration: int, dt: int, p: ModelParams
) -> list["ModelState | BlowUpError"]:
    """Cold-start integration of independent states, stacked along a lane axis.

    Bit-identical to integrate on each state (the dynamics are autonomous,
    so time stamps may differ).  A lane that blows up comes back as the
    BlowUpError integrate would raise; the other lanes go on.
    """
    states = list(states)
    if not states:
        return []
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise StepMismatchError("batch lanes must share one grid")
    return _step(grid, p, states, _check_window(int(duration), int(dt)), int(dt))[1]


def cfl_max_dt(s: ModelState, p: ModelParams) -> int:
    """Largest divisor of 86400 below the wave+advection CFL bound.

    The raw bound is 0.5 * min(dx, dy) / (sqrt(g H) + max(|u|, |v|)) on the
    state's grid; rounding is always downward to the nearest admissible
    step count.
    """
    speed = float(np.sqrt(p.g * p.H))
    umax = float(np.abs(s.field(Field.U)).max(initial=0.0))
    vmax = float(np.abs(s.field(Field.V)).max(initial=0.0))
    denom = speed + max(umax, vmax)
    if not np.isfinite(denom):
        raise CFLImpossibleError("velocity is unbounded; no step size is admissible")
    bound = 0.5 * min(s.grid.dx, s.grid.dy) / denom      # denom > 0: ModelParams
    if bound < 1.0:
        raise CFLImpossibleError(
            f"CFL bound {bound:.3g}s is below the 1s step floor"
        )
    top = int(min(bound, SECONDS_PER_DAY))
    return next(d for d in range(top, 0, -1) if SECONDS_PER_DAY % d == 0)

