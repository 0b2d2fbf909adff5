"""Randomised invariant gate for the Parareal driver.

Each case is drawn from a seeded numpy generator: an 8x8 grid, 1-6 slices
of 600 s, coarse 144 and fine 288 spd, a random iteration count, abort or
continue, and up to three fine and two coarse BlowUpErrors at random
(k, n).  The properties:

- the pipelined schedule gives the same events, flags and iterate bytes
  at w = 1, 2, 3 and 5;
- the barrier and the pipelined schedule agree, events included, with the
  same in-process Propagator at max_parallel_fine = 1.  The barrier
  integrates its fine lanes in integrate_batch, so a fine fault there comes
  from a coarse function that spikes the chosen slice's input;
- without faults, slices n <= k match the serial fine chain bit for bit,
  and the epsilon stop lands on the same k on both schedules.

A failing case names its seed; each case found this way becomes a named
regression test.
"""

import dataclasses

import numpy as np

from paratide import ModelParams, ModelState, PararealConfig, PropagatorSpec, SliceLayout
from paratide import run_parareal
from paratide.config import ABORT, CONTINUE_UNCORRECTED
from paratide.errors import BlowUpError
from paratide.parareal import Propagator
from paratide.propagator import restarted_serial_run

from conftest import random_state

CASES = 120
PARAMS = ModelParams()
SLICE = 600
SPIKE = np.array([1e4, 1e4, 1.0, 1.0, 1.0])[:, None, None]   # velocities past the cap


def draw(seed, grid, faults=True):
    """A case: (config, u0, fine faults, coarse faults), each fault a set of (k, n)."""
    rng = np.random.default_rng(seed)
    n_slices = int(rng.integers(1, 7))
    iterations = int(rng.integers(1, n_slices + 1))
    cfg = PararealConfig(
        layout=SliceLayout(t0=0, slice_length=SLICE, n_slices=n_slices),
        coarse=PropagatorSpec(144), fine=PropagatorSpec(288),
        max_iterations=iterations, epsilon=0.0,
        on_blow_up=(ABORT, CONTINUE_UNCORRECTED)[int(rng.integers(2))],
    )

    def cells(most, first_k):
        count = int(rng.integers(most + 1)) if faults else 0
        return {(int(rng.integers(first_k, iterations + 1)), int(rng.integers(n_slices)))
                for _ in range(count)}

    return cfg, random_state(grid, rng), cells(3, 1), cells(2, 0)


def faulty(fn, faults, role):
    """fn as a plain callable that raises a BlowUpError at each (k, n) of faults."""
    def call(state, n, k):
        if (k, n) in faults:
            raise BlowUpError(f"injected {role} fault", slice_index=n, iteration=k)
        return fn(state, n, k)
    return call


def exact_coarse(spikes, faults):
    """Exact flow that scales every value by 0.9 per slice, its velocities
    by 1e4 more at each (k, n) of spikes, and raises at each of faults."""
    def fn(state, n, k):
        factor = SPIKE * 0.9 if (k, n) in spikes else 0.9
        return ModelState(state.grid, state.data * factor, state.time + SLICE)
    return faulty(fn, faults, "coarse")


def kind(result):
    """The kind of a run's outcome: "raised", or the phases of its events."""
    return "raised" if result[0] == "raised" else tuple(sorted({e.phase for e in result[0]}))


def outcome(u0, cfg, **kwargs):
    """What a run settles to: the raised error, or its events, flags and
    iterate bytes."""
    try:
        res = run_parareal(u0, cfg, PARAMS, **kwargs)
    except BlowUpError as err:
        return "raised", str(err), err.slice_index, err.iteration
    return (res.blow_ups, [r.blow_up_slices for r in res.records], res.aborted,
            res.stopped_at_epsilon, [r.errors for r in res.records],
            [[s.data.tobytes() for s in it] for it in res.iterates])


def test_pipelined_schedule_is_independent_of_the_worker_count(grid8):
    kinds = set()
    for seed in range(CASES):
        cfg, u0, fine_faults, coarse_faults = draw(seed, grid8)
        fine = faulty(Propagator(cfg.fine, PARAMS, cfg.layout), fine_faults, "fine")
        coarse = exact_coarse(set(), coarse_faults)
        first, *rest = (
            outcome(u0, dataclasses.replace(cfg, max_parallel_fine=w),
                    coarse_fn=coarse, fine_fn=fine)
            for w in (1, 2, 3, 5))
        for w, other in zip((2, 3, 5), rest):
            assert other == first, f"seed {seed}: w = {w} differs from w = 1"
        kinds.add(kind(first))
    assert kinds >= {"raised", (), ("fine",), ("correction",)}, kinds


def test_barrier_and_pipelined_schedules_agree_under_faults(grid8):
    kinds = set()
    for seed in range(CASES):
        cfg, u0, fine_faults, coarse_faults = draw(seed, grid8)
        cfg = dataclasses.replace(cfg, max_parallel_fine=1)
        # fine lane (k, n) starts from U^{k-1}_n, which coarse (k-1, n-1) forms
        coarse = exact_coarse({(k - 1, n - 1) for k, n in fine_faults}, coarse_faults)
        prop = Propagator(cfg.fine, PARAMS, cfg.layout)
        barrier = outcome(u0, cfg, coarse_fn=coarse, fine_fn=prop)
        pipelined = outcome(u0, cfg, coarse_fn=coarse, fine_fn=lambda s, n, k: prop(s, n, k))
        assert barrier == pipelined, f"seed {seed}: the schedules disagree"
        kinds.add(kind(barrier))
    assert kinds >= {"raised", (), ("fine",), ("correction",)}, kinds


def test_fault_free_runs_are_exact_and_stop_alike(grid8):
    stops = set()
    for seed in range(CASES):
        cfg, u0, _, _ = draw(seed, grid8, faults=False)
        epsilon = 10 ** np.random.default_rng(seed).uniform(-15.5, -3)
        cfg = dataclasses.replace(cfg, max_parallel_fine=1, epsilon=epsilon)
        reference = restarted_serial_run(cfg.fine, u0, cfg.layout, PARAMS)
        coarse = Propagator(cfg.coarse, PARAMS, cfg.layout)
        prop = Propagator(cfg.fine, PARAMS, cfg.layout)
        runs = [run_parareal(u0, cfg, PARAMS, coarse_fn=coarse, fine_fn=fine, reference=reference)
                for fine in (prop, lambda s, n, k: prop(s, n, k))]
        for res in runs:
            for k, iterate in enumerate(res.iterates):
                for n in range(min(k, cfg.layout.n_slices) + 1):
                    assert iterate[n].bit_equal(reference[n]), f"seed {seed}: U^{k}_{n} not exact"
        barrier, pipelined = ((r.iterations_run, r.stopped_at_epsilon) for r in runs)
        assert barrier == pipelined, f"seed {seed}: the epsilon stop differs"
        stops.add(barrier)
    # the stops land on several k, not only on the first or the last
    assert {k for k, stopped in stops if stopped} >= {1, 2, 3}, stops
