import math

import numpy as np
import pytest

from paratide import (
    Field,
    ModelParams,
    PropagatorSpec,
    max_profitable_iterations,
    measure_runtime_ratio,
    rel_l2_norm,
    rel_max_norm,
    speedup_bound,
    speedup_estimate,
    parse_config,
)
from paratide.errors import StepMismatchError, ZeroReferenceError
from paratide.metrics import first_crossing_iteration


# --------------------------------------------------------------------------
# Norms against naive loop oracles

def oracle_max_norm(approx, ref):
    num = 0.0
    den = 0.0
    for a, r in zip(approx.ravel(), ref.ravel()):
        num = max(num, abs(a - r))
        den = max(den, abs(r))
    return num / den


def oracle_l2_norm(approx, ref):
    # compensated (Kahan) summation of the squares
    def sumsq(values):
        total, comp = 0.0, 0.0
        for v in values.ravel():
            y = v * v - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    return math.sqrt(sumsq(approx - ref)) / math.sqrt(sumsq(ref))


def test_identical_arrays_have_zero_error():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(64)
    assert rel_max_norm(a, a) == 0.0
    assert rel_l2_norm(a, a) == 0.0


def test_constant_shift_max_norm():
    ref = np.array([1.0, -3.0, 2.0])
    approx = ref + 0.5
    assert rel_max_norm(approx, ref) == 0.5 / 3.0


def test_single_element_l2():
    assert rel_l2_norm(np.array([2.5]), np.array([2.0])) == 0.5 / 2.0


def test_max_norm_matches_oracle_exactly():
    rng = np.random.default_rng(2)
    approx = rng.standard_normal(100)
    ref = rng.standard_normal(100)
    assert rel_max_norm(approx, ref) == oracle_max_norm(approx, ref)


def test_l2_norm_matches_compensated_oracle():
    rng = np.random.default_rng(3)
    approx = rng.standard_normal(100)
    ref = rng.standard_normal(100)
    got = rel_l2_norm(approx, ref)
    want = oracle_l2_norm(approx, ref)
    assert abs(got - want) <= 1e-15 * want


def test_zero_reference_is_an_error_not_a_value():
    with pytest.raises(ZeroReferenceError):
        rel_max_norm(np.ones(4), np.zeros(4))
    with pytest.raises(ZeroReferenceError):
        rel_l2_norm(np.ones(4), np.zeros(4))


def test_norm_axioms_random_sweep():
    rng = np.random.default_rng(4)
    for _ in range(200):
        approx = rng.standard_normal(16)
        ref = rng.standard_normal(16)
        scale = float(rng.uniform(0.1, 10.0))
        for norm in (rel_max_norm, rel_l2_norm):
            value = norm(approx, ref)
            assert value >= 0.0
            # the ratio is scale-free
            assert np.isclose(norm(approx * scale, ref * scale), value, rtol=1e-12)
        assert rel_max_norm(ref, ref) == 0.0


# --------------------------------------------------------------------------
# Speedup model

def test_speedup_estimate_values():
    assert speedup_estimate(1, 12, 2.0) == pytest.approx(12.0 / 13.0, rel=1e-15)
    assert speedup_estimate(1, 12, 2.0) < 1.0
    assert speedup_estimate(6, 12, 8.0) == pytest.approx(8.0 / 11.0, rel=1e-15)
    # cross-check with the runtime-ratio form N_t m / ((k+1) N_t + k m)
    for k, nt, m in [(1, 12, 2.0), (3, 8, 5.0), (6, 12, 8.0)]:
        direct = nt * m / ((k + 1) * nt + k * m)
        assert speedup_estimate(k, nt, m) == pytest.approx(direct, rel=1e-14)


def test_speedup_estimate_limit_in_m():
    # m -> infinity: S -> N_t / k
    assert speedup_estimate(3, 12, 1e12) == pytest.approx(4.0, rel=1e-9)


def test_speedup_bound_values():
    assert speedup_bound(6, 12, 8.0) == pytest.approx(8.0 / 7.0, rel=1e-15)
    assert speedup_bound(1, 12, 2.0) == 1.0
    assert speedup_bound(1, 5, 2.0) == 1.0


def test_bound_dominates_estimate_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        nt = int(rng.integers(1, 64))
        m = float(rng.uniform(0.01, 100.0))
        assert speedup_bound(k, nt, m) >= speedup_estimate(k, nt, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        speedup_estimate(0, 12, 2.0)
    with pytest.raises(ValueError):
        speedup_bound(1, 0, 2.0)
    with pytest.raises(ValueError):
        speedup_estimate(1, 12, 0.0)


def brute_force_profitable(m, nt):
    best = 0
    for k in range(1, 10 * nt + 1):
        if min(m / (k + 1), nt / k) > 1.0:
            best = k
    return best


def test_profitable_iterations_known_limits():
    assert max_profitable_iterations(2.0, 12) == 0
    assert max_profitable_iterations(4.0, 12) == 2
    assert max_profitable_iterations(8.0, 12) == 6


def test_profitable_iterations_matches_brute_force():
    for m in range(1, 65):
        for nt in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            got = max_profitable_iterations(float(m), nt)
            want = brute_force_profitable(float(m), nt)
            assert got == want, (m, nt)
            # closed form for integer m, clamped at never-profitable
            assert got == max(0, min(m - 2, nt - 1)), (m, nt)


def test_profitable_iterations_matches_brute_force_at_non_integer_m():
    # the closed form rounds m up: k + 1 < m admits k = ceil(m) - 2, so
    # values just past an integer gain an iteration and those just below
    # do not
    for m in (1.5, 2.0000001, 2.5, 3.1, 7.999, 8.0001, 12.75, 63.5, 64.0000001):
        for nt in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            assert max_profitable_iterations(m, nt) == brute_force_profitable(m, nt), (m, nt)


def test_first_crossing_helper():
    errors = {0: (0.5, 0.3), 1: (0.02, 0.2), 2: (0.001, 0.004), 3: (0.5, 0.5)}
    assert first_crossing_iteration(errors, 1e-2) == 2
    assert first_crossing_iteration(errors, 1e-6) is None


# --------------------------------------------------------------------------
# Runtime-ratio measurement (small grid keeps the timings honest but quick)

@pytest.fixture(scope="module")
def ratio_state():
    from paratide import Grid
    from paratide.harness import initial_state

    grid = Grid(16, 16, 50_000.0, 50_000.0)
    return initial_state(grid, ModelParams(), seed=7)


def test_runtime_ratio_self_is_one(ratio_state):
    r = measure_runtime_ratio(
        PropagatorSpec(36), PropagatorSpec(36, mode="internal"), ratio_state,
        86400, ModelParams(), repetitions=9,
    )
    assert abs(r - 1.0) <= 0.10


def test_runtime_ratio_doubling(ratio_state):
    r = measure_runtime_ratio(
        PropagatorSpec(36), PropagatorSpec(72), ratio_state, 86400, ModelParams(),
        repetitions=9,
    )
    assert abs(r - 2.0) <= 0.25 * 2.0


def test_runtime_ratio_requires_internal(ratio_state):
    ext = PropagatorSpec(72, mode="external", command=("true",))
    with pytest.raises(ValueError):
        measure_runtime_ratio(PropagatorSpec(36), ext, ratio_state, 86400, ModelParams())


@pytest.mark.parametrize("fine_spd, slice_seconds", [(72, 3600), (27, 4800)],
                         ids=["off-coarse", "off-fine"])
def test_runtime_ratio_window_judged_by_the_stepper(ratio_state, fine_spd, slice_seconds):
    # a slice off the coarse 2400 s step, or off the fine 3200 s one: integrate
    # refuses the window on the first timed call of that side
    with pytest.raises(StepMismatchError, match=f"window of {slice_seconds}s"):
        measure_runtime_ratio(PropagatorSpec(36), PropagatorSpec(fine_spd), ratio_state,
                              slice_seconds, ModelParams())


# --------------------------------------------------------------------------
# Time-averaged error series

ORDERING_CONF = """
[config]
slice_length = 43200
n_slices = 2
coarse_spd = 36
fine_spd = 72,144
seed = 1234
spin_up_days = 1
spin_up_spd = 288

[model]
nx = 32
ny = 32
"""


def test_error_ordering_by_step_size(tmp_path, monkeypatch):
    # coarser stepping sits farther from the fine reference on slice one
    from paratide.harness import time_averaged_study

    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    path = tmp_path / "ordering.conf"
    path.write_text(ORDERING_CONF)
    config = parse_config(path)
    assert config.reference_spd == 1440
    series = time_averaged_study(config, spd_list=(36, 72, 144))
    first = {spd: series[spd][Field.T][0] for spd in (36, 72, 144)}
    assert first[36] > first[72] > first[144] > 0.0
