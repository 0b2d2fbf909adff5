import pickle

import numpy as np
import pytest

from paratide import Field, Grid, ModelState, state_add, state_diff, validate_state
from paratide.errors import GridMismatchError, NonFiniteError
from paratide.state import FIELD_ORDER, StepHistory

from conftest import constant_state, random_state


def naive_diff(a, b):
    """Scalar reference loop over flattened arrays."""
    out = np.empty_like(a)
    fa, fb, fo = a.ravel(), b.ravel(), out.ravel()
    for i in range(fa.size):
        fo[i] = fa[i] - fb[i]
    return out


def naive_add(a, b):
    out = np.empty_like(a)
    fa, fb, fo = a.ravel(), b.ravel(), out.ravel()
    for i in range(fa.size):
        fo[i] = fa[i] + fb[i]
    return out


def test_diff_of_state_with_itself_is_zero(grid8):
    rng = np.random.default_rng(7)
    a = random_state(grid8, rng)
    d = state_diff(a, a)
    assert np.all(d.data == 0.0)
    assert d.time == a.time


def test_diff_constant_fields(grid8):
    a = constant_state(grid8, u=2.0)
    b = constant_state(grid8, u=0.5)
    d = state_diff(a, b)
    assert np.all(d.field(Field.U) == 1.5)
    for f in (Field.V, Field.ETA, Field.T, Field.S):
        assert np.all(d.field(f) == 0.0)


def test_diff_matches_scalar_loop_oracle(grid8):
    rng = np.random.default_rng(42)
    a = random_state(grid8, rng)
    b = random_state(grid8, rng)
    d = state_diff(a, b)
    for f in FIELD_ORDER:
        expected = naive_diff(a.field(f), b.field(f))
        assert np.array_equal(d.field(f), expected)


def test_add_identity_and_scalar_oracle(grid8):
    rng = np.random.default_rng(43)
    a = random_state(grid8, rng)
    zero = ModelState(grid8, np.zeros((5, 8, 8)), a.time)
    assert state_add(a, zero).bit_equal(a)
    b = random_state(grid8, rng)
    s = state_add(a, b)
    for f in FIELD_ORDER:
        assert np.array_equal(s.field(f), naive_add(a.field(f), b.field(f)))


def test_add_diff_roundtrip_exact_on_integer_fields(grid8):
    rng = np.random.default_rng(5)
    fa = ModelState(grid8, rng.integers(-50, 50, size=(5, 8, 8)).astype(float), 0)
    fb = ModelState(grid8, rng.integers(-50, 50, size=(5, 8, 8)).astype(float), 0)
    assert state_add(state_diff(fa, fb), fb).bit_equal(fa)


def test_algebra_commutativity_and_antisymmetry(grid8):
    rng = np.random.default_rng(11)
    a = random_state(grid8, rng)
    b = random_state(grid8, rng)
    assert state_add(a, b).data.tobytes() == state_add(b, a).data.tobytes()
    assert np.array_equal(state_diff(a, b).data, -state_diff(b, a).data)


def test_algebra_inputs_unmodified(grid8):
    rng = np.random.default_rng(12)
    a = random_state(grid8, rng)
    b = random_state(grid8, rng)
    a_bytes, b_bytes = a.data.tobytes(), b.data.tobytes()
    state_add(a, b)
    state_diff(a, b)
    assert a.data.tobytes() == a_bytes and b.data.tobytes() == b_bytes


def test_grid_mismatch_rejected(grid8):
    other = Grid(nx=16, ny=8, dx=50_000.0, dy=50_000.0)
    a = constant_state(grid8)
    b = constant_state(other)
    with pytest.raises(GridMismatchError):
        state_diff(a, b)


def test_non_finite_operand_rejected(grid8):
    a = constant_state(grid8)
    data = a.data.copy()
    data[0, 0, 0] = np.nan
    bad = ModelState(grid8, data, 0)
    with pytest.raises(NonFiniteError):
        state_add(a, bad)


def test_validate_rest_state_ok(grid8):
    assert validate_state(constant_state(grid8)) is None


def test_validate_reports_nan_in_temperature(grid8):
    a = constant_state(grid8)
    data = a.data.copy()
    data[Field.T.value, 2, 3] = np.nan
    report = validate_state(ModelState(grid8, data, 0))
    assert report is not None
    assert report.field_name is Field.T
    assert report.index == (2, 3)
    assert report.reason == "non_finite"


def test_validate_reports_velocity_cap(grid8):
    report = validate_state(constant_state(grid8, u=1.0e6))
    assert report is not None
    assert report.field_name is Field.U
    assert report.reason == "velocity_cap"


def test_validate_reports_v_over_the_cap_while_u_is_fine(grid8):
    report = validate_state(constant_state(grid8, u=1.0, v=-150.0))
    assert (report.field_name, report.index, report.value, report.reason) == (
        Field.V, (0, 0), -150.0, "velocity_cap")


@pytest.mark.parametrize("offenders, first", [
    ([(Field.S, 0, 0, np.nan), (Field.ETA, 5, 5, np.inf)], (Field.ETA, (5, 5))),
    ([(Field.T, 4, 1, np.nan), (Field.T, 2, 7, np.inf)], (Field.T, (2, 7))),
    ([(Field.U, 3, 6, 500.0), (Field.U, 3, 2, -500.0)], (Field.U, (3, 2))),
    ([(Field.V, 0, 0, 500.0), (Field.U, 7, 7, 500.0)], (Field.U, (7, 7))),
    ([(Field.U, 0, 0, 500.0), (Field.T, 1, 1, np.nan)], (Field.T, (1, 1))),
], ids=["field-first", "row-before-column", "column", "u-before-v", "non-finite-before-cap"])
def test_validate_reports_the_first_of_two_offenders(grid8, offenders, first):
    # offenders are reported in (field, row, column) order, whatever the
    # order they were written in
    data = constant_state(grid8).data.copy()
    for f, row, col, value in offenders:
        data[f.value, row, col] = value
    report = validate_state(ModelState(grid8, data, 0))
    assert (report.field_name, report.index) == first


def test_validate_reports_negative_infinity(grid8):
    data = constant_state(grid8).data.copy()
    data[Field.S.value, 6, 1] = -np.inf
    report = validate_state(ModelState(grid8, data, 0))
    assert (report.field_name, report.index, report.value, report.reason) == (
        Field.S, (6, 1), -np.inf, "non_finite")


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(nx=3, ny=8, dx=1.0, dy=1.0)
    with pytest.raises(ValueError):
        Grid(nx=8, ny=8, dx=0.0, dy=1.0)


def test_time_must_be_non_negative_integer(grid8):
    data = np.zeros((5, 8, 8))
    with pytest.raises(ValueError):
        ModelState(grid8, data, -1)
    with pytest.raises(ValueError):
        ModelState(grid8, data, 3.5)


def test_state_arrays_frozen(grid8):
    s = constant_state(grid8)
    with pytest.raises(ValueError):
        s.data[0, 0, 0] = 1.0


def test_unpickled_state_is_frozen(grid8):
    # states come back from worker processes through pickle
    s = constant_state(grid8, u=1.5, time=600)
    back = pickle.loads(pickle.dumps(s))
    assert back.bit_equal(s)
    assert back.data.flags.writeable is False


def test_step_history_invariants(grid8):
    s = constant_state(grid8, time=4800)
    from paratide.solver import rhs
    from paratide import ModelParams
    t = rhs(s, ModelParams())
    assert t.flags.writeable is False
    StepHistory(s, ((0, t), (2400, t)))
    with pytest.raises(ValueError):
        StepHistory(s, ((2400, t[:, :4]),))  # not the state's grid
    with pytest.raises(ValueError):
        StepHistory(s, ((0, t), (2400, t), (3600, t)))  # uneven spacing
    with pytest.raises(ValueError):
        StepHistory(s, ((2400, t), (0, t)))  # not increasing
    with pytest.raises(ValueError):
        StepHistory(s, ((0, t),) * 4)


def test_state_data_coerced_to_frozen_float64(grid8):
    s = ModelState(grid8, np.ones((5, 8, 8), dtype=np.float32), 0)
    assert s.data.dtype == np.float64 and not s.data.flags.writeable


def test_state_data_of_another_shape_refused(grid8):
    with pytest.raises(ValueError, match=r"data shape \(5, 4, 4\) does not match grid \(8, 8\)"):
        ModelState(grid8, np.zeros((5, 4, 4)), 0)
