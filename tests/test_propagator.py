import os
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import paratide
from paratide import propagator
from paratide import (
    Grid,
    ModelParams,
    PropagatorSpec,
    SliceLayout,
    propagate,
    rel_max_norm,
    run_external,
)
from paratide.errors import (
    BlowUpError,
    ExternalTimeoutError,
    SpawnFailureError,
    StepMismatchError,
)
from paratide.propagator import restarted_serial_run
from paratide.solver import integrate, integrate_batch, integrate_history
from paratide.state import FIELD_ORDER, StepHistory

from conftest import CONFIG_DIR, faulty_command, random_state, running

# exp1's [model] is the 32x32 grid and default physics of settled_state
SINGLE_SHOT = (sys.executable, "-m", "paratide", "single-shot",
               "--config", str(CONFIG_DIR / "exp1.conf"))
# the directory this process imported paratide from, as an absolute path
PARATIDE_ROOT = str(Path(paratide.__file__).resolve().parents[1])


def test_spec_validation():
    with pytest.raises(ValueError):
        PropagatorSpec(spd=77)            # 86400 % 77 != 0
    with pytest.raises(ValueError):
        PropagatorSpec(spd=36, mode="external")   # no command
    with pytest.raises(ValueError):
        PropagatorSpec(spd=36, restart_policy="hot")
    assert PropagatorSpec(36).dt == 2400


def _layout(**kw):
    return SliceLayout(**{"t0": 0, "slice_length": 2400, "n_slices": 4, **kw})


def _parareal(**kw):
    from paratide import PararealConfig

    return PararealConfig(_layout(), PropagatorSpec(36), PropagatorSpec(72), **kw)


def _grid(**kw):
    return Grid(**{"nx": 8, "ny": 8, "dx": 5.0e4, "dy": 5.0e4, **kw})


def _state(**kw):
    from paratide import ModelState

    return ModelState(_grid(), np.zeros((5, 8, 8)), **kw)


@pytest.mark.parametrize("make, field, value, stored", [
    (PropagatorSpec, "spd", 36.0, 36),
    (PropagatorSpec, "spd", True, None),
    (PropagatorSpec, "spd", 36.5, None),
    (_layout, "t0", True, None),
    (_layout, "slice_length", 2400.5, None),
    (_layout, "n_slices", 3.0, 3),
    (_parareal, "max_iterations", 2.0, 2),
    (_parareal, "max_iterations", 1.5, None),
    (_parareal, "max_parallel_fine", 1.5, None),
    (_grid, "nx", 32.0, 32),
    (_grid, "ny", np.int64(32), 32),
    (_state, "time", 600.0, 600),
    (_state, "time", 600.5, None),
    (ModelParams, "forcing_wavenumber", 3.0, 3),
    (ModelParams, "forcing_wavenumber", True, None),
    (ModelParams, "forcing_wavenumber", float("inf"), None),
])
def test_settings_hold_whole_numbers(make, field, value, stored):
    # an integral value is stored as an int; a bool or a fraction is refused by name
    if stored is None:
        with pytest.raises(ValueError, match=f"^{field}={value!r} is not a whole number$"):
            make(**{field: value})
    else:
        made = getattr(make(**{field: value}), field)
        assert made == stored and type(made) is int


@pytest.mark.parametrize("make, field, value, stored", [
    (_grid, "dx", 50_000, 5.0e4),
    (_grid, "dy", np.float32(5.0e4), 5.0e4),
    (_grid, "dx", "5e4", "is not a real number"),
    (ModelParams, "H", 8, 8.0),
    (ModelParams, "g", np.int64(10), 10.0),
    (ModelParams, "velocity_cap", float("inf"), float("inf")),
    (ModelParams, "H", "8", "is not a real number"),
    (ModelParams, "H", True, "is not a real number"),
    (ModelParams, "nu_h", np.bool_(False), "is not a real number"),
    (ModelParams, "f0", None, "is not a real number"),
    (ModelParams, "kappa", 10**400, "is past the float range"),
])
def test_settings_hold_real_numbers(make, field, value, stored):
    # a real value is stored as a float, so a setting built in code equals
    # the parsed one; a bool or a value that is no real number is refused by name
    if isinstance(stored, str):
        with pytest.raises(ValueError, match=f"^{field}=.* {stored}$"):
            make(**{field: value})
    else:
        made = getattr(make(**{field: value}), field)
        assert made == stored and type(made) is float


def test_layout_helpers():
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=12)
    assert layout.total_seconds == 28800


def test_internal_single_step_slice(settled_state, params):
    # slice length equal to the coarse step: exactly one time step
    spec = PropagatorSpec(36)
    out = propagate(spec, StepHistory(settled_state), settled_state.time + 2400, params)
    expected = integrate(settled_state, settled_state.time + 2400, 2400, params)
    assert out.current.bit_equal(expected)


def test_zero_length_slice_rejected(settled_state, params):
    with pytest.raises(StepMismatchError):
        propagate(PropagatorSpec(36), StepHistory(settled_state), settled_state.time, params)


def test_warm_split_is_bit_exact(settled_state, params):
    spec = PropagatorSpec(36, restart_policy="warm")
    layout = SliceLayout(t0=settled_state.time, slice_length=43200, n_slices=2)
    whole = propagate(spec, StepHistory(settled_state), settled_state.time + 86400, params).current
    chained = restarted_serial_run(spec, settled_state, layout, params)[-1]
    assert chained.bit_equal(whole)


def test_cold_split_deviates_but_stays_small(settled_state, params):
    # The restart pathology: a cold split differs from the unsplit run,
    # but over one day the deviation stays below the pinned 1e-3 bound.
    spec = PropagatorSpec(36, restart_policy="cold")
    layout = SliceLayout(t0=settled_state.time, slice_length=43200, n_slices=2)
    whole = propagate(spec, StepHistory(settled_state), settled_state.time + 86400, params).current
    chained = restarted_serial_run(spec, settled_state, layout, params)[-1]
    assert not chained.bit_equal(whole)
    worst = max(rel_max_norm(chained.field(f), whole.field(f)) for f in FIELD_ORDER)
    assert 0.0 < worst < 1e-3


def test_restarted_serial_run_boundaries(settled_state, params):
    layout = SliceLayout(t0=settled_state.time, slice_length=4800, n_slices=3)
    states = restarted_serial_run(PropagatorSpec(36), settled_state, layout, params)
    assert len(states) == 4
    assert [s.time for s in states] == [settled_state.time + n * 4800 for n in range(4)]
    # each hop is an independent cold integration
    hop = integrate(states[1], states[1].time + 4800, 2400, params)
    assert states[2].bit_equal(hop)


@pytest.mark.parametrize("policy", ["cold", "warm"])
def test_restart_policy_acts_in_restarted_serial_run(monkeypatch, settled_state, params, policy):
    # propagate continues whatever history it is handed, so the chain alone
    # decides: under cold every slice starts from a bare boundary state,
    # under warm every slice after the first continues the previous result
    handed, returned = [], []

    def spy(spec, h, *args, **kwargs):
        handed.append(h)
        returned.append(propagate(spec, h, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(propagator, "propagate", spy)
    layout = SliceLayout(t0=settled_state.time, slice_length=4800, n_slices=3)
    restarted_serial_run(PropagatorSpec(36, restart_policy=policy), settled_state, layout, params)
    assert len(handed) == 3
    assert handed[0].current is settled_state and handed[0].tendencies == ()
    assert all(r.tendencies for r in returned)      # each call leaves memory behind
    for prev, h in zip(returned, handed[1:]):
        if policy == "warm":
            assert h is prev
        else:
            assert h.current is prev.current and h.tendencies == ()


# --------------------------------------------------------------------------
# run_external

def test_run_external_success(tmp_path):
    assert run_external([sys.executable, "-c", "print('ok')"], tmp_path / "w") == 0
    assert "ok" in (tmp_path / "w" / "run.log").read_text()


def test_run_external_nonzero_exit_reported_not_raised(tmp_path):
    assert run_external([sys.executable, "-c", "raise SystemExit(9)"], tmp_path / "w") == 9


def test_run_external_spawn_failure(tmp_path):
    with pytest.raises(SpawnFailureError):
        run_external(["/no/such/binary"], tmp_path / "w")


def test_run_external_timeout_kills(tmp_path):
    with pytest.raises(ExternalTimeoutError):
        run_external(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            tmp_path / "w",
            timeout=0.5,
        )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat")
def test_run_external_timeout_kills_the_whole_process_group(tmp_path):
    # a wrapper script (around srun or mpirun, say) that runs its work in
    # the background: the timeout must end that work too, not just the shell
    script = tmp_path / "wrapper.sh"
    script.write_text("#!/bin/sh\nsleep 30 &\necho $! > bg.pid\nwait\n")
    script.chmod(0o755)
    with pytest.raises(ExternalTimeoutError):
        run_external([str(script)], tmp_path / "w", timeout=0.5)
    pid = int((tmp_path / "w" / "bg.pid").read_text())
    try:
        deadline = time.monotonic() + 5.0
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(pid)
    finally:
        if running(pid):
            os.kill(pid, signal.SIGKILL)


def test_run_external_child_pythonpath_is_absolute(tmp_path, monkeypatch):
    # the child starts in its work directory, so relative PYTHONPATH entries
    # (and empty ones, which Python reads as the current directory) must be
    # anchored to the parent's directory before the child sees them
    monkeypatch.chdir(tmp_path)
    cwd = os.getcwd()
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["rel", ""]))
    show = [sys.executable, "-c", "import os; print(os.environ['PYTHONPATH'])"]
    assert run_external(show, "w") == 0
    expected = os.pathsep.join([os.path.join(cwd, "rel"), cwd])
    assert (tmp_path / "w" / "run.log").read_text().strip() == expected
    # a single relative entry is anchored the same way
    monkeypatch.setenv("PYTHONPATH", "other")
    assert run_external(show, "w") == 0
    assert (tmp_path / "w" / "run.log").read_text().strip() == os.path.join(cwd, "other")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_run_external_child_gets_one_blas_thread(tmp_path, monkeypatch):
    # the engine caps its concurrent children itself, so a child must not
    # start an OpenBLAS pool of its own when it imports numpy; a user's
    # value wins
    show = [
        sys.executable,
        "-c",
        "import numpy, os; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))",
    ]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_external(show, tmp_path / "w") == 0
    assert (tmp_path / "w" / "run.log").read_text().split() == ["1", "1"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_external(show, tmp_path / "w") == 0
    assert (tmp_path / "w" / "run.log").read_text().split()[0] == "2"


def test_run_external_concurrent_logs_are_complete(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    script = "import sys\nfor i in range(200): print(f'line{i}')"
    dirs = [tmp_path / "a", tmp_path / "b"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(run_external, [sys.executable, "-c", script], d) for d in dirs
        ]
        assert [f.result() for f in futures] == [0, 0]
    for d in dirs:
        lines = (d / "run.log").read_text().splitlines()
        assert lines == [f"line{i}" for i in range(200)]


# --------------------------------------------------------------------------
# External-mode propagate against the engine's own CLI

def test_external_propagate_matches_internal(tmp_path, settled_state, params):
    t_end = settled_state.time + 2400
    internal = propagate(PropagatorSpec(72), StepHistory(settled_state), t_end, params)
    spec = PropagatorSpec(72, mode="external", command=SINGLE_SHOT)
    external = propagate(
        spec, StepHistory(settled_state), t_end, params, workdir=tmp_path / "w", slice_index=0
    )
    assert external.current.bit_equal(internal.current)
    assert (tmp_path / "w" / "in.prcp").exists()
    assert (tmp_path / "w" / "out.prcp").exists()
    assert (tmp_path / "w" / "run.log").exists()


def test_external_child_integrates_the_parents_model(tmp_path):
    # the child takes its grid and physics from --config, so an external
    # slice off the defaults matches the internal one bit for bit; without
    # a config it refuses to run rather than integrate default physics
    grid, params = Grid(8, 8, 25e3, 25e3), ModelParams(nu_h=10.0)
    conf = tmp_path / "model.conf"
    conf.write_text("[model]\nnx = 8\nny = 8\ndx = 25000\ndy = 25000\nnu_h = 10\n")
    s = random_state(grid, np.random.default_rng(21))
    internal = propagate(PropagatorSpec(72), StepHistory(s), 2400, params)
    child = (sys.executable, "-m", "paratide", "single-shot")
    spec = PropagatorSpec(72, mode="external", command=(*child, "--config", str(conf)))
    external = propagate(spec, StepHistory(s), 2400, params, workdir=tmp_path / "w")
    assert external.current.bit_equal(internal.current)
    assert external.dt == internal.dt
    assert [d.tobytes() for d in external.tendencies] == [d.tobytes() for d in internal.tendencies]
    bare = PropagatorSpec(72, mode="external", command=child)
    with pytest.raises(BlowUpError, match="exited 2"):
        propagate(bare, StepHistory(s), 2400, params, workdir=tmp_path / "bare")
    assert not (tmp_path / "bare" / "out.prcp").exists()


def test_external_warm_split_matches_consecutive(settled_state, params):
    spec = PropagatorSpec(36, mode="external", command=SINGLE_SHOT, restart_policy="warm")
    layout = SliceLayout(t0=settled_state.time, slice_length=7200, n_slices=2)
    chained = restarted_serial_run(spec, settled_state, layout, params)[-1]
    whole = propagate(
        PropagatorSpec(36, restart_policy="warm"), StepHistory(settled_state),
        settled_state.time + 14400, params,
    ).current
    assert chained.bit_equal(whole)


def test_external_relative_workdir(tmp_path, monkeypatch, settled_state, params):
    # a relative workdir names a directory under the parent's cwd; the
    # child runs inside it and must still find in.prcp and out.prcp there
    monkeypatch.setenv("PYTHONPATH", PARATIDE_ROOT, prepend=os.pathsep)
    monkeypatch.chdir(tmp_path)
    t_end = settled_state.time + 2400
    internal = propagate(PropagatorSpec(72), StepHistory(settled_state), t_end, params)
    spec = PropagatorSpec(72, mode="external", command=SINGLE_SHOT)
    external = propagate(spec, StepHistory(settled_state), t_end, params, workdir="w")
    assert external.current.bit_equal(internal.current)
    assert (tmp_path / "w" / "out.prcp").exists()


def test_external_failure_is_blow_up_with_context(tmp_path, settled_state, params):
    spec = PropagatorSpec(
        36, mode="external", command=(sys.executable, "-c", "raise SystemExit(3)")
    )
    with pytest.raises(BlowUpError) as err:
        propagate(
            spec, StepHistory(settled_state), settled_state.time + 2400, params,
            workdir=tmp_path / "w", slice_index=5, iteration=2,
        )
    assert err.value.slice_index == 5
    assert err.value.iteration == 2
    assert err.value.log_path is not None


def test_external_missing_output_is_blow_up(tmp_path, settled_state, params):
    spec = PropagatorSpec(
        36, mode="external", command=(sys.executable, "-c", "pass")
    )
    with pytest.raises(BlowUpError) as err:
        propagate(
            spec, StepHistory(settled_state), settled_state.time + 2400, params,
            workdir=tmp_path / "w",
        )
    assert "no output" in str(err.value)


def test_run_external_relative_executable(tmp_path, monkeypatch):
    # ./x.sh names a file in the parent's directory, not in the child's
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "x.sh"
    script.write_text("#!/bin/sh\necho ran \"$1\"\n")
    script.chmod(0o755)
    assert run_external(["./x.sh", "arg"], "w") == 0
    assert (tmp_path / "w" / "run.log").read_text().strip() == "ran arg"


@pytest.mark.parametrize("mode", ["junk", "truncated", "wrong-grid", "wrong-time", "sleep",
                                  "non-finite", "over-cap", "non-finite-tendency"])
def test_external_fault_is_blow_up_with_context(tmp_path, settled_state, params, mode):
    spec = PropagatorSpec(36, mode="external", command=faulty_command(tmp_path, mode))
    with pytest.raises(BlowUpError) as err:
        propagate(
            spec, StepHistory(settled_state), settled_state.time + 2400, params,
            workdir=tmp_path / "w", slice_index=4, iteration=1,
            timeout=0.5 if mode == "sleep" else None,
        )
    assert err.value.slice_index == 4
    assert err.value.iteration == 1
    assert err.value.log_path == tmp_path / "w" / "run.log"
    # a bad state read back is reported as the internal path reports it
    reason = {"non-finite": "non_finite", "over-cap": "velocity_cap"}.get(mode)
    assert getattr(err.value.report, "reason", None) == reason


def test_external_default_workdir_removed_after_success(tmp_path, monkeypatch, settled_state, params):
    # the temporary directory propagate makes for itself is removed once the
    # output is read, and kept after a failure for the log it holds
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    t_end = settled_state.time + 2400
    internal = propagate(PropagatorSpec(72), StepHistory(settled_state), t_end, params)
    spec = PropagatorSpec(72, mode="external", command=SINGLE_SHOT)
    external = propagate(spec, StepHistory(settled_state), t_end, params)
    assert external.current.bit_equal(internal.current)
    assert list(tmp_path.iterdir()) == []

    faulty = PropagatorSpec(72, mode="external", command=faulty_command(tmp_path, "junk"))
    with pytest.raises(BlowUpError) as err:
        propagate(faulty, StepHistory(settled_state), t_end, params)
    assert err.value.log_path.parent.parent == tmp_path
    assert err.value.log_path.exists()


def test_external_default_workdir_removed_after_spawn_failure(tmp_path, monkeypatch, settled_state, params):
    # a command that cannot start leaves no log for an error to point at,
    # so the temporary directory goes with it: a missing binary, and an
    # executable file that exec refuses (a script without a #! line)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    no_shebang = tmp_path / "no-shebang"
    no_shebang.write_text("echo never run\n")
    no_shebang.chmod(0o755)
    for command in (("/no/such/binary",), (str(no_shebang),)):
        spec = PropagatorSpec(72, mode="external", command=command)
        with pytest.raises(SpawnFailureError):
            propagate(spec, StepHistory(settled_state), settled_state.time + 2400, params)
        assert list(tmp.iterdir()) == []


def test_history_of_another_step_refused_before_any_work(tmp_path, monkeypatch, settled_state,
                                                         params):
    # tendencies taken at 300 s, continued at 600 s: integrate_history,
    # an internal and an external spec refuse it with one message, the
    # external one before a work directory or a child exists
    h = integrate_history(StepHistory(settled_state), 600, 300, params)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(propagator, "run_external", lambda *a, **kw: pytest.fail("child started"))
    external = PropagatorSpec(144, mode="external", command=SINGLE_SHOT)
    calls = [lambda: integrate_history(h, 1200, 600, params),
             lambda: propagate(PropagatorSpec(144), h, 1200, params),
             lambda: propagate(external, h, 1200, params),
             lambda: propagate(external, h, 1200, params, workdir=tmp_path / "w")]
    for call in calls:
        with pytest.raises(StepMismatchError) as err:
            call()
        assert str(err.value) == "history was built at dt=300, continued at dt=600"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["integrate", "integrate_batch", "internal", "external"])
def test_non_integral_window_refused_not_truncated(tmp_path, monkeypatch, settled_state, params,
                                                   path):
    # int() would cut a window to the step before it and a 2400.9 s step to
    # 2400 s: every path refuses a fraction of a second before any work, and
    # takes an integral value of any type like an int
    s, dt = settled_state, 2400
    spec = (PropagatorSpec(36, mode="external", command=SINGLE_SHOT) if path == "external"
            else PropagatorSpec(36))

    def run(t_end, dt=dt):
        if path == "integrate":
            return integrate(s, t_end, dt, params)
        if path == "integrate_batch":
            (out,) = integrate_batch([s], t_end - s.time, dt, params)
            return out
        return propagate(spec, StepHistory(s), t_end, params, workdir=tmp_path / "w").current

    monkeypatch.setattr(propagator, "run_external", lambda *a, **kw: pytest.fail("child started"))
    bad = [(s.time + 2 * dt + 0.5, dt), (float("inf"), dt), (float("nan"), dt)]
    if path in ("integrate", "integrate_batch"):        # a spec's dt is an int
        bad += [(s.time + 2 * dt, dt + 0.9)]
    for t_end, step in bad:
        with pytest.raises(StepMismatchError, match="is not a"):
            run(t_end, step)
    assert not (tmp_path / "w").exists()
    monkeypatch.undo()

    expected = integrate(s, s.time + 2 * dt, dt, params)
    good = [(float(s.time + 2 * dt), dt), (np.int64(s.time + 2 * dt), dt)]
    if path in ("integrate", "integrate_batch"):
        good += [(s.time + 2 * dt, float(dt)), (s.time + 2 * dt, np.int64(dt))]
    for t_end, step in good:
        out = run(t_end, step)
        assert out.bit_equal(expected) and type(out.time) is int


def test_spec_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown propagator mode 'remote'"):
        PropagatorSpec(36, mode="remote")


def test_serial_run_refuses_u0_off_the_layout_start(settled_state, params):
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=1)
    with pytest.raises(StepMismatchError, match="u0 at t=600, layout starts at t=0"):
        restarted_serial_run(PropagatorSpec(36), settled_state.with_time(600), layout, params)
