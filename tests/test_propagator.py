import os
import sys
import tempfile
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
from paratide.solver import integrate, integrate_history
from paratide.state import FIELD_ORDER, StepHistory

from conftest import CONFIG_DIR, faulty_command, random_state

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


def test_layout_helpers():
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=12)
    assert layout.total_seconds == 28800
    assert layout.compatible_with(PropagatorSpec(36))
    assert not layout.compatible_with(PropagatorSpec(24))  # 3600 s step


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
    assert [(t, d.tobytes()) for t, d in external.tendencies] == \
        [(t, d.tobytes()) for t, d in internal.tendencies]
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
    # tendencies stamped 300 s apart, continued at 600 s: integrate_history,
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
        assert str(err.value) == ("history was built at a different step size: "
                                  "last tendency at t=300, expected t=0")
    assert list(tmp_path.iterdir()) == []


def test_spec_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown propagator mode 'remote'"):
        PropagatorSpec(36, mode="remote")


def test_serial_run_refuses_u0_off_the_layout_start(settled_state, params):
    layout = SliceLayout(t0=0, slice_length=2400, n_slices=1)
    with pytest.raises(StepMismatchError, match="u0 at t=600, layout starts at t=0"):
        restarted_serial_run(PropagatorSpec(36), settled_state.with_time(600), layout, params)
