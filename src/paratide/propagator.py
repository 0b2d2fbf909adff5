"""Uniform propagator abstraction plus subprocess orchestration.

A propagator maps a state across one time slice.  Internal propagators run
the built-in dynamical core in-process; external propagators hand the state
to a child process through checkpoint files and collect the result the same
way — files and exit codes are the whole protocol, so any simulator that
honors the command contract can stand in:

    <command> --in <path> --out <path> --t-end <seconds> --spd <n>

with exit 0 and a readable output checkpoint meaning success.  Each
external run gets its own working directory holding in.prcp, out.prcp and
run.log.  Because the child starts inside that directory, nothing handed
to it may depend on the parent's current directory: the work directory and
the --in/--out paths are absolute, and so is every PYTHONPATH entry of the
environment the child inherits, which holds OPENBLAS_NUM_THREADS=1 unless
that is set (one BLAS thread per child).  A relative executable path such as
./model is anchored to the parent's directory too; every other argument of
the command is passed verbatim, so a relative path among them is read by
the child against its work directory.

Every way an external slice can fail on its own (nonzero exit, no output,
an unreadable or wrong-grid or wrong-time output, an output state that is
not finite or breaks the velocity cap, a non-finite output history, a
timeout) surfaces from propagate as a BlowUpError, which the Parareal
driver handles by its on_blow_up policy.  A command that cannot be
launched at all is a configuration fault and raises SpawnFailureError.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .errors import (
    BlowUpError,
    CheckpointError,
    ExternalTimeoutError,
    GridMismatchError,
    NonFiniteError,
    SpawnFailureError,
    StepMismatchError,
)
from .solver import SECONDS_PER_DAY, ModelParams, StepHistory, _check_window, integrate_history
from .state import ModelState, validate_state

IN_FILE = "in.prcp"
OUT_FILE = "out.prcp"
LOG_FILE = "run.log"


@dataclass(frozen=True)
class PropagatorSpec:
    """One time integrator, defined by its steps-per-day and execution mode.

    restart_policy says what a chain of slices does at each boundary:
    "warm" carries the multistep tendency history on (bit-exact
    continuation), "cold" restarts from the bare state, which is what
    restart-file continuation does in practice.  restarted_serial_run is
    where it acts; propagate continues whatever history it is handed.
    """

    spd: int
    mode: str = "internal"                       # "internal" | "external"
    command: tuple[str, ...] = ()
    restart_policy: str = "cold"

    def __post_init__(self):
        if self.spd < 1 or SECONDS_PER_DAY % self.spd != 0:
            raise ValueError(f"spd={self.spd} is not an integer divisor of 86400")
        if self.mode not in ("internal", "external"):
            raise ValueError(f"unknown propagator mode {self.mode!r}")
        if self.mode == "external" and not self.command:
            raise ValueError("external mode requires a command vector")
        if self.restart_policy not in ("cold", "warm"):
            raise ValueError(f"unknown restart_policy {self.restart_policy!r}")
        object.__setattr__(self, "command", tuple(self.command))

    @property
    def dt(self) -> int:
        return SECONDS_PER_DAY // self.spd


@dataclass(frozen=True)
class SliceLayout:
    """Partition of [t0, t0 + n_slices * slice_length] into equal slices."""

    t0: int
    slice_length: int
    n_slices: int

    def __post_init__(self):
        if self.t0 < 0:
            raise ValueError("t0 must be >= 0")
        if self.slice_length <= 0:
            raise ValueError("slice_length must be positive")
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")

    @property
    def total_seconds(self) -> int:
        return self.n_slices * self.slice_length

    def compatible_with(self, spec: PropagatorSpec) -> bool:
        return self.slice_length % spec.dt == 0

    def split(self, n_slices: int) -> SliceLayout:
        """The same window cut into n_slices equal slices of whole seconds."""
        if n_slices < 1 or self.total_seconds % n_slices != 0:
            raise ValueError(f"cannot split {self.total_seconds}s into {n_slices} equal slices")
        return SliceLayout(self.t0, self.total_seconds // n_slices, n_slices)


def _child_env() -> dict[str, str]:
    """This process's environment, PYTHONPATH absolute, one OpenBLAS thread.

    Python reads relative PYTHONPATH entries, and empty ones, against the
    directory it starts in; the child starts in its work directory, so each
    entry is anchored to the parent's current directory instead.  An empty
    PYTHONPATH as a whole means no entries and is left alone.  The engine
    caps its concurrent children, so OPENBLAS_NUM_THREADS defaults to 1 (a
    set value wins): a per-CPU OpenBLAS pool in each would oversubscribe.
    """
    child = dict(os.environ)
    child.setdefault("OPENBLAS_NUM_THREADS", "1")
    pythonpath = child.get("PYTHONPATH")
    if pythonpath:
        cwd = os.getcwd()
        child["PYTHONPATH"] = os.pathsep.join(
            os.path.join(cwd, entry) if entry else cwd
            for entry in pythonpath.split(os.pathsep)
        )
    return child


def run_external(
    command: Sequence[str],
    workdir: str | Path,
    timeout: float | None = None,
) -> int:
    """Run a child in its own directory and return its exit code.

    stdout and stderr both go to run.log inside the working directory.
    The child gets this process's environment with its PYTHONPATH entries
    made absolute against the parent's current directory and, unless set,
    OPENBLAS_NUM_THREADS=1.
    A relative command[0] that contains a path separator (./model, bin/model)
    is anchored to the parent's current directory as well; a bare name is
    looked up on PATH and the other arguments are passed verbatim.
    A timeout kills the child and raises; a nonzero exit is returned.
    """
    command = list(command)
    if os.path.dirname(command[0]) and not os.path.isabs(command[0]):
        command[0] = os.path.abspath(command[0])
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(workdir / LOG_FILE, "wb") as log:
            proc = subprocess.run(
                command,
                cwd=workdir,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=_child_env(),
                timeout=timeout,
            )
    except OSError as err:       # no such file, no permission, no valid executable
        raise SpawnFailureError(f"cannot launch {command[0]!r}: {err}") from err
    except subprocess.TimeoutExpired as err:
        raise ExternalTimeoutError(f"{command[0]!r} exceeded {timeout}s and was killed") from err
    return proc.returncode


def propagate(
    spec: PropagatorSpec,
    h: StepHistory,
    t_end: int,
    params: ModelParams,
    *,
    slice_index: int = -1,
    iteration: int = -1,
    workdir: str | Path | None = None,
    timeout: float | None = None,
) -> StepHistory:
    """Continue a history across [h.current.time, t_end] with one propagator
    and return the new history.

    Internal and external specs keep one contract, the single-shot child's:
    the tendencies handed in go into in.prcp, and those of out.prcp come
    back.  The restart policy does not act here; a cold start is a history
    with no tendencies, StepHistory(state).

    An external run without a workdir works in a fresh temporary directory,
    removed once its output has been read; after a BlowUpError it is kept,
    since the error's log_path points into it, and after a SpawnFailureError,
    which points nowhere, it is removed.
    """
    t_end = int(t_end)
    state = h.current
    _check_window(t_end - state.time, spec.dt, h)      # before any child is spawned

    if spec.mode == "internal":
        try:
            return integrate_history(h, t_end, spec.dt, params)
        except BlowUpError as err:
            err.slice_index = slice_index
            err.iteration = iteration
            raise

    # External mode: state goes out and comes back through checkpoints.
    # Absolute: the child runs inside it, so a relative work directory would
    # make the --in/--out paths resolve one level too deep.
    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="paratide-run-")
    wd = Path(workdir).absolute()
    in_path = wd / IN_FILE
    out_path = wd / OUT_FILE
    write_checkpoint(
        state,
        h,
        in_path,
        slice_index=slice_index,
        iteration=iteration,
    )
    cmd = list(spec.command) + [
        "--in", str(in_path),
        "--out", str(out_path),
        "--t-end", str(t_end),
        "--spd", str(spec.spd),
    ]

    def failed(message: str, report=None) -> BlowUpError:
        return BlowUpError(
            message, report, slice_index=slice_index, iteration=iteration, log_path=wd / LOG_FILE
        )

    try:
        returncode = run_external(cmd, wd, timeout=timeout)
    except ExternalTimeoutError as err:
        raise failed(f"external propagator timed out: {err}") from err
    except SpawnFailureError:
        if own_workdir:
            shutil.rmtree(wd)
        raise
    if returncode != 0:
        raise failed(f"external propagator exited {returncode} (log: {wd / LOG_FILE})")
    if not out_path.exists():
        raise failed(f"external propagator left no output file {out_path}")
    try:
        ck = read_checkpoint(out_path, grid=state.grid)
    except (CheckpointError, GridMismatchError) as err:
        raise failed(f"external propagator output unreadable: {err}") from err
    if ck.state.time != t_end:
        raise failed(f"external propagator returned t={ck.state.time}, expected {t_end}")
    report = validate_state(ck.state, params.velocity_cap)
    if report is not None:
        raise failed(f"external propagator output diverged: {report}", report)
    if not all(np.isfinite(t).all() for t in ck.history):
        raise failed("external propagator output history is not finite")
    if own_workdir:
        shutil.rmtree(wd)
    return ck.step_history(spec.dt)


def check_start(u0: ModelState, layout: SliceLayout) -> None:
    """Refuse a u0 that is off the layout's start (StepMismatchError) or not
    finite (NonFiniteError): the start check of every chain of slices."""
    if u0.time != layout.t0:
        raise StepMismatchError(f"u0 at t={u0.time}, layout starts at t={layout.t0}")
    if not u0.is_finite():
        raise NonFiniteError("u0 must be finite")


def restarted_serial_run(
    spec: PropagatorSpec,
    u0: ModelState,
    layout: SliceLayout,
    params: ModelParams,
    *,
    run_dir: str | Path | None = None,
) -> list[ModelState]:
    """Serial run as one propagate call per slice, and the one place the
    restart policy acts.

    Under the warm policy each call continues the history the previous one
    returned, so the chain is a bit-exact continuation of one unsplit run.
    Under the cold policy each call starts from StepHistory of the last
    boundary state, as a restart file does: the trajectory a
    parallel-in-time run converges to, since every slice there starts from
    a bare state as well.  Returns states at all n_slices + 1 boundaries.
    """
    check_start(u0, layout)
    warm = spec.restart_policy == "warm"
    states = [u0]
    h = StepHistory(u0)
    for n in range(layout.n_slices):
        wd = Path(run_dir) / f"slice{n}" if run_dir is not None else None
        h = propagate(
            spec,
            h if warm else StepHistory(h.current),
            layout.t0 + (n + 1) * layout.slice_length,
            params,
            slice_index=n,
            workdir=wd,
        )
        states.append(h.current)
    return states
