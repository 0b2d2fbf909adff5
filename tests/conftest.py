from __future__ import annotations

import multiprocessing
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from paratide import Field, Grid, ModelParams, ModelState
from paratide.harness import initial_state
from paratide.solver import integrate

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(autouse=True)
def no_leftover_workers():
    """Fail a test that leaves a multiprocessing child or a thread of its
    own running: every executor must be shut down before its run returns
    or raises."""
    before = set(threading.enumerate())
    yield
    children = multiprocessing.active_children()
    threads = [t for t in threading.enumerate() if t not in before]
    assert not children and not threads, f"left running: {children + threads}"


@pytest.fixture(scope="session")
def grid():
    return Grid(nx=32, ny=32, dx=50_000.0, dy=50_000.0)


@pytest.fixture(scope="session")
def grid8():
    return Grid(nx=8, ny=8, dx=50_000.0, dy=50_000.0)


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def settled_state(grid, params):
    """Seeded state integrated for one day: cheap but dynamically active."""
    s = initial_state(grid, params, seed=1234)
    return integrate(s, 86400, 300, params).with_time(0)


def running(pid: int) -> bool:
    """Whether a process runs (Linux); a killed orphan may stay a zombie
    until its new parent reaps it, and counts as ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def random_state(grid, rng, time=0):
    """State with smooth random fields, finite everywhere."""
    data = np.empty((5, grid.ny, grid.nx))
    scales = {Field.U: 0.1, Field.V: 0.1, Field.ETA: 0.05, Field.T: 1.0, Field.S: 0.2}
    base = {Field.U: 0.0, Field.V: 0.0, Field.ETA: 0.0, Field.T: 10.0, Field.S: 35.0}
    for f in Field:
        data[f.value] = base[f] + scales[f] * rng.standard_normal((grid.ny, grid.nx))
    return ModelState(grid, data, time)


def constant_state(grid, u=0.0, v=0.0, eta=0.0, temp=10.0, salt=35.0, time=0):
    data = np.empty((5, grid.ny, grid.nx))
    data[:] = np.array([u, v, eta, temp, salt], dtype=np.float64)[:, None, None]   # in FIELD_ORDER
    return ModelState(grid, data, time)


# A stand-in model that fails in one of the ways a real one can: its first
# argument picks the fault, the rest is the usual --in/--out/--t-end/--spd.
FAULTY_MODEL = """
import struct, sys, time
mode = sys.argv[1]
args = dict(zip(sys.argv[2::2], sys.argv[3::2]))
if mode == "sleep":
    time.sleep(60)
data = open(args["--in"], "rb").read()


def read_in():
    from paratide import Grid, read_checkpoint
    nx, ny = struct.unpack_from("<II", data, 8)     # the grid of the file header
    return read_checkpoint(args["--in"], Grid(nx, ny, 50000.0, 50000.0))


if mode == "junk":
    out = b"this is not a checkpoint"
elif mode == "truncated":
    out = data[: len(data) // 2]
elif mode == "wrong-grid":
    import numpy as np
    from paratide import Grid, ModelState, write_checkpoint
    grid = Grid(8, 8, 50000.0, 50000.0)
    state = ModelState(grid, np.zeros((5, 8, 8)), int(args["--t-end"]))
    write_checkpoint(state, None, args["--out"])
    sys.exit(0)
elif mode == "wrong-time":
    from paratide import write_checkpoint
    state = read_in().state
    step = 86400 // int(args["--spd"])
    write_checkpoint(state.with_time(int(args["--t-end"]) - step), None, args["--out"])
    sys.exit(0)
elif mode in ("non-finite", "over-cap"):
    import numpy as np
    from paratide import Field, ModelState, write_checkpoint
    state = read_in().state
    data = state.data.copy()
    data[Field.U.value, 1, 2] = np.nan if mode == "non-finite" else 1.0e3
    write_checkpoint(ModelState(state.grid, data, int(args["--t-end"])), None, args["--out"])
    sys.exit(0)
elif mode == "non-finite-tendency":
    # a healthy state handed back with a NaN in its newest tendency
    import numpy as np
    from paratide import StepHistory, write_checkpoint
    state = read_in().state.with_time(int(args["--t-end"]))
    tendency = np.zeros_like(state.data)
    tendency[3, 2, 1] = np.nan
    step = 86400 // int(args["--spd"])
    write_checkpoint(state, StepHistory(state, (tendency,), step), args["--out"])
    sys.exit(0)
open(args["--out"], "wb").write(out)
"""


def faulty_command(tmp_path, mode):
    """Command vector that runs FAULTY_MODEL with the given fault."""
    script = tmp_path / "faulty_model.py"
    script.write_text(FAULTY_MODEL)
    return (sys.executable, str(script), mode)
