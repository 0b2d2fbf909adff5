"""Self-describing binary checkpoint container.

One file carries the prognostic state, the optional multistep tendency
history (for warm restarts), and a clock record (time stamp, slice index,
iteration index), replacing a restart-file pair plus clock file.

Byte layout, all little-endian:

    magic           4 bytes  b"PRCP"
    version         u32      currently 1
    nx, ny          u32, u32
    time            u64      seconds
    slice index     i32      -1 when not part of a parallel-in-time run
    iteration       i32      -1 when not part of a parallel-in-time run
    history count   u8       0..3
    state payload   5 * nx*ny f64, fields in order U, V, ETA, T, S,
                             each row-major
    history payload history-count tendency blocks, same layout as state
    checksum        u64      CRC-64 (XZ parameterization: reflected
                             ECMA-182 polynomial, init/xorout all-ones)
                             of every preceding byte

History entries are ordered oldest to newest.  Their time stamps are not
stored: by the history invariant they sit at fixed step offsets behind the
state time, so the reader reconstructs them once it knows the step size
(always supplied out-of-band, e.g. via --spd on the single-shot contract).

Writes go to a temp file in the target directory followed by an atomic
rename, so a half-written checkpoint can never be picked up by a reader.
"""

from __future__ import annotations

import functools
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpointError, GridMismatchError, VersionMismatchError
from .state import Grid, ModelState, N_FIELDS, StepHistory

MAGIC = b"PRCP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIQiiB")
_TRAILER = struct.Struct("<Q")

# Grid spacing is configuration, not wire format; readers that do not pass
# an explicit grid get the desk-scale default spacing.
DEFAULT_SPACING = 50_000.0

_CRC64_POLY = 0xC96C5795D7870F42
_CRC64_ONES = 0xFFFFFFFFFFFFFFFF


@functools.cache
def _lzma_crc64():
    """lzma_crc64(buf, size, crc) of the liblzma that the stdlib lzma module
    loads; None where Python has no lzma module or it lacks that symbol."""
    try:
        import _lzma
        import ctypes

        fn = ctypes.CDLL(_lzma.__file__).lzma_crc64
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)
    fn.restype = ctypes.c_uint64
    return fn


def crc64(data: bytes | bytearray | memoryview) -> int:
    """CRC-64/XZ of a byte string: liblzma's .xz check where it can be
    reached, else the format's definition, one table lookup per byte."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if (lzma_crc64 := _lzma_crc64()) is not None:
        return lzma_crc64(buf.ctypes.data, buf.size, 0)
    table = list(range(256))            # entry i: register i after one zero byte
    for _ in range(8):
        table = [(reg >> 1) ^ _CRC64_POLY if reg & 1 else reg >> 1 for reg in table]
    crc = _CRC64_ONES
    for byte in buf.tobytes():
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ _CRC64_ONES


@dataclass(frozen=True)
class Checkpoint:
    """Decoded checkpoint: state, raw history tendencies (frozen arrays laid
    out like the state's data), clock record."""

    state: ModelState
    history: tuple[np.ndarray, ...]
    slice_index: int
    iteration: int

    def step_history(self, dt: int) -> StepHistory:
        """Rebuild the multistep memory, re-stamping entries at spacing dt."""
        dt = int(dt)
        n = len(self.history)
        stamps = [self.state.time - (n - i) * dt for i in range(n)]
        return StepHistory(self.state, tuple(zip(stamps, self.history)))


def _field_bytes(data: np.ndarray) -> bytes:
    return np.ascontiguousarray(data, dtype="<f8").tobytes()


def write_checkpoint(
    state: ModelState,
    history: StepHistory | None,
    path: str | Path,
    *,
    slice_index: int = -1,
    iteration: int = -1,
) -> None:
    """Serialize a state (and optional history) atomically to path."""
    tendencies = () if history is None else tuple(t for _, t in history.tendencies)
    if history is not None and history.current.data.shape != state.data.shape:
        raise GridMismatchError("history tendencies must share the state grid")

    grid = state.grid
    parts = [
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            grid.nx,
            grid.ny,
            state.time,
            slice_index,
            iteration,
            len(tendencies),
        ),
        _field_bytes(state.data),
    ]
    parts.extend(_field_bytes(t) for t in tendencies)
    body = b"".join(parts)
    blob = body + _TRAILER.pack(crc64(body))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name, dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path: str | Path, grid: Grid | None = None) -> Checkpoint:
    """Read and verify a checkpoint.

    When a grid is supplied its cell counts must match the file header;
    otherwise a grid with the default spacing is constructed from the
    header.  Any integrity violation (bad magic, truncation, checksum)
    raises CorruptCheckpointError; an unknown format version raises
    VersionMismatchError.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + _TRAILER.size:
        raise CorruptCheckpointError(f"{path}: truncated before header")
    magic, version, nx, ny, time, slice_index, iteration, n_hist = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if n_hist > 3:
        raise CorruptCheckpointError(f"{path}: history count {n_hist} out of range")

    block = N_FIELDS * nx * ny * 8
    expected = _HEADER.size + (1 + n_hist) * block + _TRAILER.size
    if len(blob) != expected:
        raise CorruptCheckpointError(
            f"{path}: length {len(blob)} != expected {expected} for {nx}x{ny}, {n_hist} history"
        )
    (stored_crc,) = _TRAILER.unpack_from(blob, len(blob) - _TRAILER.size)
    if crc64(blob[: -_TRAILER.size]) != stored_crc:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")

    if grid is None:
        try:
            grid = Grid(nx=int(nx), ny=int(ny), dx=DEFAULT_SPACING, dy=DEFAULT_SPACING)
        except ValueError as err:
            raise CorruptCheckpointError(f"{path}: {err}") from err
    elif (grid.nx, grid.ny) != (nx, ny):
        raise GridMismatchError(
            f"{path}: file is {nx}x{ny}, expected grid {grid.nx}x{grid.ny}"
        )

    def _block(i: int) -> np.ndarray:
        off = _HEADER.size + i * block
        arr = np.frombuffer(blob, dtype="<f8", count=N_FIELDS * nx * ny, offset=off)
        arr = arr.reshape(N_FIELDS, ny, nx).astype(np.float64, copy=False)
        arr.setflags(write=False)
        return arr

    state = ModelState(grid, _block(0), int(time))
    history = tuple(_block(1 + i) for i in range(n_hist))
    return Checkpoint(state, history, int(slice_index), int(iteration))
