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
from typing import Sequence

import numpy as np

from .errors import CorruptCheckpointError, GridMismatchError, VersionMismatchError
from .state import Grid, ModelState, N_FIELDS, StepHistory, Tendency

MAGIC = b"PRCP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIQiiB")
_TRAILER = struct.Struct("<Q")

# Grid spacing is configuration, not wire format; readers that do not pass
# an explicit grid get the desk-scale default spacing.
DEFAULT_SPACING = 50_000.0

_CRC64_POLY = 0xC96C5795D7870F42
_CRC64_ONES = 0xFFFFFFFFFFFFFFFF

# CRC-64 is computed over lanes: the buffer is cut into chunks of this many
# bytes, all chunks step through the byte table in lockstep, and the chunk
# registers are then joined pairwise.  Longer chunks mean more numpy calls,
# shorter ones more lanes to join; 64 bytes was fastest from 2.5 KB to 1 MB.
_CRC_CHUNK_LOG2 = 6
_CRC_CHUNK = 1 << _CRC_CHUNK_LOG2

_BYTE_LANES = np.arange(8)


def _build_crc_table() -> np.ndarray:
    """The reflected byte table: entry i is register i after one zero byte."""
    table = np.arange(256, dtype=np.uint64)
    poly, one = np.uint64(_CRC64_POLY), np.uint64(1)
    for _ in range(8):
        table = np.where(table & one, (table >> one) ^ poly, table >> one)
    return table


_CRC_TABLE = _build_crc_table()


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """Tables of a GF(2)-linear map on 64-bit registers, given the images of
    the 64 basis vectors: the map of r is the XOR over the eight bytes k of
    r of tables[k, byte k]."""
    tables = np.zeros((8, 256), dtype=np.uint64)
    by_byte = images.reshape(8, 8)              # [k, b]: image of bit 8k + b
    for b in range(8):
        tables[:, 1 << b:2 << b] = tables[:, :1 << b] ^ by_byte[:, b, None]
    return tables


def _apply(tables: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Apply a linear map given by its byte tables to every register."""
    octets = np.ascontiguousarray(regs, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(tables[_BYTE_LANES, octets], axis=1)


def _basis_images(tables: np.ndarray) -> np.ndarray:
    """The images of the 64 basis vectors, read back from byte tables."""
    return tables[:, 1 << np.arange(8)].reshape(64)


@functools.cache
def _zeros_tables(log2: int) -> np.ndarray:
    """Byte tables of the map 'feed 2**log2 zero bytes', built on first use.

    The register after a zero byte is linear in the register before it
    (zlib's crc32_combine rests on the same fact).  All 64 basis vectors
    take the first zero byte together; each further power is the square of
    the one before, got by applying that map to its own basis images.
    """
    if log2 == 0:
        basis = np.uint64(1) << np.arange(64, dtype=np.uint64)
        return _byte_tables(_CRC_TABLE[basis & np.uint64(0xFF)] ^ (basis >> np.uint64(8)))
    half = _zeros_tables(log2 - 1)
    return _byte_tables(_apply(half, _basis_images(half)))


def crc64(data: bytes | bytearray | memoryview) -> int:
    """CRC-64/XZ over a byte string.

    The bytes are cut into _CRC_CHUNK-byte lanes, the first one zero-padded
    at its front.  Every lane steps through the byte table from a zero
    register, all lanes at once, one numpy call per operation and byte
    position; the lanes are then joined in pairs, the left register fed as
    many zero bytes as its right neighbour covers.  Leading zeros do not
    move a zero register, and an initial register r acts like r's bytes
    XORed into the first eight data bytes (plus r >> 8n when n < 8), so
    the padding and the all-ones initial value cost nothing extra.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    chunk = _CRC_CHUNK if n > _CRC_CHUNK else n
    lanes = -(-n // chunk) if n else 0
    pad = lanes * chunk - n
    flat = np.zeros(lanes * chunk, dtype=np.uint8)
    flat[pad:] = buf
    flat[pad:pad + 8] ^= 0xFF
    rows = np.ascontiguousarray(flat.reshape(lanes, chunk).T)

    reg = np.zeros(lanes, dtype="<u8")
    low = reg.view(np.uint8)[::8]
    index = np.empty(lanes, dtype=np.uint8)
    looked_up = np.empty(lanes, dtype=np.uint64)
    eight = np.uint64(8)
    for row in rows:
        np.bitwise_xor(low, row, out=index)
        np.right_shift(reg, eight, out=reg)
        np.take(_CRC_TABLE, index, out=looked_up, mode="clip")
        np.bitwise_xor(reg, looked_up, out=reg)

    level = _CRC_CHUNK_LOG2
    while reg.size > 1:
        if reg.size % 2:
            reg = np.concatenate((np.zeros(1, dtype=reg.dtype), reg))
        pairs = reg.reshape(-1, 2)
        reg = _apply(_zeros_tables(level), pairs[:, 0]) ^ pairs[:, 1]
        level += 1
    register = int(reg[0]) if lanes else 0
    return register ^ (_CRC64_ONES >> (8 * n)) ^ _CRC64_ONES


@dataclass(frozen=True)
class Checkpoint:
    """Decoded checkpoint: state, raw history tendencies, clock record."""

    state: ModelState
    history: tuple[Tendency, ...]
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
    history: StepHistory | Sequence[Tendency] | None,
    path: str | Path,
    *,
    slice_index: int = -1,
    iteration: int = -1,
) -> None:
    """Serialize a state (and optional history) atomically to path."""
    if isinstance(history, StepHistory):
        tendencies: tuple[Tendency, ...] = tuple(t for _, t in history.tendencies)
    elif history is None:
        tendencies = ()
    else:
        tendencies = tuple(history)
    for t in tendencies:
        if t.grid != state.grid:
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
    parts.extend(_field_bytes(t.data) for t in tendencies)
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
        return arr.reshape(N_FIELDS, ny, nx).astype(np.float64, copy=False)

    state = ModelState(grid, _block(0), int(time))
    history = tuple(Tendency(grid, _block(1 + i)) for i in range(n_hist))
    return Checkpoint(state, history, int(slice_index), int(iteration))
