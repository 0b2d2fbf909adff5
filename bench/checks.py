"""Correctness checks made apart from the program.

Nothing here imports paratide: the CRC, the checkpoint parser and the error
norms follow the README's description of the format and of the method, so a
fault in the program's own CRC, serializer or norms cannot hide itself.
Each check returns a list of failure messages; an empty list is a pass.
``self_test_*`` functions feed each check a damaged input and return the
checks that failed to notice it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# CRC-64/XZ: reflected ECMA-182 polynomial, init and xorout all ones.  The
# published check value is the CRC of the nine ASCII digits "123456789".
CRC64_CHECK_INPUT = b"123456789"
CRC64_CHECK_VALUE = 0x995DC9BBDF1939FA
_POLY_REFLECTED = 0xC96C5795D7870F42
_ONES = 0xFFFFFFFFFFFFFFFF


def _crc_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint64)
    for _ in range(8):
        low = (table & np.uint64(1)).astype(bool)
        table = np.where(low, (table >> np.uint64(1)) ^ np.uint64(_POLY_REFLECTED),
                         table >> np.uint64(1))
    return table


_TABLE = _crc_table()
_TABLE_INTS = tuple(int(x) for x in _TABLE)


def crc64(data: bytes) -> int:
    """CRC-64/XZ of one byte string, byte by byte."""
    crc = _ONES
    for b in data:
        crc = _TABLE_INTS[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ _ONES


def crc64_many(blobs: list[bytes]) -> list[int]:
    """CRC-64/XZ of byte strings of one length, one numpy lane per string.

    The byte loop runs once for all strings, which makes checking hundreds
    of equal-sized checkpoint files cheap without touching the program's
    CRC; below a handful of strings the plain loop is faster.
    """
    if len(blobs) < 8:
        return [crc64(b) for b in blobs]
    length = len(blobs[0])
    if any(len(b) != length for b in blobs):
        raise ValueError("crc64_many needs byte strings of one length")
    columns = np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(len(blobs), length).T.copy()
    crc = np.full(len(blobs), _ONES, dtype=np.uint64)
    low, shift = np.uint64(0xFF), np.uint64(8)
    for column in columns:
        crc = _TABLE[(crc ^ column) & low] ^ (crc >> shift)
    return [int(c) ^ _ONES for c in crc]


# Checkpoint byte layout (README "Checkpoint format"), little-endian:
# magic "PRCP", version u32, nx u32, ny u32, time u64, slice i32,
# iteration i32, history count u8, five nx*ny f64 field blocks (U, V, ETA,
# T, S, row-major), history-count tendency blocks, CRC-64 u64 of all
# preceding bytes.
_HEADER = struct.Struct("<4sIIIQiiB")
_N_FIELDS = 5
FIELD_INDEX = {"U": 0, "V": 1, "ETA": 2, "T": 3, "S": 4}


@dataclass(frozen=True)
class Parsed:
    time: int
    slice_index: int
    iteration: int
    fields: np.ndarray          # (5, ny, nx) float64
    n_history: int


class ParseFailure(ValueError):
    pass


def parse_checkpoints(blobs: list[bytes]) -> list[Parsed]:
    """Decode checkpoint files, verifying every CRC; raises ParseFailure."""
    by_length: dict[int, list[int]] = {}
    for i, blob in enumerate(blobs):
        by_length.setdefault(len(blob), []).append(i)
    crcs: dict[int, int] = {}
    for idx in by_length.values():
        for i, crc in zip(idx, crc64_many([blobs[i][:-8] for i in idx])):
            crcs[i] = crc

    out = []
    for i, blob in enumerate(blobs):
        if len(blob) < _HEADER.size + 8:
            raise ParseFailure(f"file {i}: {len(blob)} bytes is shorter than a header")
        magic, version, nx, ny, time, slice_index, iteration, n_hist = _HEADER.unpack_from(blob)
        if magic != b"PRCP" or version != 1:
            raise ParseFailure(f"file {i}: magic {magic!r}, version {version}")
        block = _N_FIELDS * nx * ny * 8
        if len(blob) != _HEADER.size + (1 + n_hist) * block + 8:
            raise ParseFailure(f"file {i}: length {len(blob)} does not fit {nx}x{ny}, {n_hist} history")
        (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
        if crcs[i] != stored:
            raise ParseFailure(f"file {i}: CRC {crcs[i]:#018x} != stored {stored:#018x}")
        fields = np.frombuffer(blob, dtype="<f8", count=_N_FIELDS * nx * ny, offset=_HEADER.size)
        out.append(Parsed(time, slice_index, iteration,
                          fields.reshape(_N_FIELDS, ny, nx).astype(np.float64), n_hist))
    return out


def crc_check_value() -> list[str]:
    """Both CRC forms give the published check value."""
    got = {crc64(CRC64_CHECK_INPUT), *crc64_many([CRC64_CHECK_INPUT] * 8)}
    if got != {CRC64_CHECK_VALUE}:
        return [f"CRC-64/XZ of b'123456789' gave {sorted(map(hex, got))}, "
                f"expected {CRC64_CHECK_VALUE:#018x}"]
    return []


def rel_norms(approx: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """(max |a - r| / max |r|, ||a - r||_2 / ||r||_2) over one field."""
    diff = approx - ref
    e_inf = np.abs(diff).max() / np.abs(ref).max()
    e_2 = np.sqrt((diff * diff).sum()) / np.sqrt((ref * ref).sum())
    return float(e_inf), float(e_2)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def exactness(iterates: list[list[np.ndarray]], serial: list[np.ndarray], label: str) -> list[str]:
    """Parareal exactness: in iterate k, slices n <= k equal the serial fine
    run bit for bit."""
    failures = []
    for k, states in enumerate(iterates):
        for n in range(min(k, len(states) - 1) + 1):
            if not same_bits(states[n], serial[n]):
                failures.append(f"{label}: iterate {k} slice {n} differs from the serial fine run")
    return failures


def identical_runs(a: list[list[np.ndarray]], b: list[list[np.ndarray]], label: str) -> list[str]:
    if len(a) != len(b):
        return [f"{label}: {len(a)} iterates against {len(b)}"]
    return [
        f"{label}: iterate {k} slice {n} differs"
        for k, (sa, sb) in enumerate(zip(a, b))
        for n, (x, y) in enumerate(zip(sa, sb))
        if not same_bits(x, y)
    ]


def tolerance_stop(
    iterates: list[list[np.ndarray]], ref_final: np.ndarray, fields: tuple[str, ...],
    epsilon: float, label: str,
) -> list[str]:
    """The last iterate is within epsilon on both norms of every monitored
    field, and the one before it is not."""
    def within(k: int) -> bool:
        return all(
            max(rel_norms(iterates[k][-1][FIELD_INDEX[f]], ref_final[FIELD_INDEX[f]])) <= epsilon
            for f in fields
        )

    stop = len(iterates) - 1
    failures = []
    if not within(stop):
        failures.append(f"{label}: stopping iterate {stop} is not within {epsilon:g}")
    if stop > 0 and within(stop - 1):
        failures.append(f"{label}: iterate {stop - 1} was already within {epsilon:g}")
    return failures


def tracer_means_conserved(initial: np.ndarray, final: np.ndarray, n_steps: int, label: str) -> list[str]:
    """Flux-form tracers keep their grid means up to accumulated round-off:
    one unit in the last place of the mean per step, with a factor 4 margin."""
    failures = []
    for name in ("T", "S"):
        m0 = initial[FIELD_INDEX[name]].mean()
        m1 = final[FIELD_INDEX[name]].mean()
        tol = 4 * n_steps * np.spacing(abs(m0))
        if abs(m1 - m0) > tol:
            failures.append(f"{label}: mean {name} moved {m1 - m0:.3e} (> {tol:.1e}) over {n_steps} steps")
    return failures


# ----------------------------------------------------------------------
# Self-tests: each damaged input must make its check fail.

def _nudged(iterates: list[list[np.ndarray]], k: int, n: int, factor: float = 0.0) -> list[list[np.ndarray]]:
    """Copy of iterates with slice n of iterate k moved by one ulp (or by
    a relative factor, when given)."""
    out = [list(states) for states in iterates]
    bad = out[k][n].copy()
    if factor:
        bad *= 1.0 + factor
    else:
        bad.flat[0] = np.nextafter(bad.flat[0], np.inf)
    out[k][n] = bad
    return out


def self_test_parser(blob: bytes) -> list[str]:
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x01
    missed = []
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    if crc64(bytes(flipped[:-8])) == stored:
        missed.append("CRC unchanged by a flipped byte")
    try:
        parse_checkpoints([bytes(flipped)])
        missed.append("parser accepted a flipped byte")
    except ParseFailure:
        pass
    return missed


def self_test_exactness(iterates: list[list[np.ndarray]], serial: list[np.ndarray]) -> list[str]:
    k = min(1, len(iterates) - 1)
    if not exactness(_nudged(iterates, k, k), serial, "self-test"):
        return ["exactness check passed an iterate moved by one ulp"]
    return []


def self_test_identical(a: list[list[np.ndarray]]) -> list[str]:
    if not identical_runs(_nudged(a, len(a) - 1, 1), a, "self-test"):
        return ["equivalence check passed an iterate moved by one ulp"]
    return []


def self_test_tolerance(iterates, ref_final, fields, epsilon) -> list[str]:
    stop = len(iterates) - 1
    if not tolerance_stop(_nudged(iterates, stop, len(iterates[stop]) - 1, 2 * epsilon),
                          ref_final, fields, epsilon, "self-test"):
        return [f"tolerance check passed a final iterate {2 * epsilon:g} away"]
    return []
