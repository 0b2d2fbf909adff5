import struct
import sys

import numpy as np
import pytest

from paratide import Grid, read_checkpoint, write_checkpoint
from paratide import checkpoint
from paratide.checkpoint import FORMAT_VERSION, MAGIC, crc64
from paratide.errors import (
    CorruptCheckpointError,
    GridMismatchError,
    VersionMismatchError,
)
from paratide.solver import StepHistory, integrate_history

from conftest import random_state


@pytest.fixture
def sample(grid8, params):
    rng = np.random.default_rng(21)
    s = random_state(grid8, rng)
    h = integrate_history(StepHistory(s), 9600, 2400, params)
    return h


def test_round_trip_state_only(tmp_path, grid8):
    rng = np.random.default_rng(22)
    s = random_state(grid8, rng, time=86400)
    path = tmp_path / "s.prcp"
    write_checkpoint(s, None, path)
    ck = read_checkpoint(path, grid=grid8)
    assert ck.state.bit_equal(s)
    assert ck.history == ()
    assert ck.slice_index == -1 and ck.iteration == -1


def test_round_trip_with_history_and_clock(tmp_path, grid8, sample):
    path = tmp_path / "h.prcp"
    write_checkpoint(sample.current, sample, path, slice_index=4, iteration=2)
    ck = read_checkpoint(path, grid=grid8)
    assert ck.state.bit_equal(sample.current)
    assert ck.slice_index == 4 and ck.iteration == 2
    rebuilt = ck.step_history(2400)
    assert rebuilt.dt == sample.dt == 2400
    assert [a.tobytes() for a in rebuilt.tendencies] == [b.tobytes() for b in sample.tendencies]


def test_clock_passthrough_one_day(tmp_path, grid8):
    rng = np.random.default_rng(23)
    s = random_state(grid8, rng, time=86400)
    path = tmp_path / "day.prcp"
    write_checkpoint(s, None, path)
    assert read_checkpoint(path, grid=grid8).state.time == 86400


def test_truncated_file_rejected(tmp_path, grid8, sample):
    path = tmp_path / "t.prcp"
    write_checkpoint(sample.current, sample, path)
    blob = path.read_bytes()
    for cut in (10, len(blob) // 2, len(blob) - 1):
        (tmp_path / "cut.prcp").write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(tmp_path / "cut.prcp", grid=grid8)


def test_bad_magic_rejected(tmp_path, grid8, sample):
    path = tmp_path / "m.prcp"
    write_checkpoint(sample.current, None, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        read_checkpoint(path, grid=grid8)


def test_flipped_payload_bit_rejected(tmp_path, grid8, sample):
    path = tmp_path / "c.prcp"
    write_checkpoint(sample.current, None, path)
    blob = bytearray(path.read_bytes())
    blob[64] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        read_checkpoint(path, grid=grid8)


def test_version_mismatch_rejected(tmp_path, grid8, sample):
    path = tmp_path / "v.prcp"
    write_checkpoint(sample.current, None, path)
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    # keep the checksum honest so only the version check can fire
    body = bytes(blob[:-8])
    import struct
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(VersionMismatchError):
        read_checkpoint(path, grid=grid8)


def test_grid_shape_guard(tmp_path, grid8, sample):
    path = tmp_path / "g.prcp"
    write_checkpoint(sample.current, None, path)
    with pytest.raises(GridMismatchError):
        read_checkpoint(path, grid=Grid(16, 16, 50_000.0, 50_000.0))


def test_history_of_another_grid_not_written(tmp_path, sample):
    other = random_state(Grid(16, 16, 50_000.0, 50_000.0), np.random.default_rng(24))
    with pytest.raises(GridMismatchError):
        write_checkpoint(other, sample, tmp_path / "h.prcp")
    assert not (tmp_path / "h.prcp").exists()


def test_header_layout_is_as_documented(tmp_path, grid8, sample):
    path = tmp_path / "hdr.prcp"
    write_checkpoint(sample.current, sample, path, slice_index=7, iteration=3)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    import struct
    version, nx, ny = struct.unpack_from("<III", blob, 4)
    time, sl, it, hist = struct.unpack_from("<QiiB", blob, 16)
    assert (version, nx, ny) == (FORMAT_VERSION, 8, 8)
    assert (time, sl, it, hist) == (sample.current.time, 7, 3, 2)   # the two a step reads
    # trailer is CRC-64 of everything before it
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    assert stored == crc64(blob[:-8])


def crc_paths(monkeypatch):
    """Yield once per CRC path: liblzma's lzma_crc64 where this Python
    reaches it, then the byte loop that platforms without it fall back to."""
    if checkpoint._lzma_crc64() is not None:
        yield "liblzma"
    monkeypatch.setattr(checkpoint, "_lzma_crc64", lambda: None)
    yield "fallback"


@pytest.mark.skipif(sys.platform != "linux", reason="liblzma's export is only known on Linux")
def test_crc64_reaches_liblzma_once():
    # the stdlib lzma module's liblzma exports lzma_crc64; it is looked up once
    assert checkpoint._lzma_crc64() is not None
    assert checkpoint._lzma_crc64() is checkpoint._lzma_crc64()


def test_crc64_known_vector(monkeypatch):
    # CRC-64/XZ check value for the standard nine-byte test input
    for path in crc_paths(monkeypatch):
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA, path


# --------------------------------------------------------------------------
# CRC-64 against a byte-at-a-time reference

def _reference_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_REF_TABLE = _reference_table()


def reference_crc64(data: bytes) -> int:
    crc = 0xFFFFFFFFFFFFFFFF
    for b in data:
        crc = _REF_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def reference_checkpoint_bytes(state, tendencies, slice_index, iteration) -> bytes:
    """The documented layout, assembled field by field, with the loop CRC."""
    grid = state.grid
    body = struct.pack(
        "<4sIIIQiiB", b"PRCP", 1, grid.nx, grid.ny, state.time,
        slice_index, iteration, len(tendencies),
    )
    for block in [state.data, *tendencies]:
        body += np.asarray(block, dtype="<f8").tobytes(order="C")
    return body + struct.pack("<Q", reference_crc64(body))


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 40_993, 163_873])
def test_crc64_matches_byte_loop(monkeypatch, length):
    data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
    for path in crc_paths(monkeypatch):
        assert crc64(data) == reference_crc64(data), path


def test_crc64_short_and_lane_boundary_lengths(monkeypatch):
    rng = np.random.default_rng(5)
    lengths = list(range(17)) + [127, 192, 327]
    blobs = [rng.integers(0, 256, length, dtype=np.uint8).tobytes() for length in lengths]
    for path in crc_paths(monkeypatch):
        for data in blobs:
            assert crc64(data) == reference_crc64(data), (path, len(data))


def test_crc64_accepts_bytes_like(monkeypatch):
    data = np.random.default_rng(6).integers(0, 256, 197, dtype=np.uint8).tobytes()
    expected = reference_crc64(data)
    for path in crc_paths(monkeypatch):
        assert crc64(data) == expected, path
        assert crc64(bytearray(data)) == expected, path
        assert crc64(memoryview(data)) == expected, path
        # a slice of a larger buffer, as the reader passes it
        assert crc64(memoryview(b"x" + data)[1:]) == expected, path


def test_written_file_matches_reference_writer(tmp_path, grid8, sample):
    for history, sl, it in ((None, -1, -1), (sample, 3, 2)):
        tendencies = () if history is None else history.tendencies
        path = tmp_path / f"w{len(tendencies)}.prcp"
        write_checkpoint(sample.current, history, path, slice_index=sl, iteration=it)
        expected = reference_checkpoint_bytes(sample.current, tendencies, sl, it)
        assert path.read_bytes() == expected
        assert read_checkpoint(path, grid=grid8).state.bit_equal(sample.current)


def test_three_block_file_continues_as_its_newest_two(tmp_path, grid8, params):
    # format v1 allows three tendency blocks, as an outside model may write:
    # such a file reads back as the history of its newest two, and
    # continuing it gives the bits of continuing the engine's own history
    s = random_state(grid8, np.random.default_rng(24))
    oldest = integrate_history(StepHistory(s), 2400, 2400, params).tendencies
    own = integrate_history(StepHistory(s), 3 * 2400, 2400, params)
    path = tmp_path / "three.prcp"
    path.write_bytes(reference_checkpoint_bytes(own.current, oldest + own.tendencies, -1, -1))
    ck = read_checkpoint(path, grid=grid8)
    assert len(ck.history) == 3
    h = ck.step_history(2400)
    assert h.dt == 2400 and h.current.bit_equal(own.current)
    assert [t.tobytes() for t in h.tendencies] == [t.tobytes() for t in own.tendencies]
    expected = integrate_history(own, 6 * 2400, 2400, params)
    got = integrate_history(h, 6 * 2400, 2400, params)
    assert got.current.bit_equal(expected.current)
    assert [t.tobytes() for t in got.tendencies] == [t.tobytes() for t in expected.tendencies]


def test_flipped_bit_anywhere_in_payload_rejected(tmp_path, grid8, sample):
    path = tmp_path / "p.prcp"
    write_checkpoint(sample.current, sample, path)
    blob = path.read_bytes()
    header = struct.calcsize("<4sIIIQiiB")
    for pos in (header, (header + len(blob) - 8) // 2, len(blob) - 9):
        damaged = bytearray(blob)
        damaged[pos] ^= 0x10
        (tmp_path / "bad.prcp").write_bytes(bytes(damaged))
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(tmp_path / "bad.prcp", grid=grid8)


def _sealed(header: bytes, payload: bytes) -> bytes:
    """A file body with its CRC-64 trailer, whatever the header claims."""
    body = header + payload
    return body + struct.pack("<Q", crc64(body))


def test_history_count_above_three_rejected(tmp_path, grid8):
    path = tmp_path / "h4.prcp"
    path.write_bytes(_sealed(checkpoint._HEADER.pack(MAGIC, FORMAT_VERSION, 8, 8, 0, -1, -1, 4), b""))
    with pytest.raises(CorruptCheckpointError, match="history count 4 out of range"):
        read_checkpoint(path, grid=grid8)


def test_header_grid_under_four_cells_rejected_without_grid(tmp_path, grid8):
    # a well-formed 2x2 file: no grid is built from a header, so the
    # caller's grid, which no 2x2 grid can be, refuses it
    path = tmp_path / "tiny.prcp"
    path.write_bytes(_sealed(checkpoint._HEADER.pack(MAGIC, FORMAT_VERSION, 2, 2, 0, -1, -1, 0),
                             bytes(5 * 2 * 2 * 8)))
    with pytest.raises(GridMismatchError, match="file is 2x2, expected grid 8x8"):
        read_checkpoint(path, grid=grid8)


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, sample):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_checkpoint(sample.current, sample, tmp_path / "out" / "c.prcp")
    assert list((tmp_path / "out").iterdir()) == []
