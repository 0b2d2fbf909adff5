import pytest

from paratide import Field, parse_config
from paratide.errors import ParseError, ValidationError

from conftest import CONFIG_DIR


def write(tmp_path, body):
    path = tmp_path / "test.conf"
    path.write_text(body)
    return path


MINIMAL = """
[config]
slice_length = 2400
n_slices = 12
coarse_spd = 36
fine_spd = 72,144,288
"""


def test_experiment1_preset_parses():
    cfg = parse_config(CONFIG_DIR / "exp1.conf")
    assert cfg.layout.slice_length == 2400
    assert cfg.layout.n_slices == 12
    assert cfg.layout.t0 + cfg.layout.total_seconds == 28800   # 8 hours
    assert cfg.coarse_spd == 36
    assert cfg.fine_spds == (72, 144, 288)
    assert cfg.epsilon == 1e-2
    assert cfg.monitored_fields == (Field.U, Field.T, Field.S)


def test_all_presets_close_under_integer_seconds():
    for name, total in (("exp1.conf", 28800), ("exp2.conf", 12 * 86400), ("exp3.conf", 360 * 86400)):
        cfg = parse_config(CONFIG_DIR / name)
        assert cfg.layout.slice_length * cfg.layout.n_slices == total
        for spd in (cfg.coarse_spd, *cfg.fine_spds):
            assert 86400 % spd == 0
            assert cfg.layout.slice_length % (86400 // spd) == 0


def test_minimal_config(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.seed == 1234
    assert cfg.restart_policy == "cold"
    assert cfg.grid.nx == 32


def test_missing_file():
    with pytest.raises(ParseError):
        parse_config("/no/such/file.conf")


def test_fine_spd_must_divide_day(tmp_path):
    body = MINIMAL.replace("72,144,288", "77")
    with pytest.raises(ValidationError, match="fine_spd.*77.*86400"):
        parse_config(write(tmp_path, body))


def test_fine_must_exceed_coarse(tmp_path):
    body = MINIMAL.replace("72,144,288", "36")
    with pytest.raises(ValidationError, match="strictly finer"):
        parse_config(write(tmp_path, body))


def test_slice_not_multiple_of_coarse_step(tmp_path):
    body = MINIMAL.replace("slice_length = 2400", "slice_length = 3600")
    with pytest.raises(ValidationError, match="slice_length"):
        parse_config(write(tmp_path, body))


def test_unknown_key_names_line(tmp_path):
    body = MINIMAL + "frobnicate = 1\n"
    with pytest.raises(ParseError, match=r"test\.conf:7.*frobnicate"):
        parse_config(write(tmp_path, body))


def test_key_outside_section(tmp_path):
    with pytest.raises(ParseError, match="outside any section"):
        parse_config(write(tmp_path, "slice_length = 2400\n"))


def test_garbage_line_names_line_number(tmp_path):
    body = "[config]\nwat\n"
    with pytest.raises(ParseError, match=r"test\.conf:2"):
        parse_config(write(tmp_path, body))


def test_duplicate_key_rejected(tmp_path):
    body = MINIMAL + "seed = 1\nseed = 2\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(write(tmp_path, body))


def test_missing_required_key(tmp_path):
    body = MINIMAL.replace("coarse_spd = 36\n", "")
    with pytest.raises(ValidationError, match="coarse_spd.*required"):
        parse_config(write(tmp_path, body))


def test_coarse_spd_below_cfl_floor_rejected(tmp_path):
    # 12 spd means 7200 s steps: far beyond the wave CFL for the default
    # model, and every fine list member would have to exceed it anyway
    body = """
[config]
slice_length = 7200
n_slices = 4
coarse_spd = 12
fine_spd = 24
"""
    with pytest.raises(ValidationError, match="CFL"):
        parse_config(write(tmp_path, body))


def test_epsilon_must_be_positive(tmp_path):
    body = MINIMAL + "epsilon = 0\n"
    with pytest.raises(ValidationError, match="epsilon"):
        parse_config(write(tmp_path, body))


def test_max_iterations_bounded_by_slices(tmp_path):
    body = MINIMAL + "max_iterations = 13\n"
    with pytest.raises(ValidationError, match="max_iterations"):
        parse_config(write(tmp_path, body))


def test_monitored_fields_validated(tmp_path):
    body = MINIMAL + "monitored_fields = U,Q\n"
    with pytest.raises(ValidationError, match="monitored_fields"):
        parse_config(write(tmp_path, body))


def test_model_section_overrides(tmp_path):
    body = MINIMAL + "\n[model]\nnx = 16\nny = 16\nH = 4.0\n"
    cfg = parse_config(write(tmp_path, body))
    assert cfg.grid.nx == 16
    assert cfg.params.H == 4.0


def test_model_only_mode_skips_layout(tmp_path):
    cfg = parse_config(write(tmp_path, "[model]\nnx = 16\nny = 16\n"), model_only=True)
    assert cfg.grid.nx == 16


def test_config_hash_ignores_io(tmp_path):
    a = parse_config(write(tmp_path, MINIMAL))
    b = parse_config(write(tmp_path, MINIMAL + "\n[io]\noutput_dir = elsewhere\n"))
    assert a.hash() == b.hash()
    c = parse_config(write(tmp_path, MINIMAL + "seed = 99\n"))
    assert a.hash() != c.hash()
