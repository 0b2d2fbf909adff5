import pytest

from paratide import Field, parse_config
from paratide.config import parse_model
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
    assert cfg.restart_policy == "cold"     # a constant: every slice starts cold
    assert cfg.grid.nx == 32


def test_run_defaults_are_the_drivers(tmp_path):
    # a run key left out takes the default of the driver's settings, not
    # one of the config's own; the restart policy is the propagators' own
    from paratide import PararealConfig, PropagatorSpec

    cfg = parse_config(write(tmp_path, MINIMAL))
    bare = PararealConfig(cfg.layout, PropagatorSpec(cfg.coarse_spd), PropagatorSpec(cfg.fine_spds[0]))
    assert (cfg.epsilon, cfg.max_iterations, cfg.on_blow_up, cfg.max_parallel_fine,
            cfg.monitored_fields) == (bare.epsilon, bare.max_iterations, bare.on_blow_up,
                                      bare.max_parallel_fine, bare.monitored_fields)
    assert cfg.restart_policy == bare.coarse.restart_policy == bare.fine.restart_policy


@pytest.mark.parametrize("name, config_hash", [
    ("exp1.conf", "5f1ef3bed89b"), ("exp2.conf", "3c7a61a2cfb4"), ("exp3.conf", "65639f9a4ca3"),
])
def test_preset_hashes_pinned(name, config_hash):
    # the hashes name every cache and run directory, so the defaults a
    # preset leaves out must not move them
    cfg = parse_config(CONFIG_DIR / name)
    assert cfg.hash() == config_hash
    assert cfg.spin_up_hash() == "e96621d0191d"


@pytest.mark.parametrize("body, key", [
    (MINIMAL + "on_blow_up = ignore\n", "on_blow_up"),
    (MINIMAL + "max_parallel_fine = 0\n", "max_parallel_fine"),
    (MINIMAL + "spin_up_spd = 7\n", "spin_up_spd"),
    (MINIMAL + "spin_up_days = 0.0001\n", "spin_up_days"),   # 9 s against a 60 s step
    (MINIMAL + "reference_spd = 0\n", "reference_spd"),
    (MINIMAL.replace("coarse_spd = 36", "coarse_spd = 7"), "coarse_spd"),
    (MINIMAL + "max_iterations = 0\n", "max_iterations"),
    (MINIMAL.replace("72,144,288", "160"), "fine_spd"),     # a 540 s step into 2400 s
    (MINIMAL + "[model]\nnx = 2\n", "nx"),
    (MINIMAL + "[model]\nH = 0\n", "H"),
    (MINIMAL + "[model]\nnx = 3.5\n", "nx"),
    (MINIMAL + "monitored_fields =\n", "monitored_fields"),   # epsilon stopping would be vacuous
    (MINIMAL + "spin_up_spd = 24\n", "spin_up_spd"),          # 3600 s steps past the 2700 s floor
    (MINIMAL + "reference_spd = 24\n", "reference_spd"),
    (MINIMAL.replace("72,144,288", "72,144,72"), "fine_spd"),
    (MINIMAL + "seed = -1\n", "seed"),
    (MINIMAL + "t0 = -1\n", "t0"),
    (MINIMAL.replace("slice_length = 2400", "slice_length = 0"), "slice_length"),
    (MINIMAL.replace("n_slices = 12", "n_slices = 0"), "n_slices"),
], ids=["on_blow_up", "max_parallel_fine", "spin_up_spd", "spin_up_days-step", "reference_spd",
        "coarse_spd", "max_iterations", "fine_spd-step", "nx-small", "H", "nx-float",
        "monitored_fields-empty", "spin_up_spd-cfl", "reference_spd-cfl", "fine_spd-twice",
        "seed-negative", "t0-negative", "slice_length-zero", "n_slices-zero"])
def test_rule_violation_names_its_key(tmp_path, body, key):
    # each rule is judged by the object that owns it; the error still
    # names the config key at fault
    with pytest.raises(ValidationError, match=rf"^\[(config|model)\] .*\b{key}\b"):
        parse_config(write(tmp_path, body))


@pytest.mark.parametrize("value", ["cold", "warm", "hot"])
def test_restart_policy_is_no_key(tmp_path, value):
    # every slice starts cold whatever a spec's policy, so the key would
    # change no bit: it is unknown like any other
    with pytest.raises(ParseError, match=r"unknown key 'restart_policy'"):
        parse_config(write(tmp_path, MINIMAL + f"restart_policy = {value}\n"))


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


def test_unknown_section_names_line(tmp_path):
    with pytest.raises(ParseError, match=r"test\.conf:7: unknown section \[physics\]"):
        parse_config(write(tmp_path, MINIMAL + "[physics]\n"))


def test_key_outside_section(tmp_path):
    with pytest.raises(ParseError, match="outside any section"):
        parse_config(write(tmp_path, "slice_length = 2400\n"))


def test_garbage_line_names_line_number(tmp_path):
    body = "[config]\nwat\n"
    with pytest.raises(ParseError, match=r"test\.conf:2"):
        parse_config(write(tmp_path, body))


def test_non_utf8_file_names_its_path(tmp_path):
    # a UTF-16 file starts with the bytes ff fe, which no UTF-8 text does
    path = tmp_path / "bad.conf"
    path.write_bytes(MINIMAL.encode("utf-16"))
    with pytest.raises(ParseError, match=r"bad\.conf: not UTF-8 text"):
        parse_config(path)


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


def test_step_judges_a_day_the_slices_and_the_cfl_floor(tmp_path):
    # the one judge of a step count, for config keys and command flags
    # alike: each failure names the key it is given
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.step("--spd", 36) == cfg.step("--spd", 36, 2400) == 2400
    assert cfg.step("--spd", 32, 86400) == 2700           # the floor itself passes
    with pytest.raises(ValidationError, match=r"^--spd: spd=77 is not an integer divisor of 86400$"):
        cfg.step("--spd", 77)
    with pytest.raises(ValidationError,
                       match=r"^--spd: 2400s slices are not a multiple of its 3600s step$"):
        cfg.step("--spd", 24, 2400)
    with pytest.raises(ValidationError, match=r"^--spd: step of 3600s exceeds the CFL step "
                                              r"floor of 2700s \(32 spd\) for this model$"):
        cfg.step("--spd", 24, 86400)


def test_fine_spd_listed_twice_rejected(tmp_path):
    body = MINIMAL.replace("72,144,288", "72,72")
    with pytest.raises(ValidationError, match=r"^\[config\] fine_spd: 72 is listed twice$"):
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


def test_parse_model_skips_layout(tmp_path):
    grid, params = parse_model(write(tmp_path, "[model]\nnx = 16\nny = 16\nH = 4.0\n"))
    assert grid.nx == 16
    assert params.H == 4.0


def test_config_hash_ignores_io(tmp_path):
    a = parse_config(write(tmp_path, MINIMAL))
    b = parse_config(write(tmp_path, MINIMAL + "\n[io]\noutput_dir = elsewhere\n"))
    assert a.hash() == b.hash()
    c = parse_config(write(tmp_path, MINIMAL + "seed = 99\n"))
    assert a.hash() != c.hash()


def test_every_grid_and_physics_field_keys_the_caches(tmp_path):
    # spin-ups and references are cached under these hashes: a field they
    # leave out would let a changed model reuse a stale cache
    from dataclasses import fields, replace

    from paratide import Grid, ModelParams

    cfg = parse_config(write(tmp_path, MINIMAL))
    for part, cls in (("grid", Grid), ("params", ModelParams)):
        for f in fields(cls):
            old = getattr(cfg, part)
            changed = replace(cfg, **{part: replace(old, **{f.name: getattr(old, f.name) * 2})})
            assert changed.hash() != cfg.hash(), f.name
            assert changed.spin_up_hash() != cfg.spin_up_hash(), f.name
