import numpy as np
import pytest

from paratide import ModelParams, ModelState, StepHistory, harness, read_checkpoint, write_checkpoint
from paratide.cli import main
from paratide.solver import integrate, integrate_history

from conftest import CONFIG_DIR, constant_state, random_state

SMALL = """
[config]
slice_length = 2400
n_slices = 4
coarse_spd = 36
fine_spd = 72
seed = 9
spin_up_days = 0.25
spin_up_spd = 288

[model]
nx = 16
ny = 16
"""


@pytest.fixture
def conf8(tmp_path):
    """A config for grid8 and the default physics: [model] is all that
    single-shot reads."""
    path = tmp_path / "grid8.conf"
    path.write_text("[model]\nnx = 8\nny = 8\n")
    return path


@pytest.fixture
def small_conf(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    path = tmp_path / "small.conf"
    path.write_text(SMALL)
    return path


def test_speedup_subcommand_output(capsys):
    assert main(["speedup", "--m", "2", "--nt", "12"]) == 0
    out = capsys.readouterr().out
    assert "max profitable K: 0" in out
    first_row = [l for l in out.splitlines() if l.startswith("1 ")][0]
    estimate = float(first_row.split()[1])
    assert estimate == pytest.approx(12.0 / 13.0, abs=1e-6)


def test_speedup_single_k(capsys):
    assert main(["speedup", "--m", "8", "--nt", "12", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "max profitable K: 6" in out
    row = [l for l in out.splitlines() if l.startswith("6 ")][0]
    assert float(row.split()[2]) == pytest.approx(8.0 / 7.0, abs=1e-6)


def test_run_subcommand(small_conf, tmp_path, capsys):
    assert main(["run", str(small_conf), "--run-id", "trial"]) == 0
    out = capsys.readouterr().out
    assert "report written" in out
    assert (tmp_path / "runs" / "trial" / "errors.csv").exists()


def test_serial_subcommand(small_conf, tmp_path, capsys):
    from paratide.config import parse_config

    out_file = tmp_path / "final.prcp"
    assert main(["serial", str(small_conf), "--spd", "72", "--out", str(out_file)]) == 0
    assert out_file.exists()
    ck = read_checkpoint(out_file, grid=parse_config(small_conf).grid)
    assert ck.state.time == 4 * 2400


def test_single_shot_round_trip(tmp_path, grid8, conf8):
    rng = np.random.default_rng(17)
    s = random_state(grid8, rng)
    in_path = tmp_path / "in.prcp"
    out_path = tmp_path / "out.prcp"
    write_checkpoint(s, None, in_path)
    argv = ["single-shot", "--in", str(in_path), "--out", str(out_path),
            "--t-end", "4800", "--spd", "36"]
    # the model comes from a config or not at all: no default physics
    assert main(argv) == 2
    assert not out_path.exists()
    assert main([*argv, "--config", str(conf8)]) == 0
    ck = read_checkpoint(out_path, grid=grid8)
    assert ck.state.bit_equal(integrate(s, 4800, 2400, ModelParams()))
    assert len(ck.history) > 0


def test_single_shot_with_config(small_conf, tmp_path):
    from paratide.config import parse_config

    config = parse_config(small_conf)
    s = constant_state(config.grid, u=0.01, temp=5.0)
    in_path = tmp_path / "in.prcp"
    out_path = tmp_path / "out.prcp"
    write_checkpoint(s, None, in_path)
    rc = main([
        "single-shot", "--in", str(in_path), "--out", str(out_path),
        "--t-end", "2400", "--spd", "36", "--config", str(small_conf),
    ])
    assert rc == 0
    ck = read_checkpoint(out_path, grid=config.grid)
    assert ck.state.bit_equal(integrate(s, 2400, 2400, config.params))


def test_single_shot_blow_up_exits_3(tmp_path, grid8, conf8):
    # velocities already over the cap: the very first step reports a blow-up
    s = constant_state(grid8, u=500.0)
    in_path = tmp_path / "in.prcp"
    write_checkpoint(s, None, in_path)
    rc = main([
        "single-shot", "--in", str(in_path), "--out", str(tmp_path / "o.prcp"),
        "--t-end", "2400", "--spd", "36", "--config", str(conf8),
    ])
    assert rc == 3
    assert not (tmp_path / "o.prcp").exists()


def test_single_shot_non_finite_input_exits_2(tmp_path, grid8, conf8, params, capsys):
    # a non-finite input state, or a finite one with a non-finite tendency,
    # is rejected before any step, not reported as a blow-up of the
    # integration
    data = random_state(grid8, np.random.default_rng(3)).data.copy()
    data[2, 4, 4] = np.nan
    h = integrate_history(StepHistory(random_state(grid8, np.random.default_rng(3))),
                          2 * 2400, 2400, params)
    (t, newest), older = h.tendencies[-1], h.tendencies[:-1]
    bad = newest.copy()
    bad[4, 1, 6] = np.inf
    for state, history in ((ModelState(grid8, data, 0), None),
                           (h.current, StepHistory(h.current, (*older, (t, bad))))):
        write_checkpoint(state, history, tmp_path / "in.prcp")
        rc = main([
            "single-shot", "--in", str(tmp_path / "in.prcp"), "--out", str(tmp_path / "o.prcp"),
            "--t-end", str(state.time + 2400), "--spd", "36", "--config", str(conf8),
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o.prcp").exists()


def test_single_shot_warm_history_round_trip(tmp_path, grid8, conf8, params):
    # a checkpoint with tendencies continues warm, bit-identical to the
    # unsplit run, and writes the last three tendencies back
    s = random_state(grid8, np.random.default_rng(6))
    h = integrate_history(StepHistory(s), 2 * 2400, 2400, params)
    write_checkpoint(h.current, h, tmp_path / "in.prcp")
    rc = main([
        "single-shot", "--in", str(tmp_path / "in.prcp"), "--out", str(tmp_path / "o.prcp"),
        "--t-end", str(4 * 2400), "--spd", "36", "--config", str(conf8),
    ])
    assert rc == 0
    whole = integrate_history(StepHistory(s), 4 * 2400, 2400, params)
    expected = tmp_path / "expected.prcp"
    write_checkpoint(whole.current, whole, expected)
    assert (tmp_path / "o.prcp").read_bytes() == expected.read_bytes()


def test_single_shot_bad_spd_exits_2(tmp_path, grid8, conf8):
    s = constant_state(grid8)
    write_checkpoint(s, None, tmp_path / "in.prcp")
    rc = main([
        "single-shot", "--in", str(tmp_path / "in.prcp"),
        "--out", str(tmp_path / "o.prcp"), "--t-end", "2400", "--spd", "77",
        "--config", str(conf8),
    ])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["speedup", "--m", "0", "--nt", "5"],
    ["speedup", "--m", "2", "--nt", "0"],
    ["speedup", "--m", "2", "--nt", "5", "--k", "0"],
    ["serial", "{conf}", "--spd", "0"],
    ["serial", "{conf}", "--spd", "-5"],       # 86400 % -5 == 0
    ["serial", "{conf}", "--spd", "24"],       # its 3600s step does not divide 2400s slices
    ["single-shot", "--in", "{in}", "--out", "{out}", "--t-end", "2400", "--spd", "0",
     "--config", "{conf}"],
    ["restart-study", "{conf}", "--slices", "0"],
    ["restart-study", "{conf}", "--slices", "a"],
    ["restart-study", "{conf}", "--slices", ","],
    ["restart-study", "{conf}", "--days", "0"],
    ["restart-study", "{conf}", "--slices", "5"],   # 17280s slices, 2400s coarse steps
    ["avg-error", "{conf}", "--spd-list", "0"],
    ["avg-error", "{conf}", "--spd-list", "x"],
    ["avg-error", "{conf}", "--spd-list", "7"],
    ["avg-error", "{conf}", "--spd-list", ","],
    # argparse's own refusals: a missing flag or argument, a bad int, an unknown command
    ["single-shot", "--in", "{in}", "--out", "{out}", "--t-end", "2400", "--spd", "36"],
    ["run"],
    ["serial", "{conf}", "--spd", "x"],
    ["bogus", "{conf}"],
], ids=["speedup-m", "speedup-nt", "speedup-k", "serial-spd0", "serial-spd-neg", "serial-spd24",
        "single-shot-spd0",
        "restart-slices0", "restart-slices-a", "restart-slices-empty", "restart-days0",
        "restart-slices-step",
        "avg-spd0", "avg-spd-x", "avg-spd7", "avg-spd-empty",
        "parser-single-shot-no-config", "parser-run-no-config", "parser-serial-spd-x",
        "parser-unknown-command"])
def test_bad_argument_exits_2_before_any_work(argv, small_conf, tmp_path, grid8, capsys):
    write_checkpoint(constant_state(grid8), None, tmp_path / "in.prcp")
    paths = {"{conf}": str(small_conf), "{in}": str(tmp_path / "in.prcp"),
             "{out}": str(tmp_path / "o.prcp")}
    assert main([paths.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    # no spin-up, no reference, no output
    assert not (tmp_path / "runs").exists() and not (tmp_path / "o.prcp").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["single-shot", "--help"])
    assert exited.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("argv, edit, named", [
    (["speedup", "--m", "inf", "--nt", "5"], None, "m must be"),
    (["speedup", "--m", "nan", "--nt", "5"], None, "m must be"),
    (["restart-study", "{conf}", "--days", "nan"], None, "days=nan"),
    (["restart-study", "{conf}", "--days", "inf"], None, "days=inf"),
    (["run", "{conf}"], ("[config]", "[config]\nepsilon = nan"), "[config] epsilon:"),
    (["run", "{conf}"], ("[config]", "[config]\nepsilon = inf"), "[config] epsilon:"),
    (["run", "{conf}"], ("spin_up_days = 0.25", "spin_up_days = nan"), "[config] spin_up_days:"),
    (["run", "{conf}"], ("spin_up_days = 0.25", "spin_up_days = inf"), "[config] spin_up_days:"),
    (["run", "{conf}"], ("[model]", "[model]\ndx = nan"), "dx and dy"),
    (["run", "{conf}"], ("[model]", "[model]\ndx = inf"), "dx and dy"),
    (["run", "{conf}"], ("[model]", "[model]\ndy = inf"), "dx and dy"),
    (["run", "{conf}"], ("[model]", "[model]\nH = nan"), "H and g"),
    (["run", "{conf}"], ("[model]", "[model]\nf0 = nan"), "f0 and forcing_amp"),
    (["run", "{conf}"], ("[model]", "[model]\nf0 = inf"), "f0 and forcing_amp"),
    (["run", "{conf}"], ("[model]", "[model]\nforcing_amp = nan"), "f0 and forcing_amp"),
    (["run", "{conf}"], ("[model]", "[model]\nforcing_amp = -inf"), "f0 and forcing_amp"),
    (["run", "{conf}"], ("[model]", "[model]\nvelocity_cap = nan"), "velocity_cap"),
    # finite, but a count of seconds 86400 times as large is not
    (["restart-study", "{conf}", "--days", "1e308"], None, "days=1e+308"),
    (["run", "{conf}"], ("spin_up_days = 0.25", "spin_up_days = 1e308"), "[config] spin_up_days:"),
], ids=["speedup-m-inf", "speedup-m-nan", "restart-days-nan", "restart-days-inf",
        "epsilon-nan", "epsilon-inf", "spin-up-days-nan", "spin-up-days-inf", "dx-nan",
        "dx-inf", "dy-inf", "H-nan", "f0-nan", "f0-inf", "forcing-amp-nan", "forcing-amp-inf",
        "velocity-cap-nan", "restart-days-1e308", "spin-up-days-1e308"])
def test_non_finite_number_exits_2(argv, edit, named, small_conf, tmp_path, capsys):
    # NaN passes no "> 0" test, and inf becomes no count of seconds or steps
    if edit is not None:
        small_conf.write_text(small_conf.read_text().replace(*edit))
    assert main([str(small_conf) if a == "{conf}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err
    assert not (tmp_path / "runs").exists()


def test_non_utf8_config_exits_2(small_conf, tmp_path, capsys):
    small_conf.write_bytes(small_conf.read_text().encode("utf-16"))
    assert main(["serial", str(small_conf), "--spd", "72"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {small_conf}: not UTF-8 text")
    assert not (tmp_path / "runs").exists()


def test_spin_up_off_its_step_exits_2_before_any_work(small_conf, tmp_path, capsys):
    # 0.0001 days rounds to 9 s, no multiple of the 300 s spin_up_spd step
    small_conf.write_text(small_conf.read_text().replace("spin_up_days = 0.25",
                                                         "spin_up_days = 0.0001"))
    assert main(["run", str(small_conf)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [config] spin_up_days: ")
    assert not (tmp_path / "runs").exists()


def test_spin_up_past_the_cfl_floor_exits_2_before_any_work(small_conf, tmp_path, capsys):
    # 24 spd is a 3600 s step, past the 2700 s wave CFL floor; on exp1's
    # 30-day spin-up it blows up, so serial refuses it before any work
    small_conf.write_text(small_conf.read_text().replace("spin_up_spd = 288", "spin_up_spd = 24"))
    assert main(["serial", str(small_conf), "--spd", "72"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [config] spin_up_spd: step of 3600s")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, judged", [
    (["serial", "--spd", "24"], "--spd"),
    (["avg-error", "--spd-list", "24"], "time-averaged study: spd=24"),
], ids=["serial", "avg-error"])
def test_step_past_the_cfl_floor_exits_2_before_any_work(argv, judged, tmp_path, monkeypatch,
                                                         capsys):
    # exp2's one-day slices take a 3600 s step, but the model at rest
    # allows 2700 s: refused before the 30-day spin-up, not after it
    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setattr(harness, "spin_up", lambda config: pytest.fail("spun up"))
    assert main([argv[0], str(CONFIG_DIR / "exp2.conf"), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: {judged}: step of 3600s exceeds the CFL step floor "
                                 f"of 2700s (32 spd) for this model\n")
    assert not (tmp_path / "runs").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[config]\nslice_length = 2400\nn_slices = 4\ncoarse_spd = 36\nfine_spd = 36\n")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_restart_policy_key_exits_2(small_conf, capsys):
    small_conf.write_text(small_conf.read_text().replace("[model]", "restart_policy = warm\n[model]"))
    assert main(["run", str(small_conf)]) == 2
    assert "unknown key 'restart_policy'" in capsys.readouterr().err


def test_restart_study_subcommand(small_conf, capsys):
    assert main(["restart-study", str(small_conf), "--slices", "1,2", "--days", "1"]) == 0
    out = capsys.readouterr().out
    assert "restart consistency study" in out
    assert "yes" in out


def test_avg_error_subcommand(small_conf, capsys):
    assert main(["avg-error", str(small_conf), "--spd-list", "36,72"]) == 0
    out = capsys.readouterr().out
    assert "spd,slice,field,E_inf" in out
    assert any(line.startswith("36,0,") for line in out.splitlines())


def test_emit_subcommand_round_trip(small_conf, tmp_path, capsys):
    assert main(["run", str(small_conf), "--run-id", "for-emit"]) == 0
    report_json = tmp_path / "runs" / "for-emit" / "report.json"
    out_dir = tmp_path / "emitted"
    assert main(["emit", str(report_json), "--format", "csv", "--out-dir", str(out_dir)]) == 0
    original = (tmp_path / "runs" / "for-emit" / "errors.csv").read_bytes()
    assert (out_dir / "errors.csv").read_bytes() == original
    assert main(["emit", str(report_json), "--format", "text-table", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report.txt").exists()


def test_emit_missing_report_exits_4(tmp_path):
    assert main(["emit", str(tmp_path / "none.json"), "--format", "csv"]) == 4


@pytest.mark.parametrize("fmt", ["csv", "text-table"])
@pytest.mark.parametrize("text", ["{", '{"fine_runs": 3}'], ids=["not-json", "not-a-report"])
def test_emit_file_that_is_not_a_report_exits_4(tmp_path, capsys, text, fmt):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["emit", str(path), "--format", fmt]) == 4     # no traceback
    assert capsys.readouterr().err.startswith(f"i/o failure: {path}: not a report")
    assert {p.name for p in tmp_path.iterdir()} == {"report.json"}


def _single_shot_loads(tmp_path, grid8, *extra):
    """Run single-shot in a fresh interpreter; return its exit code and the
    heavy modules it loaded on import and by the end of the run."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import paratide

    s = random_state(grid8, np.random.default_rng(8))
    write_checkpoint(s, None, tmp_path / "in.prcp")
    script = (
        "import sys\n"
        "import paratide.cli\n"
        "loaded_on_import = set(sys.modules)\n"
        "code = paratide.cli.main(sys.argv[1:])\n"
        "heavy = ['paratide.harness', 'paratide.parareal', 'paratide.metrics', 'concurrent.futures']\n"
        "print(code, [m for m in heavy if m in loaded_on_import], [m for m in heavy if m in sys.modules])\n"
    )
    root = str(Path(paratide.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", script, "single-shot", "--in", str(tmp_path / "in.prcp"),
         "--out", str(tmp_path / "out.prcp"), "--t-end", "4800", "--spd", "36", *extra],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert read_checkpoint(tmp_path / "out.prcp", grid=grid8).state.time == 4800
    return out.strip()


def test_single_shot_with_config_imports_only_what_it_uses(tmp_path, grid8):
    # external children read their model from a full experiment config
    # (--config), which parse_config reads model-only: no driver either
    conf = tmp_path / "exp.conf"
    conf.write_text(SMALL.replace("16", "8"))
    assert _single_shot_loads(tmp_path, grid8, "--config", str(conf)) == "0 [] []"


def test_public_names_resolve_lazily():
    import paratide

    for name in paratide.__all__:
        assert getattr(paratide, name) is not None, name
    assert set(paratide.__all__) <= set(dir(paratide))
    namespace = {}
    exec("from paratide import *", namespace)
    for name in paratide.__all__:
        assert namespace[name] is getattr(paratide, name), name
    with pytest.raises(AttributeError):
        paratide.no_such_name
