import dataclasses

import numpy as np
import pytest

from paratide import Field, parse_config
from paratide.errors import ValidationError
from paratide.harness import (
    emit_report,
    initial_state,
    restart_consistency_study,
    run_experiment,
    runs_root,
    serial_reference,
    spin_up,
    time_averaged_study,
)
from paratide.metrics import ERROR_CSV_HEADER


SMALL = """
[config]
slice_length = 2400
n_slices = 4
coarse_spd = 36
fine_spd = 72,144
seed = 77
spin_up_days = 0.5
spin_up_spd = 288

[model]
nx = 16
ny = 16
"""


@pytest.fixture
def small_config(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    path = tmp_path / "small.conf"
    path.write_text(SMALL)
    return parse_config(path)


def test_runs_dir_env_override(small_config, tmp_path):
    assert runs_root(small_config) == tmp_path / "runs"


def test_spin_up_zero_duration_returns_seeded_state(small_config):
    seeded = initial_state(small_config.grid, small_config.params, small_config.seed)
    got = spin_up(dataclasses.replace(small_config, spin_up_days=0))
    assert got.bit_equal(seeded)


def test_spin_up_deterministic_and_cached(small_config):
    a = spin_up(small_config)
    b = spin_up(small_config)          # second call reads the cache
    assert a.bit_equal(b)


def test_seeded_fields_structure(small_config):
    s = initial_state(small_config.grid, small_config.params, small_config.seed)
    # tracers sit around their base values, elevation noise is small
    assert abs(s.field(Field.T).mean() - 10.0) < 1.0
    assert abs(s.field(Field.S).mean() - 35.0) < 0.2
    assert np.abs(s.field(Field.ETA)).max() < 0.05
    # velocities follow the elevation through the discrete balance
    deta_dy = (np.roll(s.field(Field.ETA), -1, 0) - np.roll(s.field(Field.ETA), 1, 0)) / (2 * s.grid.dy)
    expected_u = -(small_config.params.g / small_config.params.f0) * deta_dy
    assert np.array_equal(s.field(Field.U), expected_u)


def test_serial_reference_cached_bit_exact(small_config):
    u0 = spin_up(small_config)
    first = serial_reference(small_config, 72, u0)
    again = serial_reference(small_config, 72, u0)
    assert len(first) == small_config.layout.n_slices + 1
    for a, b in zip(first, again):
        assert a.bit_equal(b)


def test_serial_reference_cold_cache_is_restarted_serial_run(small_config):
    from paratide import PropagatorSpec
    from paratide.propagator import restarted_serial_run

    u0 = spin_up(small_config)
    cached = serial_reference(small_config, 144, u0)
    direct = restarted_serial_run(
        PropagatorSpec(144), u0, small_config.layout, small_config.params
    )
    assert len(cached) == len(direct) == small_config.layout.n_slices + 1
    for a, b in zip(cached, direct):
        assert a.bit_equal(b)
    marker = runs_root(small_config) / "cache" / small_config.hash() / "ref144" / "complete"
    assert marker.exists()


def test_error_cells_match_norms_of_iterates(small_config):
    # the report reads the norms the run recorded; they must be the norms
    # of the final-time iterates against the reference
    from paratide import PararealConfig, PropagatorSpec, rel_l2_norm, rel_max_norm, run_parareal
    from paratide.harness import _error_cells

    u0 = spin_up(small_config)
    reference = serial_reference(small_config, 72, u0)
    cfg = PararealConfig(
        layout=small_config.layout, coarse=PropagatorSpec(small_config.coarse_spd),
        fine=PropagatorSpec(72), epsilon=0.0,
    )
    res = run_parareal(u0, cfg, small_config.params, reference=reference)
    monitored = small_config.monitored_fields
    cells = _error_cells(res, monitored, small_config.layout.n_slices)
    assert len(cells) == small_config.layout.n_slices * len(monitored)
    for c in cells:
        f = Field[c["field"]]
        approx = res.iterates[c["k"]][-1].field(f)
        ref = reference[-1].field(f)
        assert c["status"] == "ok"
        assert c["E_inf"] == rel_max_norm(approx, ref)
        assert c["E_2"] == rel_l2_norm(approx, ref)


def test_run_experiment_report_shape(small_config):
    report, run_dir = run_experiment(small_config)
    assert (run_dir / "errors.csv").exists()
    assert (run_dir / "report.json").exists()
    assert (run_dir / "report.txt").exists()

    lines = (run_dir / "errors.csv").read_text().splitlines()
    assert lines[0] == ",".join(ERROR_CSV_HEADER)
    n_fine = len(small_config.fine_spds)
    n_fields = len(small_config.monitored_fields)
    assert len(lines) - 1 == n_fine * small_config.layout.n_slices * n_fields

    for fr in report["fine_runs"]:
        ks = sorted({c["k"] for c in fr["errors"]})
        assert ks == list(range(small_config.layout.n_slices))
        assert fr["exact_at_last"] is not None
        assert max(fr["exact_at_last"].values()) <= 1e-12
        for row in fr["speedup"]:
            assert row["bound"] >= row["estimate"]


def test_iterate_checkpoints_written(small_config):
    _, run_dir = run_experiment(small_config)
    from paratide import read_checkpoint
    ck = read_checkpoint(
        run_dir / "nf72" / "k1" / "slice2" / "iterate.prcp", grid=small_config.grid
    )
    assert ck.iteration == 1 and ck.slice_index == 2


def test_emit_report_deterministic_bytes(small_config, tmp_path):
    report, _ = run_experiment(small_config)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    emit_report(report, "csv", out_a)
    emit_report(report, "csv", out_b)
    assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()
    emit_report(report, "text-table", out_a)
    emit_report(report, "text-table", out_b)
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    with pytest.raises(ValueError):
        emit_report(report, "xml", out_a)


def test_emit_empty_report_is_header_only(tmp_path):
    empty = {
        "run_id": "empty", "config_path": "", "config_hash": "0" * 12, "epsilon": 1e-2,
        "n_slices": 4, "slice_length": 2400, "coarse_spd": 36, "monitored": ["U"],
        "flags": {}, "fine_runs": [],
    }
    path = emit_report(empty, "csv", tmp_path)
    assert path.read_text() == ",".join(ERROR_CSV_HEADER) + "\n"


def test_report_json_round_trips_through_emit(small_config, tmp_path):
    import json

    report, run_dir = run_experiment(small_config)
    loaded = json.loads((run_dir / "report.json").read_text())
    assert loaded == report     # the returned report is the written document
    emit_report(loaded, "csv", tmp_path)
    assert (tmp_path / "errors.csv").read_bytes() == (run_dir / "errors.csv").read_bytes()


# --------------------------------------------------------------------------
# Restart-consistency study

def test_restart_study_policies(small_config):
    study = restart_consistency_study(small_config, slice_counts=(1, 2, 4), total_days=1.0)
    assert [r.n_slices for r in study] == [1, 2, 4]
    assert [r.slice_seconds for r in study] == [86400, 43200, 21600]
    rows = {r.n_slices: r for r in study}
    assert rows[1].cold_deviation == 0.0          # unsplit == consecutive
    assert rows[2].cold_deviation > 0.0
    for r in study:
        assert r.warm_bit_exact
        assert r.warm_deviation == 0.0


def test_restart_study_rejects_misaligned_split(small_config):
    with pytest.raises(ValidationError):
        restart_consistency_study(small_config, slice_counts=(7,), total_days=1.0)


# --------------------------------------------------------------------------
# Time-averaged study

def test_time_averaged_study_orders_by_spd(small_config):
    series = time_averaged_study(small_config, spd_list=(36, 72))
    assert set(series) == {36, 72, small_config.reference_spd}
    t36 = series[36][Field.T]
    t72 = series[72][Field.T]
    tref = series[small_config.reference_spd][Field.T]
    assert all(v == 0.0 for v in tref)
    assert t36[0] > t72[0] > 0.0


def test_time_averaged_study_matches_hand_computation(small_config):
    # per slice, a cold start stepped one warm step at a time; the slice's
    # mean is over the states after each step, and its error is
    # max |mean - reference mean| / max |reference mean| per field
    from paratide import StepHistory, integrate_history

    reference_spd = small_config.reference_spd
    series = time_averaged_study(small_config, spd_list=(72,))
    layout, params = small_config.layout, small_config.params
    u0 = spin_up(small_config)
    means = {}
    for spd in (72, reference_spd):
        dt = 86400 // spd
        n_steps = layout.slice_length // dt
        state, means[spd] = u0, []
        for _ in range(layout.n_slices):
            h, total = StepHistory(state), np.zeros_like(u0.data)
            for _ in range(n_steps):
                h = integrate_history(h, h.current.time + dt, dt, params)
                total += h.current.data
            state = h.current
            means[spd].append(total / n_steps)
    for spd in (72, reference_spd):
        for f in small_config.monitored_fields:
            assert series[spd][f] == tuple(
                np.abs(run[f.value] - ref[f.value]).max() / np.abs(ref[f.value]).max()
                for run, ref in zip(means[spd], means[reference_spd])
            ), (spd, f)


def test_report_marks_blow_up_and_skipped_cells(grid8, tmp_path):
    # a coarse-sweep failure mid-run: iterations beyond the break must be
    # emitted as skipped, and the blow-up lands in the CSV flags column.
    # It fails at slice 2 of sweep 2: slice 1 takes its coarse value from
    # sweep 1, where the same state propagated fine.
    from paratide import ModelParams, ModelState, PararealConfig, PropagatorSpec, SliceLayout, run_parareal
    from paratide.errors import BlowUpError
    from paratide.harness import _error_cells, _fine_run
    from conftest import constant_state

    layout = SliceLayout(t0=0, slice_length=600, n_slices=4)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(144), fine=PropagatorSpec(288), epsilon=0.0
    )

    def flow(factor):
        def fn(state, n, k):
            return ModelState(state.grid, state.data * factor, state.time + 600)
        return fn

    def failing_coarse(state, n, k):
        if k == 2 and n == 2:
            raise BlowUpError("diverged", slice_index=n, iteration=k)
        return flow(0.8)(state, n, k)

    u0 = constant_state(grid8, u=1.0)
    reference = [u0]
    for n in range(4):
        reference.append(flow(0.9)(reference[-1], n, -1))
    res = run_parareal(
        u0, cfg, ModelParams(), coarse_fn=failing_coarse, fine_fn=flow(0.9), reference=reference
    )
    assert res.aborted and res.iterations_run == 2

    monitored = cfg.monitored_fields
    cells = _error_cells(res, monitored, layout.n_slices)
    statuses = {(c["k"], c["field"]): c["status"] for c in cells}
    assert statuses[(2, "U")] == "ok"
    assert statuses[(3, "U")] == "skipped"

    fr = _fine_run(res, cfg, 1e-2, "toy-nf288", reference[-1])
    report = {
        "run_id": "toy", "config_path": "", "config_hash": "x" * 12, "epsilon": 1e-2,
        "n_slices": 4, "slice_length": 600, "coarse_spd": 144,
        "monitored": [f.name for f in monitored],
        "flags": {}, "fine_runs": [fr],
    }
    csv_path = emit_report(report, "csv", tmp_path)
    rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
    skipped = [r for r in rows if r[1] == "3"]
    assert skipped and all(r[3] == "skipped" and r[4] == "skipped" for r in skipped)
    # k = 3 never ran, so it has no wall times (k = 0 has a fine wall of 0.0)
    assert all(r[5] == "" and r[6] == "" for r in skipped)
    flagged = [r for r in rows if r[1] == "2"]
    assert all("slice2" in r[7] for r in flagged)
    text_path = emit_report(report, "text-table", tmp_path)
    assert "blow-up: k=2 slice=2 phase=correction" in text_path.read_text()


def test_exact_at_last_undefined_on_zero_reference_field(grid8, tmp_path):
    # V and ETA are identically zero in the reference: their exact-at-last
    # value is undefined, as their error cells would be, and the text
    # table's worst field is taken over the defined ones
    from paratide import ModelParams, ModelState, PararealConfig, PropagatorSpec, SliceLayout, run_parareal
    from paratide.harness import _fine_run
    from conftest import constant_state

    layout = SliceLayout(t0=0, slice_length=600, n_slices=4)
    cfg = PararealConfig(
        layout=layout, coarse=PropagatorSpec(144), fine=PropagatorSpec(288), epsilon=0.0
    )

    def flow(state, n, k):
        return ModelState(state.grid, state.data * 0.9, state.time + 600)

    u0 = constant_state(grid8, u=1.0)
    reference = [u0]
    for n in range(4):
        reference.append(flow(reference[-1], n, -1))
    res = run_parareal(u0, cfg, ModelParams(), coarse_fn=flow, fine_fn=flow, reference=reference)
    assert res.iterations_run == 4 and not res.aborted

    fr = _fine_run(res, cfg, 1e-2, "zero-nf288", reference[-1])
    assert fr["exact_at_last"] == {"U": 0.0, "V": None, "ETA": None, "T": 0.0, "S": 0.0}
    report = {
        "run_id": "zero", "config_path": "", "config_hash": "x" * 12, "epsilon": 1e-2,
        "n_slices": 4, "slice_length": 600, "coarse_spd": 144,
        "monitored": [f.name for f in cfg.monitored_fields],
        "flags": {}, "fine_runs": [fr],
    }
    text = emit_report(report, "text-table", tmp_path).read_text()
    assert "exact at k=N_t: worst field rel max-norm 0.000e+00" in text


def test_single_slice_experiment_is_trivially_exact(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    path = tmp_path / "one.conf"
    path.write_text(
        "[config]\nslice_length = 2400\nn_slices = 1\ncoarse_spd = 36\n"
        "fine_spd = 72\nseed = 3\nspin_up_days = 0.25\nspin_up_spd = 288\n"
        "\n[model]\nnx = 16\nny = 16\n"
    )
    report, _ = run_experiment(parse_config(path))
    fr = report["fine_runs"][0]
    assert fr["iterations_run"] == 1
    assert fr["exact_at_last"] is not None
    assert all(v == 0.0 for v in fr["exact_at_last"].values())


def test_spin_up_shared_across_layouts(tmp_path, monkeypatch):
    # the spin-up does not depend on the slice layout, so two configs
    # differing only there integrate it once
    from paratide import harness

    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    a_path, b_path = tmp_path / "a.conf", tmp_path / "b.conf"
    a_path.write_text(SMALL)
    b_path.write_text(
        SMALL.replace("n_slices = 4", "n_slices = 2")
        .replace("slice_length = 2400", "slice_length = 4800")
    )
    a, b = parse_config(a_path), parse_config(b_path)
    assert a.hash() != b.hash()
    assert a.spin_up_hash() == b.spin_up_hash()

    calls = []
    real_integrate = harness.integrate
    monkeypatch.setattr(harness, "integrate", lambda *args: calls.append(1) or real_integrate(*args))
    state_a = spin_up(a)
    state_b = spin_up(b)
    assert len(calls) == 1
    assert state_a.bit_equal(state_b)
    # one file, also reachable from each config's own cache directory
    files = {p.stat().st_ino for p in (tmp_path / "runs").rglob("init_*.prcp")}
    assert len(files) == 1
    for config in (a, b):
        assert (runs_root(config) / "cache" / config.hash() / "init_43200.prcp").exists()


def test_spin_up_copied_where_hard_links_fail(small_config, monkeypatch):
    from paratide import harness

    def no_links(src, dst):
        raise PermissionError("hard links not supported")

    monkeypatch.setattr(harness.os, "link", no_links)
    state = spin_up(small_config)
    alias = runs_root(small_config) / "cache" / small_config.hash() / "init_43200.prcp"
    (shared,) = runs_root(small_config).rglob("spinup-*/init_43200.prcp")
    assert alias.read_bytes() == shared.read_bytes()
    assert spin_up(small_config).bit_equal(state)


@pytest.mark.parametrize("crossings, aborted, flagged", [
    ({"U": 1}, False, False),                      # no tracer monitored: nothing to flag
    ({"U": 1, "T": 3, "S": 1}, False, True),       # T crosses after U
    ({"U": 1, "T": 3, "S": 1}, True, False),       # an aborted run is skipped
], ids=["U-only", "T-later", "aborted"])
def test_tracer_anomaly_compares_monitored_tracers(crossings, aborted, flagged):
    from paratide.harness import _tracer_anomaly

    assert _tracer_anomaly([{"aborted": aborted, "first_crossing": crossings}]) is flagged


def test_error_cells_undefined_on_zero_reference_field(grid8, tmp_path):
    # V is identically zero in the reference: its relative error has no
    # denominator, so its cells say so in both norm columns of the CSV
    from paratide import ModelParams, ModelState, PararealConfig, PropagatorSpec, SliceLayout, run_parareal
    from paratide.harness import _fine_run
    from conftest import constant_state

    layout = SliceLayout(t0=0, slice_length=600, n_slices=2)
    cfg = PararealConfig(layout=layout, coarse=PropagatorSpec(144), fine=PropagatorSpec(288),
                         epsilon=0.0, monitored_fields=(Field.U, Field.V))

    def flow(state, n, k):
        return ModelState(state.grid, state.data * 0.9, state.time + 600)

    u0 = constant_state(grid8, u=1.0)
    reference = [u0, flow(u0, 0, -1), flow(flow(u0, 0, -1), 1, -1)]
    res = run_parareal(u0, cfg, ModelParams(), coarse_fn=flow, fine_fn=flow, reference=reference)
    fr = _fine_run(res, cfg, 1e-2, "zero-nf288", reference[-1])
    assert {(c["k"], c["field"]): c["status"] for c in fr["errors"]} == {
        (0, "U"): "ok", (0, "V"): "undefined", (1, "U"): "ok", (1, "V"): "undefined"}
    report = {
        "run_id": "zero", "config_path": "", "config_hash": "x" * 12, "epsilon": 1e-2,
        "n_slices": 2, "slice_length": 600, "coarse_spd": 144, "monitored": ["U", "V"],
        "flags": {}, "fine_runs": [fr],
    }
    rows = [r.split(",") for r in emit_report(report, "csv", tmp_path).read_text().splitlines()]
    assert [r[3:5] for r in rows[1:] if r[2] == "V"] == [["undefined", "undefined"]] * 2


def test_time_averaged_study_defaults_to_the_configured_spds(small_config):
    # avg-error without --spd-list: the coarse and fine step counts
    series = time_averaged_study(small_config)
    assert sorted(series) == [36, 72, 144, small_config.reference_spd]


def test_studies_judge_steps_before_the_spin_up(small_config, monkeypatch, tmp_path):
    # a step that divides the slices but breaks the CFL floor is refused
    # by the config's judge, under the study's own name, before any work
    from paratide import SliceLayout, harness

    monkeypatch.setattr(harness, "spin_up", lambda config: pytest.fail("spun up"))
    daily = dataclasses.replace(small_config, layout=SliceLayout(0, 86400, 2))
    with pytest.raises(ValidationError, match=r"^time-averaged study: spd=24: step of 3600s "
                                              r"exceeds the CFL step floor of 2700s"):
        time_averaged_study(daily, spd_list=(24,))
    with pytest.raises(ValidationError, match=r"^restart study: coarse_spd=24: step of 3600s "
                                              r"exceeds the CFL step floor of 2700s"):
        restart_consistency_study(dataclasses.replace(small_config, coarse_spd=24), (1, 2), 1.0)
    assert not (tmp_path / "runs").exists()
