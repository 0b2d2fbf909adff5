"""Acceptance suite: one test per criterion, each printing a pass line.

The experiment presets exercised here are the shipped exp1/exp3 configs;
run artifacts and caches live in one session directory so reference
trajectories are computed once and reused across criteria.
"""

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from paratide import (
    Field,
    ModelParams,
    PararealConfig,
    PropagatorSpec,
    SliceLayout,
    parse_config,
    propagate,
    read_checkpoint,
    rel_max_norm,
    run_parareal,
    speedup_estimate,
    state_add,
    state_diff,
    write_checkpoint,
)
from paratide.cli import main as cli_main
from paratide.checkpoint import crc64
from paratide.errors import CorruptCheckpointError
from paratide.harness import (
    restart_consistency_study,
    run_experiment,
    serial_reference,
    spin_up,
)
from paratide.metrics import measure_runtime_ratio
from paratide.solver import StepHistory, integrate, integrate_history
from paratide.state import FIELD_ORDER

from conftest import CONFIG_DIR, REPO_ROOT, constant_state, random_state
from test_solver import oracle_rhs, tendency
from test_state import naive_add, naive_diff

SINGLE_SHOT_EXP1 = (
    sys.executable, "-m", "paratide", "single-shot",
    "--config", str(CONFIG_DIR / "exp1.conf"),
)


@pytest.fixture(scope="module", autouse=True)
def acceptance_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-runs")
    previous = os.environ.get("PARAREAL_RUNS_DIR")
    os.environ["PARAREAL_RUNS_DIR"] = str(root)
    yield root
    if previous is None:
        os.environ.pop("PARAREAL_RUNS_DIR", None)
    else:
        os.environ["PARAREAL_RUNS_DIR"] = previous


@pytest.fixture(scope="module")
def exp1_config():
    return parse_config(CONFIG_DIR / "exp1.conf")


@pytest.fixture(scope="module")
def exp3_config():
    return parse_config(CONFIG_DIR / "exp3.conf")


@pytest.fixture(scope="module")
def exp1_u0(exp1_config, acceptance_root):
    return spin_up(exp1_config)


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_speedup_model(capsys):
    expected = {2: 0, 4: 2, 6: None, 8: 6}
    for m in (2, 4, 8):
        assert cli_main(["speedup", "--m", str(m), "--nt", "12"]) == 0
        out = capsys.readouterr().out
        limit = int(out.rsplit("max profitable K:", 1)[1].strip())
        assert limit == expected[m], f"m={m}"
    assert speedup_estimate(1, 12, 2.0) == pytest.approx(12.0 / 13.0, rel=1e-15)
    assert speedup_estimate(1, 12, 2.0) < 1.0
    with capsys.disabled():
        _passed(1, "profitable-iteration limits K<=0,2,6 for m=2,4,8; S(1,12,2)=12/13")


def test_criterion_2_parareal_exactness(exp1_config, exp1_u0, capsys):
    layout = exp1_config.layout
    for nf in exp1_config.fine_spds:
        reference = serial_reference(exp1_config, nf, exp1_u0)
        cfg = PararealConfig(
            layout=layout,
            coarse=PropagatorSpec(exp1_config.coarse_spd),
            fine=PropagatorSpec(nf),
            epsilon=0.0,
        )
        result = run_parareal(exp1_u0, cfg, exp1_config.params)
        assert result.iterations_run == layout.n_slices
        for f in FIELD_ORDER:
            err = rel_max_norm(result.final.field(f), reference[-1].field(f))
            assert err <= 1e-12, (nf, f, err)
        for k in range(layout.n_slices + 1):
            for n in range(min(k, layout.n_slices) + 1):
                assert result.iterates[k][n].bit_equal(reference[n]), (nf, k, n)
    with capsys.disabled():
        _passed(2, "U^{N_t} matches restarted fine run <=1e-12; slices n<=k bit-identical")


# CRC-64 of the concatenated slice states U^k_0..U^k_N_t of every iterate k
# for exp1 at nf 72, pinned from the code before the serial-reference and
# error paths were merged: any refactor of run_parareal must keep these bits.
GOLDEN_EXP1_NF72 = (
    0xE88C871AA28B6ABB, 0x7AC6FA1EE2DD2DA9, 0x917BFAB5A4BE6DFD, 0x293B8888FF495333,
    0x7FA6A1E4B8DC0F8E, 0x2D63FFCE647121DD, 0x051E1BBC3196B64C, 0xAC9C6581C18BACC2,
    0xA54B75686E9A0B10, 0x8249DAAB087AFE10, 0x2B8EC120154EC33E, 0x0E9C28EFC715C4C1,
    0x540D42FFE1828AAB,
)


def test_golden_iterate_digest_exp1_nf72(exp1_config, exp1_u0):
    cfg = PararealConfig(
        layout=exp1_config.layout,
        coarse=PropagatorSpec(exp1_config.coarse_spd, restart_policy=exp1_config.restart_policy),
        fine=PropagatorSpec(72, restart_policy=exp1_config.restart_policy),
        epsilon=0.0,
    )
    result = run_parareal(exp1_u0, cfg, exp1_config.params)
    assert result.iterations_run == exp1_config.layout.n_slices
    digests = tuple(
        crc64(b"".join(s.data.tobytes() for s in iterate)) for iterate in result.iterates
    )
    assert digests == GOLDEN_EXP1_NF72


# SHA-256 of exp1's report files as `paratide run` writes them, pinned from
# the code before the report became one report.json document.  What depends
# on the machine or the clock is left out: the first line of report.txt
# (the config path), the CSV timing columns, and config_path and the
# per-iteration walls in report.json (compared as its canonical dump).
GOLDEN_EXP1_REPORT = (
    "f0e06ebe78df72ece55b3c1ef9ff03b4e1a3e9be49f4bab961ad81f59e6bd943",  # report.txt
    "5b6566f93772160fc603c1ecaee338815dcece54ec40aabb9aa771be7a7605c7",  # errors.csv
    "68b4b39f1274259f05a6b70c4675006971dd37618572e54bb904c8a92d2c1982",  # report.json
)


def test_golden_report_digest_exp1(exp1_config):
    _, run_dir = run_experiment(exp1_config)
    text = (run_dir / "report.txt").read_text().split("\n", 1)[1]
    rows = [line.split(",") for line in (run_dir / "errors.csv").read_text().splitlines()]
    timing = {rows[0].index("wall_coarse_s"), rows[0].index("wall_fine_s")}
    csv = "".join(",".join(c for i, c in enumerate(r) if i not in timing) + "\n" for r in rows)
    doc = json.loads((run_dir / "report.json").read_text())
    del doc["config_path"]
    for fr in doc["fine_runs"]:
        del fr["wall"]
    canonical = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    digests = tuple(hashlib.sha256(x.encode()).hexdigest() for x in (text, csv, canonical))
    assert digests == GOLDEN_EXP1_REPORT


def test_criterion_3_restart_pathology(exp1_config, exp1_u0, capsys):
    (row,) = restart_consistency_study(exp1_config, slice_counts=(2,), total_days=1.0)
    assert row.warm_bit_exact
    assert row.warm_deviation == 0.0
    assert row.cold_deviation > 0.0
    with capsys.disabled():
        _passed(3, f"warm split bit-identical; cold split deviates ({row.cold_deviation:.2e})")


def test_criterion_4_state_algebra_checkpoint(tmp_path, grid8, params, capsys):
    rng = np.random.default_rng(123)
    a = random_state(grid8, rng)
    b = random_state(grid8, rng)
    d = state_diff(a, b)
    s = state_add(a, b)
    for f in FIELD_ORDER:
        assert np.array_equal(d.field(f), naive_diff(a.field(f), b.field(f)))
        assert np.array_equal(s.field(f), naive_add(a.field(f), b.field(f)))

    from paratide.solver import integrate_history
    h = integrate_history(StepHistory(a), 7200, 2400, params)
    path = tmp_path / "x.prcp"
    write_checkpoint(h.current, h, path, slice_index=1, iteration=2)
    ck = read_checkpoint(path, grid=grid8)
    assert ck.state.bit_equal(h.current)
    rebuilt = ck.step_history(2400)
    assert rebuilt.dt == h.dt
    for t1, t2 in zip(h.tendencies, rebuilt.tendencies, strict=True):
        assert t1.tobytes() == t2.tobytes()

    blob = bytearray(path.read_bytes())
    blob[50] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        read_checkpoint(path, grid=grid8)
    with capsys.disabled():
        _passed(4, "round-trip bit-identical; algebra matches scalar oracle; corrupt file rejected")


def test_criterion_5_solver_correctness(grid8, params, settled_state, capsys):
    # conservation per step
    h = StepHistory(settled_state)
    before = {f: settled_state.field(f).sum() for f in (Field.ETA, Field.T, Field.S)}
    for _ in range(5):
        h = integrate_history(h, h.current.time + 2400, 2400, params)
    for f, value in before.items():
        denom = max(np.abs(settled_state.field(f)).sum(), 1e-300)
        assert abs(h.current.field(f).sum() - value) / denom <= 1e-10

    # observed AB3 order on the closed-form inertial oscillation
    p = ModelParams(forcing_amp=0.0, nu_h=0.0)
    errs = []
    for dt in (2400, 1200, 600):
        out = integrate(constant_state(grid8, u=0.5, temp=0.0, salt=0.0), 43200, dt, p)
        exact_u = 0.5 * np.cos(p.f0 * 43200)
        exact_v = -0.5 * np.sin(p.f0 * 43200)
        errs.append(max(
            np.abs(out.field(Field.U) - exact_u).max(),
            np.abs(out.field(Field.V) - exact_v).max(),
        ))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.7, orders

    # rhs against the independent loop oracle
    rng = np.random.default_rng(5)
    s = random_state(grid8, rng)
    t = tendency(s, params)
    expected = oracle_rhs(s, params)
    for f in Field:
        scale = max(np.abs(expected[f]).max(), 1e-30)
        assert np.abs(t[f.value] - expected[f]).max() <= 1e-13 * scale
    with capsys.disabled():
        _passed(5, f"conservation <=1e-10/step; AB3 order {min(orders):.2f}; rhs matches oracle")


def test_criterion_6_runtime_ratio(exp1_config, exp1_u0, capsys):
    measured = {}
    for nf in (72, 144, 288):
        m = measure_runtime_ratio(
            PropagatorSpec(36), PropagatorSpec(nf), exp1_u0, 86400, exp1_config.params,
            repetitions=7,
        )
        ideal = nf / 36.0
        assert abs(m - ideal) <= 0.25 * ideal, (nf, m)
        measured[nf] = m
    with capsys.disabled():
        _passed(6, "measured m within 25% of step ratio: "
                   + ", ".join(f"{nf}:{m:.2f}" for nf, m in measured.items()))


def test_criterion_7_qualitative_convergence(exp1_config, exp3_config, capsys):
    reports = {}
    for label, config in (("exp1", exp1_config), ("exp3", exp3_config)):
        report, _ = run_experiment(config, run_id=f"accept-{label}")
        reports[label] = report
        # complete per-iteration data: every (k, field) cell for every
        # configured fine step count is present and resolved
        for fr in report["fine_runs"]:
            assert not fr["aborted"]
            cells = {(c["k"], c["field"]): c["status"] for c in fr["errors"]}
            for k in range(config.layout.n_slices):
                for f in config.monitored_fields:
                    assert cells.get((k, f.name)) in ("ok", "undefined"), (label, k, f)
            assert fr["exact_at_last"] is not None

    inf = float("inf")

    def crossing(report, nf, field):
        fr = {r["fine_spd"]: r for r in report["fine_runs"]}[nf]
        value = fr["first_crossing"].get(field)
        return inf if value is None else value

    flags = []
    for report in reports.values():
        flags.append(("tracer_crossing_anomaly", report["flags"]["tracer_crossing_anomaly"]))
    for nf in exp1_config.fine_spds:
        slower_with_longer_slices = crossing(reports["exp3"], nf, "U") >= crossing(
            reports["exp1"], nf, "U"
        )
        flags.append((f"exp3_U_crossing_not_earlier_nf{nf}", slower_with_longer_slices))
    with capsys.disabled():
        rendered = ", ".join(f"{name}={'yes' if v else 'NO'}" for name, v in flags)
        _passed(7, f"complete per-iteration reports; directional flags: {rendered}")


def test_criterion_8_external_equivalence(exp1_config, exp1_u0, acceptance_root, capsys):
    layout = exp1_config.layout
    nf = 144
    internal_cfg = PararealConfig(
        layout=layout,
        coarse=PropagatorSpec(exp1_config.coarse_spd),
        fine=PropagatorSpec(nf),
        epsilon=0.0,
    )
    internal = run_parareal(exp1_u0, internal_cfg, exp1_config.params)

    external_cfg = PararealConfig(
        layout=layout,
        coarse=PropagatorSpec(exp1_config.coarse_spd, mode="external", command=SINGLE_SHOT_EXP1),
        fine=PropagatorSpec(nf, mode="external", command=SINGLE_SHOT_EXP1),
        epsilon=0.0,
        max_parallel_fine=4,
    )
    external = run_parareal(
        exp1_u0, external_cfg, exp1_config.params,
        run_dir=acceptance_root / "external-equivalence",
    )
    assert external.iterations_run == internal.iterations_run
    for k, (ia, ib) in enumerate(zip(internal.iterates, external.iterates)):
        for n, (a, b) in enumerate(zip(ia, ib)):
            assert a.bit_equal(b), (k, n)
    with capsys.disabled():
        _passed(8, f"external single-shot run bit-identical to internal over {internal.iterations_run} iterations")


def test_fine_child_writes_the_two_tendencies_a_step_reads(exp1_config, exp1_u0, tmp_path):
    # a fine single-shot child at exp1 nf 144 (32x32): a 33-byte header,
    # the state and two tendency blocks of 40,960 bytes each, an 8-byte CRC
    spec = PropagatorSpec(144, mode="external", command=SINGLE_SHOT_EXP1)
    t_end = exp1_u0.time + exp1_config.layout.slice_length
    h = propagate(spec, StepHistory(exp1_u0), t_end, exp1_config.params, workdir=tmp_path)
    assert (tmp_path / "out.prcp").stat().st_size == 122_921
    assert (len(h.tendencies), h.dt) == (2, 600)


def test_readme_library_example_runs(exp1_u0, monkeypatch, capsys):
    # README's "Library example" as written, from the repository root;
    # exp1_u0 has cached the spin-up it starts from
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(block, "README.md", "exec"), {})
    iterations, stopped = capsys.readouterr().out.splitlines()[0].split()
    assert int(iterations) >= 0 and stopped in ("True", "False")


def test_criterion_9_determinism(exp1_config, capsys):
    def strip_timings(csv_text):
        rows = []
        for line in csv_text.splitlines():
            cols = line.split(",")
            del cols[5:7]  # wall_coarse_s, wall_fine_s
            rows.append(",".join(cols))
        return "\n".join(rows)

    # the run id derives from the config alone, so both runs share it (and
    # the second overwrites the first's artifacts, which must not matter)
    outputs = []
    for workers in (1, 12):
        config = dataclasses.replace(exp1_config, max_parallel_fine=workers)
        _, run_dir = run_experiment(config)
        outputs.append(strip_timings((run_dir / "errors.csv").read_text()))
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        _passed(9, "identical CSV bytes (timing columns excluded) for max_parallel_fine 1 vs 12")
