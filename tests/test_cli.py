"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main so exit codes, stdout/stderr,
and artifact bytes are all observable without spawning subprocesses.
"""

import csv
import math
import types
from dataclasses import fields

import numpy as np
import pytest

from lllsim import cli, driver, refinement, threads
from lllsim.driver import REPORT_COLUMNS, RunConfig
from lllsim.geometry import Subspace
from lllsim.lowerbound import LedgerReport


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- simulate


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "simulate", "--d", 30, "--k", 2, "--m", 10, "--seed", 1, "-o", out
    )
    assert rc == 0
    for name in ("runs.csv", "summary_basic.csv", "report.txt", "config.resolved"):
        assert (out / name).exists()
    rows = read_csv(out / "runs.csv")
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 1 + 10  # header + one row per task
    assert all(r[2] == "basic" for r in rows[1:])
    report = (out / "report.txt").read_text()
    assert "invariants: PASS" in report
    assert "exit code: 0" in report


def test_simulate_resolved_config_roundtrip(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli("simulate", "--d", 30, "--k", 2, "--m", 10, "--seed", 3, "-o", first) == 0
    assert run_cli("simulate", "--config", first / "config.resolved", "-o", second) == 0
    assert (first / "runs.csv").read_bytes() == (second / "runs.csv").read_bytes()
    assert (
        (first / "summary_basic.csv").read_bytes()
        == (second / "summary_basic.csv").read_bytes()
    )


def test_simulate_mode_all(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "simulate", "--d", 30, "--k", 2, "--m", 10, "--mode", "all",
        "--trials", 2, "--seed", 5, "-o", out,
    )
    assert rc == 0
    for mode in ("basic", "rr", "joint"):
        assert (out / f"summary_{mode}.csv").exists()
    modes_seen = {r[2] for r in read_csv(out / "runs.csv")[1:]}
    assert modes_seen == {"basic", "rr", "joint"}
    trials_seen = {r[0] for r in read_csv(out / "runs.csv")[1:]}
    assert trials_seen == {"0", "1"}


def test_simulate_parallel_jobs_reproduce_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ("simulate", "--d", 30, "--k", 2, "--m", 10, "--mode", "all")
    args += ("--trials", 3, "--seed", 7)
    assert run_cli(*args, "--jobs", 1, "-o", serial) == 0
    assert run_cli(*args, "--jobs", 3, "-o", parallel) == 0
    names = ["runs.csv"] + [f"summary_{mode}.csv" for mode in ("basic", "rr", "joint")]
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize(
    "trials, jobs, cores, workers", [(2, 2, 8, 2), (2, 4, 2, 2), (1, 4, 8, 3)]
)
def test_simulate_mode_all_starts_one_pool(
    tmp_path, monkeypatch, recorded_pools, trials, jobs, cores, workers
):
    # every mode's trials share one pool of min(jobs, 3 * trials, cores)
    monkeypatch.setattr(driver, "available_cores", lambda: cores)
    rc = run_cli(
        "simulate", "--d", 30, "--k", 2, "--m", 10, "--mode", "all",
        "--trials", trials, "--jobs", jobs, "--seed", 5, "-o", tmp_path / "out",
    )
    assert rc == 0
    assert recorded_pools == [
        (workers, threads.set_fill_share, (cores // workers,))
    ]


def test_simulate_montecarlo_checks(tmp_path):
    rc = run_cli(
        "simulate", "--d", 30, "--k", 2, "--m", 8, "--check-mode", "montecarlo",
        "--seed", 2, "-o", tmp_path / "mc",
    )
    assert rc == 0


def test_simulate_missing_k_prints_usage(tmp_path, capsys):
    rc = run_cli("simulate", "--d", 30, "--m", 10, "-o", tmp_path / "x")
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing required key(s): k" in err
    assert "usage:" in err


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("d=30\nk=2\nm=10\nbogus=1\n")
    rc = run_cli("simulate", "--config", cfg, "-o", tmp_path / "x")
    assert rc == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_simulate_bad_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("d=30\nk=two\nm=10\n")
    rc = run_cli("simulate", "--config", cfg, "-o", tmp_path / "x")
    assert rc == 2
    assert "bad value for 'k'" in capsys.readouterr().err


def test_simulate_duplicate_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("d=30\nd=40\nk=2\nm=10\n")
    rc = run_cli("simulate", "--config", cfg, "-o", tmp_path / "x")
    assert rc == 2
    assert "duplicate key 'd'" in capsys.readouterr().err


def test_simulate_rejects_invalid_combination(tmp_path, capsys):
    rc = run_cli("simulate", "--d", 30, "--k", 9, "--m", 5, "-o", tmp_path / "x")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["rr", "all"])
def test_simulate_rr_with_k_equal_d_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, mode
):
    # refinement needs k < d, so the config is rejected before a trial runs
    runs = []
    real_run_one = driver.run_one
    monkeypatch.setattr(
        driver, "run_one", lambda cfg: runs.append(cfg) or real_run_one(cfg)
    )
    out = tmp_path / "x"
    rc = run_cli("simulate", "--d", 5, "--k", 5, "--m", 30, "--mode", mode, "-o", out)
    assert rc == 2
    assert "rr mode needs k < d, got k=5, d=5" in capsys.readouterr().err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mode", "all", "--N", 0], "joint mode needs N >= 1"),
        (["--mode", "rr", "--c-s", "inf"], "c_s must be positive and finite, got inf"),
        (
            ["--mode", "rr", "--sdp-tol", "nan"],
            "sdp_tol must be positive and finite, got nan",
        ),
    ],
    ids=["joint-N-0", "rr-c-s-inf", "rr-sdp-tol-nan"],
)
def test_simulate_config_error_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, flags, message
):
    runs = []
    monkeypatch.setattr(driver, "run_one", lambda cfg: runs.append(cfg))
    out = tmp_path / "x"
    rc = run_cli("simulate", "--d", 20, "--k", 2, "--m", 10, *flags, "-o", out)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert runs == [] and not out.exists()


_SIMULATE = ("simulate", "--d", 20, "--k", 2, "--m", 5)
_REFINE = ("refine", "--input", "feats.txt", "--k", 3)
_LOWERBOUND = ("lowerbound", "--k", 4)


@pytest.mark.parametrize(
    "flags",
    [
        (*_SIMULATE, "--epsilon-acc", "0.05"),
        (*_SIMULATE, "--refine-every", "threshold"),
        (*_REFINE, "--c", 3),
        (*_REFINE, "--no-trim"),
        (*_LOWERBOUND, "--eps-vector", "0.1,0.1,0.1,0.1"),
        (*_SIMULATE, "--mode", "rr", "--sdp-max-iters", 2),
    ],
)
def test_simulate_removed_flags_exit_2(tmp_path, capsys, flags):
    # epsilon_acc is derived from acc_constant, r_max alone sets the
    # schedule, refine has one rounding rule, lowerbound's eps takes a list
    # and the solver derives its own iteration budget
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli(*flags, "-o", out)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, lines, line",
    [
        pytest.param("simulate", "d=20\nk=2\nm=5\nr_max=3", line, id=line)
        for line in ("refine_every=threshold", "epsilon_acc=0.05", "sdp_max_iters=5")
    ]
    + [
        pytest.param("refine", "input=feats.txt\nk=3", line, id=line)
        for line in ("c=3", "trim=false")
    ]
    + [
        pytest.param(
            "lowerbound", "k=4", "eps_vector=0.1,0.1,0.1,0.1", id="eps_vector=0.1,..."
        )
    ],
)
def test_simulate_removed_config_keys_exit_2(tmp_path, capsys, command, lines, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{lines}\n{line}\n")
    out = tmp_path / "x"
    assert run_cli(command, "--config", cfg, "-o", out) == 2
    assert f"unknown config key {line.split('=')[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--d", 20, "--k", 2, "--m", 5, "--trials", 2, "--jobs", 2),
        ("sweep", "--d-grid", "20,30", "--k", 2, "--m", 5, "--trials", 2, "--jobs", 2),
        ("refine", "--k", 1),
        ("lowerbound", "--k", 4),
    ],
    ids=["simulate", "sweep", "refine", "lowerbound"],
)
def test_output_path_is_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, recorded_pools, command
):
    monkeypatch.setattr(driver, "available_cores", lambda: 8)
    solves = []
    monkeypatch.setattr(
        refinement, "solve_refinement_sdp", lambda *a, **kw: solves.append(a)
    )
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0 0\n0 1 0\n")
    extra = ("--input", feats) if command[0] == "refine" else ()
    target = tmp_path / "afile"
    target.write_text("keep\n")
    assert run_cli(*command, *extra, "-o", target) == 2
    err = capsys.readouterr().err
    assert f"output path {target} exists and is not a directory" in err
    assert recorded_pools == [] and solves == []
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize(
    "command, stub",
    [
        (("simulate", "--d", 10, "--k", 2, "--m", 4), (driver, "run_one")),
        (("lowerbound", "--k", 4), (cli, "build_instance")),
    ],
    ids=["simulate", "lowerbound"],
)
def test_output_path_below_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, stub
):
    # the path itself does not exist; mkdir would fail on its parent, a file
    calls = []
    monkeypatch.setattr(*stub, lambda *a, **kw: calls.append(a))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    target = afile / "sub"
    assert run_cli(*command, "-o", target) == 2
    err = capsys.readouterr().err
    assert f"output path {target} lies below {afile}, which exists and is not" in err
    assert calls == []
    assert afile.read_text() == "keep\n"


def test_simulate_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("d=30\nk=2\nm=10\nseed=1\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--seed", 9, "-o", out) == 0
    resolved = dict(
        line.split("=", 1) for line in (out / "config.resolved").read_text().splitlines()
    )
    assert resolved["seed"] == "9"
    assert resolved["d"] == "30"


_RUN_ECHO = {
    "N", "acc_constant", "c_s", "check_mode", "epsilon", "jobs", "k", "m", "mode",
    "output_dir", "sdp_tol", "seed", "trials",
}


@pytest.mark.parametrize(
    "command, keys",
    [
        (("simulate", "--d", 20, "--k", 2, "--m", 5), _RUN_ECHO | {"d"}),
        (("sweep", "--d-grid", "20,30", "--k", 2, "--m", 5), _RUN_ECHO | {"d_grid"}),
        (("refine", "--k", 1), {"input", "k", "output_dir", "tol"}),
        (
            ("lowerbound", "--k", 4, "--trials", 10),
            {"eps", "eps_target", "k", "n_random", "output_dir", "seed", "trials"},
        ),
    ],
    ids=["simulate", "sweep", "refine", "lowerbound"],
)
def test_config_resolved_lists_every_resolved_key(tmp_path, command, keys):
    # defaults included; only unset keys (r_max, refine's max_iters, ...) left out
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n0 1\n")
    extra = ("--input", feats) if command[0] == "refine" else ()
    out = tmp_path / "out"
    assert run_cli(*command, *extra, "-o", out) == 0
    lines = (out / "config.resolved").read_text().splitlines()
    assert {line.split("=", 1)[0] for line in lines} == keys


def test_simulate_env_var_names_default_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(target))
    assert run_cli("simulate", "--d", 30, "--k", 2, "--m", 6, "--seed", 4) == 0
    assert (target / "runs.csv").exists()


def test_simulate_solver_nonconvergence_exit_4(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "simulate", "--d", 60, "--k", 4, "--m", 40, "--mode", "rr",
        "--sdp-tol", "1e-12", "--seed", 0, "-o", out,
    )
    assert rc == 4
    assert "exit code: 4" in (out / "report.txt").read_text()


def test_simulate_invariant_failure_beats_solver_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_check_invariants", lambda cfg, reports: ["forced"])
    rc = run_cli(
        "simulate", "--d", 60, "--k", 4, "--m", 40, "--mode", "rr",
        "--sdp-tol", "1e-12", "--seed", 0, "-o", tmp_path / "out",
    )
    assert rc == 3
    assert "exit code: 3" in (tmp_path / "out" / "report.txt").read_text()


# ---------------------------------------------------- invariant checker unit


def _stub_report(**over):
    base = dict(
        samples_cum_curve=np.array([100, 250]),
        samples_total=250,
        error_contract_ok=True,
        feature_dim_curve=np.array([1, 2]),
        refinement_converged=True,
    )
    base.update(over)
    return types.SimpleNamespace(**base)


def test_check_invariants_accepts_clean_report():
    cfg = RunConfig(d=30, k=2, m=10, mode="basic")
    assert cli._check_invariants(cfg, [_stub_report()]) == []


def test_check_invariants_flags_sample_mismatch():
    cfg = RunConfig(d=30, k=2, m=10, mode="basic")
    bad = _stub_report(samples_total=999)
    assert any("cumulative samples" in p for p in cli._check_invariants(cfg, [bad]))


def test_check_invariants_flags_error_contract_in_oracle_mode():
    cfg = RunConfig(d=30, k=2, m=10, mode="rr")
    bad = _stub_report(error_contract_ok=False)
    assert any("error above epsilon" in p or "error" in p for p in cli._check_invariants(cfg, [bad]))


def test_check_invariants_ignores_error_contract_in_montecarlo_mode():
    cfg = RunConfig(d=30, k=2, m=10, mode="rr", check_mode="montecarlo")
    report = _stub_report(error_contract_ok=False)
    assert cli._check_invariants(cfg, [report]) == []


def test_check_invariants_flags_dim_decrease_for_basic():
    cfg = RunConfig(d=30, k=2, m=10, mode="basic")
    bad = _stub_report(feature_dim_curve=np.array([2, 1]))
    assert any("decreased" in p for p in cli._check_invariants(cfg, [bad]))


def test_check_invariants_flags_rr_dim_above_cap():
    cfg = RunConfig(d=30, k=2, m=10, mode="rr")
    bad = _stub_report(feature_dim_curve=np.array([1, 4]))  # cap is 2k-1 = 3
    assert any("exceeded 3" in p for p in cli._check_invariants(cfg, [bad]))


def test_check_invariants_threshold_mode_raises_cap():
    cfg = RunConfig(d=30, k=2, m=10, mode="rr", r_max=5)
    report = _stub_report(feature_dim_curve=np.array([1, 4]))
    assert cli._check_invariants(cfg, [report]) == []


# ------------------------------------------------------------------- sweep


def test_sweep_d_grid_writes_points_and_fit(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "sweep", "--d-grid", "30,50", "--k", 3, "--m", 15,
        "--trials", 2, "--seed", 2, "-o", out,
    )
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["axis", "value", "trials", "mean_samples_total", "std_samples_total"]
    assert [r[:2] for r in rows[1:]] == [["d", "30"], ["d", "50"]]
    report = (out / "report.txt").read_text()
    assert "slope*d" in report and "R2=" in report


@pytest.mark.parametrize(
    "grid", [("--d-grid", "30,40"), ("--d-grid", "30", "--epsilon-grid", "0.2,0.1")]
)
def test_sweep_starts_one_pool(tmp_path, monkeypatch, recorded_pools, grid):
    # every grid point's trials share one pool of min(jobs, trials, cores)
    monkeypatch.setattr(driver, "available_cores", lambda: 8)
    rc = run_cli(
        "sweep", *grid, "--d", 30, "--k", 2, "--m", 10, "--trials", 2,
        "--jobs", 4, "--seed", 1, "-o", tmp_path / "out",
    )
    assert rc == 0
    assert recorded_pools == [(4, threads.set_fill_share, (2,))]


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize(
    "command", [("simulate",), ("sweep", "--d-grid", "20,30")], ids=["simulate", "sweep"]
)
def test_nonpositive_jobs_exit_2_before_any_trial(
    tmp_path, capsys, monkeypatch, command, jobs
):
    def no_trial(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(driver, "run_one", no_trial)
    out = tmp_path / "x"
    rc = run_cli(*command, "--d", 20, "--k", 2, "--m", 5, "--jobs", jobs, "-o", out)
    assert rc == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, name",
    [
        (("--d-grid", "20,30,20"), "d_grid"),
        (("--epsilon-grid", "0.1,0.2,0.10"), "epsilon_grid"),
    ],
    ids=["d_grid", "epsilon_grid"],
)
def test_sweep_repeated_grid_value_exits_2_before_any_pool(
    tmp_path, capsys, monkeypatch, recorded_pools, grid, name
):
    # one distinct value cannot carry a fit, and a repeat reruns its trials
    monkeypatch.setattr(driver, "available_cores", lambda: 8)
    out = tmp_path / "x"
    rc = run_cli(
        "sweep", *grid, "--d", 20, "--k", 2, "--m", 5, "--trials", 2,
        "--jobs", 2, "-o", out,
    )
    assert rc == 2
    assert f"{name} repeats a value" in capsys.readouterr().err
    assert recorded_pools == [] and not out.exists()


def test_sweep_epsilon_grid_fits_inverse_epsilon(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "sweep", "--epsilon-grid", "0.2,0.1", "--d", 30, "--k", 2, "--m", 10,
        "--trials", 2, "--seed", 1, "-o", out,
    )
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert [r[:2] for r in rows[1:]] == [["epsilon", "0.2"], ["epsilon", "0.1"]]
    report = (out / "report.txt").read_text()
    assert "slope/epsilon" in report
    assert "samples_total increases as epsilon decreases: yes" in report


def test_sweep_singleton_grid_skips_fit(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "sweep", "--epsilon-grid", "0.1", "--d", 30, "--k", 2, "--m", 10, "-o", out
    )
    assert rc == 0
    assert "fit skipped (single grid point)" in (out / "report.txt").read_text()


def test_sweep_requires_some_grid(tmp_path, capsys):
    rc = run_cli("sweep", "--k", 2, "--m", 10, "-o", tmp_path / "x")
    assert rc == 2
    assert "d_grid and/or epsilon_grid" in capsys.readouterr().err


def test_sweep_epsilon_grid_requires_d(tmp_path, capsys):
    rc = run_cli(
        "sweep", "--epsilon-grid", "0.2,0.1", "--k", 2, "--m", 10, "-o", tmp_path / "x"
    )
    assert rc == 2
    assert "needs d" in capsys.readouterr().err


def test_sweep_resolved_config_roundtrip(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ("sweep", "--d-grid", "30,40", "--k", 2, "--m", 10, "--trials", 2, "--seed", 6)
    assert run_cli(*args, "-o", first) == 0
    assert run_cli("sweep", "--config", first / "config.resolved", "-o", second) == 0
    assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()


def test_sweep_takes_run_keys_as_flags(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "sweep", "--d-grid", "30,40", "--k", 2, "--m", 10, "--sdp-tol", "1e-3",
        "--check-mode", "montecarlo", "--seed", 1, "-o", out,
    )
    assert rc == 0
    resolved = dict(
        line.split("=", 1) for line in (out / "config.resolved").read_text().splitlines()
    )
    assert resolved["sdp_tol"] == "0.001"
    assert resolved["check_mode"] == "montecarlo"


# ------------------------------------------------------------------ refine


def test_refine_two_axes_reports_half(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n0 1\n")
    out = tmp_path / "out"
    rc = run_cli("refine", "--input", feats, "--k", 1, "-o", out)
    assert rc == 0
    stdout = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert math.isclose(float(values["t_star"]), 0.5, abs_tol=1e-3)
    assert values["converged"] == "yes"
    assert values["rounded_dim"] == "1"
    basis = np.loadtxt(out / "refined_basis.txt", ndmin=2)
    assert basis.shape == (1, 2)
    assert math.isclose(float(np.linalg.norm(basis)), 1.0, abs_tol=1e-9)


def test_refine_single_row_is_exact(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n")
    rc = run_cli("refine", "--input", feats, "--k", 1, "-o", tmp_path / "out")
    assert rc == 0
    values = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(values["t_star"]) == 0.0
    assert float(values["max_distance"]) <= 1e-9


def test_refine_normalizes_non_unit_rows_with_warning(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("2 0 0\n0 3 0\n")
    rc = run_cli("refine", "--input", feats, "--k", 1, "-o", tmp_path / "out")
    assert rc == 0
    assert "normalized 2 non-unit feature rows" in capsys.readouterr().err


def test_refine_k_must_be_below_ambient_dim(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n0 1\n")
    rc = run_cli("refine", "--input", feats, "--k", 2, "-o", tmp_path / "out")
    assert rc == 2
    assert "1 <= k < d" in capsys.readouterr().err


def test_refine_rejects_zero_row(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0 0\n0 0 0\n")
    rc = run_cli("refine", "--input", feats, "--k", 1, "-o", tmp_path / "out")
    assert rc == 2
    assert "zero row" in capsys.readouterr().err


def test_refine_rejects_unreadable_input(tmp_path, capsys):
    rc = run_cli("refine", "--input", tmp_path / "nope.txt", "--k", 1, "-o", tmp_path / "o")
    assert rc == 2
    assert "cannot parse feature file" in capsys.readouterr().err


def test_refine_ragged_rows_exit_2(tmp_path, capsys):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0 0\n0 1\n")
    rc = run_cli("refine", "--input", feats, "--k", 1, "-o", tmp_path / "out")
    assert rc == 2
    assert "cannot parse feature file" in capsys.readouterr().err


def test_refine_dump_writes_solver_state(tmp_path):
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n0 1\n")
    out = tmp_path / "out"
    rc = run_cli("refine", "--input", feats, "--k", 1, "--dump", "sol.dump", "-o", out)
    assert rc == 0
    dump = (out / "sol.dump").read_text()
    assert dump.startswith("t ")
    assert "weights " in dump


_NO_DIR = "which is neither the output directory nor an existing directory"


@pytest.mark.parametrize(
    "dump, message",
    [
        (lambda tmp: tmp / "missing" / "d.txt", _NO_DIR),
        (lambda tmp: "sub/d.txt", _NO_DIR),  # relative: under the output dir
        (lambda tmp: tmp, "is a directory"),
    ],
    ids=["absolute-missing-dir", "relative-missing-subdir", "a-directory"],
)
def test_refine_bad_dump_path_exits_2_before_the_solver(
    tmp_path, capsys, monkeypatch, dump, message
):
    calls = []
    monkeypatch.setattr(
        refinement, "solve_refinement_sdp", lambda *a, **kw: calls.append(a)
    )
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n0 1\n")
    out = tmp_path / "out"
    rc = run_cli(
        "refine", "--input", feats, "--k", 1, "--dump", dump(tmp_path), "-o", out
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_refine_resolved_config_roundtrip(tmp_path, near_planted_rows):
    # the default tol is recorded, and the relative dump lands in each run's dir
    feats = tmp_path / "feats.txt"
    np.savetxt(feats, near_planted_rows(2))
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ("refine", "--input", feats, "--k", 3, "--dump", "d.txt")
    assert run_cli(*args, "-o", first) == 0
    assert run_cli("refine", "--config", first / "config.resolved", "-o", second) == 0
    for name in ("refined_basis.txt", "d.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_refine_nonconvergence_exit_4(tmp_path, capsys):
    W = np.random.default_rng(0).standard_normal((20, 10))
    W /= np.linalg.norm(W, axis=1)[:, None]
    feats = tmp_path / "feats.txt"
    np.savetxt(feats, W)
    rc = run_cli(
        "refine", "--input", feats, "--k", 3, "--max-iters", 50, "-o", tmp_path / "out"
    )
    assert rc == 4
    assert "converged=no" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", -1, "tol must be nonnegative and finite, got -1.0"),
        ("--tol", "inf", "tol must be nonnegative and finite, got inf"),
        ("--tol", "nan", "tol must be nonnegative and finite, got nan"),
        ("--max-iters", 0, "max_iters must be >= 1, got 0"),
    ],
    ids=["tol", "tol-inf", "tol-nan", "max_iters"],
)
def test_refine_bad_option_exits_2_before_the_solver(
    tmp_path, capsys, flag, value, message
):
    # the solver checks its arguments before its first iteration
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0 0\n0 1 0\n0 0.6 0.8\n")
    out = tmp_path / "out"
    rc = run_cli("refine", "--input", feats, "--k", 1, flag, value, "-o", out)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _off_span(sol):
    """A rounding orthogonal to every feature: distance 1 from each of them."""
    r = sol.Q.shape[1]
    U = np.linalg.svd(sol.Q, full_matrices=True)[0]  # columns r.. span Q's complement
    return Subspace(U[:, r : r + 1])


_RR = ("--mode", "rr", "--k", 2, "--m", 5, "--trials", 2)


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", *_RR, "--d", 20, "--jobs", 1),
        ("simulate", *_RR, "--d", 20, "--jobs", 2),
        ("sweep", *_RR, "--d-grid", "20,30"),
        ("refine", "--k", 1),
    ],
    ids=["simulate-jobs-1", "simulate-jobs-2", "sweep", "refine"],
)
def test_broken_certificate_exits_3_from_every_command(
    tmp_path, capsys, monkeypatch, command
):
    # a rounding far from the features breaks the certificate's distance
    # bound, in a trial (also in a pool worker) as in refine itself
    monkeypatch.setattr(driver, "available_cores", lambda: 2)
    monkeypatch.setattr(refinement, "round_sdp", _off_span)
    feats = tmp_path / "feats.txt"
    feats.write_text("1 0\n")
    extra = ("--input", feats) if command[0] == "refine" else ()
    out = tmp_path / "out"
    assert run_cli(*command, *extra, "-o", out) == cli.EXIT_INVARIANT
    assert "exceeds bound" in capsys.readouterr().err
    assert not out.exists()


def test_refine_near_planted_converges_exit_0(tmp_path, capsys, near_planted_rows):
    feats = tmp_path / "feats.txt"
    np.savetxt(feats, near_planted_rows(1))
    rc = run_cli("refine", "--input", feats, "--k", 3, "-o", tmp_path / "out")
    assert rc == 0
    assert "converged=yes" in capsys.readouterr().out


# -------------------------------------------------------------- lowerbound


def test_lowerbound_writes_angles_and_ledger(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli(
        "lowerbound", "--k", 8, "--eps", "0.1", "--trials", 64, "--seed", 3, "-o", out
    )
    assert rc == 0
    angle_rows = read_csv(out / "angles.csv")
    assert angle_rows[0] == ["task_index", "angle", "threshold", "exceeds"]
    assert len(angle_rows) == 1 + 64
    ledger_rows = read_csv(out / "ledger.csv")
    assert ledger_rows[0] == ["allocation"] + [f.name for f in fields(LedgerReport)]
    assert [r[0] for r in ledger_rows[1:]] == ["instance", "uniform"]
    # uniform split of the target is always feasible; holder floor matches it
    uniform = dict(zip(ledger_rows[0], ledger_rows[1 + 1]))
    assert uniform["feasible"] == "1"
    assert math.isclose(
        float(uniform["basis_cost"]), 9 * 8**1.5 / 0.1, rel_tol=1e-9
    )
    stdout = capsys.readouterr().out
    assert "fraction_exceeding=" in stdout


def test_lowerbound_uses_instance_tasks_when_n_random_given(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("lowerbound", "--k", 4, "--n-random", 50, "--seed", 1, "-o", out)
    assert rc == 0
    assert len(read_csv(out / "angles.csv")) == 1 + 50


def test_lowerbound_eps_list_is_the_vector(tmp_path):
    # one value applies to every coordinate; k values give the vector
    one, four, mixed = tmp_path / "one", tmp_path / "four", tmp_path / "mixed"
    assert run_cli("lowerbound", "--k", 4, "--eps", "0.1", "-o", one) == 0
    assert run_cli("lowerbound", "--k", 4, "--eps", "0.1,0.1,0.1,0.1", "-o", four) == 0
    for name in ("angles.csv", "ledger.csv"):
        assert (one / name).read_bytes() == (four / name).read_bytes()
    eps = [0.05, 0.1, 0.1, 0.08]
    rc = run_cli("lowerbound", "--k", 4, "--eps", ",".join(map(str, eps)), "-o", mixed)
    assert rc == 0
    rows = read_csv(mixed / "ledger.csv")
    instance = dict(zip(rows[0], rows[1]))
    assert math.isclose(
        float(instance["basis_cost"]), 5 * sum(1 / e for e in eps), rel_tol=1e-12
    )


def test_lowerbound_eps_vector_length_checked(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli("lowerbound", "--k", 4, "--eps", "0.1,0.1", "-o", out) == 2
    assert "eps takes 1 or k=4 values, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_lowerbound_rejects_out_of_range_eps(tmp_path, capsys):
    # NaN fails every comparison, so it must be caught as out of range
    for eps in ("0.6", "nan", "0.1,nan,0.1,0.1"):
        out = tmp_path / "x"
        assert run_cli("lowerbound", "--k", 4, "--eps", eps, "-o", out) == 2
        assert "eps entries must lie in (0, 1/2)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("eps_target", ["0", "-0.1", "nan", "inf"])
def test_lowerbound_bad_eps_target_exits_2_before_any_artifact(
    tmp_path, capsys, eps_target
):
    out = tmp_path / "out"
    rc = run_cli("lowerbound", "--k", 4, "--eps-target", eps_target, "-o", out)
    assert rc == 2
    assert "eps_target must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_lowerbound_requires_k(tmp_path, capsys):
    rc = run_cli("lowerbound", "--eps", "0.1", "-o", tmp_path / "x")
    assert rc == 2
    assert "missing required key(s): k" in capsys.readouterr().err


@pytest.mark.parametrize("k", [0, -1])
def test_lowerbound_k_below_2_exits_2(tmp_path, capsys, k):
    out = tmp_path / "x"
    assert run_cli("lowerbound", "--k", k, "-o", out) == 2
    assert "k must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("--k", 6, "--trials", 40, "--seed", 2),
        ("--k", 4, "--eps", "0.05,0.04,0.06,0.05", "--subset", "0,2,3", "--n-random", 20),
    ],
    ids=["default-trials", "eps-list-n-random"],
)
def test_lowerbound_resolved_config_roundtrip(tmp_path, args):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli("lowerbound", *args, "-o", first) == 0
    assert run_cli("lowerbound", "--config", first / "config.resolved", "-o", second) == 0
    for name in ("angles.csv", "ledger.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ------------------------------------------------------------------- flags

# Every field set to a non-None value of its own type.
_FULL_CONFIG = RunConfig(d=4, k=2, m=3, r_max=3)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_every_run_field_is_a_typed_flag(command, field):
    value = getattr(_FULL_CONFIG, field)
    flag = "--" + field.replace("_", "-")
    args = cli.build_parser().parse_args([command, flag, str(value)])
    parsed = getattr(args, field)
    assert parsed == value
    assert type(parsed) is type(value)


_COMMON_FLAGS = (("--config", "config"), ("-o", "output_dir"), ("--output-dir", "output_dir"))
# The flags each subcommand accepted before flags were derived from key tables,
# less refine's --c and --no-trim, removed with the rounding's c and trim,
# lowerbound's --eps-vector, folded into --eps, and simulate's --sdp-max-iters,
# removed with its RunConfig field.
_LEGACY_FLAGS = {
    "simulate": (
        ("--d", "d"), ("--k", "k"), ("--m", "m"), ("--N", "N"),
        ("--epsilon", "epsilon"), ("--acc-constant", "acc_constant"),
        ("--c-s", "c_s"), ("--seed", "seed"), ("--trials", "trials"),
        ("--mode", "mode"), ("--check-mode", "check_mode"), ("--r-max", "r_max"),
        ("--sdp-tol", "sdp_tol"), ("--jobs", "jobs"),
    ),
    "sweep": (
        ("--d-grid", "d_grid"), ("--epsilon-grid", "epsilon_grid"), ("--d", "d"),
        ("--k", "k"), ("--m", "m"), ("--N", "N"), ("--epsilon", "epsilon"),
        ("--seed", "seed"), ("--trials", "trials"), ("--mode", "mode"),
        ("--acc-constant", "acc_constant"), ("--c-s", "c_s"), ("--jobs", "jobs"),
    ),
    "refine": (
        ("--input", "input"), ("--k", "k"), ("--tol", "tol"),
        ("--max-iters", "max_iters"), ("--dump", "dump"),
    ),
    "lowerbound": (
        ("--k", "k"), ("--eps", "eps"), ("--eps-target", "eps_target"), ("--n-random", "n_random"),
        ("--trials", "trials"), ("--subset", "subset"), ("--seed", "seed"),
    ),
}
_FLAG_VALUES = {"--mode": "rr", "--check-mode": "montecarlo"}


@pytest.mark.parametrize(
    "command,flag,dest",
    [
        (command, flag, dest)
        for command, flags in _LEGACY_FLAGS.items()
        for flag, dest in _COMMON_FLAGS + flags
    ],
)
def test_legacy_flag_keeps_its_dest(command, flag, dest):
    argv = [command, flag, _FLAG_VALUES.get(flag, "3")]
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, dest) is not None


def test_only_sweep_gains_flags():
    added = {"--check-mode", "--r-max", "--sdp-tol"}
    for command, flags in _LEGACY_FLAGS.items():
        sub = cli.build_parser().parse_args([command]).parser
        accepted = set(sub._option_string_actions) - {"-h", "--help"}
        legacy = {flag for flag, _ in _COMMON_FLAGS + flags}
        assert accepted == legacy | (added if command == "sweep" else set())
