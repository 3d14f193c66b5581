"""Command-line entry point: simulate, sweep, refine, lowerbound.

Each subcommand has one key table, {key: (type, default)}; its config-file
keys and --flags both come from it. A run's configuration is the table's
defaults, under an optional flat key=value file, under flags. Every command
echoes that resolved configuration, less the keys left unset (None), to
output_dir/config.resolved, so any run can be reproduced exactly from its
own artifacts. All tabular output is CSV; a plain-text report carries
invariant checks and fit lines.

Exit codes: 0 success, 2 configuration error, 3 invariant violation,
4 refinement solver non-convergence. Commands do not catch library errors;
`main` maps them once: a RefinementError (a solve or rounding that breaks
its guarantee) exits 3 from every command, and any other ValueError, a
CliError or a library's check of its arguments, exits 2. Each command
makes its output directory only after its work, so an error leaves none.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .driver import (
    CHECK_MODES,
    MODES,
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    RunConfig,
    evaluate_report,
    report_rows,
    run_trials,
    summary_rows,
)
from .lowerbound import (
    LedgerReport,
    build_instance,
    new_task_angle_stats,
    sample_complexity_ledger,
)
from .refinement import DEFAULT_TOL, RefinementError, dump_solution, refine
from .threads import one_blas_thread

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_SOLVER = 4

ENV_OUTPUT_DIR = "LLLSIM_OUTPUT_DIR"


class CliError(ValueError):
    """A configuration problem the command itself finds; maps to exit code 2."""


class MissingKeyError(CliError):
    """Required key absent from both config file and flags."""


def _cast(key: str, val: str, typ):
    try:
        return typ(val)
    except ValueError as exc:
        raise CliError(f"bad value for {key!r}: {exc}") from exc


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, val = key.strip(), val.strip()
        if key in values:
            raise CliError(f"{path}:{ln}: duplicate key {key!r}")
        values[key] = val
    return values


def _resolve(args: argparse.Namespace, keys: dict) -> dict:
    """Defaults under file values under flags, every key checked and typed."""
    keys = {**keys, "output_dir": (str, None)}
    merged = {key: default for key, (_, default) in keys.items()}
    if args.config is not None:
        for key, val in _read_config_file(args.config).items():
            if key not in keys:
                raise CliError(f"unknown config key {key!r}")
            merged[key] = _cast(key, val, keys[key][0])
    for key in keys:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _require(merged: dict, *names: str) -> None:
    missing = [n for n in names if merged[n] is None]
    if missing:
        raise MissingKeyError("missing required key(s): " + ", ".join(missing))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # builtin repr round-trips; numpy repr does not
    return str(v)


def _output_dir(merged: dict) -> Path:
    """The artifact directory, checked; each command makes it after its work."""
    name = merged["output_dir"] or os.environ.get(ENV_OUTPUT_DIR) or "lllsim-out"
    out = Path(name)
    # the nearest existing path, where the mkdir after the work would fail
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        below = "" if existing == out else f" lies below {existing}, which"
        raise CliError(f"output path {out}{below} exists and is not a directory")
    merged["output_dir"] = str(out)
    return out


def _echo_config(out_dir: Path, merged: dict) -> None:
    """config.resolved: every key that is set, so a replay resolves the same."""
    lines = [f"{key}={_fmt(v)}" for key, v in sorted(merged.items()) if v is not None]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _scalar(hint):
    """The value type behind an optional annotation: `int | None` -> int."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


# One key table per subcommand, {key: (type, default)}. Config-file keys,
# --flags and defaults all come from these; the run keys are RunConfig's own
# fields with its defaults. A None default leaves the key unset.
_RUN_HINTS = typing.get_type_hints(RunConfig)
_RUN_KEYS = {
    f.name: (_scalar(_RUN_HINTS[f.name]), None if f.default is MISSING else f.default)
    for f in fields(RunConfig)
}
_SIMULATE_KEYS = {**_RUN_KEYS, "jobs": (int, 1)}
_SWEEP_KEYS = {**_SIMULATE_KEYS, "d_grid": (str, None), "epsilon_grid": (str, None)}
_REFINE_KEYS = {
    "input": (str, None),
    "k": (int, None),
    "tol": (float, DEFAULT_TOL),
    "max_iters": (int, None),  # the solver derives it from the number of rows
    "dump": (str, None),
}
_LB_KEYS = {
    "k": (int, None),
    "eps": (str, "0.1"),
    "eps_target": (float, 0.1),
    "n_random": (int, 0),
    "trials": (int, None),  # 200 fresh tasks when n_random is 0
    "subset": (str, None),
    "seed": (int, 0),
}
_CHOICES = {"mode": MODES, "check_mode": CHECK_MODES}
_HELP = {
    "d_grid": "comma-separated dimensions",
    "epsilon_grid": "comma-separated accuracies",
    "input": "one whitespace-separated vector per line",
    "dump": "write a solver state dump to this file",
    "eps": "one accuracy for every coordinate, or k comma-separated ones",
    "subset": "comma-separated coordinate subset",
}


def _base_config(merged: dict) -> RunConfig:
    return RunConfig(**{key: merged[key] for key in _RUN_KEYS})


def _check_invariants(cfg: RunConfig, reports) -> list:
    """Structural per-run checks; returns problem descriptions."""
    problems = []
    for i, r in enumerate(reports):
        tag = f"{cfg.mode} trial {i}"
        if int(r.samples_cum_curve[-1]) != r.samples_total:
            problems.append(f"{tag}: cumulative samples disagree with total")
        if (
            cfg.mode in ("basic", "rr")
            and cfg.check_mode == "oracle"
            and not r.error_contract_ok
        ):
            problems.append(f"{tag}: per-task error above epsilon")
        if cfg.mode == "basic" and np.any(np.diff(r.feature_dim_curve) < 0):
            problems.append(f"{tag}: feature dimension decreased")
        if cfg.mode == "rr":
            cap = max(2 * cfg.k - 1, cfg.r_max or 0)
            if int(r.feature_dim_curve.max()) > cap:
                problems.append(f"{tag}: feature dimension exceeded {cap}")
    return problems


def _mode_report_lines(cfg: RunConfig, reports, problems) -> list:
    n = len(reports)
    final_acc = [float(r.accuracy_curve[-1]) for r in reports]
    final_min = [float(r.min_accuracy_curve[-1]) for r in reports]
    final_dim = [int(r.feature_dim_curve[-1]) for r in reports]
    final_ang = [float(r.angle_curve[-1]) for r in reports]
    events = [len(r.new_feature_events) for r in reports]
    trend = sum(1 for r in reports if r.angle_curve[-1] <= r.angle_curve[0])
    conv = sum(1 for r in reports if r.refinement_converged)
    lines = [
        f"[{cfg.mode}] trials={n}",
        f"  new-feature events: mean={np.mean(events):.2f} max={max(events)}",
        f"  final feature dim: mean={np.mean(final_dim):.2f} max={max(final_dim)}",
        f"  final avg accuracy: mean={np.mean(final_acc):.4f} min={min(final_acc):.4f}",
        f"  final min accuracy: min={min(final_min):.4f}",
        f"  final subspace angle: mean={np.mean(final_ang):.4f}",
        f"  samples_total: mean={np.mean([r.samples_total for r in reports]):.1f}",
        f"  angle final<=initial: {trend}/{n} trials",
        f"  refinement converged: {conv}/{n} trials",
        f"  wall time: {sum(r.wall_time for r in reports):.2f} s",
        "  invariants: " + ("PASS" if not problems else "FAIL"),
    ]
    lines.extend(f"    {p}" for p in problems)
    return lines


def _converged(groups) -> bool:
    return all(r.refinement_converged for reports in groups for r in reports)


def _finish(out_dir: Path, lines: list, problems: list, converged: bool) -> int:
    """Exit code from the checks; the report ends with it and is written out."""
    if problems:
        code = EXIT_INVARIANT
    elif not converged:
        code = EXIT_SOLVER
    else:
        code = EXIT_OK
    lines.append(f"exit code: {code}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return code


def _cmd_simulate(merged: dict, out_dir: Path) -> int:
    _require(merged, "d", "k", "m")
    mode_req = merged["mode"]
    if mode_req not in MODES + ("all",):
        raise CliError(f"mode must be one of {MODES + ('all',)}, got {mode_req!r}")
    modes = MODES if mode_req == "all" else (mode_req,)
    cfgs = [_base_config(dict(merged, mode=mode)) for mode in modes]
    groups = run_trials(cfgs, jobs=merged["jobs"])
    out_dir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    report_lines = []
    problems = []
    for cfg, reports in zip(cfgs, groups):
        for trial, rep in enumerate(reports):
            all_rows.extend(report_rows(rep, trial))
        table = evaluate_report(reports)
        _write_csv(
            out_dir / f"summary_{cfg.mode}.csv", SUMMARY_COLUMNS, summary_rows(table)
        )
        mode_problems = _check_invariants(cfg, reports)
        problems.extend(mode_problems)
        report_lines.extend(_mode_report_lines(cfg, reports, mode_problems))

    _write_csv(out_dir / "runs.csv", REPORT_COLUMNS, all_rows)
    _echo_config(out_dir, merged)
    return _finish(out_dir, report_lines, problems, _converged(groups))


def _parse_grid(text: str, typ, name: str) -> list:
    vals = [v for v in (piece.strip() for piece in text.split(",")) if v]
    if not vals:
        raise CliError(f"{name} is empty")
    return [_cast(name, v, typ) for v in vals]


def _fit_line(xs, ys) -> tuple:
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    pred = slope * np.asarray(xs, float) + intercept
    resid = np.asarray(ys, float) - pred
    total = np.asarray(ys, float) - np.mean(ys)
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _cmd_sweep(merged: dict, out_dir: Path) -> int:
    _require(merged, "k", "m")
    d_grid, eps_grid = (
        [] if merged[name] is None else _parse_grid(merged[name], typ, name)
        for name, typ in (("d_grid", int), ("epsilon_grid", float))
    )
    if not d_grid and not eps_grid:
        raise CliError("sweep needs d_grid and/or epsilon_grid")
    if eps_grid and merged["d"] is None:
        raise CliError("epsilon_grid sweep needs d")
    for name, grid in (("d_grid", d_grid), ("epsilon_grid", eps_grid)):
        if len(set(grid)) < len(grid):
            raise CliError(f"{name} repeats a value")

    points = [("d", d, dict(merged, d=d)) for d in d_grid]
    points += [("epsilon", e, dict(merged, epsilon=e)) for e in eps_grid]
    cfgs = [_base_config(point) for _, _, point in points]
    groups = run_trials(cfgs, jobs=merged["jobs"])
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    lines = []
    problems = []
    means = {"d": [], "epsilon": []}
    for (axis, value, _), cfg, reports in zip(points, cfgs, groups):
        problems.extend(_check_invariants(cfg, reports))
        totals = [r.samples_total for r in reports]
        mean = float(np.mean(totals))
        means[axis].append(mean)
        rows.append([axis, value, cfg.trials, mean, float(np.std(totals))])

    if d_grid:
        if len(d_grid) >= 2:
            slope, intercept, r2 = _fit_line(d_grid, means["d"])
            lines.append(
                f"fit samples_total ~ slope*d + b: slope={slope:.2f} "
                f"intercept={intercept:.1f} R2={r2:.6f}"
            )
        else:
            lines.append("d fit skipped (single grid point)")
    if eps_grid:
        emeans = means["epsilon"]
        if len(eps_grid) >= 2:
            slope, intercept, r2 = _fit_line([1.0 / e for e in eps_grid], emeans)
            lines.append(
                f"fit samples_total ~ slope/epsilon + b: slope={slope:.2f} "
                f"intercept={intercept:.1f} R2={r2:.6f}"
            )
            order = np.argsort(eps_grid)[::-1]  # decreasing epsilon
            sorted_means = np.asarray(emeans)[order]
            mono = bool(np.all(np.diff(sorted_means) > 0))
            lines.append(
                "samples_total increases as epsilon decreases: "
                + ("yes" if mono else "no")
            )
        else:
            lines.append("epsilon fit skipped (single grid point)")

    _write_csv(
        out_dir / "sweep.csv",
        ("axis", "value", "trials", "mean_samples_total", "std_samples_total"),
        rows,
    )
    _echo_config(out_dir, merged)

    lines.append("invariants: " + ("PASS" if not problems else "FAIL"))
    lines.extend(f"  {p}" for p in problems)
    return _finish(out_dir, lines, problems, _converged(groups))


def _dump_path(name: str, out_dir: Path) -> Path:
    """refine's dump file, relative to out_dir, checked before the solve."""
    path = Path(os.path.abspath(out_dir / name))
    out = Path(os.path.abspath(out_dir))
    if path == out or path.is_dir():
        raise CliError(f"dump path {path} is a directory")
    if path.parent != out and not path.parent.is_dir():
        raise CliError(
            f"dump path {path} lies in {path.parent}, which is neither the "
            "output directory nor an existing directory"
        )
    return path


def _cmd_refine(merged: dict, out_dir: Path) -> int:
    _require(merged, "input", "k")
    dump_path = None if merged["dump"] is None else _dump_path(merged["dump"], out_dir)
    try:
        W = np.loadtxt(merged["input"], ndmin=2)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot parse feature file {merged['input']}: {exc}") from exc
    if W.size == 0:
        raise CliError("feature file is empty")
    if not np.all(np.isfinite(W)):
        raise CliError("feature file contains non-finite values")
    norms = np.linalg.norm(W, axis=1)
    if np.any(norms < 1e-12):
        raise CliError("feature file contains a zero row")
    off = np.abs(norms - 1.0) > 1e-8
    if np.any(off):
        print(
            f"warning: normalized {int(off.sum())} non-unit feature rows",
            file=sys.stderr,
        )
        W = W / norms[:, None]

    # the solver checks k, tol and max_iters; eps_acc enters no result
    V, cert, sol = refine(
        W, merged["k"], eps_acc=1.0, tol=merged["tol"],
        max_iters=merged["max_iters"], full_output=True,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    basis_path = out_dir / "refined_basis.txt"
    np.savetxt(basis_path, V.basis.T, fmt="%.17g")
    if dump_path is not None:
        dump_solution(sol, dump_path)
    _echo_config(out_dir, merged)

    lines = [
        f"t_star={sol.t:.6f}",
        f"gap={sol.gap:.6g}",
        f"iterations={sol.iterations}",
        f"converged={'yes' if sol.converged else 'no'}",
        f"rounded_dim={cert.dims}",
        f"max_distance={cert.max_distance:.6f}",
        f"approx_bound={cert.approx_bound:.6f}",
        f"basis_file={basis_path}",
    ]
    print("\n".join(lines))
    return EXIT_OK if sol.converged else EXIT_SOLVER


def _cmd_lowerbound(merged: dict, out_dir: Path) -> int:
    _require(merged, "k")
    k = merged["k"]
    eps = _parse_grid(merged["eps"], float, "eps")
    if len(eps) not in (1, k):
        raise CliError(f"eps takes 1 or k={k} values, got {len(eps)}")
    eps_vec = eps * k if len(eps) == 1 else eps
    subset = merged["subset"]
    if subset is not None:
        subset = _parse_grid(subset, int, "subset")
    if merged["trials"] is None and merged["n_random"] == 0:
        merged["trials"] = 200  # sensible default sample of fresh combination tasks
    eps_target = merged["eps_target"]
    instance = build_instance(
        k, merged["n_random"], merged["seed"], eps_vec, subset=subset
    )
    uniform = [eps_target / math.sqrt(k)] * k
    stats = new_task_angle_stats(instance, trials=merged["trials"])
    ledgers = [
        (name, sample_complexity_ledger(instance, eps_target, alloc))
        for name, alloc in (("instance", eps_vec), ("uniform", uniform))
    ]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "angles.csv",
        ("task_index", "angle", "threshold", "exceeds"),
        [
            [i, float(a), float(stats.threshold), int(a >= stats.threshold)]
            for i, a in enumerate(stats.angles)
        ],
    )
    columns = [f.name for f in fields(LedgerReport)]
    _write_csv(
        out_dir / "ledger.csv",
        ["allocation", *columns],
        [
            [name, *(_ledger_cell(getattr(rep, c)) for c in columns)]
            for name, rep in ledgers
        ],
    )
    _echo_config(out_dir, merged)

    lines = [
        f"tasks={stats.angles.size}",
        f"threshold={stats.threshold:.6f}",
        f"fraction_exceeding={stats.fraction_exceeding:.4f}",
        f"bound={stats.bound:.4f}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _ledger_cell(value):
    """Flags as 0/1, costs as floats."""
    return int(value) if isinstance(value, bool) else float(value)


def _add_keys(sub: argparse.ArgumentParser, keys: dict, choices: dict) -> None:
    """One --flag per key of a table."""
    for key, (typ, _) in keys.items():
        sub.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=typ,
            choices=choices.get(key),
            help=_HELP.get(key),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lllsim",
        description="Lifelong learning of linear representations: simulator and analysis tools",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", "run lifelong-learning trials", _cmd_simulate, _SIMULATE_KEYS),
        ("sweep", "sample-complexity scaling sweeps", _cmd_sweep, _SWEEP_KEYS),
        ("refine", "run the refinement solver on a feature file", _cmd_refine, _REFINE_KEYS),
        ("lowerbound", "adversarial lower-bound harness", _cmd_lowerbound, _LB_KEYS),
    )
    for name, help_text, func, keys in commands:
        # no prefix matching: a removed flag such as refine's --c must not
        # turn into --config
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument(
            "-o", "--output-dir", dest="output_dir", help="artifact directory"
        )
        choices = _CHOICES
        if name == "simulate":
            choices = {**_CHOICES, "mode": MODES + ("all",)}
        _add_keys(sub, keys, choices)
        sub.set_defaults(func=func, keys=keys, parser=sub)
    return parser


@one_blas_thread()
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _resolve(args, args.keys)
        return args.func(merged, _output_dir(merged))
    except MissingKeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except RefinementError as exc:  # a broken guarantee, from any command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # CliError, or a library's check of its arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
