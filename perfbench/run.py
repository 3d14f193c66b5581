"""lllsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload long_stream --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/` next to
this directory, never from an installed copy. The workloads, metrics, units
and regression bounds are listed in `BENCHMARK.json` at the root.

`--trace 0` measures the end-to-end metrics. Passes run on fresh instances
j = 0, 1, 2, ... until `--seconds` is spent; `wall_s` and `cpu_s` are the
mean pass (the median, quartiles and count go to the record). `setup_s` is
the median over several fresh interpreters that each import the package and
build pass 0's inputs.

`--trace 1` measures the per-layer metrics. It alternates untraced and
traced passes over instance 0, so every traced pass repeats the same work:
counts are exact, times are means over traced passes, and
`bench.trace_overhead_frac` compares the two kinds of pass.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics. A fuller record (quartiles, pass times, environment, failures) is
appended to `<out>/results.jsonl`; traced runs also write their spans to
`<out>/spans-<workload>-seed<seed>.jsonl`. `perfbench/compare.py` diffs two
results files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import LAYERS, Tracer, self_times, summarize

# numpy and lllsim are imported only inside functions, so that a setup probe
# times their import.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FORKED_NOTE = (
    "spans inside forked run_trials workers are not recorded; their CPU time "
    "is driver.run_trials.child_cpu_s"
)


def cpu_s() -> float:
    """User+sys time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest reaped child."""
    kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def summary(values) -> dict:
    """Mean, median, quartiles and count of a list of measurements."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    mean = statistics.fmean(values)
    return {"mean": mean, "median": med, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, make_ops, seed: int, workdir: Path):
        self.make_ops = make_ops
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self._dirs = 0

    def run_pass(self, j: int, tracer=None) -> dict:
        """Build pass j's inputs, then time each op; checks run untimed."""
        self._dirs += 1
        pass_dir = self.workdir / f"pass{self._dirs}"
        pass_dir.mkdir()
        setup = tracer.root("bench.setup", None) if tracer else nullcontext()
        with setup:
            ops = self.make_ops(self.seed, j, pass_dir)
        wall = cpu = 0.0
        samples = tasks = 0
        for i, op in enumerate(ops):
            self.attempted += 1
            span = tracer.root("bench.op", f"{j}.{i}") if tracer else nullcontext()
            c0, t0 = cpu_s(), time.perf_counter()
            try:
                with span:
                    result = op.call()
                wall += time.perf_counter() - t0
                cpu += cpu_s() - c0
                outcome = op.check(result)
            except Exception:  # an op that raises fails; the run goes on
                self.failures.append(
                    f"pass {j} {op.label}: {traceback.format_exc(limit=3)}"
                )
                continue
            self.failures.extend(f"pass {j} {p}" for p in outcome.problems)
            samples += outcome.samples
            tasks += outcome.tasks
        shutil.rmtree(pass_dir)
        return {"wall_s": wall, "cpu_s": cpu, "samples": samples, "tasks": tasks}


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(len(passes)))
        walls = [p["wall_s"] for p in passes]
        left = seconds - (time.perf_counter() - start)
        if len(passes) >= MIN_PASSES and statistics.median(walls) > left:
            break
    # The mean pass, i.e. all the run's measured time over its passes: on
    # cli_trials pass times take two levels (forked workers oversubscribing
    # BLAS threads, or not), and a median flips between them.
    wall = summary(walls)
    cpu = summary([p["cpu_s"] for p in passes])
    metrics = {
        "wall_s": {"value": wall["mean"], **wall},
        "cpu_s": {"value": cpu["mean"], **cpu},
        "peak_rss_mb": {"value": peak_rss_mb()},
    }
    return metrics, {"passes": passes}


def setup_probe(workload: str, seed: int, out: Path) -> float:
    """Seconds to import the package and build pass 0's inputs."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=out) as tmp:
        WORKLOADS[workload](seed, 0, Path(tmp))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=120, cwd=ROOT
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    probes = summary(times)
    return {"value": probes["median"], **probes}


def per_pass_layers(spans, stats: dict) -> dict:
    """Per-layer figures of one traced pass, from its spans and check outcomes."""
    flat = summarize(spans)
    checks = flat.get("learner.check_hypothesis.calls", 0)
    sdp = flat.get("refinement.solve_refinement_sdp.calls", 0)
    flat["learner.check.pass_ratio"] = (
        flat.get("learner.check_hypothesis.passed", 0) / checks if checks else 0.0
    )
    flat["refinement.sdp.iters"] = flat.get("refinement.solve_refinement_sdp.iters", 0)
    flat["refinement.sdp.converged_ratio"] = (
        flat.get("refinement.solve_refinement_sdp.converged", 0) / sdp if sdp else 0.0
    )
    flat["driver.samples_per_task"] = (
        stats["samples"] / stats["tasks"] if stats["tasks"] else 0.0
    )
    # every span inside an op, the op's own span included, adds its self time
    own = self_times(spans)
    op_time = sum(s.t1 - s.t0 for s in spans if s.name == "bench.op")
    in_ops = sum(own[s.id] for s in spans if s.op is not None)
    flat["bench.self_time_coverage"] = in_ops / op_time if op_time else 0.0
    return flat


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes on instance 0 until time is up."""
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        # alternate which kind of pass goes first, so warm-up hits both
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(runner.run_pass(0))
                continue
            with Tracer() as tracer:
                stats = runner.run_pass(0, tracer)
            traced.append(stats)
            layers.append(per_pass_layers(tracer.spans, stats))
            spans.append(tracer.spans)
        left = seconds - (time.perf_counter() - start)
        if 2 * statistics.median(p["wall_s"] for p in plain + traced) > left:
            break
    names = set().union(*layers)
    values = {n: statistics.fmean(f.get(n, 0.0) for f in layers) for n in names}
    traced_s = statistics.fmean(p["wall_s"] for p in traced)
    values["bench.trace_overhead_frac"] = (
        traced_s / statistics.fmean(p["wall_s"] for p in plain) - 1.0
    )
    # counts must repeat exactly from one traced pass to the next
    varying = {
        n: sorted({f.get(n, 0.0) for f in layers})
        for n in names
        if not n.endswith("_s") and n != "bench.self_time_coverage"
    }
    info = {
        "traced_passes": len(traced),
        "plain_passes": len(plain),
        "traced_pass_s": traced_s,
        "counts_vary": {n: v for n, v in varying.items() if len(v) > 1},
        "spans": spans,
    }
    return values, info


def write_spans(path: Path, passes) -> None:
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            own = self_times(spans)
            for s in spans:
                rec = {
                    "pass": k,
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start_s": s.t0 - spans[0].t0,
                    "dur_s": s.t1 - s.t0,
                    "self_s": own[s.id],
                    **s.counts,
                }
                fh.write(json.dumps(rec) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".perfbench-results"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lllsim" / "__init__.py").is_file():
        print(f"error: no lllsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, out))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import lllsim
    from workloads import WORKLOADS

    if not Path(lllsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: lllsim imported from {lllsim.__file__}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            values, info = measure_layers(runner, args.seconds)
        else:
            values, info = measure_end_to_end(runner, args.seconds)
            values["setup_s"] = measure_setup(args.workload, args.seed, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        v = values.get(m["name"])
        if v is None and m["name"].rsplit(".", 1)[0] in LAYERS:
            v = 0.0  # a traced layer this workload never calls
        v = v if isinstance(v, dict) else {"value": v}
        metrics[m["name"]] = {**v, "unit": m["unit"]}
    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "metrics": metrics,
        "environment": environment(),
        "failures": runner.failures,
    }
    if args.trace:
        info["spans_file"] = f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out / info["spans_file"], info.pop("spans"))
        if values.get("driver.run_trials.child_cpu_s"):
            info["note"] = FORKED_NOTE
    record.update(info)
    with open(out / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for key, val in record["environment"].items():
        print(f"env {key} = {val}")
    for name, m in metrics.items():
        extra = (
            f"  (median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})"
            if "n" in m
            else ""
        )
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed}/{runner.attempted} ops)")
    for note in runner.failures:
        print(f"FAILED {note}")
    if "note" in record:
        print(f"note: {record['note']}")
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {
        n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
