"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from spans import Span, Tracer, self_times, summarize

sys.path.insert(0, str(run.SRC))

import lllsim  # noqa: E402
from lllsim import driver  # noqa: E402
from workloads import Op, Outcome  # noqa: E402


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 4.0),
        Span(2, 1, "op", "a.child", 2.0, 3.0),
        Span(3, 0, "op", "b", 3.0, 6.0),  # overlaps a: covered once
        Span(4, 0, "op", "c", 8.0, 12.0),  # runs past root: clipped at 10
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 2, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})
    flat = summarize(spans + [Span(5, None, None, "a", 20.0, 21.0)])
    assert flat["a.calls"] == 2
    assert flat["a.self_s"] == pytest.approx(3.0)


def test_self_times_of_nested_calls_add_up_to_the_root():
    spans = [
        Span(0, None, "op", "root", 0.0, 8.0),
        Span(1, 0, "op", "x", 0.5, 3.0),
        Span(2, 1, "op", "y", 1.0, 2.0),
        Span(3, 0, "op", "x", 4.0, 7.5),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def _package_attributes() -> dict:
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "lllsim" or name.startswith("lllsim.")
        for attr, val in vars(mod).items()
    }


def test_traced_run_restores_every_lllsim_attribute():
    import lllsim.cli  # noqa: F401  every module the tracer patches is loaded

    before = _package_attributes()
    cfg = driver.RunConfig(d=12, k=2, m=6, mode="rr", seed=3)
    with Tracer() as tracer:
        assert lllsim.learner.sample_batch is lllsim.synthetic.sample_batch
        assert lllsim.learner.sample_batch is not before[("lllsim.synthetic", "sample_batch")]
        driver.run_one(cfg)
    names = {s.name for s in tracer.spans}
    assert {"driver.run_one", "synthetic.sample_batch", "refinement.refine"} <= names
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())


def test_tracer_restores_after_an_exception():
    before = _package_attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _package_attributes()
    assert all(after[key] is val for key, val in before.items())


def test_a_raising_op_counts_as_failed(tmp_path):
    def boom():
        raise RuntimeError("boom")

    def make_ops(seed, j, workdir):
        return [
            Op("ok", lambda: 1, lambda r: Outcome((), samples=5, tasks=1)),
            Op("raises", boom, lambda r: Outcome()),
            Op("bad", lambda: 2, lambda r: Outcome(("bad: wrong",))),
            Op("ok2", lambda: 3, lambda r: Outcome((), samples=7, tasks=1)),
        ]

    runner = run.Runner(make_ops, seed=0, workdir=tmp_path)
    stats = runner.run_pass(0)
    assert runner.attempted == 4
    assert len(runner.failures) == 2
    assert "RuntimeError: boom" in runner.failures[0]
    assert (stats["samples"], stats["tasks"]) == (12, 2)


@pytest.mark.parametrize(
    "base, head, better, want",
    [
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "lower", "worse beyond bound"),
        ([10.0, 10.1, 9.9, 10.0], [10.5, 10.6, 10.4, 10.5], "lower", "within bound"),
        ([10.0, 10.1, 9.9, 10.0], [9.95, 10.05, 9.9, 10.0], "lower", "within bound"),
        ([10.0, 14.0, 7.0, 10.0], [9.0, 13.0, 6.0, 9.5], "lower", "unresolved"),
        ([10.0, 14.0, 7.0, 10.0], [3.0, 4.0, 5.0, 6.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [7.5, 7.6, 7.4, 7.5], "higher", "worse beyond bound"),
    ],
)
def test_compare_verdicts(base, head, better, want):
    assert compare.verdict(base, head, better, bound=0.2) == want


def test_compare_rows_flag_missing_metrics():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "x.calls", "unit": "count", "better": "lower"}]}
    base = {("w", "wall_s"): [1.0, 1.0], ("w", "x.calls"): [3.0]}
    head = {("w", "wall_s"): [1.5, 1.5]}
    table = {r[1].split()[0]: r[-1] for r in compare.rows(base, head, spec)}
    assert table == {"wall_s": "worse beyond bound", "x.calls": "missing on one side"}


def test_benchmark_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
