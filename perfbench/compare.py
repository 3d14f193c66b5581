"""Compare two benchmark results files, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records `run.py` appends to `<out>/results.jsonl`. The
runs of one workload are pooled, so pass several seeds per side: a metric's
median and quartiles are taken over its runs. End-to-end metrics get a
verdict against their bound in `BENCHMARK.json`:

- `better`: the head median improves on the base median by more than the
  base runs' own spread (distance between quartiles);
- `worse beyond bound`: the head median is worse by more than the bound,
  as a share of the base median;
- `within bound`: neither of the above;
- `unresolved`: the spread of either side is wider than the bound, unless
  every head run is better than every base run.

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, summary


def load(path) -> dict:
    """(workload, metric) -> values, one per run in the file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def quartiles(values) -> tuple:
    s = summary(values)
    return s["q1"], s["median"], s["q3"]


def verdict(base, head, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    scale = abs(bmed)
    worse = sign * (hmed - bmed) / scale  # share of the base median
    if max(bq3 - bq1, hq3 - hq1) / scale > bound:
        if max(sign * h for h in head) < min(sign * b for b in base):
            return "better"
        return "unresolved"
    if worse > bound:
        return "worse beyond bound"
    if -worse * scale > bq3 - bq1:
        return "better"
    return "within bound"


def rows(base: dict, head: dict, spec: dict) -> list:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = []
    for key in sorted(base.keys() | head.keys()):
        workload, name = key
        if key not in base or key not in head:
            out.append((workload, name, "", "", "", "missing on one side"))
            continue
        m = metrics.get(name, {})
        bq1, bmed, bq3 = quartiles(base[key])
        hq1, hmed, hq3 = quartiles(head[key])
        delta = hmed - bmed
        rel = f" ({delta / bmed:+.1%})" if bmed else ""
        bound = m.get("bound")
        out.append(
            (
                workload,
                f"{name} [{m.get('unit', '?')}]",
                f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(base[key])}",
                f"{hmed:.6g} [{hq1:.6g}, {hq3:.6g}] n={len(head[key])}",
                f"{delta:+.6g}{rel}",
                verdict(base[key], head[key], m["better"], bound)
                if bound is not None
                else "-",
            )
        )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base")
    p.add_argument("head")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = [("workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
              "delta (of base)", "verdict")]
    table += rows(load(args.base), load(args.head), spec)
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
